//! First-order optimizers operating on a [`crate::nn::ParamSet`].

use crate::nn::ParamSet;
use crate::Tensor;

/// Clip gradients to a maximum global L2 norm; returns the pre-clip norm.
pub fn clip_grad_norm(params: &ParamSet, max_norm: f32) -> f32 {
    let _prof = tmn_obs::Span::phase("optim.clip_grad_norm");
    let norm = params.grad_norm();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for t in params.tensors() {
            if let Some(g) = t.grad() {
                let scaled: Vec<f32> = g.iter().map(|v| v * scale).collect();
                t.zero_grad();
                t.accumulate_grad(&scaled);
            }
        }
    }
    norm
}

/// Plain SGD with optional momentum.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    pub fn new(params: &ParamSet, lr: f32, momentum: f32) -> Sgd {
        let velocity = params.tensors().map(|t| vec![0.0; t.numel()]).collect();
        Sgd { lr, momentum, velocity }
    }

    pub fn step(&mut self, params: &ParamSet) {
        for (t, v) in params.tensors().zip(&mut self.velocity) {
            let Some(g) = t.grad() else { continue };
            let mut data = t.data_mut();
            for i in 0..data.len() {
                v[i] = self.momentum * v[i] + g[i];
                data[i] -= self.lr * v[i];
            }
        }
    }
}

/// A portable snapshot of an [`Adam`] optimizer: hyperparameters, step
/// count, and both moment buffers. Everything needed to continue training
/// bit-identically after a checkpoint/restore cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// Steps taken so far (drives bias correction).
    pub t: u64,
    /// First-moment buffers, one per parameter in registration order.
    pub m: Vec<Vec<f32>>,
    /// Second-moment buffers, one per parameter in registration order.
    pub v: Vec<Vec<f32>>,
}

/// Why an [`Adam::restore_state`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimStateError {
    /// The snapshot covers a different number of parameters.
    BufferCount { expected: usize, found: usize },
    /// One moment buffer has the wrong length (parameter shape changed).
    BufferLen { index: usize, expected: usize, found: usize },
}

impl std::fmt::Display for OptimStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimStateError::BufferCount { expected, found } => {
                write!(f, "optimizer state covers {found} parameters, model has {expected}")
            }
            OptimStateError::BufferLen { index, expected, found } => {
                write!(f, "moment buffer {index} has {found} scalars, parameter has {expected}")
            }
        }
    }
}

impl std::error::Error for OptimStateError {}

/// Adam (Kingma & Ba), the optimizer the paper uses (Section V-A4).
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Default betas (0.9, 0.999) and eps 1e-8.
    pub fn new(params: &ParamSet, lr: f32) -> Adam {
        Adam::with_config(params, lr, 0.9, 0.999, 1e-8)
    }

    pub fn with_config(params: &ParamSet, lr: f32, beta1: f32, beta2: f32, eps: f32) -> Adam {
        let m = params.tensors().map(|t| vec![0.0; t.numel()]).collect();
        let v = params.tensors().map(|t| vec![0.0; t.numel()]).collect();
        Adam { lr, beta1, beta2, eps, t: 0, m, v }
    }

    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Copy out the full optimizer state (hyperparameters, step count, both
    /// moment buffers) for checkpointing.
    pub fn state_snapshot(&self) -> AdamState {
        AdamState {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restore a state captured with [`Adam::state_snapshot`]. The buffer
    /// layout must match the optimizer's parameters exactly; on mismatch the
    /// optimizer is left untouched and an error is returned.
    pub fn restore_state(&mut self, state: &AdamState) -> Result<(), OptimStateError> {
        if state.m.len() != self.m.len() || state.v.len() != self.v.len() {
            return Err(OptimStateError::BufferCount {
                expected: self.m.len(),
                found: state.m.len().max(state.v.len()),
            });
        }
        for (i, (ours, theirs)) in self.m.iter().zip(&state.m).enumerate() {
            if ours.len() != theirs.len() {
                return Err(OptimStateError::BufferLen {
                    index: i,
                    expected: ours.len(),
                    found: theirs.len(),
                });
            }
        }
        for (i, (ours, theirs)) in self.v.iter().zip(&state.v).enumerate() {
            if ours.len() != theirs.len() {
                return Err(OptimStateError::BufferLen {
                    index: i,
                    expected: ours.len(),
                    found: theirs.len(),
                });
            }
        }
        self.lr = state.lr;
        self.beta1 = state.beta1;
        self.beta2 = state.beta2;
        self.eps = state.eps;
        self.t = state.t;
        self.m.clone_from(&state.m);
        self.v.clone_from(&state.v);
        Ok(())
    }

    /// Apply one update; parameters without gradients are skipped.
    pub fn step(&mut self, params: &ParamSet) {
        let _prof = tmn_obs::Span::phase("optim.adam_step");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((tensor, m), v) in params.tensors().zip(&mut self.m).zip(&mut self.v) {
            let Some(g) = tensor.grad() else { continue };
            let mut data = tensor.data_mut();
            for i in 0..data.len() {
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g[i];
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g[i] * g[i];
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                data[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// Zero-grad + backward + clip + step in one call; returns (loss, grad norm).
pub fn train_step(params: &ParamSet, optimizer: &mut Adam, loss: &Tensor, clip: f32) -> (f32, f32) {
    params.zero_grad();
    loss.backward();
    let norm = clip_grad_norm(params, clip);
    optimizer.step(params);
    (loss.item(), norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ops, Tensor};

    fn quadratic_setup() -> (ParamSet, Tensor) {
        let mut ps = ParamSet::new();
        let x = ps.register("x", Tensor::param(vec![5.0, -3.0], &[2]));
        (ps, x)
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let (ps, x) = quadratic_setup();
        let mut opt = Adam::new(&ps, 0.1);
        for _ in 0..300 {
            let loss = ops::sum_all(&ops::mul(&x, &x));
            ps.zero_grad();
            loss.backward();
            opt.step(&ps);
        }
        assert!(x.to_vec().iter().all(|v| v.abs() < 1e-2), "x = {:?}", x.to_vec());
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        let (ps, x) = quadratic_setup();
        let mut opt = Sgd::new(&ps, 0.1, 0.9);
        for _ in 0..200 {
            let loss = ops::sum_all(&ops::mul(&x, &x));
            ps.zero_grad();
            loss.backward();
            opt.step(&ps);
        }
        assert!(x.to_vec().iter().all(|v| v.abs() < 1e-2));
    }

    #[test]
    fn clip_limits_norm() {
        let (ps, x) = quadratic_setup();
        let loss = ops::sum_all(&ops::mul(&x, &x));
        loss.backward();
        // grad = 2x = [10, -6]; norm = sqrt(136) ≈ 11.66
        let pre = clip_grad_norm(&ps, 1.0);
        assert!((pre - 136.0f32.sqrt()).abs() < 1e-3);
        assert!((ps.grad_norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn clip_noop_when_below_threshold() {
        let (ps, x) = quadratic_setup();
        ops::sum_all(&ops::mul(&x, &x)).backward();
        let before = ps.grad_norm();
        clip_grad_norm(&ps, 1e9);
        assert_eq!(ps.grad_norm(), before);
    }

    #[test]
    fn adam_state_roundtrip_is_bit_identical() {
        // Two optimizers: run A for 50 steps, snapshot, run A and a restored
        // B for 50 more — weights must agree bit for bit.
        let run = |resume_at: Option<u64>| -> Vec<u32> {
            let (ps, x) = quadratic_setup();
            let mut opt = Adam::new(&ps, 0.1);
            let mut stash: Option<AdamState> = None;
            for step in 0..100u64 {
                if Some(step) == resume_at {
                    // Swap in a freshly built optimizer restored from the
                    // snapshot taken right now.
                    let snap = opt.state_snapshot();
                    let mut fresh = Adam::new(&ps, 99.0);
                    fresh.restore_state(&snap).unwrap();
                    opt = fresh;
                    stash = Some(snap);
                }
                let loss = ops::sum_all(&ops::mul(&x, &x));
                ps.zero_grad();
                loss.backward();
                opt.step(&ps);
            }
            if let Some(s) = stash {
                assert_eq!(s.t, resume_at.unwrap());
            }
            x.to_vec().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(run(None), run(Some(50)), "restored Adam diverged from uninterrupted run");
    }

    #[test]
    fn adam_restore_rejects_mismatched_buffers() {
        let (ps, _x) = quadratic_setup();
        let mut opt = Adam::new(&ps, 0.1);
        let mut bad = opt.state_snapshot();
        bad.m.push(vec![0.0; 3]);
        assert!(matches!(
            opt.restore_state(&bad),
            Err(OptimStateError::BufferCount { expected: 1, found: 2 })
        ));
        let mut bad_len = opt.state_snapshot();
        bad_len.v[0] = vec![0.0; 7];
        assert!(matches!(
            opt.restore_state(&bad_len),
            Err(OptimStateError::BufferLen { index: 0, expected: 2, found: 7 })
        ));
        // A failed restore leaves the optimizer usable.
        assert_eq!(opt.state_snapshot().t, 0);
    }

    #[test]
    fn train_step_reports_loss() {
        let (ps, x) = quadratic_setup();
        let mut opt = Adam::new(&ps, 0.05);
        let loss = ops::sum_all(&ops::mul(&x, &x));
        let (l, n) = train_step(&ps, &mut opt, &loss, 100.0);
        assert!((l - 34.0).abs() < 1e-4);
        assert!(n > 0.0);
    }
}
