//! Named parameter collections: optimizer target, weight snapshot/restore.

use crate::Tensor;

/// Why a [`ParamSet::try_restore`] rejected a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot has a different number of parameters.
    CountMismatch { expected: usize, found: usize },
    /// Names disagree at `index` (registration order is significant).
    NameMismatch { index: usize, expected: String, found: String },
    /// Shapes disagree for the named parameter.
    ShapeMismatch { name: String, expected: Vec<usize>, found: Vec<usize> },
    /// The data buffer length does not match the declared shape.
    DataMismatch { name: String, expected: usize, found: usize },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::CountMismatch { expected, found } => {
                write!(f, "snapshot has {found} parameters, model has {expected}")
            }
            RestoreError::NameMismatch { index, expected, found } => {
                write!(f, "parameter {index}: snapshot has {found:?}, model has {expected:?}")
            }
            RestoreError::ShapeMismatch { name, expected, found } => {
                write!(f, "{name}: snapshot shape {found:?}, model shape {expected:?}")
            }
            RestoreError::DataMismatch { name, expected, found } => {
                write!(f, "{name}: snapshot has {found} scalars, shape needs {expected}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// An ordered, named collection of trainable leaf tensors.
///
/// Models register every parameter here; optimizers iterate it; snapshots
/// make weights portable across threads (the `Tensor` graph itself is
/// `!Send` by design).
#[derive(Default)]
pub struct ParamSet {
    params: Vec<(String, Tensor)>,
}

impl ParamSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter; returns it for convenient chaining.
    ///
    /// Panics on duplicate names or non-leaf tensors.
    pub fn register(&mut self, name: &str, t: Tensor) -> Tensor {
        assert!(t.requires_grad() && t.is_leaf(), "{name}: parameters must be trainable leaves");
        assert!(
            self.params.iter().all(|(n, _)| n != name),
            "duplicate parameter name: {name}"
        );
        self.params.push((name.to_string(), t.clone()));
        t
    }

    pub fn len(&self) -> usize {
        self.params.len()
    }

    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|(_, t)| t.numel()).sum()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.params.iter().map(|(n, t)| (n.as_str(), t))
    }

    pub fn tensors(&self) -> impl Iterator<Item = &Tensor> {
        self.params.iter().map(|(_, t)| t)
    }

    /// Clear gradients on every parameter.
    pub fn zero_grad(&self) {
        for (_, t) in &self.params {
            t.zero_grad();
        }
    }

    /// Global L2 norm of all gradients (0 if none set).
    pub fn grad_norm(&self) -> f32 {
        let mut acc = 0.0f32;
        for (_, t) in &self.params {
            if let Some(g) = t.grad() {
                acc += g.iter().map(|v| v * v).sum::<f32>();
            }
        }
        acc.sqrt()
    }

    /// Copy out all gradients in registration order; parameters with no
    /// gradient yield zeros. Shape-compatible with
    /// [`accumulate_grads`](Self::accumulate_grads) — together they move
    /// gradients between model replicas for data-parallel training, the
    /// same way [`snapshot`](Self::snapshot)/[`restore`](Self::restore) move
    /// weights.
    pub fn grad_snapshot(&self) -> Vec<Vec<f32>> {
        self.params
            .iter()
            .map(|(_, t)| t.grad().unwrap_or_else(|| vec![0.0; t.numel()]))
            .collect()
    }

    /// Add `grads` (one buffer per parameter, registration order) into each
    /// parameter's gradient accumulator.
    pub fn accumulate_grads(&self, grads: &[Vec<f32>]) {
        assert_eq!(grads.len(), self.params.len(), "gradient row count mismatch");
        for ((name, t), g) in self.params.iter().zip(grads) {
            assert_eq!(t.numel(), g.len(), "gradient length mismatch for {name}");
            t.accumulate_grad(g);
        }
    }

    /// Copy out all weights as `(name, shape, data)` rows.
    pub fn snapshot(&self) -> Vec<(String, Vec<usize>, Vec<f32>)> {
        self.params
            .iter()
            .map(|(n, t)| (n.clone(), t.shape().to_vec(), t.to_vec()))
            .collect()
    }

    /// Load weights from a snapshot. Names and shapes must match exactly;
    /// panics otherwise (use [`try_restore`](Self::try_restore) to recover
    /// from untrusted snapshots, e.g. checkpoints from the wrong model).
    pub fn restore(&self, snap: &[(String, Vec<usize>, Vec<f32>)]) {
        if let Err(e) = self.try_restore(snap) {
            panic!("snapshot mismatch: {e}");
        }
    }

    /// Load weights from a snapshot, reporting mismatches as errors instead
    /// of panicking. The whole snapshot is validated *before* any weight is
    /// written, so a failed restore leaves the model untouched.
    pub fn try_restore(&self, snap: &[(String, Vec<usize>, Vec<f32>)]) -> Result<(), RestoreError> {
        if snap.len() != self.params.len() {
            return Err(RestoreError::CountMismatch {
                expected: self.params.len(),
                found: snap.len(),
            });
        }
        for (i, ((name, t), (sn, ss, sd))) in self.params.iter().zip(snap).enumerate() {
            if name != sn {
                return Err(RestoreError::NameMismatch {
                    index: i,
                    expected: name.clone(),
                    found: sn.clone(),
                });
            }
            if t.shape() != &ss[..] {
                return Err(RestoreError::ShapeMismatch {
                    name: name.clone(),
                    expected: t.shape().to_vec(),
                    found: ss.clone(),
                });
            }
            if sd.len() != t.numel() {
                return Err(RestoreError::DataMismatch {
                    name: name.clone(),
                    expected: t.numel(),
                    found: sd.len(),
                });
            }
        }
        for ((_, t), (_, _, sd)) in self.params.iter().zip(snap) {
            t.data_mut().copy_from_slice(sd);
        }
        Ok(())
    }

    /// 64-bit FNV-1a fingerprint over every parameter's name and exact bit
    /// pattern, in registration order. Two models agree iff their weights
    /// are bit-identical — the acceptance check for deterministic resume.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf29ce484222325u64;
        for (name, t) in self.iter() {
            for b in name.bytes() {
                hash = (hash ^ b as u64).wrapping_mul(0x100000001b3);
            }
            for v in t.to_vec() {
                for b in v.to_bits().to_le_bytes() {
                    hash = (hash ^ b as u64).wrapping_mul(0x100000001b3);
                }
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_count() {
        let mut ps = ParamSet::new();
        ps.register("w", Tensor::param(vec![0.0; 6], &[2, 3]));
        ps.register("b", Tensor::param(vec![0.0; 3], &[3]));
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.num_scalars(), 9);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut ps = ParamSet::new();
        ps.register("w", Tensor::param(vec![0.0], &[1]));
        ps.register("w", Tensor::param(vec![0.0], &[1]));
    }

    #[test]
    #[should_panic(expected = "trainable leaves")]
    fn constant_rejected() {
        let mut ps = ParamSet::new();
        ps.register("c", Tensor::from_vec(vec![0.0], &[1]));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::param(vec![1.0, 2.0], &[2]));
        let snap = ps.snapshot();
        w.data_mut()[0] = 99.0;
        ps.restore(&snap);
        assert_eq!(w.to_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn try_restore_reports_mismatches_without_writing() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::param(vec![1.0, 2.0], &[2]));
        // Wrong name.
        let err = ps.try_restore(&[("q".into(), vec![2], vec![9.0, 9.0])]).unwrap_err();
        assert!(matches!(err, RestoreError::NameMismatch { index: 0, .. }));
        // Wrong shape.
        let err = ps.try_restore(&[("w".into(), vec![1, 2], vec![9.0, 9.0])]).unwrap_err();
        assert!(matches!(err, RestoreError::ShapeMismatch { .. }));
        // Wrong count.
        let err = ps.try_restore(&[]).unwrap_err();
        assert_eq!(err, RestoreError::CountMismatch { expected: 1, found: 0 });
        // Data length disagrees with shape.
        let err = ps.try_restore(&[("w".into(), vec![2], vec![9.0])]).unwrap_err();
        assert!(matches!(err, RestoreError::DataMismatch { .. }));
        // No failed attempt wrote anything.
        assert_eq!(w.to_vec(), vec![1.0, 2.0]);
        ps.try_restore(&[("w".into(), vec![2], vec![7.0, 8.0])]).unwrap();
        assert_eq!(w.to_vec(), vec![7.0, 8.0]);
    }

    #[test]
    fn fingerprint_tracks_bit_changes() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::param(vec![1.0, 2.0], &[2]));
        let f1 = ps.fingerprint();
        assert_eq!(f1, ps.fingerprint(), "fingerprint must be deterministic");
        w.data_mut()[1] = 2.0000002;
        assert_ne!(f1, ps.fingerprint(), "a one-ulp change must alter the fingerprint");
    }

    #[test]
    fn grad_norm_after_backward() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::param(vec![3.0, 4.0], &[2]));
        let loss = crate::ops::sum_all(&w);
        loss.backward();
        assert!((ps.grad_norm() - 2.0f32.sqrt()).abs() < 1e-6);
        ps.zero_grad();
        assert_eq!(ps.grad_norm(), 0.0);
    }
}
