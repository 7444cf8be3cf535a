//! Differentiable operations over [`Tensor`](crate::Tensor).
//!
//! Every op builds the forward value eagerly and registers a backward
//! closure. Backward closures skip parents that do not require gradients,
//! so feeding constant inputs (data, masks, targets) costs nothing extra.

mod activation;
mod binary;
mod broadcast;
mod matmul;
mod reduce;
mod rnn_fused;
mod shape_ops;
mod softmax;

pub use activation::{exp, leaky_relu, sigmoid, sqrt_eps, tanh};
pub use binary::{add, add_bias, add_scalar, mul, mul_mask_rows, neg, scale, sub};
pub use broadcast::{mul_scalar_tensor, slice_rows, tile_rows};
pub use matmul::{bmm_nn, bmm_nt, matmul};
pub use reduce::{mean_all, qerror, sum_all, sum_last};
pub use rnn_fused::{collect_states, gru_cell_fused, lstm_cell_fused, rnn_gate_preproject};
pub use shape_ops::{concat_last, gather_time, reshape, select_time, slice_last, stack_time};
pub use softmax::{masked_softmax, softmax};

// Forward kernels shared with the no-grad inference path (`crate::infer`),
// so graphed and tape-free forwards stay bitwise identical.
pub(crate) use rnn_fused::{gru_step_elementwise, lstm_step_elementwise};
pub(crate) use softmax::softmax_row;

/// Leading-dimension product for "apply over last dim" ops:
/// a `[d0, .., dk, n]` tensor is treated as `rows x n`.
pub(crate) fn rows_of(shape: &[usize]) -> usize {
    debug_assert!(!shape.is_empty());
    shape[..shape.len() - 1].iter().product()
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking used across op tests.
    use crate::Tensor;

    /// Numerically verify `d loss / d input` for a scalar-valued function.
    ///
    /// `f` must rebuild the graph from the given leaves every call.
    pub fn check(inputs: &[Tensor], f: impl Fn(&[Tensor]) -> Tensor, tol: f32) {
        let loss = f(inputs);
        for i in inputs {
            i.zero_grad();
        }
        loss.backward();
        let analytic: Vec<Vec<f32>> = inputs
            .iter()
            .map(|t| t.grad().unwrap_or_else(|| vec![0.0; t.numel()]))
            .collect();

        let eps = 1e-3f32;
        for (ti, t) in inputs.iter().enumerate() {
            for (j, &got) in analytic[ti].iter().enumerate() {
                let orig = t.data()[j];
                t.data_mut()[j] = orig + eps;
                let up = f(inputs).item();
                t.data_mut()[j] = orig - eps;
                let down = f(inputs).item();
                t.data_mut()[j] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let denom = numeric.abs().max(got.abs()).max(1.0);
                assert!(
                    (numeric - got).abs() / denom < tol,
                    "grad mismatch input {ti} elem {j}: numeric {numeric} vs analytic {got}"
                );
            }
        }
    }
}
