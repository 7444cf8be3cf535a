//! Bridge between tensor ops and the `tmn-obs` profiler.
//!
//! Every primitive op opens an [`op_scope`] at its entry: a profiler
//! [`Span`] of kind `forward` that times the forward computation (including
//! graph-node construction) and, through a thread-local, tags the op's
//! output node so [`crate::Tensor::backward`] can attribute the matching
//! `backward` span to the same name.
//!
//! Only *primitive* ops (one `Tensor::from_op` call) may be instrumented —
//! composite helpers like `mean_all` are already covered by their children,
//! and nesting scopes would double-count time.
//!
//! When the profiler is disabled the entire mechanism is one relaxed atomic
//! load per op and `None` everywhere else; numerics are untouched either way.

use std::cell::Cell;
use tmn_obs::{profiler, ScopeKind, Span};

/// Every op name that may open an `op_scope`, i.e. every primitive op with
/// a registered FLOP estimator (0 is a valid estimate for pure data-movement
/// ops). `profile --check` asserts that each forward/backward record in a
/// snapshot carries one of these names, so an op added without updating this
/// list fails CI instead of silently reporting bogus FLOP rates.
/// Kept sorted for the membership `binary_search` in `op_scope`'s
/// debug assertion.
pub const INSTRUMENTED_OPS: &[&str] = &[
    "add",
    "add_bias",
    "add_scalar",
    "bmm_nn",
    "bmm_nt",
    "collect_states",
    "concat_last",
    "exp",
    "gather_time",
    "gru_cell_fused",
    "leaky_relu",
    "lstm_cell_fused",
    "masked_softmax",
    "matmul",
    "mul",
    "mul_mask_rows",
    "mul_scalar_tensor",
    "qerror",
    "reshape",
    "rnn_gate_preproject",
    "scale",
    "select_time",
    "sigmoid",
    "slice_last",
    "slice_rows",
    "softmax",
    "sqrt_eps",
    "stack_time",
    "sub",
    "sum_all",
    "sum_last",
    "tanh",
    "tile_rows",
];

thread_local! {
    /// The op scope currently open on this thread, read by
    /// `Tensor::from_op` for backward attribution. Only ever `Some` while
    /// the profiler is enabled.
    static CURRENT_OP: Cell<Option<(&'static str, u64)>> = const { Cell::new(None) };
}

/// Forward-op span; restores the previous thread-local tag on drop, then
/// the span records into the profiler.
pub(crate) struct OpScope {
    prev: Option<(&'static str, u64)>,
    _span: Span,
}

impl Drop for OpScope {
    fn drop(&mut self) {
        CURRENT_OP.with(|c| c.set(self.prev));
    }
}

/// Open a forward scope for op `name` with the given FLOP estimate.
/// Returns `None` (cost: one atomic load) when profiling is disabled.
#[inline]
pub(crate) fn op_scope(name: &'static str, flops: u64) -> Option<OpScope> {
    debug_assert!(
        INSTRUMENTED_OPS.binary_search(&name).is_ok() || name.starts_with("prof."),
        "op '{name}' opens a scope but is not listed in INSTRUMENTED_OPS"
    );
    if !profiler::is_enabled() {
        return None;
    }
    let span = Span::new(name).profile(ScopeKind::Forward, flops);
    let prev = CURRENT_OP.with(|c| c.replace(Some((name, flops))));
    Some(OpScope { prev, _span: span })
}

/// The `(name, flops)` of the op scope open on this thread, if any.
#[inline]
pub(crate) fn current_op() -> Option<(&'static str, u64)> {
    CURRENT_OP.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_tags_current_op_and_restores() {
        profiler::set_enabled(true);
        assert_eq!(current_op(), None);
        {
            let _outer = op_scope("prof.outer", 10);
            assert_eq!(current_op(), Some(("prof.outer", 10)));
            {
                let _inner = op_scope("prof.inner", 5);
                assert_eq!(current_op(), Some(("prof.inner", 5)));
            }
            assert_eq!(current_op(), Some(("prof.outer", 10)));
        }
        assert_eq!(current_op(), None);
        profiler::set_enabled(false);
    }

    #[test]
    fn instrumented_ops_sorted_and_unique() {
        // binary_search in op_scope's debug assertion requires sorted order.
        assert!(INSTRUMENTED_OPS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn disabled_scope_is_free_and_untagged() {
        profiler::set_enabled(false);
        let s = op_scope("prof.disabled", 1);
        assert!(s.is_none());
        assert_eq!(current_op(), None);
    }
}
