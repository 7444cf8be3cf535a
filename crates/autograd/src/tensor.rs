//! Dense `f32` tensor with reverse-mode automatic differentiation.
//!
//! Tensors are reference-counted nodes in a dynamically built computation
//! graph. Every operation records its parents and a backward closure; calling
//! [`Tensor::backward`] on a scalar output propagates gradients to every
//! reachable leaf created with [`Tensor::param`].
//!
//! The engine is deliberately small: it supports exactly the shapes and
//! operations the TMN model family needs (rank 1–3, batched matmul, masked
//! softmax, time-step gather/scatter). It is single-threaded; for parallel
//! inference, snapshot weights per thread (see `nn::ParamSet::snapshot`).

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use tmn_obs::{ScopeKind, Span};

thread_local! {
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    static GRAD_ENABLED: Cell<bool> = const { Cell::new(true) };
    static GRAD_BUFFER_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// How many gradient accumulation buffers this thread has allocated.
///
/// Scatter-style backwards (`select_time`, `gather_time`, ...) write straight
/// into the node's pooled buffer via [`Tensor::accumulate_grad_with`], so a
/// node costs exactly one allocation no matter how many backward closures
/// feed it. The counter exists for allocation-regression tests.
pub fn grad_buffer_allocs() -> u64 {
    GRAD_BUFFER_ALLOCS.with(|c| c.get())
}

fn fresh_id() -> u64 {
    NEXT_ID.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// Total tensors (graph nodes, including pruned no-grad outputs) created on
/// this thread so far. A delta of zero across a region proves the region
/// performed *no* tensor allocation at all — the contract the `infer`
/// fast path is tested against.
pub fn nodes_created() -> u64 {
    NEXT_ID.with(|c| c.get())
}

/// Run `f` with gradient recording disabled on this thread.
///
/// Operations executed inside build no graph: outputs are plain value
/// tensors, which makes inference cheaper and lets long evaluation loops run
/// without accumulating graph memory.
pub fn no_grad<R>(f: impl FnOnce() -> R) -> R {
    let prev = GRAD_ENABLED.with(|c| c.replace(false));
    let out = f();
    GRAD_ENABLED.with(|c| c.set(prev));
    out
}

/// Whether operations on this thread currently record the autograd graph.
pub fn grad_enabled() -> bool {
    GRAD_ENABLED.with(|c| c.get())
}

/// Context handed to an operation's backward closure.
pub struct BackCtx<'a> {
    /// Gradient of the loss with respect to this node's output.
    pub out_grad: &'a [f32],
    /// The node's forward output values (useful for e.g. sigmoid/tanh).
    pub out_data: &'a [f32],
    /// The parent tensors, in the order given at construction.
    pub parents: &'a [Tensor],
}

type BackFn = Box<dyn Fn(&BackCtx<'_>)>;

struct Inner {
    id: u64,
    shape: Vec<usize>,
    data: RefCell<Vec<f32>>,
    grad: RefCell<Option<Vec<f32>>>,
    requires_grad: bool,
    parents: Vec<Tensor>,
    backward: Option<BackFn>,
    /// `(op name, forward FLOP estimate)` captured from the profiler's
    /// thread-local when this node was built inside an instrumented op.
    /// Used only to attribute backward time; `None` whenever profiling is
    /// off, so the hot path is untouched.
    op: Option<(&'static str, u64)>,
}

/// A reference-counted dense `f32` tensor participating in autograd.
///
/// Cloning a `Tensor` is cheap (it clones the `Rc`); the underlying buffer is
/// shared. Shapes are immutable after construction.
#[derive(Clone)]
pub struct Tensor {
    inner: Rc<Inner>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tensor")
            .field("id", &self.inner.id)
            .field("shape", &self.inner.shape)
            .field("requires_grad", &self.inner.requires_grad)
            .finish()
    }
}

impl Tensor {
    fn new_inner(
        shape: Vec<usize>,
        data: Vec<f32>,
        requires_grad: bool,
        parents: Vec<Tensor>,
        backward: Option<BackFn>,
        op: Option<(&'static str, u64)>,
    ) -> Tensor {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            inner: Rc::new(Inner {
                id: fresh_id(),
                shape,
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad,
                parents,
                backward,
                op,
            }),
        }
    }

    /// A constant (non-trainable) tensor.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Tensor {
        Tensor::new_inner(shape.to_vec(), data, false, Vec::new(), None, None)
    }

    /// A scalar constant of shape `[1]`.
    pub fn scalar(v: f32) -> Tensor {
        Tensor::from_vec(vec![v], &[1])
    }

    /// A zero-filled constant tensor.
    pub fn zeros(shape: &[usize]) -> Tensor {
        Tensor::from_vec(vec![0.0; shape.iter().product()], shape)
    }

    /// A trainable leaf parameter. Gradients accumulate into it on
    /// [`Tensor::backward`].
    pub fn param(data: Vec<f32>, shape: &[usize]) -> Tensor {
        Tensor::new_inner(shape.to_vec(), data, true, Vec::new(), None, None)
    }

    /// Construct an op output node.
    ///
    /// If gradient recording is enabled and any parent requires a gradient,
    /// the node keeps its parents and backward closure; otherwise the graph
    /// edge is pruned and the output is a plain value.
    pub fn from_op(
        shape: &[usize],
        data: Vec<f32>,
        parents: Vec<Tensor>,
        backward: BackFn,
    ) -> Tensor {
        let track = grad_enabled() && parents.iter().any(|p| p.inner.requires_grad);
        if track {
            let op = crate::profile::current_op();
            Tensor::new_inner(shape.to_vec(), data, true, parents, Some(backward), op)
        } else {
            Tensor::new_inner(shape.to_vec(), data, false, Vec::new(), None, None)
        }
    }

    /// Unique node id (stable for the life of the tensor).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.inner.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.inner.shape.iter().product()
    }

    /// Whether this node participates in gradient computation.
    pub fn requires_grad(&self) -> bool {
        self.inner.requires_grad
    }

    /// True if this is a leaf node (no recorded parents).
    pub fn is_leaf(&self) -> bool {
        self.inner.parents.is_empty()
    }

    /// Copy of the underlying data.
    pub fn to_vec(&self) -> Vec<f32> {
        self.inner.data.borrow().clone()
    }

    /// The single value of a `[1]`-shaped tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires a scalar tensor");
        self.inner.data.borrow()[0]
    }

    /// Borrow the raw data. Panics if the data is mutably borrowed.
    pub fn data(&self) -> std::cell::Ref<'_, Vec<f32>> {
        self.inner.data.borrow()
    }

    /// Mutably borrow the raw data (used by optimizers on leaf parameters).
    pub fn data_mut(&self) -> std::cell::RefMut<'_, Vec<f32>> {
        self.inner.data.borrow_mut()
    }

    /// Copy of the accumulated gradient, if any.
    pub fn grad(&self) -> Option<Vec<f32>> {
        self.inner.grad.borrow().clone()
    }

    /// Clear the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.inner.grad.borrow_mut() = None;
    }

    /// Accumulate `g` into this node's gradient buffer.
    pub fn accumulate_grad(&self, g: &[f32]) {
        assert_eq!(g.len(), self.numel(), "gradient shape mismatch");
        let mut slot = self.inner.grad.borrow_mut();
        match slot.as_mut() {
            Some(acc) => {
                for (a, gi) in acc.iter_mut().zip(g) {
                    *a += gi;
                }
            }
            None => {
                GRAD_BUFFER_ALLOCS.with(|c| c.set(c.get() + 1));
                *slot = Some(g.to_vec());
            }
        }
    }

    /// Accumulate into this node's gradient through direct writes.
    ///
    /// `f` receives the full-length accumulation buffer (zero-filled on first
    /// use, otherwise holding already-accumulated gradient) and must *add*
    /// its contribution in place. This is the pooled-buffer path for
    /// scatter-style backwards: a `select_time` gradient touches `d` of
    /// `B·m·d` elements, and writing those `d` elements straight into the
    /// pool replaces allocating and zeroing a full-size temporary per call.
    pub fn accumulate_grad_with(&self, f: impl FnOnce(&mut [f32])) {
        let mut slot = self.inner.grad.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            GRAD_BUFFER_ALLOCS.with(|c| c.set(c.get() + 1));
            vec![0.0f32; self.numel()]
        });
        f(buf);
    }

    /// A detached copy sharing no graph history (data is cloned).
    pub fn detach(&self) -> Tensor {
        Tensor::from_vec(self.to_vec(), self.shape())
    }

    /// Run reverse-mode differentiation from this scalar node.
    ///
    /// Gradients accumulate into every reachable node with
    /// `requires_grad == true` (notably leaves made via [`Tensor::param`]).
    /// Call [`Tensor::zero_grad`] (or an optimizer's `zero_grad`) between
    /// steps to reset them.
    pub fn backward(&self) {
        assert_eq!(
            self.numel(),
            1,
            "backward() must start from a scalar; got shape {:?}",
            self.shape()
        );
        // Topological order over the recorded graph.
        let order = {
            let _prof = Span::phase("autograd.topo_sort");
            self.topo_order()
        };
        self.accumulate_grad(&[1.0]);
        for node in order.iter().rev() {
            let Some(back) = node.inner.backward.as_ref() else {
                continue;
            };
            if node.inner.grad.borrow().is_none() {
                continue;
            }
            // Attribute this node's backward pass to the op that built it.
            // A backward step reads and writes roughly twice the data of its
            // forward (out_grad in, parent grads out), hence the 2x estimate.
            let _prof = node.inner.op.map(|(name, flops)| {
                Span::new(name).profile(ScopeKind::Backward, flops.saturating_mul(2))
            });
            let grad = node.inner.grad.borrow().clone().expect("checked above");
            let data = node.inner.data.borrow();
            let ctx = BackCtx {
                out_grad: &grad,
                out_data: &data,
                parents: &node.inner.parents,
            };
            back(&ctx);
        }
    }

    /// Post-order DFS over parents (iterative to avoid stack overflow on
    /// long LSTM graphs).
    fn topo_order(&self) -> Vec<Tensor> {
        let mut order = Vec::new();
        let mut visited = std::collections::HashSet::new();
        // Stack of (node, children_pushed).
        let mut stack: Vec<(Tensor, bool)> = vec![(self.clone(), false)];
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                order.push(node);
                continue;
            }
            if !visited.insert(node.inner.id) {
                continue;
            }
            stack.push((node.clone(), true));
            for p in &node.inner.parents {
                if p.inner.requires_grad && !visited.contains(&p.inner.id) {
                    stack.push((p.clone(), false));
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn leaf_construction_and_item() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.numel(), 4);
        assert!(!t.requires_grad());
        assert!(t.is_leaf());
        let s = Tensor::scalar(7.5);
        assert_eq!(s.item(), 7.5);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn shape_mismatch_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn param_requires_grad() {
        let p = Tensor::param(vec![0.0; 4], &[4]);
        assert!(p.requires_grad());
        assert!(p.is_leaf());
    }

    #[test]
    fn grad_accumulates_across_uses() {
        // y = x + x  ==> dy/dx = 2
        let x = Tensor::param(vec![3.0], &[1]);
        let y = ops::add(&x, &x);
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![2.0]);
    }

    #[test]
    fn no_grad_prunes_graph() {
        let x = Tensor::param(vec![2.0], &[1]);
        let y = no_grad(|| ops::mul(&x, &x));
        assert!(!y.requires_grad());
        assert!(y.is_leaf());
        assert_eq!(y.item(), 4.0);
    }

    #[test]
    fn zero_grad_resets() {
        let x = Tensor::param(vec![1.0], &[1]);
        let y = ops::mul(&x, &x);
        y.backward();
        assert!(x.grad().is_some());
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn detach_blocks_gradient() {
        let x = Tensor::param(vec![5.0], &[1]);
        let d = x.detach();
        let y = ops::mul(&d, &d);
        assert!(!y.requires_grad());
    }

    #[test]
    fn deep_chain_backward_does_not_overflow() {
        // 3000 chained adds: iterative topo sort must handle this.
        let x = Tensor::param(vec![1.0], &[1]);
        let mut y = ops::add(&x, &x);
        for _ in 0..3000 {
            y = ops::add(&y, &x);
        }
        y.backward();
        assert_eq!(x.grad().unwrap()[0], 3002.0);
    }
}
