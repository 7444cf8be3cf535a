//! Streaming embedding gates: the incremental per-point path must be
//! *bitwise* equal to a full `embed_nograd` re-run over the grown
//! trajectory at batch size 1, and a warm append must stay off the graph
//! and (for the recurrent models) out of the large-allocation counter.
//!
//! The bitwise claim holds because every GEMM on both paths goes through
//! `kernels::mm_nn`, whose dispatch depends only on per-row work, and the
//! elementwise step functions are shared — see
//! `crates/autograd/tests/stream_parity.rs` for the RNN-layer half of the
//! argument; this file closes the loop at the model layer (embedding row,
//! NeuTraj memory read, TMN-NM's MLP row, T3S's windowed fallback).

use proptest::prelude::*;
use tmn_core::batch::SideBatch;
use tmn_core::config::ModelConfig;
use tmn_core::models::{ModelKind, PairModel, Tmn};
use tmn_core::PairBatch;
use tmn_obs::memory;
use tmn_traj::{Point, Trajectory};

/// See `infer_alloc.rs` — same budget, same rationale.
const LARGE: usize = 4096;

/// The armed counter is process-global; serialize measuring tests.
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn traj_points(seed: u64, len: usize) -> Vec<Point> {
    (0..len)
        .map(|i| {
            let x = ((seed * 31 + i as u64 * 17) % 97) as f64 / 97.0;
            let y = ((seed * 13 + i as u64 * 7) % 89) as f64 / 89.0;
            Point::new(x, y)
        })
        .collect()
}

/// Every streamable model kind, freshly built. TMN-NM is exercised with
/// both backbones (the GRU stream has its own state layout).
fn streamable_models(dim: usize, seed: u64) -> Vec<Box<dyn PairModel>> {
    let cfg = ModelConfig { dim, seed };
    vec![
        ModelKind::Srn.build(&cfg),
        ModelKind::NeuTraj.build(&cfg),
        ModelKind::TmnNm.build(&cfg),
        Box::new(Tmn::with_rnn(&cfg, false, tmn_autograd::nn::RnnKind::Gru)),
        ModelKind::T3s.build(&cfg),
    ]
}

/// Append `pts` one at a time, checking every prefix against the full
/// tape-free re-embed at batch size 1.
fn check_stream_oracle(model: &dyn PairModel, pts: &[Point]) {
    let mut stream = model.stream_begin().unwrap_or_else(|| panic!("{}: no stream", model.name()));
    for (i, &p) in pts.iter().enumerate() {
        let inc = model.embed_incremental(&mut stream, p);
        assert_eq!(stream.len(), i + 1);
        let grown = Trajectory::new(pts[..=i].to_vec());
        let side = SideBatch::build(&[&grown], i + 1);
        let full = model.embed_nograd(&side, &side);
        assert_eq!(
            inc,
            full,
            "{}: incremental embedding diverged from full re-embed at point {i}",
            model.name()
        );
        tmn_autograd::infer::recycle(full);
    }
}

#[test]
fn incremental_matches_full_reembed_bitwise() {
    for model in streamable_models(16, 7) {
        check_stream_oracle(model.as_ref(), &traj_points(3, 13));
    }
}

#[test]
fn neutraj_stream_reads_the_warm_memory() {
    // Fill the spatial attention memory first; the stream must read the
    // same written state as the batched fast path.
    let model = ModelKind::NeuTraj.build(&ModelConfig { dim: 16, seed: 9 });
    let warm: Vec<Trajectory> =
        (0..6).map(|i| Trajectory::new(traj_points(i + 20, 8))).collect();
    let refs: Vec<&Trajectory> = warm.iter().collect();
    let batch = PairBatch::build(&refs[..3], &refs[3..]);
    let enc = model.encode_pairs(&batch);
    model.post_step(&batch, &enc);
    check_stream_oracle(model.as_ref(), &traj_points(21, 10));
}

#[test]
fn pair_dependent_models_have_no_stream() {
    let cfg = ModelConfig { dim: 16, seed: 7 };
    assert!(ModelKind::Tmn.build(&cfg).stream_begin().is_none(), "matching TMN cannot stream");
}

#[test]
fn t3s_stream_is_windowed_and_recurrent_streams_are_not() {
    let cfg = ModelConfig { dim: 16, seed: 7 };
    assert!(ModelKind::T3s.build(&cfg).stream_begin().unwrap().is_windowed());
    for kind in [ModelKind::Srn, ModelKind::NeuTraj, ModelKind::TmnNm] {
        assert!(!kind.build(&cfg).stream_begin().unwrap().is_windowed(), "{kind}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random walks of random length: parity must hold for every model at
    /// every prefix, not just the curated fixtures above.
    #[test]
    fn incremental_matches_full_reembed_on_random_walks(
        steps in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..20),
        seed in 0u64..1000,
    ) {
        let pts: Vec<Point> = steps.iter().map(|&(x, y)| Point::new(x, y)).collect();
        for model in streamable_models(8, seed) {
            check_stream_oracle(model.as_ref(), &pts);
        }
    }
}

#[test]
fn streams_are_independent_across_threads() {
    // The buffer pool backing the stream steps is thread-local; concurrent
    // streams on different threads must not perturb each other's bits.
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                for model in streamable_models(16, 7) {
                    check_stream_oracle(model.as_ref(), &traj_points(40 + t, 11));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stream thread panicked");
    }
}

#[test]
fn warm_append_is_graph_free_and_alloc_bounded() {
    let _l = test_lock();
    // dim 32 keeps every per-point intermediate (embed row, gate buffer,
    // MLP row) far below LARGE; the budget of 2 covers the returned vector
    // plus one pool growth, mirroring the batched embed_nograd gate.
    let cfg = ModelConfig { dim: 32, seed: 3 };
    for kind in [ModelKind::Srn, ModelKind::NeuTraj, ModelKind::TmnNm] {
        let model = kind.build(&cfg);
        let mut stream = model.stream_begin().unwrap();
        let pts = traj_points(5, 40);
        // Warm the thread-local pool.
        for &p in &pts[..32] {
            model.embed_incremental(&mut stream, p);
        }
        let nodes_before = tmn_autograd::nodes_created();
        let (out, large) = memory::count_large_during(LARGE, || {
            model.embed_incremental(&mut stream, pts[32])
        });
        let node_delta = tmn_autograd::nodes_created() - nodes_before;
        assert_eq!(node_delta, 0, "{kind}: warm append created {node_delta} graph nodes");
        assert!(large <= 2, "{kind}: {large} large allocations in a warm append");
        assert_eq!(out.len(), 32, "{kind}: wrong embedding dim");
    }
}
