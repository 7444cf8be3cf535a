//! Dense f32 GEMM kernels shared by every matmul-family op.
//!
//! The blocked path follows the classic GEBP decomposition: the K dimension
//! is split into `KC`-deep stripes, rows into `MC`-tall blocks, and the
//! register-tiled microkernel reads A from `MR`×`KC` panels and B from
//! `KC`×`NR` panels. A is always repacked, so the microkernel streams it
//! linearly whatever its source layout (normal or transposed-A). B is read
//! with a row stride: a row-major B (`mm_nn`, `mm_tn`) already holds every
//! full `NR`-wide panel in order, so those panels are read in place with
//! stride `n`. Only a ragged last panel, and every panel of the transposed
//! B of `mm_nt`, is packed (stride `NR`). Edge tiles are zero-padded inside
//! the packed panels, so the microkernel itself is branch-free; the masked
//! part is only the final `+=` write-back.
//!
//! All three entry points keep the naive kernels' contract: `out` is
//! *accumulated into*, not overwritten. Small problems fall back to the
//! [`reference`](mod@reference) kernels — packing costs O(m·k + k·n) writes, which only
//! pays for itself once the O(m·n·k) multiply dominates.
//!
//! The microkernel is selected once per process by [`crate::simd::active`]:
//! a 6×16 AVX2+FMA register tile where the CPU supports it, the portable
//! scalar 4×8 tile everywhere else. The packing code is generic over the
//! tile shape, so both paths share the same blocked skeleton (and the same
//! zero-padded edge handling). A one-row `mm_nn` on AVX2 skips the tile:
//! `gemm_one_row` computes its row 0 directly, with the same bits.

use crate::simd;
use std::cell::RefCell;

/// Scalar register tile height (rows of A per microkernel call).
pub const MR: usize = 4;
/// Scalar register tile width (columns of B per microkernel call); 8 f32
/// lanes fill one AVX register (or two SSE registers), which is what
/// rustc/LLVM autovectorizes the accumulator update into.
pub const NR: usize = 8;
/// K-stripe depth: one packed A panel of `MR`·`KC` f32 stays L1-resident.
const KC: usize = 256;
/// Row-block height: the packed A block of `MC`·`KC` f32 targets L2.
const MC: usize = 128;

/// Below this many multiply-adds the packing overhead outweighs the blocked
/// kernel; use the naive loops instead.
const BLOCKED_MIN_FLOPS: usize = 8 * 1024;

/// Row-stable dispatch threshold for [`mm_nn`]: the kernel choice depends
/// on the per-row work `k·n` only, never on the row count `m`.
///
/// Every per-token forward in this codebase (input embeddings, gate
/// pre-projections, MLP layers, recurrent cells) flows through `mm_nn`
/// with row-independent inner dims, and the streaming inference path
/// re-runs *single rows* of GEMMs that training and batch inference run
/// over thousands of rows. The naive kernel accumulates each output row
/// in k-order directly into `out`; the blocked kernel sums a register
/// tile first (with FMA under AVX2) and adds it afterwards — different
/// rounding. Both are per-row invariant in `m`, so as long as the *choice*
/// between them ignores `m`, row `i` of an `m`-row call is bitwise equal
/// to the same row computed alone. That invariant is what makes
/// incremental (per-point) embeddings bitwise-equal to full re-runs; see
/// DESIGN.md §12 and `crate::infer`'s stream states.
const ROW_STABLE_MIN_KN: usize = 512;

thread_local! {
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `out[m,n] += a[m,k] · b[k,n]`, both row-major.
///
/// Dispatch is **row-stable** (`ROW_STABLE_MIN_KN`): the naive/blocked
/// choice looks at `k·n` only, so each output row's bits are independent
/// of how many rows the call covers. The blocked kernel reads `b` in
/// place, so a weight matrix is not repacked per call, and one row on
/// AVX2 takes `gemm_one_row` instead of a zero-padded tile: the same
/// per-row arithmetic, so that choice may look at `m`. `mm_nt`/`mm_tn`
/// keep the total-flops rule — nothing requires row stability of them, and
/// backward-pass GEMMs prefer the cheaper heuristic.
pub fn mm_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    if k * n < ROW_STABLE_MIN_KN {
        reference::mm_nn(a, b, m, k, n, out);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if m == 1 && simd::active() == simd::Dispatch::Avx2Fma {
        gemm_one_row(a, b, k, n, out);
        return;
    }
    gemm(m, k, n, |i, p| a[i * k + p], BLayout::RowMajor(b), out);
}

/// `out[m,n] += a[m,k] · b[n,k]ᵀ` (`b` stored row-major `n`×`k`).
pub fn mm_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    if m * n * k < BLOCKED_MIN_FLOPS {
        reference::mm_nt(a, b, m, k, n, out);
    } else {
        gemm(m, k, n, |i, p| a[i * k + p], BLayout::Transposed(b), out);
    }
}

/// `out[k,n] += a[m,k]ᵀ · b[m,n]` (`a` stored row-major `m`×`k`).
pub fn mm_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    if m * n * k < BLOCKED_MIN_FLOPS {
        reference::mm_tn(a, b, m, k, n, out);
    } else {
        // As a plain GEMM this is C[k,n] += A'[k,m]·B[m,n] with A'(i,p) read
        // down a column of `a`; B is `b` itself, row-major.
        gemm(k, m, n, |i, p| a[p * k + i], BLayout::RowMajor(b), out);
    }
}

/// How the caller stores the `k`×`n` GEMM operand B.
#[derive(Clone, Copy)]
enum BLayout<'a> {
    /// `B[p][j] = b[p * n + j]`: full panels are read in place.
    RowMajor(&'a [f32]),
    /// `B[p][j] = b[j * k + p]` (`b` is `n`×`k`): every panel is packed.
    Transposed(&'a [f32]),
}

/// Pack the `TN`-wide panel of B at rows `p0..p0 + dst.len() / TN` and
/// columns `j0..`, kk-major so a microkernel reads `TN`-wide rows in order
/// (stride `TN`). Columns past `n` are zero.
fn pack_b_panel<const TN: usize>(
    b: BLayout<'_>,
    k: usize,
    n: usize,
    p0: usize,
    j0: usize,
    dst: &mut [f32],
) {
    let nr = TN.min(n - j0);
    for (kk, row) in dst.chunks_exact_mut(TN).enumerate() {
        let p = p0 + kk;
        match b {
            BLayout::RowMajor(b) => row[..nr].copy_from_slice(&b[p * n + j0..p * n + j0 + nr]),
            BLayout::Transposed(b) => {
                for (jj, d) in row[..nr].iter_mut().enumerate() {
                    *d = b[(j0 + jj) * k + p];
                }
            }
        }
        row[nr..].fill(0.0);
    }
}

/// Cache-blocked `out[m,n] += A·B`, with A behind a layout-erasing element
/// accessor.
///
/// `a_at(i, p)` must return `A[i][p]` (`i < m`, `p < k`). It is only called
/// during packing, so its indexing cost is O(m·k) per K-stripe, not
/// O(m·n·k).
fn gemm<FA>(m: usize, k: usize, n: usize, a_at: FA, b: BLayout<'_>, out: &mut [f32])
where
    FA: Fn(usize, usize) -> f32,
{
    match simd::active() {
        #[cfg(target_arch = "x86_64")]
        simd::Dispatch::Avx2Fma => gemm_blocked::<{ simd::avx2::MR }, { simd::avx2::NR }, FA>(
            m,
            k,
            n,
            a_at,
            b,
            out,
            simd::avx2::microkernel,
        ),
        _ => gemm_blocked::<MR, NR, FA>(m, k, n, a_at, b, out, microkernel_scalar::<MR, NR>),
    }
}

/// Micro-kernel signature: packed A panel, B panel, B row stride, depth,
/// and the `TM`×`TN` register accumulator tile.
type MicroKernel<const TM: usize, const TN: usize> =
    fn(&[f32], &[f32], usize, usize, &mut [[f32; TN]; TM]);

/// Cache-blocked skeleton, generic over the `TM`×`TN` register tile.
fn gemm_blocked<const TM: usize, const TN: usize, FA>(
    m: usize,
    k: usize,
    n: usize,
    a_at: FA,
    b: BLayout<'_>,
    out: &mut [f32],
    micro: MicroKernel<TM, TN>,
) where
    FA: Fn(usize, usize) -> f32,
{
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let n_panels = n.div_ceil(TN);
    // Panels `0..in_place` are read straight from a row-major B; the rest
    // are packed into PACK_B.
    let in_place = match b {
        BLayout::RowMajor(_) => n / TN,
        BLayout::Transposed(_) => 0,
    };
    let kc_max = KC.min(k);
    let m_panels_max = MC.min(m).div_ceil(TM);
    PACK_A.with(|pa| {
        PACK_B.with(|pb| {
            let mut ap = pa.borrow_mut();
            let mut bp = pb.borrow_mut();
            ap.resize(m_panels_max * kc_max * TM, 0.0);
            bp.resize((n_panels - in_place) * kc_max * TN, 0.0);

            for p0 in (0..k).step_by(KC) {
                let kc = KC.min(k - p0);
                for jp in in_place..n_panels {
                    let dst = &mut bp[(jp - in_place) * kc * TN..(jp - in_place + 1) * kc * TN];
                    pack_b_panel::<TN>(b, k, n, p0, jp * TN, dst);
                }
                for i0 in (0..m).step_by(MC) {
                    let mc = MC.min(m - i0);
                    let m_end = i0 + mc;
                    let m_panels = mc.div_ceil(TM);
                    // Pack A block: panel ip holds A[i0+ip*TM..+TM, p0..p0+kc],
                    // kk-major with TM consecutive rows per kk. Rows are
                    // clamped to this block (`m_end`), not just to `m` — when
                    // MC isn't a multiple of TM the last panel straddles the
                    // next block, whose rows must stay zero here or they
                    // would accumulate twice.
                    for ip in 0..m_panels {
                        let i_base = i0 + ip * TM;
                        for kk in 0..kc {
                            let dst = &mut ap[(ip * kc + kk) * TM..(ip * kc + kk + 1) * TM];
                            for (ii, d) in dst.iter_mut().enumerate() {
                                let i = i_base + ii;
                                *d = if i < m_end { a_at(i, p0 + kk) } else { 0.0 };
                            }
                        }
                    }
                    for jp in 0..n_panels {
                        let j0 = jp * TN;
                        let nr = TN.min(n - j0);
                        // A full panel of a row-major B, read in place with
                        // row stride `n`, holds the same values in the same
                        // order as its packed copy would.
                        let (bpan, ldb) = match b {
                            BLayout::RowMajor(b) if jp < in_place => (&b[p0 * n + j0..], n),
                            _ => (
                                &bp[(jp - in_place) * kc * TN..(jp - in_place + 1) * kc * TN],
                                TN,
                            ),
                        };
                        for ip in 0..m_panels {
                            let i_base = i0 + ip * TM;
                            let mr = TM.min(m_end - i_base);
                            let apan = &ap[ip * kc * TM..(ip + 1) * kc * TM];
                            let mut acc = [[0.0f32; TN]; TM];
                            micro(apan, bpan, ldb, kc, &mut acc);
                            for (ii, acc_row) in acc.iter().enumerate().take(mr) {
                                let row = (i_base + ii) * n + j0;
                                for (o, &v) in out[row..row + nr].iter_mut().zip(acc_row) {
                                    *o += v;
                                }
                            }
                        }
                    }
                }
            }
        })
    });
}

/// `out[1,n] += a[1,k] · b[k,n]` on AVX2: row 0 of the 6×16 tile without
/// packing A or multiplying the tile's five zero rows.
///
/// It walks the same `KC` stripes, runs each output lane's FMA chain over
/// the same `a` and `b` values in the same order, and writes back the same
/// way (`0 + acc` in the kernel, then `out +=`), so every output is bit for
/// bit what [`gemm_blocked`] gives row 0 — which keeps [`mm_nn`] row-stable.
/// Each broadcast of `a` feeds [`simd::avx2::ROW_PANELS`] panels, enough
/// independent FMA chains to hide their latency. Full panels are read in
/// place; a ragged last panel is packed into PACK_B, as in the tile path.
#[cfg(target_arch = "x86_64")]
fn gemm_one_row(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    use simd::avx2::{row_kernel, NR, ROW_PANELS};
    debug_assert_eq!(out.len(), n);
    fn add_into(out: &mut [f32], acc: &[[f32; NR]]) {
        for (o, panel) in out.chunks_mut(NR).zip(acc) {
            for (o, &v) in o.iter_mut().zip(panel) {
                *o += v;
            }
        }
    }
    let wide_end = n / (ROW_PANELS * NR) * (ROW_PANELS * NR);
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        let a = &a[p0..p0 + kc];
        for j0 in (0..wide_end).step_by(ROW_PANELS * NR) {
            let mut acc = [[0.0f32; NR]; ROW_PANELS];
            row_kernel(a, &b[p0 * n + j0..], n, &mut acc);
            add_into(&mut out[j0..j0 + ROW_PANELS * NR], &acc);
        }
        for j0 in (wide_end..n).step_by(NR) {
            let mut acc = [[0.0f32; NR]; 1];
            if j0 + NR <= n {
                row_kernel(a, &b[p0 * n + j0..], n, &mut acc);
            } else {
                PACK_B.with(|pb| {
                    let mut bp = pb.borrow_mut();
                    bp.resize(kc * NR, 0.0);
                    pack_b_panel::<NR>(BLayout::RowMajor(b), k, n, p0, j0, &mut bp[..kc * NR]);
                    row_kernel(a, &bp, NR, &mut acc);
                });
            }
            add_into(&mut out[j0..], &acc);
        }
    }
}

/// `acc[TM][TN] += Ap·Bp` over one `kc`-deep panel pair: `Ap` packed,
/// `Bp` with row `kk` at `bp[kk * ldb..]`.
///
/// The fixed-size array reads let LLVM keep the full accumulator tile in
/// registers and vectorize the `TN`-wide FMA row.
#[inline(always)]
fn microkernel_scalar<const TM: usize, const TN: usize>(
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
    kc: usize,
    acc: &mut [[f32; TN]; TM],
) {
    debug_assert!(ap.len() >= kc * TM && (kc == 0 || bp.len() >= (kc - 1) * ldb + TN));
    for kk in 0..kc {
        let a = &ap[kk * TM..kk * TM + TM];
        let b = &bp[kk * ldb..kk * ldb + TN];
        for (acc_row, &av) in acc.iter_mut().zip(a) {
            for (o, &bv) in acc_row.iter_mut().zip(b) {
                *o += av * bv;
            }
        }
    }
}

pub mod reference {
    //! The original scalar triple-loop kernels, kept as the correctness
    //! oracle for the blocked path (see `tests/matmul_kernels.rs`) and as
    //! the small-size fast path — they have zero setup cost.

    /// `out[m,n] += a[m,k] · b[k,n]` (ikj order; rows of `b` stream contiguously).
    pub fn mm_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (kk, &av) in arow.iter().enumerate() {
                if av != 0.0 {
                    let brow = &b[kk * n..(kk + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
    }

    /// `out[m,n] += a[m,k] · b[n,k]ᵀ` (rows of both operands are contiguous dots).
    pub fn mm_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (x, y) in arow.iter().zip(brow) {
                    acc += x * y;
                }
                out[i * n + j] += acc;
            }
        }
    }

    /// `out[k,n] += a[m,k]ᵀ · b[m,n]` (outer-product accumulation).
    pub fn mm_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let brow = &b[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av != 0.0 {
                    let orow = &mut out[p * n..(p + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Small deterministic pseudo-random values in [-1, 1).
        let mut state = seed.wrapping_mul(2654435761).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn assert_close(got: &[f32], want: &[f32], k: usize) {
        assert_eq!(got.len(), want.len());
        // Relative to the dot-product length: each output is a sum of k terms.
        let tol = 1e-5 * (k as f32).max(1.0);
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let denom = w.abs().max(1.0);
            assert!(
                (g - w).abs() / denom < tol,
                "elem {i}: blocked {g} vs reference {w} (k={k})"
            );
        }
    }

    /// Shapes straddling every edge case: unit dims, exact tile multiples,
    /// off-by-one around MR/NR, and sizes crossing the KC/MC block borders.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 300, 1),
        (3, 5, 7),
        (4, 16, 8),
        (5, 17, 9),
        (MR, KC, NR),
        (MR + 1, KC + 3, NR + 1),
        (33, 64, 50),
        (MC + 5, 40, 2 * NR + 3),
        (64, 2 * KC + 7, 24),
    ];

    #[test]
    fn blocked_nn_matches_reference() {
        for &(m, k, n) in SHAPES {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut got = vec![0.25f32; m * n]; // nonzero: verifies +=
            let mut want = got.clone();
            mm_nn(&a, &b, m, k, n, &mut got);
            reference::mm_nn(&a, &b, m, k, n, &mut want);
            assert_close(&got, &want, k);
        }
    }

    #[test]
    fn blocked_nt_matches_reference() {
        for &(m, k, n) in SHAPES {
            let a = fill(m * k, 3);
            let b = fill(n * k, 4);
            let mut got = vec![0.0f32; m * n];
            let mut want = vec![0.0f32; m * n];
            mm_nt(&a, &b, m, k, n, &mut got);
            reference::mm_nt(&a, &b, m, k, n, &mut want);
            assert_close(&got, &want, k);
        }
    }

    #[test]
    fn blocked_tn_matches_reference() {
        for &(m, k, n) in SHAPES {
            let a = fill(m * k, 5);
            let b = fill(m * n, 6);
            let mut got = vec![0.0f32; k * n];
            let mut want = vec![0.0f32; k * n];
            mm_tn(&a, &b, m, k, n, &mut got);
            reference::mm_tn(&a, &b, m, k, n, &mut want);
            assert_close(&got, &want, m);
        }
    }

    #[test]
    fn mm_nn_rows_are_bitwise_independent_of_row_count() {
        // The streaming contract: row i of an m-row call equals the same
        // row computed alone, bit for bit, on both sides of the
        // ROW_STABLE_MIN_KN boundary (naive k·n = 2·16, blocked k·n = 16·64
        // — the embedding and gate-preprojection shapes), with a ragged
        // last panel (n = 40) and past one KC stripe (k = 300), under both
        // dispatches: one row alone takes the one-row path on AVX2, and
        // every call reads full B panels in place.
        for scalar in [false, true] {
            simd::force_scalar(scalar);
            for &(k, n) in &[
                (2usize, 16usize),
                (8, 64),
                (16, 64),
                (16, 16),
                (32, 128),
                (32, 40),
                (300, 24),
            ] {
                for &m in &[2usize, 3, 5, 7, 64, 300] {
                    let a = fill(m * k, 11);
                    let b = fill(k * n, 12);
                    let mut full = vec![0.0f32; m * n];
                    mm_nn(&a, &b, m, k, n, &mut full);
                    for i in [0, m / 2, m - 1] {
                        let mut row = vec![0.0f32; n];
                        mm_nn(&a[i * k..(i + 1) * k], &b, 1, k, n, &mut row);
                        let full_row = &full[i * n..(i + 1) * n];
                        assert!(
                            row.iter()
                                .zip(full_row)
                                .all(|(x, y)| x.to_bits() == y.to_bits()),
                            "row {i} of {m}x{k}x{n} not bitwise row-stable (scalar: {scalar})"
                        );
                    }
                }
            }
        }
        simd::force_scalar(false);
    }

    /// `(PACK_A, PACK_B)` capacities after one `mm_nn` on a fresh thread.
    fn pack_capacities(scalar: bool, m: usize, k: usize, n: usize) -> (usize, usize) {
        std::thread::spawn(move || {
            simd::force_scalar(scalar);
            let mut out = vec![0.0f32; m * n];
            mm_nn(&fill(m * k, 13), &fill(k * n, 14), m, k, n, &mut out);
            (
                PACK_A.with(|p| p.borrow().capacity()),
                PACK_B.with(|p| p.borrow().capacity()),
            )
        })
        .join()
        .unwrap()
    }

    #[test]
    fn mm_nn_packs_no_full_b_panel() {
        // A row-major B already is its panels, so the recurrent step and
        // the batch encode copy no weights per call, at any batch size.
        for scalar in [false, true] {
            for m in [1, 16, 64] {
                let (_, b) = pack_capacities(scalar, m, 32, 128);
                assert_eq!(b, 0, "{m}x32x128 packed B (scalar: {scalar})");
            }
        }
        // A ragged last panel is still packed: 44 is off the scalar tile's
        // 8 columns, 40 off the AVX2 tile's 16.
        assert!(
            pack_capacities(true, 1, 32, 44).1 > 0,
            "ragged panel not packed"
        );
        if simd::active() == simd::Dispatch::Avx2Fma {
            assert!(
                pack_capacities(false, 1, 32, 40).1 > 0,
                "ragged panel not packed"
            );
            // One row on AVX2 skips the tile, and with it the packed A.
            assert_eq!(pack_capacities(false, 1, 32, 128).0, 0, "one row packed A");
        }
    }

    #[test]
    fn degenerate_dims_are_noops_or_exact() {
        let mut out = vec![1.0f32; 0];
        mm_nn(&[], &[], 0, 4, 0, &mut out);
        let a = fill(6, 7);
        let mut out = vec![0.5f32; 6];
        mm_nn(&a, &[], 3, 0, 2, &mut out); // k = 0: out unchanged
        assert_eq!(out, vec![0.5; 6]);
    }
}
