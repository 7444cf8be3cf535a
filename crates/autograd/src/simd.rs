//! Runtime-dispatched explicit SIMD for the hot kernels.
//!
//! Two code paths exist for the GEMM microkernel and the fused-cell
//! elementwise blocks (sigmoid/tanh gate math):
//!
//! - an AVX2+FMA path written with `std::arch` intrinsics, selected once per
//!   process via `is_x86_feature_detected!`;
//! - the portable scalar path, used on every other host (and on x86 CPUs
//!   without AVX2).
//!
//! The activation kernels are **bitwise identical** across the two paths by
//! construction: both evaluate the same polynomial `exp` with fused
//! multiply-adds (`f32::mul_add` scalar-side, `_mm256_fmadd_ps` vector-side
//! — both single-rounding per IEEE-754), the same floor-based range
//! reduction, and the same correctly-rounded divisions. Only the GEMM
//! differs between dispatches (a wider register tile changes the dot-product
//! summation tree), which is why the differential suites compare GEMM
//! results to a tolerance but may compare activations exactly.
//!
//! [`force_scalar`] is a *thread-local* override so parity tests can pit the
//! two paths against each other without perturbing concurrently running
//! tests in the same binary.

use std::cell::Cell;

/// Which kernel family [`active`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// `std::arch` AVX2+FMA kernels (x86-64 only, detected at runtime).
    Avx2Fma,
    /// Portable scalar kernels.
    Scalar,
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Dispatch {
    use std::sync::atomic::{AtomicU8, Ordering};
    // 0 = undetected, 1 = scalar, 2 = avx2+fma.
    static DETECTED: AtomicU8 = AtomicU8::new(0);
    match DETECTED.load(Ordering::Relaxed) {
        1 => Dispatch::Scalar,
        2 => Dispatch::Avx2Fma,
        _ => {
            let d = if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                Dispatch::Avx2Fma
            } else {
                Dispatch::Scalar
            };
            DETECTED.store(if d == Dispatch::Avx2Fma { 2 } else { 1 }, Ordering::Relaxed);
            d
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Dispatch {
    Dispatch::Scalar
}

thread_local! {
    static FORCE_SCALAR: Cell<bool> = const { Cell::new(false) };
}

/// Force the scalar kernels on the *current thread* (parity tests). The
/// override nests poorly on purpose — callers flip it back when done.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.with(|f| f.set(on));
}

/// The kernel family in effect for this thread: the one-time CPU detection,
/// unless [`force_scalar`] is on.
pub fn active() -> Dispatch {
    if FORCE_SCALAR.with(|f| f.get()) {
        Dispatch::Scalar
    } else {
        detect()
    }
}

/// Short name of the active dispatch, for bench reports (`avx2` / `scalar`).
pub fn dispatch_name() -> &'static str {
    match active() {
        Dispatch::Avx2Fma => "avx2",
        Dispatch::Scalar => "scalar",
    }
}

// ---------------------------------------------------------------------------
// Polynomial exp and the activations built on it.
// ---------------------------------------------------------------------------

/// Input clamp keeping the 2^n bit-scale in range (exp(-87) is already 0 in
/// f32 after the downstream 1/(1+e) division).
const EXP_LO: f32 = -87.0;
const EXP_HI: f32 = 88.0;
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// ln 2 split hi/lo for two-part Cody–Waite range reduction. The hi part is
/// written out to its exactly-representable value (0x3f318000) on purpose.
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Degree-5 minimax coefficients for exp(r) on |r| <= ln2/2 (Cephes).
const EXP_P0: f32 = 1.987_569_2e-4;
const EXP_P1: f32 = 1.398_199_9e-3;
const EXP_P2: f32 = 8.333_452e-3;
const EXP_P3: f32 = 4.166_579_6e-2;
const EXP_P4: f32 = 1.666_666_6e-1;
const EXP_P5: f32 = 5.000_000_3e-1;

/// Polynomial `exp(x)` (~1 ulp of the libm result over the clamped range).
/// Every operation has a single IEEE rounding, so the AVX2 lane code below
/// reproduces this bit-for-bit.
#[inline]
fn exp_scalar(x: f32) -> f32 {
    let x = x.clamp(EXP_LO, EXP_HI);
    let n = (x * LOG2E + 0.5).floor();
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let p = EXP_P0;
    let p = p.mul_add(r, EXP_P1);
    let p = p.mul_add(r, EXP_P2);
    let p = p.mul_add(r, EXP_P3);
    let p = p.mul_add(r, EXP_P4);
    let p = p.mul_add(r, EXP_P5);
    let p = (p * r).mul_add(r, r) + 1.0;
    let scale = f32::from_bits((((n as i32) + 127) << 23) as u32);
    p * scale
}

#[inline]
fn sigmoid_scalar(x: f32) -> f32 {
    1.0 / (1.0 + exp_scalar(-x))
}

#[inline]
fn tanh_scalar(x: f32) -> f32 {
    2.0 / (1.0 + exp_scalar(-2.0 * x)) - 1.0
}

/// `x := σ(x)` over a slice, SIMD-dispatched.
pub fn sigmoid_inplace(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if active() == Dispatch::Avx2Fma {
        // SAFETY: dispatch confirmed avx2+fma on this CPU.
        unsafe { avx2::sigmoid_inplace(xs) };
        return;
    }
    for x in xs {
        *x = sigmoid_scalar(*x);
    }
}

/// `x := tanh(x)` over a slice, SIMD-dispatched.
pub fn tanh_inplace(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if active() == Dispatch::Avx2Fma {
        // SAFETY: dispatch confirmed avx2+fma on this CPU.
        unsafe { avx2::tanh_inplace(xs) };
        return;
    }
    for x in xs {
        *x = tanh_scalar(*x);
    }
}

// ---------------------------------------------------------------------------
// AVX2+FMA kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// One lane-parallel step of [`exp_scalar`] — same constants, same
    /// operation order, fused multiply-adds in the same places.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_ps(x: __m256) -> __m256 {
        let x = _mm256_max_ps(_mm256_set1_ps(EXP_LO), _mm256_min_ps(_mm256_set1_ps(EXP_HI), x));
        // n = floor(x·log2e + 0.5) via mul+add (not fma) to match the
        // scalar rounding exactly.
        let n = _mm256_floor_ps(_mm256_add_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(LOG2E)),
            _mm256_set1_ps(0.5),
        ));
        // r = (x − n·ln2_hi) − n·ln2_lo with plain mul/sub, like the scalar.
        let r = _mm256_sub_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI))),
            _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)),
        );
        let p = _mm256_set1_ps(EXP_P0);
        let p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P1));
        let p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P2));
        let p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P3));
        let p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P4));
        let p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P5));
        let p = _mm256_add_ps(_mm256_fmadd_ps(_mm256_mul_ps(p, r), r, r), _mm256_set1_ps(1.0));
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(n),
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(p, scale)
    }

    /// IEEE negation (`0 - x`), mirroring the scalar unary `-`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sub_zero(x: __m256) -> __m256 {
        _mm256_sub_ps(_mm256_setzero_ps(), x)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sigmoid_inplace(xs: &mut [f32]) {
        let one = _mm256_set1_ps(1.0);
        let mut chunks = xs.chunks_exact_mut(8);
        for c in &mut chunks {
            let v = _mm256_loadu_ps(c.as_ptr());
            let e = exp_ps(sub_zero(v));
            _mm256_storeu_ps(c.as_mut_ptr(), _mm256_div_ps(one, _mm256_add_ps(one, e)));
        }
        for x in chunks.into_remainder() {
            *x = sigmoid_scalar(*x);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tanh_inplace(xs: &mut [f32]) {
        let one = _mm256_set1_ps(1.0);
        let two = _mm256_set1_ps(2.0);
        let mut chunks = xs.chunks_exact_mut(8);
        for c in &mut chunks {
            let v = _mm256_loadu_ps(c.as_ptr());
            let e = exp_ps(sub_zero(_mm256_mul_ps(two, v)));
            let s = _mm256_div_ps(two, _mm256_add_ps(one, e));
            _mm256_storeu_ps(c.as_mut_ptr(), _mm256_sub_ps(s, one));
        }
        for x in chunks.into_remainder() {
            *x = tanh_scalar(*x);
        }
    }

    /// AVX2 register tile: 6 rows × 16 columns (two ymm per row, 12 ymm
    /// accumulators + 2 B loads + 1 broadcast stay within the 16 registers).
    pub const MR: usize = 6;
    pub const NR: usize = 16;

    /// `acc[6][16] += Ap·Bp` over one `kc`-deep panel pair: `Ap` packed,
    /// `Bp` with row `kk` at `bp[kk * ldb..]` (`ldb` = 16 for a packed
    /// panel, the row length of B for one read in place). Safe wrapper
    /// asserting the panel extents (the caller's dispatch proved avx2+fma).
    pub fn microkernel(ap: &[f32], bp: &[f32], ldb: usize, kc: usize, acc: &mut [[f32; NR]; MR]) {
        assert!(ap.len() >= kc * MR && (kc == 0 || bp.len() >= (kc - 1) * ldb + NR));
        // SAFETY: bounds asserted above; this path is only selected when the
        // one-time feature detection reported avx2+fma.
        unsafe { microkernel_impl(ap.as_ptr(), bp.as_ptr(), ldb, kc, acc) }
    }

    /// # Safety
    ///
    /// The CPU supports avx2 and fma; `ap` is readable for `kc * MR`
    /// floats and `bp` for `(kc - 1) * ldb + NR` when `kc > 0`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn microkernel_impl(
        ap: *const f32,
        bp: *const f32,
        ldb: usize,
        kc: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        let mut c = [[_mm256_setzero_ps(); 2]; MR];
        for kk in 0..kc {
            let b0 = _mm256_loadu_ps(bp.add(kk * ldb));
            let b1 = _mm256_loadu_ps(bp.add(kk * ldb + 8));
            for (i, ci) in c.iter_mut().enumerate() {
                let a = _mm256_broadcast_ss(&*ap.add(kk * MR + i));
                ci[0] = _mm256_fmadd_ps(a, b0, ci[0]);
                ci[1] = _mm256_fmadd_ps(a, b1, ci[1]);
            }
        }
        for (row, ci) in acc.iter_mut().zip(&c) {
            let lo = _mm256_add_ps(_mm256_loadu_ps(row.as_ptr()), ci[0]);
            let hi = _mm256_add_ps(_mm256_loadu_ps(row.as_ptr().add(8)), ci[1]);
            _mm256_storeu_ps(row.as_mut_ptr(), lo);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), hi);
        }
    }

    /// 16-wide panels [`row_kernel`] keeps in flight: 8 independent FMA
    /// chains (two per panel) cover the FMA latency on two ports, in 8 of
    /// the 16 ymm registers.
    pub const ROW_PANELS: usize = 4;

    /// `acc[q] += a · B[.., 16q..16q + 16]` over `P` adjacent 16-wide panels
    /// of `b` (row `kk` at `b[kk * ldb..]`), `a.len()` deep: row 0 of
    /// [`microkernel`], lane for lane — the same FMA chain from zero and the
    /// same `acc + c` — without the other five rows or a packed A.
    pub fn row_kernel<const P: usize>(a: &[f32], b: &[f32], ldb: usize, acc: &mut [[f32; NR]; P]) {
        let kc = a.len();
        assert!(kc == 0 || b.len() >= (kc - 1) * ldb + P * NR);
        // SAFETY: bounds asserted above; this path is only selected when the
        // one-time feature detection reported avx2+fma.
        unsafe { row_kernel_impl(a.as_ptr(), b.as_ptr(), ldb, kc, acc) }
    }

    /// # Safety
    ///
    /// The CPU supports avx2 and fma; `a` is readable for `kc` floats and
    /// `b` for `(kc - 1) * ldb + P * NR` when `kc > 0`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_kernel_impl<const P: usize>(
        a: *const f32,
        b: *const f32,
        ldb: usize,
        kc: usize,
        acc: &mut [[f32; NR]; P],
    ) {
        let mut c = [[_mm256_setzero_ps(); 2]; P];
        for kk in 0..kc {
            let av = _mm256_broadcast_ss(&*a.add(kk));
            let row = b.add(kk * ldb);
            for (q, cq) in c.iter_mut().enumerate() {
                cq[0] = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.add(q * NR)), cq[0]);
                cq[1] = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.add(q * NR + 8)), cq[1]);
            }
        }
        for (panel, cq) in acc.iter_mut().zip(&c) {
            let lo = _mm256_add_ps(_mm256_loadu_ps(panel.as_ptr()), cq[0]);
            let hi = _mm256_add_ps(_mm256_loadu_ps(panel.as_ptr().add(8)), cq[1]);
            _mm256_storeu_ps(panel.as_mut_ptr(), lo);
            _mm256_storeu_ps(panel.as_mut_ptr().add(8), hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poly_exp_tracks_libm() {
        for i in -870..=870 {
            let x = i as f32 * 0.1;
            let got = exp_scalar(x);
            let want = x.exp();
            let rel = (got - want).abs() / want.max(f32::MIN_POSITIVE);
            assert!(rel < 3e-7, "exp({x}): {got} vs {want} (rel {rel})");
        }
    }

    #[test]
    fn activations_track_libm() {
        for i in -400..=400 {
            let x = i as f32 * 0.05;
            let s = sigmoid_scalar(x);
            let t = tanh_scalar(x);
            assert!((s - 1.0 / (1.0 + (-x).exp())).abs() < 1e-6, "sigmoid({x}) = {s}");
            assert!((t - x.tanh()).abs() < 1e-6, "tanh({x}) = {t}");
        }
    }

    #[test]
    fn saturated_tails_are_exact() {
        // Deep saturation: σ(-100) underflows to a subnormal, σ(100) rounds
        // to exactly 1; tanh saturates to ±1 exactly.
        let mut v = [-100.0f32, 100.0];
        sigmoid_inplace(&mut v);
        assert!(v[0] >= 0.0 && v[0] < 1e-30, "σ(-100) = {}", v[0]);
        assert_eq!(v[1], 1.0);
        let mut v = [-50.0f32, 50.0];
        tanh_inplace(&mut v);
        assert_eq!(v, [-1.0, 1.0]);
    }

    #[test]
    fn dispatch_paths_agree_bitwise() {
        // 67 exercises both the 8-lane body and the scalar remainder.
        let src: Vec<f32> = (0..67).map(|i| (i as f32 - 33.0) * 0.37).collect();
        let mut fast = src.clone();
        sigmoid_inplace(&mut fast);
        let mut slow = src.clone();
        force_scalar(true);
        sigmoid_inplace(&mut slow);
        force_scalar(false);
        assert_eq!(fast, slow, "sigmoid must be dispatch-invariant");

        let mut fast = src.clone();
        tanh_inplace(&mut fast);
        let mut slow = src;
        force_scalar(true);
        tanh_inplace(&mut slow);
        force_scalar(false);
        assert_eq!(fast, slow, "tanh must be dispatch-invariant");
    }
}
