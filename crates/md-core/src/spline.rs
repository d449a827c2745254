//! Uniform-knot cubic spline tables.
//!
//! The paper's EAM kernels evaluate the density ρ(r), pair potential φ(r),
//! and embedding function F(ρ) through interpolation tables stored in each
//! tile's SRAM ("local copies of interpolation tables for ρᵢ, Fᵢ, and
//! φᵢⱼ"). Table III accounts a `segment(·)` lookup as one add, one
//! multiply, and two other ops — which is exactly what a uniform-knot
//! table gives: `k = ⌊(x−x₀)·h⁻¹⌋`, `Δx = x − x_k`. The floor is a
//! truncating float-to-integer cast on the non-negative side and a
//! clamp to 0 below it ([`Spline::segment`]), not a call to `floor`.
//!
//! We store per-segment cubic coefficients so evaluation of value and
//! derivative is a fused Horner pass, and we construct the coefficients as
//! a *natural* cubic spline (second derivative zero at both ends) via the
//! standard tridiagonal solve.

use crate::vec3::Real;

/// Lane width of the explicit-SIMD batched spline kernels
/// ([`Spline::eval4`] / [`Spline::eval_both4`]) and of the chunked
/// force loops built on them.
pub const LANES: usize = 4;

/// A cubic spline on a uniform knot grid, with scalar type `T`
/// (`f32` on the WSE tiles, `f64` in the reference engine).
#[derive(Clone, Debug)]
pub struct Spline<T> {
    x0: T,
    inv_h: T,
    h: T,
    /// Per-segment coefficients `[a, b, c, d]`:
    /// `y(x) = a + b·Δx + c·Δx² + d·Δx³` with `Δx = x − x_k`.
    coef: Vec<[T; 4]>,
    n_knots: usize,
}

impl<T: Real> Spline<T> {
    /// Build a natural cubic spline through `samples[i]` at
    /// `x0 + i·h`. Requires at least 4 samples.
    pub fn from_samples(x0: f64, h: f64, samples: &[f64]) -> Self {
        let n = samples.len();
        assert!(n >= 4, "spline needs at least 4 samples, got {n}");
        assert!(h > 0.0, "knot spacing must be positive");

        // Solve for second derivatives m_i (natural BCs: m_0 = m_{n-1} = 0)
        // using the Thomas algorithm on the standard spline system:
        //   m_{i-1} + 4 m_i + m_{i+1} = 6 (y_{i-1} - 2 y_i + y_{i+1}) / h².
        let mut m = vec![0.0f64; n];
        if n > 2 {
            let k = n - 2; // interior unknowns
            let mut c_prime = vec![0.0f64; k];
            let mut d_prime = vec![0.0f64; k];
            let rhs =
                |i: usize| 6.0 * (samples[i - 1] - 2.0 * samples[i] + samples[i + 1]) / (h * h);
            c_prime[0] = 1.0 / 4.0;
            d_prime[0] = rhs(1) / 4.0;
            for i in 1..k {
                let denom = 4.0 - c_prime[i - 1];
                c_prime[i] = 1.0 / denom;
                d_prime[i] = (rhs(i + 1) - d_prime[i - 1]) / denom;
            }
            m[k] = d_prime[k - 1];
            for i in (1..k).rev() {
                m[i] = d_prime[i - 1] - c_prime[i - 1] * m[i + 1];
            }
        }

        let mut coef = Vec::with_capacity(n - 1);
        for i in 0..n - 1 {
            let a = samples[i];
            let b = (samples[i + 1] - samples[i]) / h - h * (2.0 * m[i] + m[i + 1]) / 6.0;
            let c = m[i] / 2.0;
            let d = (m[i + 1] - m[i]) / (6.0 * h);
            coef.push([
                T::from_f64(a),
                T::from_f64(b),
                T::from_f64(c),
                T::from_f64(d),
            ]);
        }

        Self {
            x0: T::from_f64(x0),
            inv_h: T::from_f64(1.0 / h),
            h: T::from_f64(h),
            coef,
            n_knots: n,
        }
    }

    /// Tabulate `f` on `[x0, x1]` with `n` knots and build the spline.
    pub fn tabulate(x0: f64, x1: f64, n: usize, f: impl Fn(f64) -> f64) -> Self {
        assert!(n >= 4 && x1 > x0);
        let h = (x1 - x0) / (n - 1) as f64;
        let samples: Vec<f64> = (0..n).map(|i| f(x0 + i as f64 * h)).collect();
        Self::from_samples(x0, h, &samples)
    }

    /// The paper's `segment(x)` primitive: segment index and local offset.
    /// Out-of-range arguments clamp to the first/last segment, matching
    /// LAMMPS table semantics.
    ///
    /// `⌊t⌋` is taken by a truncating cast, which equals the floor for
    /// `t ≥ 0` (including −0.0 and a saturated +∞); negative `t` and NaN
    /// clamp to segment 0 without it, so no libm `floor` call is made.
    #[inline]
    pub fn segment(&self, x: T) -> (usize, T) {
        let t = (x - self.x0) * self.inv_h;
        let last = (self.coef.len() - 1) as i64;
        let k = if t >= T::ZERO {
            (t.to_f64() as i64).min(last)
        } else {
            0
        };
        let xk = self.x0 + T::from_f64(k as f64) * self.h;
        (k as usize, x - xk)
    }

    /// Evaluate the spline value at `x`.
    #[inline]
    pub fn eval(&self, x: T) -> T {
        let (k, dx) = self.segment(x);
        let [a, b, c, d] = self.coef[k];
        a + dx * (b + dx * (c + dx * d))
    }

    /// Evaluate the spline derivative at `x`.
    #[inline]
    pub fn eval_deriv(&self, x: T) -> T {
        let (k, dx) = self.segment(x);
        let [_, b, c, d] = self.coef[k];
        b + dx * (T::TWO * c + T::from_f64(3.0) * dx * d)
    }

    /// Fused value + derivative evaluation (one segment lookup), the form
    /// used inside the per-interaction kernel.
    #[inline]
    pub fn eval_both(&self, x: T) -> (T, T) {
        self.eval_both_in(self.segment(x))
    }

    /// [`Spline::eval_both`] in a segment already located by
    /// [`Spline::segment`] — of this table, or of one on the
    /// [same grid](Spline::same_grid), so two tables can share one
    /// lookup with the bits of two.
    #[inline]
    pub fn eval_both_in(&self, (k, dx): (usize, T)) -> (T, T) {
        let [a, b, c, d] = self.coef[k];
        let v = a + dx * (b + dx * (c + dx * d));
        let dv = b + dx * (T::TWO * c + T::from_f64(3.0) * dx * d);
        (v, dv)
    }

    /// Evaluate four spline values at once (explicit 4-lane batch for
    /// the stable toolchain — no `std::simd`). Each lane performs
    /// exactly the scalar [`Spline::eval`] operation sequence, so every
    /// lane result is bit-identical to the corresponding scalar call;
    /// the segment lookup is a per-lane gather, while the Horner
    /// polynomial runs as straight-line lane-parallel arithmetic the
    /// compiler can vectorize.
    #[inline]
    pub fn eval4(&self, x: [T; LANES]) -> [T; LANES] {
        let (a, b, c, d, dx) = self.gather4(x);
        let mut v = [T::ZERO; LANES];
        for l in 0..LANES {
            v[l] = a[l] + dx[l] * (b[l] + dx[l] * (c[l] + dx[l] * d[l]));
        }
        v
    }

    /// Fused value + derivative for four inputs at once; the batched
    /// form of [`Spline::eval_both`] with the same per-lane
    /// bit-exactness guarantee as [`Spline::eval4`].
    #[inline]
    pub fn eval_both4(&self, x: [T; LANES]) -> ([T; LANES], [T; LANES]) {
        let (a, b, c, d, dx) = self.gather4(x);
        let mut v = [T::ZERO; LANES];
        let mut dv = [T::ZERO; LANES];
        for l in 0..LANES {
            v[l] = a[l] + dx[l] * (b[l] + dx[l] * (c[l] + dx[l] * d[l]));
            dv[l] = b[l] + dx[l] * (T::TWO * c[l] + T::from_f64(3.0) * dx[l] * d[l]);
        }
        (v, dv)
    }

    /// Per-lane segment lookup + coefficient gather feeding the batched
    /// evaluators: transposes four `[a, b, c, d]` rows into coefficient
    /// lanes so the polynomial arithmetic is loop-free of memory
    /// indirection.
    #[inline]
    #[allow(clippy::type_complexity)] // five parallel coefficient lanes, not a nameable concept
    fn gather4(
        &self,
        x: [T; LANES],
    ) -> ([T; LANES], [T; LANES], [T; LANES], [T; LANES], [T; LANES]) {
        let mut a = [T::ZERO; LANES];
        let mut b = [T::ZERO; LANES];
        let mut c = [T::ZERO; LANES];
        let mut d = [T::ZERO; LANES];
        let mut dx = [T::ZERO; LANES];
        for l in 0..LANES {
            let (k, off) = self.segment(x[l]);
            let [ak, bk, ck, dk] = self.coef[k];
            a[l] = ak;
            b[l] = bk;
            c[l] = ck;
            d[l] = dk;
            dx[l] = off;
        }
        (a, b, c, d, dx)
    }

    /// Domain lower bound.
    pub fn x_min(&self) -> T {
        self.x0
    }

    /// Domain upper bound.
    pub fn x_max(&self) -> T {
        self.x0 + T::from_f64((self.n_knots - 1) as f64) * self.h
    }

    /// Whether `other` has this table's knots (origin, spacing and
    /// count, bit for bit), so [`Spline::segment`] gives the same
    /// segment in both for every input.
    pub fn same_grid(&self, other: &Self) -> bool {
        self.x0.to_f64().to_bits() == other.x0.to_f64().to_bits()
            && self.inv_h.to_f64().to_bits() == other.inv_h.to_f64().to_bits()
            && self.h.to_f64().to_bits() == other.h.to_f64().to_bits()
            && self.coef.len() == other.coef.len()
    }

    /// Number of knots.
    pub fn len(&self) -> usize {
        self.n_knots
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    /// SRAM footprint of this table in bytes (coefficients only), used by
    /// the per-tile memory audit against the 48 kB budget.
    pub fn table_bytes(&self) -> usize {
        self.coef.len() * 4 * std::mem::size_of::<T>()
    }

    /// Re-tabulate into another precision (f64 master table → f32 tile
    /// copy). Resamples the spline at its own knots.
    pub fn cast<U: Real>(&self) -> Spline<U> {
        self.resample(self.n_knots)
    }

    /// Re-tabulate onto `n` uniform knots over the same domain, possibly
    /// in another precision — used to shrink master tables down to
    /// tile-SRAM-sized copies.
    pub fn resample<U: Real>(&self, n: usize) -> Spline<U> {
        let x0 = self.x0.to_f64();
        let x1 = self.x_max().to_f64();
        let h = (x1 - x0) / (n - 1) as f64;
        let samples: Vec<f64> = (0..n)
            .map(|i| self.eval(T::from_f64(x0 + i as f64 * h)).to_f64())
            .collect();
        Spline::from_samples(x0, h, &samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(f: impl Fn(f64) -> f64, s: &Spline<f64>, x0: f64, x1: f64) -> f64 {
        (0..1000)
            .map(|i| {
                let x = x0 + (x1 - x0) * i as f64 / 999.0;
                (s.eval(x) - f(x)).abs()
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn interpolates_knots_exactly() {
        let s = Spline::<f64>::tabulate(0.0, 10.0, 21, |x| x.sin());
        for i in 0..21 {
            let x = 0.5 * i as f64;
            assert!((s.eval(x) - x.sin()).abs() < 1e-12, "knot {i}");
        }
    }

    #[test]
    fn cubic_polynomials_nearly_exact_between_knots() {
        // A natural spline is not exact for general cubics (end conditions),
        // but interior segments of a fine table should be extremely close.
        let f = |x: f64| 2.0 + 3.0 * x - 0.5 * x * x + 0.01 * x * x * x;
        let s = Spline::<f64>::tabulate(0.0, 10.0, 101, f);
        assert!(max_err(f, &s, 2.0, 8.0) < 1e-6);
    }

    #[test]
    fn smooth_function_converges_with_table_density() {
        let f = |x: f64| (-x).exp() * x.cos();
        let coarse = Spline::<f64>::tabulate(0.0, 5.0, 20, f);
        let fine = Spline::<f64>::tabulate(0.0, 5.0, 200, f);
        let e_coarse = max_err(f, &coarse, 0.2, 4.8);
        let e_fine = max_err(f, &fine, 0.2, 4.8);
        assert!(e_fine < e_coarse / 50.0, "coarse {e_coarse} fine {e_fine}");
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let s = Spline::<f64>::tabulate(0.0, std::f64::consts::TAU, 200, |x| x.sin());
        for i in 0..50 {
            let x = 0.3 + i as f64 * 0.1;
            let eps = 1e-6;
            let fd = (s.eval(x + eps) - s.eval(x - eps)) / (2.0 * eps);
            assert!((s.eval_deriv(x) - fd).abs() < 1e-6, "x={x}");
        }
    }

    #[test]
    fn eval_both_is_consistent() {
        let s = Spline::<f64>::tabulate(1.0, 4.0, 50, |x| 1.0 / x);
        let (v, d) = s.eval_both(2.37);
        assert_eq!(v, s.eval(2.37));
        assert_eq!(d, s.eval_deriv(2.37));
    }

    #[test]
    fn batched_lanes_are_bit_identical_to_scalar_eval() {
        let s = Spline::<f64>::tabulate(1.0, 6.0, 80, |x| (-x).exp() * x.sin());
        let xs = [1.07, 2.93, 4.501, 5.999];
        let v4 = s.eval4(xs);
        let (bv, bd) = s.eval_both4(xs);
        for l in 0..LANES {
            let (v, d) = s.eval_both(xs[l]);
            assert_eq!(v4[l].to_bits(), v.to_bits(), "lane {l} value");
            assert_eq!(bv[l].to_bits(), v.to_bits(), "lane {l} fused value");
            assert_eq!(bd[l].to_bits(), d.to_bits(), "lane {l} derivative");
        }
        // Out-of-range lanes clamp exactly like the scalar path.
        let clamped = [-2.0, 0.0, 7.5, 99.0];
        let v4 = s.eval4(clamped);
        for l in 0..LANES {
            assert_eq!(v4[l].to_bits(), s.eval(clamped[l]).to_bits());
        }
    }

    #[test]
    fn batched_lanes_match_scalar_in_f32() {
        let master = Spline::<f64>::tabulate(0.5, 5.0, 60, |x| 1.0 / (x * x));
        let tile: Spline<f32> = master.cast();
        let xs = [0.51f32, 1.25, 3.75, 4.99];
        let (v4, d4) = tile.eval_both4(xs);
        for l in 0..LANES {
            let (v, d) = tile.eval_both(xs[l]);
            assert_eq!(v4[l].to_bits(), v.to_bits(), "lane {l}");
            assert_eq!(d4[l].to_bits(), d.to_bits(), "lane {l}");
        }
    }

    #[test]
    fn out_of_range_clamps_to_edge_segments() {
        let s = Spline::<f64>::tabulate(0.0, 1.0, 10, |x| x);
        // Extrapolation continues the edge cubic — finite, no panic.
        assert!(s.eval(-0.5).is_finite());
        assert!(s.eval(1.5).is_finite());
        let (k, _) = s.segment(-3.0);
        assert_eq!(k, 0);
        let (k, _) = s.segment(99.0);
        assert_eq!(k, 8);
    }

    /// Reference segment index: `⌊t⌋` by `floor` (exact in f64 for an
    /// f32 `t`), clamped to the segment range.
    fn floor_index<T: Real>(s: &Spline<T>, x: T) -> usize {
        let t = (x - s.x0) * s.inv_h;
        let last = (s.coef.len() - 1) as i64;
        (t.to_f64().floor() as i64).clamp(0, last) as usize
    }

    /// Knots, their predecessors, the domain ends, the special values,
    /// and points past both ends, in the spline's own precision.
    fn edge_inputs<T: Real>(s: &Spline<T>, prev: impl Fn(T) -> T) -> Vec<T> {
        let mut xs = vec![T::ZERO, -T::ZERO, s.x0, prev(s.x0), s.x_max()];
        for k in 0..s.len() + 3 {
            let knot = s.x0 + T::from_f64(k as f64) * s.h;
            xs.extend([knot, prev(knot)]);
        }
        for v in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e30,
            -1e30,
            1e300,
        ] {
            xs.push(T::from_f64(v));
        }
        xs
    }

    proptest::proptest! {
        /// The cast-based segment index equals the `floor` formula for
        /// random inputs and every edge case, in both precisions.
        #[test]
        fn cast_segment_index_matches_floor(
            x0 in -5.0f64..5.0,
            span in 0.5f64..20.0,
            n in 4usize..200,
            xs in proptest::collection::vec(-40.0f64..40.0, 64..65),
        ) {
            let s64 = Spline::<f64>::tabulate(x0, x0 + span, n, |x| x.sin());
            let s32: Spline<f32> = s64.cast();
            let mut x64 = edge_inputs(&s64, f64::next_down);
            let mut x32 = edge_inputs(&s32, f32::next_down);
            x64.extend(&xs);
            x32.extend(xs.iter().map(|&x| x as f32));
            for x in x64 {
                proptest::prop_assert_eq!(s64.segment(x).0, floor_index(&s64, x), "f64 x = {}", x);
            }
            for x in x32 {
                proptest::prop_assert_eq!(s32.segment(x).0, floor_index(&s32, x), "f32 x = {}", x);
            }
        }
    }

    /// Tables on one grid share a segment lookup with the bits of their
    /// own; the materials' φ and ρ tables are on one grid in f32 too.
    #[test]
    fn tables_on_one_grid_share_a_segment() {
        let a = Spline::<f64>::tabulate(0.5, 5.0, 300, |x| (-x).exp()).cast::<f32>();
        let b = Spline::<f64>::tabulate(0.5, 5.0, 300, |x| x.cos()).cast::<f32>();
        assert!(a.same_grid(&b));
        for i in 0..1000 {
            let x = 0.3f32 + 0.005 * i as f32;
            let seg = a.segment(x);
            let bits = |(v, d): (f32, f32)| (v.to_bits(), d.to_bits());
            assert_eq!(bits(b.eval_both_in(seg)), bits(b.eval_both(x)), "x = {x}");
        }
        let finer = Spline::<f64>::tabulate(0.5, 5.0, 301, |x| x.cos()).cast::<f32>();
        let shifted = Spline::<f64>::tabulate(0.6, 5.1, 300, |x| x.cos()).cast::<f32>();
        assert!(!a.same_grid(&finer) && !a.same_grid(&shifted));
        for species in crate::materials::Species::ALL {
            let p = crate::materials::Material::new(species)
                .potential()
                .cast::<f32>();
            assert!(p.phi.same_grid(&p.rho), "{species:?}");
        }
    }

    #[test]
    fn segment_offsets_are_local() {
        let s = Spline::<f64>::tabulate(2.0, 12.0, 11, |x| x * x);
        let (k, dx) = s.segment(5.3);
        assert_eq!(k, 3);
        assert!((dx - 0.3).abs() < 1e-12);
    }

    #[test]
    fn f32_cast_stays_close_to_f64_master() {
        let f = |x: f64| (-(x - 3.0) * (x - 3.0)).exp();
        let master = Spline::<f64>::tabulate(0.0, 6.0, 400, f);
        let tile: Spline<f32> = master.cast();
        for i in 0..100 {
            let x = 0.3 + i as f64 * 0.054;
            let err = (tile.eval(x as f32) as f64 - master.eval(x)).abs();
            assert!(err < 1e-4, "x={x} err={err}");
        }
    }

    #[test]
    fn table_bytes_scale_with_segments_and_precision() {
        let s64 = Spline::<f64>::tabulate(0.0, 1.0, 100, |x| x);
        let s32: Spline<f32> = s64.cast();
        assert_eq!(s64.table_bytes(), 99 * 4 * 8);
        assert_eq!(s32.table_bytes(), 99 * 4 * 4);
    }

    #[test]
    fn domain_bounds() {
        let s = Spline::<f64>::tabulate(1.0, 9.0, 9, |x| x);
        assert_eq!(s.x_min(), 1.0);
        assert!((s.x_max() - 9.0).abs() < 1e-12);
        assert_eq!(s.len(), 9);
    }
}
