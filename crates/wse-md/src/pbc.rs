//! Periodic boundary conditions on the wafer (paper Sec. III-E, Fig. 5).
//!
//! Periodicity in z comes free: the column projection keeps z-locality.
//! Periodicity in x or y would naïvely require wafer-edge-to-edge
//! communication; instead, the coordinate circle is **split in two and
//! collapsed onto a line** — `x → min(x, L−x)` — so atoms from the two
//! sides of the circle interleave on the wafer and interacting atoms stay
//! near each other. The fold reverses the orientation of one half, which
//! is what lets the two interleaved halves' multicast streams share the
//! fabric: each physical link direction carries two half-rate streams,
//! so the position exchange takes (nearly) the same time as the
//! non-periodic case (Sec. V-F) even though total data transfer doubles.

use md_core::system::Box3;
use md_core::vec3::{V3d, V3f};
use wse_fabric::multicast::line_stage_cycles;

/// Folding/minimum-image helper shared by the driver.
#[derive(Clone, Debug)]
pub struct FoldSpec {
    pub periodic: [bool; 3],
    pub lengths: V3d,
    lengths32: V3f,
}

impl FoldSpec {
    #[allow(clippy::needless_range_loop)] // k indexes two parallel arrays
    pub fn new(periodic: [bool; 3], lengths: V3d) -> Self {
        for k in 0..3 {
            if periodic[k] {
                assert!(
                    lengths.to_array()[k] > 0.0,
                    "periodic dimension {k} needs a positive box length"
                );
            }
        }
        Self {
            periodic,
            lengths,
            lengths32: lengths.cast(),
        }
    }

    pub fn open() -> Self {
        Self::new([false; 3], V3d::zero())
    }

    /// Fold a position for the *mapping projection*: periodic x/y collapse
    /// to `min(x, L−x)` (Fig. 5). z is never folded (the projection
    /// ignores it).
    pub fn fold(&self, p: V3d) -> V3d {
        let mut a = p.to_array();
        let l = self.lengths.to_array();
        for k in 0..2 {
            if self.periodic[k] {
                let x = a[k].rem_euclid(l[k]);
                a[k] = x.min(l[k] - x);
            }
        }
        V3d::from_array(a)
    }

    /// Minimum-image displacement `b − a` in tile (f32) precision. The
    /// modular arithmetic here is the "computational cost of periodicity"
    /// the paper notes in Sec. V-F.
    #[inline]
    pub fn disp_f32(&self, a: V3f, b: V3f) -> V3f {
        V3f::from_array(self.min_image_f32((b - a).to_array()))
    }

    /// Minimum image of a displacement along the periodic dimensions, in
    /// tile (f32) precision: the one expression behind
    /// [`Self::disp_f32`] and the driver's row-contiguous candidate scan,
    /// so both produce the same bits.
    #[inline]
    pub(crate) fn min_image_f32(&self, mut d: [f32; 3]) -> [f32; 3] {
        let l = self.lengths32.to_array();
        for k in 0..3 {
            if self.periodic[k] && l[k] > 0.0 {
                d[k] -= l[k] * (d[k] / l[k]).round();
            }
        }
        d
    }

    /// Wrap a position into the primary cell along periodic dimensions.
    #[inline]
    pub fn wrap_f32(&self, p: V3f) -> V3f {
        let mut a = p.to_array();
        let l = self.lengths32.to_array();
        for k in 0..3 {
            if self.periodic[k] && l[k] > 0.0 {
                a[k] = a[k].rem_euclid(l[k]);
            }
        }
        V3f::from_array(a)
    }

    /// Equivalent [`Box3`] for reference-engine comparisons.
    pub fn as_box(&self) -> Box3 {
        Box3::with_periodicity(self.lengths, self.periodic)
    }
}

/// Modeled cycle count for one marching-multicast line stage under folded
/// periodicity: logical neighbors sit two physical hops apart, so hop
/// latency doubles, but the two interleaved halves' streams run at half
/// rate each on shared links — same sustained throughput, `b` extra
/// cycles of pipeline latency.
pub fn folded_line_stage_cycles(b: usize, l: usize) -> u64 {
    line_stage_cycles(b, l) + b as u64
}

/// Relative slowdown of the folded (PBC) position exchange vs the open
/// one — the quantity the paper measured to be ≈ 0 (Sec. V-F).
pub fn pbc_exchange_overhead(b: usize, words: usize) -> f64 {
    let open = line_stage_cycles(b, words) + line_stage_cycles(b, (2 * b + 1) * words);
    let folded =
        folded_line_stage_cycles(b, words) + folded_line_stage_cycles(b, (2 * b + 1) * words);
    folded as f64 / open as f64 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_collapses_circle_to_half_line() {
        let f = FoldSpec::new([true, false, false], V3d::new(10.0, 0.0, 0.0));
        assert_eq!(f.fold(V3d::new(2.0, 3.0, 4.0)).x, 2.0);
        assert_eq!(f.fold(V3d::new(8.0, 3.0, 4.0)).x, 2.0);
        assert_eq!(f.fold(V3d::new(5.0, 0.0, 0.0)).x, 5.0);
        // y and z untouched.
        let p = f.fold(V3d::new(8.0, 3.0, 4.0));
        assert_eq!((p.y, p.z), (3.0, 4.0));
    }

    #[test]
    fn fold_is_contractive_for_interacting_pairs() {
        // |fold(x) − fold(y)| ≤ minimum-image distance: folded images of
        // interacting atoms are at least as close as the atoms themselves,
        // so neighborhood locality survives the fold.
        let l = 20.0;
        let f = FoldSpec::new([true, false, false], V3d::new(l, 0.0, 0.0));
        for i in 0..200 {
            for j in 0..200 {
                let x = i as f64 * 0.1;
                let y = j as f64 * 0.1;
                let mut mi = (x - y).abs();
                mi = mi.min(l - mi);
                let fd = (f.fold(V3d::new(x, 0.0, 0.0)).x - f.fold(V3d::new(y, 0.0, 0.0)).x).abs();
                assert!(
                    fd <= mi + 1e-12,
                    "x={x} y={y}: folded {fd} > min-image {mi}"
                );
            }
        }
    }

    #[test]
    fn minimum_image_displacement_f32() {
        let f = FoldSpec::new([true, true, false], V3d::new(10.0, 8.0, 0.0));
        let d = f.disp_f32(V3f::new(1.0, 1.0, 0.0), V3f::new(9.5, 7.5, 3.0));
        assert!((d.x - -1.5).abs() < 1e-6);
        assert!((d.y - -1.5).abs() < 1e-6);
        assert!((d.z - 3.0).abs() < 1e-6);
    }

    #[test]
    fn wrap_keeps_positions_in_cell() {
        let f = FoldSpec::new([true, false, false], V3d::new(5.0, 0.0, 0.0));
        let w = f.wrap_f32(V3f::new(-1.0, 7.0, -2.0));
        assert!((w.x - 4.0).abs() < 1e-6);
        assert_eq!(w.y, 7.0);
        assert_eq!(w.z, -2.0);
    }

    #[test]
    fn open_spec_is_identity() {
        let f = FoldSpec::open();
        let p = V3d::new(-3.0, 99.0, 4.0);
        assert_eq!(f.fold(p), p);
        let d = f.disp_f32(V3f::new(1.0, 1.0, 1.0), V3f::new(4.0, 5.0, 6.0));
        assert_eq!(d, V3f::new(3.0, 4.0, 5.0));
    }

    #[test]
    fn pbc_position_exchange_takes_nearly_the_same_time() {
        // Sec. V-F: "we measured the performance of the position exchange
        // with and without PBCs, and verified that they indeed take the
        // same amount of time." Our model's overhead is pure pipeline
        // latency — a few percent at the paper's neighborhood sizes, and
        // shrinking as the neighborhood grows.
        for (b, words) in [(4usize, 4usize), (7, 4), (7, 3)] {
            let overhead = pbc_exchange_overhead(b, words);
            assert!(
                overhead < 0.05,
                "b={b} words={words}: PBC overhead {overhead}"
            );
        }
        assert!(pbc_exchange_overhead(7, 4) < pbc_exchange_overhead(4, 4));
    }

    #[test]
    fn folded_stage_adds_only_latency() {
        assert_eq!(folded_line_stage_cycles(4, 8) - line_stage_cycles(4, 8), 4);
    }
}
