//! Shared formatting for the experiment regenerator binaries (one
//! binary per paper table/figure; see the crate map in
//! docs/ARCHITECTURE.md). The binaries build their workloads through
//! `wafer_md::scenario::Scenario`, the same seam `wafer-md run` uses.

/// Print a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Format a rate with thousands separators.
pub fn fmt_rate(rate: f64) -> String {
    let r = rate.round() as i64;
    let s = r.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::materials::Species;
    use wafer_md::scenario::Scenario;

    #[test]
    fn controlled_grid_atoms_stay_frozen() {
        let mut sim = Scenario::controlled_grid(Species::Ta, 12, 2.0, 3).build_wse();
        let before = sim.positions_by_atom();
        sim.run(5);
        let after = sim.positions_by_atom();
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(274_016.4), "274,016");
        assert_eq!(fmt_rate(973.0), "973");
    }
}
