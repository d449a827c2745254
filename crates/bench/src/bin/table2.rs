//! Table II — linear regression of time per timestep.
//!
//! Runs the paper's controlled sweep (frozen regular grid, forced
//! neighborhood size, cutoff-controlled interactions; Sec. IV-B) on the
//! simulator and fits `t_wall = A·n_cand + B·n_inter + C` by least
//! squares, reporting coefficients and r². Two fits are reported:
//!
//! * **charged-cycle fit** — over the cycles the simulator charges from
//!   its calibrated cost model; recovering A = 26.6 ns, B = 71.4 ns,
//!   C = 574 ns with r² ≈ 1 validates the whole accounting pipeline
//!   (per-tile candidate/interaction counting through to the fit);
//! * **host wall-clock fit** — over the *real* time this Rust simulator
//!   spends per step, showing that the functional engine itself obeys a
//!   linear cost law in (candidates, interactions).
//!
//! Also reproduces the timing-stability measurement (Sec. V-B): per-tile
//! vs array-averaged standard deviation of step cycles.

use md_core::materials::{Material, Species};
use perf_model::linear::{fit, SweepSample};
use wafer_md::scenario::Scenario;
use wafer_md_bench::header;
use wse_fabric::cost::WSE2_CLOCK_GHZ;

fn main() {
    header("Table II — controlled sweep and linear fit");
    let mut charged = Vec::new();
    let mut host = Vec::new();
    let side = 40;
    let cutoff = Material::new(Species::Ta).cutoff;
    for b in [2i32, 3, 4, 5, 6, 7] {
        for spacing_frac in [0.22, 0.35, 0.5, 0.7, 0.95] {
            let spacing = cutoff * spacing_frac;
            let mut sim = Scenario::controlled_grid(Species::Ta, side, spacing, b).build_wse();
            let t0 = std::time::Instant::now();
            sim.run(8);
            let host_ns_per_step = t0.elapsed().as_nanos() as f64 / 8.0;
            let s = sim.last_stats;
            charged.push(SweepSample {
                n_candidates: s.mean_candidates,
                n_interactions: s.mean_interactions,
                t_wall_ns: s.cycles / WSE2_CLOCK_GHZ,
            });
            host.push(SweepSample {
                n_candidates: s.mean_candidates,
                n_interactions: s.mean_interactions,
                t_wall_ns: host_ns_per_step,
            });
        }
    }

    let f = fit(&charged);
    println!("charged-cycle fit over {} sweep points:", charged.len());
    println!(
        "  A = {:.1} ns/candidate   B = {:.1} ns/interaction   C = {:.1} ns   r² = {:.4}",
        f.a, f.b, f.c, f.r_squared
    );
    println!("  paper Table II:  A = 26.6           B = 71.4            C = 574.0     r² = 0.9998");

    let h = fit(&host);
    println!("\nhost wall-clock fit (this Rust simulator, per step, whole array):");
    println!(
        "  A' = {:.0} ns/candidate  B' = {:.0} ns/interaction  C' = {:.0} ns  r² = {:.4}",
        h.a, h.b, h.c, h.r_squared
    );

    header("Timing stability (Sec. V-B)");
    // Rerun one configuration and collect per-step cycles.
    let mut sim = Scenario::controlled_grid(Species::Ta, side, 1.3, 4).build_wse();
    sim.run(50);
    let trace = &sim.cycle_trace;
    let mean: f64 = trace.iter().sum::<f64>() / trace.len() as f64;
    let std: f64 =
        (trace.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / trace.len() as f64).sqrt();
    println!(
        "array-level step cycles: {:.0} ± {:.2} ({} steps; paper: 3,477 ± 0.316 after array averaging)",
        mean, std, trace.len()
    );
    println!("(a frozen controlled grid is deterministic, so the simulated deviation is 0)");
}
