//! Ablation: the Table V optimizations *realized in simulation*.
//!
//! Table V projects four future optimizations analytically. Two of them
//! — neighbor-list reuse (Sec. VI-A-2) and force symmetry via
//! neighborhood reduction (Sec. VI-A-3) — are implemented for real in
//! this repository's engine (`WseMdConfig::{neighbor_reuse_interval,
//! symmetric_forces}`), with physics verified unchanged. This binary
//! measures their effect on actual thin-slab runs and compares against
//! the projection. The other two (fixed-cost reduction, 4-core workers)
//! are micro-architectural and remain model-only.

use md_core::materials::Species;
use wafer_md::scenario::Scenario;
use wafer_md_bench::{fmt_rate, header};

fn run(species: Species, symmetric: bool, reuse: usize) -> (f64, f64, f64) {
    let mut sim = Scenario::slab(species, 24, 24, 3)
        .temperature(290.0)
        .seed(77)
        .spare(0.04)
        .build_wse();
    // The engine reads these three fields only when it steps.
    sim.config.symmetric_forces = symmetric;
    sim.config.neighbor_reuse_interval = reuse;
    sim.config.neighbor_skin = if reuse > 1 { 1.0 } else { 0.0 };
    sim.run(40);
    (
        sim.timesteps_per_second(40),
        sim.last_stats.mean_candidates,
        sim.last_stats.mean_interactions,
    )
}

fn main() {
    header("Ablation — Table V optimizations realized in simulation");
    println!("thin slabs, 24x24x3 cells, 290 K, 40 steps each; ts/s from charged cycles\n");
    println!(
        "{:<8} {:>11} {:>11} {:>11} {:>11} {:>8} {:>8}",
        "Element", "baseline", "+reuse(10)", "+symmetry", "+both", "gain", "TableV*"
    );
    for sp in [Species::Ta, Species::W, Species::Cu] {
        let (base, cand, inter) = run(sp, false, 1);
        let (reuse, _, _) = run(sp, false, 10);
        let (sym, _, _) = run(sp, true, 1);
        let (both, _, _) = run(sp, true, 10);
        // Analytic expectation for these two stages at this workload.
        let model = wse_fabric::cost::CostModel::paper_baseline();
        let t_base = model.timestep_ns(cand, inter);
        let t_opt = model.mcast_ns * cand
            + 0.1 * model.miss_ns * (cand - inter)
            + 0.5 * model.interaction_ns * inter
            + model.fixed_ns;
        println!(
            "{:<8} {:>11} {:>11} {:>11} {:>11} {:>7.2}x {:>7.2}x",
            sp.symbol(),
            fmt_rate(base),
            fmt_rate(reuse),
            fmt_rate(sym),
            fmt_rate(both),
            both / base,
            t_base / t_opt
        );
    }
    println!(
        "\n* analytic gain of the same two stages (miss x0.1, interaction x0.5)\n\
         at this slab's measured workload. The simulated gain is slightly\n\
         lower because rebuild steps still pay full reject processing and\n\
         the skin adds entries to reused lists — costs Table V abstracts away.\n\
         Physics equivalence of both optimizations is enforced by tests\n\
         (crates/wse-md/tests/optimizations.rs)."
    );
}
