//! Table I — predicted and measured WSE performance vs Frontier/Quartz
//! for the three benchmark metals.
//!
//! Two blocks:
//!
//! 1. **Paper workload through our models** — the Table II cost model at
//!    the paper's (candidates, interactions) against the calibrated
//!    cluster baselines: reproduces every Table I column.
//! 2. **Simulated slabs** — actual `WseMdSim` runs with the paper's
//!    thin-slab geometry (6 cells thick, open boundaries, 290 K, one
//!    atom per core). Default runs scaled-down slabs; pass `--full` for
//!    the true 801,792-atom replications (174×192×6 Cu, 256×261×6 W/Ta),
//!    about 35 s on a 2-core host.
//!
//! Block 2 prints, per metal, the atom count, the neighborhood radius
//! `b` the greedy mapping needed, the mean interactions and candidates
//! per atom, the cost-model prediction from the interior workload, the
//! rate from the charged cycles, and the error between the two. The
//! candidate counts it prints are the simulator's own: the greedy
//! mapping needs a wider neighborhood than the paper's hand-optimized
//! one (224 candidates for Cu and W, 80 for Ta), so the simulated rates
//! sit below the paper's measured ones while keeping the ordering
//! Ta ≫ Cu ≈ W.

use md_baseline::cluster::{ClusterModel, Machine};
use md_baseline::strongscale::{paper_workload, wse_model_rate};
use md_core::lattice::Crystal;
use md_core::materials::{Material, Species};
use wafer_md::scenario::Scenario;
use wafer_md_bench::{fmt_rate, header};
use wse_fabric::cost::CostModel;

fn main() {
    let full = std::env::args().any(|a| a == "--full");

    header("Table I (block 1): paper workload, 801,792 atoms");
    println!(
        "{:<8} {:>12} {:>11} {:>11} {:>9} {:>9} {:>8} {:>8}",
        "Element",
        "Inter/Cand",
        "Predicted",
        "Paper-Meas",
        "Frontier",
        "Quartz",
        "vs GPU",
        "vs CPU"
    );
    let paper_measured = [
        (Species::Cu, 106_313.0),
        (Species::W, 96_140.0),
        (Species::Ta, 274_016.0),
    ];
    for (sp, measured) in paper_measured {
        let (cand, inter) = paper_workload(sp);
        let predicted = wse_model_rate(sp);
        let gpu = ClusterModel::calibrated(Machine::FrontierGpu, sp).peak_rate();
        let cpu = ClusterModel::calibrated(Machine::QuartzCpu, sp).peak_rate();
        println!(
            "{:<8} {:>9.0}/{:<4.0} {:>9} {:>11} {:>9.0} {:>9.0} {:>7.0}x {:>7.0}x",
            sp.symbol(),
            inter,
            cand,
            fmt_rate(predicted),
            fmt_rate(measured),
            gpu,
            cpu,
            measured / gpu,
            measured / cpu
        );
    }
    println!("(paper: Cu 109x/34x, W 96x/26x, Ta 179x/55x; prediction errors 1.3-3.2%)");

    header(&format!(
        "Table I (block 2): simulated thin slabs ({}, 6 cells thick, 1 atom/core)",
        if full {
            "FULL 801,792-atom replications"
        } else {
            "reduced scale; --full for 801,792"
        }
    ));
    println!(
        "{:<8} {:>8} {:>8} {:>12} {:>11} {:>11} {:>7}",
        "Element", "Atoms", "b", "Inter/Cand", "Predicted", "Measured", "Error"
    );
    let model = CostModel::paper_baseline();
    for sp in [Species::Cu, Species::W, Species::Ta] {
        let material = Material::new(sp);
        let (nx, ny) = if full {
            match material.crystal {
                Crystal::Fcc => (174, 192),
                Crystal::Bcc => (256, 261),
            }
        } else {
            (48, 48)
        };
        let mut sim = Scenario::slab(sp, nx, ny, 6)
            .temperature(290.0)
            .seed(31)
            .spare(0.06)
            .build_wse();
        let steps = if full { 5 } else { 20 };
        sim.run(steps);
        let s = sim.last_stats;
        // Prediction from the interior (bulk) workload, as the paper
        // predicts from nominal counts; measurement reflects actual
        // per-tile work including boundary atoms.
        let predicted = model.timesteps_per_second(
            sim.interior_candidates() as f64,
            material.bulk_interactions() as f64,
        );
        let measured = sim.timesteps_per_second(steps);
        let err = (measured - predicted) / predicted * 100.0;
        println!(
            "{:<8} {:>8} {:>8} {:>6.1}/{:<5.0} {:>11} {:>11} {:>+6.1}%",
            sp.symbol(),
            sim.n_atoms(),
            format!("({},{})", sim.b.0, sim.b.1),
            s.mean_interactions,
            s.mean_candidates,
            fmt_rate(predicted),
            fmt_rate(measured),
            err
        );
    }
    println!(
        "(measured runs faster than the interior-workload prediction because\n\
         boundary atoms carry fewer candidates/interactions — the paper sees\n\
         the same effect at 1-3% for its 800k-atom slabs; the effect shrinks\n\
         with slab size as the boundary fraction falls)"
    );
}
