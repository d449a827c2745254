//! End-to-end smoke tests of every experiment-regeneration path, so the
//! pipelines behind the paper's tables and figures can't rot. All
//! engine construction goes through the declarative scenario subsystem
//! (`wafer_md::scenario`) — no experiment wires a backend by hand.

use wafer_md::baseline::strongscale::{strong_scaling_data, wse_model_rate};
use wafer_md::md::materials::Species;
use wafer_md::model;
use wafer_md::scenario::{registry, run_to_string, EngineKind, RunOptions, Scenario};

#[test]
fn fig1_timescale_pipeline() {
    let wse = model::timescale::wse_star();
    let gpu = model::timescale::gpu_star();
    assert!(wse.time_s / gpu.time_s > 100.0);
}

#[test]
fn table1_pipeline_reproduces_speedups() {
    let data = strong_scaling_data(Species::Ta, 274_016.0);
    assert!((data.speedup_vs_gpu() - 179.0).abs() < 6.0);
    assert!((data.speedup_vs_cpu() - 55.0).abs() < 3.0);
}

#[test]
fn table2_pipeline_recovers_cost_model() {
    // Controlled-sweep fit over the simulator must recover Table II.
    // The controlled grid is the scenario subsystem's Sec. IV-B fixture,
    // driven through the unified Engine trait.
    use wafer_md::fabric::cost::WSE2_CLOCK_GHZ;
    let mut samples = Vec::new();
    for b in [2i32, 4, 6] {
        for spacing_frac in [0.3, 0.6, 0.9] {
            let m = wafer_md::md::materials::Material::new(Species::Ta);
            let mut sim = Scenario::controlled_grid(Species::Ta, 18, m.cutoff * spacing_frac, b)
                .build_engine()
                .expect("consistent scenario");
            sim.run(3);
            let o = sim.observables();
            samples.push(model::linear::SweepSample {
                n_candidates: o.mean_candidates,
                n_interactions: o.mean_interactions,
                t_wall_ns: o.modeled_cycles.expect("wse engine has a cost model") / WSE2_CLOCK_GHZ,
            });
        }
    }
    let fit = model::linear::fit(&samples);
    assert!((fit.a - 26.6).abs() < 0.5, "A = {}", fit.a);
    assert!((fit.b - 71.4).abs() < 1.5, "B = {}", fit.b);
    assert!((fit.c - 574.0).abs() < 10.0, "C = {}", fit.c);
    assert!(fit.r_squared > 0.999);
}

#[test]
fn fig8_weak_scaling_is_flat_under_controlled_workload() {
    let rates: Vec<f64> = [24usize, 48, 96]
        .iter()
        .map(|&side| {
            let mut sim = Scenario::controlled_grid(Species::Ta, side, 1.3, 4)
                .build_engine()
                .expect("consistent scenario");
            sim.run(4);
            sim.observables()
                .modeled_rate
                .expect("wse engine has a cost model")
        })
        .collect();
    // Same per-core workload except edge tiles, whose share falls with
    // size: the series must converge toward flat (paper: within 1% at
    // 10⁵-10⁶ cores, where the edge share is negligible).
    let spread = (rates[2] - rates[0]).abs() / rates[2];
    assert!(spread < 0.15, "weak scaling spread {spread}: {rates:?}");
    let tail_spread = (rates[2] - rates[1]).abs() / rates[2];
    assert!(tail_spread < 0.07, "tail spread {tail_spread}: {rates:?}");
    // Convergence: successive deviations shrink.
    assert!(tail_spread < spread, "series not converging: {rates:?}");
}

#[test]
fn table34_pipeline_utilizations() {
    use model::flops::{machine_utilization, Platform};
    let wse = machine_utilization(Platform::Cs2, Species::Ta);
    let gpu = machine_utilization(Platform::Frontier32Gcd, Species::Ta);
    assert!(wse > 0.15 && wse < 0.30);
    assert!(gpu < 0.01);
}

#[test]
fn table5_pipeline_projection() {
    let rows = model::projection::projection_table(Species::Ta);
    assert!(rows.last().unwrap().rate > 1e6);
}

#[test]
fn table6_pipeline_multiwafer() {
    for (lo, hi) in model::multiwafer::MultiWaferConfig::paper_rows() {
        assert!(lo.evaluate().performance > 0.95);
        assert!(hi.evaluate().performance > 0.90);
    }
}

#[test]
fn fig10_pipeline_staircase() {
    let steps = wafer_md::fabric::cost::fig10_campaign();
    let target = wse_model_rate(Species::Ta);
    let first = target / steps.first().unwrap().slowdown;
    let last = target / steps.last().unwrap().slowdown;
    assert!(first < 60_000.0);
    assert!(last > 260_000.0);
}

#[test]
fn sec2b_pipeline_lj_rates() {
    use wafer_md::baseline::lj;
    assert!(lj::v100_lj_rate(1000.0) < 10_000.0);
    assert!(lj::skylake36_lj_rate(1000.0) > 20_000.0);
}

#[test]
fn every_registered_scenario_reports_through_the_registry() {
    // Reduced budgets: this is a pipeline-rot smoke test, not a physics
    // run. Every scenario must execute and produce a non-empty report.
    let opts = RunOptions {
        atoms: Some(36),
        steps: Some(30),
        ..RunOptions::default()
    };
    for entry in registry() {
        let text = run_to_string(entry.name, &opts)
            .expect("registered name")
            .expect("scenario runs");
        assert!(
            text.lines().count() >= 3,
            "{} report too short:\n{text}",
            entry.name
        );
    }
}

#[test]
fn quickstart_scenario_agrees_across_backends() {
    // The cross-engine contract at registry level: the same scenario on
    // both backends reports the same physics to f32 accuracy.
    let mut energies = Vec::new();
    for kind in [EngineKind::Baseline, EngineKind::Wse] {
        let sc = Scenario::slab(Species::Ta, 4, 4, 2)
            .temperature(290.0)
            .seed(2024)
            .engine(kind);
        let mut engine = sc.build_engine().expect("consistent scenario");
        engine.run(20);
        let o = engine.observables();
        energies.push(o.total_energy() / engine.n_atoms() as f64);
    }
    let rel = (energies[0] - energies[1]).abs() / energies[0].abs();
    assert!(rel < 1e-3, "per-atom energies diverge: {energies:?}");
}
