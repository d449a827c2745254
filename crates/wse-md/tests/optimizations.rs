//! Tests of the realized Sec. VI-A optimizations: force symmetry via
//! neighborhood reduction, and neighbor-list reuse. Both must preserve
//! the physics exactly (up to f32 summation order) while reducing the
//! charged cycle cost the way Table V projects.

use md_core::lattice::SlabSpec;
use md_core::materials::{Material, Species};
use md_core::thermostat;
use md_core::vec3::V3d;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wse_md::{WseMdConfig, WseMdSim};

fn build(
    species: Species,
    nx: usize,
    symmetric: bool,
    reuse: usize,
    skin: f64,
    seed: u64,
) -> WseMdSim {
    let m = Material::new(species);
    let spec = SlabSpec {
        crystal: m.crystal,
        lattice_a: m.lattice_a,
        nx,
        ny: nx,
        nz: 2,
    };
    let positions = spec.generate();
    let mut rng = StdRng::seed_from_u64(seed);
    let velocities = thermostat::maxwell_boltzmann(&mut rng, positions.len(), m.mass, 290.0);
    let mut config = WseMdConfig::open_for(positions.len(), 0.05, 2e-3);
    config.symmetric_forces = symmetric;
    config.neighbor_reuse_interval = reuse;
    config.neighbor_skin = skin;
    WseMdSim::new(species, &positions, &velocities, config)
}

#[test]
fn symmetric_forces_match_full_computation() {
    let mut full = build(Species::Ta, 5, false, 1, 0.0, 7);
    let mut sym = build(Species::Ta, 5, true, 1, 0.0, 7);
    full.step();
    sym.step();
    let ff = full.forces_by_atom();
    let fs = sym.forces_by_atom();
    for (i, (a, b)) in ff.iter().zip(&fs).enumerate() {
        let err = (*a - *b).norm() / (1.0 + a.norm());
        assert!(err < 1e-5, "atom {i}: {a:?} vs {b:?}");
    }
    // Energies identical (same density pass).
    assert!((full.last_stats.potential_energy - sym.last_stats.potential_energy).abs() < 1e-6);
}

#[test]
fn symmetric_trajectories_track_full_trajectories() {
    let mut full = build(Species::Cu, 4, false, 1, 0.0, 3);
    let mut sym = build(Species::Cu, 4, true, 1, 0.0, 3);
    for _ in 0..50 {
        full.step();
        sym.step();
    }
    let pf = full.positions_by_atom();
    let ps = sym.positions_by_atom();
    let mut dev = 0.0f64;
    for (a, b) in pf.iter().zip(&ps) {
        dev = dev.max((*a - *b).norm());
    }
    assert!(dev < 1e-3, "trajectories diverged by {dev} Å");
}

#[test]
fn symmetric_forces_halve_the_interaction_charge() {
    // Table V "Symmetry" row: interaction cost 92 → 46 ns. On identical
    // workloads, the charged cycles must reflect exactly that.
    let mut full = build(Species::W, 4, false, 1, 0.0, 11);
    let mut sym = build(Species::W, 4, true, 1, 0.0, 11);
    let sf = full.step();
    let ss = sym.step();
    assert!(ss.cycles < sf.cycles);
    let model = wse_fabric::cost::CostModel::paper_baseline();
    let expected_saving_ns = 0.5 * model.interaction_ns * sf.mean_interactions;
    let actual_saving_ns = (sf.cycles - ss.cycles) / wse_fabric::cost::WSE2_CLOCK_GHZ;
    assert!(
        (actual_saving_ns - expected_saving_ns).abs() < 1.0,
        "saved {actual_saving_ns} ns vs expected {expected_saving_ns}"
    );
}

#[test]
fn neighbor_reuse_preserves_physics_with_adequate_skin() {
    let mut every = build(Species::Ta, 5, false, 1, 0.0, 13);
    let mut reused = build(Species::Ta, 5, false, 10, 1.0, 13);
    for _ in 0..60 {
        every.step();
        reused.step();
    }
    let pa = every.positions_by_atom();
    let pb = reused.positions_by_atom();
    let mut dev = 0.0f64;
    for (a, b) in pa.iter().zip(&pb) {
        dev = dev.max((*a - *b).norm());
    }
    // At 290 K, drift between rebuilds stays well inside the 1 Å skin,
    // so the interaction sets are identical and trajectories agree to
    // f32 ordering noise.
    assert!(dev < 1e-3, "reuse changed the trajectory by {dev} Å");
}

#[test]
fn neighbor_reuse_cuts_mean_step_cost() {
    let steps = 40;
    let mut every = build(Species::Ta, 5, false, 1, 0.0, 13);
    let mut reused = build(Species::Ta, 5, false, 10, 1.0, 13);
    let c_every = every.run(steps);
    let c_reused = reused.run(steps);
    assert!(
        c_reused < 0.85 * c_every,
        "reuse {c_reused} vs every-step {c_every} cycles"
    );
}

#[test]
fn reuse_steps_conserve_energy() {
    let mut sim = build(Species::Cu, 4, false, 10, 1.2, 21);
    sim.step();
    let e0 = sim.total_energy();
    for _ in 0..200 {
        sim.step();
    }
    let drift = (sim.total_energy() - e0).abs() / sim.n_atoms() as f64;
    assert!(drift < 2e-3, "drift {drift} eV/atom with list reuse");
}

#[test]
fn all_optimizations_stack() {
    // The Table V stack, realized: baseline vs reuse+symmetry on the
    // same workload. Ta spends ~half its time on rejects, so the stack
    // should save a large fraction of the step cost.
    let steps = 40;
    let mut base = build(Species::Ta, 6, false, 1, 0.0, 2);
    let mut opt = build(Species::Ta, 6, true, 10, 1.0, 2);
    let c_base = base.run(steps);
    let c_opt = opt.run(steps);
    let speedup = c_base / c_opt;
    assert!(
        speedup > 1.3,
        "stacked optimizations gave only {speedup:.2}x"
    );
    // Physics still intact.
    let pa = base.positions_by_atom();
    let pb = opt.positions_by_atom();
    let mut dev = 0.0f64;
    for (a, b) in pa.iter().zip(&pb) {
        dev = dev.max((*a - *b).norm());
    }
    assert!(dev < 2e-3, "optimized trajectory deviated {dev} Å");
}

#[test]
fn swaps_invalidate_reused_lists() {
    // After a swap round, retained lists reference moved atoms; the
    // driver must rebuild rather than silently compute garbage. Detect
    // via energy conservation across a swap-heavy hot run.
    let mut sim = build(Species::W, 4, false, 25, 1.5, 5);
    sim.step();
    let e0 = sim.total_energy();
    for k in 0..100 {
        sim.step();
        if k % 7 == 0 {
            wse_md::swap_round(&mut sim);
        }
    }
    let drift = (sim.total_energy() - e0).abs() / sim.n_atoms() as f64;
    assert!(
        drift < 5e-3,
        "energy drift {drift} eV/atom across swaps+reuse"
    );
}

#[test]
fn optimization_fields_set_after_construction_match_the_config() {
    // The three Table V fields are read only when the engine steps, so
    // setting them on a built simulator's `config` (as the ablation
    // binary does) gives the same bits as passing them at construction.
    for (symmetric, reuse, skin) in [(true, 1, 0.0), (false, 10, 1.0), (true, 10, 1.0)] {
        let mut given = build(Species::Ta, 4, symmetric, reuse, skin, 9);
        let mut set = build(Species::Ta, 4, false, 1, 0.0, 9);
        set.config.symmetric_forces = symmetric;
        set.config.neighbor_reuse_interval = reuse;
        set.config.neighbor_skin = skin;
        given.run(25);
        set.run(25);
        let bits = |v: Vec<V3d>| {
            v.iter()
                .map(|p| p.to_array().map(f64::to_bits))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            bits(given.positions_by_atom()),
            bits(set.positions_by_atom())
        );
        assert_eq!(bits(given.forces_by_atom()), bits(set.forces_by_atom()));
        let trace_bits = |t: &[f64]| t.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(trace_bits(&given.cycle_trace), trace_bits(&set.cycle_trace));
    }
}
