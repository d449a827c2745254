//! Whole-timestep benchmarks: the wafer engine's five-phase step for
//! each benchmark material (the quantity behind every rate in Table I
//! and Figs. 7/8) and the LAMMPS-style baseline step it is validated
//! against.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use md_core::materials::{Material, Species};
use md_core::system::System;
use wafer_md::scenario::Scenario;

fn bench_wse_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("wse_step_per_material");
    group.sample_size(20);
    for sp in [Species::Ta, Species::W, Species::Cu] {
        let mut sim = Scenario::slab(sp, 16, 16, 2)
            .temperature(290.0)
            .seed(4)
            .build_wse();
        // One iteration = one timestep over n atoms, so the recorded
        // throughput is host atoms·steps/sec.
        group.throughput(Throughput::Elements(sim.n_atoms() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(sp.symbol()), &(), |b, _| {
            b.iter(|| black_box(sim.step()))
        });
    }
    group.finish();
}

fn bench_wse_step_scaling(c: &mut Criterion) {
    // Host cost per step vs atom count — the simulator's own weak-scaling
    // profile (one atom per core throughout).
    let mut group = c.benchmark_group("wse_step_vs_atoms");
    group.sample_size(10);
    for nx in [8usize, 16, 32] {
        let mut sim = Scenario::slab(Species::Ta, nx, nx, 2)
            .temperature(290.0)
            .seed(4)
            .build_wse();
        let atoms = sim.n_atoms();
        group.throughput(Throughput::Elements(atoms as u64));
        group.bench_with_input(BenchmarkId::from_parameter(atoms), &(), |b, _| {
            b.iter(|| black_box(sim.step()))
        });
    }
    group.finish();
}

fn bench_baseline_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline_step");
    group.sample_size(20);
    for sp in [Species::Ta, Species::Cu] {
        let material = Material::new(sp);
        let spec = md_core::lattice::SlabSpec {
            crystal: material.crystal,
            lattice_a: material.lattice_a,
            nx: 16,
            ny: 16,
            nz: 2,
        };
        let system = System::from_slab(sp, spec);
        group.throughput(Throughput::Elements(system.len() as u64));
        let mut engine = md_baseline::equilibrated_engine(system, 290.0, 2e-3, 5, 4);
        group.bench_with_input(BenchmarkId::from_parameter(sp.symbol()), &(), |b, _| {
            b.iter(|| {
                engine.step();
                black_box(engine.potential_energy)
            })
        });
    }
    group.finish();
}

fn bench_swap_round(c: &mut Criterion) {
    let mut sim = Scenario::slab(Species::W, 12, 12, 2)
        .temperature(900.0)
        .seed(4)
        .spare(0.1)
        .build_wse();
    sim.run(10);
    let atoms = sim.n_atoms() as u64;
    let mut group = c.benchmark_group("swap");
    group.throughput(Throughput::Elements(atoms));
    group.bench_function("swap_round_576_atoms", |b| {
        b.iter(|| {
            sim.step();
            black_box(wse_md::swap_round(&mut sim))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_wse_step,
    bench_wse_step_scaling,
    bench_baseline_step,
    bench_swap_round
);
criterion_main!(benches);
