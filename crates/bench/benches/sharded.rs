//! Sharded-engine stepping: the in-process wall-clock cost of the
//! ghost-region decomposition at exchange period 1 (refresh every step,
//! the unamortized baseline) vs 4 (the amortized Table VI k-column).
//!
//! The halo is provisioned per-step-sync (a fixed `2·cutoff + skin`,
//! independent of k), so amortization saves the period's membership
//! recomputes, reshards, and engine rebuilds without buying any extra
//! redundant force work: k4 must meet or beat k1 in the recorded
//! `elements_per_sec` (owned atoms · steps/sec), and `check-bench`
//! holds both entries to absolute floors. On real multi-node hardware
//! the saved exchanges are additionally saved latency — the regime the
//! perf-model reconciliation projects.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use md_core::materials::Species;
use wafer_md::md::engine::Engine;
use wafer_md::scenario::{EngineKind, GhostPeriod, Scenario};

fn bench_sharded_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_step");
    group.sample_size(10);
    let sc = Scenario::slab(Species::Ta, 24, 8, 2)
        .temperature(290.0)
        .seed(42)
        .engine(EngineKind::Baseline)
        .shards(2);
    for period in [1usize, 4] {
        let mut engine = sc
            .ghost_period(GhostPeriod::Every(period))
            .build_sharded()
            .expect("slab workload shards");
        group.throughput(Throughput::Elements(engine.n_atoms() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{period}")),
            &(),
            |b, _| {
                b.iter(|| {
                    Engine::step(&mut engine);
                    black_box(engine.ghost_copies())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_step);
criterion_main!(benches);
