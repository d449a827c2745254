//! The two compute workloads: the wafer engine on a Ta slab
//! (`wse-ta`) and the reference engine as two x-slab shards on a Cu
//! slab (`baseline-cu-k2`).

use std::time::Instant;

use wafer_md::baseline::engine::BaselineEngine;
use wafer_md::md::engine::{Engine, HaloEngine, StepSplit};
use wafer_md::md::materials::{Material, Species};
use wafer_md::md::vec3::V3d;
use wafer_md::scenario::{EngineKind, GhostPeriod, Scenario, ScenarioSpec};

use crate::checks::{self, Verdict};
use crate::stats::{median, median_us};
use crate::trace::Spans;
use crate::{cpu_time_s, peak_rss_mb, thread_cpu_s, Args, Outcome, OUT_DIR};

/// Steps per rate sample. `steps_per_s` is the median over chunks of
/// this many consecutive steps: long enough to hold several ghost
/// exchanges, short enough that a run holds dozens, so a burst of load
/// from elsewhere on the machine moves a few chunks and not the median.
/// Loops run whole chunks, and read the total energy (for the drift
/// check) once per chunk, outside the step timings.
const RATE_CHUNK: usize = 40;
/// Largest total-energy excursion from step 1 (eV/atom). A healthy
/// NVE run stays several times below it.
pub const DRIFT_BOUND_EV: f64 = 5e-3;
/// Momentum change relative to Σ m|v|: the wafer engine evaluates each
/// atom's force on its own core in f32, so Newton's third law holds to
/// f32 rounding; the f64 reference engine holds it far tighter.
const MOMENTUM_BOUND_WSE: f64 = 1e-5;
const MOMENTUM_BOUND_BASELINE: f64 = 1e-12;
/// |Σ F| ÷ Σ |F| bound, same reasoning.
const NET_FORCE_BOUND_WSE: f64 = 1e-6;
const NET_FORCE_BOUND_BASELINE: f64 = 1e-14;
/// Step-1 agreement of the f32 wafer engine with the f64 reference:
/// per-atom force deviation relative to the largest force, and
/// potential-energy difference per atom (eV).
const FORCE_AGREEMENT: f64 = 1e-3;
const ENERGY_AGREEMENT_EV: f64 = 1e-5;
/// How far a traced run's per-step time of the layers below may stray
/// from the untraced step time: a factor of 1.5 either way. Healthy runs
/// read 1.03–1.08 on `wse-ta` and 0.77–0.92 on `baseline-cu-k2`, where
/// the shards' phases leave out the merge and the pool's wake-ups.
const COVERAGE_RANGE: (f64, f64) = (1.0 / 1.5, 1.5);

/// The Ta slab: 32 × 32 × 2 bcc cells = 4,096 atoms, 290 K.
fn wse_ta_scenario(seed: u64) -> Scenario {
    Scenario::slab(Species::Ta, 32, 32, 2)
        .temperature(290.0)
        .seed(seed)
        .engine(EngineKind::Wse)
}

/// The Cu slab: 22 × 22 × 2 fcc cells = 3,872 atoms, 300 K, two shards
/// with the drift-limited ghost period.
fn cu_k2_scenario(seed: u64) -> Scenario {
    Scenario::slab(Species::Cu, 22, 22, 2)
        .temperature(300.0)
        .seed(seed)
        .engine(EngineKind::Baseline)
        .shards(2)
        .ghost_period(GhostPeriod::Auto)
}

/// The workload's input as the program receives it: the scenario's
/// JSON spec, parsed back.
fn parse_spec(sc: &Scenario) -> Scenario {
    let json = sc.to_spec().to_json();
    Scenario::from_spec(ScenarioSpec::from_json(&json).expect("canonical spec parses"))
}

/// The CPU clocks of this process's threads: the harness's own thread,
/// which opens every pool region and runs chunks of it, and the pool's
/// workers.
struct ThreadClocks {
    tids: Vec<i32>,
}

impl ThreadClocks {
    /// The threads alive now (the pool starts its workers on first use,
    /// so make this after a step has run).
    fn now() -> Self {
        let tids = std::fs::read_dir("/proc/self/task")
            .map(|dir| {
                dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        Self { tids }
    }

    fn read(&self) -> Vec<Option<f64>> {
        self.tids.iter().map(|&tid| thread_cpu_s(tid)).collect()
    }

    /// Run `f` and time it on the critical path: the largest CPU time
    /// any one thread spent in it (ms). That is the call's wall time
    /// less the time the hypervisor took the CPU away and the time the
    /// busiest thread sat waiting; a pool that has stopped running in
    /// parallel leaves all the work on one thread and reads slower.
    /// Time taken by the hypervisor still shows in part, because the
    /// pool hands the chunks of a thread that is not running to one that
    /// is. The wall clock stands in if no thread's clock can be read.
    fn time<R>(&self, f: impl FnOnce() -> R) -> (R, f64) {
        let (wall, before) = (Instant::now(), self.read());
        let r = f();
        let busiest = self
            .read()
            .iter()
            .zip(&before)
            .filter_map(|(b, a)| Some(b.as_ref()? - a.as_ref()?))
            .reduce(f64::max);
        let s = busiest.unwrap_or_else(|| wall.elapsed().as_secs_f64());
        (r, s * 1e3)
    }
}

/// What a timed stepping loop measured.
#[derive(Default)]
struct Timed {
    /// Critical-path time of each step (ms), see [`ThreadClocks::time`].
    step_ms: Vec<f64>,
    /// Wall time of each step (ms).
    wall_ms: Vec<f64>,
    /// Total energy after each chunk (eV).
    energies: Vec<f64>,
}

/// Median over `RATE_CHUNK`-step chunks of the chunk's step rate.
fn chunk_rate(step_ms: &[f64]) -> f64 {
    let rates: Vec<f64> = step_ms
        .chunks(RATE_CHUNK)
        .map(|c| c.len() as f64 * 1e3 / c.iter().sum::<f64>())
        .collect();
    median(&rates)
}

impl Timed {
    fn steps(&self) -> u64 {
        self.step_ms.len() as u64
    }

    fn steps_per_s(&self) -> f64 {
        chunk_rate(&self.step_ms)
    }

    /// The wall-clock view of an untraced loop, and the traced loop's
    /// cost against it.
    fn report_wall(&self, traced: &Timed, out: &mut Outcome) {
        out.set("wall.steps_per_s", chunk_rate(&self.wall_ms));
        out.set(
            "trace.overhead",
            self.steps_per_s() / traced.steps_per_s() - 1.0,
        );
    }

    fn extend(&mut self, other: Timed) {
        self.step_ms.extend(other.step_ms);
        self.wall_ms.extend(other.wall_ms);
        self.energies.extend(other.energies);
    }
}

/// Step `engine` with `step` until `seconds` have passed (whole chunks,
/// at least one), timing each step on the critical path and the wall
/// clock.
fn run_timed<E: Engine + ?Sized>(
    engine: &mut E,
    seconds: f64,
    mut step: impl FnMut(&mut E),
) -> Timed {
    let mut timed = Timed::default();
    let start = Instant::now();
    while timed.step_ms.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let clocks = ThreadClocks::now();
        for _ in 0..RATE_CHUNK {
            let t = Instant::now();
            let ((), ms) = clocks.time(|| step(engine));
            timed.step_ms.push(ms);
            timed.wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        timed.energies.push(engine.total_energy());
    }
    timed
}

/// Critical-path times (ms) of the two halves of traced steps.
#[derive(Default)]
struct Halves {
    forces: Vec<f64>,
    advance: Vec<f64>,
}

/// One step of a halo engine through its two public halves, in the
/// engine's own order, with a span around each half; each half's
/// critical-path time goes to `halves`.
fn traced_step<E: HaloEngine + ?Sized>(
    engine: &mut E,
    spans: &mut Spans,
    halves: &mut Halves,
    forces: &'static str,
    advance: &'static str,
) {
    let clocks = ThreadClocks::now();
    let step = spans.open("step", None);
    let forces_first = engine.step_split() != StepSplit::MoveThenForce;
    for run_forces in [forces_first, !forces_first] {
        if run_forces {
            let ((), ms) =
                clocks.time(|| spans.record(forces, Some(step), || engine.refresh_forces()));
            halves.forces.push(ms);
        } else {
            let ((), ms) =
                clocks.time(|| spans.record(advance, Some(step), || engine.advance_positions()));
            halves.advance.push(ms);
        }
    }
    spans.close(step);
}

/// The end-to-end metrics of a timed loop.
fn report_end_to_end(out: &mut Outcome, timed: &Timed, setup_s: f64) {
    out.set("steps_per_s", timed.steps_per_s());
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", peak_rss_mb(std::process::id()));
    out.set("latency_p50_ms", median(&timed.step_ms));
}

/// Record how much of the untraced step time the traced spans account
/// for, and check it lies within `COVERAGE_RANGE`.
fn check_coverage(out: &mut Outcome, coverage: f64) {
    out.set("trace.coverage", coverage);
    out.verdict.between(
        "span time / untraced step time",
        coverage,
        COVERAGE_RANGE.0,
        COVERAGE_RANGE.1,
    );
}

/// The state a run's checks start from: step 1.
struct Start {
    energy: f64,
    velocities: Vec<V3d>,
}

impl Start {
    fn of(engine: &dyn Engine) -> Self {
        Self {
            energy: engine.total_energy(),
            velocities: engine.velocities_view().to_vec(),
        }
    }
}

/// Energy drift from step 1, momentum conservation over the run, and
/// the net force at its end. Counts the run's steps as its operations;
/// a step whose energy interval ends non-finite fails.
fn check_conservation(
    out: &mut Outcome,
    start: &Start,
    timed: &Timed,
    engine: &dyn Engine,
    mass: f64,
    bounds: (f64, f64),
) {
    out.attempted += timed.steps();
    out.failed +=
        timed.energies.iter().filter(|e| !e.is_finite()).count() as u64 * RATE_CHUNK as u64;
    let verdict = &mut out.verdict;
    verdict.within(
        "energy drift from step 1 (eV/atom)",
        checks::energy_drift_per_atom(start.energy, &timed.energies, engine.n_atoms()),
        DRIFT_BOUND_EV,
    );
    verdict.within(
        "momentum change / sum m|v|",
        checks::momentum_change(&start.velocities, &engine.velocities_view().to_vec(), mass),
        bounds.0,
    );
    verdict.within(
        "net force / sum |F|",
        checks::net_force_ratio(&engine.forces_view().to_vec()),
        bounds.1,
    );
}

/// `scenario` layer: spec parsing, keying and engine construction.
fn scenario_layer(out: &mut Outcome, sc: &Scenario) {
    let json = sc.to_spec().to_json();
    out.set(
        "scenario.spec_parse_us",
        median_us(200, || {
            std::hint::black_box(ScenarioSpec::from_json(std::hint::black_box(&json)).is_ok());
        }),
    );
    let spec = sc.to_spec();
    out.set(
        "scenario.key_us",
        median_us(200, || {
            std::hint::black_box(std::hint::black_box(&spec).key());
        }),
    );
    let t = Instant::now();
    let engine = sc.build_engine().expect("workload scenario is consistent");
    out.set("scenario.build_ms", t.elapsed().as_secs_f64() * 1e3);
    drop(std::hint::black_box(engine));
}

fn write_spans(spans: &Spans, args: &Args) {
    let path =
        std::path::Path::new(OUT_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = spans.write_jsonl(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

pub fn wse_ta(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let sc = parse_spec(&wse_ta_scenario(args.seed));
    let mut engine = sc.build_wse();
    let setup_s = cpu_time_s(None).unwrap_or(0.0);

    // Observables read zero until the first step has run, so every
    // check starts from step 1.
    engine.step();
    let start = Start::of(&engine);
    let f1 = engine.forces_view().to_vec();
    let pe1 = engine.observables().potential_energy;

    let timed = if !args.trace {
        let timed = run_timed(&mut engine, args.seconds, |e| {
            e.step();
        });
        report_end_to_end(&mut out, &timed, setup_s);
        timed
    } else {
        // Untraced, traced, then traced at width 1: the first two give
        // the tracing overhead, the last two the pool's speedup.
        let (f, a) = ("wse.forces", "wse.advance");
        let (mut spans, mut narrow_spans) = (Spans::new(), Spans::new());
        let (mut halves, mut narrow_halves) = (Halves::default(), Halves::default());
        let mut timed = run_timed(&mut engine, args.seconds * 0.4, |e| {
            e.step();
        });
        let traced = run_timed(&mut engine, args.seconds * 0.4, |e| {
            traced_step(e, &mut spans, &mut halves, f, a)
        });
        let narrow = rayon::with_num_threads(1, || {
            run_timed(&mut engine, args.seconds * 0.2, |e| {
                traced_step(e, &mut narrow_spans, &mut narrow_halves, f, a)
            })
        });
        let (forces, advance) = (median(&halves.forces), median(&halves.advance));
        let obs = engine.observables();
        out.set("wse-md.forces_ms", forces);
        out.set("wse-md.advance_ms", advance);
        out.set("wse-md.candidates_per_atom", obs.mean_candidates);
        out.set(
            "wse-md.pair_acceptance",
            obs.mean_interactions / obs.mean_candidates,
        );
        out.set(
            "wse-md.modeled_cycles_per_step",
            obs.modeled_cycles.unwrap_or(0.0),
        );
        out.set("rayon.wse_speedup", median(&narrow_halves.forces) / forces);
        timed.report_wall(&traced, &mut out);
        check_coverage(&mut out, (forces + advance) * timed.steps_per_s() / 1e3);
        scenario_layer(&mut out, &sc);
        write_spans(&spans, args);
        timed.extend(traced);
        timed.extend(narrow);
        timed
    };

    let mass = Material::new(Species::Ta).mass;
    check_conservation(
        &mut out,
        &start,
        &timed,
        &engine,
        mass,
        (MOMENTUM_BOUND_WSE, NET_FORCE_BOUND_WSE),
    );
    // Step 1 evaluated forces at the initial configuration: the f64
    // reference engine computes the same forces on construction.
    let reference = sc.build_baseline();
    out.verdict.within(
        "step-1 force deviation from reference",
        checks::max_relative_deviation(&f1, &reference.forces_view().to_vec()),
        FORCE_AGREEMENT,
    );
    out.verdict.within(
        "step-1 energy difference (eV/atom)",
        (pe1 - reference.potential_energy).abs() / engine.n_atoms() as f64,
        ENERGY_AGREEMENT_EV,
    );
    out
}

pub fn baseline_cu_k2(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let sc = parse_spec(&cu_k2_scenario(args.seed));
    let mut engine = sc.build_sharded().expect("slab workloads shard");
    let setup_s = cpu_time_s(None).unwrap_or(0.0);

    engine.step();
    let start = Start::of(&engine);
    // The unsharded reference engine replays every step the sharded
    // one takes; the traced run times it as it goes.
    let mut reference = sc.build_baseline();
    reference.step();

    let timed = if !args.trace {
        let timed = run_timed(&mut engine, args.seconds, |e| e.step());
        report_end_to_end(&mut out, &timed, setup_s);
        reference.run(timed.steps() as usize);
        timed
    } else {
        // Sharded: untraced, with the shards' own phase clocks read
        // around it, then with a span around each step.
        let mut spans = Spans::new();
        let phases = engine.shard_phase_nanos();
        let mut timed = run_timed(&mut engine, args.seconds * 0.3, |e| e.step());
        let untraced_steps = timed.steps() as f64;
        let per_shard: Vec<(f64, f64)> = engine
            .shard_phase_nanos()
            .iter()
            .zip(&phases)
            .map(|(b, a)| {
                let ms = |d: u64| d as f64 * 1e-6 / untraced_steps;
                (ms(b.0 - a.0), ms(b.1 - a.1))
            })
            .collect();
        let traced = run_timed(&mut engine, args.seconds * 0.2, |e| {
            spans.record("shard.step", None, || e.step())
        });
        let k = per_shard.len() as f64;
        let integrate = per_shard.iter().map(|p| p.0).sum::<f64>() / k;
        let exchange = per_shard.iter().map(|p| p.1).sum::<f64>() / k;
        let integrate_max = per_shard.iter().map(|p| p.0).fold(0.0, f64::max);
        let critical_path = per_shard.iter().map(|p| p.0 + p.1).fold(0.0, f64::max);
        let sharded_rate = timed.steps_per_s();

        // Unsharded: untraced, traced halves, then traced at width 1.
        let (f, a) = ("baseline.forces", "baseline.advance");
        let mut narrow_spans = Spans::new();
        let (mut halves, mut narrow_halves) = (Halves::default(), Halves::default());
        let mut replay = run_timed(&mut reference, args.seconds * 0.2, |e| e.step());
        let base_rate = replay.steps_per_s();
        replay.extend(run_timed(&mut reference, args.seconds * 0.15, |e| {
            traced_step(e, &mut spans, &mut halves, f, a)
        }));
        replay.extend(rayon::with_num_threads(1, || {
            run_timed(&mut reference, args.seconds * 0.15, |e| {
                traced_step(e, &mut narrow_spans, &mut narrow_halves, f, a)
            })
        }));
        let forces = median(&halves.forces);
        let obs = reference.observables();
        out.set("md-baseline.forces_ms", forces);
        out.set("md-baseline.advance_ms", median(&halves.advance));
        out.set("md-baseline.steps_per_s", base_rate);
        out.set("md-core.candidates_per_atom", obs.mean_candidates);
        out.set(
            "md-core.pair_acceptance",
            obs.mean_interactions / obs.mean_candidates,
        );
        out.set(
            "rayon.baseline_speedup",
            median(&narrow_halves.forces) / forces,
        );
        out.set("shard.integrate_ms", integrate);
        out.set("shard.exchange_ms", exchange);
        out.set("shard.imbalance", integrate_max / integrate);
        out.set("shard.overhead", base_rate / sharded_rate);
        timed.report_wall(&traced, &mut out);
        // The shards' phase clocks are wall clocks, so they are held
        // against the wall time of the same steps: the critical path
        // leaves out what the hypervisor and other tenants take, which
        // the phase clocks count.
        let wall_step_ms = timed.wall_ms.iter().sum::<f64>() / untraced_steps;
        check_coverage(&mut out, critical_path / wall_step_ms);
        scenario_layer(&mut out, &sc);
        write_spans(&spans, args);
        timed.extend(traced);
        // Bring whichever engine is behind to the other's step; the
        // drift check covers the reference's energies too.
        let (ran, replayed) = (timed.steps(), replay.steps());
        if replayed < ran {
            reference.run((ran - replayed) as usize);
        } else {
            engine.run((replayed - ran) as usize);
        }
        timed.energies.extend(replay.energies);
        out.set("shard.exchanges", engine.exchanges() as f64);
        out.set("shard.steps_per_exchange", engine.measured_amortization());
        out.set("shard.ghost_copies", engine.ghost_copies() as f64);
        timed
    };

    let mass = Material::new(Species::Cu).mass;
    check_conservation(
        &mut out,
        &start,
        &timed,
        &engine,
        mass,
        (MOMENTUM_BOUND_BASELINE, NET_FORCE_BOUND_BASELINE),
    );
    check_replay(&mut out.verdict, &engine, &reference);
    out
}

/// The sharded run must be bit-identical to the unsharded reference
/// engine after the same number of steps.
fn check_replay(verdict: &mut Verdict, sharded: &dyn Engine, reference: &BaselineEngine) {
    let steps = (sharded.run_counters().steps, reference.step_count);
    verdict.check(steps.0 == steps.1, || {
        format!(
            "sharded engine at step {} but reference at step {}",
            steps.0, steps.1
        )
    });
    let pos = checks::first_bit_difference(
        &sharded.positions_view().to_vec(),
        &reference.positions_view().to_vec(),
    );
    verdict.check(pos.is_none(), || {
        format!("sharded position of atom {pos:?} differs from the unsharded run")
    });
    let vel = checks::first_bit_difference(
        &sharded.velocities_view().to_vec(),
        &reference.velocities_view().to_vec(),
    );
    verdict.check(vel.is_none(), || {
        format!("sharded velocity of atom {vel:?} differs from the unsharded run")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_outside_its_range_fails_the_run() {
        for (coverage, ok) in [
            (1.0, true),
            (0.8, true),
            (0.1, false),
            (0.6, false),
            (1.6, false),
            (f64::NAN, false),
        ] {
            let mut out = Outcome::default();
            check_coverage(&mut out, coverage);
            assert_eq!(out.verdict.passed(), ok, "coverage {coverage}");
        }
    }
}
