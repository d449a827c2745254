//! Admission and execution: the one scheduler behind both the HTTP
//! workers and `--drain`.
//!
//! Each request has one of three outcomes: a disk hit, a coalesce onto
//! the in-flight run for its key, or a new run. A new run belongs to
//! whoever submitted it, who executes it outside the lock and settles
//! it with [`Scheduler::complete`] (or [`Scheduler::abandon`] if the
//! run panicked). In `serve`, that is the worker that admitted the
//! request: it streams its own report while the physics runs, so no
//! queue ever forms. `--drain` admits a whole request file first, so
//! duplicate submissions visibly coalesce into one physics run, then
//! runs the admitted jobs in admission order, consecutive jobs of one
//! execution geometry ([`crate::scenario::ScenarioSpec::batch_class`])
//! sharing one worker-pool pass ([`Scheduler::run_all`]). The order is
//! a pure function of the request file, so drain output and traces stay
//! byte-deterministic at any thread count. The concurrent HTTP workers
//! share one `Mutex<Scheduler>`; the per-job [`JobCell`]s deliver the
//! finished artifacts to coalesced waiters without polling.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use md_core::engine::RunCounters;
use rayon::prelude::*;

use super::cache::{CachedResult, ResultCache};
use super::metrics::{ServeMetrics, TraceEvent};
use super::queue::{Job, ServeStats};
use crate::json::Value;
use crate::scenario::{Engine, Scenario, ScenarioSpec, Workload};
use crate::traj;

/// How a submitted request was disposed, carrying what its caller
/// needs to answer it.
#[derive(Debug)]
pub enum Disposition {
    /// Answered from the on-disk cache: the report bytes, read by the
    /// same cache access that decided the hit.
    CacheHit(String),
    /// A new run, owned by the submitter, who must settle it with
    /// [`Scheduler::complete`] or [`Scheduler::abandon`].
    Run(Job),
    /// A run for the same key is in flight; this request rides along on
    /// its result, delivered through the run's cell.
    Coalesced(Arc<JobCell>),
}

impl Disposition {
    /// The stable one-word label drain output prints per request.
    pub fn label(&self) -> &'static str {
        match self {
            Self::CacheHit(_) => "hit",
            Self::Run(_) => "run",
            Self::Coalesced(_) => "coalesced",
        }
    }
}

/// Everything one executed run produces.
#[derive(Clone, Debug)]
pub struct RunArtifacts {
    /// The deterministic run report (`report.txt`). Contains only
    /// physics and the modeled rate — never execution geometry — so
    /// specs differing only in shards, ghost period, or threads produce
    /// byte-identical reports.
    pub report: String,
    /// The counters document (`counters.json`): atom count, executed
    /// steps, exchange schedule, modeled rate, requested threads.
    pub counters: String,
    /// The XYZ trajectory, when the spec asked for one.
    pub trajectory: Option<String>,
    /// Atoms simulated.
    pub atoms: u64,
    /// The engine's whole-run counters.
    pub run_counters: RunCounters,
    /// Engine wall time of the run, nanoseconds. **Wall clock, not
    /// physics**: observability only, never rendered into any of the
    /// deterministic artifacts above.
    pub engine_nanos: u64,
    /// Per-shard `(integrate, exchange)` wall-clock nanoseconds when
    /// the run was sharded ([`md_core::engine::Engine::shard_phase_nanos`]).
    /// Same rule: observability only.
    pub shard_nanos: Option<Vec<(u64, u64)>>,
}

/// The completion cell of one admitted job: coalesced waiters
/// park here until the runner fills it. One cell per unique in-flight
/// key; the scheduler hands out clones of the `Arc` under its lock, so
/// a waiter can block on the cell without holding the scheduler. The
/// slot's outer `Option` is "settled yet?", the inner one is "did the
/// run produce artifacts?" — `Some(None)` means the job was abandoned
/// (its runner panicked) and waiters should report a failure instead of
/// blocking forever.
#[derive(Debug, Default)]
pub struct JobCell {
    slot: Mutex<Option<Option<Arc<RunArtifacts>>>>,
    ready: Condvar,
}

impl JobCell {
    fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Settle the cell — `Some` with the finished artifacts, `None` for
    /// an abandoned job — and wake every waiter.
    pub fn fill(&self, artifacts: Option<Arc<RunArtifacts>>) {
        let mut slot = self.slot.lock().expect("job cell lock");
        *slot = Some(artifacts);
        self.ready.notify_all();
    }

    /// Block until the cell settles. `None` means the job was abandoned
    /// without a result.
    pub fn wait(&self) -> Option<Arc<RunArtifacts>> {
        let mut slot = self.slot.lock().expect("job cell lock");
        loop {
            if let Some(settled) = slot.as_ref() {
                return settled.clone();
            }
            slot = self.ready.wait(slot).expect("job cell wait");
        }
    }
}

fn workload_kind(w: Workload) -> &'static str {
    match w {
        Workload::Slab { .. } => "slab",
        Workload::GrainBoundary { .. } => "grain-boundary",
        Workload::ControlledGrid { .. } => "controlled-grid",
    }
}

/// Execute one spec through the [`Scenario`] facade and render its
/// artifacts.
///
/// The spec's `threads` field (when nonzero) overrides the worker-pool
/// width of the parallel regions opened by the run's own thread, for
/// exactly this run (restored afterwards, also if the run panics);
/// concurrent runs on other threads keep their own widths. A run in a
/// multi-job `--drain` batch executes inside one of the pass's chunks,
/// where parallel regions run inline. Either way this is
/// execution geometry only; the physics and therefore the report bytes
/// are identical at any value. The thermostat (if any) is applied on a
/// fixed 10-step cadence aligned with the trajectory frame schedule, so
/// the flow of physics is a function of the spec alone.
pub fn run_spec(spec: &ScenarioSpec) -> RunArtifacts {
    run_spec_streaming(spec, &mut |_| {})
}

/// [`run_spec`], reporting progress: `progress` receives each fragment
/// of the report as soon as it is final — the header immediately, the
/// step-1 observables after the first step, the closing lines when the
/// run completes. The concatenation of the fragments is byte-identical
/// to [`RunArtifacts::report`]; the HTTP layer streams them to a
/// cache-miss client as chunked transfer encoding while the physics is
/// still running.
pub fn run_spec_streaming(spec: &ScenarioSpec, progress: &mut dyn FnMut(&str)) -> RunArtifacts {
    if spec.threads > 0 {
        rayon::with_num_threads(spec.threads, || execute(spec, progress))
    } else {
        execute(spec, progress)
    }
}

fn execute(spec: &ScenarioSpec, progress: &mut dyn FnMut(&str)) -> RunArtifacts {
    let started = Instant::now();
    let sc = Scenario::from_spec(*spec);
    let steps = sc.steps.max(1);
    let mut engine = sc
        .build_engine()
        .expect("specs are validated before they are admitted");
    let atoms = engine.n_atoms();
    let symbol = sc.species.symbol();
    let mut xyz: Option<Vec<u8>> = sc.xyz.then(Vec::new);
    let frame = |step: usize, engine: &dyn Engine, xyz: &mut Option<Vec<u8>>| {
        if let Some(buf) = xyz.as_mut() {
            traj::write_xyz_frame(
                buf,
                symbol,
                "serve",
                step,
                &engine.positions_view().to_vec(),
            )
            .expect("write to Vec<u8> cannot fail");
        }
    };

    let mut report = String::new();
    // Bytes of `report` already handed to `progress`.
    let mut flushed = 0usize;
    let mut flush = |report: &String, flushed: &mut usize| {
        progress(&report[*flushed..]);
        *flushed = report.len();
    };
    writeln!(
        report,
        "== wafer-md serve: {} {}, {} atoms, engine {} ==",
        sc.species.name(),
        workload_kind(sc.workload),
        atoms,
        engine.backend()
    )
    .expect("write to String cannot fail");
    flush(&report, &mut flushed);

    frame(0, engine.as_ref(), &mut xyz);
    sc.advance(engine.as_mut(), 1);
    let first = engine.observables();
    let e0 = first.total_energy();
    writeln!(
        report,
        "step 1: U = {:.3} eV, T = {:.0} K",
        first.potential_energy, first.temperature
    )
    .expect("write to String cannot fail");
    flush(&report, &mut flushed);

    // Advance to each multiple of 10 (the frame cadence), then the
    // final step. The chunking is fixed by the spec's step budget
    // alone, so thermostatted runs evolve identically whether or not a
    // trajectory is recorded.
    let mut done = 1;
    while done < steps {
        let chunk = (10 - done % 10).min(steps - done);
        sc.advance(engine.as_mut(), chunk);
        done += chunk;
        if done % 10 == 0 || done == steps {
            frame(done, engine.as_ref(), &mut xyz);
        }
    }
    if steps == 1 {
        frame(1, engine.as_ref(), &mut xyz);
    }

    let o = engine.observables();
    writeln!(
        report,
        "after {} steps: U = {:.3} eV, T = {:.0} K, drift {:.2e} eV/atom",
        steps,
        o.potential_energy,
        o.temperature,
        (o.total_energy() - e0).abs() / atoms as f64
    )
    .expect("write to String cannot fail");
    if let Some(rate) = o.modeled_rate {
        writeln!(report, "modeled rate: {rate:.0} timesteps/s")
            .expect("write to String cannot fail");
    }
    flush(&report, &mut flushed);
    let run_counters = engine.run_counters();
    let counters = Value::Obj(vec![
        ("atoms".into(), Value::Uint(atoms as u64)),
        (
            "atoms_steps".into(),
            Value::Uint(atoms as u64 * run_counters.steps),
        ),
        (
            "early_exchanges".into(),
            Value::Uint(run_counters.early_exchanges),
        ),
        ("exchanges".into(), Value::Uint(run_counters.exchanges)),
        (
            "modeled_rate".into(),
            o.modeled_rate.map_or(Value::Null, Value::Num),
        ),
        ("steps".into(), Value::Uint(run_counters.steps)),
        ("threads_requested".into(), Value::Uint(spec.threads as u64)),
    ])
    .render();

    RunArtifacts {
        report,
        counters,
        trajectory: xyz.map(|buf| String::from_utf8(buf).expect("XYZ output is UTF-8")),
        atoms: atoms as u64,
        run_counters,
        engine_nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        shard_nanos: engine.shard_phase_nanos(),
    }
}

/// Run a batch in one worker-pool pass, without progress reporting.
/// The returned artifacts are index-aligned with `batch`. Every run is
/// bit-deterministic in isolation, so neither the pool's chunk
/// assignment nor the pass width can influence a single byte of any
/// result. A batch of one runs on the calling thread, keeping the
/// pool's full width for its own parallel regions.
fn run_batch(batch: &[Job]) -> Vec<RunArtifacts> {
    if let [job] = batch {
        return vec![run_spec(&job.spec)];
    }
    (0..batch.len())
        .into_par_iter()
        .map(|i| run_spec(&batch[i].spec))
        .collect()
}

/// The scheduler: one cache, one set of counters, and the completion
/// cells of every admitted run not yet settled. Concurrent servers
/// share it behind a `Mutex`; all methods are cheap except the runs,
/// which callers perform *outside* the lock between
/// [`Scheduler::submit`] and [`Scheduler::complete`].
#[derive(Debug)]
pub struct Scheduler {
    cache: ResultCache,
    /// One cell per admitted run not yet settled, by key.
    cells: HashMap<String, Arc<JobCell>>,
    stats: ServeStats,
    /// Shared observability state: histograms, trace, shard timings.
    metrics: Arc<ServeMetrics>,
}

impl Scheduler {
    /// A scheduler over an opened cache, with no runs in flight and
    /// fresh (trace-less) metrics.
    pub fn new(cache: ResultCache) -> Self {
        Self::with_metrics(cache, Arc::new(ServeMetrics::new(0)))
    }

    /// A scheduler sharing an externally created metrics aggregate
    /// (the HTTP layer also records into it from outside the lock).
    pub fn with_metrics(cache: ResultCache, metrics: Arc<ServeMetrics>) -> Self {
        Self {
            cache,
            cells: HashMap::new(),
            stats: ServeStats::default(),
            metrics,
        }
    }

    /// Admit one spec. Returns its cache key and how the request was
    /// disposed: a hit carries its report, a coalesced request the cell
    /// of the in-flight run it rides on, and a new run the [`Job`] the
    /// caller must execute and settle. Emits exactly one
    /// admission-outcome trace event (`hit`, `coalesced`, or
    /// `admitted`) per call.
    pub fn submit(&mut self, spec: ScenarioSpec) -> (String, Disposition) {
        self.stats.requests += 1;
        let key = spec.key();
        if let Some(report) = self.cache.report(&key) {
            self.stats.cache_hits += 1;
            self.metrics.trace(TraceEvent::new("hit").key(&key));
            return (key, Disposition::CacheHit(report));
        }
        if let Some(cell) = self.cells.get(&key) {
            self.stats.coalesced += 1;
            self.metrics.trace(TraceEvent::new("coalesced").key(&key));
            return (key, Disposition::Coalesced(Arc::clone(cell)));
        }
        self.cells.insert(key.clone(), JobCell::new());
        self.metrics.trace(TraceEvent::new("admitted").key(&key));
        let job = Job {
            key: key.clone(),
            spec,
            admitted: Instant::now(),
        };
        (key, Disposition::Run(job))
    }

    /// Start one worker-pool pass over admitted jobs: count the batch
    /// and, per job, record its queue wait and trace `batched`.
    pub(crate) fn start_batch(&mut self, batch: &[Job]) {
        self.stats.batches += 1;
        for job in batch {
            let wait = job.admitted.elapsed();
            self.metrics.queue_wait.record_duration(wait);
            self.metrics.trace(
                TraceEvent::new("batched")
                    .key(&job.key)
                    .with("batch", batch.len() as u64)
                    .with(
                        "wait_us",
                        u64::try_from(wait.as_micros()).unwrap_or(u64::MAX),
                    ),
            );
        }
    }

    /// Land one admitted job's artifacts: insert into the cache, fold
    /// the run into the counters, and fill the job's cell so every
    /// waiter wakes with the finished artifacts.
    pub fn complete(
        &mut self,
        job: &Job,
        artifacts: RunArtifacts,
    ) -> io::Result<Arc<RunArtifacts>> {
        let spec_json = job.spec.to_json();
        let mut files = vec![
            ("spec.json", spec_json.as_str()),
            ("report.txt", artifacts.report.as_str()),
            ("counters.json", artifacts.counters.as_str()),
        ];
        if let Some(t) = artifacts.trajectory.as_deref() {
            files.push(("trajectory.xyz", t));
        }
        // Even if the insert fails (e.g. disk full), the run *happened*:
        // fold it into the counters and settle the cell first, so no
        // waiter is ever stranded on an I/O error.
        let inserted = self.cache.insert(&job.key, &files);
        self.stats.runs += 1;
        self.stats.atoms_steps += artifacts.atoms * artifacts.run_counters.steps;
        self.stats.exchanges += artifacts.run_counters.exchanges;
        self.stats.early_exchanges += artifacts.run_counters.early_exchanges;
        self.metrics
            .engine_run
            .record(artifacts.engine_nanos / 1_000);
        if let Some(phases) = &artifacts.shard_nanos {
            self.metrics.record_shard_phases(phases);
        }
        self.metrics.trace(
            TraceEvent::new("run")
                .key(&job.key)
                .with("engine_us", artifacts.engine_nanos / 1_000),
        );
        for evicted in self.cache.take_evicted() {
            self.metrics.trace(TraceEvent::new("evicted").key(&evicted));
        }
        let artifacts = Arc::new(artifacts);
        if let Some(cell) = self.cells.remove(&job.key) {
            cell.fill(Some(Arc::clone(&artifacts)));
        }
        inserted.map(|()| artifacts)
    }

    /// Abandon an admitted job whose run did not produce artifacts (its
    /// runner panicked): remove the cell and settle it empty, so every
    /// waiter wakes with a failure instead of blocking forever. The key
    /// becomes submittable again.
    pub fn abandon(&mut self, key: &str) {
        if let Some(cell) = self.cells.remove(key) {
            cell.fill(None);
        }
    }

    /// Run admitted jobs to completion in admission order, consecutive
    /// jobs of one execution geometry
    /// ([`crate::scenario::ScenarioSpec::batch_class`]) sharing one
    /// worker-pool pass; every job's artifacts land in the cache
    /// atomically. Returns the number of physics runs executed.
    pub fn run_all(&mut self, jobs: &[Job]) -> io::Result<usize> {
        for batch in jobs.chunk_by(|a, b| a.spec.batch_class() == b.spec.batch_class()) {
            self.start_batch(batch);
            let pass = Instant::now();
            let artifacts = run_batch(batch);
            self.metrics.batch_pass.record_duration(pass.elapsed());
            self.metrics.batch_occupancy.record(batch.len() as u64);
            for (job, a) in batch.iter().zip(artifacts) {
                self.complete(job, a)?;
            }
        }
        Ok(jobs.len())
    }

    /// Read a key's cached result (report + counters). Counts as an
    /// access for cache eviction.
    pub fn result(&mut self, key: &str) -> Option<CachedResult> {
        self.cache.lookup(key)
    }

    /// Read only a key's cached `report.txt` — the bytes a served
    /// request answers with. Counts as an access for cache eviction.
    pub fn report(&mut self, key: &str) -> Option<String> {
        self.cache.report(key)
    }

    /// Open a key's cached trajectory for streaming, with its length.
    pub fn open_trajectory(&mut self, key: &str) -> Option<(fs::File, u64)> {
        self.cache.open_artifact(key, "trajectory.xyz")
    }

    /// The counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The `GET /stats` document: the [`ServeStats`] counters merged
    /// with the observability fields (latency/batch histograms,
    /// per-acceptor counters, shard timings, trace counters), keys in
    /// one fixed alphabetical order.
    pub fn stats_json(&self) -> String {
        self.metrics
            .stats_json(&self.stats, self.pending(), self.cache.usage())
    }

    /// The `GET /stats/prom` document: Prometheus text exposition over
    /// the same counters and histograms.
    pub fn prometheus_text(&self) -> String {
        self.metrics
            .prometheus(&self.stats, self.pending(), self.cache.usage())
    }

    /// The admitted runs not yet settled: running, or in `--drain`
    /// waiting for their batch.
    pub fn pending(&self) -> usize {
        self.cells.len()
    }

    /// Persist the cache's recency order if read hits have reordered
    /// it since the last index write — the clean-shutdown half of the
    /// deferred-persistence contract (see [`ResultCache::flush`]).
    pub fn flush_cache(&mut self) -> io::Result<()> {
        self.cache.flush()
    }
}

/// `wafer-md serve --drain FILE`: admit every request in `requests`
/// (one spec JSON per line; blank lines and `#` comments skipped), run
/// the admitted jobs, and write the deterministic drain report to
/// `out` — one `<key> <hit|run|coalesced>` line per request in file
/// order, then the [`ServeStats::summary_line`]. The caller supplies
/// the opened (and possibly budget-bounded) cache; because the
/// eviction order is a pure function of the access sequence and is
/// persisted in the cache's index file, a re-drain over a warm cache
/// replays identically. CI byte-diffs this output (and the cached
/// artifacts it leaves behind) against committed goldens at multiple
/// thread counts.
pub fn drain_file(cache: ResultCache, requests: &Path, out: &mut dyn Write) -> io::Result<()> {
    drain_file_with(cache, requests, out, Arc::new(ServeMetrics::new(0)))
}

/// [`drain_file`] recording into an externally created metrics
/// aggregate — the CLI passes one carrying the `--trace` writer, and
/// prints its [`ServeMetrics::drain_summary`] to stderr afterwards.
/// The report written to `out` is byte-identical with or without
/// metrics attached: every timing measurement stays on the
/// observability side of the wall-clock/determinism split.
pub fn drain_file_with(
    cache: ResultCache,
    requests: &Path,
    out: &mut dyn Write,
    metrics: Arc<ServeMetrics>,
) -> io::Result<()> {
    let text = fs::read_to_string(requests)?;
    let mut scheduler = Scheduler::with_metrics(cache, metrics);
    let mut admitted = Vec::new();
    let mut jobs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let spec = ScenarioSpec::from_json(line).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {}: {e}", i + 1))
        })?;
        let (key, disposition) = scheduler.submit(spec);
        admitted.push((key, disposition.label()));
        if let Disposition::Run(job) = disposition {
            jobs.push(job);
        }
    }
    scheduler.run_all(&jobs)?;
    // Drain end is a clean shutdown: persist any recency reordering
    // from warm-cache hits so a re-drain replays the same order.
    scheduler.flush_cache()?;
    for (key, label) in &admitted {
        writeln!(out, "{key} {label}")?;
    }
    writeln!(out, "{}", scheduler.stats().summary_line())
}
