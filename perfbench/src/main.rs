//! End-to-end benchmark of wafer-md.
//!
//! ```text
//! perfbench --workload wse-ta|baseline-cu-k2|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for `S` seconds against the public API (and, for
//! `serve-mixed`, the `wafer-md serve` binary built beside this one),
//! checks its outputs, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! computed from spans the harness records around its calls into each
//! layer. See README.md for what each metric means on each workload.

mod checks;
mod client;
mod compute;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::ffi::{c_int, c_long};

use checks::Verdict;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("steps_per_s", "timesteps/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run. A layer the workload does not
/// reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wse-md.forces_ms", "ms"),
    ("wse-md.advance_ms", "ms"),
    ("wse-md.candidates_per_atom", "count"),
    ("wse-md.pair_acceptance", "ratio"),
    ("wse-md.modeled_cycles_per_step", "cycles"),
    ("md-baseline.forces_ms", "ms"),
    ("md-baseline.advance_ms", "ms"),
    ("md-baseline.steps_per_s", "timesteps/s"),
    ("md-core.candidates_per_atom", "count"),
    ("md-core.pair_acceptance", "ratio"),
    ("shard.integrate_ms", "ms"),
    ("shard.exchange_ms", "ms"),
    ("shard.imbalance", "ratio"),
    ("shard.exchanges", "count"),
    ("shard.steps_per_exchange", "count"),
    ("shard.ghost_copies", "count"),
    ("shard.overhead", "ratio"),
    ("rayon.width", "count"),
    ("rayon.wse_speedup", "ratio"),
    ("rayon.baseline_speedup", "ratio"),
    ("scenario.build_ms", "ms"),
    ("scenario.spec_parse_us", "us"),
    ("scenario.key_us", "us"),
    ("serve.http.requests_per_s", "req/s"),
    ("serve.http.hit_first_byte_ms", "ms"),
    ("serve.http.hit_last_byte_ms", "ms"),
    ("serve.http.hit_p90_ms", "ms"),
    ("serve.http.miss_p50_ms", "ms"),
    ("serve.http.burst_p50_ms", "ms"),
    ("serve.http.reused_connections", "count"),
    ("serve.http.pipelined_requests", "count"),
    ("serve.scheduler.service_ms_p50", "ms"),
    ("serve.scheduler.queue_wait_ms_p50", "ms"),
    ("serve.scheduler.engine_run_ms_p50", "ms"),
    ("serve.scheduler.runs", "count"),
    ("serve.scheduler.coalesced", "count"),
    ("serve.scheduler.submit_hit_us", "us"),
    ("serve.queue.batch_occupancy_p50", "count"),
    ("serve.run_spec_ms", "ms"),
    ("serve.cache.lookup_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.bytes", "bytes"),
    ("serve.cache.entries", "count"),
    ("wall.steps_per_s", "timesteps/s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

pub const WORKLOADS: &[&str] = &["wse-ta", "baseline-cu-k2", "serve-mixed"];

/// Where runs leave their scratch files (serve caches, span dumps),
/// relative to the directory the benchmark runs from.
pub const OUT_DIR: &str = ".bench_out";

/// CPU time (s) process `pid` (`None`: this one) has used since it
/// started, over all its threads, or `None` if the clock cannot be read.
///
/// Every `setup_s` uses this clock, not the wall clock: it counts only
/// time the process actually ran, so it does not move when the
/// hypervisor lends this machine's CPUs to other guests.
pub fn cpu_time_s(pid: Option<u32>) -> Option<f64> {
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let clock = match pid {
        None => CLOCK_PROCESS_CPUTIME_ID,
        Some(pid) => {
            let mut clock: c_int = 0;
            // SAFETY: `clock` is a valid, writable `clockid_t` (an int on
            // Linux); the call writes it only on success.
            if unsafe { clock_getcpuclockid(c_int::try_from(pid).ok()?, &mut clock) } != 0 {
                return None;
            }
            clock
        }
    };
    read_clock(clock)
}

/// CPU time (s) thread `tid` has used since it started, or `None` if
/// the clock cannot be read (for example, the thread has exited).
pub fn thread_cpu_s(tid: i32) -> Option<f64> {
    // Linux's clock id for a thread's scheduler clock:
    // `(~tid << 3) | CPUCLOCK_PERTHREAD_MASK | CPUCLOCK_SCHED`.
    read_clock((!tid << 3) | 4 | 2)
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn clock_getcpuclockid(pid: c_int, clock: *mut c_int) -> c_int;
}

fn read_clock(clock: c_int) -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two longs on
    // 64-bit Linux) that outlives the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return None;
    }
    Some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub verdict: Verdict,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Peak resident set (MiB) of process `pid` (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an integer"))
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds must be positive"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload '{}'", args.workload));
    }
    if args.seconds == 0.0 {
        usage("--seconds is required");
    }
    args
}

/// Render the result line. Every metric of the run's kind is present:
/// end-to-end ones must have been measured, per-layer ones a workload
/// does not reach read 0. A non-finite value fails the run.
fn result_line(outcome: &mut Outcome, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                outcome.verdict.fail(format!("metric {name} is {v}"));
                0.0
            }
            None if trace => 0.0,
            None => {
                outcome
                    .verdict
                    .fail(format!("metric {name} was not measured"));
                0.0
            }
        };
        println!("{name:<36} {value:>14.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for line in outcome.verdict.measured() {
        println!("check {line}");
    }
    for failure in outcome.verdict.failures() {
        eprintln!("CHECK FAILED: {failure}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.verdict.passed(),
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::set_num_threads(width);
    let mut outcome = match args.workload.as_str() {
        "wse-ta" => compute::wse_ta(&args),
        "baseline-cu-k2" => compute::baseline_cu_k2(&args),
        _ => serve::serve_mixed(&args),
    };
    if args.trace {
        outcome.set("rayon.width", rayon::current_num_threads() as f64);
    }
    println!(
        "workload {} seed {} seconds {} trace {}: attempted {} failed {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed
    );
    let line = result_line(&mut outcome, args.trace);
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use wafer_md::json::Value;

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("valid JSON");
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    /// The clock tests busy-wait and read the whole process's CPU time,
    /// so they must not overlap.
    static CLOCK_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn own_tid() -> i32 {
        std::fs::read_to_string("/proc/thread-self/stat")
            .ok()
            .and_then(|s| s.split(' ').next()?.parse().ok())
            .expect("own thread id")
    }

    #[test]
    fn cpu_clock_counts_work_not_sleep() {
        let _alone = CLOCK_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let start = cpu_time_s(None).expect("own CPU clock");
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = cpu_time_s(None).unwrap() - start;
        assert!(slept < 0.01, "{slept}");
        let busy = std::time::Instant::now();
        while cpu_time_s(None).unwrap() - start - slept < 0.02 {
            assert!(busy.elapsed().as_secs() < 5, "the CPU clock stood still");
        }
        let own = cpu_time_s(Some(std::process::id())).expect("CPU clock by pid");
        assert!(own >= start);
    }

    #[test]
    fn thread_clock_counts_only_that_thread() {
        let _alone = CLOCK_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let idle = std::thread::spawn(move || {
            tid_tx.send(own_tid()).unwrap();
            let _ = done_rx.recv();
        });
        let tid = tid_rx.recv().unwrap();
        let main_tid = own_tid();
        let (main0, idle0) = (thread_cpu_s(main_tid).unwrap(), thread_cpu_s(tid).unwrap());
        let busy = std::time::Instant::now();
        while thread_cpu_s(main_tid).unwrap() - main0 < 0.02 {
            assert!(
                busy.elapsed().as_secs() < 5,
                "the busy thread's clock stood still"
            );
        }
        let idled = thread_cpu_s(tid).unwrap() - idle0;
        assert!(idled < 0.005, "{idled}");
        done_tx.send(()).unwrap();
        idle.join().unwrap();
        // Linux never hands out thread ids above 2^22.
        assert!(thread_cpu_s((1 << 22) + 1).is_none());
    }

    #[test]
    fn result_line_fails_on_a_missing_end_to_end_metric() {
        let mut outcome = Outcome::default();
        for &(name, _) in END_TO_END.iter().skip(1) {
            outcome.set(name, 1.5);
        }
        let line = result_line(&mut outcome, false);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        let doc = Value::parse(&line).expect("the result line is JSON");
        let v = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(v.get("value").and_then(Value::as_f64), Some(1.5));
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(1));
    }
}
