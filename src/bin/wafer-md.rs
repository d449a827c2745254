//! `wafer-md` — run the registered scenarios from the command line.
//!
//! ```text
//! wafer-md run <scenario> [--engine baseline|wse] [--atoms N] [--steps N]
//!                         [--shards K] [--ghost-period k|auto] [--xyz PATH]
//! wafer-md list
//! wafer-md serve [--addr HOST:PORT] [--cache DIR] [--drain FILE]
//!                [--serve-threads N] [--timeout-ms MS]
//!                [--max-requests-per-conn N]
//!                [--cache-max-bytes B] [--cache-max-entries N]
//!                [--trace FILE]
//! wafer-md export-setfl <cu|w|ta> <path>
//! ```
//!
//! `run` executes a scenario from the declarative registry
//! (`wafer_md::scenario`) and prints its deterministic report; `list`
//! enumerates the registry with the one-line description of each
//! scenario; `serve` answers `ScenarioSpec` requests over HTTP/JSON
//! from a content-addressed result cache (`--drain FILE` runs a
//! request file to completion and exits, for CI); `export-setfl`
//! writes a calibrated potential as a LAMMPS `eam/alloy` file for
//! interop with the paper's original toolchain.

use std::io::Write;
use std::sync::Arc;

use wafer_md::md::materials::Material;
use wafer_md::md::setfl;
use wafer_md::scenario::{self, EngineKind, GhostPeriod, RunOptions, ScenarioError};
use wafer_md::serve;

/// Surface a typed scenario error with the usage text and exit 2: the
/// error's `Display` *is* the hint line the tests assert on.
fn scenario_error(e: ScenarioError) -> ! {
    eprintln!("{e}");
    usage()
}

fn usage() -> ! {
    eprintln!(
        "usage: wafer-md run <scenario> [--engine baseline|wse] [--atoms N] [--steps N]\n\
         \x20                           [--shards K] [--ghost-period k|auto] [--xyz PATH]\n\
         \x20      wafer-md list\n\
         \x20      wafer-md serve [--addr HOST:PORT] [--cache DIR] [--drain FILE]\n\
         \x20                     [--serve-threads N] [--timeout-ms MS]\n\
         \x20                     [--max-requests-per-conn N]\n\
         \x20                     [--cache-max-bytes B] [--cache-max-entries N]\n\
         \x20                     [--trace FILE]   (wafer-md serve --help for details)\n\
         \x20      wafer-md export-setfl <cu|w|ta> <path>\n\
         \n\
         scenarios:\n{}",
        indent(&scenario::list_text())
    );
    std::process::exit(2);
}

/// Reject an unknown scenario name: the error must surface the valid
/// names directly (not just the generic usage text) and exit nonzero.
fn unknown_scenario(name: &str) -> ! {
    let names: Vec<&str> = scenario::registry().iter().map(|e| e.name).collect();
    eprintln!(
        "unknown scenario '{name}'; available scenarios: {}",
        names.join(", ")
    );
    std::process::exit(2);
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("  {l}\n"))
        .collect::<String>()
        .trim_end_matches('\n')
        .to_string()
}

fn parse_run(args: &[String]) -> (String, RunOptions) {
    let Some(name) = args.first() else { usage() };
    let mut opts = RunOptions::default();
    let mut i = 1;
    let value = |i: &mut usize| -> &String {
        *i += 1;
        args.get(*i).unwrap_or_else(|| usage())
    };
    // Every flag spelling is checked by the type it names; a bad one is
    // a typed ScenarioError, which exits 2 with its rendered hint.
    while i < args.len() {
        match args[i].as_str() {
            "--engine" => {
                let engine = EngineKind::parse(value(&mut i));
                opts.engine = Some(engine.unwrap_or_else(|e| scenario_error(e)));
            }
            "--atoms" => opts.atoms = Some(positive(value(&mut i), ScenarioError::InvalidAtoms)),
            "--steps" => opts.steps = Some(positive(value(&mut i), ScenarioError::InvalidSteps)),
            "--shards" => {
                opts.shards = Some(positive(value(&mut i), |_| ScenarioError::InvalidShards));
            }
            "--ghost-period" => {
                let v = value(&mut i);
                let invalid = || scenario_error(ScenarioError::InvalidGhostPeriod(v.clone()));
                opts.ghost_period = Some(GhostPeriod::parse(v).unwrap_or_else(invalid));
            }
            "--xyz" => opts.xyz = Some(value(&mut i).into()),
            other => {
                eprintln!("unknown argument '{other}'");
                usage()
            }
        }
        i += 1;
    }
    (name.clone(), opts)
}

/// Parse a positive integer `run` flag; any other spelling exits 2 with
/// the hint of the typed error `invalid` builds from it.
fn positive(v: &str, invalid: fn(String) -> ScenarioError) -> usize {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => scenario_error(invalid(v.to_string())),
    }
}

/// Parse a positive integer serve flag, exiting 2 with a hint
/// otherwise.
fn parse_count(flag: &str, v: &str) -> u64 {
    match v.parse::<u64>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("{flag} must be a positive integer (got '{v}')");
            usage()
        }
    }
}

/// `wafer-md serve --help`: the flag table. Each flag row starts with
/// two spaces and the flag name — CI greps these rows and diffs the
/// flag set against the table in `docs/OPERATIONS.md`, so the two can
/// never drift apart.
fn serve_help() -> ! {
    println!(
        "usage: wafer-md serve [flags]\n\
         \n\
         Serve ScenarioSpec requests over HTTP/JSON from a content-addressed\n\
         result cache, or drain a request file to completion and exit.\n\
         Operator manual: docs/OPERATIONS.md\n\
         \n\
         flags:\n\
         \x20 --addr HOST:PORT       listen address (default 127.0.0.1:7878; port 0 picks a free port)\n\
         \x20 --cache DIR            result cache root (default ./.wafer-cache)\n\
         \x20 --drain FILE           run a request file to completion, print the drain report, exit\n\
         \x20 --serve-threads N      acceptor threads answering connections (default 4)\n\
         \x20 --timeout-ms MS        per-connection read/write + keep-alive idle timeout (default 10000)\n\
         \x20 --max-requests-per-conn N  requests served per connection before it closes (default 100)\n\
         \x20 --cache-max-bytes B    evict LRU entries beyond this payload size (default unbounded)\n\
         \x20 --cache-max-entries N  evict LRU entries beyond this count (default unbounded)\n\
         \x20 --trace FILE           write one compact-JSON line per lifecycle event to FILE"
    );
    std::process::exit(0);
}

fn serve_main(args: &[String]) {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cache = "./.wafer-cache".to_string();
    let mut drain: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut config = serve::ServeConfig::default();
    let mut budget = serve::CacheBudget::UNBOUNDED;
    let mut i = 0;
    let value = |i: &mut usize| -> &String {
        *i += 1;
        args.get(*i).unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => serve_help(),
            "--addr" => addr = value(&mut i).clone(),
            "--cache" => cache = value(&mut i).clone(),
            "--drain" => drain = Some(value(&mut i).clone()),
            "--serve-threads" => {
                config.threads = parse_count("--serve-threads", value(&mut i)) as usize;
            }
            "--timeout-ms" => {
                let ms = parse_count("--timeout-ms", value(&mut i));
                config.timeout = std::time::Duration::from_millis(ms);
            }
            "--max-requests-per-conn" => {
                config.max_requests_per_conn =
                    parse_count("--max-requests-per-conn", value(&mut i));
            }
            "--cache-max-bytes" => {
                budget.max_bytes = parse_count("--cache-max-bytes", value(&mut i));
            }
            "--cache-max-entries" => {
                budget.max_entries = parse_count("--cache-max-entries", value(&mut i)) as usize;
            }
            "--trace" => trace = Some(value(&mut i).clone()),
            other => {
                eprintln!("unknown argument '{other}'");
                usage()
            }
        }
        i += 1;
    }
    let store = serve::ResultCache::open_bounded(std::path::Path::new(&cache), budget)
        .unwrap_or_else(|e| panic!("open cache {cache}: {e}"));
    // Drain mode has no acceptor pool; serve sizes one counter per
    // acceptor thread.
    let acceptors = if drain.is_some() {
        0
    } else {
        config.threads.max(1)
    };
    let metrics = match &trace {
        Some(path) => serve::ServeMetrics::with_trace(acceptors, std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("open trace file {path}: {e}")),
        None => serve::ServeMetrics::new(acceptors),
    };
    let metrics = std::sync::Arc::new(metrics);
    if let Some(requests) = drain {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let drained =
            serve::drain_file_with(store, requests.as_ref(), &mut out, Arc::clone(&metrics));
        // Timing goes to stderr only: stdout is the byte-diffed drain
        // report and must stay a pure function of the request file.
        metrics.flush_trace();
        eprintln!("{}", metrics.drain_summary());
        if let Err(e) = drained {
            if e.kind() == std::io::ErrorKind::InvalidData {
                // A malformed request line is a usage error, not a crash.
                eprintln!("{requests}: {e}");
                std::process::exit(2);
            }
            panic!("drain {requests}: {e}");
        }
        return;
    }
    let mut server = serve::Server::bind_metrics(&addr, store, config, Arc::clone(&metrics))
        .unwrap_or_else(|e| panic!("bind {addr}: {e}"));
    let bound = server.local_addr().expect("bound listener has an address");
    println!(
        "listening on {bound} (cache {cache}, {} serve threads)",
        config.threads
    );
    std::io::stdout().flush().expect("flush stdout");
    let served = server.serve();
    metrics.flush_trace();
    if let Err(e) = served {
        panic!("serve on {bound}: {e}");
    }
}

fn export_setfl(args: &[String]) {
    let [species, path] = args else { usage() };
    let species = scenario::parse_species(species).unwrap_or_else(|e| scenario_error(e));
    let material = Material::new(species);
    let text = setfl::export_material(&material, 2000, 2000);
    std::fs::write(path, text).expect("write setfl file");
    println!(
        "wrote LAMMPS eam/alloy potential for {} to {path}",
        species.symbol()
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => {
            let (name, opts) = parse_run(&argv[1..]);
            let Some(entry) = scenario::find(&name) else {
                unknown_scenario(&name)
            };
            let stdout = std::io::stdout();
            if let Err(e) = entry.run(&opts, &mut stdout.lock()) {
                // A closed pipe (`wafer-md run ... | head`) is a normal
                // way to stop reading, not an error.
                if e.kind() != std::io::ErrorKind::BrokenPipe {
                    panic!("write scenario report: {e}");
                }
            }
        }
        Some("list") => print!("{}", scenario::list_text()),
        Some("serve") => serve_main(&argv[1..]),
        Some("export-setfl") => export_setfl(&argv[1..]),
        _ => usage(),
    }
}
