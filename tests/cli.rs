//! Invocation tests for the `wafer-md` binary: usage handling, the
//! `list`/registry contract, and byte-exact golden output for the
//! `quickstart` scenario on both engines.

use std::process::Command;

use wafer_md::scenario;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wafer-md"))
}

#[test]
fn help_prints_usage_and_exits_nonzero() {
    let out = cli().arg("--help").output().expect("spawn wafer-md");
    assert_eq!(out.status.code(), Some(2), "--help exits with usage status");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: wafer-md run"), "stderr: {stderr}");
    assert!(stderr.contains("--engine baseline|wse"), "stderr: {stderr}");
    assert!(stderr.contains("quickstart"), "usage lists scenarios");
}

#[test]
fn unknown_scenario_is_rejected_and_lists_the_registry() {
    let out = cli()
        .args(["run", "no-such-scenario"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "unknown scenario exits nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scenario"), "stderr: {stderr}");
    // The error itself must surface every valid name, not just fail.
    for entry in scenario::registry() {
        assert!(
            stderr.contains(entry.name),
            "error does not list '{}': {stderr}",
            entry.name
        );
    }
}

/// Unknown `--engine` values exit 2 with a hint naming the accepted
/// backends (the rendered [`scenario::ScenarioError::UnknownEngine`]).
#[test]
fn unknown_engine_is_rejected_with_a_hint() {
    let out = cli()
        .args(["run", "quickstart", "--engine", "gpu"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "--engine gpu must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown engine 'gpu'"), "stderr: {stderr}");
    assert!(
        stderr.contains("expected baseline|wse"),
        "stderr lacks the accepted backends: {stderr}"
    );
    assert!(stderr.contains("usage: wafer-md run"), "stderr: {stderr}");
}

/// Unknown species on `export-setfl` exit 2 with the rendered
/// [`scenario::ScenarioError::UnknownSpecies`] hint.
#[test]
fn export_setfl_unknown_species_is_rejected() {
    let out = cli()
        .args(["export-setfl", "iron", "/dev/null"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "unknown species must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown species 'iron'"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: wafer-md run"), "stderr: {stderr}");
}

#[test]
fn zero_shards_is_rejected() {
    let out = cli()
        .args(["run", "quickstart", "--shards", "0"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--shards"), "stderr: {stderr}");
}

/// Non-positive or non-integer `--atoms`/`--steps` values exit 2 with
/// the rendered [`scenario::ScenarioError::InvalidAtoms`] /
/// [`scenario::ScenarioError::InvalidSteps`] hint.
#[test]
fn invalid_atom_and_step_counts_are_rejected_with_a_hint() {
    for (flag, bad) in [
        ("--atoms", "0"),
        ("--atoms", "-3"),
        ("--atoms", "many"),
        ("--steps", "1.5"),
    ] {
        let out = cli()
            .args(["run", "quickstart", flag, bad])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{flag} {bad} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} must be a positive integer (got '{bad}')")),
            "stderr: {stderr}"
        );
        assert!(stderr.contains("usage: wafer-md run"), "stderr: {stderr}");
    }
}

/// Invalid `--ghost-period` values exit 2 with a usage hint naming the
/// flag and the accepted spellings.
#[test]
fn invalid_ghost_period_is_rejected_with_a_hint() {
    for bad in ["0", "banana", "-3", "1.5"] {
        let out = cli()
            .args(["run", "quickstart", "--ghost-period", bad])
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--ghost-period {bad} must exit 2"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--ghost-period"), "stderr: {stderr}");
        assert!(
            stderr.contains("positive integer or 'auto'"),
            "stderr lacks the accepted spellings: {stderr}"
        );
        assert!(stderr.contains("usage: wafer-md run"), "stderr: {stderr}");
    }
}

/// `--ghost-period` is accepted on the sharded scenarios, and physics
/// is bit-identical at any value: an amortized sharded quickstart must
/// still byte-match the committed (unsharded, every-step) golden.
#[test]
fn ghost_period_is_accepted_and_does_not_change_quickstart_bytes() {
    let out = cli()
        .args([
            "run",
            "quickstart",
            "--engine",
            "wse",
            "--shards",
            "2",
            "--ghost-period",
            "4",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "status: {:?}", out.status);
    let golden_path = format!(
        "{}/tests/golden/quickstart-wse.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read(&golden_path).expect("read committed golden");
    assert!(
        out.stdout == golden,
        "amortized sharded quickstart diverged from the golden:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// `auto` resolves to a concrete period and the multi-wafer report
/// prints the resolution; an explicit period is echoed as given; and
/// the physics lines agree across periods.
#[test]
fn ghost_period_auto_resolves_and_is_printed_in_the_report() {
    let run = |period: &str| {
        let out = cli()
            .args([
                "run",
                "multi-wafer",
                "--steps",
                "20",
                "--ghost-period",
                period,
            ])
            .output()
            .expect("spawn");
        assert!(out.status.success(), "status: {:?}", out.status);
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let auto = run("auto");
    let line = auto
        .lines()
        .find(|l| l.starts_with("ghost period: auto -> "))
        .unwrap_or_else(|| panic!("no resolved auto line in:\n{auto}"));
    let resolved: usize = line["ghost period: auto -> ".len()..]
        .split_whitespace()
        .next()
        .expect("resolved value")
        .parse()
        .expect("auto resolves to an integer period");
    assert!((1..=8).contains(&resolved), "resolved {resolved}");

    let fixed = run("2");
    assert!(fixed.contains("ghost period: 2 "), "report: {fixed}");
    // Physics is schedule-invariant: the observables line matches.
    let physics = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("after "))
            .map(str::to_owned)
            .expect("observables line")
    };
    assert_eq!(physics(&auto), physics(&fixed));
}

#[test]
fn unknown_flag_is_rejected() {
    let out = cli()
        .args(["run", "quickstart", "--no-such-flag"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument"), "stderr: {stderr}");
}

#[test]
fn list_matches_the_registry_exactly() {
    let out = cli().arg("list").output().expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(
        stdout,
        scenario::list_text(),
        "`wafer-md list` must render the registry verbatim"
    );
    // And the registry itself covers every scenario the paper names.
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), scenario::registry().len());
    for (line, entry) in lines.iter().zip(scenario::registry()) {
        assert!(
            line.starts_with(entry.name),
            "line '{line}' out of registry order"
        );
        assert!(line.contains(entry.summary), "summary missing in '{line}'");
    }
}

#[test]
fn run_accepts_overrides_and_reports_observables() {
    let out = cli()
        .args([
            "run",
            "quickstart",
            "--atoms",
            "64",
            "--steps",
            "5",
            "--engine",
            "wse",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "status: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("engine wse"), "stdout: {stdout}");
    assert!(stdout.contains("after 5 steps"), "stdout: {stdout}");
    assert!(stdout.contains("RDF main peak"), "stdout: {stdout}");
}

/// The sharded determinism contract, end to end through the CLI: the
/// scenario report and the XYZ trajectory must be byte-identical at any
/// `--shards` value, on both engines.
#[test]
fn sharded_runs_are_byte_identical_through_the_cli() {
    let dir = std::env::temp_dir();
    for engine in ["baseline", "wse"] {
        let mut reference: Option<(Vec<u8>, Vec<u8>)> = None;
        for shards in ["1", "2", "4"] {
            let xyz = dir.join(format!("wafer-md-cli-{engine}-{shards}.xyz"));
            let out = cli()
                .args([
                    "run",
                    "quickstart",
                    "--engine",
                    engine,
                    "--atoms",
                    "100",
                    "--steps",
                    "25",
                    "--shards",
                    shards,
                    "--xyz",
                    xyz.to_str().unwrap(),
                ])
                .output()
                .expect("spawn");
            assert!(out.status.success(), "status: {:?}", out.status);
            let traj = std::fs::read(&xyz).expect("trajectory written");
            let _ = std::fs::remove_file(&xyz);
            match &reference {
                None => reference = Some((out.stdout, traj)),
                Some((ref_stdout, ref_traj)) => {
                    assert!(
                        *ref_stdout == out.stdout,
                        "{engine}: report differs at --shards {shards}"
                    );
                    assert!(
                        *ref_traj == traj,
                        "{engine}: trajectory differs at --shards {shards}"
                    );
                }
            }
        }
    }
}

/// The committed XYZ golden pins the trajectory format and the bits of
/// a short reduced run.
#[test]
fn quickstart_xyz_matches_committed_golden() {
    let dir = std::env::temp_dir();
    let xyz = dir.join("wafer-md-cli-golden.xyz");
    let out = cli()
        .args([
            "run",
            "quickstart",
            "--atoms",
            "36",
            "--steps",
            "30",
            "--xyz",
            xyz.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "status: {:?}", out.status);
    let traj = std::fs::read(&xyz).expect("trajectory written");
    let _ = std::fs::remove_file(&xyz);
    let golden_path = format!(
        "{}/tests/golden/quickstart-36.xyz",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read(&golden_path).expect("read committed golden");
    assert!(
        traj == golden,
        "quickstart trajectory diverged from {golden_path}"
    );
}

/// The CI smoke contract: `wafer-md run quickstart` must byte-match the
/// committed golden file for each engine, at any thread count.
#[test]
fn quickstart_matches_committed_golden_output() {
    for engine in ["baseline", "wse"] {
        let out = cli()
            .args(["run", "quickstart", "--engine", engine])
            .output()
            .expect("spawn");
        assert!(out.status.success(), "status: {:?}", out.status);
        let golden_path = format!(
            "{}/tests/golden/quickstart-{engine}.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        let golden = std::fs::read(&golden_path).expect("read committed golden file");
        assert!(
            out.stdout == golden,
            "quickstart --engine {engine} diverged from {golden_path}:\n--- got ---\n{}\n--- want ---\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&golden)
        );
    }
}

/// The multi-wafer scenario's report is itself a determinism assertion
/// ("bit-identity across shard counts: confirmed"); pin it byte-exactly.
#[test]
fn multi_wafer_matches_committed_golden_output() {
    let out = cli().args(["run", "multi-wafer"]).output().expect("spawn");
    assert!(out.status.success(), "status: {:?}", out.status);
    let golden_path = format!(
        "{}/tests/golden/multi-wafer.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read(&golden_path).expect("read committed golden file");
    assert!(
        out.stdout == golden,
        "multi-wafer diverged from {golden_path}:\n--- got ---\n{}\n--- want ---\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&golden)
    );
    assert!(String::from_utf8_lossy(&out.stdout)
        .contains("bit-identity across shard counts and ghost periods: confirmed"));
}
