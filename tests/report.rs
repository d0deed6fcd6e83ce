//! End-to-end tests of the `baton-report` surfaces through the CLI:
//! `explain`, `--trace-perfetto`, `bench`, and `profile --json`.

use std::path::PathBuf;
use std::process::Command;

use nn_baton::report::perfetto;
use nn_baton::report::BenchSnapshot;
use nn_baton::telemetry::json::{self, parse_flat_object, Value};

fn baton(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_baton"))
        .args(args)
        .output()
        .expect("baton binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A one-layer model small enough that every test re-search stays fast.
fn tiny_model() -> PathBuf {
    let dir = std::env::temp_dir().join("baton-report-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("tiny.baton");
    // Tests run in parallel and share this file: write a private copy and
    // rename it into place, so no reader ever sees a half-written model.
    let staged = dir.join(format!(
        "tiny.{}.{:?}.tmp",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(
        &staged,
        "model tiny @32\nconv name=only in=32x32x8 k=3 s=1 p=1 co=16\n",
    )
    .unwrap();
    std::fs::rename(&staged, &file).unwrap();
    file
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("baton-report-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn explain_prints_every_section_on_the_tiny_model() {
    let model = tiny_model();
    let (ok, stdout, stderr) = baton(&["explain", model.to_str().unwrap(), "--layer", "0"]);
    assert!(ok, "{stderr}");
    // The golden skeleton: every section and every C³P buffer, by name.
    for section in [
        "layer only",
        "winner:",
        "loop nest",
        "C3P buffer verdicts",
        "access counts",
        "energy split",
        "runner-up mappings",
    ] {
        assert!(stdout.contains(section), "missing `{section}` in: {stdout}");
    }
    for buffer in ["A-L2", "A-L1", "W-L1 pool"] {
        assert!(stdout.contains(buffer), "missing `{buffer}` in: {stdout}");
    }
    for row in ["dram_input", "d2d_ring", "mac_ops", "Cc_1"] {
        assert!(stdout.contains(row), "missing `{row}` in: {stdout}");
    }
    // Selecting by name prints the same layer.
    let (ok, by_name, _) = baton(&["explain", model.to_str().unwrap(), "--layer", "only"]);
    assert!(ok);
    assert_eq!(stdout, by_name);

    // Markdown mode produces headings and tables.
    let (ok, md, _) = baton(&[
        "explain",
        model.to_str().unwrap(),
        "--layer",
        "0",
        "--format",
        "md",
    ]);
    assert!(ok);
    assert!(md.contains("## "), "{md}");
    assert!(md.contains("| buffer |") || md.contains("|---"), "{md}");
}

#[test]
fn explain_json_round_trips_through_the_flat_parser() {
    let model = tiny_model();
    let (ok, stdout, stderr) = baton(&[
        "explain",
        model.to_str().unwrap(),
        "--layer",
        "0",
        "--format",
        "json",
    ]);
    assert!(ok, "{stderr}");
    let mut kinds = std::collections::BTreeSet::new();
    for line in stdout.lines() {
        let obj = parse_flat_object(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
        kinds.insert(obj["record"].as_str().unwrap().to_string());
    }
    for kind in [
        "layer",
        "loop",
        "buffer",
        "breakpoint",
        "access",
        "energy",
        "runner_up",
    ] {
        assert!(kinds.contains(kind), "no `{kind}` record in {kinds:?}");
    }
}

#[test]
fn explain_rejects_out_of_range_layers() {
    let model = tiny_model();
    let (ok, _, stderr) = baton(&["explain", model.to_str().unwrap(), "--layer", "7"]);
    assert!(!ok);
    assert!(stderr.contains("out of range"), "{stderr}");
    let (ok, _, stderr) = baton(&["explain", model.to_str().unwrap(), "--layer", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("no layer `nope`"), "{stderr}");
}

#[test]
fn perfetto_export_is_valid_chrome_trace_json() {
    let model = tiny_model();
    let out = tmp("tiny-perfetto.json");
    let (ok, stdout, stderr) = baton(&[
        "map",
        model.to_str().unwrap(),
        "--trace-perfetto",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("wrote"), "{stdout}");
    let text = std::fs::read_to_string(&out).unwrap();
    // Raw spot-checks of the trace_event contract...
    for token in [
        "\"ph\":\"X\"",
        "\"pid\":",
        "\"tid\":",
        "\"ts\":",
        "traceEvents",
    ] {
        assert!(text.contains(token), "missing `{token}`");
    }
    // ...and the full structural validation: re-parse, required fields on
    // every event, monotonic non-overlapping spans per track.
    let stats = perfetto::validate(&text).unwrap();
    assert!(stats.spans > 0, "{stats:?}");
    assert!(stats.counters > 0, "{stats:?}");
    assert!(stats.events > stats.spans, "{stats:?}");
    // One process per chiplet plus the package process.
    let doc = json::parse(&text).unwrap();
    let Some(Value::Array(events)) = doc.get("traceEvents") else {
        panic!("traceEvents is not an array");
    };
    let processes: std::collections::BTreeSet<u64> = events
        .iter()
        .filter_map(|e| e.get("pid").and_then(Value::as_f64))
        .map(|p| p as u64)
        .collect();
    assert!(processes.contains(&perfetto::PACKAGE_PID));
    assert!(processes.len() >= 2, "{processes:?}");
}

#[test]
fn bench_writes_a_parseable_snapshot() {
    let model = tiny_model();
    let out = tmp("BENCH_tiny.json");
    let (ok, stdout, stderr) = baton(&[
        "bench",
        model.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("bench tiny:"), "{stdout}");
    let snap = BenchSnapshot::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(snap.strs["name"], "tiny");
    assert_eq!(snap.strs["model"], "tiny");
    for key in [
        "schema",
        "wall_ms.total",
        "throughput.candidates_per_sec",
        "alloc.allocs_per_candidate",
        "counter.baton_evaluations_total",
        "phase.search_layer.total_ms",
    ] {
        assert!(snap.nums.contains_key(key), "missing `{key}` in {snap:?}");
    }
}

#[test]
fn bench_baseline_gates_on_injected_regression() {
    let model = tiny_model();
    let out = tmp("BENCH_gate.json");
    let (ok, _, stderr) = baton(&[
        "bench",
        model.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let snap = BenchSnapshot::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();

    // A baseline this machine can never beat: the current run is an
    // injected slowdown by construction -> the gate must fail non-zero.
    let mut impossible = snap.clone();
    for (key, v) in impossible.nums.iter_mut() {
        if key.starts_with("throughput.") {
            *v *= 1e6;
        } else if key == "wall_ms.total" || key.ends_with(".total_ms") {
            *v /= 1e6;
        }
    }
    let fast = tmp("BENCH_impossible.json");
    std::fs::write(&fast, impossible.to_json()).unwrap();
    let (ok, _, stderr) = baton(&[
        "bench",
        model.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--baseline",
        fast.to_str().unwrap(),
        "--max-regress",
        "50",
    ]);
    assert!(!ok, "impossible baseline must gate");
    assert!(stderr.contains("regressed beyond 50%"), "{stderr}");
    assert!(stderr.contains("regression:"), "{stderr}");

    // An infinitely forgiving baseline passes: same file, huge tolerance.
    let (ok, stdout, stderr) = baton(&[
        "bench",
        model.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--baseline",
        fast.to_str().unwrap(),
        "--max-regress",
        "1e12",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("ok"), "{stdout}");
}

#[test]
fn profile_json_emits_one_flat_object() {
    let model = tiny_model();
    let (ok, stdout, stderr) = baton(&["profile", model.to_str().unwrap(), "--json"]);
    assert!(ok, "{stderr}");
    let obj = parse_flat_object(stdout.trim()).unwrap();
    assert_eq!(obj["name"].as_str(), Some("profile"));
    assert_eq!(obj["model"].as_str(), Some("tiny"));
    assert!(
        obj.contains_key("counter.baton_evaluations_total"),
        "{obj:?}"
    );
    assert!(obj.contains_key("phase.search_layer.total_ms"), "{obj:?}");
}

#[test]
fn flag_errors_name_the_subcommand_and_its_flags() {
    let (ok, _, stderr) = baton(&["map", "alexnet", "--nope"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown flag `--nope` for `map`"),
        "{stderr}"
    );
    assert!(stderr.contains("--trace-perfetto"), "{stderr}");
    // A flag that exists elsewhere is still rejected here, with the list.
    let (ok, _, stderr) = baton(&["explain", "alexnet", "--csv", "x.csv"]);
    assert!(!ok);
    assert!(stderr.contains("for `explain`"), "{stderr}");
    assert!(stderr.contains("--format"), "{stderr}");
    let (ok, _, stderr) = baton(&["stats", "alexnet", "--macs", "4096"]);
    assert!(!ok);
    assert!(stderr.contains("valid: --res"), "{stderr}");
}

#[test]
fn output_paths_are_validated_before_model_work() {
    // A missing parent directory must fail fast, before any search runs.
    let bad = "/nonexistent-baton-dir/out.json";
    let t0 = std::time::Instant::now();
    let (ok, _, stderr) = baton(&["bench", "vgg16", "--out", bad]);
    assert!(!ok);
    assert!(stderr.contains("cannot write"), "{stderr}");
    let (ok, _, stderr) = baton(&["map", "vgg16", "--csv", "/nonexistent-baton-dir/x.csv"]);
    assert!(!ok);
    assert!(stderr.contains("cannot write"), "{stderr}");
    // Mapping vgg16 twice takes tens of seconds; failing fast stays far
    // under that even on a loaded machine.
    assert!(t0.elapsed().as_secs() < 20, "not validated early");
    // bench without --out is an error too.
    let (ok, _, stderr) = baton(&["bench", "alexnet"]);
    assert!(!ok);
    assert!(stderr.contains("bench needs --out"), "{stderr}");
}
