//! End-to-end tests of the `baton` command-line tool.

use std::process::Command;

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

#[test]
fn help_lists_subcommands() {
    let (ok, stdout, _) = baton(&["help"]);
    assert!(ok);
    for cmd in [
        "stats",
        "map",
        "compare",
        "explore",
        "sweep",
        "recommend",
        "serve",
        "check",
    ] {
        assert!(stdout.contains(cmd), "help lacks `{cmd}`: {stdout}");
    }
}

#[test]
fn help_after_a_subcommand_prints_the_usage() {
    for args in [
        &["sweep", "--help"][..],
        &["map", "alexnet", "-h"],
        &["serve", "--help"],
        &["--help"],
    ] {
        let (ok, stdout, stderr) = baton(args);
        assert!(ok, "{args:?}: {stderr}");
        assert!(stdout.contains("usage:"), "{args:?}: {stdout}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

#[test]
fn stats_prints_the_model_table() {
    let (ok, stdout, _) = baton(&["stats", "darknet19", "--res", "224"]);
    assert!(ok);
    assert!(stdout.contains("darknet19: 19 layers"));
    assert!(stdout.contains("conv19"));
}

#[test]
fn map_emits_csv_artifacts() {
    let dir = std::env::temp_dir().join("baton-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("alexnet.csv");
    let (ok, stdout, stderr) = baton(&["map", "alexnet", "--csv", csv.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("alexnet"));
    let content = std::fs::read_to_string(&csv).unwrap();
    assert!(content.starts_with("layer,"));
    // Header + 8 layers.
    assert_eq!(content.lines().count(), 9);
}

#[test]
fn check_validates_and_rejects_model_files() {
    let dir = std::env::temp_dir().join("baton-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("good.baton");
    std::fs::write(
        &good,
        "model demo @64\nconv name=c in=64x64x3 k=3 s=1 p=1 co=8\n",
    )
    .unwrap();
    let (ok, stdout, _) = baton(&["check", good.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("ok: demo"));

    let bad = dir.join("bad.baton");
    std::fs::write(&bad, "model demo @64\nconv name=c in=64x64 k=3 co=8\n").unwrap();
    let (ok, _, stderr) = baton(&["check", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn check_rejects_padded_extents_beyond_u32() {
    // Both paddings used to wrap in 32-bit arithmetic: the first to a valid
    // 8-wide input, the second to a padded extent of 1.
    let dir = std::env::temp_dir().join("baton-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    for (file, conv, extent) in [
        (
            "wrap-pad.baton",
            "conv name=c in=8x8x3 k=3 s=1 p=2147483648 co=8",
            "4294967304",
        ),
        (
            "wrap-in.baton",
            "conv name=c in=4294967295x8x3 k=3 s=1 p=1 co=8",
            "4294967297",
        ),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, format!("model demo @64\n{conv}\n")).unwrap();
        let (ok, stdout, stderr) = baton(&["check", path.to_str().unwrap()]);
        assert!(!ok, "{conv}: {stdout}");
        assert!(
            stderr.contains(&format!(
                "line 2: invalid layer shape: padded input extent {extent} exceeds 4294967295"
            )),
            "{conv}: {stderr}"
        );
    }
}

#[test]
fn check_rejects_layers_whose_volumes_overflow_u64() {
    // `baton check` used to print a wrapped GMAC count for the first layer
    // (and a debug build panicked computing it).
    let dir = std::env::temp_dir().join("baton-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    for (file, conv, volume) in [
        (
            "huge-input.baton",
            "conv name=c in=4294967295x4294967295x4294967295 k=1 co=4294967295",
            "input bits",
        ),
        (
            "huge-psums.baton",
            "conv name=c in=1048576x1048576x1 k=1 co=1048576",
            "partial-sum bits",
        ),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, format!("model demo @64\n{conv}\n")).unwrap();
        let (ok, stdout, stderr) = baton(&["check", path.to_str().unwrap()]);
        assert!(!ok, "{conv}: {stdout}");
        assert!(
            stderr.contains(&format!(
                "line 2: invalid layer shape: {volume} exceed 18446744073709551615"
            )),
            "{conv}: {stderr}"
        );
    }
}

#[test]
fn check_rejects_models_whose_mac_total_overflows_u64() {
    // Each layer has 2^58 MACs and fits; 64 of them used to wrap the
    // model's total to 0 (`0.00 GMAC`), 63 still fit.
    let dir = std::env::temp_dir().join("baton-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let model = |layers: usize| {
        let mut text = "model big @64\n".to_string();
        for i in 0..layers {
            text.push_str(&format!(
                "conv name=c{i} in=1048576x1048576x1 k=1 co=262144\n"
            ));
        }
        text
    };
    let path = dir.join("mac-total.baton");
    std::fs::write(&path, model(64)).unwrap();
    let (ok, stdout, stderr) = baton(&["check", path.to_str().unwrap()]);
    assert!(!ok, "{stdout}");
    assert!(
        stderr.contains("total MACs exceed 18446744073709551615"),
        "{stderr}"
    );
    std::fs::write(&path, model(63)).unwrap();
    let (ok, stdout, stderr) = baton(&["check", path.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("(63 layers, 18158513697.56 GMAC)"),
        "{stdout}"
    );
}

#[test]
fn unknown_inputs_fail_cleanly() {
    // The offending word must be named even when no model argument follows.
    let (ok, _, stderr) = baton(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("frobnicate"), "{stderr}");
    let (ok, _, stderr) = baton(&["frobnicate", "vgg16"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown subcommand `frobnicate`"),
        "{stderr}"
    );
    let (ok, _, stderr) = baton(&["map", "not-a-model"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"));
}

#[test]
fn version_exits_zero_in_all_spellings() {
    for arg in ["version", "--version", "-V"] {
        let (ok, stdout, stderr) = baton(&[arg]);
        assert!(ok, "`baton {arg}` failed: {stderr}");
        assert!(stdout.starts_with("baton "), "{stdout}");
    }
}

#[test]
fn profile_prints_the_per_layer_breakdown() {
    let (ok, stdout, stderr) = baton(&["profile", "alexnet"]);
    assert!(ok, "{stderr}");
    for token in [
        "layer",
        "enumerated",
        "rej shape",
        "rej buffer",
        "evaluations",
    ] {
        assert!(stdout.contains(token), "missing `{token}` in: {stdout}");
    }
    assert!(stdout.contains("conv1"), "{stdout}");
    // The session summary follows the table.
    assert!(stdout.contains("counters:"), "{stdout}");
    assert!(stdout.contains("phase timings:"), "{stdout}");
    assert!(stdout.contains("search_layer"), "{stdout}");
}

#[test]
fn trace_json_emits_parseable_phase_events() {
    let dir = std::env::temp_dir().join("baton-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("map.jsonl");
    let (ok, _, stderr) = baton(&["map", "alexnet", "--trace-json", trace.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    let content = std::fs::read_to_string(&trace).unwrap();
    let mut kinds = std::collections::BTreeSet::new();
    for line in content.lines() {
        let obj = nn_baton::telemetry::json::parse_flat_object(line)
            .unwrap_or_else(|e| panic!("bad trace line `{line}`: {e}"));
        assert!(obj.contains_key("ts_us"), "{line}");
        kinds.insert(obj["event"].as_str().unwrap().to_string());
    }
    for kind in [
        "session_start",
        "span",
        "search_layer",
        "map_layer",
        "session_end",
    ] {
        assert!(kinds.contains(kind), "no `{kind}` event in {kinds:?}");
    }
    // Spans carry phases; at least the per-layer search phase must appear.
    assert!(content.contains("\"phase\":\"search_layer\""), "{content}");
    // Each layer search says how many geometries it resolved: at least one
    // (its winner's), at most one per candidate.
    let searches = records_where(&trace, "event", "search_layer");
    assert!(!searches.is_empty());
    for ev in &searches {
        let n = |k: &str| {
            ev[k]
                .as_f64()
                .unwrap_or_else(|| panic!("no `{k}` in {ev:?}"))
        };
        assert!((1.0..=n("candidates")).contains(&n("resolved")), "{ev:?}");
    }
}

/// Writes the 1-layer model used by the sweep-audit tests and returns its
/// path; tiny enough that a full (if shrunken-MAC) sweep runs in seconds.
fn tiny_model_file(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("baton-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(name);
    std::fs::write(
        &file,
        "model tiny @32\nconv name=c in=32x32x8 k=3 s=1 p=1 co=16\n",
    )
    .unwrap();
    file
}

#[test]
fn sweep_audit_reconciles_with_csv_and_telemetry_counters() {
    // The acceptance contract: audit `point` records == points evaluated
    // (the telemetry sweep_points counter) == CSV data rows.
    let dir = std::env::temp_dir().join("baton-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let model = tiny_model_file("sweep-audit.baton");
    let audit = dir.join("sweep-audit.jsonl");
    let csv = dir.join("sweep-audit.csv");
    let trace = dir.join("sweep-audit-trace.jsonl");
    let (ok, stdout, stderr) = baton(&[
        "sweep",
        model.to_str().unwrap(),
        "--macs",
        "512",
        "--audit",
        audit.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
        "--trace-json",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("audit records"), "{stdout}");

    // Every audit line is valid flat JSON; count the point records and pull
    // the summary.
    let mut points = 0u64;
    let mut summary_points = None;
    for line in std::fs::read_to_string(&audit).unwrap().lines() {
        let obj = nn_baton::telemetry::json::parse_flat_object(line)
            .unwrap_or_else(|e| panic!("bad audit line `{line}`: {e}"));
        match obj["record"].as_str().unwrap() {
            "point" => points += 1,
            "summary" => summary_points = obj["points"].as_f64(),
            _ => {}
        }
    }
    assert!(points > 0);
    assert_eq!(summary_points, Some(points as f64));

    // CSV data rows match exactly.
    let csv_rows = std::fs::read_to_string(&csv).unwrap().lines().count() - 1;
    assert_eq!(csv_rows as u64, points);

    // And the session's sweep_points counter (carried by the session_end
    // trace event) agrees: written == evaluated.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let end = trace_text
        .lines()
        .find(|l| l.contains("\"event\":\"session_end\""))
        .expect("session_end event");
    let obj = nn_baton::telemetry::json::parse_flat_object(end).unwrap();
    assert_eq!(obj["sweep_points"].as_f64(), Some(points as f64));
}

/// Every flat-JSON line of `path` whose `key` field equals `value`, as the
/// sorted key set of each and the parsed objects.
fn records_where(
    path: &std::path::Path,
    key: &str,
    value: &str,
) -> Vec<std::collections::BTreeMap<String, nn_baton::telemetry::json::Value>> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(|l| nn_baton::telemetry::json::parse_flat_object(l).unwrap())
        .filter(|obj| obj.get(key).and_then(|v| v.as_str()) == Some(value))
        .collect()
}

fn key_set(obj: &std::collections::BTreeMap<String, nn_baton::telemetry::json::Value>) -> String {
    obj.keys().cloned().collect::<Vec<_>>().join(" ")
}

#[test]
fn sweep_trace_carries_one_sweep_unit_event_per_unit() {
    let dir = std::env::temp_dir().join("baton-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let model = tiny_model_file("sweep-events.baton");
    let audit = dir.join("sweep-events-audit.jsonl");
    let trace = dir.join("sweep-events-trace.jsonl");
    let (ok, _, stderr) = baton(&[
        "sweep",
        model.to_str().unwrap(),
        "--macs",
        "512",
        "--audit",
        audit.to_str().unwrap(),
        "--trace-json",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let units = records_where(&audit, "record", "unit");
    let events = records_where(&trace, "event", "sweep_unit");
    assert!(!units.is_empty());
    assert_eq!(events.len(), units.len(), "one sweep_unit event per unit");
    for ev in &events {
        assert_eq!(
            key_set(ev),
            "dur_us event lanes n_c n_p o_l1 points ts_us vector"
        );
    }
    // Each (geometry, O-L1) unit appears once, with the audit's point count.
    let unit_key = |obj: &std::collections::BTreeMap<String, nn_baton::telemetry::json::Value>| {
        let n = |k: &str| obj[k].as_f64().unwrap() as u64;
        (n("n_p"), n("n_c"), n("lanes"), n("vector"), n("o_l1"))
    };
    let mut from_events: Vec<_> = events
        .iter()
        .map(|e| (unit_key(e), e["points"].as_f64().unwrap() as u64))
        .collect();
    let mut from_audit: Vec<_> = units
        .iter()
        .map(|u| {
            let n = |k: &str| u[k].as_f64().unwrap() as u64;
            (
                (
                    n("chiplets"),
                    n("cores"),
                    n("lanes"),
                    n("vector"),
                    n("o_l1_b"),
                ),
                n("points"),
            )
        })
        .collect();
    from_events.sort_unstable();
    from_audit.sort_unstable();
    assert_eq!(from_events, from_audit);
}

#[test]
fn sweep_span_lines_keep_one_key_set() {
    // Every span line carries its heap delta, 0 when the span allocated
    // nothing, so no key comes and goes with the allocator's timing: all
    // span lines share one key set, apart from the label a phase either
    // always or never has.
    let dir = std::env::temp_dir().join("baton-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let model = tiny_model_file("sweep-spans.baton");
    let trace = dir.join("sweep-spans-trace.jsonl");
    let (ok, _, stderr) = baton(&[
        "sweep",
        model.to_str().unwrap(),
        "--macs",
        "512",
        "--threads",
        "2",
        "--trace-json",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let spans = records_where(&trace, "event", "span");
    assert!(spans.len() > 1, "{} span lines", spans.len());
    let mut labelled = std::collections::BTreeMap::new();
    for span in &spans {
        let phase = span["phase"].as_str().unwrap().to_string();
        let has_label = span.contains_key("label");
        assert_eq!(
            *labelled.entry(phase).or_insert(has_label),
            has_label,
            "{span:?}"
        );
        let mut keys = span.clone();
        keys.remove("label");
        assert_eq!(
            key_set(&keys),
            "dur_us event net_allocs net_bytes phase ts_us",
            "{span:?}"
        );
    }
}

#[test]
fn explore_trace_carries_one_granularity_point_event_per_mapped_bar() {
    let dir = std::env::temp_dir().join("baton-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let model = tiny_model_file("explore-events.baton");
    let audit = dir.join("explore-events-audit.jsonl");
    let trace = dir.join("explore-events-trace.jsonl");
    let (ok, _, stderr) = baton(&[
        "explore",
        model.to_str().unwrap(),
        "--macs",
        "512",
        "--audit",
        audit.to_str().unwrap(),
        "--trace-json",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let feasible = records_where(&audit, "record", "geometry")
        .into_iter()
        .filter(|g| g["feasible"] == nn_baton::telemetry::json::Value::Bool(true))
        .count();
    let events = records_where(&trace, "event", "granularity_point");
    assert!(feasible > 0);
    assert_eq!(events.len(), feasible, "one event per mapped geometry");
    for ev in &events {
        assert_eq!(
            key_set(ev),
            "area_mm2 cycles dur_us energy_pj event lanes n_c n_p ts_us vector"
        );
    }
}

#[test]
fn sweep_explain_renders_the_pareto_provenance() {
    let model = tiny_model_file("sweep-explain.baton");
    let (ok, stdout, stderr) = baton(&[
        "sweep",
        model.to_str().unwrap(),
        "--macs",
        "512",
        "--explain",
        "--format",
        "json",
        "--top",
        "2",
    ]);
    assert!(ok, "{stderr}");
    let mut kinds = std::collections::BTreeMap::new();
    for line in stdout.lines().filter(|l| l.starts_with('{')) {
        let obj = nn_baton::telemetry::json::parse_flat_object(line)
            .unwrap_or_else(|e| panic!("bad explain line `{line}`: {e}"));
        *kinds
            .entry(obj["record"].as_str().unwrap().to_string())
            .or_insert(0u64) += 1;
    }
    assert_eq!(kinds.get("sweep"), Some(&1));
    assert!(
        kinds.get("front_member").copied().unwrap_or(0) > 0,
        "{kinds:?}"
    );
    assert!(
        kinds.get("eliminated").copied().unwrap_or(0) <= 2,
        "{kinds:?}"
    );

    // Text format mentions the front and the nearest misses.
    let (ok, stdout, stderr) = baton(&[
        "sweep",
        model.to_str().unwrap(),
        "--macs",
        "512",
        "--explain",
        "--top",
        "2",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Pareto front"), "{stdout}");
    assert!(stdout.contains("nearest misses"), "{stdout}");
}

#[test]
fn sweep_explain_and_audit_combine_in_one_invocation() {
    // `--explain` renders from the returned points while `--audit` streams
    // per-point records as the sweep runs — one invocation must serve both
    // consumers consistently: the provenance's point total is the audit's
    // point-record count.
    let dir = std::env::temp_dir().join("baton-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let model = tiny_model_file("sweep-explain-audit.baton");
    let audit = dir.join("sweep-explain-audit.jsonl");
    let (ok, stdout, stderr) = baton(&[
        "sweep",
        model.to_str().unwrap(),
        "--macs",
        "512",
        "--explain",
        "--top",
        "2",
        "--audit",
        audit.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("audit records"), "{stdout}");
    assert!(stdout.contains("Pareto front"), "{stdout}");

    let mut audit_points = 0u64;
    for line in std::fs::read_to_string(&audit).unwrap().lines() {
        let obj = nn_baton::telemetry::json::parse_flat_object(line)
            .unwrap_or_else(|e| panic!("bad audit line `{line}`: {e}"));
        if obj["record"].as_str() == Some("point") {
            audit_points += 1;
        }
    }
    assert!(audit_points > 0);
    // "sweep: N valid points, ..." from the explain header agrees with the
    // audit stream.
    let header = stdout
        .lines()
        .find(|l| l.starts_with("sweep: "))
        .expect("explain header");
    let n: u64 = header
        .strip_prefix("sweep: ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("unparseable header `{header}`"));
    assert_eq!(n, audit_points, "{stdout}");
}

#[test]
fn fidelity_snapshots_and_gates() {
    let dir = std::env::temp_dir().join("baton-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("fidelity.json");
    let (ok, stdout, stderr) = baton(&["fidelity", "alexnet", "--out", out.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("fidelity alexnet:"), "{stdout}");
    let text = std::fs::read_to_string(&out).unwrap();
    let snap = nn_baton::report::BenchSnapshot::parse(&text).expect("snapshot parses");
    assert_eq!(snap.nums.get("fidelity.models"), Some(&1.0));
    assert!(snap.nums.contains_key("fidelity.alexnet.conv1.rel_err"));
    assert!(snap.nums.contains_key("fidelity.max_abs_rel_err"));

    // An impossible bound in the baseline must fail the run; a generous one
    // must pass.
    let tight = dir.join("fidelity-tight.json");
    std::fs::write(
        &tight,
        "{\n  \"gate.max.fidelity.max_abs_rel_err\": 0.0001\n}\n",
    )
    .unwrap();
    let (ok, _, stderr) = baton(&["fidelity", "alexnet", "--baseline", tight.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("fidelity"), "{stderr}");

    let loose = dir.join("fidelity-loose.json");
    std::fs::write(
        &loose,
        "{\n  \"gate.max.fidelity.max_abs_rel_err\": 2.0\n}\n",
    )
    .unwrap();
    let (ok, stdout, stderr) =
        baton(&["fidelity", "alexnet", "--baseline", loose.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("ok"), "{stdout}");
}

#[test]
fn map_honors_the_divergence_tolerance_flag() {
    let dir = std::env::temp_dir().join("baton-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("divergence.json");
    let (ok, stdout, stderr) = baton(&[
        "map",
        "alexnet",
        "--trace-perfetto",
        trace.to_str().unwrap(),
        "--divergence-tol",
        "0.05",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("divergences > 5%"), "{stdout}");
    let (ok, _, stderr) = baton(&["map", "alexnet", "--divergence-tol", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("--divergence-tol"), "{stderr}");
}

#[test]
fn custom_model_file_maps_end_to_end() {
    let dir = std::env::temp_dir().join("baton-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("pipeline.baton");
    std::fs::write(
        &file,
        "model pipe @96\n\
         conv name=a in=96x96x3 k=3 s=2 p=1 co=16\n\
         pointwise name=b in=48x48x16 co=32\n\
         fc name=c ci=512 co=10\n",
    )
    .unwrap();
    let (ok, stdout, stderr) = baton(&["map", file.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("pipe: 3 layers"));
}
