//! Golden-file tests for the `baton explain` renderers.
//!
//! `explain_layer` runs the k-best search, then judges every buffer of the
//! winner with the C³P verdicts; the text report and the JSON lines carry
//! all of it (winner, loop nest, verdicts with each breakpoint, access
//! counts, energy, runner-ups). Both are held to committed golden files
//! byte for byte, on several zoo layers of the case-study accelerator and
//! on a starved machine (A-L2 2 KiB, A-L1 320 B) where penalties fire and
//! paths have several breakpoints. The search is bit-identical at any
//! worker count, so the rendered numbers are stable across machines.
//! Regenerate after an intentional format change with:
//!
//! ```text
//! BLESS=1 cargo test -p baton-report --test explain_golden
//! ```

use baton_arch::{presets, PackageConfig, Technology};
use baton_c3p::Objective;
use baton_model::zoo;
use baton_report::{explain_layer, Format, LayerExplanation};

const GOLDEN_TEXT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/explain.txt");
const GOLDEN_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/explain.jsonl");

/// Runner-ups kept per explanation.
const TOP: usize = 3;

/// The case-study accelerator with its activation buffers starved.
fn starved() -> PackageConfig {
    let mut arch = presets::case_study_accelerator();
    arch.chiplet.a_l2_bytes = 2 * 1024;
    arch.chiplet.core.a_l1_bytes = 320;
    arch
}

/// `(machine label, explanation)` for every fixture layer, in a fixed
/// order: alexnet conv1 (large stride), two resnet50 convolutions, a
/// depthwise layer and a fully-connected head on the case-study machine,
/// then three layers on the starved machine whose winners pay penalties.
fn explanations() -> Vec<(&'static str, LayerExplanation)> {
    let tech = Technology::paper_16nm();
    let case_study = presets::case_study_accelerator();
    let starved = starved();
    let (alexnet, resnet50, mobilenet, vgg16) = (
        zoo::alexnet(224),
        zoo::resnet50(224),
        zoo::mobilenet_v2(224),
        zoo::vgg16(224),
    );
    let (energy, runtime) = (Objective::Energy, Objective::Runtime);
    let layers = [
        ("case-study", &case_study, alexnet.layer("conv1"), energy),
        (
            "case-study",
            &case_study,
            resnet50.layer("res2a_branch2b"),
            energy,
        ),
        (
            "case-study",
            &case_study,
            resnet50.layer("res3a_branch2b"),
            energy,
        ),
        (
            "case-study",
            &case_study,
            mobilenet.layer("block2_dwise"),
            energy,
        ),
        ("case-study", &case_study, alexnet.layer("fc8"), energy),
        ("starved", &starved, alexnet.layer("fc6"), energy),
        ("starved", &starved, alexnet.layer("conv3"), runtime),
        ("starved", &starved, vgg16.layer("conv5_1"), runtime),
    ];
    layers
        .into_iter()
        .map(|(label, arch, layer, objective)| {
            let layer = layer.expect("fixture layer exists in the zoo");
            let ex = explain_layer(layer, arch, &tech, objective, TOP)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            (label, ex)
        })
        .collect()
}

/// Every explanation rendered in `format`, each preceded by a header line
/// naming its machine and layer.
fn render_all(format: Format) -> String {
    explanations()
        .iter()
        .map(|(label, ex)| format!("# {label} {}\n{}", ex.layer, ex.render(format)))
        .collect()
}

fn check_golden(rendered: &str, path: &str, what: &str) {
    if std::env::var("BLESS").is_ok() {
        std::fs::write(path, rendered).unwrap();
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{what} golden missing ({e}); regenerate with BLESS=1"));
    assert_eq!(
        rendered, golden,
        "{what} renderer drifted from {path}; if intentional, regenerate with BLESS=1"
    );
}

#[test]
fn starved_machine_fires_penalties_on_multi_breakpoint_paths() {
    // The starved fixtures must exercise what the case-study machine does
    // not: fired penalties, and paths with more than one breakpoint.
    let all = explanations();
    let starved: Vec<_> = all.iter().filter(|(l, _)| *l == "starved").collect();
    assert!(!starved.is_empty());
    for (_, ex) in starved {
        let verdicts = &ex.verdicts;
        assert!(
            verdicts.iter().any(|v| !v.penalty_free()),
            "{}: no penalty fired",
            ex.layer
        );
        assert!(
            verdicts.iter().any(|v| v.breakpoints.len() > 1),
            "{}: no path has several breakpoints",
            ex.layer
        );
    }
}

#[test]
fn text_rendering_matches_the_golden_file() {
    let text = render_all(Format::Text);
    assert_eq!(text.matches("\nlayer ").count(), 8, "{text}");
    check_golden(&text, GOLDEN_TEXT, "text");
}

#[test]
fn json_rendering_matches_the_golden_file() {
    let json = render_all(Format::Json);
    for line in json.lines().filter(|l| !l.starts_with('#')) {
        baton_telemetry::json::parse_flat_object(line)
            .unwrap_or_else(|e| panic!("unparseable JSON line ({e:?}): {line}"));
    }
    check_golden(&json, GOLDEN_JSON, "json");
}
