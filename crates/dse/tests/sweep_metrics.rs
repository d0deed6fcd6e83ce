//! Pins the labelled metrics one pre-design sweep observes: one
//! whole-sweep sample and one sample per `(geometry, O-L1)` unit, both
//! under `flow="full"`, plus the end-of-sweep throughput gauge.
//!
//! The metrics registry is process-global, so this binary holds one test.

use baton_arch::Technology;
use baton_dse::{full_sweep, SweepOptions};
use baton_model::{ConvSpec, Model};
use baton_telemetry::metrics::{self, MetricKind, SeriesValue};

#[test]
fn a_full_sweep_observes_its_duration_and_each_unit() {
    let model = Model::new(
        "metric-model",
        32,
        vec![ConvSpec::new("c", 32, 32, 8, 3, 1, 1, 16).unwrap()],
    );
    let mut opts = SweepOptions {
        total_macs: 512,
        ..SweepOptions::default()
    };
    opts.space.memory.o_l1 = vec![48, 96, 144];
    let units = opts.space.compute.geometries_for(opts.total_macs).len() * 3;
    assert!(units > 0);

    metrics::reset();
    metrics::enable();
    let points = full_sweep(&model, &Technology::paper_16nm(), &opts);
    let snap = metrics::registry().snapshot();
    metrics::reset();

    let series = |name: &str| {
        let family = snap
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no `{name}` family"));
        assert_eq!(family.series.len(), 1, "{name}: {:?}", family.series);
        let (labels, value) = &family.series[0];
        assert_eq!(labels, &[("flow", "full".to_string())], "{name}");
        (family.kind, value.clone())
    };
    let samples = |name: &str| match series(name) {
        (MetricKind::Histogram, SeriesValue::Histogram(h)) => h.count(),
        other => panic!("{name} must be a histogram, got {other:?}"),
    };
    assert_eq!(samples("baton_sweep_duration_seconds"), 1);
    assert_eq!(samples("baton_sweep_unit_duration_seconds"), units as u64);
    match series("baton_sweep_points_per_second") {
        (MetricKind::Gauge, SeriesValue::Gauge(rate)) => {
            assert!(rate > 0.0 || points.is_empty(), "{rate}")
        }
        other => panic!("the points/s gauge must be a gauge, got {other:?}"),
    }
}
