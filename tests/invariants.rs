//! Property-based tests on the framework's core invariants, driven by
//! randomized layers, machines and mappings.

use nn_baton::c3p;
use nn_baton::c3p::reference::{AccessProfile, Breakpoint};
use nn_baton::mapping::{decompose, enumerate};
use nn_baton::model::{planar_redundancy, PlanarGrid};
use nn_baton::prelude::*;
use proptest::prelude::*;

/// A bounded random convolution layer.
fn arb_layer() -> impl Strategy<Value = ConvSpec> {
    (
        8u32..=64, // hi == wi
        1u32..=64, // ci
        prop_oneof![Just(1u32), Just(3), Just(5), Just(7)],
        1u32..=2,   // stride
        4u32..=128, // co
    )
        .prop_filter_map("kernel fits", |(hw, ci, k, s, co)| {
            let pad = k / 2;
            ConvSpec::new("prop", hw, hw, ci, k, s, pad, co).ok()
        })
}

/// A bounded random machine around the case-study scale.
fn arb_arch() -> impl Strategy<Value = PackageConfig> {
    (
        prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        prop_oneof![Just(2u32), Just(4), Just(8)],
        prop_oneof![Just(4u32), Just(8), Just(16)],
        prop_oneof![Just(4u32), Just(8)],
        1u64..=4,
    )
        .prop_map(|(np, nc, l, p, mem_scale)| {
            let core =
                nn_baton::arch::CoreConfig::new(l, p, 1536, 800 * mem_scale, 18 * 1024 * mem_scale);
            let chiplet =
                nn_baton::arch::ChipletConfig::new(nc, core, 64 * 1024 * mem_scale, 64 * 1024);
            PackageConfig::new(np, chiplet)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tiling never loses or duplicates output work: the loop structure
    /// covers at least the whole output cube (ceil rounding may add idle
    /// slots but never drops work), and every resolved DRAM read covers the
    /// unique tensor volumes.
    #[test]
    fn dram_reads_cover_unique_volumes(layer in arb_layer(), arch in arb_arch()) {
        let tech = Technology::paper_16nm();
        if let Ok(ev) = search_layer(&layer, &arch, &tech, Objective::Energy) {
            // Strided 1x1 convolutions subsample the input, so the floor is
            // the consumed volume (one window element per output position),
            // not the full input tensor.
            let consumed_floor =
                u64::from(layer.ho()) * u64::from(layer.wo()) * u64::from(layer.ci()) * 8
                    / u64::from(arch.chiplets).max(1);
            prop_assert!(ev.access.dram_input_bits >= consumed_floor);
            prop_assert!(ev.access.dram_weight_bits >= layer.weight_bits());
            prop_assert_eq!(ev.access.dram_output_bits, layer.output_bits());
            prop_assert!(ev.access.mac_ops == layer.macs());
        }
    }

    /// A-L2 fills are exactly the sum of DRAM- and ring-sourced arrivals
    /// (conservation at the chiplet boundary).
    #[test]
    fn input_arrival_conservation(layer in arb_layer(), arch in arb_arch()) {
        let tech = Technology::paper_16nm();
        for m in enumerate::candidates(&layer, &arch).into_iter().take(12) {
            if let Ok(d) = decompose(&layer, &arch, &m) {
                let v = &d.volumes;
                prop_assert_eq!(
                    v.a_l2_fill_base,
                    v.dram_input_base + v.d2d_input_base,
                    "mapping {}", m
                );
                let _ = c3p::evaluate_decomposition(&d, &arch, &tech, &m);
            }
        }
    }

    /// Footprint tables are monotone outward and aligned with the nest.
    #[test]
    fn footprints_monotone(layer in arb_layer(), arch in arb_arch()) {
        for m in enumerate::candidates(&layer, &arch).into_iter().take(12) {
            if let Ok(d) = decompose(&layer, &arch, &m) {
                prop_assert_eq!(d.footprints.chiplet_input.len(), d.nest.len() + 1);
                for w in d.footprints.chiplet_input.windows(2) {
                    prop_assert!(w[0] <= w[1]);
                }
                for w in d.footprints.stream_weight.windows(2) {
                    prop_assert!(w[0] <= w[1]);
                }
                for w in d.footprints.core_input.windows(2) {
                    prop_assert!(w[0] <= w[1]);
                }
            }
        }
    }

    /// Access profiles are monotone non-increasing in buffer capacity.
    #[test]
    fn profile_monotonicity(
        base in 1u64..1_000_000,
        caps in proptest::collection::vec((1u64..1_000_000, 2u64..64), 0..6)
    ) {
        let bps: Vec<Breakpoint> = caps
            .iter()
            .map(|&(c, m)| Breakpoint { min_capacity_bits: c, multiplier: m })
            .collect();
        let p = AccessProfile::new(base, bps);
        let mut last = u64::MAX;
        for cap in [0u64, 1 << 8, 1 << 12, 1 << 16, 1 << 20, u64::MAX] {
            let a = p.access_bits(cap);
            prop_assert!(a <= last);
            last = a;
        }
        prop_assert_eq!(p.access_bits(u64::MAX), base);
    }

    /// Bigger buffers never increase any resolved access path.
    #[test]
    fn capacity_monotonicity_end_to_end(layer in arb_layer()) {
        let tech = Technology::paper_16nm();
        let small = presets::case_study_accelerator();
        let mut big = small;
        big.chiplet.core.a_l1_bytes *= 4;
        big.chiplet.core.w_l1_bytes *= 4;
        big.chiplet.a_l2_bytes *= 4;
        for m in enumerate::candidates(&layer, &small).into_iter().take(8) {
            let (Ok(evs), Ok(evb)) = (
                c3p::evaluate(&layer, &small, &tech, &m),
                c3p::evaluate(&layer, &big, &tech, &m),
            ) else { continue };
            prop_assert!(evb.access.dram_input_bits <= evs.access.dram_input_bits);
            prop_assert!(evb.access.dram_weight_bits <= evs.access.dram_weight_bits);
            prop_assert!(evb.access.d2d_bits <= evs.access.d2d_bits);
            prop_assert!(evb.access.a_l2_bits <= evs.access.a_l2_bits);
        }
    }

    /// Planar tiling geometry: fetched >= unique, single tile is exact, and
    /// refining the grid never reduces the fetched volume.
    #[test]
    fn halo_geometry(layer in arb_layer(), r in 1u32..8, c in 1u32..8) {
        let one = planar_redundancy(&layer, PlanarGrid::new(1, 1));
        prop_assert_eq!(one.fetched_elems, one.unique_elems);
        // Halo semantics assume no subsampling: when the stride exceeds the
        // kernel, tiling legitimately skips input rows/columns between
        // windows and can fetch *less* than the single-window span.
        if layer.stride_h() <= layer.kh() && layer.stride_w() <= layer.kw() {
            let grid = planar_redundancy(&layer, PlanarGrid::new(r, c));
            prop_assert!(grid.fetched_elems >= grid.unique_elems);
            let finer = planar_redundancy(&layer, PlanarGrid::new(r * 2, c * 2));
            prop_assert!(finer.fetched_elems >= grid.fetched_elems);
        }
    }

    /// The DES is deterministic and never beats the compute critical path
    /// by more than the discretization slack.
    #[test]
    fn des_sanity(layer in arb_layer()) {
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        if let Ok(best) = search_layer(&layer, &arch, &tech, Objective::Energy) {
            let a = simulate(&layer, &arch, &tech, &best.mapping).unwrap();
            let b = simulate(&layer, &arch, &tech, &best.mapping).unwrap();
            prop_assert_eq!(a, b);
            prop_assert!(a.total_cycles + a.tiles_per_chiplet >= best.compute_cycles);
            prop_assert!(a.utilization <= 1.0);
        }
    }

    /// The search winner is optimal within its own candidate set.
    #[test]
    fn search_optimality(layer in arb_layer()) {
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        if let Ok(best) = search_layer(&layer, &arch, &tech, Objective::Energy) {
            for m in enumerate::candidates(&layer, &arch).into_iter().take(16) {
                if let Ok(ev) = c3p::evaluate(&layer, &arch, &tech, &m) {
                    prop_assert!(best.energy.total_pj() <= ev.energy.total_pj() + 1e-6);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The functional simulator agrees bit-exactly with the reference
    /// convolution for randomly drawn layers and mappings — the orchestration
    /// is semantics-preserving, not just count-preserving.
    #[test]
    fn mapped_execution_is_bit_exact(layer in arb_small_layer(), pick in 0usize..64) {
        use nn_baton::func::{reference_conv, run_mapping, Tensor3, Tensor4};
        let arch = presets::case_study_accelerator();
        let input = Tensor3::counting(layer.hi(), layer.wi(), layer.ci());
        let weights =
            Tensor4::counting(layer.kh(), layer.kw(), layer.ci_per_group(), layer.co());
        let golden = reference_conv(&layer, &input, &weights, 6);
        let cands = enumerate::candidates(&layer, &arch);
        if cands.is_empty() {
            return Ok(());
        }
        let m = cands[pick % cands.len()];
        if decompose(&layer, &arch, &m).is_ok() {
            let got = run_mapping(&layer, &arch, &m, &input, &weights, 6)
                .expect("feasible mapping executes");
            prop_assert_eq!(got, golden, "{}", m);
        }
    }

    /// The coverage verifier agrees with the functional executor: any
    /// decomposable mapping is an exact partition of the output cube.
    #[test]
    fn decomposable_mappings_partition_exactly(layer in arb_small_layer(), pick in 0usize..64) {
        use nn_baton::mapping::verify_coverage;
        let arch = presets::case_study_accelerator();
        let cands = enumerate::candidates(&layer, &arch);
        if cands.is_empty() {
            return Ok(());
        }
        let m = cands[pick % cands.len()];
        if decompose(&layer, &arch, &m).is_ok() {
            let cov = verify_coverage(&layer, &arch, &m);
            prop_assert!(cov.is_exact(), "{}: {:?}", m, cov);
            prop_assert_eq!(cov.total, layer.output_elems());
        }
    }
}

/// A small random layer for the exhaustive functional checks.
fn arb_small_layer() -> impl Strategy<Value = ConvSpec> {
    (
        6u32..=16,
        1u32..=12,
        prop_oneof![Just(1u32), Just(3), Just(5)],
        1u32..=2,
        4u32..=24,
    )
        .prop_filter_map("kernel fits", |(hw, ci, k, s, co)| {
            ConvSpec::new("fprop", hw, hw, ci, k, s, k / 2, co).ok()
        })
}

// ---------------------------------------------------------------------------
// Response-cache key canonicalization (`serve::cache_key_for`)
// ---------------------------------------------------------------------------

/// The `config.layer` field as a client can spell it: a JSON number, a
/// numeric string (same selection as the number), or a layer name.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LayerField {
    Index(u32),
    NumStr(u32),
    Name(&'static str),
}

/// One semantic mapping request, fields optional exactly where the HTTP
/// body may omit them.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MapFields {
    model: &'static str,
    res: Option<u32>,
    top: Option<usize>,
    objective: Option<&'static str>,
    layer: Option<LayerField>,
}

impl MapFields {
    /// The request with defaults applied and layer spelling collapsed —
    /// the independent oracle for "same work": two bodies must share a
    /// cache key iff their canonical forms compare equal.
    fn canonical(&self) -> (String, u32, usize, &'static str, String) {
        let layer = match &self.layer {
            None => "*".to_string(),
            Some(LayerField::Index(i) | LayerField::NumStr(i)) => format!("#{i}"),
            Some(LayerField::Name(n)) => format!("n:{n}"),
        };
        (
            self.model.to_string(),
            self.res.unwrap_or(224),
            self.top.unwrap_or(3),
            self.objective.unwrap_or("energy"),
            layer,
        )
    }
}

fn arb_map_fields() -> impl Strategy<Value = MapFields> {
    (0usize..6, 0usize..6, 0usize..5, 0usize..4, 0usize..8).prop_map(
        |(model, res, top, objective, layer)| MapFields {
            model: [
                "alexnet",
                "vgg16",
                "resnet50",
                "darknet19",
                "mobilenet_v2",
                "yolo_v2",
            ][model],
            res: (res > 0).then(|| [32, 64, 224, 1000, 4096][res - 1]),
            top: (top > 0).then(|| [1, 3, 7, 100][top - 1]),
            objective: (objective > 0).then(|| ["energy", "edp", "runtime"][objective - 1]),
            layer: match layer {
                0 | 1 => None,
                2 => Some(LayerField::Index(0)),
                3 => Some(LayerField::Index(7)),
                4 => Some(LayerField::NumStr(0)),
                5 => Some(LayerField::NumStr(7)),
                6 => Some(LayerField::Name("conv1")),
                _ => Some(LayerField::Name("fire_x")),
            },
        },
    )
}

/// Renders `fields` as a JSON body. `perm` rotates the config field
/// order; `style` bits toggle spelled-out defaults, extra whitespace, and
/// model-before/after-config — every spelling a well-behaved client might
/// produce for the same request.
fn render_body(fields: &MapFields, perm: usize, style: usize) -> String {
    let spell = style & 1 != 0;
    let pad = if style & 2 != 0 { " " } else { "" };
    let model_first = style & 4 == 0;

    let mut cfg: Vec<String> = Vec::new();
    match fields.res {
        Some(r) => cfg.push(format!("\"res\":{pad}{r}")),
        None if spell => cfg.push(format!("\"res\":{pad}224")),
        None => {}
    }
    match fields.top {
        Some(t) => cfg.push(format!("\"top\":{pad}{t}")),
        None if spell => cfg.push(format!("\"top\":{pad}3")),
        None => {}
    }
    match fields.objective {
        Some(o) => cfg.push(format!("\"objective\":{pad}\"{o}\"")),
        None if spell => cfg.push(format!("\"objective\":{pad}\"energy\"")),
        None => {}
    }
    // `layer` has no spelled default: omission means "all layers".
    match &fields.layer {
        Some(LayerField::Index(i)) => cfg.push(format!("\"layer\":{pad}{i}")),
        Some(LayerField::NumStr(i)) => cfg.push(format!("\"layer\":{pad}\"{i}\"")),
        Some(LayerField::Name(n)) => cfg.push(format!("\"layer\":{pad}\"{n}\"")),
        None => {}
    }
    if !cfg.is_empty() {
        let shift = perm % cfg.len();
        cfg.rotate_left(shift);
    }

    let model = format!("\"model\":{pad}\"{}\"", fields.model);
    let mut parts = Vec::new();
    if model_first {
        parts.push(model.clone());
    }
    // An empty config object and a missing one must mean the same thing;
    // emit the empty object only sometimes.
    if !cfg.is_empty() || spell {
        parts.push(format!(
            "\"config\":{pad}{{{pad}{}{pad}}}",
            cfg.join(&format!(",{pad}"))
        ));
    }
    if !model_first {
        parts.push(model);
    }
    format!("{{{pad}{}{pad}}}", parts.join(&format!(",{pad}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Spelling does not split the cache: bodies differing only in field
    /// order, whitespace, spelled-out defaults, or numeric-string layer
    /// indices produce the same key.
    #[test]
    fn cache_keys_ignore_request_spelling(
        fields in arb_map_fields(),
        perm in 0usize..8,
        style in 0usize..8,
        style2 in 0usize..8,
    ) {
        let plain = render_body(&fields, 0, 0);
        let styled = render_body(&fields, perm, style);
        let restyled = render_body(&fields, perm.wrapping_add(3), style2);
        let key = nn_baton::serve::cache_key_for("/map", &plain)
            .expect("rendered body parses");
        prop_assert_eq!(
            &key,
            &nn_baton::serve::cache_key_for("/map", &styled).unwrap(),
            "plain={} styled={}", plain, styled
        );
        prop_assert_eq!(
            &key,
            &nn_baton::serve::cache_key_for("/map", &restyled).unwrap(),
            "plain={} restyled={}", plain, restyled
        );
    }

    /// Semantics drive the key: two requests share a key iff their
    /// canonical (defaults-applied) forms are equal — a semantic
    /// difference in any field always separates them.
    #[test]
    fn cache_keys_separate_distinct_requests(
        a in arb_map_fields(),
        b in arb_map_fields(),
        style_a in 0usize..8,
        style_b in 0usize..8,
    ) {
        let key_a = nn_baton::serve::cache_key_for("/map", &render_body(&a, 1, style_a)).unwrap();
        let key_b = nn_baton::serve::cache_key_for("/map", &render_body(&b, 2, style_b)).unwrap();
        prop_assert_eq!(
            key_a == key_b,
            a.canonical() == b.canonical(),
            "a={:?} b={:?}", a, b
        );
        // The endpoint is part of the key.
        let other = nn_baton::serve::cache_key_for("/explain", &render_body(&a, 1, style_a)).unwrap();
        prop_assert_ne!(key_a, other);
    }
}
