//! Property tests of the `.baton` model-description format: `parse_model`
//! never panics, whatever text it is given, and rendering a model, parsing
//! the text and rendering again gives the same text and the same model.

use baton_model::{
    parse_model, render_model, zoo, ConvSpec, ConvSpecBuilder, Model, ParseModelError,
};
use proptest::prelude::*;

/// Layer keywords, the unknown `pool` and the header keyword among them.
const KEYWORDS: [&str; 6] = ["conv", "pointwise", "depthwise", "fc", "pool", "model"];
/// Every key a layer line can carry.
const KEYS: [&str; 8] = ["name", "in", "k", "s", "p", "co", "ci", "groups"];
/// Scalar values, with the edges of `u32` and what no integer parses as.
const NUMBERS: [&str; 14] = [
    "0",
    "1",
    "2",
    "3",
    "7",
    "64",
    "224",
    "2147483647",
    "2147483648",
    "4294967295",
    "4294967296",
    "-1",
    "+3",
    "",
];
/// `in=` values: well-formed extents, the `u32` edge, extents whose
/// element counts overflow 64 bits (alone or with a large `co` or kernel),
/// and malformed ones.
const EXTENTS: [&str; 11] = [
    "8x8x3",
    "1x1x64",
    "224x224x3",
    "4294967295x8x3",
    "8x4294967295x3",
    "4294967295x4294967295x4294967295",
    "65536x65536x65536",
    "1048576x1048576x1",
    "8x8",
    "8x8x3x3",
    "axbxc",
];
/// Small values most layers accept, drawn as often as all the others.
const SMALL: [&str; 4] = ["1", "2", "3", "8"];
/// Header lines: the valid one and broken ones.
const HEADERS: [&str; 5] = [
    "model m @224",
    "model m @4294967296",
    "model m",
    "model @224",
    "conv name=c in=8x8x3 k=3 co=8",
];

/// One layer line: a keyword, then each key with a value, usually; a key
/// may also be left out, lose its `=` or repeat. Sometimes a trailing
/// comment.
fn layer_line() -> impl Strategy<Value = String> {
    (
        0..KEYWORDS.len(),
        proptest::collection::vec((0u8..16, 0..2 * NUMBERS.len()), KEYS.len()..KEYS.len() + 1),
        0u8..4,
    )
        .prop_map(|(kw, tokens, comment)| {
            let mut line = KEYWORDS[kw].to_string();
            for (key, (form, value)) in KEYS.iter().zip(tokens) {
                let value = match *key {
                    "in" if value < EXTENTS.len() => EXTENTS[value],
                    "in" => ["8x8x8", "16x12x4", "1x1x8"][value % 3],
                    "name" => ["c", "a=b", "x"][value % 3],
                    _ if value < NUMBERS.len() => NUMBERS[value],
                    _ => SMALL[value % SMALL.len()],
                };
                // 0: left out, 1: no `=`, 2: twice, otherwise once.
                let times = match form {
                    0 => 0,
                    2 => 2,
                    _ => 1,
                };
                for _ in 0..times {
                    line.push(' ');
                    line.push_str(key);
                    if form != 1 {
                        line.push('=');
                    }
                    line.push_str(value);
                }
            }
            if comment == 0 {
                line.push_str(" # note");
            }
            line
        })
}

/// Near-grammatical model text: a header (usually valid) and layer lines,
/// with blank lines, comments and CRLF endings mixed in.
fn model_text() -> impl Strategy<Value = String> {
    (
        0..HEADERS.len() * 2,
        proptest::collection::vec((layer_line(), 0u8..6), 0..4),
    )
        .prop_map(|(header, lines)| {
            let mut text = HEADERS.get(header).unwrap_or(&HEADERS[0]).to_string();
            for (line, sep) in lines {
                text.push_str(["\n", "\r\n", "\n\n", "\n# c\n", "\n", "\n"][usize::from(sep)]);
                text.push_str(&line);
            }
            text
        })
}

/// Extents from 1 to the top of `u32`, whose products reach past `u64`.
const EXTREMES: [u32; 7] = [1, 3, 64, 65_536, 1 << 20, i32::MAX as u32, u32::MAX];

/// How often a drawn layer line repeats: enough copies of a large layer
/// push the model's MAC total past `u64`, though each layer fits.
const REPEATS: [usize; 4] = [1, 2, 64, 1024];

/// Grammatical model text whose layers take extreme extents, each line
/// repeated up to 1024 times: every count of a layer it accepts, and the
/// model's MAC total, must fit a `u64`.
fn extreme_model_text() -> impl Strategy<Value = String> {
    let extent = || 0..EXTREMES.len();
    proptest::collection::vec(
        (
            0u8..4,
            (extent(), extent(), extent()),
            extent(),
            (0u32..2, 1u32..=2),
            0..REPEATS.len(),
        ),
        1..4,
    )
    .prop_map(|layers| {
        let mut text = "model m @224\n".to_string();
        for (kind, (h, w, c), co, (k, s), repeat) in layers {
            let (h, w, c, co) = (EXTREMES[h], EXTREMES[w], EXTREMES[c], EXTREMES[co]);
            let k = 2 * k + 1;
            let line = match kind {
                0 => format!("conv name=c in={h}x{w}x{c} k={k} s={s} co={co}\n"),
                1 => format!("pointwise name=p in={h}x{w}x{c} co={co}\n"),
                2 => format!("depthwise name=d in={h}x{w}x{c} k={k} s={s}\n"),
                _ => format!("fc name=f ci={c} co={co}\n"),
            };
            text.push_str(&line.repeat(REPEATS[repeat]));
        }
        text
    })
}

/// [`check_parsed`] for [`extreme_model_text`], which also knows why a
/// model was refused: a refusal of the MAC total means every layer line
/// parses alone and their MACs sum past `u64`; otherwise some line fails.
fn check_extreme(text: &str) -> Result<(), TestCaseError> {
    check_parsed(text)?;
    let (header, lines) = text.split_once('\n').unwrap();
    let mut layers_fit = true;
    let mut total = 0u128;
    let mut lines = lines.lines().peekable();
    while let Some(line) = lines.next() {
        let mut copies = 1;
        while lines.next_if_eq(&line).is_some() {
            copies += 1;
        }
        match parse_model(&format!("{header}\n{line}\n")) {
            Ok(alone) => total += copies * u128::from(alone.total_macs()),
            Err(_) => layers_fit = false,
        }
    }
    match parse_model(text) {
        Ok(_) => prop_assert!(layers_fit && total <= u128::from(u64::MAX)),
        Err(ParseModelError::TotalMacs(_)) => {
            prop_assert!(layers_fit && total > u128::from(u64::MAX), "{}", total)
        }
        Err(_) => prop_assert!(!layers_fit),
    }
    Ok(())
}

/// Arbitrary text over ASCII and the first few Unicode blocks (whitespace,
/// control characters and multi-byte characters included).
fn raw_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x2100, 0..96)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

/// The zoo models the format round-trips.
fn zoo_models() -> [Model; 6] {
    [
        zoo::alexnet(224),
        zoo::vgg16(224),
        zoo::resnet50(224),
        zoo::darknet19(224),
        zoo::mobilenet_v2(224),
        zoo::yolo_v2(416),
    ]
}

/// A zoo model's rendering with up to eight bytes replaced, deleted or
/// inserted, decoded lossily.
fn mutated_zoo_text() -> impl Strategy<Value = String> {
    (
        0usize..6,
        proptest::collection::vec((0u32..u32::MAX, 0u8..3, 0u8..=255), 1..9),
    )
        .prop_map(|(model, edits)| {
            let mut bytes = render_model(&zoo_models()[model]).into_bytes();
            for (at, op, byte) in edits {
                let at = at as usize % (bytes.len() + 1);
                match op {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, byte),
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        })
}

/// Every count of an accepted layer is exact: its `u64` value is the
/// product of its extents taken in 128 bits (a debug build also panics on
/// a wrapping product), and so is the partial-sum volume.
fn check_counts(l: &ConvSpec) -> Result<(), TestCaseError> {
    let product = |fs: &[u32]| fs.iter().map(|&f| u128::from(f)).product::<u128>();
    let macs = product(&[l.ho(), l.wo(), l.co(), l.kh(), l.kw(), l.ci_per_group()]);
    prop_assert_eq!(u128::from(l.macs()), macs);
    prop_assert!(macs * 24 <= u128::from(u64::MAX), "{}", l);
    let weights = product(&[l.kh(), l.kw(), l.ci_per_group(), l.co()]);
    prop_assert_eq!(u128::from(l.weight_bits()), weights * 8);
    prop_assert_eq!(
        u128::from(l.input_bits()),
        product(&[l.hi(), l.wi(), l.ci()]) * 8
    );
    prop_assert_eq!(
        u128::from(l.output_bits()),
        product(&[l.ho(), l.wo(), l.co()]) * 8
    );
    Ok(())
}

/// Whatever `text` parses to renders to text that parses to it again, and
/// its layers' counts are exact.
fn check_parsed(text: &str) -> Result<(), TestCaseError> {
    if let Ok(model) = parse_model(text) {
        for layer in model.layers() {
            check_counts(layer)?;
        }
        let macs = model.layers().iter().map(|l| u128::from(l.macs()));
        prop_assert_eq!(u128::from(model.total_macs()), macs.sum::<u128>());
        let rendered = render_model(&model);
        let back = parse_model(&rendered)
            .map_err(|e| TestCaseError::fail(format!("{e} in {rendered:?}")))?;
        prop_assert_eq!(back, model, "{}", rendered);
    }
    Ok(())
}

/// A layer the format can express: a square-kernel conv (grouped or
/// not), a point-wise layer, a depthwise layer or a fully-connected one.
fn layer() -> impl Strategy<Value = ConvSpec> {
    (
        0u8..4,
        (1u32..=40, 1u32..=40),
        (1u32..=48, 1u32..=48),
        (1u32..=7, 1u32..=4, 0u32..=3),
        1u32..=8,
    )
        .prop_filter_map(
            "a valid shape",
            |(kind, (hi, wi), (ci, co), (k, s, p), groups)| {
                match kind {
                    0 => {
                        let groups = if ci % groups == 0 && co % groups == 0 {
                            groups
                        } else {
                            1
                        };
                        ConvSpecBuilder::new("l", hi, wi, ci, co)
                            .kernel(k, k)
                            .stride(s, s)
                            .padding(p, p)
                            .groups(groups)
                            .build()
                    }
                    1 => ConvSpec::pointwise("l", hi, wi, ci, co),
                    2 => ConvSpec::depthwise("l", hi, wi, ci, k, s, p),
                    _ => ConvSpec::fully_connected("l", ci, co),
                }
                .ok()
            },
        )
}

/// A model of up to ten such layers (the format does not require unique
/// layer names).
fn model() -> impl Strategy<Value = Model> {
    (1u32..=512, proptest::collection::vec(layer(), 0..10))
        .prop_map(|(res, layers)| Model::new("generated", res, layers))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn parsing_near_grammatical_text_never_panics(text in model_text()) {
        check_parsed(&text)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn extreme_extents_never_wrap_a_count(text in extreme_model_text()) {
        check_extreme(&text)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parsing_arbitrary_text_never_panics(text in raw_text()) {
        check_parsed(&text)?;
    }

    #[test]
    fn parsing_corrupted_zoo_renderings_never_panics(text in mutated_zoo_text()) {
        check_parsed(&text)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_parse_render_is_the_identity(model in model()) {
        let text = render_model(&model);
        let back = parse_model(&text)
            .map_err(|e| TestCaseError::fail(format!("{e} in {text:?}")))?;
        prop_assert_eq!(render_model(&back), text.clone());
        prop_assert_eq!(back, model, "{}", text);
    }
}
