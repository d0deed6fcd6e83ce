//! A small line-oriented model-description format.
//!
//! The paper obtains the model description by tracing PyTorch modules with
//! `torch.jit`; this parser is the self-contained substitute so user models
//! can be fed to the tool without a Python runtime. One layer per line:
//!
//! ```text
//! model demo @224
//! # comments and blank lines are ignored
//! conv      name=conv1 in=224x224x3  k=7 s=2 p=3 co=64
//! pointwise name=pw1   in=56x56x64   co=256
//! depthwise name=dw1   in=56x56x144  k=3 s=1 p=1
//! fc        name=fc    ci=2048 co=1000
//! ```
//!
//! ```
//! let text = "model demo @224\nconv name=c1 in=224x224x3 k=3 s=1 p=1 co=64\n";
//! let model = baton_model::parse_model(text)?;
//! assert_eq!(model.name(), "demo");
//! assert_eq!(model.layers()[0].co(), 64);
//! # Ok::<(), baton_model::ParseModelError>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::layer::{ConvSpec, ConvSpecBuilder, ShapeError};
use crate::model::{MacsOverflow, Model};

/// Errors produced while parsing a model description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseModelError {
    /// The first non-comment line must be `model <name> @<resolution>`.
    MissingHeader,
    /// A line could not be understood.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
    /// A layer line parsed but described an invalid shape.
    Shape {
        /// 1-based line number.
        line: usize,
        /// Underlying shape error.
        source: ShapeError,
    },
    /// Every layer parsed, but their MAC counts sum past `u64::MAX`.
    TotalMacs(MacsOverflow),
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseModelError::MissingHeader => {
                write!(
                    f,
                    "model description must start with `model <name> @<resolution>`"
                )
            }
            ParseModelError::Syntax { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ParseModelError::Shape { line, source } => {
                write!(f, "line {line}: invalid layer shape: {source}")
            }
            ParseModelError::TotalMacs(source) => write!(f, "{source}"),
        }
    }
}

impl std::error::Error for ParseModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseModelError::Shape { source, .. } => Some(source),
            ParseModelError::TotalMacs(source) => Some(source),
            _ => None,
        }
    }
}

/// Parses a model description; see the [module docs](self) for the format.
///
/// # Errors
///
/// Returns [`ParseModelError`] with a line number for any malformed line or
/// invalid layer shape, or [`ParseModelError::TotalMacs`] when the layers'
/// MAC counts sum past `u64::MAX`.
pub fn parse_model(text: &str) -> Result<Model, ParseModelError> {
    let mut header: Option<(String, u32)> = None;
    let mut layers = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let keyword = tokens.next().expect("non-empty line has a token");
        if header.is_none() {
            if keyword != "model" {
                return Err(ParseModelError::MissingHeader);
            }
            let name = tokens
                .next()
                .ok_or_else(|| syntax(line_no, "missing model name"))?;
            let res = tokens
                .next()
                .and_then(|t| t.strip_prefix('@'))
                .ok_or_else(|| syntax(line_no, "missing `@<resolution>`"))?;
            let res: u32 = res
                .parse()
                .map_err(|_| syntax(line_no, "resolution must be an integer"))?;
            header = Some((name.to_string(), res));
            continue;
        }

        let kv = parse_kv(tokens, line_no)?;
        let layer = build_layer(keyword, &kv, line_no)?;
        layers.push(layer);
    }

    let (name, resolution) = header.ok_or(ParseModelError::MissingHeader)?;
    Model::try_new(name, resolution, layers).map_err(ParseModelError::TotalMacs)
}

/// Renders a model back into the text description format, such that
/// `parse_model(&render_model(&m))` round-trips exactly.
///
/// Depthwise layers are emitted with the `depthwise` keyword; unpadded,
/// ungrouped point-wise layers with unit stride render as `fc` on a 1x1
/// plane and as `pointwise` otherwise; everything else as `conv` (with
/// `groups=` when grouped).
pub fn render_model(model: &Model) -> String {
    use crate::layer::LayerKind;
    let mut out = format!("model {} @{}\n", model.name(), model.input_resolution());
    for l in model.layers() {
        // What the `pointwise` and `fc` keywords build.
        let plain_1x1 = l.stride_h() == 1
            && l.stride_w() == 1
            && l.pad_h() == 0
            && l.pad_w() == 0
            && l.groups() == 1;
        let line = match l.kind() {
            LayerKind::Depthwise => format!(
                "depthwise name={} in={}x{}x{} k={} s={} p={}",
                l.name(),
                l.hi(),
                l.wi(),
                l.ci(),
                l.kh(),
                l.stride_h(),
                l.pad_h()
            ),
            LayerKind::Pointwise if plain_1x1 && l.hi() == 1 && l.wi() == 1 => {
                format!("fc name={} ci={} co={}", l.name(), l.ci(), l.co())
            }
            LayerKind::Pointwise if plain_1x1 => format!(
                "pointwise name={} in={}x{}x{} co={}",
                l.name(),
                l.hi(),
                l.wi(),
                l.ci(),
                l.co()
            ),
            _ => {
                let mut s = format!(
                    "conv name={} in={}x{}x{} k={} s={} p={} co={}",
                    l.name(),
                    l.hi(),
                    l.wi(),
                    l.ci(),
                    l.kh(),
                    l.stride_h(),
                    l.pad_h(),
                    l.co()
                );
                if l.groups() > 1 {
                    s.push_str(&format!(" groups={}", l.groups()));
                }
                s
            }
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn syntax(line: usize, message: impl Into<String>) -> ParseModelError {
    ParseModelError::Syntax {
        line,
        message: message.into(),
    }
}

fn parse_kv<'a>(
    tokens: impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<HashMap<&'a str, &'a str>, ParseModelError> {
    let mut kv = HashMap::new();
    for token in tokens {
        let (k, v) = token
            .split_once('=')
            .ok_or_else(|| syntax(line, format!("expected key=value, got `{token}`")))?;
        if kv.insert(k, v).is_some() {
            return Err(syntax(line, format!("duplicate key `{k}`")));
        }
    }
    Ok(kv)
}

fn get_u32(kv: &HashMap<&str, &str>, key: &str, line: usize) -> Result<u32, ParseModelError> {
    kv.get(key)
        .ok_or_else(|| syntax(line, format!("missing `{key}=`")))?
        .parse()
        .map_err(|_| syntax(line, format!("`{key}` must be an integer")))
}

fn get_u32_or(
    kv: &HashMap<&str, &str>,
    key: &str,
    default: u32,
    line: usize,
) -> Result<u32, ParseModelError> {
    match kv.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| syntax(line, format!("`{key}` must be an integer"))),
    }
}

/// Parses `HxWxC` into its three extents.
fn get_in(kv: &HashMap<&str, &str>, line: usize) -> Result<(u32, u32, u32), ParseModelError> {
    let raw = kv
        .get("in")
        .ok_or_else(|| syntax(line, "missing `in=HxWxC`"))?;
    let parts: Vec<&str> = raw.split('x').collect();
    if parts.len() != 3 {
        return Err(syntax(line, "`in` must be HxWxC"));
    }
    let mut dims = [0u32; 3];
    for (d, p) in dims.iter_mut().zip(&parts) {
        *d = p
            .parse()
            .map_err(|_| syntax(line, "`in` extents must be integers"))?;
    }
    Ok((dims[0], dims[1], dims[2]))
}

fn build_layer(
    keyword: &str,
    kv: &HashMap<&str, &str>,
    line: usize,
) -> Result<ConvSpec, ParseModelError> {
    let name = kv
        .get("name")
        .ok_or_else(|| syntax(line, "missing `name=`"))?
        .to_string();
    let shape = |e: ShapeError| ParseModelError::Shape { line, source: e };
    match keyword {
        "conv" => {
            let (hi, wi, ci) = get_in(kv, line)?;
            let k = get_u32(kv, "k", line)?;
            let s = get_u32_or(kv, "s", 1, line)?;
            let p = get_u32_or(kv, "p", 0, line)?;
            let co = get_u32(kv, "co", line)?;
            let groups = get_u32_or(kv, "groups", 1, line)?;
            ConvSpecBuilder::new(name, hi, wi, ci, co)
                .kernel(k, k)
                .stride(s, s)
                .padding(p, p)
                .groups(groups)
                .build()
                .map_err(shape)
        }
        "pointwise" => {
            let (hi, wi, ci) = get_in(kv, line)?;
            let co = get_u32(kv, "co", line)?;
            ConvSpec::pointwise(name, hi, wi, ci, co).map_err(shape)
        }
        "depthwise" => {
            let (hi, wi, ci) = get_in(kv, line)?;
            let k = get_u32(kv, "k", line)?;
            let s = get_u32_or(kv, "s", 1, line)?;
            let p = get_u32_or(kv, "p", 0, line)?;
            ConvSpec::depthwise(name, hi, wi, ci, k, s, p).map_err(shape)
        }
        "fc" => {
            let ci = get_u32(kv, "ci", line)?;
            let co = get_u32(kv, "co", line)?;
            ConvSpec::fully_connected(name, ci, co).map_err(shape)
        }
        other => Err(syntax(line, format!("unknown layer kind `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerKind;

    const DEMO: &str = "\
# a demo network
model demo @224

conv      name=conv1 in=224x224x3 k=7 s=2 p=3 co=64
pointwise name=pw1   in=56x56x64  co=256   # trailing comment
depthwise name=dw1   in=56x56x96  k=3 s=1 p=1
fc        name=fc    ci=2048 co=1000
";

    #[test]
    fn parses_demo_model() {
        let m = parse_model(DEMO).unwrap();
        assert_eq!(m.name(), "demo");
        assert_eq!(m.input_resolution(), 224);
        assert_eq!(m.layers().len(), 4);
        assert_eq!(m.layer("conv1").unwrap().ho(), 112);
        assert_eq!(m.layer("pw1").unwrap().kind(), LayerKind::Pointwise);
        assert_eq!(m.layer("dw1").unwrap().kind(), LayerKind::Depthwise);
        assert_eq!(m.layer("fc").unwrap().ci(), 2048);
    }

    #[test]
    fn defaults_stride_one_padding_zero() {
        let m = parse_model("model d @32\nconv name=c in=8x8x4 k=1 co=8\n").unwrap();
        let c = m.layer("c").unwrap();
        assert_eq!((c.stride_h(), c.pad_h()), (1, 0));
    }

    #[test]
    fn missing_header_is_an_error() {
        let err = parse_model("conv name=c in=8x8x4 k=1 co=8\n").unwrap_err();
        assert_eq!(err, ParseModelError::MissingHeader);
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse_model("model d @32\n\nconv name=c in=8x8 k=1 co=8\n").unwrap_err();
        match err {
            ParseModelError::Syntax { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_kind_and_duplicate_keys() {
        assert!(matches!(
            parse_model("model d @32\npool name=p in=8x8x4 k=2\n"),
            Err(ParseModelError::Syntax { .. })
        ));
        assert!(matches!(
            parse_model("model d @32\nconv name=c name=c2 in=8x8x4 k=1 co=8\n"),
            Err(ParseModelError::Syntax { .. })
        ));
    }

    #[test]
    fn shape_errors_carry_line_and_source() {
        let err = parse_model("model d @32\nconv name=c in=4x4x3 k=9 co=8\n").unwrap_err();
        match err {
            ParseModelError::Shape { line, source } => {
                assert_eq!(line, 2);
                assert!(matches!(source, crate::ShapeError::KernelTooLarge { .. }));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn display_of_errors_is_lowercase_and_precise() {
        let err = parse_model("model d @abc\n").unwrap_err();
        let s = err.to_string();
        assert!(s.contains("line 1"));
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn zoo_models_round_trip_through_the_text_format() {
        for model in [
            zoo::alexnet(224),
            zoo::vgg16(224),
            zoo::resnet50(224),
            zoo::darknet19(224),
            zoo::mobilenet_v2(224),
            zoo::yolo_v2(416),
        ] {
            let text = render_model(&model);
            let back = parse_model(&text).unwrap_or_else(|e| panic!("{}: {e}", model.name()));
            assert_eq!(back, model, "{}", model.name());
        }
    }

    #[test]
    fn rendered_text_is_human_shaped() {
        let text = render_model(&zoo::darknet19(224));
        assert!(text.starts_with("model darknet19 @224\n"));
        assert!(text.contains("conv name=conv1 in=224x224x3 k=3 s=1 p=1 co=32"));
        assert!(text.contains("pointwise name=conv4"));
    }
}
