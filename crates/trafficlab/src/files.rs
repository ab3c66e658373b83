//! Scenario files: the TOML codec for [`ScenarioSpec`], and the built-in
//! scenario book — which is itself data under `examples/scenarios/`.
//!
//! A scenario file is a small TOML(-subset, see [`speclang::toml`]) document
//! whose string fields are spec-language values:
//!
//! ```toml
//! name = "smoke"
//! description = "every registry scheme exercised once at n = 1024"
//!
//! [[case]]
//! graph = "random?n=1024&seed=0xC5A"
//! workload = "uniform?messages=20000&seed=1"
//! schemes = ["table", "tree", "interval", "landmark"]
//! block_rows = 0          # optional engine knob (0 = engine default)
//! churn = "churn?kill=0.01&rounds=8"   # optional failure/repair axis
//! ```
//!
//! `ScenarioSpec::parse_toml` and `ScenarioSpec::to_toml` are inverse up to
//! canonicalization (`parse_toml ∘ to_toml = id`, pinned by round-trip
//! tests), and unknown keys are rejected rather than ignored so a typo'd
//! knob cannot silently run the default.
//!
//! The built-in scenarios ([`builtin_scenarios`], what `named_scenarios()`
//! returns) are embedded from their files at compile time via
//! `include_str!` — the TOML files under `examples/scenarios/` *are* the
//! single source of truth, not a rendering of in-code definitions.

use crate::churn::ChurnSpec;
use crate::scenario::{CaseSpec, GraphSpec, ScenarioSpec, StretchMode};
use crate::workload::WorkloadSpec;
use routeschemes::SchemeSpec;
use speclang::toml::{self, escape_str, Section, TomlError, Value};

/// Why a scenario file failed to load.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioFileError {
    /// The text is not valid TOML(-subset).
    Toml(TomlError),
    /// The TOML is well formed but does not describe a scenario: a missing
    /// or mistyped field, an unknown key, or a spec string that fails its
    /// codec.  `context` names where (`case 2, field 'graph'`).
    Scenario { context: String, message: String },
}

impl std::fmt::Display for ScenarioFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioFileError::Toml(e) => write!(f, "{e}"),
            ScenarioFileError::Scenario { context, message } => {
                write!(f, "{context}: {message}")
            }
        }
    }
}

impl std::error::Error for ScenarioFileError {}

impl From<TomlError> for ScenarioFileError {
    fn from(e: TomlError) -> Self {
        ScenarioFileError::Toml(e)
    }
}

fn bad<T>(
    context: impl Into<String>,
    message: impl std::fmt::Display,
) -> Result<T, ScenarioFileError> {
    Err(ScenarioFileError::Scenario {
        context: context.into(),
        message: message.to_string(),
    })
}

fn require_str<'a>(
    table: &'a toml::Table,
    key: &str,
    context: &str,
) -> Result<&'a str, ScenarioFileError> {
    match table.get(key) {
        Some(v) => v.as_str().ok_or(()).or_else(|_| {
            bad(
                context,
                format!("'{key}' must be a string, got {}", v.type_name()),
            )
        }),
        None => bad(context, format!("missing required key '{key}'")),
    }
}

impl ScenarioSpec {
    /// Parses a scenario file.
    pub fn parse_toml(text: &str) -> Result<ScenarioSpec, ScenarioFileError> {
        let doc = toml::parse(text)?;
        let root_ctx = "scenario";
        for key in doc.root.keys() {
            if !matches!(key, "name" | "description") {
                return bad(
                    root_ctx,
                    format!("unknown key '{key}' (valid: name, description)"),
                );
            }
        }
        let name = require_str(&doc.root, "name", root_ctx)?.to_string();
        let description = match doc.root.get("description") {
            Some(v) => v
                .as_str()
                .ok_or(())
                .or_else(|_| {
                    bad(
                        root_ctx,
                        format!("'description' must be a string, got {}", v.type_name()),
                    )
                })?
                .to_string(),
            None => String::new(),
        };
        let mut cases = Vec::new();
        for section in &doc.sections {
            if !(section.is_array && section.name == "case") {
                return bad(
                    format!("section at line {}", section.line),
                    format!(
                        "unknown section '[{}]' (only [[case]] is valid)",
                        section.name
                    ),
                );
            }
            cases.push(parse_case(section, cases.len() + 1)?);
        }
        if cases.is_empty() {
            return bad(root_ctx, "a scenario needs at least one [[case]]");
        }
        Ok(ScenarioSpec {
            name,
            description,
            cases,
        })
    }

    /// Renders the scenario as a canonical TOML scenario file;
    /// `parse_toml` of the result reproduces `self` exactly.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("name = \"{}\"\n", escape_str(&self.name)));
        if !self.description.is_empty() {
            out.push_str(&format!(
                "description = \"{}\"\n",
                escape_str(&self.description)
            ));
        }
        for case in &self.cases {
            out.push_str("\n[[case]]\n");
            out.push_str(&format!(
                "graph = \"{}\"\n",
                escape_str(&case.graph.spec_string())
            ));
            out.push_str(&format!(
                "workload = \"{}\"\n",
                escape_str(&case.workload.spec_string())
            ));
            let schemes: Vec<String> = case
                .schemes
                .iter()
                .map(|s| format!("\"{}\"", escape_str(&s.spec_string())))
                .collect();
            out.push_str(&format!("schemes = [{}]\n", schemes.join(", ")));
            if case.block_rows != 0 {
                out.push_str(&format!("block_rows = {}\n", case.block_rows));
            }
            if let Some(churn) = &case.churn {
                out.push_str(&format!(
                    "churn = \"{}\"\n",
                    escape_str(&churn.spec_string())
                ));
            }
            if case.stretch != StretchMode::Auto {
                out.push_str(&format!(
                    "stretch = \"{}\"\n",
                    escape_str(&case.stretch.spec_string())
                ));
            }
            if case.verify {
                out.push_str("verify = true\n");
            }
        }
        out
    }
}

fn parse_case(section: &Section, index: usize) -> Result<CaseSpec, ScenarioFileError> {
    let ctx = format!("case {index} (line {})", section.line);
    let table = &section.table;
    for key in table.keys() {
        if !matches!(
            key,
            "graph" | "workload" | "schemes" | "block_rows" | "churn" | "stretch" | "verify"
        ) {
            return bad(
                &ctx,
                format!(
                    "unknown key '{key}' \
                     (valid: graph, workload, schemes, block_rows, churn, stretch, verify)"
                ),
            );
        }
    }
    let graph = GraphSpec::parse(require_str(table, "graph", &ctx)?)
        .or_else(|e| bad(format!("{ctx}, field 'graph'"), e))?;
    let workload = WorkloadSpec::parse(require_str(table, "workload", &ctx)?)
        .or_else(|e| bad(format!("{ctx}, field 'workload'"), e))?;
    // Cross-field validation at load time: a broadcast root past the graph
    // or a sub-2-vertex graph would otherwise hit the compile-time asserts
    // as a panic mid-run.
    if let Err(msg) = workload.validate(graph.num_nodes()) {
        return bad(format!("{ctx}, field 'workload'"), msg);
    }
    let schemes_value = match table.get("schemes") {
        Some(v) => v,
        None => return bad(&ctx, "missing required key 'schemes'"),
    };
    let Some(items) = schemes_value.as_array() else {
        return bad(
            &ctx,
            format!(
                "'schemes' must be an array of spec strings, got {}",
                schemes_value.type_name()
            ),
        );
    };
    if items.is_empty() {
        return bad(&ctx, "'schemes' must name at least one scheme spec");
    }
    let mut schemes = Vec::with_capacity(items.len());
    for item in items {
        let Some(s) = item.as_str() else {
            return bad(
                &ctx,
                format!(
                    "'schemes' entries must be strings, got {}",
                    item.type_name()
                ),
            );
        };
        schemes.push(SchemeSpec::parse(s).or_else(|e| bad(format!("{ctx}, field 'schemes'"), e))?);
    }
    let block_rows = match table.get("block_rows") {
        None => 0,
        Some(Value::Int(v)) if *v >= 0 => *v as usize,
        Some(v) => {
            return bad(
                &ctx,
                format!("'block_rows' must be a non-negative integer, got {v:?}"),
            )
        }
    };
    let churn = match table.get("churn") {
        None => None,
        Some(v) => {
            let Some(s) = v.as_str() else {
                return bad(
                    &ctx,
                    format!("'churn' must be a churn spec string, got {}", v.type_name()),
                );
            };
            Some(ChurnSpec::parse(s).or_else(|e| bad(format!("{ctx}, field 'churn'"), e))?)
        }
    };
    let stretch = match table.get("stretch") {
        None => StretchMode::Auto,
        Some(v) => {
            let Some(s) = v.as_str() else {
                return bad(
                    &ctx,
                    format!(
                        "'stretch' must be a stretch-mode string, got {}",
                        v.type_name()
                    ),
                );
            };
            StretchMode::parse(s).or_else(|e| bad(format!("{ctx}, field 'stretch'"), e))?
        }
    };
    let verify = match table.get("verify") {
        None => false,
        Some(Value::Bool(v)) => *v,
        Some(v) => {
            return bad(
                &ctx,
                format!("'verify' must be a boolean, got {}", v.type_name()),
            )
        }
    };
    Ok(CaseSpec {
        graph,
        workload,
        schemes,
        block_rows,
        churn,
        stretch,
        verify,
    })
}

/// The `[[case]]` key vocabulary of scenario files, for `trafficlab specs` —
/// kept next to `parse_case` so the printed keys cannot drift from the
/// parsed ones (the CI specs-sync gate greps this output).
pub fn case_key_vocabulary() -> String {
    let mut out = String::from("valid case keys ([[case]] sections of a scenario file):\n");
    let keys: [(&str, &str); 7] = [
        ("graph", "graph spec string (required)"),
        ("workload", "workload spec string (required)"),
        (
            "schemes",
            "array of scheme spec strings (required, non-empty)",
        ),
        (
            "block_rows",
            "engine block-rows override (0 = engine default)",
        ),
        (
            "churn",
            "churn spec string: failure/repair rounds after the baseline",
        ),
        ("stretch", "stretch-mode string (default: auto)"),
        (
            "verify",
            "boolean: statically verify built schemes (routecheck) before measuring",
        ),
    ];
    for (key, doc) in keys {
        out.push_str(&format!("  {key:<12}{doc}\n"));
    }
    out
}

/// The built-in scenario book, embedded from `examples/scenarios/*.toml` at
/// compile time.  Order is the `trafficlab list` order.
const BUILTIN_SCENARIO_FILES: [(&str, &str); 11] = [
    (
        "smoke",
        include_str!("../../../examples/scenarios/smoke.toml"),
    ),
    (
        "uniform-1m",
        include_str!("../../../examples/scenarios/uniform-1m.toml"),
    ),
    (
        "sharded-130k",
        include_str!("../../../examples/scenarios/sharded-130k.toml"),
    ),
    (
        "landmark-130k",
        include_str!("../../../examples/scenarios/landmark-130k.toml"),
    ),
    (
        "landmark-sweep",
        include_str!("../../../examples/scenarios/landmark-sweep.toml"),
    ),
    (
        "zipf-hotspot",
        include_str!("../../../examples/scenarios/zipf-hotspot.toml"),
    ),
    (
        "broadcast",
        include_str!("../../../examples/scenarios/broadcast.toml"),
    ),
    (
        "permutation-cube",
        include_str!("../../../examples/scenarios/permutation-cube.toml"),
    ),
    (
        "theorem1",
        include_str!("../../../examples/scenarios/theorem1.toml"),
    ),
    (
        "adversarial",
        include_str!("../../../examples/scenarios/adversarial.toml"),
    ),
    (
        "churn",
        include_str!("../../../examples/scenarios/churn.toml"),
    ),
];

/// Parses the embedded built-in scenario files.  Panics on a malformed
/// file — that is a build defect, caught by the test suite, not a runtime
/// condition a caller could handle.
pub fn builtin_scenarios() -> Vec<ScenarioSpec> {
    BUILTIN_SCENARIO_FILES
        .iter()
        .map(|(name, text)| {
            let spec = ScenarioSpec::parse_toml(text)
                .unwrap_or_else(|e| panic!("built-in scenario file '{name}.toml' is broken: {e}"));
            assert_eq!(
                spec.name, *name,
                "scenario file '{name}.toml' names itself '{}'",
                spec.name
            );
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use routeschemes::SchemeKind;

    #[test]
    fn builtins_parse_and_cover_the_book() {
        let all = builtin_scenarios();
        assert_eq!(all.len(), BUILTIN_SCENARIO_FILES.len());
        for s in &all {
            assert!(!s.cases.is_empty(), "{}", s.name);
            assert!(!s.description.is_empty(), "{}", s.name);
        }
        // The adversarial patterns ride in the book.
        let adv = all.iter().find(|s| s.name == "adversarial").unwrap();
        let workloads: Vec<&str> = adv.cases.iter().map(|c| c.workload.key()).collect();
        assert!(workloads.contains(&"bisection"));
        assert!(workloads.contains(&"worstperm"));
    }

    #[test]
    fn toml_round_trips_through_the_codec() {
        for s in builtin_scenarios() {
            let rendered = s.to_toml();
            let reparsed = ScenarioSpec::parse_toml(&rendered)
                .unwrap_or_else(|e| panic!("re-parse of '{}' failed: {e}\n{rendered}", s.name));
            assert_eq!(reparsed, s, "round trip of '{}'", s.name);
        }
    }

    #[test]
    fn parse_accepts_the_documented_shape() {
        let spec = ScenarioSpec::parse_toml(
            r#"
name = "mini"
description = "one case"

[[case]]
graph = "grid?rows=4&cols=5"
workload = "bisection?messages=100&seed=2"
schemes = ["grid", "tree"]
block_rows = 8
"#,
        )
        .unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.cases.len(), 1);
        let case = &spec.cases[0];
        assert_eq!(case.graph, GraphSpec::Grid { rows: 4, cols: 5 });
        assert_eq!(
            case.workload,
            WorkloadSpec::Bisection {
                messages: 100,
                seed: 2
            }
        );
        assert_eq!(case.schemes[0].kind(), SchemeKind::DimensionOrder);
        assert_eq!(case.block_rows, 8);
    }

    #[test]
    fn churn_field_parses_and_round_trips() {
        let spec = ScenarioSpec::parse_toml(
            r#"
name = "churny"
description = "failure axis"

[[case]]
graph = "random?n=64&seed=1"
workload = "all-pairs"
schemes = ["tree"]
churn = "churn?kill=0.05&rounds=2&seed=9"
"#,
        )
        .unwrap();
        let churn = spec.cases[0].churn.as_ref().unwrap();
        assert_eq!(
            *churn,
            crate::churn::ChurnSpec {
                kill: 0.05,
                rounds: 2,
                seed: 9
            }
        );
        let rendered = spec.to_toml();
        assert!(rendered.contains("churn = \"churn?kill=0.05&rounds=2&seed=9\""));
        assert_eq!(ScenarioSpec::parse_toml(&rendered).unwrap(), spec);
        // The built-in churn scenario carries the axis.
        let book = builtin_scenarios();
        let churny = book.iter().find(|s| s.name == "churn").unwrap();
        assert!(churny.cases.iter().all(|c| c.churn.is_some()));
    }

    #[test]
    fn stretch_field_parses_and_round_trips() {
        let spec = ScenarioSpec::parse_toml(
            r#"
name = "sampled"
description = "stretch axis"

[[case]]
graph = "random?n=64&seed=1"
workload = "uniform?messages=100&seed=2"
schemes = ["tree"]
stretch = "sampled?pairs=4096&seed=3"
"#,
        )
        .unwrap();
        assert_eq!(
            spec.cases[0].stretch,
            StretchMode::Sampled {
                pairs: 4096,
                seed: 3
            }
        );
        let rendered = spec.to_toml();
        assert!(rendered.contains("stretch = \"sampled?pairs=4096&seed=3\""));
        assert_eq!(ScenarioSpec::parse_toml(&rendered).unwrap(), spec);
        // Auto is the default: the built-in book omits the key entirely.
        for s in builtin_scenarios() {
            assert!(!s.to_toml().contains("stretch = "), "{}", s.name);
        }
        // A bad mode fails with its codec's typed error, in context.
        let err = ScenarioSpec::parse_toml(
            "name = \"x\"\n[[case]]\ngraph = \"grid?rows=2&cols=2\"\n\
             workload = \"all-pairs\"\nschemes = [\"tree\"]\nstretch = \"guess\"",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown stretch key 'guess'"),
            "{err}"
        );
        let err = ScenarioSpec::parse_toml(
            "name = \"x\"\n[[case]]\ngraph = \"grid?rows=2&cols=2\"\n\
             workload = \"all-pairs\"\nschemes = [\"tree\"]\nstretch = 3",
        )
        .unwrap_err();
        assert!(
            err.to_string()
                .contains("'stretch' must be a stretch-mode string"),
            "{err}"
        );
    }

    #[test]
    fn verify_field_parses_and_round_trips() {
        let spec = ScenarioSpec::parse_toml(
            r#"
name = "verified"
description = "static-verification axis"

[[case]]
graph = "random?n=64&seed=1"
workload = "uniform?messages=100&seed=2"
schemes = ["tree"]
verify = true
"#,
        )
        .unwrap();
        assert!(spec.cases[0].verify);
        let rendered = spec.to_toml();
        assert!(rendered.contains("verify = true"));
        assert_eq!(ScenarioSpec::parse_toml(&rendered).unwrap(), spec);
        // false is the default and the canonical rendering omits the key.
        let off = ScenarioSpec::parse_toml(
            "name = \"x\"\n[[case]]\ngraph = \"grid?rows=2&cols=2\"\n\
             workload = \"all-pairs\"\nschemes = [\"tree\"]",
        )
        .unwrap();
        assert!(!off.cases[0].verify);
        assert!(!off.to_toml().contains("verify"));
        // A mistyped value is a contextual error, not a silent default.
        let err = ScenarioSpec::parse_toml(
            "name = \"x\"\n[[case]]\ngraph = \"grid?rows=2&cols=2\"\n\
             workload = \"all-pairs\"\nschemes = [\"tree\"]\nverify = \"yes\"",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("'verify' must be a boolean"),
            "{err}"
        );
        // The smoke scenario gates every scheme it measures.
        let book = builtin_scenarios();
        let smoke = book.iter().find(|s| s.name == "smoke").unwrap();
        assert!(smoke.cases.iter().all(|c| c.verify));
    }

    #[test]
    fn typo_and_type_errors_are_contextual_not_silent() {
        let cases = [
            ("name = \"x\"", "at least one [[case]]"),
            ("nam = \"x\"", "unknown key 'nam'"),
            (
                "name = \"x\"\n[[case]]\ngraph = \"grid?rows=2&cols=2\"\nworkload = \"all-pairs\"\nschemes = [\"tree\"]\nblocks = 1",
                "unknown key 'blocks'",
            ),
            (
                "name = \"x\"\n[engine]\nthreads = 2",
                "only [[case]] is valid",
            ),
            (
                "name = \"x\"\n[[case]]\nworkload = \"all-pairs\"\nschemes = [\"tree\"]",
                "missing required key 'graph'",
            ),
            (
                "name = \"x\"\n[[case]]\ngraph = \"warp?n=4\"\nworkload = \"all-pairs\"\nschemes = [\"tree\"]",
                "unknown graph key 'warp'",
            ),
            (
                "name = \"x\"\n[[case]]\ngraph = \"grid?rows=2&cols=2\"\nworkload = \"zipf?s=1.1\"\nschemes = [\"tree\"]",
                "requires parameter 'messages'",
            ),
            (
                "name = \"x\"\n[[case]]\ngraph = \"grid?rows=2&cols=2\"\nworkload = \"all-pairs\"\nschemes = []",
                "at least one scheme",
            ),
            (
                "name = \"x\"\n[[case]]\ngraph = \"grid?rows=2&cols=2\"\nworkload = \"all-pairs\"\nschemes = [\"warp-drive\"]",
                "unknown scheme key 'warp-drive'",
            ),
            (
                "name = \"x\"\n[[case]]\ngraph = 7\nworkload = \"all-pairs\"\nschemes = [\"tree\"]",
                "'graph' must be a string",
            ),
            (
                "name = \"x\"\n[[case]]\ngraph = \"grid?rows=2&cols=2\"\nworkload = \"all-pairs\"\nschemes = [\"tree\"]\nchurn = 3",
                "'churn' must be a churn spec string",
            ),
            (
                "name = \"x\"\n[[case]]\ngraph = \"grid?rows=2&cols=2\"\nworkload = \"all-pairs\"\nschemes = [\"tree\"]\nchurn = \"churn?kill=2\"",
                "bad value '2' for 'kill'",
            ),
            // Cross-field validation: these used to reach compile's asserts
            // as panics once --file made them user input.
            (
                "name = \"x\"\n[[case]]\ngraph = \"grid?rows=32&cols=32\"\nworkload = \"broadcast?roots=0:5000\"\nschemes = [\"tree\"]",
                "broadcast root 5000 is out of range",
            ),
            (
                "name = \"x\"\n[[case]]\ngraph = \"grid?rows=1&cols=1\"\nworkload = \"all-pairs\"\nschemes = [\"tree\"]",
                "at least two vertices",
            ),
        ];
        for (text, needle) in cases {
            let err = ScenarioSpec::parse_toml(text).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "expected '{needle}' in error for:\n{text}\ngot: {msg}"
            );
        }
        // Raw TOML breakage surfaces as a line-numbered Toml error.
        let err = ScenarioSpec::parse_toml("name = \"x\"\nbroken line").unwrap_err();
        assert!(matches!(
            err,
            ScenarioFileError::Toml(TomlError { line: 2, .. })
        ));
    }
}
