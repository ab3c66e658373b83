//! Parameterized scheme specs and their stable string codec.
//!
//! [`SchemeKind`] names the *family* of a scheme; a [`SchemeSpec`] pins one
//! concrete member: the family plus its typed construction parameters.  The
//! paper's Table 1 is a family of memory/stretch trade-off points, so the
//! registry must be a coordinate system — `landmark?k=64&clusters=strict` —
//! not a seven-item menu.
//!
//! The codec is the scenario/CLI/report vocabulary:
//!
//! ```text
//! spec    := key [ '?' param ( '&' param )* ]
//! param   := name '=' value
//! ```
//!
//! Bare keys parse to the family defaults, so pre-spec scenario vocabulary
//! (`table`, `tree`, `interval`, `landmark`, `hypercube`, `grid`,
//! `complete`) keeps working unchanged.  [`SchemeSpec::spec_string`] is the
//! canonical form — default-valued parameters are omitted — and
//! `parse ∘ spec_string` is the identity (pinned by round-trip tests).
//! Parse failures are typed ([`SpecError`]) and self-describing: unknown
//! names carry the valid vocabulary, drawn from the same [`param_docs`]
//! table the parser itself validates against, so help text cannot drift from
//! what the parser accepts.

use crate::interval::general::{KIntervalConfig, KIntervalScheme};
use crate::landmark::{ClusterRule, LandmarkConfig, LandmarkCount, LandmarkScheme};
use crate::registry::SchemeKind;
use crate::scheme::{BuildError, CompactScheme, GraphHints, SchemeInstance};
use crate::{
    DimensionOrderScheme, EcubeScheme, ModularCompleteScheme, SpanningTreeScheme, TableScheme,
};
use graphkit::Graph;
use routemodel::TieBreak;
use speclang::{parse_query, render_spec, render_vocabulary, split_spec, SpecCtx};
// The codec machinery itself lives in `speclang`, shared with the graph and
// workload codecs; re-exported here so scheme-side callers keep one import.
pub use speclang::{ParamDoc, SpecError};

/// The parameters each scheme family accepts — the single source of truth
/// shared by the parser, the canonical formatter and [`vocabulary`].
pub fn param_docs(kind: SchemeKind) -> &'static [ParamDoc] {
    match kind {
        SchemeKind::Table => &[ParamDoc {
            name: "tie",
            values: "lowest-port (default) | lowest-neighbor | highest-neighbor | seeded:<u64>",
        }],
        SchemeKind::SpanningTree => &[ParamDoc {
            name: "root",
            values: "vertex id of the tree root (default 0)",
        }],
        SchemeKind::KInterval => &[
            ParamDoc {
                name: "k",
                values: "max intervals per arc; the build fails when the measured k exceeds it",
            },
            ParamDoc {
                name: "tie",
                values: "lowest-port | lowest-neighbor (default) | highest-neighbor | seeded:<u64>",
            },
        ],
        SchemeKind::Landmark => &[
            ParamDoc {
                name: "k",
                values: "landmark count >= 1 (default: ceil(3*sqrt(n)) inclusive, ceil(sqrt(n)) strict; conflicts with 'rate')",
            },
            ParamDoc {
                name: "rate",
                values: "landmark fraction in (0, 1] (conflicts with 'k')",
            },
            ParamDoc {
                name: "clusters",
                values: "inclusive (default) | strict (Thorup-Zwick rule + home-landmark handoff)",
            },
            ParamDoc {
                name: "seed",
                values: "u64 seed of the landmark sample (default 0x7AFF1C)",
            },
        ],
        SchemeKind::Ecube | SchemeKind::DimensionOrder | SchemeKind::ModularComplete => &[],
    }
}

/// The full valid-spec vocabulary, one line per scheme key — what the
/// `trafficlab` CLI prints when a spec fails to parse.
pub fn vocabulary() -> String {
    let entries: Vec<(&str, &[ParamDoc])> = SchemeKind::ALL
        .into_iter()
        .map(|kind| (kind.key(), param_docs(kind)))
        .collect();
    render_vocabulary("valid scheme specs (bare key = defaults):", &entries)
}

/// A concrete, fully parameterized scheme: the family plus its typed config.
///
/// This is the value scenario files, CLI flags and report rows carry.  It is
/// plain data (`Clone + PartialEq`) with a stable canonical string form.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeSpec {
    /// Full shortest-path routing tables with a tie-break rule.
    Table { tie: TieBreak },
    /// Single spanning tree rooted at `root`.
    SpanningTree { root: usize },
    /// Universal `k`-interval routing, optionally capped at `k` intervals
    /// per arc.
    KInterval(KIntervalConfig),
    /// Landmark/cluster routing under a [`LandmarkConfig`].
    Landmark(LandmarkConfig),
    /// Dimension-order routing on hypercubes.
    Ecube,
    /// Dimension-order routing on grids (needs [`GraphHints::grid_dims`]).
    DimensionOrder,
    /// The `O(log n)`-bit modular scheme on complete graphs.
    ModularComplete,
}

impl SchemeSpec {
    /// The family of this spec.
    pub fn kind(&self) -> SchemeKind {
        match self {
            SchemeSpec::Table { .. } => SchemeKind::Table,
            SchemeSpec::SpanningTree { .. } => SchemeKind::SpanningTree,
            SchemeSpec::KInterval(_) => SchemeKind::KInterval,
            SchemeSpec::Landmark(_) => SchemeKind::Landmark,
            SchemeSpec::Ecube => SchemeKind::Ecube,
            SchemeSpec::DimensionOrder => SchemeKind::DimensionOrder,
            SchemeSpec::ModularComplete => SchemeKind::ModularComplete,
        }
    }

    /// The family key (`table`, `tree`, ...).
    pub fn key(&self) -> &'static str {
        self.kind().key()
    }

    /// The default spec of a family — what its bare key parses to.
    pub fn default_for(kind: SchemeKind) -> SchemeSpec {
        match kind {
            SchemeKind::Table => SchemeSpec::Table {
                tie: TieBreak::LowestPort,
            },
            SchemeKind::SpanningTree => SchemeSpec::SpanningTree { root: 0 },
            SchemeKind::KInterval => SchemeSpec::KInterval(KIntervalConfig::default()),
            SchemeKind::Landmark => SchemeSpec::Landmark(LandmarkConfig::default()),
            SchemeKind::Ecube => SchemeSpec::Ecube,
            SchemeKind::DimensionOrder => SchemeSpec::DimensionOrder,
            SchemeKind::ModularComplete => SchemeSpec::ModularComplete,
        }
    }

    /// Every family at its defaults, in report order.
    pub fn all_defaults() -> Vec<SchemeSpec> {
        SchemeKind::ALL.into_iter().map(Self::default_for).collect()
    }

    /// Whether *this spec's* construction stays near-linear on an `n`-vertex
    /// graph.  Refines [`SchemeKind::scales_to_large_graphs`]: the family
    /// classification is necessary but no longer sufficient now that specs
    /// carry parameters — a landmark count far past `Õ(√n)` turns the
    /// `n × k` toward-landmark table (and the `k` per-landmark BFSes) back
    /// into a quadratic build, which large-graph gates must refuse the same
    /// way they refuse quadratic families.
    pub fn scales_to_large_graphs(&self, n: usize) -> bool {
        if !self.kind().scales_to_large_graphs() {
            return false;
        }
        match self {
            SchemeSpec::Landmark(cfg) => {
                // Generous headroom over the defaults (⌈3√n⌉ inclusive,
                // ⌈√n⌉ strict) and the sweep's large-n point (k = 1024 at
                // n = 131072, ≈ 2.8√n); a rate-driven k = Θ(n) is refused.
                (cfg.landmark_count(n) as f64) <= 8.0 * (n as f64).sqrt()
            }
            _ => true,
        }
    }

    /// Parses a spec string (`key` or `key?name=value&...`).
    pub fn parse(spec: &str) -> Result<SchemeSpec, SpecError> {
        let (key, query) = split_spec(spec);
        let kind = SchemeKind::parse(key).ok_or_else(|| SpecError::UnknownKey {
            domain: "scheme",
            key: key.to_string(),
        })?;
        let mut out = Self::default_for(kind);
        // Landmark only: which of the mutually exclusive count params was set.
        let mut count_param: Option<&'static str> = None;
        for (name, value) in parse_query(spec, query)? {
            apply_param(&mut out, kind, name, value, &mut count_param)?;
        }
        Ok(out)
    }

    /// The canonical string form: the bare key when every parameter is at
    /// its default, `key?name=value&...` otherwise.  `parse` of the result
    /// reproduces `self` exactly.
    pub fn spec_string(&self) -> String {
        let mut params: Vec<String> = Vec::new();
        match self {
            SchemeSpec::Table { tie } => {
                if *tie != TieBreak::LowestPort {
                    params.push(format!("tie={}", tie_string(*tie)));
                }
            }
            SchemeSpec::SpanningTree { root } => {
                if *root != 0 {
                    params.push(format!("root={root}"));
                }
            }
            SchemeSpec::KInterval(cfg) => {
                if let Some(k) = cfg.k {
                    params.push(format!("k={k}"));
                }
                if cfg.tie != TieBreak::LowestNeighbor {
                    params.push(format!("tie={}", tie_string(cfg.tie)));
                }
            }
            SchemeSpec::Landmark(cfg) => {
                match cfg.landmarks {
                    LandmarkCount::Auto => {}
                    LandmarkCount::Count(k) => params.push(format!("k={k}")),
                    LandmarkCount::Rate(r) => params.push(format!("rate={r}")),
                }
                if cfg.cluster_rule == ClusterRule::Strict {
                    params.push("clusters=strict".to_string());
                }
                if cfg.seed != crate::landmark::DEFAULT_SEED {
                    params.push(format!("seed={}", cfg.seed));
                }
            }
            SchemeSpec::Ecube | SchemeSpec::DimensionOrder | SchemeSpec::ModularComplete => {}
        }
        render_spec(self.key(), &params)
    }

    /// Instantiates the spec on `g`, with typed failure.
    pub fn build(&self, g: &Graph, hints: &GraphHints) -> Result<SchemeInstance, BuildError> {
        match self {
            SchemeSpec::Table { tie } => TableScheme::new(*tie).try_build(g, hints),
            SchemeSpec::SpanningTree { root } => SpanningTreeScheme::new(*root).try_build(g, hints),
            SchemeSpec::KInterval(cfg) => KIntervalScheme::with_config(*cfg).try_build(g, hints),
            SchemeSpec::Landmark(cfg) => {
                LandmarkScheme::with_config(cfg.clone()).try_build(g, hints)
            }
            SchemeSpec::Ecube => EcubeScheme.try_build(g, hints),
            SchemeSpec::DimensionOrder => {
                let (rows, cols) = hints.grid_dims.ok_or(BuildError::MissingHint {
                    scheme: "dimension-order",
                    hint: "grid_dims",
                })?;
                DimensionOrderScheme::new(rows, cols).try_build(g, hints)
            }
            SchemeSpec::ModularComplete => ModularCompleteScheme.try_build(g, hints),
        }
    }
}

impl std::fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec_string())
    }
}

fn tie_string(tie: TieBreak) -> String {
    match tie {
        TieBreak::LowestPort => "lowest-port".to_string(),
        TieBreak::LowestNeighbor => "lowest-neighbor".to_string(),
        TieBreak::HighestNeighbor => "highest-neighbor".to_string(),
        TieBreak::Seeded(s) => format!("seeded:{s}"),
    }
}

fn parse_tie(ctx: SpecCtx, value: &str) -> Result<TieBreak, SpecError> {
    match value {
        "lowest-port" => Ok(TieBreak::LowestPort),
        "lowest-neighbor" => Ok(TieBreak::LowestNeighbor),
        "highest-neighbor" => Ok(TieBreak::HighestNeighbor),
        other => {
            if let Some(seed) = other.strip_prefix("seeded:") {
                if let Ok(s) = seed.parse::<u64>() {
                    return Ok(TieBreak::Seeded(s));
                }
            }
            Err(ctx.invalid(
                "tie",
                value,
                "lowest-port | lowest-neighbor | highest-neighbor | seeded:<u64>",
            ))
        }
    }
}

/// Applies one `name=value` pair to a spec under construction.  The wildcard
/// arm is the *only* rejection path for unknown names, and its `valid` list
/// is rendered from [`param_docs`] — the same table [`vocabulary`] prints.
fn apply_param(
    out: &mut SchemeSpec,
    kind: SchemeKind,
    name: &str,
    value: &str,
    count_param: &mut Option<&'static str>,
) -> Result<(), SpecError> {
    let ctx = SpecCtx::new("scheme", kind.key());
    let mut set_count = |cfg: &mut LandmarkConfig,
                         param: &'static str,
                         landmarks: LandmarkCount|
     -> Result<(), SpecError> {
        if let Some(first) = *count_param {
            if first != param {
                return Err(ctx.conflict(first, param));
            }
        }
        *count_param = Some(param);
        cfg.landmarks = landmarks;
        Ok(())
    };
    match (out, name) {
        (SchemeSpec::Table { tie }, "tie") => {
            *tie = parse_tie(ctx, value)?;
        }
        (SchemeSpec::SpanningTree { root }, "root") => {
            *root = ctx.parse_int("root", value, "a vertex id (usize)")?;
        }
        (SchemeSpec::KInterval(cfg), "k") => {
            let k: usize = ctx.parse_int("k", value, "an integer >= 1")?;
            if k == 0 {
                return Err(ctx.invalid("k", value, "an integer >= 1"));
            }
            cfg.k = Some(k);
        }
        (SchemeSpec::KInterval(cfg), "tie") => {
            cfg.tie = parse_tie(ctx, value)?;
        }
        (SchemeSpec::Landmark(cfg), "k") => {
            let k: usize = ctx.parse_int("k", value, "an integer >= 1")?;
            if k == 0 {
                return Err(ctx.invalid("k", value, "an integer >= 1"));
            }
            set_count(cfg, "k", LandmarkCount::Count(k))?;
        }
        (SchemeSpec::Landmark(cfg), "rate") => {
            let r = ctx.parse_f64("rate", value, "a float in (0, 1]")?;
            if !(r > 0.0 && r <= 1.0) {
                return Err(ctx.invalid("rate", value, "a float in (0, 1]"));
            }
            set_count(cfg, "rate", LandmarkCount::Rate(r))?;
        }
        (SchemeSpec::Landmark(cfg), "clusters") => {
            cfg.cluster_rule = match value {
                "inclusive" => ClusterRule::Inclusive,
                "strict" => ClusterRule::Strict,
                _ => return Err(ctx.invalid("clusters", value, "inclusive | strict")),
            };
        }
        (SchemeSpec::Landmark(cfg), "seed") => {
            cfg.seed = ctx.parse_int("seed", value, "a u64")?;
        }
        (_, unknown) => {
            return Err(ctx.unknown_param(unknown, param_docs(kind)));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_keys_parse_to_defaults() {
        for kind in SchemeKind::ALL {
            let spec = SchemeSpec::parse(kind.key()).unwrap();
            assert_eq!(spec, SchemeSpec::default_for(kind));
            assert_eq!(spec.spec_string(), kind.key(), "defaults format bare");
            assert_eq!(spec.kind(), kind);
        }
    }

    #[test]
    fn parse_format_round_trips() {
        let specs = [
            "table",
            "table?tie=highest-neighbor",
            "table?tie=seeded:42",
            "tree?root=7",
            "interval?k=4",
            "interval?k=4&tie=lowest-port",
            "landmark?k=64",
            "landmark?k=64&clusters=strict",
            "landmark?rate=0.05",
            "landmark?clusters=strict&seed=99",
            "hypercube",
            "grid",
            "complete",
        ];
        for s in specs {
            let spec = SchemeSpec::parse(s).unwrap();
            assert_eq!(spec.spec_string(), s, "canonical form of '{s}'");
            assert_eq!(SchemeSpec::parse(&spec.spec_string()).unwrap(), spec);
        }
        // Non-canonical inputs normalize (param order, default values).
        let spec = SchemeSpec::parse("landmark?clusters=inclusive&k=64").unwrap();
        assert_eq!(spec.spec_string(), "landmark?k=64");
    }

    #[test]
    fn typed_errors_for_bad_specs() {
        assert!(matches!(
            SchemeSpec::parse("no-such-scheme"),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            SchemeSpec::parse("landmark?bogus=1"),
            Err(SpecError::UnknownParam { .. })
        ));
        assert!(matches!(
            SchemeSpec::parse("hypercube?k=3"),
            Err(SpecError::UnknownParam { .. })
        ));
        assert!(matches!(
            SchemeSpec::parse("landmark?k=zero"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            SchemeSpec::parse("landmark?k=0"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            SchemeSpec::parse("landmark?rate=1.5"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            SchemeSpec::parse("landmark?k=4&rate=0.1"),
            Err(SpecError::ConflictingParams { .. })
        ));
        assert!(matches!(
            SchemeSpec::parse("landmark?k"),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            SchemeSpec::parse("table?tie=sideways"),
            Err(SpecError::InvalidValue { .. })
        ));
    }

    #[test]
    fn unknown_param_error_names_the_valid_ones() {
        let err = SchemeSpec::parse("landmark?landmarks=9").unwrap_err();
        let msg = err.to_string();
        for name in ["k", "rate", "clusters", "seed"] {
            assert!(msg.contains(name), "error must list '{name}': {msg}");
        }
    }

    #[test]
    fn vocabulary_covers_every_key_and_param() {
        let vocab = vocabulary();
        for kind in SchemeKind::ALL {
            assert!(vocab.contains(kind.key()), "missing key {}", kind.key());
            for p in param_docs(kind) {
                assert!(
                    vocab.contains(p.name),
                    "missing param {} of {}",
                    p.name,
                    kind.key()
                );
            }
        }
    }

    #[test]
    fn every_documented_param_is_accepted_by_the_parser() {
        // The anti-drift check: a name the docs list must never be rejected
        // as unknown, and a name the docs do not list must be.
        let probe_value = |name: &str| match name {
            "tie" => "lowest-port",
            "clusters" => "strict",
            "rate" => "0.5",
            _ => "3",
        };
        for kind in SchemeKind::ALL {
            for p in param_docs(kind) {
                let spec = format!("{}?{}={}", kind.key(), p.name, probe_value(p.name));
                match SchemeSpec::parse(&spec) {
                    Ok(_) => {}
                    Err(SpecError::UnknownParam { .. }) => {
                        panic!("documented param rejected: {spec}")
                    }
                    Err(other) => panic!("documented param {spec} failed oddly: {other}"),
                }
            }
            let bogus = format!("{}?definitely-not-a-param=1", kind.key());
            assert!(
                matches!(
                    SchemeSpec::parse(&bogus),
                    Err(SpecError::UnknownParam { .. })
                ),
                "{bogus} must be rejected as unknown"
            );
        }
    }

    #[test]
    fn scaling_is_spec_aware_not_just_family_aware() {
        let n = 131_072;
        // Quadratic families stay refused regardless of parameters.
        assert!(!SchemeSpec::parse("table")
            .unwrap()
            .scales_to_large_graphs(n));
        // The landmark defaults and the sweep's large-n point pass.
        assert!(SchemeSpec::parse("landmark")
            .unwrap()
            .scales_to_large_graphs(n));
        assert!(SchemeSpec::parse("landmark?clusters=strict")
            .unwrap()
            .scales_to_large_graphs(n));
        assert!(SchemeSpec::parse("landmark?k=1024")
            .unwrap()
            .scales_to_large_graphs(n));
        // A Θ(n) landmark count means an n × k table — refused like any
        // other quadratic build.
        assert!(!SchemeSpec::parse("landmark?rate=0.5")
            .unwrap()
            .scales_to_large_graphs(n));
        assert!(!SchemeSpec::parse(&format!("landmark?k={n}"))
            .unwrap()
            .scales_to_large_graphs(n));
        // The boundary itself: 8√n is in, just past it is out.
        assert!(SchemeSpec::parse("landmark?k=256")
            .unwrap()
            .scales_to_large_graphs(1024));
        assert!(!SchemeSpec::parse("landmark?k=257")
            .unwrap()
            .scales_to_large_graphs(1024));
    }

    #[test]
    fn display_matches_spec_string() {
        let spec = SchemeSpec::parse("landmark?k=8&clusters=strict").unwrap();
        assert_eq!(format!("{spec}"), spec.spec_string());
    }

    #[test]
    fn rate_values_round_trip_through_display() {
        for r in [0.001, 0.05, 0.123456789, 1.0] {
            let spec = SchemeSpec::Landmark(LandmarkConfig {
                landmarks: LandmarkCount::Rate(r),
                ..LandmarkConfig::default()
            });
            assert_eq!(SchemeSpec::parse(&spec.spec_string()).unwrap(), spec);
        }
    }
}
