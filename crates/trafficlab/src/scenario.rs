//! Named scenarios: graph family × traffic pattern × scheme set, and the
//! runner that turns one into a comparative report.
//!
//! A [`ScenarioSpec`] is a declarative list of [`CaseSpec`]s.  Each case
//! names a graph family ([`GraphSpec`]), a traffic pattern
//! ([`WorkloadSpec`]), and the scheme specs to drive over it — every axis a
//! spec value with a stable string codec, so a whole scenario is plain data:
//! it can be written as a TOML file (see [`crate::files`]), rendered back
//! out, and every report row names its full coordinates.  The runner
//! instantiates every applicable scheme, pushes the workload through the
//! sharded engine, and reports **measured** stretch/congestion next to the
//! scheme's **promised** `guaranteed_stretch` and `MemoryReport` — the
//! upper-bound side of the paper's Table 1, observed under load instead of
//! quoted.
//!
//! Reports render as an [`analysis::Table`] for the console (plus the
//! congestion-vs-stretch view of [`ScenarioReport::to_congestion_table`])
//! and as JSON for snapshots (`ScenarioReport::to_json`).

use crate::churn::{run_churn, ChurnError, ChurnRound, ChurnSpec};
use crate::engine::{run_workload, EngineConfig, WorkloadReport};
use crate::workload::WorkloadSpec;
use analysis::report::{fmt_f64, Json, Table};
use constraints::theorem1::build_worst_case_instance;
use graphkit::{generators, Graph, NodeId};
use routemodel::labeling::modular_complete_labeling;
use routemodel::StretchReport;
use routeschemes::landmark::{ClusterRule, LandmarkConfig, LandmarkCount};
use routeschemes::{GraphHints, SchemeSpec};
use speclang::SpecError;
use speclang::{
    push_nonzero_seed, render_spec, render_vocabulary, split_spec, ParamDoc, ParsedParams, SpecCtx,
};
use std::time::Instant;

/// A graph family, concretely parameterized.
///
/// Like scheme and workload specs, graph specs carry a stable string codec
/// (`grid?rows=32&cols=32`, `random?n=4096&seed=3162`) — the old ad-hoc
/// `label()` strings were display-only and could not be parsed back.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// `random_connected(n, deg / n, seed)` — the default workload graph.
    /// Generation is `O(n²)` Bernoulli trials: keep `n ≲ 10^4`.
    RandomConnected { n: usize, avg_deg: f64, seed: u64 },
    /// `random_regular_like(n, d, seed)` — `O(n · d)` generation, the
    /// family for the `n ≥ 10^5` sharded points.
    RandomRegular { n: usize, degree: usize, seed: u64 },
    /// `rows × cols` grid (dimension-order routing applies).
    Grid { rows: usize, cols: usize },
    /// The `dim`-dimensional hypercube (e-cube routing applies).
    Hypercube { dim: usize },
    /// `K_n` with the modular port labeling (the `O(log n)` scheme applies).
    CompleteModular { n: usize },
    /// A random tree (tree schemes are stretch-1 here).
    RandomTree { n: usize, seed: u64 },
    /// A Theorem 1 worst-case instance: the padded graph of constraints of a
    /// random representative matrix.
    Theorem1 { n: usize, theta: f64, seed: u64 },
    /// `barabasi_albert(n, m, seed)` — scale-free preferential attachment:
    /// the hub-and-spoke family that stresses landmark cluster sizes.
    Ba { n: usize, m: usize, seed: u64 },
    /// `powerlaw_configuration(n, gamma, seed)` — configuration-model
    /// power-law degrees with a `deg^-gamma` tail.
    PowerLaw { n: usize, exponent: f64, seed: u64 },
}

/// A graph spec materialized: the graph, registry hints, and (for Theorem 1
/// instances) the constrained/target vertex sets.
pub struct BuiltGraph {
    pub graph: Graph,
    pub hints: GraphHints,
    /// Constrained vertices of a Theorem 1 instance (empty otherwise).
    pub constrained: Vec<NodeId>,
    /// Target vertices of a Theorem 1 instance (empty otherwise).
    pub targets: Vec<NodeId>,
}

impl GraphSpec {
    /// Builds the graph (deterministic per spec).
    pub fn build(&self) -> BuiltGraph {
        let plain = |graph: Graph| BuiltGraph {
            graph,
            hints: GraphHints::none(),
            constrained: Vec::new(),
            targets: Vec::new(),
        };
        match *self {
            GraphSpec::RandomConnected { n, avg_deg, seed } => {
                plain(generators::random_connected(n, avg_deg / n as f64, seed))
            }
            GraphSpec::RandomRegular { n, degree, seed } => {
                plain(generators::random_regular_like(n, degree, seed))
            }
            GraphSpec::Grid { rows, cols } => BuiltGraph {
                graph: generators::grid(rows, cols),
                hints: GraphHints::grid(rows, cols),
                constrained: Vec::new(),
                targets: Vec::new(),
            },
            GraphSpec::Hypercube { dim } => BuiltGraph {
                graph: generators::hypercube(dim),
                // Pin hypercube detection: the generator vouches for the
                // dimension-port labeling, so e-cube skips its O(n log n)
                // structural scan.
                hints: GraphHints::hypercube(dim as u32),
                constrained: Vec::new(),
                targets: Vec::new(),
            },
            GraphSpec::CompleteModular { n } => plain(modular_complete_labeling(n)),
            GraphSpec::RandomTree { n, seed } => plain(generators::random_tree(n, seed)),
            GraphSpec::Ba { n, m, seed } => plain(generators::barabasi_albert(n, m, seed)),
            GraphSpec::PowerLaw { n, exponent, seed } => {
                plain(generators::powerlaw_configuration(n, exponent, seed))
            }
            GraphSpec::Theorem1 { n, theta, seed } => {
                let (cg, _params) = build_worst_case_instance(n, theta, seed);
                BuiltGraph {
                    graph: cg.graph,
                    hints: GraphHints::none(),
                    constrained: cg.constrained,
                    targets: cg.targets,
                }
            }
        }
    }

    /// Every graph family key, in vocabulary order.
    pub const ALL_KEYS: [&'static str; 9] = [
        "random",
        "regular",
        "ba",
        "powerlaw",
        "grid",
        "hypercube",
        "complete",
        "tree",
        "theorem1",
    ];

    /// The vertex count this spec will build, computable without building —
    /// what scenario loading validates workloads against (broadcast roots in
    /// range, at least two vertices) so a bad file fails typed instead of
    /// tripping an internal assert at run time.
    pub fn num_nodes(&self) -> usize {
        match *self {
            GraphSpec::RandomConnected { n, .. }
            | GraphSpec::RandomRegular { n, .. }
            | GraphSpec::CompleteModular { n }
            | GraphSpec::RandomTree { n, .. }
            | GraphSpec::Theorem1 { n, .. }
            | GraphSpec::Ba { n, .. }
            | GraphSpec::PowerLaw { n, .. } => n,
            GraphSpec::Grid { rows, cols } => rows.saturating_mul(cols),
            GraphSpec::Hypercube { dim } => 1usize << dim.min(usize::BITS as usize - 1),
        }
    }

    /// Short family key (`random`, `grid`, ...).
    pub fn key(&self) -> &'static str {
        match self {
            GraphSpec::RandomConnected { .. } => "random",
            GraphSpec::RandomRegular { .. } => "regular",
            GraphSpec::Grid { .. } => "grid",
            GraphSpec::Hypercube { .. } => "hypercube",
            GraphSpec::CompleteModular { .. } => "complete",
            GraphSpec::RandomTree { .. } => "tree",
            GraphSpec::Theorem1 { .. } => "theorem1",
            GraphSpec::Ba { .. } => "ba",
            GraphSpec::PowerLaw { .. } => "powerlaw",
        }
    }

    /// The parameters each graph family accepts — the single source of truth
    /// shared by the parser, the canonical formatter and
    /// [`GraphSpec::vocabulary`].
    pub fn param_docs(key: &str) -> &'static [ParamDoc] {
        const N: ParamDoc = ParamDoc {
            name: "n",
            values: "vertex count >= 2 (required)",
        };
        const SEED: ParamDoc = ParamDoc {
            name: "seed",
            values: "u64 generator seed (default 0; 0x hex ok)",
        };
        match key {
            "random" => &[
                N,
                ParamDoc {
                    name: "deg",
                    values: "average degree > 0 (default 8)",
                },
                SEED,
            ],
            "regular" => &[
                N,
                ParamDoc {
                    name: "d",
                    values: "degree >= 1 (default 8)",
                },
                SEED,
            ],
            "ba" => &[
                N,
                ParamDoc {
                    name: "m",
                    values: "attachment edges per arrival in 1..n (default 2)",
                },
                SEED,
            ],
            "powerlaw" => &[
                N,
                ParamDoc {
                    name: "gamma",
                    values: "degree exponent > 2 (default 2.5)",
                },
                SEED,
            ],
            "grid" => &[
                ParamDoc {
                    name: "rows",
                    values: "grid rows >= 1 (required)",
                },
                ParamDoc {
                    name: "cols",
                    values: "grid columns >= 1 (required)",
                },
            ],
            "hypercube" => &[ParamDoc {
                name: "dim",
                values: "hypercube dimension in 1..=30 (required)",
            }],
            "complete" => &[N],
            "tree" => &[N, SEED],
            "theorem1" => &[
                N,
                ParamDoc {
                    name: "theta",
                    values: "constrained fraction in (0, 1] (default 0.5)",
                },
                SEED,
            ],
            _ => &[],
        }
    }

    /// The full valid-spec vocabulary, one block per graph key.
    pub fn vocabulary() -> String {
        let entries: Vec<(&str, &[ParamDoc])> = Self::ALL_KEYS
            .into_iter()
            .map(|key| (key, Self::param_docs(key)))
            .collect();
        render_vocabulary(
            "valid graph specs (omitted params = defaults; 'n'/dims are required):",
            &entries,
        )
    }

    /// Parses a spec string (`key?name=value&...`).
    pub fn parse(spec: &str) -> Result<GraphSpec, SpecError> {
        let (key, query) = split_spec(spec);
        let key = Self::ALL_KEYS
            .into_iter()
            .find(|k| *k == key)
            .ok_or_else(|| SpecError::UnknownKey {
                domain: "graph",
                key: key.to_string(),
            })?;
        let ctx = SpecCtx::new("graph", key);
        let p = ParsedParams::new(ctx, spec, query, Self::param_docs(key))?;
        // A required size parameter; `expected` states the accepted range so
        // the error both diagnoses and teaches (matching `param_docs`).
        let size = |param: &'static str, min: usize, expected: &'static str| {
            let value = p.get(param).ok_or_else(|| ctx.missing(param))?;
            let v: usize = ctx.parse_int(param, value, expected)?;
            if v < min {
                return Err(ctx.invalid(param, value, expected));
            }
            Ok(v)
        };
        match key {
            "random" => {
                let avg_deg = match p.get("deg") {
                    Some(value) => {
                        let d = ctx.parse_f64("deg", value, "a float > 0")?;
                        // NaN must fail too, hence the negated form.
                        #[allow(clippy::neg_cmp_op_on_partial_ord)]
                        if !(d > 0.0) {
                            return Err(ctx.invalid("deg", value, "a float > 0"));
                        }
                        d
                    }
                    None => 8.0,
                };
                Ok(GraphSpec::RandomConnected {
                    n: size("n", 2, "an integer >= 2")?,
                    avg_deg,
                    seed: p.seed()?,
                })
            }
            "regular" => {
                let degree = match p.get("d") {
                    Some(value) => {
                        let d: usize = ctx.parse_int("d", value, "an integer >= 1")?;
                        if d == 0 {
                            return Err(ctx.invalid("d", value, "an integer >= 1"));
                        }
                        d
                    }
                    None => 8,
                };
                Ok(GraphSpec::RandomRegular {
                    n: size("n", 2, "an integer >= 2")?,
                    degree,
                    seed: p.seed()?,
                })
            }
            "ba" => {
                let n = size("n", 2, "an integer >= 2")?;
                let m = match p.get("m") {
                    Some(value) => {
                        let m: usize = ctx.parse_int("m", value, "an integer in 1..n")?;
                        if m == 0 || m >= n {
                            return Err(ctx.invalid("m", value, "an integer in 1..n"));
                        }
                        m
                    }
                    None => 2.min(n - 1),
                };
                Ok(GraphSpec::Ba {
                    n,
                    m,
                    seed: p.seed()?,
                })
            }
            "powerlaw" => {
                let exponent = match p.get("gamma") {
                    Some(value) => {
                        let g = ctx.parse_f64("gamma", value, "a float > 2")?;
                        // NaN must fail too, hence the negated form.
                        #[allow(clippy::neg_cmp_op_on_partial_ord)]
                        if !(g > 2.0) {
                            return Err(ctx.invalid("gamma", value, "a float > 2"));
                        }
                        g
                    }
                    None => 2.5,
                };
                Ok(GraphSpec::PowerLaw {
                    n: size("n", 2, "an integer >= 2")?,
                    exponent,
                    seed: p.seed()?,
                })
            }
            "grid" => Ok(GraphSpec::Grid {
                rows: size("rows", 1, "an integer >= 1")?,
                cols: size("cols", 1, "an integer >= 1")?,
            }),
            "hypercube" => {
                let dim = size("dim", 1, "a dimension in 1..=30")?;
                if dim > 30 {
                    return Err(ctx.invalid("dim", &dim.to_string(), "a dimension in 1..=30"));
                }
                Ok(GraphSpec::Hypercube { dim })
            }
            "complete" => Ok(GraphSpec::CompleteModular {
                n: size("n", 2, "an integer >= 2")?,
            }),
            "tree" => Ok(GraphSpec::RandomTree {
                n: size("n", 2, "an integer >= 2")?,
                seed: p.seed()?,
            }),
            "theorem1" => {
                let theta = match p.get("theta") {
                    Some(value) => {
                        let t = ctx.parse_f64("theta", value, "a float in (0, 1]")?;
                        if !(t > 0.0 && t <= 1.0) {
                            return Err(ctx.invalid("theta", value, "a float in (0, 1]"));
                        }
                        t
                    }
                    None => 0.5,
                };
                Ok(GraphSpec::Theorem1 {
                    n: size("n", 2, "an integer >= 2")?,
                    theta,
                    seed: p.seed()?,
                })
            }
            _ => unreachable!("key validated against ALL_KEYS"),
        }
    }

    /// The canonical string form (`key?name=value&...`, defaults omitted);
    /// `parse` of the result reproduces `self` exactly.  This replaces the
    /// old display-only `label()` in every report.
    pub fn spec_string(&self) -> String {
        let mut params: Vec<String> = Vec::new();
        match self {
            GraphSpec::RandomConnected { n, avg_deg, seed } => {
                params.push(format!("n={n}"));
                if *avg_deg != 8.0 {
                    params.push(format!("deg={avg_deg}"));
                }
                push_nonzero_seed(&mut params, *seed);
            }
            GraphSpec::RandomRegular { n, degree, seed } => {
                params.push(format!("n={n}"));
                if *degree != 8 {
                    params.push(format!("d={degree}"));
                }
                push_nonzero_seed(&mut params, *seed);
            }
            GraphSpec::Grid { rows, cols } => {
                params.push(format!("rows={rows}"));
                params.push(format!("cols={cols}"));
            }
            GraphSpec::Hypercube { dim } => params.push(format!("dim={dim}")),
            GraphSpec::CompleteModular { n } => params.push(format!("n={n}")),
            GraphSpec::RandomTree { n, seed } => {
                params.push(format!("n={n}"));
                push_nonzero_seed(&mut params, *seed);
            }
            GraphSpec::Theorem1 { n, theta, seed } => {
                params.push(format!("n={n}"));
                if *theta != 0.5 {
                    params.push(format!("theta={theta}"));
                }
                push_nonzero_seed(&mut params, *seed);
            }
            GraphSpec::Ba { n, m, seed } => {
                params.push(format!("n={n}"));
                if *m != 2 {
                    params.push(format!("m={m}"));
                }
                push_nonzero_seed(&mut params, *seed);
            }
            GraphSpec::PowerLaw { n, exponent, seed } => {
                params.push(format!("n={n}"));
                if *exponent != 2.5 {
                    params.push(format!("gamma={exponent}"));
                }
                push_nonzero_seed(&mut params, *seed);
            }
        }
        render_spec(self.key(), &params)
    }
}

impl std::fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec_string())
    }
}

/// At-or-above this vertex count, `stretch = auto` cases whose workload is
/// not all-pairs report a **sampled** stretch estimate instead of the
/// workload fold: a sparse workload at n ≥ 10^5 touches a vanishing,
/// pattern-biased fraction of pairs, so a dedicated uniform probe is the
/// honest stretch column.
pub const SAMPLED_STRETCH_THRESHOLD: usize = 100_000;

/// Pair count of the default sampled-stretch probe.
pub const SAMPLED_STRETCH_PAIRS: u64 = 16_384;

/// Seed of the `auto`-resolved sampled probe (explicit `sampled?seed=…`
/// overrides it).
const SAMPLED_STRETCH_SEED: u64 = 0x57A7;

/// The `stretch` axis of a case: how the report row's stretch columns are
/// measured.
///
/// The engine always folds stretch over the workload's own delivered
/// messages; `Sampled` adds a second, congestion-free engine pass over
/// deterministically sampled pairs and reports *that* fold instead — the
/// large-graph mode, where the workload's own pairs are too few and too
/// pattern-shaped to estimate the stretch factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StretchMode {
    /// `exact` below [`SAMPLED_STRETCH_THRESHOLD`] vertices (and always for
    /// all-pairs workloads, which cover every pair by construction);
    /// `sampled` at-or-above it.  The default.
    #[default]
    Auto,
    /// The workload run's own fold: exact over the pairs actually routed.
    Exact,
    /// A dedicated probe over `pairs` sampled source/destination pairs
    /// (`≈ √pairs` sources × `≈ √pairs` destinations each, deterministic
    /// per seed), run with congestion tracking off.
    Sampled { pairs: u64, seed: u64 },
}

impl StretchMode {
    /// Every stretch-mode key, in vocabulary order.
    pub const ALL_KEYS: [&'static str; 3] = ["auto", "exact", "sampled"];

    /// Short mode key (`auto`, `exact`, `sampled`).
    pub fn key(&self) -> &'static str {
        match self {
            StretchMode::Auto => "auto",
            StretchMode::Exact => "exact",
            StretchMode::Sampled { .. } => "sampled",
        }
    }

    /// The parameters each mode accepts — shared by parser, formatter and
    /// [`StretchMode::vocabulary`].
    pub fn param_docs(key: &str) -> &'static [ParamDoc] {
        match key {
            "sampled" => &[
                ParamDoc {
                    name: "pairs",
                    values: "sampled pair count >= 1 (default 16384)",
                },
                ParamDoc {
                    name: "seed",
                    values: "u64 sample seed (default 0; 0x hex ok)",
                },
            ],
            _ => &[],
        }
    }

    /// The full valid-spec vocabulary, one block per mode key.
    pub fn vocabulary() -> String {
        let entries: Vec<(&str, &[ParamDoc])> = Self::ALL_KEYS
            .into_iter()
            .map(|key| (key, Self::param_docs(key)))
            .collect();
        render_vocabulary("valid stretch modes (omitted params = defaults):", &entries)
    }

    /// Parses a spec string (`exact`, `sampled?pairs=65536&seed=7`).
    pub fn parse(spec: &str) -> Result<StretchMode, SpecError> {
        let (key, query) = split_spec(spec);
        let key = Self::ALL_KEYS
            .into_iter()
            .find(|k| *k == key)
            .ok_or_else(|| SpecError::UnknownKey {
                domain: "stretch",
                key: key.to_string(),
            })?;
        let ctx = SpecCtx::new("stretch", key);
        let p = ParsedParams::new(ctx, spec, query, Self::param_docs(key))?;
        match key {
            "auto" => Ok(StretchMode::Auto),
            "exact" => Ok(StretchMode::Exact),
            "sampled" => {
                let pairs = match p.get("pairs") {
                    Some(value) => {
                        let k: u64 = ctx.parse_int("pairs", value, "an integer >= 1")?;
                        if k == 0 {
                            return Err(ctx.invalid("pairs", value, "an integer >= 1"));
                        }
                        k
                    }
                    None => SAMPLED_STRETCH_PAIRS,
                };
                Ok(StretchMode::Sampled {
                    pairs,
                    seed: p.seed()?,
                })
            }
            _ => unreachable!("key validated against ALL_KEYS"),
        }
    }

    /// The canonical string form; `parse` of the result reproduces `self`.
    pub fn spec_string(&self) -> String {
        let mut params: Vec<String> = Vec::new();
        if let StretchMode::Sampled { pairs, seed } = self {
            if *pairs != SAMPLED_STRETCH_PAIRS {
                params.push(format!("pairs={pairs}"));
            }
            push_nonzero_seed(&mut params, *seed);
        }
        render_spec(self.key(), &params)
    }

    /// The mode a case actually runs: `Auto` resolves against the case's
    /// size and workload; the explicit modes are already concrete.
    pub fn resolve(self, n: usize, workload: &WorkloadSpec) -> StretchMode {
        match self {
            StretchMode::Auto => {
                if n >= SAMPLED_STRETCH_THRESHOLD && !matches!(workload, WorkloadSpec::AllPairs) {
                    StretchMode::Sampled {
                        pairs: SAMPLED_STRETCH_PAIRS,
                        seed: SAMPLED_STRETCH_SEED,
                    }
                } else {
                    StretchMode::Exact
                }
            }
            mode => mode,
        }
    }
}

impl std::fmt::Display for StretchMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec_string())
    }
}

/// One graph × workload × scheme-set cell of a scenario.
///
/// Schemes are full [`SchemeSpec`]s, not bare kinds: a case can drive the
/// same family at several parameter points (the `landmark-sweep` scenario is
/// one case whose scheme list walks `k`).
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    pub graph: GraphSpec,
    pub workload: WorkloadSpec,
    pub schemes: Vec<SchemeSpec>,
    /// Engine block size override (`0` = engine default).
    pub block_rows: usize,
    /// Optional churn axis: after the healthy baseline run, drive each
    /// scheme through fail → measure → repair → measure rounds
    /// (see [`crate::churn`]).
    pub churn: Option<ChurnSpec>,
    /// How the report row's stretch is measured (see [`StretchMode`]).
    pub stretch: StretchMode,
    /// Statically verify every built scheme with `routecheck` before
    /// measuring: unsound instances become typed skip notes instead of
    /// polluting the measurement columns.
    pub verify: bool,
}

/// A named, reproducible experiment — plain declarative data: every axis is
/// a spec value with a string codec, so the whole scenario loads from (and
/// renders back to) a TOML scenario file (see [`crate::files`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    pub name: String,
    pub description: String,
    pub cases: Vec<CaseSpec>,
}

/// The landmark counts the `landmark-sweep` scenario (and its bench twin)
/// walks at n = 4096: one decade upward from the measured bit-optimal
/// point.  On this graph the clusters average `≈ 3n/k`, which puts the
/// minimum of the paper's per-router bits, `≈ k + |S|` entries, near
/// `k = √(3n) ≈ 110`; below that the cluster term dominates and bits *fall*
/// as `k` grows, from there up the landmark table dominates, so the swept
/// curve is monotone — more landmarks, more bits, shorter detours.  The
/// default count, `⌈3√n⌉ = 192`, lies inside the decade: it minimizes
/// resident *bytes*, where a cluster entry (6 B) costs three toward entries
/// (2 B), so the byte minimum sits at `√(3 · 3n)` rather than `√(3n)`.
pub const LANDMARK_SWEEP_KS: [usize; 5] = [128, 256, 512, 1024, 1280];

/// A landmark spec with an explicit landmark count (default rule and seed).
pub fn landmark_with_k(k: usize) -> SchemeSpec {
    SchemeSpec::Landmark(LandmarkConfig {
        landmarks: LandmarkCount::Count(k),
        ..LandmarkConfig::default()
    })
}

/// The strict-cluster landmark spec (`landmark?clusters=strict`).
pub fn landmark_strict() -> SchemeSpec {
    SchemeSpec::Landmark(LandmarkConfig {
        cluster_rule: ClusterRule::Strict,
        ..LandmarkConfig::default()
    })
}

/// The built-in scenario book — loaded from the TOML files under
/// `examples/scenarios/` (embedded at compile time; see [`crate::files`]),
/// so the book is data in the same format `trafficlab --file` accepts.
///
/// * `smoke` — n = 1024 graphs covering **every** registry scheme; quick.
/// * `uniform-1m` — 10^6 uniform messages on an n = 4096 random graph.
/// * `sharded-130k` — an n = 131072 graph swept block-by-block (sampled
///   sources); the point that cannot exist with a dense matrix (64 GiB).
/// * `landmark-130k` — the stretch `< 3` scheme at n = 131072: landmark
///   routing built sparsely (no dense matrix), under both cluster rules,
///   next to the spanning tree.
/// * `landmark-sweep` — the measured bits-vs-stretch curve: one n = 4096
///   graph, `k` swept over [`LANDMARK_SWEEP_KS`] (Table 1's trade-off rows
///   as data, not quotes).
/// * `zipf-hotspot` — skewed destinations vs. uniform, congestion focus.
/// * `broadcast` — one-to-all tree traffic.
/// * `permutation-cube` — permutation rounds on the hypercube.
/// * `theorem1` — constrained-vertex probes on worst-case instances, at
///   n = 1024 under every universal scheme and at n = 16384 under the
///   near-linear ones; the strict cluster rule rides along there because
///   tiny-diameter instances are exactly where it beats the inclusive rule.
/// * `adversarial` — the `bisection` and `worstperm` patterns on the grid
///   and the hypercube; read with `--report congestion` for the
///   congestion-vs-stretch trade-off across schemes.
pub fn named_scenarios() -> Vec<ScenarioSpec> {
    crate::files::builtin_scenarios()
}

/// Looks a scenario up by name (ASCII case-insensitive, so a shouted
/// `--scenario SMOKE` still runs).
pub fn find_scenario(name: &str) -> Option<ScenarioSpec> {
    named_scenarios()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
}

/// Levenshtein distance, for near-miss scenario suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Built-in scenario names close to a typo'd `name`, best match first: small
/// edit distance, or a substring hit (`landmark` suggests both landmark
/// scenarios).  Empty when nothing is plausibly meant.
pub fn suggest_scenarios(name: &str) -> Vec<String> {
    let needle = name.to_ascii_lowercase();
    let mut scored: Vec<(usize, String)> = named_scenarios()
        .into_iter()
        .filter_map(|s| {
            let d = edit_distance(&needle, &s.name);
            if d <= 3 || s.name.contains(&needle) || needle.contains(&s.name) {
                Some((d, s.name))
            } else {
                None
            }
        })
        .collect();
    scored.sort();
    scored.into_iter().map(|(_, n)| n).take(3).collect()
}

/// One (case, scheme) measurement.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The graph's canonical spec string (`random?n=1024&seed=3162`).
    pub graph_label: String,
    pub n: usize,
    pub edges: usize,
    /// The workload family key (`uniform`, `zipf`, ...).
    pub workload_key: String,
    /// The workload's full canonical spec string
    /// (`uniform?messages=20000&seed=1`) — like scheme specs, report rows
    /// carry the whole pattern, not a lossy label, so two cases differing
    /// only in seed or volume stay distinguishable.
    pub workload_spec: String,
    /// The family key (`landmark`, `tree`, ...).
    pub scheme_key: String,
    /// The full canonical spec string (`landmark?k=64&clusters=strict`); the
    /// bare key when every parameter is at its default.  Every report row
    /// carries it so a sweep's points stay distinguishable.
    pub scheme_spec: String,
    pub scheme_name: String,
    /// The scheme's local (max per router) memory, in bits.
    pub local_bits: u64,
    /// The scheme's global (sum) memory, in bits.
    pub global_bits: u64,
    /// The stretch bound the scheme promises (`None` = no guarantee).
    pub guaranteed_stretch: Option<f64>,
    /// Whether the measured max stretch respects the promise (`None` when no
    /// promise was made).  Judged against [`CaseResult::stretch`].
    pub within_guarantee: Option<bool>,
    /// The stretch shown in report rows: the workload run's own fold in
    /// exact mode, the dedicated sampled probe's fold otherwise.
    pub stretch: StretchReport,
    /// How [`CaseResult::stretch`] was measured — `exact`, or the resolved
    /// sampled spec (`sampled?pairs=16384&seed=…`); every report row
    /// carries the note so an estimate can never pass as exact.
    pub stretch_mode: String,
    pub report: WorkloadReport,
    /// Wall-clock seconds to build the scheme instance.
    pub build_secs: f64,
    /// Engine-measured seconds of the workload run (`report.run_secs`).
    pub run_secs: f64,
    /// Delivered messages per second, measured inside the engine.
    pub messages_per_sec: f64,
}

/// The resilience record of one (case, scheme) cell under churn: the
/// per-round fail → measure → repair → measure results.
#[derive(Debug, Clone)]
pub struct ResilienceResult {
    /// The case's graph spec string.
    pub graph_label: String,
    /// The case's workload spec string.
    pub workload_spec: String,
    /// The scheme spec string.
    pub scheme_spec: String,
    /// The churn spec string (`churn?kill=0.01&rounds=8`).
    pub churn_spec: String,
    /// One record per completed round.
    pub rounds: Vec<ChurnRound>,
    /// Why the rounds stopped early (disconnection), if they did.
    pub halted: Option<String>,
}

/// The outcome of one scenario run.
#[derive(Debug, Clone, Default)]
pub struct ScenarioReport {
    pub scenario: String,
    pub results: Vec<CaseResult>,
    /// Churn rows: one entry per (case, scheme) cell with a churn axis.
    pub resilience: Vec<ResilienceResult>,
    /// Routing-model failures (loops, wrong deliveries, ...) — a non-empty
    /// list means a scheme is broken, and the CLI exits non-zero on it.
    pub errors: Vec<String>,
    /// Benign notes: cells skipped because the scheme does not apply to the
    /// case's graph.
    pub skipped: Vec<String>,
}

/// Above this vertex count, schemes whose construction is quadratic (see
/// [`SchemeSpec::scales_to_large_graphs`], which also refuses a landmark
/// count far past `Õ(√n)`) are skipped with a note instead of being built.
pub const LARGE_GRAPH_THRESHOLD: usize = 50_000;

/// Runs every (case, scheme) cell of a scenario.
///
/// Inapplicable schemes — and schemes whose construction cannot scale to the
/// case's graph — become [`ScenarioReport::skipped`] notes; routing failures
/// become [`ScenarioReport::errors`] entries instead of aborting the sweep.
pub fn run_scenario(scenario: &ScenarioSpec, threads: usize) -> ScenarioReport {
    let mut out = ScenarioReport {
        scenario: scenario.name.clone(),
        ..Default::default()
    };
    for case in &scenario.cases {
        // Scenario files make bad workload/graph combinations user input:
        // reject them as errors here, before compile's internal asserts
        // (programmer-facing panics) can fire.
        if let Err(msg) = case.workload.validate(case.graph.num_nodes()) {
            out.errors.push(format!(
                "{}: workload '{}' invalid: {msg}",
                case.graph.spec_string(),
                case.workload.spec_string()
            ));
            continue;
        }
        let built = case.graph.build();
        let n = built.graph.num_nodes();
        let graph_label = case.graph.spec_string();
        let plan = match &case.workload {
            WorkloadSpec::ConstrainedProbes => {
                // The probe pairs live on the built instance, not the bare
                // vertex count; on a graph without planted constraints the
                // case is a benign skip, not an empty run.
                if built.constrained.is_empty() || built.targets.is_empty() {
                    out.skipped.push(format!(
                        "{graph_label}: workload 'constrained-probes' needs a theorem1 graph"
                    ));
                    continue;
                }
                let mut pairs = Vec::with_capacity(built.constrained.len() * built.targets.len());
                for &a in &built.constrained {
                    for &b in &built.targets {
                        pairs.push((a, b));
                    }
                }
                crate::workload::WorkloadPlan::from_pairs(n, pairs)
            }
            w => w.compile(n),
        };
        let cfg = EngineConfig {
            threads,
            block_rows: case.block_rows,
            track_congestion: true,
        };
        let resolved_stretch = case.stretch.resolve(n, &case.workload);
        for spec in &case.schemes {
            // Specs whose construction is quadratic at this size — an O(n²)
            // family, or a near-linear family driven with quadratic
            // parameters (landmark k ≫ √n) — would hang (or OOM) a large
            // case long before the engine runs; skip them up front.
            if n >= LARGE_GRAPH_THRESHOLD && !spec.scales_to_large_graphs(n) {
                out.skipped.push(format!(
                    "{graph_label}: scheme '{spec}' skipped (construction cannot scale to n = {n})"
                ));
                continue;
            }
            let t0 = Instant::now();
            let mut instance = match spec.build(&built.graph, &built.hints) {
                Ok(instance) => instance,
                Err(e) => {
                    // A typed build failure is a benign skip with its reason
                    // spelled out, not an aborted sweep.
                    out.skipped
                        .push(format!("{graph_label}: scheme '{spec}' skipped: {e}"));
                    continue;
                }
            };
            let build_secs = t0.elapsed().as_secs_f64();
            // The verify axis: prove the instance sound (structural audits +
            // all-pairs static sweep) before spending engine time on it.  An
            // unsound scheme is a typed skip, not a measurement row.
            if case.verify {
                let soundness = routecheck::verify_instance(
                    &built.graph,
                    None,
                    &instance,
                    &graph_label,
                    threads,
                );
                if soundness.verdict != routecheck::Verdict::Sound {
                    let why = soundness
                        .failure_note()
                        .unwrap_or_else(|| "unsound".to_string());
                    out.skipped.push(format!(
                        "{graph_label}: scheme '{spec}' skipped: static verification failed \
                         [{}]: {why}",
                        soundness.verdict.code()
                    ));
                    continue;
                }
            }
            match run_workload(&built.graph, instance.routing.as_ref(), &plan, &cfg) {
                Ok(report) => {
                    // In sampled mode the displayed stretch comes from a
                    // second, congestion-free pass over uniformly sampled
                    // pairs — the workload's own pairs are too few (and too
                    // pattern-shaped) to estimate the stretch factor at
                    // n ≥ 10^5.
                    let (stretch, stretch_mode) = match resolved_stretch {
                        StretchMode::Sampled { pairs, seed } => {
                            let sources = ((pairs as f64).sqrt().ceil() as usize).clamp(1, n);
                            let probe = WorkloadSpec::SampledSources {
                                sources,
                                dests_per_source: (pairs as usize).div_ceil(sources),
                                seed,
                            }
                            .compile(n);
                            let probe_cfg = EngineConfig {
                                threads,
                                block_rows: case.block_rows,
                                track_congestion: false,
                            };
                            match run_workload(
                                &built.graph,
                                instance.routing.as_ref(),
                                &probe,
                                &probe_cfg,
                            ) {
                                Ok(p) => (p.stretch, resolved_stretch.spec_string()),
                                Err(e) => {
                                    // The probe hit the model violation the
                                    // main run dodged: surface it, fall back
                                    // to the workload fold.
                                    out.errors.push(format!(
                                        "{graph_label}: scheme '{spec}' failed its \
                                         sampled-stretch probe: {e}"
                                    ));
                                    (report.stretch.clone(), "exact".to_string())
                                }
                            }
                        }
                        _ => (report.stretch.clone(), "exact".to_string()),
                    };
                    let within_guarantee = instance
                        .guaranteed_stretch
                        .map(|bound| stretch.max_stretch <= bound + 1e-9);
                    out.results.push(CaseResult {
                        graph_label: graph_label.clone(),
                        n,
                        edges: built.graph.num_edges(),
                        workload_key: case.workload.key().to_string(),
                        workload_spec: case.workload.spec_string(),
                        scheme_key: spec.key().to_string(),
                        scheme_spec: spec.spec_string(),
                        scheme_name: instance.routing.name().to_string(),
                        local_bits: instance.memory.local(),
                        global_bits: instance.memory.global(),
                        guaranteed_stretch: instance.guaranteed_stretch,
                        within_guarantee,
                        stretch,
                        stretch_mode,
                        messages_per_sec: report.messages_per_sec(),
                        run_secs: report.run_secs,
                        report,
                        build_secs,
                    });
                }
                Err(e) => {
                    out.errors
                        .push(format!("{graph_label}: scheme '{spec}' failed: {e}"));
                    continue;
                }
            }
            // The churn axis rides after the healthy baseline: the instance
            // built above is failed, measured, repaired in place, and
            // measured again, round by round.
            if let Some(churn) = &case.churn {
                match run_churn(&built.graph, &mut instance, &plan, &cfg, churn) {
                    Ok(run) => out.resilience.push(ResilienceResult {
                        graph_label: graph_label.clone(),
                        workload_spec: case.workload.spec_string(),
                        scheme_spec: spec.spec_string(),
                        churn_spec: churn.spec_string(),
                        rounds: run.rounds,
                        halted: run.halted,
                    }),
                    // A scheme without a repair strategy is a benign skip of
                    // the churn axis, not a broken scenario.
                    Err(ChurnError::Unsupported(e)) => out.skipped.push(format!(
                        "{graph_label}: scheme '{spec}' skipped for churn: {e}"
                    )),
                    Err(e) => out.errors.push(format!(
                        "{graph_label}: scheme '{spec}' failed under '{churn}': {e}",
                        churn = churn.spec_string()
                    )),
                }
            }
        }
    }
    out
}

impl ScenarioReport {
    /// Console rendering: one row per (case, scheme).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new([
            "graph",
            "workload",
            "scheme",
            "msgs",
            "max_stretch",
            "avg_stretch",
            "guarantee",
            "max_arc_load",
            "p99_len",
            "local_bits",
            "narrow/blocks",
            "msgs/s",
            "stretch_mode",
        ]);
        for r in &self.results {
            t.push_row([
                r.graph_label.clone(),
                // Full specs: bare key for defaults, parameters otherwise.
                r.workload_spec.clone(),
                r.scheme_spec.clone(),
                r.report.routed_messages.to_string(),
                fmt_f64(r.stretch.max_stretch, 3),
                fmt_f64(r.stretch.avg_stretch, 3),
                match (r.guaranteed_stretch, r.within_guarantee) {
                    (Some(b), Some(true)) => format!("<={} ok", fmt_f64(b, 1)),
                    (Some(b), Some(false)) => format!("<={} VIOLATED", fmt_f64(b, 1)),
                    _ => "none".to_string(),
                },
                r.report
                    .congestion
                    .as_ref()
                    .map_or("-".into(), |c| c.max_arc_load.to_string()),
                r.report
                    .lengths
                    .quantile(0.99)
                    .map_or("-".into(), |l| l.to_string()),
                r.local_bits.to_string(),
                format!("{}/{}", r.report.narrow_blocks, r.report.blocks),
                format!("{:.0}", r.messages_per_sec),
                r.stretch_mode.clone(),
            ]);
        }
        t
    }

    /// The congestion-vs-stretch trade-off view (`--report congestion`): one
    /// row per (case, scheme), load metrics next to the stretch they buy.
    /// `imbalance` is `max_arc_load / mean_arc_load` — how far the hottest
    /// arc sits above a perfectly spread load; `total_hops` equals the sum
    /// of all route lengths, so lower-stretch schemes push fewer hops
    /// through the network even when their hottest arc is hotter.
    pub fn to_congestion_table(&self) -> Table {
        let mut t = Table::new([
            "graph",
            "workload",
            "scheme",
            "msgs",
            "max_stretch",
            "avg_stretch",
            "total_hops",
            "max_arc_load",
            "mean_arc_load",
            "imbalance",
            "loaded_arcs",
            "local_bits",
        ]);
        for r in &self.results {
            let Some(c) = r.report.congestion.as_ref() else {
                continue;
            };
            let imbalance = if c.mean_arc_load > 0.0 {
                fmt_f64(c.max_arc_load as f64 / c.mean_arc_load, 2)
            } else {
                "-".into()
            };
            t.push_row([
                r.graph_label.clone(),
                r.workload_spec.clone(),
                r.scheme_spec.clone(),
                r.report.routed_messages.to_string(),
                fmt_f64(r.stretch.max_stretch, 3),
                fmt_f64(r.stretch.avg_stretch, 3),
                c.total_load.to_string(),
                c.max_arc_load.to_string(),
                fmt_f64(c.mean_arc_load, 2),
                imbalance,
                format!("{}/{}", c.loaded_arcs, c.arcs),
                r.local_bits.to_string(),
            ]);
        }
        t
    }

    /// The resilience view (`--report resilience`): one row per churn
    /// round of every (case, scheme) cell that ran the churn axis —
    /// delivery rate and stretch while degraded, the repair's cost, and the
    /// same measurements after repair.  `repair` is `incr` when the scheme
    /// patched itself in place and `full` when it fell back to a rebuild.
    pub fn to_resilience_table(&self) -> Table {
        let mut t = Table::new([
            "graph",
            "scheme",
            "churn",
            "round",
            "dead",
            "deg_delivery",
            "deg_stretch",
            "repair",
            "touched",
            "repair_s",
            "rec_delivery",
            "rec_stretch",
        ]);
        for r in &self.resilience {
            for round in &r.rounds {
                t.push_row([
                    r.graph_label.clone(),
                    r.scheme_spec.clone(),
                    r.churn_spec.clone(),
                    round.round.to_string(),
                    round.dead_links.to_string(),
                    fmt_f64(round.degraded.delivery_rate(), 4),
                    fmt_f64(round.degraded_max_stretch, 3),
                    if round.repair.full_rebuild {
                        "full".into()
                    } else {
                        "incr".into()
                    },
                    round.repair.vertices_touched.to_string(),
                    fmt_f64(round.repair.seconds, 4),
                    fmt_f64(round.recovered.delivery_rate(), 4),
                    fmt_f64(round.recovered_max_stretch, 3),
                ]);
            }
        }
        t
    }

    /// JSON rendering for snapshots and CI artifacts.
    pub fn to_json(&self) -> Json {
        let result = |r: &CaseResult| {
            let cong = r.report.congestion.as_ref();
            Json::obj([
                ("graph", r.graph_label.as_str().into()),
                ("n", r.n.into()),
                ("edges", r.edges.into()),
                ("workload", r.workload_key.as_str().into()),
                ("workload_spec", r.workload_spec.as_str().into()),
                ("scheme", r.scheme_key.as_str().into()),
                ("spec", r.scheme_spec.as_str().into()),
                ("scheme_name", r.scheme_name.as_str().into()),
                ("messages", r.report.routed_messages.into()),
                ("skipped_unreachable", r.report.skipped_unreachable.into()),
                ("max_stretch", r.stretch.max_stretch.into()),
                ("avg_stretch", r.stretch.avg_stretch.into()),
                ("max_route_len", r.stretch.max_route_len.into()),
                ("stretch_mode", r.stretch_mode.as_str().into()),
                ("guaranteed_stretch", r.guaranteed_stretch.into()),
                ("within_guarantee", r.within_guarantee.into()),
                ("max_arc_load", cong.map(|c| c.max_arc_load).into()),
                ("mean_arc_load", cong.map(|c| c.mean_arc_load).into()),
                ("local_bits", r.local_bits.into()),
                ("global_bits", r.global_bits.into()),
                ("blocks", r.report.blocks.into()),
                ("narrow_blocks", r.report.narrow_blocks.into()),
                ("peak_tracked_bytes", r.report.peak_tracked_bytes.into()),
                ("build_secs", r.build_secs.into()),
                ("run_secs", r.run_secs.into()),
                ("messages_per_sec", r.messages_per_sec.into()),
            ])
        };
        let round = |round: &ChurnRound| {
            Json::obj([
                ("round", round.round.into()),
                ("dead_links", round.dead_links.into()),
                ("degraded_delivery", round.degraded.delivery_rate().into()),
                ("degraded_delivered", round.degraded.delivered.into()),
                ("degraded_link_down", round.degraded.link_down.into()),
                ("degraded_hop_limit", round.degraded.hop_limit.into()),
                (
                    "degraded_wrong_delivery",
                    round.degraded.wrong_delivery.into(),
                ),
                ("degraded_max_stretch", round.degraded_max_stretch.into()),
                ("repair_full_rebuild", round.repair.full_rebuild.into()),
                (
                    "repair_vertices_touched",
                    round.repair.vertices_touched.into(),
                ),
                (
                    "repair_landmarks_rebuilt",
                    round.repair.landmarks_rebuilt.into(),
                ),
                ("repair_secs", round.repair.seconds.into()),
                ("recovered_delivery", round.recovered.delivery_rate().into()),
                ("recovered_max_stretch", round.recovered_max_stretch.into()),
            ])
        };
        let resilience = |r: &ResilienceResult| {
            Json::obj([
                ("graph", r.graph_label.as_str().into()),
                ("workload_spec", r.workload_spec.as_str().into()),
                ("scheme", r.scheme_spec.as_str().into()),
                ("churn", r.churn_spec.as_str().into()),
                ("halted", r.halted.as_deref().into()),
                ("rounds", r.rounds.iter().map(round).collect()),
            ])
        };
        let strings = |items: &[String]| items.iter().map(String::as_str).collect();
        Json::obj([
            ("scenario", self.scenario.as_str().into()),
            ("results", self.results.iter().map(result).collect()),
            (
                "resilience",
                self.resilience.iter().map(resilience).collect(),
            ),
            ("errors", strings(&self.errors)),
            ("skipped", strings(&self.skipped)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routeschemes::SchemeKind;

    #[test]
    fn scenario_names_are_unique_and_findable() {
        let all = named_scenarios();
        for s in &all {
            assert_eq!(find_scenario(&s.name).map(|x| x.name), Some(s.name.clone()));
            assert!(!s.cases.is_empty());
        }
        let mut names: Vec<String> = all.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(find_scenario("no-such-scenario").is_none());
    }

    #[test]
    fn find_scenario_is_case_insensitive_and_suggests_near_misses() {
        assert_eq!(find_scenario("SMOKE").map(|s| s.name), Some("smoke".into()));
        assert_eq!(
            find_scenario("Landmark-Sweep").map(|s| s.name),
            Some("landmark-sweep".into())
        );
        // A one-character typo suggests the intended scenario first.
        assert_eq!(suggest_scenarios("smoek")[0], "smoke");
        assert_eq!(suggest_scenarios("theorm1")[0], "theorem1");
        // A substring hits every matching scenario.
        let landmarkish = suggest_scenarios("landmark");
        assert!(landmarkish.iter().any(|n| n == "landmark-130k"));
        assert!(landmarkish.iter().any(|n| n == "landmark-sweep"));
        // Complete nonsense suggests nothing.
        assert!(suggest_scenarios("qqqqqqqqqqqqqqqqq").is_empty());
    }

    #[test]
    fn graph_specs_round_trip_through_the_codec() {
        let specs = [
            "random?n=1024&seed=3162",
            "random?n=64&deg=6.5&seed=1",
            "regular?n=131072&seed=2838",
            "regular?n=64&d=4",
            "ba?n=4096&seed=5",
            "ba?n=64&m=4",
            "powerlaw?n=4096&seed=2",
            "powerlaw?n=256&gamma=2.2&seed=1",
            "grid?rows=32&cols=32",
            "hypercube?dim=10",
            "complete?n=256",
            "tree?n=4096&seed=9",
            "theorem1?n=1024&seed=17",
            "theorem1?n=128&theta=0.25&seed=3",
        ];
        for s in specs {
            let spec = GraphSpec::parse(s).unwrap();
            assert_eq!(spec.spec_string(), s, "canonical form of '{s}'");
            assert_eq!(GraphSpec::parse(&spec.spec_string()).unwrap(), spec);
            assert_eq!(format!("{spec}"), s);
        }
        // Hex seeds and default values normalize to the canonical form.
        let spec = GraphSpec::parse("random?n=1024&deg=8&seed=0xC5A").unwrap();
        assert_eq!(spec.spec_string(), "random?n=1024&seed=3162");
    }

    #[test]
    fn graph_codec_rejections_are_typed() {
        assert!(matches!(
            GraphSpec::parse("blob?n=4"),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            GraphSpec::parse("random"),
            Err(SpecError::MissingParam { .. })
        ));
        assert!(matches!(
            GraphSpec::parse("grid?rows=4"),
            Err(SpecError::MissingParam { .. })
        ));
        assert!(matches!(
            GraphSpec::parse("random?n=4&bogus=1"),
            Err(SpecError::UnknownParam { .. })
        ));
        assert!(matches!(
            GraphSpec::parse("random?n=1"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            GraphSpec::parse("hypercube?dim=40"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            GraphSpec::parse("theorem1?n=64&theta=1.5"),
            Err(SpecError::InvalidValue { .. })
        ));
        // BA needs room for m distinct targets; power-law tails need γ > 2.
        assert!(matches!(
            GraphSpec::parse("ba?n=8&m=8"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            GraphSpec::parse("ba?n=8&m=0"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            GraphSpec::parse("powerlaw?n=8&gamma=2"),
            Err(SpecError::InvalidValue { .. })
        ));
    }

    #[test]
    fn every_documented_graph_param_is_accepted() {
        // Anti-drift: a name the docs list must never be rejected as
        // unknown, and a name they do not list must be.
        for key in GraphSpec::ALL_KEYS {
            let docs = GraphSpec::param_docs(key);
            for p in docs {
                let all: Vec<String> = docs.iter().map(|d| format!("{}=4", d.name)).collect();
                let spec = format!("{}?{}", key, all.join("&"));
                match GraphSpec::parse(&spec) {
                    Ok(_) => {}
                    Err(SpecError::UnknownParam { .. }) => {
                        panic!("documented param '{}' rejected: {spec}", p.name)
                    }
                    Err(SpecError::InvalidValue { .. }) => {} // range, not vocabulary
                    Err(other) => panic!("documented param {spec} failed oddly: {other}"),
                }
            }
            let bogus = format!("{key}?definitely-not-a-param=1");
            assert!(
                matches!(
                    GraphSpec::parse(&bogus),
                    Err(SpecError::UnknownParam { .. })
                ),
                "{bogus} must be rejected as unknown"
            );
        }
    }

    #[test]
    fn graph_vocabulary_covers_every_key_and_param() {
        let vocab = GraphSpec::vocabulary();
        for key in GraphSpec::ALL_KEYS {
            assert!(vocab.contains(key), "missing key {key}");
            for p in GraphSpec::param_docs(key) {
                assert!(vocab.contains(p.name), "missing param {} of {key}", p.name);
            }
        }
    }

    #[test]
    fn graph_specs_build_and_label() {
        for spec in [
            GraphSpec::RandomConnected {
                n: 64,
                avg_deg: 6.0,
                seed: 1,
            },
            GraphSpec::RandomRegular {
                n: 64,
                degree: 4,
                seed: 1,
            },
            GraphSpec::Grid { rows: 5, cols: 7 },
            GraphSpec::Hypercube { dim: 5 },
            GraphSpec::CompleteModular { n: 16 },
            GraphSpec::RandomTree { n: 40, seed: 2 },
            GraphSpec::Ba {
                n: 48,
                m: 3,
                seed: 5,
            },
            GraphSpec::PowerLaw {
                n: 48,
                exponent: 2.5,
                seed: 5,
            },
        ] {
            let built = spec.build();
            assert!(built.graph.num_nodes() >= 16, "{}", spec.spec_string());
            assert!(built.constrained.is_empty());
            assert!(!spec.spec_string().is_empty());
        }
        let t1 = GraphSpec::Theorem1 {
            n: 128,
            theta: 0.5,
            seed: 3,
        }
        .build();
        assert_eq!(t1.graph.num_nodes(), 128);
        assert!(!t1.constrained.is_empty());
        assert!(!t1.targets.is_empty());
    }

    #[test]
    fn mini_scenario_runs_end_to_end() {
        let scenario = ScenarioSpec {
            name: "mini".into(),
            description: "test".into(),
            cases: vec![CaseSpec {
                graph: GraphSpec::RandomConnected {
                    n: 48,
                    avg_deg: 6.0,
                    seed: 4,
                },
                workload: WorkloadSpec::Uniform {
                    messages: 400,
                    seed: 6,
                },
                schemes: vec![
                    SchemeSpec::default_for(SchemeKind::Table),
                    SchemeSpec::default_for(SchemeKind::SpanningTree),
                    SchemeSpec::Ecube, // does not apply: becomes a skip note
                ],
                block_rows: 8,
                churn: None,
                stretch: StretchMode::Auto,
                verify: false,
            }],
        };
        let rep = run_scenario(&scenario, 2);
        assert_eq!(rep.results.len(), 2);
        // e-cube does not apply to a random graph: a skip note, not an error.
        assert_eq!(rep.skipped.len(), 1);
        assert!(rep.errors.is_empty());
        let table_row = &rep.results[0];
        assert_eq!(table_row.scheme_key, "table");
        assert_eq!(table_row.report.routed_messages, 400);
        // stretch-1 promise of tables must hold under measurement
        assert_eq!(table_row.within_guarantee, Some(true));
        let rendered = rep.to_table().to_plain();
        assert!(rendered.contains("table"));
        let json = rep.to_json().to_string();
        assert!(json.contains("\"scenario\": \"mini\""));
        assert!(json.contains("\"within_guarantee\": true"));
    }

    #[test]
    fn verify_axis_passes_sound_schemes_through_unchanged() {
        let case = |verify| CaseSpec {
            graph: GraphSpec::RandomConnected {
                n: 48,
                avg_deg: 6.0,
                seed: 4,
            },
            workload: WorkloadSpec::Uniform {
                messages: 400,
                seed: 6,
            },
            schemes: vec![
                SchemeSpec::default_for(SchemeKind::Table),
                SchemeSpec::default_for(SchemeKind::Landmark),
            ],
            block_rows: 8,
            churn: None,
            stretch: StretchMode::Auto,
            verify,
        };
        let run = |verify| {
            run_scenario(
                &ScenarioSpec {
                    name: "verified".into(),
                    description: "test".into(),
                    cases: vec![case(verify)],
                },
                2,
            )
        };
        let gated = run(true);
        assert_eq!(gated.results.len(), 2, "{:?}", gated.skipped);
        assert!(gated.skipped.is_empty() && gated.errors.is_empty());
        // The gate only filters: measurements of sound schemes are the ones
        // the ungated run produces.
        let ungated = run(false);
        for (a, b) in gated.results.iter().zip(&ungated.results) {
            assert_eq!(a.scheme_spec, b.scheme_spec);
            assert_eq!(a.report.routed_messages, b.report.routed_messages);
            assert_eq!(a.report.outcomes.delivered, b.report.outcomes.delivered);
            assert_eq!(a.stretch.max_stretch, b.stretch.max_stretch);
        }
    }

    #[test]
    fn landmark_sweep_scenario_walks_the_published_ks() {
        let sweep = find_scenario("landmark-sweep").unwrap();
        assert_eq!(sweep.cases.len(), 1);
        let specs: Vec<String> = sweep.cases[0]
            .schemes
            .iter()
            .map(|s| s.spec_string())
            .collect();
        let expected: Vec<String> = LANDMARK_SWEEP_KS
            .iter()
            .map(|k| format!("landmark?k={k}"))
            .collect();
        assert_eq!(specs, expected);
        // The decade must start at-or-above the monotone knee (> √n): below
        // it the bits curve falls as k grows and the sweep stops being a
        // trade-off curve.
        let GraphSpec::RandomConnected { n, .. } = sweep.cases[0].graph else {
            panic!("sweep graph family changed");
        };
        assert!(LANDMARK_SWEEP_KS[0] * LANDMARK_SWEEP_KS[0] >= n);
        assert!(LANDMARK_SWEEP_KS.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            LANDMARK_SWEEP_KS[LANDMARK_SWEEP_KS.len() - 1],
            LANDMARK_SWEEP_KS[0] * 10,
            "the sweep spans exactly one decade"
        );
    }

    #[test]
    fn mini_landmark_sweep_bits_increase_and_stretch_holds() {
        // The landmark-sweep acceptance shape at test size: walking k upward
        // from the knee (≈ √(3n), above which the landmark-table term
        // dominates) strictly increases both the max and the mean per-router
        // bits while every point keeps the stretch promise, and every report
        // row carries its full spec.
        let ks = [64usize, 128, 256, 320];
        let scenario = ScenarioSpec {
            name: "mini-sweep".into(),
            description: "test".into(),
            cases: vec![CaseSpec {
                graph: GraphSpec::RandomConnected {
                    n: 1024,
                    avg_deg: 8.0,
                    seed: 0xC5A,
                },
                workload: WorkloadSpec::SampledSources {
                    sources: 32,
                    dests_per_source: 64,
                    seed: 9,
                },
                schemes: ks.iter().map(|&k| landmark_with_k(k)).collect(),
                block_rows: 8,
                churn: None,
                stretch: StretchMode::Auto,
                verify: false,
            }],
        };
        let rep = run_scenario(&scenario, 2);
        assert!(rep.errors.is_empty(), "{:?}", rep.errors);
        assert_eq!(rep.results.len(), ks.len());
        for (r, k) in rep.results.iter().zip(ks) {
            assert_eq!(r.scheme_key, "landmark");
            assert_eq!(r.scheme_spec, format!("landmark?k={k}"));
            assert_eq!(r.within_guarantee, Some(true));
            assert!(r.report.stretch.max_stretch < 3.0 + 1e-9);
        }
        for w in rep.results.windows(2) {
            assert!(
                w[0].local_bits < w[1].local_bits,
                "max per-router bits must increase: {} !< {} ({} vs {})",
                w[0].local_bits,
                w[1].local_bits,
                w[0].scheme_spec,
                w[1].scheme_spec
            );
            assert!(
                w[0].global_bits < w[1].global_bits,
                "total bits must increase: {} vs {}",
                w[0].scheme_spec,
                w[1].scheme_spec
            );
        }
        // The JSON rows stay distinguishable through the spec field.
        let json = rep.to_json().to_string();
        for k in ks {
            assert!(json.contains(&format!("\"spec\": \"landmark?k={k}\"")));
        }
    }

    #[test]
    fn stretch_modes_round_trip_and_resolve() {
        for s in ["auto", "exact", "sampled", "sampled?pairs=1024&seed=7"] {
            let mode = StretchMode::parse(s).unwrap();
            assert_eq!(mode.spec_string(), s, "canonical form of '{s}'");
            assert_eq!(StretchMode::parse(&mode.spec_string()).unwrap(), mode);
        }
        // Defaults normalize away.
        assert_eq!(
            StretchMode::parse("sampled?pairs=16384")
                .unwrap()
                .spec_string(),
            "sampled"
        );
        assert!(matches!(
            StretchMode::parse("approximate"),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            StretchMode::parse("sampled?pairs=0"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            StretchMode::parse("exact?pairs=4"),
            Err(SpecError::UnknownParam { .. })
        ));
        // Auto: exact below the threshold, sampled above — except for
        // all-pairs workloads, whose fold already covers every pair.
        let uniform = WorkloadSpec::Uniform {
            messages: 10,
            seed: 0,
        };
        assert_eq!(
            StretchMode::Auto.resolve(1024, &uniform),
            StretchMode::Exact
        );
        assert!(matches!(
            StretchMode::Auto.resolve(SAMPLED_STRETCH_THRESHOLD, &uniform),
            StretchMode::Sampled { .. }
        ));
        assert_eq!(
            StretchMode::Auto.resolve(SAMPLED_STRETCH_THRESHOLD, &WorkloadSpec::AllPairs),
            StretchMode::Exact
        );
        // Explicit modes resolve to themselves.
        assert_eq!(
            StretchMode::Exact.resolve(SAMPLED_STRETCH_THRESHOLD, &uniform),
            StretchMode::Exact
        );
        let vocab = StretchMode::vocabulary();
        for key in StretchMode::ALL_KEYS {
            assert!(vocab.contains(key), "missing key {key}");
        }
        assert!(vocab.contains("pairs"));
    }

    #[test]
    fn sampled_stretch_mode_probes_and_notes_the_row() {
        // An explicitly sampled case: the displayed stretch comes from the
        // dedicated probe (deterministic per seed), the row carries the
        // resolved spec as its note, and the guarantee is judged against
        // the probe's fold.
        let case = |stretch| CaseSpec {
            graph: GraphSpec::RandomConnected {
                n: 96,
                avg_deg: 6.0,
                seed: 4,
            },
            workload: WorkloadSpec::Uniform {
                messages: 500,
                seed: 6,
            },
            schemes: vec![SchemeSpec::default_for(SchemeKind::Landmark)],
            block_rows: 8,
            churn: None,
            stretch,
            verify: false,
        };
        let scenario = |stretch| ScenarioSpec {
            name: "probe".into(),
            description: "test".into(),
            cases: vec![case(stretch)],
        };
        let sampled = run_scenario(
            &scenario(StretchMode::Sampled {
                pairs: 2048,
                seed: 11,
            }),
            2,
        );
        assert!(sampled.errors.is_empty(), "{:?}", sampled.errors);
        let row = &sampled.results[0];
        assert_eq!(row.stretch_mode, "sampled?pairs=2048&seed=11");
        assert_eq!(row.within_guarantee, Some(true));
        // The probe's pair count is its own, not the workload's.
        assert_ne!(row.stretch.pairs, row.report.stretch.pairs);
        assert!(row.stretch.pairs >= 2048 - 64, "{}", row.stretch.pairs);
        // Same probe, different thread count: bit-identical estimate.
        let again = run_scenario(
            &scenario(StretchMode::Sampled {
                pairs: 2048,
                seed: 11,
            }),
            1,
        );
        assert_eq!(
            again.results[0].stretch.avg_stretch.to_bits(),
            row.stretch.avg_stretch.to_bits()
        );
        // Exact mode: the displayed stretch IS the workload fold.
        let exact = run_scenario(&scenario(StretchMode::Exact), 2);
        let row = &exact.results[0];
        assert_eq!(row.stretch_mode, "exact");
        assert_eq!(
            row.stretch.avg_stretch.to_bits(),
            row.report.stretch.avg_stretch.to_bits()
        );
        // The note lands in both renderings.
        let json = sampled.to_json().to_string();
        assert!(json.contains("\"stretch_mode\": \"sampled?pairs=2048&seed=11\""));
        assert!(exact
            .to_json()
            .to_string()
            .contains("\"stretch_mode\": \"exact\""));
        assert!(sampled.to_table().to_plain().contains("sampled?pairs=2048"));
    }

    #[test]
    fn invalid_workloads_become_errors_not_panics() {
        // Programmatically-built scenarios get the same guard as files: an
        // out-of-range broadcast root is an error entry, not an assert panic.
        let scenario = ScenarioSpec {
            name: "bad-root".into(),
            description: "test".into(),
            cases: vec![CaseSpec {
                graph: GraphSpec::Grid { rows: 4, cols: 4 },
                workload: WorkloadSpec::Broadcast { roots: vec![0, 99] },
                schemes: vec![SchemeSpec::default_for(SchemeKind::SpanningTree)],
                block_rows: 0,
                churn: None,
                stretch: StretchMode::Auto,
                verify: false,
            }],
        };
        let rep = run_scenario(&scenario, 1);
        assert!(rep.results.is_empty());
        assert_eq!(rep.errors.len(), 1);
        assert!(
            rep.errors[0].contains("broadcast root 99 is out of range"),
            "{:?}",
            rep.errors[0]
        );
        // Sub-2-vertex graphs are rejected the same way.
        let scenario = ScenarioSpec {
            name: "too-small".into(),
            description: "test".into(),
            cases: vec![CaseSpec {
                graph: GraphSpec::Grid { rows: 1, cols: 1 },
                workload: WorkloadSpec::AllPairs,
                schemes: vec![SchemeSpec::default_for(SchemeKind::SpanningTree)],
                block_rows: 0,
                churn: None,
                stretch: StretchMode::Auto,
                verify: false,
            }],
        };
        let rep = run_scenario(&scenario, 1);
        assert!(rep.results.is_empty());
        assert_eq!(rep.errors.len(), 1);
        assert!(rep.errors[0].contains("at least two vertices"));
    }

    #[test]
    fn build_failures_become_typed_skip_notes() {
        // A spec whose cap cannot be met is a skip with the typed reason,
        // not an error, and not a panic.
        let scenario = ScenarioSpec {
            name: "capped".into(),
            description: "test".into(),
            cases: vec![CaseSpec {
                graph: GraphSpec::RandomConnected {
                    n: 48,
                    avg_deg: 6.0,
                    seed: 4,
                },
                workload: WorkloadSpec::Uniform {
                    messages: 200,
                    seed: 6,
                },
                schemes: vec![SchemeSpec::parse("interval?k=1").unwrap()],
                block_rows: 8,
                churn: None,
                stretch: StretchMode::Auto,
                verify: false,
            }],
        };
        let rep = run_scenario(&scenario, 1);
        assert!(rep.results.is_empty());
        assert!(rep.errors.is_empty());
        assert_eq!(rep.skipped.len(), 1);
        assert!(
            rep.skipped[0].contains("cap 'k' exceeded"),
            "note must carry the typed reason: {:?}",
            rep.skipped[0]
        );
    }

    #[test]
    fn theorem1_probes_route_constrained_pairs() {
        let scenario = ScenarioSpec {
            name: "t1-mini".into(),
            description: "test".into(),
            cases: vec![CaseSpec {
                graph: GraphSpec::Theorem1 {
                    n: 128,
                    theta: 0.5,
                    seed: 3,
                },
                workload: WorkloadSpec::ConstrainedProbes,
                schemes: vec![SchemeSpec::default_for(SchemeKind::Table)],
                block_rows: 4,
                churn: None,
                stretch: StretchMode::Auto,
                verify: false,
            }],
        };
        let built = GraphSpec::Theorem1 {
            n: 128,
            theta: 0.5,
            seed: 3,
        }
        .build();
        let rep = run_scenario(&scenario, 1);
        assert_eq!(rep.results.len(), 1);
        assert_eq!(
            rep.results[0].report.routed_messages,
            (built.constrained.len() * built.targets.len()) as u64
        );
    }
}
