//! # trafficlab
//!
//! A sharded, parallel routing-**workload engine**: drive any
//! `routeschemes::CompactScheme` under configurable traffic scenarios and
//! measure what the paper's theory bounds — stretch, per-router memory — plus
//! what it abstracts away: per-arc congestion, route-length distributions,
//! sustained messages per second.
//!
//! The paper studies the cost of routing when *every* pair of nodes may
//! exchange messages.  A dense `n × n` distance matrix caps that experiment
//! at a few thousand nodes; `trafficlab` instead streams the evaluation in
//! bounded per-block memory (in the delay/space spirit of enumeration
//! complexity): source nodes are sharded into blocks, every worker computes
//! the block's BFS rows (narrow `u8` rows where they fit), routes the
//! block's messages with zero per-message allocations, and per-source
//! stretch partials are folded in source order — so the all-pairs report is
//! **bit-identical** to `routemodel::stretch_factor`, the sequential
//! reference, while peak memory stays `O(workers · block_rows · n)`.
//!
//! Layers:
//!
//! * [`workload`] — scenario generators behind the [`WorkloadSpec`] codec:
//!   `all-pairs`, `uniform`, `zipf?messages=1e6&s=1.2`, `permutations`,
//!   `broadcast`, `sampled-sources`, the adversarial `bisection` /
//!   `worstperm` patterns, and the Theorem 1 `constrained-probes`;
//! * [`engine`] — the parallel executor and its [`WorkloadReport`]; it
//!   routes each message through `routemodel::walk`, the model's one
//!   routing loop, over a `graphkit::GraphView` (dead links masked),
//!   bucketing per-message fates in [`engine::OutcomeCounts`] instead of
//!   aborting;
//! * [`churn`] — the failure/repair axis ([`ChurnSpec`]): round-structured
//!   fail → measure degraded → repair → measure recovered execution, the
//!   resilience rows of a scenario report;
//! * [`metrics`] — streaming congestion counters and length histograms;
//! * [`scenario`] — declarative scenarios ([`ScenarioSpec`]: graph spec ×
//!   workload spec × scheme specs) over the scheme registry, with table,
//!   congestion-vs-stretch and JSON reports (see the `trafficlab` binary);
//! * [`files`] — the TOML scenario-file codec; the built-in scenario book
//!   itself is data under `examples/scenarios/`.

#![forbid(unsafe_code)]

pub mod churn;
pub mod engine;
pub mod files;
pub mod metrics;
pub mod scenario;
pub mod workload;

/// The one JSON string escaper, shared with the `routeserve` front door so
/// every report escapes control characters the same way.
pub use analysis::report::json_escape;
pub use churn::{run_churn, ChurnError, ChurnRound, ChurnRun, ChurnSpec};
pub use engine::{
    run_workload, stretch_factor_blocked, EngineConfig, OutcomeCounts, WorkloadReport,
};
pub use files::ScenarioFileError;
pub use metrics::{CongestionCounters, CongestionReport, LengthHistogram};
pub use scenario::{
    find_scenario, landmark_strict, landmark_with_k, named_scenarios, run_scenario,
    suggest_scenarios, CaseResult, CaseSpec, GraphSpec, ResilienceResult, ScenarioReport,
    ScenarioSpec, StretchMode, LANDMARK_SWEEP_KS, SAMPLED_STRETCH_PAIRS, SAMPLED_STRETCH_THRESHOLD,
};
pub use workload::{SourceDests, WorkloadPlan, WorkloadSpec};
