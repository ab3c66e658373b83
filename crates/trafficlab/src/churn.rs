//! The churn axis: link failures injected in rounds, with incremental
//! scheme repair between measurements.
//!
//! A [`ChurnSpec`] (`churn?kill=0.01&rounds=8&seed=7`) attaches to a
//! scenario case and turns its single healthy sweep into a round-structured
//! resilience experiment.  Every round
//!
//! 1. **fails** a cumulative sample of links — round `r` masks
//!    `FailureSet::sample(g, r · kill, seed)`, and the sampler's
//!    prefix-stability makes consecutive rounds *nested*, which is exactly
//!    what the incremental repair paths require;
//! 2. **measures degraded**: the still-stale routing function runs the
//!    case's workload on the masked [`GraphView`] — messages that hit a dead
//!    link or loop are bucketed per [`DeliveryOutcome`] instead of aborting;
//! 3. **repairs**: [`SchemeInstance::repair`] patches the scheme in place
//!    (affected-only recompute for landmark routing, subtree re-hang for the
//!    spanning tree), timing it;
//! 4. **measures recovered**: the same workload again — on a connected view
//!    a correct repair restores delivery rate 1.0.
//!
//! Rounds stop early (with a recorded reason, not an error) when the
//! cumulative failures disconnect the surviving graph: past that point the
//! paper's model — routing on a connected network — no longer applies.
//!
//! [`DeliveryOutcome`]: routemodel::DeliveryOutcome

use crate::engine::{run_workload, EngineConfig, OutcomeCounts};
use crate::workload::WorkloadPlan;
use graphkit::traversal::is_connected;
use graphkit::{FailureSet, Graph, GraphView};
use routemodel::RoutingError;
use routeschemes::{BuildError, RepairStats, SchemeInstance};
use speclang::{
    push_nonzero_seed, render_spec, render_vocabulary, split_spec, ParamDoc, ParsedParams, SpecCtx,
    SpecError,
};

/// The churn axis of a scenario case: how hard and how often links fail.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Fraction of links killed *per round* (cumulative across rounds).
    pub kill: f64,
    /// Number of fail → measure → repair → measure rounds.
    pub rounds: usize,
    /// Failure-sampling seed.
    pub seed: u64,
}

const DEFAULT_ROUNDS: usize = 4;

impl ChurnSpec {
    /// The single spec key.
    pub const KEY: &'static str = "churn";

    /// The accepted parameters — shared by the parser, the canonical
    /// formatter and [`ChurnSpec::vocabulary`].
    pub fn param_docs() -> &'static [ParamDoc] {
        &[
            ParamDoc {
                name: "kill",
                values: "link fraction killed per round, in (0, 1) (required)",
            },
            ParamDoc {
                name: "rounds",
                values: "churn rounds >= 1 (default 4)",
            },
            ParamDoc {
                name: "seed",
                values: "u64 failure-sampling seed (default 0; 0x hex ok)",
            },
        ]
    }

    /// The valid-spec vocabulary block.
    pub fn vocabulary() -> String {
        render_vocabulary(
            "valid churn specs (omitted params = defaults; 'kill' is required):",
            &[(Self::KEY, Self::param_docs())],
        )
    }

    /// Parses a spec string (`churn?kill=0.01&rounds=8&seed=7`).
    pub fn parse(spec: &str) -> Result<ChurnSpec, SpecError> {
        let (key, query) = split_spec(spec);
        if key != Self::KEY {
            return Err(SpecError::UnknownKey {
                domain: "churn",
                key: key.to_string(),
            });
        }
        let ctx = SpecCtx::new("churn", Self::KEY);
        let p = ParsedParams::new(ctx, spec, query, Self::param_docs())?;
        let kill_raw = p.get("kill").ok_or_else(|| ctx.missing("kill"))?;
        let kill = ctx.parse_f64("kill", kill_raw, "a float in (0, 1)")?;
        if !(kill > 0.0 && kill < 1.0) {
            return Err(ctx.invalid("kill", kill_raw, "a float in (0, 1)"));
        }
        let rounds = match p.get("rounds") {
            Some(value) => {
                let r: usize = ctx.parse_int("rounds", value, "an integer >= 1")?;
                if r == 0 {
                    return Err(ctx.invalid("rounds", value, "an integer >= 1"));
                }
                r
            }
            None => DEFAULT_ROUNDS,
        };
        Ok(ChurnSpec {
            kill,
            rounds,
            seed: p.seed()?,
        })
    }

    /// The canonical string form (defaults omitted); `parse` of the result
    /// reproduces `self` exactly.
    pub fn spec_string(&self) -> String {
        let mut params = vec![format!("kill={}", self.kill)];
        if self.rounds != DEFAULT_ROUNDS {
            params.push(format!("rounds={}", self.rounds));
        }
        push_nonzero_seed(&mut params, self.seed);
        render_spec(Self::KEY, &params)
    }
}

impl std::fmt::Display for ChurnSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec_string())
    }
}

/// One fail → measure → repair → measure round.
#[derive(Debug, Clone)]
pub struct ChurnRound {
    /// 1-based round number.
    pub round: usize,
    /// Cumulative dead links in effect this round.
    pub dead_links: usize,
    /// Message fates under the *stale* routing function.
    pub degraded: OutcomeCounts,
    /// Max stretch of the messages the stale function still delivered,
    /// measured against the degraded graph's distances.
    pub degraded_max_stretch: f64,
    /// What the in-place repair cost.
    pub repair: RepairStats,
    /// Message fates after repair (1.0 delivery on a connected view).
    pub recovered: OutcomeCounts,
    /// Max stretch after repair, against the degraded graph's distances.
    pub recovered_max_stretch: f64,
}

/// A completed churn run for one (case, scheme) cell.
#[derive(Debug, Clone, Default)]
pub struct ChurnRun {
    pub rounds: Vec<ChurnRound>,
    /// Why the run stopped before its planned round count (cumulative
    /// failures disconnected the surviving graph), if it did.
    pub halted: Option<String>,
}

/// Why a churn run could not complete.
#[derive(Debug)]
pub enum ChurnError {
    /// The scheme has no repair strategy — a benign skip, not a failure.
    Unsupported(BuildError),
    /// A routing-model violation mid-round — the scheme is broken.
    Routing { round: usize, error: RoutingError },
    /// Repair itself failed for a repairable scheme.
    Repair { round: usize, error: BuildError },
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::Unsupported(e) => write!(f, "{e}"),
            ChurnError::Routing { round, error } => {
                write!(f, "churn round {round}: {error}")
            }
            ChurnError::Repair { round, error } => {
                write!(f, "churn round {round}: repair failed: {error}")
            }
        }
    }
}

impl std::error::Error for ChurnError {}

/// Runs the churn rounds for one scheme instance, mutating it in place.
///
/// The instance must have been built on the *healthy* `g`; on return it is
/// adapted to the last round's failure set.  Congestion tracking is forced
/// off — churn reports are about delivery and repair cost, and the per-arc
/// counters would double the run's memory for nothing.
pub fn run_churn(
    g: &Graph,
    instance: &mut SchemeInstance,
    plan: &WorkloadPlan,
    cfg: &EngineConfig,
    churn: &ChurnSpec,
) -> Result<ChurnRun, ChurnError> {
    let cfg = EngineConfig {
        track_congestion: false,
        ..*cfg
    };
    let mut out = ChurnRun::default();
    for round in 1..=churn.rounds {
        let rate = (churn.kill * round as f64).min(1.0);
        let failures = FailureSet::sample(g, rate, churn.seed);
        let view = GraphView::masked(g, &failures);
        if !is_connected(view) {
            out.halted = Some(format!(
                "halted at round {round}: {} cumulative dead links disconnect the graph",
                failures.dead_edges().len()
            ));
            break;
        }
        let degraded = run_workload(view, instance.routing.as_ref(), plan, &cfg)
            .map_err(|error| ChurnError::Routing { round, error })?;
        let repair = match instance.repair(g, &failures) {
            Ok(stats) => stats,
            Err(e @ BuildError::NotApplicable { .. }) => return Err(ChurnError::Unsupported(e)),
            Err(error) => return Err(ChurnError::Repair { round, error }),
        };
        let recovered = run_workload(view, instance.routing.as_ref(), plan, &cfg)
            .map_err(|error| ChurnError::Routing { round, error })?;
        out.rounds.push(ChurnRound {
            round,
            dead_links: failures.dead_edges().len(),
            degraded: degraded.outcomes,
            degraded_max_stretch: degraded.stretch.max_stretch,
            repair,
            recovered: recovered.outcomes,
            recovered_max_stretch: recovered.stretch.max_stretch,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use graphkit::generators;
    use routeschemes::{CompactScheme, LandmarkScheme, SpanningTreeScheme, TableScheme};

    #[test]
    fn churn_specs_round_trip_through_the_codec() {
        let specs = [
            "churn?kill=0.01",
            "churn?kill=0.05&rounds=8",
            "churn?kill=0.1&seed=7",
            "churn?kill=0.02&rounds=2&seed=3162",
        ];
        for s in specs {
            let spec = ChurnSpec::parse(s).unwrap();
            assert_eq!(spec.spec_string(), s, "canonical form of '{s}'");
            assert_eq!(ChurnSpec::parse(&spec.spec_string()).unwrap(), spec);
            assert_eq!(format!("{spec}"), s);
        }
        // Defaults and hex seeds normalize to the canonical form.
        let spec = ChurnSpec::parse("churn?kill=0.01&rounds=4&seed=0x0").unwrap();
        assert_eq!(spec.spec_string(), "churn?kill=0.01");
    }

    #[test]
    fn churn_codec_rejections_are_typed() {
        assert!(matches!(
            ChurnSpec::parse("chrun?kill=0.01"),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            ChurnSpec::parse("churn"),
            Err(SpecError::MissingParam { .. })
        ));
        assert!(matches!(
            ChurnSpec::parse("churn?kill=0"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            ChurnSpec::parse("churn?kill=1.5"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            ChurnSpec::parse("churn?kill=0.01&rounds=0"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            ChurnSpec::parse("churn?kill=0.01&bogus=1"),
            Err(SpecError::UnknownParam { .. })
        ));
        let vocab = ChurnSpec::vocabulary();
        for p in ChurnSpec::param_docs() {
            assert!(vocab.contains(p.name), "vocabulary misses '{}'", p.name);
        }
    }

    #[test]
    fn churn_rounds_degrade_then_recover() {
        let g = generators::random_connected(140, 0.06, 11);
        let mut instance = LandmarkScheme::default().build(&g);
        let plan = WorkloadSpec::AllPairs.compile(g.num_nodes());
        let cfg = EngineConfig {
            threads: 1,
            block_rows: 16,
            track_congestion: false,
        };
        let churn = ChurnSpec {
            kill: 0.02,
            rounds: 3,
            seed: 9,
        };
        let run = run_churn(&g, &mut instance, &plan, &cfg, &churn).unwrap();
        assert!(run.halted.is_none(), "{:?}", run.halted);
        assert_eq!(run.rounds.len(), 3);
        let mut saw_degradation = false;
        for (i, r) in run.rounds.iter().enumerate() {
            assert_eq!(r.round, i + 1);
            // Connected view + repaired scheme = full delivery.
            assert_eq!(
                r.recovered.delivery_rate(),
                1.0,
                "round {} not recovered: {:?}",
                r.round,
                r.recovered
            );
            // Landmark repair keeps the stretch promise on the damaged graph.
            assert!(r.recovered_max_stretch < 3.0 + 1e-9);
            assert!(r.degraded.delivery_rate() <= 1.0);
            saw_degradation |= r.degraded.delivery_rate() < 1.0;
            assert!(r.repair.vertices_touched > 0);
        }
        assert!(saw_degradation, "no round dropped a message: {run:?}");
        // Cumulative sampling: dead links never shrink across rounds.
        for w in run.rounds.windows(2) {
            assert!(w[0].dead_links <= w[1].dead_links);
        }
    }

    #[test]
    fn spanning_tree_churn_recovers_too() {
        let g = generators::random_connected(90, 0.08, 5);
        let mut instance = SpanningTreeScheme::default().build(&g);
        let plan = WorkloadSpec::SampledSources {
            sources: 20,
            dests_per_source: 30,
            seed: 2,
        }
        .compile(g.num_nodes());
        let cfg = EngineConfig::default();
        let churn = ChurnSpec {
            kill: 0.03,
            rounds: 2,
            seed: 4,
        };
        let run = run_churn(&g, &mut instance, &plan, &cfg, &churn).unwrap();
        for r in &run.rounds {
            assert_eq!(r.recovered.delivery_rate(), 1.0, "round {}", r.round);
        }
        assert_eq!(run.rounds.len(), 2);
    }

    #[test]
    fn unrepairable_schemes_surface_as_unsupported() {
        let g = generators::random_connected(40, 0.12, 1);
        let mut instance = TableScheme::default().build(&g);
        let plan = WorkloadSpec::AllPairs.compile(g.num_nodes());
        let churn = ChurnSpec {
            kill: 0.05,
            rounds: 1,
            seed: 1,
        };
        let err =
            run_churn(&g, &mut instance, &plan, &EngineConfig::default(), &churn).unwrap_err();
        assert!(matches!(err, ChurnError::Unsupported(_)), "{err}");
        assert!(err.to_string().contains("no repair strategy"));
    }

    #[test]
    fn disconnecting_churn_halts_with_a_reason() {
        // A path dies on its first cut; the run halts instead of erroring.
        let g = generators::path(30);
        let mut instance = SpanningTreeScheme::default().build(&g);
        let plan = WorkloadSpec::AllPairs.compile(g.num_nodes());
        let churn = ChurnSpec {
            kill: 0.2,
            rounds: 5,
            seed: 3,
        };
        let run = run_churn(&g, &mut instance, &plan, &EngineConfig::default(), &churn).unwrap();
        assert!(run.halted.is_some());
        assert!(run.halted.unwrap().contains("disconnect"));
        assert!(run.rounds.len() < 5);
    }
}
