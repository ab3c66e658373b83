//! Every call the benchmark makes into the routing crates.
//!
//! Workload code never names a crate item; it goes through this module,
//! which uses only the long-lived entry points: graph specs and generators,
//! `SchemeSpec::build`, `SchemeInstance::repair` and `audit`,
//! `routeserve::serve` with its default kernel, `trafficlab::run_workload`,
//! `routecheck::check_routing`, `TableRouting::shortest_paths`, the
//! `constraints` checks, and `routeschemes::mutate` for the benchmark's own
//! test.  A change to one of those signatures is an edit here and nowhere
//! else.
//!
//! Each call runs inside a trace span named `<crate>.<call>[.<label>]`, so
//! the traced run attributes its time to the crate that did the work.

use crate::trace::{add, peak, span};
use constraints::ConstraintGraph;
use graphkit::traversal::is_connected;
use graphkit::{generators, Graph, GraphView};
use routemodel::{RoutingFunction, TableRouting, TieBreak};
use routeschemes::{corrupt_instance, GraphHints, MutationKind, SchemeInstance, SchemeSpec};
use routeserve::ServeConfig;
use std::time::Instant;
use trafficlab::{EngineConfig, GraphSpec, SourceDests, WorkloadSpec};

pub use graphkit::FailureSet;
pub use trafficlab::WorkloadPlan;

/// Worker threads of every parallel call (serve, stretch, proof).  Fixed,
/// so a run on a larger machine measures the same load shape.
pub const THREADS: usize = 2;

/// A generated graph and the hints its generator vouches for.
pub struct Network {
    graph: Graph,
    hints: GraphHints,
}

impl Network {
    pub fn n(&self) -> usize {
        self.graph.num_nodes()
    }

    fn view<'a>(&'a self, failures: Option<&'a FailureSet>) -> GraphView<'a> {
        match failures {
            Some(f) => GraphView::masked(&self.graph, f),
            None => GraphView::full(&self.graph),
        }
    }
}

/// The graph families the workloads run on.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// `random?n=..&deg=..&seed=..`.
    Random { n: usize, deg: f64, seed: u64 },
    /// `regular?n=..&d=..&seed=..`.
    Regular { n: usize, d: usize, seed: u64 },
    /// `grid?rows=side&cols=side`.
    Grid { side: usize },
    /// `hypercube?dim=..`.
    Hypercube { dim: usize },
    /// The complete binary tree of the given depth.
    BinaryTree { depth: usize },
}

/// Generates a graph of `family`.
pub fn generate(family: Family) -> Network {
    span("graphkit.generate", || {
        let spec = match family {
            Family::Random { n, deg, seed } => GraphSpec::RandomConnected {
                n,
                avg_deg: deg,
                seed,
            },
            Family::Regular { n, d, seed } => GraphSpec::RandomRegular { n, degree: d, seed },
            Family::Grid { side } => GraphSpec::Grid {
                rows: side,
                cols: side,
            },
            Family::Hypercube { dim } => GraphSpec::Hypercube { dim },
            Family::BinaryTree { depth } => {
                return Network {
                    graph: generators::balanced_tree(2, depth),
                    hints: GraphHints::none(),
                }
            }
        };
        let built = spec.build();
        Network {
            graph: built.graph,
            hints: built.hints,
        }
    })
}

/// A Theorem 1 worst-case instance: the network plus the constraint
/// structure the paper's checks need.
pub struct WorstCase {
    cg: ConstraintGraph,
}

/// Builds the `n`-vertex Theorem 1 instance of constrained fraction `theta`.
pub fn worst_case(n: usize, theta: f64, seed: u64) -> (Network, WorstCase) {
    span("constraints.instance", || {
        let (cg, _params) = constraints::theorem1::build_worst_case_instance(n, theta, seed);
        let net = Network {
            graph: cg.graph.clone(),
            hints: GraphHints::none(),
        };
        (net, WorstCase { cg })
    })
}

enum Tables {
    Scheme(SchemeInstance),
    Shortest(TableRouting),
}

/// Built routing tables under a short label (`tree`, `landmark`, `grid`,
/// `ecube`, `table`) used in span and metric names.
pub struct Router {
    pub label: &'static str,
    tables: Tables,
}

impl Router {
    fn routing(&self) -> &(dyn RoutingFunction + Send + Sync) {
        match &self.tables {
            Tables::Scheme(inst) => &*inst.routing,
            Tables::Shortest(t) => t,
        }
    }

    /// The stretch the scheme promises (`None`: no promise).
    pub fn guarantee(&self) -> Option<f64> {
        match &self.tables {
            Tables::Scheme(inst) => inst.guaranteed_stretch,
            Tables::Shortest(_) => Some(1.0),
        }
    }
}

/// Builds the registry scheme `spec` (a `SchemeSpec` string) on `net`.
pub fn build(net: &Network, spec: &str, label: &'static str) -> Result<Router, String> {
    span(&format!("routeschemes.build.{label}"), || {
        let spec = SchemeSpec::parse(spec).map_err(|e| e.to_string())?;
        let inst = spec
            .build(&net.graph, &net.hints)
            .map_err(|e| e.to_string())?;
        Ok(Router {
            label,
            tables: Tables::Scheme(inst),
        })
    })
}

/// Full shortest-path tables with seeded tie-breaking.
pub fn shortest_paths(net: &Network, seed: u64) -> Router {
    span("routemodel.table_build", || Router {
        label: "table",
        tables: Tables::Shortest(TableRouting::shortest_paths(
            &net.graph,
            TieBreak::Seeded(seed),
        )),
    })
}

fn compile(spec: WorkloadSpec, n: usize) -> WorkloadPlan {
    span("trafficlab.compile", || spec.compile(n))
}

/// `messages` queries, uniform sources and destinations.
pub fn uniform(n: usize, messages: u64, seed: u64) -> WorkloadPlan {
    compile(WorkloadSpec::Uniform { messages, seed }, n)
}

/// `messages` queries, uniform sources, Zipf(s = 1) destinations.
pub fn zipf(n: usize, messages: u64, seed: u64) -> WorkloadPlan {
    compile(
        WorkloadSpec::Zipf {
            messages,
            exponent: 1.0,
            seed,
        },
        n,
    )
}

/// Every ordered pair of distinct vertices once.
pub fn all_pairs(n: usize) -> WorkloadPlan {
    compile(WorkloadSpec::AllPairs, n)
}

/// The queries of `plan` sent by its first `sources` sending vertices.
pub fn head(plan: &WorkloadPlan, sources: usize) -> WorkloadPlan {
    span("trafficlab.compile", || {
        let n = plan.num_nodes();
        let mut pairs = Vec::new();
        let mut taken = 0;
        for s in 0..n {
            if taken == sources {
                break;
            }
            let before = pairs.len();
            match plan.dests(s) {
                SourceDests::AllOthers => pairs.extend((0..n).map(|t| (s, t))),
                SourceDests::List(list) => pairs.extend(list.iter().map(|&t| (s, t as usize))),
            }
            taken += usize::from(pairs.len() > before);
        }
        WorkloadPlan::from_pairs(n, pairs)
    })
}

/// The nested failure sample of `rate` (samples of one seed are nested as
/// the rate grows).
pub fn fail(net: &Network, rate: f64, seed: u64) -> FailureSet {
    span("graphkit.fail", || {
        FailureSet::sample(&net.graph, rate, seed)
    })
}

/// Whether `net` stays connected with `failures` dead.
pub fn connected(net: &Network, failures: &FailureSet) -> bool {
    span("graphkit.connectivity", || {
        is_connected(GraphView::masked(&net.graph, failures))
    })
}

/// What one serve call answered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Served {
    pub queries: u64,
    pub delivered: u64,
    /// Wall time of the call.
    pub secs: f64,
}

/// Serves every query of `plan` with `router` on `net` (with `failures`
/// dead, if any) through the default kernel.
pub fn serve(
    net: &Network,
    failures: Option<&FailureSet>,
    router: &Router,
    plan: &WorkloadPlan,
) -> Result<Served, String> {
    span(&format!("routeserve.serve.{}", router.label), || {
        let cfg = ServeConfig {
            threads: THREADS,
            ..ServeConfig::batched()
        };
        let t = Instant::now();
        let stats = routeserve::serve(net.view(failures), router.routing(), plan, &cfg)
            .map_err(|e| e.to_string())?;
        let served = Served {
            queries: stats.outcomes.attempted(),
            delivered: stats.outcomes.delivered,
            secs: t.elapsed().as_secs_f64(),
        };
        if failures.is_none() {
            add(
                &format!("routeserve.queries.{}", router.label),
                served.queries as f64,
            );
            add(&format!("routeserve.secs.{}", router.label), served.secs);
        }
        Ok(served)
    })
}

/// What one repair call did.
#[derive(Debug, Clone, Copy)]
pub struct Repaired {
    pub full_rebuild: bool,
}

/// Adapts `router`'s tables to `failures` (the complete failure set).
pub fn repair(
    router: &mut Router,
    net: &Network,
    failures: &FailureSet,
) -> Result<Repaired, String> {
    span("routeschemes.repair", || {
        let Tables::Scheme(inst) = &mut router.tables else {
            return Err("shortest-path tables have no repair".to_string());
        };
        let stats = inst
            .repair(&net.graph, failures)
            .map_err(|e| e.to_string())?;
        add("routeschemes.repairs", 1.0);
        add("routeschemes.repair_touched", stats.vertices_touched as f64);
        add(
            "routeschemes.repair_landmarks",
            stats.landmarks_rebuilt as f64,
        );
        add(
            "routeschemes.repairs_incremental",
            f64::from(u8::from(!stats.full_rebuild)),
        );
        Ok(Repaired {
            full_rebuild: stats.full_rebuild,
        })
    })
}

/// Structural findings of the stored tables (cluster order, port range,
/// memory accounting); empty means clean.
pub fn audit_tables(router: &Router, net: &Network) -> Vec<String> {
    span("routeschemes.audit", || match &router.tables {
        Tables::Scheme(inst) => inst.audit(&net.graph),
        Tables::Shortest(t) => t.audit(&net.graph),
    })
}

/// Applies one seeded delivery-breaking corruption to `router`'s tables.
pub fn corrupt(router: &mut Router, net: &Network, seed: u64) -> Result<(), String> {
    span("routeschemes.mutate", || {
        let Tables::Scheme(inst) = &mut router.tables else {
            return Err("only scheme instances take mutations".to_string());
        };
        corrupt_instance(inst, &net.graph, seed, MutationKind::Misroute).map(|_| ())
    })
}

/// What a stretch-engine pass measured.
#[derive(Debug, Clone, Copy)]
pub struct Walked {
    pub attempted: u64,
    pub delivered: u64,
    pub max_stretch: f64,
    pub total_hops: u64,
}

/// Routes every query of `plan` with exact BFS ground truth.
pub fn walk(net: &Network, router: &Router, plan: &WorkloadPlan) -> Result<Walked, String> {
    span("trafficlab.run_workload", || {
        let cfg = EngineConfig {
            threads: THREADS,
            block_rows: 0,
            track_congestion: false,
        };
        let report = trafficlab::run_workload(&net.graph, router.routing(), plan, &cfg)
            .map_err(|e| e.to_string())?;
        add("trafficlab.blocks", report.blocks as f64);
        add("trafficlab.narrow_blocks", report.narrow_blocks as f64);
        peak(
            "trafficlab.peak_tracked_bytes",
            report.peak_tracked_bytes as f64,
        );
        Ok(Walked {
            attempted: report.outcomes.attempted(),
            delivered: report.outcomes.delivered,
            max_stretch: report.stretch.max_stretch,
            total_hops: report.lengths.total_hops(),
        })
    })
}

/// Verdict of the static all-pairs proof.
#[derive(Debug, Clone, Copy)]
pub struct Proof {
    pub pairs: u64,
    pub proven: u64,
    pub broken: u64,
}

/// Proves delivery of every reachable pair from the stored tables.
pub fn prove(net: &Network, router: &Router) -> Proof {
    span(&format!("routecheck.check.{}", router.label), || {
        let report = routecheck::check_routing(net.view(None), router.routing(), THREADS);
        let proof = Proof {
            pairs: report.counts.total(),
            proven: report.counts.proven,
            broken: report.counts.broken(),
        };
        add("routecheck.pairs", proof.pairs as f64);
        add("routecheck.proven", proof.proven as f64);
        proof
    })
}

/// Lemma 2: the instance's graph forces the planted ports.
pub fn forcing_holds(wc: &WorstCase) -> bool {
    span("constraints.verify", || {
        constraints::verify::verify_forcing_structure(&wc.cg).is_ok()
    })
}

/// `router` uses the forced port on every constrained pair.
pub fn routing_respects(wc: &WorstCase, router: &Router) -> bool {
    span("constraints.verify", || {
        constraints::verify::verify_routing_respects_constraints(&wc.cg, router.routing()).is_ok()
    })
}

/// Probing the constrained routers rebuilds the planted matrix.
pub fn reconstructs(wc: &WorstCase, router: &Router) -> bool {
    span("constraints.reconstruct", || {
        constraints::reconstruct::reconstruct_matrix(&wc.cg, router.routing()) == wc.cg.matrix
    })
}
