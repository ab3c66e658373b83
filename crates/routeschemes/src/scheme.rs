//! The [`CompactScheme`] trait: a routing scheme in the paper's sense, and
//! [`SchemeRouting`]: what a scheme builds.
//!
//! Construction is **fallible by design**: [`CompactScheme::try_build`]
//! returns a typed [`BuildError`] instead of the historical panic/`Option`
//! split, so sweep harnesses can distinguish "the scheme does not apply to
//! this graph" from "a required generator hint is missing" from "a configured
//! quality cap was not met" — and report each accordingly.
//!
//! A built routing function is a [`SchemeRouting`]: the paper's
//! `R = (I, H, P)` plus the hooks a scheme with stored tables offers —
//! repair after link failures, a structural audit, a recount of its memory
//! and an in-table corruption for the mutation harness.  The provided
//! methods are the answers of a scheme that stores nothing, so a
//! closed-form scheme implements none of them.

use crate::mutate::{self, Corruption, MutationKind};
use graphkit::{FailureSet, Graph, NodeId, Port};
use routemodel::{MemoryReport, RoutingFunction};

/// Structural facts about a graph that its generator knows but the [`Graph`]
/// value does not expose (or only expensively).
///
/// Hints travel alongside the graph through the registry and the `trafficlab`
/// scenarios: the dimension-order scheme *needs* [`GraphHints::grid_dims`],
/// and [`GraphHints::hypercube_dim`] pins hypercube detection so the e-cube
/// scheme can skip its `O(n log n)` port-labeling scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphHints {
    /// `(rows, cols)` when the graph was generated as a grid.
    pub grid_dims: Option<(usize, usize)>,
    /// The dimension when the graph was generated as a dimension-port-labeled
    /// hypercube ([`graphkit::generators::hypercube`]).  The hint is a pin,
    /// not a claim to verify: generators that set it guarantee the labeling.
    pub hypercube_dim: Option<u32>,
}

impl GraphHints {
    /// No hints: only hint-free schemes can be built.
    pub fn none() -> Self {
        Self::default()
    }

    /// Hints for a `rows × cols` grid.
    pub fn grid(rows: usize, cols: usize) -> Self {
        GraphHints {
            grid_dims: Some((rows, cols)),
            ..Self::default()
        }
    }

    /// Hints for a `dim`-dimensional hypercube with the dimension-port
    /// labeling.
    pub fn hypercube(dim: u32) -> Self {
        GraphHints {
            hypercube_dim: Some(dim),
            ..Self::default()
        }
    }
}

/// Why a scheme could not be instantiated on a graph.
///
/// Every failure mode of construction is a variant, so harnesses can decide
/// what is a benign skip (a partial scheme on a graph outside its class) and
/// what deserves a loud note (a missing hint on a graph that *is* in the
/// class, a cap the measurement refused).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The graph is outside the scheme's class (wrong structure or port
    /// labeling).
    NotApplicable {
        scheme: &'static str,
        reason: String,
    },
    /// The scheme needs a generator hint that [`GraphHints`] does not carry.
    MissingHint {
        scheme: &'static str,
        hint: &'static str,
    },
    /// The scheme requires a connected graph.
    Disconnected { scheme: &'static str },
    /// A configuration value cannot be honoured on this graph.
    InvalidConfig {
        scheme: &'static str,
        reason: String,
    },
    /// A configured quality cap was exceeded by the measured value (e.g. the
    /// `k` cap of `interval?k=...`).
    CapExceeded {
        scheme: &'static str,
        cap: &'static str,
        limit: u64,
        measured: u64,
    },
}

impl BuildError {
    /// Stable snake_case machine code of the variant, for JSON output and
    /// skip notes that need a grep-able key next to the human message.
    pub fn code(&self) -> &'static str {
        match self {
            BuildError::NotApplicable { .. } => "not_applicable",
            BuildError::MissingHint { .. } => "missing_hint",
            BuildError::Disconnected { .. } => "disconnected",
            BuildError::InvalidConfig { .. } => "invalid_config",
            BuildError::CapExceeded { .. } => "cap_exceeded",
        }
    }
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NotApplicable { scheme, reason } => {
                write!(f, "{scheme}: not applicable ({reason})")
            }
            BuildError::MissingHint { scheme, hint } => {
                write!(f, "{scheme}: missing graph hint '{hint}'")
            }
            BuildError::Disconnected { scheme } => {
                write!(f, "{scheme}: requires a connected graph")
            }
            BuildError::InvalidConfig { scheme, reason } => {
                write!(f, "{scheme}: invalid config ({reason})")
            }
            BuildError::CapExceeded {
                scheme,
                cap,
                limit,
                measured,
            } => {
                write!(
                    f,
                    "{scheme}: cap '{cap}' exceeded (limit {limit}, measured {measured})"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// What a scheme's repair routine reports back: how much of the instance it
/// had to touch.  [`SchemeInstance::repair`] wraps this with wall-clock time
/// into a [`RepairStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Routers whose stored state was recomputed (for a full rebuild: all of
    /// them).
    pub vertices_touched: usize,
    /// Landmark columns whose distances or ports changed (landmark scheme
    /// only; 0 for the others).
    pub landmarks_rebuilt: usize,
    /// Whether the repair fell back to a from-scratch rebuild on the masked
    /// view.
    pub full_rebuild: bool,
}

/// The cost of one [`SchemeInstance::repair`] call — the quantity the churn
/// scenarios put next to the delivery-rate recovery in the resilience report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairStats {
    /// Routers whose stored state was recomputed.
    pub vertices_touched: usize,
    /// Landmark columns whose distances or ports changed.
    pub landmarks_rebuilt: usize,
    /// Whether the repair fell back to a from-scratch rebuild.
    pub full_rebuild: bool,
    /// Wall-clock seconds the repair took.
    pub seconds: f64,
}

impl std::fmt::Display for RepairStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} in {:.3}s ({} routers touched, {} landmark columns)",
            if self.full_rebuild {
                "full rebuild"
            } else {
                "incremental repair"
            },
            self.seconds,
            self.vertices_touched,
            self.landmarks_rebuilt,
        )
    }
}

/// A routing function built by a scheme, with the hooks behind
/// [`SchemeInstance::repair`], [`SchemeInstance::audit`] and
/// [`crate::mutate::corrupt_instance`].
///
/// Every provided method answers for a scheme with no tables of its own:
/// no repair strategy, nothing to audit, no canonical memory recount, and
/// corruption pointwise (the harness wraps the function instead).
pub trait SchemeRouting: RoutingFunction + Send + Sync {
    /// Adapts the stored tables to the links of `failures` being dead, on
    /// the pristine graph `g`.  `adapted_to` is the failure set the tables
    /// currently account for; `failures` is the complete new one.
    fn repair(
        &mut self,
        _g: &Graph,
        _adapted_to: &FailureSet,
        _failures: &FailureSet,
    ) -> Result<RepairOutcome, BuildError> {
        Err(BuildError::NotApplicable {
            scheme: "repair",
            reason: format!(
                "{} has no repair strategy (rebuild from scratch instead)",
                self.name()
            ),
        })
    }

    /// Structural audit of the stored tables against `g` (ports in range,
    /// intervals well-formed, CSR shapes consistent).  Returns
    /// human-readable findings; empty means clean.
    fn audit(&self, _g: &Graph) -> Vec<String> {
        Vec::new()
    }

    /// The memory report recounted from the stored tables.  `None` when the
    /// report is not a function of the tables alone: routing tables are
    /// charged raw or run-length depending on the scheme that built them.
    fn memory(&self, _g: &Graph) -> Option<MemoryReport> {
        None
    }

    /// Fault injection: overwrites the stored entry that governs router
    /// `v`'s decision for `dest` with a raw, unvalidated `port`, and names
    /// the entry hit.  `None` when no such entry is stored.
    fn corrupt_entry(&mut self, _v: NodeId, _dest: NodeId, _port: Port) -> Option<String> {
        None
    }

    /// Fault injection: one seeded delivery-breaking corruption of `kind` in
    /// the stored state.  The default hits [`SchemeRouting::corrupt_entry`]
    /// at router `v` of a seeded route `u → v → … → d` with `v ≠ d`,
    /// redirecting it back to `u` or past the port space.  `None` when
    /// there is no such route (every pair one hop apart) or no stored entry:
    /// the harness then corrupts pointwise.
    fn corrupt(&mut self, g: &Graph, seed: u64, kind: MutationKind) -> Option<Corruption> {
        let (source, v, dest) = mutate::pick_two_hop_pair(self, g, seed)?;
        let description = self.corrupt_entry(v, dest, kind.port(g, v, source))?;
        Some(Corruption {
            description,
            source,
            dest,
        })
    }
}

/// The result of instantiating a scheme on one graph: a routing function plus
/// the memory report of the encoding the scheme commits to.
pub struct SchemeInstance {
    /// The routing function `R` produced by the scheme for this graph.
    pub routing: Box<dyn SchemeRouting>,
    /// Bits stored by each router under the scheme's own encoding.
    pub memory: MemoryReport,
    /// The stretch bound guaranteed by the scheme's analysis (`None` when the
    /// scheme gives no uniform guarantee, e.g. single-spanning-tree routing).
    pub guaranteed_stretch: Option<f64>,
    /// The dead edges the instance's tables currently account for (canonical
    /// sorted `(u, v)` pairs, `u < v`): empty at build time, updated by every
    /// successful [`SchemeInstance::repair`].
    adapted_to: Vec<(u32, u32)>,
}

impl SchemeInstance {
    /// Convenience constructor.
    pub fn new(
        routing: Box<dyn SchemeRouting>,
        memory: MemoryReport,
        guaranteed_stretch: Option<f64>,
    ) -> Self {
        SchemeInstance {
            routing,
            memory,
            guaranteed_stretch,
            adapted_to: Vec::new(),
        }
    }

    /// The dead edges this instance's tables currently route around.
    pub fn adapted_to(&self) -> &[(u32, u32)] {
        &self.adapted_to
    }

    /// Adapts the instance's tables to the links of `failures` being dead.
    ///
    /// `g` must be the pristine graph the instance was built on; `failures`
    /// is the **complete** current failure set, not a delta (pass the same
    /// set again and the repair is a no-op).  The work is
    /// [`SchemeRouting::repair`]'s; the memory report is then refreshed from
    /// the repaired tables.
    ///
    /// Errors are typed: a view split by the failures is
    /// [`BuildError::Disconnected`]; a scheme with no repair strategy at all
    /// (table, interval, the address-arithmetic schemes) reports
    /// [`BuildError::NotApplicable`] — on such instances the caller's only
    /// recourse is a fresh build, which is exactly what the churn executor
    /// reports.
    pub fn repair(&mut self, g: &Graph, failures: &FailureSet) -> Result<RepairStats, BuildError> {
        let start = std::time::Instant::now();
        let old = FailureSet::from_edges(g, &self.adapted_to);
        let outcome = self.routing.repair(g, &old, failures)?;
        if let Some(memory) = self.routing.memory(g) {
            self.memory = memory;
        }
        self.adapted_to = failures.dead_edges().to_vec();
        Ok(RepairStats {
            vertices_touched: outcome.vertices_touched,
            landmarks_rebuilt: outcome.landmarks_rebuilt,
            full_rebuild: outcome.full_rebuild,
            seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// Structural audit of the instance against the graph it was built on:
    /// [`SchemeRouting::audit`]'s table invariants, plus a check of
    /// [`SchemeInstance::memory`] against [`SchemeRouting::memory`]'s recount
    /// where the scheme has one.  Returns human-readable findings; empty
    /// means clean.
    pub fn audit(&self, g: &Graph) -> Vec<String> {
        let mut f = self.routing.audit(g);
        if self.routing.memory(g).is_some_and(|m| m != self.memory) {
            f.push("memory accounting drifted from the stored tables".to_string());
        }
        f
    }
}

impl std::fmt::Debug for SchemeInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchemeInstance")
            .field("routing", &self.routing.name())
            .field("local_bits", &self.memory.local())
            .field("global_bits", &self.memory.global())
            .field("guaranteed_stretch", &self.guaranteed_stretch)
            .finish()
    }
}

/// A routing scheme: a recipe that, given a network, produces a routing
/// function together with the memory its implementation requires on every
/// router.
///
/// Universal schemes accept every connected graph; partial schemes (e-cube,
/// dimension-order, the modular complete-graph scheme) report a typed
/// [`BuildError`] through [`CompactScheme::try_build`] when handed a graph
/// outside their class.
pub trait CompactScheme {
    /// Human-readable scheme name (used in reports and benchmarks).
    fn name(&self) -> &str;

    /// Fallible instantiation of the scheme on `g`.
    ///
    /// Hints are consulted by schemes whose class membership the generator
    /// pins ([`GraphHints::hypercube_dim`]); hint-free schemes ignore them.
    fn try_build(&self, g: &Graph, hints: &GraphHints) -> Result<SchemeInstance, BuildError>;

    /// Whether the scheme applies to `g` (universal schemes return `true` for
    /// every connected graph).  A cheap probe — it must not build tables.
    fn applies_to(&self, _g: &Graph, _hints: &GraphHints) -> bool {
        true
    }

    /// Infallible convenience for callers that know the scheme applies
    /// (tests, benches).  Panics with the typed error's message otherwise.
    fn build(&self, g: &Graph) -> SchemeInstance {
        self.try_build(g, &GraphHints::none())
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::generators;
    use routemodel::{Header, MemoryReport};

    struct TrivialScheme;
    struct TrivialRouting;

    impl RoutingFunction for TrivialRouting {
        fn init(&self, _s: usize, d: usize) -> Header {
            Header::to_dest(d)
        }
        fn port(&self, _n: usize, _h: &Header) -> routemodel::Action {
            routemodel::Action::Deliver
        }
        fn name(&self) -> &str {
            "trivial"
        }
    }

    impl SchemeRouting for TrivialRouting {}

    impl CompactScheme for TrivialScheme {
        fn name(&self) -> &str {
            "trivial-scheme"
        }
        fn try_build(&self, g: &Graph, hints: &GraphHints) -> Result<SchemeInstance, BuildError> {
            if !self.applies_to(g, hints) {
                return Err(BuildError::NotApplicable {
                    scheme: "trivial-scheme",
                    reason: format!("needs exactly one vertex, got {}", g.num_nodes()),
                });
            }
            Ok(SchemeInstance::new(
                Box::new(TrivialRouting),
                MemoryReport::from_fn(g.num_nodes(), |_| 1),
                None,
            ))
        }
        fn applies_to(&self, g: &Graph, _hints: &GraphHints) -> bool {
            g.num_nodes() == 1
        }
    }

    #[test]
    fn try_build_respects_applies_to() {
        let s = TrivialScheme;
        let h = GraphHints::none();
        assert!(s.try_build(&generators::path(1), &h).is_ok());
        let err = s.try_build(&generators::path(5), &h).unwrap_err();
        assert!(matches!(err, BuildError::NotApplicable { .. }));
        assert!(err.to_string().contains("trivial-scheme"));
    }

    #[test]
    fn build_panics_with_the_typed_message() {
        let err =
            std::panic::catch_unwind(|| TrivialScheme.build(&generators::path(3))).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("not applicable"), "panic was: {msg:?}");
    }

    #[test]
    fn debug_format_mentions_name_and_bits() {
        let s = TrivialScheme;
        let inst = s.build(&generators::path(1));
        let dbg = format!("{inst:?}");
        assert!(dbg.contains("trivial"));
        assert!(dbg.contains("local_bits"));
    }

    #[test]
    fn build_error_messages_are_specific() {
        let e = BuildError::MissingHint {
            scheme: "dimension-order",
            hint: "grid_dims",
        };
        assert!(e.to_string().contains("grid_dims"));
        let e = BuildError::CapExceeded {
            scheme: "k-interval-routing",
            cap: "k",
            limit: 2,
            measured: 5,
        };
        let msg = e.to_string();
        assert!(msg.contains("limit 2") && msg.contains("measured 5"));
    }

    #[test]
    fn hints_constructors() {
        assert_eq!(GraphHints::none(), GraphHints::default());
        assert_eq!(GraphHints::grid(3, 4).grid_dims, Some((3, 4)));
        assert_eq!(GraphHints::grid(3, 4).hypercube_dim, None);
        assert_eq!(GraphHints::hypercube(6).hypercube_dim, Some(6));
        assert_eq!(GraphHints::hypercube(6).grid_dims, None);
    }

    #[test]
    fn instance_repair_dispatches_by_concrete_scheme() {
        let g = generators::random_connected(60, 0.08, 4);
        let failures = FailureSet::sample(&g, 0.03, 6);
        assert!(!failures.is_empty());
        if !graphkit::traversal::is_connected(graphkit::GraphView::masked(&g, &failures)) {
            return;
        }

        // Landmark: incremental path, bookkeeping of the adapted-to set.
        let mut inst = crate::landmark::LandmarkScheme::new(3).build(&g);
        assert!(inst.adapted_to().is_empty());
        let stats = inst.repair(&g, &failures).unwrap();
        assert!(!stats.full_rebuild);
        assert!(stats.seconds >= 0.0);
        assert_eq!(inst.adapted_to(), failures.dead_edges());
        let shown = stats.to_string();
        assert!(shown.contains("incremental repair"), "got {shown:?}");

        // Spanning tree: repairable as well.
        let mut inst = crate::tree_routing::SpanningTreeScheme::default().build(&g);
        inst.repair(&g, &failures).unwrap();

        // A scheme without a repair strategy reports it as a typed error.
        let mut inst = TrivialScheme.build(&generators::path(1));
        let err = inst
            .repair(
                &generators::path(1),
                &FailureSet::empty(&generators::path(1)),
            )
            .unwrap_err();
        assert!(matches!(err, BuildError::NotApplicable { .. }));
        assert!(err.to_string().contains("no repair strategy"));
    }
}
