//! A registry of the compact routing schemes, addressable by short keys.
//!
//! Sweep harnesses — the `trafficlab` scenario runner foremost — need to
//! enumerate "every scheme that applies to this graph" and to instantiate a
//! scheme from a spec found in a config file or on a command line, without
//! hard-coding the concrete types.  [`SchemeKind`] names the *families* with
//! stable string keys; a [`SchemeSpec`] pins a concrete member of a family
//! (key plus typed parameters) and is what actually builds — see
//! [`crate::spec`] for the codec.
//!
//! Two schemes need information the bare [`Graph`] does not carry: the
//! dimension-order scheme must know the grid shape, and hypercube detection
//! can be pinned instead of inferred.  [`GraphHints`] transports those facts
//! from whoever generated the graph.

use crate::spec::SchemeSpec;
use graphkit::Graph;

pub use crate::scheme::GraphHints;

/// Every scheme family of the crate, as a value.
///
/// The per-variant keys (see [`SchemeKind::key`]) are the vocabulary used by
/// scenario configs and reports: `table`, `tree`, `interval`, `landmark`,
/// `hypercube`, `grid` and `complete`.  A bare key is also a valid
/// [`SchemeSpec`] string (parsing to the family defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Full shortest-path routing tables ([`crate::TableScheme`]): universal,
    /// stretch 1, `O(n log n)` bits per router.
    Table,
    /// Single spanning tree ([`crate::SpanningTreeScheme`]): universal,
    /// unbounded stretch, `O(d log n)` bits, near-linear construction.
    SpanningTree,
    /// Universal `k`-interval routing ([`crate::KIntervalScheme`]): stretch 1,
    /// compresses tables on label-coherent topologies.
    KInterval,
    /// Landmark/cluster routing ([`crate::LandmarkScheme`]): universal,
    /// stretch `< 3`, `Õ(√n)` bits expected — built sparsely (one BFS per
    /// landmark plus one pruned BFS per vertex), so it joins the spanning
    /// tree in the `n ≥ 10^5` scenarios.  Parameterized by landmark count /
    /// rate and cluster rule ([`crate::landmark::LandmarkConfig`]).
    Landmark,
    /// Dimension-order routing on hypercubes ([`crate::EcubeScheme`]);
    /// detection can be pinned through [`GraphHints::hypercube_dim`].
    Ecube,
    /// Dimension-order routing on grids ([`crate::DimensionOrderScheme`]);
    /// requires [`GraphHints::grid_dims`].
    DimensionOrder,
    /// The `O(log n)`-bit modular scheme on complete graphs
    /// ([`crate::ModularCompleteScheme`]); requires the modular port
    /// labeling.
    ModularComplete,
}

impl SchemeKind {
    /// Every scheme family, in report order.
    pub const ALL: [SchemeKind; 7] = [
        SchemeKind::Table,
        SchemeKind::SpanningTree,
        SchemeKind::KInterval,
        SchemeKind::Landmark,
        SchemeKind::Ecube,
        SchemeKind::DimensionOrder,
        SchemeKind::ModularComplete,
    ];

    /// The stable short key of the scheme (scenario vocabulary).
    pub fn key(&self) -> &'static str {
        match self {
            SchemeKind::Table => "table",
            SchemeKind::SpanningTree => "tree",
            SchemeKind::KInterval => "interval",
            SchemeKind::Landmark => "landmark",
            SchemeKind::Ecube => "hypercube",
            SchemeKind::DimensionOrder => "grid",
            SchemeKind::ModularComplete => "complete",
        }
    }

    /// Parses a short key back into a scheme kind.
    pub fn parse(key: &str) -> Option<SchemeKind> {
        SchemeKind::ALL.iter().copied().find(|k| k.key() == key)
    }

    /// The family at its default parameters.
    pub fn default_spec(&self) -> SchemeSpec {
        SchemeSpec::default_for(*self)
    }

    /// Whether the scheme's construction cost is near-linear (`Õ(m√n)` or
    /// better) in the graph size.  Schemes where this is `false` fill
    /// per-router full tables (`n²` entries, streamed but still quadratic)
    /// and are unusable at `n ≳ 10^4`.
    pub fn scales_to_large_graphs(&self) -> bool {
        matches!(
            self,
            SchemeKind::SpanningTree
                | SchemeKind::Landmark
                | SchemeKind::Ecube
                | SchemeKind::DimensionOrder
        )
    }
}

/// Builds every scheme family of [`SchemeKind::ALL`] at its default spec
/// that applies to `g`, paired with its spec, in report order.
pub fn applicable_schemes(
    g: &Graph,
    hints: &GraphHints,
) -> Vec<(SchemeSpec, crate::scheme::SchemeInstance)> {
    SchemeSpec::all_defaults()
        .into_iter()
        .filter_map(|spec| spec.build(g, hints).ok().map(|inst| (spec, inst)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::BuildError;
    use graphkit::generators;
    use routemodel::labeling::modular_complete_labeling;

    #[test]
    fn keys_round_trip() {
        for kind in SchemeKind::ALL {
            assert_eq!(SchemeKind::parse(kind.key()), Some(kind));
            assert_eq!(kind.default_spec().kind(), kind);
        }
        assert_eq!(SchemeKind::parse("no-such-scheme"), None);
    }

    #[test]
    fn universal_schemes_apply_to_a_random_graph() {
        let g = generators::random_connected(48, 0.1, 3);
        let built = applicable_schemes(&g, &GraphHints::none());
        let keys: Vec<&str> = built.iter().map(|(s, _)| s.key()).collect();
        for key in ["table", "tree", "interval", "landmark"] {
            assert!(keys.contains(&key), "{key} missing from {keys:?}");
        }
        // No hints, not a hypercube, not a modular complete graph.
        for key in ["hypercube", "grid", "complete"] {
            assert!(!keys.contains(&key), "{key} wrongly built");
        }
    }

    #[test]
    fn specialized_schemes_need_their_graphs() {
        let h = generators::hypercube(4);
        assert!(SchemeSpec::Ecube.build(&h, &GraphHints::none()).is_ok());

        let g = generators::grid(4, 6);
        let err = SchemeSpec::DimensionOrder
            .build(&g, &GraphHints::none())
            .unwrap_err();
        assert!(
            matches!(
                err,
                BuildError::MissingHint {
                    hint: "grid_dims",
                    ..
                }
            ),
            "hint-less grid build must name the missing hint, got {err}"
        );
        assert!(SchemeSpec::DimensionOrder
            .build(&g, &GraphHints::grid(4, 6))
            .is_ok());

        let k = modular_complete_labeling(9);
        assert!(SchemeSpec::ModularComplete
            .build(&k, &GraphHints::none())
            .is_ok());
        // A complete graph with the *generator's* (non-modular) labeling is
        // refused by the modular scheme.
        let plain = generators::complete(9);
        assert!(matches!(
            SchemeSpec::ModularComplete
                .build(&plain, &GraphHints::none())
                .unwrap_err(),
            BuildError::NotApplicable { .. }
        ));
    }

    #[test]
    fn scaling_classification_matches_the_constructors() {
        // Near-linear builders: one BFS/DFS (tree), closed-form labels
        // (e-cube, dimension-order), or the sparse landmark pipeline
        // (Õ(m√n), no dense matrix).  Everything else fills per-router full
        // tables of n² entries.
        use SchemeKind::*;
        for kind in SchemeKind::ALL {
            let expected = matches!(kind, SpanningTree | Landmark | Ecube | DimensionOrder);
            assert_eq!(kind.scales_to_large_graphs(), expected, "{}", kind.key());
        }
    }

    #[test]
    fn built_instances_report_memory() {
        let g = generators::random_connected(32, 0.15, 9);
        for (spec, inst) in applicable_schemes(&g, &GraphHints::none()) {
            assert!(
                inst.memory.local() > 0,
                "{} reports zero local memory",
                spec.key()
            );
        }
    }
}
