//! # universal-routing
//!
//! A reproduction, as a Rust workspace, of
//!
//! > Pierre Fraigniaud and Cyril Gavoille,
//! > *Local Memory Requirement of Universal Routing Schemes*, SPAA 1996.
//!
//! The paper studies how many bits a router must store locally for universal
//! routing schemes whose routes are at most `s` times longer than shortest
//! paths.  Its main theorem: for every stretch factor `s < 2`, every constant
//! `0 < θ < 1` and every large enough `n`, some `n`-node network has
//! `Θ(n^θ)` routers that each need `Ω(n log n)` bits — i.e. routing tables
//! cannot be compressed asymptotically, even if routes may be up to twice as
//! long as shortest paths.
//!
//! This facade crate re-exports the member crates:
//!
//! * [`graphkit`] — the network substrate (symmetric digraphs with locally
//!   labeled ports, generators, BFS/APSP);
//! * [`routemodel`] — the routing model `R = (I, H, P)`, stretch factors and
//!   memory accounting;
//! * [`routeschemes`] — the upper-bound side: routing tables, interval
//!   routing, e-cube, dimension-order, complete-graph labelings, landmark
//!   routing, spanning-tree routing;
//! * [`constraints`] — the paper's contribution: matrices and graphs of
//!   constraints, the counting bound, Theorem 1 and the reconstruction
//!   argument;
//! * [`analysis`] — the experiment harness that regenerates every table and
//!   figure;
//! * [`trafficlab`] — the sharded routing-workload engine: traffic scenarios
//!   (uniform, Zipf, permutations, broadcast, adversarial bisection and
//!   worst-permutation patterns, Theorem 1 probes) driven over the scheme
//!   registry with block-streamed stretch/congestion evaluation that never
//!   materializes a dense `n²` distance matrix.  Scenarios are declarative
//!   ([`trafficlab::ScenarioSpec`]): graph × workload × scheme specs, every
//!   axis a `speclang` string codec, loadable from TOML scenario files.
//!
//! ## Quick start
//!
//! ```
//! use universal_routing::prelude::*;
//!
//! // A worst-case network of the Theorem 1 family with 256 vertices.
//! let (cg, params) = constraints::theorem1::build_worst_case_instance(256, 0.5, 42);
//! assert_eq!(cg.graph.num_nodes(), 256);
//!
//! // Any shortest-path routing function is forced to follow the planted
//! // matrix of constraints on every (constrained, target) pair.
//! let routing = TableRouting::shortest_paths(&cg.graph, TieBreak::LowestNeighbor);
//! assert!(constraints::verify::verify_routing_respects_constraints(&cg, &routing).is_ok());
//!
//! // ... and probing those routers reconstructs the matrix, which is why they
//! // must jointly store log2 |dM_pq| bits (Theorem 1).
//! let rebuilt = constraints::reconstruct::reconstruct_matrix(&cg, &routing);
//! assert_eq!(rebuilt, cg.matrix);
//! assert_eq!(params.p, cg.constrained.len());
//! ```

#![forbid(unsafe_code)]

pub use analysis;
pub use constraints;
pub use graphkit;
pub use routemodel;
pub use routeschemes;
pub use trafficlab;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use analysis;
    pub use constraints;
    pub use constraints::{ConstraintGraph, ConstraintMatrix};
    pub use graphkit::{generators, DistanceBlock, DistanceMatrix, Graph, NodeId, Port};
    pub use routemodel::{
        route, stretch_factor, Action, Header, MemoryReport, RoutingFunction, TableRouting,
        TieBreak,
    };
    pub use routeschemes::{
        BuildError, ClusterRule, CompactScheme, EcubeScheme, GraphHints, KIntervalConfig,
        KIntervalScheme, LandmarkConfig, LandmarkCount, LandmarkScheme, SchemeInstance, SchemeKind,
        SchemeSpec, SpecError, TableScheme, TreeIntervalScheme,
    };
    pub use speclang;
    pub use trafficlab::{run_workload, EngineConfig, GraphSpec, ScenarioSpec, WorkloadSpec};
}
