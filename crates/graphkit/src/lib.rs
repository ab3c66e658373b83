//! # graphkit
//!
//! Graph substrate for the reproduction of Fraigniaud & Gavoille,
//! *Local Memory Requirement of Universal Routing Schemes* (SPAA 1996).
//!
//! The paper models point-to-point communication networks as finite connected
//! symmetric digraphs: every node is labeled by an integer in `{1..n}` and the
//! output ports of a node `x` are labeled by integers in `{1..deg(x)}`.  This
//! crate provides exactly that object — [`Graph`], a compressed-sparse-row
//! structure whose per-node slice order *is* the port labeling (see the
//! [`graph`] module docs for the invariants) — together with
//!
//! * deterministic pseudo-random generation ([`rng`]),
//! * the graph families used throughout the paper's Table 1 and its proofs
//!   ([`generators`]): paths, cycles, trees, hypercubes, grids/tori, the
//!   Petersen graph, complete graphs, outerplanar graphs, chordal graphs,
//!   unit circular-arc graphs and random graphs,
//! * breadth-first traversals, eccentricities and diameters ([`traversal`]),
//!   built on a reusable zero-allocation workspace ([`BfsScratch`]), with a
//!   bit-parallel BFS of 64 sources per pass
//!   ([`traversal::bfs_block_into`]) behind every all-pairs sweep,
//!   nearest-source BFS
//!   ([`traversal::bfs_from_sources_into`]) and pruned/bounded BFS
//!   ([`traversal::bfs_bounded_into`]) for landmark-style sparse scheme
//!   construction,
//! * all-pairs shortest-path distances ([`distance`]), computed in parallel —
//!   dense ([`DistanceMatrix`]) or sharded into block-streamed source rows
//!   ([`DistanceBlock`]) so sweeps scale past what one `n²` allocation can
//!   hold,
//! * structural predicates and statistics ([`properties`]),
//! * plain-text import/export ([`io`]),
//! * link-failure overlays ([`failure`]): deterministically sampled
//!   [`FailureSet`]s and the masked [`GraphView`] every BFS core accepts via
//!   the [`Adjacency`] abstraction — dead links are skipped on the fly, the
//!   CSR (and with it the port labeling) is never rebuilt,
//! * one deterministic parallel primitive ([`par::map_fold_ordered`]): items
//!   mapped on worker threads, results folded in index order on the caller,
//!   so what the fold builds is bit-identical at every thread count.
//!
//! Nodes are `0`-based [`NodeId`]s internally; the paper's `1`-based labels are
//! only used when formatting reports.  Ports are `0`-based positions into the
//! adjacency list of a node; see [`Port`].
//!
//! ```
//! use graphkit::generators;
//! use graphkit::distance::DistanceMatrix;
//!
//! let g = generators::petersen();
//! assert_eq!(g.num_nodes(), 10);
//! assert_eq!(g.num_edges(), 15);
//! let d = DistanceMatrix::all_pairs(&g);
//! assert_eq!(d.diameter(), Some(2));
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod distance;
pub mod failure;
pub mod generators;
pub mod graph;
pub mod io;
pub mod par;
pub mod properties;
pub mod rng;
pub mod traversal;

pub use builder::GraphBuilder;
pub use distance::{DistanceBlock, DistanceMatrix, DistanceRow};
pub use failure::{Adjacency, FailureSet, GraphView};
pub use graph::{Graph, NodeId, Port};
pub use rng::Xoshiro256;
pub use traversal::{
    bfs_ball_into, bfs_bounded_into, bfs_from_sources_into, BfsScratch, BoundedBfsScratch,
};

/// Distance value used throughout the crate. `u32::MAX` encodes "unreachable".
pub type Dist = u32;

/// Sentinel for an unreachable vertex in distance computations.
pub const INFINITY: Dist = u32::MAX;
