//! # routeschemes
//!
//! Universal and specialized compact routing schemes — the *upper bound* side
//! of Fraigniaud & Gavoille's Table 1.
//!
//! A **routing scheme** is a function that returns a routing function for
//! *any* network (universal) or for every network of some class (partial).
//! This crate implements, with explicit memory accounting:
//!
//! | module | scheme | class | stretch | local memory |
//! |---|---|---|---|---|
//! | [`table_scheme`] | full routing tables | universal | 1 | `O(n log n)` |
//! | [`interval::tree`] | 1-interval routing | trees | 1 | `O(d log n)` |
//! | [`interval::general`] | k-interval routing | universal | 1 | `O(k·d log n)` |
//! | [`hypercube`] | e-cube (dimension order) | hypercubes | 1 | `O(log n)` |
//! | [`grid`] | dimension-order | grids | 1 | `O(log n)` |
//! | [`complete`] | modular labeling vs adversarial labeling | complete graphs | 1 | `O(log n)` vs `Θ(n log n)` |
//! | [`landmark`] | landmark/cluster routing | universal | `< 3` | `Õ(√n)` (expected) |
//! | [`tree_routing`] | single spanning tree | universal | unbounded (≤ 2·depth) | `O(d log n)` |
//!
//! Every scheme implements the [`CompactScheme`] trait — construction is
//! fallible with typed [`BuildError`]s — so the experiment harnesses
//! (`analysis`, `trafficlab`) can sweep schemes × graph families × sizes and
//! regenerate the shape of Table 1.  The [`registry`] module names the
//! scheme *families* with stable short keys (`table`, `tree`, `interval`,
//! `landmark`, `hypercube`, `grid`, `complete`); the [`spec`] module pins a
//! concrete family member with typed parameters and a stable string codec
//! (`landmark?k=64&clusters=strict`), which is how sweeps walk the paper's
//! memory-vs-stretch trade-off instead of picking from a fixed menu.

#![forbid(unsafe_code)]

pub mod complete;
pub mod grid;
pub mod hypercube;
pub mod interval;
pub mod landmark;
pub mod mutate;
pub mod registry;
pub mod scheme;
pub mod spec;
pub mod table_scheme;
pub mod tree_routing;

pub use complete::{AdversarialCompleteScheme, ModularCompleteScheme};
pub use grid::DimensionOrderScheme;
pub use hypercube::EcubeScheme;
pub use interval::general::{KIntervalConfig, KIntervalScheme};
pub use interval::tree::TreeIntervalScheme;
pub use landmark::{ClusterRule, LandmarkConfig, LandmarkCount, LandmarkScheme};
pub use mutate::{corrupt_instance, Mutation, MutationKind};
pub use registry::{applicable_schemes, GraphHints, SchemeKind};
pub use scheme::{
    BuildError, CompactScheme, RepairOutcome, RepairStats, SchemeInstance, SchemeRouting,
};
pub use spec::{SchemeSpec, SpecError};
pub use table_scheme::TableScheme;
pub use tree_routing::SpanningTreeScheme;
