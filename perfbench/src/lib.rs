//! Seeded end-to-end and per-layer benchmark of the universal-routing
//! workspace.  See `README.md` beside this crate for the workloads and the
//! metric table.

pub mod adapter;
pub mod report;
pub mod trace;
pub mod workloads;
