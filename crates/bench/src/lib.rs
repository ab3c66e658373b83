//! # routing-bench
//!
//! Criterion benchmarks regenerating (the constructions behind) every table
//! and figure of the paper, plus ablations of the reproduction's own design
//! choices.  The bench targets that write a `BENCH_*.json` snapshot are
//! listed in the README's "Building and testing" section; the measured
//! tables themselves are printed by the `analysis` report binaries, while
//! these benches time the underlying pipelines so the cost of each
//! construction can be tracked.
//!
//! Common helpers shared by the bench targets live here.

#![forbid(unsafe_code)]

use analysis::report::Json;
use criterion::Criterion;
use std::path::{Path, PathBuf};

/// A Criterion configuration tuned for the repository's CI-style runs:
/// few samples, short measurement windows, no plots.
pub fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(600))
        .warm_up_time(std::time::Duration::from_millis(150))
        .without_plots()
}

/// Writes `snapshot` and a closing newline to `file` in the workspace root
/// (two levels above this crate's manifest) and returns the path written.
pub fn write_snapshot(file: &str, snapshot: &Json) -> PathBuf {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join(file);
    std::fs::write(&path, format!("{snapshot}\n"))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Sizes used by the graph-family sweeps (kept modest so a full
/// `cargo bench --workspace` finishes in minutes).
pub const FAMILY_SIZES: [usize; 3] = [64, 128, 256];

/// (n, θ) grid used by the Theorem 1 benches.
pub const THEOREM1_GRID: [(usize, f64); 4] = [(128, 0.5), (256, 0.5), (512, 0.5), (256, 0.25)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_sane() {
        assert!(FAMILY_SIZES.windows(2).all(|w| w[0] < w[1]));
        assert!(THEOREM1_GRID
            .iter()
            .all(|&(n, t)| n >= 16 && t > 0.0 && t < 1.0));
    }

    #[test]
    fn quick_criterion_builds() {
        let _ = quick_criterion();
    }
}
