//! Streaming metrics accumulated by the engine: per-arc congestion and
//! route-length histograms.
//!
//! Both are plain counter arrays summed across workers — integer addition is
//! associative and commutative, so unlike the stretch fold they need no
//! ordering discipline to stay deterministic.

use graphkit::{Graph, NodeId, Port};

/// Per-arc load counters for one worker (or the merged total).
///
/// Arcs are identified by their CSR index: arc `offsets[u] + p` is port `p`
/// of vertex `u`.  Counting *directed* arcs means the total load equals the
/// total number of hops, i.e. the sum of all route lengths — the flow
/// conservation the property tests pin.
#[derive(Debug, Clone, Default)]
pub struct CongestionCounters {
    /// `load[arc]` = messages that traversed the arc.
    load: Vec<u64>,
    /// CSR arc offsets (copy of the graph's degree prefix sums).
    offsets: Vec<u64>,
}

impl CongestionCounters {
    /// Counters for the arcs of `g`, all zero.
    pub fn for_graph(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        for u in 0..n {
            offsets.push(offsets[u] + g.degree(u) as u64);
        }
        CongestionCounters {
            load: vec![0; offsets[n] as usize],
            offsets,
        }
    }

    /// Records one hop out of `u` through port `p`.
    #[inline]
    pub fn record_hop(&mut self, u: NodeId, p: Port) {
        self.load[(self.offsets[u] + p as u64) as usize] += 1;
    }

    /// Adds another worker's counters into this one.
    pub fn merge(&mut self, other: &CongestionCounters) {
        assert_eq!(self.load.len(), other.load.len(), "arc space mismatch");
        for (a, b) in self.load.iter_mut().zip(&other.load) {
            *a += b;
        }
    }

    /// Load of port `p` of vertex `u`.
    pub fn arc_load(&self, u: NodeId, p: Port) -> u64 {
        self.load[(self.offsets[u] + p as u64) as usize]
    }

    /// Heap bytes held (for the engine's peak-memory proxy).
    pub fn bytes(&self) -> u64 {
        ((self.load.capacity() + self.offsets.capacity()) * 8) as u64
    }

    /// Summarizes the counters.  `max_arc` ties break toward the smallest
    /// arc index, so the report is deterministic.
    pub fn summarize(&self) -> CongestionReport {
        let arcs = self.load.len();
        let mut total = 0u64;
        let mut max = 0u64;
        let mut argmax = 0usize;
        let mut loaded = 0usize;
        for (i, &l) in self.load.iter().enumerate() {
            total += l;
            if l > 0 {
                loaded += 1;
            }
            if l > max {
                max = l;
                argmax = i;
            }
        }
        // arc index -> (vertex, port) by binary search over the offsets
        let max_arc = if arcs == 0 {
            (0, 0)
        } else {
            let u = self.offsets.partition_point(|&o| o <= argmax as u64) - 1;
            (u, (argmax as u64 - self.offsets[u]) as usize)
        };
        CongestionReport {
            arcs,
            loaded_arcs: loaded,
            total_load: total,
            max_arc_load: max,
            max_arc,
            mean_arc_load: if arcs == 0 {
                0.0
            } else {
                total as f64 / arcs as f64
            },
        }
    }
}

/// Summary of the per-arc load distribution of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionReport {
    /// Number of directed arcs in the graph.
    pub arcs: usize,
    /// Arcs that carried at least one message.
    pub loaded_arcs: usize,
    /// Total hops over all arcs — equals the sum of all route lengths.
    pub total_load: u64,
    /// Load of the most congested arc.
    pub max_arc_load: u64,
    /// `(vertex, port)` of the most congested arc (smallest arc index on
    /// ties).
    pub max_arc: (NodeId, Port),
    /// Average load per arc.
    pub mean_arc_load: f64,
}

/// A histogram of route lengths: `counts[len]` = messages delivered over
/// exactly `len` edges.  Grows on demand; merged by element-wise addition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LengthHistogram {
    counts: Vec<u64>,
}

impl LengthHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one delivered message of route length `len`.
    #[inline]
    pub fn record(&mut self, len: usize) {
        if len >= self.counts.len() {
            self.counts.resize(len + 1, 0);
        }
        self.counts[len] += 1;
    }

    /// Adds another histogram into this one.
    pub fn merge(&mut self, other: &LengthHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The raw counts (index = route length).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total messages recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total hops: `Σ len · counts[len]` — must equal the congestion
    /// counters' total load.
    pub fn total_hops(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .map(|(len, &c)| len as u64 * c)
            .sum()
    }

    /// The largest recorded route length; `None` on an empty histogram.
    pub fn max_len(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Smallest length `l` such that at least `q` (in `[0, 1]`) of the
    /// messages had length `≤ l` (nearest-rank); `None` on an empty
    /// histogram.  `quantile(1.0)` is exactly [`LengthHistogram::max_len`].
    pub fn quantile(&self, q: f64) -> Option<usize> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        // q = 1.0 asks for the maximum outright.  Going through the float
        // rank is off by one in both directions once `total` exceeds 2^53:
        // `1.0 * total as f64` can round *up* past the true count (walking
        // off the end into a fallback that silently relied on there being no
        // trailing zero bins) or *down* below it (stopping one bin early and
        // under-reporting the max).
        if q >= 1.0 {
            return self.max_len();
        }
        // Nearest-rank index in [1, total]; the clamp keeps float rounding
        // of q·total from escaping the valid rank range.
        let threshold = ((q.max(0.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut acc = 0u64;
        for (len, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= threshold {
                return Some(len);
            }
        }
        // Unreachable while threshold <= total, but keep the answer honest
        // rather than panicking: the last non-empty bin.
        self.max_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::generators;

    #[test]
    fn congestion_counts_and_summary() {
        let g = generators::path(4); // arcs: 0-1, 1-0, 1-2, 2-1, 2-3, 3-2
        let mut c = CongestionCounters::for_graph(&g);
        c.record_hop(0, 0);
        c.record_hop(0, 0);
        c.record_hop(1, 1);
        let rep = c.summarize();
        assert_eq!(rep.arcs, 6);
        assert_eq!(rep.loaded_arcs, 2);
        assert_eq!(rep.total_load, 3);
        assert_eq!(rep.max_arc_load, 2);
        assert_eq!(rep.max_arc, (0, 0));
        assert!((rep.mean_arc_load - 0.5).abs() < 1e-12);
        assert_eq!(c.arc_load(1, 1), 1);
    }

    #[test]
    fn congestion_merge_adds_elementwise() {
        let g = generators::cycle(5);
        let mut a = CongestionCounters::for_graph(&g);
        let mut b = CongestionCounters::for_graph(&g);
        a.record_hop(2, 0);
        b.record_hop(2, 0);
        b.record_hop(4, 1);
        a.merge(&b);
        assert_eq!(a.arc_load(2, 0), 2);
        assert_eq!(a.arc_load(4, 1), 1);
        assert_eq!(a.summarize().total_load, 3);
    }

    #[test]
    fn histogram_totals_and_quantiles() {
        let mut h = LengthHistogram::new();
        for len in [1usize, 1, 2, 3, 3, 3, 7] {
            h.record(len);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.total_hops(), 1 + 1 + 2 + 3 + 3 + 3 + 7);
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(7));
        let mut other = LengthHistogram::new();
        other.record(9);
        h.merge(&other);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 8);
        assert_eq!(LengthHistogram::new().quantile(0.5), None);
    }

    /// The q = 1.0 pin: the top quantile is exactly the maximum recorded
    /// length, across histogram shapes, degenerate single-bin cases, merge
    /// growth, and totals big enough that naive `ceil(q * total)` rounding
    /// would overshoot the bin walk.
    #[test]
    fn quantile_one_is_the_max_recorded_length() {
        let mut h = LengthHistogram::new();
        h.record(0);
        assert_eq!(h.quantile(1.0), Some(0));
        assert_eq!(h.max_len(), Some(0));
        h.record(5);
        h.record(5);
        assert_eq!(h.quantile(1.0), Some(5));
        // Quantiles above 1 clamp instead of running past the end.
        assert_eq!(h.quantile(2.0), Some(5));
        // Merge that grows the histogram moves the max with it.
        let mut tail = LengthHistogram::new();
        tail.record(12);
        h.merge(&tail);
        assert_eq!(h.quantile(1.0), Some(12));
        assert_eq!(h.quantile(1.0), h.max_len());
        // A total past 2^53 is where the old float-rank path went wrong:
        // total = 2^53 + 1 rounds DOWN in f64, so ceil(1.0 · total) lands at
        // 2^53 and the walk stopped one bin early, reporting 1 instead of
        // the true max 3.  (2^53 + 1 is the smallest u64 f64 cannot
        // represent.)
        let mut big = LengthHistogram::new();
        big.record(1);
        big.counts[1] = 1u64 << 53;
        big.record(3);
        assert_eq!(big.total(), (1u64 << 53) + 1);
        assert_eq!(big.quantile(1.0), Some(3));
        assert_eq!(big.quantile(1.0), big.max_len());
        assert_eq!(LengthHistogram::new().max_len(), None);
        assert_eq!(LengthHistogram::new().quantile(1.0), None);
    }
}
