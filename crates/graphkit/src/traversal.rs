//! Breadth-first traversals, connectivity, eccentricities and diameters.
//!
//! Shortest paths are the yardstick of the whole paper: the stretch factor of
//! a routing function compares its routing paths against BFS distances, and
//! the graphs of constraints are engineered so that the unique shortest path
//! between a constrained vertex and a target vertex has length 2 while every
//! detour has length at least 4.
//!
//! The BFS core is written for the CSR [`Graph`] hot path: a flat `Vec<u32>`
//! queue walked by a head index (no `VecDeque` ring arithmetic), and a
//! reusable [`BfsScratch`] workspace so that sweeps perform **zero heap
//! allocations per source** after the first.
//!
//! Every many-source sweep runs on one kernel, [`bfs_block_into`]: a
//! bit-parallel BFS that traverses up to 64 listed sources per pass,
//! scanning each level's frontier arcs once for all of them.  Its callers
//! are [`crate::DistanceMatrix::all_pairs`] and [`crate::DistanceBlock`]
//! (and through it the streamed routing tables, the stretch engine and the
//! Lemma 2 forcing check), which pass ranges of consecutive sources, and
//! the landmark scheme's toward-landmark tables, which pass blocks of its
//! sampled landmarks.  On the small-diameter graphs of the paper (the
//! Theorem 1 instance has diameter 4) a block of 64 sources costs a few
//! single BFSs.

use crate::failure::Adjacency;
use crate::graph::{Graph, NodeId, Port};
use crate::{Dist, INFINITY};

/// Reusable BFS workspace: a flat queue plus the distance buffer, and the
/// per-vertex source masks of the block kernel [`bfs_block_into`].
///
/// One `BfsScratch` supports any number of consecutive traversals (of graphs
/// of any size); buffers grow to the high-water mark and are then recycled.
/// The masks and vertex lists of the block kernel are allocated on its first
/// use only, so single-source callers never pay for them.
#[derive(Debug, Default, Clone)]
pub struct BfsScratch {
    /// Flat FIFO; consumed by advancing a head index instead of popping.
    /// The block kernel keeps its list of reached vertices here.
    queue: Vec<u32>,
    /// Distance buffer for entry points that do not borrow one from the
    /// caller ([`bfs_distances_scratch`]).
    dist: Vec<Dist>,
    /// Block kernel: per vertex `[seen, even, odd]` — the sources that have
    /// reached it, and the sources that reach it at the current and at the
    /// next level (the two swap roles with the level's parity).  All zero
    /// between traversals.
    masks: Vec<[u64; 3]>,
    /// Block kernel: the current level's vertices.
    frontier: Vec<u32>,
    /// Block kernel: the next level's vertices.
    discovered: Vec<u32>,
    /// Block kernel of one source: whether the source has reached the
    /// vertex.  All `false` between traversals.
    visited: Vec<bool>,
}

impl BfsScratch {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace pre-sized for graphs on `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        BfsScratch {
            queue: Vec::with_capacity(n),
            dist: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Bytes the buffers of [`bfs_block_into`] reach on an `n`-vertex graph
    /// for blocks of up to `rows` sources: per vertex, a `u32` queue entry
    /// and a flag for one source; three `u64` masks and two more `u32` list
    /// entries for more.
    pub fn block_bytes(n: usize, rows: usize) -> u64 {
        let per_vertex = if rows <= 1 { 5 } else { 37 };
        (per_vertex * n) as u64
    }
}

/// Single-source BFS distances written into a caller-provided buffer.
///
/// `dist` must have length `g.num_nodes()`; it is fully overwritten
/// (unreached vertices get [`INFINITY`]).  Allocation-free once `scratch` has
/// warmed up, which is what makes the all-pairs sweep cheap.
///
/// Generic over [`Adjacency`]: pass `&Graph` for the pristine CSR hot path
/// (compiles to the raw slice loop) or a [`crate::GraphView`] to traverse
/// around dead links.
pub fn bfs_distances_into<A: Adjacency>(
    g: A,
    source: NodeId,
    scratch: &mut BfsScratch,
    dist: &mut [Dist],
) {
    let n = g.num_nodes();
    assert!(source < n, "BFS source out of range");
    assert_eq!(dist.len(), n, "distance buffer has the wrong length");
    dist.fill(INFINITY);
    let queue = &mut scratch.queue;
    queue.clear();
    queue.reserve(n);
    dist[source] = 0;
    queue.push(source as u32);
    let mut head = 0usize;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        let du = dist[u] + 1;
        g.for_each_live(u, |_, v| {
            if dist[v] == INFINITY {
                dist[v] = du;
                queue.push(v as u32);
            }
        });
    }
}

/// Sentinel for "unreachable" in the narrow (`u8`) distance representation.
///
/// Narrow rows store finite distances `0..=254` directly; `255` means the
/// vertex was not reached.  A finite distance of 255 or more cannot be
/// represented: [`crate::DistanceBlock`] widens its rows to `u32` when
/// [`bfs_block_into`] reports a level of 255.
pub const NARROW_INFINITY: u8 = u8::MAX;

/// Most sources one [`bfs_block_into`] traversal covers: one bit of a `u64`
/// mask each.
pub const BLOCK_SOURCES: usize = 64;

/// Bit-parallel BFS from up to 64 sources at once (the multi-source BFS of
/// Then et al., "The More the Merrier", PVLDB 2014).
///
/// `sources` lists the sources in bit order: a range `start..start + rows`
/// for the all-pairs sweeps, or any list of ids (the landmark scheme passes
/// its sampled landmarks).  Every vertex carries a `u64` mask of the
/// sources that have reached it.  A level scans the arcs of its frontier
/// once for all sources: the frontier vertex `u` with level mask `f` hands
/// `f & !seen[v]` to each live neighbour `v`.  `reached(level, v, bits)` is
/// called once per level for every vertex some source reaches first at that
/// level, with bit `i` of `bits` set for the `i`-th listed source: that is
/// `d(sources[i], v) = level`.  Level 0 reports the sources themselves (a
/// source listed twice reports both bits); levels arrive in increasing
/// order, and within a level the vertex order is unspecified.  Vertices no
/// source reaches are never reported.
///
/// **Cost.** The work is the sum over levels of the frontier's arcs.  A
/// vertex joins a level's frontier once, whatever number of sources reach
/// it there, so the work is never more than `rows` single-source BFSs, and
/// about `diameter · 2m` on graphs of small diameter, where most sources
/// reach most vertices at the same few levels.  Least is shared on long
/// paths and grids, whose consecutive sources reach a vertex at distinct
/// levels.  The frontier lists are the only per-level state, and the masks
/// are reset for the reached vertices only, so a block costs what the
/// traversal touches, not `n` words.  A block of one source has nothing to
/// share and runs a plain queue BFS over one flag per vertex instead of the
/// masks.  Allocation-free once `scratch` is warm.
///
/// Generic over [`Adjacency`], like [`bfs_distances_into`]: arcs are
/// followed out of the frontier, so masked views work unchanged.
pub fn bfs_block_into<A, S>(
    g: A,
    sources: S,
    scratch: &mut BfsScratch,
    mut reached: impl FnMut(Dist, NodeId, u64),
) where
    A: Adjacency,
    S: IntoIterator<Item = NodeId>,
    S::IntoIter: ExactSizeIterator,
{
    let n = g.num_nodes();
    let mut sources = sources.into_iter();
    let rows = sources.len();
    assert!(rows <= BLOCK_SOURCES, "a block covers at most 64 sources");
    if rows == 1 {
        // Nothing to share: a plain queue BFS over one flag per vertex, which
        // stays cache-resident where three masks per vertex would not.
        let source = sources.next().expect("one source");
        assert!(source < n, "BFS source out of range");
        return single_source_levels(g, source, scratch, reached);
    }
    let BfsScratch {
        queue: touched,
        masks,
        frontier,
        discovered,
        ..
    } = scratch;
    if masks.len() < n {
        masks.resize(n, [0; 3]);
    }
    debug_assert!(masks.iter().all(|&m| m == [0; 3]), "stale scratch");
    touched.clear();
    frontier.clear();
    for (i, s) in sources.enumerate() {
        assert!(s < n, "BFS source out of range");
        let m = &mut masks[s];
        if m[0] == 0 {
            touched.push(s as u32);
            frontier.push(s as u32);
        }
        m[0] |= 1 << i;
        m[1] |= 1 << i;
    }
    let mut level: Dist = 0;
    while !frontier.is_empty() {
        let parity = (level & 1) as usize;
        let (cur, nxt) = (1 + parity, 2 - parity);
        discovered.clear();
        // Take, report and expand each frontier vertex's level mask in one
        // pass; the level masks are all zero again when the traversal ends.
        for &u in frontier.iter() {
            let fu = std::mem::take(&mut masks[u as usize][cur]);
            reached(level, u as usize, fu);
            g.for_each_live(u as usize, |_, v| {
                let m = &mut masks[v];
                let new = fu & !m[0];
                if new != 0 {
                    if m[0] == 0 {
                        touched.push(v as u32);
                    }
                    if m[nxt] == 0 {
                        discovered.push(v as u32);
                    }
                    m[0] |= new;
                    m[nxt] |= new;
                }
            });
        }
        std::mem::swap(frontier, discovered);
        level += 1;
    }
    for &v in touched.iter() {
        masks[v as usize][0] = 0;
    }
}

/// [`bfs_block_into`] for the single source `source`: reports every reached
/// vertex with the mask `1`.
fn single_source_levels<A: Adjacency>(
    g: A,
    source: NodeId,
    scratch: &mut BfsScratch,
    mut reached: impl FnMut(Dist, NodeId, u64),
) {
    let n = g.num_nodes();
    let BfsScratch { queue, visited, .. } = scratch;
    if visited.len() < n {
        visited.resize(n, false);
    }
    let visited = &mut visited[..n];
    debug_assert!(visited.iter().all(|&f| !f), "stale scratch");
    queue.clear();
    queue.reserve(n);
    queue.push(source as u32);
    visited[source] = true;
    let (mut lo, mut level) = (0usize, 0 as Dist);
    while lo < queue.len() {
        let hi = queue.len();
        for k in lo..hi {
            let u = queue[k] as usize;
            reached(level, u, 1);
            g.for_each_live(u, |_, v| {
                if !visited[v] {
                    visited[v] = true;
                    queue.push(v as u32);
                }
            });
        }
        (lo, level) = (hi, level + 1);
    }
    // Reset what was reached, or the whole prefix when that is cheaper: one
    // `memset` beats scattered writes long before the queue holds n.
    if queue.len() < n / 16 {
        queue.iter().for_each(|&v| visited[v as usize] = false);
    } else {
        visited.fill(false);
    }
}

/// Multi-source BFS: distances to the **nearest source** and the identity of
/// that source, written into caller-provided buffers.
///
/// `dist[v]` becomes the distance from `v` to the closest vertex of
/// `sources` ([`INFINITY`] when none is reachable) and `origin[v]` the id of
/// a closest source (`u32::MAX` when unreachable).  Ties are broken towards
/// the source listed **earliest in `sources`**: sources are enqueued in list
/// order, and a straightforward induction shows that at every BFS level the
/// queue stays sorted by origin position, so each vertex is claimed by the
/// earliest-listed source among its minimizers.  With `sources` sorted
/// ascending this makes `origin[v]` the *smallest-id* nearest source — the
/// exact tie-break a dense `for l in sources { if d(v,l) < best }` sweep
/// performs, which is what lets the landmark scheme's sparse builder
/// reproduce the dense builder's home-landmark table bit for bit.
///
/// Duplicate sources are ignored after the first occurrence.  One BFS over
/// the whole graph: `O(n + m)`, allocation-free once `scratch` is warm.
pub fn bfs_from_sources_into<A: Adjacency>(
    g: A,
    sources: &[NodeId],
    scratch: &mut BfsScratch,
    dist: &mut [Dist],
    origin: &mut [u32],
) {
    let n = g.num_nodes();
    assert_eq!(dist.len(), n, "distance buffer has the wrong length");
    assert_eq!(origin.len(), n, "origin buffer has the wrong length");
    dist.fill(INFINITY);
    origin.fill(u32::MAX);
    let queue = &mut scratch.queue;
    queue.clear();
    queue.reserve(n);
    for &s in sources {
        assert!(s < n, "BFS source out of range");
        if dist[s] == INFINITY {
            dist[s] = 0;
            origin[s] = s as u32;
            queue.push(s as u32);
        }
    }
    let mut head = 0usize;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        let du = dist[u] + 1;
        let ou = origin[u];
        g.for_each_live(u, |_, v| {
            if dist[v] == INFINITY {
                dist[v] = du;
                origin[v] = ou;
                queue.push(v as u32);
            }
        });
    }
}

/// Workspace for [`bfs_bounded_into`]: queue, lazily-reset distance buffer
/// and the per-vertex first-hop port of the discovery path.
///
/// The distance buffer is reset **only for the vertices a traversal touched**
/// (they are all on the queue), so a sweep of `n` pruned BFSes costs
/// `O(Σ touched)` — not `O(n²)` — and performs zero allocations after
/// warm-up.
#[derive(Debug, Default, Clone)]
pub struct BoundedBfsScratch {
    queue: Vec<u32>,
    dist: Vec<Dist>,
    first_hop: Vec<u32>,
}

impl BoundedBfsScratch {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace pre-sized for graphs on `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        BoundedBfsScratch {
            queue: Vec::with_capacity(n),
            dist: Vec::with_capacity(n),
            first_hop: Vec::with_capacity(n),
        }
    }
}

/// Pruned (truncated) BFS from `source`: expands a vertex `v` only while
/// `d(source, v) <= bound[v]`, and reports every such vertex (except the
/// source itself) through `visit(v, d(source, v), first_hop_port)`.
///
/// `first_hop_port` is the port **of `source`** on the discovery path to `v`.
/// Neighbours are scanned in port order and each vertex inherits the
/// first-hop of the queue entry that discovered it, so — by the same
/// level-monotonicity induction as [`bfs_from_sources_into`] — the reported
/// port is the *smallest* port `p` of `source` with
/// `d(target(source, p), v) + 1 = d(source, v)`: exactly the port a dense
/// "first shortest-path port" scan over a full distance matrix would pick.
///
/// The pruning is sound for *downward-closed* bounds, i.e. whenever
/// `d(source, v) <= bound[v]` implies `d(source, u) <= bound[u]` for every
/// `u` on every shortest `source → v` path.  The landmark clusters
/// `S(w) = { v : d(w, v) <= d(v, L) }` have this property (triangle
/// inequality on `d(·, L)`), which is what makes the sparse cluster builder
/// run in `O(Σ_w vol(S(w)))` instead of `O(n · m)`.
///
/// Vertices just outside the frontier are *touched* (discovered, never
/// expanded, not reported); the traversal cost is the volume of the explored
/// cluster plus its boundary.  Visit order is BFS (non-decreasing distance).
pub fn bfs_bounded_into<A: Adjacency>(
    g: A,
    source: NodeId,
    bound: &[Dist],
    scratch: &mut BoundedBfsScratch,
    mut visit: impl FnMut(NodeId, Dist, Port),
) {
    let n = g.num_nodes();
    assert!(source < n, "BFS source out of range");
    assert_eq!(bound.len(), n, "bound buffer has the wrong length");
    scratch.dist.resize(n, INFINITY);
    scratch.first_hop.resize(n, 0);
    let BoundedBfsScratch {
        queue,
        dist,
        first_hop,
    } = scratch;
    debug_assert!(dist.iter().all(|&d| d == INFINITY), "stale scratch");
    queue.clear();
    dist[source] = 0;
    queue.push(source as u32);
    let mut head = 0usize;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        let du = dist[u];
        if du > bound[u] {
            // Touched but outside the cluster: recorded (for the reset
            // sweep) yet never expanded nor reported.
            continue;
        }
        if u != source {
            visit(u, du, first_hop[u] as usize);
        }
        let dv = du + 1;
        let hop_u = first_hop[u];
        g.for_each_live(u, |p, v| {
            if dist[v] == INFINITY {
                dist[v] = dv;
                first_hop[v] = if u == source { p as u32 } else { hop_u };
                queue.push(v as u32);
            }
        });
    }
    // Lazy reset: only what this traversal wrote.
    for &u in queue.iter() {
        dist[u as usize] = INFINITY;
    }
}

/// Fixed-radius BFS "ball": reports every vertex `v` **including `source`**
/// with `d(source, v) <= radius` through `visit(v, d(source, v))`, in BFS
/// order.
///
/// The repair machinery uses balls to localize the set of vertices whose
/// landmark clusters a dead link can have touched; cost is the volume of the
/// ball (lazy scratch reset, zero allocations after warm-up), not `O(n)`.
pub fn bfs_ball_into<A: Adjacency>(
    g: A,
    source: NodeId,
    radius: Dist,
    scratch: &mut BoundedBfsScratch,
    mut visit: impl FnMut(NodeId, Dist),
) {
    let n = g.num_nodes();
    assert!(source < n, "BFS source out of range");
    scratch.dist.resize(n, INFINITY);
    let BoundedBfsScratch { queue, dist, .. } = scratch;
    debug_assert!(dist.iter().all(|&d| d == INFINITY), "stale scratch");
    queue.clear();
    dist[source] = 0;
    queue.push(source as u32);
    let mut head = 0usize;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        let du = dist[u];
        visit(u, du);
        if du == radius {
            // Frontier: reported but not expanded.
            continue;
        }
        let dv = du + 1;
        g.for_each_live(u, |_, v| {
            if dist[v] == INFINITY {
                dist[v] = dv;
                queue.push(v as u32);
            }
        });
    }
    // Lazy reset: only what this traversal wrote.
    for &u in queue.iter() {
        dist[u as usize] = INFINITY;
    }
}

/// Like [`bfs_distances_into`], but reusing the scratch's own distance
/// buffer; returns a borrow of it.
pub fn bfs_distances_scratch<A: Adjacency>(
    g: A,
    source: NodeId,
    scratch: &mut BfsScratch,
) -> &[Dist] {
    let n = g.num_nodes();
    scratch.dist.resize(n, INFINITY);
    let mut dist = std::mem::take(&mut scratch.dist);
    bfs_distances_into(g, source, scratch, &mut dist);
    scratch.dist = dist;
    &scratch.dist
}

/// Distances from `source` only (slightly cheaper than [`bfs`]).
///
/// Convenience wrapper allocating fresh buffers; sweeps should use
/// [`bfs_distances_into`] with a [`BfsScratch`] instead.
pub fn bfs_distances<A: Adjacency>(g: A, source: NodeId) -> Vec<Dist> {
    let mut dist = vec![INFINITY; g.num_nodes()];
    let mut scratch = BfsScratch::new();
    bfs_distances_into(g, source, &mut scratch, &mut dist);
    dist
}

/// Result of a single-source BFS: distances, BFS-tree parents and the parent
/// ports (the port of `parent[v]` that leads to `v` is not stored; instead we
/// store, for each `v`, the port *of `v`* leading to its parent, which is what
/// tree-routing schemes need, and the parent id itself).  Child lists are
/// precomputed in CSR form so [`BfsTree::children`] is `O(1)`.
#[derive(Debug, Clone)]
pub struct BfsTree {
    /// Source vertex of the traversal.
    pub source: NodeId,
    /// `dist[v]` = number of edges on a shortest path from `source` to `v`,
    /// or [`INFINITY`] if unreachable.
    pub dist: Vec<Dist>,
    /// `parent[v]` = predecessor of `v` on the BFS tree, `None` for the
    /// source and for unreachable vertices.
    pub parent: Vec<Option<NodeId>>,
    /// `parent_port[v]` = the port of `v` leading back to `parent[v]`.
    pub parent_port: Vec<Option<Port>>,
    /// CSR offsets into `child_targets`, one slice per vertex.
    child_offsets: Vec<u32>,
    /// Children of every vertex in the BFS tree, grouped by parent and
    /// ascending within each group.
    child_targets: Vec<u32>,
}

impl BfsTree {
    /// Whether `v` was reached by the traversal.
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v] != INFINITY
    }

    /// Reconstructs the tree path from the source to `v` (inclusive), or
    /// `None` if `v` is unreachable.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.reached(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// The children of `u` in the BFS tree, in ascending vertex order.
    ///
    /// Precomputed at construction; this is a slice borrow, not an `O(n)`
    /// scan.
    pub fn children(&self, u: NodeId) -> &[u32] {
        &self.child_targets[self.child_offsets[u] as usize..self.child_offsets[u + 1] as usize]
    }
}

/// Single-source breadth-first search from `source`.
pub fn bfs(g: &Graph, source: NodeId) -> BfsTree {
    let n = g.num_nodes();
    assert!(source < n, "BFS source out of range");
    let mut dist = vec![INFINITY; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut parent_port: Vec<Option<Port>> = vec![None; n];
    let mut queue: Vec<u32> = Vec::with_capacity(n);
    dist[source] = 0;
    queue.push(source as u32);
    let mut head = 0usize;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        let du = dist[u] + 1;
        for &v in g.neighbors(u) {
            let v = v as usize;
            if dist[v] == INFINITY {
                dist[v] = du;
                parent[v] = Some(u);
                parent_port[v] = g.port_to(v, u);
                queue.push(v as u32);
            }
        }
    }
    // Child lists in CSR form: counting sort keyed by parent, filled in
    // ascending child order.
    let mut child_offsets = vec![0u32; n + 1];
    for &p in parent.iter().flatten() {
        child_offsets[p + 1] += 1;
    }
    for i in 0..n {
        child_offsets[i + 1] += child_offsets[i];
    }
    let mut cursor = child_offsets.clone();
    let mut child_targets = vec![0u32; child_offsets[n] as usize];
    for (v, &p) in parent.iter().enumerate() {
        if let Some(p) = p {
            child_targets[cursor[p] as usize] = v as u32;
            cursor[p] += 1;
        }
    }
    BfsTree {
        source,
        dist,
        parent,
        parent_port,
        child_offsets,
        child_targets,
    }
}

/// Whether the graph (or masked view) is connected; the empty graph is
/// considered connected.
pub fn is_connected<A: Adjacency>(g: A) -> bool {
    let n = g.num_nodes();
    if n == 0 {
        return true;
    }
    let dist = bfs_distances(g, 0);
    dist.iter().all(|&d| d != INFINITY)
}

/// Connected components: returns `(component_id, count)` where
/// `component_id[v]` identifies the component of `v` (ids are `0..count`,
/// numbered by smallest contained vertex).
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.num_nodes();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0;
    let mut queue: Vec<u32> = Vec::with_capacity(n);
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        queue.clear();
        comp[s] = count;
        queue.push(s as u32);
        let mut head = 0usize;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            for &v in g.neighbors(u) {
                let v = v as usize;
                if comp[v] == usize::MAX {
                    comp[v] = count;
                    queue.push(v as u32);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// Eccentricity of `v`: the maximum distance from `v` to any reachable vertex.
/// Returns `None` if some vertex is unreachable from `v`.
pub fn eccentricity(g: &Graph, v: NodeId) -> Option<Dist> {
    let mut scratch = BfsScratch::with_capacity(g.num_nodes());
    eccentricity_scratch(g, v, &mut scratch)
}

fn eccentricity_scratch(g: &Graph, v: NodeId, scratch: &mut BfsScratch) -> Option<Dist> {
    let dist = bfs_distances_scratch(g, v, scratch);
    let mut ecc = 0;
    for &d in dist {
        if d == INFINITY {
            return None;
        }
        ecc = ecc.max(d);
    }
    Some(ecc)
}

/// Diameter of the graph (maximum eccentricity).  Returns `None` on
/// disconnected or empty graphs.  One BFS per vertex, all sharing a single
/// scratch workspace.
pub fn diameter(g: &Graph) -> Option<Dist> {
    if g.num_nodes() == 0 {
        return None;
    }
    let mut scratch = BfsScratch::with_capacity(g.num_nodes());
    let mut best = 0;
    for v in g.nodes() {
        best = best.max(eccentricity_scratch(g, v, &mut scratch)?);
    }
    Some(best)
}

/// Girth of the graph: the length of a shortest cycle, or `None` if the graph
/// is acyclic.  Uses one BFS per vertex with shared buffers, which is
/// adequate for the graph sizes exercised by the experiments.
pub fn girth(g: &Graph) -> Option<Dist> {
    let n = g.num_nodes();
    let mut best: Option<Dist> = None;
    let mut dist = vec![INFINITY; n];
    let mut parent = vec![u32::MAX; n];
    let mut queue: Vec<u32> = Vec::with_capacity(n);
    for s in 0..n {
        // BFS from s; a non-tree edge (u,v) closes a cycle of length
        // dist[u] + dist[v] + 1 through s (an upper bound on the cycle through
        // that edge, and the minimum over all s and edges is the girth).
        dist.fill(INFINITY);
        parent.fill(u32::MAX);
        queue.clear();
        dist[s] = 0;
        queue.push(s as u32);
        let mut head = 0usize;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            for &v32 in g.neighbors(u) {
                let v = v32 as usize;
                if dist[v] == INFINITY {
                    dist[v] = dist[u] + 1;
                    parent[v] = u as u32;
                    queue.push(v32);
                } else if parent[u] != v32 {
                    let cycle = dist[u] + dist[v] + 1;
                    best = Some(best.map_or(cycle, |b| b.min(cycle)));
                }
            }
        }
    }
    best
}

/// Returns some shortest path from `u` to `v` (inclusive of both endpoints),
/// or `None` if `v` is unreachable from `u`.
pub fn shortest_path(g: &Graph, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
    bfs(g, u).path_to(v)
}

/// Enumerates **all** shortest paths from `u` to `v`.  Exponential in the
/// worst case; intended for the small gadget graphs (Petersen graph, graphs of
/// constraints) where the number of shortest paths is tiny.
pub fn all_shortest_paths(g: &Graph, u: NodeId, v: NodeId) -> Vec<Vec<NodeId>> {
    let dist_from_v = bfs_distances(g, v);
    if dist_from_v[u] == INFINITY {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut stack = vec![u];
    collect_paths(g, &dist_from_v, v, &mut stack, &mut out);
    out
}

fn collect_paths(
    g: &Graph,
    dist_from_v: &[Dist],
    v: NodeId,
    stack: &mut Vec<NodeId>,
    out: &mut Vec<Vec<NodeId>>,
) {
    let cur = *stack.last().unwrap();
    if cur == v {
        out.push(stack.clone());
        return;
    }
    for &w in g.neighbors(cur) {
        let w = w as usize;
        if dist_from_v[w] + 1 == dist_from_v[cur] {
            stack.push(w);
            collect_paths(g, dist_from_v, v, stack, out);
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_distances_on_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d2 = bfs_distances(&g, 2);
        assert_eq!(d2, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_distances_into_reuses_buffers_across_graphs() {
        let mut scratch = BfsScratch::new();
        let mut dist = vec![0 as Dist; 7];
        let g = generators::cycle(7);
        bfs_distances_into(&g, 0, &mut scratch, &mut dist);
        assert_eq!(dist, vec![0, 1, 2, 3, 3, 2, 1]);
        // Same scratch, different (smaller) graph: buffer contents must not
        // leak between traversals.
        let h = generators::path(3);
        let mut dist2 = vec![99 as Dist; 3];
        bfs_distances_into(&h, 2, &mut scratch, &mut dist2);
        assert_eq!(dist2, vec![2, 1, 0]);
        assert_eq!(bfs_distances_scratch(&h, 0, &mut scratch), &[0, 1, 2]);
    }

    /// Per-source distances of `bfs_block_into` over `start..start + rows`,
    /// collected into wide rows.
    fn block_rows(
        g: &Graph,
        start: usize,
        rows: usize,
        scratch: &mut BfsScratch,
    ) -> Vec<Vec<Dist>> {
        let n = g.num_nodes();
        let mut out = vec![vec![INFINITY; n]; rows];
        let mut last_level = 0;
        bfs_block_into(g, start..start + rows, scratch, |level, v, mut bits| {
            assert!(
                level >= last_level,
                "levels must arrive in increasing order"
            );
            last_level = level;
            assert_ne!(bits, 0, "a report names at least one source");
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                assert_eq!(
                    out[i][v],
                    INFINITY,
                    "source {} reached {v} twice",
                    start + i
                );
                out[i][v] = level;
                bits &= bits - 1;
            }
        });
        out
    }

    #[test]
    fn narrow_bfs_matches_wide_bfs() {
        // Single-source blocks of the bit-parallel kernel agree with the
        // plain BFS, on connected and disconnected graphs alike.
        let mut scratch = BfsScratch::new();
        for g in [
            generators::cycle(40),
            generators::random_connected(80, 0.06, 5),
            generators::hypercube(5),
            generators::path(4).disjoint_union(&generators::cycle(3)),
        ] {
            for s in 0..g.num_nodes() {
                let rows = block_rows(&g, s, 1, &mut scratch);
                assert_eq!(rows[0], bfs_distances(&g, s), "source {s}");
            }
        }
    }

    #[test]
    fn narrow_bfs_reports_overflow_on_long_paths() {
        // A path with 300 vertices has eccentricity 299 > 254 from its ends:
        // the kernel reports every level up to 299, and the block widens.
        let g = generators::path(300);
        let mut scratch = BfsScratch::new();
        let rows = block_rows(&g, 0, 1, &mut scratch);
        assert_eq!(rows[0][299], 299);
        assert!(!crate::DistanceBlock::compute(&g, 0, 1).is_narrow());
        // From the middle every distance is <= 150: the narrow row fits.
        let mid = crate::DistanceBlock::compute(&g, 150, 1);
        assert!(mid.is_narrow());
        assert_eq!(mid.dist(150, 0), 150);
        assert_eq!(mid.dist(150, 299), 149);
    }

    #[test]
    fn narrow_bfs_distance_254_fits_255_does_not() {
        let g = generators::path(256);
        // Eccentricity of vertex 1 is 254: representable.
        let b = crate::DistanceBlock::compute(&g, 1, 1);
        assert!(b.is_narrow());
        assert_eq!(b.dist(1, 255), 254);
        // Eccentricity of vertex 0 is 255: the first unrepresentable value.
        let b = crate::DistanceBlock::compute(&g, 0, 1);
        assert!(!b.is_narrow());
        assert_eq!(b.dist(0, 255), 255);
    }

    #[test]
    fn block_kernel_matches_per_source_bfs() {
        let mut scratch = BfsScratch::new();
        for g in [
            generators::random_connected(150, 0.04, 3),
            generators::random_regular_like(128, 5, 9),
            generators::grid(9, 13),
            generators::path(300),
            generators::path(5).disjoint_union(&generators::cycle(6)),
        ] {
            let n = g.num_nodes();
            for rows in [1usize, 2, 63, 64] {
                let rows = rows.min(n);
                for start in [0, (n - rows) / 2, n - rows] {
                    let got = block_rows(&g, start, rows, &mut scratch);
                    for (i, row) in got.iter().enumerate() {
                        assert_eq!(row, &bfs_distances(&g, start + i), "source {}", start + i);
                    }
                }
            }
        }
    }

    #[test]
    fn block_kernel_takes_explicit_source_lists() {
        // Non-consecutive sources on a masked view: bit `i` of a report is
        // `sources[i]`, and every reported level is that source's distance.
        let g = generators::random_connected(200, 0.03, 12);
        let failures = crate::FailureSet::sample(&g, 0.1, 4);
        let view = crate::GraphView::masked(&g, &failures);
        let n = g.num_nodes();
        let mut scratch = BfsScratch::new();
        let mut want = vec![0 as Dist; n];
        for rows in [1usize, 2, 63, 64] {
            // Descending, strided ids: neither a range nor sorted.
            let sources: Vec<NodeId> = (0..rows).map(|i| n - 1 - 3 * i).collect();
            let mut got = vec![vec![INFINITY; n]; rows];
            bfs_block_into(
                view,
                sources.iter().copied(),
                &mut scratch,
                |level, v, mut bits| {
                    while bits != 0 {
                        let i = bits.trailing_zeros() as usize;
                        assert_eq!(
                            got[i][v], INFINITY,
                            "source {} reached {v} twice",
                            sources[i]
                        );
                        got[i][v] = level;
                        bits &= bits - 1;
                    }
                },
            );
            for (i, &s) in sources.iter().enumerate() {
                bfs_distances_into(view, s, &mut scratch, &mut want);
                assert_eq!(got[i], want, "{rows} sources, source {s}");
            }
        }
        // A source listed twice reports both of its bits at every level.
        bfs_distances_into(view, 7, &mut scratch, &mut want);
        bfs_block_into(view, [7, 7], &mut scratch, |level, v, bits| {
            assert_eq!(bits, 0b11, "vertex {v}");
            assert_eq!(level, want[v], "vertex {v}");
        });
    }

    #[test]
    fn multi_source_bfs_matches_per_source_minimum() {
        for g in [
            generators::cycle(17),
            generators::grid(5, 9),
            generators::random_connected(80, 0.06, 23),
        ] {
            let n = g.num_nodes();
            let sources: Vec<usize> = (0..n).step_by(7).collect();
            let mut scratch = BfsScratch::new();
            let mut dist = vec![0 as Dist; n];
            let mut origin = vec![0u32; n];
            bfs_from_sources_into(&g, &sources, &mut scratch, &mut dist, &mut origin);
            let per_source: Vec<Vec<Dist>> =
                sources.iter().map(|&s| bfs_distances(&g, s)).collect();
            for v in 0..n {
                // Distance to the set, and the smallest-id source among the
                // minimizers (sources are listed ascending).
                let mut best = INFINITY;
                let mut who = u32::MAX;
                for (i, &s) in sources.iter().enumerate() {
                    if per_source[i][v] < best {
                        best = per_source[i][v];
                        who = s as u32;
                    }
                }
                assert_eq!(dist[v], best, "vertex {v}");
                assert_eq!(origin[v], who, "vertex {v}");
            }
        }
    }

    #[test]
    fn multi_source_bfs_handles_duplicates_and_disconnection() {
        let g = generators::path(4).disjoint_union(&generators::cycle(3));
        let mut scratch = BfsScratch::new();
        let mut dist = vec![0 as Dist; 7];
        let mut origin = vec![0u32; 7];
        bfs_from_sources_into(&g, &[1, 1, 1], &mut scratch, &mut dist, &mut origin);
        assert_eq!(dist[..4], [1, 0, 1, 2]);
        assert_eq!(&dist[4..], &[INFINITY; 3]);
        assert_eq!(&origin[..4], &[1, 1, 1, 1]);
        assert_eq!(&origin[4..], &[u32::MAX; 3]);
    }

    #[test]
    fn bounded_bfs_with_infinite_bounds_is_plain_bfs_with_first_ports() {
        for g in [
            generators::cycle(12),
            generators::grid(4, 6),
            generators::random_connected(60, 0.08, 31),
        ] {
            let n = g.num_nodes();
            let bound = vec![INFINITY; n];
            let mut scratch = BoundedBfsScratch::with_capacity(n);
            for w in 0..n {
                let dw = bfs_distances(&g, w);
                let mut seen = vec![false; n];
                bfs_bounded_into(&g, w, &bound, &mut scratch, |v, d, p| {
                    assert_eq!(d, dw[v], "distance of {v} from {w}");
                    // Reported port must be the first shortest-path port.
                    let dv = bfs_distances(&g, v);
                    let expected = g
                        .neighbors(w)
                        .iter()
                        .position(|&x| dv[x as usize] + 1 == dw[v])
                        .unwrap();
                    assert_eq!(p, expected, "first port of {w} towards {v}");
                    seen[v] = true;
                });
                assert!((0..n).filter(|&v| v != w).all(|v| seen[v]));
            }
        }
    }

    #[test]
    fn bounded_bfs_prunes_at_the_bound_and_resets_its_scratch() {
        // On a path with bound 2 everywhere, only vertices within distance 2
        // are reported, and consecutive traversals do not leak state.
        let g = generators::path(10);
        let bound = vec![2 as Dist; 10];
        let mut scratch = BoundedBfsScratch::new();
        for w in 0..10usize {
            let mut got = Vec::new();
            bfs_bounded_into(&g, w, &bound, &mut scratch, |v, d, _| got.push((v, d)));
            let mut expected: Vec<(usize, Dist)> = (0..10)
                .filter(|&v| v != w && v.abs_diff(w) <= 2)
                .map(|v| (v, v.abs_diff(w) as Dist))
                .collect();
            expected.sort_by_key(|&(_, d)| d);
            let mut got_sorted = got.clone();
            got_sorted.sort_by_key(|&(_, d)| d);
            assert_eq!(got_sorted.len(), expected.len(), "source {w}");
            let key = |list: &[(usize, Dist)]| {
                let mut l = list.to_vec();
                l.sort_unstable();
                l
            };
            assert_eq!(key(&got), key(&expected), "source {w}");
        }
    }

    #[test]
    fn bfs_tree_paths_are_shortest() {
        let g = generators::cycle(7);
        let t = bfs(&g, 0);
        for v in 0..7 {
            let p = t.path_to(v).unwrap();
            assert_eq!(p.len() as Dist - 1, t.dist[v]);
            assert_eq!(*p.first().unwrap(), 0);
            assert_eq!(*p.last().unwrap(), v);
            for w in p.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn bfs_parent_ports_point_back() {
        let g = generators::hypercube(3);
        let t = bfs(&g, 0);
        for v in 1..g.num_nodes() {
            let parent = t.parent[v].unwrap();
            let port = t.parent_port[v].unwrap();
            assert_eq!(g.port_target(v, port), parent);
        }
    }

    #[test]
    fn connectivity_detection() {
        let g = generators::path(4);
        assert!(is_connected(&g));
        let h = g.disjoint_union(&generators::path(3));
        assert!(!is_connected(&h));
        let (comp, count) = connected_components(&h);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[3]);
        assert_ne!(comp[0], comp[4]);
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(is_connected(&Graph::new(0)));
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&generators::path(6)), Some(5));
        assert_eq!(diameter(&generators::cycle(8)), Some(4));
        assert_eq!(diameter(&generators::complete(9)), Some(1));
        assert_eq!(diameter(&generators::petersen()), Some(2));
        assert_eq!(diameter(&generators::hypercube(4)), Some(4));
    }

    #[test]
    fn diameter_of_disconnected_graph_is_none() {
        let h = generators::path(3).disjoint_union(&generators::path(3));
        assert_eq!(diameter(&h), None);
        assert_eq!(eccentricity(&h, 0), None);
    }

    #[test]
    fn girth_of_known_graphs() {
        assert_eq!(girth(&generators::cycle(5)), Some(5));
        assert_eq!(girth(&generators::complete(4)), Some(3));
        assert_eq!(girth(&generators::petersen()), Some(5));
        assert_eq!(girth(&generators::path(10)), None);
        assert_eq!(girth(&generators::balanced_tree(2, 3)), None);
    }

    #[test]
    fn single_shortest_path_endpoints_and_length() {
        let g = generators::grid(4, 5);
        let p = shortest_path(&g, 0, g.num_nodes() - 1).unwrap();
        assert_eq!(p.len(), 1 + 3 + 4); // Manhattan distance 7, 8 vertices
        assert_eq!(p[0], 0);
        assert_eq!(*p.last().unwrap(), g.num_nodes() - 1);
    }

    #[test]
    fn all_shortest_paths_on_cycle() {
        // On an even cycle the two antipodal vertices have exactly two
        // shortest paths.
        let g = generators::cycle(6);
        let paths = all_shortest_paths(&g, 0, 3);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.len(), 4);
            assert_eq!(p[0], 0);
            assert_eq!(p[3], 3);
        }
    }

    #[test]
    fn all_shortest_paths_unreachable_is_empty() {
        let h = generators::path(2).disjoint_union(&generators::path(2));
        assert!(all_shortest_paths(&h, 0, 3).is_empty());
    }

    #[test]
    fn all_shortest_paths_count_on_grid() {
        // Number of monotone lattice paths from (0,0) to (2,2) is C(4,2)=6.
        let g = generators::grid(3, 3);
        let paths = all_shortest_paths(&g, 0, 8);
        assert_eq!(paths.len(), 6);
    }

    #[test]
    fn children_listed_correctly() {
        let g = generators::star(5);
        let t = bfs(&g, 0);
        assert_eq!(t.children(0), &[1, 2, 3, 4, 5]);
        assert!(t.children(1).is_empty());
    }

    #[test]
    fn children_match_parent_pointers_on_random_graph() {
        let g = generators::random_connected(60, 0.08, 17);
        let t = bfs(&g, 3);
        for u in 0..g.num_nodes() {
            for &c in t.children(u) {
                assert_eq!(t.parent[c as usize], Some(u));
            }
        }
        let listed: usize = (0..g.num_nodes()).map(|u| t.children(u).len()).sum();
        let with_parent = t.parent.iter().filter(|p| p.is_some()).count();
        assert_eq!(listed, with_parent);
    }
}
