//! Dimension-order (XY) routing on grids.
//!
//! Like e-cube on the hypercube, a mesh router can compute the outgoing port
//! from its own coordinates and the destination's coordinates, so the local
//! memory requirement is `O(log n)` bits (its coordinates and the grid
//! dimensions).  This gives another Table 1-style data point of a graph class
//! whose local memory requirement is exponentially below the Theorem 1
//! worst case.

use crate::scheme::{BuildError, CompactScheme, GraphHints, SchemeInstance, SchemeRouting};
use graphkit::{Graph, NodeId, Port};
use routemodel::coding::bits_for_values;
use routemodel::{Action, Header, MemoryReport, RoutingFunction};

/// XY dimension-order routing on a `rows × cols` grid whose vertex `(r, c)`
/// has index `r·cols + c` (the labeling of [`graphkit::generators::grid`]).
#[derive(Debug, Clone)]
pub struct DimensionOrderRouting {
    /// `(row, col)` of every vertex, resolved once so the per-hop decision
    /// is table lookups instead of two integer divisions by a runtime
    /// divisor — the dominant cost on the serving path.
    coords: Vec<[u32; 2]>,
    /// Ports toward (east, west, south, north) neighbours for every vertex,
    /// resolved once from the graph so the routing function itself is pure
    /// arithmetic.  Conceptually each router derives these from its
    /// coordinates; they are not charged as table memory (nor is `coords`).
    ports: Vec<[Option<usize>; 4]>,
    name: String,
}

const EAST: usize = 0;
const WEST: usize = 1;
const SOUTH: usize = 2;
const NORTH: usize = 3;
const NAMES: [&str; 4] = ["east", "west", "south", "north"];

impl DimensionOrderRouting {
    /// Builds XY routing for the given grid graph.
    pub fn build(g: &Graph, rows: usize, cols: usize) -> Self {
        assert_eq!(g.num_nodes(), rows * cols, "grid dimensions mismatch");
        let idx = |r: usize, c: usize| r * cols + c;
        let mut ports = vec![[None; 4]; g.num_nodes()];
        for r in 0..rows {
            for c in 0..cols {
                let u = idx(r, c);
                if c + 1 < cols {
                    ports[u][EAST] = g.port_to(u, idx(r, c + 1));
                }
                if c > 0 {
                    ports[u][WEST] = g.port_to(u, idx(r, c - 1));
                }
                if r + 1 < rows {
                    ports[u][SOUTH] = g.port_to(u, idx(r + 1, c));
                }
                if r > 0 {
                    ports[u][NORTH] = g.port_to(u, idx(r - 1, c));
                }
            }
        }
        let coords = (0..g.num_nodes())
            .map(|v| [(v / cols) as u32, (v % cols) as u32])
            .collect();
        DimensionOrderRouting {
            coords,
            ports,
            name: "dimension-order(XY)".to_string(),
        }
    }

    #[inline]
    fn coords(&self, v: NodeId) -> (usize, usize) {
        let [r, c] = self.coords[v];
        (r as usize, c as usize)
    }

    /// The direction XY routing takes at `v` toward `dest`: correct the
    /// column first (X), then the row (Y).
    #[inline]
    fn direction(&self, v: NodeId, dest: NodeId) -> usize {
        let (r, c) = self.coords(v);
        let (dr, dc) = self.coords(dest);
        if dc > c {
            EAST
        } else if dc < c {
            WEST
        } else if dr > r {
            SOUTH
        } else {
            NORTH
        }
    }
}

impl RoutingFunction for DimensionOrderRouting {
    fn init(&self, _source: NodeId, dest: NodeId) -> Header {
        Header::to_dest(dest)
    }

    fn port(&self, node: NodeId, header: &Header) -> Action {
        if node == header.dest {
            return Action::Deliver;
        }
        match self.ports[node][self.direction(node, header.dest)] {
            Some(p) => Action::Forward(p),
            None => Action::Deliver, // impossible on well-formed grids
        }
    }

    fn init_into(&self, _source: NodeId, dest: NodeId, header: &mut Header) {
        header.dest = dest;
        header.data.clear();
    }

    // Identity header: a hop rewrites nothing.
    fn next_header_into(&self, _node: NodeId, _header: &mut Header) {}

    fn name(&self) -> &str {
        &self.name
    }
}

/// The direction table is the grid's only stored state; its memory is
/// charged from the grid dimensions, not recounted.
impl SchemeRouting for DimensionOrderRouting {
    /// Every stored port is below the router's degree and leads to the
    /// neighbour its direction names.
    fn audit(&self, g: &Graph) -> Vec<String> {
        let mut f = Vec::new();
        for (v, ports) in self.ports.iter().enumerate() {
            let (r, c) = self.coords(v);
            for (dir, &port) in ports.iter().enumerate() {
                let Some(p) = port else { continue };
                let named = p < g.degree(v) && {
                    let (tr, tc) = self.coords(g.port_target(v, p));
                    match dir {
                        EAST => (tr, tc) == (r, c + 1),
                        WEST => (tr, tc + 1) == (r, c),
                        SOUTH => (tr, tc) == (r + 1, c),
                        _ => (tr + 1, tc) == (r, c),
                    }
                };
                if !named {
                    let (name, degree) = (NAMES[dir], g.degree(v));
                    f.push(format!(
                        "{name} port {p} at router {v} (degree {degree}) misses its {name} neighbour"
                    ));
                }
            }
        }
        f
    }

    /// Overwrites the direction entry the decision logic takes at router
    /// `v` for `dest`.
    fn corrupt_entry(&mut self, v: NodeId, dest: NodeId, port: Port) -> Option<String> {
        let dir = self.direction(v, dest);
        self.ports[v][dir] = Some(port);
        Some(format!("{} port of router {v}", NAMES[dir]))
    }
}

/// The dimension-order routing scheme for grids: the caller supplies the grid
/// dimensions since they are not recoverable from an arbitrary isomorphic
/// copy cheaply.
#[derive(Debug, Clone, Copy)]
pub struct DimensionOrderScheme {
    pub rows: usize,
    pub cols: usize,
}

impl DimensionOrderScheme {
    pub fn new(rows: usize, cols: usize) -> Self {
        DimensionOrderScheme { rows, cols }
    }
}

impl CompactScheme for DimensionOrderScheme {
    fn name(&self) -> &str {
        "dimension-order"
    }

    fn applies_to(&self, g: &Graph, _hints: &GraphHints) -> bool {
        g.num_nodes() == self.rows * self.cols
    }

    fn try_build(&self, g: &Graph, _hints: &GraphHints) -> Result<SchemeInstance, BuildError> {
        if g.num_nodes() != self.rows * self.cols {
            return Err(BuildError::NotApplicable {
                scheme: "dimension-order",
                reason: format!(
                    "{}x{} grid needs {} vertices, graph has {}",
                    self.rows,
                    self.cols,
                    self.rows * self.cols,
                    g.num_nodes()
                ),
            });
        }
        let routing = DimensionOrderRouting::build(g, self.rows, self.cols);
        // Each router stores its coordinates and the grid dimensions.
        let bits = 2 * u64::from(bits_for_values(self.rows as u64))
            + 2 * u64::from(bits_for_values(self.cols as u64));
        let memory = MemoryReport::from_fn(g.num_nodes(), |_| bits.max(1));
        Ok(SchemeInstance::new(Box::new(routing), memory, Some(1.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::{generators, DistanceMatrix};
    use routemodel::{route, stretch_factor};

    #[test]
    fn xy_routing_is_shortest_path_on_grids() {
        for (rows, cols) in [(1usize, 8usize), (3, 4), (5, 5), (7, 2)] {
            let g = generators::grid(rows, cols);
            let r = DimensionOrderRouting::build(&g, rows, cols);
            let dm = DistanceMatrix::all_pairs(&g);
            let rep = stretch_factor(&g, &dm, &r).unwrap();
            assert!((rep.max_stretch - 1.0).abs() < 1e-12, "{rows}x{cols}");
        }
    }

    #[test]
    fn xy_routing_goes_column_first() {
        let g = generators::grid(3, 4);
        let r = DimensionOrderRouting::build(&g, 3, 4);
        // from (0,0)=0 to (2,3)=11: expect 0,1,2,3 then 7, 11
        let trace = route(&g, &r, 0, 11).unwrap();
        assert_eq!(trace.path, vec![0, 1, 2, 3, 7, 11]);
    }

    #[test]
    fn memory_is_logarithmic_and_positive() {
        let g = generators::grid(16, 16);
        let inst = DimensionOrderScheme::new(16, 16).build(&g);
        assert!(inst.memory.local() <= 4 * 4);
        assert!(inst.memory.local() >= 1);
        let tables = crate::table_scheme::TableScheme::default().build(&g);
        assert!(inst.memory.local() * 10 < tables.memory.local());
    }

    #[test]
    fn audit_flags_corrupted_direction_entries() {
        use crate::mutate::{corrupt_instance, MutationKind};
        let g = generators::grid(6, 5);
        assert!(DimensionOrderScheme::new(6, 5)
            .build(&g)
            .audit(&g)
            .is_empty());
        for kind in [MutationKind::OutOfRange, MutationKind::Misroute] {
            let mut inst = DimensionOrderScheme::new(6, 5).build(&g);
            let mutation = corrupt_instance(&mut inst, &g, 3, kind).unwrap();
            let findings = inst.audit(&g);
            assert_eq!(findings.len(), 1, "{kind:?}: {findings:?}");
            // "east port of router 1" names the entry the audit flags.
            let (dir, router) = mutation.description.split_once(" port of router ").unwrap();
            let entry = format!("{dir} port ");
            assert!(findings[0].starts_with(&entry), "{findings:?}");
            assert!(findings[0].contains(&format!(" at router {router} ")));
        }
    }

    #[test]
    fn scheme_rejects_wrong_sizes() {
        let g = generators::grid(3, 4);
        let hints = GraphHints::none();
        assert!(matches!(
            DimensionOrderScheme::new(4, 4).try_build(&g, &hints),
            Err(BuildError::NotApplicable { .. })
        ));
        assert!(DimensionOrderScheme::new(3, 4)
            .try_build(&g, &hints)
            .is_ok());
    }
}
