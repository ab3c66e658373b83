//! # routemodel
//!
//! The routing model of Fraigniaud & Gavoille, *Local Memory Requirement of
//! Universal Routing Schemes* (SPAA 1996), Section 1.
//!
//! A **routing function** on a graph `G` is a triple `R = (I, H, P)` of
//! initialization, header and port functions.  For any two distinct nodes
//! `u, v`, `R` produces a path `u = u₀, u₁, …, u_k = v` and a sequence of
//! headers `h₀ = I(u, v)`, `h_{i+1} = H(u_i, h_i)`, with
//! `P(u_i, h_i) = (u_i, u_{i+1})` for `i < k` and `P(u_k, h_k) = ⊥`
//! (delivery).  The trait [`RoutingFunction`] mirrors this triple; headers may
//! be of unbounded size, exactly as in the paper.
//!
//! Derived quantities provided by this crate:
//!
//! * [`simulate::walk`] is the one routing loop: it routes one message with a
//!   caller-owned header rewritten in place, returns its
//!   [`DeliveryOutcome`] and hop count, and records the path only when asked
//!   to — the stretch reference, the `trafficlab` workload engine and the
//!   `routeserve` server all route through it, allocation-free once warm;
//!   [`simulate::route`] is its strict form, returning the routing path (or
//!   a routing error: loop, wrong delivery, dead end) for one pair;
//! * [`stretch`] computes the **stretch factor**
//!   `s(R, G) = max_{x≠y} d_R(x, y) / d_G(x, y)` — one sequential reference
//!   over a dense distance matrix here, and a public [`StretchAccumulator`]
//!   so the `trafficlab` engine, which measures every parallel and sampled
//!   stretch, reproduces the reference bit-for-bit without an `n²` matrix;
//! * [`memory`] measures the **memory requirement** `MEM_G(R, x)` of each
//!   router under explicit encodings (the paper uses Kolmogorov complexity,
//!   which our concrete encoders upper-bound and our counting arguments lower
//!   bound), and aggregates it into the global (sum) and local (max)
//!   memory requirements;
//! * [`coding`] contains the bit-level encoders (fixed width, Elias gamma and
//!   delta, enumerative coding of subsets) and the `log₂`-arithmetic helpers
//!   (`log₂ n!`, `log₂ C(n, k)`) used both by the encoders and by the
//!   counting lower bounds of the paper;
//! * [`table`] is the canonical universal routing function — the full routing
//!   table — built from shortest-path trees with pluggable tie-breaking and
//!   stored at the paper's width: one flat table of [`cell`]s, one byte per
//!   port on every graph of maximum degree below 255;
//! * [`labeling`] produces the "good" and "adversarial" port labelings whose
//!   contrast on the complete graph motivates the whole problem.

#![forbid(unsafe_code)]

pub mod cell;
pub mod coding;
pub mod error;
pub mod function;
pub mod header;
pub mod labeling;
pub mod memory;
pub mod simulate;
pub mod stretch;
pub mod table;

pub use error::RoutingError;
pub use function::{Action, RoutingFunction};
pub use header::Header;
pub use memory::{MemoryReport, PortMap};
pub use simulate::{default_hop_limit, route, walk, DeliveryOutcome, RouteTrace};
pub use stretch::{stretch_factor, StretchAccumulator, StretchReport};
pub use table::{TableRouting, TieBreak};
