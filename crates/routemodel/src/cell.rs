//! Narrow table cells: ports (and distances) stored as `u8`, `u16` or `u32`.
//!
//! The paper charges a router `⌈log₂ deg⌉` bits per port.  A table whose
//! entries are `usize` pays 64 bits for what is, on every benchmark family, a
//! one-byte value.  The resident tables of [`crate::TableRouting`] and of the
//! landmark scheme therefore store [`Cell`]s at the narrowest [`Width`] whose
//! maximum exceeds every value they hold; the maximum itself is the sentinel
//! ("no port").  Arithmetic stays in `u32`/`usize`: only loads and stores are
//! narrow.

/// One table entry: `u8`, `u16` or `u32`, whichever [`Width::for_bounds`]
/// picks for the graph.
pub trait Cell: Copy + Ord + Default + Send + Sync + std::fmt::Debug + 'static {
    /// The type's maximum as a `u32`.  It is the sentinel: "no port" in a
    /// next-port table, "this router *is* the landmark" or a dead member in
    /// the landmark tables.  The width rule keeps every real value below it.
    const SENTINEL: u32;
    /// The sentinel as a cell.
    const NONE: Self;
    /// Stores `x`, which the width rule guarantees to fit.  Checked anyway,
    /// since a silent truncation would corrupt the tables.
    fn cell(x: u32) -> Self;
    /// Loads the cell as a `u32`.
    fn get(self) -> u32;
}

macro_rules! impl_cell {
    ($t:ty) => {
        impl Cell for $t {
            const SENTINEL: u32 = <$t>::MAX as u32;
            const NONE: Self = <$t>::MAX;
            #[inline]
            fn cell(x: u32) -> Self {
                assert!(x <= Self::SENTINEL, "{x} does not fit the cell width");
                x as $t
            }
            #[inline]
            fn get(self) -> u32 {
                u32::from(self)
            }
        }
    };
}
impl_cell!(u8);
impl_cell!(u16);
impl_cell!(u32);

/// Cell width of a table, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Width {
    U8,
    U16,
    U32,
}

impl Width {
    /// The narrowest width whose maximum exceeds both the graph's maximum
    /// degree (every port is below it) and `dist_bound`, a bound on every
    /// stored distance (0 for a table of ports only).  The maximum itself
    /// stays free as the sentinel, and since it exceeds every degree,
    /// `maximum − 1` is still an out-of-range port: that is where a mutation
    /// stores a port too large for the cell.
    pub fn for_bounds(max_degree: usize, dist_bound: u64) -> Width {
        let need = (max_degree as u64).max(dist_bound);
        if need < u64::from(u8::SENTINEL) {
            Width::U8
        } else if need < u64::from(u16::SENTINEL) {
            Width::U16
        } else {
            Width::U32
        }
    }

    /// Bytes per cell: 1, 2 or 4.
    pub fn bytes(self) -> usize {
        match self {
            Width::U8 => 1,
            Width::U16 => 2,
            Width::U32 => 4,
        }
    }
}

/// Stores `port` as a cell of type `C`; a port at or above the sentinel is
/// stored as `sentinel − 1`, which the width rule keeps at or above every
/// degree: still out of range, never "no port".
pub fn clamped_port<C: Cell>(port: usize) -> C {
    C::cell(u32::try_from(port).unwrap_or(u32::MAX).min(C::SENTINEL - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_round_trip_and_clamp_below_the_sentinel() {
        assert_eq!(u8::cell(254).get(), 254);
        assert_eq!(u16::cell(65534).get(), 65534);
        assert_eq!(clamped_port::<u8>(7), 7);
        assert_eq!(clamped_port::<u8>(255), 254);
        assert_eq!(clamped_port::<u16>(usize::MAX), 65534);
        assert_eq!(clamped_port::<u32>(usize::MAX), u32::MAX - 1);
        assert_eq!(
            [Width::U8, Width::U16, Width::U32].map(Width::bytes),
            [1, 2, 4]
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_value_past_the_sentinel_is_refused() {
        let _ = u8::cell(256);
    }
}
