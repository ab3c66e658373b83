//! Message headers.
//!
//! The paper allows headers of unbounded size (the memory requirement
//! deliberately does not count them), so the header type is a destination
//! label plus an arbitrary scheme-specific payload of machine words.

use graphkit::NodeId;
use std::hash::{Hash, Hasher};

/// A routing header: the destination label plus optional scheme-specific data.
///
/// * Plain routing tables only ever look at `dest`.
/// * Interval routing looks at `dest` interpreted in the scheme's own vertex
///   labeling (stored in the payload when it differs from the graph labels).
/// * Hierarchical/landmark schemes store the destination's landmark and other
///   bookkeeping in `data`.
#[derive(Debug, Clone)]
pub struct Header {
    /// Destination vertex (graph label, 0-based).
    pub dest: NodeId,
    /// Scheme-specific payload; unbounded, per the model.
    pub data: Vec<u64>,
}

/// Structural equality, with the empty payload — every hop of a plain table
/// route — decided without comparing the payload buffers: a derived `==`
/// reaches `memcmp` even at length 0, and the static verifier compares
/// headers once per source, walk and hop.
impl PartialEq for Header {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.dest == other.dest
            && self.data.len() == other.data.len()
            && (self.data.is_empty() || self.data == other.data)
    }
}

impl Eq for Header {}

/// Hashes exactly what [`PartialEq`] compares: the destination and the
/// payload words (capacity never enters either).
impl Hash for Header {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.dest.hash(state);
        self.data.hash(state);
    }
}

impl Header {
    /// A header carrying only the destination.
    pub fn to_dest(dest: NodeId) -> Self {
        Header {
            dest,
            data: Vec::new(),
        }
    }

    /// A header with destination and payload.
    pub fn with_data(dest: NodeId, data: Vec<u64>) -> Self {
        Header { dest, data }
    }

    /// Size of the header in bits (destination as a word + payload words).
    /// Only used for reporting; headers are *not* charged to router memory.
    pub fn size_bits(&self) -> u64 {
        64 + 64 * self.data.len() as u64
    }

    /// Bytes held by this header buffer, inline part plus payload capacity
    /// (for peak-memory accounting of a reused routing header).
    pub fn bytes(&self) -> u64 {
        (std::mem::size_of::<Header>() + self.data.capacity() * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_dest_has_empty_payload() {
        let h = Header::to_dest(7);
        assert_eq!(h.dest, 7);
        assert!(h.data.is_empty());
        assert_eq!(h.size_bits(), 64);
    }

    #[test]
    fn with_data_keeps_payload() {
        let h = Header::with_data(3, vec![1, 2, 3]);
        assert_eq!(h.dest, 3);
        assert_eq!(h.data, vec![1, 2, 3]);
        assert_eq!(h.size_bits(), 64 * 4);
    }

    #[test]
    fn headers_compare_structurally() {
        assert_eq!(Header::to_dest(4), Header::with_data(4, vec![]));
        assert_ne!(Header::to_dest(4), Header::with_data(4, vec![0]));
    }

    fn hash_of(h: &Header) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut s = DefaultHasher::new();
        h.hash(&mut s);
        s.finish()
    }

    #[test]
    fn equality_ignores_payload_capacity() {
        let mut wide = Vec::with_capacity(16);
        wide.extend([5u64, 6]);
        let (a, b) = (Header::with_data(1, wide), Header::with_data(1, vec![5, 6]));
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(a, Header::with_data(1, vec![5, 7]));
        assert_ne!(a, Header::with_data(2, vec![5, 6]));
    }

    #[test]
    fn empty_payloads_compare_equal_whatever_their_buffers() {
        let (a, b) = (
            Header::to_dest(9),
            Header::with_data(9, Vec::with_capacity(4)),
        );
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(a, Header::to_dest(8));
    }

    #[test]
    fn an_empty_payload_differs_from_one_word() {
        let (empty, one) = (Header::to_dest(3), Header::with_data(3, vec![0]));
        assert_ne!(empty, one);
        assert_ne!(one, empty);
        assert_ne!(hash_of(&empty), hash_of(&one));
    }
}
