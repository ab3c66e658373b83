//! Message headers.
//!
//! The paper allows headers of unbounded size (the memory requirement
//! deliberately does not count them), so the header type is a destination
//! label plus an arbitrary scheme-specific payload of machine words.

use graphkit::NodeId;

/// A routing header: the destination label plus optional scheme-specific data.
///
/// * Plain routing tables only ever look at `dest`.
/// * Interval routing looks at `dest` interpreted in the scheme's own vertex
///   labeling (stored in the payload when it differs from the graph labels).
/// * Hierarchical/landmark schemes store the destination's landmark and other
///   bookkeeping in `data`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Header {
    /// Destination vertex (graph label, 0-based).
    pub dest: NodeId,
    /// Scheme-specific payload; unbounded, per the model.
    pub data: Vec<u64>,
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
}
