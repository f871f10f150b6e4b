//! Primitive types shared by every crate in the workspace.

/// Dense node identifier. The builder guarantees `0..num_nodes`.
pub type NodeId = u32;

/// Edge timestamp in arbitrary integer units (the paper's datasets use
/// seconds since epoch). Signed so that subtraction (`t_j - t_i`) and
/// window arithmetic (`t_j - delta`) never underflow.
pub type Timestamp = i64;

/// Edge identifier. After [`crate::GraphBuilder::build`] this equals the
/// edge's rank in the global `(t, input_position)` order, which all
/// counting algorithms use as the chronological total order.
pub type EdgeId = u32;

/// Direction of an event relative to a reference node.
///
/// For an event in a node `u`'s sequence `S_u`, `Out` means the underlying
/// edge leaves `u` (`u -> other`) and `In` means it enters `u`
/// (`other -> u`). The paper writes these as `o` and `in`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Dir {
    /// Edge points away from the reference node (`o` in the paper).
    Out = 0,
    /// Edge points towards the reference node (`in` in the paper).
    In = 1,
}

impl Dir {
    /// The opposite direction.
    #[inline]
    #[must_use]
    pub const fn flip(self) -> Dir {
        match self {
            Dir::Out => Dir::In,
            Dir::In => Dir::Out,
        }
    }

    /// Index into `[_; 2]` counter arrays (`Out = 0`, `In = 1`).
    #[inline]
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Dir::index`].
    ///
    /// # Panics
    /// Panics if `i > 1`.
    #[inline]
    #[must_use]
    pub const fn from_index(i: usize) -> Dir {
        match i {
            0 => Dir::Out,
            1 => Dir::In,
            _ => panic!("Dir::from_index: index must be 0 or 1"),
        }
    }

    /// Both directions, in index order. Convenient for exhaustive loops
    /// over counter cells.
    pub const BOTH: [Dir; 2] = [Dir::Out, Dir::In];
}

impl std::fmt::Display for Dir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dir::Out => write!(f, "o"),
            Dir::In => write!(f, "in"),
        }
    }
}

/// A directed, timestamped edge `(src, dst, t)` — Definition 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TemporalEdge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Timestamp.
    pub t: Timestamp,
}

impl TemporalEdge {
    /// Convenience constructor.
    #[inline]
    #[must_use]
    pub const fn new(src: NodeId, dst: NodeId, t: Timestamp) -> Self {
        TemporalEdge { src, dst, t }
    }

    /// `true` if `src == dst`. Self-loops cannot participate in any 2- or
    /// 3-node motif and are stripped by the builder.
    #[inline]
    #[must_use]
    pub const fn is_self_loop(&self) -> bool {
        self.src == self.dst
    }

    /// The unordered endpoint pair `(min, max)` keying the pair index.
    #[inline]
    #[must_use]
    pub const fn unordered_pair(&self) -> (NodeId, NodeId) {
        if self.src <= self.dst {
            (self.src, self.dst)
        } else {
            (self.dst, self.src)
        }
    }

    /// Direction of this edge as seen from `node`, which must be one of
    /// its endpoints.
    ///
    /// # Panics
    /// Panics in debug builds if `node` is not an endpoint.
    #[inline]
    #[must_use]
    pub fn dir_from(&self, node: NodeId) -> Dir {
        debug_assert!(node == self.src || node == self.dst);
        if node == self.src {
            Dir::Out
        } else {
            Dir::In
        }
    }
}

impl std::fmt::Display for TemporalEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({} -> {} @ {})", self.src, self.dst, self.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_flip_is_involution() {
        assert_eq!(Dir::Out.flip(), Dir::In);
        assert_eq!(Dir::In.flip(), Dir::Out);
        for d in Dir::BOTH {
            assert_eq!(d.flip().flip(), d);
        }
    }

    #[test]
    fn dir_index_roundtrip() {
        for d in Dir::BOTH {
            assert_eq!(Dir::from_index(d.index()), d);
        }
        assert_eq!(Dir::Out.index(), 0);
        assert_eq!(Dir::In.index(), 1);
    }

    #[test]
    fn dir_display_matches_paper_notation() {
        assert_eq!(Dir::Out.to_string(), "o");
        assert_eq!(Dir::In.to_string(), "in");
    }

    #[test]
    fn edge_self_loop_detection() {
        assert!(TemporalEdge::new(3, 3, 0).is_self_loop());
        assert!(!TemporalEdge::new(3, 4, 0).is_self_loop());
    }

    #[test]
    fn edge_unordered_pair_is_sorted() {
        assert_eq!(TemporalEdge::new(7, 2, 0).unordered_pair(), (2, 7));
        assert_eq!(TemporalEdge::new(2, 7, 0).unordered_pair(), (2, 7));
        assert_eq!(TemporalEdge::new(5, 5, 0).unordered_pair(), (5, 5));
    }

    #[test]
    fn edge_dir_from_endpoints() {
        let e = TemporalEdge::new(1, 2, 10);
        assert_eq!(e.dir_from(1), Dir::Out);
        assert_eq!(e.dir_from(2), Dir::In);
    }

    #[test]
    fn edge_display() {
        assert_eq!(TemporalEdge::new(1, 2, 10).to_string(), "(1 -> 2 @ 10)");
    }
}
