//! Pluggable collective topologies and the per-op selection policy.
//!
//! Three shapes, selected per operation by message size and group size:
//!
//! * **Flat** — the root exchanges directly with every member. Cheapest
//!   for tiny groups (one hop, no forwarding), but the root's link work
//!   grows linearly with the group.
//! * **Binomial tree** — recursive halving with contiguous subtree ranges
//!   (rank 0 of the relabelled group owns `[0, n)`, hands the upper half
//!   to its first child, and so on). The root transmits `⌈log₂ n⌉` copies
//!   instead of `n-1`, and every subtree is a contiguous rank range, which
//!   lets scatter/gather ship exactly one contiguous byte range per edge.
//! * **Ring** — a chain pipeline `0 → 1 → … → n-1`. Highest per-operation
//!   latency, but with segmented payloads every link carries every byte
//!   exactly once, which maximises bandwidth for large transfers.
//!
//! Tree computations work on *relabelled* ranks: `rel = (rank + n - root)
//! % n`, so any member can be the root of the same shape.

/// A collective communication shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Root exchanges directly with every member.
    Flat,
    /// Recursive-halving binomial tree with contiguous subtrees.
    #[default]
    BinomialTree,
    /// Chain pipeline (segmented store-and-forward).
    Ring,
}

/// Parent of relabelled rank `rel` in the binomial tree over `size`
/// members, or `None` for the root.
pub(crate) fn tree_parent(rel: usize, size: usize) -> Option<usize> {
    if rel == 0 {
        return None;
    }
    debug_assert!(rel < size);
    let (mut lo, mut hi) = (0, size);
    loop {
        let mid = lo + (hi - lo).div_ceil(2);
        match rel.cmp(&mid) {
            std::cmp::Ordering::Less => hi = mid,
            std::cmp::Ordering::Equal => return Some(lo),
            std::cmp::Ordering::Greater => lo = mid,
        }
    }
}

/// Children of relabelled rank `rel` with their subtree sizes, widest
/// subtree first (the transmission order that overlaps the deepest
/// forwarding chain with the shallow ones).
pub(crate) fn tree_children(rel: usize, size: usize) -> Vec<(usize, usize)> {
    debug_assert!(rel < size);
    let (mut lo, mut hi) = (0, size);
    let mut out = Vec::new();
    while hi - lo > 1 {
        let mid = lo + (hi - lo).div_ceil(2);
        if rel < mid {
            if rel == lo {
                out.push((mid, hi - mid));
            }
            hi = mid;
        } else {
            lo = mid;
        }
    }
    out
}

/// The operation classes the policy distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// One-to-all data movement.
    Broadcast,
    /// All-to-one combining.
    Reduce,
    /// One-to-all personalized chunks.
    Scatter,
    /// All-to-one personalized chunks.
    Gather,
    /// All-to-all replication.
    Allgather,
}

/// Per-operation topology selection by message size and group size.
///
/// The defaults encode the standard trade-offs: flat for groups too small
/// for a tree to pay off, ring pipelines once a broadcast (or the
/// allgather total) is large enough that bandwidth dominates latency, and
/// the binomial tree everywhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyPolicy {
    /// Groups of at most this many members use [`Topology::Flat`].
    pub flat_max_group: usize,
    /// Broadcast payloads (and allgather totals) of at least this many
    /// bytes use [`Topology::Ring`].
    pub ring_min_bytes: usize,
}

impl Default for TopologyPolicy {
    fn default() -> Self {
        TopologyPolicy {
            flat_max_group: 2,
            ring_min_bytes: 256 * 1024,
        }
    }
}

impl TopologyPolicy {
    /// Selects the topology for one operation: `bytes` is the payload this
    /// member contributes or (for a broadcast root) offers.
    pub fn select(&self, op: OpClass, group_size: usize, bytes: usize) -> Topology {
        if group_size <= self.flat_max_group {
            return Topology::Flat;
        }
        match op {
            OpClass::Broadcast if bytes >= self.ring_min_bytes => Topology::Ring,
            OpClass::Allgather if bytes.saturating_mul(group_size) >= self.ring_min_bytes => {
                Topology::Ring
            }
            _ => Topology::BinomialTree,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Size of `rel`'s subtree (the contiguous relabelled range it roots).
    fn tree_span(rel: usize, size: usize) -> usize {
        let (mut lo, mut hi) = (0, size);
        while lo != rel {
            let mid = lo + (hi - lo).div_ceil(2);
            if rel < mid {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi - lo
    }

    #[test]
    fn tree_covers_every_rank_exactly_once() {
        for size in 1..33 {
            let mut covered = vec![false; size];
            covered[0] = true;
            let mut frontier = vec![0];
            while let Some(r) = frontier.pop() {
                for (c, span) in tree_children(r, size) {
                    assert!(!covered[c], "rel {c} covered twice (size {size})");
                    assert_eq!(span, tree_span(c, size), "span mismatch at {c}/{size}");
                    covered[c] = true;
                    frontier.push(c);
                }
            }
            assert!(covered.iter().all(|&c| c), "not all covered: size {size}");
        }
    }

    #[test]
    fn parent_and_children_agree() {
        for size in 2..33 {
            for rel in 1..size {
                let p = tree_parent(rel, size).unwrap();
                assert!(
                    tree_children(p, size).iter().any(|&(c, _)| c == rel),
                    "rel {rel} not a child of its parent {p} (size {size})"
                );
            }
            assert_eq!(tree_parent(0, size), None);
        }
    }

    #[test]
    fn subtrees_are_contiguous() {
        for size in 2..20 {
            for rel in 0..size {
                let span = tree_span(rel, size);
                // Everything in [rel, rel+span) must be reachable from rel.
                let mut seen = vec![rel];
                let mut frontier = vec![rel];
                while let Some(r) = frontier.pop() {
                    for (c, _) in tree_children(r, size) {
                        seen.push(c);
                        frontier.push(c);
                    }
                }
                seen.sort_unstable();
                let want: Vec<usize> = (rel..rel + span).collect();
                assert_eq!(seen, want, "subtree of {rel} (size {size})");
            }
        }
    }

    #[test]
    fn root_degree_is_logarithmic() {
        assert_eq!(tree_children(0, 2).len(), 1);
        assert_eq!(tree_children(0, 4).len(), 2);
        assert_eq!(tree_children(0, 8).len(), 3);
        assert_eq!(tree_children(0, 5).len(), 3);
    }

    #[test]
    fn policy_selects_by_size() {
        let p = TopologyPolicy::default();
        assert_eq!(p.select(OpClass::Broadcast, 2, 1 << 20), Topology::Flat);
        assert_eq!(p.select(OpClass::Broadcast, 8, 64), Topology::BinomialTree);
        assert_eq!(p.select(OpClass::Broadcast, 8, 1 << 20), Topology::Ring);
        assert_eq!(
            p.select(OpClass::Reduce, 8, 1 << 20),
            Topology::BinomialTree
        );
        assert_eq!(p.select(OpClass::Scatter, 8, 64), Topology::BinomialTree);
        assert_eq!(p.select(OpClass::Allgather, 8, 1 << 20), Topology::Ring);
        assert_eq!(p.select(OpClass::Allgather, 8, 64), Topology::BinomialTree);
    }
}
