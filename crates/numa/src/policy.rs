//! Allocation policies: how the pages of an allocation map to memory nodes.
//!
//! These model the placement options discussed in Sections 3.1 and 4.2 of the
//! paper: Linux's default first-touch binding, interleaved allocation,
//! centralized allocation by a main thread, explicit binding to one node, and
//! Polymer's *contiguous-virtual / distributed-physical* layout in which one
//! contiguous array has its page ranges homed on the nodes that own the
//! corresponding vertex partitions.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::topology::NodeId;

/// Mutable per-page home-node map, shared (via `Arc`) between the machine's
/// allocation registry and every array that cloned the placement.
///
/// Entries are `AtomicU8` so page *migration* — tier promotion/demotion at
/// phase boundaries — is visible to all holders without unsafe code or
/// locks. Within a phase the map is never mutated (migrations run only in
/// the executor's serial phase-boundary hook), so the relaxed loads on the
/// access path observe a stable mapping.
#[derive(Debug)]
pub struct PageMap {
    nodes: Box<[AtomicU8]>,
}

impl PageMap {
    fn new(map: Vec<u8>) -> Self {
        PageMap {
            nodes: map.into_iter().map(AtomicU8::new).collect(),
        }
    }

    /// Number of pages covered.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the map covers no pages (never happens for resolved
    /// placements, which always cover at least one page).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Home node of a page.
    #[inline]
    pub fn get(&self, page: usize) -> NodeId {
        self.nodes[page].load(Ordering::Relaxed) as NodeId
    }

    /// Move a page to a new home node. Only the machine's migration path
    /// calls this, at phase boundaries.
    pub(crate) fn set(&self, page: usize, node: NodeId) {
        self.nodes[page].store(node as u8, Ordering::Relaxed);
    }
}

/// Placement intent supplied when allocating a [`crate::NumaArray`].
#[derive(Clone, Debug)]
pub enum AllocPolicy {
    /// All pages on node 0, as when a main thread allocates and initializes
    /// short-term runtime state each iteration (Section 3.1).
    Centralized,
    /// Pages round-robin across all nodes of the machine (numactl
    /// `--interleave=all`).
    Interleaved,
    /// All pages bound to one explicit node (libnuma `numa_alloc_onnode`).
    OnNode(NodeId),
    /// Polymer's application-data layout: the array is one contiguous
    /// virtual range, but element range `i` (with the given length) is
    /// physically homed on the given node. Ranges are in element counts and
    /// must sum to the array length.
    ChunkedElems(Vec<(usize, NodeId)>),
}

/// Resolved page→node mapping of one allocation. Cheap to clone and lookup.
#[derive(Clone, Debug)]
pub struct Placement {
    kind: PlacementKind,
    /// Page size in bytes (power of two). 4 KiB models normal pages; 2 MiB
    /// models transparent huge pages, whose coarse placement granularity can
    /// hurt on NUMA (Gaud et al., USENIX ATC'14 — cited by the paper).
    page_shift: u32,
}

impl PartialEq for Placement {
    /// Equal placements put every byte on the same node: the same page size
    /// and mapping shape, per-page maps compared page by page.
    fn eq(&self, other: &Placement) -> bool {
        use PlacementKind::*;
        self.page_shift == other.page_shift
            && match (&self.kind, &other.kind) {
                (OnNode(a), OnNode(b)) => a == b,
                (Interleaved { nodes: a }, Interleaved { nodes: b }) => a == b,
                (Pages(a), Pages(b)) => {
                    a.len() == b.len() && (0..a.len()).all(|p| a.get(p) == b.get(p))
                }
                _ => false,
            }
    }
}

/// The mapping shape.
#[derive(Clone, Debug)]
enum PlacementKind {
    /// Every page on one node.
    OnNode(NodeId),
    /// Page `p` lives on node `p % nodes`.
    Interleaved { nodes: usize },
    /// Explicit per-page home nodes, mutable for page migration.
    Pages(Arc<PageMap>),
}

impl Placement {
    /// Resolve a policy for an allocation of `len` elements of `elem_size`
    /// bytes on a machine with `nodes` memory nodes and `page_bytes`-byte
    /// pages (a power of two).
    pub fn resolve_paged(
        policy: &AllocPolicy,
        len: usize,
        elem_size: usize,
        nodes: usize,
        page_bytes: usize,
    ) -> Placement {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let page_shift = page_bytes.trailing_zeros();
        let check = |n: NodeId| {
            assert!(
                n < nodes,
                "placement node {n} out of range (machine has {nodes})"
            );
            n
        };
        let kind = match policy {
            AllocPolicy::OnNode(n) => PlacementKind::OnNode(check(*n)),
            AllocPolicy::Centralized => PlacementKind::OnNode(0),
            AllocPolicy::Interleaved => PlacementKind::Interleaved { nodes },
            AllocPolicy::ChunkedElems(ranges) => {
                let total: usize = ranges.iter().map(|(c, _)| *c).sum();
                assert_eq!(
                    total, len,
                    "chunked placement ranges must cover the array exactly"
                );
                let bytes = len * elem_size;
                let pages = bytes.div_ceil(page_bytes).max(1);
                let mut map = vec![0u8; pages];
                let mut elem = 0usize;
                for (count, node) in ranges {
                    check(*node);
                    if *count == 0 {
                        continue;
                    }
                    let start_page = elem * elem_size / page_bytes;
                    let end_elem = elem + count;
                    let end_page = (end_elem * elem_size)
                        .div_ceil(page_bytes)
                        .max(start_page + 1);
                    map[start_page..end_page.min(pages)].fill(*node as u8);
                    elem = end_elem;
                }
                PlacementKind::Pages(Arc::new(PageMap::new(map)))
            }
        };
        Placement { kind, page_shift }
    }

    /// Home node of the page containing byte offset `byte_off`.
    #[inline]
    pub fn node_of(&self, byte_off: usize) -> NodeId {
        let page = byte_off >> self.page_shift;
        match &self.kind {
            PlacementKind::OnNode(n) => *n,
            PlacementKind::Interleaved { nodes } => page % nodes,
            PlacementKind::Pages(map) => map.get(page.min(map.len() - 1)),
        }
    }

    /// log2 of the page size in bytes.
    #[inline]
    pub(crate) fn page_shift(&self) -> u32 {
        self.page_shift
    }

    /// Walk the home-node runs of `n` elements of `elem` bytes starting at
    /// byte offset `off`: calls `f(node, count)` once per maximal run of
    /// consecutive elements whose *start bytes* share a home node. This is
    /// the coalesced counterpart of calling [`Placement::node_of`] per
    /// element — element membership follows the start byte, so elements
    /// straddling a page boundary are attributed exactly as the per-element
    /// path attributes them. Cost is one table lookup per page-run, not per
    /// element.
    #[inline]
    pub(crate) fn for_each_elem_run(
        &self,
        off: usize,
        elem: usize,
        n: usize,
        mut f: impl FnMut(NodeId, usize),
    ) {
        if n == 0 {
            return;
        }
        if let PlacementKind::OnNode(node) = &self.kind {
            // Single-home allocations are one run regardless of pages.
            f(*node, n);
            return;
        }
        let last_start = off + (n - 1) * elem;
        let mut k = 0usize;
        let mut cur = off;
        while k < n {
            let node = self.node_of(cur);
            // Extend the run across consecutive pages with the same home.
            let mut boundary = ((cur >> self.page_shift) + 1) << self.page_shift;
            while last_start >= boundary && self.node_of(boundary) == node {
                boundary = ((boundary >> self.page_shift) + 1) << self.page_shift;
            }
            // Elements whose start byte falls below the boundary.
            let cnt = (boundary - cur).div_ceil(elem).min(n - k);
            f(node, cnt);
            k += cnt;
            cur += cnt * elem;
        }
    }

    /// Page size of this placement, in bytes.
    #[inline]
    pub fn page_bytes(&self) -> usize {
        1usize << self.page_shift
    }

    /// Number of pages an allocation of `total_bytes` occupies under this
    /// placement (at least one, matching how placements are resolved).
    pub fn num_pages(&self, total_bytes: usize) -> usize {
        total_bytes.div_ceil(self.page_bytes()).max(1)
    }

    /// Home node of every page of an allocation of `total_bytes`, in order.
    pub fn page_nodes(&self, total_bytes: usize) -> Vec<NodeId> {
        (0..self.num_pages(total_bytes))
            .map(|p| self.node_of(p << self.page_shift))
            .collect()
    }

    /// Build a placement from an explicit per-page node map, used when
    /// capacity pressure forces pages away from their requested homes.
    pub(crate) fn from_page_map(map: Vec<u8>, page_shift: u32) -> Placement {
        assert!(!map.is_empty(), "page map must cover at least one page");
        Placement {
            kind: PlacementKind::Pages(Arc::new(PageMap::new(map))),
            page_shift,
        }
    }

    /// The shared mutable page map backing this placement, if it is in the
    /// explicit per-page form (the only migratable form).
    pub(crate) fn page_map(&self) -> Option<&Arc<PageMap>> {
        match &self.kind {
            PlacementKind::Pages(map) => Some(map),
            _ => None,
        }
    }

    /// A copy of this placement expanded to the explicit per-page form
    /// covering `total_bytes`, so its pages can later be migrated. The
    /// expansion preserves every page's home node; only the representation
    /// changes. Tiered machines register every allocation through this.
    pub(crate) fn to_paged(&self, total_bytes: usize) -> Placement {
        match &self.kind {
            PlacementKind::Pages(_) => self.clone(),
            _ => {
                let map: Vec<u8> = self
                    .page_nodes(total_bytes)
                    .into_iter()
                    .map(|n| n as u8)
                    .collect();
                Placement::from_page_map(map, self.page_shift)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::PAGE_SIZE;

    /// [`Placement::resolve_paged`] with 4 KiB pages.
    fn resolve(policy: &AllocPolicy, len: usize, elem_size: usize, nodes: usize) -> Placement {
        Placement::resolve_paged(policy, len, elem_size, nodes, PAGE_SIZE)
    }

    #[test]
    fn on_node_and_centralized() {
        let p = resolve(&AllocPolicy::OnNode(3), 1000, 8, 8);
        assert_eq!(p.node_of(0), 3);
        assert_eq!(p.node_of(7999), 3);
        let c = resolve(&AllocPolicy::Centralized, 1000, 8, 8);
        assert_eq!(c.node_of(4097), 0);
    }

    #[test]
    fn interleaved_round_robin() {
        let p = resolve(&AllocPolicy::Interleaved, 10_000, 8, 4);
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(PAGE_SIZE), 1);
        assert_eq!(p.node_of(4 * PAGE_SIZE), 0);
        assert_eq!(p.node_of(5 * PAGE_SIZE + 17), 1);
    }

    #[test]
    fn chunked_elems_maps_ranges_to_nodes() {
        // 1024 u64 elements per node over 2 nodes: 8 KiB each = 2 pages each.
        let p = resolve(
            &AllocPolicy::ChunkedElems(vec![(1024, 0), (1024, 1)]),
            2048,
            8,
            2,
        );
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(8191), 0);
        assert_eq!(p.node_of(8192), 1);
        assert_eq!(p.node_of(16383), 1);
    }

    #[test]
    #[should_panic(expected = "must cover the array exactly")]
    fn chunked_must_cover() {
        resolve(&AllocPolicy::ChunkedElems(vec![(10, 0)]), 11, 8, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_out_of_range_rejected() {
        resolve(&AllocPolicy::OnNode(9), 10, 8, 2);
    }

    #[test]
    fn huge_pages_coarsen_placement() {
        // 2048 u64 elements = 16 KiB: four 4 KiB pages interleave over two
        // nodes, but a single 2 MiB huge page pins everything to node 0.
        let small = Placement::resolve_paged(&AllocPolicy::Interleaved, 2048, 8, 2, 4096);
        assert_eq!(small.node_of(0), 0);
        assert_eq!(small.node_of(4096), 1);
        let huge = Placement::resolve_paged(&AllocPolicy::Interleaved, 2048, 8, 2, 2 << 20);
        assert_eq!(huge.node_of(0), 0);
        assert_eq!(huge.node_of(4096), 0);
        assert_eq!(huge.node_of(16383), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_page_rejected() {
        Placement::resolve_paged(&AllocPolicy::Centralized, 8, 8, 2, 3000);
    }

    #[test]
    fn chunked_skips_empty_ranges() {
        let p = resolve(
            &AllocPolicy::ChunkedElems(vec![(0, 1), (1024, 0), (0, 1), (1024, 1)]),
            2048,
            8,
            2,
        );
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(8192), 1);
    }

    /// Reference for [`Placement::for_each_elem_run`]: one `node_of` per
    /// element start byte.
    fn runs_by_element(p: &Placement, off: usize, elem: usize, n: usize) -> Vec<(NodeId, usize)> {
        let mut out: Vec<(NodeId, usize)> = Vec::new();
        for k in 0..n {
            let node = p.node_of(off + k * elem);
            match out.last_mut() {
                Some((ln, c)) if *ln == node => *c += 1,
                _ => out.push((node, 1)),
            }
        }
        out
    }

    #[test]
    fn elem_runs_match_per_element_walk() {
        // Mixed shapes: straddling elements, runs spanning multiple pages,
        // single-node placements, interleaving.
        let cases = [
            (resolve(&AllocPolicy::Interleaved, 4096, 8, 4), 8),
            (resolve(&AllocPolicy::OnNode(2), 4096, 8, 4), 8),
            (
                resolve(
                    &AllocPolicy::ChunkedElems(vec![(700, 1), (1348, 0)]),
                    2048,
                    12,
                    2,
                ),
                12,
            ),
        ];
        for (p, elem) in &cases {
            for (off, n) in [(0, 1), (4090, 3), (16, 2000), (4096, 513), (123, 700)] {
                let mut got = Vec::new();
                p.for_each_elem_run(off, *elem, n, |node, cnt| got.push((node, cnt)));
                assert_eq!(
                    got,
                    runs_by_element(p, off, *elem, n),
                    "off={off} n={n} elem={elem}"
                );
            }
        }
    }

    #[test]
    fn sub_page_allocation_has_one_page() {
        let p = resolve(&AllocPolicy::ChunkedElems(vec![(3, 1)]), 3, 4, 2);
        assert_eq!(p.node_of(0), 1);
        assert_eq!(p.node_of(11), 1);
    }
}
