//! Delta/varint compression of CSR neighbour lists.
//!
//! Each vertex's neighbour list is encoded independently: the first
//! neighbour as a zigzag-encoded signed delta from the owning vertex id, and
//! every subsequent neighbour as a zigzag delta from its predecessor, each
//! delta written as an LEB128-style varint. Because the repo's CSR keeps
//! neighbour lists in *input order* (construction is a counting sort, not a
//! sort by id), deltas can be negative — zigzag handles that — and the
//! encoding is exactly order-preserving: decoding replays the identical
//! neighbour sequence, so traversal order (and therefore floating-point
//! accumulation order in the engines) is unchanged.
//!
//! The payoff is measured in *bytes*: social-network-like graphs have strong
//! id locality, so most deltas fit in one or two bytes instead of the raw
//! four, and the engines charge the encoded bytes through the bulk accessors
//! (see `polymer_numa::compress`), turning the compression into simulated
//! bandwidth savings as well as host-memory savings.

use crate::csr::Graph;
use crate::types::VId;

/// Map a signed delta onto an unsigned integer with small absolute values
/// staying small (zigzag: 0, -1, 1, -2, 2, ... → 0, 1, 2, 3, 4, ...).
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Append `u` as an LEB128 varint (7 value bits per byte, high bit = more).
#[inline]
fn push_varint(mut u: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (u & 0x7f) as u8;
        u >>= 7;
        if u != 0 {
            out.push(byte | 0x80);
        } else {
            out.push(byte);
            break;
        }
    }
}

/// Read one varint starting at `pos`; returns the value and the new position.
#[inline]
fn read_varint(bytes: &[u8], mut pos: usize) -> (u64, usize) {
    let mut u = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = bytes[pos];
        pos += 1;
        u |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return (u, pos);
        }
        shift += 7;
    }
}

/// Encode `list` as the neighbour list of `vertex`, appending to `out`.
/// Order-preserving and exact for any `u32` ids in any order.
pub fn encode_list(vertex: VId, list: &[VId], out: &mut Vec<u8>) {
    let mut prev = i64::from(vertex);
    for &v in list {
        let cur = i64::from(v);
        push_varint(zigzag(cur - prev), out);
        prev = cur;
    }
}

/// Streaming decoder for one encoded neighbour list; yields the original
/// neighbours in their original order.
pub struct DeltaDecoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    prev: i64,
}

impl<'a> DeltaDecoder<'a> {
    /// Decode the list encoded by [`encode_list`]`(vertex, ..)` from `bytes`.
    pub fn new(vertex: VId, bytes: &'a [u8]) -> Self {
        DeltaDecoder {
            bytes,
            pos: 0,
            prev: i64::from(vertex),
        }
    }
}

impl Iterator for DeltaDecoder<'_> {
    type Item = VId;

    #[inline]
    fn next(&mut self) -> Option<VId> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let (u, pos) = read_varint(self.bytes, self.pos);
        self.pos = pos;
        self.prev += unzigzag(u);
        debug_assert!(
            (0..=i64::from(u32::MAX)).contains(&self.prev),
            "corrupt delta stream"
        );
        Some(self.prev as VId)
    }
}

/// One compressed adjacency structure (out- or in-edges): per-vertex byte
/// offsets into a single concatenated delta/varint payload.
#[derive(Clone, Debug, Default)]
pub struct CompressedAdjacency {
    /// `offs[v]..offs[v + 1]` is vertex `v`'s payload range (len = n + 1).
    pub offs: Vec<u64>,
    /// Concatenated encoded neighbour lists.
    pub bytes: Vec<u8>,
}

impl CompressedAdjacency {
    /// Compress `lists(v)` for `v` in `0..n`, preserving list order exactly.
    pub fn build<'a>(n: usize, mut lists: impl FnMut(VId) -> &'a [VId]) -> CompressedAdjacency {
        let mut offs = Vec::with_capacity(n + 1);
        let mut bytes = Vec::new();
        offs.push(0);
        for v in 0..n {
            encode_list(v as VId, lists(v as VId), &mut bytes);
            offs.push(bytes.len() as u64);
        }
        CompressedAdjacency { offs, bytes }
    }

    /// Compressed out-edge adjacency of `g`.
    pub fn out_edges(g: &Graph) -> CompressedAdjacency {
        Self::build(g.num_vertices(), |v| g.out_neighbors(v))
    }

    /// Compressed in-edge adjacency of `g`.
    pub fn in_edges(g: &Graph) -> CompressedAdjacency {
        Self::build(g.num_vertices(), |v| g.in_neighbors(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;

    fn roundtrip(vertex: VId, list: &[VId]) {
        let mut bytes = Vec::new();
        encode_list(vertex, list, &mut bytes);
        let got: Vec<VId> = DeltaDecoder::new(vertex, &bytes).collect();
        assert_eq!(got, list, "vertex {vertex}");
    }

    #[test]
    fn roundtrip_edge_shapes() {
        roundtrip(0, &[]);
        roundtrip(0, &[0]);
        roundtrip(7, &[7, 7, 7]);
        roundtrip(0, &[u32::MAX]);
        roundtrip(u32::MAX, &[0, u32::MAX, 0, u32::MAX]);
        roundtrip(5, &[9, 2, 9, 1, 1_000_000, 0]);
        roundtrip(1 << 30, &(0..200).map(|i| i * 1000).collect::<Vec<_>>());
    }

    #[test]
    fn local_ids_compress_well() {
        // Neighbours near the vertex id: one byte per edge instead of four.
        let v = 1_000_000;
        let list: Vec<VId> = (0..64).map(|i| v + i - 32).collect();
        let mut bytes = Vec::new();
        encode_list(v, &list, &mut bytes);
        assert!(bytes.len() <= list.len() + 8, "got {} bytes", bytes.len());
        assert_eq!(DeltaDecoder::new(v, &bytes).collect::<Vec<_>>(), list);
    }

    #[test]
    fn adjacency_matches_graph() {
        let el = EdgeList::from_pairs(6, [(0, 3), (0, 1), (3, 2), (5, 0), (3, 3), (2, 4)]);
        let g = Graph::from_edges(&el);
        let out = CompressedAdjacency::out_edges(&g);
        let inn = CompressedAdjacency::in_edges(&g);
        assert_eq!(out.offs.len(), 7);
        let list = |a: &CompressedAdjacency, v: usize| {
            let payload = &a.bytes[a.offs[v] as usize..a.offs[v + 1] as usize];
            DeltaDecoder::new(v as VId, payload).collect::<Vec<_>>()
        };
        for v in 0..6u32 {
            assert_eq!(list(&out, v as usize), g.out_neighbors(v), "out {v}");
            assert_eq!(list(&inn, v as usize), g.in_neighbors(v), "in {v}");
        }
    }
}
