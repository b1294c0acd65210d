//! Compressed-topology storage: encoded neighbour lists charged at their
//! encoded size.
//!
//! `polymer-graph` provides the delta/varint codec; this module provides the
//! NUMA-placed, access-accounted home for the encoded payload. A
//! [`CompressedLists`] pairs a per-list byte-offset array with one
//! concatenated payload array, both ordinary instrumented
//! [`NumaArray`]s, and [`CompressedLists::list`] charges a
//! list read as one offset-pair read plus one coalesced sequential run over
//! the *encoded* bytes. The cost model therefore sees the compressed
//! traffic: fewer bytes moved per edge, which is exactly the paper's
//! bandwidth-bound argument applied to topology data. Decoding work itself
//! is a register-level transform of already-charged bytes and is not billed
//! separately, matching how the raw path bills only the memory traffic of
//! `u32` neighbour loads.
//!
//! [`MachineSpec::compressed_topology`](crate::MachineSpec) gates whether
//! engines build and traverse compressed topology on a machine. It defaults
//! to off so the committed golden fixtures keep replaying bit-identically;
//! `bench_hotpath` turns it on to measure the simulated byte reduction.

use crate::array::NumaArray;
use crate::ctx::AccessCtx;
use crate::machine::Machine;
use crate::policy::AllocPolicy;

/// A set of variable-length encoded lists (compressed CSR neighbour lists)
/// in instrumented NUMA memory: `offs[i]..offs[i + 1]` bounds list `i`'s
/// payload inside `bytes`.
pub struct CompressedLists {
    offs: NumaArray<u64>,
    bytes: NumaArray<u8>,
}

impl CompressedLists {
    /// Place pre-encoded lists into instrumented memory. `offs` must have
    /// one more entry than there are lists, start at 0, be non-decreasing,
    /// and end at `bytes.len()`. The offsets and payload each take their own
    /// placement policy so engines can home both alongside the partition
    /// that owns them.
    pub fn from_encoded(
        machine: &Machine,
        name: &str,
        offs: Vec<u64>,
        bytes: Vec<u8>,
        offs_policy: AllocPolicy,
        bytes_policy: AllocPolicy,
    ) -> CompressedLists {
        assert!(
            !offs.is_empty(),
            "offset table must have at least one entry"
        );
        assert_eq!(offs[0], 0, "offset table must start at 0");
        assert_eq!(
            *offs.last().unwrap(),
            bytes.len() as u64,
            "offset table must end at the payload length"
        );
        let offs =
            machine.alloc_array_with(&format!("{name}.coffs"), offs.len(), offs_policy, |i| {
                offs[i]
            });
        let payload_len = bytes.len();
        let bytes =
            machine.alloc_array_with(&format!("{name}.cbytes"), payload_len, bytes_policy, |i| {
                bytes[i]
            });
        CompressedLists { offs, bytes }
    }

    /// Number of lists.
    pub fn num_lists(&self) -> usize {
        self.offs.len() - 1
    }

    /// Total encoded payload size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Accounted read of list `i`'s encoded payload: the bounding offset
    /// pair is charged as one two-element run and the payload as one
    /// coalesced sequential byte run of the *encoded* length.
    #[inline]
    pub fn list(&self, ctx: &mut AccessCtx, i: usize) -> &[u8] {
        let pair = self.offs.load_range(ctx, i..i + 2);
        let (s, e) = (pair[0] as usize, pair[1] as usize);
        self.bytes.load_range(ctx, s..e)
    }

    /// Unaccounted read of list `i`'s payload (construction, verification).
    pub fn raw_list(&self, i: usize) -> &[u8] {
        let offs = self.offs.raw();
        &self.bytes.raw()[offs[i] as usize..offs[i + 1] as usize]
    }
}

impl std::fmt::Debug for CompressedLists {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedLists")
            .field("lists", &self.num_lists())
            .field("encoded_bytes", &self.encoded_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::MachineSpec;

    #[test]
    fn charged_list_reads_bill_encoded_bytes() {
        let m = Machine::new(MachineSpec::test2());
        // Three lists: 2, 0, and 3 encoded bytes.
        let cl = CompressedLists::from_encoded(
            &m,
            "adj",
            vec![0, 2, 2, 5],
            vec![10, 11, 20, 21, 22],
            AllocPolicy::OnNode(0),
            AllocPolicy::OnNode(0),
        );
        assert_eq!(cl.num_lists(), 3);
        assert_eq!(cl.encoded_bytes(), 5);
        let mut ctx = AccessCtx::new(&m, 0);
        assert_eq!(cl.list(&mut ctx, 0), &[10, 11]);
        assert_eq!(cl.list(&mut ctx, 1), &[] as &[u8]);
        assert_eq!(cl.list(&mut ctx, 2), &[20, 21, 22]);
        assert_eq!(cl.raw_list(2), &[20, 21, 22]);
        let s = ctx.take_stats();
        // 3 offset pairs (u64) + 5 payload bytes.
        assert_eq!(s.total_bytes(), 3 * 16 + 5);
    }
}
