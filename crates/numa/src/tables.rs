//! Latency and bandwidth tables, populated from the paper's measurements.
//!
//! Figure 3(b) gives load/store latency in cycles per hop distance; Figure 4
//! gives sequential and random bandwidth in MB/s per hop distance. The AMD
//! machine distinguishes two kinds of one-hop distance (two dies of the same
//! socket vs. adjacent sockets), so distances are modelled as four
//! [`DistClass`] values rather than a plain hop count.

use serde::{Deserialize, Serialize};

/// Distance class between two memory nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DistClass {
    /// Same node: local DRAM.
    Local,
    /// One hop within a socket (the two dies of an AMD multi-chip module).
    OneHopIntra,
    /// One hop across sockets.
    OneHop,
    /// Two hops.
    TwoHop,
}

/// Memory tier of a node: a small fast tier (DRAM) or a big slow tier
/// (Optane-class persistent memory / CXL-attached capacity memory).
///
/// Tiers *compose* with [`DistClass`]: an access still has a hop distance to
/// the owning node, and on top of that the owning node's tier selects which
/// bandwidth row is charged. The slow-tier rows are calibrated from the
/// Optane single-machine graph-analytics measurements (see
/// `docs/TIERING.md`): sequential bandwidth ÷2.6, random bandwidth ÷8.
/// Latency is not tiered: no cost computation reads a [`LatencyTable`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TierClass {
    /// DRAM: the paper's measured tables apply unchanged.
    #[default]
    Fast,
    /// Capacity tier behind the fast tier, with its own table rows.
    Slow,
}

impl TierClass {
    /// True for the slow (capacity) tier.
    #[inline]
    pub fn is_slow(self) -> bool {
        self == TierClass::Slow
    }
}

/// Slow-tier sequential bandwidth is DRAM ÷ this factor.
pub const SLOW_SEQ_BW_DIVISOR: f64 = 2.6;
/// Slow-tier random bandwidth is DRAM ÷ this factor (the Optane paper's
/// headline asymmetry: random reads collapse much harder than sequential).
pub const SLOW_RAND_BW_DIVISOR: f64 = 8.0;

#[inline]
fn scale4(a: [f64; 4], f: f64) -> [f64; 4] {
    [a[0] * f, a[1] * f, a[2] * f, a[3] * f]
}

impl DistClass {
    /// Index into per-class tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            DistClass::Local => 0,
            DistClass::OneHopIntra => 1,
            DistClass::OneHop => 2,
            DistClass::TwoHop => 3,
        }
    }

    /// Collapse to a hop count (0, 1 or 2).
    #[inline]
    pub fn hops(self) -> usize {
        match self {
            DistClass::Local => 0,
            DistClass::OneHopIntra | DistClass::OneHop => 1,
            DistClass::TwoHop => 2,
        }
    }

    /// True for any non-local class.
    #[inline]
    pub fn is_remote(self) -> bool {
        self != DistClass::Local
    }
}

/// Load/store latency in CPU cycles per distance class (paper Figure 3(b)).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatencyTable {
    /// Load latency in cycles, indexed by [`DistClass::index`].
    pub load_cycles: [f64; 4],
    /// Store latency in cycles, indexed by [`DistClass::index`].
    pub store_cycles: [f64; 4],
}

impl LatencyTable {
    /// Figure 3(b), 80-core Intel Xeon machine. The one-hop-intra column is
    /// unused on Intel (no multi-die sockets) and mirrors the one-hop value.
    pub fn intel80() -> Self {
        LatencyTable {
            load_cycles: [117.0, 271.0, 271.0, 372.0],
            store_cycles: [108.0, 304.0, 304.0, 409.0],
        }
    }

    /// Figure 3(b), 64-core AMD Opteron machine. The paper reports a single
    /// one-hop number, reused for both one-hop classes.
    pub fn amd64() -> Self {
        LatencyTable {
            load_cycles: [228.0, 419.0, 419.0, 498.0],
            store_cycles: [256.0, 463.0, 463.0, 544.0],
        }
    }

    /// Load latency for a distance class, in cycles.
    #[inline]
    pub fn load(&self, d: DistClass) -> f64 {
        self.load_cycles[d.index()]
    }

    /// Store latency for a distance class, in cycles.
    #[inline]
    pub fn store(&self, d: DistClass) -> f64 {
        self.store_cycles[d.index()]
    }
}

/// Sequential and random single-stream bandwidth in MB/s per distance class
/// (paper Figure 4). 1 MB/s ≡ 1 byte/µs, which the cost model exploits.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BandwidthTable {
    /// Sequential-stream bandwidth, MB/s, indexed by [`DistClass::index`].
    pub seq_mbs: [f64; 4],
    /// Random-access bandwidth, MB/s, indexed by [`DistClass::index`].
    pub rand_mbs: [f64; 4],
    /// Bandwidth of interleaved allocation (pages round-robin over all
    /// nodes), MB/s: `[sequential, random]`. Reported by the paper as a
    /// separate column; the cost model reproduces it from the per-class mix,
    /// and the Figure 4 harness checks the two agree in shape.
    pub interleaved_mbs: [f64; 2],
    /// Slow-tier sequential bandwidth, MB/s per distance class. Legacy specs
    /// without the field deserialize to the intel80-derived calibration.
    #[serde(default = "default_slow_seq")]
    pub slow_seq_mbs: [f64; 4],
    /// Slow-tier random bandwidth, MB/s per distance class.
    #[serde(default = "default_slow_rand")]
    pub slow_rand_mbs: [f64; 4],
}

fn default_slow_seq() -> [f64; 4] {
    BandwidthTable::intel80().slow_seq_mbs
}

fn default_slow_rand() -> [f64; 4] {
    BandwidthTable::intel80().slow_rand_mbs
}

impl BandwidthTable {
    /// Figure 4, 80-core Intel Xeon machine.
    pub fn intel80() -> Self {
        let seq_mbs = [3207.0, 2455.0, 2455.0, 2101.0];
        let rand_mbs = [720.0, 348.0, 348.0, 307.0];
        BandwidthTable {
            seq_mbs,
            rand_mbs,
            interleaved_mbs: [2333.0, 344.0],
            slow_seq_mbs: scale4(seq_mbs, 1.0 / SLOW_SEQ_BW_DIVISOR),
            slow_rand_mbs: scale4(rand_mbs, 1.0 / SLOW_RAND_BW_DIVISOR),
        }
    }

    /// Figure 4, 64-core AMD Opteron machine. The paper's two one-hop values
    /// (2806/2406 sequential, 509/487 random) distinguish intra-socket from
    /// inter-socket one-hop distance.
    pub fn amd64() -> Self {
        let seq_mbs = [3241.0, 2806.0, 2406.0, 1997.0];
        let rand_mbs = [533.0, 509.0, 487.0, 415.0];
        BandwidthTable {
            seq_mbs,
            rand_mbs,
            interleaved_mbs: [2509.0, 466.0],
            slow_seq_mbs: scale4(seq_mbs, 1.0 / SLOW_SEQ_BW_DIVISOR),
            slow_rand_mbs: scale4(rand_mbs, 1.0 / SLOW_RAND_BW_DIVISOR),
        }
    }

    /// Single-stream bandwidth for an access pattern and distance, MB/s
    /// (fast tier).
    #[inline]
    pub fn bw(&self, sequential: bool, d: DistClass) -> f64 {
        if sequential {
            self.seq_mbs[d.index()]
        } else {
            self.rand_mbs[d.index()]
        }
    }

    /// Single-stream bandwidth for a pattern, distance and tier, MB/s.
    #[inline]
    pub fn bw_t(&self, sequential: bool, d: DistClass, t: TierClass) -> f64 {
        match t {
            TierClass::Fast => self.bw(sequential, d),
            TierClass::Slow => {
                if sequential {
                    self.slow_seq_mbs[d.index()]
                } else {
                    self.slow_rand_mbs[d.index()]
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every distance class, in increasing distance order.
    const CLASSES: [DistClass; 4] = [
        DistClass::Local,
        DistClass::OneHopIntra,
        DistClass::OneHop,
        DistClass::TwoHop,
    ];

    #[test]
    fn dist_class_round_trip() {
        for d in CLASSES {
            assert_eq!(CLASSES[d.index()], d);
        }
    }

    #[test]
    fn hops_collapse() {
        assert_eq!(DistClass::Local.hops(), 0);
        assert_eq!(DistClass::OneHopIntra.hops(), 1);
        assert_eq!(DistClass::OneHop.hops(), 1);
        assert_eq!(DistClass::TwoHop.hops(), 2);
        assert!(!DistClass::Local.is_remote());
        assert!(DistClass::TwoHop.is_remote());
    }

    #[test]
    fn latency_monotone_in_distance() {
        for t in [LatencyTable::intel80(), LatencyTable::amd64()] {
            assert!(t.load(DistClass::Local) < t.load(DistClass::OneHop));
            assert!(t.load(DistClass::OneHop) < t.load(DistClass::TwoHop));
            assert!(t.store(DistClass::Local) < t.store(DistClass::TwoHop));
        }
    }

    #[test]
    fn bandwidth_monotone_and_seq_beats_rand() {
        for t in [BandwidthTable::intel80(), BandwidthTable::amd64()] {
            assert!(t.bw(true, DistClass::Local) > t.bw(true, DistClass::TwoHop));
            assert!(t.bw(false, DistClass::Local) > t.bw(false, DistClass::TwoHop));
            // The paper's key observation: sequential REMOTE beats random
            // LOCAL by a wide margin (2.92x on Intel).
            assert!(t.bw(true, DistClass::TwoHop) > 2.0 * t.bw(false, DistClass::Local));
        }
    }

    #[test]
    fn tier_class_round_trip_and_default() {
        assert_eq!(TierClass::default(), TierClass::Fast);
        assert!(TierClass::Slow.is_slow());
        assert!(!TierClass::Fast.is_slow());
    }

    #[test]
    fn fast_tier_rows_are_the_paper_tables() {
        let bw = BandwidthTable::intel80();
        for d in CLASSES {
            for seq in [true, false] {
                assert_eq!(
                    bw.bw_t(seq, d, TierClass::Fast).to_bits(),
                    bw.bw(seq, d).to_bits()
                );
            }
        }
    }

    #[test]
    fn slow_tier_calibration_ratios() {
        for bw in [BandwidthTable::intel80(), BandwidthTable::amd64()] {
            for d in CLASSES {
                let seq_div = bw.bw(true, d) / bw.bw_t(true, d, TierClass::Slow);
                let rand_div = bw.bw(false, d) / bw.bw_t(false, d, TierClass::Slow);
                assert!((seq_div - SLOW_SEQ_BW_DIVISOR).abs() < 1e-9);
                assert!((rand_div - SLOW_RAND_BW_DIVISOR).abs() < 1e-9);
            }
            // The Optane asymmetry: slow sequential still beats slow random
            // by a wider margin than on DRAM.
            assert!(
                bw.bw_t(true, DistClass::Local, TierClass::Slow)
                    > 3.0 * bw.bw_t(false, DistClass::Local, TierClass::Slow)
            );
        }
    }

    #[test]
    fn legacy_tables_deserialize_with_slow_defaults() {
        let json = serde_json::to_string(&BandwidthTable::intel80()).unwrap();
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let obj = v.as_object_mut().unwrap();
        obj.remove("slow_seq_mbs");
        obj.remove("slow_rand_mbs");
        let legacy: BandwidthTable = serde_json::from_value(v).unwrap();
        assert_eq!(
            legacy.slow_seq_mbs[0].to_bits(),
            BandwidthTable::intel80().slow_seq_mbs[0].to_bits()
        );
    }

    #[test]
    fn paper_headline_ratios_hold() {
        let t = BandwidthTable::intel80();
        // 2101 / 720 = 2.92x and 2101 / 307 = 6.85x, quoted in the abstract.
        let seq2_over_randlocal = t.bw(true, DistClass::TwoHop) / t.bw(false, DistClass::Local);
        let seq2_over_rand2 = t.bw(true, DistClass::TwoHop) / t.bw(false, DistClass::TwoHop);
        assert!((seq2_over_randlocal - 2.92).abs() < 0.01);
        assert!((seq2_over_rand2 - 6.85).abs() < 0.01);
    }
}
