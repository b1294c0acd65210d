//! Experiment reports: remote-access profiles (paper Table 4) and memory
//! consumption (paper Table 5).
//!
//! Both reports are pure views over state the substrate already tracks — a
//! [`RemoteAccessReport`] is derived from an accumulated [`PhaseCost`], a
//! [`MemoryReport`] snapshots a [`Machine`]'s peak counters — so harness
//! code can produce them at any point without instrumenting the engines.
//! They serialize with `serde` and appear verbatim in the `BENCH_*` /
//! table JSON files under `results/` (field taxonomy in
//! `docs/OBSERVABILITY.md`).
//!
//! ```
//! use polymer_numa::{Machine, MachineSpec, AllocPolicy, MemoryReport,
//!                    RemoteAccessReport, SimExecutor};
//!
//! let machine = Machine::new(MachineSpec::test2());
//! let data = machine.alloc_array::<u64>("demo/data", 1 << 14, AllocPolicy::Centralized);
//! let mut sim = SimExecutor::new(&machine, 4); // spans both of test2's nodes
//! sim.run_phase("scan", |tid, ctx| {
//!     let chunk = data.len() / 4;
//!     for i in tid * chunk..(tid + 1) * chunk {
//!         data.get(ctx, i);
//!     }
//! });
//!
//! // Table 4 view: centralized placement makes node 1's accesses remote.
//! let remote = RemoteAccessReport::from_cost(&sim.clock().total);
//! assert!(remote.access_rate_remote > 0.0 && remote.access_rate_remote < 1.0);
//!
//! // Table 5 view: the array dominates the peak, attributed to its tag.
//! let mem = MemoryReport::from_machine(&machine);
//! assert_eq!(mem.tag_peak("demo"), mem.peak_bytes);
//! ```

use serde::{Deserialize, Serialize};

use crate::cost::PhaseCost;
use crate::machine::Machine;

/// The three columns of the paper's Table 4 for one system/algorithm pair:
/// the fraction of memory transactions that were remote, their absolute
/// count, and the LLC miss rate attributable to remote accesses.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RemoteAccessReport {
    /// Remote transactions / total transactions.
    pub access_rate_remote: f64,
    /// Absolute number of remote transactions.
    pub num_accesses_remote: u64,
    /// Estimated LLC-missing remote transactions / total transactions.
    pub llc_miss_rate_remote: f64,
}

impl RemoteAccessReport {
    /// Derive the report from an accumulated run cost.
    pub fn from_cost(total: &PhaseCost) -> Self {
        let all = (total.count_local + total.count_remote) as f64;
        if all == 0.0 {
            return RemoteAccessReport {
                access_rate_remote: 0.0,
                num_accesses_remote: 0,
                llc_miss_rate_remote: 0.0,
            };
        }
        RemoteAccessReport {
            access_rate_remote: total.count_remote as f64 / all,
            num_accesses_remote: total.count_remote,
            llc_miss_rate_remote: total.miss_count_remote / all,
        }
    }
}

/// Peak memory consumption of one run, with per-tag attribution — the
/// paper's Table 5 shows Polymer's agent share in brackets.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MemoryReport {
    /// Peak bytes over the whole run.
    pub peak_bytes: u64,
    /// Peak bytes per allocation tag (name prefix before `'/'`).
    pub tags: Vec<(String, u64)>,
    /// Pages placed off their requested node because a capacity-limited node
    /// was full — the degradation column for capacity-pressure experiments.
    #[serde(default)]
    pub spilled_pages: u64,
    /// Spilled pages broken down by the node that was full (empty on
    /// machines that never spilled).
    #[serde(default)]
    pub spilled_by_node: Vec<u64>,
    /// Pages demoted fast→slow per destination node (tiered machines only).
    #[serde(default)]
    pub demoted_by_node: Vec<u64>,
    /// Pages promoted slow→fast per destination node (tiered machines only).
    #[serde(default)]
    pub promoted_by_node: Vec<u64>,
}

impl MemoryReport {
    /// Snapshot the peak counters of a machine.
    pub fn from_machine(machine: &Machine) -> Self {
        MemoryReport {
            peak_bytes: machine.mem_usage().peak,
            tags: machine
                .tag_usages()
                .into_iter()
                .map(|(t, u)| (t, u.peak))
                .collect(),
            spilled_pages: machine.spilled_pages(),
            spilled_by_node: machine.spilled_pages_by_node(),
            demoted_by_node: machine.demoted_pages_by_node(),
            promoted_by_node: machine.promoted_pages_by_node(),
        }
    }

    /// Peak bytes of one tag (0 when absent).
    pub fn tag_peak(&self, tag: &str) -> u64 {
        self.tags
            .iter()
            .find(|(t, _)| t == tag)
            .map(|(_, b)| *b)
            .unwrap_or(0)
    }

    /// Peak in GiB, as Table 5 reports.
    pub fn peak_gib(&self) -> f64 {
        self.peak_bytes as f64 / (1u64 << 30) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AllocPolicy;
    use crate::topology::MachineSpec;

    #[test]
    fn remote_report_from_cost() {
        let total = PhaseCost {
            count_local: 75,
            count_remote: 25,
            miss_count_remote: 10.0,
            ..Default::default()
        };
        let r = RemoteAccessReport::from_cost(&total);
        assert!((r.access_rate_remote - 0.25).abs() < 1e-12);
        assert_eq!(r.num_accesses_remote, 25);
        assert!((r.llc_miss_rate_remote - 0.10).abs() < 1e-12);
    }

    #[test]
    fn remote_report_empty_run() {
        let r = RemoteAccessReport::from_cost(&PhaseCost::default());
        assert_eq!(r.access_rate_remote, 0.0);
        assert_eq!(r.num_accesses_remote, 0);
    }

    #[test]
    fn memory_report_tier_counters() {
        let m = Machine::new(MachineSpec::test2_tiered());
        let a = m.alloc_array::<u64>("data/x", 2 * 512, AllocPolicy::OnNode(2));
        // Promote both pages, then demote one back.
        assert!(m.migrate_page(a.alloc_id(), 0, 0).is_some());
        assert!(m.migrate_page(a.alloc_id(), 1, 1).is_some());
        assert!(m.migrate_page(a.alloc_id(), 0, 3).is_some());
        let r = MemoryReport::from_machine(&m);
        assert_eq!(r.promoted_by_node.iter().sum::<u64>(), 2);
        assert_eq!(r.demoted_by_node.iter().sum::<u64>(), 1);
        assert_eq!(r.promoted_by_node[0], 1);
        assert_eq!(r.promoted_by_node[1], 1);
        assert_eq!(r.demoted_by_node[3], 1);
        // Round-trips through serde with the new fields.
        let json = serde_json::to_string(&r).unwrap();
        let back: MemoryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.promoted_by_node, r.promoted_by_node);
        // Old documents without the vectors still parse.
        let old: MemoryReport = serde_json::from_str(r#"{"peak_bytes": 1, "tags": []}"#).unwrap();
        assert!(old.promoted_by_node.is_empty());
    }

    #[test]
    fn memory_report_tags() {
        let m = Machine::new(MachineSpec::test2());
        let _a = m.alloc_array::<u64>("agents/x", 1000, AllocPolicy::OnNode(0));
        let _t = m.alloc_array::<u64>("topo/v", 500, AllocPolicy::OnNode(1));
        let r = MemoryReport::from_machine(&m);
        assert_eq!(r.peak_bytes, 12_000);
        assert_eq!(r.tag_peak("agents"), 8_000);
        assert_eq!(r.tag_peak("topo"), 4_000);
        assert_eq!(r.tag_peak("nope"), 0);
        assert!(r.peak_gib() > 0.0);
    }
}
