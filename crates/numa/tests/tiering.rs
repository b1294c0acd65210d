//! Property tests for tiered-memory accounting: arbitrary promotion and
//! demotion schedules must conserve per-node byte accounting, respect node
//! capacities, and keep the promotion/demotion counters consistent with the
//! tier classification of each move.

use polymer_numa::{
    AllocPolicy, FaultPlan, Machine, MachineSpec, NumaArray, SpillPolicy, TierClass, PAGE_SIZE,
};
use proptest::prelude::*;

/// Pages the capped fast tier holds per node in these tests.
const FAST_CAP_PAGES: u64 = 3;

/// Recompute per-node live bytes from scratch out of every allocation's
/// page map — the ground truth the incremental `node_live` accounting must
/// always match.
fn recount_from_page_maps(machine: &Machine, arrays: &[NumaArray<u64>]) -> Vec<u64> {
    let mut live = vec![0u64; machine.topology().num_nodes()];
    for a in arrays {
        let (map, page_bytes) = machine
            .page_map_of(a.alloc_id())
            .expect("tiered allocations are always explicit-paged");
        for page in 0..map.len() {
            live[map.get(page)] += page_bytes;
        }
    }
    live
}

fn build_machine() -> Machine {
    let spec = MachineSpec::test2_tiered().with_fast_capacity(FAST_CAP_PAGES * PAGE_SIZE as u64);
    Machine::with_faults(spec, SpillPolicy::Demote, FaultPlan::default())
}

fn alloc_policy(sel: usize, node_hint: usize) -> AllocPolicy {
    match sel % 4 {
        0 => AllocPolicy::Interleaved,
        1 => AllocPolicy::Centralized,
        2 => AllocPolicy::OnNode(node_hint % 4),
        _ => AllocPolicy::OnNode(node_hint % 2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Random allocations followed by a random page-migration schedule:
    // after every single migration attempt (successful or refused) the
    // incremental per-node accounting equals a from-scratch recount of
    // every page map, total live bytes never change, capped nodes never
    // exceed capacity, and the promotion/demotion counters advance exactly
    // when a page crosses the tier boundary.
    #[test]
    fn migration_schedules_conserve_per_node_byte_accounting(
        allocs in proptest::collection::vec((1usize..=6, 0usize..4, 0usize..4), 1..5),
        moves in proptest::collection::vec((0usize..16, 0usize..8, 0usize..4), 1..64),
    ) {
        let machine = build_machine();
        let arrays: Vec<NumaArray<u64>> = allocs
            .iter()
            .enumerate()
            .map(|(i, &(pages, sel, hint))| {
                machine.alloc_array::<u64>(
                    &format!("prop/a{i}"),
                    pages * PAGE_SIZE / std::mem::size_of::<u64>(),
                    alloc_policy(sel, hint),
                )
            })
            .collect();

        let topo = machine.topology();
        let total: u64 = machine.node_live_bytes().iter().sum();
        // Alloc-time Demote spills may already have bumped the demotion
        // counters; migrations are charged on top of this baseline.
        let mut expect_promoted: Vec<u64> = machine.promoted_pages_by_node();
        let mut expect_demoted: Vec<u64> = machine.demoted_pages_by_node();

        for &(ai, pi, target) in &moves {
            let id = arrays[ai % arrays.len()].alloc_id();
            let (map, page_bytes) = machine.page_map_of(id).unwrap();
            let page = pi % map.len();
            let from = map.get(page);

            match machine.migrate_page(id, page, target) {
                Some(prev) => {
                    prop_assert_eq!(prev, from);
                    prop_assert_ne!(from, target);
                    prop_assert_eq!(map.get(page), target);
                    let (ft, tt) = (topo.tier_of(from), topo.tier_of(target));
                    if ft.is_slow() && tt == TierClass::Fast {
                        expect_promoted[target] += 1;
                    } else if ft == TierClass::Fast && tt.is_slow() {
                        expect_demoted[target] += 1;
                    }
                }
                None => {
                    // Refused: same node, or the target was full. Either
                    // way the page must not have moved.
                    prop_assert_eq!(map.get(page), from);
                    if from != target {
                        let cap = machine.capacity_of_node(target).unwrap();
                        prop_assert!(
                            machine.node_live_bytes()[target] + page_bytes > cap,
                            "migration refused without a capacity reason"
                        );
                    }
                }
            }

            let live = machine.node_live_bytes();
            prop_assert_eq!(live.iter().sum::<u64>(), total, "total live bytes drifted");
            prop_assert_eq!(&live, &recount_from_page_maps(&machine, &arrays));
            for (node, &bytes) in live.iter().enumerate() {
                if let Some(cap) = machine.capacity_of_node(node) {
                    prop_assert!(bytes <= cap, "node {} over capacity", node);
                }
            }
            prop_assert_eq!(&machine.promoted_pages_by_node(), &expect_promoted);
            prop_assert_eq!(&machine.demoted_pages_by_node(), &expect_demoted);
        }

        // Freeing everything returns every node to zero live bytes.
        drop(arrays);
        prop_assert!(machine.node_live_bytes().iter().all(|&b| b == 0));
    }
}
