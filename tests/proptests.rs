//! Property-based tests over the core data structures and the full engine
//! stack: random graphs in, invariants out.

use proptest::prelude::*;

use polymer::algos::reference::max_rel_error;
use polymer::graph::{edge_balanced_ranges, vertex_balanced_ranges, PartitionStats};
use polymer::prelude::*;
use polymer::sync::{DenseBitmap, Frontier};

/// Strategy: a random edge list over up to `max_n` vertices.
fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = EdgeList> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1..=100u32), 1..max_m).prop_map(
            move |pairs| EdgeList {
                num_vertices: n,
                edges: pairs
                    .into_iter()
                    .map(|(s, d, w)| polymer::graph::Edge::weighted(s, d, w))
                    .collect(),
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn csr_preserves_edge_multiset(el in arb_edges(64, 256)) {
        let g = Graph::from_edges(&el);
        prop_assert_eq!(g.num_edges(), el.num_edges());
        let mut want: Vec<(u32, u32, u32)> =
            el.edges.iter().map(|e| (e.src, e.dst, e.weight)).collect();
        let mut got: Vec<(u32, u32, u32)> = g.iter_edges().collect();
        want.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, want);
        // Degrees sum to edge count in both directions.
        let dout: usize = (0..g.num_vertices()).map(|v| g.out_degree(v as u32)).sum();
        let din: usize = (0..g.num_vertices()).map(|v| g.in_degree(v as u32)).sum();
        prop_assert_eq!(dout, g.num_edges());
        prop_assert_eq!(din, g.num_edges());
    }

    #[test]
    fn partitions_cover_disjointly(degrees in proptest::collection::vec(0u32..50, 1..200),
                                   parts in 1usize..9) {
        for ranges in [
            vertex_balanced_ranges(degrees.len(), parts),
            edge_balanced_ranges(&degrees, parts),
        ] {
            prop_assert_eq!(ranges.len(), parts);
            prop_assert_eq!(ranges[0].start, 0);
            prop_assert_eq!(ranges[parts - 1].end, degrees.len());
            for w in ranges.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
            let s = PartitionStats::compute(&degrees, &ranges);
            let total: u64 = s.edges_per_part.iter().sum();
            prop_assert_eq!(total, degrees.iter().map(|&d| d as u64).sum::<u64>());
        }
    }

    #[test]
    fn edge_balanced_never_worse_than_vertex_balanced(
        degrees in proptest::collection::vec(0u32..100, 8..300)
    ) {
        // Over contiguous splits, the prefix-cut heuristic's max deviation
        // should not exceed the naive split's by more than rounding slack.
        let parts = 4;
        let v = PartitionStats::compute(&degrees, &vertex_balanced_ranges(degrees.len(), parts));
        let e = PartitionStats::compute(&degrees, &edge_balanced_ranges(&degrees, parts));
        prop_assert!(e.max_abs_deviation() <= v.max_abs_deviation() + 1.0);
    }

    #[test]
    fn bitmap_matches_reference_set(bits in proptest::collection::btree_set(0usize..500, 0..80)) {
        let m = Machine::new(MachineSpec::test2());
        let b = DenseBitmap::new(&m, "stat/prop", 500, AllocPolicy::Interleaved);
        for &v in &bits {
            b.set_unaccounted(v);
        }
        prop_assert_eq!(b.count_ones(), bits.len());
        let got: Vec<usize> = b.iter_set().collect();
        let want: Vec<usize> = bits.iter().copied().collect();
        prop_assert_eq!(got, want);
        for v in 0..500 {
            prop_assert_eq!(b.test_unaccounted(v), bits.contains(&v));
        }
    }

    #[test]
    fn frontier_round_trip(items in proptest::collection::btree_set(0u32..400, 0..60)) {
        let m = Machine::new(MachineSpec::test2());
        let items: Vec<u32> = items.into_iter().collect();
        let f = Frontier::sparse(items.clone());
        let degree = items.len() as u64;
        let f = f.into_dense(&m, "stat/rt", 400, AllocPolicy::Centralized, degree);
        prop_assert_eq!(f.len(), items.len());
        prop_assert_eq!(f.out_degree(|_| 1), degree);
        let f = f.into_sparse();
        prop_assert_eq!(f.as_sparse(), Some(&items[..]));
    }

    #[test]
    fn bfs_engines_match_reference_on_random_graphs(el in arb_edges(48, 160)) {
        let g = Graph::from_edges(&el);
        let src = el.edges[0].src;
        let prog = Bfs::new(src);
        let (want, _) = run_reference(&g, &prog);
        let m = Machine::new(MachineSpec::test2());
        let got = PolymerEngine::new().run(&m, 4, &g, &prog);
        prop_assert_eq!(&got.values, &want);
        let m = Machine::new(MachineSpec::test2());
        let got = XStreamEngine::new().run(&m, 3, &g, &prog);
        prop_assert_eq!(&got.values, &want);
        let m = Machine::new(MachineSpec::test2());
        let got = GaloisEngine::new().run(&m, 2, &g, &prog);
        prop_assert_eq!(&got.values, &want);
    }

    #[test]
    fn sssp_triangle_inequality(el in arb_edges(40, 120)) {
        let g = Graph::from_edges(&el);
        let src = el.edges[0].src;
        let m = Machine::new(MachineSpec::test2());
        let dist = PolymerEngine::new().run(&m, 4, &g, &Sssp::new(src)).values;
        prop_assert_eq!(dist[src as usize], 0);
        // Relaxed fixed point: no edge can still improve its target.
        for (s, t, w) in g.iter_edges() {
            if dist[s as usize] != polymer::algos::UNREACHED {
                prop_assert!(dist[t as usize] <= dist[s as usize] + w as u64,
                    "edge ({s},{t},{w}) violates relaxation");
            }
        }
    }

    #[test]
    fn cc_labels_are_consistent(el in arb_edges(40, 120)) {
        let mut el = el;
        el.symmetrize();
        let g = Graph::from_edges(&el);
        let m = Machine::new(MachineSpec::test2());
        let labels = PolymerEngine::new()
            .run(&m, 4, &g, &ConnectedComponents::new())
            .values;
        // Connected vertices share labels; labels are component minima.
        for (s, t, _) in g.iter_edges() {
            prop_assert_eq!(labels[s as usize], labels[t as usize]);
        }
        for (v, &l) in labels.iter().enumerate() {
            prop_assert!(l as usize <= v);
            prop_assert_eq!(labels[l as usize], l, "label {} must be its own root", l);
        }
    }

    #[test]
    fn pagerank_ranks_are_positive_and_bounded(el in arb_edges(40, 160)) {
        let g = Graph::from_edges(&el);
        let prog = PageRank::new(g.num_vertices());
        let m = Machine::new(MachineSpec::test2());
        let r = LigraEngine::new().run(&m, 4, &g, &prog).values;
        for &x in &r {
            prop_assert!(x > 0.0 && x < 1.0 + 1e-9);
        }
        let (want, _) = run_reference(&g, &prog);
        prop_assert!(max_rel_error(&r, &want) < 1e-9);
    }

    #[test]
    fn io_round_trip(el in arb_edges(64, 200)) {
        let mut buf = Vec::new();
        polymer::graph::io::write_binary(&el, &mut buf).unwrap();
        let back = polymer::graph::io::read_binary(&buf[..]).unwrap();
        prop_assert_eq!(back, el.clone());
        let mut buf = Vec::new();
        polymer::graph::io::write_text(&el, &mut buf).unwrap();
        let back = polymer::graph::io::read_text(&buf[..]).unwrap();
        prop_assert_eq!(back.edges, el.edges);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Spill accounting under capacity pressure: whatever the alloc/free
    // schedule and spill policy, no node ever holds more than its cap, the
    // per-node live bytes always sum to the live allocations' footprint,
    // and the spilled-pages counter only ever grows.
    #[test]
    fn spill_accounting_is_conserved(
        schedule in proptest::collection::vec((0u8..4, 1usize..4, 0usize..2), 1..60),
        cap_pages in 2u64..7,
        nearest in 0u8..2,
    ) {
        use polymer::numa::PAGE_SIZE;
        let page = PAGE_SIZE as u64;
        let policy = if nearest == 1 { SpillPolicy::NearestRemote } else { SpillPolicy::Fail };
        let m = Machine::with_faults(
            MachineSpec { node_capacity_bytes: Some(cap_pages * page), ..MachineSpec::test2() },
            policy,
            FaultPlan::default(),
        );
        let mut live: Vec<(polymer::numa::NumaArray<u8>, u64)> = Vec::new();
        let mut live_pages = 0u64;
        let mut last_spilled = 0u64;
        for (step, &(op, pages, node)) in schedule.iter().enumerate() {
            if op == 0 && !live.is_empty() {
                let (a, p) = live.swap_remove(step % live.len());
                drop(a);
                live_pages -= p;
            } else {
                let pages = pages as u64;
                match m.try_alloc_array::<u8>(
                    &format!("s{step}"),
                    (pages * page) as usize,
                    polymer::numa::AllocPolicy::OnNode(node),
                ) {
                    Ok(a) => {
                        live.push((a, pages));
                        live_pages += pages;
                    }
                    Err(PolymerError::NodeCapacityExceeded { node, capacity_bytes, .. }) => {
                        // Only legal when the machine is genuinely full.
                        prop_assert_eq!(capacity_bytes, cap_pages * page);
                        prop_assert!(node < 2);
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
            let by_node = m.node_live_bytes();
            prop_assert!(by_node.iter().all(|&b| b <= cap_pages * page));
            prop_assert_eq!(by_node.iter().sum::<u64>(), live_pages * page);
            let spilled = m.spilled_pages();
            prop_assert!(spilled >= last_spilled, "spilled-page counter went backwards");
            last_spilled = spilled;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Per-socket counter attribution is a lossless decomposition of the
    // aggregate phase cost: summing each socket's pattern × hop-distance
    // counters over all sockets reproduces the aggregate local/remote
    // transaction counts, bytes, LLC-miss bytes, and load/store split
    // exactly (the invariant the trace sinks rely on).
    #[test]
    fn per_socket_counters_sum_to_aggregate_cost(
        threads in 1usize..9,
        len_shift in 8u32..14,
        stride in 1usize..5,
        interleave in 0u8..2,
        writes in 0u8..2,
    ) {
        use polymer::numa::{AllocPolicy, Machine, MachineSpec, SimExecutor};
        let machine = Machine::new(MachineSpec::intel80());
        let n = 1usize << len_shift;
        let policy = if interleave == 1 {
            AllocPolicy::Interleaved
        } else {
            AllocPolicy::Centralized
        };
        let data = machine.alloc_atomic::<u64>("prop/trace", n, policy);
        let mut sim = SimExecutor::new(&machine, threads);
        let cost = sim.run_phase("mix", |tid, ctx| {
            let chunk = n / threads;
            let lo = tid * chunk;
            for i in (lo..lo + chunk).step_by(stride) {
                if writes == 1 && i % 3 == 0 {
                    data.store(ctx, i, i as u64);
                } else {
                    data.load(ctx, i);
                }
            }
        });

        prop_assert_eq!(cost.per_socket.len(), 8);
        let mut count_local = 0u64;
        let mut count_remote = 0u64;
        let mut bytes_local = 0u64;
        let mut bytes_remote = 0u64;
        let mut miss_bytes = 0.0f64;
        let mut loads = 0u64;
        let mut stores = 0u64;
        for sc in &cost.per_socket {
            for pat in 0..2 {
                count_local += sc.count[pat][0];
                bytes_local += sc.bytes[pat][0];
                for dist in 1..4 {
                    count_remote += sc.count[pat][dist];
                    bytes_remote += sc.bytes[pat][dist];
                }
            }
            miss_bytes += sc.llc_miss_bytes;
            loads += sc.loads;
            stores += sc.stores;
        }
        prop_assert_eq!(count_local, cost.count_local);
        prop_assert_eq!(count_remote, cost.count_remote);
        prop_assert_eq!(bytes_local, cost.bytes_local);
        prop_assert_eq!(bytes_remote, cost.bytes_remote);
        prop_assert_eq!(loads + stores, cost.count_local + cost.count_remote);
        if writes == 0 {
            prop_assert_eq!(stores, 0);
        }
        let miss_want = cost.miss_bytes_local + cost.miss_bytes_remote;
        prop_assert!(
            (miss_bytes - miss_want).abs() <= 1e-6 * miss_want.max(1.0),
            "per-socket LLC-miss bytes {} vs aggregate {}", miss_bytes, miss_want
        );
    }
}
