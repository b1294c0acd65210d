//! Integration tests of the serving layer: concurrent mixed-algorithm
//! load end-to-end, the batching conformance contract — a coalesced
//! multi-source sweep must be bit-identical to per-source runs, on both
//! backends — and warm-started answers across several ingests.

use std::sync::Arc;

use polymer_algos::{run_reference, Bfs, PageRank, Sssp};
use polymer_api::Backend;
use polymer_graph::{gen, Graph};
use polymer_serve::{GraphService, RequestKind, ServeConfig};

fn graph() -> Graph {
    Graph::from_edges(&gen::rmat(8, 1 << 11, gen::RMAT_GRAPH500, 17))
}

fn cfg_on(backend: Backend) -> ServeConfig {
    ServeConfig {
        workers: 3,
        threads_per_request: 2,
        backend,
        ..ServeConfig::default()
    }
}

/// Concurrent clients submit a mix of BFS, SSSP, and PageRank; every
/// response must match the sequential oracle and carry its own id.
#[test]
fn mixed_algorithm_requests_from_concurrent_clients() {
    let g = graph();
    let bfs_want = run_reference(&g, &Bfs::new(7)).0;
    let sssp_want = run_reference(&g, &Sssp::new(11)).0;
    let svc = Arc::new(GraphService::new(g, cfg_on(Backend::Simulated)).unwrap());

    let mut clients = Vec::new();
    for round in 0..4u32 {
        let svc = Arc::clone(&svc);
        let bfs_want = bfs_want.clone();
        let sssp_want = sssp_want.clone();
        clients.push(std::thread::spawn(move || {
            let tb = svc.submit(RequestKind::Bfs { source: 7 }).unwrap();
            let ts = svc
                .submit(RequestKind::Sssp {
                    source: 11,
                    delta: 100,
                })
                .unwrap();
            let tp = svc.submit(RequestKind::PageRank { iters: 3 }).unwrap();
            let (bid, sid, pid) = (tb.id(), ts.id(), tp.id());
            let rb = tb.wait().unwrap();
            let rs = ts.wait().unwrap();
            let rp = tp.wait().unwrap();
            assert_eq!(rb.values.levels().unwrap(), &bfs_want[..], "round {round}");
            assert_eq!(
                rs.values.distances().unwrap(),
                &sssp_want[..],
                "round {round}"
            );
            assert!(rp.values.ranks().unwrap().iter().all(|r| r.is_finite()));
            assert_eq!((rb.id, rs.id, rp.id), (bid, sid, pid));
        }));
    }
    for c in clients {
        c.join().unwrap();
    }
    let stats = svc.stats();
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.failed, 0);
}

/// The conformance contract: coalesced BFS and SSSP answers are
/// bit-identical to the same requests served one at a time, on both the
/// simulated and the real-thread backend (solo runs take the backend's
/// engine path; the sweep is backend-independent host compute — all of it
/// must agree with the oracle exactly).
#[test]
fn batched_answers_are_bit_identical_to_per_source_runs_on_both_backends() {
    let g = graph();
    let bfs_sources = [0u32, 3, 100, 3, 29];
    let sssp_sources = [1u32, 64, 9];

    for backend in [Backend::Simulated, Backend::real_threads()] {
        // Per-source: serialize submissions so nothing can coalesce.
        let svc = GraphService::new(graph(), cfg_on(backend.clone())).unwrap();
        let mut solo_bfs = Vec::new();
        for &s in &bfs_sources {
            let r = svc
                .submit(RequestKind::Bfs { source: s })
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(r.batched_lanes, 1);
            solo_bfs.push(r.values.levels().unwrap().to_vec());
        }
        let mut solo_sssp = Vec::new();
        for &s in &sssp_sources {
            let r = svc
                .submit(RequestKind::Sssp {
                    source: s,
                    delta: 100,
                })
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(r.batched_lanes, 1);
            solo_sssp.push(r.values.distances().unwrap().to_vec());
        }

        // Batched: pause, enqueue everything, resume — one sweep per class.
        svc.pause();
        let bfs_tickets: Vec<_> = bfs_sources
            .iter()
            .map(|&s| svc.submit(RequestKind::Bfs { source: s }).unwrap())
            .collect();
        let sssp_tickets: Vec<_> = sssp_sources
            .iter()
            .map(|&s| {
                svc.submit(RequestKind::Sssp {
                    source: s,
                    delta: 100,
                })
                .unwrap()
            })
            .collect();
        svc.resume();

        for ((t, solo), &s) in bfs_tickets.into_iter().zip(&solo_bfs).zip(&bfs_sources) {
            let r = t.wait().unwrap();
            assert_eq!(r.batched_lanes, bfs_sources.len());
            assert_eq!(
                r.values.levels().unwrap(),
                &solo[..],
                "BFS source {s} diverged from its per-source run"
            );
            let (oracle, _) = run_reference(&g, &Bfs::new(s));
            assert_eq!(r.values.levels().unwrap(), &oracle[..]);
        }
        for ((t, solo), &s) in sssp_tickets.into_iter().zip(&solo_sssp).zip(&sssp_sources) {
            let r = t.wait().unwrap();
            assert_eq!(r.batched_lanes, sssp_sources.len());
            assert_eq!(
                r.values.distances().unwrap(),
                &solo[..],
                "SSSP source {s} diverged from its per-source run"
            );
            let (oracle, _) = run_reference(&g, &Sssp::new(s));
            assert_eq!(r.values.distances().unwrap(), &oracle[..]);
        }
        let stats = svc.stats();
        assert!(stats.batches >= 2, "both classes must have coalesced");
        assert_eq!(stats.failed, 0);
    }
}

/// PageRank answers served solo match a direct engine run (ranks are
/// float-valued, so the service must take the exact same engine path).
#[test]
fn pagerank_served_matches_direct_engine_run() {
    use polymer_api::Engine;
    use polymer_core::PolymerEngine;
    use polymer_numa::{Machine, MachineSpec};

    let g = graph();
    let prog = PageRank::new(g.num_vertices()).with_iters(4);
    let machine = Machine::new(MachineSpec::test2());
    let direct = PolymerEngine::new().run(&machine, 2, &g, &prog);

    let svc = GraphService::new(graph(), cfg_on(Backend::Simulated)).unwrap();
    let served = svc
        .submit(RequestKind::PageRank { iters: 4 })
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(served.values.ranks().unwrap(), &direct.values[..]);
    assert_eq!(served.iterations, direct.iterations);
}

fn eight_threads_on(spec: polymer_numa::MachineSpec) -> ServeConfig {
    ServeConfig {
        workers: 1,
        threads_per_request: 8,
        backend: Backend::real_threads(),
        spec,
        ..ServeConfig::default()
    }
}

/// Regression: `threads_per_request` above the spec's core count used to be
/// accepted. A solo real-thread query then worked, but the first query after
/// an ingest drove a simulated `IterationDriver` with more threads than
/// cores: the assertion killed the worker mid-request (no reply, pledge
/// never released), and a coalesced sweep failed the same way in static
/// mode. The config is now rejected where it enters.
#[test]
fn threads_above_the_specs_cores_are_rejected_at_new() {
    use polymer_api::PolymerError;

    let four_cores = polymer_numa::MachineSpec::test2();
    let err = GraphService::new(graph(), eight_threads_on(four_cores))
        .err()
        .expect("8 threads cannot bind to a 4-core spec");
    match err {
        PolymerError::InvalidConfig(msg) => assert!(msg.contains("4 cores"), "{msg}"),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

/// The overlay entry points share the engines' front door: a bad thread
/// count or source is a typed error for a direct caller, never a panic.
#[test]
fn overlay_entry_points_reject_bad_threads_and_sources() {
    use polymer_algos::{bfs_overlay, cc_overlay, pagerank_overlay, sssp_overlay, DEFAULT_PR_TOL};
    use polymer_api::{OverlayTopo, PolymerError, PolymerResult};
    use polymer_graph::MutableGraph;
    use polymer_numa::{AllocPolicy, Machine, MachineSpec};

    let machine = Machine::new(MachineSpec::test2());
    let mg = MutableGraph::from_graph(&graph());
    let n = mg.base().num_vertices() as u32;
    let topo = OverlayTopo::build(&machine, &mg, true, |_| AllocPolicy::Interleaved);
    fn invalid<T>(what: &str, r: PolymerResult<T>) {
        match r.map(|_| ()) {
            Err(PolymerError::InvalidConfig(_)) => {}
            other => panic!("{what}: expected InvalidConfig, got {other:?}"),
        }
    }
    for threads in [0, 5] {
        let label = format!("{threads} threads");
        let m = &machine;
        invalid(&label, bfs_overlay(m, threads, &topo, 0, None, false));
        invalid(&label, sssp_overlay(m, threads, &topo, 0, None, false));
        invalid(&label, cc_overlay(m, threads, &topo, None, false));
        let pr = pagerank_overlay(m, threads, &topo, 0.85, DEFAULT_PR_TOL, None, false);
        invalid(&label, pr);
    }
    invalid("source", bfs_overlay(&machine, 4, &topo, n, None, false));
    invalid("source", sssp_overlay(&machine, 4, &topo, n, None, false));
    // The same calls with valid parameters still answer.
    let want = run_reference(&graph(), &Bfs::new(0)).0;
    let got = bfs_overlay(&machine, 4, &topo, 0, None, false).unwrap();
    assert_eq!(got.values, want);
}

/// The eight-thread real-thread config is fine on a spec that has the
/// cores: solo, coalesced and post-ingest answers all match the oracle.
#[test]
fn eight_threads_serve_every_path_on_a_spec_with_enough_cores() {
    use polymer_graph::{DeltaBatch, MutableGraph};

    let g = graph();
    let cfg = eight_threads_on(polymer_numa::MachineSpec::intel80());
    let svc = GraphService::new(g.clone(), cfg).unwrap();
    let levels = |g: &Graph, s: u32| run_reference(g, &Bfs::new(s)).0;

    let solo = svc.submit(RequestKind::Bfs { source: 7 }).unwrap();
    let solo = solo.wait().unwrap();
    assert_eq!(solo.batched_lanes, 1);
    assert_eq!(solo.values.levels().unwrap(), &levels(&g, 7)[..]);

    svc.pause();
    let tickets: Vec<_> = [7u32, 3]
        .iter()
        .map(|&s| (s, svc.submit(RequestKind::Bfs { source: s }).unwrap()))
        .collect();
    svc.resume();
    for (s, t) in tickets {
        let r = t.wait().unwrap();
        assert_eq!(r.batched_lanes, 2);
        assert_eq!(r.values.levels().unwrap(), &levels(&g, s)[..], "lane {s}");
    }

    let mut batch = DeltaBatch::new();
    batch.insert(1, g.num_vertices() as u32 - 3, 7).delete(0, 1);
    let ingest = RequestKind::Ingest {
        batch: batch.clone(),
    };
    svc.submit(ingest).unwrap().wait().unwrap();
    let mut mirror = MutableGraph::from_graph(&g);
    mirror.apply(&batch).unwrap();
    let mutated = Graph::from_edges(&mirror.snapshot_edge_list());
    let after = svc.submit(RequestKind::Bfs { source: 7 }).unwrap();
    let after = after.wait().unwrap();
    assert_eq!(after.values.levels().unwrap(), &levels(&mutated, 7)[..]);
    assert_eq!(svc.stats().failed, 0);
}

/// Regression: a cached answer warm-started across *several* ingests used to
/// see their plain union — an edge inserted and deleted again stayed in the
/// insert list the repair relaxes along, and a pair reweighted twice lost
/// the weight the cached values were computed with.
#[test]
fn warm_answers_across_a_merged_batch_window_match_the_oracle() {
    use polymer_graph::{DeltaBatch, Edge, EdgeList};

    fn ingest(svc: &GraphService, inserts: &[(u32, u32, u32)], deletes: &[(u32, u32)]) {
        let mut batch = DeltaBatch::new();
        batch.inserts = inserts
            .iter()
            .map(|&(s, d, w)| Edge::weighted(s, d, w))
            .collect();
        batch.deletes = deletes.to_vec();
        svc.submit(RequestKind::Ingest { batch })
            .unwrap()
            .wait()
            .unwrap();
    }
    fn service(n: usize, edges: &[(u32, u32, u32)]) -> GraphService {
        let mut el = EdgeList::new(n);
        for &(s, d, w) in edges {
            el.push(Edge::weighted(s, d, w));
        }
        let svc = GraphService::new(Graph::from_edges(&el), cfg_on(Backend::Simulated)).unwrap();
        ingest(&svc, &[], &[]); // mutated mode: answers are cached from here on
        svc
    }

    // Insert then delete of one pair: the chain is what it was.
    let svc = service(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
    let bfs = || svc.submit(RequestKind::Bfs { source: 0 }).unwrap().wait();
    assert_eq!(bfs().unwrap().values.levels().unwrap(), [0, 1, 2, 3]);
    ingest(&svc, &[(0, 2, 1)], &[]);
    ingest(&svc, &[], &[(0, 2)]);
    assert_eq!(bfs().unwrap().values.levels().unwrap(), [0, 1, 2, 3]);

    // Two reweights of one pair: 0 -> 1 goes 5 -> 7 -> 20, so the path over
    // 2 (1 + 10) takes over.
    let svc = service(3, &[(0, 1, 5), (0, 2, 1), (2, 1, 10)]);
    let kind = RequestKind::Sssp {
        source: 0,
        delta: 100,
    };
    let sssp = || svc.submit(kind.clone()).unwrap().wait();
    assert_eq!(sssp().unwrap().values.distances().unwrap(), [0, 5, 1]);
    ingest(&svc, &[(0, 1, 7)], &[]);
    ingest(&svc, &[(0, 1, 20)], &[]);
    assert_eq!(sssp().unwrap().values.distances().unwrap(), [0, 11, 1]);
    assert_eq!(svc.stats().failed, 0);
}
