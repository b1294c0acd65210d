//! Integration tests of the serving layer: concurrent mixed-algorithm
//! load end-to-end, the batching conformance contract — a coalesced
//! multi-source sweep must be bit-identical to per-source runs, on both
//! backends — a lone query as a host kernel whatever the backend,
//! post-ingest bursts that coalesce and match the graph at their epoch, warm-started answers across several ingests, one meaning per
//! request across the mode switch, a panicking answer path, the admission
//! ledger under multi-worker overload, and admission over arbitrary
//! requests.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use polymer_algos::reference::max_rel_error;
use polymer_algos::{run_reference, Bfs, PageRank, Sssp};
use polymer_api::Backend;
use polymer_faults::PolymerError;
use polymer_graph::{gen, DeltaBatch, Graph, MutableGraph};
use polymer_serve::{GraphService, RequestKind, ResponseValues, ServeConfig};

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
/// simulated and the real-thread backend (a request served alone is a
/// one-lane sweep, a batch one sweep of many lanes; both are
/// backend-independent host compute and must agree with the oracle exactly).
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

/// A lone query takes the path its coalesced twin takes — a host kernel on
/// the worker's thread — in static mode too, and the configured backend
/// changes nothing: a lone BFS, SSSP and PageRank are answered exactly,
/// as one-lane runs at epoch 0, on both.
#[test]
fn a_lone_query_is_a_host_kernel_whatever_the_backend() {
    let g = graph();
    let n = g.num_vertices();
    for backend in [Backend::Simulated, Backend::real_threads()] {
        let svc = GraphService::new(g.clone(), cfg_on(backend)).unwrap();
        let ask = |kind: RequestKind| svc.submit(kind).unwrap().wait().unwrap();

        let bfs = ask(RequestKind::Bfs { source: 7 });
        assert_eq!(
            bfs.values.levels().unwrap(),
            run_reference(&g, &Bfs::new(7)).0
        );
        let sssp = ask(RequestKind::Sssp {
            source: 11,
            delta: 100,
        });
        let want = run_reference(&g, &Sssp::new(11).with_delta(100)).0;
        assert_eq!(sssp.values.distances().unwrap(), want);
        let ranks = ask(RequestKind::PageRank { iters: 3 });
        let want = run_reference(&g, &PageRank::new(n).with_iters(3));
        assert_eq!(ranks.values.ranks().unwrap(), want.0);
        assert_eq!(ranks.iterations, want.1);
        for r in [&bfs, &sssp, &ranks] {
            assert_eq!((r.batched_lanes, r.epoch), (1, 0), "{}", r.algorithm);
        }
        let stats = svc.stats();
        assert_eq!((stats.completed, stats.failed, stats.batches), (3, 0, 0));
    }
}

/// PageRank answers served solo are bit-identical to a direct run of the
/// sequential kernel, values and iterations.
#[test]
fn pagerank_served_matches_direct_engine_run() {
    let g = graph();
    let prog = PageRank::new(g.num_vertices()).with_iters(4);
    let direct = run_reference(&g, &prog);

    let svc = GraphService::new(graph(), cfg_on(Backend::Simulated)).unwrap();
    let served = svc
        .submit(RequestKind::PageRank { iters: 4 })
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(served.values.ranks().unwrap(), &direct.0[..]);
    assert_eq!(served.iterations, direct.1);
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
/// After the ingest, first-time BFS / SSSP answers come cold from a host
/// sweep over the resident mutated graph and are cached; after a second
/// ingest the same sources are repaired warm from those host-computed
/// priors.
#[test]
fn eight_threads_serve_every_path_on_a_spec_with_enough_cores() {
    let g = graph();
    let n = g.num_vertices() as u32;
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
    let static_batches = svc.stats().batches;

    let ask = |kind: RequestKind| svc.submit(kind).unwrap().wait().unwrap();
    let sssp = |source| RequestKind::Sssp { source, delta: 100 };
    let mut mirror = MutableGraph::from_graph(&g);
    // Both modes of every path: each ingest is followed by two BFS and one
    // SSSP source asked twice (computed, then a cache hit), with a PageRank
    // in between; the first epoch computes cold, the second repairs warm.
    let mut batch = DeltaBatch::new();
    batch.insert(1, n - 3, 7).delete(0, 1);
    let mut second = DeltaBatch::new();
    second.insert(5, n - 1, 2).delete(1, n - 3).insert(7, 2, 9);
    for (epoch, batch) in [(1, batch), (2, second)] {
        let ingested = ask(RequestKind::Ingest {
            batch: batch.clone(),
        });
        assert_eq!(ingested.epoch, epoch);
        mirror.apply(&batch).unwrap();
        for round in 0..2 {
            for s in [7, 3] {
                let r = ask(RequestKind::Bfs { source: s });
                let want = run_reference(&mirror, &Bfs::new(s)).0;
                assert_eq!(r.values.levels().unwrap(), &want[..], "BFS {s} @ {epoch}");
                assert_eq!((r.epoch, r.batched_lanes), (epoch, 1));
            }
            let r = ask(sssp(11));
            let want = run_reference(&mirror, &Sssp::new(11)).0;
            assert_eq!(r.values.distances().unwrap(), &want[..], "SSSP @ {epoch}");
            assert_eq!(r.epoch, epoch);
            if round == 0 {
                let ranks = ask(RequestKind::PageRank { iters: 3 });
                assert_eq!(ranks.epoch, epoch);
                assert!(ranks.values.ranks().unwrap().iter().all(|r| r.is_finite()));
            }
        }
        // Per epoch: three traversals and the PageRank are computed (cold at
        // the first epoch, warm at the second — both count as incremental
        // answers), and the three repeats are cache hits.
        let stats = svc.stats();
        assert_eq!(stats.incremental_answers, 4 * epoch);
        assert_eq!(stats.cache_hits, 3 * epoch);
    }
    let stats = svc.stats();
    assert_eq!(
        stats.batches, static_batches,
        "no coalescing after mutation: each `ask` waits for its answer, so no \
         request ever queues beside another (post-ingest bursts do coalesce)"
    );
    assert_eq!((stats.ingests, stats.failed), (2, 0));
}

/// After every ingest a burst of BFS and SSSP requests queues up at once:
/// sources asked before (repaired warm from the previous epoch), new ones
/// (swept together) and repeats. Every answer is the graph's at the epoch it
/// carries, on both backends, and the cold lanes of every burst coalesce.
#[test]
fn post_ingest_bursts_coalesce_and_match_the_graph_at_their_epoch() {
    let g = graph();
    let n = g.num_vertices() as u32;
    for backend in [Backend::Simulated, Backend::real_threads()] {
        let cfg = ServeConfig {
            workers: 2,
            ..cfg_on(backend)
        };
        let svc = GraphService::new(g.clone(), cfg).unwrap();
        let mut mirror = MutableGraph::from_graph(&g);
        // The graph at every epoch, indexed by it.
        let mut at_epoch = vec![mirror.clone()];
        for round in 1..=3u32 {
            let mut batch = DeltaBatch::new();
            batch
                .insert(round, n - round, round)
                .insert(7, 40 + round, 2)
                .delete(0, round);
            let ingested = svc.submit(RequestKind::Ingest {
                batch: batch.clone(),
            });
            assert_eq!(ingested.unwrap().wait().unwrap().epoch, u64::from(round));
            mirror.apply(&batch).unwrap();
            at_epoch.push(mirror.clone());
            let before = svc.stats().batches;

            let fresh = 10 * round;
            let bfs = [0, 7, fresh, fresh + 1, 7, fresh];
            let sssp = [11, fresh + 2, 11, fresh + 3];
            // Interleaved, so each class's batch gathers across the other.
            let mut burst = Vec::new();
            for (i, &source) in bfs.iter().enumerate() {
                burst.push(RequestKind::Bfs { source });
                if let Some(&source) = sssp.get(i) {
                    burst.push(RequestKind::Sssp { source, delta: 100 });
                }
            }
            svc.pause();
            let tickets: Vec<_> = burst.iter().map(|k| svc.submit(k.clone())).collect();
            svc.resume();
            for (kind, t) in burst.iter().zip(tickets) {
                let r = t.unwrap().wait().unwrap();
                let graph = &at_epoch[r.epoch as usize];
                match *kind {
                    RequestKind::Bfs { source } => {
                        let want = run_reference(graph, &Bfs::new(source)).0;
                        assert_eq!(r.values.levels().unwrap(), &want[..], "{kind:?}");
                    }
                    RequestKind::Sssp { source, .. } => {
                        let want = run_reference(graph, &Sssp::new(source)).0;
                        assert_eq!(r.values.distances().unwrap(), &want[..], "{kind:?}");
                    }
                    _ => unreachable!("the burst holds traversals only"),
                }
            }
            let stats = svc.stats();
            assert!(stats.batches > before, "round {round}: no burst coalesced");
            assert_eq!(stats.failed, 0);
        }
    }
}

/// Regression: a cached answer warm-started across *several* ingests used to
/// see their plain union — an edge inserted and deleted again stayed in the
/// insert list the repair relaxes along, and a pair reweighted twice lost
/// the weight the cached values were computed with.
#[test]
fn warm_answers_across_a_merged_batch_window_match_the_oracle() {
    use polymer_graph::{Edge, EdgeList};

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
            el.edges.push(Edge::weighted(s, d, w));
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
    let warm = sssp().unwrap();
    assert_eq!(warm.values.distances().unwrap(), [0, 11, 1]);
    assert_eq!(warm.epoch, 3, "answered on the graph the third ingest left");
    assert_eq!(svc.stats().failed, 0);
}

/// Regression: the PageRank cache lane had no parameter, so at one epoch
/// `PageRank { iters: 6 }` after `PageRank { iters: 2 }` was a cache hit
/// returning the two-round answer.
#[test]
fn the_pagerank_cache_lane_is_keyed_by_iters() {
    let g = graph();
    let svc = GraphService::new(g.clone(), cfg_on(Backend::Simulated)).unwrap();
    let ask = |kind: RequestKind| svc.submit(kind).unwrap().wait().unwrap();
    let mut batch = DeltaBatch::new();
    batch.insert(3, 77, 4).delete(0, 2);
    ask(RequestKind::Ingest {
        batch: batch.clone(),
    });
    let mut mirror = MutableGraph::from_graph(&g);
    mirror.apply(&batch).unwrap();

    let mut served = Vec::new();
    for iters in [2, 6] {
        let r = ask(RequestKind::PageRank { iters });
        let prog = PageRank::new(g.num_vertices()).with_iters(iters);
        let err = max_rel_error(r.values.ranks().unwrap(), &run_reference(&mirror, &prog).0);
        assert!(err < 1e-9, "PageRank({iters}) off by {err}");
        served.push(r.values);
    }
    assert_ne!(served[0], served[1], "six rounds are not two");
    assert_eq!(svc.stats().cache_hits, 0);
    for (hits, iters, was) in [(1, 6, &served[1]), (2, 2, &served[0])] {
        let again = ask(RequestKind::PageRank { iters });
        assert_eq!(&again.values, was);
        assert_eq!(svc.stats().cache_hits, hits);
    }
    assert_eq!(svc.stats().incremental_answers, 2);
}

/// One meaning per request: over a canonical resident graph an empty ingest
/// switches the service to mutated mode without changing the graph, and the
/// same requests get the same answers after it as before it — PageRank
/// included, whatever the configured backend.
#[test]
fn a_request_means_the_same_thing_across_the_mode_switch() {
    // `MutableGraph::from_graph` adopts a canonical CSR unchanged; the raw
    // R-MAT list would lose its self-loops and duplicate pairs at the ingest.
    let g = Graph::from_edges(&MutableGraph::from_graph(&graph()).snapshot_edge_list());
    let n = g.num_vertices();
    let queries = [
        RequestKind::Bfs { source: 7 },
        RequestKind::Sssp {
            source: 11,
            delta: 100,
        },
        RequestKind::PageRank { iters: 1 },
        RequestKind::PageRank { iters: 3 },
        RequestKind::PageRank { iters: 20 },
    ];
    for backend in [Backend::Simulated, Backend::real_threads()] {
        let svc = GraphService::new(g.clone(), cfg_on(backend)).unwrap();
        let ask = |kind: RequestKind| svc.submit(kind).unwrap().wait().unwrap();
        let ingest = |batch: &DeltaBatch| {
            ask(RequestKind::Ingest {
                batch: batch.clone(),
            })
        };
        let before: Vec<_> = queries.iter().map(|q| ask(q.clone())).collect();
        assert_eq!(ingest(&DeltaBatch::new()).epoch, 1);
        for (q, was) in queries.iter().zip(&before) {
            let now = ask(q.clone());
            assert_eq!((was.epoch, now.epoch), (0, 1), "{q:?}");
            assert_eq!(now.iterations, was.iterations, "{q:?}");
            match (now.values.ranks(), was.values.ranks()) {
                (Some(now), Some(was)) => {
                    let err = max_rel_error(now, was);
                    assert!(err < 1e-9, "{q:?} moved by {err} across the switch");
                }
                _ => assert_eq!(now.values, was.values, "{q:?}"),
            }
        }

        // After a real ingest PageRank is still the `PageRank` program, on the
        // graph at the epoch the response carries.
        let mut batch = DeltaBatch::new();
        batch.insert(1, n as u32 - 3, 7).delete(0, 1);
        let mut mirror = MutableGraph::from_graph(&g);
        mirror.apply(&batch).unwrap();
        assert_eq!(ingest(&batch).epoch, 2);
        let deadline = Some(Duration::from_secs(60));
        let r = svc
            .submit_with_deadline(RequestKind::PageRank { iters: 3 }, deadline)
            .unwrap()
            .wait()
            .unwrap();
        let prog = PageRank::new(n).with_iters(3);
        let err = max_rel_error(r.values.ranks().unwrap(), &run_reference(&mirror, &prog).0);
        assert!(err < 1e-9, "PageRank(3) at epoch 2 off by {err}");
        assert_eq!((r.epoch, r.deadline_missed), (2, false));
        assert_eq!(svc.stats().failed, 0);
    }
}

/// A machine too small to place anything on still serves mutated mode:
/// this test used to pin the panic-on-an-answer-path regression through a
/// warm repair whose placed overlay could not fit a 4 KiB node (the ticket
/// failed `node-capacity-exceeded`, the worker lived). Warm repairs are host
/// kernels now and place nothing, so on that same machine the warm BFS is
/// answered; the regression is pinned where a trigger still exists, in
/// `service.rs::a_broken_cache_lane_fails_its_ticket_and_the_worker_lives`.
#[test]
fn a_panicking_answer_path_fails_its_ticket_and_the_worker_lives() {
    const WATCHDOG: Duration = Duration::from_secs(30);
    let g = Graph::from_edges(&gen::rmat(10, 1 << 14, gen::RMAT_GRAPH500, 3));
    let one_bfs = 2 * 4 * g.num_vertices() as u64;
    let cfg = ServeConfig {
        workers: 1,
        threads_per_request: 2,
        // Exactly one BFS pledge: a leaked one would refuse the next request.
        memory_budget_bytes: one_bfs,
        spec: polymer_numa::MachineSpec {
            node_capacity_bytes: Some(4096),
            ..polymer_numa::MachineSpec::test2()
        },
        ..ServeConfig::default()
    };
    let svc = Arc::new(GraphService::new(g.clone(), cfg).unwrap());
    let mut mirror = MutableGraph::from_graph(&g);
    let mut batch = DeltaBatch::new();
    batch.insert(1, 900, 7).delete(0, 1);

    // Ingest, BFS (a cold sweep, cached), ingest, the same BFS (a warm
    // repair). On a helper thread, so a ticket that never resolves fails
    // the test instead of hanging it.
    let (tx, rx) = mpsc::channel();
    let (client, ops) = (Arc::clone(&svc), batch.clone());
    std::thread::spawn(move || {
        let ask = |kind: RequestKind| client.submit(kind).unwrap().wait();
        ask(RequestKind::Ingest { batch: ops }).unwrap();
        ask(RequestKind::Bfs { source: 0 }).unwrap();
        ask(RequestKind::Ingest {
            batch: DeltaBatch::new(),
        })
        .unwrap();
        let _ = tx.send(ask(RequestKind::Bfs { source: 0 }));
    });
    let warm = rx
        .recv_timeout(WATCHDOG)
        .expect("the ticket of the warm repair never resolved")
        .expect("a warm repair places nothing: a 4 KiB node is enough");
    mirror.apply(&batch).unwrap();
    assert_eq!(
        warm.values.levels().unwrap(),
        run_reference(&mirror, &Bfs::new(0)).0
    );
    assert_eq!(warm.epoch, 2);
    let stats = svc.stats();
    assert_eq!((stats.failed, stats.completed), (0, 4));

    // Cold answers work there too: a BFS from another source is admitted
    // (the pledges were released) and answered.
    let r = svc.submit(RequestKind::Bfs { source: 5 }).unwrap();
    let r = r.wait().unwrap();
    assert_eq!(
        r.values.levels().unwrap(),
        run_reference(&mirror, &Bfs::new(5)).0
    );
    assert_eq!(r.epoch, 2);
}

/// Overload with three live workers: arrivals outrun service, the bounded
/// queue sheds, and the admission ledger must still balance. The queue is
/// first filled to capacity with dispatch paused — so rejections are
/// certain, not a matter of timing — then dispatch resumes and requests
/// keep arriving as fast as `submit` returns while all three workers drain
/// and coalesce. Whatever the interleaving: every rejection
/// is a typed `queue-full` / `memory-budget-exceeded`, every admitted
/// ticket resolves, `completed + failed == issued − rejected`, and every
/// completed answer equals the sequential oracle.
#[test]
fn overload_sheds_with_typed_rejections_and_a_balanced_ledger() {
    const QUEUE: usize = 32;
    const SOURCES: u32 = 8;
    const WATCHDOG: Duration = Duration::from_secs(120);
    let g = Graph::from_edges(&gen::rmat(9, 1 << 12, gen::RMAT_GRAPH500, 23));
    let bfs_want: Vec<_> = (0..SOURCES)
        .map(|s| run_reference(&g, &Bfs::new(s)).0)
        .collect();
    let sssp_want: Vec<_> = (0..SOURCES)
        .map(|s| run_reference(&g, &Sssp::new(s)).0)
        .collect();
    let cfg = ServeConfig {
        queue_capacity: QUEUE,
        ..cfg_on(Backend::real_threads())
    };
    let svc = GraphService::new(g, cfg).unwrap();

    // Mostly BFS (the coalescing case), some SSSP, an occasional PageRank.
    let request = |i: u32| match i % 10 {
        0..=5 => RequestKind::Bfs {
            source: i % SOURCES,
        },
        6..=8 => RequestKind::Sssp {
            source: i % SOURCES,
            delta: 100,
        },
        _ => RequestKind::PageRank { iters: 3 },
    };
    let (mut issued, mut rejected_queue_full, mut rejected_memory) = (0u64, 0u64, 0u64);
    let mut tickets = Vec::new();
    svc.pause();
    // Keep arriving until three queues' worth has been admitted: past the
    // first `QUEUE` that takes slots the live workers free, so arrivals and
    // service interleave by construction, not by a sleep.
    let started = Instant::now();
    while tickets.len() < 3 * QUEUE {
        assert!(started.elapsed() < WATCHDOG, "the workers stopped draining");
        if issued == QUEUE as u64 + 4 {
            svc.resume();
        }
        let kind = request(issued as u32);
        issued += 1;
        match svc.submit(kind.clone()) {
            Ok(t) => tickets.push((kind, t)),
            Err(PolymerError::QueueFull { .. }) => rejected_queue_full += 1,
            Err(PolymerError::MemoryBudgetExceeded { .. }) => rejected_memory += 1,
            Err(e) => panic!("untyped rejection [{}]: {e}", e.code()),
        }
    }
    assert!(rejected_queue_full >= 4, "a full queue must shed");
    let admitted = tickets.len() as u64;
    assert_eq!(admitted, issued - rejected_queue_full - rejected_memory);

    // Harvest on a helper thread: an admitted ticket that never resolves
    // (an admission deadlock) fails the test instead of hanging the suite.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcomes: Vec<_> = tickets.into_iter().map(|(k, t)| (k, t.wait())).collect();
        let _ = tx.send(outcomes);
    });
    let outcomes = rx
        .recv_timeout(WATCHDOG)
        .expect("an admitted ticket never resolved");
    let (mut completed, mut failed) = (0u64, 0u64);
    for (kind, outcome) in &outcomes {
        let Ok(r) = outcome else {
            failed += 1;
            continue;
        };
        completed += 1;
        match kind {
            RequestKind::Bfs { source } => {
                assert_eq!(r.values.levels(), Some(&bfs_want[*source as usize][..]));
            }
            RequestKind::Sssp { source, .. } => {
                assert_eq!(r.values.distances(), Some(&sssp_want[*source as usize][..]));
            }
            _ => assert!(r.values.ranks().unwrap().iter().all(|x| x.is_finite())),
        }
    }
    assert_eq!(completed + failed, admitted);
    assert_eq!(failed, 0, "no deadline and no stop: nothing may fail");
    let stats = svc.stats();
    assert_eq!(
        (stats.submitted, stats.completed, stats.failed),
        (admitted, completed, failed)
    );
    assert_eq!(
        (stats.rejected_queue_full, stats.rejected_memory),
        (rejected_queue_full, rejected_memory)
    );
}

/// Admission over arbitrary requests.
mod admission {
    use super::*;
    use proptest::prelude::*;

    /// Vertices of the property's graph. Sources are drawn in `0..2 * N`, so
    /// about half are out of range; ingest endpoints in `0..N + 8`, so a
    /// short op list is often valid and changes the graph.
    const N: u32 = 64;

    /// PageRank's iteration cap on the property's graph, `2·|V| + 64`.
    const CAP: usize = 2 * N as usize + 64;

    /// One drawn request: `((kind, source), delta, iters, ingest ops)`, each
    /// op `(delete?, src, dst, weight)`. Zero deltas, self-loops, zero
    /// weights and rounds past [`CAP`] are in range.
    type Drawn = ((u8, u32), u64, usize, Vec<(u8, u32, u32, u32)>);

    fn drawn_kind(((kind, source), delta, iters, ops): Drawn) -> RequestKind {
        match kind {
            0 => RequestKind::Bfs { source },
            1 => RequestKind::Sssp { source, delta },
            2 => RequestKind::PageRank { iters },
            _ => {
                let mut batch = DeltaBatch::new();
                for (delete, src, dst, w) in ops {
                    match delete {
                        0 => batch.insert(src, dst, w),
                        _ => batch.delete(src, dst),
                    };
                }
                RequestKind::Ingest { batch }
            }
        }
    }

    // Admission never panics: whatever is asked, `submit` returns a ticket or
    // a typed `invalid-config`, and nothing rejected moves the ledger. Every
    // ticket then resolves to the oracle's answer on the graph at the epoch
    // its response carries, ingests interleaved with queries on two workers.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn admission_never_panics_and_every_ticket_meets_the_oracle(
            drawn in proptest::collection::vec(
                (
                    (0u8..4, 0..2 * N),
                    0u64..3,
                    // A quarter of the draws at the cap or one round off it.
                    (0u8..4, 0usize..40).prop_map(|(near, iters)| match near {
                        0 => CAP - 1 + iters % 3,
                        _ => iters,
                    }),
                    proptest::collection::vec((0u8..2, 0..N + 8, 0..N + 8, 0u32..3), 0..5),
                ),
                1..16,
            )
        ) {
            // Canonical, so the loaded graph is the mutable graph at epoch 0.
            let raw = Graph::from_edges(&gen::rmat(6, 512, gen::RMAT_GRAPH500, 29));
            let g = Graph::from_edges(&MutableGraph::from_graph(&raw).snapshot_edge_list());
            let n = g.num_vertices();
            prop_assert_eq!(n, N as usize);
            let cfg = ServeConfig {
                workers: 2,
                ..cfg_on(Backend::real_threads())
            };
            let svc = GraphService::new(g.clone(), cfg).unwrap();
            svc.pause();
            let mut tickets = Vec::new();
            for d in drawn {
                let kind = drawn_kind(d);
                let admitted = match svc.submit(kind.clone()) {
                    Ok(t) => {
                        tickets.push((kind.clone(), t));
                        true
                    }
                    Err(e) => {
                        prop_assert_eq!(e.code(), "invalid-config", "{:?}", kind);
                        false
                    }
                };
                if let RequestKind::PageRank { iters } = kind {
                    prop_assert_eq!(admitted, iters <= CAP, "PageRank({})", iters);
                }
            }
            prop_assert_eq!(svc.stats().submitted, tickets.len() as u64);
            svc.resume();
            let answered: Vec<_> = tickets
                .into_iter()
                .map(|(kind, t)| (kind, t.wait().unwrap()))
                .collect();

            // The graph at every epoch: ingests apply in the order of the
            // epochs they report, whichever worker took them.
            let mut ingests: Vec<_> = answered
                .iter()
                .filter_map(|(kind, r)| match kind {
                    RequestKind::Ingest { batch } => Some((r.epoch, batch, &r.values)),
                    _ => None,
                })
                .collect();
            ingests.sort_by_key(|&(epoch, ..)| epoch);
            let mut mirror = MutableGraph::from_graph(&g);
            let mut at_epoch = vec![mirror.clone()];
            for (epoch, batch, values) in ingests {
                prop_assert_eq!(epoch, at_epoch.len() as u64);
                let applied = mirror.apply(batch).unwrap();
                prop_assert_eq!(values, &ResponseValues::Ingested(applied.stats));
                at_epoch.push(mirror.clone());
            }
            for (kind, r) in &answered {
                let graph = &at_epoch[r.epoch as usize];
                match *kind {
                    RequestKind::Bfs { source } => {
                        let want = run_reference(graph, &Bfs::new(source)).0;
                        prop_assert_eq!(r.values.levels().unwrap(), &want[..], "{:?}", kind);
                    }
                    RequestKind::Sssp { source, delta } => {
                        let want = run_reference(graph, &Sssp::new(source).with_delta(delta)).0;
                        prop_assert_eq!(r.values.distances().unwrap(), &want[..], "{:?}", kind);
                    }
                    RequestKind::PageRank { iters } => {
                        let want = run_reference(graph, &PageRank::new(n).with_iters(iters)).0;
                        let err = max_rel_error(r.values.ranks().unwrap(), &want);
                        prop_assert!(err < 1e-9, "{:?} off by {}", kind, err);
                    }
                    RequestKind::Ingest { .. } => {}
                }
            }
            let stats = svc.stats();
            prop_assert_eq!(stats.submitted, stats.completed + stats.failed);
            prop_assert_eq!(stats.failed, 0);
        }
    }
}
