//! Micro-probes of single layers, run after the workload in a traced run.
//!
//! Each probe times calls into one layer's public functions from outside,
//! on a small seeded graph of its own (R-MAT 2^14 × 8), so the same probe
//! reads the same thing under every workload. A probe reports the median
//! of its repetitions.

use std::hint::black_box;
use std::time::Instant;

use polymer_algos::{
    bfs_overlay, pagerank_overlay, run_multi_source, run_reference, Bfs, MultiSource, PageRank,
    WarmStart, DEFAULT_PR_TOL,
};
use polymer_api::supervisor::{RunSupervisor, SupervisorConfig};
use polymer_api::{Backend, Engine, OverlayTopo};
use polymer_core::layout::PolymerLayout;
use polymer_core::PolymerEngine;
use polymer_graph::{EdgeList, Graph, MutableGraph};
use polymer_numa::{AllocPolicy, Machine, MachineSpec, SimExecutor};
use polymer_serve::{GraphService, RequestKind, ServeConfig};
use polymer_sync::{FrontierRepr, HierBarrier, SenseBarrier};

use crate::harness::{median, self_times_s, Outcome, Recorder};
use crate::{inputs, Opts};

/// Median seconds of `reps` calls of `f`.
fn time_s<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Nanoseconds per crossing of a two-thread barrier, median of five
/// rounds; `wait(thread)` is the barrier call.
fn barrier_ns(crossings: usize, wait: impl Fn(usize) + Sync) -> f64 {
    let round = || {
        let t = Instant::now();
        std::thread::scope(|s| {
            for tid in 0..2 {
                let wait = &wait;
                s.spawn(move || {
                    for _ in 0..crossings {
                        wait(tid);
                    }
                });
            }
        });
        t.elapsed().as_secs_f64() * 1e9 / crossings as f64
    };
    median(&(0..5).map(|_| round()).collect::<Vec<_>>())
}

/// Run every probe and add its metrics to `outcome`.
pub fn run(opts: &Opts, outcome: &mut Outcome) {
    let (m, rec) = (&mut outcome.metrics, &mut outcome.rec);
    rec.set_on(true);
    let root = rec.start("probes", "bench", Recorder::root(), 0);
    let quick = opts.quick;
    let reps = if quick { 3 } else { 9 };
    let scale = if quick { 10 } else { 14 };
    let g = Graph::from_edges(&inputs::rmat(inputs::RMAT24_SEED, scale, 8, opts.seed));
    let n = g.num_vertices();
    let source = inputs::max_degree_source(&g);
    let intel = MachineSpec::intel80();
    let real = Backend::real_threads();
    let engine = PolymerEngine::new();

    // numa: the simulated machine's fixed and per-element host costs.
    let open = rec.start("numa probes", "numa", root, 0);
    m.push(
        "numa.machine_new_ms",
        time_s(reps, || Machine::new(intel.clone())) * 1e3,
        "ms",
    );
    let machine = Machine::new(intel.clone());
    let mut sim = SimExecutor::new(&machine, 80);
    let phases = if quick { 200 } else { 2000 };
    m.push(
        "numa.phase_overhead_us",
        time_s(reps, || {
            for _ in 0..phases {
                sim.run_phase("noop", |_, _| {});
                sim.charge_barrier();
            }
        }) * 1e6
            / phases as f64,
        "us",
    );
    m.push(
        "numa.shard_phase_us",
        time_s(reps, || {
            // The same empty phase through the split entry point, which
            // under the default mode spawns a host thread per socket.
            for _ in 0..phases / 10 {
                sim.run_phase_split("noop", |_, _| (), |_, _, ()| {});
                sim.charge_barrier();
            }
        }) * 1e6
            / (phases / 10) as f64,
        "us",
    );
    let len = if quick { 1 << 16 } else { 4 << 20 };
    let a = machine.alloc_atomic::<u64>("probe/a", len, AllocPolicy::Interleaved);
    let b =
        machine.alloc_atomic_with::<u64>("probe/b", len, AllocPolicy::Interleaved, |i| i as u64);
    let c = machine
        .alloc_atomic_with::<u64>("probe/c", len, AllocPolicy::Interleaved, |i| 2 * i as u64);
    let chunk = len / 80;
    m.push(
        "numa.seq_ns_per_elem",
        time_s(reps, || {
            // STREAM triad through the bulk accessors, one chunk per
            // simulated thread.
            sim.run_phase("triad", |tid, ctx| {
                let r = tid * chunk..(tid + 1) * chunk;
                let mut cs = c.iter_seq(ctx, r.clone());
                let bs: Vec<u64> = b.iter_seq(ctx, r.clone()).collect();
                a.store_seq(ctx, r.clone(), |i| {
                    bs[i - r.start].wrapping_add(3u64.wrapping_mul(cs.next().unwrap_or(0)))
                });
            });
        }) * 1e9
            / (80 * chunk) as f64,
        "ns",
    );
    let touches = if quick { 1 << 8 } else { 1 << 13 };
    m.push(
        "numa.rand_ns_per_access",
        time_s(reps, || {
            sim.run_phase("gather", |tid, ctx| {
                let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tid as u64 + 1);
                let mut acc = 0u64;
                for _ in 0..touches {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    acc = acc.wrapping_add(b.load(ctx, (x % len as u64) as usize));
                }
                black_box(acc);
            });
        }) * 1e9
            / (80 * touches) as f64,
        "ns",
    );
    drop((a, b, c, sim));
    rec.end(open);

    // sync: what a barrier crossing and a frontier rebuild cost the
    // real-thread backend.
    let open = rec.start("sync probes", "sync", root, 0);
    let crossings = if quick { 2_000 } else { 50_000 };
    let sense = SenseBarrier::new(2);
    m.push(
        "sync.barrier_ns",
        barrier_ns(crossings, |_| {
            sense.wait();
        }),
        "ns",
    );
    let hier = HierBarrier::new(&[1, 1]);
    m.push(
        "sync.hier_barrier_ns",
        barrier_ns(crossings, |tid| {
            hier.wait(tid);
        }),
        "ns",
    );
    let items: Vec<u32> = (0..n as u32).collect();
    m.push(
        "sync.frontier_rebuild_ns_per_v",
        time_s(reps, || {
            FrontierRepr::rebuild(
                items.clone(),
                g.num_edges() as u64,
                g.num_edges() as u64,
                true,
                true,
                |it| {
                    let mut bits = vec![0u64; n.div_ceil(64)];
                    for &v in it {
                        bits[v as usize / 64] |= 1 << (v % 64);
                    }
                    bits
                },
            )
        }) * 1e9
            / n as f64,
        "ns",
    );
    rec.end(open);

    // api: the real-thread executor's fixed and per-edge cost, the overlay
    // build, and what supervision adds to a run.
    let open = rec.start("api probes", "api", root, 0);
    let tiny = Graph::from_edges(&EdgeList::from_pairs(
        256,
        (0..256u32).flat_map(|v| [(v, (v + 1) % 256), (v, (v * 7 + 3) % 256)]),
    ));
    let small = Machine::new(MachineSpec::test2());
    let direct_tiny = time_s(4 * reps, || {
        engine
            .try_run_on(&real, &small, 2, &tiny, &Bfs::new(0))
            .expect("probe run")
    });
    m.push("api.real_fixed_ms", direct_tiny * 1e3, "ms");
    let pr = PageRank::new(n);
    let real_pr_s = time_s(reps, || {
        engine
            .try_run_on(&real, &small, 2, &g, &pr)
            .expect("probe run")
    });
    m.push(
        "api.real_medges_per_s",
        5.0 * g.num_edges() as f64 / 1e6 / real_pr_s,
        "1/s",
    );
    let supervisor = RunSupervisor::new(SupervisorConfig::default());
    let supervised_tiny = time_s(4 * reps, || {
        supervisor
            .run(
                &engine,
                &real,
                &MachineSpec::test2(),
                2,
                &tiny,
                &Bfs::new(0),
            )
            .expect("probe run")
    });
    m.push(
        "api.supervisor_overhead_us",
        (supervised_tiny - direct_tiny) * 1e6,
        "us",
    );
    let mut mg = MutableGraph::from_graph(&g);
    let batch = &inputs::ingest_batches(&g, 1, 64)[0];
    let cold_machine = Machine::new(MachineSpec::test2());
    let cold_topo = OverlayTopo::build(&cold_machine, &mg, true, |_| AllocPolicy::Interleaved);
    let applied = mg.apply(batch).expect("generated batch is valid");
    m.push(
        "api.overlay_build_ms",
        time_s(reps, || {
            let machine = Machine::new(MachineSpec::test2());
            OverlayTopo::build(&machine, &mg, true, |_| AllocPolicy::Interleaved)
        }) * 1e3,
        "ms",
    );
    rec.end(open);

    // core: Polymer's per-run layout construction.
    let open = rec.start("core probes", "core", root, 0);
    m.push(
        "core.layout_build_ms",
        time_s(reps, || {
            let machine = Machine::new(intel.clone());
            PolymerLayout::build(&machine, &g, &[10; 8], true, true, true)
        }) * 1e3,
        "ms",
    );
    rec.end(open);

    // algos: the plain baseline, the multi-source sweep the service
    // coalesces into, and the warm-start engines it answers with after a
    // mutation.
    let open = rec.start("algos probes", "algos", root, 0);
    let ref_pr_s = time_s(reps, || run_reference(&g, &pr));
    m.push("algos.real_vs_ref_speedup", ref_pr_s / real_pr_s, "ratio");
    let lanes: Vec<u32> = inputs::source_pool(&g, 16);
    let multi = MultiSource::from_sources(&Bfs::new(0), &lanes).expect("valid lanes");
    let sweep_s = time_s(reps, || {
        run_multi_source(&small, 1, &g, &multi).expect("probe sweep")
    });
    let solo_s = time_s(reps, || {
        for &s in &lanes {
            black_box(
                engine
                    .try_run_on(&real, &small, 1, &g, &Bfs::new(s))
                    .expect("probe run"),
            );
        }
    });
    m.push("algos.multi_sweep_ms", sweep_s * 1e3, "ms");
    m.push("algos.multi_speedup", solo_s / sweep_s, "ratio");
    let warm_machine = Machine::new(MachineSpec::test2());
    let warm_topo = OverlayTopo::build(&warm_machine, &mg, true, |_| AllocPolicy::Interleaved);
    let prior = bfs_overlay(&cold_machine, 1, &cold_topo, source, None, false).expect("cold BFS");
    let cold_s = time_s(reps, || {
        bfs_overlay(&warm_machine, 1, &warm_topo, source, None, false).expect("cold BFS")
    });
    let warm_s = time_s(reps, || {
        let warm = WarmStart::from_result(&prior, &applied);
        bfs_overlay(&warm_machine, 1, &warm_topo, source, Some(warm), false).expect("warm BFS")
    });
    m.push("algos.warm_vs_cold", cold_s / warm_s, "ratio");
    m.push(
        "algos.pr_overlay_ms",
        time_s(reps.min(3), || {
            pagerank_overlay(
                &warm_machine,
                1,
                &warm_topo,
                0.85,
                DEFAULT_PR_TOL,
                None,
                false,
            )
            .expect("overlay PageRank")
        }) * 1e3,
        "ms",
    );
    rec.end(open);

    // serve: what the queue, the pool and the supervisor add to one solo
    // request over the same run called directly.
    let open = rec.start("serve probes", "serve", root, 0);
    let svc = GraphService::new(
        g.clone(),
        ServeConfig {
            workers: 1,
            threads_per_request: 1,
            ..ServeConfig::default()
        },
    )
    .expect("valid serve config");
    // Served and direct runs alternate, so drift hits both alike. The
    // direct run is the supervised run the service makes for a solo request.
    let (mut served, mut direct) = (Vec::new(), Vec::new());
    for _ in 0..8 * reps {
        served.push(time_s(1, || {
            svc.submit(RequestKind::Bfs { source })
                .and_then(|t| t.wait())
                .expect("probe request")
        }));
        direct.push(time_s(1, || {
            supervisor
                .run(
                    &engine,
                    &real,
                    &MachineSpec::test2(),
                    1,
                    &g,
                    &Bfs::new(source),
                )
                .expect("probe run")
        }));
    }
    svc.stop();
    let (served_s, direct_s) = (median(&served), median(&direct));
    m.push("serve.solo_overhead_ms", (served_s - direct_s) * 1e3, "ms");
    rec.end(open);

    // trace: what the program's own phase tracing costs when it is on.
    let open = rec.start("trace probes", "trace", root, 0);
    let plain_s = time_s(reps, || {
        engine.run(&Machine::new(intel.clone()), 80, &g, &pr)
    });
    let mut spans = 0usize;
    let traced_s = time_s(reps, || {
        let r = engine.run_traced(&Machine::new(intel.clone()), 80, &g, &pr);
        spans = r.trace().map_or(0, |t| t.phases.len() + t.barriers.len());
    });
    m.push("trace.overhead_ratio", traced_s / plain_s, "ratio");
    m.push("trace.spans_per_run", spans as f64, "count");
    rec.end(open);

    rec.end(root);
}

/// Metrics read off the benchmark's own spans: how many there are, and how
/// much of a traced trial is the harness itself rather than a layer.
pub fn span_metrics(outcome: &mut Outcome) {
    let spans = outcome.rec.spans();
    let own = self_times_s(spans);
    let harness: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "trial" || s.name == "segment-client")
        .map(|(i, _)| {
            // The trial's own self time plus that of the bench-layer spans
            // directly under it (the per-request envelopes).
            let id = Some(i as u32);
            own[i]
                + spans
                    .iter()
                    .zip(&own)
                    .filter(|(s, _)| s.parent == id && s.layer == "bench")
                    .map(|(_, o)| o)
                    .sum::<f64>()
        })
        .collect();
    let harness_ms = if harness.is_empty() {
        0.0
    } else {
        median(&harness) * 1e3
    };
    let count = spans.len();
    let m = &mut outcome.metrics;
    m.push("bench.harness_self_ms", harness_ms, "ms");
    m.push("bench.spans", count as f64, "count");
}
