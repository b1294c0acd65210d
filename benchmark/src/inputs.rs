//! Every input the benchmark feeds the program, made from `--seed`.
//!
//! Seed 0 reproduces the repository's own dataset seeds (`Rmat24S`,
//! `Rmat27S` in `polymer_graph::datasets`); any other value is XOR-ed into
//! them and into the source / request / batch streams, so one seed fixes
//! the whole run and two seeds share nothing but the shape. The road grid
//! is the exception: see [`road`].

use polymer_graph::{gen, DeltaBatch, EdgeList, Graph, VId};
use polymer_serve::RequestKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dataset seed of `DatasetId::Rmat24S`.
pub const RMAT24_SEED: u64 = 24;
/// Dataset seed of `DatasetId::Rmat27S`, the family used off the simulator.
pub const RMAT27_SEED: u64 = 27;
/// Dataset seed of `DatasetId::RoadUsS`.
const ROAD_SEED: u64 = 0xD1CE;
/// Stream tags keeping the request, source and batch generators apart.
const SOURCES_TAG: u64 = 0x5EED_50C5;
const REQUESTS_TAG: u64 = 0x5EED_0E95;
const BATCHES_TAG: u64 = 0x5EED_BA7C;

/// Graph500 R-MAT, `2^scale` vertices and `edge_factor << scale` edges —
/// the generator call `dataset(Rmat24S | Rmat27S, ..)` makes, with the
/// benchmark seed folded into the dataset's own.
pub fn rmat(dataset_seed: u64, scale: u32, edge_factor: usize, seed: u64) -> EdgeList {
    gen::rmat(
        scale,
        edge_factor << scale,
        gen::RMAT_GRAPH500,
        dataset_seed ^ seed,
    )
}

/// `side × side` road grid: the `RoadUsS` dataset itself, whatever the seed.
/// On this graph the amount of work is a property of the input, and a
/// chaotic one. A fresh topology moves traversal depth by ±10 % (and
/// collapses it when the source lands in a small component); fresh weights —
/// even on one road in sixteen — move the simulated bytes of a label-
/// correcting SSSP by ±13 % and its host time by up to 1.4×; so does a
/// neighbouring source. Differences like that between seeds say nothing
/// about the code under test and would have to be bought with a bound too
/// wide to gate anything, so `sim-sparse` is the one workload whose input
/// the seed does not touch.
pub fn road(side: usize) -> EdgeList {
    gen::road_grid(side, side, 0.6, ROAD_SEED)
}

/// The traversal source `Workload::prepare` picks: the maximum-out-degree
/// vertex.
pub fn max_degree_source(g: &Graph) -> VId {
    (0..g.num_vertices() as VId)
        .max_by_key(|&v| g.out_degree(v))
        .unwrap_or(0)
}

/// `count` distinct query sources with at least one out-edge.
pub fn source_pool(g: &Graph, count: usize) -> Vec<VId> {
    let mut rng = StdRng::seed_from_u64(SOURCES_TAG);
    let n = g.num_vertices() as VId;
    let mut pool = Vec::with_capacity(count);
    while pool.len() < count {
        let v = rng.gen_range(0..n);
        if g.out_degree(v) > 0 && !pool.contains(&v) {
            pool.push(v);
        }
    }
    pool
}

/// SSSP bucket width every served SSSP request uses (one coalescing class).
pub const SSSP_DELTA: u64 = 100;
/// PageRank iterations of a served request.
pub const SERVE_PR_ITERS: usize = 3;

/// The queries of one cycle of a serving workload, by kind.
#[derive(Clone, Copy)]
pub struct Mix {
    pub bfs: usize,
    pub sssp: usize,
    pub pagerank: usize,
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Sources handed out one at a time: every source once, in shuffled order,
/// then every source once more in a new order, and so on.
struct Passes {
    order: Vec<VId>,
    next: usize,
}

impl Passes {
    fn take(&mut self, rng: &mut StdRng) -> VId {
        if self.next == 0 {
            shuffle(&mut self.order, rng);
        }
        let source = self.order[self.next];
        self.next = (self.next + 1) % self.order.len();
        source
    }
}

/// `count` cycles of query requests, each holding exactly `mix` in shuffled
/// order. BFS sources go through the whole pool pass after pass, SSSP sources
/// through its first half. The seed decides every order and nothing else:
/// whatever it is, a segment sends the same requests, every cycle has the
/// same make-up, and a source comes round once per pass — so the work of a
/// segment barely depends on the draw, which it would if requests were drawn
/// one by one (see README, "Inputs and the seed").
pub fn query_cycles(pool: &[VId], mix: Mix, count: usize, seed: u64) -> Vec<Vec<RequestKind>> {
    let mut rng = StdRng::seed_from_u64(REQUESTS_TAG ^ seed);
    let mut bfs = Passes {
        order: pool.to_vec(),
        next: 0,
    };
    let mut sssp = Passes {
        order: pool[..pool.len() / 2].to_vec(),
        next: 0,
    };
    (0..count)
        .map(|_| {
            let mut cycle = Vec::with_capacity(mix.bfs + mix.sssp + mix.pagerank);
            for _ in 0..mix.bfs {
                cycle.push(RequestKind::Bfs {
                    source: bfs.take(&mut rng),
                });
            }
            for _ in 0..mix.sssp {
                cycle.push(RequestKind::Sssp {
                    source: sssp.take(&mut rng),
                    delta: SSSP_DELTA,
                });
            }
            for _ in 0..mix.pagerank {
                cycle.push(RequestKind::PageRank {
                    iters: SERVE_PR_ITERS,
                });
            }
            shuffle(&mut cycle, &mut rng);
            cycle
        })
        .collect()
}

/// `count` mutation batches of `ops` operations each: three inserts to one
/// delete, uniform endpoints, weights 1–99. Deletes name edges of the
/// seed graph, so most of them hit.
pub fn ingest_batches(g: &Graph, count: usize, ops: usize) -> Vec<DeltaBatch> {
    let mut rng = StdRng::seed_from_u64(BATCHES_TAG);
    let n = g.num_vertices() as VId;
    (0..count)
        .map(|_| {
            let mut b = DeltaBatch::new();
            for k in 0..ops {
                let src = rng.gen_range(0..n);
                if k % 4 == 3 && g.out_degree(src) > 0 {
                    let nbrs = g.out_neighbors(src);
                    b.delete(src, nbrs[rng.gen_range(0..nbrs.len())]);
                } else {
                    let mut dst = rng.gen_range(0..n);
                    if dst == src {
                        dst = (dst + 1) % n;
                    }
                    b.insert(src, dst, rng.gen_range(1..100u32));
                }
            }
            b
        })
        .collect()
}
