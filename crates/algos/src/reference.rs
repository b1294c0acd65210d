//! The sequential reference executor: the iteration semantics of
//! [`polymer_api::Program`], executed directly on host memory with no
//! simulation, no partitioning, and no concurrency. Every engine's output is
//! checked against this oracle by the integration tests.

use polymer_api::{FrontierInit, Program};
use polymer_graph::Topology;

/// Run `prog` on `g` (a CSR, or a `MutableGraph` as the oracle of a mutated
/// graph) sequentially. Returns the final values and the number
/// of iterations executed. The caller must pass an already-symmetrized graph
/// for an algorithm defined over the undirected graph (CC; the harness's
/// `AlgoId::needs_symmetric` does this for every engine uniformly).
pub fn run_reference<T: Topology, P: Program>(g: &T, prog: &P) -> (Vec<P::Val>, usize) {
    let mut last = run_reference_rounds(g, prog, &[prog.max_iters()]);
    last.pop().expect("one round asked")
}

/// One [`run_reference`] run to the last of `rounds` (ascending), copied out
/// after each: entry *i* is `run_reference` of `prog` capped at `rounds[i]`
/// iterations, values and iterations run. For a program whose `max_iters`
/// is only a cap, such as [`crate::PageRank`], one run answers every cap.
pub fn run_reference_rounds<T: Topology, P: Program>(
    g: &T,
    prog: &P,
    rounds: &[usize],
) -> Vec<(Vec<P::Val>, usize)> {
    assert!(rounds.is_sorted(), "rounds must be ascending");
    let n = g.num_vertices();
    let mut curr: Vec<P::Val> = (0..n).map(|v| prog.init(v as u32)).collect();
    let mut frontier: Vec<u32> = match prog.initial_frontier() {
        FrontierInit::All => (0..n as u32).collect(),
        FrontierInit::Single(s) => {
            assert!((s as usize) < n, "source vertex out of range");
            vec![s]
        }
    };

    let identity = prog.next_identity();
    let mut next: Vec<P::Val> = vec![identity; n];
    let mut updated: Vec<bool> = vec![false; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut copies = Vec::with_capacity(rounds.len());

    let cap = rounds.last().map_or(0, |&last| last.min(prog.max_iters()));
    let mut iters = 0usize;
    while !frontier.is_empty() && iters < cap {
        // Copy out the rounds that end here while the run goes on.
        while rounds.get(copies.len()) == Some(&iters) {
            copies.push((curr.clone(), iters));
        }

        // Scatter: fold contributions of active out-edges into next.
        for &s in &frontier {
            let deg = g.out_degree(s) as u32;
            let sv = curr[s as usize];
            for (t, w) in g.out_edges(s) {
                let c = prog.scatter(s, sv, w, deg);
                let t = t as usize;
                next[t] = prog.combine().fold(next[t], c);
                if !updated[t] {
                    updated[t] = true;
                    touched.push(t as u32);
                }
            }
        }

        // Apply: fold updated vertices into curr and build the new frontier.
        let mut new_frontier = Vec::new();
        for &t in &touched {
            let ti = t as usize;
            let (val, alive) = prog.apply(t, next[ti], curr[ti]);
            curr[ti] = val;
            if alive {
                new_frontier.push(t);
            }
            next[ti] = identity;
            updated[ti] = false;
        }
        touched.clear();
        new_frontier.sort_unstable();
        frontier = new_frontier;
        iters += 1;
    }

    // Every round left ends at or past the last iteration run.
    copies.resize(rounds.len(), (curr, iters));
    copies
}

/// Maximum relative error between two float value vectors (for comparing
/// engines whose summation order differs).
pub fn max_rel_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let denom = x.abs().max(y.abs()).max(1e-30);
            (x - y).abs() / denom
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bfs, ConnectedComponents, PageRank, SpMV, Sssp, UNREACHED, UNVISITED};
    use polymer_graph::{gen, EdgeList, Graph, MutableGraph};
    use proptest::prelude::*;

    /// The cap of the runs below: past the round at which PageRank's
    /// frontier empties on the acyclic graphs they draw.
    const CAP: usize = 200;

    /// Copies out of one PageRank run capped at [`CAP`] — at `rounds`, at
    /// round 0, and at the last round the run makes and its neighbours, one
    /// of them past the cap — each equal the run capped there, bit for bit.
    /// Returns that last round: below `CAP` once the frontier empties, which
    /// on a cyclic graph it need not (a vertex leaves the frontier when its
    /// rank moves by at most ε, and comes back when a neighbour's leaving
    /// moves it again).
    fn rounds_match_capped_runs<T: Topology>(g: &T, rounds: &[usize]) -> usize {
        let pr = |k: usize| PageRank::new(g.num_vertices()).with_iters(k.min(CAP));
        let last = run_reference(g, &pr(CAP)).1;
        let mut rounds = rounds.to_vec();
        rounds.extend([0, last.saturating_sub(1), last, last + 1, CAP + 1]);
        rounds.sort_unstable();
        let copies = run_reference_rounds(g, &pr(CAP), &rounds);
        assert_eq!(copies.len(), rounds.len());
        for (&k, copy) in rounds.iter().zip(&copies) {
            assert_eq!(copy, &run_reference(g, &pr(k)), "round {k}");
        }
        last
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // On a CSR and on a mutated graph, cyclic and acyclic (every edge
        // from the lower id to the higher or a self-loop, before and after
        // the batch), with repeated rounds and rounds past the frontier's
        // last.
        #[test]
        fn one_run_copies_out_each_capped_round(
            seed in 0u64..10_000,
            n in 2usize..=64,
            rounds in proptest::collection::vec(0usize..160, 0..6),
        ) {
            let acyclic = |e: &mut polymer_graph::Edge| {
                (e.src, e.dst) = (e.src.min(e.dst), e.src.max(e.dst));
            };
            let cyclic = gen::uniform(n, 3 * n, seed);
            let mut dag = cyclic.clone();
            dag.edges.iter_mut().for_each(acyclic);
            for (el, is_dag) in [(cyclic, false), (dag, true)] {
                let last = rounds_match_capped_runs(&Graph::from_edges(&el), &rounds);
                prop_assert!(last < CAP || !is_dag);
                let mut mg = MutableGraph::from_edge_list(el);
                let mut batch = gen::mixed_batch(&mg, seed, n / 2 + 1, false);
                if is_dag {
                    batch.inserts.iter_mut().for_each(acyclic);
                }
                mg.apply(&batch).unwrap();
                let last = rounds_match_capped_runs(&mg, &rounds);
                prop_assert!(last < CAP || !is_dag);
            }
        }
    }

    fn chain() -> Graph {
        // 0 -> 1 -> 2 -> 3 with weights 5, 10, 20.
        let mut el = EdgeList::new(4);
        el.edges.push(polymer_graph::Edge::weighted(0, 1, 5));
        el.edges.push(polymer_graph::Edge::weighted(1, 2, 10));
        el.edges.push(polymer_graph::Edge::weighted(2, 3, 20));
        Graph::from_edges(&el)
    }

    #[test]
    fn bfs_reaches_in_hop_order() {
        let g = chain();
        let (levels, iters) = run_reference(&g, &Bfs::new(0));
        assert_eq!(levels, vec![0, 1, 2, 3]);
        assert_eq!(iters, 4); // 3 discovery rounds + 1 empty-growth round.
    }

    #[test]
    fn bfs_unreachable_stays_unvisited() {
        let g = Graph::from_edges(&EdgeList::from_pairs(3, [(0, 1)]));
        let (levels, _) = run_reference(&g, &Bfs::new(0));
        assert_eq!(levels, vec![0, 1, UNVISITED]);
    }

    #[test]
    fn sssp_exact_distances() {
        let g = chain();
        let (dist, _) = run_reference(&g, &Sssp::new(0));
        assert_eq!(dist, vec![0, 5, 15, 35]);
    }

    #[test]
    fn sssp_prefers_shorter_path() {
        // 0->1 (100), 0->2 (1), 2->1 (1): shortest 0->1 is 2.
        let mut el = EdgeList::new(3);
        el.edges.push(polymer_graph::Edge::weighted(0, 1, 100));
        el.edges.push(polymer_graph::Edge::weighted(0, 2, 1));
        el.edges.push(polymer_graph::Edge::weighted(2, 1, 1));
        let (dist, _) = run_reference(&Graph::from_edges(&el), &Sssp::new(0));
        assert_eq!(dist, vec![0, 2, 1]);
        assert_ne!(dist[1], UNREACHED);
    }

    #[test]
    fn cc_labels_min_id_per_component() {
        // Two components {0,1,2} and {3,4}; CC runs on symmetrized input.
        let mut el = EdgeList::from_pairs(5, [(1, 0), (1, 2), (4, 3)]);
        el.symmetrize();
        let g = Graph::from_edges(&el);
        let (labels, _) = run_reference(&g, &ConnectedComponents::new());
        assert_eq!(labels, vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn pagerank_mass_behaviour() {
        // A 4-cycle: symmetric, so ranks stay uniform at 1/n.
        let g = Graph::from_edges(&EdgeList::from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)]));
        let (ranks, iters) = run_reference(&g, &PageRank::new(4));
        for r in &ranks {
            assert!((r - 0.25).abs() < 1e-12);
        }
        // Uniform from the start: converged after one iteration's check.
        assert!(iters <= 5);
    }

    #[test]
    fn pagerank_star_concentrates_rank() {
        // Leaves 1..=3 all point at 0.
        let g = Graph::from_edges(&EdgeList::from_pairs(4, [(1, 0), (2, 0), (3, 0)]));
        let (ranks, _) = run_reference(&g, &PageRank::new(4));
        assert!(ranks[0] > ranks[1]);
        assert!(ranks[0] > 0.5);
    }

    #[test]
    fn spmv_runs_fixed_iterations() {
        // A cycle keeps every vertex receiving contributions, so the run is
        // capped by the iteration limit rather than frontier exhaustion.
        let g = Graph::from_edges(&EdgeList::from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)]));
        let (vals, iters) = run_reference(&g, &SpMV::new());
        assert_eq!(iters, 5);
        assert!(vals.iter().all(|v| v.is_finite()));
        // On a chain the frontier drains before the cap.
        let (_, chain_iters) = run_reference(&chain(), &SpMV::new());
        assert_eq!(chain_iters, 4);
    }

    #[test]
    fn max_rel_error_detects_divergence() {
        assert_eq!(max_rel_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((max_rel_error(&[1.0], &[1.1]) - 0.1 / 1.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "source vertex out of range")]
    fn bad_source_rejected() {
        let g = Graph::from_edges(&EdgeList::from_pairs(2, [(0, 1)]));
        run_reference(&g, &Bfs::new(9));
    }
}
