//! Warm repair of a converged traversal on host memory — the product copy
//! of monotone path repair.
//!
//! [`crate::incremental`] runs this repair *charged*: over a placed
//! `OverlayTopo`, every read a simulated access, so its clock says what
//! reading through an overlay costs. That is the model. What
//! `polymer-serve` executes after an ingest is this file: the same steps
//! (proofs in `docs/INCREMENTAL.md`) over any [`Topology`] — the resident
//! `MutableGraph` — and plain `Vec`s owned by the calling thread, in the
//! style of [`crate::multi`]: one writer per cell, nothing placed, nothing
//! shared. The work is proportional to what the batch invalidated, plus one
//! copy of the prior values.
//!
//! The two copies are pinned together by the proptest below: values are
//! bit-identical to [`crate::run_reference`] on the mutated graph (unique
//! minimum fixpoint), and the iteration count equals the charged engine's
//! because the push rounds here are round-synchronous too — every offer of
//! a round is computed from the round-start values before any lands.

use polymer_api::{
    catch_engine_faults, validate_run_config, FrontierInit, PolymerError, PolymerResult, Program,
};
use polymer_graph::{AppliedBatch, Topology, VId, Weight};

use crate::WarmStart;

/// Repair `warm.values` — the converged values of the single-source
/// min-combine `prog` on the graph *before* `warm.batch` — into its values
/// on `g`, the graph after it. Returns them with `warm.iterations` plus the
/// push rounds the repair took: what [`crate::bfs_overlay`] /
/// [`crate::sssp_overlay`] return for the same warm start, without a
/// machine. Sequential, on the calling thread. `warm.batch` is what
/// [`polymer_graph::MutableGraph::apply`] returned, or several of those
/// composed with [`AppliedBatch::merged_with`].
///
/// The front door is the engines': an out-of-range source (or a program
/// without one) is a typed `invalid-config` error, and a panic in the body —
/// a prior of the wrong length, a batch naming a vertex `g` does not have —
/// is converted instead of unwinding into the caller.
pub fn warm_repair<T: Topology, P: Program<Val: PartialOrd>>(
    g: &T,
    prog: &P,
    warm: WarmStart<'_, P::Val>,
) -> PolymerResult<(Vec<P::Val>, usize)> {
    let n = g.num_vertices();
    validate_run_config(1, n, prog)?;
    let FrontierInit::Single(root) = prog.initial_frontier() else {
        return Err(PolymerError::InvalidConfig(
            "warm repair requires a single-source program".to_string(),
        ));
    };
    catch_engine_faults(|| {
        assert_eq!(warm.values.len(), n, "warm-start value count mismatch");
        let mut repair = Repair {
            g,
            prog,
            root,
            identity: prog.next_identity(),
            curr: warm.values.to_vec(),
        };
        let mut frontier = repair.seed(warm.batch);
        // The charged driver's safety cap, re-based like a warm start's.
        let cap = 2 * n + 64;
        let mut rounds = 0;
        while !frontier.is_empty() {
            if rounds >= cap {
                return Err(PolymerError::IterationCapExceeded { cap });
            }
            frontier = repair.push(&frontier);
            rounds += 1;
        }
        Ok((repair.curr, warm.iterations + rounds))
    })
}

/// The repair's state: the values being repaired, owned by one thread.
struct Repair<'a, T, P: Program> {
    g: &'a T,
    prog: &'a P,
    root: VId,
    /// [`Program::next_identity`]: "no value yet", never relaxed from.
    identity: P::Val,
    curr: Vec<P::Val>,
}

impl<T: Topology, P: Program<Val: PartialOrd>> Repair<'_, T, P> {
    /// The offer along an out-edge of `src` at weight `w`, `None` while
    /// `src` has no value.
    fn offer(&self, src: VId, w: Weight) -> Option<P::Val> {
        let sv = self.curr[src as usize];
        let deg = self.g.out_degree(src) as u32;
        (sv != self.identity).then(|| self.prog.scatter(src, sv, w, deg))
    }

    /// Everything before the push rounds: condemn the vertices whose value
    /// lost its last support, reset them, and land the first offers. Returns
    /// the initial push frontier.
    fn seed(&mut self, batch: &AppliedBatch) -> Vec<VId> {
        let (g, identity, root) = (self.g, self.identity, self.root);
        // The weight the prior values were computed with: the live adjacency
        // yields a reweighted pair's new one, `reweighted` (in canonical
        // order, like every list of an applied batch) its old one.
        let rw = &batch.reweighted;
        let old_weight = |s: VId, t: VId, w: Weight| {
            let found = rw.binary_search_by_key(&(s, t), |e| (e.src, e.dst));
            found.map_or(w, |i| rw[i].weight)
        };

        // Targets of removed edges (at the weight they had) that supported
        // their target's value.
        let removed = batch.deletes.iter().chain(&batch.reweighted);
        let mut candidates: Vec<VId> = removed
            .filter(|e| e.dst != root)
            .filter(|e| self.offer(e.src, e.weight) == Some(self.curr[e.dst as usize]))
            .map(|e| e.dst)
            .collect();

        // Waves: a candidate no still-trusted in-neighbour supports at a
        // live weight is condemned, and everything a condemned vertex
        // supported (at the old or the live weight) is the next wave's
        // candidates. Each wave judges against the suspect set it started
        // with and condemns at least one vertex, so this terminates.
        let mut suspect = vec![false; self.curr.len()];
        let mut suspects: Vec<VId> = Vec::new();
        while !candidates.is_empty() {
            candidates.sort_unstable();
            candidates.dedup();
            let unsupported = |&t: &VId| {
                let tv = self.curr[t as usize];
                let trusted = |&(s, _): &(VId, Weight)| !suspect[s as usize];
                t != root
                    && !suspect[t as usize]
                    && tv != identity
                    && !(g.in_edges(t).filter(trusted)).any(|(s, w)| self.offer(s, w) == Some(tv))
            };
            let condemned: Vec<VId> = candidates.iter().copied().filter(unsupported).collect();
            candidates.clear();
            for &s in &condemned {
                suspect[s as usize] = true;
                for (t, w) in g.out_edges(s) {
                    let tv = Some(self.curr[t as usize]);
                    if tv == self.offer(s, old_weight(s, t, w)) || tv == self.offer(s, w) {
                        candidates.push(t);
                    }
                }
            }
            suspects.extend(condemned);
        }

        // Pull each suspect's best offer from its still-trusted in-neighbours
        // (reads touch trusted values only), then reset the suspects.
        let mut offers: Vec<(VId, P::Val)> = Vec::new();
        for &v in &suspects {
            let trusted = g.in_edges(v).filter(|&(s, _)| !suspect[s as usize]);
            let best = trusted
                .filter_map(|(s, w)| self.offer(s, w))
                .fold(identity, |best, c| if c < best { c } else { best });
            if best != identity {
                offers.push((v, best));
            }
        }
        for &v in &suspects {
            self.curr[v as usize] = identity;
        }
        // Graft: a converged source can only improve targets along its NEW
        // edges, one relaxation each, offered from the post-reset values; a
        // reset source's offers arrive through the push rounds.
        let grafts = batch.inserts.iter();
        offers.extend(grafts.filter_map(|e| Some((e.dst, self.offer(e.src, e.weight)?))));
        self.land(&offers)
    }

    /// One round-synchronous push round: every frontier vertex offers along
    /// its out-edges from the round-start values, then the offers land. An
    /// offer that does not beat its target's round-start value never lands
    /// (values only fall) and is not kept.
    fn push(&mut self, frontier: &[VId]) -> Vec<VId> {
        let mut offers: Vec<(VId, P::Val)> = Vec::new();
        for &v in frontier {
            let (sv, deg) = (self.curr[v as usize], self.g.out_degree(v) as u32);
            if sv != self.identity {
                let out = self.g.out_edges(v);
                let offer = out.map(|(t, w)| (t, self.prog.scatter(v, sv, w, deg)));
                offers.extend(offer.filter(|&(t, c)| c < self.curr[t as usize]));
            }
        }
        self.land(&offers)
    }

    /// Take the minimum at each offer's target; the improved targets,
    /// sorted, are the next frontier.
    fn land(&mut self, offers: &[(VId, P::Val)]) -> Vec<VId> {
        let mut improved: Vec<VId> = Vec::new();
        for &(t, c) in offers {
            if c < self.curr[t as usize] {
                self.curr[t as usize] = c;
                improved.push(t);
            }
        }
        improved.sort_unstable();
        improved.dedup();
        improved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bfs_overlay, run_reference, sssp_overlay, Bfs, ConnectedComponents, Sssp};
    use polymer_api::OverlayTopo;
    use polymer_graph::{gen, MutableGraph};
    use polymer_numa::{AllocPolicy, Machine, MachineSpec};
    use proptest::prelude::*;

    const THREADS: usize = 4;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // Sparse graphs (average degree two: most deleted edges are tree
        // edges, and an eighth of the vertices are unreached, so inserts out
        // of and reweights inside the unreached region happen) plus one
        // vertex without any edge, which is one of the sources. A window of
        // three or four batches crosses a compaction.
        #[test]
        fn the_host_repair_equals_the_reference_and_the_charged_engines(
            seed in 0u64..10_000,
            n in 8usize..=300,
            window in 1u64..=4,
            ops in 1usize..40,
        ) {
            let machine = Machine::new(MachineSpec::test2());
            let scale = n.ilog2();
            let graphs = [
                gen::uniform(n, 2 * n, seed),
                gen::rmat(scale, 2 << scale, gen::RMAT_GRAPH500, seed),
            ];
            for mut el in graphs {
                let lone = el.num_vertices as VId;
                el.num_vertices += 1;
                let mut mg =
                    MutableGraph::from_edge_list(el).with_compaction_fraction(f64::INFINITY);
                let sources = [0, (seed % lone as u64) as VId, lone];
                let priors: Vec<_> = sources
                    .iter()
                    .map(|&s| (run_reference(&mg, &Bfs::new(s)), run_reference(&mg, &Sssp::new(s))))
                    .collect();

                let mut batch: Option<AppliedBatch> = None;
                for i in 0..window {
                    if i == 2 {
                        mg.compact();
                    }
                    let applied = mg.apply(&gen::mixed_batch(&mg, seed + i, ops, false)).unwrap();
                    batch = Some(match batch {
                        Some(earlier) => earlier.merged_with(&applied),
                        None => applied,
                    });
                }
                let batch = batch.expect("the window has a batch");
                prop_assert_eq!(mg.compactions(), usize::from(window > 2));

                let topo = OverlayTopo::build(&machine, &mg, true, |_| AllocPolicy::Interleaved);
                for (&s, ((levels, bfs_iters), (dists, sssp_iters))) in sources.iter().zip(&priors) {
                    let warm = WarmStart { values: levels, iterations: *bfs_iters, batch: &batch };
                    let host = warm_repair(&mg, &Bfs::new(s), warm).unwrap();
                    prop_assert_eq!(&host.0, &run_reference(&mg, &Bfs::new(s)).0, "BFS {}", s);
                    let charged = bfs_overlay(&machine, THREADS, &topo, s, Some(warm), false).unwrap();
                    prop_assert_eq!(host, (charged.values, charged.iterations), "BFS {}", s);

                    let warm = WarmStart { values: dists, iterations: *sssp_iters, batch: &batch };
                    let host = warm_repair(&mg, &Sssp::new(s), warm).unwrap();
                    prop_assert_eq!(&host.0, &run_reference(&mg, &Sssp::new(s)).0, "SSSP {}", s);
                    let charged = sssp_overlay(&machine, THREADS, &topo, s, Some(warm), false).unwrap();
                    prop_assert_eq!(host, (charged.values, charged.iterations), "SSSP {}", s);
                }
            }
        }
    }

    #[test]
    fn bad_sources_and_priors_are_typed_errors() {
        let mut mg = MutableGraph::from_edge_list(gen::uniform(50, 200, 3));
        let (prior, iterations) = run_reference(&mg, &Bfs::new(0));
        let batch = mg.apply(&gen::mixed_batch(&mg, 1, 6, false)).unwrap();
        let warm = |values| WarmStart {
            values,
            iterations,
            batch: &batch,
        };
        let code = |r: PolymerResult<(Vec<u32>, usize)>| r.unwrap_err().code();
        assert_eq!(
            code(warm_repair(&mg, &Bfs::new(50), warm(&prior))),
            "invalid-config"
        );
        assert_eq!(
            code(warm_repair(&mg, &ConnectedComponents, warm(&prior))),
            "invalid-config",
            "no pinned root to repair from"
        );
        // A prior of another graph: typed, not an unwinding panic.
        assert_eq!(
            code(warm_repair(&mg, &Bfs::new(0), warm(&prior[..49]))),
            "engine-panicked"
        );
        let (levels, repaired) = warm_repair(&mg, &Bfs::new(0), warm(&prior)).unwrap();
        assert_eq!(levels, run_reference(&mg, &Bfs::new(0)).0);
        assert!(repaired >= iterations);
    }
}
