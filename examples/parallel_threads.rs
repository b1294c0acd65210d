//! Real OS threads, no simulation: X-Stream on `Backend::real_threads()`,
//! the owner-computes push executor every engine shares (workers behind
//! Polymer's hierarchical barrier), verified against the sequential oracle.
//!
//! ```sh
//! cargo run --release --example parallel_threads
//! ```

use std::time::Instant;

use polymer::algos::reference::max_rel_error;
use polymer::prelude::*;

fn main() {
    let edges = polymer::graph::gen::rmat(14, 260_000, polymer::graph::gen::RMAT_GRAPH500, 7);
    let graph = Graph::from_edges(&edges);
    println!(
        "graph: {} vertices, {} edges; running with real threads\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    // PageRank across thread counts (grouped into 2 barrier groups).
    let (xs, rt) = (XStreamEngine::new(), Backend::real_threads());
    let m = Machine::new(MachineSpec::test2());
    let prog = PageRank::new(graph.num_vertices());
    let (want, _) = run_reference(&graph, &prog);
    for threads in [1, 2, 4] {
        let t0 = Instant::now();
        let run = xs.try_run_on(&rt, &m, threads, &graph, &prog).unwrap();
        let host_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let (err, iters) = (max_rel_error(&run.values, &want), run.iterations);
        println!(
            "PageRank  {threads} thread(s): {iters} iterations, {host_ms:7.1} ms host, \
             max rel err vs reference {err:.2e}"
        );
        assert!(err < 1e-9);
    }

    // BFS: exact equality under concurrency (min-combine is order-free).
    let src = (0..graph.num_vertices() as u32)
        .max_by_key(|&v| graph.out_degree(v))
        .unwrap();
    let bfs = Bfs::new(src);
    let (want, _) = run_reference(&graph, &bfs);
    let t0 = Instant::now();
    let run = xs.try_run_on(&rt, &m, 4, &graph, &bfs).unwrap();
    let (got, iters) = (run.values, run.iterations);
    println!(
        "\nBFS       4 thread(s): {iters} iterations, {:7.1} ms host, exact match: {}",
        t0.elapsed().as_secs_f64() * 1000.0,
        got == want
    );
    assert_eq!(got, want);

    let reached = got
        .iter()
        .filter(|&&l| l != polymer::algos::UNVISITED)
        .count();
    println!(
        "\n{} of {} vertices reachable from the top hub (vertex {src})",
        reached,
        graph.num_vertices()
    );
    println!("all parallel results verified against the sequential reference");
}
