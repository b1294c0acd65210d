//! Real OS threads, no simulation: runs the scatter–gather programs through
//! `polymer::api::run_parallel`, which coordinates genuine worker threads
//! with Polymer's hierarchical sense-reversing barrier and owner-computes
//! updates (every thread writes only the targets it owns; contributions to
//! other threads' targets travel through bins) — exercised end-to-end and
//! verified against the sequential oracle.
//!
//! ```sh
//! cargo run --release --example parallel_threads
//! ```

use std::time::Instant;

use polymer::api::run_parallel;
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
    let prog = PageRank::new(graph.num_vertices());
    let (want, _) = run_reference(&graph, &prog);
    for threads in [1, 2, 4] {
        let t0 = Instant::now();
        let (got, iters) = run_parallel(&graph, &prog, threads, 2);
        let host_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let err = polymer::algos::reference::max_rel_error(&got, &want);
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
    let (got, iters) = run_parallel(&graph, &bfs, 4, 2);
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
