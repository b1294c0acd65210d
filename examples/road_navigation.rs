//! Road-network navigation — the high-diameter workload where the paper's
//! adaptive runtime states and NUMA-aware barrier matter most (Table 6(a),
//! Figure 10(b)): traversals take thousands of sparse iterations.
//!
//! Computes shortest travel costs over a weighted road grid with SSSP on
//! Polymer, demonstrates the ablation (always-dense states vs adaptive), and
//! cross-checks distances on the Galois-like engine's delta-stepping.
//!
//! ```sh
//! cargo run --release --example road_navigation
//! ```

use polymer::prelude::*;

fn main() {
    println!("generating a road network (grid, avg degree ≈ 2.4) ...");
    let edges = polymer::graph::dataset(DatasetId::RoadUsS, -4);
    let graph = Graph::from_edges(&edges);
    println!(
        "  {} intersections, {} road segments",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Scale the machine's fixed resources to the scaled-down dataset, as the
    // experiment harness does (see MachineSpec docs): a 24 MiB LLC against a
    // 16 K-vertex grid would otherwise hide all memory effects.
    let mut spec = MachineSpec::intel80();
    spec.llc_scale = graph.num_vertices() as f64 / 23.9e6;
    spec.barrier_scale = graph.num_edges() as f64 / 58e6;
    // Start from a well-connected intersection (bond sampling can isolate
    // corners of the grid).
    let source = (0..graph.num_vertices() as u32)
        .max_by_key(|&v| graph.out_degree(v))
        .unwrap();

    // SSSP with every Polymer optimization on.
    let machine = Machine::new(spec.clone());
    let fast = PolymerEngine::new().run(&machine, 80, &graph, &Sssp::new(source));
    let reachable = fast
        .values
        .iter()
        .filter(|&&d| d != polymer::algos::UNREACHED)
        .count();
    println!(
        "\nSSSP from intersection {source}: {} reachable, {} iterations, {:.2} ms simulated",
        reachable,
        fast.iterations,
        fast.micros() / 1000.0
    );

    // The farthest reachable intersection and its travel cost.
    let (far, cost) = fast
        .values
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != polymer::algos::UNREACHED)
        .max_by_key(|(_, &d)| d)
        .map(|(v, &d)| (v, d))
        .unwrap();
    println!("farthest intersection: {far} at travel cost {cost}");

    // Ablation: turn adaptive runtime states off (always-dense bitmaps) —
    // every sparse iteration now scans full state arrays (paper Table 6(a)).
    let machine = Machine::new(spec.clone());
    let dense = PolymerEngine::new().without_adaptive_states().run(
        &machine,
        80,
        &graph,
        &Sssp::new(source),
    );
    println!(
        "\nadaptive-states ablation: {:.2} ms adaptive vs {:.2} ms always-dense ({:.1}x)\n\
         (the dense-state penalty grows with vertex count x diameter; run\n\
         `cargo run -p polymer-bench --release -- table6_ablations` for the\n\
         paper-scale version of this experiment)",
        fast.micros() / 1000.0,
        dense.micros() / 1000.0,
        dense.micros() / fast.micros()
    );
    assert_eq!(
        fast.values, dense.values,
        "ablation must not change results"
    );

    // Cross-check with the Galois-like engine's asynchronous delta-stepping.
    let machine = Machine::new(spec);
    let galois = GaloisEngine::new().run(&machine, 80, &graph, &Sssp::new(source));
    assert_eq!(
        fast.values, galois.values,
        "Bellman-Ford and delta-stepping must agree on shortest distances"
    );
    println!(
        "delta-stepping cross-check passed ({:.2} ms on the Galois-like engine)",
        galois.micros() / 1000.0
    );
}
