//! NUMA machine explorer — reproduces the paper's Section 2.2 study
//! interactively: walks both machine models, prints their topology, latency
//! and bandwidth characteristics, and demonstrates the two observations the
//! whole system is built on:
//!
//! 1. interleaved/centralized placement wastes locality and congests one
//!    memory controller;
//! 2. sequential *remote* accesses beat random *local* ones.
//!
//! ```sh
//! cargo run --release --example numa_explorer
//! ```

use polymer::numa::{AllocPolicy, CostConfig, DistClass, Machine, MachineSpec, SimExecutor};

const N: usize = 1 << 22;
const TOUCH: usize = 300_000;

fn sweep(machine: &Machine, policy: AllocPolicy, sequential: bool) -> f64 {
    let data = machine.alloc_array::<u64>("explorer/data", N, policy);
    let cfg = CostConfig {
        cpu_cycles_per_access: 0.0,
        ..CostConfig::default()
    };
    let mut sim = SimExecutor::with_config(machine, 1, cfg, polymer::numa::BarrierKind::SenseNuma);
    let cost = sim.run_phase("sweep", |_t, ctx| {
        if sequential {
            for i in 0..TOUCH {
                data.get(ctx, i);
            }
        } else {
            let mut i = 1usize;
            for _ in 0..TOUCH {
                i = (i
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407))
                    % N;
                data.get(ctx, i);
            }
        }
    });
    (TOUCH * 8) as f64 / cost.time_us
}

fn main() {
    for spec in [MachineSpec::intel80(), MachineSpec::amd64()] {
        let machine = Machine::new(spec.clone());
        let topo = machine.topology();
        println!(
            "=== {} — {} sockets x {} cores, {} MiB LLC/socket, {:.1} GHz ===",
            spec.name,
            topo.num_nodes(),
            topo.cores_per_node(),
            topo.llc_bytes() >> 20,
            spec.ghz
        );

        // Hop-distance matrix (paper Figure 3(a) topology).
        println!("\nhop distance matrix (from node i to node j):");
        print!("     ");
        for j in 0..topo.num_nodes() {
            print!("{j:>3}");
        }
        println!();
        for i in 0..topo.num_nodes() {
            print!("  {i:>2}:");
            for j in 0..topo.num_nodes() {
                print!("{:>3}", topo.hops(i, j));
            }
            println!();
        }

        // Latency table (paper Figure 3(b)).
        println!("\nlatency (cycles):  load          store");
        for (label, d) in [
            ("0-hop", DistClass::Local),
            ("1-hop", DistClass::OneHop),
            ("2-hop", DistClass::TwoHop),
        ] {
            println!(
                "  {label:<6}          {:>5.0}          {:>5.0}",
                spec.latency.load(d),
                spec.latency.store(d)
            );
        }

        // Measured bandwidth through the simulator (paper Figure 4).
        println!("\nmeasured bandwidth (MB/s), one core on node 0:");
        let far_node = 3; // two hops from node 0 on both machine models
        let cases = [
            ("sequential local", AllocPolicy::OnNode(0), true),
            (
                "sequential 2-hop remote",
                AllocPolicy::OnNode(far_node),
                true,
            ),
            ("random local", AllocPolicy::OnNode(0), false),
            ("random 2-hop remote", AllocPolicy::OnNode(far_node), false),
            ("sequential interleaved", AllocPolicy::Interleaved, true),
        ];
        let mut results = Vec::new();
        for (label, pol, seq) in cases {
            let mbs = sweep(&machine, pol, seq);
            println!("  {label:<26} {mbs:>7.0}");
            results.push((label, mbs));
        }
        let seq_remote = results[1].1;
        let rand_local = results[2].1;
        println!(
            "\n  ==> sequential REMOTE is {:.2}x faster than random LOCAL —\n\
             \x20     the observation Polymer's access strategy is built on.\n",
            seq_remote / rand_local
        );
        assert!(seq_remote > rand_local);
    }

    // Observation 2: centralized allocation congests one controller.
    println!("=== congestion demo: 80 cores hammering one node vs spread ===");
    let machine = Machine::new(MachineSpec::intel80());
    for (label, policy) in [
        ("centralized on node 0", AllocPolicy::Centralized),
        ("interleaved across 8", AllocPolicy::Interleaved),
    ] {
        let data = machine.alloc_array::<u64>("explorer/cong", N, policy);
        let mut sim = SimExecutor::new(&machine, 80);
        let cost = sim.run_phase("hammer", |tid, ctx| {
            let chunk = N / 80;
            for i in tid * chunk..(tid + 1) * chunk {
                data.get(ctx, i);
            }
        });
        println!(
            "  {label:<24} phase {:>8.0} µs (controller-bound: {})",
            cost.time_us,
            cost.dram_bound_us >= cost.max_thread_us
        );
    }
    println!("\ncentralized placement is controller-bound — the paper's Issue 1.");

    // Tracing demo: record a two-phase BSP step and print the per-phase
    // breakdown table `polymer-bench` emits (see docs/OBSERVABILITY.md).
    println!("\n=== traced BSP step: per-phase breakdown ===\n");
    let data = machine.alloc_array::<u64>("explorer/traced", N, AllocPolicy::Interleaved);
    let mut sim = SimExecutor::new(&machine, 80);
    sim.enable_trace();
    sim.set_iteration(Some(0));
    sim.run_phase("scatter", |tid, ctx| {
        let chunk = N / 80;
        for i in tid * chunk..(tid + 1) * chunk {
            data.get(ctx, i);
        }
    });
    sim.charge_barrier();
    sim.run_phase("apply", |tid, ctx| {
        let chunk = N / 800; // lighter vertex phase
        for i in tid * chunk..(tid + 1) * chunk {
            data.get(ctx, i);
        }
    });
    sim.charge_barrier();
    let buf = sim.clock().trace.buffer().expect("tracing enabled");
    print!("{}", polymer::numa::phase_table(buf));
    println!(
        "\nexport the same buffer with polymer::numa::chrome_trace_json for\n\
         chrome://tracing / ui.perfetto.dev, or pass --trace <path> to\n\
         `polymer-bench fig10_barrier` / `polymer-bench bench_baseline`."
    );
}
