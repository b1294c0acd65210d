//! Figures 3 and 4: the machine characterization the cost model is
//! calibrated from (no dataset; `--scale` is ignored).

use polymer_numa::{
    AllocPolicy, BarrierKind, CostConfig, DistClass, Machine, MachineSpec, NodeId, SimExecutor,
};
use serde::Serialize;

use crate::{Report, Session, Table};

#[derive(Serialize)]
struct LatencyRow {
    machine: String,
    inst: &'static str,
    hop0: f64,
    hop1: f64,
    hop2: f64,
}

/// Figure 3(b): load/store latency (cycles) by hop distance, for both the
/// 80-core Intel and 64-core AMD machine models. These are the machine
/// characterization tables the whole cost model is calibrated from, printed
/// alongside a pointer-chase "measurement" derived from the model (a
/// dependent-load chain costs one full latency per hop).
pub fn fig3_latency(_: &mut Session) -> Report {
    let mut rows = Vec::new();
    let mut table = Table::new(&["Machine", "Inst.", "0-hop", "1-hop", "2-hop"]);
    for spec in [MachineSpec::intel80(), MachineSpec::amd64()] {
        for (inst, get) in [
            (
                "Load",
                &(|d| spec.latency.load(d)) as &dyn Fn(DistClass) -> f64,
            ),
            ("Store", &|d| spec.latency.store(d)),
        ] {
            let (h0, h1, h2) = (
                get(DistClass::Local),
                get(DistClass::OneHop),
                get(DistClass::TwoHop),
            );
            table.row(vec![
                spec.name.clone(),
                inst.to_string(),
                format!("{h0:.0}"),
                format!("{h1:.0}"),
                format!("{h2:.0}"),
            ]);
            rows.push(LatencyRow {
                machine: spec.name.clone(),
                inst,
                hop0: h0,
                hop1: h1,
                hop2: h2,
            });
        }
    }
    println!("Figure 3(b): memory access latency (cycles) by distance\n");
    table.print();
    println!(
        "\nPaper reference (Intel): load 117/271/372, store 108/304/409 cycles;\n\
         (AMD): load 228/419/498, store 256/463/544 cycles."
    );
    Report::paper("fig3_latency", &rows)
}

const ELEMS: usize = 1 << 22; // 32 MiB arrays: streams stay DRAM-bound.
const TOUCH: usize = 200_000;

#[derive(Serialize)]
struct BandwidthRow {
    machine: String,
    access: &'static str,
    label: String,
    mbs: f64,
}

/// Measure achieved MB/s for one placement and pattern.
fn measure(spec: &MachineSpec, policy: AllocPolicy, sequential: bool) -> f64 {
    let machine = Machine::new(spec.clone());
    let data = machine.alloc_array::<u64>("bench/data", ELEMS, policy);
    // Disable the CPU-cost floor so the measurement isolates memory time.
    let cfg = CostConfig {
        cpu_cycles_per_access: 0.0,
        ..CostConfig::default()
    };
    let mut sim = SimExecutor::with_config(&machine, 1, cfg, BarrierKind::SenseNuma);
    let cost = sim.run_phase("sweep", |_tid, ctx| {
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
                    % ELEMS;
                data.get(ctx, i);
            }
        }
    });
    let bytes = (TOUCH * 8) as f64;
    bytes / cost.time_us // bytes/µs == MB/s
}

/// Figure 4: bandwidth (MB/s) of sequential vs. random access by distance,
/// measured *through the simulator* — a core on node 0 streams or randomly
/// probes a large array homed at each distance (numademo-style), and the
/// achieved MB/s is derived from the modeled phase time. This validates that
/// the cost model end-to-end reproduces the measured tables it was
/// calibrated from, including the key inversion: sequential remote beats
/// random local.
pub fn fig4_bandwidth(_: &mut Session) -> Report {
    let mut rows = Vec::new();
    println!("Figure 4: bandwidth (MB/s) by access pattern and distance\n");
    for spec in [MachineSpec::intel80(), MachineSpec::amd64()] {
        // Distance targets from node 0; AMD distinguishes two 1-hop kinds.
        let targets: Vec<(String, AllocPolicy)> = if spec.name == "amd64" {
            vec![
                ("0-hop".into(), AllocPolicy::OnNode(0)),
                ("1-hop (intra)".into(), AllocPolicy::OnNode(1)),
                ("1-hop (inter)".into(), AllocPolicy::OnNode(2)),
                ("2-hop".into(), AllocPolicy::OnNode(3)),
                ("Interleaved".into(), AllocPolicy::Interleaved),
            ]
        } else {
            // Intel twisted hypercube: node 1 is one hop, node 3 is two.
            vec![
                ("0-hop".into(), AllocPolicy::OnNode(0)),
                ("1-hop".into(), AllocPolicy::OnNode(1)),
                ("2-hop".into(), AllocPolicy::OnNode(3 as NodeId)),
                ("Interleaved".into(), AllocPolicy::Interleaved),
            ]
        };
        let mut table = Table::new(&["Access", "Distance", "MB/s"]);
        for (label, policy) in &targets {
            for (access, seq) in [("Sequential", true), ("Random", false)] {
                let mbs = measure(&spec, policy.clone(), seq);
                table.row(vec![access.to_string(), label.clone(), format!("{mbs:.0}")]);
                rows.push(BandwidthRow {
                    machine: spec.name.clone(),
                    access,
                    label: label.clone(),
                    mbs,
                });
            }
        }
        println!("{} machine:", spec.name);
        table.print();
        println!();
    }
    println!(
        "Paper reference (Intel): seq 3207/2455/2101, interleaved 2333;\n\
         random 720/348/307, interleaved 344 MB/s. Key inversion: sequential\n\
         2-hop (2101) far exceeds random 0-hop (720)."
    );
    Report::paper("fig4_bandwidth", &rows)
}
