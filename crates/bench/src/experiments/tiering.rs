//! `BENCH_tiering`: the tiered-memory ablation.

use polymer_api::Backend;
use polymer_core::PolymerConfig;
use polymer_graph::DatasetId;
use polymer_numa::{FaultPlan, Machine, MachineSpec, SpillPolicy, TierPolicy, PAGE_SIZE};
use serde::Serialize;

use crate::runner::run_with;
use crate::{AlgoId, Report, Session, SystemId, Table, Workload};

/// Simulated threads: all cores of the four fast sockets.
const THREADS: usize = 40;

/// PageRank iterations. Out-of-core jobs run long — promotion pays a
/// one-time copy cost and earns it back every subsequent iteration, so the
/// 5-iteration default of the in-memory tables would understate every
/// policy's steady state.
const PR_ITERS: usize = 20;

/// The fast tier holds at most `topo_bytes / FOOTPRINT_RATIO` bytes.
const FOOTPRINT_RATIO: u64 = 10;

/// Required speedup over slow-only for the single best (engine, policy)
/// pair across the whole table. Per-engine this is not demanded: an engine
/// that already streams everything sequentially (X-Stream) has little
/// random-access traffic for promotion to rescue.
const MIN_BEST_SPEEDUP: f64 = 2.0;

/// One (engine, memory-mode) outcome.
#[derive(Serialize)]
struct TieringRow {
    system: String,
    /// `fast-only`, `tiered-static`, `tiered-<policy>`, or `slow-only`.
    mode: String,
    /// Simulated runtime, seconds.
    sim_seconds: f64,
    iterations: usize,
    /// Slowdown vs this engine's fast-only run.
    vs_fast: f64,
    /// Speedup over this engine's slow-only run.
    vs_slow: f64,
    /// The engine's `topo/*` peak (the streamed graph), bytes.
    topo_bytes: u64,
    /// Total fast-tier capacity of this mode, bytes (0 = unlimited).
    fast_capacity_bytes: u64,
    /// `topo_bytes / fast_capacity_bytes` (0 when unlimited).
    footprint_ratio: f64,
    /// Pages promoted slow→fast / demoted fast→slow / spilled, whole run.
    promoted_pages: u64,
    demoted_pages: u64,
    spilled_pages: u64,
    /// Simulated seconds spent copying pages between tiers.
    migrate_sec: f64,
    /// Remote fraction of memory transactions.
    remote_rate: f64,
}

/// The tiered modes, in ablation order: what starts slow, and the promotion
/// policy (`None` = static placement).
const TIERED_MODES: [(&str, &[&str], Option<TierPolicy>); 4] = [
    ("tiered-static", &["topo"], None),
    ("tiered-first-touch", &["*"], Some(TierPolicy::FirstTouch)),
    ("tiered-hot-page-lru", &["*"], Some(TierPolicy::HotPageLru)),
    ("tiered-sampled", &["*"], Some(TierPolicy::Sampled)),
];

struct ModeOutcome {
    mode: String,
    metrics: crate::Metrics,
    topo_bytes: u64,
    fast_cap: u64,
    promoted: u64,
    demoted: u64,
}

fn run_mode(
    sys: SystemId,
    wl: &Workload,
    mode: &str,
    fast_cap_per_node: Option<u64>,
    slow_tags: &[&str],
    policy: Option<TierPolicy>,
) -> ModeOutcome {
    let mut spec = wl.scaled_spec(&MachineSpec::intel80_tiered());
    if let Some(cap) = fast_cap_per_node {
        spec = spec.with_fast_capacity(cap);
    }
    let machine = Machine::with_faults(spec, SpillPolicy::Demote, FaultPlan::default());
    machine.route_tags_to_slow(slow_tags);
    machine.set_tier_policy(policy);
    let (pr, sim, cfg) = (AlgoId::PR, Backend::Simulated, PolymerConfig::default());
    let iters = Some(PR_ITERS);
    let metrics = run_with(sys, pr, wl, &machine, THREADS, &sim, true, cfg, iters).0;
    ModeOutcome {
        mode: mode.to_string(),
        topo_bytes: machine.tag_usage("topo").peak,
        fast_cap: fast_cap_per_node
            .map(|c| c * machine.spec().fast_nodes().len() as u64)
            .unwrap_or(0),
        promoted: machine.promoted_pages_by_node().iter().sum(),
        demoted: machine.demoted_pages_by_node().iter().sum(),
        metrics,
    }
}

/// Tiered-memory ablation: every engine's PageRank under fast-only,
/// tiered (per promotion policy), and slow-only memory configurations.
///
/// All modes run the same compute — 40 simulated threads node-major on the
/// four fast sockets of [`MachineSpec::intel80_tiered`] — and differ only in
/// where data may live:
///
/// * **fast-only** — unlimited fast capacity, nothing routed slow: the
///   machine the single-tier benchmarks model, and this table's lower
///   bound. Its run also measures the engine's real `topo/*` footprint,
///   from which the tiered modes' fast capacity is derived.
/// * **tiered-static** — the tag-informed static split: `topo/*` (the edge
///   arrays) is routed to the slow tier and streamed X-Stream-style, vertex
///   state stays fast, the fast tier is capped at **one tenth of the topo
///   footprint** (so the graph is 10× fast capacity) and overflow demotes
///   ([`SpillPolicy::Demote`]). No migration: what placement gets you when
///   you already know which allocations are cold.
/// * **tiered-&lt;policy&gt;** — true out-of-core: *everything* starts in the
///   slow tier (as if loaded there), the capped fast tier acts purely as a
///   migration-managed cache, and the named promotion policy must learn the
///   hot set from access heat between phases (charged as `tier-migrate`
///   traffic).
/// * **slow-only** — every allocation routed to the slow tier (`"*"`), no
///   promotion: the no-DRAM upper bound.
///
/// Violations (the CI `experiments` job relies on the exit status):
/// `fast-only ≤ tiered-* ≤ slow-only` must hold in simulated seconds for
/// every engine; every promotion policy must promote pages and pay
/// `migrate_sec` for them, and no other mode may promote; and at least one
/// (engine, promotion-policy) pair must beat slow-only by
/// [`MIN_BEST_SPEEDUP`]× or more.
pub fn bench_tiering(s: &mut Session) -> Report {
    let wl = s.workload(DatasetId::Rmat24S);
    println!(
        "Tiered memory: PageRank on rmat24 (scale {}), {THREADS} threads on intel80_tiered \
         (4 fast + 4 slow nodes), fast tier = topo/{FOOTPRINT_RATIO}\n",
        s.scale
    );

    let mut table = Table::new(&[
        "System",
        "Mode",
        "Sim(s)",
        "vsFast",
        "vsSlow",
        "Promoted",
        "Demoted",
        "Migrate(s)",
    ]);
    let mut rows: Vec<TieringRow> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut best_policy_speedup = 0.0f64;

    for sys in SystemId::ALL {
        eprintln!("[tiering] {} fast-only ...", sys.name());
        let fast = run_mode(sys, &wl, "fast-only", None, &[], None);
        // The tiered modes cap the fast tier at a tenth of the engine's own
        // measured graph footprint, rounded down to whole pages per node.
        let topo_bytes = fast.topo_bytes;
        let cap_per_node =
            (topo_bytes / FOOTPRINT_RATIO / 4 / PAGE_SIZE as u64).max(1) * PAGE_SIZE as u64;
        eprintln!("[tiering] {} slow-only ...", sys.name());
        let slow = run_mode(sys, &wl, "slow-only", Some(cap_per_node), &["*"], None);
        let mut outcomes = vec![fast, slow];
        for (mode, slow_tags, policy) in TIERED_MODES {
            eprintln!("[tiering] {} {mode} ...", sys.name());
            outcomes.push(run_mode(
                sys,
                &wl,
                mode,
                Some(cap_per_node),
                slow_tags,
                policy,
            ));
        }
        let fast_sec = outcomes[0].metrics.seconds;
        let slow_sec = outcomes[1].metrics.seconds;
        for o in &outcomes {
            let m = &o.metrics;
            let migrate_sec = m
                .phases
                .iter()
                .filter(|p| p.name == "tier-migrate")
                .fold(0.0, |acc, p| acc + p.seconds);
            let vs_slow = slow_sec / m.seconds;
            if o.mode.starts_with("tiered-") && o.mode != "tiered-static" {
                best_policy_speedup = best_policy_speedup.max(vs_slow);
                // A promotion policy that moved nothing, or moved it for
                // free, is not exercising the migration path.
                if o.promoted == 0 || migrate_sec <= 0.0 {
                    violations.push(format!(
                        "{}/{}: promoted {} pages in {:.4}s of migration",
                        sys.name(),
                        o.mode,
                        o.promoted,
                        migrate_sec
                    ));
                }
            } else if o.promoted != 0 {
                violations.push(format!(
                    "{}/{}: promoted {} pages without a policy",
                    sys.name(),
                    o.mode,
                    o.promoted
                ));
            }
            if o.mode.starts_with("tiered-") {
                // The ablation ordering every tiered mode must respect.
                if m.seconds < fast_sec * (1.0 - 1e-9) {
                    violations.push(format!(
                        "{}/{}: tiered ({:.4}s) beat fast-only ({:.4}s)",
                        sys.name(),
                        o.mode,
                        m.seconds,
                        fast_sec
                    ));
                }
                if m.seconds > slow_sec * (1.0 + 1e-9) {
                    violations.push(format!(
                        "{}/{}: tiered ({:.4}s) lost to slow-only ({:.4}s)",
                        sys.name(),
                        o.mode,
                        m.seconds,
                        slow_sec
                    ));
                }
            }
            table.row(vec![
                sys.name().to_string(),
                o.mode.clone(),
                format!("{:.4}", m.seconds),
                format!("{:.2}x", m.seconds / fast_sec),
                format!("{:.2}x", vs_slow),
                o.promoted.to_string(),
                o.demoted.to_string(),
                format!("{:.4}", migrate_sec),
            ]);
            rows.push(TieringRow {
                system: sys.name().to_string(),
                mode: o.mode.clone(),
                sim_seconds: m.seconds,
                iterations: m.iterations,
                vs_fast: m.seconds / fast_sec,
                vs_slow,
                topo_bytes: o.topo_bytes,
                fast_capacity_bytes: o.fast_cap,
                footprint_ratio: if o.fast_cap > 0 {
                    o.topo_bytes as f64 / o.fast_cap as f64
                } else {
                    0.0
                },
                promoted_pages: o.promoted,
                demoted_pages: o.demoted,
                spilled_pages: m.spilled_by_node.iter().sum(),
                migrate_sec,
                remote_rate: m.remote.access_rate_remote,
            });
        }
    }
    if best_policy_speedup < MIN_BEST_SPEEDUP {
        violations.push(format!(
            "best promotion policy only {best_policy_speedup:.2}x over slow-only \
             (need {MIN_BEST_SPEEDUP:.1}x)"
        ));
    }

    table.print();
    let meta = s.meta(&MachineSpec::intel80_tiered());
    Report::bench("BENCH_tiering", meta, &rows, violations)
}
