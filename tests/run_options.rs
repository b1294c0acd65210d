//! One way to run a program: every kept shorthand — `Engine::run`,
//! `Engine::run_traced`, `Engine::try_run_on` on both backends,
//! `RunSupervisor::run` and `runner::run_on` — must return exactly what the
//! general call, [`Engine::try_run_with`] under the corresponding
//! [`RunOptions`], returns: values, iterations, the simulated clock bit for
//! bit and, when traced, the phase count. On all four engines.

use polymer::prelude::*;
use polymer_bench::runner::{run_on, AlgoId, SystemId, Workload};

const T: usize = 4;

/// What a run is compared by: value bits, iterations, clock bits, phases.
type Print = (Vec<u64>, usize, u64, Option<usize>);

fn print<V: Copy>(r: RunResult<V>, bits: fn(V) -> u64) -> Print {
    let phases = r.trace().map(|buf| buf.phases.len());
    let clock = r.clock.elapsed_us().to_bits();
    let values = r.values.iter().map(|&v| bits(v)).collect();
    (values, r.iterations, clock, phases)
}

fn machine() -> Machine {
    Machine::new(MachineSpec::test2())
}

fn on<V>(backend: &Backend) -> RunOptions<'static, V> {
    RunOptions {
        backend: backend.clone(),
        ..RunOptions::default()
    }
}

/// Every `Engine`-level shorthand and the supervisor against the general
/// call, as `(label, shorthand, general)` rows.
fn table<E: Engine, P: Program>(
    engine: &E,
    g: &Graph,
    prog: &P,
    bits: fn(P::Val) -> u64,
) -> Vec<(String, Print, Print)> {
    let p = |r: RunResult<P::Val>| print(r, bits);
    let general = |opts: RunOptions<'_, P::Val>, m: Machine| {
        p(engine.try_run_with(&m, T, g, prog, &opts).unwrap())
    };
    let traced = RunOptions {
        traced: true,
        ..RunOptions::default()
    };
    let run = p(engine.run(&machine(), T, g, prog));
    let run_traced = p(engine.run_traced(&machine(), T, g, prog));
    assert_eq!(run.3, None, "a plain run records no trace");
    assert!(run_traced.3.is_some_and(|phases| phases > 0));
    let plain = general(RunOptions::default(), machine());
    let mut rows = vec![
        ("run".to_string(), run, plain),
        (
            "run_traced".to_string(),
            run_traced,
            general(traced, machine()),
        ),
    ];
    let (cfg, spec) = (SupervisorConfig::default(), MachineSpec::test2());
    for b in [Backend::Simulated, Backend::real_threads()] {
        let short = engine.try_run_on(&b, &machine(), T, g, prog).unwrap();
        let label = format!("try_run_on({b:?})");
        rows.push((label, p(short), general(on(&b), machine())));
        // What the supervisor's first (and, fault-free, only) attempt runs.
        let attempt = RunOptions {
            recovery: RecoverySession::new(cfg.checkpoint, CheckpointStore::new()),
            ..on(&b)
        };
        let m = Machine::with_faults(spec.clone(), cfg.spill, cfg.plan.clone());
        let short = RunSupervisor::new(cfg.clone()).run(engine, &b, &spec, T, g, prog);
        let label = format!("RunSupervisor::run({b:?})");
        rows.push((label, p(short.unwrap()), general(attempt, m)));
    }
    rows
}

fn check_engine<E: Engine>(name: &str, sys: SystemId, engine: &E, wl: &Workload) {
    let g = &wl.graph;
    let bfs = Bfs::new(wl.source);
    let mut rows = table(engine, g, &bfs, u64::from);
    let pr = PageRank::new(g.num_vertices());
    rows.extend(table(engine, g, &pr, f64::to_bits));
    for (label, shorthand, general) in rows {
        assert_eq!(shorthand, general, "{name}: {label} != try_run_with");
    }

    // `runner::run_on` is `try_run_with` on a machine of the scaled spec.
    let spec = MachineSpec::test2();
    for b in [Backend::Simulated, Backend::real_threads()] {
        let got = run_on(sys, AlgoId::BFS, wl, &spec, T, &b);
        let m = Machine::new(wl.scaled_spec(&spec));
        let want = engine.try_run_with(&m, T, g, &bfs, &on(&b)).unwrap();
        let got = (got.iterations, got.seconds.to_bits(), got.phases.len());
        let want = (want.iterations, want.seconds().to_bits(), 0);
        assert_eq!(got, want, "{name}: run_on({b:?})");
    }
}

#[test]
fn every_shorthand_equals_the_general_call_on_all_four_engines() {
    let wl = Workload::prepare(DatasetId::Rmat24S, -8);
    check_engine("Polymer", SystemId::Polymer, &PolymerEngine::new(), &wl);
    check_engine("Ligra", SystemId::Ligra, &LigraEngine::new(), &wl);
    check_engine("X-Stream", SystemId::XStream, &XStreamEngine::new(), &wl);
    check_engine("Galois", SystemId::Galois, &GaloisEngine::new(), &wl);
}
