//! What the experiments of one `polymer-bench` process share: the parsed
//! arguments, the prepared workloads, and every simulated cell already
//! computed. A plain value handed to each experiment — not process state.

use std::collections::HashMap;
use std::rc::Rc;

use polymer_graph::DatasetId;
use polymer_numa::MachineSpec;

use crate::cli::Args;
use crate::report::{BenchMeta, Provenance};
use crate::runner::{self, AlgoId, Metrics, SystemId, Workload};

/// Everything [`runner::run`] depends on: two requests with equal keys are
/// the same deterministic simulated run. The spec is keyed by its
/// serialized form (it holds floats, so it is neither `Eq` nor `Hash`).
type CellKey = (SystemId, AlgoId, DatasetId, i32, String, usize);

/// The state one process's experiments run against.
pub struct Session {
    /// The parsed command line.
    pub args: Args,
    /// The scale shift of the experiment now running: `--scale`, or that
    /// experiment's default.
    pub scale: i32,
    workloads: HashMap<(DatasetId, i32), Rc<Workload>>,
    cells: HashMap<CellKey, Metrics>,
    provenance: Option<Provenance>,
    /// Cells asked of [`Session::run`] so far.
    pub cells_requested: usize,
    /// Cells [`Session::run`] had to simulate (the rest were cache hits).
    pub cells_run: usize,
}

impl Session {
    /// A fresh session with nothing prepared or computed.
    pub fn new(args: Args) -> Session {
        Session {
            scale: args.scale.unwrap_or(0),
            args,
            workloads: HashMap::new(),
            cells: HashMap::new(),
            provenance: None,
            cells_requested: 0,
            cells_run: 0,
        }
    }

    /// The provenance block of a `BENCH_*` artifact produced at the current
    /// scale on machines built from `spec`, with the commit / compiler /
    /// date read once per process.
    pub fn meta(&mut self, spec: &MachineSpec) -> BenchMeta {
        let provenance = self.provenance.get_or_insert_with(Provenance::read);
        BenchMeta::with_provenance(self.scale, spec, provenance)
    }

    /// The dataset at the current scale, generated on first use. Only the
    /// current scale's workloads stay resident: when the scale changes
    /// between experiments of an `all` run, the previous scale's graphs are
    /// dropped (their cells stay cached), as the one-binary-per-experiment
    /// harness dropped them at process exit.
    pub fn workload(&mut self, id: DatasetId) -> Rc<Workload> {
        let scale = self.scale;
        self.workloads.retain(|&(_, prepared), _| prepared == scale);
        let wl = self.workloads.entry((id, scale)).or_insert_with(|| {
            eprintln!("[session] preparing {} at scale {scale} ...", id.name());
            Rc::new(Workload::prepare(id, scale))
        });
        Rc::clone(wl)
    }

    /// [`runner::run`] — traced, simulated, default Polymer configuration —
    /// on the dataset at the current scale, computed once per process: a
    /// cell two tables or figures both report is simulated for the first
    /// and read back for the second.
    pub fn run(
        &mut self,
        system: SystemId,
        algo: AlgoId,
        dataset: DatasetId,
        spec: &MachineSpec,
        threads: usize,
    ) -> Metrics {
        let spec_key = serde_json::to_string(spec).expect("serialize machine spec");
        let key = (system, algo, dataset, self.scale, spec_key, threads);
        self.cells_requested += 1;
        if let Some(hit) = self.cells.get(&key) {
            return hit.clone();
        }
        let wl = self.workload(dataset);
        let m = runner::run(system, algo, &wl, spec, threads);
        self.cells_run += 1;
        self.cells.insert(key, m.clone());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repeated_cell_is_simulated_once_and_reads_back_bit_equal() {
        let mut s = Session::new(Args {
            command: "x".to_string(),
            scale: Some(-8),
            out: "results".into(),
            trace: None,
        });
        let spec = MachineSpec::test2();
        let json = |m: &Metrics| serde_json::to_string(m).unwrap();
        let first = s.run(SystemId::Ligra, AlgoId::BFS, DatasetId::RoadUsS, &spec, 4);
        let again = s.run(SystemId::Ligra, AlgoId::BFS, DatasetId::RoadUsS, &spec, 4);
        assert_eq!(json(&first), json(&again));
        assert_eq!((s.cells_requested, s.cells_run), (2, 1));
        // A fresh simulation of the same cell is the same row: the cache
        // returns what a re-run would have.
        let wl = s.workload(DatasetId::RoadUsS);
        let fresh = runner::run(SystemId::Ligra, AlgoId::BFS, &wl, &spec, 4);
        assert_eq!(json(&first), json(&fresh));
        // Any key component that differs is a different cell.
        s.run(SystemId::Ligra, AlgoId::BFS, DatasetId::RoadUsS, &spec, 2);
        s.run(
            SystemId::Ligra,
            AlgoId::BFS,
            DatasetId::RoadUsS,
            &spec.clone().with_compressed_topology(true),
            4,
        );
        s.scale = -9;
        s.run(SystemId::Ligra, AlgoId::BFS, DatasetId::RoadUsS, &spec, 4);
        assert_eq!((s.cells_requested, s.cells_run), (5, 4));
        // Only the current scale's graphs stay resident; the evicted
        // scale's cells still read back.
        assert_eq!(Rc::strong_count(&wl), 1, "scale -8 workload evicted");
        s.scale = -8;
        s.run(SystemId::Ligra, AlgoId::BFS, DatasetId::RoadUsS, &spec, 4);
        assert_eq!((s.cells_requested, s.cells_run), (6, 4));
        // The meta block follows the experiment's scale and spec.
        let meta = s.meta(&spec.clone().with_compressed_topology(true));
        assert_eq!((meta.scale, meta.backend.as_str()), (-8, "compressed"));
    }
}
