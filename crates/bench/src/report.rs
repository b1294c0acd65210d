//! Table printing and the [`Report`] an experiment returns, whose
//! [`Report::emit`] is the one place results are written.
//!
//! Every experiment renders a human-readable [`Table`] mirroring the
//! paper's layout on stdout and returns its rows in a [`Report`]; `emit`
//! writes them as JSON (one `<name>.json` per table/figure under
//! `results/`, documented in `results/README.md`), appends every `BENCH_*`
//! artifact to `perf_ledger.jsonl`, and prints the violations that fail the
//! process. Seconds are formatted with [`fmt_sec`] to match the paper's
//! precision conventions.
//!
//! ```
//! use polymer_bench::report::{fmt_sec, Table};
//!
//! let mut t = Table::new(&["Algo", "Polymer", "Ligra"]);
//! t.row(vec!["PR".into(), fmt_sec(5.284), fmt_sec(13.069)]);
//! let rendered = t.render();
//! assert!(rendered.contains("5.28"));
//! assert!(rendered.lines().count() == 3); // header, rule, one row
//! ```

use std::fs;
use std::io::Write;
use std::path::Path;
use std::process::Command;

use polymer_numa::MachineSpec;
use serde::{Map, Serialize, Value};

/// A simple aligned text table mirroring the paper's layout.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format seconds like the paper's tables (2-digit precision, drifting to
/// more digits for sub-second values).
pub fn fmt_sec(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.3}")
    }
}

/// Write a serializable result to `<dir>/<name>.json`.
fn write_json<T: Serialize>(dir: &Path, name: &str, value: &T) {
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let data = serde_json::to_string_pretty(value).expect("serialize results");
    fs::write(&path, data).expect("write results file");
    eprintln!("[results written to {}]", path.display());
}

/// The provenance block every `BENCH_*` artifact records (the bench-hygiene
/// contract): enough to tell where, when and how the numbers were produced.
///
/// Simulated metrics are host-independent, but the wall-clock columns are
/// not — `host_cores` pins down the machine context a committed artifact
/// came from, `scale` the dataset size it ran at, the next three fields
/// the effective toggle set of the [`MachineSpec`] the run was built from,
/// and the last three the code, compiler and day.
///
/// The last three are **run-time values of the process's environment** —
/// the checkout of the current directory, the `rustc` on `PATH`, today —
/// not properties of the binary: run `polymer-bench` from the checkout it
/// was built from (`cargo run` does) or they describe something else.
#[derive(Clone, Debug, Serialize)]
pub struct BenchMeta {
    /// Host CPU parallelism when the artifact was produced (wall-clock
    /// context only; simulated numbers do not depend on it).
    pub host_cores: usize,
    /// Dataset scale shift the experiment ran with (`--scale`).
    pub scale: i32,
    /// Topology encoding the run traversed: `"raw"` or `"compressed"`.
    pub backend: String,
    /// Whether access accounting was run-coalesced.
    pub bulk_accounting: bool,
    /// Host-sharding mode of the simulator's split phases
    /// ([`polymer_numa::SimShardMode`]'s name; an experiment that compares
    /// several modes lists them).
    pub shard_mode: String,
    /// `git rev-parse --short HEAD` of the current directory's checkout when
    /// the process ran, with `-dirty` appended when tracked files outside
    /// `results/` (which the run itself rewrites) differ from that commit;
    /// `"unknown"` outside a checkout.
    pub commit: String,
    /// `rustc --version` of the toolchain on `PATH` when the process ran,
    /// `"unknown"` without one.
    pub rustc: String,
    /// UTC calendar date of the run (`date -u +%F`), `"unknown"` without
    /// the tool.
    pub date: String,
}

/// First line of a command's stdout; `None` if it cannot be run, fails or
/// prints nothing.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?;
    out.status.success().then(|| line.to_string())
}

/// The three run-time provenance values of a [`BenchMeta`]. Reading them
/// spawns `git`, `rustc` and `date`, so a [`crate::Session`] reads them
/// once for all the artifacts of its process.
#[derive(Clone, Debug)]
pub(crate) struct Provenance {
    commit: String,
    rustc: String,
    date: String,
}

impl Provenance {
    pub(crate) fn read() -> Provenance {
        let unknown = || "unknown".to_string();
        let tracked_changes = [
            "status",
            "--porcelain",
            "--untracked-files=no",
            "--",
            ":/",
            ":(top,exclude)results",
        ];
        let commit = command_line("git", &["rev-parse", "--short", "HEAD"]).map(|head| {
            match command_line("git", &tracked_changes) {
                Some(_) => format!("{head}-dirty"),
                None => head,
            }
        });
        Provenance {
            commit: commit.unwrap_or_else(unknown),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(unknown),
            date: command_line("date", &["-u", "+%F"]).unwrap_or_else(unknown),
        }
    }
}

impl BenchMeta {
    /// The block for a run at `scale` on machines built from `spec`, with
    /// the host's provenance values `p`.
    pub(crate) fn with_provenance(scale: i32, spec: &MachineSpec, p: &Provenance) -> BenchMeta {
        BenchMeta {
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            scale,
            backend: if spec.compressed_topology {
                "compressed"
            } else {
                "raw"
            }
            .to_string(),
            bulk_accounting: spec.bulk_accounting,
            shard_mode: format!("{:?}", spec.shard_mode),
            commit: p.commit.clone(),
            rustc: p.rustc.clone(),
            date: p.date.clone(),
        }
    }
}

/// What an experiment hands back to `main`: the rows of each artifact it
/// produced, the provenance block (present exactly for the `BENCH_*`
/// series) and every invariant it found broken.
pub struct Report {
    /// `(file stem, payload)` per artifact, written as `<out>/<stem>.json`.
    pub rows: Vec<(&'static str, Value)>,
    /// `Some` makes each artifact `{"meta": .., "rows": ..}` and a ledger
    /// line; `None` (paper tables and figures) keeps the bare payload.
    pub meta: Option<BenchMeta>,
    /// Broken invariants; any entry makes the process exit non-zero.
    pub violations: Vec<String>,
}

impl Report {
    /// A paper table/figure: one bare-payload artifact, nothing to violate.
    pub fn paper<T: Serialize>(name: &'static str, rows: &T) -> Report {
        Report {
            rows: vec![(name, rows.to_value())],
            meta: None,
            violations: Vec::new(),
        }
    }

    /// A `BENCH_*` artifact with its provenance and gate results.
    pub fn bench<T: Serialize>(
        name: &'static str,
        meta: BenchMeta,
        rows: &T,
        violations: Vec<String>,
    ) -> Report {
        Report {
            meta: Some(meta),
            violations,
            ..Report::paper(name, rows)
        }
    }
}

impl Report {
    /// The one writer: every artifact to `<dir>/<stem>.json`, and for the
    /// `BENCH_*` series one `{experiment, meta, rows}` line appended to
    /// `<dir>/perf_ledger.jsonl`, so regenerating a snapshot keeps the
    /// numbers it replaces. Prints the violations; returns whether there
    /// were none.
    pub fn emit(&self, dir: &Path, experiment: &str) -> bool {
        for (name, rows) in &self.rows {
            let Some(meta) = &self.meta else {
                write_json(dir, name, rows);
                continue;
            };
            let doc = |experiment: Option<&str>| {
                let mut obj = Map::new();
                if let Some(e) = experiment {
                    obj.insert("experiment", Value::Str(e.to_string()));
                }
                obj.insert("meta", meta.to_value());
                obj.insert("rows", rows.clone());
                Value::Obj(obj)
            };
            write_json(dir, name, &doc(None));
            let line = serde_json::to_string(&doc(Some(experiment))).expect("serialize line");
            let mut ledger = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join("perf_ledger.jsonl"))
                .expect("open perf ledger");
            writeln!(ledger, "{line}").expect("append perf ledger");
        }
        if !self.violations.is_empty() {
            eprintln!("[{experiment}] FAIL:");
            for v in &self.violations {
                eprintln!("  - {v}");
            }
        }
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["Algo", "Time"]);
        t.row(vec!["PR".into(), "5.28".into()]);
        t.row(vec!["SSSP".into(), "341".into()]);
        let r = t.render();
        assert!(r.contains("Algo"));
        assert!(r.lines().count() == 4);
        // Right-aligned columns.
        assert!(r.lines().nth(2).unwrap().starts_with("  PR"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn fmt_sec_scales() {
        assert_eq!(fmt_sec(341.2), "341");
        assert_eq!(fmt_sec(5.284), "5.28");
        assert_eq!(fmt_sec(0.9), "0.900");
    }

    #[test]
    fn bench_reports_carry_provenance_and_append_to_the_ledger() {
        let dir = std::env::temp_dir().join("polymer_bench_meta_test");
        std::fs::remove_dir_all(&dir).ok();
        let spec = MachineSpec::test2().with_compressed_topology(true);
        let report = Report::bench(
            "BENCH_t",
            BenchMeta::with_provenance(-3, &spec, &Provenance::read()),
            &vec![7u64, 8],
            Vec::new(),
        );
        assert!(report.emit(&dir, "bench_t"));
        assert!(report.emit(&dir, "bench_t"), "a second run appends");
        let text = std::fs::read_to_string(dir.join("BENCH_t.json")).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        let top = back.as_object().unwrap();
        let m = top.get("meta").unwrap().as_object().unwrap();
        assert_eq!(m.get("scale").unwrap().as_i64(), Some(-3));
        assert_eq!(m.get("backend").unwrap().as_str(), Some("compressed"));
        assert_eq!(m.get("bulk_accounting").unwrap().as_bool(), Some(true));
        assert_eq!(m.get("shard_mode").unwrap().as_str(), Some("Auto"));
        assert!(m.get("host_cores").unwrap().as_u64().unwrap() >= 1);
        for key in ["commit", "rustc", "date"] {
            assert!(!m.get(key).unwrap().as_str().unwrap().is_empty(), "{key}");
        }
        assert_eq!(top.get("rows").unwrap().as_array().unwrap().len(), 2);

        let ledger = std::fs::read_to_string(dir.join("perf_ledger.jsonl")).unwrap();
        let lines: Vec<Value> = ledger
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        let line = lines[1].as_object().unwrap();
        assert_eq!(line.get("experiment").unwrap().as_str(), Some("bench_t"));
        assert_eq!(line.get("meta"), top.get("meta"));
        assert_eq!(line.get("rows"), top.get("rows"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paper_reports_stay_bare_and_violations_fail() {
        let dir = std::env::temp_dir().join("polymer_bench_paper_test");
        let mut report = Report::paper("t", &vec![1, 2, 3]);
        assert!(report.emit(&dir, "t"));
        let back: Vec<i32> =
            serde_json::from_str(&std::fs::read_to_string(dir.join("t.json")).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        assert!(!dir.join("perf_ledger.jsonl").exists());
        report.violations.push("broken".to_string());
        assert!(!report.emit(&dir, "t"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
