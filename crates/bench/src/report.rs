//! Table printing and JSON result output.
//!
//! Every experiment binary renders a human-readable [`Table`] mirroring the
//! paper's layout and writes the underlying rows as JSON via [`write_json`]
//! (one `<name>.json` per table/figure under `results/`, documented in
//! `results/README.md`). Seconds are formatted with [`fmt_sec`] to match
//! the paper's precision conventions.
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
use std::path::Path;

use polymer_numa::{MachineSpec, SimShardMode};
use serde::Serialize;

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
pub fn write_json<T: Serialize>(dir: &Path, name: &str, value: &T) {
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let data = serde_json::to_string_pretty(value).expect("serialize results");
    fs::write(&path, data).expect("write results file");
    eprintln!("[results written to {}]", path.display());
}

/// The provenance block every `BENCH_*` artifact records (the bench-hygiene
/// contract): enough to tell where and how the numbers were produced.
///
/// Simulated metrics are host-independent, but the wall-clock columns are
/// not — `host_cores` pins down the machine context a committed artifact
/// came from, `scale` the dataset size it ran at, and the last three fields
/// the effective toggle set of the [`MachineSpec`] the run was built from.
#[derive(Clone, Debug, Serialize)]
pub struct BenchMeta {
    /// Host CPU parallelism when the artifact was produced (wall-clock
    /// context only; simulated numbers do not depend on it).
    pub host_cores: usize,
    /// Dataset scale shift the binary ran with (`--scale`).
    pub scale: i32,
    /// Topology encoding the run traversed: `"raw"` or `"compressed"`.
    pub backend: String,
    /// Whether access accounting was run-coalesced.
    pub bulk_accounting: bool,
    /// Host-sharding mode of the simulator's split phases.
    pub shard_mode: SimShardMode,
}

impl BenchMeta {
    /// The block for a run at `scale` on machines built from `spec`;
    /// `host_cores` comes from the OS.
    pub fn capture(scale: i32, spec: &MachineSpec) -> BenchMeta {
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
            shard_mode: spec.shard_mode,
        }
    }
}

/// Write a `BENCH_*` artifact to `<dir>/<name>.json` as
/// `{"meta": {...}, "rows": <payload>}` — every `BENCH_*` writer goes
/// through here so the metadata block stays uniform across the series.
pub fn write_json_with_meta<T: Serialize>(dir: &Path, name: &str, meta: &BenchMeta, rows: &T) {
    let mut obj = serde::Map::new();
    obj.insert("meta", meta.to_value());
    obj.insert("rows", rows.to_value());
    write_json(dir, name, &serde::Value::Obj(obj));
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
    fn write_json_round_trips() {
        let dir = std::env::temp_dir().join("polymer_bench_test");
        write_json(&dir, "t", &vec![1, 2, 3]);
        let back: Vec<i32> =
            serde_json::from_str(&std::fs::read_to_string(dir.join("t.json")).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_report_shape_is_uniform() {
        let dir = std::env::temp_dir().join("polymer_bench_meta_test");
        let spec = MachineSpec::test2().with_compressed_topology(true);
        let meta = BenchMeta::capture(-3, &spec);
        write_json_with_meta(&dir, "BENCH_t", &meta, &vec![7u64, 8]);
        let text = std::fs::read_to_string(dir.join("BENCH_t.json")).unwrap();
        let back: serde::Value = serde_json::from_str(&text).unwrap();
        let top = back.as_object().unwrap();
        let m = top.get("meta").unwrap().as_object().unwrap();
        assert_eq!(m.get("scale").unwrap().as_i64(), Some(-3));
        assert_eq!(m.get("backend").unwrap().as_str(), Some("compressed"));
        assert_eq!(m.get("bulk_accounting").unwrap().as_bool(), Some(true));
        assert_eq!(m.get("shard_mode").unwrap().as_str(), Some("Auto"));
        assert!(m.get("host_cores").unwrap().as_u64().unwrap() >= 1);
        let rows = top.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
