//! Golden PhaseCost fixture generator — see [`polymer_bench::golden`].
//!
//! Writes `golden_phasecosts.json` (default under `results/`): the
//! accounting aggregates of a fixed (engine × algorithm) matrix that
//! `tests/conformance.rs` pins bit-for-bit. Regenerate only for an
//! intentional fidelity change, with the rationale in EXPERIMENTS.md.

use polymer_bench::golden::golden_matrix;
use polymer_bench::write_json;

fn main() {
    let out = std::env::args()
        .skip_while(|a| a != "--out")
        .nth(1)
        .unwrap_or_else(|| "results".to_string());
    let rows = golden_matrix(&polymer_numa::MachineSpec::test2());
    write_json(std::path::Path::new(&out), "golden_phasecosts", &rows);
}
