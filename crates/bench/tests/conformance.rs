//! Single-tier identity suite: replay the golden PhaseCost matrix and
//! require field-for-field equality with the committed fixture.
//!
//! [`polymer_bench::golden::golden_matrix`] runs every engine × algorithm
//! cell on the single-tier [`MachineSpec::test2`], so this test pins the
//! whole simulated-accounting contract: the tiered-memory machinery (tier
//! routing, promotion policies, migration traffic) must be completely
//! inert on single-tier machines. Any drift in a charged access, barrier,
//! or iteration count fails here before it can reach a benchmark artifact.
//!
//! [`MachineSpec::test2`]: polymer_numa::MachineSpec::test2

use polymer_bench::golden::{golden_matrix, GoldenRow};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/golden_phasecosts.json"
);

#[test]
fn single_tier_matrix_replays_golden_fixture() {
    let committed: Vec<GoldenRow> = serde_json::from_str(
        &std::fs::read_to_string(FIXTURE).expect("committed results/golden_phasecosts.json"),
    )
    .expect("fixture deserializes as a GoldenRow array");
    assert!(
        !committed.is_empty(),
        "fixture must hold the engine x algorithm matrix"
    );

    let replayed = golden_matrix(&polymer_numa::MachineSpec::test2());
    assert_eq!(
        replayed.len(),
        committed.len(),
        "matrix shape changed: regenerate the fixture only for an \
         intentional fidelity change (see crate::golden docs)"
    );
    for (got, want) in replayed.iter().zip(&committed) {
        assert_eq!(
            got, want,
            "{}/{} drifted from the golden fixture: simulated accounting \
             is no longer bit-identical",
            want.engine, want.algo
        );
    }
}
