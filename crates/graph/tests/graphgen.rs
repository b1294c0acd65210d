//! The `graphgen` binary end to end: a flag value the generators cannot take
//! is a usage error (the usage text, exit status 2), never a panic from a
//! generator's `assert!`; values at the edge of each range still write a
//! graph.

use std::path::Path;
use std::process::{Command, Output};

/// Run `graphgen` with the whitespace-separated `args` and `-o out`.
fn graphgen(args: &str, out: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_graphgen"))
        .args(args.split_whitespace())
        .args(["-o", out])
        .output()
        .expect("graphgen starts")
}

fn out_path(name: &str) -> String {
    format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"))
}

#[test]
fn out_of_range_flags_exit_2_with_the_usage_text() {
    let out = out_path("graphgen-rejected.txt");
    for args in [
        "rmat --scale 0 --edges 10",
        "rmat --scale 31 --edges 10",
        "road --side 1",
        "road --side 0",
        "uniform --vertices 0 --edges 10",
        "powerlaw --vertices 1 --avg-degree 2",
        "powerlaw --vertices 100 --avg-degree 2 --alpha 1",
        "powerlaw --vertices 100 --avg-degree 2 --alpha NaN",
        "road --side 4 --p-bond 1.5",
        "road --side 4 --p-bond -0.1",
        "road --side 4 --p-bond NaN",
    ] {
        let o = graphgen(args, &out);
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.contains("usage: graphgen"), "{args}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
    }
    assert!(!Path::new(&out).exists(), "a rejected run wrote {out}");
}

#[test]
fn flags_at_the_edge_of_their_range_write_a_graph() {
    for (i, args) in [
        "rmat --scale 1 --edges 3",
        "road --side 2 --p-bond 0",
        "road --side 2 --p-bond 1",
        "uniform --vertices 1 --edges 2",
        "powerlaw --vertices 2 --avg-degree 1 --alpha 1.01",
    ]
    .into_iter()
    .enumerate()
    {
        let out = out_path(&format!("graphgen-edge-{i}.txt"));
        let o = graphgen(args, &out);
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(0), "{args}: {stderr}");
        assert!(Path::new(&out).exists(), "{args} wrote nothing");
    }
}
