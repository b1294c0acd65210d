//! Command-line graph generator: writes any of the supported synthetic
//! families (or a named scaled dataset) to an edge-list file.
//!
//! ```sh
//! graphgen rmat --scale 18 --edges 4000000 --seed 7 -o twitter.bin
//! graphgen powerlaw --vertices 100000 --avg-degree 10 -o pl.txt
//! graphgen road --side 512 -o road.bin
//! graphgen dataset --name twitter --shift -2 -o twitter_s.bin
//! ```

use std::collections::HashMap;
use std::process::exit;

use polymer_graph::{dataset, gen, io, DatasetId};

fn usage() -> ! {
    eprintln!(
        "usage: graphgen <rmat|powerlaw|road|uniform|dataset> [flags] -o <file>\n\
         common: --seed <u64> (default 1), -o/--out <file> (.bin = binary)\n\
         rmat:     --scale <log2 V> --edges <count>\n\
         powerlaw: --vertices <count> --avg-degree <f64> [--alpha <f64>]\n\
         road:     --side <grid side> [--p-bond <f64>]\n\
         uniform:  --vertices <count> --edges <count>\n\
         dataset:  --name <twitter|rMat24|rMat27|powerlaw|roadUS> [--shift <i32>]"
    );
    exit(2)
}

/// Reject a flag value the generator would refuse with a panic: the reason,
/// then the usage text and exit status 2, as for any other bad flag.
fn require(ok: bool, reason: &str) {
    if !ok {
        eprintln!("{reason}");
        usage();
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let family = args.next().unwrap_or_else(|| usage());
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut key: Option<String> = None;
    for a in args {
        match key.take() {
            Some(k) => {
                flags.insert(k, a);
            }
            None => {
                if let Some(stripped) = a.strip_prefix("--") {
                    key = Some(stripped.to_string());
                } else if a == "-o" {
                    key = Some("out".to_string());
                } else {
                    eprintln!("unexpected argument {a:?}");
                    usage();
                }
            }
        }
    }
    let get = |k: &str| flags.get(k).cloned();
    let parse = |k: &str, d: Option<&str>| -> String {
        get(k).or_else(|| d.map(str::to_string)).unwrap_or_else(|| {
            eprintln!("missing --{k}");
            usage()
        })
    };
    let seed: u64 = parse("seed", Some("1")).parse().unwrap_or_else(|_| usage());
    let out = parse("out", None);

    let el = match family.as_str() {
        "rmat" => {
            let scale: u32 = parse("scale", None).parse().unwrap_or_else(|_| usage());
            let edges: usize = parse("edges", None).parse().unwrap_or_else(|_| usage());
            require((1..=30).contains(&scale), "--scale must be in 1..=30");
            gen::rmat(scale, edges, gen::RMAT_GRAPH500, seed)
        }
        "powerlaw" => {
            let n: usize = parse("vertices", None).parse().unwrap_or_else(|_| usage());
            let avg: f64 = parse("avg-degree", None)
                .parse()
                .unwrap_or_else(|_| usage());
            let alpha: f64 = parse("alpha", Some("2.0"))
                .parse()
                .unwrap_or_else(|_| usage());
            require(n >= 2, "--vertices must be at least 2");
            require(alpha > 1.0, "--alpha must exceed 1");
            gen::powerlaw_zipf(n, alpha, avg, seed)
        }
        "road" => {
            let side: usize = parse("side", None).parse().unwrap_or_else(|_| usage());
            let p: f64 = parse("p-bond", Some("0.6"))
                .parse()
                .unwrap_or_else(|_| usage());
            require(side >= 2, "--side must be at least 2");
            require((0.0..=1.0).contains(&p), "--p-bond must be in [0, 1]");
            gen::road_grid(side, side, p, seed)
        }
        "uniform" => {
            let n: usize = parse("vertices", None).parse().unwrap_or_else(|_| usage());
            let edges: usize = parse("edges", None).parse().unwrap_or_else(|_| usage());
            require(n >= 1, "--vertices must be at least 1");
            gen::uniform(n, edges, seed)
        }
        "dataset" => {
            let name = parse("name", None);
            let shift: i32 = parse("shift", Some("0"))
                .parse()
                .unwrap_or_else(|_| usage());
            let id = DatasetId::ALL
                .into_iter()
                .find(|d| d.name().eq_ignore_ascii_case(&name))
                .unwrap_or_else(|| {
                    eprintln!("unknown dataset {name:?}");
                    usage()
                });
            dataset(id, shift)
        }
        _ => usage(),
    };

    if let Err(e) = io::save(&el, &out) {
        eprintln!("failed to write {out}: {e}");
        exit(1);
    }
    eprintln!(
        "wrote {} vertices, {} edges to {out}",
        el.num_vertices,
        el.num_edges()
    );
}
