//! `polymer-bench <experiment>|list|all [--scale N] [--out DIR] [--trace PATH]`
//! — the one entry point of the experiment harness. Everything an
//! experiment computes lives in the library ([`polymer_bench::experiments`]);
//! this file selects registry rows, runs them against one [`Session`], and
//! owns the only write-results / report-violations / `exit(1)` tail.

use polymer_bench::experiments::{Experiment, EXPERIMENTS};
use polymer_bench::{Args, Session};

fn main() {
    let args = Args::parse();
    let selected: Vec<&Experiment> = match args.command.as_str() {
        "list" => {
            println!("{:<24}{:>5}  what it regenerates", "experiment", "scale");
            for e in &EXPERIMENTS {
                println!("{:<24}{:>5}  {}", e.name, e.default_scale, e.about);
            }
            return;
        }
        "all" => EXPERIMENTS.iter().collect(),
        name => match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(e) => vec![e],
            None => {
                eprintln!("polymer-bench: no experiment named {name} (try `polymer-bench list`)");
                std::process::exit(2);
            }
        },
    };
    let all = selected.len() > 1;
    if all && args.trace.is_some() {
        eprintln!("polymer-bench: --trace needs a single experiment");
        std::process::exit(2);
    }

    let mut session = Session::new(args);
    let mut ok = true;
    for e in selected {
        session.scale = session.args.scale.unwrap_or(e.default_scale);
        if all {
            println!("\n=== {} (scale {}) ===\n", e.name, session.scale);
        }
        let report = (e.run)(&mut session);
        ok &= report.emit(&session.args.out, e.name);
    }
    if all {
        println!(
            "\ncells requested: {}, cells run: {} ({} served from the session cache)",
            session.cells_requested,
            session.cells_run,
            session.cells_requested - session.cells_run
        );
    }
    if !ok {
        std::process::exit(1);
    }
}
