//! Minimal CLI parsing for the `polymer-bench` binary (no external
//! dependencies: one command word and three uniform flags).

use std::path::PathBuf;

/// The parsed command line: `polymer-bench <command> [flags]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// `list`, `all`, or the name of one experiment.
    pub command: String,
    /// Dataset scale shift (relative to `polymer_graph::datasets` defaults);
    /// `None` leaves every experiment at its own default.
    pub scale: Option<i32>,
    /// Output directory for JSON results.
    pub out: PathBuf,
    /// Where to write a Chrome-trace JSON timeline of one representative
    /// traced run (`--trace <path>`; load at `chrome://tracing` or
    /// <https://ui.perfetto.dev>). `None` when the flag is absent.
    pub trace: Option<PathBuf>,
}

const USAGE: &str = "usage: polymer-bench <experiment>|list|all \
     [--scale <shift>] [--out <dir>] [--trace <path>]\n\
     \x20 list             print the experiments and their default scales\n\
     \x20 all              run every experiment in one process, each simulated cell once\n\
     \x20 --scale <shift>  dataset size shift (negative = smaller; default per experiment)\n\
     \x20 --out <dir>      JSON results directory (default results/)\n\
     \x20 --trace <path>   Chrome-trace JSON of one traced run (fig10_barrier, bench_baseline;\n\
     \x20                  viewable at chrome://tracing or ui.perfetto.dev)";

impl Args {
    /// Parse `std::env::args`: prints the usage and exits on `--help`
    /// (status 0) or a malformed line (status 2).
    pub fn parse() -> Args {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(Some(args)) => args,
            Ok(None) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("polymer-bench: {msg}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parse an argument list (without the program name); `Ok(None)` when
    /// it asks for help.
    fn parse_from(args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
        let mut out = Args {
            command: String::new(),
            scale: None,
            out: PathBuf::from("results"),
            trace: None,
        };
        let mut it = args.enumerate();
        while let Some((i, a)) = it.next() {
            let mut value = || {
                it.next()
                    .map(|(_, v)| v)
                    .ok_or_else(|| format!("{a} needs a value"))
            };
            match a.as_str() {
                "--scale" => {
                    let v = value()?;
                    out.scale = Some(v.parse().map_err(|_| "--scale must be an integer")?);
                }
                "--out" => out.out = PathBuf::from(value()?),
                "--trace" => out.trace = Some(PathBuf::from(value()?)),
                "--help" | "-h" => return Ok(None),
                word if i == 0 && !word.starts_with('-') => out.command = word.to_string(),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if out.command.is_empty() {
            return Err("missing <experiment>, `list` or `all`".to_string());
        }
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Option<Args>, String> {
        Args::parse_from(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_overrides() {
        let a = parse(&["fig3_latency"]).unwrap().unwrap();
        assert_eq!(a.command, "fig3_latency");
        assert_eq!(a.scale, None);
        assert_eq!(a.out, PathBuf::from("results"));
        assert_eq!(a.trace, None);
        let a = parse(&["all", "--scale", "-4", "--out", "/tmp/x"]).unwrap();
        let a = a.unwrap();
        assert_eq!(a.command, "all");
        assert_eq!(a.scale, Some(-4));
        assert_eq!(a.out, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn trace_flag_parses() {
        let a = parse(&["fig10_barrier", "--trace", "out.json"]).unwrap();
        assert_eq!(a.unwrap().trace, Some(PathBuf::from("out.json")));
    }

    #[test]
    fn help_and_malformed_lines() {
        assert_eq!(parse(&["table3_runtimes", "--help"]), Ok(None));
        assert!(parse(&[]).is_err());
        assert!(parse(&["fig3_latency", "--scale"]).is_err());
        assert!(parse(&["fig3_latency", "--scale", "x"]).is_err());
        assert!(parse(&["fig3_latency", "extra"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
