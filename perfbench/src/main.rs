//! `perfbench`: the microgrid-opt benchmark. Four workloads drive the
//! program through its public API — NSGA-II studies and site sweeps in
//! process, and studies over real TCP to an in-process daemon — and
//! every result is checked bit for bit against a scalar-walk reference.
//! See `perfbench/README.md` for why each workload exists and what each
//! metric should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search_paper|sweep_sites|serve_small|serve_cold|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. The exit code is
//! 0 only when every study was correct.

#![forbid(unsafe_code)]

mod gen;
mod harness;
mod inproc;
mod oracle;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::{Command, ExitCode};
use std::time::Duration;

use report::WORKLOADS;

/// The default workload seed (claims are made on it)...
pub const DEFAULT_SEED: u64 = 1;
/// ...and the held-out seed a claim must also hold on.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
}

impl Args {
    /// The timed window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

const USAGE: &str =
    "usage: perfbench --workload <search_paper|sweep_sites|serve_small|serve_cold|all> \
[--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Run every workload in its own child process, so each one's peak
/// memory is its own, and combine their result lines.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut attempted, mut failed, mut ok) = (0u64, 0u64, true);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{w}: could not run: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let (report, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
        println!("{report}");
        ok &= out.status.success();
        let Some(result) = serde_json::from_str::<serde::Value>(last).ok() else {
            eprintln!("{w}: no result line");
            return ExitCode::FAILURE;
        };
        let count = |k| match result.get(k) {
            Some(serde::Value::Int(n)) => *n as u64,
            _ => 0,
        };
        attempted += count("attempted");
        failed += count("failed");
        if let Some(m) = result.get("metrics").and_then(|m| m.as_map()) {
            for (name, v) in m {
                metrics.push(format!(
                    "\"{w}.{name}\": {}",
                    serde_json::to_string(v).unwrap_or_default()
                ));
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        ok && failed == 0,
        metrics.join(", ")
    );
    if ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\n{USAGE}\ndefault seed {DEFAULT_SEED}; claims must also hold on seed {HELD_OUT_SEED}"
            );
            return ExitCode::from(2);
        }
    };
    // The program must see only its defaults and the generated inputs.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("MGOPT_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("unset {knobs:?}: the benchmark measures the program's defaults");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let run = match args.workload.as_str() {
        "search_paper" => inproc::search_paper(&args),
        "sweep_sites" => inproc::sweep_sites(&args),
        "serve_small" | "serve_cold" => {
            let mode = if args.workload == "serve_small" {
                serve::Mode::Small
            } else {
                serve::Mode::Cold
            };
            match serve::serve(&args, mode) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("{}: daemon I/O failed: {e}", args.workload);
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => unreachable!("workload names are validated"),
    };
    report::print(&args.workload, &run, args.trace);
    if run.failed == 0 && run.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve_cold --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_cold", 7, 10.0, true)
        );
        let d = parse_args(&argv("--workload all")).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "",
            "--workload search_paper --trace 2",
            "--workload search_paper --seconds 0",
            "--workload search_paper --seed -1",
            "--workload search_paper --extra",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
