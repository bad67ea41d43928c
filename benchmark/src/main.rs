//! The repo benchmark. See `README.md` in this directory and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! popt-benchmark [run] [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
//! popt-benchmark trace [--workload W] [--seed S] [--seconds N] [--out DIR]
//! popt-benchmark compare DIR_A DIR_B
//! popt-benchmark check
//! popt-benchmark manifest
//! ```

mod engine;
mod gen;
mod measure;
mod metrics;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use measure::{RunArgs, RunResult};

const USAGE: &str = "usage:
  popt-benchmark [run] [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
  popt-benchmark trace [--workload W] [--seed S] [--seconds N] [--out DIR]
  popt-benchmark compare DIR_A DIR_B
  popt-benchmark check
  popt-benchmark manifest
workloads: scan_q6 join_star par_star serve_mix (default: all four)";

/// Longest window a run accepts; the benchmark contract caps a run at
/// 180 s including set-up and enumeration.
const MAX_SECONDS: u64 = 120;

struct Cli {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_run(args: &[String], trace: bool) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: metrics::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect(),
        seed: gen::DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS,
        trace,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                if !metrics::is_workload(value) {
                    return Err(bad());
                }
                cli.workloads = vec![value.clone()];
            }
            "--seed" => cli.seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => {
                cli.seconds = parse_u64(value)
                    .filter(|s| (1..=MAX_SECONDS).contains(s))
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(cli)
}

/// Print the run for a reader, then the result line the driver parses.
fn print_result(result: &RunResult) -> Result<(), String> {
    let line = report::result_line(result)?;
    println!(
        "## {} seed {:#x} {}",
        result.workload,
        result.seed,
        if result.trace {
            "traced run (per-layer metrics)"
        } else {
            "end-to-end run"
        }
    );
    for note in &result.notes {
        println!("# {note}");
    }
    for (name, value) in &result.metrics {
        let unit = metrics::unit_of(name).unwrap_or("");
        println!("{name:<34} {value:>18.6} {unit}");
    }
    println!(
        "attempted {} failed {} correct {}",
        result.attempted, result.failed, result.correct
    );
    println!("{line}");
    Ok(())
}

fn run(cli: &Cli) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in &cli.workloads {
        let args = RunArgs {
            workload: workload.clone(),
            seed: cli.seed,
            seconds: cli.seconds as f64,
            trace: cli.trace,
            shift: 0,
        };
        let result = measure::run(&args, cli.out.as_deref())?;
        if let Some(dir) = &cli.out {
            report::write_result(dir, &result)?;
        }
        print_result(&result)?;
        all_correct &= result.correct;
    }
    Ok(all_correct)
}

/// Smoke test: every workload at 1/16 scale, one second end to end and
/// one second traced.
fn check() -> Result<bool, String> {
    let mut all_correct = true;
    for def in &metrics::WORKLOADS {
        for trace in [false, true] {
            let args = RunArgs {
                workload: def.name.to_string(),
                seed: gen::DEFAULT_SEED,
                seconds: 1.0,
                trace,
                shift: 4,
            };
            let result = measure::run(&args, None)?;
            report::result_line(&result)?;
            println!(
                "check {:<10} {:<10} attempted {:>5} failed {} metrics {}",
                def.name,
                if trace { "traced" } else { "end-to-end" },
                result.attempted,
                result.failed,
                result.metrics.len()
            );
            all_correct &= result.correct;
        }
    }
    Ok(all_correct)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match args {
            [_, a, b] => report::compare(Path::new(a), Path::new(b), Path::new("BENCHMARK.json"))
                .map(|regressed| !regressed),
            _ => Err(USAGE.to_string()),
        },
        Some("check") if args.len() == 1 => check(),
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest_json());
            Ok(true)
        }
        Some("trace") => run(&parse_run(&args[1..], true)?),
        Some("run") => run(&parse_run(&args[1..], false)?),
        Some(word) if !word.starts_with("--") => Err(USAGE.to_string()),
        // The driver's form: flags only, `run` implied.
        _ => run(&parse_run(args, false)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("popt-benchmark: wrong results or a regression; see the output above");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("popt-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
