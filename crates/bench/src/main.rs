//! CLI entry point: regenerate the paper's figures.
//!
//! ```text
//! figures all                    # every figure, full scale
//! figures 12 13                  # selected figures
//! figures all --quick            # smoke-test scale
//! figures regress --quick        # replay + diff against committed baselines
//! figures regress --quick --bless  # re-record the baselines
//! ```

use popt_bench::common::{snapshot_json, Figure, FigureCtx};
use popt_bench::figures;
use popt_bench::regress;

fn print_usage() {
    eprintln!(
        "usage: figures <id...|all|regress|help> [--quick] [--shared-llc] [--sockets N] \
         [--json] [--trace-out PATH] [--bless]"
    );
    eprintln!("figure ids: {}", figures::ALL.join(", "));
    eprintln!("  --quick           reduced scale for smoke runs");
    eprintln!("  --shared-llc      single-socket mode: co-running work contends for one LLC");
    eprintln!("  --sockets N       split the pool into N sockets (parallel/serving figures)");
    eprintln!("  --json            machine-readable JSON lines instead of tab columns");
    eprintln!("  --trace-out PATH  write a Chrome-trace JSON of the traced figures' decisions");
    eprintln!(
        "  regress [id...]   replay figures (default: {}) and fail if any recorded metric \
         drifts past its committed baseline tolerance",
        regress::DEFAULT_IDS.join(" ")
    );
    eprintln!("  --bless           with regress: rewrite the committed baselines instead");
}

/// Run one figure; an unknown id exits 2 with the known ids printed.
fn run_figure(id: &str, ctx: &FigureCtx) -> Figure {
    figures::run(id, ctx).unwrap_or_else(|| {
        eprintln!(
            "unknown figure id {id:?}; known: {}",
            figures::ALL.join(", ")
        );
        std::process::exit(2);
    })
}

/// The `regress` subcommand: replay and print each figure, then compare
/// its recorded metrics (or `--bless` them) against the committed
/// baseline.
/// Exit codes: 2 for setup errors (missing/invalid/mode-mismatched
/// baseline, bad inflate), 1 for an out-of-tolerance metric, 0 clean.
fn run_regress(ctx: &FigureCtx, json: bool, ids: &[&str], bless: bool) -> ! {
    let ids = if ids.is_empty() {
        regress::DEFAULT_IDS
    } else {
        ids
    };
    let mode = if ctx.quick { "quick" } else { "full" };
    // CI's self-test knob: multiply every replayed value to prove the
    // gate trips on a synthetic regression.
    let inflate = match std::env::var("POPT_REGRESS_INFLATE") {
        Ok(v) => match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x > 0.0 => x,
            _ => {
                eprintln!("error: POPT_REGRESS_INFLATE={v:?} is not a positive number");
                std::process::exit(2);
            }
        },
        Err(_) => 1.0,
    };

    // Load every baseline *before* replaying anything: a missing file
    // must fail fast, not after minutes of simulation.
    let mut baselines = Vec::new();
    if !bless {
        for id in ids {
            let path = regress::baseline_path(id);
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!(
                        "error: no committed baseline for figure {id:?} at {} ({e}); \
                         record one with `figures regress --bless {id}`",
                        path.display()
                    );
                    std::process::exit(2);
                }
            };
            let baseline = match regress::parse_baseline(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error: baseline {} does not parse: {e}", path.display());
                    std::process::exit(2);
                }
            };
            if baseline.mode != mode {
                eprintln!(
                    "error: baseline {} was recorded in {:?} mode but this replay is \
                     {mode:?}; rerun with the matching scale flag or re-bless",
                    path.display(),
                    baseline.mode
                );
                std::process::exit(2);
            }
            baselines.push(baseline);
        }
    }

    let mut failed = false;
    for (k, id) in ids.iter().enumerate() {
        let figure = run_figure(id, ctx);
        print!("{}", figure.render(json, false));
        if figure.metrics.is_empty() {
            eprintln!("error: figure {id:?} records no metrics — nothing to gate");
            std::process::exit(2);
        }
        if bless {
            let path = regress::baseline_path(id);
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).expect("baselines directory is creatable");
            }
            std::fs::write(&path, snapshot_json(id, mode, &figure.metrics))
                .expect("baseline path is writable");
            println!(
                "regress {id}: blessed {} metrics -> {}",
                figure.metrics.len(),
                path.display()
            );
            continue;
        }
        let (deltas, new) = regress::compare(&baselines[k], &figure.metrics, inflate);
        let mut figure_failed = false;
        for d in &deltas {
            let verdict = if d.pass { "ok" } else { "FAIL" };
            let current = match d.current {
                Some(v) => format!("{v:.6}"),
                None => "missing".into(),
            };
            println!(
                "regress {id}: {} baseline={:.6} current={current} delta={:+.2}% tol={:.0}% {verdict}",
                d.name,
                d.baseline,
                d.rel_delta * 100.0,
                d.tol * 100.0,
            );
            figure_failed |= !d.pass;
        }
        for name in &new {
            println!("regress {id}: {name} is new (not in the baseline) — consider --bless");
        }
        println!(
            "regress {id}: {} ({} metrics, {} new)",
            if figure_failed { "FAIL" } else { "PASS" },
            deltas.len(),
            new.len()
        );
        failed |= figure_failed;
    }
    if failed {
        eprintln!("regress: FAIL — at least one metric drifted past its baseline tolerance");
        std::process::exit(1);
    }
    println!("regress: all replayed metrics within baseline tolerance");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut shared_llc = false;
    let mut sockets = 1usize;
    let mut json = false;
    let mut bless = false;
    let mut trace_out: Option<String> = None;
    let mut ids: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--shared-llc" => shared_llc = true,
            "--json" => json = true,
            "--bless" => bless = true,
            "--sockets" => {
                // A socket count of 0 (or garbage) must fail loudly for
                // the same reason an unknown flag does.
                sockets = match iter.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) if n >= 1 => n,
                    _ => {
                        eprintln!("error: --sockets needs a count >= 1");
                        print_usage();
                        std::process::exit(2);
                    }
                };
            }
            "--trace-out" => {
                trace_out = match iter.next() {
                    Some(path) if !path.is_empty() && !path.starts_with('-') => Some(path.clone()),
                    _ => {
                        eprintln!("error: --trace-out needs a file path");
                        print_usage();
                        std::process::exit(2);
                    }
                };
            }
            flag if flag.starts_with('-') => {
                // An unknown flag must fail loudly: silently ignoring it
                // would let a CI smoke "pass" while running the wrong
                // experiment.
                eprintln!("error: unknown flag {flag:?}");
                print_usage();
                std::process::exit(2);
            }
            id => ids.push(id),
        }
    }
    let ctx = FigureCtx {
        quick,
        shared_llc,
        sockets,
        trace_out,
    };

    // `figures help` is a successful, explicit request for usage (exit 0);
    // a bare `figures` is a misuse that still deserves the usage text but
    // must fail (exit 2) so scripts notice the missing figure ids.
    if ids.contains(&"help") {
        print_usage();
        std::process::exit(0);
    }
    if ids.is_empty() {
        eprintln!("error: no figure ids given");
        print_usage();
        std::process::exit(2);
    }

    if ids[0] == "regress" {
        run_regress(&ctx, json, &ids[1..], bless);
    }
    if bless {
        eprintln!("error: --bless only applies to the regress subcommand");
        print_usage();
        std::process::exit(2);
    }

    let selected: Vec<&str> = if ids.contains(&"all") {
        figures::ALL.to_vec()
    } else {
        ids
    };

    let started = std::time::Instant::now();
    for id in &selected {
        let t0 = std::time::Instant::now();
        let figure = run_figure(id, &ctx);
        print!("{}", figure.render(json, true));
        eprintln!("# figure {id} done in {:.1}s", t0.elapsed().as_secs_f64());
    }
    eprintln!(
        "# all requested figures done in {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
