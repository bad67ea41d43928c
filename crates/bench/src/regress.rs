//! Perf-baseline regression gate: replay figures, diff their metric
//! snapshots against committed baselines.
//!
//! Figures record named metrics through [`crate::common::bench_metric`]
//! while they print their tables; `figures regress` replays the selected
//! figures, drains those metrics, and compares each against the
//! committed `bench/baselines/BENCH_<figure>.json` snapshot. A metric
//! fails when its replayed value lands outside `baseline * (1 ± tol)`,
//! where `tol` is the per-metric relative tolerance the baseline
//! recorded (tight for deterministic cycle counts, loose for
//! host-elastic multi-worker walls).
//!
//! Exit codes mirror the CLI's conventions: a missing or mode-mismatched
//! baseline is a *setup* error (exit 2 — the gate cannot run), an
//! out-of-tolerance metric is a *regression* (exit 1). `--bless`
//! rewrites the baselines from the replay instead of comparing. The
//! `POPT_REGRESS_INFLATE` environment variable multiplies every replayed
//! value before comparison — CI sets it to `1.2` to prove the gate
//! catches a synthetic 20% cycle regression.
//!
//! Baselines are parsed by [`popt_obs::parse_json`], the workspace's one
//! dependency-free JSON grammar (no serde is vendored) — the same one
//! [`popt_obs::validate_json`] checks every exported document against.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use popt_obs::{parse_json, Json};

use crate::common::BenchMetric;

/// A parsed `BENCH_<figure>.json` baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Figure id the snapshot was recorded from.
    pub figure: String,
    /// Scale mode (`quick` or `full`) the values were measured under —
    /// compared against the replay's mode, never across modes.
    pub mode: String,
    /// Metrics in document order.
    pub metrics: Vec<BenchMetric>,
}

/// One metric's comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Snapshot key.
    pub name: String,
    /// Committed value.
    pub baseline: f64,
    /// Replayed value (after any `POPT_REGRESS_INFLATE`), `None` when
    /// the replay no longer records the metric.
    pub current: Option<f64>,
    /// Relative tolerance from the baseline.
    pub tol: f64,
    /// Signed relative delta `(current - baseline) / |baseline|`.
    pub rel_delta: f64,
    /// Within tolerance?
    pub pass: bool,
}

const EPS: f64 = 1e-12;

/// The figures `figures regress` replays when no id is given — exactly
/// the figures with a committed baseline under [`baselines_dir`].
pub const DEFAULT_IDS: &[&str] = &["scale", "serve"];

/// The committed baselines directory (`bench/baselines/` at the repo
/// root, resolved relative to this crate so the gate works from any
/// working directory).
pub fn baselines_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baselines")
}

/// The committed baseline path of one figure.
pub fn baseline_path(id: &str) -> PathBuf {
    baselines_dir().join(format!("BENCH_{id}.json"))
}

/// Compare a replay's metrics against the baseline. Every baseline
/// metric must be present and within its tolerance; metrics the replay
/// recorded but the baseline never saw are returned separately (they are
/// advice to re-bless, not a failure — a new metric cannot regress).
pub fn compare(
    baseline: &Baseline,
    current: &[BenchMetric],
    inflate: f64,
) -> (Vec<MetricDelta>, Vec<String>) {
    let deltas: Vec<MetricDelta> = baseline
        .metrics
        .iter()
        .map(|b| {
            let cur = current
                .iter()
                .find(|c| c.name == b.name)
                .map(|c| c.value * inflate);
            let rel_delta = match cur {
                Some(v) => (v - b.value) / b.value.abs().max(EPS),
                None => f64::INFINITY,
            };
            MetricDelta {
                name: b.name.clone(),
                baseline: b.value,
                current: cur,
                tol: b.tol,
                rel_delta,
                pass: cur.is_some() && rel_delta.abs() <= b.tol,
            }
        })
        .collect();
    let known: BTreeSet<&str> = baseline.metrics.iter().map(|m| m.name.as_str()).collect();
    let new = current
        .iter()
        .filter(|c| !known.contains(c.name.as_str()))
        .map(|c| c.name.clone())
        .collect();
    (deltas, new)
}

/// Parse one baseline document and extract the `{figure, mode, metrics}`
/// schema; malformed JSON and any missing or mistyped field is an error
/// (a hand-edited baseline must fail loudly, not compare garbage).
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let doc = parse_json(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let figure = doc
        .get("figure")
        .and_then(Json::as_str)
        .ok_or("missing \"figure\"")?
        .to_string();
    let mode = doc
        .get("mode")
        .and_then(Json::as_str)
        .ok_or("missing \"mode\"")?
        .to_string();
    let Some(Json::Obj(fields)) = doc.get("metrics") else {
        return Err("missing \"metrics\" object".into());
    };
    let mut metrics = Vec::with_capacity(fields.len());
    for (name, entry) in fields {
        let value = entry
            .get("value")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("metric {name:?}: missing \"value\""))?;
        let tol = entry
            .get("tol")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("metric {name:?}: missing \"tol\""))?;
        // At tol >= 1 a value that fell to zero reads -100 % and passes:
        // such a gate can only trip upward.
        if !(0.0..1.0).contains(&tol) {
            return Err(format!("metric {name:?}: tol {tol} is outside [0, 1)"));
        }
        metrics.push(BenchMetric {
            name: name.clone(),
            value,
            tol,
        });
    }
    Ok(Baseline {
        figure,
        mode,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::snapshot_json;

    fn metric(name: &str, value: f64, tol: f64) -> BenchMetric {
        BenchMetric {
            name: name.into(),
            value,
            tol,
        }
    }

    #[test]
    fn snapshot_round_trips_through_the_parser() {
        let metrics = vec![
            metric("wall_ms", 12.5, 0.1),
            metric("speedup", 3.25, 0.35),
            metric("weird \"name\"\n", -0.001953125, 0.0),
        ];
        let doc = snapshot_json("scale", "quick", &metrics);
        let parsed = parse_baseline(&doc).expect("own snapshots parse");
        assert_eq!(parsed.figure, "scale");
        assert_eq!(parsed.mode, "quick");
        assert_eq!(parsed.metrics, metrics, "values survive bit-exactly");
    }

    #[test]
    fn malformed_baselines_fail_loudly() {
        assert!(parse_baseline("{").is_err());
        assert!(parse_baseline("[]").is_err(), "wrong shape");
        assert!(
            parse_baseline("{\"figure\":\"x\"}").is_err(),
            "missing mode"
        );
        assert!(
            parse_baseline("{\"figure\":\"x\",\"mode\":\"quick\",\"metrics\":{\"m\":{}}}").is_err(),
            "metric without value/tol"
        );
        for tol in ["4", "1", "-0.1"] {
            let doc = format!(
                "{{\"figure\":\"x\",\"mode\":\"quick\",\"metrics\":{{\"m\":{{\"value\":1,\"tol\":{tol}}}}}}}"
            );
            let err = parse_baseline(&doc).expect_err("a tolerance outside [0, 1) is refused");
            assert!(err.contains("\"m\""), "the error names the metric: {err}");
        }
    }

    #[test]
    fn default_ids_are_exactly_the_committed_baselines() {
        for id in DEFAULT_IDS {
            let path = baseline_path(id);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let baseline = parse_baseline(&text)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
            assert_eq!(baseline.figure, *id, "{}", path.display());
            assert_eq!(baseline.mode, "quick", "{}", path.display());
        }
        let committed: BTreeSet<String> = std::fs::read_dir(baselines_dir())
            .expect("baselines directory is readable")
            .map(|entry| entry.expect("directory entry").file_name())
            .filter_map(|name| {
                let name = name.to_str()?;
                Some(
                    name.strip_prefix("BENCH_")?
                        .strip_suffix(".json")?
                        .to_string(),
                )
            })
            .collect();
        let listed: BTreeSet<String> = DEFAULT_IDS.iter().map(|id| id.to_string()).collect();
        assert_eq!(
            committed, listed,
            "every committed baseline is gated by default"
        );
    }

    #[test]
    fn compare_passes_within_tolerance_and_fails_outside() {
        let base = Baseline {
            figure: "scale".into(),
            mode: "quick".into(),
            metrics: vec![metric("a", 100.0, 0.10), metric("b", 50.0, 0.35)],
        };
        let current = vec![metric("a", 105.0, 0.10), metric("b", 60.0, 0.35)];
        let (deltas, new) = compare(&base, &current, 1.0);
        assert!(deltas.iter().all(|d| d.pass), "{deltas:?}");
        assert!(new.is_empty());

        // a drifts 12% — past its 10% tolerance.
        let current = vec![metric("a", 112.0, 0.10), metric("b", 50.0, 0.35)];
        let (deltas, _) = compare(&base, &current, 1.0);
        assert!(!deltas[0].pass);
        assert!((deltas[0].rel_delta - 0.12).abs() < 1e-12);
        assert!(deltas[1].pass);
    }

    #[test]
    fn synthetic_inflation_trips_tight_metrics() {
        let base = Baseline {
            figure: "scale".into(),
            mode: "quick".into(),
            metrics: vec![metric("tight", 100.0, 0.10), metric("loose", 100.0, 0.35)],
        };
        let current = vec![metric("tight", 100.0, 0.10), metric("loose", 100.0, 0.35)];
        let (deltas, _) = compare(&base, &current, 1.2);
        assert!(!deltas[0].pass, "20% inflation must trip a 10% tolerance");
        assert!(deltas[1].pass, "a 35% tolerance absorbs it by design");
    }

    #[test]
    fn missing_and_new_metrics_are_told_apart() {
        let base = Baseline {
            figure: "serve".into(),
            mode: "quick".into(),
            metrics: vec![metric("gone", 1.0, 0.1)],
        };
        let current = vec![metric("fresh", 2.0, 0.1)];
        let (deltas, new) = compare(&base, &current, 1.0);
        assert!(!deltas[0].pass, "a vanished metric is a failure");
        assert_eq!(deltas[0].current, None);
        assert_eq!(new, vec!["fresh".to_string()], "new metrics are advice");
    }

    #[test]
    fn baseline_paths_land_in_the_committed_directory() {
        let p = baseline_path("scale");
        assert!(p.ends_with("bench/baselines/BENCH_scale.json"), "{p:?}");
    }
}
