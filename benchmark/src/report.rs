//! Result output (the driver's last line, one JSON file per run) and
//! `compare`, which reads two sets of result files back.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::measure::RunResult;
use crate::metrics::{self, Better};
use crate::stats::{median, quartiles};

type Res<T> = Result<T, String>;

/// A parsed JSON value; just enough to read the benchmark's own files
/// and `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn parse(text: &str) -> Res<Json> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing data at byte {}", parser.pos));
        }
        Ok(value)
    }
}

/// Nesting deeper than this is refused rather than recursed into.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Res<()> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Res<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Res<Json> {
        if depth > MAX_DEPTH {
            return Err("JSON nested too deeply".into());
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b'}') {
                        self.pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    if !fields.is_empty() {
                        self.expect(b',')?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.expect(b',')?;
                    }
                    items.push(self.value(depth + 1)?);
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|x| x.is_finite())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of JSON".into()),
        }
    }

    fn string(&mut self) -> Res<String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = *self.bytes.get(self.pos + 1).ok_or("bad escape")?;
                    self.pos += 2;
                    match escaped {
                        b'"' | b'\\' | b'/' => out.push(escaped),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4).ok_or("bad \\u")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.extend(code.to_string().as_bytes());
                            self.pos += 4;
                        }
                        _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

fn unit(name: &str) -> &'static str {
    metrics::unit_of(name).expect("every reported metric is in the tables")
}

/// The result line the benchmark contract asks for: exactly `correct`,
/// `attempted`, `failed` and `metrics`, every value with all its digits.
pub fn result_line(result: &RunResult) -> Res<String> {
    let mut fields = Vec::with_capacity(result.metrics.len());
    for (name, value) in &result.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit(name)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        fields.join(", ")
    ))
}

/// Write the run's result file into `dir` under a name no earlier run
/// of the set used, and return its path.
pub fn write_result(dir: &Path, result: &RunResult) -> Res<PathBuf> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let kind = if result.trace { "layers" } else { "e2e" };
    let doc = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {}}}\n",
        result.workload,
        result.seed,
        u8::from(result.trace),
        result_line(result)?
    );
    let path = (0..)
        .map(|n| {
            dir.join(format!(
                "{}.{kind}.{:x}.{n}.json",
                result.workload, result.seed
            ))
        })
        .find(|p| !p.exists())
        .expect("an unbounded range has a free index");
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// `(workload, metric)` → `(seed, value)` of every run in a result set,
/// in file-name order (so the n-th run of a seed stays the n-th).
type ResultSet = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn read_set(dir: &Path) -> Res<ResultSet> {
    let mut set = ResultSet::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .filter(|p| !p.to_string_lossy().ends_with(".trace.json"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let bad = || format!("{}: not a result file", path.display());
        let workload = doc.get("workload").and_then(Json::as_str).ok_or_else(bad)?;
        let seed = doc.get("seed").and_then(Json::as_f64).ok_or_else(bad)? as u64;
        let Some(Json::Obj(fields)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(bad());
        };
        for (name, entry) in fields {
            let value = entry.get("value").and_then(Json::as_f64).ok_or_else(bad)?;
            set.entry((workload.to_string(), name.clone()))
                .or_default()
                .push((seed, value));
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(set)
}

/// Pair the runs of two sets: the n-th run of a seed in A with the n-th
/// run of that seed in B. Runs without a partner are left out.
fn pair_by_seed(a: &[(u64, f64)], b: &[(u64, f64)]) -> Vec<(f64, f64)> {
    let mut taken = vec![false; b.len()];
    let mut pairs = Vec::new();
    for &(seed, x) in a {
        let partner = (0..b.len()).find(|&j| !taken[j] && b[j].0 == seed);
        if let Some(j) = partner {
            taken[j] = true;
            pairs.push((x, b[j].1));
        }
    }
    pairs
}

/// Bounds of the end-to-end metrics as `BENCHMARK.json` states them.
pub fn manifest_bounds(manifest: &Json) -> Res<Vec<(String, f64)>> {
    manifest
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name or bound".to_string())
        })
        .collect()
}

/// How set B reads against set A on one `(workload, metric)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Better,
    Regression,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// B against A over seed-matched pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// Median over pairs of the share by which B is worse than A
    /// (negative: better).
    pub change: f64,
    /// Quartile distance of that share over the pairs: the noise the
    /// pairing could not remove.
    pub spread: f64,
    /// Pairs in which B read better, and worse, than A (ties in neither).
    pub wins: usize,
    pub losses: usize,
    pub verdict: Verdict,
}

/// Judge B against A. Where the pairs' own spread exceeds the bound the
/// metric is unresolved, unless B reads better in every pair.
pub fn judge(pairs: &[(f64, f64)], better: Better, bound: f64) -> Judgement {
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let changes: Vec<f64> = pairs
        .iter()
        .map(|&(a, b)| {
            if a == 0.0 {
                0.0
            } else {
                sign * (b - a) / a.abs()
            }
        })
        .collect();
    let (q1, change, q3) = quartiles(&changes);
    let wins = changes.iter().filter(|&&c| c < 0.0).count();
    let losses = changes.iter().filter(|&&c| c > 0.0).count();
    let spread = q3 - q1;
    let verdict = if !pairs.is_empty() && wins == pairs.len() {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    Judgement {
        change,
        spread,
        wins,
        losses,
        verdict,
    }
}

/// Print, per `(workload, metric)`, both medians, the median change over
/// seed-matched pairs, the pairs' spread and how many pairs B won; apply
/// the bounds to the end-to-end metrics. Returns whether any regressed.
pub fn compare(dir_a: &Path, dir_b: &Path, manifest: &Path) -> Res<bool> {
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let bounds = manifest_bounds(&Json::parse(&text)?)?;
    let (a, b) = (read_set(dir_a)?, read_set(dir_b)?);
    let mut regressed = false;
    println!(
        "{:<10} {:<30} {:>5} {:>15} {:>15} {:>9} {:>8} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "pairs",
        "A median",
        "B median",
        "change",
        "spread",
        "won/lost",
        "bound"
    );
    for ((workload, metric), a_runs) in &a {
        let Some(b_runs) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let pairs = pair_by_seed(a_runs, b_runs);
        if pairs.is_empty() {
            println!("{workload:<10} {metric:<30} no run of A shares a seed with a run of B");
            continue;
        }
        let (bound, better) = match metrics::END_TO_END.iter().find(|m| m.name == metric) {
            Some(def) => {
                let stated = bounds
                    .iter()
                    .find(|(name, _)| name == metric)
                    .map_or(def.bound, |(_, bound)| *bound);
                (
                    Some(stated.min(metrics::bound_for(workload, def))),
                    def.better,
                )
            }
            None => (None, Better::Lower),
        };
        let judged = judge(&pairs, better, bound.unwrap_or(f64::INFINITY));
        regressed |= bound.is_some() && judged.verdict == Verdict::Regression;
        let median_of =
            |side: fn(&(f64, f64)) -> f64| median(&pairs.iter().map(side).collect::<Vec<_>>());
        println!(
            "{:<10} {:<30} {:>5} {:>15.6} {:>15.6} {:>+9.4} {:>8.4} {:>9} {:>6}  {}",
            workload,
            metric,
            pairs.len(),
            median_of(|p| p.0),
            median_of(|p| p.1),
            judged.change,
            judged.spread,
            format!("{}/{}", judged.wins, judged.losses),
            bound.map_or("-".to_string(), |b| format!("{b:.2}")),
            bound.map_or("", |_| judged.verdict.label()),
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_reads_what_the_benchmark_writes() {
        let doc =
            Json::parse(r#"{"a": [1, 2.5, -3e2], "s": "x\"y\\zA", "t": true, "n": null, "o": {}}"#)
                .unwrap();
        let a: Vec<f64> = doc
            .get("a")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        assert_eq!(a, vec![1.0, 2.5, -300.0]);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x\"y\\zA"));
        assert_eq!(doc.get("t"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("n"), Some(&Json::Null));
        assert_eq!(doc.get("o"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]x",
            "{\"a\" 1}",
            "\"open",
            "tru",
            "1 2",
            "{\"a\":1e999}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn result_line_round_trips_and_refuses_non_finite_values() {
        let mut result = RunResult {
            workload: "scan_q6".into(),
            seed: 7,
            trace: false,
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![("setup_s", 0.123456789), ("sim_regret", 0.98)],
            notes: vec![],
        };
        let doc = Json::parse(&result_line(&result).unwrap()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(12.0));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.123456789));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        result.metrics[0].1 = f64::NAN;
        assert!(result_line(&result).is_err());
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let pairs = |b: [f64; 5]| a.iter().copied().zip(b).collect::<Vec<_>>();
        let scaled = |k: f64| pairs(a.map(|x| x * k));
        // Within the bound.
        assert_eq!(
            judge(&scaled(1.04), Better::Lower, 0.10).verdict,
            Verdict::Ok
        );
        // Worse by more than the bound.
        let worse = judge(&scaled(1.15), Better::Lower, 0.10);
        assert_eq!(worse.verdict, Verdict::Regression);
        assert!((worse.change - 0.15).abs() < 1e-12 && worse.spread < 1e-12);
        assert_eq!((worse.wins, worse.losses), (0, 5));
        // "Higher is better" flips the direction.
        assert_eq!(
            judge(&scaled(0.85), Better::Higher, 0.10).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(&scaled(1.15), Better::Higher, 0.10).verdict,
            Verdict::Better
        );
        // Pairs that disagree by more than the bound: unresolved, unless
        // B wins every pair.
        let noisy = pairs([80.0, 125.0, 99.0, 130.0, 70.0]);
        assert_eq!(
            judge(&noisy, Better::Lower, 0.10).verdict,
            Verdict::Unresolved
        );
        let all_won = pairs([60.0, 95.0, 70.0, 99.0, 50.0]);
        assert_eq!(
            judge(&all_won, Better::Lower, 0.10).verdict,
            Verdict::Better
        );
        // The same value on both sides is a tie: neither won nor lost.
        let same = judge(&scaled(1.0), Better::Lower, 0.02);
        assert_eq!((same.wins, same.losses, same.verdict), (0, 0, Verdict::Ok));
    }

    #[test]
    fn runs_pair_by_seed_in_order() {
        let a = [(1, 10.0), (2, 20.0), (1, 11.0), (3, 30.0)];
        let b = [(2, 21.0), (1, 12.0), (1, 13.0), (4, 40.0)];
        assert_eq!(
            pair_by_seed(&a, &b),
            vec![(10.0, 12.0), (20.0, 21.0), (11.0, 13.0)]
        );
        assert!(pair_by_seed(&a, &[]).is_empty());
    }

    #[test]
    fn result_files_round_trip_through_a_set() {
        // Under the package's ignored `target/`, so the test writes
        // nothing outside the checkout.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("result-set-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let result = RunResult {
            workload: "join_star".into(),
            seed: 3,
            trace: false,
            correct: true,
            attempted: 5,
            failed: 0,
            metrics: vec![("sim_regret", 1.19)],
            notes: vec![],
        };
        let first = write_result(&dir, &result).unwrap();
        let second = write_result(&dir, &result).unwrap();
        assert_ne!(first, second);
        let set = read_set(&dir).unwrap();
        assert_eq!(
            set.get(&("join_star".to_string(), "sim_regret".to_string())),
            Some(&vec![(3, 1.19), (3, 1.19)])
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
