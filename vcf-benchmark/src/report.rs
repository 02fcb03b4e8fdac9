//! Run results, their one-line JSON form, the `BENCHMARK.json` metric
//! table, and `compare` over recorded runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use vcf_xtask::json::{self, Value};

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// One correctness check of the gate.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short stable name, printed when the check fails.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// What was compared.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// The correctness gate.
    pub checks: Vec<Check>,
    /// Keys sent.
    pub attempted: u64,
    /// Keys whose insert was refused or whose frame failed.
    pub failed: u64,
    /// Sample counts and other context printed beside the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends a check.
    pub fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }

    /// The result as one JSON object on one line:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
    #[must_use]
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable block: metrics with units, notes, checks.
    #[must_use]
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("== {title}\n");
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for note in &self.notes {
            let _ = writeln!(out, "  # {note}");
        }
        for c in &self.checks {
            let verdict = if c.passed { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "  [{verdict}] {}: {}", c.name, c.detail);
        }
        out
    }
}

/// `a / b`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `values` (mean of the middle two for an even count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let m = median(&v);
        return (m, m);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One metric's row of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    /// Parses the text of `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or mistyped field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let list = |key: &str| -> Result<&[Value], String> {
            root.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` must be a list"))
        };
        let specs = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .map(str::to_owned)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry lacks `{f}`"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        lower_is_better: field("better")? == "lower",
                        bound: m.get("bound").and_then(Value::as_num),
                    })
                })
                .collect()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| "BENCHMARK.json: workload lacks `name`".to_owned())
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_num)
                .ok_or("BENCHMARK.json: `run_seconds` must be a number")?,
            workloads,
            end_to_end: specs("end_to_end")?,
            per_layer: specs("per_layer")?,
        })
    }
}

/// One recorded run: which workload and seed, and its metric values.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// Metric name to value.
    pub metrics: BTreeMap<String, f64>,
}

impl Record {
    /// The line `--record` appends: the result object plus the workload
    /// and seed that produced it.
    #[must_use]
    pub fn line(workload: &str, seed: u64, outcome: &Outcome) -> String {
        let body = outcome.json_line();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, {}",
            &body[1..]
        )
    }

    /// Parses every non-empty line of a record file.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed line.
    pub fn parse_all(text: &str) -> Result<Vec<Self>, String> {
        text.lines()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty())
            .map(|(n, line)| {
                let v = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
                let workload = v
                    .get("workload")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("line {}: no workload", n + 1))?
                    .to_owned();
                let seed = v.get("seed").and_then(Value::as_num).unwrap_or(0.0) as u64;
                let mut metrics = BTreeMap::new();
                if let Some(Value::Obj(pairs)) = v.get("metrics") {
                    for (name, m) in pairs {
                        if let Some(value) = m.get("value").and_then(Value::as_num) {
                            metrics.insert(name.clone(), value);
                        }
                    }
                }
                Ok(Self {
                    workload,
                    seed,
                    metrics,
                })
            })
            .collect()
    }
}

/// The comparison of one workload × metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Parent median, first and third quartile.
    pub parent: (f64, f64, f64),
    /// Change median, first and third quartile.
    pub change: (f64, f64, f64),
    /// Pairs (same seed) the change won.
    pub wins: usize,
    /// Pairs compared (ties included).
    pub pairs: usize,
    /// better / worse / same / unresolved.
    pub verdict: &'static str,
}

/// Compares `parent` and `change` runs of one metric. Runs pair up by
/// seed. The verdict:
///
/// * `better`: the change wins at least 9/10 of the pairs (ties count
///   for neither) and the medians differ by more than the parent's
///   interquartile range;
/// * `worse`: the change's median is worse than the parent's by more
///   than `bound` of it, and the parent's own spread is within the bound
///   (or every change run is worse than every parent run);
/// * `same`: neither, with the parent's spread within the bound;
/// * `unresolved`: neither, but the spread is wider than the bound.
#[must_use]
pub fn compare_metric(
    parent: &[(u64, f64)],
    change: &[(u64, f64)],
    lower_is_better: bool,
    bound: f64,
) -> Comparison {
    let summary = |runs: &[(u64, f64)]| {
        let values: Vec<f64> = runs.iter().map(|r| r.1).collect();
        let (q1, q3) = quartiles(&values);
        (median(&values), q1, q3)
    };
    let (p, c) = (summary(parent), summary(change));
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let mut wins = 0;
    let mut pairs = 0;
    for &(seed, value) in change {
        if let Some(&(_, base)) = parent.iter().find(|r| r.0 == seed) {
            pairs += 1;
            wins += usize::from(better(value, base));
        }
    }
    let iqr = p.2 - p.1;
    let spread_ok = iqr <= bound * p.0.abs();
    let gap = (c.0 - p.0).abs();
    let worse_by = if lower_is_better {
        c.0 - p.0
    } else {
        p.0 - c.0
    };
    let all_worse = parent
        .iter()
        .all(|&(_, a)| change.iter().all(|&(_, b)| better(a, b)));
    let verdict = if pairs > 0 && wins * 10 >= 9 * pairs && better(c.0, p.0) && gap > iqr {
        "better"
    } else if worse_by > bound * p.0.abs() && (spread_ok || all_worse) {
        "worse"
    } else if spread_ok {
        "same"
    } else {
        "unresolved"
    };
    Comparison {
        parent: p,
        change: c,
        wins,
        pairs,
        verdict,
    }
}

/// `x` to five significant digits.
fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let magnitude = x.abs().log10().floor() as i32;
    if (-1..5).contains(&magnitude) {
        let decimals = (4 - magnitude) as usize;
        format!("{x:.decimals$}")
    } else {
        format!("{x:.4e}")
    }
}

/// `compare` over two record files: one row per workload × end-to-end
/// metric of `spec`.
#[must_use]
pub fn compare(spec: &BenchSpec, parent: &[Record], change: &[Record]) -> (String, usize) {
    let mut out = String::new();
    let mut worse = 0;
    let _ = writeln!(
        out,
        "{:<14} {:<18} {:>34} {:>34} {:>20} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "wins"
    );
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let runs = |records: &[Record]| -> Vec<(u64, f64)> {
                records
                    .iter()
                    .filter(|r| &r.workload == workload)
                    .filter_map(|r| r.metrics.get(&m.name).map(|&v| (r.seed, v)))
                    .collect()
            };
            let (p, c) = (runs(parent), runs(change));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let cmp = compare_metric(&p, &c, m.lower_is_better, m.bound.unwrap_or(0.0));
            worse += usize::from(cmp.verdict == "worse");
            let cell =
                |(med, q1, q3): (f64, f64, f64)| format!("{} [{}, {}]", sig(med), sig(q1), sig(q3));
            let _ = writeln!(
                out,
                "{workload:<14} {:<18} {:>34} {:>34} {:>20} {:>6}  {}",
                format!("{} ({})", m.name, m.unit),
                cell(cmp.parent),
                cell(cmp.change),
                format!(
                    "{:.4} of {}",
                    ratio(cmp.change.0, cmp.parent.0),
                    sig(cmp.parent.0)
                ),
                format!("{}/{}", cmp.wins, cmp.pairs),
                cmp.verdict
            );
        }
    }
    (out, worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.push("p50_us", 12.5, "us");
        o.push("fpr", 1e-4, "fraction");
        o.check("x", true, String::new());
        let v = json::parse(&o.json_line()).expect("valid JSON");
        let Value::Obj(pairs) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = v.get("metrics").and_then(|m| m.get("p50_us")).expect("p50");
        assert_eq!(p50.get("value").and_then(Value::as_num), Some(12.5));
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("us"));
        let rec = Record::parse_all(&Record::line("w", 3, &o)).expect("record");
        assert_eq!((rec[0].workload.as_str(), rec[0].seed), ("w", 3));
        assert_eq!(rec[0].metrics.get("fpr"), Some(&1e-4));
    }

    #[test]
    fn verdicts_follow_the_pair_rule_and_the_bound() {
        let runs = |vals: &[f64]| -> Vec<(u64, f64)> {
            vals.iter()
                .enumerate()
                .map(|(i, &v)| (i as u64, v))
                .collect()
        };
        let parent = runs(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ]);
        let faster = runs(&[90.0, 91.0, 89.0, 90.5, 89.5, 90.0, 90.2, 89.8, 90.1, 89.9]);
        let slower = runs(&[
            120.0, 121.0, 119.0, 120.5, 119.5, 120.0, 120.2, 119.8, 120.1, 119.9,
        ]);
        assert_eq!(
            compare_metric(&parent, &faster, true, 0.1).verdict,
            "better"
        );
        assert_eq!(compare_metric(&parent, &slower, true, 0.1).verdict, "worse");
        assert_eq!(compare_metric(&parent, &parent, true, 0.1).verdict, "same");
        assert_eq!(
            compare_metric(&parent, &slower, false, 0.1).verdict,
            "better"
        );
        let noisy = runs(&[
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ]);
        assert_eq!(
            compare_metric(&noisy, &noisy, true, 0.1).verdict,
            "unresolved"
        );
    }
}
