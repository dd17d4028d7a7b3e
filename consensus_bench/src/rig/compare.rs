//! `consensus_bench compare <a> <b>`: ROADMAP's `bench_diff`.
//!
//! Each input is the standard output of one or more runs: `{"run": …}` lines
//! naming the workload, each followed by its result line. For every pairing
//! of end-to-end metric and workload present in both inputs, the medians are
//! compared against the bound `BENCHMARK.json` fixes for that metric. Where
//! an input's own run-to-run spread is wider than the bound, the pairing is
//! reported as unresolved, not as unchanged.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::rig::json::{self, Value};
use crate::rig::stats::{median, relative_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median the metric may worsen by.
    pub bound: f64,
}

/// Reads the end-to-end metric declarations of a `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let list = doc.get("end_to_end").and_then(Value::as_array).ok_or("no end_to_end list")?;
    list.iter()
        .map(|metric| {
            let name = metric.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let better = metric.get("better").and_then(Value::as_str).ok_or("no direction")?;
            let bound = metric.get("bound").and_then(Value::as_f64).ok_or("no bound")?;
            Ok(Bound { name: name.to_string(), higher_is_better: better == "higher", bound })
        })
        .collect()
}

/// Values by `(workload, metric)`, plus the runs that were not correct.
#[derive(Debug, Default)]
pub struct Results {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub incorrect: Vec<String>,
}

/// Parses the output of one or more runs. Lines that are not JSON objects
/// (build chatter) are skipped.
pub fn results(text: &str) -> Results {
    let mut out = Results::default();
    let mut workload = String::from("unknown");
    for line in text.lines() {
        let Ok(doc) = json::parse(line) else { continue };
        if let Some(name) = doc.get("run").and_then(|r| r.get("workload")).and_then(Value::as_str) {
            workload = name.to_string();
        }
        let Some(metrics) = doc.get("metrics").and_then(Value::as_object) else { continue };
        if doc.get("correct") != Some(&Value::Bool(true)) {
            out.incorrect.push(workload.clone());
        }
        for (metric, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Value::as_f64) {
                out.values.entry((workload.clone(), metric.clone())).or_default().push(value);
            }
        }
    }
    out
}

/// How far `b` is worse than `a`, as a share of `a`'s median (negative when
/// it is better), and the verdict under `bound`.
pub fn classify(bound: &Bound, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (base, new) = (median(a), median(b));
    let change = (new - base) / base.abs().max(f64::MIN_POSITIVE);
    let worse_by = if bound.higher_is_better { -change } else { change };
    let spread = [a, b].into_iter().filter_map(relative_spread).fold(0.0, f64::max);
    let verdict = if spread > bound.bound {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (worse_by, verdict)
}

/// Compares two result sets; returns the table and whether anything is
/// worse.
pub fn compare(bounds: &[Bound], a: &Results, b: &Results) -> (String, bool) {
    let mut table = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        table,
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "bound"
    );
    for ((workload, metric), a_values) in &a.values {
        let Some(bound) = bounds.iter().find(|bound| &bound.name == metric) else { continue };
        let Some(b_values) = b.values.get(&(workload.clone(), metric.clone())) else { continue };
        let (worse_by, verdict) = classify(bound, a_values, b_values);
        any_worse |= verdict == Verdict::Worse;
        let _ = writeln!(
            table,
            "{workload:<14} {metric:<18} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}",
            median(a_values),
            median(b_values),
            100.0 * worse_by + 0.0,
            100.0 * bound.bound,
            verdict.label()
        );
    }
    for workload in &b.incorrect {
        any_worse = true;
        let _ = writeln!(table, "{workload:<14} a run of b failed its output checks  worse");
    }
    (table, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end": [
        {"name": "throughput_ops_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#;

    fn run(workload: &str, throughput: f64, p50: f64) -> String {
        format!(
            "{{\"run\": {{\"workload\": \"{workload}\"}}}}\n{{\"correct\": true, \"attempted\": 9, \
             \"failed\": 0, \"metrics\": {{\"throughput_ops_s\": {{\"value\": {throughput}, \
             \"unit\": \"1/s\"}}, \"latency_p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}}}}}\n"
        )
    }

    #[test]
    fn flags_a_twelve_percent_throughput_drop_and_passes_a_five_percent_one() {
        let bounds = bounds(BENCHMARK).unwrap();
        let base = results(&(run("lan-batched", 90_000.0, 5.0) + "   Compiling noise\n"));
        let small = results(&run("lan-batched", 85_500.0, 5.2));
        let large = results(&run("lan-batched", 79_200.0, 5.2));
        let (table, worse) = compare(&bounds, &base, &small);
        assert!(!worse, "{table}");
        assert!(table.contains("within bound"));
        let (table, worse) = compare(&bounds, &base, &large);
        assert!(worse, "{table}");
        assert!(table.lines().any(|l| l.contains("throughput_ops_s") && l.ends_with("worse")));
        assert!(table.lines().any(|l| l.contains("latency_p50_ms") && l.ends_with("within bound")));
    }

    #[test]
    fn direction_spread_and_failed_runs_decide_the_verdict() {
        let bounds = bounds(BENCHMARK).unwrap();
        // Lower is better: a 20 % drop in latency is an improvement.
        assert_eq!(classify(&bounds[1], &[5.0], &[4.0]).1, Verdict::Better);
        assert_eq!(classify(&bounds[1], &[5.0], &[6.0]).1, Verdict::Worse);
        // The baseline's own runs span more than the bound: no verdict.
        let noisy = [60_000.0, 90_000.0, 120_000.0];
        assert_eq!(classify(&bounds[0], &noisy, &[50_000.0]).1, Verdict::Unresolved);
        // Different workloads are never paired.
        let (table, worse) = compare(
            &bounds,
            &results(&run("wan-sim", 458.0, 98.0)),
            &results(&run("lan-open", 1.0, 1.0)),
        );
        assert!(!worse);
        assert_eq!(table.lines().count(), 1);
        // A failed output check in b is a regression whatever the numbers.
        let failed = results(
            &run("lan-open", 3_000.0, 0.7).replace("\"correct\": true", "\"correct\": false"),
        );
        assert!(compare(&bounds, &results(&run("lan-open", 3_000.0, 0.7)), &failed).1);
    }
}
