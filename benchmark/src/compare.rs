//! `--compare A B`: regression verdicts between two ledgers of plain runs.
//!
//! For every workload × end-to-end metric: `worse` when B's median is worse
//! than A's by more than the metric's bound (a share of A's median),
//! `unresolved` when either side's run-to-run spread — interquartile range
//! over median — is wider than the bound, `within bound` otherwise. A side
//! whose runs failed more operations than the other's is `incorrect`: a
//! number measured while failing is not a result. This is the check the
//! repeatability criterion is verified with: compare two ledgers of the
//! same code.

use crate::contract::{Contract, Metric};
use crate::json::{self, Value};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// The plain runs of one workload, in ledger order.
#[derive(Default)]
struct Runs {
    /// metric → one value per run.
    values: BTreeMap<String, Vec<f64>>,
    /// Operations failed, refused or failing a correctness check, all runs.
    failed: u64,
}

/// workload → its plain runs.
type Ledger = BTreeMap<String, Runs>;

fn parse(text: &str) -> Result<Ledger, String> {
    let mut ledger = Ledger::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let entry = json::parse(line)?;
        if json::get(&entry, "trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let workload = json::get(&entry, "workload")
            .and_then(Value::as_str)
            .ok_or("ledger entry without a workload")?;
        let result = json::get(&entry, "result").ok_or("ledger entry without a result")?;
        let metrics = json::get(result, "metrics")
            .and_then(Value::as_map)
            .ok_or("ledger entry without metrics")?;
        let failed = json::get(result, "failed")
            .and_then(Value::as_u64)
            .ok_or("ledger entry without a `failed` count")?;
        let runs = ledger.entry(workload.to_string()).or_default();
        // `correct: false` with `failed: 0` cannot be written by this
        // program, but a ledger is a file: count it as one failure.
        let correct = json::get(result, "correct") == Some(&Value::Bool(true));
        runs.failed += failed.max(u64::from(!correct));
        for (name, metric) in metrics {
            runs.values
                .entry(name.clone())
                .or_default()
                .push(json::num(metric, "value"));
        }
    }
    Ok(ledger)
}

/// Interquartile range as a share of the median (0 for fewer than two runs).
fn spread(values: &[f64]) -> f64 {
    let median = stats::median(values);
    if values.len() < 2 || median == 0.0 {
        return 0.0;
    }
    let (q1, q3) = stats::quartiles(values);
    (q3 - q1) / median.abs()
}

#[derive(Debug, PartialEq, Clone, Copy)]
enum Verdict {
    Within,
    Worse,
    Unresolved,
    Incorrect,
}

fn verdict(a: &[f64], b: &[f64], metric: &Metric) -> Verdict {
    if spread(a) > metric.bound || spread(b) > metric.bound {
        return Verdict::Unresolved;
    }
    let (a, b) = (stats::median(a), stats::median(b));
    let worsening = if metric.higher_is_better {
        a - b
    } else {
        b - a
    };
    if worsening > metric.bound * a.abs() {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// One row per workload × end-to-end metric of `a`. A workload or metric of
/// `a` that `b` lacks is an error, not a skipped row.
fn verdicts(
    a: &Ledger,
    b: &Ledger,
    contract: &Contract,
) -> Result<Vec<(String, String, Verdict)>, String> {
    if a.is_empty() {
        return Err("the first ledger holds no plain run".into());
    }
    let mut rows = Vec::new();
    for (workload, runs_a) in a {
        let runs_b = b
            .get(workload)
            .ok_or(format!("the second ledger has no plain run of {workload}"))?;
        for metric in &contract.end_to_end {
            let values = |runs: &'_ Runs, side: &str| {
                runs.values.get(&metric.name).cloned().ok_or(format!(
                    "the {side} ledger lacks {} on {workload}",
                    metric.name
                ))
            };
            let (va, vb) = (values(runs_a, "first")?, values(runs_b, "second")?);
            let verdict = if runs_b.failed > runs_a.failed {
                Verdict::Incorrect
            } else {
                verdict(&va, &vb, metric)
            };
            println!(
                "{workload:<12} {:<14} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                metric.name,
                stats::median(&va),
                stats::median(&vb),
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                metric.bound * 100.0,
                match verdict {
                    Verdict::Within => "within bound",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Incorrect => "incorrect",
                }
            );
            rows.push((workload.clone(), metric.name.clone(), verdict));
        }
        if runs_a.failed > 0 || runs_b.failed > 0 {
            println!(
                "{workload:<12} failed operations: {} in A, {} in B",
                runs_a.failed, runs_b.failed
            );
        }
    }
    Ok(rows)
}

/// Print the verdicts; `Ok(false)` if any is `worse` or `incorrect`.
pub fn compare(a: &Path, b: &Path, contract: &Contract) -> Result<bool, String> {
    let read = |path: &Path| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "bound"
    );
    let rows = verdicts(&read(a)?, &read(b)?, contract)?;
    Ok(rows
        .iter()
        .all(|row| !matches!(row.2, Verdict::Worse | Verdict::Incorrect)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Metric {
        Metric {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better,
            bound: 0.1,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        let (lower, higher) = (metric(false), metric(true));
        assert_eq!(
            verdict(&steady, &[10.5, 10.6, 10.4, 10.5], &lower),
            Verdict::Within
        );
        assert_eq!(
            verdict(&steady, &[11.5, 11.6, 11.4, 11.5], &lower),
            Verdict::Worse
        );
        // Lower is worse only for higher-is-better metrics.
        assert_eq!(
            verdict(&steady, &[8.0, 8.1, 7.9, 8.0], &lower),
            Verdict::Within
        );
        assert_eq!(
            verdict(&steady, &[8.0, 8.1, 7.9, 8.0], &higher),
            Verdict::Worse
        );
        // A spread wider than the bound decides nothing.
        assert_eq!(
            verdict(&[8.0, 12.0, 9.0, 11.0], &[20.0; 4], &lower),
            Verdict::Unresolved
        );
        // Single runs have no spread: the medians decide.
        assert_eq!(verdict(&[1.0], &[1.05], &lower), Verdict::Within);
    }

    /// A ledger of one plain run per workload, every end-to-end metric 1.0.
    fn ledger(contract: &Contract, workloads: &[&str], failed: u64, skip: &str) -> Ledger {
        let metrics: String = contract
            .end_to_end
            .iter()
            .filter(|m| m.name != skip)
            .map(|m| format!("\"{}\":{{\"value\":1.0,\"unit\":\"{}\"}}", m.name, m.unit))
            .collect::<Vec<_>>()
            .join(",");
        let text: String = workloads
            .iter()
            .map(|w| {
                format!(
                    "{{\"workload\":\"{w}\",\"trace\":false,\"result\":{{\"correct\":{},\
                     \"attempted\":9,\"failed\":{failed},\"metrics\":{{{metrics}}}}}}}\n",
                    failed == 0
                )
            })
            .collect();
        parse(&text).unwrap()
    }

    #[test]
    fn a_broken_or_partial_second_ledger_never_passes() {
        let contract = Contract::load().unwrap();
        let good = ledger(&contract, &["batch_wide", "serve_read"], 0, "");
        let all = |l: &Ledger, v: Verdict| {
            verdicts(&good, l, &contract)
                .unwrap()
                .iter()
                .all(|row| row.2 == v)
        };
        assert!(all(&good, Verdict::Within));
        // More failed operations than the baseline: no number counts.
        let failing = ledger(&contract, &["batch_wide", "serve_read"], 3, "");
        assert!(all(&failing, Verdict::Incorrect));
        // A workload or a metric the second ledger lacks is an error.
        let partial = ledger(&contract, &["batch_wide"], 0, "");
        assert!(verdicts(&good, &partial, &contract).is_err());
        let thin = ledger(&contract, &["batch_wide", "serve_read"], 0, "setup_s");
        assert!(verdicts(&good, &thin, &contract).is_err());
        assert!(verdicts(&Ledger::new(), &good, &contract).is_err());
    }

    #[test]
    fn traced_runs_are_not_compared_and_correct_false_counts_as_a_failure() {
        let text = "{\"workload\":\"w\",\"trace\":true,\"result\":{}}\n\
                    {\"workload\":\"w\",\"trace\":false,\"result\":{\"correct\":false,\
                    \"attempted\":1,\"failed\":0,\"metrics\":{}}}\n";
        let ledger = parse(text).unwrap();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger["w"].failed, 1);
    }
}
