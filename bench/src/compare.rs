//! `--compare base.json new.json`: one row per workload × end-to-end
//! metric with both medians, the ratio and its base, the bound, and a
//! verdict.  Each file is a `run.json` holding one or more sets.

use crate::stats::quartiles;
use crate::{Better, END_TO_END};
use nsc_serve::json::{self, Json};
use std::path::Path;

#[derive(Debug, PartialEq)]
pub struct Verdict {
    pub base: f64,
    pub new: f64,
    /// Quartile spread of the base's own sets over their median; unknown
    /// with a single set.
    pub spread: Option<f64>,
    pub word: &'static str,
}

fn center(values: &[f64]) -> f64 {
    if values.len() == 1 {
        values[0]
    } else {
        quartiles(values)[1]
    }
}

/// `regressed` when the new median is worse than the base's by more than
/// `bound` of it; `unresolved` instead of anything else when the base's
/// own sets spread wider than the bound — unless every new value beats
/// every base value.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (b, n) = (center(base), center(new));
    let worse_by = match better {
        Better::Lower => (n - b) / b,
        Better::Higher => (b - n) / b,
    };
    let spread = (base.len() >= 2).then(|| {
        let q = quartiles(base);
        (q[2] - q[0]) / q[1]
    });
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all_better = new.iter().all(|&x| base.iter().all(|&y| beats(x, y)));
    let word = if spread.is_some_and(|s| s > bound) && !all_better {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else {
        "ok"
    };
    Verdict {
        base: b,
        new: n,
        spread,
        word,
    }
}

fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Json::as_u64) != Some(1) {
        return Err(format!("{}: not a schema-1 run file", path.display()));
    }
    Ok(doc)
}

/// `metric` of `workload` in every set of a run file that has it (a failed
/// request makes a latency null; it reads as `+∞`, worse than anything).
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let sets = doc.get("sets").and_then(Json::as_arr).unwrap_or(&[]);
    sets.iter()
        .filter_map(Json::as_arr)
        .flatten()
        .filter(|w| w.get("name").and_then(Json::as_str) == Some(workload))
        .filter_map(|w| w.get("end_to_end")?.get(metric)?.get("value"))
        .map(|v| v.as_f64().unwrap_or(f64::INFINITY))
        .collect()
}

fn settings(doc: &Json) -> String {
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    format!("seed {} seconds {}", num("seed"), num("seconds"))
}

/// Prints the table; `Ok(true)` when every row is `ok`.
pub fn run(base: &Path, new: &Path) -> Result<bool, String> {
    let (a, b) = (read(base)?, read(new)?);
    if settings(&a) != settings(&b) {
        eprintln!(
            "warning: the files were taken with different settings ({} vs {})",
            settings(&a),
            settings(&b)
        );
    }
    println!(
        "{:<15} {:<15} {:>12} {:>12} {:>9} {:>6} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound", "spread"
    );
    let mut all_ok = true;
    let mut rows = 0;
    for wl in &crate::WORKLOADS {
        for (metric, _, better, bound) in END_TO_END {
            let (va, vb) = (values(&a, wl.name, metric), values(&b, wl.name, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = judge(&va, &vb, better, bound);
            all_ok &= v.word == "ok";
            rows += 1;
            println!(
                "{:<15} {:<15} {:>12.4} {:>12.4} {:>9.4} {:>6.2} {:>7}  {}",
                wl.name,
                metric,
                v.base,
                v.new,
                v.new / v.base,
                bound,
                v.spread.map_or("n/a".to_string(), |s| format!("{s:.3}")),
                v.word
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no workload".into());
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sets_are_ok_or_regressed() {
        assert_eq!(judge(&[100.0], &[109.0], Better::Lower, 0.10).word, "ok");
        assert_eq!(
            judge(&[100.0], &[111.0], Better::Lower, 0.10).word,
            "regressed"
        );
        assert_eq!(judge(&[100.0], &[91.0], Better::Higher, 0.10).word, "ok");
        assert_eq!(
            judge(&[100.0], &[89.0], Better::Higher, 0.10).word,
            "regressed"
        );
        assert_eq!(judge(&[100.0], &[50.0], Better::Lower, 0.10).word, "ok");
        let failed = judge(&[100.0], &[f64::INFINITY], Better::Lower, 0.10);
        assert_eq!(failed.word, "regressed");
        assert_eq!(failed.spread, None);
    }

    #[test]
    fn a_base_noisier_than_the_bound_is_unresolved_unless_beaten_outright() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let v = judge(&noisy, &[100.0, 101.0, 99.0], Better::Lower, 0.10);
        assert_eq!(v.word, "unresolved");
        assert!(v.spread.unwrap() > 0.10);
        assert_eq!(judge(&noisy, &[70.0, 75.0], Better::Lower, 0.10).word, "ok");
        let steady = [99.0, 100.0, 100.0, 101.0, 100.0];
        assert_eq!(
            judge(&steady, &[120.0, 121.0], Better::Lower, 0.10).word,
            "regressed"
        );
    }
}
