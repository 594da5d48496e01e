//! `compare A.json B.json`: is B (the change) worse than A (the parent)?
//!
//! For every end-to-end metric × workload: both medians, the bound (the
//! workload's own for the trial timings, `catalog::bound_on`), and a
//! verdict. A difference inside the bound is `same`; where either side's
//! own quartile spread is wider than the bound the pairing is `unresolved`
//! rather than `same`, unless every sample of one side beats every sample
//! of the other.

use crate::catalog::{self, EndToEnd, END_TO_END, PER_LAYER, TIMING_FLOOR_S};
use crate::json::{self, Json};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a pairing: the median and the samples behind it.
#[derive(Debug)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: Vec<f64>,
}

impl Side {
    fn from_json(metric: &Json) -> Option<Side> {
        Some(Side {
            median: metric.get("median")?.as_f64()?,
            q1: metric.get("q1")?.as_f64()?,
            q3: metric.get("q3")?.as_f64()?,
            samples: metric.f64s("samples"),
        })
    }
}

/// The verdict for one metric on one workload, `bound` being the share of
/// the parent's median it may get worse by.
pub fn verdict(metric: &EndToEnd, bound: f64, parent: &Side, change: &Side) -> Verdict {
    // Orient so that larger is worse.
    let sign = if metric.better == "lower" { 1.0 } else { -1.0 };
    let mut allowed = bound * parent.median.abs();
    if metric.unit == "s" {
        allowed = allowed.max(TIMING_FLOOR_S);
    }
    let every_sample_beats = |a: &Side, b: &Side| {
        !a.samples.is_empty()
            && !b.samples.is_empty()
            && a.samples
                .iter()
                .all(|x| b.samples.iter().all(|y| sign * x < sign * y))
    };
    let delta = sign * (change.median - parent.median);
    let spread = (parent.q3 - parent.q1).max(change.q3 - change.q1);
    if spread > allowed {
        return if every_sample_beats(change, parent) && delta < -allowed {
            Verdict::Better
        } else if every_sample_beats(parent, change) && delta > allowed {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if delta > allowed {
        Verdict::Worse
    } else if delta < -allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workloads(doc: &Json) -> &[Json] {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or_default()
}

/// A workload's `end_to_end` or `per_layer` section (`null` when absent).
fn section<'a>(workload: &'a Json, key: &str) -> &'a Json {
    static ABSENT: Json = Json::Null;
    workload.get(key).unwrap_or(&ABSENT)
}

fn failed_share(section: &Json) -> Option<f64> {
    let attempted = section.get("ops_attempted")?.as_f64()?;
    let failed = section.get("ops_failed")?.as_f64()?;
    Some(if attempted > 0.0 {
        failed / attempted
    } else {
        1.0
    })
}

/// Prints the comparison; `Ok(true)` when nothing is worse.
pub fn compare(parent_path: &Path, change_path: &Path) -> Result<bool, String> {
    let parent = load(parent_path)?;
    let change = load(change_path)?;
    let mut clean = true;
    println!(
        "{:<15} {:<28} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "delta", "bound"
    );
    for parent_w in workloads(&parent) {
        let name = parent_w.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(change_w) = workloads(&change)
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<15} missing from {}", change_path.display());
            clean = false;
            continue;
        };
        let (parent_e2e, change_e2e) = (
            section(parent_w, "end_to_end"),
            section(change_w, "end_to_end"),
        );
        for metric in END_TO_END {
            let side = |e2e: &Json| {
                e2e.get("metrics")
                    .and_then(|m| m.get(metric.name))
                    .and_then(Side::from_json)
            };
            let (Some(p), Some(c)) = (side(parent_e2e), side(change_e2e)) else {
                println!("{name:<15} {:<28} missing on one side", metric.name);
                clean = false;
                continue;
            };
            // A workload this catalogue does not know gets the metric's bound.
            let bound =
                catalog::workload(name).map_or(metric.bound, |w| catalog::bound_on(metric, w));
            let v = verdict(metric, bound, &p, &c);
            clean &= v != Verdict::Worse;
            println!(
                "{name:<15} {:<28} {:>14.6} {:>14.6} {:>+7.1}% {:>5.0}%  {}",
                metric.name,
                p.median,
                c.median,
                (c.median - p.median) / p.median * 100.0,
                bound * 100.0,
                v.label()
            );
        }
        for key in ["end_to_end", "per_layer"] {
            let shares = (
                failed_share(section(parent_w, key)),
                failed_share(section(change_w, key)),
            );
            if let (Some(p), Some(c)) = shares {
                if c > p {
                    println!(
                        "{name:<15} {key}: share of failed ops rose from {p:.4} to {c:.4}  worse"
                    );
                    clean = false;
                }
            }
        }
        // Counts repeat exactly for a given input; a differing count is a
        // changed algorithm or format, which the change should have named.
        let (parent_layers, change_layers) = (
            section(parent_w, "per_layer"),
            section(change_w, "per_layer"),
        );
        for layer in PER_LAYER
            .iter()
            .filter(|l| l.unit == "count" || l.unit == "bytes")
        {
            let value = |layers: &Json| {
                layers
                    .get("metrics")
                    .and_then(|m| m.get(layer.name))
                    .and_then(|m| m.get("median"))
                    .and_then(Json::as_f64)
            };
            if let (Some(p), Some(c)) = (value(parent_layers), value(change_layers)) {
                if p != c {
                    println!("{name:<15} {:<46} {p} -> {c}  count differs", layer.name);
                }
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(samples: &[f64]) -> Side {
        let (q1, q3) = crate::stats::quartiles(samples);
        Side {
            median: crate::stats::median(samples),
            q1,
            q3,
            samples: samples.to_vec(),
        }
    }

    /// A timing metric with a 10 % bound, whatever the catalogue says today.
    fn wall() -> &'static EndToEnd {
        &EndToEnd {
            name: "wall_s",
            unit: "s",
            better: "lower",
            bound: 0.10,
            what: "test metric",
        }
    }

    fn verdict(metric: &EndToEnd, parent: &Side, change: &Side) -> Verdict {
        super::verdict(metric, metric.bound, parent, change)
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let parent = side(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        assert_eq!(
            verdict(wall(), &parent, &side(&[1.03, 1.04, 1.02, 1.03, 1.05])),
            Verdict::Same
        );
        assert_eq!(
            verdict(wall(), &parent, &side(&[1.20, 1.21, 1.19, 1.2, 1.22])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(wall(), &parent, &side(&[0.80, 0.81, 0.79, 0.8, 0.82])),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_samples_separate() {
        let noisy = side(&[1.0, 1.3, 0.8, 1.1, 0.9]);
        assert_eq!(
            verdict(wall(), &noisy, &side(&[1.05, 1.3, 0.85, 1.1, 0.9])),
            Verdict::Unresolved
        );
        // Every run of the change beats every run of the parent.
        assert_eq!(
            verdict(wall(), &noisy, &side(&[0.5, 0.7, 0.4, 0.6, 0.55])),
            Verdict::Better
        );
        assert_eq!(
            verdict(wall(), &noisy, &side(&[2.0, 2.6, 1.6, 2.2, 1.8])),
            Verdict::Worse
        );
    }

    #[test]
    fn timings_have_an_absolute_floor() {
        let validate = wall();
        // 4.0 ms -> 5.5 ms is +37 % but inside the 2 ms floor.
        let parent = side(&[0.0040, 0.0041, 0.0039]);
        assert_eq!(
            verdict(validate, &parent, &side(&[0.0055, 0.0056, 0.0054])),
            Verdict::Same
        );
        assert_eq!(
            verdict(validate, &parent, &side(&[0.0075, 0.0076, 0.0074])),
            Verdict::Worse
        );
    }
}
