//! Compares two result files of the full benchmark (`BENCH.json`).
//!
//! One row per (workload, end-to-end metric): both medians with their
//! quartiles, the ratio with its base, the bound, and a verdict. A
//! difference smaller than the bound is `same`; beyond it, `better` or
//! `worse` by the metric's direction; and when the parent's own runs
//! spread wider than the bound the row is `unresolved` — the benchmark
//! cannot tell at that resolution, which is not the same as unchanged.
//!
//! The catalogue's bounds sit above the seed-to-seed spread, because the
//! acceptance driver compares runs of different seeds. Two files of one
//! seed need no such slack on the simulated clock — nothing but the code
//! can move a value that repeats bit for bit — so there the `sim_*`
//! metrics, `cents_per_ktxn` and `outage_ms` are held to
//! [`SAME_SEED_SIM_BOUND`]. Files of different seeds or run lengths are
//! compared with a warning.

use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END, SAME_SEED_SIM_BOUND};
use crate::stats::Summary;
use crate::workloads;

/// What a comparison row concludes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// The parent's inter-quartile spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case name used in the table.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `parent` for a metric improving in direction
/// `better` with regression bound `bound` (a share of the parent's
/// median).
#[must_use]
pub fn verdict(parent: &Summary, change: &Summary, better: Better, bound: f64) -> Verdict {
    if parent.spread() > bound {
        return Verdict::Unresolved;
    }
    if parent.median == 0.0 {
        return if change.median == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    // Positive `gain` is an improvement, as a share of the parent.
    let delta = (change.median - parent.median) / parent.median.abs();
    let gain = match better {
        Better::Higher => delta,
        Better::Lower => -delta,
    };
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The summary of `metric` on `workload` in a `BENCH.json` document,
/// taken over the per-run medians the file records.
fn summary_in(doc: &Json, workload: &str, metric: &str) -> Option<Summary> {
    let samples: Vec<f64> = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("runs")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (!samples.is_empty()).then(|| Summary::of(&samples))
}

/// One row of the comparison.
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// The metric compared.
    pub metric: EndToEnd,
    /// Parent summary.
    pub parent: Summary,
    /// Change summary.
    pub change: Summary,
    /// The bound the row was judged by.
    pub bound: f64,
    /// Conclusion.
    pub verdict: Verdict,
}

/// A comparison of two result files.
pub struct Comparison {
    /// One row per (workload, end-to-end metric).
    pub rows: Vec<Row>,
    /// Why the rows may say less than they seem to.
    pub warnings: Vec<String>,
}

/// Compares two parsed result files. Anything missing from either file
/// is an error: a silent gap would read as "no regression".
pub fn compare(parent: &Json, change: &Json) -> Result<Comparison, String> {
    let run_of = |doc: &Json, which: &str| {
        let field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{which} file lacks {key}"))
        };
        Ok::<_, String>((field("seed")?, field("seconds")?))
    };
    let (parent_run, change_run) = (run_of(parent, "parent")?, run_of(change, "change")?);
    let same_seed = parent_run.0 == change_run.0;
    let mut warnings = Vec::new();
    if !same_seed {
        warnings.push(format!(
            "seeds differ ({} vs {}): simulated metrics are judged by their cross-seed bounds; \
             re-run on the parent's seed for the {}% bound",
            parent_run.0,
            change_run.0,
            SAME_SEED_SIM_BOUND * 100.0
        ));
    }
    if parent_run.1 != change_run.1 {
        warnings.push(format!(
            "run lengths differ ({} s vs {} s): wall-clock metrics are the best of a run's \
             rounds, and a longer run has more rounds to choose from",
            parent_run.1, change_run.1
        ));
    }
    let mut rows = Vec::new();
    for workload in workloads::NAMES {
        for metric in END_TO_END {
            let side = |doc: &Json, which: &str| {
                summary_in(doc, workload, metric.name)
                    .ok_or_else(|| format!("{which} file lacks {workload}/{}", metric.name))
            };
            let (p, c) = (side(parent, "parent")?, side(change, "change")?);
            let bound = if same_seed && metric.simulated {
                SAME_SEED_SIM_BOUND
            } else {
                metric.bound
            };
            rows.push(Row {
                workload,
                metric,
                parent: p,
                change: c,
                bound,
                verdict: verdict(&p, &c, metric.better, bound),
            });
        }
    }
    Ok(Comparison { rows, warnings })
}

/// Renders the comparison table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<20} {:>34} {:>34} {:>22} {:>6}  verdict\n",
        "workload",
        "metric",
        "parent median [q1..q3] n",
        "change median [q1..q3] n",
        "change/parent",
        "bound"
    );
    for row in rows {
        let cell = |s: &Summary| format!("{:.5} [{:.5}..{:.5}] {}", s.median, s.q1, s.q3, s.n);
        let ratio = if row.parent.median == 0.0 {
            "n/a".to_owned()
        } else {
            format!(
                "{:.4} (base {:.5})",
                row.change.median / row.parent.median,
                row.parent.median
            )
        };
        out.push_str(&format!(
            "{:<16} {:<20} {:>34} {:>34} {:>22} {:>5.1}%  {}\n",
            row.workload,
            row.metric.name,
            cell(&row.parent),
            cell(&row.change),
            ratio,
            row.bound * 100.0,
            row.verdict.word(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.995,
            q3: median * 1.005,
            n: 5,
        }
    }

    #[test]
    fn verdict_follows_direction_and_bound() {
        let parent = tight(100.0);
        // Lower is better: +20 % is worse, −20 % better, ±3 % the same.
        assert_eq!(
            verdict(&parent, &tight(120.0), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &tight(80.0), Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&parent, &tight(103.0), Better::Lower, 0.1),
            Verdict::Same
        );
        // Higher is better flips the sign.
        assert_eq!(
            verdict(&parent, &tight(120.0), Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&parent, &tight(80.0), Better::Higher, 0.1),
            Verdict::Worse
        );
        // Exactly on the bound is still the same.
        assert_eq!(
            verdict(&parent, &tight(110.0), Better::Lower, 0.1),
            Verdict::Same
        );
    }

    #[test]
    fn a_noisy_parent_leaves_the_row_unresolved() {
        let noisy = Summary {
            median: 100.0,
            q1: 90.0,
            q3: 115.0,
            n: 5,
        };
        // Spread 25 % > bound 10 %: even a 2x change is not a verdict.
        assert_eq!(
            verdict(&noisy, &tight(200.0), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &tight(200.0), Better::Lower, 0.3),
            Verdict::Worse
        );
        // A zero parent has no scale to measure a share against.
        let zero = Summary::exact(0.0);
        assert_eq!(
            verdict(&zero, &Summary::exact(0.0), Better::Lower, 0.1),
            Verdict::Same
        );
        assert_eq!(
            verdict(&zero, &tight(1.0), Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    /// A result file of `seed` whose every metric reads `10 * scale`;
    /// simulated metrics repeat exactly, wall-clock ones spread by ±1 %.
    fn doc(seed: u64, scale: f64) -> Json {
        let metric = |m: EndToEnd| {
            let v = 10.0 * scale;
            let noise = if m.simulated { 0.0 } else { 0.01 };
            let runs = [v * (1.0 - noise), v, v * (1.0 + noise)];
            Json::obj([("runs", Json::Arr(runs.map(Json::Num).to_vec()))])
        };
        let workloads = workloads::NAMES.map(|w| {
            let metrics = END_TO_END.map(|m| (m.name, metric(m)));
            (w, Json::obj([("end_to_end", Json::obj(metrics))]))
        });
        Json::obj([
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(24.0)),
            ("workloads", Json::obj(workloads)),
        ])
    }

    #[test]
    fn compare_covers_every_pair_and_reports_gaps() {
        let doubled = compare(&doc(42, 1.0), &doc(42, 2.0)).expect("both complete");
        assert_eq!(
            doubled.rows.len(),
            workloads::NAMES.len() * END_TO_END.len()
        );
        for row in &doubled.rows {
            let expected = match row.metric.better {
                Better::Lower => Verdict::Worse,
                Better::Higher => Verdict::Better,
            };
            assert_eq!(row.verdict, expected, "{}", row.metric.name);
        }
        assert!(render(&doubled.rows).contains("2.0000 (base 10.00000)"));
        let same = compare(&doc(42, 1.0), &doc(42, 1.0)).unwrap();
        assert!(same.rows.iter().all(|r| r.verdict == Verdict::Same));
        assert!(same.warnings.is_empty());
        let empty = Json::obj([
            ("seed", Json::Num(42.0)),
            ("seconds", Json::Num(24.0)),
            ("workloads", Json::obj::<&str>([])),
        ]);
        let err = compare(&doc(42, 1.0), &empty);
        assert!(err.is_err_and(|e| e.contains("change file lacks steady/")));
        let err = compare(&Json::obj::<&str>([]), &doc(42, 1.0));
        assert!(err.is_err_and(|e| e.contains("parent file lacks seed")));
    }

    #[test]
    fn one_seed_holds_simulated_metrics_to_the_tight_bound() {
        // 2 % worse everywhere: under every catalogue bound, over the
        // same-seed bound of the simulated clock.
        let verdict_of = |c: &Comparison, name: &str| {
            let row = c.rows.iter().find(|r| r.metric.name == name).unwrap();
            (row.bound, row.verdict)
        };
        let same_seed = compare(&doc(42, 1.0), &doc(42, 1.02)).unwrap();
        assert!(same_seed.warnings.is_empty());
        assert_eq!(
            verdict_of(&same_seed, "sim_commit_p50_ms"),
            (SAME_SEED_SIM_BOUND, Verdict::Worse)
        );
        assert_eq!(
            verdict_of(&same_seed, "outage_ms"),
            (SAME_SEED_SIM_BOUND, Verdict::Worse)
        );
        assert_eq!(
            verdict_of(&same_seed, "sim_tps"),
            (SAME_SEED_SIM_BOUND, Verdict::Better)
        );
        assert_eq!(
            verdict_of(&same_seed, "host_us_per_txn"),
            (0.25, Verdict::Same)
        );
        // Another seed: the catalogue's bounds, and a warning saying so.
        let other_seed = compare(&doc(42, 1.0), &doc(7, 1.02)).unwrap();
        assert!(other_seed.rows.iter().all(|r| r.verdict == Verdict::Same));
        assert_eq!(verdict_of(&other_seed, "sim_commit_p50_ms").0, 0.03);
        assert_eq!(other_seed.warnings.len(), 1);
        assert!(other_seed.warnings[0].contains("seeds differ (42 vs 7)"));
    }
}
