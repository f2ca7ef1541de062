//! Exporters: Chrome `trace_event` JSONL and the per-stage latency table.
//!
//! Both exporters are deterministic functions of the recorded events:
//! traces are keyed by batch sequence number and every map is a `BTreeMap`,
//! so two identical runs export byte-identical output — the property the
//! round-trip test pins.

use std::collections::BTreeMap;

use sbft_types::SimTime;

use crate::{Histogram, SpanEvent, Stage, TraceId};

/// The named stage intervals of the batch pipeline, each delimited by two
/// markers. Consecutive intervals share their boundary marker, so per-batch
/// durations telescope: their sum equals the end-to-end
/// `shim_ingest → respond` latency exactly.
pub const INTERVALS: [(&str, Stage, Stage); 7] = [
    ("batch_wait", Stage::ShimIngest, Stage::BatchRelease),
    ("ordering", Stage::BatchRelease, Stage::CommitQuorum),
    ("spawn", Stage::CommitQuorum, Stage::ExecuteSpawn),
    ("execute", Stage::ExecuteSpawn, Stage::VerifyIngest),
    ("verify", Stage::VerifyIngest, Stage::ApplyStart),
    ("apply", Stage::ApplyStart, Stage::ApplyEnd),
    ("respond", Stage::ApplyEnd, Stage::Respond),
];

/// One row of the per-stage latency table.
#[derive(Clone, Debug)]
pub struct StageRow {
    /// Interval name (`batch_wait`, `ordering`, …, or `e2e`).
    pub stage: &'static str,
    /// Batches contributing to this row.
    pub count: u64,
    /// Mean duration in microseconds (exact).
    pub avg_us: f64,
    /// Median duration in microseconds.
    pub p50_us: u64,
    /// 99th-percentile duration in microseconds.
    pub p99_us: u64,
}

/// Earliest timestamp of every stage per trace. Duplicate markers (e.g.
/// the PREPREPARE processed by each replica) collapse to the first, which
/// arrival order makes deterministic in the sim.
pub fn marks(events: &[SpanEvent]) -> BTreeMap<TraceId, BTreeMap<Stage, SimTime>> {
    let mut marks: BTreeMap<TraceId, BTreeMap<Stage, SimTime>> = BTreeMap::new();
    for event in events {
        marks
            .entry(event.trace)
            .or_default()
            .entry(event.stage)
            .or_insert(event.at);
    }
    marks
}

/// Builds the per-stage latency table from recorded events. Only traces
/// holding both boundary markers contribute to an interval; the final
/// `e2e` row spans `shim_ingest → respond` and, by telescoping, equals the
/// sum of the other rows for every complete trace.
#[must_use]
pub fn stage_breakdown(events: &[SpanEvent]) -> Vec<StageRow> {
    let marks = marks(events);
    let mut rows = Vec::with_capacity(INTERVALS.len() + 1);
    for (name, from, to) in INTERVALS {
        let histogram = Histogram::new();
        for trace_marks in marks.values() {
            if let (Some(start), Some(end)) = (trace_marks.get(&from), trace_marks.get(&to)) {
                histogram.record(end.since(*start).as_micros());
            }
        }
        rows.push(row(name, &histogram));
    }
    let e2e = Histogram::new();
    for trace_marks in marks.values() {
        if let (Some(start), Some(end)) = (
            trace_marks.get(&Stage::ShimIngest),
            trace_marks.get(&Stage::Respond),
        ) {
            e2e.record(end.since(*start).as_micros());
        }
    }
    rows.push(row("e2e", &e2e));
    rows
}

fn row(name: &'static str, histogram: &Histogram) -> StageRow {
    StageRow {
        stage: name,
        count: histogram.count(),
        avg_us: histogram.mean_us(),
        p50_us: histogram.percentile_us(0.5),
        p99_us: histogram.percentile_us(0.99),
    }
}

/// Renders the stage table as fixed-width text.
#[must_use]
pub fn render_stage_table(rows: &[StageRow]) -> String {
    let mut out = String::from("stage        count    avg_us    p50_us    p99_us\n");
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>6} {:>9.1} {:>9} {:>9}\n",
            r.stage, r.count, r.avg_us, r.p50_us, r.p99_us
        ));
    }
    out
}

fn push_event(out: &mut Vec<String>, name: &str, trace: TraceId, start: SimTime, end: SimTime) {
    out.push(format!(
        "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{trace}}}",
        start.as_micros(),
        end.since(start).as_micros(),
    ));
}

/// Exports events as a Chrome `trace_event` JSON array with one event per
/// line — valid JSON for `chrome://tracing` / Perfetto, and line-oriented
/// so the determinism test can diff it byte-for-byte. Each batch becomes
/// one `tid` lane carrying its stage intervals as complete (`"ph":"X"`)
/// events.
#[must_use]
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    let marks = marks(events);
    let mut lines = Vec::new();
    for (trace, trace_marks) in &marks {
        for (name, from, to) in INTERVALS {
            if let (Some(start), Some(end)) = (trace_marks.get(&from), trace_marks.get(&to)) {
                push_event(&mut lines, name, *trace, *start, *end);
            }
        }
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(trace: TraceId, stage: Stage, us: u64) -> SpanEvent {
        SpanEvent {
            trace,
            stage,
            at: SimTime::from_micros(us),
            shard: None,
        }
    }

    fn full_trace(trace: TraceId, base: u64) -> Vec<SpanEvent> {
        let steps = [
            Stage::ShimIngest,
            Stage::LaneEnqueue,
            Stage::BatchRelease,
            Stage::PrePrepare,
            Stage::CommitQuorum,
            Stage::ExecuteSpawn,
            Stage::VerifyIngest,
            Stage::ApplyStart,
            Stage::ApplyEnd,
            Stage::Respond,
        ];
        steps
            .iter()
            .enumerate()
            .map(|(i, s)| mark(trace, *s, base + 10 * i as u64))
            .collect()
    }

    #[test]
    fn stage_sums_telescope_to_e2e() {
        let events = full_trace(1, 100);
        let rows = stage_breakdown(&events);
        let e2e = rows.last().expect("e2e row");
        assert_eq!(e2e.stage, "e2e");
        assert_eq!(e2e.count, 1);
        let stage_sum: f64 = rows[..rows.len() - 1].iter().map(|r| r.avg_us).sum();
        assert!((stage_sum - e2e.avg_us).abs() < 1e-9);
        assert!((e2e.avg_us - 90.0).abs() < 1e-9);
    }

    #[test]
    fn incomplete_traces_are_skipped_per_interval() {
        let mut events = full_trace(1, 0);
        // Trace 2 only reached commit — contributes to early intervals only.
        events.push(mark(2, Stage::ShimIngest, 5));
        events.push(mark(2, Stage::BatchRelease, 25));
        let rows = stage_breakdown(&events);
        let wait = &rows[0];
        assert_eq!(wait.stage, "batch_wait");
        assert_eq!(wait.count, 2);
        assert_eq!(rows.last().expect("e2e").count, 1);
    }

    #[test]
    fn duplicate_markers_collapse_to_first() {
        let mut events = full_trace(1, 0);
        events.push(mark(1, Stage::PrePrepare, 500)); // a later replica's copy
        let rows = stage_breakdown(&events);
        assert_eq!(rows.last().expect("e2e").count, 1);
        assert!((rows.last().expect("e2e").avg_us - 90.0).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_is_valid_and_deterministic() {
        let mut events = full_trace(3, 100);
        events.extend(full_trace(1, 50));
        let json = chrome_trace(&events);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("\n]\n"));
        assert!(json.contains("\"name\":\"ordering\""));
        // Trace 1 sorts before trace 3 regardless of arrival order.
        let t1 = json.find("\"tid\":1").expect("tid 1");
        let t3 = json.find("\"tid\":3").expect("tid 3");
        assert!(t1 < t3);
        // Same events, same bytes.
        assert_eq!(json, chrome_trace(&events));
        // Every line between the brackets is one JSON object.
        for line in json.lines().filter(|l| l.starts_with('{')) {
            let body = line.trim_end_matches(',');
            assert!(body.starts_with('{') && body.ends_with('}'), "line: {line}");
        }
    }
}
