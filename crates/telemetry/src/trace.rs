//! Batch lifecycle tracing.
//!
//! Every batch is identified by a [`TraceId`] (its sequence number — stable
//! across replicas and runs) and moves through the fixed [`Stage`] pipeline.
//! The interpreters (sim harness, thread runtime) emit one [`SpanEvent`] per
//! stage edge through a [`Tracer`], which holds an optional shared
//! [`TraceSink`]; with tracing off the hot path pays exactly one branch on
//! `Option::is_some` and no allocation.

use std::fmt;
use std::sync::{Arc, Mutex};

use sbft_types::SimTime;

/// Identifies one batch across its whole lifecycle. Batches are already
/// uniquely named by their consensus sequence number, which is identical
/// across replicas and across identical runs — exactly the determinism the
/// trace round-trip test needs — so the trace id is that number.
pub type TraceId = u64;

/// A pipeline edge in a batch's lifecycle, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// First client request of the batch finished shim admission CPU work.
    ShimIngest,
    /// First request of the batch was enqueued on its batcher lane.
    LaneEnqueue,
    /// The batcher released the batch (size or timeout trigger).
    BatchRelease,
    /// The ordering message carrying the batch (PREPREPARE / CFT-ACCEPT)
    /// was processed by a replica.
    PrePrepare,
    /// The commit quorum completed and the batch was committed.
    CommitQuorum,
    /// The executor spawn for the batch was issued.
    ExecuteSpawn,
    /// The first VERIFY for the batch reached the trusted verifier.
    VerifyIngest,
    /// The verifier began applying the validated batch.
    ApplyStart,
    /// One shard slice of the apply began (cross-shard batches only).
    ShardSliceStart,
    /// One shard slice of the apply finished.
    ShardSliceEnd,
    /// The apply finished on every shard.
    ApplyEnd,
    /// The client response for the batch was processed.
    Respond,
    /// A crashed replica finished recovery (snapshot + WAL replay + peer
    /// state transfer). Not part of the per-batch pipeline: the trace id
    /// is the recovering node, and the span covers the whole replay.
    Recover,
}

impl Stage {
    /// Stable lowercase name used in exports and stage tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::ShimIngest => "shim_ingest",
            Stage::LaneEnqueue => "lane_enqueue",
            Stage::BatchRelease => "batch_release",
            Stage::PrePrepare => "preprepare",
            Stage::CommitQuorum => "commit_quorum",
            Stage::ExecuteSpawn => "execute_spawn",
            Stage::VerifyIngest => "verify_ingest",
            Stage::ApplyStart => "apply_start",
            Stage::ShardSliceStart => "shard_slice_start",
            Stage::ShardSliceEnd => "shard_slice_end",
            Stage::ApplyEnd => "apply_end",
            Stage::Respond => "respond",
            Stage::Recover => "recover",
        }
    }

    /// The linear pipeline every committed batch walks, in order. Shard
    /// slices are excluded: they repeat per shard between
    /// [`Stage::ApplyStart`] and [`Stage::ApplyEnd`].
    pub const PIPELINE: [Stage; 10] = [
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
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One timestamped stage crossing of one batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// The batch this event belongs to.
    pub trace: TraceId,
    /// Which pipeline edge was crossed.
    pub stage: Stage,
    /// When (sim time in the simulator, wall-clock µs in the runtime).
    pub at: SimTime,
    /// The shard a `ShardSlice*` event ran on; `None` for pipeline edges.
    pub shard: Option<u32>,
}

/// Where span events go. Implementations must be cheap: the sim emits one
/// call per batch per stage on the hot path.
pub trait TraceSink: Send + Sync {
    /// Records one event.
    fn record(&self, event: SpanEvent);
}

/// Buffers events in memory for export or assertions.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<SpanEvent>>,
}

impl MemorySink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A copy of everything recorded so far, in arrival order.
    #[must_use]
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events.lock().expect("sink poisoned").clone()
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: SpanEvent) {
        self.events.lock().expect("sink poisoned").push(event);
    }
}

/// The emitting side handed to interpreters. Cloning shares the sink.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer that drops everything (one-branch hot path).
    #[must_use]
    pub fn disabled() -> Self {
        Tracer { sink: None }
    }

    /// A tracer feeding `sink`.
    #[must_use]
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// Whether events are being recorded. Callers may use this to skip
    /// building event arguments entirely.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits one stage crossing.
    #[inline]
    pub fn emit(&self, trace: TraceId, stage: Stage, at: SimTime) {
        if let Some(sink) = &self.sink {
            sink.record(SpanEvent {
                trace,
                stage,
                at,
                shard: None,
            });
        }
    }

    /// Emits one shard-slice event carrying the shard id.
    #[inline]
    pub fn emit_shard(&self, trace: TraceId, stage: Stage, at: SimTime, shard: u32) {
        if let Some(sink) = &self.sink {
            sink.record(SpanEvent {
                trace,
                stage,
                at,
                shard: Some(shard),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_drops_events() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        tracer.emit(1, Stage::ShimIngest, SimTime::ZERO); // must not panic
    }

    #[test]
    fn memory_sink_preserves_order() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        assert!(tracer.enabled());
        tracer.emit(7, Stage::BatchRelease, SimTime::from_micros(10));
        tracer.emit_shard(7, Stage::ShardSliceStart, SimTime::from_micros(20), 2);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stage, Stage::BatchRelease);
        assert_eq!(events[1].shard, Some(2));
    }

    #[test]
    fn pipeline_is_strictly_ordered() {
        for pair in Stage::PIPELINE.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
}
