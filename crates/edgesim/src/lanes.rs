//! Structure-of-arrays per-edge serve state and the buffered-telemetry
//! plumbing behind the stepper's edge lanes.
//!
//! [`EdgeLanes`] holds everything the serve loop mutates per edge —
//! the edge's sample stream, previous model, pending-download retry
//! state, switch and selection counters, peak utilization — as
//! parallel vectors over a contiguous chunk of edge indices. A
//! one-lane stepper uses one lane covering every edge; a sharded
//! stepper splits the fleet into one lane per worker, each
//! cache-contiguous and served by one worker per slot, and
//! reassembles the [`EdgeRecord`]s in edge order at the end of the
//! run. Because both paths run the same serve code over the same
//! layout, their records agree by construction.
//!
//! [`TeleSink`] abstracts where the serve loop's telemetry goes: the
//! sequential traced path writes straight into the [`Recorder`], while
//! parallel workers buffer [`TeleOp`]s that the driver replays into the
//! recorder in edge-index order — so traces are byte-identical at any
//! worker count.

use cne_simdata::stream::DataStream;
use cne_util::telemetry::{Event, Recorder, Value};

use crate::env::EdgeServeState;
use crate::record::EdgeRecord;

/// Per-edge download-retry state under an active fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct PendingDownload {
    /// Target model of the in-flight (failed) download, if any.
    pub(crate) target: Option<usize>,
    /// Consecutive failed attempts for that target.
    pub(crate) attempts: u32,
    /// Slot before which no new attempt is made (backoff window).
    pub(crate) next_attempt_slot: u64,
    /// Slots the wanted switch has been delayed by faults so far
    /// (outages, failed attempts, backoff waits) — reported as the
    /// `retries` field of the eventual switch event, which lets the
    /// envelope monitors excuse the off-boundary download.
    pub(crate) delayed_slots: u32,
}

impl PendingDownload {
    /// Resets the retry state when the policy asks for a new target.
    pub(crate) fn retarget(&mut self, desired: usize) {
        if self.target != Some(desired) {
            *self = Self {
                target: Some(desired),
                ..Self::default()
            };
        }
    }
}

/// A contiguous chunk of per-edge serve state, laid out
/// structure-of-arrays so one worker's edges stay cache-contiguous.
#[derive(Debug)]
pub(crate) struct EdgeLanes {
    /// Global index of the first edge in this lane.
    start: usize,
    num_models: usize,
    /// Each edge's request stream: the served model's statistics are
    /// folded over the indices it draws.
    streams: Vec<DataStream>,
    /// The last drawn sample, reused across edges and slots.
    sample: Vec<usize>,
    prev_model: Vec<Option<usize>>,
    pending: Vec<PendingDownload>,
    switches: Vec<u64>,
    peak_utilization_millionths: Vec<u64>,
    /// Flattened `[edge-in-lane][model]` selection counters.
    selection_counts: Vec<u64>,
}

impl EdgeLanes {
    /// A fresh lane covering global edges `start..start + streams.len()`,
    /// one stream per edge.
    pub(crate) fn new(start: usize, streams: Vec<DataStream>, num_models: usize) -> Self {
        let len = streams.len();
        Self {
            start,
            num_models,
            streams,
            sample: Vec::new(),
            prev_model: vec![None; len],
            pending: vec![PendingDownload::default(); len],
            switches: vec![0; len],
            peak_utilization_millionths: vec![0; len],
            selection_counts: vec![0; len * num_models],
        }
    }

    /// Splits the fleet (one stream per edge, in edge order) into
    /// `lanes` contiguous chunks whose sizes differ by at most one
    /// (chunk `k` starts at `k * num_edges / lanes`). Every chunk is
    /// non-empty when `lanes <= num_edges`.
    pub(crate) fn split(streams: Vec<DataStream>, num_models: usize, lanes: usize) -> Vec<Self> {
        let num_edges = streams.len();
        let mut streams = streams.into_iter();
        (0..lanes)
            .map(|k| {
                let start = k * num_edges / lanes;
                let end = (k + 1) * num_edges / lanes;
                Self::new(
                    start,
                    streams.by_ref().take(end - start).collect(),
                    num_models,
                )
            })
            .collect()
    }

    /// Draws edge `k`'s sample for a slot with `arrivals` requests:
    /// `min(arrivals, cap)` pool indices from the edge's own stream.
    pub(crate) fn draw_sample(&mut self, k: usize, arrivals: u64, cap: usize) -> &[usize] {
        self.streams[k].draw_slot_capped_into(arrivals, cap, &mut self.sample);
        &self.sample
    }

    /// Number of edges in this lane.
    pub(crate) fn len(&self) -> usize {
        self.prev_model.len()
    }

    /// Global edge index of lane-local edge `k`.
    pub(crate) fn global_index(&self, k: usize) -> usize {
        self.start + k
    }

    /// Global index of the first edge in this lane.
    pub(crate) fn start(&self) -> usize {
        self.start
    }

    /// Model hosted before this slot by lane-local edge `k`.
    pub(crate) fn prev_model(&self, k: usize) -> Option<usize> {
        self.prev_model[k]
    }

    /// Records that edge `k` now hosts model `n` (called on switch).
    pub(crate) fn set_prev_model(&mut self, k: usize, n: usize) {
        self.prev_model[k] = Some(n);
    }

    /// The download-retry state of edge `k`.
    pub(crate) fn pending_mut(&mut self, k: usize) -> &mut PendingDownload {
        &mut self.pending[k]
    }

    /// Counts one completed download on edge `k`.
    pub(crate) fn record_switch(&mut self, k: usize) {
        self.switches[k] += 1;
    }

    /// Counts one slot hosting model `n` on edge `k`.
    pub(crate) fn count_selection(&mut self, k: usize, n: usize) {
        self.selection_counts[k * self.num_models + n] += 1;
    }

    /// Folds a slot's utilization into edge `k`'s peak.
    pub(crate) fn observe_utilization(&mut self, k: usize, millionths: u64) {
        self.peak_utilization_millionths[k] = self.peak_utilization_millionths[k].max(millionths);
    }

    /// Snapshots lane-local edge `k`'s serve state for a checkpoint.
    pub(crate) fn export_edge(&self, k: usize) -> EdgeServeState {
        let pending = &self.pending[k];
        EdgeServeState {
            prev_model: self.prev_model[k],
            pending_target: pending.target,
            pending_attempts: pending.attempts,
            pending_next_attempt_slot: pending.next_attempt_slot,
            pending_delayed_slots: pending.delayed_slots,
            switches: self.switches[k],
            peak_utilization_millionths: self.peak_utilization_millionths[k],
            selection_counts: self.selection_counts[k * self.num_models..(k + 1) * self.num_models]
                .to_vec(),
        }
    }

    /// Reinstalls a checkpointed serve state on lane-local edge `k`.
    ///
    /// # Panics
    /// Panics if the snapshot counts a different number of models.
    pub(crate) fn import_edge(&mut self, k: usize, state: &EdgeServeState) {
        assert_eq!(
            state.selection_counts.len(),
            self.num_models,
            "edge snapshot counts a different number of models"
        );
        self.prev_model[k] = state.prev_model;
        self.pending[k] = PendingDownload {
            target: state.pending_target,
            attempts: state.pending_attempts,
            next_attempt_slot: state.pending_next_attempt_slot,
            delayed_slots: state.pending_delayed_slots,
        };
        self.switches[k] = state.switches;
        self.peak_utilization_millionths[k] = state.peak_utilization_millionths;
        self.selection_counts[k * self.num_models..(k + 1) * self.num_models]
            .copy_from_slice(&state.selection_counts);
    }

    /// Reassembles per-edge records from a set of lanes, in global edge
    /// order (lanes may arrive in any order).
    pub(crate) fn into_records(mut lanes: Vec<Self>) -> Vec<EdgeRecord> {
        lanes.sort_by_key(|lane| lane.start);
        let mut records = Vec::with_capacity(lanes.iter().map(Self::len).sum());
        for lane in lanes {
            for k in 0..lane.len() {
                records.push(EdgeRecord {
                    selection_counts: lane.selection_counts
                        [k * lane.num_models..(k + 1) * lane.num_models]
                        .to_vec(),
                    switches: lane.switches[k],
                    peak_utilization_millionths: lane.peak_utilization_millionths[k],
                });
            }
        }
        records
    }
}

/// Non-record outputs of serving one edge for one slot: the weighted
/// per-edge cost terms the driver folds into the slot totals **in
/// edge-index order**, so the accumulation sequence — and therefore the
/// floating-point result — is identical at any worker count.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EdgePartial {
    /// `expected_loss × w_loss` for the effective table served.
    pub(crate) loss_cost: f64,
    /// `v_{i,n} × w_latency` for the hosted model.
    pub(crate) latency_cost: f64,
    /// Download cost charged this slot (zero unless a switch landed).
    pub(crate) switch_cost: f64,
}

/// One deferred telemetry emission from a parallel serve worker.
///
/// Counters are commutative (the recorder stores them in a sorted
/// map), but events carry their insertion order into the trace, so the
/// driver replays each lane's buffer in edge-index order.
#[derive(Debug)]
pub(crate) enum TeleOp {
    /// `Recorder::incr(name, 1)` — every hot-loop counter bumps by one
    /// and uses a static name.
    Incr(&'static str),
    /// A fully built event, appended verbatim.
    Event(Event),
}

/// Replays a buffered op sequence into the recorder, in buffer order.
pub(crate) fn replay_tele(rec: &mut Recorder, ops: &mut Vec<TeleOp>) {
    for op in ops.drain(..) {
        match op {
            TeleOp::Incr(name) => rec.incr(name, 1),
            TeleOp::Event(event) => rec.record_event(event),
        }
    }
}

/// Where the serve loop's telemetry goes. One sink per serve call
/// replaces the per-edge `Option<&mut Recorder>` dance: the hot loop
/// checks [`TeleSink::active`] once per emission site instead of
/// re-deref-ing an option per concern.
#[derive(Debug)]
pub(crate) enum TeleSink<'a> {
    /// Untraced run: every emission is a no-op.
    Silent,
    /// Sequential traced run: write straight to the recorder.
    Direct(&'a mut Recorder),
    /// Parallel worker: buffer ops for in-order driver replay.
    Buffer(&'a mut Vec<TeleOp>),
}

impl TeleSink<'_> {
    /// False when emissions would be dropped — lets call sites skip
    /// building event payloads entirely on the untraced path.
    pub(crate) fn active(&self) -> bool {
        !matches!(self, TeleSink::Silent)
    }

    /// Adds one to the named counter.
    pub(crate) fn incr(&mut self, name: &'static str) {
        match self {
            TeleSink::Silent => {}
            TeleSink::Direct(rec) => rec.incr(name, 1),
            TeleSink::Buffer(ops) => ops.push(TeleOp::Incr(name)),
        }
    }

    /// Appends a slot event, mirroring `Recorder::event` field-for-field
    /// so buffered and direct emission produce identical traces.
    pub(crate) fn event(&mut self, slot: u64, kind: &'static str, fields: &[(&str, Value)]) {
        match self {
            TeleSink::Silent => {}
            TeleSink::Direct(rec) => rec.event(Some(slot), kind, fields),
            TeleSink::Buffer(ops) => ops.push(TeleOp::Event(Event {
                slot: Some(slot),
                kind: kind.to_owned(),
                fields: fields
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone()))
                    .collect(),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cne_util::SeedSequence;

    fn streams(edges: usize) -> Vec<DataStream> {
        (0..edges)
            .map(|i| DataStream::new(10, SeedSequence::new(i as u64)))
            .collect()
    }

    #[test]
    fn split_covers_every_edge_contiguously() {
        for (edges, lanes) in [(3, 1), (7, 2), (10, 4), (4, 4), (50, 3)] {
            let split = EdgeLanes::split(streams(edges), 2, lanes);
            assert_eq!(split.len(), lanes);
            let mut next = 0;
            for lane in &split {
                assert_eq!(lane.start(), next);
                assert!(lane.len() > 0, "empty lane at {edges} edges / {lanes}");
                next += lane.len();
            }
            assert_eq!(next, edges);
        }
    }

    #[test]
    fn records_reassemble_in_edge_order() {
        let mut lanes = EdgeLanes::split(streams(5), 3, 2);
        // Stamp each edge with its global index so order is observable.
        for lane in &mut lanes {
            for k in 0..lane.len() {
                let i = lane.global_index(k);
                for _ in 0..=i {
                    lane.record_switch(k);
                }
                lane.count_selection(k, i % 3);
                lane.observe_utilization(k, i as u64 * 10);
            }
        }
        // Reversed lane order must not matter.
        lanes.reverse();
        let records = EdgeLanes::into_records(lanes);
        assert_eq!(records.len(), 5);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.switches, i as u64 + 1);
            assert_eq!(rec.peak_utilization_millionths, i as u64 * 10);
            assert_eq!(rec.selection_counts[i % 3], 1);
            assert_eq!(rec.selection_counts.iter().sum::<u64>(), 1);
        }
    }

    #[test]
    fn buffered_and_direct_sinks_produce_identical_traces() {
        let emit = |sink: &mut TeleSink| {
            sink.incr("switches");
            sink.event(
                3,
                "switch",
                &[("edge", 1usize.into()), ("to", 2usize.into())],
            );
            sink.event(4, "fault", &[("fault", "surge".into())]);
            sink.incr("faults.injected");
        };
        let mut direct = Recorder::new();
        emit(&mut TeleSink::Direct(&mut direct));
        let mut ops = Vec::new();
        emit(&mut TeleSink::Buffer(&mut ops));
        let mut replayed = Recorder::new();
        replay_tele(&mut replayed, &mut ops);
        assert!(ops.is_empty());
        assert_eq!(direct.to_jsonl_string(), replayed.to_jsonl_string());
        // Silent drops everything.
        emit(&mut TeleSink::Silent);
    }
}
