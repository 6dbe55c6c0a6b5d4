//! Per-request span trees and the ring buffers that retain them.
//!
//! Every request the service traces gets a [`TraceBuilder`]: a trace
//! id, a monotonic epoch (the instant the request line was accepted),
//! and a growing list of [`SpanRecord`]s forming a tree — `queue_wait`,
//! `parse`, `engine` and `reply_flush` at the root, with engine phases
//! (`plan_compile`, `mc_sample_loop`, `wal_append`, `fsync`, …) nested
//! under `engine`. Timestamps are nanosecond offsets from the epoch, so
//! a span tree is self-contained and immune to wall-clock steps; one
//! wall-clock microsecond stamp taken at the epoch anchors the whole
//! tree for Chrome trace-event export.
//!
//! Completed traces are published into [`TraceRing`]s as `Arc<Trace>`
//! in a single pointer swap — a reader can never observe a torn or
//! half-built span tree, because the tree is immutable before it
//! becomes reachable. The ring is fixed-capacity and overwrites the
//! oldest entry; pushing allocates nothing beyond the `Arc` the caller
//! already built.

use crate::lock_unpoisoned;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sentinel duration of a span that has begun but not ended. Builders
/// close every open span before publishing, so exported trees never
/// contain it; [`Trace::is_well_formed`] checks anyway.
pub const OPEN_NS: u64 = u64::MAX;

/// One node of a span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stable phase name (`"queue_wait"`, `"engine"`, `"fsync"`, …).
    pub name: &'static str,
    /// Index of the parent span in the trace's span list, or `None`
    /// for a root phase. Parents always precede children.
    pub parent: Option<u32>,
    /// Start offset from the trace epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds ([`OPEN_NS`] while still open).
    pub dur_ns: u64,
}

impl SpanRecord {
    /// End offset from the trace epoch in nanoseconds (saturating).
    #[must_use]
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// A completed, immutable span tree for one request.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Service-unique trace id (monotonic).
    pub id: u64,
    /// Wire op name of the request (`"?"` until parsing named it).
    pub op: &'static str,
    /// Whether the request answered `"ok": true`.
    pub ok: bool,
    /// Wall-clock microseconds since the Unix epoch at the trace
    /// epoch — the anchor Chrome trace-event timestamps hang from.
    pub start_unix_us: u64,
    /// End-to-end duration (epoch → publication) in nanoseconds.
    pub total_ns: u64,
    /// The span tree, parents before children.
    pub spans: Vec<SpanRecord>,
    /// Named quantities observed along the way (`mc_samples`,
    /// `spine_nodes`, …), in report order.
    pub counts: Vec<(&'static str, u64)>,
}

impl Trace {
    /// Structural invariants every exported trace must satisfy: no
    /// open (torn) spans, parents precede their children, every child
    /// completes no later than its parent, and no span outlives the
    /// trace total. The ring-buffer proptest drives this under
    /// concurrent overwrite.
    #[must_use]
    pub fn is_well_formed(&self) -> bool {
        self.spans.iter().enumerate().all(|(i, s)| {
            if s.dur_ns == OPEN_NS {
                return false;
            }
            match s.parent {
                None => s.end_ns() <= self.total_ns,
                Some(p) => {
                    (p as usize) < i
                        && self.spans[p as usize].end_ns() >= s.end_ns()
                        && self.spans[p as usize].start_ns <= s.start_ns
                }
            }
        })
    }

    /// Sum of root-phase durations in nanoseconds — the decomposition
    /// side of the "phase sums reconcile with the end-to-end total"
    /// invariant (root phases are contiguous by construction).
    #[must_use]
    pub fn root_phase_sum_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .fold(0u64, |acc, s| acc.saturating_add(s.dur_ns))
    }
}

/// Builds one request's span tree as the request moves through the
/// pipeline. Not thread-safe by design — it travels *with* the request
/// (worker thread, then the reply path) and is owned by exactly one
/// stage at a time.
#[derive(Debug)]
pub struct TraceBuilder {
    id: u64,
    epoch: Instant,
    start_unix_us: u64,
    op: &'static str,
    ok: bool,
    spans: Vec<SpanRecord>,
    stack: Vec<u32>,
    counts: Vec<(&'static str, u64)>,
}

impl TraceBuilder {
    /// Starts a trace whose epoch is `accepted` — the instant the
    /// request line was framed, so the first span (`queue_wait`) starts
    /// at offset zero.
    #[must_use]
    pub fn new(id: u64, accepted: Instant) -> Self {
        let since_accept = accepted.elapsed();
        let now_unix =
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap_or_default();
        let start_unix_us = (now_unix.as_micros().min(u128::from(u64::MAX)) as u64)
            .saturating_sub(since_accept.as_micros().min(u128::from(u64::MAX)) as u64);
        TraceBuilder {
            id,
            epoch: accepted,
            start_unix_us,
            op: "?",
            ok: false,
            spans: Vec::with_capacity(8),
            stack: Vec::with_capacity(4),
            counts: Vec::new(),
        }
    }

    /// The trace id (for error paths that want to log it).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Names the wire op once parsing has identified it.
    pub fn set_op(&mut self, op: &'static str) {
        self.op = op;
    }

    /// Records whether the request ultimately succeeded.
    pub fn set_ok(&mut self, ok: bool) {
        self.ok = ok;
    }

    /// Nanoseconds from the epoch to `at` (0 for instants before it).
    fn offset_ns(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos().min(u128::from(u64::MAX)) as u64)
    }

    /// Opens a span starting now, child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        self.begin_at(name, Instant::now());
    }

    /// Opens a span that started at `at` (used for `queue_wait`, whose
    /// start predates the worker picking the job up).
    pub fn begin_at(&mut self, name: &'static str, at: Instant) {
        let idx = self.spans.len() as u32;
        self.spans.push(SpanRecord {
            name,
            parent: self.stack.last().copied(),
            start_ns: self.offset_ns(at),
            dur_ns: OPEN_NS,
        });
        self.stack.push(idx);
    }

    /// Closes the innermost open span at now. No-op with nothing open.
    pub fn end(&mut self) {
        if let Some(idx) = self.stack.pop() {
            let now = self.offset_ns(Instant::now());
            let span = &mut self.spans[idx as usize];
            span.dur_ns = now.saturating_sub(span.start_ns);
        }
    }

    /// Closes every open span at now — used after `catch_unwind`,
    /// where a panic may have unwound past any number of open child
    /// spans, so the next root phase opens at depth zero.
    pub fn end_open(&mut self) {
        while !self.stack.is_empty() {
            self.end();
        }
    }

    /// Records an already-completed phase of duration `dur_ns` ending
    /// now, as a child of the innermost open span — how the WAL's
    /// append and fsync timings land in the tree.
    pub fn event_ns(&mut self, name: &'static str, dur_ns: u64) {
        let end = self.offset_ns(Instant::now());
        let parent = self.stack.last().copied();
        // An over-reported elapsed (clock skew, instrumentation drift)
        // must not backdate the phase past its parent's start — clamp
        // so the exported tree stays well-formed.
        let floor = parent.map_or(0, |p| self.spans[p as usize].start_ns);
        let start_ns = end.saturating_sub(dur_ns).max(floor);
        self.spans.push(SpanRecord { name, parent, start_ns, dur_ns: end - start_ns });
    }

    /// Records a named count against the trace.
    pub fn count(&mut self, name: &'static str, n: u64) {
        self.counts.push((name, n));
    }

    /// Closes every open span and freezes the tree. The total spans
    /// epoch → now, which is also the end instant of the last root
    /// phase when the builder was driven phase-to-phase.
    #[must_use]
    pub fn finish(mut self) -> Trace {
        while !self.stack.is_empty() {
            self.end();
        }
        let total_ns = self.offset_ns(Instant::now());
        // Clamp span ends to the total so late clock reads inside
        // `end()` cannot make a child outlive the trace.
        for span in &mut self.spans {
            if span.dur_ns != OPEN_NS {
                span.dur_ns = span.dur_ns.min(total_ns.saturating_sub(span.start_ns));
            }
        }
        Trace {
            id: self.id,
            op: self.op,
            ok: self.ok,
            start_unix_us: self.start_unix_us,
            total_ns,
            spans: self.spans,
            counts: self.counts,
        }
    }
}

/// Fixed-capacity overwrite-oldest retention of completed traces.
///
/// Writers claim a slot with one `fetch_add` and swap the `Arc` in
/// under the slot's own mutex — uncontended in practice (two writers
/// collide only when they land on the same slot), never held across
/// anything slower than a pointer swap, and allocation-free. Snapshots
/// clone the `Arc`s out; because a trace is immutable before it is
/// published, a snapshot can contain complete trees only.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Mutex<Option<Arc<Trace>>>>,
    cursor: AtomicUsize,
}

impl TraceRing {
    /// An empty ring retaining up to `capacity` traces (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Publishes one completed trace, overwriting the oldest entry
    /// once the ring is full.
    pub fn push(&self, trace: Arc<Trace>) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *lock_unpoisoned(&self.slots[i]) = Some(trace);
    }

    /// Clones out every retained trace, unordered; callers sort by
    /// trace id when recency matters.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Arc<Trace>> {
        self.slots.iter().filter_map(|s| lock_unpoisoned(s).clone()).collect()
    }

    /// The retention capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_a_well_formed_tree() {
        let accepted = Instant::now();
        let mut tb = TraceBuilder::new(7, accepted);
        tb.set_op("eval");
        tb.begin_at("queue_wait", accepted);
        tb.end();
        tb.begin("engine");
        tb.event_ns("plan_compile", 10);
        tb.count("plan_steps", 3);
        tb.end();
        tb.set_ok(true);
        let trace = tb.finish();
        assert!(trace.is_well_formed(), "{trace:?}");
        assert_eq!(trace.id, 7);
        assert_eq!(trace.op, "eval");
        assert!(trace.ok);
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[0].name, "queue_wait");
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[2].name, "plan_compile");
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(trace.counts, vec![("plan_steps", 3)]);
        assert!(trace.root_phase_sum_ns() <= trace.total_ns);
    }

    #[test]
    fn finish_closes_abandoned_spans() {
        let mut tb = TraceBuilder::new(1, Instant::now());
        tb.begin("engine");
        tb.begin("inner");
        let trace = tb.finish(); // both still open
        assert!(trace.is_well_formed(), "{trace:?}");
        assert!(trace.spans.iter().all(|s| s.dur_ns != OPEN_NS));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let ring = TraceRing::new(2);
        for id in 0..5u64 {
            let tb = TraceBuilder::new(id, Instant::now());
            ring.push(Arc::new(tb.finish()));
        }
        let mut ids: Vec<u64> = ring.snapshot().iter().map(|t| t.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![3, 4]);
        assert_eq!(ring.capacity(), 2);
    }
}
