//! Property and end-to-end tests for the tracing subsystem:
//!
//! - **Ring wraparound**: after any interleaving of pushes across any
//!   capacity, a snapshot holds exactly the newest `min(cap, n)`
//!   traces and every one of them is well-formed.
//! - **Arbitrary builder programs**: any sequence of
//!   `begin`/`end`/`event`/`count` calls — balanced or not — finishes
//!   into a well-formed tree with no torn (still-open) spans.
//! - **Concurrent collection**: writers publish while readers
//!   snapshot; no snapshot ever contains a torn or half-built tree.
//! - **Reconciliation over the wire**: through a real TCP server, the
//!   per-request root-phase sums reported by the `trace` op agree with
//!   the end-to-end totals within ±5%, and a `--trace-dir`-style
//!   Chrome export parses as JSON and names every root phase.

use depcase::prelude::*;
use depcase_service::trace::{TraceBuilder, TraceRing, OPEN_NS};
use depcase_service::{Client, Engine, Server};
use proptest::prelude::*;
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Phase names a generated builder program draws from (spans need
/// `&'static str` names, as in production).
const NAMES: [&str; 6] =
    ["queue_wait", "parse", "engine", "plan_compile", "mc_sample_loop", "reply_flush"];

/// Decodes one generated `(opcode, name pick, value)` triple into a
/// builder call: 0 opens a span, 1 closes the innermost, 2 records a
/// synthetic completed phase, 3 records a count.
fn apply_step(tb: &mut TraceBuilder, step: (u8, usize, u64)) {
    let (op, name, value) = step;
    match op {
        0 => tb.begin(NAMES[name]),
        1 => tb.end(),
        2 => tb.event_ns(NAMES[name], value),
        _ => tb.count(NAMES[name], value),
    }
}

fn run_program(id: u64, steps: &[(u8, usize, u64)]) -> depcase_service::Trace {
    let mut tb = TraceBuilder::new(id, Instant::now());
    tb.set_op("eval");
    for step in steps {
        apply_step(&mut tb, *step);
    }
    tb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any builder program — unbalanced begins, oversized synthetic
    /// events, whatever — freezes into a well-formed tree: parents
    /// precede children, children fit inside parents, nothing open,
    /// nothing outliving the total.
    #[test]
    fn any_builder_program_finishes_well_formed(
        steps in proptest::collection::vec((0u8..4, 0usize..NAMES.len(), 0u64..5_000_000), 0..64),
    ) {
        let trace = run_program(1, &steps);
        prop_assert!(trace.is_well_formed(), "{trace:?}");
        prop_assert!(trace.spans.iter().all(|s| s.dur_ns != OPEN_NS));
    }

    /// Wraparound keeps exactly the newest `min(cap, n)` traces — no
    /// duplicates, no resurrections of overwritten entries.
    #[test]
    fn ring_wraparound_retains_the_newest_traces(
        cap in 1usize..16,
        n in 0u64..64,
    ) {
        let ring = TraceRing::new(cap);
        for id in 0..n {
            let mut tb = TraceBuilder::new(id, Instant::now());
            tb.begin("engine");
            tb.end();
            ring.push(Arc::new(tb.finish()));
        }
        let mut ids: Vec<u64> = ring.snapshot().iter().map(|t| t.id).collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (n.saturating_sub(cap as u64)..n).collect();
        prop_assert_eq!(ids, expected);
        prop_assert!(ring.snapshot().iter().all(|t| t.is_well_formed()));
    }
}

/// Writers hammer one shared ring while readers snapshot it the whole
/// time: every observed trace must be complete and well-formed (a
/// trace is immutable before it is published, so a torn tree in any
/// snapshot would be a real publication bug).
#[test]
fn concurrent_snapshots_never_observe_torn_traces() {
    let ring = Arc::new(TraceRing::new(8));
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    let mut tb = TraceBuilder::new(w * 1_000 + i, Instant::now());
                    tb.set_op("eval");
                    tb.begin("engine");
                    tb.event_ns("plan_compile", 250);
                    tb.begin("mc_sample_loop");
                    tb.count("mc_samples", i);
                    tb.end();
                    tb.end();
                    tb.set_ok(true);
                    ring.push(Arc::new(tb.finish()));
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen = 0usize;
                let mut check = |traces: Vec<Arc<depcase_service::Trace>>| {
                    for trace in traces {
                        assert!(trace.is_well_formed(), "torn trace in snapshot: {trace:?}");
                        assert!(trace.spans.iter().all(|s| s.dur_ns != OPEN_NS));
                        assert_eq!(trace.spans.len(), 3);
                        seen += 1;
                    }
                };
                while !stop.load(Ordering::Relaxed) {
                    check(ring.snapshot());
                }
                // One pass after the writers are done, so even a
                // starved reader (1-CPU runners) sees the full ring.
                check(ring.snapshot());
                seen
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader never saw a published trace");
    }
}

fn reactor_case() -> Case {
    let mut case = Case::new("reactor protection");
    let g = case.add_goal("G1", "pfd < 1e-3").unwrap();
    let s = case.add_strategy("S1", "independent legs", Combination::AnyOf).unwrap();
    let e1 = case.add_evidence("E1", "statistical testing", 0.95).unwrap();
    let e2 = case.add_evidence("E2", "static analysis", 0.90).unwrap();
    case.support(g, s).unwrap();
    case.support(s, e1).unwrap();
    case.support(s, e2).unwrap();
    case
}

fn load_line(name: &str, case: &Case) -> String {
    let body = Value::Object(vec![
        ("op".to_string(), Value::Str("load".to_string())),
        ("name".to_string(), Value::Str(name.to_string())),
        ("case".to_string(), case.to_value()),
    ]);
    serde_json::to_string(&depcase_service::protocol::Json(body)).unwrap()
}

/// Through a real TCP server: run a mixed workload, fetch the span
/// trees over the wire, and check the root-phase decomposition of each
/// trace reconciles with its end-to-end total within ±5% (the phases
/// are contiguous by construction, so the slack only absorbs the
/// clock reads between them). Also streams Chrome trace-event JSON to
/// a directory and checks it parses and names every root phase.
#[test]
fn wire_traces_reconcile_and_chrome_export_parses() {
    let engine = Arc::new(Engine::new(16));
    let dir = std::env::temp_dir().join(format!("depcase-trace-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    engine.telemetry().set_trace_dir(&dir).unwrap();

    let server = Server::bind(Arc::clone(&engine), ("127.0.0.1", 0), 2).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.round_trip(&load_line("reactor", &reactor_case())).unwrap();
    for _ in 0..4 {
        client.round_trip(r#"{"op":"eval","name":"reactor"}"#).unwrap();
        client
            .round_trip(r#"{"op":"mc","name":"reactor","samples":800000,"seed":7,"threads":2}"#)
            .unwrap();
    }

    let result = client.trace(32).unwrap();
    let traces = result.get("traces").and_then(Value::as_array).unwrap();
    assert!(traces.len() >= 8, "expected the workload's traces, got {}", traces.len());
    let mut checked = 0;
    for trace in traces {
        let total_us = trace.get("total_us").and_then(Value::as_f64).unwrap();
        let spans = trace.get("spans").and_then(Value::as_array).unwrap();
        let root_sum_us: f64 = spans
            .iter()
            .filter(|s| matches!(s.get("parent"), Some(Value::Null)))
            .map(|s| s.get("dur_us").and_then(Value::as_f64).unwrap())
            .sum();
        // Only requests long enough for the ±5% band to dominate clock
        // granularity; the mc requests guarantee several qualify.
        if total_us >= 500.0 {
            let drift = (root_sum_us - total_us).abs() / total_us;
            assert!(
                drift <= 0.05,
                "root phases sum to {root_sum_us} µs vs total {total_us} µs (drift {drift:.4})"
            );
            checked += 1;
        }
    }
    assert!(checked >= 4, "too few traces were long enough to check ({checked})");

    // The decomposition block reports per-op phase aggregates, keyed
    // by wire op, with the reconciliation sum alongside the total.
    let decomp = result.get("decomposition").unwrap();
    let mc = decomp.get("mc").expect("decomposition must cover the mc op");
    assert!(mc.get("total").and_then(|t| t.get("p99_us")).and_then(Value::as_f64).is_some());
    assert!(mc.get("root_phase_sum_us").and_then(Value::as_f64).is_some());
    assert!(
        mc.get("phases").and_then(|p| p.get("engine")).is_some(),
        "mc decomposition must break out the engine phase"
    );

    drop(client);
    server.shutdown();

    // The Chrome export must be valid JSON and name every root phase.
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no Chrome trace files written to {}", dir.display());
    let text = std::fs::read_to_string(&files[0]).unwrap();
    let depcase_service::protocol::Json(doc) =
        serde_json::from_str(&text).expect("Chrome trace file must be valid JSON");
    let events = doc.as_array().expect("Chrome trace file must be a JSON array");
    assert!(!events.is_empty());
    for phase in ["queue_wait", "parse", "engine", "reply_flush"] {
        assert!(
            events.iter().any(|e| e.get("name").and_then(Value::as_str) == Some(phase)),
            "Chrome export never names phase {phase}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The newest published trace. A trace is published as soon as its
/// reply is written, before the transport reads the next request, so
/// called right after a request this returns that request's trace.
fn last_trace(client: &mut Client) -> Value {
    let result = client.trace(1).unwrap();
    result.get("traces").and_then(Value::as_array).unwrap()[0].clone()
}

/// The parent name of the one span called `name` (`None` for a root).
fn parent_of(trace: &Value, name: &str) -> Option<String> {
    let spans = trace.get("spans").and_then(Value::as_array).unwrap();
    let named: Vec<&Value> =
        spans.iter().filter(|s| s.get("name").and_then(Value::as_str) == Some(name)).collect();
    assert_eq!(named.len(), 1, "expected exactly one `{name}` span in {trace:?}");
    let parent = named[0].get("parent").and_then(Value::as_u64)?;
    let parent = usize::try_from(parent).unwrap();
    Some(spans[parent].get("name").and_then(Value::as_str).unwrap().to_string())
}

fn count_of(trace: &Value, name: &str) -> Option<u64> {
    trace.get("counts").and_then(|c| c.get(name)).and_then(Value::as_u64)
}

/// Pins the spans the evaluation kernels report on the wire: their
/// names, their parents and their counts. A one-entry plan cache makes
/// the `eval` and the two-lane `batch` cold.
#[test]
fn kernel_spans_keep_their_names_parents_and_counts() {
    let engine = Arc::new(Engine::new(1));
    let server = Server::bind(Arc::clone(&engine), ("127.0.0.1", 0), 1).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (name, e1) in [("a", 0.95), ("b", 0.8), ("c", 0.7)] {
        let mut case = reactor_case();
        case.set_leaf_confidence(case.node_by_name("E1").unwrap(), e1).unwrap();
        client.round_trip_value(&load_line(name, &case)).unwrap();
    }
    let engine_span = Some("engine".to_string());

    // Cold eval: the compile wraps the full propagation of 4 nodes.
    client.round_trip_value(r#"{"op":"eval","name":"a"}"#).unwrap();
    let trace = last_trace(&mut client);
    assert_eq!(trace.get("op").and_then(Value::as_str), Some("eval"));
    assert_eq!(parent_of(&trace, "plan_compile"), engine_span);
    assert_eq!(parent_of(&trace, "full_propagate").as_deref(), Some("plan_compile"));
    assert_eq!(count_of(&trace, "case_nodes"), Some(4));

    // Two cold cases of one shape share one batch-kernel pass.
    let batch = client
        .round_trip_value(
            r#"{"v":2,"op":"batch","items":[{"op":"eval","name":"b"},{"op":"eval","name":"c"}]}"#,
        )
        .unwrap();
    let items = batch.get("items").and_then(Value::as_array).unwrap();
    assert!(items.iter().all(|i| i.get("ok") == Some(&Value::Bool(true))), "{batch:?}");
    let trace = last_trace(&mut client);
    assert_eq!(parent_of(&trace, "batch_propagate"), engine_span);
    assert_eq!(count_of(&trace, "batch_lanes"), Some(2));

    // A leaf edit recomputes the leaf and its two ancestors.
    client
        .round_trip_value(
            r#"{"op":"edit","name":"a","action":"set_confidence","node":"E1","confidence":0.5}"#,
        )
        .unwrap();
    let trace = last_trace(&mut client);
    assert_eq!(parent_of(&trace, "dirty_spine"), engine_span);
    assert_eq!(count_of(&trace, "spine_nodes"), Some(3));

    client
        .round_trip_value(r#"{"op":"mc","name":"a","samples":4096,"seed":7,"threads":1}"#)
        .unwrap();
    let trace = last_trace(&mut client);
    assert_eq!(parent_of(&trace, "mc_sample_loop"), engine_span);
    assert_eq!(count_of(&trace, "mc_samples"), Some(4096));

    // A deadline-stopped run still reports the time it spent sampling,
    // but no sample count: no report was produced.
    let expired = client
        .round_trip(
            r#"{"op":"mc","name":"a","samples":500000000,"seed":7,"threads":1,"deadline_ms":200}"#,
        )
        .unwrap();
    assert!(expired.contains("\"deadline_exceeded\""), "{expired}");
    let trace = last_trace(&mut client);
    assert_eq!(parent_of(&trace, "mc_sample_loop"), engine_span);
    assert_eq!(count_of(&trace, "mc_samples"), None);

    drop(client);
    server.shutdown();
}
