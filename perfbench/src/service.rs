//! The closed loop shared by the three service workloads, the
//! in-process replay behind their traced runs, and the reading of the
//! server's own counters.

use crate::common::{mean, median, micros, quantile, sorted, Outcome, Tracer};
use crate::server::{f64_field, Server};
use depcase_service::protocol::{parse_request, Json, Response};
use depcase_service::Engine;
use serde::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// One generated request: its wire line, its op-cost class (0 is the
/// class the latency percentiles are taken over) and a workload key the
/// answer check needs.
pub struct Op {
    pub line: String,
    pub class: u8,
    pub key: u64,
}

/// What one timed closed-loop phase saw.
#[derive(Default)]
pub struct Phase {
    pub ops: u64,
    pub seconds: f64,
    /// Round trips of every op, µs.
    pub all_us: Vec<f64>,
    /// When each op finished, seconds into the phase (pauses left out).
    pub at_s: Vec<f64>,
    /// `(key, class, extracted value, reply ok)` per op, in order.
    pub answers: Vec<(u64, u8, Option<f64>, bool)>,
    /// The request lines, kept only when asked for (traced runs).
    pub lines: Vec<String>,
}

/// Drives one connection in a closed loop for `seconds`: each request
/// goes out only after the previous reply is in. `field` names the
/// number to pull out of every reply for the answer check. `pause`
/// runs after each op and returns time to leave out of the phase (the
/// durable workload copies its data directory there); `more` keeps the
/// phase going past its deadline until it returns false, so a phase can
/// end on a whole cycle of periodic work.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    server: &mut Server,
    seconds: f64,
    first: u64,
    next: &mut dyn FnMut(u64) -> Op,
    field: &str,
    mut tracer: Option<&mut Tracer>,
    keep_lines: bool,
    pause: &mut dyn FnMut(u64, &mut Server) -> Result<Duration, String>,
    more: &dyn Fn(u64) -> bool,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let started = Instant::now();
    let mut deadline = started + Duration::from_secs_f64(seconds);
    let mut paused = Duration::ZERO;
    let mut i = first;
    while Instant::now() < deadline || (phase.ops > 0 && more(phase.ops)) {
        let op = next(i);
        let (reply, us) = match tracer.as_deref_mut() {
            Some(t) => t.leaf("round_trip", None, i, || server.call(&op.line)),
            None => {
                let t0 = Instant::now();
                let r = server.call(&op.line);
                (r, micros(t0))
            }
        };
        let reply = reply?;
        phase.all_us.push(us);
        phase.at_s.push((started.elapsed() - paused).as_secs_f64());
        let ok = crate::server::is_ok(&reply);
        phase.answers.push((op.key, op.class, f64_field(&reply, field), ok));
        if keep_lines {
            phase.lines.push(op.line);
        }
        phase.ops += 1;
        i += 1;
        let held = pause(phase.ops, server)?;
        deadline += held;
        paused += held;
    }
    phase.seconds = (started.elapsed() - paused).as_secs_f64();
    Ok(phase)
}

pub fn no_pause(_: u64, _: &mut Server) -> Result<Duration, String> {
    Ok(Duration::ZERO)
}

pub fn no_more(_: u64) -> bool {
    false
}

/// Per-line costs of the in-process replay, µs.
#[derive(Default)]
pub struct Replay {
    pub parse_us: Vec<f64>,
    pub handle_us: Vec<f64>,
    pub render_us: Vec<f64>,
    pub total_us: Vec<f64>,
    pub reply_bytes: Vec<f64>,
    /// The op class of each replayed line.
    pub classes: Vec<u8>,
}

/// Replays request lines through the same public calls the server
/// makes per line — `parse_request`, `Engine::handle`, `render` — each
/// timed as a span under one `inproc` span per request.
pub fn replay(
    engine: &Engine,
    lines: &[String],
    classes: &[u8],
    first_id: u64,
    tracer: &mut Tracer,
) -> Replay {
    let mut out = Replay::default();
    for (n, line) in lines.iter().enumerate() {
        let id = first_id + n as u64;
        let ((parse, handle, render, bytes), total) = tracer.span("inproc", None, id, |t, p| {
            let (envelope, parse) = t.leaf("protocol.parse", p, id, || parse_request(line));
            let envelope = envelope.expect("generated request lines parse");
            let (result, handle) =
                t.leaf("engine.handle", p, id, || engine.handle(&envelope.request));
            let (text, render) = t.leaf("protocol.render", p, id, || {
                Response::from(result).render(envelope.version, &envelope.id)
            });
            (parse, handle, render, text.len())
        });
        out.parse_us.push(parse);
        out.handle_us.push(handle);
        out.render_us.push(render);
        out.total_us.push(total);
        out.reply_bytes.push(bytes as f64);
        out.classes.push(classes.get(n).copied().unwrap_or(0));
    }
    out
}

/// Runs setup lines (loads, warm-up) through an in-process engine
/// without timing them.
pub fn feed(engine: &Engine, lines: &[String]) -> Result<(), String> {
    for line in lines {
        let envelope = parse_request(line).map_err(|(_, e)| e.message)?;
        engine.handle(&envelope.request).map_err(|e| e.message)?;
    }
    Ok(())
}

/// The server's `stats` block, parsed.
pub fn server_stats(server: &mut Server) -> Result<Value, String> {
    let reply = server.call(r#"{"id":0,"op":"stats"}"#)?;
    let Json(value) = serde_json::from_str::<Json>(&reply).map_err(|e| e.to_string())?;
    value.get("result").cloned().ok_or_else(|| "stats reply without a result".to_string())
}

/// How much the counter at `path` grew between two stats snapshots.
pub fn grew(before: &Value, after: &Value, path: &[&str]) -> f64 {
    stat(after, path) - stat(before, path)
}

/// A number at `path` in a stats value (0 when absent).
pub fn stat(value: &Value, path: &[&str]) -> f64 {
    let mut v = value;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().or_else(|| v.as_u64().map(|u| u as f64)).unwrap_or(0.0)
}

/// The per-layer metrics every service workload reports from its
/// traced wire phase, its in-process replay and the server's counters.
pub fn push_service_layers(
    out: &mut Outcome,
    untraced: &Phase,
    traced: &Phase,
    rep: &Replay,
    before: &Value,
    after: &Value,
) {
    let d = |path: &[&str]| grew(before, after, path);
    let rt = sorted(&traced.all_us);
    let inproc_p50 = median(&rep.total_us);
    let transport_self = quantile(&rt, 0.5) - inproc_p50;
    let n = rep.total_us.len();
    out.push("transport.self_us", transport_self, "us", rt.len());
    out.push("protocol.parse_us", median(&rep.parse_us), "us", n);
    out.push("protocol.render_us", median(&rep.render_us), "us", n);
    out.push("protocol.reply_bytes", mean(&rep.reply_bytes), "bytes", n);
    let handle = sorted(&rep.handle_us);
    out.push("engine.handle_us", quantile(&handle, 0.5), "us", n);
    out.push("engine.handle_p99_us", quantile(&handle, 0.99), "us", n);

    let (hits, misses) = (d(&["plan_cache", "hits"]), d(&["plan_cache", "misses"]));
    out.push("cache.hit_ratio", ratio(hits, hits + misses), "ratio", (hits + misses) as usize);
    out.push("cache.evictions", d(&["plan_cache", "evictions"]), "count", 1);
    let (mh, mm) = (d(&["memo_store", "hits"]), d(&["memo_store", "misses"]));
    out.push("memo.hit_ratio", ratio(mh, mh + mm), "ratio", (mh + mm) as usize);
    out.push("memo.evictions", d(&["memo_store", "evictions"]), "count", 1);
    out.push("compile.count", d(&["compile", "compiles"]), "count", 1);
    out.push("compile.dedup_ratio", stat(after, &["compile", "subtree_dedup_ratio"]), "ratio", 1);
    out.push("wal.records", d(&["durability", "records_appended"]), "count", 1);
    out.push("wal.fsyncs", d(&["durability", "fsyncs"]), "count", 1);
    out.push("snapshot.count", d(&["durability", "snapshots_written"]), "count", 1);

    // Coverage: the in-process layers plus the transport's own share,
    // measured against the mean wire round trip.
    let layers = mean(&rep.parse_us) + mean(&rep.handle_us) + mean(&rep.render_us);
    out.push("trace.coverage", (layers + transport_self) / mean(&traced.all_us), "ratio", n);
    let untraced_rate = untraced.ops as f64 / untraced.seconds;
    let traced_rate = traced.ops as f64 / traced.seconds;
    out.push("trace.overhead", untraced_rate / traced_rate, "ratio", traced.ops as usize);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What distinguishes one service workload from another; the set-up,
/// timed phase, traced run and restarts around it are shared.
pub trait Workload {
    /// Clears state a previous launch left behind (a data directory).
    fn fresh(&self) -> Result<(), String> {
        Ok(())
    }
    /// Server flags beyond `serve --addr`.
    fn flags(&self) -> Vec<String>;
    /// Load lines sent right after launch.
    fn loads(&self) -> &[String];
    /// Untimed closed-loop lines after the loads (cache warm-up).
    fn warmup(&self) -> Vec<String>;
    /// Op `i` of the timed stream.
    fn op(&mut self, i: u64) -> Op;
    /// The reply field the answer check reads.
    fn field(&self) -> &'static str;
    /// Checks every answer of a phase against the library.
    fn check(&mut self, out: &mut Outcome, phase: &Phase);
    /// An in-process engine set up like the server, for the replay.
    fn engine(&self, scratch: &Path) -> Result<Engine, String>;
}

/// Launches a server and brings it to its first timed op: loads, then
/// warm-up, on the same closed-loop connection. Returns the server and
/// the seconds that took.
pub fn set_up(binary: &Path, w: &dyn Workload) -> Result<(Server, f64), String> {
    w.fresh()?;
    let started = Instant::now();
    let mut server = Server::start(binary, &w.flags())?;
    for line in w.loads().iter().chain(&w.warmup()) {
        let reply = server.call(line)?;
        if !crate::server::is_ok(&reply) {
            return Err(format!("set-up request failed: {reply}"));
        }
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// Median set-up time over `count` launches; the last server stays up.
pub fn set_up_median(
    binary: &Path,
    w: &dyn Workload,
    count: usize,
) -> Result<(Server, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..count {
        if let Some(previous) = last.take() {
            Server::stop(previous)?;
        }
        let (server, s) = set_up(binary, w)?;
        times.push(s);
        last = Some(server);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// The end-to-end metrics the in-memory service workloads share:
/// set-up time, the timed phase's windowed throughput and class-0
/// latency, and peak RSS.
pub fn push_end_to_end(out: &mut Outcome, setups: &[f64], phase: &Phase, resident_mb: f64) {
    out.push("setup_s", median(setups), "s", setups.len());
    let ops = phase.at_s.iter().zip(&phase.all_us).zip(&phase.answers);
    crate::common::push_windowed(out, phase.seconds, ops.map(|((at, us), a)| (*at, *us, a.1 == 0)));
    out.push("resident_mb", resident_mb, "MB", 1);
}

/// The traced run of a service workload: an untraced and a traced half
/// on the wire, the server's counters around them, then the traced
/// lines replayed in process layer by layer.
pub fn traced_run(
    binary: &Path,
    w: &mut dyn Workload,
    seconds: f64,
    scratch: &Path,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<Traced, String> {
    let (mut server, _) = set_up(binary, w)?;
    let before = server_stats(&mut server)?;
    let field = w.field();
    let untraced = closed_loop(
        &mut server,
        seconds / 2.0,
        0,
        &mut |i| w.op(i),
        field,
        None,
        false,
        &mut no_pause,
        &no_more,
    )?;
    let first = untraced.ops;
    let traced = closed_loop(
        &mut server,
        seconds / 2.0,
        first,
        &mut |i| w.op(i),
        field,
        Some(&mut *tracer),
        true,
        &mut no_pause,
        &no_more,
    )?;
    let after = server_stats(&mut server)?;
    server.stop()?;
    w.check(out, &untraced);
    w.check(out, &traced);
    let engine = w.engine(scratch)?;
    feed(&engine, w.loads())?;
    feed(&engine, &w.warmup())?;
    let classes: Vec<u8> = traced.answers.iter().map(|a| a.1).collect();
    let rep = replay(&engine, &traced.lines, &classes, first, tracer);
    push_service_layers(out, &untraced, &traced, &rep, &before, &after);
    Ok(Traced { traced, replay: rep, engine })
}

/// What a workload may still need after [`traced_run`].
pub struct Traced {
    pub traced: Phase,
    pub replay: Replay,
    pub engine: Engine,
}
