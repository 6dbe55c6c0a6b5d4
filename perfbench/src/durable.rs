//! `durable_edits`: one ~110-node case on a data directory, edited
//! leaf by leaf with an eval after every 4th edit — the write-beside-read
//! workload. It stresses incremental edits, case packing, the WAL,
//! snapshot writes and, at the end, recovery.

use crate::common::{median, micros, vm_hwm_mb, Outcome, Rng, Tracer};
use crate::layers;
use crate::server::{f64_field, filesystem_of, fresh_dir, is_ok, Server};
use crate::service::{self, closed_loop, Op, Phase, Workload};
use depcase::assurance::{Case, Combination, Incremental, NodeId};
use depcase_service::{DurabilityConfig, Engine, EngineConfig, FsyncPolicy};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const STRATEGIES: usize = 10;
const LEAVES: usize = 10;
/// The server defaults, passed explicitly so the output states them.
const SNAPSHOT_EVERY: u64 = 256;
const FSYNC: &str = "never";
/// Mutations in the data directory the restarts recover: two snapshot
/// cycles plus a 128-record WAL tail. Fixed, so recovery work does not
/// depend on how many edits the timed phase managed.
const RECOVERY_MUTATIONS: u64 = 2 * SNAPSHOT_EVERY + 128;
/// Set-ups are cheap here (launch, open an empty directory, one load),
/// so many; restarts recover 640 mutations (seconds each), so five.
const SETUPS: usize = 31;
const RESTARTS: usize = 5;
const NAME: &str = "d";

pub struct Durable {
    base: Case,
    leaves: Vec<(NodeId, String)>,
    loads: Vec<String>,
    data_dir: PathBuf,
    rng: Rng,
    /// Edits by op index, for the library replay.
    edits: std::collections::HashMap<u64, (usize, f64)>,
    /// The library reference the answers are checked against.
    session: Incremental,
    root: NodeId,
}

/// A goal over `STRATEGIES` all-of strategies of `LEAVES` evidence
/// leaves each, with seeded elicited confidences.
fn build(seed: u64) -> Case {
    let mut rng = Rng::new(seed, 21);
    let mut case = Case::new("durable edits");
    let goal = case.add_goal("G", "the system meets its pfd target").expect("fresh name");
    for s in 0..STRATEGIES {
        let strategy =
            case.add_strategy(format!("S{s}"), "all legs hold", Combination::AllOf).expect("fresh");
        case.support(goal, strategy).expect("acyclic");
        for l in 0..LEAVES {
            let conf = 0.9 + 0.0999 * rng.unit();
            let leaf =
                case.add_evidence(format!("E{s}_{l}"), "evidence item", conf).expect("fresh");
            case.support(strategy, leaf).expect("acyclic");
        }
    }
    case
}

impl Durable {
    pub fn new(seed: u64, data_dir: PathBuf) -> Durable {
        let base = build(seed);
        let leaves = layers::leaves(&base)
            .into_iter()
            .map(|id| (id, base.node(id).expect("own node").name.clone()))
            .collect();
        let doc = serde_json::to_string(&base).expect("cases serialize");
        let loads = vec![format!(r#"{{"id":0,"op":"load","name":"{NAME}","case":{doc}}}"#)];
        let root = base.roots()[0];
        let session = Incremental::new(base.clone()).expect("the case compiles");
        Durable {
            base,
            leaves,
            loads,
            data_dir,
            rng: Rng::new(seed, 22),
            edits: std::collections::HashMap::new(),
            session,
            root,
        }
    }

    fn flags_for(&self, dir: &Path) -> Vec<String> {
        vec![
            "--data-dir".into(),
            dir.display().to_string(),
            "--fsync".into(),
            FSYNC.into(),
            "--snapshot-every".into(),
            SNAPSHOT_EVERY.to_string(),
        ]
    }

    fn root_bits(&self) -> u64 {
        self.session.confidence(self.root).expect("root evaluated").independent.to_bits()
    }
}

fn is_eval(i: u64) -> bool {
    (i + 1).is_multiple_of(5)
}

/// True for the edit whose commit writes a snapshot: its cost is
/// three orders above a plain edit's, so it is an op-cost class of its
/// own (class 2), seen in throughput and in `snapshot.stall_us`.
fn is_snapshot_edit(i: u64) -> bool {
    !is_eval(i) && mutations_after(i + 1).is_multiple_of(SNAPSHOT_EVERY)
}

/// Per whole snapshot cycle of a phase that starts at op 0: ops per
/// second (from the round trips of the cycle's ops), and the p50 and p99
/// of its plain edits.
fn cycles(all_us: &[f64]) -> Vec<(f64, f64, f64)> {
    let mut out = Vec::new();
    let (mut ops, mut us, mut edits) = (0u64, 0.0, Vec::new());
    for (i, t) in all_us.iter().enumerate() {
        let i = i as u64;
        ops += 1;
        us += t;
        if !is_eval(i) && !is_snapshot_edit(i) {
            edits.push(*t);
        }
        if is_snapshot_edit(i) {
            let sorted = crate::common::sorted(&edits);
            out.push((
                ops as f64 / (us / 1e6),
                crate::common::quantile(&sorted, 0.5),
                crate::common::quantile(&sorted, 0.99),
            ));
            (ops, us) = (0, 0.0);
            edits.clear();
        }
    }
    out
}

/// Mutations committed once ops `0..done` are acked: the load plus
/// every edit.
fn mutations_after(done: u64) -> u64 {
    1 + done - done / 5
}

impl Workload for Durable {
    fn fresh(&self) -> Result<(), String> {
        fresh_dir(self.data_dir.parent().expect("data dir has a parent"), &dir_name(&self.data_dir))
            .map(|_| ())
    }

    fn flags(&self) -> Vec<String> {
        self.flags_for(&self.data_dir)
    }

    fn loads(&self) -> &[String] {
        &self.loads
    }

    fn warmup(&self) -> Vec<String> {
        Vec::new()
    }

    fn op(&mut self, i: u64) -> Op {
        if is_eval(i) {
            return Op {
                line: format!(r#"{{"id":{i},"op":"eval","name":"{NAME}"}}"#),
                class: 1,
                key: i,
            };
        }
        let leaf = self.rng.below(self.leaves.len());
        let value = 0.9 + 0.0999 * self.rng.unit();
        self.edits.insert(i, (leaf, value));
        let node = &self.leaves[leaf].1;
        let class = if is_snapshot_edit(i) { 2 } else { 0 };
        Op {
            line: format!(
                r#"{{"id":{i},"op":"edit","name":"{NAME}","action":"set_confidence","node":"{node}","confidence":{value}}}"#
            ),
            class,
            key: i,
        }
    }

    fn field(&self) -> &'static str {
        "root_confidence"
    }

    /// Replays the phase's edits through a library `Incremental` session
    /// in order; every edit and eval answer must carry its root bits.
    fn check(&mut self, out: &mut Outcome, phase: &Phase) {
        for &(i, _, value, ok) in &phase.answers {
            if let Some(&(leaf, conf)) = self.edits.get(&i) {
                let applied = self.session.set_confidence(self.leaves[leaf].0, conf).is_ok();
                out.check(applied && ok && value.map(f64::to_bits) == Some(self.root_bits()));
            } else {
                out.check(ok && value.map(f64::to_bits) == Some(self.root_bits()));
            }
        }
    }

    fn engine(&self, scratch: &Path) -> Result<Engine, String> {
        let dir = fresh_dir(scratch, "durable-inproc")?;
        open_engine(&dir)
    }
}

fn dir_name(dir: &Path) -> String {
    dir.file_name().expect("data dir has a name").to_string_lossy().into_owned()
}

fn open_engine(dir: &Path) -> Result<Engine, String> {
    let mut config = DurabilityConfig::new(dir);
    config.fsync = FsyncPolicy::Never;
    config.snapshot_every = SNAPSHOT_EVERY;
    Engine::open_config(&EngineConfig::new(64), &config)
        .map_err(|e| format!("opening {}: {e}", dir.display()))
}

/// The state the restarts must reproduce: the `history` and `eval`
/// replies captured before shutdown.
struct Captured {
    history: String,
    eval: String,
}

const HISTORY_LINE: &str = r#"{"id":7,"op":"history","name":"d"}"#;
const EVAL_LINE: &str = r#"{"id":8,"op":"eval","name":"d"}"#;

pub fn run(
    binary: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let pid = std::process::id();
    let data_dir = fresh_dir(out_dir, &format!("durable-data-{pid}"))?;
    let recovery_dir = out_dir.join(format!("durable-recovery-{pid}"));
    let mut w = Durable::new(seed, data_dir.clone());
    let mut out = Outcome::default();
    out.note("load", "set_confidence edits on seeded random leaves, an eval after every 4th; one TCP connection, closed loop");
    out.note("case_nodes", w.base.len());
    out.note("server_flags", w.flags().join(" "));
    out.note("fsync_policy", FSYNC);
    out.note("data_dir_filesystem", filesystem_of(&data_dir));
    let result = if trace {
        traced(binary, &mut w, seed, seconds, out_dir, &mut out)
    } else {
        timed(binary, &mut w, seconds, &recovery_dir, &mut out)
    };
    let _ = std::fs::remove_dir_all(&data_dir);
    let _ = std::fs::remove_dir_all(&recovery_dir);
    let _ = std::fs::remove_dir_all(out_dir.join("durable-inproc"));
    result.map(|()| out)
}

/// Makes `to` a frozen copy of the data directory `from`. Objects and
/// the manifest are only ever replaced by rename, never rewritten in
/// place, so they are hard-linked; the WAL grows in place and is copied.
/// Linking writes no data, so no writeback disturbs the timed phase.
fn freeze(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            freeze(&entry.path(), &target)?;
        } else if entry.file_name() == "wal.log" {
            std::fs::copy(entry.path(), target)?;
        } else {
            std::fs::hard_link(entry.path(), target)?;
        }
    }
    Ok(())
}

/// At the fixed mutation count, freezes the data directory the server
/// wrote (it is idle: the last ack is in) and captures what a restart
/// must reproduce. Returns the time this took, to leave out of the
/// timed phase.
fn capture_at_recovery_point(
    done: u64,
    server: &mut Server,
    data_dir: &Path,
    recovery_dir: &Path,
    captured: &mut Option<Captured>,
) -> Result<Duration, String> {
    if captured.is_some() || mutations_after(done) != RECOVERY_MUTATIONS {
        return Ok(Duration::ZERO);
    }
    let t0 = Instant::now();
    let _ = std::fs::remove_dir_all(recovery_dir);
    freeze(data_dir, recovery_dir).map_err(|e| format!("copying the data dir: {e}"))?;
    *captured =
        Some(Captured { history: server.call(HISTORY_LINE)?, eval: server.call(EVAL_LINE)? });
    Ok(t0.elapsed())
}

fn timed(
    binary: &Path,
    w: &mut Durable,
    seconds: f64,
    recovery_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let (mut server, setups) = service::set_up_median(binary, w, SETUPS)?;
    // The phase runs on to the end of its last snapshot cycle, so it
    // always holds whole cycles and throughput does not depend on where
    // the deadline cut one.
    let data_dir = w.data_dir.clone();
    let mut captured: Option<Captured> = None;
    let phase = closed_loop(
        &mut server,
        seconds,
        0,
        &mut |i| w.op(i),
        "root_confidence",
        None,
        false,
        &mut |done, s| capture_at_recovery_point(done, s, &data_dir, recovery_dir, &mut captured),
        &|done| !mutations_after(done).is_multiple_of(SNAPSHOT_EVERY),
    )?;
    // A slow build may not reach the recovery point inside the window:
    // keep going, untimed and still checked, until it does.
    let mut extra = Phase::default();
    let mut done = phase.ops;
    while captured.is_none() {
        let op = w.op(done);
        let reply = server.call(&op.line)?;
        extra.answers.push((op.key, op.class, f64_field(&reply, "root_confidence"), is_ok(&reply)));
        done += 1;
        capture_at_recovery_point(done, &mut server, &data_dir, recovery_dir, &mut captured)?;
    }
    server.stop()?;
    w.check(out, &phase);
    w.check(out, &extra);
    let captured = captured.expect("the loop above reaches the recovery point");
    // Peak RSS is read from the restarted servers: they hold the fixed
    // recovery point, where the timed server's registry grows with
    // however many edits its phase managed.
    let (mut recoveries, mut resident) = (Vec::new(), Vec::new());
    for _ in 0..RESTARTS {
        let t0 = Instant::now();
        let mut server = Server::start(binary, &w.flags_for(recovery_dir))?;
        let eval = server.call(EVAL_LINE)?;
        recoveries.push(t0.elapsed().as_secs_f64());
        let history = server.call(HISTORY_LINE)?;
        resident.push(vm_hwm_mb(&server.pid()));
        server.stop()?;
        out.check(eval == captured.eval && history == captured.history);
    }
    // Throughput and plain-edit latency are taken per whole snapshot
    // cycle and the median across cycles is reported, so a cycle the
    // host disturbed does not set the run's figure.
    let per_cycle = cycles(&phase.all_us);
    let pick =
        |f: fn(&(f64, f64, f64)) -> f64| median(&per_cycle.iter().map(f).collect::<Vec<_>>());
    let edits = phase.answers.iter().filter(|a| a.1 == 0).count();
    out.push("setup_s", median(&setups), "s", setups.len());
    out.push("throughput_ops_s", pick(|c| c.0), "ops/s", phase.ops as usize);
    out.push("latency_p50_us", pick(|c| c.1), "us", edits);
    out.push("latency_p99_us", pick(|c| c.2), "us", edits);
    out.push("resident_mb", median(&resident), "MB", resident.len());
    out.note("snapshot_cycles_timed", per_cycle.len());
    out.push("recovery_s", median(&recoveries), "s", recoveries.len());
    out.note("recovery_point_mutations", RECOVERY_MUTATIONS);
    Ok(())
}

/// The traced run: the shared wire and replay layers, then the
/// snapshot stalls the in-process replay hit, and a timed reopen of its
/// data directory.
fn traced(
    binary: &Path,
    w: &mut Durable,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let t = service::traced_run(binary, w, seconds, out_dir, out, &mut tracer)?;
    // Mutation k (the load is 1) writes a snapshot when k is a multiple
    // of the snapshot interval.
    let (mut stalls, mut plain) = (Vec::new(), Vec::new());
    let mut mutations = 1u64;
    for (us, class) in t.replay.handle_us.iter().zip(&t.replay.classes) {
        if *class != 1 {
            mutations += 1;
            if mutations.is_multiple_of(SNAPSHOT_EVERY) {
                stalls.push(*us);
            } else {
                plain.push(*us);
            }
        }
    }
    if !stalls.is_empty() {
        out.push("snapshot.stall_us", median(&stalls) - median(&plain), "us", stalls.len());
    }
    let dir = out_dir.join("durable-inproc");
    let objects = std::fs::read_dir(dir.join("objects")).map_or(0, |d| d.count());
    out.push("snapshot.objects_written", objects as f64, "count", 1);
    let tail = mutations % SNAPSHOT_EVERY;
    let wal_bytes = std::fs::metadata(dir.join("wal.log")).map_or(0, |m| m.len());
    if tail > 0 {
        out.push("wal.bytes_per_record", wal_bytes as f64 / tail as f64, "bytes", tail as usize);
    }
    drop(t.engine);
    let t0 = Instant::now();
    let reopened = tracer.leaf("recovery.open", None, 0, || open_engine(&dir)).0?;
    let open_us = micros(t0);
    let replayed = reopened.durability_counters().records_replayed;
    let verified = objects as u64 + replayed;
    out.push("recovery.objects_verified", verified as f64, "count", 1);
    out.push("recovery.us_per_object", open_us / verified.max(1) as f64, "us", verified as usize);
    drop(reopened);
    // The codec, compile, propagate and edit layers on variants of the
    // workload's own case.
    let mut rng = Rng::new(seed, 23);
    let variants: Vec<Case> = (0..16)
        .map(|_| {
            let mut case = w.base.clone();
            for _ in 0..8 {
                let (id, _) = w.leaves[rng.below(w.leaves.len())];
                case.set_leaf_confidence(id, 0.9 + 0.0999 * rng.unit()).expect("leaf edits apply");
            }
            case
        })
        .collect();
    layers::case_layers(out, &variants, seed, true);
    crate::fleet::write_trace(&tracer, out_dir, "durable_edits", seed)
}
