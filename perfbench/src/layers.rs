//! Per-layer probes for the traced runs: each times calls into one
//! layer's public functions on the workload's own inputs.

use crate::common::{mean, median, micros, Outcome, Rng};
use depcase::assurance::{
    Case, EvalPlan, Incremental, MemoStore, MonteCarlo, NodeId, NodeKind, SharedMemo,
};
use depcase::confidence::acarp::AcarpPlan;
use depcase::confidence::WorstCaseBound;
use depcase::distributions::{Distribution, LogNormal};
use depcase::numerics::integrate::adaptive_simpson;
use depcase::numerics::special::{erfc, norm_quantile, reg_inc_beta};
use depcase::sil::{DemandMode, SilAssessment};
use depcase_service::protocol::Json;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric with its unit. A layer the workload does not
/// reach reports 0 (a count of 0, or no time spent there).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("transport.self_us", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.render_us", "us"),
    ("protocol.reply_bytes", "bytes"),
    ("codec.unpack_us", "us"),
    ("codec.unpack_ns_per_byte", "ns/B"),
    ("codec.pack_us", "us"),
    ("engine.handle_us", "us"),
    ("engine.handle_p99_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("compile.count", "count"),
    ("compile.cold_us", "us"),
    ("compile.warm_us", "us"),
    ("compile.dedup_ratio", "ratio"),
    ("memo.hit_ratio", "ratio"),
    ("memo.evictions", "count"),
    ("propagate.ns_per_node", "ns"),
    ("edit.us", "us"),
    ("edit.nodes_recomputed", "count"),
    ("mc.samples_per_s", "1/s"),
    ("mc.share_of_round_trip", "ratio"),
    ("wal.records", "count"),
    ("wal.bytes_per_record", "bytes"),
    ("wal.fsyncs", "count"),
    ("snapshot.count", "count"),
    ("snapshot.stall_us", "us"),
    ("snapshot.objects_written", "count"),
    ("recovery.objects_verified", "count"),
    ("recovery.us_per_object", "us"),
    ("numerics.erfc_ns", "ns"),
    ("numerics.norm_quantile_ns", "ns"),
    ("numerics.reg_inc_beta_ns", "ns"),
    ("numerics.quadrature_us", "us"),
    ("distributions.lognormal_cdf_ns", "ns"),
    ("sil.confidences_us", "us"),
    ("core.worst_case_bound_ns", "ns"),
    ("core.acarp_confidence_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Median ns per call of `f` over `inputs`, timed in batches so the
/// clock's own cost stays out of nanosecond-scale figures.
fn ns_per_call<T>(inputs: &[T], rounds: usize, mut f: impl FnMut(&T) -> f64) -> f64 {
    let per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = 0.0;
            for x in inputs {
                acc += f(x);
            }
            black_box(acc);
            t0.elapsed().as_nanos() as f64 / inputs.len() as f64
        })
        .collect();
    median(&per_round)
}

/// The numerics, distributions, sil and core layers, probed over the
/// sweep's judgements.
pub fn numerics(out: &mut Outcome, beliefs: &[LogNormal], demands: &[u64]) {
    let n = beliefs.len();
    let xs: Vec<f64> = beliefs.iter().map(|b| b.mu() / (b.sigma() * 2f64.sqrt())).collect();
    out.push("numerics.erfc_ns", ns_per_call(&xs, 15, |&x| erfc(-x)), "ns", n);
    let ps: Vec<f64> = beliefs.iter().map(|b| b.cdf(1e-2).clamp(1e-12, 1.0 - 1e-12)).collect();
    out.push("numerics.norm_quantile_ns", ns_per_call(&ps, 15, |&p| norm_quantile(p)), "ns", n);
    let ab: Vec<(f64, f64, f64)> = beliefs
        .iter()
        .zip(demands)
        .map(|(b, &d)| (1.0 + b.sigma(), d as f64 / 100.0, b.cdf(1e-2).clamp(0.0, 1.0)))
        .collect();
    out.push(
        "numerics.reg_inc_beta_ns",
        ns_per_call(&ab, 15, |&(a, b, x)| reg_inc_beta(a, b, x).unwrap_or(0.0)),
        "ns",
        n,
    );
    let few = &beliefs[..n.min(256)];
    out.push(
        "numerics.quadrature_us",
        ns_per_call(few, 3, |b| {
            adaptive_simpson(|x| b.pdf(x), 0.0, 1e-2, 1e-10).map_or(0.0, |r| r.value)
        }) / 1e3,
        "us",
        few.len(),
    );
    out.push("distributions.lognormal_cdf_ns", ns_per_call(beliefs, 15, |b| b.cdf(1e-3)), "ns", n);
    out.push(
        "sil.confidences_us",
        ns_per_call(beliefs, 5, |b| SilAssessment::new(b, DemandMode::LowDemand).confidences()[1])
            / 1e3,
        "us",
        n,
    );
    let doubts: Vec<f64> = ps.iter().map(|p| 1.0 - p).collect();
    out.push(
        "core.worst_case_bound_ns",
        ns_per_call(&doubts, 15, |&x| WorstCaseBound::bound(x, 1e-2).unwrap_or(0.0)),
        "ns",
        n,
    );
    let pairs: Vec<(&LogNormal, u64)> = few.iter().zip(demands.iter().copied()).collect();
    out.push(
        "core.acarp_confidence_us",
        ns_per_call(&pairs, 3, |(b, d)| {
            AcarpPlan::new(*b, 1e-2).confidence_after(*d).unwrap_or(0.0)
        }) / 1e3,
        "us",
        pairs.len(),
    );
}

/// The codec, compile, propagate and (with `edits`) edit layers,
/// probed over `cases`.
pub fn case_layers(out: &mut Outcome, cases: &[Case], seed: u64, edits: bool) {
    let n = cases.len();
    let (mut unpack, mut per_byte, mut pack) = (Vec::new(), Vec::new(), Vec::new());
    for case in cases {
        let t0 = Instant::now();
        let doc = serde_json::to_string(&Json(Serialize::to_value(case))).expect("cases pack");
        pack.push(micros(t0));
        let t0 = Instant::now();
        let Json(value) = serde_json::from_str::<Json>(&doc).expect("packed cases parse");
        let back = Case::from_value(&value).expect("packed cases rebuild");
        let us = micros(t0);
        black_box(back);
        unpack.push(us);
        per_byte.push(us * 1e3 / doc.len() as f64);
    }
    out.push("codec.unpack_us", median(&unpack), "us", n);
    out.push("codec.unpack_ns_per_byte", median(&per_byte), "ns/B", n);
    out.push("codec.pack_us", median(&pack), "us", n);

    let (mut cold, mut warm, mut per_node) = (Vec::new(), Vec::new(), Vec::new());
    for case in cases {
        let memo: Arc<dyn MemoStore> = Arc::new(SharedMemo::new(1 << 16));
        for sink in [&mut cold, &mut warm] {
            let copy = case.clone();
            let t0 = Instant::now();
            let session = Incremental::with_memo(copy, Arc::clone(&memo)).expect("cases compile");
            sink.push(micros(t0));
            black_box(session);
        }
        let plan = EvalPlan::compile(case).expect("cases compile");
        let t0 = Instant::now();
        for _ in 0..16 {
            black_box(EvalPlan::propagate_batch(&[&plan]).expect("plans propagate"));
        }
        per_node.push(t0.elapsed().as_nanos() as f64 / 16.0 / case.len() as f64);
    }
    out.push("compile.cold_us", median(&cold), "us", n);
    out.push("compile.warm_us", median(&warm), "us", n);
    out.push("propagate.ns_per_node", median(&per_node), "ns", n);

    if edits {
        let mut rng = Rng::new(seed, 11);
        let (mut us, mut recomputed) = (Vec::new(), Vec::new());
        for case in cases {
            let leaves = leaves(case);
            let mut session = Incremental::new(case.clone()).expect("cases compile");
            for _ in 0..64 {
                let leaf = leaves[rng.below(leaves.len())];
                let value = 0.9 + 0.0999 * rng.unit();
                let t0 = Instant::now();
                let stats = session.set_confidence(leaf, value).expect("leaf edits apply");
                us.push(micros(t0));
                recomputed.push(stats.nodes_recomputed as f64);
            }
        }
        out.push("edit.us", median(&us), "us", us.len());
        out.push("edit.nodes_recomputed", mean(&recomputed), "count", us.len());
    }
}

/// The mc layer: `MonteCarlo::run_plan` at 2^18 samples on one thread,
/// a distinct seed per run, over up to 20 of `cases`.
pub fn mc_probe(out: &mut Outcome, cases: &[Case], seed: u64) {
    const SAMPLES: u32 = 1 << 18;
    let mut rng = Rng::new(seed, 13);
    let mut rates = Vec::new();
    for case in cases.iter().take(20) {
        let plan = EvalPlan::compile(case).expect("cases compile");
        let runner = MonteCarlo::new(SAMPLES).seed(rng.next_u64()).threads(1);
        let t0 = Instant::now();
        black_box(runner.run_plan(&plan).expect("cases sample"));
        rates.push(f64::from(SAMPLES) / t0.elapsed().as_secs_f64());
    }
    out.push("mc.samples_per_s", median(&rates), "1/s", rates.len());
}

/// The evidence and assumption leaves of `case`, in node order.
pub fn leaves(case: &Case) -> Vec<NodeId> {
    case.iter()
        .filter(|(_, node)| {
            matches!(node.kind, NodeKind::Evidence { .. } | NodeKind::Assumption { .. })
        })
        .map(|(id, _)| id)
        .collect()
}
