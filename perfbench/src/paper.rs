//! `paper_sweep`: the library in process, one thread. Each op assesses
//! one elicited judgement across the paper's computations: log-normal
//! SIL membership and the mean/mode decade gap (§3.1–3.2), the
//! worst-case bound on the claim (§3.4), and the tail-cut confidence
//! after n failure-free demands (§4).

use crate::common::{mean, median, micros, push_windowed, vm_hwm_mb, Outcome, Rng, Tracer};
use crate::layers;
use depcase::confidence::acarp::AcarpPlan;
use depcase::confidence::WorstCaseBound;
use depcase::distributions::LogNormal;
use depcase::sil::{DemandMode, SilAssessment};
use std::time::{Duration, Instant};

/// Judgements in the grid the sweep cycles over: 16 modes × 16 spreads
/// × 64 demand counts. Each judgement is drawn inside its own lattice
/// cell, so every seed sweeps the same mix of easy and hard judgements.
const GRID: usize = 16 * 16 * 64;
/// The claim every judgement is assessed against: pfd < 1e-2 (SIL2 in
/// low-demand mode).
const CLAIM: f64 = 1e-2;
/// Set-ups per run (about a millisecond each); `setup_s` and
/// `recovery_s` are medians over this many.
const SETUPS: usize = 201;

/// One elicited judgement: the assessor's mode and spread for the pfd,
/// and how many failure-free demands the system has seen.
#[derive(Clone)]
struct Judgement {
    belief: LogNormal,
    demands: u64,
}

/// What one assessment computes.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Assessment {
    sil: [f64; 4],
    decades: f64,
    bound: f64,
    after: f64,
}

fn grid(seed: u64) -> Vec<Judgement> {
    let mut rng = Rng::new(seed, 7);
    (0..GRID)
        .map(|cell| {
            let (m, s, d) = (cell % 16, cell / 16 % 16, cell / 256);
            let mode = 10f64.powf(-4.0 + 2.0 * (m as f64 + rng.unit()) / 16.0);
            let sigma = 0.5 + 1.5 * (s as f64 + rng.unit()) / 16.0;
            let demands = 100 + ((d as f64 + rng.unit()) * 4_900.0 / 64.0) as u64;
            Judgement {
                belief: LogNormal::from_mode_sigma(mode, sigma).expect("grid judgements are valid"),
                demands,
            }
        })
        .collect()
}

fn assess(j: &Judgement, t: Option<(&mut Tracer, u64)>) -> Assessment {
    let sil = |b: &LogNormal| SilAssessment::new(b, DemandMode::LowDemand).confidences();
    let decades = |b: &LogNormal| b.mean_mode_decades();
    let bound = |doubt: f64| WorstCaseBound::bound(doubt, CLAIM).expect("probabilities in range");
    let after = |b: &LogNormal, n: u64| {
        AcarpPlan::new(b, CLAIM).confidence_after(n).expect("posterior is well formed")
    };
    match t {
        None => {
            let s = sil(&j.belief);
            Assessment {
                sil: s,
                decades: decades(&j.belief),
                bound: bound(1.0 - s[1]),
                after: after(&j.belief, j.demands),
            }
        }
        Some((tracer, id)) => {
            let (a, _) = tracer.span("assess", None, id, |t, p| {
                let (s, _) = t.leaf("sil.confidences", p, id, || sil(&j.belief));
                let (d, _) = t.leaf("distributions.mean_mode", p, id, || decades(&j.belief));
                let (b, _) = t.leaf("core.worst_case_bound", p, id, || bound(1.0 - s[1]));
                let (a, _) = t.leaf("core.acarp_confidence", p, id, || after(&j.belief, j.demands));
                Assessment { sil: s, decades: d, bound: b, after: a }
            });
            a
        }
    }
}

/// The numerics, distributions, sil and core layers, probed over the
/// first 4096 judgements of the sweep's grid for `seed`.
pub fn probe_numerics(out: &mut Outcome, seed: u64) {
    let g = grid(seed);
    let beliefs: Vec<LogNormal> = g.iter().take(4096).map(|j| j.belief).collect();
    let demands: Vec<u64> = g.iter().take(4096).map(|j| j.demands).collect();
    layers::numerics(out, &beliefs, &demands);
}

/// The answer check: the paper's own anchors, and invariants every
/// assessment must satisfy.
fn anchors_hold() -> bool {
    let required = WorstCaseBound::required_confidence(1e-3, 1e-4).expect("anchor inputs valid");
    let sigma = LogNormal::sigma_for_decades(1.0).expect("anchor inputs valid");
    let decade = LogNormal::from_mode_sigma(0.003, sigma).expect("anchor inputs valid");
    (required - 0.9991).abs() < 1e-4
        && (sigma - 1.2389).abs() < 1e-3
        && (decade.mean_mode_decades() - 1.0).abs() < 1e-12
}

fn plausible(a: &Assessment, j: &Judgement) -> bool {
    let doubt = 1.0 - a.sil[1];
    a.sil.iter().all(|c| (0.0..=1.0).contains(c))
        && a.sil.windows(2).all(|w| w[0] >= w[1])
        && (a.bound - (doubt + CLAIM - doubt * CLAIM)).abs() < 1e-15
        && a.after >= a.sil[1] - 1e-9
        && a.after <= 1.0 + 1e-12
        && (a.decades - 1.5 * j.belief.sigma().powi(2) / std::f64::consts::LN_10).abs() < 1e-9
}

fn same_bits(a: &Assessment, b: &Assessment) -> bool {
    a.sil.iter().zip(b.sil).all(|(x, y)| x.to_bits() == y.to_bits())
        && a.decades.to_bits() == b.decades.to_bits()
        && a.bound.to_bits() == b.bound.to_bits()
        && a.after.to_bits() == b.after.to_bits()
}

/// What a sweep produced: per-op latencies, the first answer for each
/// judgement, and how many later answers differed from it.
struct Swept {
    latencies: Vec<f64>,
    /// When each op finished, seconds into the sweep.
    at_s: Vec<f64>,
    first: Vec<Option<Assessment>>,
    repeats_differing: u64,
    ops: u64,
    seconds: f64,
}

/// The timed closed loop: assess judgements round-robin for `seconds`.
/// Answers are kept once per judgement (memory stays flat however fast
/// the sweep runs); a repeat must match the kept answer bit for bit.
fn sweep(grid: &[Judgement], seconds: f64, mut tracer: Option<&mut Tracer>) -> Swept {
    let mut s = Swept {
        latencies: Vec::new(),
        at_s: Vec::new(),
        first: vec![None; grid.len()],
        repeats_differing: 0,
        ops: 0,
        seconds: 0.0,
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let idx = (s.ops % grid.len() as u64) as usize;
        let t0 = Instant::now();
        let a = assess(&grid[idx], tracer.as_deref_mut().map(|t| (t, s.ops)));
        s.latencies.push(micros(t0));
        s.at_s.push(started.elapsed().as_secs_f64());
        match &s.first[idx] {
            Some(kept) => s.repeats_differing += u64::from(!same_bits(kept, &a)),
            None => s.first[idx] = Some(a),
        }
        s.ops += 1;
    }
    s.seconds = started.elapsed().as_secs_f64();
    s
}

/// Checks every answer outside the timed window: a fresh assessment of
/// each judgement swept must be bit-identical to the kept answer and
/// plausible, and no repeat may have differed.
fn check(out: &mut Outcome, grid: &[Judgement], swept: &Swept) {
    let mut answered = 0u64;
    for (j, kept) in grid.iter().zip(&swept.first) {
        if let Some(a) = kept {
            answered += 1;
            out.check(same_bits(&assess(j, None), a) && plausible(a, j));
        }
    }
    // Repeats were compared in the loop; count them as checked answers.
    out.attempted += swept.ops - answered;
    out.failed += swept.repeats_differing;
}

/// Builds the grid, then answers its first judgement: one set-up.
fn set_up(seed: u64) -> (Vec<Judgement>, f64, bool) {
    let t0 = Instant::now();
    let g = grid(seed);
    let first = assess(&g[0], None);
    let s = t0.elapsed().as_secs_f64();
    let ok = plausible(&first, &g[0]);
    (g, s, ok)
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &std::path::Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.note("load", "the library in process, one thread, closed loop");
    out.note(
        "grid",
        format!("{GRID} judgements (mode 1e-4..1e-2, sigma 0.5..2, 100..5000 demands)"),
    );
    let anchors = anchors_hold();
    out.check(anchors);
    if !anchors {
        return Err("paper anchors (0.9991, one decade at sigma 1.24) do not hold".into());
    }
    if trace {
        let (g, _, _) = set_up(seed);
        let untraced = sweep(&g, seconds / 2.0, None);
        let mut tracer = Tracer::new();
        let traced = sweep(&g, seconds / 2.0, Some(&mut tracer));
        check(&mut out, &g, &traced);
        let lat = &traced.latencies;
        let spans = |name: &str| mean(&tracer.durations(name));
        let parts: f64 = [
            "sil.confidences",
            "distributions.mean_mode",
            "core.worst_case_bound",
            "core.acarp_confidence",
        ]
        .iter()
        .map(|n| spans(n))
        .sum();
        out.push("trace.coverage", parts / mean(lat), "ratio", lat.len());
        let rate = |s: &Swept| s.ops as f64 / s.seconds;
        out.push("trace.overhead", rate(&untraced) / rate(&traced), "ratio", traced.ops as usize);
        probe_numerics(&mut out, seed);
        tracer
            .write_chrome(&out_dir.join(format!("trace-paper_sweep-{seed}.json")))
            .map_err(|e| e.to_string())?;
        return Ok(out);
    }
    let mut setups = Vec::new();
    let mut grid_used = Vec::new();
    for _ in 0..SETUPS {
        let (g, s, ok) = set_up(seed);
        out.check(ok);
        setups.push(s);
        grid_used = g;
    }
    // A restart of an in-process library is a rebuild of its state:
    // `recovery_s` times rebuild-to-first-correct-answer, separately
    // from the set-ups above.
    let mut recoveries = Vec::new();
    for _ in 0..SETUPS {
        let (_, s, ok) = set_up(seed);
        out.check(ok);
        recoveries.push(s);
    }
    // The library's state, the grid, is in place now. Peak RSS is read
    // here so the sweep's timing buffers, which grow with the op count,
    // stay out of it.
    let resident = vm_hwm_mb("self");
    let swept = sweep(&grid_used, seconds, None);
    check(&mut out, &grid_used, &swept);
    out.push("setup_s", median(&setups), "s", setups.len());
    let ops = swept.at_s.iter().zip(&swept.latencies).map(|(at, us)| (*at, *us, true));
    push_windowed(&mut out, swept.seconds, ops);
    out.push("resident_mb", resident, "MB", 1);
    out.push("recovery_s", median(&recoveries), "s", recoveries.len());
    Ok(out)
}
