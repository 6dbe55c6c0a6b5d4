//! `mc_crosscheck`: Monte-Carlo requests cycling over the ten base
//! templates at 2^18 samples on every core, each with its own seed (so
//! no two requests coalesce). The sampler kernel does nearly all the
//! work; transport, cache and codec are negligible.

use crate::common::{mean, median, vm_hwm_mb, Outcome, Rng, Tracer};
use crate::layers;
use crate::server::Server;
use crate::service::{self, closed_loop, no_more, no_pause, Op, Phase, Workload};
use depcase::assurance::{templates, Case, EvalPlan, MonteCarlo};
use depcase_service::{Engine, EngineConfig};
use std::path::Path;
use std::time::Instant;

const SAMPLES: u32 = 1 << 18;
/// Every this-many-th request is re-run in process for the check.
const CHECK_EVERY: u64 = 64;
/// Set-ups and in-memory restarts take milliseconds, so many.
const SETUPS: usize = 31;
const RESTARTS: usize = 31;

pub struct Mc {
    cases: Vec<Case>,
    plans: Vec<EvalPlan>,
    loads: Vec<String>,
    threads: usize,
    rng: Rng,
    /// `(template, seed)` of every op, by op index.
    requests: std::collections::HashMap<u64, (usize, u64)>,
}

impl Mc {
    pub fn new(seed: u64) -> Mc {
        let cases: Vec<Case> = (0..templates::TEMPLATE_COUNT).map(templates::template).collect();
        let plans =
            cases.iter().map(|c| EvalPlan::compile(c).expect("templates compile")).collect();
        let loads = cases
            .iter()
            .enumerate()
            .map(|(t, c)| {
                let doc = serde_json::to_string(c).expect("templates serialize");
                format!(r#"{{"id":{t},"op":"load","name":"t{t}","case":{doc}}}"#)
            })
            .collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Mc {
            cases,
            plans,
            loads,
            threads,
            rng: Rng::new(seed, 31),
            requests: std::collections::HashMap::new(),
        }
    }

    fn line(&self, id: u64, template: usize, seed: u64) -> String {
        format!(
            r#"{{"id":{id},"op":"mc","name":"t{template}","samples":{SAMPLES},"seed":{seed},"threads":{}}}"#,
            self.threads
        )
    }

    /// The root estimate `MonteCarlo::run_plan` gives in process.
    fn expected(&self, template: usize, seed: u64) -> u64 {
        let report = MonteCarlo::new(SAMPLES)
            .seed(seed)
            .threads(self.threads)
            .run_plan(&self.plans[template])
            .expect("templates sample");
        let root = self.cases[template].roots()[0];
        report.estimate(root).expect("the root is estimated").to_bits()
    }
}

impl Workload for Mc {
    fn flags(&self) -> Vec<String> {
        Vec::new()
    }

    fn loads(&self) -> &[String] {
        &self.loads
    }

    fn warmup(&self) -> Vec<String> {
        Vec::new()
    }

    fn op(&mut self, i: u64) -> Op {
        let template = (i % self.cases.len() as u64) as usize;
        let seed = self.rng.next_u64() >> 1;
        self.requests.insert(i, (template, seed));
        Op { line: self.line(i, template, seed), class: 0, key: i }
    }

    /// The first estimate in a reply is the root goal's.
    fn field(&self) -> &'static str {
        "estimate"
    }

    /// Every reply must be ok; every `CHECK_EVERY`-th must carry the
    /// in-process estimate bit for bit.
    fn check(&mut self, out: &mut Outcome, phase: &Phase) {
        for &(i, _, value, ok) in &phase.answers {
            let exact = if i % CHECK_EVERY == 0 {
                let (template, seed) = self.requests[&i];
                value.map(f64::to_bits) == Some(self.expected(template, seed))
            } else {
                value.is_some_and(|v| (0.0..=1.0).contains(&v))
            };
            out.check(ok && exact);
        }
    }

    fn engine(&self, _scratch: &Path) -> Result<Engine, String> {
        Ok(Engine::with_config(&EngineConfig::new(64)))
    }
}

pub fn run(
    binary: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut w = Mc::new(seed);
    out.note("load", "mc over the 10 base templates, a distinct seed per request; one TCP connection, closed loop");
    out.note("samples_per_request", SAMPLES);
    out.note("threads_per_request", w.threads);
    if trace {
        let mut tracer = Tracer::new();
        let t = service::traced_run(binary, &mut w, seconds, out_dir, &mut out, &mut tracer)?;
        drop(t.engine);
        // The sampler alone, on the same requests, against the wire
        // round trip that carried them.
        let mut kernel = Vec::new();
        for &(i, _, _, _) in t.traced.answers.iter().take(200) {
            let (template, s) = w.requests[&i];
            let runner = MonteCarlo::new(SAMPLES).seed(s).threads(w.threads);
            let (report, us) =
                tracer.leaf("mc.run_plan", None, i, || runner.run_plan(&w.plans[template]));
            report.map_err(|e| e.to_string())?;
            kernel.push(us);
        }
        out.push(
            "mc.samples_per_s",
            f64::from(SAMPLES) / (median(&kernel) / 1e6),
            "1/s",
            kernel.len(),
        );
        out.push(
            "mc.share_of_round_trip",
            mean(&kernel) / mean(&t.traced.all_us),
            "ratio",
            kernel.len(),
        );
        layers::case_layers(&mut out, &w.cases, seed, false);
        crate::fleet::write_trace(&tracer, out_dir, "mc_crosscheck", seed)?;
        return Ok(out);
    }
    let (mut server, setups) = service::set_up_median(binary, &w, SETUPS)?;
    let phase = closed_loop(
        &mut server,
        seconds,
        0,
        &mut |i| w.op(i),
        "estimate",
        None,
        false,
        &mut no_pause,
        &no_more,
    )?;
    let resident = vm_hwm_mb(&server.pid());
    server.stop()?;
    w.check(&mut out, &phase);
    // An in-memory server restarts empty: recovery is relaunch, reload
    // of one template, and its first correct eval.
    let mut recoveries = Vec::new();
    for r in 0..RESTARTS {
        let template = r % w.cases.len();
        let t0 = Instant::now();
        let mut server = Server::start(binary, &w.flags())?;
        let loaded = server.call(&w.loads[template])?;
        let reply = server.call(&format!(r#"{{"id":1,"op":"eval","name":"t{template}"}}"#))?;
        recoveries.push(t0.elapsed().as_secs_f64());
        server.stop()?;
        let want = w.cases[template].propagate().expect("templates propagate");
        let want = want.top().expect("templates have one root").independent.to_bits();
        let value = crate::server::f64_field(&reply, "root_confidence");
        out.check(crate::server::is_ok(&loaded) && value.map(f64::to_bits) == Some(want));
    }
    service::push_end_to_end(&mut out, &setups, &phase, resident);
    out.push("recovery_s", median(&recoveries), "s", recoveries.len());
    Ok(out)
}
