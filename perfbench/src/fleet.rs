//! `fleet_read`: 20k template-stamped tenants behind a 1024-entry plan
//! cache, read by zipf rank. The working set is far larger than the
//! cache, so a large share of evals unpack, compile and memo-hit a case;
//! the transport and protocol carry the rest of the round trip.

use crate::common::{median, vm_hwm_mb, Outcome, Rng, Tracer, Zipf};
use crate::layers;
use crate::server::Server;
use crate::service::{self, closed_loop, no_more, no_pause, Op, Phase, Workload};
use depcase::assurance::{templates, Case};
use depcase_service::{Engine, EngineConfig};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

const TENANTS: usize = 20_000;
const CACHE: usize = 1024;
const WARMUP: usize = 4096;
/// Each set-up loads all 20k tenants (≈10 s here), so two, not more.
const SETUPS: usize = 2;
/// In-memory restarts take milliseconds, so many.
const RESTARTS: usize = 31;

/// Tenant `i` has zipf rank `i` and template `i % 10`, so every seed
/// puts the same mix of case shapes at each popularity; the seed picks
/// the stamped leaf values, the load order and the request stream.
pub struct Fleet {
    seed: u64,
    /// Load lines by tenant.
    by_tenant: Vec<String>,
    /// The same lines in the seeded order they are sent.
    loads: Vec<String>,
    zipf: Zipf,
    rng: Rng,
    reference: HashMap<usize, u64>,
}

fn variant(seed: u64, tenant: usize) -> (usize, u64) {
    (tenant % templates::TEMPLATE_COUNT, (seed << 24) | tenant as u64)
}

fn case_of(seed: u64, tenant: usize) -> Case {
    let (t, v) = variant(seed, tenant);
    templates::stamp(t, v)
}

impl Fleet {
    pub fn new(seed: u64) -> Fleet {
        let by_tenant: Vec<String> = (0..TENANTS)
            .map(|i| {
                let doc =
                    serde_json::to_string(&case_of(seed, i)).expect("stamped cases serialize");
                format!(r#"{{"id":{i},"op":"load","name":"f{i}","case":{doc}}}"#)
            })
            .collect();
        let mut loads = by_tenant.clone();
        Rng::new(seed, 1).shuffle(&mut loads);
        Fleet {
            seed,
            by_tenant,
            loads,
            zipf: Zipf::new(TENANTS),
            rng: Rng::new(seed, 4),
            reference: HashMap::new(),
        }
    }

    fn eval_line(&self, id: u64, tenant: usize) -> String {
        format!(r#"{{"id":{id},"op":"eval","name":"f{tenant}"}}"#)
    }

    /// Root confidence bits of `Case::propagate` on the tenant's case.
    fn expected(&mut self, tenant: usize) -> u64 {
        let seed = self.seed;
        *self.reference.entry(tenant).or_insert_with(|| {
            let report = case_of(seed, tenant).propagate().expect("stamped cases propagate");
            report.top().expect("stamped cases have one root").independent.to_bits()
        })
    }
}

impl Workload for Fleet {
    fn flags(&self) -> Vec<String> {
        vec!["--cache".into(), CACHE.to_string()]
    }

    fn loads(&self) -> &[String] {
        &self.loads
    }

    fn warmup(&self) -> Vec<String> {
        let mut rng = Rng::new(self.seed, 3);
        (0..WARMUP).map(|i| self.eval_line(i as u64, self.zipf.rank(&mut rng))).collect()
    }

    fn op(&mut self, i: u64) -> Op {
        let tenant = self.zipf.rank(&mut self.rng);
        Op { line: self.eval_line(i, tenant), class: 0, key: tenant as u64 }
    }

    fn field(&self) -> &'static str {
        "root_confidence"
    }

    fn check(&mut self, out: &mut Outcome, phase: &Phase) {
        for &(tenant, _, value, ok) in &phase.answers {
            let want = self.expected(tenant as usize);
            out.check(ok && value.map(f64::to_bits) == Some(want));
        }
    }

    fn engine(&self, _scratch: &Path) -> Result<Engine, String> {
        Ok(Engine::with_config(&EngineConfig::new(CACHE)))
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
    let mut w = Fleet::new(seed);
    out.note(
        "load",
        "zipf(s=1) evals over stamped tenants; one process, one TCP connection, closed loop",
    );
    out.note("tenants", TENANTS);
    out.note("server_flags", w.flags().join(" "));
    if trace {
        let mut tracer = Tracer::new();
        let t = service::traced_run(binary, &mut w, seconds, out_dir, &mut out, &mut tracer)?;
        drop(t.engine);
        let mut rng = Rng::new(seed, 9);
        let sample: Vec<Case> = (0..256).map(|_| case_of(seed, rng.below(TENANTS))).collect();
        layers::case_layers(&mut out, &sample, seed, false);
        // The sampler and the numeric layers are on no measured
        // workload's path; they are probed here so the benchmark's traced
        // runs still cover them.
        layers::mc_probe(&mut out, &sample, seed);
        crate::paper::probe_numerics(&mut out, seed);
        write_trace(&tracer, out_dir, "fleet_read", seed)?;
        return Ok(out);
    }
    let (mut server, setups) = service::set_up_median(binary, &w, SETUPS)?;
    let phase = closed_loop(
        &mut server,
        seconds,
        0,
        &mut |i| w.op(i),
        "root_confidence",
        None,
        false,
        &mut no_pause,
        &no_more,
    )?;
    let resident = vm_hwm_mb(&server.pid());
    server.stop()?;
    w.check(&mut out, &phase);
    let recoveries = restarts(binary, &mut w, &mut out)?;
    service::push_end_to_end(&mut out, &setups, &phase, resident);
    out.push("recovery_s", median(&recoveries), "s", recoveries.len());
    Ok(out)
}

/// An in-memory server restarts empty: recovery is relaunch, reload of
/// the tenant asked for, and its first correct eval.
fn restarts(binary: &Path, w: &mut Fleet, out: &mut Outcome) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    for r in 0..RESTARTS {
        let tenant = r;
        let t0 = Instant::now();
        let mut server = Server::start(binary, &w.flags())?;
        let loaded = server.call(&w.by_tenant[tenant])?;
        let reply = server.call(&w.eval_line(1, tenant))?;
        times.push(t0.elapsed().as_secs_f64());
        server.stop()?;
        let value = crate::server::f64_field(&reply, "root_confidence");
        let want = w.expected(tenant);
        out.check(crate::server::is_ok(&loaded) && value.map(f64::to_bits) == Some(want));
    }
    Ok(times)
}

pub fn write_trace(
    tracer: &Tracer,
    out_dir: &Path,
    workload: &str,
    seed: u64,
) -> Result<(), String> {
    let path = out_dir.join(format!("trace-{workload}-{seed}.json"));
    tracer.write_chrome(&path).map_err(|e| format!("writing {}: {e}", path.display()))
}
