//! `depbench`: the depcase end-to-end benchmark.
//!
//! ```text
//! depbench --workload NAME --seed N --seconds S --trace 0|1
//!          --server PATH/TO/case_tool --out-dir DIR
//! ```
//!
//! Workloads: `fleet_read`, `durable_edits`, `mc_crosscheck` (each
//! against a `case_tool serve` process over one TCP connection, closed
//! loop) and `paper_sweep` (the library in process). Every input comes
//! from `--seed`; every answer is checked against the library outside
//! the timed window. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` replays the same inputs layer by layer and reports the
//! per-layer metrics, writing its spans as Chrome trace-event JSON to
//! `DIR/trace-<workload>-<seed>.json`. The last stdout line is the
//! result object; a wrong answer makes the exit code 1.

mod common;
mod durable;
mod fleet;
mod layers;
mod mc;
mod paper;
mod server;
mod service;

use common::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics, in output order, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("correct_ratio", "ratio"),
    ("resident_mb", "MB"),
    ("recovery_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut server, mut out_dir) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| "--seconds needs a number")?)
            }
            "--trace" => trace = Some(value == "1"),
            "--server" => server = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds needs a positive number")?,
        trace: trace.unwrap_or(false),
        server: server.ok_or("--server is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Where and how the numbers were made.
fn provenance(args: &Args) -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("nproc".into(), std::thread::available_parallelism().map_or(1, |n| n.get()).to_string()),
        ("cpu".into(), cpu),
        ("build_profile".into(), if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ("rustc".into(), command_output("rustc", &["--version"])),
        // Only a `.git` in the working directory counts: a checkout
        // without one reports "unknown" rather than an enclosing repo's rev.
        (
            "git_rev".into(),
            command_output("git", &["--git-dir=.git", "rev-parse", "--short", "HEAD"]),
        ),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let (bin, seed, secs, trace, dir) =
        (&args.server, args.seed, args.seconds, args.trace, args.out_dir.as_path());
    // One request is in flight at a time on these workloads, so one core
    // serves client and server alike; `mc_crosscheck` samples on every
    // core and stays unpinned.
    if args.workload != "mc_crosscheck" {
        if let Some(cpu) = common::pin_to_one_cpu() {
            eprintln!("depbench: pinned to cpu {cpu}");
        }
    }
    match args.workload.as_str() {
        "fleet_read" => fleet::run(bin, seed, secs, trace, dir),
        "durable_edits" => durable::run(bin, seed, secs, trace, dir),
        "mc_crosscheck" => mc::run(bin, seed, secs, trace, dir),
        "paper_sweep" => paper::run(seed, secs, trace, dir),
        other => Err(format!(
            "unknown workload {other} (fleet_read, durable_edits, mc_crosscheck, paper_sweep)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("depbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Read before `run` may pin this process to one CPU.
    let mut context = provenance(&args);
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("depbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let attempted = outcome.attempted.max(1);
    let correct_share = (attempted - outcome.failed) as f64 / attempted as f64;
    outcome.push("correct_ratio", correct_share, "ratio", attempted as usize);
    let wanted: Vec<(&str, &str)> =
        if args.trace { layers::PER_LAYER.to_vec() } else { END_TO_END.to_vec() };
    let mut rows = Vec::new();
    for (name, unit) in wanted {
        let found = outcome.metrics.iter().find(|m| m.name == name);
        let (value, unit, samples) = found.map_or((0.0, unit, 0), |m| (m.value, m.unit, m.samples));
        if !value.is_finite() {
            eprintln!("depbench: metric {name} is not finite ({value})");
            return ExitCode::from(2);
        }
        rows.push((name, value, unit, samples));
    }
    println!("{:<32} {:>16} {:<6} {:>9}", "metric", "value", "unit", "samples");
    for (name, value, unit, samples) in &rows {
        println!("{name:<32} {value:>16.4} {unit:<6} {samples:>9}");
    }
    context.extend(outcome.notes.iter().cloned());
    let context: Vec<String> =
        context.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    let samples: Vec<String> =
        rows.iter().map(|(n, _, _, s)| format!("{}:{s}", json_str(n))).collect();
    println!("{{\"provenance\":{{{}}},\"samples\":{{{}}}}}", context.join(","), samples.join(","));
    let metrics: Vec<String> = rows
        .iter()
        .map(|(n, v, u, _)| format!("{}:{{\"value\":{v},\"unit\":{}}}", json_str(n), json_str(u)))
        .collect();
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
