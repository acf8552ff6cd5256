//! `perfbench`: runs one workload of the product benchmark and prints
//! its result as the last line of stdout. `run.py` builds the shipped
//! binaries and this tool, then calls
//!
//! ```text
//! perfbench BIN_DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `cli_minimize`, `cli_prune`, `daemon_revisions`. See
//! NOTES.md for what each measures and why.

mod check;
mod cli;
mod daemon;
mod gen;
mod layers;
mod report;

use eco_core::{Phase, SupportMethod};
use layers::{Traced, KINDS};
use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// One benchmark run's settings.
pub struct Run {
    /// Directory holding `eco_patch` and `eco_patchd`.
    pub bin_dir: PathBuf,
    /// Scratch directory of this workload.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The end-to-end metrics every workload reports. An operation is one
/// CLI invocation or one daemon request; NOTES.md defines each metric
/// per workload.
pub struct EndToEnd {
    pub setup_s: f64,
    pub wall_s: f64,
    pub rps: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub instance_ms_geomean: f64,
    pub total_cost: u64,
    pub patch_gates: u64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn emit(&self, o: &mut Outcome) {
        o.metric("setup_s", self.setup_s, "s");
        o.metric("wall_s", self.wall_s, "s");
        o.metric("rps", self.rps, "1/s");
        o.metric("latency_p50_ms", self.latency_p50_ms, "ms");
        o.metric("latency_p99_ms", self.latency_p99_ms, "ms");
        o.metric("instance_ms_geomean", self.instance_ms_geomean, "ms");
        o.metric("total_cost", self.total_cost as f64, "weight");
        o.metric("patch_gates", self.patch_gates as f64, "gates");
        o.metric("peak_rss_mb", self.peak_rss_mb, "MiB");
    }
}

/// The daemon-only per-layer metrics; zero on the CLI workloads, which
/// have no daemon stages or caches.
#[derive(Default)]
pub struct DaemonLayers {
    pub admission_us: f64,
    pub queue_wait_us: f64,
    pub parse_us: f64,
    pub solve_us: f64,
    pub serialize_us: f64,
    pub write_us: f64,
    pub rtt_us: f64,
    pub netlist_hit_ratio: f64,
    pub outcome_hit_ratio: f64,
    pub window_hit_ratio: f64,
    pub cnf_hit_ratio: f64,
    pub target_hit_ratio: f64,
    pub outcome_misses_per_unique: f64,
    pub divergent_answers: f64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Emits every per-layer metric: library layers summed over the traced
/// instances, the daemon's layers, and the tracing overhead.
pub fn per_layer(o: &mut Outcome, traced: &[Traced], d: &DaemonLayers, overhead_s: f64) {
    let sum = |f: &dyn Fn(&Traced) -> Duration| us(traced.iter().map(f).sum());
    let count = |f: &dyn Fn(&Traced) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let phase = |p: Phase| {
        let i = Phase::ALL.iter().position(|&q| q == p).expect("listed");
        sum(&|t| t.events.phase[i])
    };
    o.metric("netlist.parse_us", sum(&|t| t.parse), "us");
    o.metric("netlist.to_aig_us", sum(&|t| t.to_aig), "us");
    o.metric("netlist.emit_us", sum(&|t| t.emit), "us");
    o.metric("problem.build_us", sum(&|t| t.build), "us");
    o.metric("engine.solve_us", sum(&|t| t.solve), "us");
    o.metric("engine.qbf_us", phase(Phase::SufficiencyCheck), "us");
    o.metric("engine.window_us", phase(Phase::Windowing), "us");
    o.metric("engine.patch_us", phase(Phase::PatchGeneration), "us");
    o.metric("engine.verify_us", phase(Phase::Verification), "us");
    let target_max = traced.iter().map(|t| t.events.target_max).max();
    o.metric(
        "engine.target_max_us",
        us(target_max.unwrap_or_default()),
        "us",
    );
    for (k, kind) in KINDS.iter().enumerate() {
        o.metric(
            format!("sat.{kind}.calls"),
            count(&|t| t.events.kinds[k].calls),
            "count",
        );
        o.metric(
            format!("sat.{kind}.conflicts"),
            count(&|t| t.events.kinds[k].conflicts),
            "count",
        );
        o.metric(
            format!("sat.{kind}.us"),
            sum(&|t| t.events.kinds[k].time),
            "us",
        );
    }
    let reported = count(&|t| t.reported_calls);
    let observed = count(&|t| t.events.observed_calls);
    o.metric("sat.reported_calls", reported, "count");
    o.metric("sat.observed_calls", observed, "count");
    o.metric("oracle.saved_calls", reported - observed, "count");
    o.metric(
        "qbf.refinements",
        count(&|t| t.events.qbf_refinements),
        "count",
    );
    o.metric("support.steps", count(&|t| t.events.support_steps), "count");
    o.metric(
        "cegar_min.rounds",
        count(&|t| t.events.cegar_min_rounds),
        "count",
    );
    o.metric("ladder.steps", count(&|t| t.events.ladder_steps), "count");
    o.metric(
        "structural.fallbacks",
        count(&|t| t.events.structural_fallbacks),
        "count",
    );
    for (name, value) in [
        ("daemon.admission_us", d.admission_us),
        ("daemon.queue_wait_us", d.queue_wait_us),
        ("daemon.parse_us", d.parse_us),
        ("daemon.solve_us", d.solve_us),
        ("daemon.serialize_us", d.serialize_us),
        ("daemon.write_us", d.write_us),
        ("client.rtt_us", d.rtt_us),
    ] {
        o.metric(name, value, "us");
    }
    for (name, value) in [
        ("daemon.netlist_hit_ratio", d.netlist_hit_ratio),
        ("daemon.outcome_hit_ratio", d.outcome_hit_ratio),
        ("cache.window_hit_ratio", d.window_hit_ratio),
        ("cache.cnf_hit_ratio", d.cnf_hit_ratio),
        ("cache.target_hit_ratio", d.target_hit_ratio),
        (
            "daemon.outcome_misses_per_unique",
            d.outcome_misses_per_unique,
        ),
    ] {
        o.metric(name, value, "ratio");
    }
    o.metric("daemon.divergent_answers", d.divergent_answers, "count");
    o.metric("trace.overhead_s", overhead_s, "s");
}

fn parse_args(args: &[String]) -> Result<(Run, String), String> {
    let usage = "usage: perfbench BIN_DIR --workload NAME --seed N --seconds S --trace 0|1";
    let bin_dir = PathBuf::from(args.first().ok_or(usage)?);
    let mut flags: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    for pair in args[1..].chunks(2) {
        match pair {
            [k, v] => flags.insert(k.as_str(), v.as_str()),
            _ => return Err(usage.to_string()),
        };
    }
    let flag = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("{k} missing; {usage}"))
    };
    let num = |k: &str| -> Result<f64, String> {
        flag(k)?
            .parse::<f64>()
            .map_err(|_| format!("{k} expects a number"))
    };
    let workload = flag("--workload")?.to_string();
    let seed = flag("--seed")?
        .parse::<u64>()
        .map_err(|_| "--seed expects a non-negative integer".to_string())?;
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace expects 0 or 1".to_string()),
    };
    let run = Run {
        bin_dir,
        work: PathBuf::from(".bench_work").join(&workload),
        seed,
        seconds: num("--seconds")?,
        trace,
    };
    Ok((run, workload))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|(run, workload)| {
        let _ = std::fs::remove_dir_all(&run.work);
        std::fs::create_dir_all(&run.work).map_err(|e| e.to_string())?;
        let outcome = match workload.as_str() {
            "cli_minimize" => cli::run(&run, SupportMethod::MinimizeAssumptions, 0.04),
            "cli_prune" => cli::run(&run, SupportMethod::SatPrune, 0.02),
            "daemon_revisions" => daemon::run(&run),
            other => Err(format!("unknown workload {other:?}")),
        };
        let _ = std::fs::remove_dir_all(&run.work);
        let _ = std::fs::remove_dir(".bench_work");
        outcome
    });
    match result {
        Ok(o) => {
            for p in o.problems.iter().take(20) {
                eprintln!("perfbench: {p}");
            }
            eprintln!(
                "perfbench: failed_share {} ({} of {} attempted)",
                o.failed as f64 / o.attempted.max(1) as f64,
                o.failed,
                o.attempted
            );
            println!("{}", o.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
