//! The CLI workloads: `eco_patch` at its defaults, one process per
//! unit, units run sequentially.

use crate::check;
use crate::layers::{self, Instance, Traced};
use crate::report::{geomean, median, quantile, Outcome};
use crate::{EndToEnd, Run};
use eco_core::SupportMethod;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Untimed warm-up invocations on unit1 before each pass. Their median
/// is `setup_s`; spreading them over the run keeps a burst of noise on
/// the host from deciding it.
const WARMUPS_PER_PASS: usize = 8;

/// One CLI invocation's result.
struct Invocation {
    time: Duration,
    /// `(cost, patch_gates)` from the `solved:` line, when verified.
    solved: Option<(u64, u64)>,
    error: Option<String>,
}

fn invoke(bin: &Path, unit: &Path, out: &Path, method: Option<&str>) -> Invocation {
    // A fresh path: overwriting the previous run's file makes ext4
    // flush it on close, which costs tens of ms (see NOTES.md).
    let _ = std::fs::remove_file(out);
    let mut cmd = Command::new(bin);
    cmd.arg("--impl")
        .arg(unit.join("F.v"))
        .arg("--spec")
        .arg(unit.join("G.v"))
        .arg("--weights")
        .arg(unit.join("weights.txt"))
        .arg("--out")
        .arg(out);
    if let Some(m) = method {
        cmd.args(["--method", m]);
    }
    cmd.stdin(Stdio::null()).stdout(Stdio::null());
    let start = Instant::now();
    let output = cmd.output();
    let time = start.elapsed();
    let fail = |e: String| Invocation {
        time,
        solved: None,
        error: Some(e),
    };
    let output = match output {
        Ok(o) => o,
        Err(e) => return fail(format!("cannot run {}: {e}", bin.display())),
    };
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        return fail(format!("{}: {} {stderr}", unit.display(), output.status));
    }
    let field = |line: &str, key: &str| -> Option<u64> {
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .and_then(|v| v.parse().ok())
    };
    match stderr.lines().find(|l| l.starts_with("solved:")) {
        Some(l) if l.contains("verified=true") => Invocation {
            time,
            solved: field(l, "cost=").zip(field(l, "patch_gates=")),
            error: None,
        },
        _ => fail(format!("{}: not verified: {stderr}", unit.display())),
    }
}

/// Largest resident set of any waited-for child, in KiB.
fn children_max_rss_kib() -> u64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the layout of `struct rusage` on 64-bit
    // Linux (two `timeval`s, then fourteen `long`s), and the pointer is
    // to a live, writable value for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        u64::try_from(usage.maxrss).unwrap_or(0)
    } else {
        0
    }
}

/// Runs a CLI workload: setup, timed passes for `run.seconds`, the
/// output check, and with `run.trace` the traced run.
pub fn run(run: &Run, method: SupportMethod, scale: f64) -> Result<Outcome, String> {
    let bin = run.bin_dir.join("eco_patch");
    let units_dir = run.work.join("units");
    crate::gen::write_units(&units_dir, scale, run.seed).map_err(|e| e.to_string())?;
    let flag = match method {
        SupportMethod::SatPrune => Some("prune"),
        _ => None,
    };
    let units: Vec<(String, PathBuf)> = (1..=20)
        .map(|i| (format!("unit{i}"), units_dir.join(format!("unit{i}"))))
        .collect();
    let out_dir = run.work.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let out_of = |name: &str| out_dir.join(format!("{name}.v"));
    let mut o = Outcome {
        correct: true,
        ..Outcome::default()
    };

    let warmup = || {
        invoke(&bin, &units[0].1, &out_of("warmup"), flag)
            .time
            .as_secs_f64()
    };
    // The run's first start pays for cold file caches, which a user
    // does not pay on every invocation.
    warmup();
    let mut warmups: Vec<f64> = Vec::new();
    let start = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    let mut per_unit: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    let mut solved: Vec<Option<(u64, u64)>> = vec![None; units.len()];
    loop {
        warmups.extend((0..WARMUPS_PER_PASS).map(|_| warmup()));
        let pass = Instant::now();
        for (i, (name, dir)) in units.iter().enumerate() {
            let inv = invoke(&bin, dir, &out_of(name), flag);
            per_unit[i].push(inv.time.as_secs_f64() * 1e3);
            o.attempted += 1;
            if let Some(e) = inv.error {
                o.failed += 1;
                o.problem(e);
            }
            if solved[i].is_some() && solved[i] != inv.solved {
                o.problem(format!("{name}: cost/gates changed between passes"));
            }
            solved[i] = inv.solved;
        }
        walls.push(pass.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + median(&walls) > run.seconds {
            break;
        }
    }
    let setup_s = median(&warmups);
    let peak_rss_mb = children_max_rss_kib() as f64 / 1024.0;

    // Output check, untimed.
    for (i, (name, dir)) in units.iter().enumerate() {
        let read = |p: PathBuf| std::fs::read_to_string(&p).unwrap_or_default();
        let (patched, spec) = (read(out_of(name)), read(dir.join("G.v")));
        if let Err(e) = check::check(&patched, &spec, run.seed) {
            o.failed += 1;
            o.problem(format!("{name}: output check: {e}"));
        }
        if i + 1 == units.len() {
            if let Err(e) = check::self_test(&patched, &spec, run.seed) {
                o.problem(format!("output check self-test on {name}: {e}"));
            }
        }
    }

    let wall_s = median(&walls);
    let total_cost: u64 = solved.iter().flatten().map(|s| s.0).sum();
    let patch_gates: u64 = solved.iter().flatten().map(|s| s.1).sum();
    eprintln!("perfbench: {} passes, pass walls {walls:?} s", walls.len());
    if run.trace {
        let instances: Vec<Instance> = units
            .iter()
            .map(|(name, dir)| {
                let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap_or_default();
                Instance {
                    name: name.clone(),
                    impl_text: read("F.v"),
                    spec_text: read("G.v"),
                    weights_text: read("weights.txt"),
                }
            })
            .collect();
        let options = layers::traced_options(method);
        if format!("{options:?}") != format!("{:?}", layers::cli_options(method)) {
            o.problem("traced options differ from the CLI's");
        }
        let mut traced: Vec<Traced> = Vec::new();
        for (inst, cli) in instances.iter().zip(&solved) {
            let t = layers::trace(inst, &options, true)?;
            if Some((t.cost, t.gates)) != *cli {
                o.problem(format!(
                    "{}: traced cost/gates {:?} differ from the CLI's {cli:?}",
                    inst.name,
                    (t.cost, t.gates)
                ));
            }
            for p in layers::consistency(&inst.name, &t) {
                o.problem(p);
            }
            traced.push(t);
        }
        let traced_total: f64 = traced.iter().map(|t| t.total.as_secs_f64()).sum();
        crate::per_layer(
            &mut o,
            &traced,
            &crate::DaemonLayers::default(),
            traced_total - wall_s,
        );
    } else {
        // Each unit's median first: a median over raw invocations sits
        // between units' modes, where host noise moves it most.
        let unit_ms: Vec<f64> = per_unit.iter().map(|v| median(v)).collect();
        EndToEnd {
            setup_s,
            wall_s,
            rps: median(
                &walls
                    .iter()
                    .map(|w| units.len() as f64 / w)
                    .collect::<Vec<_>>(),
            ),
            latency_p50_ms: median(&unit_ms),
            latency_p99_ms: quantile(&per_unit.concat(), 0.99),
            instance_ms_geomean: geomean(&unit_ms),
            total_cost,
            patch_gates,
            peak_rss_mb,
        }
        .emit(&mut o);
    }
    Ok(o)
}
