//! The `daemon_revisions` workload: one `eco_patchd --socket …
//! --workers 2` per pass, fed a revision stream by a closed-loop client
//! on one connection with two requests in flight (the daemon serves one
//! connection at a time, so concurrency comes from pipelining).

use crate::check;
use crate::gen::{self, Stream, StreamRequest};
use crate::layers::{self, Instance, Traced};
use crate::report::{geomean, median, quantile, Outcome};
use crate::{DaemonLayers, EndToEnd, Run};
use eco_core::json::{parse_json, JsonValue};
use eco_core::SupportMethod;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Requests per pass: enough that `latency_p99_ms` has 30 samples
/// beyond it.
pub const REQUESTS_PER_PASS: usize = 3000;

/// Requests kept in flight on the connection.
const IN_FLIGHT: usize = 2;

/// Extra daemon starts before each pass. With the pass's own start,
/// their median is `setup_s`; spreading them over the run keeps a burst
/// of noise on the host from deciding it.
const EXTRA_STARTS_PER_PASS: usize = 4;

/// What one pass measured.
struct Pass {
    wall: Duration,
    latencies_us: Vec<f64>,
    vm_hwm_kib: u64,
    scrape: JsonValue,
    stats: JsonValue,
}

struct Connection {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Connection {
    /// Reads one reply line into `line`, reusing its buffer.
    fn recv(&mut self, line: &mut String) -> Result<(), String> {
        line.clear();
        match self.reader.read_line(line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn control(&mut self, line: &str) -> Result<JsonValue, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        self.recv(&mut reply)?;
        parse_json(&reply).map_err(|e| e.to_string())
    }

    fn request(&mut self, stream: &Stream, r: StreamRequest, id: &str) -> Result<(), String> {
        stream
            .write_line(&mut self.writer, r, id)
            .map_err(|e| format!("send: {e}"))
    }
}

fn vm_hwm_kib(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Waits up to 10 s for the daemon to exit, then kills it.
fn reap(child: &mut Child) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("eco_patchd exited with {status}")),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("eco_patchd did not exit after shutdown".to_string());
            }
        }
    }
}

fn connect(socket: &Path, child: &mut Child) -> Result<Connection, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(socket) {
            Ok(s) => {
                let writer = s.try_clone().map_err(|e| e.to_string())?;
                return Ok(Connection {
                    writer,
                    reader: BufReader::with_capacity(1 << 16, s),
                });
            }
            Err(_) if Instant::now() < deadline => {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("eco_patchd exited during start: {status}"));
                }
                // Spin rather than sleep: a sleep's granularity would
                // swamp a start-up time of under a millisecond.
                std::thread::yield_now();
            }
            Err(e) => return Err(format!("cannot connect to eco_patchd: {e}")),
        }
    }
}

/// Starts `eco_patchd`, waits for its first `health` reply, runs
/// `session` on the connection and shuts the daemon down. Returns the
/// session's result and the time from spawn to the health reply.
fn with_daemon<T>(
    run: &Run,
    session: impl FnOnce(&mut Connection, &Child) -> Result<T, String>,
) -> Result<(T, Duration), String> {
    let socket = run.work.join("eco_patchd.sock");
    let _ = std::fs::remove_file(&socket);
    let log = std::fs::File::create(run.work.join("eco_patchd.log")).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut child = Command::new(run.bin_dir.join("eco_patchd"))
        .arg("--socket")
        .arg(&socket)
        .args(["--workers", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("cannot start eco_patchd: {e}"))?;
    let served = || {
        let mut conn = connect(&socket, &mut child)?;
        let health = conn.control("{\"id\":\"health\",\"cmd\":\"health\"}\n")?;
        let setup = start.elapsed();
        if health.get("status").and_then(JsonValue::as_str) != Some("ok") {
            return Err("health check failed".to_string());
        }
        let out = session(&mut conn, &child)?;
        conn.control("{\"id\":\"q\",\"cmd\":\"shutdown\"}\n")?;
        Ok((out, setup))
    };
    let result = served();
    if result.is_err() {
        let _ = child.kill();
    }
    let reaped = reap(&mut child);
    let out = result?;
    reaped?;
    Ok(out)
}

/// Sends the stream with `IN_FLIGHT` requests outstanding, then reads
/// the daemon's metrics, cache statistics and peak memory.
fn serve_stream(
    conn: &mut Connection,
    child: &Child,
    stream: &Stream,
    index: usize,
    answers: &mut Answers,
) -> Result<Pass, String> {
    let n = stream.requests.len();
    let mut sent_at: Vec<Option<Instant>> = vec![None; n];
    let mut latencies_us: Vec<f64> = Vec::with_capacity(n);
    let id_of = |i: usize| format!("p{index}r{i}");
    let streaming = Instant::now();
    let mut next = 0;
    while next < n.min(IN_FLIGHT) {
        sent_at[next] = Some(Instant::now());
        conn.request(stream, stream.requests[next], &id_of(next))?;
        next += 1;
    }
    let mut reply = String::with_capacity(1 << 18);
    for _ in 0..n {
        conn.recv(&mut reply)?;
        let received = Instant::now();
        if next < n {
            sent_at[next] = Some(Instant::now());
            conn.request(stream, stream.requests[next], &id_of(next))?;
            next += 1;
        }
        let i = reply
            .strip_prefix(&format!("{{\"id\":\"p{index}r"))
            .and_then(|r| r.split('"').next())
            .and_then(|i| i.parse::<usize>().ok())
            .filter(|&i| i < n && sent_at[i].is_some())
            .ok_or_else(|| format!("reply to an unknown request: {reply:.80}"))?;
        latencies_us.push((received - sent_at[i].expect("filtered")).as_secs_f64() * 1e6);
        answers.record(stream.requests[i], i, &reply);
    }
    let wall = streaming.elapsed();
    Ok(Pass {
        wall,
        latencies_us,
        scrape: conn.control("{\"id\":\"m\",\"cmd\":\"metrics\",\"format\":\"json\"}\n")?,
        stats: conn.control("{\"id\":\"s\",\"cmd\":\"stats\"}\n")?,
        vm_hwm_kib: vm_hwm_kib(child.id()),
    })
}

/// A distinct request's answer, as first seen.
struct Answer {
    /// `patched_verilog`, still JSON-escaped.
    patched: String,
    cost: u64,
    gates: u64,
}

/// The answers of a run, by distinct request, plus every failed reply.
#[derive(Default)]
struct Answers {
    /// Every distinct answer to each distinct request, first seen first.
    by_request: HashMap<StreamRequest, Vec<Answer>>,
    attempted: u64,
    /// Replies whose netlist differs from the first answer to the
    /// identical request.
    divergent: u64,
    failures: Vec<String>,
}

impl Answers {
    /// Checks one reply without a full parse (it runs while two
    /// requests are in flight): status and verification. Each distinct
    /// netlist is kept for the output check.
    fn record(&mut self, key: StreamRequest, index: usize, reply: &str) {
        self.attempted += 1;
        let a = match scan(reply) {
            Ok(a) => a,
            Err(e) => return self.failures.push(format!("request {index}: {e}")),
        };
        let seen = self.by_request.entry(key).or_default();
        if seen.first().is_some_and(|first| first.patched != a.patched) {
            self.divergent += 1;
        }
        if !seen.iter().any(|s| s.patched == a.patched) {
            seen.push(Answer {
                patched: a.patched.to_string(),
                cost: a.cost,
                gates: a.gates,
            });
        }
    }
}

struct Scanned<'a> {
    patched: &'a str,
    cost: u64,
    gates: u64,
}

/// Reads an ECO reply's fixed-order head (`status`, `verified`, `cost`,
/// `gates`) and slices out the escaped `patched_verilog`.
fn scan(reply: &str) -> Result<Scanned<'_>, String> {
    let bad = || format!("not a verified ok answer: {:.200}", reply);
    let head = reply
        .split_once("\",\"status\":\"ok\",\"verified\":true,\"cost\":")
        .ok_or_else(bad)?
        .1;
    let (cost, rest) = head.split_once(",\"gates\":").ok_or_else(bad)?;
    let gates = rest.split(',').next().ok_or_else(bad)?;
    let from =
        reply.find("\"patched_verilog\":\"").ok_or_else(bad)? + "\"patched_verilog\":\"".len();
    let to = reply
        .rfind("\",\"metrics\":")
        .filter(|&t| t >= from)
        .ok_or_else(bad)?;
    Ok(Scanned {
        patched: &reply[from..to],
        cost: cost.parse().map_err(|_| bad())?,
        gates: gates.parse().map_err(|_| bad())?,
    })
}

/// Unescapes a JSON string body.
fn unescape(escaped: &str) -> String {
    parse_json(&format!("\"{escaped}\""))
        .ok()
        .and_then(|v| v.as_str().map(str::to_string))
        .unwrap_or_default()
}

fn stage_p50_us(scrape: &JsonValue, stage: &str) -> f64 {
    scrape
        .get("metrics")
        .and_then(|m| m.get("stages"))
        .and_then(|s| s.get(stage))
        .and_then(|s| s.get("windows"))
        .and_then(|w| w.get("5m"))
        .and_then(|w| w.get("p50_us"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

fn hit_ratio(stats: &JsonValue, layer: &str) -> f64 {
    let stats = stats.get("stats");
    let get = |k: &str| {
        stats
            .and_then(|s| s.get(k).or_else(|| s.get("engine").and_then(|e| e.get(k))))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let (h, m) = (
        get(&format!("{layer}_hits")),
        get(&format!("{layer}_misses")),
    );
    if h + m > 0.0 {
        h / (h + m)
    } else {
        0.0
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let stream = gen::stream(run.seed, REQUESTS_PER_PASS);
    let mut o = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut answers = Answers::default();
    let mut setups: Vec<f64> = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        for _ in 0..EXTRA_STARTS_PER_PASS {
            setups.push(with_daemon(run, |_, _| Ok(()))?.1.as_secs_f64());
        }
        let (p, setup) = with_daemon(run, |conn, child| {
            serve_stream(conn, child, &stream, passes.len(), &mut answers)
        })?;
        setups.push(setup.as_secs_f64());
        let wall = p.wall.as_secs_f64() + setup.as_secs_f64();
        passes.push(p);
        if start.elapsed().as_secs_f64() + wall > run.seconds {
            break;
        }
    }
    o.attempted = answers.attempted;
    o.failed = answers.failures.len() as u64;
    for f in std::mem::take(&mut answers.failures) {
        o.problem(f);
    }

    // Output check, untimed: every distinct answer against the
    // specification it was asked for.
    let mut keys: Vec<StreamRequest> = answers.by_request.keys().copied().collect();
    keys.sort_by_key(|k| (k.unit, k.spec, k.weights));
    for (n, key) in keys.iter().enumerate() {
        let spec = &stream.units[key.unit].specs[key.spec];
        for (v, answer) in answers.by_request[key].iter().enumerate() {
            let patched = unescape(&answer.patched);
            if let Err(e) = check::check(&patched, spec, run.seed) {
                o.failed += 1;
                o.problem(format!("{key:?} answer {v}: output check: {e}"));
            }
            if n == 0 && v == 0 {
                if let Err(e) = check::self_test(&patched, spec, run.seed) {
                    o.problem(format!("output check self-test: {e}"));
                }
            }
        }
    }
    if answers.divergent > 0 {
        eprintln!(
            "perfbench: {} replies differ from the first answer to the identical request",
            answers.divergent
        );
    }
    let first = |k: &StreamRequest| &answers.by_request[k][0];

    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| -> f64 { median(&passes.iter().map(f).collect::<Vec<f64>>()) };
    let n = stream.requests.len() as f64;
    eprintln!(
        "perfbench: {} passes of {} requests, {} distinct; stream walls {:?} s",
        passes.len(),
        stream.requests.len(),
        keys.len(),
        passes
            .iter()
            .map(|p| p.wall.as_secs_f64())
            .collect::<Vec<_>>()
    );
    if run.trace {
        let mut d = DaemonLayers::default();
        for (name, slot) in [
            ("admission", &mut d.admission_us),
            ("queue_wait", &mut d.queue_wait_us),
            ("parse", &mut d.parse_us),
            ("solve", &mut d.solve_us),
            ("serialize", &mut d.serialize_us),
            ("write_back", &mut d.write_us),
        ] {
            *slot = per_pass(&|p| stage_p50_us(&p.scrape, name));
        }
        d.rtt_us = per_pass(&|p| median(&p.latencies_us));
        d.netlist_hit_ratio = per_pass(&|p| hit_ratio(&p.stats, "netlist"));
        d.outcome_hit_ratio = per_pass(&|p| hit_ratio(&p.stats, "outcome"));
        d.window_hit_ratio = per_pass(&|p| hit_ratio(&p.stats, "window"));
        d.cnf_hit_ratio = per_pass(&|p| hit_ratio(&p.stats, "cnf"));
        d.target_hit_ratio = per_pass(&|p| hit_ratio(&p.stats, "target"));
        d.outcome_misses_per_unique = per_pass(&|p| {
            let misses = p
                .stats
                .get("stats")
                .and_then(|s| s.get("outcome_misses"))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            misses / keys.len() as f64
        });
        d.divergent_answers = answers.divergent as f64;
        // The library layers, from a cold replay of every distinct
        // request with the daemon's options (the CLI's defaults).
        let options = layers::traced_options(SupportMethod::MinimizeAssumptions);
        let mut traced: Vec<Traced> = Vec::new();
        let mut untraced_total = 0.0;
        let mut replay_differs = 0;
        for key in &keys {
            let u = &stream.units[key.unit];
            let inst = Instance {
                name: format!("{}:{}:{}", u.name, key.spec, key.weights),
                impl_text: u.impl_text.clone(),
                spec_text: u.specs[key.spec].clone(),
                weights_text: u.weights[key.weights].clone(),
            };
            let t = layers::trace(&inst, &options, true)?;
            untraced_total += layers::trace(&inst, &options, false)?.total.as_secs_f64();
            let answered = &answers.by_request[key];
            replay_differs += usize::from(
                !answered
                    .iter()
                    .any(|a| (a.cost, a.gates) == (t.cost, t.gates)),
            );
            for p in layers::consistency(&inst.name, &t) {
                o.problem(p);
            }
            traced.push(t);
        }
        eprintln!(
            "perfbench: the cold replay's cost/gates differ from every daemon answer \
             on {replay_differs} of {} distinct requests",
            keys.len()
        );
        let traced_total: f64 = traced.iter().map(|t| t.total.as_secs_f64()).sum();
        crate::per_layer(&mut o, &traced, &d, traced_total - untraced_total);
    } else {
        EndToEnd {
            setup_s: median(&setups),
            wall_s: per_pass(&|p| p.wall.as_secs_f64()),
            rps: per_pass(&|p| n / p.wall.as_secs_f64()),
            latency_p50_ms: per_pass(&|p| quantile(&p.latencies_us, 0.5)) / 1e3,
            latency_p99_ms: per_pass(&|p| quantile(&p.latencies_us, 0.99)) / 1e3,
            instance_ms_geomean: per_pass(&|p| geomean(&p.latencies_us)) / 1e3,
            total_cost: keys.iter().map(|k| first(k).cost).sum(),
            patch_gates: keys.iter().map(|k| first(k).gates).sum(),
            peak_rss_mb: per_pass(&|p| p.vm_hwm_kib as f64) / 1024.0,
        }
        .emit(&mut o);
    }
    Ok(o)
}
