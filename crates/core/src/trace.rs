//! Trace export and offline analysis for engine runs.
//!
//! Two exporters turn the [`EcoEvent`] stream into files:
//!
//! - [`JsonlTraceObserver`] streams one JSON object per event (JSON
//!   Lines) — the lossless format replayed by [`summarize_trace`] and
//!   the `eco_patch report` command;
//! - [`ChromeTraceObserver`] writes the Chrome `trace_event` format
//!   (run/phase/target spans as `B`/`E` pairs, SAT calls as `X`
//!   complete events), loadable in Perfetto or `chrome://tracing`.
//!
//! Replay utilities build a [`TraceSummary`] (time/conflict breakdown
//! by phase, target, and call kind plus the most expensive calls) and
//! [`check_span_integrity`] verifies that every `*_started` event is
//! closed by its `*_finished` partner in LIFO order.

use crate::json::{escape_json, parse_json, JsonValue};
use crate::observe::{prune_json, EcoEvent, EcoObserver};
use eco_sat::SolveResult;
use std::fmt::Write as _;
use std::io::Write;
use std::time::{Duration, Instant};

fn result_name(result: SolveResult) -> &'static str {
    match result {
        SolveResult::Sat => "sat",
        SolveResult::Unsat => "unsat",
        SolveResult::Unknown => "unknown",
    }
}

fn duration_us(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

fn opt_usize(v: Option<usize>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "null".to_string(),
    }
}

/// Renders one event as a single-line JSON object with the given
/// relative timestamp. This is the line format of
/// [`JsonlTraceObserver`].
fn event_record(ts_us: u64, event: &EcoEvent) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"ts_us\":{ts_us},\"event\":");
    match event {
        EcoEvent::RunStarted {
            num_targets,
            per_call_conflicts,
            jobs,
        } => {
            let budget = match per_call_conflicts {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                s,
                "\"run_started\",\"num_targets\":{num_targets},\"per_call_conflicts\":{budget},\
                 \"jobs\":{jobs}"
            );
        }
        EcoEvent::PhaseStarted { phase } => {
            let _ = write!(s, "\"phase_started\",\"phase\":\"{}\"", phase.name());
        }
        EcoEvent::PhaseFinished { phase, elapsed } => {
            let _ = write!(
                s,
                "\"phase_finished\",\"phase\":\"{}\",\"elapsed_us\":{}",
                phase.name(),
                duration_us(*elapsed)
            );
        }
        EcoEvent::TargetStarted {
            target_index,
            worker,
        } => {
            let _ = write!(
                s,
                "\"target_started\",\"target_index\":{target_index},\"worker\":{worker}"
            );
        }
        EcoEvent::TargetFinished {
            target_index,
            worker,
            sat_calls,
            prune,
            elapsed,
        } => {
            let _ = write!(
                s,
                "\"target_finished\",\"target_index\":{target_index},\"worker\":{worker},\
                 \"sat_calls\":{sat_calls},\"elapsed_us\":{}",
                duration_us(*elapsed)
            );
            if let Some(p) = prune {
                let _ = write!(s, ",\"prune\":{}", prune_json(*p));
            }
        }
        EcoEvent::SatCall {
            kind,
            target_index,
            result,
            conflicts,
            decisions,
            propagations,
            elapsed,
        } => {
            let _ = write!(
                s,
                "\"sat_call\",\"kind\":\"{}\",\"target_index\":{},\"result\":\"{}\",\
                 \"conflicts\":{conflicts},\"decisions\":{decisions},\
                 \"propagations\":{propagations},\"elapsed_us\":{}",
                kind.name(),
                opt_usize(*target_index),
                result_name(*result),
                duration_us(*elapsed)
            );
        }
        EcoEvent::QbfRefinement { copies } => {
            let _ = write!(s, "\"qbf_refinement\",\"copies\":{copies}");
        }
        EcoEvent::QuantificationRefinement {
            target_index,
            assignments,
        } => {
            let _ = write!(
                s,
                "\"quantification_refinement\",\"target_index\":{target_index},\
                 \"assignments\":{assignments}"
            );
        }
        EcoEvent::SupportMinimizationStep {
            target_index,
            step,
            support_size,
        } => {
            let _ = write!(
                s,
                "\"support_minimization_step\",\"target_index\":{},\"step\":\"{}\",\
                 \"support_size\":{support_size}",
                opt_usize(*target_index),
                step.name()
            );
        }
        EcoEvent::StructuralFallback { target_index } => {
            let _ = write!(s, "\"structural_fallback\",\"target_index\":{target_index}");
        }
        EcoEvent::GovernorTripped { reason } => {
            let _ = write!(
                s,
                "\"governor_tripped\",\"reason\":\"{}\"",
                escape_json(reason.name())
            );
        }
        EcoEvent::LadderStep { target_index, rung } => {
            let _ = write!(
                s,
                "\"ladder_step\",\"target_index\":{target_index},\"rung\":\"{}\"",
                rung.name()
            );
        }
        EcoEvent::CegarMinRound {
            target_index,
            sat_calls,
            cost,
        } => {
            let _ = write!(
                s,
                "\"cegar_min_round\",\"target_index\":{},\"sat_calls\":{sat_calls},\
                 \"cost\":{cost}",
                opt_usize(*target_index)
            );
        }
        EcoEvent::RequestTagged { request_id } => {
            let _ = write!(
                s,
                "\"request_tagged\",\"request_id\":\"{}\"",
                escape_json(request_id)
            );
        }
        EcoEvent::CacheQuery { layer, hit } => {
            let _ = write!(
                s,
                "\"cache_query\",\"layer\":\"{}\",\"hit\":{hit}",
                layer.name()
            );
        }
        EcoEvent::SweepStarted { target_index } => {
            let _ = write!(
                s,
                "\"sweep_started\",\"target_index\":{}",
                opt_usize(*target_index)
            );
        }
        EcoEvent::SweepFinished {
            target_index,
            elapsed,
        } => {
            let _ = write!(
                s,
                "\"sweep_finished\",\"target_index\":{},\"elapsed_us\":{}",
                opt_usize(*target_index),
                duration_us(*elapsed)
            );
        }
        EcoEvent::SweepReport {
            target_index,
            classes,
            merges,
            sat_calls,
            refinement_rounds,
            nodes_eliminated,
            oracle_hits,
            sim_discharged_outputs,
        } => {
            let _ = write!(
                s,
                "\"sweep_report\",\"target_index\":{},\"classes\":{classes},\
                 \"merges\":{merges},\"sat_calls\":{sat_calls},\
                 \"refinement_rounds\":{refinement_rounds},\
                 \"nodes_eliminated\":{nodes_eliminated},\"oracle_hits\":{oracle_hits},\
                 \"sim_discharged_outputs\":{sim_discharged_outputs}",
                opt_usize(*target_index)
            );
        }
        EcoEvent::ClassesReport {
            target_index,
            partitions,
            representatives,
            inherited_answers,
            refinement_rounds,
            witness_replays,
        } => {
            let _ = write!(
                s,
                "\"classes_report\",\"target_index\":{},\"partitions\":{partitions},\
                 \"representatives\":{representatives},\
                 \"inherited_answers\":{inherited_answers},\
                 \"refinement_rounds\":{refinement_rounds},\
                 \"witness_replays\":{witness_replays}",
                opt_usize(*target_index)
            );
        }
        EcoEvent::RunFinished { elapsed } => {
            let _ = write!(
                s,
                "\"run_finished\",\"elapsed_us\":{}",
                duration_us(*elapsed)
            );
        }
        // `EcoEvent` is non_exhaustive for downstream crates; new
        // variants must be given a record shape here before release.
        #[allow(unreachable_patterns)]
        _ => {
            let _ = write!(s, "\"unknown\"");
        }
    }
    s.push('}');
    s
}

/// Streams every event as one JSON object per line (JSON Lines).
///
/// Timestamps (`ts_us`) are microseconds relative to the first
/// observed event. Write errors are sticky: the first one is kept and
/// reported by [`JsonlTraceObserver::finish`], and no further lines
/// are written.
#[derive(Debug)]
pub struct JsonlTraceObserver<W: Write> {
    writer: W,
    start: Option<Instant>,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlTraceObserver<W> {
    /// Wraps a writer (typically a buffered file).
    pub fn new(writer: W) -> JsonlTraceObserver<W> {
        JsonlTraceObserver {
            writer,
            start: None,
            error: None,
        }
    }

    /// Flushes and returns the writer; fails with the first write
    /// error encountered while streaming, if any.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }

    fn ts_us(&mut self) -> u64 {
        let start = *self.start.get_or_insert_with(Instant::now);
        duration_us(start.elapsed())
    }
}

impl<W: Write> EcoObserver for JsonlTraceObserver<W> {
    fn on_event(&mut self, event: &EcoEvent) {
        if self.error.is_some() {
            return;
        }
        let ts = self.ts_us();
        let line = event_record(ts, event);
        if let Err(e) = writeln!(self.writer, "{line}") {
            self.error = Some(e);
        }
    }
}

/// Exports the run as a Chrome `trace_event` JSON document.
///
/// Run, phase, and target spans become `B`/`E` duration events; each
/// SAT call becomes an `X` complete event placed at `receipt − elapsed`
/// so call durations are visible on the timeline. The document is
/// closed when [`EcoEvent::RunFinished`] arrives (or on
/// [`ChromeTraceObserver::finish`] for aborted runs).
#[derive(Debug)]
pub struct ChromeTraceObserver<W: Write> {
    writer: W,
    start: Option<Instant>,
    wrote_any: bool,
    closed: bool,
    error: Option<std::io::Error>,
}

impl<W: Write> ChromeTraceObserver<W> {
    /// Wraps a writer (typically a buffered file).
    pub fn new(writer: W) -> ChromeTraceObserver<W> {
        ChromeTraceObserver {
            writer,
            start: None,
            wrote_any: false,
            closed: false,
            error: None,
        }
    }

    /// Closes the JSON document (a no-op if [`EcoEvent::RunFinished`]
    /// already closed it), flushes, and returns the writer; fails with
    /// the first write error encountered while streaming, if any.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.close()?;
        self.writer.flush()?;
        Ok(self.writer)
    }

    fn close(&mut self) -> std::io::Result<()> {
        if self.closed {
            return Ok(());
        }
        if !self.wrote_any {
            self.writer.write_all(b"{\"traceEvents\":[")?;
        }
        self.closed = true;
        self.writer.write_all(b"]}\n")
    }

    fn ts_us(&mut self) -> u64 {
        let start = *self.start.get_or_insert_with(Instant::now);
        duration_us(start.elapsed())
    }

    fn push(&mut self, record: String) {
        if self.error.is_some() || self.closed {
            return;
        }
        let lead = if self.wrote_any {
            ",\n"
        } else {
            "{\"traceEvents\":[\n"
        };
        if let Err(e) = self
            .writer
            .write_all(lead.as_bytes())
            .and_then(|()| self.writer.write_all(record.as_bytes()))
        {
            self.error = Some(e);
            return;
        }
        self.wrote_any = true;
    }

    fn span(&mut self, ph: char, ts: u64, name: &str) {
        self.span_on(ph, ts, name, 1);
    }

    /// A `B`/`E` record on an explicit Chrome track: target spans use
    /// `tid = worker + 2` so concurrent workers render as separate
    /// lanes (track 1 stays the coordinating thread's run/phase lane).
    fn span_on(&mut self, ph: char, ts: u64, name: &str, tid: usize) {
        self.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"eco\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":1,\
             \"tid\":{tid}}}",
            escape_json(name)
        ));
    }
}

impl<W: Write> EcoObserver for ChromeTraceObserver<W> {
    fn on_event(&mut self, event: &EcoEvent) {
        let ts = self.ts_us();
        match event {
            EcoEvent::RunStarted { .. } => self.span('B', ts, "run"),
            EcoEvent::PhaseStarted { phase } => self.span('B', ts, phase.name()),
            EcoEvent::PhaseFinished { phase, .. } => self.span('E', ts, phase.name()),
            EcoEvent::TargetStarted {
                target_index,
                worker,
            } => {
                self.span_on('B', ts, &format!("target {target_index}"), worker + 2);
            }
            EcoEvent::TargetFinished {
                target_index,
                worker,
                ..
            } => {
                self.span_on('E', ts, &format!("target {target_index}"), worker + 2);
            }
            EcoEvent::SatCall {
                kind,
                target_index,
                result,
                conflicts,
                elapsed,
                ..
            } => {
                let dur = duration_us(*elapsed);
                let call_ts = ts.saturating_sub(dur);
                self.push(format!(
                    "{{\"name\":\"sat:{}\",\"cat\":\"sat\",\"ph\":\"X\",\"ts\":{call_ts},\
                     \"dur\":{dur},\"pid\":1,\"tid\":1,\"args\":{{\"result\":\"{}\",\
                     \"conflicts\":{conflicts},\"target_index\":{}}}}}",
                    kind.name(),
                    result_name(*result),
                    opt_usize(*target_index)
                ));
            }
            EcoEvent::SweepStarted { target_index } => {
                let name = match target_index {
                    Some(t) => format!("sweep target {t}"),
                    None => "sweep".to_string(),
                };
                self.span('B', ts, &name);
            }
            EcoEvent::SweepFinished { target_index, .. } => {
                let name = match target_index {
                    Some(t) => format!("sweep target {t}"),
                    None => "sweep".to_string(),
                };
                self.span('E', ts, &name);
            }
            EcoEvent::RunFinished { .. } => {
                self.span('E', ts, "run");
                if self.error.is_none() {
                    if let Err(e) = self.close() {
                        self.error = Some(e);
                    }
                }
            }
            // Instant (non-span) telemetry becomes `i` events.
            other => {
                let name = match other {
                    EcoEvent::QbfRefinement { .. } => "qbf_refinement",
                    EcoEvent::QuantificationRefinement { .. } => "quantification_refinement",
                    EcoEvent::SupportMinimizationStep { .. } => "support_minimization_step",
                    EcoEvent::StructuralFallback { .. } => "structural_fallback",
                    EcoEvent::GovernorTripped { .. } => "governor_tripped",
                    EcoEvent::LadderStep { .. } => "ladder_step",
                    EcoEvent::CegarMinRound { .. } => "cegar_min_round",
                    EcoEvent::RequestTagged { .. } => "request_tagged",
                    EcoEvent::CacheQuery { .. } => "cache_query",
                    EcoEvent::SweepReport { .. } => "sweep_report",
                    EcoEvent::ClassesReport { .. } => "classes_report",
                    _ => "event",
                };
                self.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"eco\",\"ph\":\"i\",\"ts\":{ts},\
                     \"pid\":1,\"tid\":1,\"s\":\"t\"}}"
                ));
            }
        }
    }
}

/// Per-phase totals replayed from a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Phase name as recorded in the trace.
    pub name: String,
    /// `elapsed_us` of the `phase_finished` record.
    pub elapsed_us: u64,
}

/// Per-target totals replayed from a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TargetSummary {
    /// Index into the original problem's target list.
    pub target_index: u64,
    /// Attributed SAT calls observed in the trace.
    pub sat_calls: u64,
    /// Conflicts across those calls.
    pub conflicts: u64,
    /// Solver time across those calls, µs.
    pub sat_time_us: u64,
    /// `elapsed_us` of the `target_finished` record (0 if the target
    /// never finished).
    pub elapsed_us: u64,
}

/// Per-kind totals replayed from a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KindSummary {
    /// SAT-call kind name as recorded in the trace.
    pub name: String,
    /// Calls of this kind.
    pub calls: u64,
    /// Conflicts across those calls.
    pub conflicts: u64,
    /// Solver time across those calls, µs.
    pub time_us: u64,
}

/// One expensive SAT call flagged by the report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExpensiveCall {
    /// SAT-call kind name.
    pub kind: String,
    /// Attributed target, if any.
    pub target_index: Option<u64>,
    /// The call's verdict.
    pub result: String,
    /// Conflicts in the call.
    pub conflicts: u64,
    /// Call wall-time, µs.
    pub elapsed_us: u64,
}

/// Aggregated view of one trace, built by [`summarize_trace`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Records replayed.
    pub events: u64,
    /// `num_targets` of the `run_started` record, if present.
    pub num_targets: Option<u64>,
    /// `elapsed_us` of the `run_finished` record, if present.
    pub run_elapsed_us: Option<u64>,
    /// Phase totals, in completion order.
    pub phases: Vec<PhaseSummary>,
    /// Target totals, in first-seen order.
    pub targets: Vec<TargetSummary>,
    /// Kind totals, in first-seen order.
    pub kinds: Vec<KindSummary>,
    /// Total SAT calls.
    pub sat_calls: u64,
    /// Total conflicts.
    pub sat_conflicts: u64,
    /// Total solver time, µs.
    pub sat_time_us: u64,
    /// The `top_k` most expensive calls, by wall-time then conflicts.
    pub top_calls: Vec<ExpensiveCall>,
    /// Governor trips / injected faults recorded.
    pub governor_trips: u64,
}

/// Replays a JSONL trace into a [`TraceSummary`], keeping the `top_k`
/// most expensive calls.
///
/// # Errors
///
/// Returns a message naming the offending line when a line is not a
/// JSON object or lacks the `event` tag.
pub fn summarize_trace(jsonl: &str, top_k: usize) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    let mut calls: Vec<ExpensiveCall> = Vec::new();
    for (lineno, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let event = record
            .get("event")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {}: missing \"event\" tag", lineno + 1))?;
        summary.events += 1;
        let u = |key: &str| record.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        match event {
            "run_started" => {
                summary.num_targets = record.get("num_targets").and_then(JsonValue::as_u64);
            }
            "run_finished" => {
                summary.run_elapsed_us = record.get("elapsed_us").and_then(JsonValue::as_u64);
            }
            "phase_finished" => {
                let name = record
                    .get("phase")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?")
                    .to_string();
                summary.phases.push(PhaseSummary {
                    name,
                    elapsed_us: u("elapsed_us"),
                });
            }
            "target_finished" => {
                let idx = u("target_index");
                let entry = target_entry(&mut summary.targets, idx);
                entry.elapsed_us = u("elapsed_us");
            }
            "governor_tripped" => summary.governor_trips += 1,
            "sat_call" => {
                let kind = record
                    .get("kind")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?")
                    .to_string();
                let conflicts = u("conflicts");
                let elapsed_us = u("elapsed_us");
                summary.sat_calls += 1;
                summary.sat_conflicts += conflicts;
                summary.sat_time_us += elapsed_us;
                let entry = match summary.kinds.iter_mut().find(|k| k.name == kind) {
                    Some(entry) => entry,
                    None => {
                        summary.kinds.push(KindSummary {
                            name: kind.clone(),
                            ..KindSummary::default()
                        });
                        summary.kinds.last_mut().expect("just pushed")
                    }
                };
                entry.calls += 1;
                entry.conflicts += conflicts;
                entry.time_us += elapsed_us;
                let target_index = record.get("target_index").and_then(JsonValue::as_u64);
                if let Some(idx) = target_index {
                    let t = target_entry(&mut summary.targets, idx);
                    t.sat_calls += 1;
                    t.conflicts += conflicts;
                    t.sat_time_us += elapsed_us;
                }
                calls.push(ExpensiveCall {
                    kind,
                    target_index,
                    result: record
                        .get("result")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    conflicts,
                    elapsed_us,
                });
            }
            _ => {}
        }
    }
    calls.sort_by_key(|c| std::cmp::Reverse((c.elapsed_us, c.conflicts)));
    calls.truncate(top_k);
    summary.top_calls = calls;
    Ok(summary)
}

fn target_entry(targets: &mut Vec<TargetSummary>, target_index: u64) -> &mut TargetSummary {
    if let Some(pos) = targets.iter().position(|t| t.target_index == target_index) {
        return &mut targets[pos];
    }
    targets.push(TargetSummary {
        target_index,
        ..TargetSummary::default()
    });
    targets.last_mut().expect("just pushed")
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Renders a [`TraceSummary`] as the human-readable report printed by
/// `eco_patch report`.
pub fn render_report(summary: &TraceSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "trace: {} events", summary.events);
    let _ = writeln!(
        out,
        "run: targets={} elapsed_us={} governor_trips={}",
        summary
            .num_targets
            .map_or_else(|| "?".to_string(), |n| n.to_string()),
        summary
            .run_elapsed_us
            .map_or_else(|| "?".to_string(), |n| n.to_string()),
        summary.governor_trips
    );
    let run_us = summary.run_elapsed_us.unwrap_or(0);
    let _ = writeln!(out, "\nphases:");
    let _ = writeln!(out, "  {:<20} {:>12} {:>7}", "phase", "elapsed_us", "share");
    for p in &summary.phases {
        let _ = writeln!(
            out,
            "  {:<20} {:>12} {:>6.1}%",
            p.name,
            p.elapsed_us,
            percent(p.elapsed_us, run_us)
        );
    }
    let _ = writeln!(
        out,
        "\nsat calls: total={} conflicts={} time_us={}",
        summary.sat_calls, summary.sat_conflicts, summary.sat_time_us
    );
    let _ = writeln!(
        out,
        "  {:<20} {:>8} {:>10} {:>12} {:>7}",
        "kind", "calls", "conflicts", "time_us", "share"
    );
    for k in &summary.kinds {
        let _ = writeln!(
            out,
            "  {:<20} {:>8} {:>10} {:>12} {:>6.1}%",
            k.name,
            k.calls,
            k.conflicts,
            k.time_us,
            percent(k.time_us, summary.sat_time_us)
        );
    }
    if !summary.targets.is_empty() {
        let _ = writeln!(out, "\ntargets:");
        let _ = writeln!(
            out,
            "  {:<8} {:>8} {:>10} {:>12} {:>12}",
            "target", "calls", "conflicts", "sat_time_us", "elapsed_us"
        );
        for t in &summary.targets {
            let _ = writeln!(
                out,
                "  {:<8} {:>8} {:>10} {:>12} {:>12}",
                t.target_index, t.sat_calls, t.conflicts, t.sat_time_us, t.elapsed_us
            );
        }
    }
    if !summary.top_calls.is_empty() {
        let _ = writeln!(
            out,
            "\ntop {} most expensive calls:",
            summary.top_calls.len()
        );
        for (i, c) in summary.top_calls.iter().enumerate() {
            let _ = writeln!(
                out,
                "  #{:<3} kind={} target={} result={} conflicts={} elapsed_us={}",
                i + 1,
                c.kind,
                c.target_index
                    .map_or_else(|| "-".to_string(), |t| t.to_string()),
                c.result,
                c.conflicts,
                c.elapsed_us
            );
        }
    }
    out
}

/// Verifies the span discipline of a JSONL trace: every
/// `run/phase/target started` record must be closed by the matching
/// `finished` record in LIFO order, and nothing may remain open at the
/// end of a trace that saw `run_finished`.
///
/// Traces of aborted runs (no `run_finished`) pass as long as the
/// records seen so far nest correctly.
///
/// # Errors
///
/// Returns a message naming the line of the first violation.
pub fn check_span_integrity(jsonl: &str) -> Result<(), String> {
    let mut stack: Vec<String> = Vec::new();
    let mut finished = false;
    for (lineno, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        let record = parse_json(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let event = record
            .get("event")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {lineno}: missing \"event\" tag"))?;
        if finished {
            return Err(format!("line {lineno}: record after run_finished"));
        }
        let span = |kind: &str| -> Result<String, String> {
            match kind {
                "run" => Ok("run".to_string()),
                "phase" => record
                    .get("phase")
                    .and_then(JsonValue::as_str)
                    .map(|p| format!("phase {p}"))
                    .ok_or_else(|| format!("line {lineno}: missing \"phase\"")),
                _ => record
                    .get("target_index")
                    .and_then(JsonValue::as_u64)
                    .map(|t| format!("target {t}"))
                    .ok_or_else(|| format!("line {lineno}: missing \"target_index\"")),
            }
        };
        let (open, kind) = match event {
            "run_started" => (true, "run"),
            "run_finished" => (false, "run"),
            "phase_started" => (true, "phase"),
            "phase_finished" => (false, "phase"),
            "target_started" => (true, "target"),
            "target_finished" => (false, "target"),
            _ => continue,
        };
        let name = span(kind)?;
        if open {
            if kind == "run" && !stack.is_empty() {
                return Err(format!("line {lineno}: run_started inside open spans"));
            }
            stack.push(name);
        } else {
            match stack.pop() {
                Some(top) if top == name => {}
                Some(top) => {
                    return Err(format!(
                        "line {lineno}: closed '{name}' while '{top}' was innermost"
                    ));
                }
                None => {
                    return Err(format!("line {lineno}: closed '{name}' with no open span"));
                }
            }
            if kind == "run" {
                finished = true;
            }
        }
    }
    if finished && !stack.is_empty() {
        return Err(format!("spans left open at end of trace: {stack:?}"));
    }
    Ok(())
}

/// Latency distribution of one command kind replayed from a daemon
/// journal (`request_done` events), in microseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalLatency {
    /// Command name (`cmd` field of the `request_done` events).
    pub cmd: String,
    /// Completed requests of this command.
    pub count: u64,
    /// Median total latency, µs (exact nearest-rank).
    pub p50_us: u64,
    /// 90th-percentile total latency, µs.
    pub p90_us: u64,
    /// 99th-percentile total latency, µs.
    pub p99_us: u64,
    /// Slowest request, µs.
    pub max_us: u64,
}

/// One cache hit-rate observation along a journal: the cumulative
/// daemon-wide cache totals as of one completed request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CachePoint {
    /// Journal timestamp of the observation, µs since daemon start.
    pub ts_us: u64,
    /// Cumulative cache hits across all layers.
    pub hits: u64,
    /// Cumulative cache misses across all layers.
    pub misses: u64,
}

impl CachePoint {
    /// Hit rate of this observation in percent (0 when nothing was
    /// looked up yet).
    pub fn hit_rate(&self) -> f64 {
        percent(self.hits, self.hits + self.misses)
    }
}

/// Aggregated view of an `eco_patchd` event journal (`--log-jsonl`),
/// built by [`summarize_journal`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JournalSummary {
    /// Journal records replayed.
    pub events: u64,
    /// `admit` events (requests accepted for solving).
    pub admitted: u64,
    /// `shed` events (refused at capacity).
    pub shed: u64,
    /// `expired` events (deadline passed while queued).
    pub expired: u64,
    /// `panic` events (requests isolated behind the unwind boundary).
    pub panicked: u64,
    /// `poison_hit` events (known-poison fingerprints refused).
    pub poison_hits: u64,
    /// `retry` events (fair-share escalations).
    pub retried: u64,
    /// `drain_refused` events (requests refused while draining).
    pub drain_refused: u64,
    /// `parse_error` events (unparseable request lines).
    pub parse_errors: u64,
    /// Completed requests by `status`, in first-seen order.
    pub statuses: Vec<(String, u64)>,
    /// Per-command latency percentiles over `request_done` events.
    pub latency: Vec<JournalLatency>,
    /// Total queue wait across completed requests, µs.
    pub queue_wait_us: u64,
    /// Total parse time across completed requests, µs.
    pub parse_us: u64,
    /// Total solve time across completed requests, µs.
    pub solve_us: u64,
    /// Total serialization time across completed requests, µs.
    pub serialize_us: u64,
    /// Cache hit-rate trajectory: one cumulative observation per
    /// completed request that carried cache totals, in journal order.
    pub cache_trajectory: Vec<CachePoint>,
}

/// Exact nearest-rank percentile of an **ascending-sorted** slice:
/// the smallest element with cumulative rank `>= ceil(q * n)`.
fn nearest_rank(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = (q * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

/// Replays an `eco_patchd` event journal (one JSON object per line,
/// as written by `--log-jsonl`) into a [`JournalSummary`]: serving
/// counters reconstructed from lifecycle events, per-command latency
/// percentiles, stage-time attribution, and the cache hit-rate
/// trajectory.
///
/// # Errors
///
/// Returns a message naming the offending line when a line is not a
/// JSON object or lacks the `event` tag.
pub fn summarize_journal(jsonl: &str) -> Result<JournalSummary, String> {
    let mut summary = JournalSummary::default();
    let mut samples: Vec<(String, Vec<u64>)> = Vec::new();
    for (lineno, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let event = record
            .get("event")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {}: missing \"event\" tag", lineno + 1))?;
        summary.events += 1;
        let u = |key: &str| record.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        match event {
            "admit" => summary.admitted += 1,
            "shed" => summary.shed += 1,
            "expired" => summary.expired += 1,
            "panic" => summary.panicked += 1,
            "poison_hit" => summary.poison_hits += 1,
            "retry" => summary.retried += 1,
            "drain_refused" => summary.drain_refused += 1,
            "parse_error" => summary.parse_errors += 1,
            "request_done" => {
                let status = record
                    .get("status")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?")
                    .to_string();
                match summary.statuses.iter_mut().find(|(s, _)| *s == status) {
                    Some((_, n)) => *n += 1,
                    None => summary.statuses.push((status, 1)),
                }
                let cmd = record
                    .get("cmd")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?")
                    .to_string();
                let total_us = u("total_us");
                match samples.iter_mut().find(|(c, _)| *c == cmd) {
                    Some((_, v)) => v.push(total_us),
                    None => samples.push((cmd, vec![total_us])),
                }
                summary.queue_wait_us += u("queue_wait_us");
                summary.parse_us += u("parse_us");
                summary.solve_us += u("solve_us");
                summary.serialize_us += u("serialize_us");
                if record.get("cache_hits_total").is_some() {
                    summary.cache_trajectory.push(CachePoint {
                        ts_us: u("ts_us"),
                        hits: u("cache_hits_total"),
                        misses: u("cache_misses_total"),
                    });
                }
            }
            _ => {}
        }
    }
    for (cmd, mut v) in samples {
        v.sort_unstable();
        summary.latency.push(JournalLatency {
            cmd,
            count: v.len() as u64,
            p50_us: nearest_rank(&v, 0.50),
            p90_us: nearest_rank(&v, 0.90),
            p99_us: nearest_rank(&v, 0.99),
            max_us: *v.last().expect("samples are non-empty"),
        });
    }
    Ok(summary)
}

/// Renders a [`JournalSummary`] as the human-readable report printed
/// by `eco_patch report --journal`.
pub fn render_journal_report(summary: &JournalSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "journal: {} events", summary.events);
    let _ = writeln!(
        out,
        "serving: admitted={} shed={} expired={} panicked={} poison_hits={} retried={} \
         drain_refused={} parse_errors={}",
        summary.admitted,
        summary.shed,
        summary.expired,
        summary.panicked,
        summary.poison_hits,
        summary.retried,
        summary.drain_refused,
        summary.parse_errors
    );
    if !summary.statuses.is_empty() {
        let done: u64 = summary.statuses.iter().map(|(_, n)| n).sum();
        let mut line = format!("completed: total={done}");
        for (status, n) in &summary.statuses {
            let _ = write!(line, " {status}={n}");
        }
        let _ = writeln!(out, "{line}");
    }
    if !summary.latency.is_empty() {
        let _ = writeln!(out, "\nlatency (total_us per request):");
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "cmd", "count", "p50", "p90", "p99", "max"
        );
        for l in &summary.latency {
            let _ = writeln!(
                out,
                "  {:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
                l.cmd, l.count, l.p50_us, l.p90_us, l.p99_us, l.max_us
            );
        }
    }
    let attributed =
        summary.queue_wait_us + summary.parse_us + summary.solve_us + summary.serialize_us;
    if attributed > 0 {
        let _ = writeln!(out, "\nattribution (summed across requests):");
        for (name, us) in [
            ("queue_wait", summary.queue_wait_us),
            ("parse", summary.parse_us),
            ("solve", summary.solve_us),
            ("serialize", summary.serialize_us),
        ] {
            let _ = writeln!(
                out,
                "  {:<12} {:>12} us {:>6.1}%",
                name,
                us,
                percent(us, attributed)
            );
        }
    }
    if let (Some(first), Some(last)) = (
        summary.cache_trajectory.first(),
        summary.cache_trajectory.last(),
    ) {
        let _ = writeln!(
            out,
            "\ncache hit rate: {:.1}% -> {:.1}% over {} completed requests \
             ({} hits / {} lookups at end)",
            first.hit_rate(),
            last.hit_rate(),
            summary.cache_trajectory.len(),
            last.hits,
            last.hits + last.misses
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{Phase, SatCallKind};

    fn sample_events() -> Vec<EcoEvent> {
        vec![
            EcoEvent::RunStarted {
                num_targets: 1,
                per_call_conflicts: None,
                jobs: 2,
            },
            EcoEvent::PhaseStarted {
                phase: Phase::PatchGeneration,
            },
            EcoEvent::TargetStarted {
                target_index: 0,
                worker: 1,
            },
            EcoEvent::SatCall {
                kind: SatCallKind::Support,
                target_index: Some(0),
                result: SolveResult::Unsat,
                conflicts: 12,
                decisions: 4,
                propagations: 40,
                elapsed: Duration::from_micros(250),
            },
            EcoEvent::SatCall {
                kind: SatCallKind::Cec,
                target_index: None,
                result: SolveResult::Sat,
                conflicts: 3,
                decisions: 1,
                propagations: 9,
                elapsed: Duration::from_micros(90),
            },
            EcoEvent::TargetFinished {
                target_index: 0,
                worker: 1,
                sat_calls: 1,
                prune: None,
                elapsed: Duration::from_micros(400),
            },
            EcoEvent::PhaseFinished {
                phase: Phase::PatchGeneration,
                elapsed: Duration::from_micros(500),
            },
            EcoEvent::RunFinished {
                elapsed: Duration::from_micros(600),
            },
        ]
    }

    fn sample_jsonl() -> String {
        let mut obs = JsonlTraceObserver::new(Vec::new());
        for event in sample_events() {
            obs.on_event(&event);
        }
        String::from_utf8(obs.finish().expect("no io errors")).expect("utf8")
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let text = sample_jsonl();
        assert_eq!(text.lines().count(), 8);
        for line in text.lines() {
            let v = parse_json(line).expect("line parses");
            assert!(v.get("event").is_some(), "{line}");
            assert!(v.get("ts_us").and_then(JsonValue::as_u64).is_some());
        }
    }

    #[test]
    fn summary_replays_totals() {
        let summary = summarize_trace(&sample_jsonl(), 1).expect("replay");
        assert_eq!(summary.events, 8);
        assert_eq!(summary.num_targets, Some(1));
        assert_eq!(summary.run_elapsed_us, Some(600));
        assert_eq!(summary.sat_calls, 2);
        assert_eq!(summary.sat_conflicts, 15);
        assert_eq!(summary.sat_time_us, 340);
        assert_eq!(summary.phases.len(), 1);
        assert_eq!(summary.phases[0].name, "patch_generation");
        assert_eq!(summary.phases[0].elapsed_us, 500);
        assert_eq!(summary.targets.len(), 1);
        assert_eq!(summary.targets[0].sat_calls, 1);
        assert_eq!(summary.targets[0].sat_time_us, 250);
        assert_eq!(summary.top_calls.len(), 1);
        assert_eq!(summary.top_calls[0].kind, "support");
        let report = render_report(&summary);
        assert!(report.contains("patch_generation"));
        assert!(report.contains("top 1 most expensive calls"));
    }

    #[test]
    fn span_integrity_accepts_wellformed_and_rejects_crossed_spans() {
        check_span_integrity(&sample_jsonl()).expect("well-formed");
        let crossed = "\
{\"ts_us\":0,\"event\":\"run_started\",\"num_targets\":1,\"per_call_conflicts\":null}
{\"ts_us\":1,\"event\":\"phase_started\",\"phase\":\"windowing\"}
{\"ts_us\":2,\"event\":\"target_started\",\"target_index\":0}
{\"ts_us\":3,\"event\":\"phase_finished\",\"phase\":\"windowing\",\"elapsed_us\":2}
";
        let err = check_span_integrity(crossed).unwrap_err();
        assert!(err.contains("target 0"), "{err}");
        let unopened = "{\"ts_us\":0,\"event\":\"target_finished\",\"target_index\":3,\
                        \"sat_calls\":0,\"elapsed_us\":1}";
        assert!(check_span_integrity(unopened).is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_balanced_spans() {
        let mut obs = ChromeTraceObserver::new(Vec::new());
        for event in sample_events() {
            obs.on_event(&event);
        }
        let bytes = obs.finish().expect("no io errors");
        let text = String::from_utf8(bytes).expect("utf8");
        let doc = parse_json(&text).expect("valid JSON document");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some(ph))
                .count()
        };
        assert_eq!(count("B"), count("E"), "every span closes");
        assert_eq!(count("X"), 2, "one complete event per SAT call");
        for e in events {
            assert!(e.get("ts").and_then(JsonValue::as_u64).is_some());
        }
    }

    fn journal_line(ts_us: u64, event: &str, rest: &str) -> String {
        let tail = if rest.is_empty() {
            String::new()
        } else {
            format!(",{rest}")
        };
        format!(
            "{{\"ts_us\":{ts_us},\"seq\":{ts_us},\"level\":\"info\",\"event\":\"{event}\"{tail}}}"
        )
    }

    #[test]
    fn journal_summary_reconstructs_serving_counters_and_percentiles() {
        let mut lines = vec![
            journal_line(0, "daemon_started", "\"workers\":2"),
            journal_line(1, "admit", "\"request_id\":\"a\""),
            journal_line(2, "shed", "\"request_id\":\"b\",\"retry_after_ms\":300"),
            journal_line(3, "expired", "\"request_id\":\"c\",\"queued_ms\":5"),
            journal_line(4, "retry", "\"request_id\":\"a\",\"escalated_pool\":400"),
            journal_line(5, "panic", "\"request_id\":\"d\",\"error\":\"boom\""),
            journal_line(6, "parse_error", "\"error\":\"bad line\""),
            journal_line(7, "drain_refused", "\"request_id\":\"e\""),
        ];
        // 100 completed eco requests: 1..=100 µs, cache warming from
        // all-miss to half-hit.
        for i in 1..=100u64 {
            lines.push(journal_line(
                100 + i,
                "request_done",
                &format!(
                    "\"request_id\":\"r{i}\",\"cmd\":\"eco\",\"status\":\"ok\",\
                     \"queue_wait_us\":2,\"parse_us\":1,\"solve_us\":{i},\
                     \"serialize_us\":1,\"total_us\":{i},\
                     \"cache_hits_total\":{},\"cache_misses_total\":100",
                    i - 1
                ),
            ));
        }
        lines.push(journal_line(
            999,
            "request_done",
            "\"request_id\":\"d\",\"cmd\":\"eco\",\"status\":\"panic\",\"total_us\":7",
        ));
        let summary = summarize_journal(&lines.join("\n")).expect("journal parses");
        assert_eq!(summary.events, 8 + 101);
        assert_eq!(summary.admitted, 1);
        assert_eq!(summary.shed, 1);
        assert_eq!(summary.expired, 1);
        assert_eq!(summary.panicked, 1);
        assert_eq!(summary.retried, 1);
        assert_eq!(summary.parse_errors, 1);
        assert_eq!(summary.drain_refused, 1);
        assert_eq!(
            summary.statuses,
            vec![("ok".to_string(), 100), ("panic".to_string(), 1)]
        );
        assert_eq!(summary.latency.len(), 1, "one command kind");
        let eco = &summary.latency[0];
        assert_eq!(eco.cmd, "eco");
        assert_eq!(eco.count, 101);
        // 101 samples: 1..=100 plus the 7µs panic. Nearest-rank p50 is
        // the 51st smallest = 50, p90 the 91st = 90, p99 the 100th = 99.
        assert_eq!(eco.p50_us, 50);
        assert_eq!(eco.p90_us, 90);
        assert_eq!(eco.p99_us, 99);
        assert_eq!(eco.max_us, 100);
        assert_eq!(summary.queue_wait_us, 200);
        assert_eq!(summary.solve_us, 5050);
        assert_eq!(summary.cache_trajectory.len(), 100);
        assert_eq!(summary.cache_trajectory[0].hit_rate(), 0.0);
        let report = render_journal_report(&summary);
        assert!(
            report.contains("admitted=1 shed=1 expired=1 panicked=1"),
            "{report}"
        );
        assert!(report.contains("cache hit rate: 0.0% -> 49.7%"), "{report}");
        assert!(report.contains("queue_wait"), "{report}");
    }

    #[test]
    fn journal_summary_rejects_malformed_lines() {
        assert!(summarize_journal("not json").is_err());
        let missing_tag = "{\"ts_us\":0,\"seq\":1,\"level\":\"info\"}";
        let err = summarize_journal(missing_tag).unwrap_err();
        assert!(err.contains("missing \"event\""), "{err}");
        let empty = summarize_journal("").expect("empty journal is fine");
        assert_eq!(empty.events, 0);
        assert!(render_journal_report(&empty).contains("journal: 0 events"));
    }

    #[test]
    fn chrome_trace_closes_even_without_run_finished() {
        let mut obs = ChromeTraceObserver::new(Vec::new());
        obs.on_event(&EcoEvent::RunStarted {
            num_targets: 1,
            per_call_conflicts: None,
            jobs: 1,
        });
        let text = String::from_utf8(obs.finish().expect("io")).expect("utf8");
        parse_json(&text).expect("document is closed");
        let empty = ChromeTraceObserver::new(Vec::new());
        let text = String::from_utf8(empty.finish().expect("io")).expect("utf8");
        parse_json(&text).expect("empty document is closed");
    }
}
