//! Observer-layer integration tests: phase nesting, SAT-call
//! attribution reconciling with the per-target reports, and the
//! stability of the `RunMetrics` JSON schema.

use eco_patch::aig::Aig;
use eco_patch::core::json::{parse_json, JsonValue};
use eco_patch::core::{
    BudgetMetrics, CacheCounters, ClassesCounters, EcoEngine, EcoEvent, EcoObserver, EcoOptions,
    EcoProblem, KindMetrics, PatchKind, Phase, PhaseMetrics, PruneReport, RunMetrics, SatCallKind,
    SatCallMetrics, ServingCounters, SupportMethod, SweepCounters, TargetMetrics, WorkerMetrics,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Records every event for post-run inspection.
#[derive(Default)]
struct Recorder {
    events: Vec<EcoEvent>,
}

impl EcoObserver for Recorder {
    fn on_event(&mut self, event: &EcoEvent) {
        self.events.push(event.clone());
    }
}

fn and_vs_or_problem() -> EcoProblem {
    let mut im = Aig::new();
    let (a, b) = (im.add_input(), im.add_input());
    let t = im.and(a, b);
    im.add_output(t);
    let t_node = t.node();
    let mut sp = Aig::new();
    let (a, b) = (sp.add_input(), sp.add_input());
    let o = sp.or(a, b);
    sp.add_output(o);
    EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid")
}

fn multi_target_problem() -> EcoProblem {
    // impl y = (a&b) & (b&c); spec y = a ^ c; both ANDs are targets.
    let mut im = Aig::new();
    let (a, b, c) = (im.add_input(), im.add_input(), im.add_input());
    let t1 = im.and(a, b);
    let t2 = im.and(b, c);
    let y = im.and(t1, t2);
    im.add_output(y);
    let mut sp = Aig::new();
    let (a, _b, c) = (sp.add_input(), sp.add_input(), sp.add_input());
    let y = sp.xor(a, c);
    sp.add_output(y);
    EcoProblem::with_unit_weights(im, sp, vec![t1.node(), t2.node()]).expect("valid")
}

fn record_run(
    options: EcoOptions,
    problem: &EcoProblem,
) -> (eco_patch::core::EcoOutcome, Vec<EcoEvent>) {
    let recorder = Arc::new(Mutex::new(Recorder::default()));
    let engine = EcoEngine::new(options)
        .with_shared_observer(recorder.clone() as Arc<Mutex<dyn EcoObserver + Send>>);
    let outcome = engine.solve(&problem.snapshot()).expect("engine run");
    let events = std::mem::take(&mut recorder.lock().expect("no poison").events);
    (outcome, events)
}

#[test]
fn phases_nest_and_cover_the_whole_run() {
    let (_, events) = record_run(
        EcoOptions::builder().build().expect("valid options"),
        &multi_target_problem(),
    );
    assert!(
        matches!(
            events.first(),
            Some(EcoEvent::RunStarted { num_targets: 2, .. })
        ),
        "first event must be RunStarted"
    );
    assert!(
        matches!(events.last(), Some(EcoEvent::RunFinished { .. })),
        "last event must be RunFinished"
    );

    // Exactly one Started/Finished pair per phase, in flow order, with
    // no overlap, and every inner event inside some phase.
    let mut open: Option<Phase> = None;
    let mut finished: Vec<Phase> = Vec::new();
    let mut open_target: Option<usize> = None;
    for event in &events {
        match event {
            EcoEvent::RunStarted { .. } | EcoEvent::RunFinished { .. } => {
                assert!(open.is_none(), "run boundary inside phase {open:?}");
            }
            EcoEvent::PhaseStarted { phase } => {
                assert!(open.is_none(), "phase {phase:?} started inside {open:?}");
                open = Some(*phase);
            }
            EcoEvent::PhaseFinished { phase, .. } => {
                assert_eq!(open, Some(*phase), "finish must match the open phase");
                assert!(
                    open_target.is_none(),
                    "phase closed with target {open_target:?} open"
                );
                finished.push(*phase);
                open = None;
            }
            EcoEvent::TargetStarted { target_index, .. } => {
                assert_eq!(open, Some(Phase::PatchGeneration));
                assert!(open_target.is_none());
                open_target = Some(*target_index);
            }
            EcoEvent::TargetFinished { target_index, .. } => {
                assert_eq!(open_target, Some(*target_index));
                open_target = None;
            }
            _ => {
                assert!(open.is_some(), "event {event:?} emitted outside any phase");
            }
        }
    }
    assert_eq!(
        finished,
        Phase::ALL.to_vec(),
        "all phases complete, in flow order"
    );
}

/// Sums the `SatCall` events attributed to each target.
fn attributed_calls(events: &[EcoEvent]) -> HashMap<usize, u64> {
    let mut by_target: HashMap<usize, u64> = HashMap::new();
    for event in events {
        if let EcoEvent::SatCall {
            target_index: Some(ti),
            ..
        } = event
        {
            *by_target.entry(*ti).or_default() += 1;
        }
    }
    by_target
}

#[test]
fn attributed_sat_calls_match_reports_for_every_method() {
    for method in [
        SupportMethod::AnalyzeFinal,
        SupportMethod::MinimizeAssumptions,
        SupportMethod::SatPrune,
    ] {
        for problem in [and_vs_or_problem(), multi_target_problem()] {
            let (outcome, events) = record_run(
                EcoOptions::builder()
                    .method(method)
                    .build()
                    .expect("valid options"),
                &problem,
            );
            let by_target = attributed_calls(&events);
            for report in &outcome.reports {
                if report.kind == PatchKind::TrivialDead {
                    continue;
                }
                assert_eq!(
                    by_target.get(&report.target_index).copied().unwrap_or(0),
                    report.sat_calls,
                    "{method:?}: events for target {} must match its report",
                    report.target_index
                );
                // The SAT_prune end state travels with the report and
                // its TargetFinished event alike.
                assert_eq!(
                    report.prune.is_some(),
                    method == SupportMethod::SatPrune && report.kind == PatchKind::Sat,
                    "{method:?}: target {} prune block",
                    report.target_index
                );
                assert!(report.prune.is_none_or(|p| p.exact));
                let finished = events.iter().find_map(|e| match e {
                    EcoEvent::TargetFinished {
                        target_index,
                        prune,
                        ..
                    } if *target_index == report.target_index => Some(*prune),
                    _ => None,
                });
                assert_eq!(finished, Some(report.prune));
            }
        }
    }
}

#[test]
fn attributed_sat_calls_match_reports_on_structural_fallback() {
    let options = EcoOptions::builder()
        .per_call_conflicts(Some(0)) // force the fallback
        .cegar_min(true)
        .verify(false)
        .build()
        .expect("valid options");
    let (outcome, events) = record_run(options, &and_vs_or_problem());
    assert_eq!(outcome.reports[0].kind, PatchKind::StructuralCegarMin);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, EcoEvent::StructuralFallback { target_index: 0 })),
        "fallback must be announced"
    );
    let by_target = attributed_calls(&events);
    assert_eq!(
        by_target.get(&0).copied().unwrap_or(0),
        outcome.reports[0].sat_calls,
        "carried calls from the failed SAT attempt stay attributed"
    );
}

#[test]
fn metrics_observer_reconciles_with_reports() {
    let engine =
        EcoEngine::new(EcoOptions::builder().build().expect("valid options")).with_metrics();
    let outcome = engine
        .solve(&multi_target_problem().snapshot())
        .expect("engine run");
    let metrics = outcome.metrics.as_ref().expect("with_metrics attached");
    assert_eq!(metrics.num_targets, 2);
    assert!(!metrics.targets.is_empty());
    for target in &metrics.targets {
        assert_eq!(
            target.observed_sat_calls, target.sat_calls,
            "target {}: event count must equal the reported count",
            target.target_index
        );
        let report = outcome
            .reports
            .iter()
            .find(|r| r.target_index == target.target_index)
            .expect("report exists");
        assert_eq!(target.sat_calls, report.sat_calls);
    }
    let total_by_kind: u64 = metrics.sat_calls.by_kind.iter().map(|k| k.calls).sum();
    assert_eq!(total_by_kind, metrics.sat_calls.total);
    let histogram_total: u64 = metrics.sat_calls.conflict_histogram.iter().sum();
    assert_eq!(histogram_total, metrics.sat_calls.total);
    let latency_total: u64 = metrics.sat_calls.latency_histogram.iter().sum();
    assert_eq!(latency_total, metrics.sat_calls.total);
    let time_by_kind: Duration = metrics.sat_calls.by_kind.iter().map(|k| k.time).sum();
    assert_eq!(time_by_kind, metrics.sat_calls.time);
    assert_eq!(metrics.phases.len(), Phase::ALL.len());
    // The final CEC may be discharged structurally (no SAT call), but the
    // patch-generation calls themselves must be visible.
    assert!(metrics.sat_calls.total > 0);
    assert!(metrics.sat_calls.by_kind[SatCallKind::Support.index()].calls >= 1);
    assert!(
        metrics.sat_calls.time > Duration::ZERO,
        "observed runs must capture solver wall time"
    );
}

fn disjoint_targets_problem() -> EcoProblem {
    // Two targets with disjoint output cones, so the engine can batch
    // them as independent single-target subproblems.
    let mut im = Aig::new();
    let (a, b, c, d) = (
        im.add_input(),
        im.add_input(),
        im.add_input(),
        im.add_input(),
    );
    let t1 = im.and(a, b);
    let t2 = im.and(c, d);
    im.add_output(t1);
    im.add_output(t2);
    let mut sp = Aig::new();
    let (a, b, c, d) = (
        sp.add_input(),
        sp.add_input(),
        sp.add_input(),
        sp.add_input(),
    );
    let o1 = sp.or(a, b);
    let o2 = sp.or(c, d);
    sp.add_output(o1);
    sp.add_output(o2);
    EcoProblem::with_unit_weights(im, sp, vec![t1.node(), t2.node()]).expect("valid")
}

#[test]
fn run_metrics_totals_are_jobs_invariant() {
    for problem in [multi_target_problem(), disjoint_targets_problem()] {
        let run = |jobs: usize| {
            let engine = EcoEngine::new(
                EcoOptions::builder()
                    .jobs(jobs)
                    .build()
                    .expect("valid options"),
            )
            .with_metrics();
            let outcome = engine.solve(&problem.snapshot()).expect("engine run");
            outcome.metrics.expect("with_metrics attached")
        };
        let base = run(1);
        for jobs in [2usize, 4] {
            let m = run(jobs);
            // The structural totals must not move with the worker count;
            // only wall-clock columns (elapsed, sat_time, latency
            // histograms) and worker attribution may.
            assert_eq!(m.jobs, jobs);
            assert_eq!(m.num_targets, base.num_targets);
            assert_eq!(m.sat_calls.total, base.sat_calls.total);
            assert_eq!(m.sat_calls.conflicts, base.sat_calls.conflicts);
            assert_eq!(m.sat_calls.decisions, base.sat_calls.decisions);
            assert_eq!(m.sat_calls.propagations, base.sat_calls.propagations);
            assert_eq!(
                m.sat_calls.conflict_histogram,
                base.sat_calls.conflict_histogram
            );
            for (a, b) in m
                .sat_calls
                .by_kind
                .iter()
                .zip(base.sat_calls.by_kind.iter())
            {
                assert_eq!(a.calls, b.calls);
                assert_eq!(a.conflicts, b.conflicts);
                assert_eq!(a.conflict_histogram, b.conflict_histogram);
            }
            assert_eq!(m.targets.len(), base.targets.len());
            for (a, b) in m.targets.iter().zip(base.targets.iter()) {
                assert_eq!(a.target_index, b.target_index);
                assert_eq!(a.sat_calls, b.sat_calls);
                assert_eq!(a.observed_sat_calls, b.observed_sat_calls);
                assert_eq!(a.conflicts, b.conflicts);
                assert_eq!(a.conflict_histogram, b.conflict_histogram);
            }
            assert_eq!(m.qbf_refinements, base.qbf_refinements);
            assert_eq!(
                m.quantification_refinements,
                base.quantification_refinements
            );
            assert_eq!(
                m.support_minimization_steps,
                base.support_minimization_steps
            );
            assert_eq!(m.structural_fallbacks, base.structural_fallbacks);
            assert_eq!(m.cegar_min_rounds, base.cegar_min_rounds);
            assert_eq!(m.governor_trips, base.governor_trips);
            assert_eq!(m.ladder_steps, base.ladder_steps);
            // Worker attribution partitions the run totals exactly.
            let worker_calls: u64 = m.workers.iter().map(|w| w.sat_calls).sum();
            assert_eq!(worker_calls, m.sat_calls.total);
            let worker_targets: u64 = m.workers.iter().map(|w| w.targets).sum();
            assert_eq!(worker_targets as usize, m.targets.len());
        }
    }
}

fn golden_metrics() -> RunMetrics {
    let mut by_kind = [KindMetrics::default(); 10];
    by_kind[SatCallKind::Support.index()] = KindMetrics {
        calls: 2,
        conflicts: 4,
        time: Duration::from_micros(50),
        conflict_histogram: [1, 1, 0, 0, 0, 0, 0, 0],
        latency_histogram: [0, 2, 0, 0, 0, 0, 0, 0],
    };
    by_kind[SatCallKind::Minimize.index()] = KindMetrics {
        calls: 1,
        conflicts: 3,
        time: Duration::from_micros(30),
        conflict_histogram: [0, 1, 0, 0, 0, 0, 0, 0],
        latency_histogram: [0, 1, 0, 0, 0, 0, 0, 0],
    };
    by_kind[SatCallKind::Cec.index()] = KindMetrics {
        calls: 1,
        conflicts: 2,
        time: Duration::from_micros(10),
        conflict_histogram: [0, 1, 0, 0, 0, 0, 0, 0],
        latency_histogram: [1, 0, 0, 0, 0, 0, 0, 0],
    };
    RunMetrics {
        request_id: Some("req-7".to_string()),
        num_targets: 1,
        per_call_conflicts: Some(1000),
        jobs: 2,
        workers: vec![
            WorkerMetrics {
                worker: 0,
                targets: 0,
                sat_calls: 1,
                conflicts: 2,
                sat_time: Duration::from_micros(10),
            },
            WorkerMetrics {
                worker: 1,
                targets: 1,
                sat_calls: 3,
                conflicts: 7,
                sat_time: Duration::from_micros(80),
            },
        ],
        elapsed: Duration::from_micros(1234),
        phases: vec![PhaseMetrics {
            phase: Phase::SufficiencyCheck,
            elapsed: Duration::from_micros(10),
        }],
        targets: vec![TargetMetrics {
            target_index: 0,
            sat_calls: 3,
            observed_sat_calls: 3,
            conflicts: 7,
            elapsed: Duration::from_micros(100),
            sat_time: Duration::from_micros(80),
            conflict_histogram: [1, 2, 0, 0, 0, 0, 0, 0],
            latency_histogram: [0, 3, 0, 0, 0, 0, 0, 0],
            prune: Some(PruneReport {
                iterations: 24,
                exact: true,
            }),
        }],
        sat_calls: SatCallMetrics {
            total: 4,
            conflicts: 9,
            decisions: 5,
            propagations: 6,
            time: Duration::from_micros(90),
            by_kind,
            conflict_histogram: [1, 3, 0, 0, 0, 0, 0, 0],
            latency_histogram: [1, 3, 0, 0, 0, 0, 0, 0],
        },
        budget: Some(BudgetMetrics {
            per_call_conflicts: 1000,
            max_fraction: 0.5,
            mean_fraction: 0.25,
        }),
        qbf_refinements: 1,
        quantification_refinements: 2,
        support_minimization_steps: 3,
        structural_fallbacks: 0,
        cegar_min_rounds: 4,
        governor_trips: 5,
        ladder_steps: 6,
        cache: CacheCounters {
            window_hits: 1,
            window_misses: 2,
            cnf_hits: 3,
            cnf_misses: 4,
            ..CacheCounters::default()
        },
        serving: ServingCounters {
            shed: 8,
            expired: 9,
            retried: 10,
            panicked: 11,
        },
        sweep: SweepCounters {
            classes: 12,
            merges: 13,
            sweep_sat_calls: 14,
            refinement_rounds: 15,
            nodes_eliminated: 16,
            oracle_hits: 17,
            sim_discharged_outputs: 18,
        },
        classes: ClassesCounters {
            partitions: 19,
            representatives: 20,
            inherited_answers: 21,
            refinement_rounds: 22,
            witness_replays: 23,
        },
    }
}

#[test]
fn run_metrics_golden_json() {
    const ZERO_KIND: &str = "{\"calls\":0,\"conflicts\":0,\"time_us\":0,\
                             \"conflict_histogram\":[0,0,0,0,0,0,0,0],\
                             \"latency_histogram\":[0,0,0,0,0,0,0,0]}";
    let expected = format!(
        concat!(
            "{{\"schema_version\":9,\"request_id\":\"req-7\",",
            "\"num_targets\":1,\"per_call_conflicts\":1000,",
            "\"jobs\":2,\"elapsed_us\":1234,",
            "\"phases\":[{{\"phase\":\"sufficiency_check\",\"elapsed_us\":10}}],",
            "\"targets\":[{{\"target_index\":0,\"sat_calls\":3,\"observed_sat_calls\":3,",
            "\"conflicts\":7,\"elapsed_us\":100,\"sat_time_us\":80,",
            "\"conflict_histogram\":[1,2,0,0,0,0,0,0],",
            "\"latency_histogram\":[0,3,0,0,0,0,0,0],",
            "\"prune\":{{\"iterations\":24,\"exact\":true}}}}],",
            "\"workers\":[{{\"worker\":0,\"targets\":0,\"sat_calls\":1,\"conflicts\":2,",
            "\"sat_time_us\":10}},",
            "{{\"worker\":1,\"targets\":1,\"sat_calls\":3,\"conflicts\":7,",
            "\"sat_time_us\":80}}],",
            "\"sat_calls\":{{\"total\":4,\"conflicts\":9,\"decisions\":5,\"propagations\":6,",
            "\"time_us\":90,\"by_kind\":{{",
            "\"qbf\":{z},",
            "\"support\":{{\"calls\":2,\"conflicts\":4,\"time_us\":50,",
            "\"conflict_histogram\":[1,1,0,0,0,0,0,0],",
            "\"latency_histogram\":[0,2,0,0,0,0,0,0]}},",
            "\"minimize\":{{\"calls\":1,\"conflicts\":3,\"time_us\":30,",
            "\"conflict_histogram\":[0,1,0,0,0,0,0,0],",
            "\"latency_histogram\":[0,1,0,0,0,0,0,0]}},",
            "\"cube_enumeration\":{z},\"sat_prune_search\":{z},\"cegar_min\":{z},",
            "\"refinement\":{z},",
            "\"cec\":{{\"calls\":1,\"conflicts\":2,\"time_us\":10,",
            "\"conflict_histogram\":[0,1,0,0,0,0,0,0],",
            "\"latency_histogram\":[1,0,0,0,0,0,0,0]}},",
            "\"sweep\":{z},\"classes\":{z}}},",
            "\"conflict_histogram\":[1,3,0,0,0,0,0,0],",
            "\"latency_histogram\":[1,3,0,0,0,0,0,0]}},",
            "\"budget\":{{\"per_call_conflicts\":1000,\"max_fraction\":0.500000,",
            "\"mean_fraction\":0.250000}},",
            "\"counters\":{{\"qbf_refinements\":1,\"quantification_refinements\":2,",
            "\"support_minimization_steps\":3,\"structural_fallbacks\":0,",
            "\"cegar_min_rounds\":4,\"governor_trips\":5,\"ladder_steps\":6}},",
            "\"cache\":{{\"netlist_hits\":0,\"netlist_misses\":0,\"window_hits\":1,",
            "\"window_misses\":2,\"cnf_hits\":3,\"cnf_misses\":4,\"target_hits\":0,",
            "\"target_misses\":0,\"outcome_hits\":0,\"outcome_misses\":0}},",
            "\"serving\":{{\"shed\":8,\"expired\":9,\"retried\":10,\"panicked\":11}},",
            "\"sweep\":{{\"classes\":12,\"merges\":13,\"sweep_sat_calls\":14,",
            "\"refinement_rounds\":15,\"nodes_eliminated\":16,\"oracle_hits\":17,",
            "\"sim_discharged_outputs\":18}},",
            "\"classes\":{{\"partitions\":19,\"representatives\":20,",
            "\"inherited_answers\":21,\"refinement_rounds\":22,",
            "\"witness_replays\":23}}}}"
        ),
        z = ZERO_KIND
    );
    assert_eq!(golden_metrics().to_json(), expected);
}

#[test]
fn run_metrics_v9_round_trips_through_parser() {
    let metrics = golden_metrics();
    let doc = parse_json(&metrics.to_json()).expect("schema v9 output is valid JSON");
    let u = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_u64);
    assert_eq!(u(&doc, "schema_version"), Some(9));
    let serving = doc.get("serving").expect("serving counters object");
    assert_eq!(u(serving, "shed"), Some(8));
    assert_eq!(u(serving, "expired"), Some(9));
    assert_eq!(u(serving, "retried"), Some(10));
    assert_eq!(u(serving, "panicked"), Some(11));
    let sweep = doc.get("sweep").expect("sweep counters object");
    assert_eq!(u(sweep, "classes"), Some(12));
    assert_eq!(u(sweep, "merges"), Some(13));
    assert_eq!(u(sweep, "sweep_sat_calls"), Some(14));
    assert_eq!(u(sweep, "refinement_rounds"), Some(15));
    assert_eq!(u(sweep, "nodes_eliminated"), Some(16));
    assert_eq!(u(sweep, "oracle_hits"), Some(17));
    assert_eq!(u(sweep, "sim_discharged_outputs"), Some(18));
    let classes = doc.get("classes").expect("classes counters object");
    assert_eq!(u(classes, "partitions"), Some(19));
    assert_eq!(u(classes, "representatives"), Some(20));
    assert_eq!(u(classes, "inherited_answers"), Some(21));
    assert_eq!(u(classes, "refinement_rounds"), Some(22));
    assert_eq!(u(classes, "witness_replays"), Some(23));
    assert_eq!(
        doc.get("request_id").and_then(JsonValue::as_str),
        Some("req-7")
    );
    let cache = doc.get("cache").expect("cache counters object");
    assert_eq!(u(cache, "window_hits"), Some(1));
    assert_eq!(u(cache, "cnf_misses"), Some(4));
    assert_eq!(u(&doc, "num_targets"), Some(1));
    assert_eq!(u(&doc, "jobs"), Some(2));
    assert_eq!(u(&doc, "elapsed_us"), Some(1234));
    let workers = doc
        .get("workers")
        .and_then(JsonValue::as_array)
        .expect("workers array");
    assert_eq!(workers.len(), 2);
    assert_eq!(u(&workers[1], "worker"), Some(1));
    assert_eq!(u(&workers[1], "targets"), Some(1));
    assert_eq!(u(&workers[1], "sat_calls"), Some(3));
    assert_eq!(u(&workers[1], "sat_time_us"), Some(80));
    let sat = doc.get("sat_calls").expect("sat_calls object");
    assert_eq!(u(sat, "total"), Some(4));
    assert_eq!(u(sat, "time_us"), Some(90));
    let by_kind = sat.get("by_kind").expect("by_kind object");
    for kind in SatCallKind::ALL {
        let entry = by_kind.get(kind.name()).expect("every kind present");
        let calls = u(entry, "calls").expect("calls");
        assert_eq!(
            calls,
            metrics.sat_calls.by_kind[kind.index()].calls,
            "{}",
            kind.name()
        );
        let lat: u64 = entry
            .get("latency_histogram")
            .and_then(JsonValue::as_array)
            .expect("latency histogram")
            .iter()
            .filter_map(JsonValue::as_u64)
            .sum();
        assert_eq!(
            lat,
            calls,
            "histogram mass equals calls for {}",
            kind.name()
        );
    }
    let target = &doc
        .get("targets")
        .and_then(JsonValue::as_array)
        .expect("targets")[0];
    assert_eq!(u(target, "sat_time_us"), Some(80));
    let prune = target.get("prune").expect("prune block");
    assert_eq!(u(prune, "iterations"), Some(24));
    assert_eq!(prune.get("exact").and_then(JsonValue::as_bool), Some(true));
    let budget = doc.get("budget").expect("budget object");
    assert_eq!(
        budget.get("max_fraction").and_then(JsonValue::as_f64),
        Some(0.5)
    );
}
