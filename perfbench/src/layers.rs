//! The traced run: the CLI's pipeline replayed in process, with each
//! call into a layer's public function timed from here and the engine's
//! own `EcoObserver` events read inside `EcoEngine::solve`. Nothing is
//! traced inside the program.

use eco_core::{
    netlist_patches, EcoEngine, EcoEvent, EcoObserver, EcoOptions, EcoProblem, Phase, RunMetrics,
    SupportMethod,
};
use eco_netlist::{parse_verilog, Netlist, WeightTable};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The SAT call kinds reported per layer.
pub const KINDS: [&str; 10] = [
    "qbf",
    "support",
    "minimize",
    "cube_enumeration",
    "sat_prune_search",
    "cegar_min",
    "refinement",
    "cec",
    "sweep",
    "classes",
];

/// Options the traced run solves with: `EcoOptions::default()` plus
/// the method.
pub fn traced_options(method: SupportMethod) -> EcoOptions {
    EcoOptions::builder()
        .method(method)
        .build()
        .expect("default options are valid")
}

/// The options `eco_patch` builds from its flags when only `--method`
/// is given (the builder chain of its `run`, at the flags' defaults).
pub fn cli_options(method: SupportMethod) -> EcoOptions {
    EcoOptions::builder()
        .method(method)
        .per_call_conflicts(Some(2_000_000))
        .structural_fallback(true)
        .timeout(None)
        .global_conflicts(None)
        .jobs(1)
        .sweep(false)
        .classes(false)
        .build()
        .expect("CLI defaults are valid")
}

#[derive(Clone, Copy, Debug, Default)]
pub struct KindTotals {
    pub calls: u64,
    pub conflicts: u64,
    pub time: Duration,
}

/// What the engine's events say about one solve.
#[derive(Clone, Debug, Default)]
pub struct EngineEvents {
    /// Per `Phase::ALL` entry.
    pub phase: [Duration; 4],
    /// SAT time spent inside each phase.
    pub sat_in_phase: [Duration; 4],
    /// SAT time outside every phase.
    pub sat_unphased: Duration,
    pub target_max: Duration,
    /// Per `KINDS` entry.
    pub kinds: [KindTotals; 10],
    /// SAT calls attributed to a target.
    pub observed_calls: u64,
    pub qbf_refinements: u64,
    pub support_steps: u64,
    pub cegar_min_rounds: u64,
    pub ladder_steps: u64,
    pub structural_fallbacks: u64,
    current: Option<usize>,
}

fn phase_index(phase: Phase) -> usize {
    Phase::ALL
        .iter()
        .position(|&p| p == phase)
        .expect("Phase::ALL lists every phase")
}

impl EcoObserver for EngineEvents {
    fn on_event(&mut self, event: &EcoEvent) {
        match event {
            EcoEvent::PhaseStarted { phase } => self.current = Some(phase_index(*phase)),
            EcoEvent::PhaseFinished { phase, elapsed } => {
                self.phase[phase_index(*phase)] += *elapsed;
                self.current = None;
            }
            EcoEvent::TargetFinished { elapsed, .. } => {
                self.target_max = self.target_max.max(*elapsed)
            }
            EcoEvent::SatCall {
                kind,
                target_index,
                conflicts,
                elapsed,
                ..
            } => {
                if let Some(k) = KINDS.iter().position(|&n| n == kind.name()) {
                    let t = &mut self.kinds[k];
                    t.calls += 1;
                    t.conflicts += conflicts;
                    t.time += *elapsed;
                }
                match self.current {
                    Some(p) => self.sat_in_phase[p] += *elapsed,
                    None => self.sat_unphased += *elapsed,
                }
                self.observed_calls += u64::from(target_index.is_some());
            }
            EcoEvent::QbfRefinement { .. } => self.qbf_refinements += 1,
            EcoEvent::SupportMinimizationStep { .. } => self.support_steps += 1,
            EcoEvent::CegarMinRound { .. } => self.cegar_min_rounds += 1,
            EcoEvent::LadderStep { .. } => self.ladder_steps += 1,
            EcoEvent::StructuralFallback { .. } => self.structural_fallbacks += 1,
            _ => {}
        }
    }
}

/// One instance as the CLI receives it.
pub struct Instance {
    pub name: String,
    pub impl_text: String,
    pub spec_text: String,
    pub weights_text: String,
}

/// The traced run of one instance.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    pub parse: Duration,
    pub to_aig: Duration,
    pub build: Duration,
    pub solve: Duration,
    pub emit: Duration,
    pub total: Duration,
    pub events: EngineEvents,
    /// Sum of the per-target report SAT call counters.
    pub reported_calls: u64,
    /// The run's `RunMetrics` (observed runs only).
    pub metrics: Option<RunMetrics>,
    pub cost: u64,
    pub gates: u64,
    pub verified: bool,
    pub patched: String,
}

impl Traced {
    /// `sweep.oracle_hits + classes.inherited_answers` of the run's
    /// `RunMetrics`: the calls the support oracles answered.
    pub fn oracle_answers(&self) -> u64 {
        self.metrics
            .as_ref()
            .map_or(0, |m| m.sweep.oracle_hits + m.classes.inherited_answers)
    }
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed();
    out
}

/// Runs `instance` through the CLI's pipeline with `options`, timing
/// each layer. With `observe` false the engine runs without observers,
/// as the CLI does, and only the layer timings are taken.
pub fn trace(instance: &Instance, options: &EcoOptions, observe: bool) -> Result<Traced, String> {
    let mut t = Traced::default();
    let start = Instant::now();
    let (im, spec, weights) = timed(&mut t.parse, || {
        Ok::<_, String>((
            parse_verilog(&instance.impl_text).map_err(|e| e.to_string())?,
            parse_verilog(&instance.spec_text).map_err(|e| e.to_string())?,
            WeightTable::parse(&instance.weights_text).map_err(|e| e.to_string())?,
        ))
    })?;
    let conversion = timed(&mut t.to_aig, || im.netlist.to_aig()).map_err(|e| e.to_string())?;
    let names: Vec<&str> = im.targets.iter().map(String::as_str).collect();
    let snapshot = timed(&mut t.build, || {
        EcoProblem::from_netlists(&im.netlist, &spec.netlist, &names, &weights, 100)
            .map(|p| p.snapshot())
    })
    .map_err(|e| e.to_string())?;
    let events = Arc::new(Mutex::new(EngineEvents::default()));
    let mut engine = EcoEngine::new(options.clone());
    if observe {
        engine = engine
            .with_shared_observer(events.clone() as Arc<Mutex<dyn EcoObserver + Send>>)
            .with_metrics();
    }
    let outcome = timed(&mut t.solve, || engine.solve(&snapshot)).map_err(|e| e.to_string())?;
    drop(engine);
    let patched = timed(&mut t.emit, || {
        let named = netlist_patches(&outcome, &names, &im.netlist, &conversion);
        let netlist = if named.iter().all(Option::is_some) {
            let mut current = im.netlist.clone();
            for (i, np) in named.iter().flatten().enumerate() {
                current = current
                    .insert_patch(&np.target_net, &np.patch, &format!("eco{i}"))
                    .map_err(|e| e.to_string())?;
            }
            current
        } else {
            Netlist::from_aig(
                format!("{}_patched", im.netlist.name()),
                &outcome.patched_implementation,
            )
        };
        Ok::<_, String>(netlist.to_verilog())
    })?;
    t.total = start.elapsed();
    t.events = events.lock().expect("observer lock").clone();
    t.reported_calls = outcome.reports.iter().map(|r| r.sat_calls).sum();
    t.metrics = outcome.metrics;
    t.cost = outcome.total_cost;
    t.gates = outcome.total_gates as u64;
    t.verified = outcome.verified;
    t.patched = patched;
    Ok(t)
}

/// The per-layer consistency rules a traced run must meet.
pub fn consistency(name: &str, t: &Traced) -> Vec<String> {
    let mut problems = Vec::new();
    let phases: Duration = t.events.phase.iter().sum();
    if phases > t.solve {
        problems.push(format!(
            "{name}: phases {phases:?} exceed engine.solve {:?}",
            t.solve
        ));
    }
    for (i, phase) in Phase::ALL.iter().enumerate() {
        if t.events.sat_in_phase[i] > t.events.phase[i] {
            problems.push(format!(
                "{name}: SAT time {:?} exceeds phase {} {:?}",
                t.events.sat_in_phase[i],
                phase.name(),
                t.events.phase[i]
            ));
        }
    }
    if t.events.sat_unphased > Duration::ZERO {
        problems.push(format!("{name}: SAT time outside every phase"));
    }
    let saved = t.reported_calls.checked_sub(t.events.observed_calls);
    if saved != Some(t.oracle_answers()) {
        problems.push(format!(
            "{name}: oracle.saved_calls {saved:?} != oracle hits + inherited answers {}",
            t.oracle_answers()
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_benchgen::{build_unit, render_unit, table1_units};

    fn instance(index: usize, scale: f64) -> Instance {
        let spec = &table1_units(scale)[index];
        let files = render_unit(spec, &build_unit(spec));
        Instance {
            name: spec.name.to_string(),
            impl_text: files.implementation,
            spec_text: files.specification,
            weights_text: files.weights,
        }
    }

    #[test]
    fn traced_options_are_the_cli_defaults() {
        for m in [
            SupportMethod::AnalyzeFinal,
            SupportMethod::MinimizeAssumptions,
            SupportMethod::SatPrune,
        ] {
            assert_eq!(
                format!("{:?}", traced_options(m)),
                format!("{:?}", cli_options(m))
            );
        }
    }

    #[test]
    fn layers_are_consistent_on_every_method() {
        for m in [SupportMethod::MinimizeAssumptions, SupportMethod::SatPrune] {
            for unit in [4, 8, 13, 16] {
                let inst = instance(unit, 0.02);
                let t = trace(&inst, &traced_options(m), true).expect("solves");
                assert!(t.verified, "{}", inst.name);
                assert_eq!(consistency(&inst.name, &t), Vec::<String>::new());
                assert!(t.events.phase.iter().all(|p| *p > Duration::ZERO));
                let sat: Duration = t.events.kinds.iter().map(|k| k.time).sum();
                assert_eq!(sat, t.events.sat_in_phase.iter().sum::<Duration>());
            }
        }
    }

    #[test]
    fn saved_calls_match_the_oracles_when_they_answer() {
        let inst = instance(16, 0.02);
        let options = EcoOptions::builder()
            .method(SupportMethod::SatPrune)
            .sweep(true)
            .classes(true)
            .build()
            .unwrap();
        let t = trace(&inst, &options, true).expect("solves");
        assert!(t.oracle_answers() > 0, "the oracles answered nothing");
        assert_eq!(consistency(&inst.name, &t), Vec::<String>::new());
    }

    #[test]
    fn observed_counters_agree_with_run_metrics() {
        let inst = instance(13, 0.04);
        let t = trace(&inst, &traced_options(SupportMethod::SatPrune), true).unwrap();
        let m = t.metrics.as_ref().expect("observed runs carry metrics");
        let e = &t.events;
        assert_eq!(
            (e.qbf_refinements, e.support_steps, e.cegar_min_rounds),
            (
                m.qbf_refinements,
                m.support_minimization_steps,
                m.cegar_min_rounds
            )
        );
        assert_eq!(
            (e.ladder_steps, e.structural_fallbacks),
            (m.ladder_steps, m.structural_fallbacks)
        );
        assert_eq!(
            e.kinds.iter().map(|k| k.calls).sum::<u64>(),
            m.sat_calls.total
        );
    }

    #[test]
    fn tracing_does_not_change_the_result() {
        let inst = instance(13, 0.04);
        let t = trace(&inst, &traced_options(SupportMethod::SatPrune), true).unwrap();
        let plain = trace(&inst, &traced_options(SupportMethod::SatPrune), false).unwrap();
        assert_eq!(
            (t.cost, t.gates, &t.patched),
            (plain.cost, plain.gates, &plain.patched)
        );
        assert_eq!(plain.events.observed_calls, 0);
    }
}
