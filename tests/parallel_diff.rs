//! Parallel determinism suite: the engine must produce byte-identical
//! results at every `jobs` setting. Solving the members of an
//! independent-target batch on worker threads changes *where* work
//! runs, never *what* is computed, so the patched netlist text, the
//! applied patches, the per-target reports, and the number of SAT
//! calls must not move between `--jobs 1`, `2` and `4`.

use eco_patch::benchgen::{build_unit, table1_units};
use eco_patch::core::{
    check_equivalence, AppliedPatch, CecResult, EcoEngine, EcoOptions, EcoOutcome, EcoProblem,
    GovernorLimits, ResourceGovernor, SupportMethod,
};
use eco_patch::netlist::Netlist;

const TEST_SCALE: f64 = 0.02;

fn run_at(problem: &EcoProblem, options: EcoOptions, name: &str) -> EcoOutcome {
    EcoEngine::new(options)
        .solve(&problem.snapshot())
        .unwrap_or_else(|e| panic!("{name} failed: {e}"))
}

/// Serializes the patched implementation exactly as the CLI's rebuilt
/// path would, so "byte-identical" means the emitted artifact.
fn patched_text(outcome: &EcoOutcome) -> String {
    Netlist::from_aig("patched".to_string(), &outcome.patched_implementation).to_verilog()
}

/// A deterministic rendering of one applied patch: target, support
/// literals, and the patch network serialized as Verilog (the `Aig`
/// `Debug` form is unsuitable — its strash map iterates in hash
/// order).
fn patch_fingerprint(p: &AppliedPatch) -> String {
    format!(
        "target={} support={:?} original={:?} aig={}",
        p.target_index,
        p.support,
        p.original_support,
        Netlist::from_aig("patch".to_string(), &p.aig).to_verilog()
    )
}

fn assert_outcomes_identical(seq: &EcoOutcome, par: &EcoOutcome, name: &str) {
    assert_eq!(
        format!("{:?}", seq.reports),
        format!("{:?}", par.reports),
        "{name}: per-target reports (dispositions, kinds, costs) must be jobs-invariant"
    );
    let fingerprints = |o: &EcoOutcome| o.patches.iter().map(patch_fingerprint).collect::<Vec<_>>();
    assert_eq!(
        fingerprints(seq),
        fingerprints(par),
        "{name}: applied patches must be jobs-invariant"
    );
    assert_eq!(seq.total_cost, par.total_cost, "{name}: total cost");
    assert_eq!(seq.total_gates, par.total_gates, "{name}: total gates");
    assert_eq!(seq.verified, par.verified, "{name}: verification verdict");
    assert_eq!(
        patched_text(seq),
        patched_text(par),
        "{name}: patched netlist text must be byte-identical"
    );
}

#[test]
fn suite_outcomes_are_byte_identical_across_jobs() {
    for unit in table1_units(TEST_SCALE).iter() {
        let problem = build_unit(unit);
        let opts = |jobs: usize| {
            EcoOptions::builder()
                .jobs(jobs)
                .build()
                .expect("valid options")
        };
        let seq = run_at(&problem, opts(1), unit.name);
        let par = run_at(&problem, opts(4), unit.name);
        assert_outcomes_identical(&seq, &par, unit.name);
        // Both patched netlists are real repairs, not merely identical.
        for (label, outcome) in [("jobs=1", &seq), ("jobs=4", &par)] {
            assert_eq!(
                check_equivalence(
                    &outcome.patched_implementation,
                    &problem.specification,
                    None
                ),
                CecResult::Equivalent,
                "{} ({label}): patched netlist must match the spec",
                unit.name
            );
        }
    }
}

#[test]
fn degradation_ladder_is_jobs_invariant_under_per_call_budgets() {
    // A tight per-call budget forces the degradation ladder on every
    // target. The ladder runs its rungs in order on the target's own
    // thread, so the result must match jobs=1 byte for byte.
    for unit in table1_units(TEST_SCALE).iter().take(6) {
        let problem = build_unit(unit);
        let opts = |jobs: usize| {
            EcoOptions::builder()
                .per_call_conflicts(Some(2))
                .cegar_min(true)
                .jobs(jobs)
                .build()
                .expect("valid options")
        };
        let seq = run_at(&problem, opts(1), unit.name);
        let par = run_at(&problem, opts(4), unit.name);
        assert_outcomes_identical(&seq, &par, unit.name);
    }
}

#[test]
fn sat_prune_suite_is_byte_identical_across_jobs() {
    for unit in table1_units(TEST_SCALE)
        .iter()
        .filter(|u| u.num_targets >= 2)
        .take(4)
    {
        let problem = build_unit(unit);
        let opts = |jobs: usize| {
            EcoOptions::builder()
                .method(SupportMethod::SatPrune)
                .jobs(jobs)
                .build()
                .expect("valid options")
        };
        let seq = run_at(&problem, opts(1), unit.name);
        let par = run_at(&problem, opts(4), unit.name);
        assert_outcomes_identical(&seq, &par, unit.name);
    }
}

#[test]
fn governor_sees_the_same_sat_calls_at_every_job_count() {
    // Every SAT call of a run draws on the run's governor, which holds
    // the global budget pool, the fault plan's call index, and the
    // daemon's fair-share pool. Threads may only move work, never add
    // any, so the governor must count the same calls at every `jobs`.
    for unit in table1_units(TEST_SCALE).iter() {
        let problem = build_unit(unit);
        let calls = |jobs: usize| {
            let governor = ResourceGovernor::new(GovernorLimits::default());
            let options = EcoOptions::builder()
                .jobs(jobs)
                .build()
                .expect("valid options");
            EcoEngine::new(options)
                .with_governor(governor.clone())
                .solve(&problem.snapshot())
                .unwrap_or_else(|e| panic!("{} at jobs={jobs} failed: {e}", unit.name));
            governor.sat_calls()
        };
        let seq = calls(1);
        for jobs in [2, 4] {
            assert_eq!(
                calls(jobs),
                seq,
                "{}: governor SAT calls at jobs={jobs} vs jobs=1",
                unit.name
            );
        }
    }
}
