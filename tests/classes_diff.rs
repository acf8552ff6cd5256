//! Byte-identity suite for `--classes`: the test-equivalence-class
//! layer may only *inherit* SAT verdicts it can prove from stored
//! witnesses (Sat) or feasible-set monotonicity (Unsat) — it must
//! never move a support, a patch, a cost, a disposition, or a byte of
//! the emitted netlist. Classes on must never issue *more* SAT calls
//! than classes off, and every avoided call must be accounted for in
//! `classes.inherited_answers` (the PR 8 sweep audit pattern).

use std::io::Write;
use std::process::Command;

use eco_patch::benchgen::{build_unit, table1_units};
use eco_patch::core::{
    AppliedPatch, EcoEngine, EcoOptions, EcoOutcome, EcoProblem, RunMetrics, SupportMethod,
};
use eco_patch::netlist::Netlist;

const TEST_SCALE: f64 = 0.02;

fn run(problem: &EcoProblem, options: EcoOptions, name: &str) -> EcoOutcome {
    EcoEngine::new(options)
        .with_metrics()
        .solve(&problem.snapshot())
        .unwrap_or_else(|e| panic!("{name} failed: {e}"))
}

fn patched_text(outcome: &EcoOutcome) -> String {
    Netlist::from_aig("patched".to_string(), &outcome.patched_implementation).to_verilog()
}

fn patch_fingerprint(p: &AppliedPatch) -> String {
    format!(
        "target={} support={:?} original={:?} aig={}",
        p.target_index,
        p.support,
        p.original_support,
        Netlist::from_aig("patch".to_string(), &p.aig).to_verilog()
    )
}

fn assert_outcomes_identical(off: &EcoOutcome, on: &EcoOutcome, name: &str) {
    assert_eq!(
        format!("{:?}", off.reports),
        format!("{:?}", on.reports),
        "{name}: per-target reports (dispositions, kinds, costs, sat_calls) must not move"
    );
    let fingerprints = |o: &EcoOutcome| o.patches.iter().map(patch_fingerprint).collect::<Vec<_>>();
    assert_eq!(
        fingerprints(off),
        fingerprints(on),
        "{name}: applied patches must not move"
    );
    assert_eq!(off.total_cost, on.total_cost, "{name}: total cost");
    assert_eq!(off.total_gates, on.total_gates, "{name}: total gates");
    assert_eq!(off.verified, on.verified, "{name}: verification verdict");
    assert_eq!(
        patched_text(off),
        patched_text(on),
        "{name}: patched netlist text must be byte-identical"
    );
}

fn metrics<'a>(outcome: &'a EcoOutcome, name: &str) -> &'a RunMetrics {
    outcome
        .metrics
        .as_ref()
        .unwrap_or_else(|| panic!("{name}: metrics requested"))
}

/// Every SAT call the optimized run avoided is accounted for:
/// `observed_off + hits_off + inherited_off == observed_on + hits_on +
/// inherited_on`, i.e. the per-target `sat_calls` tallies (which count
/// inherited answers as if spent) balance exactly.
fn assert_savings_audited(off: &RunMetrics, on: &RunMetrics, name: &str) {
    let spent =
        |m: &RunMetrics| m.sat_calls.total + m.sweep.oracle_hits + m.classes.inherited_answers;
    assert_eq!(
        spent(off),
        spent(on),
        "{name}: observed + sweep hits + inherited answers must balance \
         (off: {} + {} + {}, on: {} + {} + {})",
        off.sat_calls.total,
        off.sweep.oracle_hits,
        off.classes.inherited_answers,
        on.sat_calls.total,
        on.sweep.oracle_hits,
        on.classes.inherited_answers
    );
}

/// Inherited answers on unit20 (scale 0.008) under `SatPrune`: zero
/// since the search loop's subset checks bypass the class layer.
const PRUNE_INHERITED_ANSWERS: u64 = 0;
#[test]
fn classes_on_matches_classes_off_byte_for_byte() {
    for unit in table1_units(TEST_SCALE).iter() {
        let problem = build_unit(unit);
        let opts = |classes: bool| {
            EcoOptions::builder()
                .classes(classes)
                .build()
                .expect("valid options")
        };
        let off = run(&problem, opts(false), unit.name);
        let on = run(&problem, opts(true), unit.name);
        assert_outcomes_identical(&off, &on, unit.name);
        let (off_m, on_m) = (metrics(&off, unit.name), metrics(&on, unit.name));
        assert!(
            on_m.sat_calls.total <= off_m.sat_calls.total,
            "{}: classes must not add SAT calls",
            unit.name
        );
        assert_savings_audited(off_m, on_m, unit.name);
        assert_eq!(
            off_m.classes.inherited_answers, 0,
            "{}: classes-off emits no class events",
            unit.name
        );
    }
}

#[test]
fn classes_never_add_sat_calls_on_unit20() {
    // SatPrune issues orders of magnitude more subset-feasibility
    // calls than MinimizeAssumptions, so it runs at a smaller scale to
    // keep the unoptimized test build quick.
    for (method, scale) in [
        (SupportMethod::MinimizeAssumptions, TEST_SCALE),
        (SupportMethod::SatPrune, 0.008),
    ] {
        let unit = table1_units(scale)
            .into_iter()
            .find(|u| u.name == "unit20")
            .expect("unit20 exists");
        let problem = build_unit(&unit);
        let opts = |classes: bool| {
            EcoOptions::builder()
                .method(method)
                .classes(classes)
                .build()
                .expect("valid options")
        };
        let name = format!("unit20/{method:?}");
        let off = run(&problem, opts(false), &name);
        let on = run(&problem, opts(true), &name);
        assert_outcomes_identical(&off, &on, &name);
        let (off_m, on_m) = (metrics(&off, &name), metrics(&on, &name));
        assert!(
            on_m.sat_calls.total <= off_m.sat_calls.total,
            "{name}: classes-on issued {} SAT calls, classes-off {}",
            on_m.sat_calls.total,
            off_m.sat_calls.total
        );
        assert_savings_audited(off_m, on_m, &name);
        // The layer actually engaged: divisor partitions were built and
        // the counters made it into RunMetrics.
        assert!(
            on_m.classes.partitions > 0,
            "{name}: the class layer never partitioned"
        );
        if method == SupportMethod::SatPrune {
            // Everything is seeded, so the counts are deterministic.
            // SAT_prune's explained subset checks always reach the
            // solver (their models and cores are the explanation), so
            // the class layer no longer answers inside the search loop.
            assert_eq!(
                on_m.classes.inherited_answers, PRUNE_INHERITED_ANSWERS,
                "{name}: inherited answers moved"
            );
            assert_eq!(
                off_m.sat_calls.total - on_m.sat_calls.total,
                PRUNE_INHERITED_ANSWERS,
                "{name}: every inherited answer saves exactly one SAT call"
            );
        }
    }
}

#[test]
fn classed_runs_are_jobs_invariant() {
    for unit in table1_units(TEST_SCALE).iter().take(6) {
        let problem = build_unit(unit);
        let opts = |jobs: usize| {
            EcoOptions::builder()
                .classes(true)
                .jobs(jobs)
                .build()
                .expect("valid options")
        };
        let seq = run(&problem, opts(1), unit.name);
        let par = run(&problem, opts(4), unit.name);
        assert_outcomes_identical(&seq, &par, unit.name);
        assert_eq!(
            metrics(&seq, unit.name).classes,
            metrics(&par, unit.name).classes,
            "{}: class counters are jobs-invariant",
            unit.name
        );
    }
}

#[test]
fn classes_compose_with_sweep_byte_for_byte() {
    // The two verdict-preserving layers stacked must still match a
    // bare run, and the combined savings must balance the audit
    // equation (sweep is consulted first, classes second, so the
    // split between them is config-dependent — only the sum is
    // pinned).
    let unit = table1_units(0.008)
        .into_iter()
        .find(|u| u.name == "unit20")
        .expect("unit20 exists");
    let problem = build_unit(&unit);
    let opts = |sweep: bool, classes: bool| {
        EcoOptions::builder()
            .method(SupportMethod::SatPrune)
            .sweep(sweep)
            .classes(classes)
            .build()
            .expect("valid options")
    };
    let bare = run(&problem, opts(false, false), "bare");
    let both = run(&problem, opts(true, true), "sweep+classes");
    assert_outcomes_identical(&bare, &both, "unit20 sweep+classes");
    let (bare_m, both_m) = (metrics(&bare, "bare"), metrics(&both, "sweep+classes"));
    assert!(
        both_m.sat_calls.total <= bare_m.sat_calls.total,
        "stacked layers must not add SAT calls"
    );
    assert_savings_audited(bare_m, both_m, "unit20 sweep+classes");
}

const IMPLEMENTATION: &str = "
module adder (a, b, cin, sum, cout);
  input a, b, cin;
  output sum, cout;
  wire s1, c1, c2;
  // eco_target c1
  xor g1 (s1, a, b);
  xor g2 (sum, s1, cin);
  or  g3 (c1, a, b);
  and g4 (c2, s1, cin);
  or  g5 (cout, c1, c2);
endmodule
";

const SPECIFICATION: &str = "
module adder (a, b, cin, sum, cout);
  input a, b, cin;
  output sum, cout;
  wire s1, c1, c2;
  xor g1 (s1, a, b);
  xor g2 (sum, s1, cin);
  and g3 (c1, a, b);
  and g4 (c2, s1, cin);
  or  g5 (cout, c1, c2);
endmodule
";

#[test]
fn cli_classes_flag_keeps_exit_code_and_output_bytes() {
    let dir = std::env::temp_dir().join(format!("eco_classes_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let write = |name: &str, content: &str| {
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path).expect("create");
        f.write_all(content.as_bytes()).expect("write");
        path.to_string_lossy().into_owned()
    };
    let f = write("F.v", IMPLEMENTATION);
    let g = write("G.v", SPECIFICATION);
    let mut variants = Vec::new();
    for classes in [false, true] {
        let out = dir
            .join(if classes { "on.v" } else { "off.v" })
            .to_string_lossy()
            .into_owned();
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_eco_patch"));
        cmd.args(["--impl", &f, "--spec", &g, "--out", &out]);
        if classes {
            cmd.arg("--classes");
        }
        let status = cmd.status().expect("binary runs");
        variants.push((status.code(), std::fs::read(&out).expect("output written")));
    }
    assert_eq!(variants[0].0, variants[1].0, "exit codes must match");
    assert_eq!(
        variants[0].1, variants[1].1,
        "patched netlists must be byte-identical with and without --classes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
