//! # eco-bench
//!
//! Harness shared by the `table1` and ablation binaries and the
//! hand-rolled benches: run the engine over the synthetic suite,
//! collect the columns of the paper's Table 1, and print/aggregate
//! them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;

use eco_benchgen::UnitSpec;
use eco_core::{EcoEngine, EcoOptions, EcoProblem, RunMetrics, SupportMethod};
use std::time::Duration;

/// One Table 1 cell group for one method: resource cost, patch size,
/// runtime.
#[derive(Clone, Debug)]
pub struct MethodResult {
    /// Total resource cost of the patch supports.
    pub cost: u64,
    /// AND gates across all patch networks.
    pub gates: usize,
    /// Wall-clock runtime.
    pub time: Duration,
    /// Whether the final equivalence check passed.
    pub verified: bool,
    /// Aggregated solver telemetry for the run (`None` when the run
    /// errored out).
    pub metrics: Option<RunMetrics>,
}

/// A full row: unit statistics plus the three method results.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// The unit description.
    pub unit: UnitSpec,
    /// Gates in the generated implementation.
    pub impl_gates: usize,
    /// Gates in the specification.
    pub spec_gates: usize,
    /// Baseline (`analyze_final`, "w/o minimize_assumptions").
    pub baseline: MethodResult,
    /// `minimize_assumptions` (the contest-winning configuration).
    pub minimized: MethodResult,
    /// `SAT_prune` + `CEGAR_min`.
    pub pruned: MethodResult,
}

/// Engine options for one of the paper's three method columns.
pub fn options_for(method: SupportMethod, per_call_conflicts: Option<u64>) -> EcoOptions {
    options_for_jobs(method, per_call_conflicts, 1)
}

/// [`options_for`] with a worker count for the engine's parallel
/// backend (`jobs = 1` reproduces the sequential configuration).
pub fn options_for_jobs(
    method: SupportMethod,
    per_call_conflicts: Option<u64>,
    jobs: usize,
) -> EcoOptions {
    options_configured(method, per_call_conflicts, jobs, false)
}

/// [`options_for_jobs`] with the simulation-guided SAT-sweeping layer
/// toggled. Sweeping keeps every output byte-identical; only the
/// SAT-call and runtime columns may move, which is exactly what the
/// bench measures.
pub fn options_configured(
    method: SupportMethod,
    per_call_conflicts: Option<u64>,
    jobs: usize,
    sweep: bool,
) -> EcoOptions {
    options_configured_classes(method, per_call_conflicts, jobs, sweep, false)
}

/// [`options_configured`] with the test-equivalence-class layer
/// toggled. Like sweeping, classes keep every output byte-identical
/// while dropping observed SAT calls.
pub fn options_configured_classes(
    method: SupportMethod,
    per_call_conflicts: Option<u64>,
    jobs: usize,
    sweep: bool,
    classes: bool,
) -> EcoOptions {
    EcoOptions::builder()
        .sweep(sweep)
        .classes(classes)
        .method(method)
        .cegar_min(method == SupportMethod::SatPrune)
        .per_call_conflicts(per_call_conflicts)
        .jobs(jobs)
        .build()
        .expect("bench options are valid")
}

/// Runs one method on one problem and reports the Table 1 columns,
/// capturing [`RunMetrics`] telemetry alongside them.
pub fn run_method(
    problem: &EcoProblem,
    method: SupportMethod,
    per_call_conflicts: Option<u64>,
) -> MethodResult {
    run_method_jobs(problem, method, per_call_conflicts, 1)
}

/// [`run_method`] with a worker count; patches and metric totals are
/// jobs-invariant, so only the wall-clock column should move.
pub fn run_method_jobs(
    problem: &EcoProblem,
    method: SupportMethod,
    per_call_conflicts: Option<u64>,
    jobs: usize,
) -> MethodResult {
    run_method_configured(problem, method, per_call_conflicts, jobs, false)
}

/// [`run_method_jobs`] with the SAT-sweeping layer toggled.
pub fn run_method_configured(
    problem: &EcoProblem,
    method: SupportMethod,
    per_call_conflicts: Option<u64>,
    jobs: usize,
    sweep: bool,
) -> MethodResult {
    run_method_configured_classes(problem, method, per_call_conflicts, jobs, sweep, false)
}

/// [`run_method_configured`] with the test-equivalence-class layer
/// toggled.
pub fn run_method_configured_classes(
    problem: &EcoProblem,
    method: SupportMethod,
    per_call_conflicts: Option<u64>,
    jobs: usize,
    sweep: bool,
    classes: bool,
) -> MethodResult {
    let engine = EcoEngine::new(options_configured_classes(
        method,
        per_call_conflicts,
        jobs,
        sweep,
        classes,
    ))
    .with_metrics();
    let t = std::time::Instant::now();
    match engine.solve(&problem.snapshot()) {
        Ok(out) => MethodResult {
            cost: out.total_cost,
            gates: out.total_gates,
            time: t.elapsed(),
            verified: out.verified,
            metrics: out.metrics,
        },
        Err(e) => {
            // An error row is reported as unverified with saturated cost so
            // it is visible in the output rather than silently dropped.
            eprintln!("warning: {method:?} failed: {e}");
            MethodResult {
                cost: u64::MAX,
                gates: usize::MAX,
                time: t.elapsed(),
                verified: false,
                metrics: None,
            }
        }
    }
}

/// Runs all three methods on one unit.
pub fn run_unit(unit: &UnitSpec, problem: &EcoProblem, budget: Option<u64>) -> Table1Row {
    run_unit_jobs(unit, problem, budget, 1)
}

/// [`run_unit`] with a worker count for all three method columns.
pub fn run_unit_jobs(
    unit: &UnitSpec,
    problem: &EcoProblem,
    budget: Option<u64>,
    jobs: usize,
) -> Table1Row {
    Table1Row {
        unit: unit.clone(),
        impl_gates: problem.implementation.num_ands(),
        spec_gates: problem.specification.num_ands(),
        baseline: run_method_jobs(problem, SupportMethod::AnalyzeFinal, budget, jobs),
        minimized: run_method_jobs(problem, SupportMethod::MinimizeAssumptions, budget, jobs),
        pruned: run_method_jobs(problem, SupportMethod::SatPrune, budget, jobs),
    }
}

/// Geometric mean of the per-row ratios `select(row) / base(row)`,
/// skipping rows where either side is zero or non-finite.
pub fn geomean_ratio(
    rows: &[Table1Row],
    select: impl Fn(&Table1Row) -> f64,
    base: impl Fn(&Table1Row) -> f64,
) -> f64 {
    let mut log_sum = 0.0;
    let mut count = 0usize;
    for row in rows {
        let b = base(row);
        let s = select(row);
        if b > 0.0 && s > 0.0 && b.is_finite() && s.is_finite() {
            log_sum += (s / b).ln();
            count += 1;
        }
    }
    if count == 0 {
        1.0
    } else {
        (log_sum / count as f64).exp()
    }
}

/// Prints a Table 1-shaped report with the geomean footer.
pub fn print_table(rows: &[Table1Row]) {
    println!(
        "{:<8} {:>5} {:>5} {:>7} {:>7} {:>3} | {:^26} | {:^26} | {:^26}",
        "",
        "",
        "",
        "",
        "",
        "",
        "w/o minimize_assumptions",
        "w/ minimize_assumptions",
        "SAT_prune+CEGAR_min"
    );
    println!(
        "{:<8} {:>5} {:>5} {:>7} {:>7} {:>3} | {:>10} {:>6} {:>8} | {:>10} {:>6} {:>8} | {:>10} {:>6} {:>8}",
        "unit", "PI", "PO", "gF", "gS", "#t",
        "cost", "gate", "time",
        "cost", "gate", "time",
        "cost", "gate", "time"
    );
    for row in rows {
        let fmt = |m: &MethodResult| -> (String, String, String) {
            if m.cost == u64::MAX {
                (
                    "-".into(),
                    "-".into(),
                    format!("{:.2}", m.time.as_secs_f64()),
                )
            } else {
                (
                    m.cost.to_string(),
                    m.gates.to_string(),
                    format!(
                        "{:.2}{}",
                        m.time.as_secs_f64(),
                        if m.verified { "" } else { "*" }
                    ),
                )
            }
        };
        let (bc, bg, bt) = fmt(&row.baseline);
        let (mc, mg, mt) = fmt(&row.minimized);
        let (pc, pg, pt) = fmt(&row.pruned);
        println!(
            "{:<8} {:>5} {:>5} {:>7} {:>7} {:>3} | {:>10} {:>6} {:>8} | {:>10} {:>6} {:>8} | {:>10} {:>6} {:>8}",
            row.unit.name,
            row.unit.num_inputs,
            row.unit.num_outputs,
            row.impl_gates,
            row.spec_gates,
            row.unit.num_targets,
            bc, bg, bt, mc, mg, mt, pc, pg, pt
        );
    }
    let cost_min = geomean_ratio(
        rows,
        |r| r.minimized.cost as f64,
        |r| r.baseline.cost as f64,
    );
    let gate_min = geomean_ratio(
        rows,
        |r| r.minimized.gates as f64,
        |r| r.baseline.gates as f64,
    );
    let time_min = geomean_ratio(
        rows,
        |r| r.minimized.time.as_secs_f64(),
        |r| r.baseline.time.as_secs_f64(),
    );
    let cost_prn = geomean_ratio(rows, |r| r.pruned.cost as f64, |r| r.baseline.cost as f64);
    let gate_prn = geomean_ratio(rows, |r| r.pruned.gates as f64, |r| r.baseline.gates as f64);
    let time_prn = geomean_ratio(
        rows,
        |r| r.pruned.time.as_secs_f64(),
        |r| r.baseline.time.as_secs_f64(),
    );
    println!(
        "{:<38} | {:>10} {:>6} {:>8} | {:>10.2} {:>6.2} {:>7.2}x | {:>10.2} {:>6.2} {:>7.2}x",
        "Geomean (ratio vs baseline)",
        "1",
        "1",
        "1x",
        cost_min,
        gate_min,
        time_min,
        cost_prn,
        gate_prn,
        time_prn
    );
    println!("\npaper's geomeans:    w/ minimize_assumptions 0.26 / 0.47 / 2.12x");
    println!("                     SAT_prune+CEGAR_min      0.24 / 0.43 / 19.31x");
    println!("(*) = final verification skipped or out of budget");
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_core::WeightDistribution;

    fn dummy_row(bc: u64, mc: u64, pc: u64) -> Table1Row {
        let m = |c: u64| MethodResult {
            cost: c,
            gates: c as usize,
            time: Duration::from_millis(c.max(1)),
            verified: true,
            metrics: None,
        };
        Table1Row {
            unit: UnitSpec {
                name: "unitX",
                num_inputs: 1,
                num_outputs: 1,
                num_gates: 1,
                num_targets: 1,
                weights: WeightDistribution::T1,
                seed: 0,
            },
            impl_gates: 1,
            spec_gates: 1,
            baseline: m(bc),
            minimized: m(mc),
            pruned: m(pc),
        }
    }

    #[test]
    fn geomean_of_identical_rows() {
        let rows = vec![dummy_row(100, 25, 20), dummy_row(100, 25, 20)];
        let r = geomean_ratio(
            &rows,
            |r| r.minimized.cost as f64,
            |r| r.baseline.cost as f64,
        );
        assert!((r - 0.25).abs() < 1e-9);
    }

    #[test]
    fn geomean_skips_zero_bases() {
        let rows = vec![dummy_row(0, 10, 10), dummy_row(100, 50, 25)];
        let r = geomean_ratio(
            &rows,
            |r| r.minimized.cost as f64,
            |r| r.baseline.cost as f64,
        );
        assert!((r - 0.5).abs() < 1e-9);
    }

    #[test]
    fn geomean_empty_is_one() {
        let r = geomean_ratio(&[], |_| 1.0, |_| 1.0);
        assert_eq!(r, 1.0);
    }

    #[test]
    fn print_table_smoke() {
        print_table(&[dummy_row(100, 30, 25)]);
    }
}
