//! SAT-based exact pruning (`SAT_prune`, Sec. 3.4.2): minimum-cost
//! patch support via a second SAT solver that searches divisor subsets,
//! blocking infeasible subsets and cost-bounded regions until UNSAT
//! proves optimality.

use crate::error::EcoError;
use crate::observe::SatCallKind;
use crate::support::{SubsetExplanation, SupportResult, SupportSolver};
use eco_sat::{Lit, PbSum, SolveResult, Solver};

/// Configuration for [`sat_prune_support`].
#[derive(Clone, Copy, Debug)]
pub struct SatPruneOptions {
    /// Cap on candidate subsets examined before giving up on exactness.
    pub max_iterations: usize,
}

impl Default for SatPruneOptions {
    fn default() -> SatPruneOptions {
        SatPruneOptions {
            max_iterations: 2_000,
        }
    }
}

/// Result of the exact pruning search.
#[derive(Clone, Debug)]
pub struct SatPruneResult {
    /// The best support found.
    pub support: SupportResult,
    /// How the search ended.
    pub prune: PruneReport,
}

/// How one `SAT_prune` search ended, carried per target by
/// [`crate::TargetPatchReport::prune`] and the run metrics so a proven
/// minimum is distinguishable from an iteration-capped one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PruneReport {
    /// Candidate subsets examined (one search-solver call each).
    pub iterations: usize,
    /// `true` when the search space was exhausted, proving the result
    /// cost-minimum (guaranteed for a single target, per the paper).
    pub exact: bool,
}

/// Runs the `SAT_prune` search on a prepared [`SupportSolver`].
///
/// `seed` optionally provides a known-feasible support (e.g. from
/// `minimize_assumptions`) used as the initial upper bound.
///
/// The search solver holds one selection variable per divisor plus a
/// binary adder network encoding `Σ cost·s`. Each candidate subset `S`
/// is checked by [`SupportSolver::explain_subset`]:
///
/// - infeasible: a minimal correction set `D` (divisors whose two miter
///   copies differ in some witness model, shrunk until no divisor can
///   be dropped) yields the blocking clause `∨_{d ∈ D} s_d`. The paper
///   blocks with `∨_{d ∉ S} s_d`; since `D ⊆ ∁S` the clause used here
///   subsumes it, and it stays sound because every subset disjoint
///   from `D` is refuted by that witness;
/// - feasible: the final conflict's core `C ⊆ S` is adopted as the
///   incumbent (it is feasible and no dearer than `S`), then a fresh
///   `sum < cost(C)` bound is installed under an activation literal and
///   the supersets of `C` are blocked.
///
/// Termination at UNSAT proves cost-minimality. Search-solver calls are
/// attributed to the support solver's target and counted into its
/// `sat_calls`.
///
/// # Errors
///
/// [`EcoError::SolverBudgetExhausted`] only if no feasible support is
/// known when a budget runs out; otherwise budget exhaustion degrades
/// to an inexact result.
pub fn sat_prune_support(
    support_solver: &mut SupportSolver,
    seed: Option<SupportResult>,
    options: SatPruneOptions,
) -> Result<SatPruneResult, EcoError> {
    let costs = support_solver.costs().to_vec();
    let obs = support_solver.observer().clone();
    let target_index = support_solver.target_index();
    let n = costs.len();
    let mut search = Solver::new();
    // The subset-search solver runs under the same governor (if any) as
    // the feasibility oracle it drives.
    search.set_search_control(
        support_solver
            .governor()
            .map(eco_sat::ResourceGovernor::control),
    );
    let selection: Vec<Lit> = (0..n).map(|_| search.new_var().positive()).collect();
    for &s in &selection {
        // Prefer small subsets: branch "not selected" first.
        search.set_polarity(s.var(), false);
    }
    let terms: Vec<(Lit, u64)> = selection
        .iter()
        .copied()
        .zip(costs.iter().copied())
        .collect();
    let sum = PbSum::encode(&mut search, &terms);

    let mut best: Option<SupportResult> = seed;
    let mut bound_act: Option<Lit> = None;
    if let Some(b) = &best {
        let act = search.new_var().positive();
        sum.assert_less_under(&mut search, b.cost, act);
        bound_act = Some(act);
    }

    let mut iterations = 0usize;
    let exact = loop {
        if iterations >= options.max_iterations {
            break false;
        }
        iterations += 1;
        let assumptions: Vec<Lit> = bound_act.into_iter().collect();
        let before = obs.snapshot(&mut search);
        let result = search.solve(&assumptions);
        support_solver.sat_calls += 1;
        obs.sat_call(
            before,
            &search,
            SatCallKind::SatPruneSearch,
            target_index,
            result,
        );
        match result {
            SolveResult::Unknown => break false,
            SolveResult::Unsat => break true,
            SolveResult::Sat => {
                let subset: Vec<usize> = (0..n)
                    .filter(|&i| search.model_value(selection[i]).is_true())
                    .collect();
                let explanation = match support_solver.explain_subset(&subset) {
                    Ok(x) => x,
                    Err(EcoError::SolverBudgetExhausted { .. }) if best.is_some() => {
                        break false;
                    }
                    Err(e) => return Err(e),
                };
                match explanation {
                    SubsetExplanation::Feasible(core) => {
                        let cost: u64 = core.iter().map(|&i| costs[i]).sum();
                        if best.as_ref().is_none_or(|b| cost < b.cost) {
                            best = Some(SupportResult {
                                divisor_indices: core.clone(),
                                cost,
                                sat_calls: support_solver.sat_calls,
                            });
                        }
                        // Tighten: require strictly cheaper solutions. Also
                        // exclude every superset of the core so the search
                        // moves on even when the bound encoding is loose.
                        let act = search.new_var().positive();
                        sum.assert_less_under(&mut search, cost, act);
                        bound_act = Some(act);
                        let block: Vec<Lit> = core.iter().map(|&i| !selection[i]).collect();
                        if block.is_empty() {
                            // The empty support suffices: nothing is cheaper.
                            break true;
                        }
                        search.add_clause(&block);
                    }
                    SubsetExplanation::Infeasible(correction) => {
                        // Every subset missing all of the correction set is
                        // refuted by its witness: demand one of them.
                        let block: Vec<Lit> = correction.iter().map(|&i| selection[i]).collect();
                        if block.is_empty() {
                            // The full set is infeasible: no support exists.
                            break true;
                        }
                        search.add_clause(&block);
                    }
                }
            }
        }
    };
    let mut support = best.ok_or(EcoError::budget_exhausted("SAT_prune"))?;
    support.sat_calls = support_solver.sat_calls;
    Ok(SatPruneResult {
        support,
        prune: PruneReport { iterations, exact },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miter::QuantifiedMiter;
    use crate::problem::EcoProblem;
    use eco_aig::Aig;

    /// impl: t = a & b (target); spec: y = a ^ b. Divisors: a, b, and a
    /// precomputed xor signal with controllable cost.
    fn xor_problem(xor_cost: u64) -> (EcoProblem, Vec<eco_aig::NodeId>, Vec<u64>) {
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let x = im.xor(a, b);
        let t = im.and(a, b);
        im.add_output(t);
        im.add_output(x); // keep the xor cone alive
        let t_node = t.node();
        let mut sp = Aig::new();
        let (a2, b2) = (sp.add_input(), sp.add_input());
        let y = sp.xor(a2, b2);
        sp.add_output(y);
        sp.add_output(y);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid");
        let divisors = vec![a.node(), b.node(), x.node()];
        let costs = vec![3, 3, xor_cost];
        (p, divisors, costs)
    }

    fn run(xor_cost: u64) -> SatPruneResult {
        let (p, divisors, costs) = xor_problem(xor_cost);
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        let mut ss = SupportSolver::new(&qm, divisors, costs, None);
        assert!(
            ss.all_feasible().expect("no budget"),
            "divisors must suffice"
        );
        sat_prune_support(&mut ss, None, SatPruneOptions::default()).expect("prune")
    }

    #[test]
    fn explanations_are_sound() {
        let (p, divisors, costs) = xor_problem(1);
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        let mut ss = SupportSolver::new(&qm, divisors, costs, None);
        let all: Vec<usize> = (0..3).collect();
        let subsets: Vec<Vec<usize>> = (0u32..8)
            .map(|m| all.iter().copied().filter(|&i| m >> i & 1 == 1).collect())
            .collect();
        for s in &subsets {
            let feasible = ss.subset_feasible(s).expect("unbudgeted");
            match ss.explain_subset(s).expect("unbudgeted") {
                SubsetExplanation::Feasible(core) => {
                    assert!(feasible, "{s:?}");
                    assert!(core.iter().all(|i| s.contains(i)), "{s:?}: core {core:?}");
                    assert!(ss.subset_feasible(&core).expect("unbudgeted"));
                }
                SubsetExplanation::Infeasible(correction) => {
                    assert!(!feasible, "{s:?}");
                    assert!(correction.iter().all(|i| !s.contains(i)));
                    // Every subset missing the whole correction set is
                    // infeasible too.
                    for t in subsets
                        .iter()
                        .filter(|t| !t.iter().any(|i| correction.contains(i)))
                    {
                        assert!(!ss.subset_feasible(t).expect("unbudgeted"), "{t:?}");
                    }
                    // Minimal: adding any one of it to its complement
                    // makes a feasible set.
                    for &d in &correction {
                        let grown: Vec<usize> = all
                            .iter()
                            .copied()
                            .filter(|i| *i == d || !correction.contains(i))
                            .collect();
                        assert!(ss.subset_feasible(&grown).expect("unbudgeted"), "{grown:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn picks_cheap_single_divisor() {
        // xor divisor costs 1 < 3+3: the minimum support is {xor}.
        let r = run(1);
        assert!(r.prune.exact);
        assert_eq!(r.support.divisor_indices, vec![2]);
        assert_eq!(r.support.cost, 1);
    }

    #[test]
    fn picks_input_pair_when_xor_is_expensive() {
        // xor divisor costs 100 > 3+3: minimum is {a, b}.
        let r = run(100);
        assert!(r.prune.exact);
        assert_eq!(r.support.divisor_indices, vec![0, 1]);
        assert_eq!(r.support.cost, 6);
    }

    #[test]
    fn seed_bound_is_respected_and_improved() {
        let (p, divisors, costs) = xor_problem(1);
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        let mut ss = SupportSolver::new(&qm, divisors, costs, None);
        assert!(ss.all_feasible().expect("no budget"));
        let seed = SupportResult {
            divisor_indices: vec![0, 1],
            cost: 6,
            sat_calls: 0,
        };
        let r = sat_prune_support(&mut ss, Some(seed), SatPruneOptions::default()).expect("prune");
        assert!(r.prune.exact);
        assert_eq!(r.support.cost, 1);
    }

    #[test]
    fn infeasible_divisor_set_detected() {
        // Only divisor a: cannot express xor patch.
        let (p, divisors, costs) = xor_problem(1);
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        let mut ss = SupportSolver::new(&qm, vec![divisors[0]], vec![costs[0]], None);
        let err = sat_prune_support(&mut ss, None, SatPruneOptions::default()).unwrap_err();
        assert!(matches!(err, EcoError::SolverBudgetExhausted { .. }));
    }

    #[test]
    fn iteration_cap_degrades_to_inexact() {
        let (p, divisors, costs) = xor_problem(1);
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        let mut ss = SupportSolver::new(&qm, divisors, costs, None);
        let seed = SupportResult {
            divisor_indices: vec![0, 1],
            cost: 6,
            sat_calls: 0,
        };
        let r = sat_prune_support(&mut ss, Some(seed), SatPruneOptions { max_iterations: 0 })
            .expect("prune returns seed");
        assert!(!r.prune.exact);
        assert_eq!(r.support.cost, 6);
    }
}
