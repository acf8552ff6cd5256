//! SAT sweeping (fraig) front end: simulation-guided equivalence
//! reasoning in front of the engine's SAT call sites.
//!
//! Two pieces live here:
//!
//! - [`SweepOracle`]: a simulation-based infeasibility oracle for the
//!   [`SupportSolver`](crate::SupportSolver) instance of expression (2).
//!   Stored pattern pairs that already witness infeasibility answer a
//!   subset-feasibility query without a SAT call; counterexamples from
//!   real calls refine the pattern pool CEGAR-style.
//! - [`check_outputs_equivalence_swept`]: the sweeping variant of the
//!   final CEC verification — per-output structural discharge plus a
//!   simulation prefilter that turns a simulated difference into a
//!   verified counterexample with zero SAT calls.
//!
//! The oracle and the swept CEC are *verdict-preserving*: every answer
//! they short-circuit is one the SAT solver would have returned, so
//! patches, costs, and dispositions are byte-identical with sweeping on
//! or off — only the SAT-call count drops.

use crate::cec::CecResult;
use crate::cnf::CnfEncoder;
use crate::miter::QuantifiedMiter;
use crate::observe::{ObserverHandle, SatCallKind};
use eco_aig::{Aig, AigLit, CandidateClasses, NodeId, PatternPool};
use eco_sat::{Lit, ResourceGovernor, SolveResult, Solver};
use std::collections::HashSet;

/// Random 64-pattern words per input in a sweep pattern pool.
pub(crate) const SWEEP_POOL_WORDS: usize = 4;

/// Cap on patterns stored per oracle side; learned counterexamples
/// beyond it are dropped (the oracle stays sound, just less sharp).
const MAX_ORACLE_PATTERNS: usize = 1024;

/// Counters a [`SweepOracle`] accumulates, reported by the engine as
/// [`EcoEvent::SweepReport`](crate::EcoEvent::SweepReport).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct OracleStats {
    /// Candidate classes the pool partition found on the miter.
    pub classes: u64,
    /// Feasibility queries answered by simulation instead of SAT.
    pub oracle_hits: u64,
    /// Counterexample patterns learned from real SAT models.
    pub refinement_rounds: u64,
}

/// Simulation-based infeasibility oracle for the two-copy support
/// instance of expression (2).
///
/// A subset `S` of divisors is *infeasible* exactly when the instance
/// `M(0, x1) ∧ M(1, x2) ∧ (d(x1) = d(x2) for d ∈ S)` is satisfiable.
/// The oracle keeps two pattern sets: `A` = assignments with
/// `M(0, x) = 1` and `B` = assignments with `M(1, x) = 1`, each with
/// its divisor-value signature. A pair `(x1 ∈ A, x2 ∈ B)` whose
/// signatures agree on `S` is a ready-made model of the instance, so
/// the oracle can answer "infeasible" without touching the solver —
/// and only that answer: feasibility (UNSAT) can never be concluded
/// from finitely many patterns.
#[derive(Debug)]
pub(crate) struct SweepOracle {
    miter: Aig,
    output: AigLit,
    x_count: usize,
    divisor_lits: Vec<AigLit>,
    /// Divisor signatures of patterns where `M(0, x) = 1`.
    a_sigs: Vec<Vec<u64>>,
    /// Divisor signatures of patterns where `M(1, x) = 1`.
    b_sigs: Vec<Vec<u64>>,
    stats: OracleStats,
}

impl SweepOracle {
    /// Builds the oracle for one quantified miter and its divisor list,
    /// seeding the pattern pool deterministically. Identical inputs
    /// always produce an identical oracle, so swept runs are
    /// reproducible at any `--jobs` count.
    pub(crate) fn build(qm: &QuantifiedMiter, divisors: &[NodeId], seed: u64) -> SweepOracle {
        let x_count = qm.x_inputs.len();
        let divisor_lits: Vec<AigLit> = divisors.iter().map(|d| qm.impl_map[d.index()]).collect();
        let mut oracle = SweepOracle {
            miter: qm.aig.clone(),
            output: qm.output,
            x_count,
            divisor_lits,
            a_sigs: Vec::new(),
            b_sigs: Vec::new(),
            stats: OracleStats::default(),
        };
        // Partition the miter's nodes into candidate classes under a
        // pool over all miter inputs (x plus n) — the sweep partition
        // the counters report.
        let class_pool = PatternPool::new(x_count + 1, SWEEP_POOL_WORDS, seed);
        oracle.stats.classes = CandidateClasses::compute(&oracle.miter, &class_pool)
            .classes
            .len() as u64;
        // Harvest initial A/B patterns from a pool over the x inputs,
        // simulating the miter under both cofactors of n.
        let pool = PatternPool::new(x_count, SWEEP_POOL_WORDS, seed);
        for w in 0..pool.num_words() {
            let x_words = pool.input_words(w);
            for n_value in [false, true] {
                let mut cols = x_words.clone();
                cols.push(if n_value { !0u64 } else { 0u64 });
                let words = oracle.miter.simulate(&cols);
                let out_word = word_of(&words, oracle.output);
                for r in 0..64u32 {
                    if out_word >> r & 1 == 0 {
                        continue;
                    }
                    let sig = signature_at(&words, &oracle.divisor_lits, r);
                    oracle.store(n_value, sig);
                }
            }
        }
        oracle
    }

    fn store(&mut self, n_value: bool, sig: Vec<u64>) {
        let side = if n_value {
            &mut self.b_sigs
        } else {
            &mut self.a_sigs
        };
        if side.len() < MAX_ORACLE_PATTERNS && !side.contains(&sig) {
            side.push(sig);
        }
    }

    /// `true` if a stored pattern pair already witnesses that the
    /// divisor subset (by index) is infeasible — i.e. the two-copy
    /// instance is satisfiable, so a SAT call would return `Sat`.
    pub(crate) fn proves_infeasible(&mut self, indices: &[usize]) -> bool {
        if self.a_sigs.is_empty() || self.b_sigs.is_empty() {
            return false;
        }
        let project = |sig: &Vec<u64>| -> Vec<u64> {
            let mut out = vec![0u64; indices.len().div_ceil(64).max(1)];
            for (k, &d) in indices.iter().enumerate() {
                if sig[d / 64] >> (d % 64) & 1 == 1 {
                    out[k / 64] |= 1u64 << (k % 64);
                }
            }
            out
        };
        let (small, large) = if self.a_sigs.len() <= self.b_sigs.len() {
            (&self.a_sigs, &self.b_sigs)
        } else {
            (&self.b_sigs, &self.a_sigs)
        };
        let keys: HashSet<Vec<u64>> = small.iter().map(project).collect();
        let hit = large.iter().any(|sig| keys.contains(&project(sig)));
        if hit {
            self.stats.oracle_hits += 1;
        }
        hit
    }

    /// Learns an infeasibility witness from a real SAT model: `x1`
    /// satisfies `M(0, x1) = 1` and `x2` satisfies `M(1, x2) = 1`.
    /// Each is re-verified by evaluation before being stored, so a
    /// bogus witness can degrade sharpness but never soundness.
    pub(crate) fn learn(&mut self, x1: &[bool], x2: &[bool]) {
        let added = self.learn_side(x1, false) | self.learn_side(x2, true);
        if added {
            self.stats.refinement_rounds += 1;
        }
    }

    fn learn_side(&mut self, x: &[bool], n_value: bool) -> bool {
        if x.len() != self.x_count {
            return false;
        }
        let side_len = if n_value {
            self.b_sigs.len()
        } else {
            self.a_sigs.len()
        };
        if side_len >= MAX_ORACLE_PATTERNS {
            return false;
        }
        let mut cols: Vec<u64> = x.iter().map(|&b| u64::from(b)).collect();
        cols.push(u64::from(n_value));
        let words = self.miter.simulate(&cols);
        if word_of(&words, self.output) & 1 == 0 {
            return false; // not actually a witness; drop it
        }
        let sig = signature_at(&words, &self.divisor_lits, 0);
        let before = side_len;
        self.store(n_value, sig);
        let after = if n_value {
            self.b_sigs.len()
        } else {
            self.a_sigs.len()
        };
        after > before
    }

    /// The accumulated counters.
    pub(crate) fn stats(&self) -> OracleStats {
        self.stats
    }
}

/// The simulated value of `lit` in pattern slot `r` of a node-word
/// vector produced by [`Aig::simulate`].
pub(crate) fn word_of(words: &[u64], lit: AigLit) -> u64 {
    let w = words[lit.node().index()];
    if lit.is_complement() {
        !w
    } else {
        w
    }
}

/// Packs the divisor values of pattern slot `r` into a bitset.
pub(crate) fn signature_at(words: &[u64], divisor_lits: &[AigLit], r: u32) -> Vec<u64> {
    let mut sig = vec![0u64; divisor_lits.len().div_ceil(64).max(1)];
    for (d, &dl) in divisor_lits.iter().enumerate() {
        if word_of(words, dl) >> r & 1 == 1 {
            sig[d / 64] |= 1u64 << (d % 64);
        }
    }
    sig
}

/// Outcome of a swept equivalence check.
pub(crate) struct SweptCecReport {
    /// The verdict, identical to what the unswept check returns.
    pub result: CecResult,
    /// Output diffs discharged structurally (constant-false cones).
    pub sim_discharged_outputs: u64,
    /// `true` when the counterexample came from simulation (zero SAT
    /// calls were made).
    pub sim_counterexample: bool,
}

/// The sweeping variant of
/// [`check_outputs_equivalence_observed`](crate::cec::check_outputs_equivalence_observed):
/// identical miter and verdict, but a deterministic simulation
/// prefilter runs first — a simulated difference yields an
/// evaluation-verified counterexample with zero SAT calls. At most one
/// governed SAT call is made (the same residual call the unswept path
/// makes), so the swept check never issues more calls than the
/// baseline.
pub(crate) fn check_outputs_equivalence_swept(
    a: &Aig,
    b: &Aig,
    outputs: Option<&[usize]>,
    conflict_budget: Option<u64>,
    obs: &ObserverHandle,
    governor: Option<&ResourceGovernor>,
    seed: u64,
) -> SweptCecReport {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input count mismatch");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output count mismatch");
    let mut miter = Aig::new();
    let inputs: Vec<_> = (0..a.num_inputs()).map(|_| miter.add_input()).collect();
    let outs_a = miter.import(a, &inputs);
    let outs_b = miter.import(b, &inputs);
    let indices: Vec<usize> = match outputs {
        Some(idx) => idx.to_vec(),
        None => (0..a.num_outputs()).collect(),
    };
    let diffs: Vec<AigLit> = indices
        .iter()
        .map(|&i| miter.xor(outs_a[i], outs_b[i]))
        .collect();
    let sim_discharged_outputs = diffs.iter().filter(|&&d| d == AigLit::FALSE).count() as u64;
    let any_diff = miter.or_many(&diffs);
    if any_diff == AigLit::FALSE {
        return SweptCecReport {
            result: CecResult::Equivalent,
            sim_discharged_outputs,
            sim_counterexample: false,
        };
    }
    // Simulation prefilter: a set difference bit is a candidate
    // counterexample; re-verify by evaluation before trusting it.
    let pool = PatternPool::new(a.num_inputs(), SWEEP_POOL_WORDS, seed);
    for w in 0..pool.num_words() {
        let cols = pool.input_words(w);
        let words = miter.simulate(&cols);
        let diff_word = word_of(&words, any_diff);
        if diff_word == 0 {
            continue;
        }
        let r = diff_word.trailing_zeros();
        let cex: Vec<bool> = cols.iter().map(|&c| c >> r & 1 == 1).collect();
        let ea = a.eval(&cex);
        let eb = b.eval(&cex);
        if indices.iter().any(|&i| ea[i] != eb[i]) {
            return SweptCecReport {
                result: CecResult::Counterexample(cex),
                sim_discharged_outputs,
                sim_counterexample: true,
            };
        }
    }
    // Residual: the single governed SAT call the unswept path makes.
    let mut solver = Solver::new();
    solver.set_search_control(governor.map(ResourceGovernor::control));
    if let Some(budget) = conflict_budget {
        solver.set_budget(Some(budget), None);
    }
    let mut enc = CnfEncoder::new(&miter);
    let out_lit = enc.lit(&miter, &mut solver, any_diff);
    let in_lits: Vec<Lit> = inputs
        .iter()
        .map(|&i| enc.lit(&miter, &mut solver, i))
        .collect();
    let before = obs.snapshot(&mut solver);
    let result = solver.solve(&[out_lit]);
    obs.sat_call(before, &solver, SatCallKind::Cec, None, result);
    let result = match result {
        SolveResult::Unsat => CecResult::Equivalent,
        SolveResult::Sat => {
            let cex = in_lits
                .iter()
                .map(|&l| solver.model_value(l).to_option().unwrap_or(false))
                .collect();
            CecResult::Counterexample(cex)
        }
        SolveResult::Unknown => CecResult::Unknown,
    };
    SweptCecReport {
        result,
        sim_discharged_outputs,
        sim_counterexample: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn redundant_aig() -> Aig {
        // Outputs: or(a, a&b) == a, xor(a, b), and a constant-0 cone.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let ab = g.and(a, b);
        let red = g.or(a, ab);
        let x = g.xor(a, b);
        let t1 = g.and(a, b);
        let t2 = g.and(a, !b);
        let z = g.and(t1, t2); // constant 0
        g.add_output(red);
        g.add_output(x);
        g.add_output(z);
        g
    }

    #[test]
    fn swept_cec_matches_unswept_verdicts() {
        use crate::cec::check_outputs_equivalence_observed;
        let g = redundant_aig();
        let mut h = redundant_aig();
        let obs = ObserverHandle::default();
        // Equivalent pair.
        let rep = check_outputs_equivalence_swept(&g, &h, None, None, &obs, None, 7);
        assert_eq!(rep.result, CecResult::Equivalent);
        // Differing pair: flip an output of h.
        let o = h.outputs()[1];
        h.set_output(1, !o);
        let rep = check_outputs_equivalence_swept(&g, &h, None, None, &obs, None, 7);
        let CecResult::Counterexample(cex) = &rep.result else {
            panic!("expected counterexample, got {:?}", rep.result);
        };
        assert_ne!(g.eval(cex), h.eval(cex));
        assert!(rep.sim_counterexample, "a 2-input diff must be simulated");
        // The unswept check agrees on the verdict kind.
        assert!(matches!(
            check_outputs_equivalence_observed(&g, &h, None, None, &obs, None),
            CecResult::Counterexample(_)
        ));
        // Restricting to the untouched outputs is equivalent again.
        let rep = check_outputs_equivalence_swept(&g, &h, Some(&[0, 2]), None, &obs, None, 7);
        assert_eq!(rep.result, CecResult::Equivalent);
    }

    #[test]
    fn oracle_agrees_with_the_support_solver() {
        use crate::problem::EcoProblem;
        use crate::support::support_solver_for;
        use crate::window::compute_window;

        // impl: y = a & b (target); spec: y = a | b. Divisors: a, b.
        let mut im = Aig::new();
        let a = im.add_input();
        let b = im.add_input();
        let t = im.and(a, b);
        im.add_output(t);
        let mut sp = Aig::new();
        let a2 = sp.add_input();
        let b2 = sp.add_input();
        let o = sp.or(a2, b2);
        sp.add_output(o);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t.node()]).expect("valid");
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        let window = compute_window(&p);
        let divisors = window.divisors.clone();
        let mut oracle = SweepOracle::build(&qm, &divisors, 1);
        let mut ss = support_solver_for(&p, &qm, &divisors, None);
        // Every subset the oracle calls infeasible must be Sat for the
        // real instance (soundness); feasible subsets must never hit.
        for mask in 0u32..1 << divisors.len().min(4) {
            let subset: Vec<usize> = (0..divisors.len())
                .filter(|&i| mask >> i & 1 == 1)
                .collect();
            let feasible = ss.subset_feasible(&subset).expect("no budget");
            if oracle.proves_infeasible(&subset) {
                assert!(!feasible, "oracle claimed infeasible for {subset:?}");
            }
        }
        // With both inputs as divisors the patch a|b exists, and the
        // oracle must not contradict that.
        let all: Vec<usize> = (0..divisors.len()).collect();
        if ss.subset_feasible(&all).expect("no budget") {
            assert!(!oracle.proves_infeasible(&all));
        }
        // The empty subset cannot express a non-constant patch; both
        // sides must agree it is infeasible.
        assert!(!ss.subset_feasible(&[]).expect("no budget"));
        assert!(
            oracle.proves_infeasible(&[]),
            "256 random patterns must find an A/B pair for the empty subset"
        );
        let stats = oracle.stats();
        assert!(stats.oracle_hits >= 1);
    }
}
