//! Patch support computation (Sec. 3.4): the `minimize_assumptions`
//! procedure (Algorithm 1) and the SAT instance of expression (2) with
//! per-divisor auxiliary activation variables.

use crate::classes::{EquivClasses, MinimizeHook, SupportClassesHook};
use crate::cnf::CnfEncoder;
use crate::error::EcoError;
use crate::miter::QuantifiedMiter;
use crate::observe::{ClassesCounters, EcoEvent, ObserverHandle, SatCallKind, SupportStep};
use crate::problem::EcoProblem;
use crate::sweep::{OracleStats, SweepOracle};
use eco_aig::NodeId;
use eco_sat::{LBool, Lit, ResourceGovernor, SolveResult, Solver};

/// Divide-and-conquer minimization of an assumption set (Algorithm 1 of
/// the paper, closely related to LEXUNSAT).
///
/// Precondition: `solver` is UNSAT under `fixed ++ assumptions`. On
/// success the slice is reordered so that its first `S` entries form a
/// *minimal* subset `A'` with `solver` still UNSAT under
/// `fixed ++ A'`, and `(S, sat_calls)` is returned. Entries earlier in
/// the input order are preferred for inclusion, which makes the result
/// cost-aware when the caller sorts by ascending cost.
///
/// Complexity: `O(max{log N, M})` SAT calls for `N` assumptions and `M`
/// kept entries, versus `O(N)` for one-at-a-time removal.
///
/// # Errors
///
/// [`EcoError::SolverBudgetExhausted`] if any SAT call returns
/// `Unknown` under the solver's budget.
pub fn minimize_assumptions(
    solver: &mut Solver,
    fixed: &[Lit],
    assumptions: &mut [Lit],
) -> Result<(usize, u64), EcoError> {
    let mut calls = 0u64;
    let kept = minimize_assumptions_observed(
        solver,
        fixed,
        assumptions,
        &ObserverHandle::default(),
        SatCallKind::Minimize,
        None,
        &mut calls,
        None,
    )?;
    Ok((kept, calls))
}

/// [`minimize_assumptions`] with event emission: each SAT call is
/// reported to `obs` as an [`EcoEvent::SatCall`] of `kind` attributed
/// to `target_index`. `calls` is incremented eagerly, so the tally is
/// accurate even when a budget error aborts the recursion.
///
/// `hook` is the test-equivalence-class *learn-only* observation
/// point: it sees every real call's verdict and model so the class
/// layer can accumulate feasible sets and infeasibility witnesses for
/// the verdict-only inheritance sites ([`SupportSolver::subset_feasible`]).
/// It never answers a query — the recursion's conflict-guided pruning
/// makes any skipped solve change the minimized result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn minimize_assumptions_observed(
    solver: &mut Solver,
    fixed: &[Lit],
    assumptions: &mut [Lit],
    obs: &ObserverHandle,
    kind: SatCallKind,
    target_index: Option<usize>,
    calls: &mut u64,
    hook: Option<&mut dyn MinimizeHook>,
) -> Result<usize, EcoError> {
    let mut ctx = MinCtx {
        solver,
        fixed: fixed.to_vec(),
        calls,
        obs,
        kind,
        target_index,
        hook,
    };
    let len = assumptions.len();
    rec(&mut ctx, assumptions, 0, len)
}

/// The naive `O(N)` assumption minimization the paper compares
/// Algorithm 1 against: try dropping each assumption in turn, keeping
/// it only when the solver becomes satisfiable without it.
///
/// Same contract as [`minimize_assumptions`]; exists as the complexity
/// baseline for the Algorithm-1 ablation and for differential testing.
///
/// # Errors
///
/// [`EcoError::SolverBudgetExhausted`] if any SAT call returns
/// `Unknown`.
pub fn naive_minimize_assumptions(
    solver: &mut Solver,
    fixed: &[Lit],
    assumptions: &mut [Lit],
) -> Result<(usize, u64), EcoError> {
    let mut calls = 0u64;
    let mut kept = 0usize;
    for i in 0..assumptions.len() {
        // Assume the kept prefix plus the untried suffix, skipping i.
        let mut asm: Vec<Lit> = fixed.to_vec();
        asm.extend_from_slice(&assumptions[..kept]);
        asm.extend_from_slice(&assumptions[i + 1..]);
        calls += 1;
        match solver.solve(&asm) {
            SolveResult::Unsat => {} // assumption i is redundant
            SolveResult::Sat => {
                assumptions.swap(kept, i);
                kept += 1;
            }
            SolveResult::Unknown => {
                return Err(EcoError::budget_exhausted("naive_minimize_assumptions"))
            }
        }
    }
    Ok((kept, calls))
}

struct MinCtx<'s, 'h> {
    solver: &'s mut Solver,
    fixed: Vec<Lit>,
    calls: &'s mut u64,
    obs: &'s ObserverHandle,
    kind: SatCallKind,
    target_index: Option<usize>,
    hook: Option<&'s mut (dyn MinimizeHook + 'h)>,
}

impl MinCtx<'_, '_> {
    /// One feasibility query under `fixed ++ extra`. Always a real
    /// solver call: the recursion prunes by the final conflict, whose
    /// content depends on the learned-clause state of every earlier
    /// solve, so no query here may be answered from stored knowledge
    /// without changing the minimized result.
    fn unsat(&mut self, extra: &[Lit]) -> Result<bool, EcoError> {
        *self.calls += 1;
        let mut assumptions = self.fixed.clone();
        assumptions.extend_from_slice(extra);
        let before = self.obs.snapshot(self.solver);
        let result = self.solver.solve(&assumptions);
        self.obs
            .sat_call(before, self.solver, self.kind, self.target_index, result);
        match result {
            SolveResult::Unsat | SolveResult::Sat => {
                let unsat = result == SolveResult::Unsat;
                if let Some(hook) = self.hook.as_deref_mut() {
                    hook.learn(&self.fixed, extra, unsat, self.solver);
                }
                Ok(unsat)
            }
            SolveResult::Unknown => Err(EcoError::budget_exhausted("minimize_assumptions")),
        }
    }
}

fn rec(
    ctx: &mut MinCtx<'_, '_>,
    v: &mut [Lit],
    start: usize,
    len: usize,
) -> Result<usize, EcoError> {
    if len == 0 {
        return Ok(0);
    }
    if len == 1 {
        // Is the single assumption needed on top of the fixed set?
        return Ok(if ctx.unsat(&[])? { 0 } else { 1 });
    }
    let low_len = len / 2;
    let high_len = len - low_len;
    // Try the lower (preferred) part alone.
    if ctx.unsat(&v[start..start + low_len])? {
        // Prune by the final conflict: assumptions absent from it are
        // certainly not needed, so recurse only on the conflict members
        // (keeps the call count logarithmic when few assumptions matter).
        let conflict: std::collections::HashSet<Lit> =
            ctx.solver.conflict().iter().copied().collect();
        let region = &mut v[start..start + low_len];
        region.sort_by_key(|l| !conflict.contains(l));
        let members = region.iter().filter(|l| conflict.contains(l)).count();
        return rec(ctx, v, start, members);
    }
    // Minimize the higher part while assuming all of the lower part.
    ctx.fixed.extend_from_slice(&v[start..start + low_len]);
    let s_high = rec(ctx, v, start + low_len, high_len)?;
    ctx.fixed.truncate(ctx.fixed.len() - low_len);
    // Reorder so the selected high entries precede the lower part.
    v[start..start + low_len + s_high].rotate_left(low_len);
    // Minimize the lower part while assuming the selected high entries.
    ctx.fixed.extend_from_slice(&v[start..start + s_high]);
    let s_low = rec(ctx, v, start + s_high, low_len)?;
    ctx.fixed.truncate(ctx.fixed.len() - s_high);
    Ok(s_high + s_low)
}

/// The SAT instance of expression (2): two variable-disjoint copies of
/// the (quantified) ECO miter with `n = 0` in copy 1 and `n = 1` in
/// copy 2, plus an activation literal per candidate divisor that forces
/// the divisor's two copies equal (the auxiliary-variable encoding of
/// Sec. 2.5.3).
///
/// Feasibility of a divisor subset = UNSAT under that subset's
/// activation literals.
#[derive(Debug)]
pub struct SupportSolver {
    solver: Solver,
    base: Vec<Lit>,
    /// Activation literal per divisor (parallel to `divisors`).
    aux: Vec<Lit>,
    /// The divisor's literal in miter copy 1 and copy 2 (parallel to
    /// `divisors`), for reading correction sets off a model.
    copies: Vec<(Lit, Lit)>,
    /// The candidate divisors, in the order given at construction.
    divisors: Vec<NodeId>,
    costs: Vec<u64>,
    per_call_conflicts: Option<u64>,
    /// Primary-input literals of the two miter copies, for witness
    /// extraction on infeasibility.
    x1: Vec<Lit>,
    x2: Vec<Lit>,
    /// Total SAT calls issued through this instance.
    pub sat_calls: u64,
    /// Event sink plus the target index its calls are attributed to.
    obs: ObserverHandle,
    target_index: Option<usize>,
    /// Shared resource governor, when the engine runs under one.
    governor: Option<ResourceGovernor>,
    /// Simulation oracle short-circuiting provably infeasible subset
    /// queries (attached only when sweeping is enabled).
    sweep_oracle: Option<SweepOracle>,
    /// Test-equivalence-class layer inheriting both verdict kinds for
    /// subset queries, fed additionally by the minimization
    /// recursion's real calls (attached under `--classes`).
    classes: Option<EquivClasses>,
}

/// The answer of [`SupportSolver::explain_subset`]: the verdict plus
/// the divisor indices that explain it.
#[derive(Debug)]
pub(crate) enum SubsetExplanation {
    /// The subset suffices; carries a feasible core of it.
    Feasible(Vec<usize>),
    /// The subset does not suffice; carries a minimal correction set.
    Infeasible(Vec<usize>),
}

/// A computed patch support: divisor positions plus their summed cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupportResult {
    /// Indices into the divisor list given to [`SupportSolver::new`].
    pub divisor_indices: Vec<usize>,
    /// Total cost of the selected divisors.
    pub cost: u64,
    /// SAT calls spent.
    pub sat_calls: u64,
}

impl SupportSolver {
    /// Builds the two-copy instance for a quantified miter and divisor
    /// candidates (with parallel costs).
    ///
    /// # Panics
    ///
    /// Panics if `divisors.len() != costs.len()`.
    pub fn new(
        qm: &QuantifiedMiter,
        divisors: Vec<NodeId>,
        costs: Vec<u64>,
        per_call_conflicts: Option<u64>,
    ) -> SupportSolver {
        assert_eq!(divisors.len(), costs.len(), "cost per divisor required");
        let mut solver = Solver::new();
        let mut enc1 = CnfEncoder::new(&qm.aig);
        let mut enc2 = CnfEncoder::new(&qm.aig);
        let out1 = enc1.lit(&qm.aig, &mut solver, qm.output);
        let out2 = enc2.lit(&qm.aig, &mut solver, qm.output);
        let n1 = enc1.lit(&qm.aig, &mut solver, qm.n_input);
        let n2 = enc2.lit(&qm.aig, &mut solver, qm.n_input);
        let base = vec![out1, out2, !n1, n2];
        let x1: Vec<Lit> = qm
            .x_inputs
            .iter()
            .map(|&l| enc1.lit(&qm.aig, &mut solver, l))
            .collect();
        let x2: Vec<Lit> = qm
            .x_inputs
            .iter()
            .map(|&l| enc2.lit(&qm.aig, &mut solver, l))
            .collect();
        let mut aux = Vec::with_capacity(divisors.len());
        let mut copies = Vec::with_capacity(divisors.len());
        for &d in &divisors {
            let lit = qm.impl_map[d.index()];
            let d1 = enc1.lit(&qm.aig, &mut solver, lit);
            let d2 = enc2.lit(&qm.aig, &mut solver, lit);
            let a = solver.new_var().positive();
            // a -> (d1 == d2)
            solver.add_clause(&[!a, !d1, d2]);
            solver.add_clause(&[!a, d1, !d2]);
            aux.push(a);
            copies.push((d1, d2));
        }
        SupportSolver {
            solver,
            base,
            aux,
            copies,
            divisors,
            costs,
            per_call_conflicts,
            x1,
            x2,
            sat_calls: 0,
            obs: ObserverHandle::default(),
            target_index: None,
            governor: None,
            sweep_oracle: None,
            classes: None,
        }
    }

    /// Attaches (or clears) a sweep oracle. With one attached,
    /// [`SupportSolver::subset_feasible`] answers simulation-provable
    /// infeasibilities without a SAT call; the verdict stream — and
    /// therefore every downstream artifact — is unchanged.
    pub(crate) fn set_sweep_oracle(&mut self, oracle: Option<SweepOracle>) {
        self.sweep_oracle = oracle;
    }

    /// Counters of the attached sweep oracle, if any.
    pub(crate) fn sweep_stats(&self) -> Option<OracleStats> {
        self.sweep_oracle.as_ref().map(SweepOracle::stats)
    }

    /// Attaches (or clears) a test-equivalence-class layer. With one
    /// attached, [`SupportSolver::subset_feasible`] inherits answers
    /// the layer already knows (and the minimization recursion feeds
    /// it); the verdict stream — and therefore every downstream
    /// artifact — is unchanged. The layer adopts the solver's governor
    /// so chaos degrades it to the identity.
    pub(crate) fn set_classes(&mut self, classes: Option<EquivClasses>) {
        self.classes = classes;
        if let Some(c) = self.classes.as_mut() {
            c.set_governor(self.governor.clone());
        }
    }

    /// Gives the class layer back (with everything it learned), e.g.
    /// to carry witnesses across quantification-refinement rounds.
    pub(crate) fn take_classes(&mut self) -> Option<EquivClasses> {
        self.classes.take()
    }

    /// Counters of the attached class layer, if any.
    pub(crate) fn classes_stats(&self) -> Option<ClassesCounters> {
        self.classes.as_ref().map(EquivClasses::stats)
    }

    /// Attaches an event sink; subsequent SAT calls emit
    /// [`EcoEvent::SatCall`] events attributed to `target_index`.
    pub(crate) fn set_observer(&mut self, obs: ObserverHandle, target_index: Option<usize>) {
        self.obs = obs;
        self.target_index = target_index;
    }

    /// The attached event sink (inactive by default).
    pub(crate) fn observer(&self) -> &ObserverHandle {
        &self.obs
    }

    /// The target index this instance's SAT calls are attributed to.
    pub(crate) fn target_index(&self) -> Option<usize> {
        self.target_index
    }

    /// Attaches a resource governor; every subsequent SAT call checks
    /// it cooperatively and draws from its global pools.
    pub(crate) fn set_governor(&mut self, governor: Option<ResourceGovernor>) {
        self.solver
            .set_search_control(governor.as_ref().map(ResourceGovernor::control));
        if let Some(c) = self.classes.as_mut() {
            c.set_governor(governor.clone());
        }
        self.governor = governor;
    }

    /// The attached governor, if any (for sibling solvers — e.g. the
    /// `SAT_prune` search solver — that must share the same limits).
    pub(crate) fn governor(&self) -> Option<&ResourceGovernor> {
        self.governor.as_ref()
    }

    /// After a satisfiable (infeasible) [`SupportSolver::all_feasible`]
    /// or [`SupportSolver::subset_feasible`] query: the primary-input
    /// assignments of the two miter copies witnessing infeasibility
    /// (`x1` differs under `n = 0`, `x2` under `n = 1`). Used to refine
    /// an approximate target quantification.
    pub fn infeasibility_witness(&self) -> (Vec<bool>, Vec<bool>) {
        let read = |lits: &[Lit]| -> Vec<bool> {
            lits.iter()
                .map(|&l| self.solver.model_value(l).to_option().unwrap_or(false))
                .collect()
        };
        (read(&self.x1), read(&self.x2))
    }

    /// The candidate divisors in construction order.
    pub fn divisors(&self) -> &[NodeId] {
        &self.divisors
    }

    fn solve(&mut self, assumptions: &[Lit]) -> Result<bool, EcoError> {
        self.sat_calls += 1;
        if let Some(c) = self.per_call_conflicts {
            self.solver.set_budget(Some(c), None);
        }
        let before = self.obs.snapshot(&mut self.solver);
        let result = self.solver.solve(assumptions);
        self.obs.sat_call(
            before,
            &self.solver,
            SatCallKind::Support,
            self.target_index,
            result,
        );
        match result {
            SolveResult::Unsat => Ok(true),
            SolveResult::Sat => Ok(false),
            SolveResult::Unknown => Err(EcoError::budget_exhausted("support feasibility")),
        }
    }

    /// Checks whether the divisor subset (by index) is sufficient to
    /// express a patch: UNSAT of expression (2) under its activations.
    ///
    /// # Errors
    ///
    /// [`EcoError::SolverBudgetExhausted`] on budget exhaustion.
    pub fn subset_feasible(&mut self, indices: &[usize]) -> Result<bool, EcoError> {
        if let Some(oracle) = self.sweep_oracle.as_mut() {
            if oracle.proves_infeasible(indices) {
                // A stored pattern pair is a ready-made model of this
                // instance, so a SAT call would return `Sat`. Count the
                // avoided call to keep per-target tallies identical.
                self.sat_calls += 1;
                return Ok(false);
            }
        }
        if let Some(classes) = self.classes.as_mut() {
            if classes.proves_infeasible(indices) {
                self.sat_calls += 1;
                return Ok(false);
            }
            if classes.proves_feasible(indices) {
                // A stored feasible subset of this set keeps the
                // instance UNSAT (activations only constrain), so a
                // SAT call would return `Unsat`. Same tally rule.
                self.sat_calls += 1;
                return Ok(true);
            }
        }
        let mut assumptions = self.base.clone();
        assumptions.extend(indices.iter().map(|&i| self.aux[i]));
        let feasible = self.solve(&assumptions)?;
        self.learn_from_model(feasible);
        self.learn_into_classes(indices, feasible);
        Ok(feasible)
    }

    /// Feasibility of a divisor subset, explained so a subset search can
    /// prune more than the queried subset:
    ///
    /// - [`SubsetExplanation::Feasible`] carries the queried divisors
    ///   whose activations appear in the final conflict. That core is
    ///   itself feasible and costs no more than the query.
    /// - [`SubsetExplanation::Infeasible`] carries a minimal correction
    ///   set (see [`SupportSolver::minimal_correction_set`]). It is
    ///   disjoint from the query, and every subset disjoint from it is
    ///   infeasible.
    ///
    /// Always issues a real SAT call, bypassing the oracles, for the
    /// same reason as [`SupportSolver::all_feasible`]: the explanation
    /// is read off the call's model or final conflict.
    ///
    /// # Errors
    ///
    /// [`EcoError::SolverBudgetExhausted`] on budget exhaustion.
    pub(crate) fn explain_subset(
        &mut self,
        indices: &[usize],
    ) -> Result<SubsetExplanation, EcoError> {
        let mut assumptions = self.base.clone();
        assumptions.extend(indices.iter().map(|&i| self.aux[i]));
        let feasible = self.solve(&assumptions)?;
        self.learn_from_model(feasible);
        self.learn_into_classes(indices, feasible);
        if !feasible {
            return Ok(SubsetExplanation::Infeasible(self.minimal_correction_set()));
        }
        let conflict: std::collections::HashSet<Lit> =
            self.solver.conflict().iter().copied().collect();
        Ok(SubsetExplanation::Feasible(
            indices
                .iter()
                .copied()
                .filter(|&i| conflict.contains(&self.aux[i]))
                .collect(),
        ))
    }

    /// After an infeasible (satisfiable) query: the divisors whose two
    /// miter-copy literals differ in the model (an unassigned literal
    /// counts as differing). Every subset disjoint from this correction
    /// set is infeasible by the same model, with its activations set.
    fn model_correction_set(&self) -> Vec<usize> {
        let differs = |&(d1, d2): &(Lit, Lit)| {
            let (v1, v2) = (self.solver.model_value(d1), self.solver.model_value(d2));
            v1 == LBool::Undef || v1 != v2
        };
        (0..self.copies.len())
            .filter(|&i| differs(&self.copies[i]))
            .collect()
    }

    /// After an infeasible (satisfiable) query: shrinks the model's
    /// correction set `D` to a minimal one with the clause-D loop of
    /// minimal-correction-subset extraction. Each round assumes every
    /// divisor outside `D` and demands that one divisor of `D` agree
    /// too. A model is a new witness whose correction set is a proper
    /// subset of `D`; UNSAT proves `D` minimal, i.e. the divisors
    /// outside it form a maximal infeasible set.
    ///
    /// Every intermediate `D` is a valid correction set, so a round
    /// that runs out of budget ends the loop with the last one.
    fn minimal_correction_set(&mut self) -> Vec<usize> {
        let mut correction = self.model_correction_set();
        while correction.len() > 1 {
            let mut in_correction = vec![false; self.aux.len()];
            for &i in &correction {
                in_correction[i] = true;
            }
            // The demand clause lives under a fresh activation literal
            // and is retired after the round.
            let act = self.solver.new_var().positive();
            let mut demand = vec![!act];
            demand.extend(correction.iter().map(|&i| self.aux[i]));
            self.solver.add_clause(&demand);
            let mut assumptions = self.base.clone();
            assumptions.extend(
                (0..self.aux.len())
                    .filter(|&i| !in_correction[i])
                    .map(|i| self.aux[i]),
            );
            assumptions.push(act);
            let shrunk = match self.solve(&assumptions) {
                Ok(false) => Some(self.model_correction_set()),
                Ok(true) | Err(_) => None,
            };
            self.solver.add_clause(&[!act]);
            match shrunk {
                Some(smaller) => correction = smaller,
                None => break,
            }
        }
        correction
    }

    /// Feasibility with *all* divisors active. This is the gate before
    /// any support minimization: if it fails, the candidate set cannot
    /// express the patch at all.
    ///
    /// Always issues a real SAT call, bypassing any sweep oracle:
    /// callers consume this call's model through
    /// [`SupportSolver::infeasibility_witness`] to refine an
    /// approximate quantification, and a simulation short-circuit has
    /// no model to offer.
    pub fn all_feasible(&mut self) -> Result<bool, EcoError> {
        let mut assumptions = self.base.clone();
        assumptions.extend(self.aux.iter().copied());
        let feasible = self.solve(&assumptions)?;
        self.learn_from_model(feasible);
        let all: Vec<usize> = (0..self.aux.len()).collect();
        self.learn_into_classes(&all, feasible);
        Ok(feasible)
    }

    /// After an infeasible (satisfiable) query, feeds the model's
    /// witness pair into the sweep oracle so later subset queries can
    /// be answered by simulation.
    fn learn_from_model(&mut self, feasible: bool) {
        if feasible || self.sweep_oracle.is_none() {
            return;
        }
        let (x1, x2) = self.infeasibility_witness();
        if let Some(oracle) = self.sweep_oracle.as_mut() {
            oracle.learn(&x1, &x2);
        }
    }

    /// Feeds the verdict (and, on infeasibility, the model's witness
    /// pair) of a real call into the class layer.
    fn learn_into_classes(&mut self, indices: &[usize], feasible: bool) {
        if self.classes.is_none() {
            return;
        }
        let witness = if feasible {
            None
        } else {
            Some(self.infeasibility_witness())
        };
        let classes = self.classes.as_mut().expect("checked above");
        classes.note_representative(indices);
        match witness {
            None => classes.learn_feasible(indices),
            Some((x1, x2)) => classes.learn_witness(&x1, &x2),
        }
    }

    /// Baseline support (the paper's "w/o minimize_assumptions"
    /// columns): one UNSAT call with all activations assumed, then take
    /// the solver's final conflict (`analyze_final`) over the
    /// activation literals.
    ///
    /// # Errors
    ///
    /// [`EcoError::NoFeasibleSupport`]-free by contract: call only after
    /// [`SupportSolver::all_feasible`] returned `true`;
    /// [`EcoError::SolverBudgetExhausted`] otherwise possible.
    pub fn analyze_final_support(&mut self) -> Result<SupportResult, EcoError> {
        let mut assumptions = self.base.clone();
        assumptions.extend(self.aux.iter().copied());
        let unsat = self.solve(&assumptions)?;
        debug_assert!(unsat, "caller must establish feasibility first");
        let conflict: std::collections::HashSet<Lit> =
            self.solver.conflict().iter().copied().collect();
        let divisor_indices: Vec<usize> = (0..self.aux.len())
            .filter(|&i| conflict.contains(&self.aux[i]))
            .collect();
        let cost = divisor_indices.iter().map(|&i| self.costs[i]).sum();
        Ok(SupportResult {
            divisor_indices,
            cost,
            sat_calls: self.sat_calls,
        })
    }

    /// Cost-aware minimal support via `minimize_assumptions`
    /// (Sec. 3.4.1): activations ordered by ascending cost, minimized,
    /// then improved by the last-gasp greedy replacement step.
    ///
    /// `last_gasp_tries` caps the replacement attempts (0 disables).
    ///
    /// # Errors
    ///
    /// [`EcoError::SolverBudgetExhausted`] on budget exhaustion.
    pub fn minimized_support(&mut self, last_gasp_tries: usize) -> Result<SupportResult, EcoError> {
        // Order activation literals by increasing divisor cost (stable on
        // index so equal costs prefer earlier divisors).
        let mut order: Vec<usize> = (0..self.aux.len()).collect();
        order.sort_by_key(|&i| (self.costs[i], i));
        let mut lits: Vec<Lit> = order.iter().map(|&i| self.aux[i]).collect();
        let base = self.base.clone();

        // minimize_assumptions needs a borrowed solver; count its calls
        // into our own tally.
        if let Some(c) = self.per_call_conflicts {
            // One shared budget across the whole minimization keeps the
            // emulation of the paper's timeout behaviour simple.
            self.solver.set_budget(Some(c.saturating_mul(64)), None);
        }
        let lit_index: std::collections::HashMap<Lit, usize> =
            self.aux.iter().enumerate().map(|(i, &l)| (l, i)).collect();
        let mut calls = 0u64;
        let mut hook_storage;
        let hook: Option<&mut dyn MinimizeHook> = match self.classes.as_mut() {
            Some(classes) => {
                hook_storage = SupportClassesHook {
                    classes,
                    aux_index: &lit_index,
                    x1: &self.x1,
                    x2: &self.x2,
                };
                Some(&mut hook_storage)
            }
            None => None,
        };
        let kept = minimize_assumptions_observed(
            &mut self.solver,
            &base,
            &mut lits,
            &self.obs,
            SatCallKind::Minimize,
            self.target_index,
            &mut calls,
            hook,
        );
        self.sat_calls += calls;
        let kept = kept?;
        self.obs.emit(|| EcoEvent::SupportMinimizationStep {
            target_index: self.target_index,
            step: SupportStep::Algorithm1,
            support_size: kept,
        });
        let mut selected: Vec<usize> = lits[..kept].iter().map(|l| lit_index[l]).collect();

        // Last-gasp improvement: replace a selected divisor by a cheaper
        // unselected one when feasibility is preserved.
        let mut tries = last_gasp_tries;
        let mut improved = true;
        while improved && tries > 0 {
            improved = false;
            // Scan selected divisors from most expensive down.
            let mut by_cost: Vec<usize> = (0..selected.len()).collect();
            by_cost.sort_by_key(|&si| std::cmp::Reverse(self.costs[selected[si]]));
            'outer: for si in by_cost {
                let current = selected[si];
                let mut candidates: Vec<usize> = (0..self.aux.len())
                    .filter(|i| !selected.contains(i) && self.costs[*i] < self.costs[current])
                    .collect();
                candidates.sort_by_key(|&i| (self.costs[i], i));
                for cand in candidates {
                    if tries == 0 {
                        break 'outer;
                    }
                    tries -= 1;
                    let mut trial = selected.clone();
                    trial[si] = cand;
                    if self.subset_feasible(&trial)? {
                        selected = trial;
                        improved = true;
                        self.obs.emit(|| EcoEvent::SupportMinimizationStep {
                            target_index: self.target_index,
                            step: SupportStep::LastGasp,
                            support_size: selected.len(),
                        });
                        break;
                    }
                }
            }
        }
        selected.sort_unstable();
        let cost = selected.iter().map(|&i| self.costs[i]).sum();
        Ok(SupportResult {
            divisor_indices: selected,
            cost,
            sat_calls: self.sat_calls,
        })
    }

    /// The cost vector (parallel to the divisor list).
    pub fn costs(&self) -> &[u64] {
        &self.costs
    }

    /// Statistics of the underlying SAT solver.
    pub fn solver_stats(&self) -> &eco_sat::SolverStats {
        self.solver.stats()
    }
}

/// Convenience: build a [`SupportSolver`] from a problem, a quantified
/// miter, and a window divisor list, resolving costs from the problem's
/// weights.
pub fn support_solver_for(
    problem: &EcoProblem,
    qm: &QuantifiedMiter,
    divisors: &[NodeId],
    per_call_conflicts: Option<u64>,
) -> SupportSolver {
    let costs = divisors.iter().map(|&d| problem.weight(d)).collect();
    SupportSolver::new(qm, divisors.to_vec(), costs, per_call_conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_sat::Var;

    /// Builds a solver where UNSAT requires assuming a specific subset
    /// of marker literals: clauses `(!m_i or x_i)` plus `(!x_a or !x_b ...)`
    /// patterns let tests control which subsets are UNSAT.
    fn marker_solver(n: usize) -> (Solver, Vec<Lit>, Vec<Var>) {
        let mut s = Solver::new();
        let xs: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        let ms: Vec<Lit> = (0..n).map(|_| s.new_var().positive()).collect();
        for i in 0..n {
            // m_i forces x_i true.
            s.add_clause(&[!ms[i], xs[i].positive()]);
        }
        (s, ms, xs)
    }

    #[test]
    fn minimizes_to_the_single_needed_assumption() {
        let (mut s, ms, xs) = marker_solver(8);
        // x3 must be false: only m3 conflicts.
        s.add_clause(&[xs[3].negative()]);
        let mut a = ms.clone();
        let (kept, _calls) = minimize_assumptions(&mut s, &[], &mut a).expect("no budget");
        assert_eq!(kept, 1);
        assert_eq!(a[0], ms[3]);
    }

    #[test]
    fn minimizes_to_a_pair() {
        let (mut s, ms, xs) = marker_solver(8);
        // x1 and x6 cannot both hold.
        s.add_clause(&[xs[1].negative(), xs[6].negative()]);
        let mut a = ms.clone();
        let (kept, _) = minimize_assumptions(&mut s, &[], &mut a).expect("no budget");
        assert_eq!(kept, 2);
        let mut sel = a[..2].to_vec();
        sel.sort_unstable();
        let mut expect = vec![ms[1], ms[6]];
        expect.sort_unstable();
        assert_eq!(sel, expect);
    }

    #[test]
    fn keeps_everything_when_all_needed() {
        let (mut s, ms, xs) = marker_solver(4);
        // At least one x must be false.
        s.add_clause(&xs.iter().map(|x| x.negative()).collect::<Vec<_>>());
        let mut a = ms.clone();
        let (kept, _) = minimize_assumptions(&mut s, &[], &mut a).expect("no budget");
        assert_eq!(kept, 4);
    }

    #[test]
    fn respects_fixed_context() {
        let (mut s, ms, xs) = marker_solver(4);
        s.add_clause(&[xs[0].negative(), xs[2].negative()]);
        // With m0 fixed, only m2 is needed from the array.
        let mut a = vec![ms[1], ms[2], ms[3]];
        let fixed = vec![ms[0]];
        let (kept, _) = minimize_assumptions(&mut s, &fixed, &mut a).expect("no budget");
        assert_eq!(kept, 1);
        assert_eq!(a[0], ms[2]);
    }

    #[test]
    fn empty_assumption_list() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause(&[v.positive()]);
        s.add_clause(&[v.negative()]);
        let mut a: Vec<Lit> = vec![];
        let (kept, calls) = minimize_assumptions(&mut s, &[], &mut a).expect("no budget");
        assert_eq!((kept, calls), (0, 0));
    }

    #[test]
    fn call_count_is_logarithmic_for_single_culprit() {
        // With one needed assumption among N sorted first by the search,
        // the call count should grow like log N, far below N.
        for n in [16usize, 64, 256] {
            let (mut s, ms, xs) = marker_solver(n);
            s.add_clause(&[xs[n - 1].negative()]);
            let mut a = ms.clone();
            let (kept, calls) = minimize_assumptions(&mut s, &[], &mut a).expect("no budget");
            assert_eq!(kept, 1);
            assert!(
                calls as usize <= 4 * n.ilog2() as usize + 4,
                "n={n}: {calls} calls is not logarithmic"
            );
        }
    }

    #[test]
    fn naive_matches_divide_and_conquer_result_size() {
        for seed in 0..6u64 {
            let n = 10;
            let (mut s1, ms1, xs1) = marker_solver(n);
            let (mut s2, ms2, xs2) = marker_solver(n);
            // A pseudo-random pair conflict derived from the seed.
            let a = (seed as usize * 3 + 1) % n;
            let b = (seed as usize * 5 + 7) % n;
            if a == b {
                continue;
            }
            s1.add_clause(&[xs1[a].negative(), xs1[b].negative()]);
            s2.add_clause(&[xs2[a].negative(), xs2[b].negative()]);
            let mut v1 = ms1.clone();
            let mut v2 = ms2.clone();
            let (k1, c1) = minimize_assumptions(&mut s1, &[], &mut v1).expect("dc");
            let (k2, c2) = naive_minimize_assumptions(&mut s2, &[], &mut v2).expect("naive");
            assert_eq!(k1, k2, "seed {seed}");
            // Map selected literals of s2's space to indices for comparison.
            let sel1: std::collections::HashSet<usize> = v1[..k1]
                .iter()
                .map(|l| ms1.iter().position(|m| m == l).unwrap())
                .collect();
            let sel2: std::collections::HashSet<usize> = v2[..k2]
                .iter()
                .map(|l| ms2.iter().position(|m| m == l).unwrap())
                .collect();
            assert_eq!(sel1, sel2, "seed {seed}");
            // The naive version always pays one call per assumption; the
            // divide-and-conquer advantage is asymptotic (see the
            // call_count_is_logarithmic test), not guaranteed at N = 10.
            assert_eq!(c2 as usize, n);
            let _ = c1;
        }
    }

    #[test]
    fn prefers_early_entries() {
        let (mut s, ms, xs) = marker_solver(4);
        // Either x0 or x3 being true suffices for the conflict with y.
        let y = s.new_var();
        s.add_clause(&[y.positive()]);
        s.add_clause(&[xs[0].negative(), y.negative()]);
        s.add_clause(&[xs[3].negative(), y.negative()]);
        // Both m0 and m3 alone are sufficient; order prefers m0.
        let mut a = ms.clone();
        let (kept, _) = minimize_assumptions(&mut s, &[], &mut a).expect("no budget");
        assert_eq!(kept, 1);
        assert_eq!(
            a[0], ms[0],
            "cheapest (earliest) sufficient assumption wins"
        );
    }
}
