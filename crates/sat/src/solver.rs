//! A MiniSat-style CDCL SAT solver.
//!
//! Features required by the ECO engine:
//!
//! - incremental solving under assumptions ([`Solver::solve`]),
//! - final-conflict analysis over assumptions ([`Solver::conflict`],
//!   the `analyze_final` of MiniSat used by the paper's baseline),
//! - conflict/propagation budgets for timeout-style `Unknown` results,
//! - two-watched-literal propagation, 1-UIP learning with clause
//!   minimization, VSIDS decisions, phase saving, Luby restarts and
//!   activity-based learnt-clause reduction,
//! - optional resolution-proof logging for Craig interpolation
//!   ([`Solver::enable_proof`]).

use crate::clause::{ClauseDb, ClauseRef, Watcher, BINARY, NO_CLAUSE};
use crate::govern::SearchControl;
use crate::heap::VarHeap;
use crate::types::{LBool, Lit, SolveResult, Var};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many conflicts may pass between [`SearchControl::consume`]
/// reports from the search loop.
const CONTROL_CHECK_CONFLICTS: u64 = 128;
/// How many propagations may pass between [`SearchControl::consume`]
/// reports (the conflict-free bound on check latency).
const CONTROL_CHECK_PROPAGATIONS: u64 = 8_192;

/// Statistics accumulated over the lifetime of a [`Solver`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of `solve` invocations.
    pub solves: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses deleted by database reduction.
    pub deleted_learnts: u64,
    /// Learnt clauses (including units) added by conflict analysis.
    pub learned_clauses: u64,
    /// Peak number of live learnt clauses in the database.
    pub peak_learnts: u64,
    /// Wall-clock time spent inside `solve`, accumulated only while
    /// timing is enabled via [`Solver::set_timing`] (zero otherwise).
    pub solve_time: Duration,
}

impl SolverStats {
    /// Counter deltas accumulated since an `earlier` snapshot of the
    /// same solver. `peak_learnts` is a high-water mark, not a counter,
    /// so the later snapshot's value is kept as-is.
    pub fn since(&self, earlier: SolverStats) -> SolverStats {
        SolverStats {
            solves: self.solves.saturating_sub(earlier.solves),
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            deleted_learnts: self.deleted_learnts.saturating_sub(earlier.deleted_learnts),
            learned_clauses: self.learned_clauses.saturating_sub(earlier.learned_clauses),
            peak_learnts: self.peak_learnts,
            solve_time: self.solve_time.saturating_sub(earlier.solve_time),
        }
    }
}

impl std::fmt::Display for SolverStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "solves={} decisions={} propagations={} conflicts={} restarts={} deleted={} \
             learned={} peak_learnts={} solve_time={:.3}s",
            self.solves,
            self.decisions,
            self.propagations,
            self.conflicts,
            self.restarts,
            self.deleted_learnts,
            self.learned_clauses,
            self.peak_learnts,
            self.solve_time.as_secs_f64()
        )
    }
}

/// One step of a recorded resolution chain: resolve the running
/// resolvent with `clause` on pivot variable `pivot`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainStep {
    /// The pivot variable of this resolution step.
    pub pivot: Var,
    /// The antecedent clause resolved in.
    pub clause: ClauseRef,
}

/// Resolution derivation of a learnt clause: the head clause resolved
/// successively with each [`ChainStep`].
#[derive(Clone, Debug, Default)]
pub struct ProofChain {
    /// First antecedent (the conflicting clause when learning).
    pub head: Option<ClauseRef>,
    /// Subsequent resolution steps in order.
    pub steps: Vec<ChainStep>,
}

#[derive(Clone, Debug, Default)]
struct ProofLog {
    /// `chains[cref]` is the derivation of learnt clause `cref`
    /// (`None` head for original clauses).
    chains: Vec<ProofChain>,
    /// Clause partition tags for interpolation (user-defined meaning).
    tags: Vec<u8>,
}

impl ProofLog {
    fn ensure(&mut self, cref: ClauseRef) {
        let need = cref.index() + 1;
        if self.chains.len() < need {
            self.chains.resize_with(need, ProofChain::default);
            self.tags.resize(need, 0);
        }
    }
}

/// Incremental CDCL SAT solver.
///
/// # Examples
///
/// Solve `(a ∨ b) ∧ (¬a ∨ b) ∧ (¬b ∨ c)` under the assumption `¬c`:
///
/// ```
/// use eco_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let (a, b, c) = (s.new_var(), s.new_var(), s.new_var());
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[a.negative(), b.positive()]);
/// s.add_clause(&[b.negative(), c.positive()]);
/// assert_eq!(s.solve(&[]), SolveResult::Sat);
/// assert_eq!(s.solve(&[c.negative()]), SolveResult::Unsat);
/// // The failed assumption set explains the conflict:
/// assert_eq!(s.conflict(), &[c.negative()]);
/// ```
#[derive(Clone, Debug)]
pub struct Solver {
    db: ClauseDb,
    /// Number of live original (problem) clauses.
    num_original: usize,
    watches: Vec<Vec<Watcher>>,
    /// Literal-indexed assignment: `vals[l]` is the value of `l`, kept
    /// in step for both polarities of a variable.
    vals: Vec<LBool>,
    polarity: Vec<bool>,
    decision_var: Vec<bool>,
    level: Vec<u32>,
    /// Arena offset of each variable's reason clause ([`NO_CLAUSE`]
    /// for decisions and unassigned variables).
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    var_decay: f64,
    cla_inc: f64,
    cla_decay: f64,
    /// Times learnt-clause activities were rescaled to avoid overflow.
    cla_rescales: u64,
    order: VarHeap,
    seen: Vec<u8>,
    analyze_stack: Vec<Lit>,
    analyze_toclear: Vec<Lit>,
    lbd_stamp: Vec<u32>,
    lbd_counter: u32,
    ok: bool,
    model: Vec<LBool>,
    conflict: Vec<Lit>,
    conflict_budget: Option<u64>,
    propagation_budget: Option<u64>,
    budget_conflicts: u64,
    budget_propagations: u64,
    next_reduce: u64,
    num_reduces: u64,
    restart_base: u64,
    stats: SolverStats,
    proof: Option<ProofLog>,
    final_conflict: Option<ClauseRef>,
    chain_scratch: ProofChain,
    control: Option<Arc<dyn SearchControl>>,
    control_last_conflicts: u64,
    control_last_propagations: u64,
    control_stop: bool,
    timing: bool,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with no variables or clauses.
    pub fn new() -> Solver {
        Solver {
            db: ClauseDb::new(),
            num_original: 0,
            watches: Vec::new(),
            vals: Vec::new(),
            polarity: Vec::new(),
            decision_var: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            var_decay: 0.95,
            cla_inc: 1.0,
            cla_decay: 0.999,
            cla_rescales: 0,
            order: VarHeap::new(),
            seen: Vec::new(),
            analyze_stack: Vec::new(),
            analyze_toclear: Vec::new(),
            lbd_stamp: Vec::new(),
            lbd_counter: 0,
            ok: true,
            model: Vec::new(),
            conflict: Vec::new(),
            conflict_budget: None,
            propagation_budget: None,
            budget_conflicts: 0,
            budget_propagations: 0,
            next_reduce: 30_000,
            num_reduces: 0,
            restart_base: 100,
            stats: SolverStats::default(),
            proof: None,
            final_conflict: None,
            chain_scratch: ProofChain::default(),
            control: None,
            control_last_conflicts: 0,
            control_last_propagations: 0,
            control_stop: false,
            timing: false,
        }
    }

    /// Enables resolution-proof logging for Craig interpolation.
    ///
    /// Must be called before any clause is added. In proof mode the
    /// solver keeps every learnt clause (no database reduction), does not
    /// simplify added clauses, and records a [`ProofChain`] for each
    /// learnt clause, so an UNSAT answer at decision level zero carries a
    /// complete refutation.
    ///
    /// # Panics
    ///
    /// Panics if clauses have already been added.
    pub fn enable_proof(&mut self) {
        assert!(
            self.db.len() == 0 && self.trail.is_empty(),
            "proof logging must be enabled on a fresh solver"
        );
        self.proof = Some(ProofLog::default());
    }

    /// Returns `true` if proof logging is active.
    pub fn proof_enabled(&self) -> bool {
        self.proof.is_some()
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of live problem (non-learnt) clauses.
    pub fn num_clauses(&self) -> usize {
        self.num_original
    }

    /// Number of live learnt clauses.
    pub fn num_learnts(&self) -> usize {
        self.db.num_learnt
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Enables (or disables) wall-clock timing of [`Solver::solve`]
    /// calls, accumulated into [`SolverStats::solve_time`].
    ///
    /// Timing is off by default so unobserved runs never touch the
    /// clock; observers that want per-call latency switch it on.
    pub fn set_timing(&mut self, enabled: bool) {
        self.timing = enabled;
    }

    /// `false` once the clause set has been proven unsatisfiable outright
    /// (without assumptions).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Creates a fresh decision variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.level.len() as u32);
        self.vals.extend([LBool::Undef, LBool::Undef]);
        self.polarity.push(true); // default phase: assign false
        self.decision_var.push(true);
        self.level.push(0);
        self.reason.push(NO_CLAUSE);
        self.activity.push(0.0);
        self.seen.push(0);
        self.lbd_stamp.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v, &self.activity);
        v
    }

    /// Sets the preferred phase of `v`: the value tried first when the
    /// solver branches on it.
    pub fn set_polarity(&mut self, v: Var, prefer_true: bool) {
        self.polarity[v.index()] = !prefer_true;
    }

    /// Marks whether `v` may be chosen as a decision variable. Frozen
    /// (non-decision) variables are only ever assigned by propagation —
    /// useful for auxiliary encodings whose values are implied.
    pub fn set_decision_var(&mut self, v: Var, decision: bool) {
        self.decision_var[v.index()] = decision;
        if decision && self.value_lit(v.positive()).is_undef() {
            self.order.insert(v, &self.activity);
        }
    }

    /// Limits the next [`Solver::solve`] calls to roughly the given number
    /// of conflicts and/or propagations; exceeding either yields
    /// [`SolveResult::Unknown`]. Budgets are cumulative from the moment of
    /// this call.
    pub fn set_budget(&mut self, conflicts: Option<u64>, propagations: Option<u64>) {
        self.conflict_budget = conflicts.map(|c| self.budget_conflicts + c);
        self.propagation_budget = propagations.map(|p| self.budget_propagations + p);
    }

    /// Removes any budget set by [`Solver::set_budget`].
    pub fn clear_budget(&mut self) {
        self.conflict_budget = None;
        self.propagation_budget = None;
    }

    /// Attaches (or with `None` detaches) a cooperative stop hook.
    ///
    /// The hook is asked once at the start of every [`Solver::solve`]
    /// and then periodically from the search loop with the conflicts
    /// and propagations spent since its previous report; when it
    /// returns `true` the current call answers
    /// [`SolveResult::Unknown`]. A [`ResourceGovernor`](crate::ResourceGovernor)
    /// shared across several solvers implements deadlines, global
    /// budget pools, cancellation, and fault injection this way.
    pub fn set_search_control(&mut self, control: Option<Arc<dyn SearchControl>>) {
        self.control = control;
        self.control_last_conflicts = self.budget_conflicts;
        self.control_last_propagations = self.budget_propagations;
        self.control_stop = false;
    }

    /// Whether the most recent [`Solver::solve`] was stopped by the
    /// attached [`SearchControl`] (as opposed to finishing or running
    /// out of a local [`Solver::set_budget`] budget).
    pub fn control_stopped(&self) -> bool {
        self.control_stop
    }

    /// Reports outstanding conflict/propagation deltas to the control
    /// hook, recording a pending stop if it asks for one.
    fn control_flush(&mut self) {
        if let Some(control) = &self.control {
            let dc = self.budget_conflicts - self.control_last_conflicts;
            let dp = self.budget_propagations - self.control_last_propagations;
            if dc > 0 || dp > 0 {
                self.control_last_conflicts = self.budget_conflicts;
                self.control_last_propagations = self.budget_propagations;
                if control.consume(dc, dp) {
                    self.control_stop = true;
                }
            }
        }
    }

    /// Periodic in-search control check: flushes deltas to the hook
    /// once enough work has accumulated. Returns `true` when the
    /// current call must stop.
    fn control_check(&mut self) -> bool {
        if self.control.is_none() {
            return false;
        }
        let dc = self.budget_conflicts - self.control_last_conflicts;
        let dp = self.budget_propagations - self.control_last_propagations;
        if dc >= CONTROL_CHECK_CONFLICTS || dp >= CONTROL_CHECK_PROPAGATIONS {
            self.control_flush();
        }
        self.control_stop
    }

    #[inline]
    fn value_lit(&self, l: Lit) -> LBool {
        self.vals[l.index()]
    }

    /// Current assignment of a literal (valid during/after search at
    /// level zero; use [`Solver::model_value`] for models).
    pub fn value(&self, l: Lit) -> LBool {
        self.value_lit(l)
    }

    /// Value of `l` in the most recent model (after a `Sat` answer).
    pub fn model_value(&self, l: Lit) -> LBool {
        match self.model.get(l.var().index()) {
            Some(&v) => v ^ l.is_negated(),
            None => LBool::Undef,
        }
    }

    /// The most recent model as a per-variable assignment.
    pub fn model(&self) -> &[LBool] {
        &self.model
    }

    /// After an `Unsat` answer: the subset of the assumptions (in the
    /// polarity they were passed) that is sufficient for
    /// unsatisfiability. Empty when the clause set itself is
    /// unsatisfiable.
    ///
    /// This is MiniSat's `analyze_final` result, used directly by the
    /// paper's baseline support computation.
    pub fn conflict(&self) -> &[Lit] {
        &self.conflict
    }

    /// Adds a clause. Returns `false` if the clause set is now known
    /// unsatisfiable (the solver stays usable but every solve returns
    /// `Unsat`).
    ///
    /// # Panics
    ///
    /// Panics if called while the solver is not at decision level zero
    /// (i.e. from inside a search callback) or if a literal references a
    /// variable that was never created.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.add_clause_tagged(lits, 0).0
    }

    /// Adds a clause carrying a proof-partition tag (meaningful only in
    /// proof mode; see [`Solver::enable_proof`]). Returns the ok-flag and
    /// the allocated clause reference, when one was created.
    pub fn add_clause_tagged(&mut self, lits: &[Lit], tag: u8) -> (bool, Option<ClauseRef>) {
        assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        for l in lits {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l:?} out of range"
            );
        }
        if !self.ok {
            return (false, None);
        }
        let mut ps: Vec<Lit> = lits.to_vec();
        ps.sort_unstable();
        ps.dedup();
        // Tautology check.
        for w in ps.windows(2) {
            if w[0] == !w[1] {
                return (true, None);
            }
        }
        if self.proof.is_none() {
            // Level-0 simplification (not proof-safe, so skipped there).
            let mut keep = Vec::with_capacity(ps.len());
            for &l in &ps {
                match self.value_lit(l) {
                    LBool::True => return (true, None),
                    LBool::False => {}
                    LBool::Undef => keep.push(l),
                }
            }
            ps = keep;
        }
        match ps.len() {
            0 => {
                self.ok = false;
                (false, None)
            }
            1 => {
                if self.proof.is_some() {
                    let off = self.db.alloc(&ps, false, 0);
                    let cref = self.db.id(off);
                    self.num_original += 1;
                    self.tag_clause(cref, tag, ProofChain::default());
                    match self.value_lit(ps[0]) {
                        LBool::True => (true, Some(cref)),
                        LBool::False => {
                            // Immediate contradiction with an earlier unit.
                            self.final_conflict = Some(cref);
                            self.ok = false;
                            (false, Some(cref))
                        }
                        LBool::Undef => {
                            self.unchecked_enqueue(ps[0], off);
                            let confl = self.propagate();
                            if let Some(c) = confl {
                                self.final_conflict = Some(self.db.id(c));
                                self.ok = false;
                                (false, Some(cref))
                            } else {
                                (true, Some(cref))
                            }
                        }
                    }
                } else {
                    self.unchecked_enqueue(ps[0], NO_CLAUSE);
                    if self.propagate().is_some() {
                        self.ok = false;
                        (false, None)
                    } else {
                        (true, None)
                    }
                }
            }
            _ => {
                let off = self.db.alloc(&ps, false, 0);
                let cref = self.db.id(off);
                self.num_original += 1;
                if self.proof.is_some() {
                    self.tag_clause(cref, tag, ProofChain::default());
                }
                self.attach(off);
                (true, Some(cref))
            }
        }
    }

    fn tag_clause(&mut self, cref: ClauseRef, tag: u8, chain: ProofChain) {
        if let Some(p) = self.proof.as_mut() {
            p.ensure(cref);
            p.tags[cref.index()] = tag;
            p.chains[cref.index()] = chain;
        }
    }

    /// The proof-partition tag of a clause (0 unless set).
    pub fn clause_tag(&self, cref: ClauseRef) -> u8 {
        self.proof
            .as_ref()
            .and_then(|p| p.tags.get(cref.index()).copied())
            .unwrap_or(0)
    }

    /// The literals of a live clause.
    pub fn clause_lits(&self, cref: ClauseRef) -> &[Lit] {
        self.db.lits(self.db.offset(cref))
    }

    /// `true` when the clause was learnt (derived) rather than given.
    pub fn clause_is_learnt(&self, cref: ClauseRef) -> bool {
        self.db.is_learnt(self.db.offset(cref))
    }

    /// The recorded derivation of a learnt clause (proof mode only).
    pub fn proof_chain(&self, cref: ClauseRef) -> Option<&ProofChain> {
        self.proof.as_ref().map(|p| &p.chains[cref.index()])
    }

    /// After an `Unsat` answer with no assumptions in proof mode: the
    /// clause that is conflicting at decision level zero. The refutation
    /// is this clause resolved against the reasons of its (all false)
    /// literals, transitively.
    pub fn final_conflict_clause(&self) -> Option<ClauseRef> {
        self.final_conflict
    }

    /// The reason clause that propagated the current value of `v`
    /// (valid for level-zero inspection after solving in proof mode).
    pub fn var_reason(&self, v: Var) -> Option<ClauseRef> {
        let r = self.reason[v.index()];
        (r != NO_CLAUSE).then(|| self.db.id(r))
    }

    /// Total clause-arena length, covering every [`ClauseRef`] ever
    /// allocated (proof mode never recycles slots, so indices
    /// `0..proof_arena_len()` enumerate the resolution DAG in
    /// topological order).
    pub fn proof_arena_len(&self) -> usize {
        self.db.arena_len()
    }

    /// The level-zero prefix of the assignment trail, in propagation
    /// order. After an UNSAT answer the solver sits at level zero, so
    /// this is the full set of derived facts backing the refutation.
    pub fn trail_level0(&self) -> &[Lit] {
        let end = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        &self.trail[..end]
    }

    /// Watches the first two literals of the clause at `off`. Outside
    /// proof mode a binary clause gets tagged watchers whose blocker is
    /// the literal the clause implies, so propagating it never touches
    /// clause memory.
    fn attach(&mut self, off: u32) {
        let lits = self.db.lits(off);
        let (l0, l1) = (lits[0], lits[1]);
        let cref = if lits.len() == 2 && self.proof.is_none() {
            off | BINARY
        } else {
            off
        };
        self.watches[(!l0).index()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).index()].push(Watcher { cref, blocker: l0 });
    }

    fn detach(&mut self, off: u32) {
        let lits = self.db.lits(off);
        for w in [(!lits[0]).index(), (!lits[1]).index()] {
            let list = &mut self.watches[w];
            let pos = list
                .iter()
                .position(|watcher| watcher.offset() == off)
                .expect("watcher must exist");
            list.swap_remove(pos);
        }
    }

    #[inline]
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn unchecked_enqueue(&mut self, p: Lit, from: u32) {
        debug_assert!(self.value_lit(p).is_undef());
        let v = p.var().index();
        self.vals[p.index()] = LBool::True;
        self.vals[(!p).index()] = LBool::False;
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = from;
        self.trail.push(p);
    }

    /// Propagates all enqueued facts; returns the offset of a
    /// conflicting clause if one arises.
    fn propagate(&mut self) -> Option<u32> {
        let mut confl = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            self.budget_propagations += 1;
            let false_lit = !p;
            let mut i = 0;
            // Take the watch list to appease the borrow checker; indices
            // into `self.watches[p]` are edited in place.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            'watchers: while i < ws.len() {
                let Watcher { cref, blocker } = ws[i];
                let blocker_value = self.vals[blocker.index()];
                if blocker_value == LBool::True {
                    i += 1;
                    continue;
                }
                if cref & BINARY != 0 {
                    // The blocker is the other literal: the clause is
                    // unit or conflicting.
                    let off = cref & !BINARY;
                    i += 1;
                    if blocker_value == LBool::False {
                        // Conflict analysis reads the literals in the
                        // order [other, false_lit].
                        let lits = self.db.lits_mut(off);
                        lits[0] = blocker;
                        lits[1] = false_lit;
                        confl = Some(off);
                        self.qhead = self.trail.len();
                        break;
                    }
                    self.unchecked_enqueue(blocker, off);
                    continue;
                }
                let lits = self.db.lits_mut(cref);
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                if first != blocker && self.vals[first.index()] == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let lk = lits[k];
                    if self.vals[lk.index()] != LBool::False {
                        lits.swap(1, k);
                        self.watches[(!lk).index()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                ws[i].blocker = first;
                i += 1;
                if self.vals[first.index()] == LBool::False {
                    confl = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                } else {
                    self.unchecked_enqueue(first, cref);
                }
            }
            let mut existing = std::mem::take(&mut self.watches[p.index()]);
            if existing.is_empty() {
                self.watches[p.index()] = ws;
            } else {
                // New watchers may have been appended for `p` while we held
                // its list (self-referential clause movement).
                ws.append(&mut existing);
                self.watches[p.index()] = ws;
            }
            if confl.is_some() {
                break;
            }
        }
        confl
    }

    fn var_bump_activity(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.decrease(v, &self.activity);
    }

    fn var_decay_activity(&mut self) {
        self.var_inc /= self.var_decay;
    }

    /// Bumps a learnt clause's activity. Only learnt clauses carry an
    /// activity (reduction ranks nothing else), and only they are
    /// rescaled, so bumping an original clause would let it cross the
    /// threshold again on every later bump and drive `cla_inc` to zero.
    fn cla_bump_activity(&mut self, off: u32) {
        debug_assert!(self.db.is_learnt(off));
        let activity = self.db.activity(off) + self.cla_inc as f32;
        self.db.set_activity(off, activity);
        if activity > 1e20 {
            self.cla_rescales += 1;
            for r in self.db.learnt_refs() {
                self.db.set_activity(r, self.db.activity(r) * 1e-20);
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn cla_decay_activity(&mut self) {
        self.cla_inc /= self.cla_decay;
    }

    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        let mut lbd = 0;
        let n = self.lbd_stamp.len();
        for &l in lits {
            let lv = self.level[l.var().index()] as usize;
            if lv > 0 && self.lbd_stamp[lv % n] != stamp {
                self.lbd_stamp[lv % n] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// Analyzes a conflict; returns the learnt clause (first literal is
    /// the asserting literal) and the backtrack level. Records the
    /// resolution chain into `chain_scratch` when proof mode is active.
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit::UNDEF];
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let proof = self.proof.is_some();
        if proof {
            self.chain_scratch.head = Some(self.db.id(confl));
            self.chain_scratch.steps.clear();
        }

        loop {
            if self.db.is_learnt(confl) {
                self.cla_bump_activity(confl);
            }
            let n = self.db.len_of(confl);
            for k in 0..n {
                let q = self.db.lit(confl, k);
                // A reason clause contributes every literal but the one
                // it implied; the conflict clause contributes all.
                if Some(q) == p {
                    continue;
                }
                let v = q.var();
                if self.seen[v.index()] == 0 {
                    if self.level[v.index()] > 0 {
                        self.var_bump_activity(v);
                        self.seen[v.index()] = 1;
                        if self.level[v.index()] as usize >= self.decision_level() {
                            path_count += 1;
                        } else {
                            learnt.push(q);
                        }
                    } else if proof {
                        // Dropping a false level-0 literal is an implicit
                        // resolution with its unit derivation; keeping it
                        // in the clause keeps the recorded chain exact.
                        // The literal is harmless (permanently false).
                        self.seen[v.index()] = 1;
                        learnt.push(q);
                    }
                }
            }
            // Select the next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] != 0 {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = 0;
            path_count -= 1;
            if path_count == 0 {
                break;
            }
            confl = self.reason[pl.var().index()];
            debug_assert!(confl != NO_CLAUSE, "non-decision must have a reason");
            if proof {
                self.chain_scratch.steps.push(ChainStep {
                    pivot: pl.var(),
                    clause: self.db.id(confl),
                });
            }
        }
        learnt[0] = !p.expect("asserting literal exists");

        // Recursive (deep) conflict clause minimization, MiniSat-style.
        // Skipped in proof mode to keep resolution chains exact.
        self.analyze_toclear.clear();
        self.analyze_toclear.extend_from_slice(&learnt);
        if !proof {
            let abstract_levels: u32 = learnt[1..]
                .iter()
                .fold(0, |acc, l| acc | self.abstract_level(l.var()));
            let mut j = 1;
            for i in 1..learnt.len() {
                let l = learnt[i];
                let keep = self.reason[l.var().index()] == NO_CLAUSE
                    || !self.lit_redundant(l, abstract_levels);
                if keep {
                    learnt[j] = l;
                    j += 1;
                }
            }
            learnt.truncate(j);
        }
        for i in 0..self.analyze_toclear.len() {
            self.seen[self.analyze_toclear[i].var().index()] = 0;
        }

        // Compute the backtrack level: the second highest level in the
        // learnt clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };
        (learnt, bt)
    }

    #[inline]
    fn abstract_level(&self, v: Var) -> u32 {
        1 << (self.level[v.index()] & 31)
    }

    /// MiniSat's `litRedundant`: checks whether `p` (a literal of the
    /// learnt clause) is implied by other marked literals, walking
    /// reasons transitively. Marks visited literals in `seen` /
    /// `analyze_toclear`.
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u32) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(p);
        let top = self.analyze_toclear.len();
        while let Some(q) = self.analyze_stack.pop() {
            let r = self.reason[q.var().index()];
            debug_assert!(r != NO_CLAUSE, "stacked literals have reasons");
            let n = self.db.len_of(r);
            for k in 0..n {
                let l = self.db.lit(r, k);
                let v = l.var();
                if v == q.var() {
                    continue; // the literal the reason implied
                }
                if self.seen[v.index()] == 0 && self.level[v.index()] > 0 {
                    if self.reason[v.index()] != NO_CLAUSE
                        && self.abstract_level(v) & abstract_levels != 0
                    {
                        self.seen[v.index()] = 1;
                        self.analyze_stack.push(l);
                        self.analyze_toclear.push(l);
                    } else {
                        for j in top..self.analyze_toclear.len() {
                            self.seen[self.analyze_toclear[j].var().index()] = 0;
                        }
                        self.analyze_toclear.truncate(top);
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Computes the set of assumptions responsible for forcing `p` false
    /// (MiniSat `analyzeFinal`). `p` is the failed assumption in its
    /// original polarity; the result (in `self.conflict`) lists failed
    /// assumptions in original polarity.
    fn analyze_final(&mut self, p: Lit) {
        self.conflict.clear();
        self.conflict.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = 1;
        let start = self.trail_lim[0];
        for i in (start..self.trail.len()).rev() {
            let x = self.trail[i];
            let xv = x.var().index();
            if self.seen[xv] == 0 {
                continue;
            }
            let r = self.reason[xv];
            if r == NO_CLAUSE {
                debug_assert!(self.level[xv] > 0);
                // A decision here is an asserted assumption.
                self.conflict.push(x);
            } else {
                for k in 0..self.db.len_of(r) {
                    let q = self.db.lit(r, k);
                    if q != x && self.level[q.var().index()] > 0 {
                        self.seen[q.var().index()] = 1;
                    }
                }
            }
            self.seen[xv] = 0;
        }
        self.seen[p.var().index()] = 0;
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.vals[l.index()] = LBool::Undef;
            self.vals[(!l).index()] = LBool::Undef;
            // Phase saving.
            self.polarity[v.index()] = l.is_negated();
            self.reason[v.index()] = NO_CLAUSE;
            if !self.order.contains(v) && self.decision_var[v.index()] {
                self.order.insert(v, &self.activity);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        loop {
            let v = self.order.pop(&self.activity)?;
            if self.value_lit(v.positive()).is_undef() && self.decision_var[v.index()] {
                return Some(v.lit(self.polarity[v.index()]));
            }
        }
    }

    fn reduce_db(&mut self) {
        if self.proof.is_some() {
            return; // keep everything for the refutation
        }
        // Id order, then a stable sort, so ties never depend on where
        // clauses sit in the arena.
        let mut refs = self.db.learnt_refs();
        // Sort so the clauses to remove come first: high LBD, low activity.
        let db = &self.db;
        refs.sort_by(|&a, &b| {
            db.lbd(b).cmp(&db.lbd(a)).then(
                db.activity(a)
                    .partial_cmp(&db.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let target = refs.len() / 2;
        let mut removed = 0;
        for &r in &refs {
            if removed >= target {
                break;
            }
            if self.db.lbd(r) <= 2 || self.db.len_of(r) == 2 {
                continue;
            }
            // Never remove a clause that is the reason for a current
            // assignment.
            let l0 = self.db.lit(r, 0);
            let locked = self.value_lit(l0).is_true() && self.reason[l0.var().index()] == r;
            if locked {
                continue;
            }
            self.detach(r);
            self.db.free(r);
            removed += 1;
            self.stats.deleted_learnts += 1;
        }
        if self.db.should_compact() {
            self.db.compact(&mut self.watches, &mut self.reason);
        }
    }

    fn budget_exceeded(&self) -> bool {
        self.conflict_budget
            .is_some_and(|b| self.budget_conflicts >= b)
            || self
                .propagation_budget
                .is_some_and(|b| self.budget_propagations >= b)
    }

    /// Search with at most `max_conflicts` conflicts (for restarts).
    fn search(&mut self, max_conflicts: u64, assumptions: &[Lit]) -> SolveResult {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                self.budget_conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.final_conflict = Some(self.db.id(confl));
                    self.conflict.clear();
                    return SolveResult::Unsat;
                }
                let (learnt, bt_level) = self.analyze(confl);
                // Never backtrack past the assumptions that are still
                // consistent; re-asserting happens in the decision step.
                self.cancel_until(bt_level);
                self.stats.learned_clauses += 1;
                if learnt.len() == 1 {
                    if self.proof.is_some() {
                        // Units are first-class proof objects here.
                        let chain = std::mem::take(&mut self.chain_scratch);
                        let off = self.db.alloc(&learnt, true, 1);
                        let cref = self.db.id(off);
                        self.tag_clause(cref, 0, chain);
                        if self.decision_level() == 0 && self.value_lit(learnt[0]).is_undef() {
                            self.unchecked_enqueue(learnt[0], off);
                        } else if self.decision_level() == 0 {
                            // Already assigned: either satisfied (fine) or
                            // conflicting (unsat).
                            if self.value_lit(learnt[0]).is_false() {
                                self.ok = false;
                                self.final_conflict = Some(cref);
                                self.conflict.clear();
                                return SolveResult::Unsat;
                            }
                        } else {
                            self.unchecked_enqueue(learnt[0], off);
                        }
                    } else {
                        debug_assert_eq!(self.decision_level(), 0);
                        self.unchecked_enqueue(learnt[0], NO_CLAUSE);
                    }
                } else {
                    let lbd = self.compute_lbd(&learnt);
                    let off = self.db.alloc(&learnt, true, lbd);
                    if self.proof.is_some() {
                        let chain = std::mem::take(&mut self.chain_scratch);
                        self.tag_clause(self.db.id(off), 0, chain);
                    }
                    self.attach(off);
                    self.cla_bump_activity(off);
                    self.unchecked_enqueue(learnt[0], off);
                }
                self.stats.peak_learnts = self.stats.peak_learnts.max(self.db.num_learnt as u64);
                self.var_decay_activity();
                self.cla_decay_activity();
            } else {
                if conflicts_here >= max_conflicts {
                    // Restart, but keep the assumption prefix of the trail
                    // (trail reuse: replaying hundreds of assumptions per
                    // restart dominates runtime on assumption-heavy
                    // instances like expression (2)).
                    let keep = assumptions.len().min(self.decision_level());
                    self.cancel_until(keep);
                    return SolveResult::Unknown;
                }
                if self.budget_exceeded() {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
                if self.control_check() {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
                // Glucose-style periodic reduction keyed on total conflicts.
                if self.proof.is_none() && self.stats.conflicts >= self.next_reduce {
                    self.num_reduces += 1;
                    self.next_reduce = self.stats.conflicts + 10_000 + 2_000 * self.num_reduces;
                    self.reduce_db();
                }
                // Assert pending assumptions as decisions.
                let mut next = None;
                while self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.value_lit(p) {
                        LBool::True => {
                            // Already satisfied: open a dummy level.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.analyze_final(p);
                            return SolveResult::Unsat;
                        }
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(p) => p,
                    None => match self.pick_branch_lit() {
                        Some(p) => {
                            self.stats.decisions += 1;
                            p
                        }
                        None => {
                            // All variables assigned: model found.
                            self.model = self.vals.iter().step_by(2).copied().collect();
                            return SolveResult::Sat;
                        }
                    },
                };
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(decision, NO_CLAUSE);
            }
        }
    }

    /// Solves the current clause set under the given assumptions.
    ///
    /// Returns [`SolveResult::Sat`] with a model available through
    /// [`Solver::model_value`], [`SolveResult::Unsat`] with the failed
    /// assumption subset available through [`Solver::conflict`], or
    /// [`SolveResult::Unknown`] when a budget set via
    /// [`Solver::set_budget`] ran out.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.timing {
            let start = Instant::now();
            let result = self.solve_inner(assumptions);
            self.stats.solve_time += start.elapsed();
            result
        } else {
            self.solve_inner(assumptions)
        }
    }

    /// The untimed body of [`Solver::solve`].
    fn solve_inner(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        self.model.clear();
        self.conflict.clear();
        self.control_stop = false;
        if let Some(control) = &self.control {
            self.control_last_conflicts = self.budget_conflicts;
            self.control_last_propagations = self.budget_propagations;
            if control.solve_started() {
                self.control_stop = true;
                return SolveResult::Unknown;
            }
        }
        if !self.ok {
            return SolveResult::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        let mut curr_restarts = 0u64;
        loop {
            let budget = luby(2.0, curr_restarts) * self.restart_base as f64;
            let status = self.search(budget as u64, assumptions);
            match status {
                SolveResult::Sat => {
                    self.cancel_until(0);
                    self.control_flush();
                    return SolveResult::Sat;
                }
                SolveResult::Unsat => {
                    self.cancel_until(0);
                    self.control_flush();
                    return SolveResult::Unsat;
                }
                SolveResult::Unknown => {
                    if self.budget_exceeded() || self.control_stop {
                        self.cancel_until(0);
                        self.control_flush();
                        return SolveResult::Unknown;
                    }
                    curr_restarts += 1;
                    self.stats.restarts += 1;
                }
            }
        }
    }

    /// Convenience: solve and return `Some(sat)` or `None` on budget
    /// exhaustion.
    pub fn solve_bool(&mut self, assumptions: &[Lit]) -> Option<bool> {
        match self.solve(assumptions) {
            SolveResult::Sat => Some(true),
            SolveResult::Unsat => Some(false),
            SolveResult::Unknown => None,
        }
    }
}

#[cfg(test)]
impl Solver {
    pub(crate) fn clause_db(&self) -> &ClauseDb {
        &self.db
    }

    /// Frees an original clause that is no one's reason and compacts
    /// the arena, as a reduction would.
    pub(crate) fn free_and_compact(&mut self, cref: ClauseRef) {
        let off = self.db.offset(cref);
        self.detach(off);
        self.db.free(off);
        self.num_original -= 1;
        self.db.compact(&mut self.watches, &mut self.reason);
    }
}

/// Test instance: `pigeons` pigeons into `pigeons - 1` holes (UNSAT,
/// exponential for resolution). Returns the `pigeon × hole` variables.
#[cfg(test)]
pub(crate) fn pigeonhole(s: &mut Solver, pigeons: usize) -> Vec<Vec<Var>> {
    let holes = pigeons - 1;
    let p: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for row in &p {
        let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
        s.add_clause(&clause);
    }
    for h in 0..holes {
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                s.add_clause(&[row1[h].negative(), row2[h].negative()]);
            }
        }
    }
    p
}

/// The reluctant-doubling (Luby) restart sequence.
fn luby(y: f64, mut x: u64) -> f64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    y.powi(seq as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nvars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 2);
        assert!(s.add_clause(&[v[0].positive()]));
        assert!(s.add_clause(&[v[1].negative()]));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(v[0].positive()), LBool::True);
        assert_eq!(s.model_value(v[1].positive()), LBool::False);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[v.positive()]));
        assert!(!s.add_clause(&[v.negative()]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(!s.is_ok());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn tautology_is_dropped() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[v.positive(), v.negative()]));
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn xor_chain_is_sat() {
        // x1 ^ x2 ^ x3 = 1 encoded as CNF; satisfiable.
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        let (a, b, c) = (v[0], v[1], v[2]);
        // odd parity clauses
        s.add_clause(&[a.positive(), b.positive(), c.positive()]);
        s.add_clause(&[a.positive(), b.negative(), c.negative()]);
        s.add_clause(&[a.negative(), b.positive(), c.negative()]);
        s.add_clause(&[a.negative(), b.negative(), c.positive()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let parity = [a, b, c]
            .iter()
            .filter(|&&x| s.model_value(x.positive()).is_true())
            .count();
        assert_eq!(parity % 2, 1);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_{i,j}: pigeon i in hole j; 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[row[0].positive(), row[1].positive()]);
        }
        for i1 in 0..3 {
            for i2 in (i1 + 1)..3 {
                for (a, b) in p[i1].iter().zip(p[i2].iter()) {
                    s.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_restrict_and_release() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        assert_eq!(
            s.solve(&[v[0].negative(), v[1].negative()]),
            SolveResult::Unsat
        );
        // Releasing the assumptions makes it satisfiable again.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.solve(&[v[0].negative()]), SolveResult::Sat);
        assert!(s.model_value(v[1].positive()).is_true());
    }

    #[test]
    fn final_conflict_is_subset_of_assumptions() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 4);
        // v0 & v1 -> v2; assume v0, v1, !v2, v3 — v3 is irrelevant.
        s.add_clause(&[v[0].negative(), v[1].negative(), v[2].positive()]);
        let assumptions = [
            v[3].positive(),
            v[0].positive(),
            v[1].positive(),
            v[2].negative(),
        ];
        assert_eq!(s.solve(&assumptions), SolveResult::Unsat);
        let mut confl = s.conflict().to_vec();
        confl.sort_unstable();
        for l in &confl {
            assert!(
                assumptions.contains(l),
                "conflict literal {l:?} not an assumption"
            );
        }
        assert!(
            !confl.contains(&v[3].positive()),
            "irrelevant assumption must not appear"
        );
        assert!(confl.len() >= 2);
    }

    #[test]
    fn budget_yields_unknown_on_hard_instance() {
        // A random-ish parity instance that needs some search.
        let mut s = Solver::new();
        let v = nvars(&mut s, 30);
        // Chain of xor constraints (as CNF) plus a contradiction at the end
        // makes the instance UNSAT but requiring search.
        for i in 0..29 {
            let (a, b) = (v[i], v[i + 1]);
            s.add_clause(&[a.positive(), b.positive()]);
            s.add_clause(&[a.negative(), b.negative()]);
        }
        s.add_clause(&[v[0].positive(), v[29].positive()]);
        s.add_clause(&[v[0].negative(), v[29].negative()]);
        s.set_budget(Some(1), Some(1));
        let r = s.solve(&[]);
        assert_ne!(r, SolveResult::Sat);
        s.clear_budget();
        let r2 = s.solve(&[]);
        // chain forces alternation: v0 != v29 for odd distance... verify solver
        // gives a definitive answer without budget.
        assert_ne!(r2, SolveResult::Unknown);
    }

    #[test]
    fn incremental_blocking_enumerates_models() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        let mut count = 0;
        while s.solve(&[]) == SolveResult::Sat {
            count += 1;
            assert!(count <= 8, "more models than possible");
            let block: Vec<Lit> = v
                .iter()
                .map(|&x| {
                    if s.model_value(x.positive()).is_true() {
                        x.negative()
                    } else {
                        x.positive()
                    }
                })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn polarity_hint_is_respected_on_free_variable() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.set_polarity(v, true);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.model_value(v.positive()).is_true());
        let mut s2 = Solver::new();
        let w = s2.new_var();
        s2.set_polarity(w, false);
        assert_eq!(s2.solve(&[]), SolveResult::Sat);
        assert!(s2.model_value(w.positive()).is_false());
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<f64> = (0..9).map(|i| luby(2.0, i)).collect();
        assert_eq!(seq, vec![1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0]);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        s.add_clause(&[v[0].positive(), v[1].positive(), v[2].positive()]);
        s.solve(&[]);
        assert!(s.stats().solves == 1);
        assert!(s.stats().propagations > 0 || s.stats().decisions > 0);
    }

    #[test]
    fn proof_mode_records_refutation() {
        let mut s = Solver::new();
        s.enable_proof();
        let v = nvars(&mut s, 2);
        let (a, b) = (v[0], v[1]);
        s.add_clause_tagged(&[a.positive(), b.positive()], 1);
        s.add_clause_tagged(&[a.positive(), b.negative()], 1);
        s.add_clause_tagged(&[a.negative(), b.positive()], 2);
        s.add_clause_tagged(&[a.negative(), b.negative()], 2);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let confl = s.final_conflict_clause().expect("conflict clause recorded");
        // Every literal of the final conflict is false at level 0 and has a
        // reason (or is a unit original clause).
        for &l in s.clause_lits(confl) {
            assert!(s.value(l).is_false());
        }
    }

    #[test]
    fn unsat_without_assumptions_has_empty_conflict() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        s.add_clause(&[v[0].positive(), v[1].negative()]);
        s.add_clause(&[v[0].negative(), v[1].positive()]);
        s.add_clause(&[v[0].negative(), v[1].negative()]);
        assert_eq!(s.solve(&[v[0].positive()]), SolveResult::Unsat);
        // The formula itself is UNSAT; conflict may be empty or contain the
        // assumption — but solving with no assumptions reports UNSAT with an
        // empty conflict.
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.conflict().is_empty());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn frozen_variables_are_never_decided() {
        let mut s = Solver::new();
        let a = s.new_var();
        let aux = s.new_var();
        s.set_decision_var(aux, false);
        // aux is implied by a (aux <-> a) so propagation still assigns it.
        s.add_clause(&[a.negative(), aux.positive()]);
        s.add_clause(&[a.positive(), aux.negative()]);
        assert_eq!(s.solve(&[a.positive()]), SolveResult::Sat);
        assert!(s.model_value(aux.positive()).is_true());
        // Re-enabling decisions keeps the solver usable.
        s.set_decision_var(aux, true);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn propagation_budget_yields_unknown() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..40).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause(&[w[0].negative(), w[1].positive()]);
        }
        s.add_clause(&[vars[0].positive()]);
        // The chain needs ~40 propagations; a tiny budget cannot finish.
        s.set_budget(None, Some(1));
        // Budget may or may not trip depending on where the solver checks;
        // clearing it must always restore a definitive answer.
        let _ = s.solve(&[]);
        s.clear_budget();
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.model_value(vars[39].positive()).is_true());
    }

    #[test]
    fn stats_display_is_complete() {
        let s = Solver::new();
        let text = s.stats().to_string();
        for field in [
            "solves=",
            "decisions=",
            "propagations=",
            "conflicts=",
            "restarts=",
            "learned=",
            "peak_learnts=",
            "solve_time=",
        ] {
            assert!(text.contains(field), "{text}");
        }
    }

    #[test]
    fn learned_clause_counters_track_conflicts() {
        // Odd parity chain: every conflict analysis learns a clause.
        let mut s = Solver::new();
        let n = 14;
        let xs: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for i in 0..n - 2 {
            let (a, b, c) = (xs[i], xs[i + 1], xs[i + 2]);
            s.add_clause(&[a.positive(), b.positive(), c.positive()]);
            s.add_clause(&[a.positive(), b.negative(), c.negative()]);
            s.add_clause(&[a.negative(), b.positive(), c.negative()]);
            s.add_clause(&[a.negative(), b.negative(), c.positive()]);
        }
        let mut mixed: Vec<Lit> = xs.iter().map(|v| v.positive()).collect();
        mixed[0] = !mixed[0];
        let before = *s.stats();
        let _ = s.solve(&mixed);
        let _ = s.solve(&[]);
        let delta = s.stats().since(before);
        assert_eq!(delta.solves, 2);
        // Every analyzed conflict learns a clause; only a root-level
        // conflict (impossible here: the formula itself is SAT) aborts
        // before learning.
        assert_eq!(
            delta.learned_clauses, delta.conflicts,
            "one learnt clause per analyzed conflict"
        );
        if delta.conflicts > 0 {
            assert!(s.stats().peak_learnts > 0);
            assert!(s.stats().peak_learnts <= s.stats().learned_clauses);
        }
    }

    #[test]
    fn stats_since_subtracts_counters() {
        let a = SolverStats {
            solves: 5,
            decisions: 100,
            propagations: 1000,
            conflicts: 40,
            restarts: 3,
            deleted_learnts: 7,
            learned_clauses: 40,
            peak_learnts: 12,
            solve_time: Duration::from_micros(900),
        };
        let b = SolverStats {
            solves: 2,
            decisions: 60,
            propagations: 400,
            conflicts: 10,
            restarts: 1,
            deleted_learnts: 2,
            learned_clauses: 10,
            peak_learnts: 9,
            solve_time: Duration::from_micros(400),
        };
        let d = a.since(b);
        assert_eq!(d.solves, 3);
        assert_eq!(d.decisions, 40);
        assert_eq!(d.propagations, 600);
        assert_eq!(d.conflicts, 30);
        assert_eq!(d.restarts, 2);
        assert_eq!(d.deleted_learnts, 5);
        assert_eq!(d.learned_clauses, 30);
        assert_eq!(d.peak_learnts, 12, "high-water mark is not subtracted");
        assert_eq!(d.solve_time, Duration::from_micros(500));
    }

    #[test]
    fn solve_time_accumulates_only_when_timing_is_enabled() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause(&[v.positive()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(
            s.stats().solve_time,
            Duration::ZERO,
            "timing off by default"
        );
        s.set_timing(true);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.stats().solve_time > Duration::ZERO);
        let after = s.stats().solve_time;
        s.set_timing(false);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.stats().solve_time, after);
    }

    #[test]
    fn clause_activity_rescales_stay_rare_on_long_runs() {
        // Pigeonhole 10 -> 9 under a 52,000-conflict budget: activities
        // grow by 1/0.999 per conflict, so the 1e20 threshold is crossed
        // after roughly 40,000 conflicts. Bumping original clauses used
        // to rescale on every later bump of one that crossed, driving
        // `cla_inc` towards zero and freezing learnt activities.
        let mut s = Solver::new();
        pigeonhole(&mut s, 10);
        s.set_budget(Some(52_000), None);
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        assert!(s.stats().conflicts >= 52_000);
        assert!(s.cla_rescales >= 1, "the run must reach the threshold");
        assert!(s.cla_rescales <= 3, "{} rescales", s.cla_rescales);
        assert!(
            s.cla_inc > 1e-10 && s.cla_inc.is_finite(),
            "cla_inc = {}",
            s.cla_inc
        );
    }

    #[test]
    fn trail_reuse_across_restarts_preserves_correctness() {
        // Assumption-heavy UNSAT instance that needs several restarts.
        let mut s = Solver::new();
        let n = 14;
        let xs: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        // Odd parity chain constraints to force search.
        for i in 0..n - 2 {
            let (a, b, c) = (xs[i], xs[i + 1], xs[i + 2]);
            s.add_clause(&[a.positive(), b.positive(), c.positive()]);
            s.add_clause(&[a.positive(), b.negative(), c.negative()]);
            s.add_clause(&[a.negative(), b.positive(), c.negative()]);
            s.add_clause(&[a.negative(), b.negative(), c.positive()]);
        }
        let assumptions: Vec<Lit> = xs.iter().map(|v| v.positive()).collect();
        // All-true violates the xor chain (1^1^1 = 1 requires odd... the
        // chain forces x[i]^x[i+1]^x[i+2] = 1, satisfied by all-true), so
        // check both all-true and a mixed assumption set.
        let r1 = s.solve(&assumptions);
        let mut mixed = assumptions.clone();
        mixed[0] = !mixed[0];
        let r2 = s.solve(&mixed);
        // Consistency: re-solving yields identical answers.
        assert_eq!(s.solve(&assumptions), r1);
        assert_eq!(s.solve(&mixed), r2);
        assert_ne!(s.solve(&[]), SolveResult::Unknown);
    }
}
