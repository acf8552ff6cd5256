//! The ECO engine: the full flow of Fig. 2 — sufficiency check,
//! windowing, per-target quantification, support computation, cube
//! enumeration, structural fallback, substitution, and verification.

use crate::cache::{CacheLayer, CachedSolve, EcoCache};
use crate::cec::{check_outputs_equivalence_observed, CecResult};
use crate::cegar_min::cegar_min_observed;
use crate::classes::EquivClasses;
use crate::cnf::CnfEncoder;
use crate::cubes::enumerate_patch_sop_observed;
use crate::error::EcoError;
use crate::exact::{sat_prune_support, PruneReport, SatPruneOptions};
use crate::miter::{EcoMiter, QuantifiedMiter};
use crate::observe::{
    ClassesCounters, EcoEvent, EcoObserver, LadderRung, MetricsObserver, ObserverHandle, Phase,
    RunMetrics, SatCallKind,
};
use crate::problem::EcoProblem;
use crate::qbf::{check_targets_sufficient_observed, QbfOutcome};
use crate::snapshot::{cone_hash, hash_aig, hash_bytes, ContentHasher, ProblemSnapshot};
use crate::structural::structural_patch;
use crate::support::{support_solver_for, SupportResult, SupportSolver};
use crate::sweep::{check_outputs_equivalence_swept, SweepOracle};
use crate::window::{
    compute_divisors, compute_window, independent_targets, per_target_outputs, Window,
};
use eco_aig::{factor_sop, Aig, AigLit, NodeId, NodePatch};
use eco_sat::{FaultPlan, GovernorLimits, ResourceGovernor, SolveResult, Solver, TripReason};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How patch supports are computed (the three columns of Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum SupportMethod {
    /// Baseline: one UNSAT call, support from the solver's final
    /// conflict (`analyze_final`) — the paper's "w/o
    /// minimize_assumptions".
    AnalyzeFinal,
    /// `minimize_assumptions` (Algorithm 1) with the last-gasp greedy
    /// improvement — the contest-winning configuration.
    MinimizeAssumptions,
    /// `SAT_prune` exact minimum-cost search seeded by
    /// `minimize_assumptions` (Sec. 3.4.2).
    SatPrune,
}

/// Engine configuration.
///
/// Marked `#[non_exhaustive]`: construct it with [`EcoOptions::default`]
/// and mutate fields, or use [`EcoOptions::builder`] for a chainable
/// API. Struct-literal construction outside this crate does not
/// compile, which lets new knobs land without a semver break.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct EcoOptions {
    /// Support computation method.
    pub method: SupportMethod,
    /// Apply the max-flow `CEGAR_min` resubstitution to structural
    /// patches (Sec. 3.6.3).
    pub cegar_min: bool,
    /// Conflict budget per SAT call (`None` = unlimited). Exhaustion
    /// triggers the structural fallback when enabled.
    pub per_call_conflicts: Option<u64>,
    /// Iteration cap for the 2QBF sufficiency check.
    pub qbf_max_iterations: usize,
    /// Up to this many *remaining* targets, quantification expands all
    /// `2^r` assignments; above it, QBF certificates are used.
    pub exact_quantification_threshold: usize,
    /// Cap on candidate divisors per target (cheapest kept).
    pub max_divisors: usize,
    /// Cap on last-gasp replacement attempts.
    pub last_gasp_tries: usize,
    /// Cap on enumerated SOP cubes per patch.
    pub max_cubes: usize,
    /// Cap on quantification-refinement assignments before falling back.
    pub max_refinements: usize,
    /// Conflict budget for `CEGAR_min` equivalence queries. Separate
    /// from `per_call_conflicts`: the paper's structural path arises
    /// when the *main* ECO SAT times out, while the (much simpler)
    /// resubstitution queries still run.
    pub cegar_min_conflicts: Option<u64>,
    /// Derive a structural patch when SAT budgets run out. This also
    /// enables the full per-target degradation ladder: failures are
    /// isolated per target (`Degraded`/`Skipped` dispositions) instead
    /// of aborting the run.
    pub structural_fallback: bool,
    /// `SAT_prune` sub-options.
    pub sat_prune: SatPruneOptions,
    /// Run the final equivalence check.
    pub verify: bool,
    /// Wall-clock deadline for one [`EcoEngine::run`] call, enforced
    /// cooperatively from inside every SAT call (`None` = no deadline).
    pub timeout: Option<Duration>,
    /// Global conflict pool drawn down by every SAT call of the run,
    /// across all phases (`None` = unlimited). Complements the
    /// *per-call* budget [`EcoOptions::per_call_conflicts`].
    pub global_conflicts: Option<u64>,
    /// Global propagation pool, analogous to
    /// [`EcoOptions::global_conflicts`].
    pub global_propagations: Option<u64>,
    /// Deterministic fault-injection schedule for robustness testing:
    /// forces chosen SAT calls to answer `Unknown` (or trips the
    /// governor), seeded and reproducible.
    pub fault_plan: Option<FaultPlan>,
    /// Between the full SAT attempt and the structural patch, retry the
    /// target once with cheaper settings (`analyze_final` support, no
    /// last-gasp, tighter caps). Only relevant with
    /// [`EcoOptions::structural_fallback`].
    pub degraded_retry: bool,
    /// The final verification SAT call may spend this many times
    /// [`EcoOptions::per_call_conflicts`] (the historical behavior is
    /// the default factor of 8).
    pub verify_budget_factor: u64,
    /// Threading of independent-target batches (`1` = fully
    /// sequential; `0` is treated as `1`). At `jobs > 1` the members of
    /// a batch — targets whose output cones are disjoint — are solved
    /// on scoped threads, one per member, attributed to worker
    /// `slot % jobs`. Sequential steps, the degradation ladder, and
    /// verification always run on the calling thread. Which targets are
    /// batched and every SAT query are the same at every value, so
    /// patches, dispositions, and run-level metric totals are invariant
    /// across `jobs` (worker attribution and wall-clock times are not).
    pub jobs: usize,
    /// SAT sweeping (fraig): attach a simulation-based infeasibility
    /// oracle to each target's support solver and run the final
    /// verification through a simulation prefilter. Verdict-preserving
    /// by construction — patches, costs, dispositions, and exit codes
    /// are byte-identical with sweeping on or off; only the number of
    /// real SAT calls drops (never rises).
    pub sweep: bool,
    /// Test-equivalence-class pruning: partition candidate divisors
    /// and support subsets into classes over the per-target
    /// simulation/counterexample pattern pool and spend SAT calls on
    /// class representatives only — UNSAT answers are inherited by
    /// supersets of proven-feasible subsets, SAT answers by stored
    /// witness models, and failed-representative models refine the
    /// partition CEGAR-style; `CEGAR_min` equivalence checks inherit
    /// SAT answers from harvested counterexample valuations the same
    /// way. Inheritance is confined to verdict-only query sites —
    /// conflict-guided minimization and cube prime expansion always
    /// see real calls — which is what keeps the results byte-identical
    /// with the option on or off (audited via
    /// `classes.inherited_answers`), like [`EcoOptions::sweep`], with
    /// which it composes. Disabled automatically under a fault plan,
    /// whose call-indexed schedules would otherwise shift.
    pub classes: bool,
}

impl Default for EcoOptions {
    fn default() -> EcoOptions {
        EcoOptions {
            method: SupportMethod::MinimizeAssumptions,
            cegar_min: true,
            per_call_conflicts: Some(2_000_000),
            qbf_max_iterations: 512,
            exact_quantification_threshold: 6,
            max_divisors: 3_000,
            last_gasp_tries: 24,
            max_cubes: 1 << 14,
            max_refinements: 128,
            cegar_min_conflicts: Some(100_000),
            structural_fallback: true,
            sat_prune: SatPruneOptions::default(),
            verify: true,
            timeout: None,
            global_conflicts: None,
            global_propagations: None,
            fault_plan: None,
            degraded_retry: true,
            verify_budget_factor: 8,
            jobs: 1,
            sweep: false,
            classes: false,
        }
    }
}

impl EcoOptions {
    /// Starts a builder seeded with [`EcoOptions::default`].
    pub fn builder() -> EcoOptionsBuilder {
        EcoOptionsBuilder::default()
    }
}

/// Chainable constructor for [`EcoOptions`].
///
/// Every method overrides one field; unset fields keep their
/// [`EcoOptions::default`] value.
///
/// # Examples
///
/// ```
/// use eco_core::{EcoOptions, SupportMethod};
///
/// let opts = EcoOptions::builder()
///     .method(SupportMethod::SatPrune)
///     .per_call_conflicts(Some(500_000))
///     .verify(false)
///     .build()?;
/// assert_eq!(opts.method, SupportMethod::SatPrune);
/// # Ok::<(), eco_core::EcoError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct EcoOptionsBuilder {
    options: EcoOptions,
}

impl EcoOptionsBuilder {
    /// Sets the support computation method.
    pub fn method(mut self, method: SupportMethod) -> Self {
        self.options.method = method;
        self
    }

    /// Enables or disables `CEGAR_min` resubstitution of structural
    /// patches.
    pub fn cegar_min(mut self, enabled: bool) -> Self {
        self.options.cegar_min = enabled;
        self
    }

    /// Sets the per-SAT-call conflict budget (`None` = unlimited).
    pub fn per_call_conflicts(mut self, budget: Option<u64>) -> Self {
        self.options.per_call_conflicts = budget;
        self
    }

    /// Sets the iteration cap for the 2QBF sufficiency check.
    pub fn qbf_max_iterations(mut self, cap: usize) -> Self {
        self.options.qbf_max_iterations = cap;
        self
    }

    /// Sets the remaining-target count up to which quantification
    /// expands all `2^r` assignments.
    pub fn exact_quantification_threshold(mut self, threshold: usize) -> Self {
        self.options.exact_quantification_threshold = threshold;
        self
    }

    /// Sets the cap on candidate divisors per target.
    pub fn max_divisors(mut self, cap: usize) -> Self {
        self.options.max_divisors = cap;
        self
    }

    /// Sets the cap on last-gasp replacement attempts.
    pub fn last_gasp_tries(mut self, tries: usize) -> Self {
        self.options.last_gasp_tries = tries;
        self
    }

    /// Sets the cap on enumerated SOP cubes per patch.
    pub fn max_cubes(mut self, cap: usize) -> Self {
        self.options.max_cubes = cap;
        self
    }

    /// Sets the cap on quantification-refinement assignments.
    pub fn max_refinements(mut self, cap: usize) -> Self {
        self.options.max_refinements = cap;
        self
    }

    /// Sets the conflict budget for `CEGAR_min` equivalence queries.
    pub fn cegar_min_conflicts(mut self, budget: Option<u64>) -> Self {
        self.options.cegar_min_conflicts = budget;
        self
    }

    /// Enables or disables the structural fallback on budget
    /// exhaustion.
    pub fn structural_fallback(mut self, enabled: bool) -> Self {
        self.options.structural_fallback = enabled;
        self
    }

    /// Sets the `SAT_prune` sub-options.
    pub fn sat_prune(mut self, options: SatPruneOptions) -> Self {
        self.options.sat_prune = options;
        self
    }

    /// Enables or disables the final equivalence check.
    pub fn verify(mut self, enabled: bool) -> Self {
        self.options.verify = enabled;
        self
    }

    /// Sets a wall-clock deadline for each [`EcoEngine::run`] call.
    pub fn timeout(mut self, deadline: Option<Duration>) -> Self {
        self.options.timeout = deadline;
        self
    }

    /// Sets the global conflict pool shared across all phases.
    pub fn global_conflicts(mut self, pool: Option<u64>) -> Self {
        self.options.global_conflicts = pool;
        self
    }

    /// Sets the global propagation pool shared across all phases.
    pub fn global_propagations(mut self, pool: Option<u64>) -> Self {
        self.options.global_propagations = pool;
        self
    }

    /// Installs a deterministic fault-injection schedule.
    pub fn fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.options.fault_plan = plan;
        self
    }

    /// Enables or disables the reduced-effort retry rung of the
    /// degradation ladder.
    pub fn degraded_retry(mut self, enabled: bool) -> Self {
        self.options.degraded_retry = enabled;
        self
    }

    /// Sets the verification budget escalation factor.
    pub fn verify_budget_factor(mut self, factor: u64) -> Self {
        self.options.verify_budget_factor = factor;
        self
    }

    /// Sets the worker-thread count for the parallel backend.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.options.jobs = jobs;
        self
    }

    /// Enables or disables the SAT-sweeping (fraig) front end.
    pub fn sweep(mut self, enabled: bool) -> Self {
        self.options.sweep = enabled;
        self
    }

    /// Enables or disables test-equivalence-class pruning.
    pub fn classes(mut self, enabled: bool) -> Self {
        self.options.classes = enabled;
        self
    }

    /// Finalizes the options, validating cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns [`EcoError::InvalidProblem`] when `jobs == 0` (the work
    /// pool needs at least one worker) or when the deadline is zero
    /// (every run would trip it before doing any work).
    pub fn build(self) -> Result<EcoOptions, EcoError> {
        if self.options.jobs == 0 {
            return Err(EcoError::InvalidProblem {
                message: "jobs must be at least 1 (0 workers cannot make progress)".to_string(),
            });
        }
        if self.options.timeout == Some(Duration::ZERO) {
            return Err(EcoError::InvalidProblem {
                message: "timeout must be positive (a zero deadline trips before any work)"
                    .to_string(),
            });
        }
        Ok(self.options)
    }
}

/// How an individual target ended up patched.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PatchKind {
    /// SAT path: support computation plus cube enumeration.
    Sat,
    /// Structural cofactor patch over primary inputs.
    Structural,
    /// Structural patch improved by max-flow resubstitution.
    StructuralCegarMin,
    /// The target became unreachable after earlier patches; a constant
    /// patch suffices.
    TrivialDead,
    /// No patch was produced (the target's disposition is
    /// [`TargetDisposition::Skipped`]); the target keeps its original
    /// function.
    Skipped,
}

/// How the degradation ladder left an individual target.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TargetDisposition {
    /// The full-effort attempt succeeded.
    Patched,
    /// A lower ladder rung (reduced-effort retry or structural patch)
    /// produced the patch after the full attempt ran out of resources.
    Degraded,
    /// No rung produced a patch; the target keeps its original
    /// function and the outcome is unverified.
    Skipped {
        /// Why the target was given up on (a governor trip reason or
        /// an error description).
        reason: String,
    },
}

impl TargetDisposition {
    /// `true` unless the target was skipped.
    pub fn is_patched(&self) -> bool {
        !matches!(self, TargetDisposition::Skipped { .. })
    }
}

/// Per-target patch statistics.
#[derive(Clone, Debug)]
pub struct TargetPatchReport {
    /// Index into the original problem's target list.
    pub target_index: usize,
    /// Path taken.
    pub kind: PatchKind,
    /// How the degradation ladder left this target.
    pub disposition: TargetDisposition,
    /// Number of support signals.
    pub support_size: usize,
    /// Summed weight of the distinct support signals.
    pub cost: u64,
    /// AND gates in the patch network.
    pub gates: usize,
    /// Cubes in the enumerated SOP (SAT path only).
    pub cubes: Option<usize>,
    /// SAT calls spent on this target.
    pub sat_calls: u64,
    /// How the `SAT_prune` search ended (`None` unless the patch came
    /// from a [`SupportMethod::SatPrune`] support).
    pub prune: Option<PruneReport>,
}

/// One applied patch, for downstream consumers (e.g. netlist-level
/// splicing): the patch network plus its support expressed over the
/// *original* problem's implementation nodes where possible.
#[derive(Clone, Debug)]
pub struct AppliedPatch {
    /// Index into the original problem's target list.
    pub target_index: usize,
    /// The patch logic (single output); input `i` binds to
    /// `support[i]`.
    pub aig: Aig,
    /// Patch support as literals over the implementation *at
    /// application time*.
    pub support: Vec<AigLit>,
    /// For each support entry: the original-problem node computing the
    /// same signal, when the support signal already existed in the
    /// original implementation (`None` for logic created by earlier
    /// patches).
    pub original_support: Vec<Option<NodeId>>,
}

/// Result of a full engine run.
#[derive(Clone, Debug)]
pub struct EcoOutcome {
    /// The implementation with all patches applied.
    pub patched_implementation: Aig,
    /// Per-target reports, in processing order.
    pub reports: Vec<TargetPatchReport>,
    /// Sum of per-target support costs.
    pub total_cost: u64,
    /// Total AND gates across all patch networks.
    pub total_gates: usize,
    /// `true` when the final equivalence check passed (`false` when
    /// verification was skipped or exceeded its budget).
    pub verified: bool,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Number of QBF certificate assignments collected (0 when the
    /// check was skipped or timed out).
    pub qbf_certificates: usize,
    /// The applied patches, in processing order (excludes
    /// trivially-dead targets).
    pub patches: Vec<AppliedPatch>,
    /// Aggregated run telemetry, present when the engine was built
    /// with [`EcoEngine::with_metrics`].
    pub metrics: Option<RunMetrics>,
    /// The sticky governor trip that cut the run short (`None` when no
    /// governor was configured or it never tripped). A `Some` here
    /// marks an *anytime* outcome: inspect the per-target
    /// [`TargetPatchReport::disposition`]s for what completed.
    pub governor_trip: Option<TripReason>,
    /// Faults injected by the configured [`FaultPlan`] during the run.
    pub fault_injections: u64,
}

/// The resource-aware ECO patch engine.
///
/// # Examples
///
/// ```
/// use eco_aig::Aig;
/// use eco_core::{EcoEngine, EcoOptions, EcoProblem};
///
/// // Implementation computes a & b where the spec wants a | b.
/// let mut im = Aig::new();
/// let a = im.add_input();
/// let b = im.add_input();
/// let t = im.and(a, b);
/// im.add_output(t);
/// let target = t.node();
/// let mut sp = Aig::new();
/// let a = sp.add_input();
/// let b = sp.add_input();
/// let o = sp.or(a, b);
/// sp.add_output(o);
///
/// let problem = EcoProblem::with_unit_weights(im, sp, vec![target])?;
/// let options = EcoOptions::builder().build()?;
/// let outcome = EcoEngine::new(options).solve(&problem.snapshot())?;
/// assert!(outcome.verified);
/// # Ok::<(), eco_core::EcoError>(())
/// ```
///
/// Attach observers with [`EcoEngine::with_observer`] to stream
/// [`EcoEvent`]s, or call [`EcoEngine::with_metrics`] to aggregate a
/// [`RunMetrics`] into [`EcoOutcome::metrics`]. Attach an [`EcoCache`]
/// with [`EcoEngine::with_cache`] to reuse windows, CNF builds, and
/// solved targets across runs sharing the cache.
#[derive(Clone, Default)]
pub struct EcoEngine {
    /// Configuration used by [`EcoEngine::solve`].
    pub options: EcoOptions,
    observers: Vec<Arc<Mutex<dyn EcoObserver + Send>>>,
    collect_metrics: bool,
    governor: Option<ResourceGovernor>,
    cache: Option<EcoCache>,
    request_id: Option<String>,
}

impl fmt::Debug for EcoEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EcoEngine")
            .field("options", &self.options)
            .field("observers", &self.observers.len())
            .field("collect_metrics", &self.collect_metrics)
            .field("cache", &self.cache)
            .field("request_id", &self.request_id)
            .finish()
    }
}

impl EcoEngine {
    /// Creates an engine with the given options.
    pub fn new(options: EcoOptions) -> EcoEngine {
        EcoEngine {
            options,
            observers: Vec::new(),
            collect_metrics: false,
            governor: None,
            cache: None,
            request_id: None,
        }
    }

    /// Attaches a shared content-hash cache: windows, quantified
    /// miters, and solved targets are looked up before being rebuilt
    /// and stored after a miss. Clone one [`EcoCache`] into many
    /// engines to share it across runs (the daemon does exactly this
    /// across requests). Cached artifacts are keyed by the full content
    /// of what they depend on, so hits return byte-identical results.
    ///
    /// Cache reuse across runs is deterministic at `jobs == 1`; at
    /// higher job counts batch members store their CNF and target
    /// entries in thread completion order, which can change what an
    /// LRU layer under capacity pressure evicts, so byte-stable *event
    /// streams* across warm runs are only guaranteed single-threaded.
    pub fn with_cache(mut self, cache: EcoCache) -> EcoEngine {
        self.cache = Some(cache);
        self
    }

    /// Tags every run of this engine with a request id: it is emitted
    /// as [`EcoEvent::RequestTagged`] right after
    /// [`EcoEvent::RunStarted`] and lands in
    /// [`RunMetrics::request_id`], giving traces and metrics a
    /// per-request dimension when many runs share one observer.
    pub fn with_request_id(mut self, request_id: impl Into<String>) -> EcoEngine {
        self.request_id = Some(request_id.into());
        self
    }

    /// Installs an externally-owned [`ResourceGovernor`], overriding
    /// the one [`EcoEngine::run`] would build from
    /// [`EcoOptions::timeout`]/[`EcoOptions::global_conflicts`]. Keep a
    /// clone of the handle to [`ResourceGovernor::cancel`] a running
    /// engine from another thread or to share one pool across several
    /// runs.
    pub fn with_governor(mut self, governor: ResourceGovernor) -> EcoEngine {
        self.governor = Some(governor);
        self
    }

    /// Attaches an observer; every [`EcoEvent`] of subsequent
    /// [`EcoEngine::run`] calls is delivered to it. Repeated calls
    /// compose (all observers see every event).
    pub fn with_observer<O: EcoObserver + Send + 'static>(mut self, observer: O) -> EcoEngine {
        self.observers.push(Arc::new(Mutex::new(observer)));
        self
    }

    /// Attaches a shared observer, for callers that need to keep a
    /// handle to it (e.g. to inspect accumulated state after `run`).
    pub fn with_shared_observer(
        mut self,
        observer: Arc<Mutex<dyn EcoObserver + Send>>,
    ) -> EcoEngine {
        self.observers.push(observer);
        self
    }

    /// Aggregates a [`MetricsObserver`] internally and attaches the
    /// resulting [`RunMetrics`] to [`EcoOutcome::metrics`].
    pub fn with_metrics(mut self) -> EcoEngine {
        self.collect_metrics = true;
        self
    }

    /// Runs the full flow on `problem`.
    ///
    /// Deprecated shim over [`EcoEngine::solve`]: it clones `problem`
    /// into a fresh [`ProblemSnapshot`] on every call, paying the
    /// hashing cost each time. Call
    /// `engine.solve(&problem.snapshot())` instead (and keep the
    /// snapshot around to share it across runs and threads).
    ///
    /// # Errors
    ///
    /// See [`EcoEngine::solve`].
    #[deprecated(
        since = "0.6.0",
        note = "use `solve(&problem.snapshot())`; snapshots share the problem by `Arc` \
                and precompute the content hashes the cache layer keys on"
    )]
    pub fn run(&self, problem: &EcoProblem) -> Result<EcoOutcome, EcoError> {
        self.solve(&ProblemSnapshot::new(problem.clone()))
    }

    /// Runs the full flow on the snapshotted problem.
    ///
    /// The snapshot shares the underlying [`EcoProblem`] by `Arc` (no
    /// clone per run) and carries precomputed content hashes, which the
    /// optional [`EcoCache`] keys on. Build one with
    /// [`EcoProblem::snapshot`] or [`ProblemSnapshot::new`].
    ///
    /// The flow runs as four stages, each inside its phase span:
    /// sufficiency check → windowing → patch loop → verification.
    ///
    /// # Errors
    ///
    /// - [`EcoError::TargetsInsufficient`] when expression (1) is SAT.
    /// - [`EcoError::SolverBudgetExhausted`] when budgets run out and
    ///   the structural fallback is disabled.
    /// - [`EcoError::VerificationFailed`] when the final check finds a
    ///   counterexample (possible only after a timed-out feasibility
    ///   check, mirroring the paper's invalid-patch caveat).
    pub fn solve(&self, snapshot: &ProblemSnapshot) -> Result<EcoOutcome, EcoError> {
        let t0 = Instant::now();
        let problem: &EcoProblem = snapshot.problem();
        let governor = self.run_governor();
        let gov = governor.as_ref();
        let mut trips = TripLog::default();
        let (obs, metrics_sink) = self.run_observers();
        obs.emit(|| EcoEvent::RunStarted {
            num_targets: problem.targets.len(),
            per_call_conflicts: self.options.per_call_conflicts,
            jobs: self.options.jobs.max(1),
        });
        if let Some(request_id) = &self.request_id {
            obs.emit(|| EcoEvent::RequestTagged {
                request_id: request_id.clone(),
            });
        }

        let certificates = in_phase(&obs, Phase::SufficiencyCheck, || {
            self.check_sufficiency(problem, gov, &mut trips, &obs)
        })?;
        let window = in_phase(&obs, Phase::Windowing, || Ok(self.windowed(snapshot, &obs)))?;
        let patched = in_phase(&obs, Phase::PatchGeneration, || {
            self.patch_targets(
                problem,
                &window,
                certificates.as_deref(),
                gov,
                &mut trips,
                &obs,
            )
        })?;
        let verified = in_phase(&obs, Phase::Verification, || {
            self.verify(problem, &patched, gov, &mut trips, &obs)
        })?;

        obs.emit(|| EcoEvent::RunFinished {
            elapsed: t0.elapsed(),
        });
        let metrics =
            metrics_sink.and_then(|sink| sink.lock().ok().map(|guard| guard.metrics().clone()));
        let PatchedRun {
            implementation,
            reports,
            applied,
            ..
        } = patched;
        let total_cost = reports.iter().map(|r| r.cost).sum();
        let total_gates = reports.iter().map(|r| r.gates).sum();
        Ok(EcoOutcome {
            patched_implementation: implementation,
            reports,
            total_cost,
            total_gates,
            verified,
            elapsed: t0.elapsed(),
            qbf_certificates: certificates.as_ref().map_or(0, Vec::len),
            patches: applied,
            metrics,
            governor_trip: gov.and_then(ResourceGovernor::trip),
            fault_injections: gov.map_or(0, ResourceGovernor::fault_injections),
        })
    }

    /// The run's governor: an explicit one wins; otherwise one is built
    /// from the options, or the run is ungoverned when no limit is
    /// configured.
    fn run_governor(&self) -> Option<ResourceGovernor> {
        let opts = &self.options;
        self.governor.clone().or_else(|| {
            (opts.timeout.is_some()
                || opts.global_conflicts.is_some()
                || opts.global_propagations.is_some()
                || opts.fault_plan.is_some())
            .then(|| {
                ResourceGovernor::new(GovernorLimits {
                    timeout: opts.timeout,
                    global_conflicts: opts.global_conflicts,
                    global_propagations: opts.global_propagations,
                    fault_plan: opts.fault_plan.clone(),
                })
            })
        })
    }

    /// The run's observer handle, plus the metrics aggregator feeding
    /// [`EcoOutcome::metrics`] when [`EcoEngine::with_metrics`] is on.
    fn run_observers(&self) -> (ObserverHandle, Option<Arc<Mutex<MetricsObserver>>>) {
        let mut sinks = self.observers.clone();
        let metrics_sink = self.collect_metrics.then(|| {
            let sink = Arc::new(Mutex::new(MetricsObserver::new()));
            sinks.push(sink.clone() as Arc<Mutex<dyn EcoObserver + Send>>);
            sink
        });
        (ObserverHandle::new(sinks), metrics_sink)
    }

    /// Stage 1: verifies the target set is sufficient (Sec. 3.2).
    /// Returns the QBF certificates, or `None` when the check was
    /// inconclusive and the run goes on anyway (the final verification
    /// guards the result).
    fn check_sufficiency(
        &self,
        problem: &EcoProblem,
        governor: Option<&ResourceGovernor>,
        trips: &mut TripLog,
        obs: &ObserverHandle,
    ) -> Result<Option<Vec<Vec<bool>>>, EcoError> {
        let opts = &self.options;
        match check_targets_sufficient_observed(
            problem,
            opts.qbf_max_iterations,
            opts.per_call_conflicts,
            obs,
            governor,
        ) {
            QbfOutcome::Solvable { certificates, .. } => Ok(Some(certificates)),
            QbfOutcome::Unsolvable { witness } => Err(EcoError::TargetsInsufficient { witness }),
            QbfOutcome::Unknown => {
                trips.note(obs, governor);
                if opts.structural_fallback {
                    Ok(None)
                } else {
                    Err(classify_error(
                        EcoError::budget_exhausted("sufficiency check"),
                        governor,
                    ))
                }
            }
        }
    }

    /// Stage 3: the patch loop (Sec. 3.1). Targets whose output cones
    /// are disjoint are solved as one independent batch; otherwise the
    /// head target is solved alone, in the paper's substitution order.
    /// Each step's patches are substituted before the next step. The
    /// window (stage 2) is fixed for the whole run so the per-step
    /// Herbrand argument applies to one output set.
    fn patch_targets(
        &self,
        problem: &EcoProblem,
        window: &Window,
        certificates: Option<&[Vec<bool>]>,
        governor: Option<&ResourceGovernor>,
        trips: &mut TripLog,
        obs: &ObserverHandle,
    ) -> Result<PatchedRun, EcoError> {
        let mut state = PatchLoop::new(problem);
        let mut waves = VerificationWaves::new(problem, window, self.options.verify);
        while !state.work.targets.is_empty() {
            // The partition is purely structural, so it is identical at
            // every job count.
            let batch = independent_targets(&state.work.implementation, &state.work.targets);
            let skipped = if batch.len() >= 2 {
                let steps = self.solve_batch(&state, &batch, window, governor, obs);
                state.commit(&batch, steps)?
            } else {
                let head = head_subproblem(&self.options, &state, window, certificates);
                let step = self.solve_target(&state.work, &head, governor, trips, obs);
                state.commit(&[0], vec![step])?
            };
            if skipped {
                waves.close();
            }
            waves.queue_freed(&state.work);
        }
        Ok(PatchedRun {
            implementation: state.work.implementation,
            reports: state.reports,
            applied: state.applied,
            waves: waves.waves,
        })
    }

    /// Stage 4: verification. Checks the waves queued during the patch
    /// loop chunk by chunk, in queue order: the first counterexample
    /// aborts the run, any `Unknown` demotes it to unverified. A skipped
    /// target leaves the implementation inequivalent by construction,
    /// and a hard-tripped governor has no time left: in both cases the
    /// check is skipped so the run still returns an anytime outcome
    /// (with `verified == false`).
    fn verify(
        &self,
        problem: &EcoProblem,
        patched: &PatchedRun,
        governor: Option<&ResourceGovernor>,
        trips: &mut TripLog,
        obs: &ObserverHandle,
    ) -> Result<bool, EcoError> {
        let opts = &self.options;
        let any_skipped = patched.reports.iter().any(|r| !r.disposition.is_patched());
        let hard_tripped = governor.is_some_and(|g| g.hard_trip().is_some());
        let mut verified = opts.verify && !any_skipped && !hard_tripped;
        if verified {
            let budget = opts
                .per_call_conflicts
                .map(|c| c.saturating_mul(opts.verify_budget_factor));
            for wave in &patched.waves {
                for chunk in wave.outputs.chunks(SWEEP_CHUNK) {
                    match verify_chunk(
                        &wave.snapshot,
                        &problem.specification,
                        chunk,
                        budget,
                        obs,
                        governor,
                        opts.sweep,
                    ) {
                        CecResult::Equivalent => {}
                        CecResult::Unknown => verified = false,
                        CecResult::Counterexample(counterexample) => {
                            return Err(EcoError::VerificationFailed { counterexample })
                        }
                    }
                }
            }
        }
        trips.note(obs, governor);
        Ok(verified)
    }

    /// Runs the per-target degradation ladder for `work.targets[pos]`:
    /// full-effort SAT attempt, then (on resource exhaustion) a
    /// reduced-effort retry, then the structural patch, then skipping
    /// the target.
    ///
    /// Each rung starts from a private clone of the *initial*
    /// `assignments`: rung 1's quantification refinements never leak
    /// into rung 2, so every rung solves the subproblem the target's
    /// cache key describes.
    ///
    /// The outer `Err` aborts the whole run: non-resource errors
    /// always, resource errors only when
    /// [`EcoOptions::structural_fallback`] is off. The inner
    /// `Err(reason)` means every rung failed and the target is skipped.
    #[allow(clippy::too_many_arguments)]
    fn patch_with_ladder(
        &self,
        work: &EcoProblem,
        window: &Window,
        assignments: &[Vec<bool>],
        exact: bool,
        pos: usize,
        original_index: usize,
        spent: &mut u64,
        opts: &EcoOptions,
        governor: Option<&ResourceGovernor>,
        trips: &mut TripLog,
        obs: &ObserverHandle,
    ) -> Result<Result<(NodePatch, TargetPatchReport), String>, EcoError> {
        // Rung 0: a deadline/cancellation trip means no further work of
        // any kind can help; skip every rung.
        if let Some(reason) = governor.and_then(ResourceGovernor::hard_trip) {
            trips.note(obs, governor);
            obs.emit(|| EcoEvent::LadderStep {
                target_index: original_index,
                rung: LadderRung::Skipped,
            });
            return Ok(Err(reason.name().to_string()));
        }

        // Rung 1: full-effort attempt.
        let mut rung_assignments = assignments.to_vec();
        let first_err = match self.sat_patch_for_target(
            work,
            window,
            &mut rung_assignments,
            exact,
            pos,
            original_index,
            spent,
            opts,
            governor,
            obs,
        ) {
            Ok(ok) => return Ok(Ok(ok)),
            Err(e) if e.is_resource_exhausted() && opts.structural_fallback => {
                trips.note(obs, governor);
                e
            }
            Err(e) => return Err(classify_error(e, governor)),
        };

        // Rung 2: reduced-effort retry (analyze_final support, no
        // last-gasp, tight caps) — cheap enough to often succeed where
        // the minimization loop blew the budget.
        if opts.degraded_retry && governor.and_then(ResourceGovernor::hard_trip).is_none() {
            obs.emit(|| EcoEvent::LadderStep {
                target_index: original_index,
                rung: LadderRung::DegradedRetry,
            });
            let reduced = reduced_options(opts);
            let mut rung_assignments = assignments.to_vec();
            match self.sat_patch_for_target(
                work,
                window,
                &mut rung_assignments,
                exact,
                pos,
                original_index,
                spent,
                &reduced,
                governor,
                obs,
            ) {
                Ok((patch, mut report)) => {
                    report.disposition = TargetDisposition::Degraded;
                    return Ok(Ok((patch, report)));
                }
                Err(e) if e.is_resource_exhausted() => trips.note(obs, governor),
                Err(e) => return Err(classify_error(e, governor)),
            }
        }

        // Rung 3: structural patch. Needs no SAT unless CEGAR_min is
        // on; when CEGAR_min itself runs out of resources, fall back to
        // the plain (SAT-free) structural cofactor patch.
        if governor.and_then(ResourceGovernor::hard_trip).is_none() {
            obs.emit(|| EcoEvent::StructuralFallback {
                target_index: original_index,
            });
            obs.emit(|| EcoEvent::LadderStep {
                target_index: original_index,
                rung: LadderRung::Structural,
            });
            match self.structural_patch_for_target(
                work,
                window,
                assignments,
                pos,
                original_index,
                *spent,
                opts,
                governor,
                obs,
            ) {
                Ok(ok) => return Ok(Ok(ok)),
                Err(e) if e.is_resource_exhausted() => {
                    trips.note(obs, governor);
                    if opts.cegar_min && governor.and_then(ResourceGovernor::hard_trip).is_none() {
                        let mut plain = opts.clone();
                        plain.cegar_min = false;
                        match self.structural_patch_for_target(
                            work,
                            window,
                            assignments,
                            pos,
                            original_index,
                            *spent,
                            &plain,
                            governor,
                            obs,
                        ) {
                            Ok(ok) => return Ok(Ok(ok)),
                            Err(e) if e.is_resource_exhausted() => trips.note(obs, governor),
                            Err(e) => return Err(classify_error(e, governor)),
                        }
                    }
                }
                Err(e) => return Err(classify_error(e, governor)),
            }
        }

        // Rung 4: give up on this target only.
        trips.note(obs, governor);
        obs.emit(|| EcoEvent::LadderStep {
            target_index: original_index,
            rung: LadderRung::Skipped,
        });
        Ok(Err(skip_reason_for(&first_err, governor)))
    }

    /// Computes (or cache-loads) the run-wide window. The key covers
    /// everything [`compute_window`] reads: the implementation
    /// representation, the target list, and the canonical spec cones
    /// over the impl-side window outputs — so a hit is exactly the
    /// window a cold computation would produce, and a spec revision
    /// outside those cones still hits.
    fn windowed(&self, snapshot: &ProblemSnapshot, obs: &ObserverHandle) -> Window {
        let problem = snapshot.problem();
        let Some(cache) = &self.cache else {
            return compute_window(problem);
        };
        let key = window_cache_key(snapshot);
        if let Some(window) = cache.get_window(key) {
            obs.emit(|| EcoEvent::CacheQuery {
                layer: CacheLayer::Window,
                hit: true,
            });
            return window;
        }
        obs.emit(|| EcoEvent::CacheQuery {
            layer: CacheLayer::Window,
            hit: false,
        });
        let window = compute_window(problem);
        cache.put_window(key, window.clone());
        window
    }

    /// Builds (or cache-loads) the quantified miter for
    /// `work.targets[pos]`. Reuse is sound on the SAT path because the
    /// CNF encoder assigns variables in structural traversal order from
    /// literals (miter output, divisor `impl_map` entries, x/n inputs)
    /// that are fixed before the spec import, so two miters with equal
    /// keys encode to identical clause streams even when the cached
    /// one was built against a differently-numbered spec. The
    /// structural rung reads miter node ids directly, so it always
    /// builds fresh and never touches this cache.
    fn quantified_miter(
        &self,
        work: &EcoProblem,
        pos: usize,
        assignments: &[Vec<bool>],
        window: &Window,
        obs: &ObserverHandle,
    ) -> Arc<QuantifiedMiter> {
        let Some(cache) = &self.cache else {
            return Arc::new(QuantifiedMiter::build(
                work,
                pos,
                assignments,
                Some(&window.outputs),
            ));
        };
        let key = miter_cache_key(work, pos, assignments, &window.outputs);
        if let Some(miter) = cache.get_miter(key) {
            obs.emit(|| EcoEvent::CacheQuery {
                layer: CacheLayer::Cnf,
                hit: true,
            });
            return miter;
        }
        obs.emit(|| EcoEvent::CacheQuery {
            layer: CacheLayer::Cnf,
            hit: false,
        });
        let miter = Arc::new(QuantifiedMiter::build(
            work,
            pos,
            assignments,
            Some(&window.outputs),
        ));
        cache.put_miter(key, miter.clone());
        miter
    }

    /// Persists a class layer's accumulated counterexample witnesses
    /// under the subproblem's miter key so a later request for the same
    /// state starts with a warm pattern pool. Witness replay re-verifies
    /// every pattern by simulation before use, so a stale entry can
    /// never change a verdict — but anything observed under governor
    /// pressure is still skipped, mirroring [`solve_is_cacheable`].
    fn store_witnesses(
        &self,
        work: &EcoProblem,
        pos: usize,
        assignments: &[Vec<bool>],
        window: &Window,
        classes: &EquivClasses,
        governor: Option<&ResourceGovernor>,
    ) {
        let Some(cache) = &self.cache else {
            return;
        };
        if governor.is_some_and(|g| g.trip().is_some() || g.fault_injections() != 0) {
            return;
        }
        let witnesses = classes.witnesses();
        if witnesses.is_empty() {
            return;
        }
        let key = miter_cache_key(work, pos, assignments, &window.outputs);
        cache.put_witnesses(key, Arc::new(witnesses.to_vec()));
    }

    /// SAT path for `work.targets[pos]`: feasibility (with CEGAR
    /// quantification refinement when approximate), support
    /// computation, cube enumeration, factoring.
    ///
    /// `spent` accumulates every SAT call made on behalf of this
    /// target — including calls from refinement iterations whose
    /// support solver is discarded, and calls made before an error —
    /// so the final report (or the structural-fallback report built
    /// from `spent` after an `Err`) matches the emitted
    /// [`EcoEvent::SatCall`] stream exactly.
    /// `opts` is passed explicitly (not read from `self`) so the
    /// degradation ladder can re-run the attempt with reduced-effort
    /// settings.
    #[allow(clippy::too_many_arguments)]
    fn sat_patch_for_target(
        &self,
        work: &EcoProblem,
        window: &Window,
        assignments: &mut Vec<Vec<bool>>,
        exact: bool,
        pos: usize,
        original_index: usize,
        spent: &mut u64,
        opts: &EcoOptions,
        governor: Option<&ResourceGovernor>,
        obs: &ObserverHandle,
    ) -> Result<(NodePatch, TargetPatchReport), EcoError> {
        // The class layer is disabled under a fault plan: inherited
        // answers skip real solver calls, which would shift the plan's
        // call-indexed fault schedule.
        let classes_on = opts.classes && opts.fault_plan.is_none();
        // Class layer carried across quantification-refinement
        // iterations: witnesses are replayed (re-verified by
        // simulation against the refined miter), feasible sets are
        // adopted directly (refinement only strengthens the miter, so
        // UNSAT answers persist).
        let mut carried: Option<EquivClasses> = None;
        loop {
            let qm = self.quantified_miter(work, pos, assignments, window, obs);
            let qm: &QuantifiedMiter = &qm;
            let mut divisors =
                compute_divisors(&work.implementation, &work.targets, &window.inputs);
            divisors.sort_by_key(|d| (work.weight(*d), d.index()));
            divisors.truncate(opts.max_divisors);
            let mut ss = support_solver_for(work, qm, &divisors, opts.per_call_conflicts);
            ss.set_observer(obs.clone(), Some(original_index));
            ss.set_governor(governor.cloned());
            if opts.sweep {
                // The oracle is rebuilt deterministically from the
                // miter and divisor list on every refinement
                // iteration, so swept runs are identical at any job
                // count.
                obs.emit(|| EcoEvent::SweepStarted {
                    target_index: Some(original_index),
                });
                let sweep_t = Instant::now();
                let seed = sweep_seed(original_index, assignments.len());
                let oracle = SweepOracle::build(qm, &divisors, seed);
                obs.emit(|| EcoEvent::SweepFinished {
                    target_index: Some(original_index),
                    elapsed: sweep_t.elapsed(),
                });
                ss.set_sweep_oracle(Some(oracle));
            }
            if classes_on {
                let seed = sweep_seed(original_index, assignments.len());
                let mut classes = EquivClasses::build(qm, &divisors, seed);
                match carried.take() {
                    Some(prev) => {
                        for (x1, x2) in prev.witnesses() {
                            classes.replay_witness(x1, x2);
                        }
                        for f in prev.feasible_sets() {
                            classes.adopt_feasible(f);
                        }
                    }
                    None => {
                        // Cold iteration: replay witnesses an earlier
                        // request left in the cache for this exact
                        // subproblem state.
                        if let Some(cache) = &self.cache {
                            let key = miter_cache_key(work, pos, assignments, &window.outputs);
                            if let Some(ws) = cache.get_witnesses(key) {
                                for (x1, x2) in ws.iter() {
                                    classes.replay_witness(x1, x2);
                                }
                            }
                        }
                    }
                }
                ss.set_classes(Some(classes));
            }
            let feasible = match ss.all_feasible() {
                Ok(f) => f,
                Err(e) => {
                    *spent += ss.sat_calls;
                    emit_sweep_oracle_report(obs, &ss, original_index);
                    emit_classes_report(obs, &ss, original_index);
                    return Err(e);
                }
            };
            if !feasible {
                if exact {
                    *spent += ss.sat_calls;
                    emit_sweep_oracle_report(obs, &ss, original_index);
                    emit_classes_report(obs, &ss, original_index);
                    return Err(EcoError::NoFeasibleSupport {
                        target_index: original_index,
                    });
                }
                if assignments.len() >= opts.max_refinements {
                    *spent += ss.sat_calls;
                    emit_sweep_oracle_report(obs, &ss, original_index);
                    emit_classes_report(obs, &ss, original_index);
                    return Err(EcoError::budget_exhausted("quantification refinement"));
                }
                let (x1, x2) = ss.infeasibility_witness();
                *spent += ss.sat_calls;
                emit_sweep_oracle_report(obs, &ss, original_index);
                emit_classes_report(obs, &ss, original_index);
                if classes_on {
                    carried = ss.take_classes();
                    if let Some(classes) = carried.as_ref() {
                        self.store_witnesses(work, pos, assignments, window, classes, governor);
                    }
                }
                if !self.refine_assignments(
                    work,
                    window,
                    assignments,
                    &x1,
                    &x2,
                    pos,
                    original_index,
                    spent,
                    opts,
                    governor,
                    obs,
                )? {
                    // Neither witness is spurious: genuinely infeasible.
                    return Err(EcoError::NoFeasibleSupport {
                        target_index: original_index,
                    });
                }
                obs.emit(|| EcoEvent::QuantificationRefinement {
                    target_index: original_index,
                    assignments: assignments.len(),
                });
                continue;
            }
            let mut prune = None;
            let computed = match opts.method {
                SupportMethod::AnalyzeFinal => ss.analyze_final_support(),
                SupportMethod::MinimizeAssumptions => ss.minimized_support(opts.last_gasp_tries),
                SupportMethod::SatPrune => ss
                    .minimized_support(opts.last_gasp_tries)
                    .and_then(|seed| sat_prune_support(&mut ss, Some(seed), opts.sat_prune))
                    .map(|r| {
                        prune = Some(r.prune);
                        r.support
                    }),
            };
            let support: SupportResult = match computed {
                Ok(s) => s,
                Err(e) => {
                    *spent += ss.sat_calls;
                    emit_sweep_oracle_report(obs, &ss, original_index);
                    emit_classes_report(obs, &ss, original_index);
                    return Err(e);
                }
            };
            let support_nodes: Vec<NodeId> = support
                .divisor_indices
                .iter()
                .map(|&i| divisors[i])
                .collect();
            *spent += ss.sat_calls;
            emit_sweep_oracle_report(obs, &ss, original_index);
            emit_classes_report(obs, &ss, original_index);
            if classes_on {
                if let Some(classes) = ss.take_classes() {
                    self.store_witnesses(work, pos, assignments, window, &classes, governor);
                }
            }
            let sop = enumerate_patch_sop_observed(
                qm,
                &support_nodes,
                original_index,
                opts.per_call_conflicts,
                opts.max_cubes,
                obs,
                spent,
                governor,
            )?;
            let mut patch_aig = Aig::new();
            let sup_lits: Vec<AigLit> = support_nodes
                .iter()
                .map(|_| patch_aig.add_input())
                .collect();
            let root = factor_sop(&mut patch_aig, &sop.sop, &sup_lits);
            patch_aig.add_output(root);
            let gates = patch_aig.num_ands();
            let patch = NodePatch {
                aig: patch_aig,
                support: support_nodes.iter().map(|d| d.lit()).collect(),
            };
            let report = TargetPatchReport {
                target_index: original_index,
                kind: PatchKind::Sat,
                disposition: TargetDisposition::Patched,
                support_size: support_nodes.len(),
                cost: support.cost,
                gates,
                cubes: Some(sop.sop.len()),
                sat_calls: *spent,
                prune,
            };
            return Ok((patch, report));
        }
    }

    /// Adds quantification assignments refuting spurious infeasibility
    /// witnesses. Returns `false` when neither witness is spurious.
    #[allow(clippy::too_many_arguments)]
    fn refine_assignments(
        &self,
        work: &EcoProblem,
        window: &Window,
        assignments: &mut Vec<Vec<bool>>,
        x1: &[bool],
        x2: &[bool],
        pos: usize,
        target_index: usize,
        spent: &mut u64,
        opts: &EcoOptions,
        governor: Option<&ResourceGovernor>,
        obs: &ObserverHandle,
    ) -> Result<bool, EcoError> {
        let miter = EcoMiter::build(work, Some(&window.outputs));
        let mut solver = Solver::new();
        solver.set_search_control(governor.map(ResourceGovernor::control));
        let mut enc = CnfEncoder::new(&miter.aig);
        let out = enc.lit(&miter.aig, &mut solver, miter.output);
        let x_lits: Vec<_> = miter
            .x_inputs
            .iter()
            .map(|&l| enc.lit(&miter.aig, &mut solver, l))
            .collect();
        let n_lits: Vec<_> = miter
            .target_inputs
            .iter()
            .map(|&l| enc.lit(&miter.aig, &mut solver, l))
            .collect();
        let mut added = false;
        for (x, n0_value) in [(x1, false), (x2, true)] {
            let mut assumptions: Vec<_> = x_lits
                .iter()
                .zip(x)
                .map(|(&l, &v)| if v { l } else { !l })
                .collect();
            assumptions.push(if n0_value { n_lits[pos] } else { !n_lits[pos] });
            assumptions.push(!out);
            if let Some(c) = opts.per_call_conflicts {
                solver.set_budget(Some(c), None);
            }
            *spent += 1;
            let before = obs.snapshot(&mut solver);
            let result = solver.solve(&assumptions);
            obs.sat_call(
                before,
                &solver,
                SatCallKind::Refinement,
                Some(target_index),
                result,
            );
            match result {
                SolveResult::Unknown => return Err(EcoError::budget_exhausted("refinement")),
                SolveResult::Unsat => {} // genuine: no fixing assignment
                SolveResult::Sat => {
                    let assignment: Vec<bool> = n_lits
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != pos)
                        .map(|(_, &l)| solver.model_value(l).to_option().unwrap_or(false))
                        .collect();
                    if !assignments.contains(&assignment) {
                        assignments.push(assignment);
                        added = true;
                    }
                }
            }
        }
        Ok(added)
    }

    /// Structural fallback for `work.targets[pos]` (Sec. 3.6),
    /// optionally improved by `CEGAR_min`.
    ///
    /// `spent` carries the SAT calls already charged to this target by
    /// the failed SAT attempt; they stay in the report so counters and
    /// emitted events reconcile.
    #[allow(clippy::too_many_arguments)]
    fn structural_patch_for_target(
        &self,
        work: &EcoProblem,
        window: &Window,
        assignments: &[Vec<bool>],
        pos: usize,
        original_index: usize,
        spent: u64,
        opts: &EcoOptions,
        governor: Option<&ResourceGovernor>,
        obs: &ObserverHandle,
    ) -> Result<(NodePatch, TargetPatchReport), EcoError> {
        let qm = QuantifiedMiter::build(work, pos, assignments, Some(&window.outputs));
        let sp = structural_patch(&qm);
        let bindings: Vec<AigLit> = sp
            .support_inputs
            .iter()
            .map(|&i| work.implementation.inputs()[i].lit())
            .collect();
        if opts.cegar_min {
            let fanouts = work.implementation.fanouts();
            let tfo = work
                .implementation
                .tfo_mask(work.targets.iter().copied(), &fanouts);
            let weight = |n: NodeId| work.weight(n);
            let eligible = |n: NodeId| !tfo[n.index()];
            let classes_on = opts.classes && opts.fault_plan.is_none();
            let mut cegar_counters = ClassesCounters::default();
            let cm = cegar_min_observed(
                &work.implementation,
                &weight,
                &eligible,
                &sp.aig,
                &bindings,
                opts.cegar_min_conflicts,
                obs,
                Some(original_index),
                governor,
                if classes_on {
                    Some(&mut cegar_counters)
                } else {
                    None
                },
            )?;
            if cegar_counters != ClassesCounters::default() {
                obs.emit(|| EcoEvent::ClassesReport {
                    target_index: Some(original_index),
                    partitions: cegar_counters.partitions,
                    representatives: cegar_counters.representatives,
                    inherited_answers: cegar_counters.inherited_answers,
                    refinement_rounds: cegar_counters.refinement_rounds,
                    witness_replays: cegar_counters.witness_replays,
                });
            }
            let gates = cm.aig.num_ands();
            let support_size = cm.support.len();
            let report = TargetPatchReport {
                target_index: original_index,
                kind: PatchKind::StructuralCegarMin,
                disposition: TargetDisposition::Degraded,
                support_size,
                cost: cm.cost,
                gates,
                cubes: None,
                sat_calls: spent + cm.sat_calls,
                prune: None,
            };
            Ok((
                NodePatch {
                    aig: cm.aig,
                    support: cm.support,
                },
                report,
            ))
        } else {
            let distinct: HashSet<NodeId> = bindings.iter().map(|l| l.node()).collect();
            let cost = distinct.iter().map(|&n| work.weight(n)).sum();
            let gates = sp.aig.num_ands();
            let report = TargetPatchReport {
                target_index: original_index,
                kind: PatchKind::Structural,
                disposition: TargetDisposition::Degraded,
                support_size: bindings.len(),
                cost,
                gates,
                cubes: None,
                sat_calls: spent,
                prune: None,
            };
            Ok((
                NodePatch {
                    aig: sp.aig,
                    support: bindings,
                },
                report,
            ))
        }
    }

    /// One step of the patch loop for one target: looks the solved
    /// target up in the cache, runs the degradation ladder on a miss,
    /// and stores a cacheable result. The head target of a sequential
    /// step and every batch member go through here.
    ///
    /// Emits the target's `TargetStarted`/`TargetFinished` span; the
    /// latter only when the ladder reached a verdict rather than
    /// aborting the run.
    fn solve_target(
        &self,
        work: &EcoProblem,
        sub: &Subproblem<'_>,
        governor: Option<&ResourceGovernor>,
        trips: &mut TripLog,
        obs: &ObserverHandle,
    ) -> TargetStep {
        let opts = &self.options;
        let target_t = Instant::now();
        obs.emit(|| EcoEvent::TargetStarted {
            target_index: sub.original_index,
            worker: sub.worker,
        });
        // SAT calls spent on this target across failed rungs: carried
        // into the skip report so events and counters stay reconciled.
        let mut spent = 0u64;
        let cache_slot = self.cache.as_ref().map(|cache| {
            let key =
                target_solve_key(work, sub.window, &sub.assignments, sub.exact, sub.pos, opts);
            (cache, key)
        });
        let cached = cache_slot.and_then(|(cache, key)| {
            let hit = cache.get_solve(key);
            let is_hit = hit.is_some();
            obs.emit(|| EcoEvent::CacheQuery {
                layer: CacheLayer::Target,
                hit: is_hit,
            });
            hit
        });
        let verdict = match cached {
            Some(cached) => {
                let mut report = cached.report;
                report.target_index = sub.original_index;
                // Served from cache: this run spent no solver work.
                report.sat_calls = 0;
                Ok(Ok((cached.patch, report)))
            }
            None => {
                let verdict = self.patch_with_ladder(
                    work,
                    sub.window,
                    &sub.assignments,
                    sub.exact,
                    sub.pos,
                    sub.original_index,
                    &mut spent,
                    opts,
                    governor,
                    trips,
                    obs,
                );
                if let (Some((cache, key)), Ok(Ok((patch, report)))) = (cache_slot, &verdict) {
                    if solve_is_cacheable(report, governor) {
                        cache.put_solve(
                            key,
                            CachedSolve {
                                patch: patch.clone(),
                                report: report.clone(),
                            },
                        );
                    }
                }
                verdict
            }
        };
        if let Ok(verdict) = &verdict {
            let (sat_calls, prune) = match verdict {
                Ok((_, report)) => (report.sat_calls, report.prune),
                Err(_) => (spent, None),
            };
            obs.emit(|| EcoEvent::TargetFinished {
                target_index: sub.original_index,
                worker: sub.worker,
                sat_calls,
                prune,
                elapsed: target_t.elapsed(),
            });
        }
        TargetStep { verdict, spent }
    }

    /// Solves an independent batch (`batch` holds positions into
    /// `state.work.targets`). Each member is a standalone single-target
    /// subproblem against the shared snapshot, windowed to its own
    /// outputs.
    ///
    /// The other targets are bound to one arbitrary constant
    /// assignment. This is *exact*, not an approximation: none of them
    /// reaches the member's window outputs, so the quantified miter
    /// does not depend on their values — a patch valid under one
    /// assignment is valid under all, and an infeasibility is genuine.
    /// Candidate divisors exclude the union TFO of all open targets,
    /// so the members' patches are mutually independent and can be
    /// committed together.
    ///
    /// At `jobs > 1` each member runs on its own scoped thread; its
    /// events are buffered and replayed in slot order, one total order
    /// identical (up to worker ids and timestamps) to a serial run.
    /// Every member keeps its own trip log at every job count.
    fn solve_batch(
        &self,
        state: &PatchLoop,
        batch: &[usize],
        window: &Window,
        governor: Option<&ResourceGovernor>,
        obs: &ObserverHandle,
    ) -> Vec<TargetStep> {
        let work = &state.work;
        let jobs = self.options.jobs.max(1);
        let per_outputs = per_target_outputs(&work.implementation, &work.targets);
        let windows: Vec<Window> = batch
            .iter()
            .map(|&pos| Window {
                outputs: per_outputs[pos].clone(),
                inputs: window.inputs.clone(),
                divisors: Vec::new(),
            })
            .collect();
        let members: Vec<Subproblem<'_>> = batch
            .iter()
            .zip(&windows)
            .enumerate()
            .map(|(slot, (&pos, window))| Subproblem {
                window,
                assignments: vec![vec![false; work.targets.len() - 1]],
                exact: true,
                pos,
                original_index: state.remaining_original[pos],
                worker: slot % jobs,
            })
            .collect();
        if jobs == 1 {
            return members
                .iter()
                .map(|sub| self.solve_target(work, sub, governor, &mut TripLog::default(), obs))
                .collect();
        }
        std::thread::scope(|s| {
            let running: Vec<_> = members
                .iter()
                .map(|sub| {
                    let (member_obs, sink) = buffered_handle(obs.is_active());
                    let handle = s.spawn(move || {
                        self.solve_target(work, sub, governor, &mut TripLog::default(), &member_obs)
                    });
                    (handle, sink)
                })
                .collect();
            running
                .into_iter()
                .map(|(handle, sink)| {
                    let step = join_worker(handle.join());
                    replay_buffer(obs, sink);
                    step
                })
                .collect()
        })
    }
}

/// Collects the events a worker thread emits so the coordinating
/// thread can replay them in a deterministic order after the join.
/// Replay preserves each worker's internal event order, so nesting
/// invariants (target spans containing their SAT calls) survive the
/// round trip.
#[derive(Default)]
struct BufferObserver {
    events: Vec<EcoEvent>,
}

impl EcoObserver for BufferObserver {
    fn on_event(&mut self, event: &EcoEvent) {
        self.events.push(event.clone());
    }
}

type BufferSink = Arc<Mutex<BufferObserver>>;

/// A worker-local observer handle plus the buffer it feeds. When the
/// run has no observers the handle is inert and no buffer is allocated.
fn buffered_handle(active: bool) -> (ObserverHandle, Option<BufferSink>) {
    if active {
        let sink: BufferSink = Arc::new(Mutex::new(BufferObserver::default()));
        let handle = ObserverHandle::new(vec![sink.clone() as Arc<Mutex<dyn EcoObserver + Send>>]);
        (handle, Some(sink))
    } else {
        (ObserverHandle::default(), None)
    }
}

/// Re-emits a worker's buffered events through the run's observers.
fn replay_buffer(obs: &ObserverHandle, sink: Option<BufferSink>) {
    let Some(sink) = sink else { return };
    let events = match sink.lock() {
        Ok(mut guard) => std::mem::take(&mut guard.events),
        Err(_) => Vec::new(),
    };
    for event in events {
        obs.emit(|| event);
    }
}

/// Propagates a worker panic onto the coordinating thread.
fn join_worker<T>(joined: std::thread::Result<T>) -> T {
    joined.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Runs one stage of the flow inside its phase span. A failing stage
/// aborts the run inside its phase, so `PhaseFinished` is emitted only
/// when the stage succeeds.
fn in_phase<T>(
    obs: &ObserverHandle,
    phase: Phase,
    stage: impl FnOnce() -> Result<T, EcoError>,
) -> Result<T, EcoError> {
    obs.emit(|| EcoEvent::PhaseStarted { phase });
    let phase_t = Instant::now();
    let out = stage()?;
    obs.emit(|| EcoEvent::PhaseFinished {
        phase,
        elapsed: phase_t.elapsed(),
    });
    Ok(out)
}

/// One target's subproblem in the patch loop: the window it is solved
/// in, the quantification assignments of the other open targets (all
/// of them when `exact`), its position in the working target list, its
/// original index, and the worker it is attributed to.
struct Subproblem<'w> {
    window: &'w Window,
    assignments: Vec<Vec<bool>>,
    exact: bool,
    pos: usize,
    original_index: usize,
    worker: usize,
}

/// The head target's subproblem for a sequential step: all `2^r`
/// assignments of the `r` other open targets up to the exactness
/// threshold, the projected QBF certificates above it (one all-false
/// assignment when none survive the projection).
fn head_subproblem<'w>(
    opts: &EcoOptions,
    state: &PatchLoop,
    window: &'w Window,
    certificates: Option<&[Vec<bool>]>,
) -> Subproblem<'w> {
    let r = state.work.targets.len() - 1;
    let exact = r <= opts.exact_quantification_threshold;
    let assignments = if r == 0 {
        Vec::new()
    } else if exact {
        all_assignments(r)
    } else {
        let projected =
            project_certificates(certificates.unwrap_or(&[]), &state.remaining_original[1..]);
        if projected.is_empty() {
            vec![vec![false; r]]
        } else {
            projected
        }
    };
    Subproblem {
        window,
        assignments,
        exact,
        pos: 0,
        original_index: state.remaining_original[0],
        worker: 0,
    }
}

/// What one per-target step hands to [`PatchLoop::commit`]: the ladder
/// verdict (`Err` in the outer layer aborts the run, the inner `Err` is
/// a skip reason) plus the SAT calls spent.
struct TargetStep {
    verdict: Result<Result<(NodePatch, TargetPatchReport), String>, EcoError>,
    spent: u64,
}

/// What the patch loop hands to verification and to the outcome.
struct PatchedRun {
    implementation: Aig,
    reports: Vec<TargetPatchReport>,
    applied: Vec<AppliedPatch>,
    waves: Vec<Wave>,
}

/// The patch loop's working state: the implementation with every
/// committed patch substituted, the open targets with their original
/// indices, each working node's identity in the original
/// implementation, and the reports and patches recorded so far.
struct PatchLoop {
    work: EcoProblem,
    remaining_original: Vec<usize>,
    orig_of: Vec<Option<NodeId>>,
    reports: Vec<TargetPatchReport>,
    applied: Vec<AppliedPatch>,
}

impl PatchLoop {
    fn new(problem: &EcoProblem) -> PatchLoop {
        PatchLoop {
            work: problem.clone(),
            remaining_original: (0..problem.targets.len()).collect(),
            orig_of: (0..problem.implementation.num_nodes())
                .map(|i| Some(NodeId::from_index(i)))
                .collect(),
            reports: Vec::new(),
            applied: Vec::new(),
        }
    }

    /// Commits one step's results for the targets at `positions`. Each
    /// patch is recorded as an [`AppliedPatch`] before the substitution
    /// remaps its support; each skipped target gets its report at once
    /// and keeps its original function. All patches are substituted
    /// together, and the patched targets' reports follow any
    /// `TrivialDead` reports the substitution produced. Returns whether
    /// a target was skipped.
    fn commit(&mut self, positions: &[usize], steps: Vec<TargetStep>) -> Result<bool, EcoError> {
        let mut patches_by_pos: HashMap<usize, NodePatch> = HashMap::new();
        let mut drop_positions: HashSet<usize> = HashSet::new();
        let mut patched_reports = Vec::new();
        for (&pos, step) in positions.iter().zip(steps) {
            let target_index = self.remaining_original[pos];
            match step.verdict? {
                Ok((patch, report)) => {
                    self.applied.push(AppliedPatch {
                        target_index,
                        aig: patch.aig.clone(),
                        support: patch.support.clone(),
                        original_support: patch
                            .support
                            .iter()
                            .map(|l| self.orig_of[l.node().index()])
                            .collect(),
                    });
                    patches_by_pos.insert(pos, patch);
                    patched_reports.push(report);
                }
                Err(reason) => {
                    self.reports.push(TargetPatchReport {
                        target_index,
                        kind: PatchKind::Skipped,
                        disposition: TargetDisposition::Skipped { reason },
                        support_size: 0,
                        cost: 0,
                        gates: 0,
                        cubes: None,
                        sat_calls: step.spent,
                        prune: None,
                    });
                    drop_positions.insert(pos);
                }
            }
        }
        self.substitute(patches_by_pos, &drop_positions)?;
        self.reports.extend(patched_reports);
        Ok(!drop_positions.is_empty())
    }

    /// Applies `patches_by_pos` (keyed by position into `work.targets`)
    /// in one substitution and rebuilds the per-step bookkeeping: node
    /// weights, open targets (with their original indices), and the
    /// original-identity map. Positions in `drop_positions` leave the
    /// target list without a patch. Open targets that die or merge
    /// under the substitution get a `TrivialDead` report.
    fn substitute(
        &mut self,
        patches_by_pos: HashMap<usize, NodePatch>,
        drop_positions: &HashSet<usize>,
    ) -> Result<(), EcoError> {
        let work = &mut self.work;
        if patches_by_pos.is_empty() {
            // Nothing to substitute: drop the skipped positions only.
            let mut targets = Vec::with_capacity(work.targets.len());
            let mut original = Vec::with_capacity(work.targets.len());
            for (j, &t) in work.targets.iter().enumerate() {
                if !drop_positions.contains(&j) {
                    targets.push(t);
                    original.push(self.remaining_original[j]);
                }
            }
            work.targets = targets;
            self.remaining_original = original;
            return Ok(());
        }
        let handled: HashSet<usize> = patches_by_pos
            .keys()
            .copied()
            .chain(drop_positions.iter().copied())
            .collect();
        // Targets not patched in this step are protected from strash
        // folding/merging so their rectification freedom survives the
        // rebuild.
        let protected: HashSet<NodeId> = work
            .targets
            .iter()
            .enumerate()
            .filter(|(j, _)| !patches_by_pos.contains_key(j))
            .map(|(_, &t)| t)
            .collect();
        let mut patches: HashMap<NodeId, NodePatch> = HashMap::new();
        for (pos, patch) in patches_by_pos {
            patches.insert(work.targets[pos], patch);
        }
        let sub = work
            .implementation
            .substitute_protected(&patches, &protected)
            .map_err(|e| EcoError::CyclicPatch {
                message: e.to_string(),
            })?;
        let mut new_weights = vec![work.default_weight; sub.aig.num_nodes()];
        for (old, mapped) in sub.node_map.iter().enumerate() {
            if let Some(lit) = mapped {
                let ni = lit.node().index();
                new_weights[ni] = new_weights[ni].min(work.weights[old]);
            }
        }
        let mut new_targets: Vec<NodeId> = Vec::new();
        let mut new_original = Vec::new();
        for (j, &t) in work.targets.iter().enumerate() {
            if handled.contains(&j) {
                continue;
            }
            match sub.node_map[t.index()] {
                // Structural hashing may merge two remaining targets
                // into one node; the freedom is then a single function,
                // so keep the first occurrence only.
                Some(lit) if !lit.is_const() && !new_targets.contains(&lit.node()) => {
                    new_targets.push(lit.node());
                    new_original.push(self.remaining_original[j]);
                }
                _ => {
                    // Target is dead or constant: a constant-0 patch is
                    // vacuously fine.
                    self.reports.push(TargetPatchReport {
                        target_index: self.remaining_original[j],
                        kind: PatchKind::TrivialDead,
                        disposition: TargetDisposition::Patched,
                        support_size: 0,
                        cost: 0,
                        gates: 0,
                        cubes: None,
                        sat_calls: 0,
                        prune: None,
                    });
                }
            }
        }
        // Carry original-node identity forward (strash merges keep any
        // original identity; fresh patch logic gets None).
        let mut new_orig: Vec<Option<NodeId>> = vec![None; sub.aig.num_nodes()];
        for (old, mapped) in sub.node_map.iter().enumerate() {
            if let Some(lit) = mapped {
                if !lit.is_complement() {
                    if let Some(orig) = self.orig_of[old] {
                        new_orig[lit.node().index()].get_or_insert(orig);
                    }
                }
            }
        }
        self.orig_of = new_orig;
        work.implementation = sub.aig;
        work.weights = new_weights;
        work.targets = new_targets;
        self.remaining_original = new_original;
        Ok(())
    }
}

/// Outputs per verification chunk. The partition depends only on the
/// wave's output list, so the SAT queries — and therefore the metric
/// totals — are identical at every `jobs`.
const SWEEP_CHUNK: usize = 1024;

/// One verification wave: primary outputs that no open target can
/// reach, checked against the implementation snapshot taken when they
/// became target-free (later patches cannot change them, so the
/// verdict equals a check against the final netlist).
struct Wave {
    snapshot: Aig,
    outputs: Vec<usize>,
}

/// The verification waves queued during the patch loop and checked in
/// the verification phase.
struct VerificationWaves {
    waves: Vec<Wave>,
    /// Outputs not yet handed to a wave.
    pending: Vec<bool>,
    /// Queueing stops as soon as a target is skipped: the netlist is
    /// then inequivalent by construction and the run reports
    /// `verified == false` without taking further snapshots.
    open: bool,
}

impl VerificationWaves {
    /// Queues wave 0 when verification is on: outputs outside the
    /// window are target-free from the start, so they are checked
    /// against the original implementation.
    fn new(problem: &EcoProblem, window: &Window, verify: bool) -> VerificationWaves {
        let num_outputs = problem.implementation.num_outputs();
        let mut waves = VerificationWaves {
            waves: Vec::new(),
            pending: vec![true; num_outputs],
            open: verify,
        };
        if verify {
            let wave0: Vec<usize> = (0..num_outputs)
                .filter(|i| window.outputs.binary_search(i).is_err())
                .collect();
            waves.queue(&problem.implementation, wave0);
        }
        waves
    }

    fn close(&mut self) {
        self.open = false;
    }

    /// Queues the outputs no open target reaches any more: they are
    /// final, so they are checked against the current snapshot.
    fn queue_freed(&mut self, work: &EcoProblem) {
        if !self.open || !self.pending.iter().any(|&p| p) {
            return;
        }
        let fanouts = work.implementation.fanouts();
        let reached = work
            .implementation
            .tfo_mask(work.targets.iter().copied(), &fanouts);
        let freed: Vec<usize> = work
            .implementation
            .outputs()
            .iter()
            .enumerate()
            .filter(|&(o, out)| self.pending[o] && !reached[out.node().index()])
            .map(|(o, _)| o)
            .collect();
        self.queue(&work.implementation, freed);
    }

    fn queue(&mut self, snapshot: &Aig, outputs: Vec<usize>) {
        if outputs.is_empty() {
            return;
        }
        for &o in &outputs {
            self.pending[o] = false;
        }
        self.waves.push(Wave {
            snapshot: snapshot.clone(),
            outputs,
        });
    }
}

/// Tracks which governor trips have been reported, so each sticky trip
/// reason — and each injected fault — emits exactly one
/// [`EcoEvent::GovernorTripped`]. Calls are placed inside phases so the
/// event stream keeps its phase nesting invariant.
#[derive(Default)]
struct TripLog {
    seen: Vec<TripReason>,
    faults: u64,
}

impl TripLog {
    fn note(&mut self, obs: &ObserverHandle, governor: Option<&ResourceGovernor>) {
        let Some(gov) = governor else { return };
        if let Some(reason) = gov.trip() {
            if !self.seen.contains(&reason) {
                self.seen.push(reason);
                obs.emit(|| EcoEvent::GovernorTripped { reason });
            }
        }
        let faults = gov.fault_injections();
        while self.faults < faults {
            self.faults += 1;
            obs.emit(|| EcoEvent::GovernorTripped {
                reason: TripReason::FaultInjected,
            });
        }
    }
}

/// Rewrites a budget-exhausted error to the governor's hard-trip
/// reason, so a run cut short by a deadline or cancellation reports
/// [`EcoError::DeadlineExceeded`]/[`EcoError::Cancelled`] instead of a
/// generic per-call budget failure.
fn classify_error(e: EcoError, governor: Option<&ResourceGovernor>) -> EcoError {
    let EcoError::SolverBudgetExhausted { source } = &e else {
        return e;
    };
    let phase = source.phase;
    match governor.and_then(ResourceGovernor::hard_trip) {
        Some(TripReason::Deadline) => EcoError::DeadlineExceeded { phase },
        Some(TripReason::Cancelled) => EcoError::Cancelled { phase },
        _ => e,
    }
}

/// The reason string recorded on a [`TargetDisposition::Skipped`]:
/// the governor's trip reason when it tripped, the ladder's first
/// error otherwise.
fn skip_reason_for(e: &EcoError, governor: Option<&ResourceGovernor>) -> String {
    match governor.and_then(ResourceGovernor::trip) {
        Some(reason) => reason.name().to_string(),
        None => e.to_string(),
    }
}

/// Rung-2 settings: one `analyze_final` UNSAT call instead of the
/// minimization loop, no last-gasp, tight refinement and cube caps.
/// The per-call budget is kept — the point is fewer and cheaper calls,
/// not a bigger allowance.
fn reduced_options(opts: &EcoOptions) -> EcoOptions {
    let mut reduced = opts.clone();
    reduced.method = SupportMethod::AnalyzeFinal;
    reduced.last_gasp_tries = 0;
    reduced.max_refinements = reduced.max_refinements.min(8);
    reduced.max_cubes = reduced.max_cubes.min(1024);
    reduced
}

/// All `2^r` boolean assignments of length `r`, lexicographic.
fn all_assignments(r: usize) -> Vec<Vec<bool>> {
    (0..1usize << r)
        .map(|mask| (0..r).map(|i| mask >> i & 1 == 1).collect())
        .collect()
}

/// Projects full-target certificate assignments onto the remaining
/// original target indices, deduplicated.
fn project_certificates(certificates: &[Vec<bool>], remaining: &[usize]) -> Vec<Vec<bool>> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for cert in certificates {
        let proj: Vec<bool> = remaining.iter().map(|&i| cert[i]).collect();
        if seen.insert(proj.clone()) {
            out.push(proj);
        }
    }
    out
}

/// Domain-separation tags for the cache-key spaces.
const TAG_WINDOW: u64 = 0x57_49_4e;
const TAG_MITER: u64 = 0x4d_49_54;
const TAG_SOLVE: u64 = 0x53_4f_4c;
const TAG_OPTS: u64 = 0x4f_50_54;

/// Cache key of the run-wide window: implementation representation,
/// target list, and the canonical spec cones over the impl-side window
/// outputs (the only part of the spec [`compute_window`] reads). The
/// output set is recomputed here from the implementation alone, which
/// is cheap relative to the spec-side TFI walk a miss would pay.
fn window_cache_key(snapshot: &ProblemSnapshot) -> u128 {
    let problem = snapshot.problem();
    let fanouts = problem.implementation.fanouts();
    let tfo = problem
        .implementation
        .tfo_mask(problem.targets.iter().copied(), &fanouts);
    let outputs: Vec<usize> = problem
        .implementation
        .outputs()
        .iter()
        .enumerate()
        .filter(|(_, out)| tfo[out.node().index()])
        .map(|(i, _)| i)
        .collect();
    let mut h = ContentHasher::new(TAG_WINDOW);
    h.write(snapshot.hashes().implementation);
    h.write(snapshot.hashes().targets);
    h.write(cone_hash(&problem.specification, &outputs));
    h.finish128()
}

/// Writes the parts of a per-target subproblem shared by the miter and
/// solve keys: the working implementation's representation, the
/// remaining target list, the position being solved, the quantification
/// assignments, the window outputs, and the canonical spec cones over
/// those outputs.
fn write_subproblem(
    h: &mut ContentHasher,
    work: &EcoProblem,
    pos: usize,
    assignments: &[Vec<bool>],
    outputs: &[usize],
) {
    h.write(hash_aig(&work.implementation));
    h.write(work.targets.len() as u64);
    for &t in &work.targets {
        h.write(t.index() as u64);
    }
    h.write(pos as u64);
    h.write(assignments.len() as u64);
    for a in assignments {
        h.write(a.len() as u64);
        for &bit in a {
            h.write(bit as u64);
        }
    }
    h.write(outputs.len() as u64);
    for &o in outputs {
        h.write(o as u64);
    }
    h.write(cone_hash(&work.specification, outputs));
}

/// Cache key of a quantified miter (the CNF layer).
fn miter_cache_key(
    work: &EcoProblem,
    pos: usize,
    assignments: &[Vec<bool>],
    outputs: &[usize],
) -> u128 {
    let mut h = ContentHasher::new(TAG_MITER);
    write_subproblem(&mut h, work, pos, assignments, outputs);
    h.finish128()
}

/// Cache key of a solved target: the subproblem plus everything else
/// the ladder reads — weights (divisor ordering and cost), the window
/// inputs (divisor candidates), the exactness flag, and the
/// solve-relevant option fingerprint.
fn target_solve_key(
    work: &EcoProblem,
    window: &Window,
    assignments: &[Vec<bool>],
    exact: bool,
    pos: usize,
    opts: &EcoOptions,
) -> u128 {
    let mut h = ContentHasher::new(TAG_SOLVE);
    write_subproblem(&mut h, work, pos, assignments, &window.outputs);
    h.write(window.inputs.len() as u64);
    for &i in &window.inputs {
        h.write(i as u64);
    }
    h.write(work.default_weight);
    h.write(work.weights.len() as u64);
    for &w in &work.weights {
        h.write(w);
    }
    h.write(exact as u64);
    h.write(options_fingerprint(opts));
    h.finish128()
}

/// Fingerprint of the options that shape a per-target solve. Run-scoped
/// resource fields (deadline, global pools, fault plan, job count) are
/// normalized away: they do not change what a *completed, untripped*
/// solve produces, and [`solve_is_cacheable`] refuses to store anything
/// the governor interfered with.
fn options_fingerprint(opts: &EcoOptions) -> u64 {
    let mut normalized = opts.clone();
    normalized.timeout = None;
    normalized.global_conflicts = None;
    normalized.global_propagations = None;
    normalized.fault_plan = None;
    normalized.jobs = 1;
    // Sweeping is verdict-preserving, so swept and unswept runs may
    // share cache entries.
    normalized.sweep = false;
    // So is the class layer: inherited answers carry verdicts a real
    // solver call would have produced.
    normalized.classes = false;
    hash_bytes(TAG_OPTS, format!("{normalized:?}").as_bytes())
}

/// Deterministic seed for a target's sweep oracle. Depends only on
/// jobs-invariant quantities (target index and refinement iteration),
/// so swept runs are reproducible at any `--jobs` count.
fn sweep_seed(target_index: usize, refinement: usize) -> u64 {
    (target_index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(refinement as u64)
}

/// Reports a support solver's sweep-oracle counters (a no-op without
/// an attached oracle, i.e. whenever sweeping is off).
fn emit_sweep_oracle_report(obs: &ObserverHandle, ss: &SupportSolver, target_index: usize) {
    let Some(stats) = ss.sweep_stats() else {
        return;
    };
    obs.emit(|| EcoEvent::SweepReport {
        target_index: Some(target_index),
        classes: stats.classes,
        merges: 0,
        sat_calls: 0,
        refinement_rounds: stats.refinement_rounds,
        nodes_eliminated: 0,
        oracle_hits: stats.oracle_hits,
        sim_discharged_outputs: 0,
    });
}

/// Reports a support solver's class-layer counters (a no-op without an
/// attached [`EquivClasses`], i.e. whenever `--classes` is off).
fn emit_classes_report(obs: &ObserverHandle, ss: &SupportSolver, target_index: usize) {
    let Some(stats) = ss.classes_stats() else {
        return;
    };
    obs.emit(|| EcoEvent::ClassesReport {
        target_index: Some(target_index),
        partitions: stats.partitions,
        representatives: stats.representatives,
        inherited_answers: stats.inherited_answers,
        refinement_rounds: stats.refinement_rounds,
        witness_replays: stats.witness_replays,
    });
}

/// One verification chunk: the sweeping check (simulation prefilter,
/// same verdict, at most the same single SAT call) when `sweep` is on,
/// the plain check otherwise.
fn verify_chunk(
    snapshot: &Aig,
    spec: &Aig,
    outputs: &[usize],
    budget: Option<u64>,
    obs: &ObserverHandle,
    governor: Option<&ResourceGovernor>,
    sweep: bool,
) -> CecResult {
    if !sweep {
        return check_outputs_equivalence_observed(
            snapshot,
            spec,
            Some(outputs),
            budget,
            obs,
            governor,
        );
    }
    obs.emit(|| EcoEvent::SweepStarted { target_index: None });
    let sweep_t = Instant::now();
    // Chunk-independent fixed seed: the pool depends only on the input
    // count, keeping the query set identical across job counts.
    let report =
        check_outputs_equivalence_swept(snapshot, spec, Some(outputs), budget, obs, governor, 0);
    obs.emit(|| EcoEvent::SweepFinished {
        target_index: None,
        elapsed: sweep_t.elapsed(),
    });
    obs.emit(|| EcoEvent::SweepReport {
        target_index: None,
        classes: 0,
        merges: 0,
        sat_calls: 0,
        refinement_rounds: 0,
        nodes_eliminated: 0,
        oracle_hits: u64::from(report.sim_counterexample),
        sim_discharged_outputs: report.sim_discharged_outputs,
    });
    report.result
}

/// Only pure, full-effort results enter the solve cache: a degraded or
/// skipped disposition — or any governor trip or injected fault during
/// the run so far — means the result reflects resource pressure, not
/// the subproblem, and caching it would leak that pressure into later
/// unrelated runs.
fn solve_is_cacheable(report: &TargetPatchReport, governor: Option<&ResourceGovernor>) -> bool {
    matches!(report.disposition, TargetDisposition::Patched)
        && !governor.is_some_and(|g| g.trip().is_some() || g.fault_injections() != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cec::check_equivalence;

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

    fn run_with(method: SupportMethod, p: &EcoProblem) -> EcoOutcome {
        let options = EcoOptions::builder()
            .method(method)
            .build()
            .expect("valid options");
        EcoEngine::new(options)
            .solve(&p.snapshot())
            .expect("engine run")
    }

    #[test]
    fn builder_rejects_zero_jobs() {
        let err = EcoOptions::builder()
            .jobs(0)
            .build()
            .expect_err("0 workers");
        assert!(
            matches!(err, EcoError::InvalidProblem { ref message } if message.contains("jobs")),
            "got {err}"
        );
    }

    #[test]
    fn builder_rejects_a_zero_deadline() {
        let err = EcoOptions::builder()
            .timeout(Some(Duration::ZERO))
            .build()
            .expect_err("zero deadline");
        assert!(
            matches!(err, EcoError::InvalidProblem { ref message } if message.contains("timeout")),
            "got {err}"
        );
        // The smallest representable deadline is fine (the CLI maps
        // `--timeout-ms 0` to it to keep the anytime contract).
        EcoOptions::builder()
            .timeout(Some(Duration::from_nanos(1)))
            .build()
            .expect("1ns deadline is accepted");
    }

    #[test]
    fn single_target_all_methods_verify() {
        let p = and_vs_or_problem();
        for m in [
            SupportMethod::AnalyzeFinal,
            SupportMethod::MinimizeAssumptions,
            SupportMethod::SatPrune,
        ] {
            let out = run_with(m, &p);
            assert!(out.verified, "{m:?} must verify");
            assert_eq!(out.reports.len(), 1);
            assert_eq!(out.reports[0].kind, PatchKind::Sat);
        }
    }

    #[test]
    fn multi_target_verifies() {
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
        let p = EcoProblem::with_unit_weights(im, sp, vec![t1.node(), t2.node()]).expect("valid");
        for m in [
            SupportMethod::AnalyzeFinal,
            SupportMethod::MinimizeAssumptions,
            SupportMethod::SatPrune,
        ] {
            let out = run_with(m, &p);
            assert!(out.verified, "{m:?} must verify");
            assert_eq!(out.reports.len(), 2);
        }
    }

    #[test]
    fn insufficient_targets_error() {
        // impl: y0 = t, y1 = !t; spec: y0 = y1 = a. No single patch works.
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let t = im.and(a, b);
        im.add_output(t);
        im.add_output(!t);
        let mut sp = Aig::new();
        let (a, _b) = (sp.add_input(), sp.add_input());
        sp.add_output(a);
        sp.add_output(a);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t.node()]).expect("valid");
        let err = EcoEngine::new(EcoOptions::default())
            .solve(&p.snapshot())
            .unwrap_err();
        assert!(matches!(err, EcoError::TargetsInsufficient { .. }));
    }

    #[test]
    fn structural_fallback_on_zero_budget() {
        let p = and_vs_or_problem();
        let options = EcoOptions::builder()
            .per_call_conflicts(Some(0))
            .cegar_min(false)
            .verify(false)
            .build()
            .expect("valid options");
        let out = EcoEngine::new(options)
            .solve(&p.snapshot())
            .expect("fallback run");
        assert_eq!(out.reports[0].kind, PatchKind::Structural);
        // Check equivalence out-of-band (the in-run verify had no budget).
        assert_eq!(
            check_equivalence(&out.patched_implementation, &p.specification, None),
            CecResult::Equivalent
        );
    }

    #[test]
    fn structural_fallback_with_cegar_min() {
        let p = and_vs_or_problem();
        let options = EcoOptions::builder()
            .per_call_conflicts(Some(0))
            .cegar_min(true)
            .verify(false)
            .build()
            .expect("valid options");
        let out = EcoEngine::new(options)
            .solve(&p.snapshot())
            .expect("fallback run");
        assert_eq!(out.reports[0].kind, PatchKind::StructuralCegarMin);
        assert_eq!(
            check_equivalence(&out.patched_implementation, &p.specification, None),
            CecResult::Equivalent
        );
    }

    #[test]
    fn weighted_problem_prefers_cheap_divisor() {
        // Same as the SAT_prune unit test but through the whole engine:
        // an xor divisor with low cost must be chosen over the inputs.
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let x = im.xor(a, b);
        let t = im.and(a, b);
        im.add_output(t);
        im.add_output(x);
        let mut sp = Aig::new();
        let (a2, b2) = (sp.add_input(), sp.add_input());
        let y = sp.xor(a2, b2);
        sp.add_output(y);
        sp.add_output(y);
        let mut weights = vec![50u64; im.num_nodes()];
        weights[x.node().index()] = 1;
        let p = EcoProblem::new(im, sp, vec![t.node()], weights).expect("valid");
        let out = run_with(SupportMethod::SatPrune, &p);
        assert!(out.verified);
        assert_eq!(out.total_cost, 1, "xor divisor should be the whole support");
        assert_eq!(out.reports[0].support_size, 1);
    }

    #[test]
    fn certificate_quantification_with_refinement_verifies() {
        // Force the certificate path on every step (threshold 0): the
        // projected certificate sets start incomplete, so the CEGAR
        // refinement loop must supply missing assignments.
        let mut im = Aig::new();
        let (a, b, c, d) = (
            im.add_input(),
            im.add_input(),
            im.add_input(),
            im.add_input(),
        );
        let t1 = im.and(a, b);
        let t2 = im.and(c, d);
        let t3 = im.and(a, !c);
        let y1 = im.and(t1, t2);
        let y2 = im.or(t3, t1);
        im.add_output(y1);
        im.add_output(y2);
        let mut sp = Aig::new();
        let (a, b, c, d) = (
            sp.add_input(),
            sp.add_input(),
            sp.add_input(),
            sp.add_input(),
        );
        let u1 = sp.xor(a, b);
        let u2 = sp.or(c, d);
        let y1 = sp.and(u1, u2);
        // y2 = u1 | c is reachable: t1 := u1, t2 := u2, t3 := c.
        let y2 = sp.or(u1, c);
        sp.add_output(y1);
        sp.add_output(y2);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t1.node(), t2.node(), t3.node()])
            .expect("valid");
        let options = EcoOptions::builder()
            .exact_quantification_threshold(0)
            .build()
            .expect("valid options");
        match EcoEngine::new(options).solve(&p.snapshot()) {
            Ok(out) => assert!(out.verified, "refined quantification must verify"),
            Err(EcoError::TargetsInsufficient { .. }) => {
                panic!("instance is solvable by construction")
            }
            Err(e) => panic!("unexpected engine error: {e}"),
        }
    }

    #[test]
    fn applied_patches_reconstruct_the_result() {
        // The AppliedPatch records must re-derive the patched netlist.
        let p = and_vs_or_problem();
        let out = run_with(SupportMethod::MinimizeAssumptions, &p);
        assert_eq!(out.patches.len(), 1);
        let ap = &out.patches[0];
        assert_eq!(ap.target_index, 0);
        assert_eq!(ap.support.len(), ap.original_support.len());
        // All supports of a single-target run are original nodes.
        assert!(ap.original_support.iter().all(Option::is_some));
        let patch = eco_aig::NodePatch {
            aig: ap.aig.clone(),
            support: ap.support.clone(),
        };
        let mut patches = HashMap::new();
        patches.insert(p.targets[0], patch);
        let rebuilt = p.implementation.substitute(&patches).expect("acyclic");
        assert_eq!(
            check_equivalence(&rebuilt, &p.specification, None),
            CecResult::Equivalent
        );
    }

    #[test]
    fn helpers_enumerate_and_project() {
        assert_eq!(all_assignments(0), vec![Vec::<bool>::new()]);
        assert_eq!(all_assignments(2).len(), 4);
        let certs = vec![vec![true, false, true], vec![true, true, true]];
        let proj = project_certificates(&certs, &[0, 2]);
        assert_eq!(proj, vec![vec![true, true]]);
        let proj2 = project_certificates(&certs, &[1]);
        assert_eq!(proj2, vec![vec![false], vec![true]]);
    }

    #[test]
    fn already_equivalent_problem_yields_zero_cost_patch() {
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let t = im.and(a, b);
        im.add_output(t);
        let t_node = t.node();
        let sp = im.clone();
        let p = EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid");
        let out = run_with(SupportMethod::MinimizeAssumptions, &p);
        assert!(out.verified);
        // The patch must reproduce a & b (the original function).
        assert!(out.total_cost <= 2);
    }
}
