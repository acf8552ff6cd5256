//! Engine observability: typed events emitted by [`crate::EcoEngine`],
//! the [`EcoObserver`] trait for receiving them, and the
//! [`MetricsObserver`] aggregation behind `--stats-json`.
//!
//! Observers are attached with [`crate::EcoEngine::with_observer`]; the
//! engine pays nothing beyond a branch per event site when none are
//! attached (event payloads are built lazily).

use crate::exact::PruneReport;
use eco_sat::{SolveResult, Solver, SolverStats, TripReason};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The four phases of the engine flow (Fig. 2 of the paper).
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// CEGAR 2QBF check that the targets can rectify the design
    /// (Sec. 3.2).
    SufficiencyCheck,
    /// Structural pruning to a logic window (Sec. 3.3).
    Windowing,
    /// Per-target support computation, cube enumeration, and
    /// substitution (Secs. 3.4–3.6).
    PatchGeneration,
    /// Final combinational equivalence check.
    Verification,
}

impl Phase {
    /// All phases, in flow order.
    pub const ALL: [Phase; 4] = [
        Phase::SufficiencyCheck,
        Phase::Windowing,
        Phase::PatchGeneration,
        Phase::Verification,
    ];

    /// Stable snake_case name used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SufficiencyCheck => "sufficiency_check",
            Phase::Windowing => "windowing",
            Phase::PatchGeneration => "patch_generation",
            Phase::Verification => "verification",
        }
    }
}

/// What a SAT call was issued for.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SatCallKind {
    /// 2QBF sufficiency check (either CEGAR solver).
    Qbf,
    /// Support feasibility query on expression (2).
    Support,
    /// `minimize_assumptions` recursion (Algorithm 1).
    Minimize,
    /// Onset enumeration / offset disjointness during cube enumeration.
    CubeEnumeration,
    /// The subset-search solver inside `SAT_prune` (not the feasibility
    /// oracle, which reports as [`SatCallKind::Support`]).
    SatPruneSearch,
    /// Equivalence queries during `CEGAR_min` resubstitution.
    CegarMin,
    /// Quantification-refinement queries against spurious witnesses.
    Refinement,
    /// Combinational equivalence checking.
    Cec,
    /// Equivalence proofs of sweep candidate pairs (fraig merging).
    Sweep,
    /// Representative-equivalence proofs of the test-equivalence-class
    /// layer (schema v8): member ≡ representative checks issued by
    /// [`crate::partition_literals`].
    Classes,
}

impl SatCallKind {
    /// All kinds, in the order used by per-kind metric arrays.
    pub const ALL: [SatCallKind; 10] = [
        SatCallKind::Qbf,
        SatCallKind::Support,
        SatCallKind::Minimize,
        SatCallKind::CubeEnumeration,
        SatCallKind::SatPruneSearch,
        SatCallKind::CegarMin,
        SatCallKind::Refinement,
        SatCallKind::Cec,
        SatCallKind::Sweep,
        SatCallKind::Classes,
    ];

    /// Stable snake_case name used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            SatCallKind::Qbf => "qbf",
            SatCallKind::Support => "support",
            SatCallKind::Minimize => "minimize",
            SatCallKind::CubeEnumeration => "cube_enumeration",
            SatCallKind::SatPruneSearch => "sat_prune_search",
            SatCallKind::CegarMin => "cegar_min",
            SatCallKind::Refinement => "refinement",
            SatCallKind::Cec => "cec",
            SatCallKind::Sweep => "sweep",
            SatCallKind::Classes => "classes",
        }
    }

    /// Position in [`SatCallKind::ALL`].
    pub fn index(self) -> usize {
        SatCallKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind is listed")
    }
}

/// A support-minimization step (Sec. 3.4.1).
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SupportStep {
    /// The divide-and-conquer `minimize_assumptions` pass finished.
    Algorithm1,
    /// A last-gasp greedy replacement was accepted.
    LastGasp,
}

impl SupportStep {
    /// Stable snake_case name used in traces and logs.
    pub fn name(self) -> &'static str {
        match self {
            SupportStep::Algorithm1 => "algorithm1",
            SupportStep::LastGasp => "last_gasp",
        }
    }
}

/// A rung of the per-target degradation ladder, from most capable to
/// cheapest: full SAT/CEGAR attempt → reduced-effort retry →
/// structural patch → skipped. [`EcoEvent::LadderStep`] announces each
/// descent; the starting (full) rung has no event.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LadderRung {
    /// Retrying with cheaper settings (`analyze_final` support, no
    /// last-gasp, tighter refinement/cube caps).
    DegradedRetry,
    /// Constructing a SAT-free structural patch.
    Structural,
    /// Giving up on the target; it keeps its current function.
    Skipped,
}

impl LadderRung {
    /// Stable snake_case name used in reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            LadderRung::DegradedRetry => "degraded_retry",
            LadderRung::Structural => "structural",
            LadderRung::Skipped => "skipped",
        }
    }
}

/// One engine event.
///
/// The enum is `#[non_exhaustive]`: downstream matches must carry a
/// wildcard arm so new telemetry can be added without a breaking
/// release.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub enum EcoEvent {
    /// A run began.
    RunStarted {
        /// Number of targets in the problem.
        num_targets: usize,
        /// The configured per-call conflict budget.
        per_call_conflicts: Option<u64>,
        /// The configured worker count ([`crate::EcoOptions::jobs`]).
        jobs: usize,
    },
    /// A phase began.
    PhaseStarted {
        /// Which phase.
        phase: Phase,
    },
    /// A phase completed.
    PhaseFinished {
        /// Which phase.
        phase: Phase,
        /// Wall-clock time spent in the phase.
        elapsed: Duration,
    },
    /// Patch computation for one target began.
    TargetStarted {
        /// Index into the original problem's target list.
        target_index: usize,
        /// Worker that solved the target (`0` on the sequential path;
        /// batch members are assigned round-robin over the job count).
        worker: usize,
    },
    /// Patch computation for one target completed.
    TargetFinished {
        /// Index into the original problem's target list.
        target_index: usize,
        /// Worker that solved the target (matches the
        /// [`EcoEvent::TargetStarted`] of the same target).
        worker: usize,
        /// SAT calls attributed to the target (equals the
        /// [`crate::TargetPatchReport::sat_calls`] of its report).
        sat_calls: u64,
        /// How the target's `SAT_prune` search ended (equals the
        /// [`crate::TargetPatchReport::prune`] of its report).
        prune: Option<PruneReport>,
        /// Wall-clock time spent on the target.
        elapsed: Duration,
    },
    /// One SAT solver invocation, with per-call telemetry deltas.
    SatCall {
        /// What the call was for.
        kind: SatCallKind,
        /// `Some(i)` iff the call counts toward target `i`'s
        /// [`crate::TargetPatchReport::sat_calls`]; shared calls (QBF
        /// sufficiency, final CEC) carry `None`.
        target_index: Option<usize>,
        /// The verdict.
        result: SolveResult,
        /// Conflicts in this call.
        conflicts: u64,
        /// Decisions in this call.
        decisions: u64,
        /// Propagations in this call.
        propagations: u64,
        /// Wall-clock time of this call (solver timing is switched on
        /// automatically while observers are attached).
        elapsed: Duration,
    },
    /// The 2QBF CEGAR loop added a counterexample miter copy.
    QbfRefinement {
        /// Miter copies after the addition.
        copies: usize,
    },
    /// The engine refuted a spurious infeasibility witness and grew the
    /// quantification assignment set.
    QuantificationRefinement {
        /// Index into the original problem's target list.
        target_index: usize,
        /// Assignments after the refinement.
        assignments: usize,
    },
    /// A support-minimization step finished.
    SupportMinimizationStep {
        /// Target the support is for (`None` for standalone use of the
        /// support API).
        target_index: Option<usize>,
        /// Which step.
        step: SupportStep,
        /// Selected divisors after the step.
        support_size: usize,
    },
    /// A SAT budget ran out and the engine switched to the structural
    /// patch construction (Sec. 3.6).
    StructuralFallback {
        /// Index into the original problem's target list.
        target_index: usize,
    },
    /// The run's `ResourceGovernor` tripped (deadline, global budget,
    /// cancellation) or injected a fault. Emitted once per newly
    /// observed sticky reason and once per injected fault.
    GovernorTripped {
        /// Why the governor stopped (or failed) solver calls.
        reason: TripReason,
    },
    /// The per-target degradation ladder moved down a rung.
    LadderStep {
        /// Index into the original problem's target list.
        target_index: usize,
        /// The rung the engine is descending to.
        rung: LadderRung,
    },
    /// One `CEGAR_min` max-flow resubstitution round completed.
    CegarMinRound {
        /// Target the patch is for (`None` for standalone use).
        target_index: Option<usize>,
        /// SAT calls spent proving equivalences this round.
        sat_calls: u64,
        /// Cost of the rewritten support.
        cost: u64,
    },
    /// The run belongs to a serving-layer request (emitted right after
    /// [`EcoEvent::RunStarted`] when the engine was built with
    /// [`crate::EcoEngine::with_request_id`]); gives every span of the
    /// run a request-id dimension.
    RequestTagged {
        /// The caller-chosen request id.
        request_id: String,
    },
    /// A content-hash cache layer was consulted (engine built with
    /// [`crate::EcoEngine::with_cache`]).
    CacheQuery {
        /// Which layer.
        layer: crate::cache::CacheLayer,
        /// `true` on a hit (the derived artifact was reused).
        hit: bool,
    },
    /// A simulation-guided sweep phase began (schema v7): either the
    /// sweep oracle construction for one target's support queries, or a
    /// swept CEC verification wave.
    SweepStarted {
        /// Target the sweep serves (`None` for verification waves).
        target_index: Option<usize>,
    },
    /// The matching end of an [`EcoEvent::SweepStarted`] span.
    SweepFinished {
        /// Target the sweep served (`None` for verification waves).
        target_index: Option<usize>,
        /// Wall-clock time of the sweep phase.
        elapsed: Duration,
    },
    /// Counter report of one sweep activity (schema v7): oracle
    /// construction or swept verification.
    /// Aggregated into [`SweepCounters`].
    SweepReport {
        /// Target the sweep served (`None` for shared activities).
        target_index: Option<usize>,
        /// Equivalence-candidate classes examined.
        classes: u64,
        /// Node merges proven by SAT (no engine activity merges nodes,
        /// so always 0; kept for schema stability).
        merges: u64,
        /// SAT calls spent on sweep proofs ([`SatCallKind::Sweep`]).
        sat_calls: u64,
        /// CEGAR refinement rounds (counterexample patterns fed back).
        refinement_rounds: u64,
        /// AIG nodes eliminated by proven merges (always 0, like
        /// `merges`).
        nodes_eliminated: u64,
        /// Support-feasibility queries answered by simulation alone
        /// (no solver call issued).
        oracle_hits: u64,
        /// Verification outputs discharged by simulation/structure
        /// without a dedicated SAT call.
        sim_discharged_outputs: u64,
    },
    /// Counter report of one test-equivalence-class activity (schema
    /// v8): the per-target class layer over support/minimize/cube/cegar
    /// queries. Aggregated into [`ClassesCounters`].
    ClassesReport {
        /// Target the class layer served (`None` for shared activities).
        target_index: Option<usize>,
        /// Divisor-signature equivalence classes over the pattern pool.
        partitions: u64,
        /// Distinct representative queries sent to the real solver.
        representatives: u64,
        /// Queries answered by class inheritance (no solver call).
        inherited_answers: u64,
        /// Partition refinements from replayed witness models.
        refinement_rounds: u64,
        /// Carried/cached witness patterns accepted on replay.
        witness_replays: u64,
    },
    /// The run completed (success paths only; errors abort the stream).
    RunFinished {
        /// Total wall-clock time.
        elapsed: Duration,
    },
}

/// Receives engine events. Implementations must be cheap: the engine
/// calls [`EcoObserver::on_event`] synchronously on its own thread.
pub trait EcoObserver {
    /// Called once per event, in emission order.
    fn on_event(&mut self, event: &EcoEvent);
}

/// An observer that discards every event. Useful as an explicit "no
/// telemetry" choice and as the baseline for overhead measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullObserver;

impl EcoObserver for NullObserver {
    fn on_event(&mut self, _event: &EcoEvent) {}
}

/// Forwards each event to two observers, enabling composition:
/// `TeeObserver::new(a, TeeObserver::new(b, c))`.
#[derive(Clone, Copy, Debug, Default)]
pub struct TeeObserver<A, B> {
    /// Receives each event first.
    pub first: A,
    /// Receives each event second.
    pub second: B,
}

impl<A, B> TeeObserver<A, B> {
    /// Combines two observers.
    pub fn new(first: A, second: B) -> TeeObserver<A, B> {
        TeeObserver { first, second }
    }
}

impl<A: EcoObserver, B: EcoObserver> EcoObserver for TeeObserver<A, B> {
    fn on_event(&mut self, event: &EcoEvent) {
        self.first.on_event(event);
        self.second.on_event(event);
    }
}

/// The engine-internal fan-out point: a cheap-to-clone handle over the
/// attached observer sinks. Event payloads are only constructed when at
/// least one sink is attached.
#[derive(Clone, Default)]
pub(crate) struct ObserverHandle {
    sinks: Vec<Arc<Mutex<dyn EcoObserver + Send>>>,
}

impl ObserverHandle {
    pub(crate) fn new(sinks: Vec<Arc<Mutex<dyn EcoObserver + Send>>>) -> ObserverHandle {
        ObserverHandle { sinks }
    }

    pub(crate) fn is_active(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Builds the event (lazily) and delivers it to every sink.
    pub(crate) fn emit(&self, make: impl FnOnce() -> EcoEvent) {
        if self.sinks.is_empty() {
            return;
        }
        let event = make();
        for sink in &self.sinks {
            if let Ok(mut observer) = sink.lock() {
                observer.on_event(&event);
            }
        }
    }

    /// Pre-call statistics snapshot; `None` when no sink is attached,
    /// which lets call sites skip the post-call delta entirely. Being
    /// observed also switches on the solver's wall-clock timing, so
    /// unobserved runs never touch the clock.
    pub(crate) fn snapshot(&self, solver: &mut Solver) -> Option<SolverStats> {
        if self.is_active() {
            solver.set_timing(true);
            Some(*solver.stats())
        } else {
            None
        }
    }

    /// Emits a [`EcoEvent::SatCall`] with the delta since `before`
    /// (no-op when `before` is `None`).
    pub(crate) fn sat_call(
        &self,
        before: Option<SolverStats>,
        solver: &Solver,
        kind: SatCallKind,
        target_index: Option<usize>,
        result: SolveResult,
    ) {
        if let Some(earlier) = before {
            let delta = solver.stats().since(earlier);
            self.emit(|| EcoEvent::SatCall {
                kind,
                target_index,
                result,
                conflicts: delta.conflicts,
                decisions: delta.decisions,
                propagations: delta.propagations,
                elapsed: delta.solve_time,
            });
        }
    }
}

impl std::fmt::Debug for ObserverHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverHandle")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// Upper bounds of the per-call conflict histogram buckets (powers of
/// ten); the final bucket is unbounded.
pub const CONFLICT_BUCKET_BOUNDS: [u64; 7] = [0, 10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// Number of buckets in a conflict histogram (the bounds above plus the
/// unbounded overflow bucket).
pub const NUM_CONFLICT_BUCKETS: usize = CONFLICT_BUCKET_BOUNDS.len() + 1;

/// Maps a conflict count to its histogram bucket index.
pub fn conflict_bucket(conflicts: u64) -> usize {
    CONFLICT_BUCKET_BOUNDS
        .iter()
        .position(|&bound| conflicts <= bound)
        .unwrap_or(NUM_CONFLICT_BUCKETS - 1)
}

/// Upper bounds (inclusive, in microseconds) of the per-call latency
/// histogram buckets — powers of ten from 10 µs to 10 s; the final
/// bucket is unbounded.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 7] =
    [10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Number of buckets in a latency histogram (the bounds above plus the
/// unbounded overflow bucket).
pub const NUM_LATENCY_BUCKETS: usize = LATENCY_BUCKET_BOUNDS_US.len() + 1;

/// Maps a call duration to its latency histogram bucket index.
pub fn latency_bucket(elapsed: Duration) -> usize {
    let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
    LATENCY_BUCKET_BOUNDS_US
        .iter()
        .position(|&bound| us <= bound)
        .unwrap_or(NUM_LATENCY_BUCKETS - 1)
}

/// Wall-clock time of one phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseMetrics {
    /// Which phase.
    pub phase: Phase,
    /// Time spent in it.
    pub elapsed: Duration,
}

/// Aggregated telemetry for one target.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TargetMetrics {
    /// Index into the original problem's target list.
    pub target_index: usize,
    /// SAT calls per the target's [`crate::TargetPatchReport`].
    pub sat_calls: u64,
    /// SAT calls observed as [`EcoEvent::SatCall`] events attributed to
    /// this target. Equal to `sat_calls` by construction on unswept,
    /// classless runs; under `--sweep` / `--classes` the report counter
    /// also tallies calls the simulation oracle or class layer
    /// discharged (keeping reports byte-identical to a plain run), so
    /// `sat_calls - observed_sat_calls` is exactly this target's share
    /// of [`SweepCounters::oracle_hits`] plus
    /// [`ClassesCounters::inherited_answers`]. Kept separate so the
    /// accounting is auditable from the JSON alone.
    pub observed_sat_calls: u64,
    /// Total conflicts across the attributed calls.
    pub conflicts: u64,
    /// Wall-clock time spent on the target.
    pub elapsed: Duration,
    /// Solver wall-clock time across the attributed calls.
    pub sat_time: Duration,
    /// Per-call conflict histogram ([`CONFLICT_BUCKET_BOUNDS`]).
    pub conflict_histogram: [u64; NUM_CONFLICT_BUCKETS],
    /// Per-call latency histogram ([`LATENCY_BUCKET_BOUNDS_US`]).
    pub latency_histogram: [u64; NUM_LATENCY_BUCKETS],
    /// How the target's `SAT_prune` search ended (schema v9), per its
    /// [`crate::TargetPatchReport::prune`].
    pub prune: Option<PruneReport>,
}

/// Aggregated telemetry for one [`SatCallKind`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindMetrics {
    /// Calls observed with this kind.
    pub calls: u64,
    /// Total conflicts across those calls.
    pub conflicts: u64,
    /// Total solver wall-clock time across those calls.
    pub time: Duration,
    /// Per-call conflict histogram ([`CONFLICT_BUCKET_BOUNDS`]).
    pub conflict_histogram: [u64; NUM_CONFLICT_BUCKETS],
    /// Per-call latency histogram ([`LATENCY_BUCKET_BOUNDS_US`]).
    pub latency_histogram: [u64; NUM_LATENCY_BUCKETS],
}

/// Aggregated SAT-call telemetry across a whole run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SatCallMetrics {
    /// Total calls observed.
    pub total: u64,
    /// Total conflicts.
    pub conflicts: u64,
    /// Total decisions.
    pub decisions: u64,
    /// Total propagations.
    pub propagations: u64,
    /// Total solver wall-clock time.
    pub time: Duration,
    /// Per-kind breakdown, parallel to [`SatCallKind::ALL`].
    pub by_kind: [KindMetrics; 10],
    /// Per-call conflict histogram ([`CONFLICT_BUCKET_BOUNDS`]).
    pub conflict_histogram: [u64; NUM_CONFLICT_BUCKETS],
    /// Per-call latency histogram ([`LATENCY_BUCKET_BOUNDS_US`]).
    pub latency_histogram: [u64; NUM_LATENCY_BUCKETS],
}

/// How much of the per-call conflict budget the run actually used.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BudgetMetrics {
    /// The configured budget.
    pub per_call_conflicts: u64,
    /// Largest single-call fraction `conflicts / budget`.
    pub max_fraction: f64,
    /// Mean fraction over all calls.
    pub mean_fraction: f64,
}

/// Aggregated telemetry for one parallel worker (schema v4).
///
/// Worker `0` is the coordinating thread: it runs every sequential
/// target and receives the unattributed shared calls (QBF sufficiency,
/// verification sweeps). Batch-solved targets are attributed to the
/// worker slot that ran them. Worker attribution is the one part of
/// [`RunMetrics`] that legitimately varies with
/// [`crate::EcoOptions::jobs`]; the run-level totals do not.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Worker id (`0` = the coordinating thread).
    pub worker: usize,
    /// Targets whose patch computation ran on this worker.
    pub targets: u64,
    /// SAT calls attributed to this worker.
    pub sat_calls: u64,
    /// Total conflicts across those calls.
    pub conflicts: u64,
    /// Total solver wall-clock time across those calls.
    pub sat_time: Duration,
}

/// Per-run cache hit/miss counters (schema v5), aggregated from
/// [`EcoEvent::CacheQuery`] events. The engine fills the window / CNF
/// / target layers; the daemon fills the netlist and outcome layers
/// when it serializes per-request metrics. All zero when no cache is
/// attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Parsed-netlist layer hits (daemon-side).
    pub netlist_hits: u64,
    /// Parsed-netlist layer misses (daemon-side).
    pub netlist_misses: u64,
    /// Window-extraction layer hits.
    pub window_hits: u64,
    /// Window-extraction layer misses.
    pub window_misses: u64,
    /// CNF(miter)-build layer hits.
    pub cnf_hits: u64,
    /// CNF(miter)-build layer misses.
    pub cnf_misses: u64,
    /// Solved-target layer hits.
    pub target_hits: u64,
    /// Solved-target layer misses.
    pub target_misses: u64,
    /// Full-outcome layer hits (daemon-side).
    pub outcome_hits: u64,
    /// Full-outcome layer misses (daemon-side).
    pub outcome_misses: u64,
}

/// Run-wide SAT-sweeping counters (schema v7), aggregated from
/// [`EcoEvent::SweepReport`] events. All zero when sweeping is off
/// ([`crate::EcoOptions::sweep`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepCounters {
    /// Equivalence-candidate classes examined across all sweeps.
    pub classes: u64,
    /// Node merges proven by SAT (always 0: no engine activity merges
    /// nodes; kept for schema stability).
    pub merges: u64,
    /// SAT calls spent on sweep proofs ([`SatCallKind::Sweep`]).
    pub sweep_sat_calls: u64,
    /// CEGAR refinement rounds (counterexamples fed back as patterns).
    pub refinement_rounds: u64,
    /// AIG nodes eliminated by proven merges (always 0, like
    /// `merges`).
    pub nodes_eliminated: u64,
    /// Support-feasibility queries answered by simulation alone.
    pub oracle_hits: u64,
    /// Verification outputs discharged without a dedicated SAT call.
    pub sim_discharged_outputs: u64,
}

/// Run-wide test-equivalence-class counters (schema v8), aggregated
/// from [`EcoEvent::ClassesReport`] events. All zero when the class
/// layer is off ([`crate::EcoOptions::classes`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassesCounters {
    /// Divisor-signature equivalence classes over the pattern pools.
    pub partitions: u64,
    /// Distinct representative queries sent to the real solver.
    pub representatives: u64,
    /// Queries answered by class inheritance (no solver call issued).
    pub inherited_answers: u64,
    /// Partition refinements from replayed witness models.
    pub refinement_rounds: u64,
    /// Carried/cached witness patterns accepted on replay.
    pub witness_replays: u64,
}

/// Per-request serving-layer failure-mode counters (schema v6), filled
/// in by `eco_patchd` when it serializes per-request metrics. All zero
/// for runs that never crossed a serving layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServingCounters {
    /// Requests load-shed at admission (bounded queue full).
    pub shed: u64,
    /// Requests whose deadline expired while queued (rejected before
    /// any solver work).
    pub expired: u64,
    /// Daemon-side retries after a fair-share budget trip.
    pub retried: u64,
    /// Worker panics isolated by the serving layer.
    pub panicked: u64,
}

impl CacheCounters {
    /// Records one [`EcoEvent::CacheQuery`].
    pub fn record(&mut self, layer: crate::cache::CacheLayer, hit: bool) {
        use crate::cache::CacheLayer;
        let slot = match layer {
            CacheLayer::Netlist => {
                if hit {
                    &mut self.netlist_hits
                } else {
                    &mut self.netlist_misses
                }
            }
            CacheLayer::Window => {
                if hit {
                    &mut self.window_hits
                } else {
                    &mut self.window_misses
                }
            }
            CacheLayer::Cnf => {
                if hit {
                    &mut self.cnf_hits
                } else {
                    &mut self.cnf_misses
                }
            }
            CacheLayer::Target => {
                if hit {
                    &mut self.target_hits
                } else {
                    &mut self.target_misses
                }
            }
            CacheLayer::Outcome => {
                if hit {
                    &mut self.outcome_hits
                } else {
                    &mut self.outcome_misses
                }
            }
        };
        *slot += 1;
    }

    /// Total hits across all layers.
    pub fn hits(&self) -> u64 {
        self.netlist_hits + self.window_hits + self.cnf_hits + self.target_hits + self.outcome_hits
    }

    /// Total misses across all layers.
    pub fn misses(&self) -> u64 {
        self.netlist_misses
            + self.window_misses
            + self.cnf_misses
            + self.target_misses
            + self.outcome_misses
    }
}

/// Serializable aggregate of one engine run, built by
/// [`MetricsObserver`] and attached to
/// [`crate::EcoOutcome::metrics`] when the engine was configured with
/// [`crate::EcoEngine::with_metrics`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// The serving-layer request id the run was tagged with
    /// ([`EcoEvent::RequestTagged`]), `None` for untagged runs.
    pub request_id: Option<String>,
    /// Number of targets in the problem.
    pub num_targets: usize,
    /// The configured per-call conflict budget.
    pub per_call_conflicts: Option<u64>,
    /// The configured worker count ([`crate::EcoOptions::jobs`]; `0`
    /// only for metrics predating schema v4).
    pub jobs: usize,
    /// Per-worker attribution, ordered by worker id (schema v4).
    pub workers: Vec<WorkerMetrics>,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Per-phase durations, in completion order.
    pub phases: Vec<PhaseMetrics>,
    /// Per-target telemetry, in processing order (targets that became
    /// trivially dead never start and are absent).
    pub targets: Vec<TargetMetrics>,
    /// Run-wide SAT-call telemetry.
    pub sat_calls: SatCallMetrics,
    /// Budget consumption, when a budget was configured.
    pub budget: Option<BudgetMetrics>,
    /// 2QBF CEGAR counterexample copies added.
    pub qbf_refinements: u64,
    /// Quantification-refinement iterations.
    pub quantification_refinements: u64,
    /// Support-minimization steps (Algorithm 1 passes plus accepted
    /// last-gasp replacements).
    pub support_minimization_steps: u64,
    /// Targets that fell back to the structural construction.
    pub structural_fallbacks: u64,
    /// `CEGAR_min` resubstitution rounds.
    pub cegar_min_rounds: u64,
    /// Governor trips and injected faults observed
    /// ([`EcoEvent::GovernorTripped`]).
    pub governor_trips: u64,
    /// Degradation-ladder descents ([`EcoEvent::LadderStep`]).
    pub ladder_steps: u64,
    /// Cache hit/miss counters ([`EcoEvent::CacheQuery`]); all zero
    /// when no cache is attached.
    pub cache: CacheCounters,
    /// Serving-layer failure-mode counters (schema v6); all zero for
    /// runs that never crossed a serving layer.
    pub serving: ServingCounters,
    /// SAT-sweeping counters (schema v7); all zero when sweeping is
    /// off.
    pub sweep: SweepCounters,
    /// Test-equivalence-class counters (schema v8); all zero when the
    /// class layer is off.
    pub classes: ClassesCounters,
}

fn push_json_array(out: &mut String, counts: &[u64]) {
    out.push('[');
    for (i, c) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&c.to_string());
    }
    out.push(']');
}

/// The `{iterations, exact}` object a [`PruneReport`] serializes to,
/// shared by the metrics JSON and the JSONL trace.
pub(crate) fn prune_json(p: PruneReport) -> String {
    format!("{{\"iterations\":{},\"exact\":{}}}", p.iterations, p.exact)
}

fn push_json_string(out: &mut String, text: &str) {
    out.push('"');
    out.push_str(&crate::json::escape_json(text));
    out.push('"');
}

impl RunMetrics {
    /// Serializes to the stable JSON schema documented in
    /// `EXPERIMENTS.md` (schema_version 9, which added the per-target
    /// `prune` block on top of v8's test-equivalence-class counters).
    /// Key order is fixed; durations are integer microseconds;
    /// fractions carry six decimal places.
    pub fn to_json(&self) -> String {
        let us = |d: Duration| -> u64 { d.as_micros().min(u64::MAX as u128) as u64 };
        let opt_u64 = |v: Option<u64>| match v {
            Some(x) => x.to_string(),
            None => "null".to_string(),
        };
        let mut s = String::new();
        s.push_str("{\"schema_version\":9");
        match &self.request_id {
            Some(id) => {
                s.push_str(",\"request_id\":");
                push_json_string(&mut s, id);
            }
            None => s.push_str(",\"request_id\":null"),
        }
        s.push_str(&format!(",\"num_targets\":{}", self.num_targets));
        s.push_str(&format!(
            ",\"per_call_conflicts\":{}",
            opt_u64(self.per_call_conflicts)
        ));
        s.push_str(&format!(",\"jobs\":{}", self.jobs));
        s.push_str(&format!(",\"elapsed_us\":{}", us(self.elapsed)));
        s.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"phase\":");
            push_json_string(&mut s, p.phase.name());
            s.push_str(&format!(",\"elapsed_us\":{}}}", us(p.elapsed)));
        }
        s.push_str("],\"targets\":[");
        for (i, t) in self.targets.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"target_index\":{},\"sat_calls\":{},\"observed_sat_calls\":{},\
                 \"conflicts\":{},\"elapsed_us\":{},\"sat_time_us\":{},\"conflict_histogram\":",
                t.target_index,
                t.sat_calls,
                t.observed_sat_calls,
                t.conflicts,
                us(t.elapsed),
                us(t.sat_time)
            ));
            push_json_array(&mut s, &t.conflict_histogram);
            s.push_str(",\"latency_histogram\":");
            push_json_array(&mut s, &t.latency_histogram);
            s.push_str(",\"prune\":");
            match t.prune {
                Some(p) => s.push_str(&prune_json(p)),
                None => s.push_str("null"),
            }
            s.push('}');
        }
        s.push_str("],\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"worker\":{},\"targets\":{},\"sat_calls\":{},\"conflicts\":{},\
                 \"sat_time_us\":{}}}",
                w.worker,
                w.targets,
                w.sat_calls,
                w.conflicts,
                us(w.sat_time)
            ));
        }
        s.push_str("],\"sat_calls\":{");
        s.push_str(&format!(
            "\"total\":{},\"conflicts\":{},\"decisions\":{},\"propagations\":{},\"time_us\":{}",
            self.sat_calls.total,
            self.sat_calls.conflicts,
            self.sat_calls.decisions,
            self.sat_calls.propagations,
            us(self.sat_calls.time)
        ));
        s.push_str(",\"by_kind\":{");
        for (i, kind) in SatCallKind::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let k = &self.sat_calls.by_kind[i];
            push_json_string(&mut s, kind.name());
            s.push_str(&format!(
                ":{{\"calls\":{},\"conflicts\":{},\"time_us\":{},\"conflict_histogram\":",
                k.calls,
                k.conflicts,
                us(k.time)
            ));
            push_json_array(&mut s, &k.conflict_histogram);
            s.push_str(",\"latency_histogram\":");
            push_json_array(&mut s, &k.latency_histogram);
            s.push('}');
        }
        s.push_str("},\"conflict_histogram\":");
        push_json_array(&mut s, &self.sat_calls.conflict_histogram);
        s.push_str(",\"latency_histogram\":");
        push_json_array(&mut s, &self.sat_calls.latency_histogram);
        s.push('}');
        match &self.budget {
            Some(b) => s.push_str(&format!(
                ",\"budget\":{{\"per_call_conflicts\":{},\"max_fraction\":{:.6},\
                 \"mean_fraction\":{:.6}}}",
                b.per_call_conflicts, b.max_fraction, b.mean_fraction
            )),
            None => s.push_str(",\"budget\":null"),
        }
        s.push_str(&format!(
            ",\"counters\":{{\"qbf_refinements\":{},\"quantification_refinements\":{},\
             \"support_minimization_steps\":{},\"structural_fallbacks\":{},\
             \"cegar_min_rounds\":{},\"governor_trips\":{},\"ladder_steps\":{}}}",
            self.qbf_refinements,
            self.quantification_refinements,
            self.support_minimization_steps,
            self.structural_fallbacks,
            self.cegar_min_rounds,
            self.governor_trips,
            self.ladder_steps
        ));
        let c = &self.cache;
        s.push_str(&format!(
            ",\"cache\":{{\"netlist_hits\":{},\"netlist_misses\":{},\"window_hits\":{},\
             \"window_misses\":{},\"cnf_hits\":{},\"cnf_misses\":{},\"target_hits\":{},\
             \"target_misses\":{},\"outcome_hits\":{},\"outcome_misses\":{}}}",
            c.netlist_hits,
            c.netlist_misses,
            c.window_hits,
            c.window_misses,
            c.cnf_hits,
            c.cnf_misses,
            c.target_hits,
            c.target_misses,
            c.outcome_hits,
            c.outcome_misses
        ));
        let v = &self.serving;
        s.push_str(&format!(
            ",\"serving\":{{\"shed\":{},\"expired\":{},\"retried\":{},\"panicked\":{}}}",
            v.shed, v.expired, v.retried, v.panicked
        ));
        let w = &self.sweep;
        s.push_str(&format!(
            ",\"sweep\":{{\"classes\":{},\"merges\":{},\"sweep_sat_calls\":{},\
             \"refinement_rounds\":{},\"nodes_eliminated\":{},\"oracle_hits\":{},\
             \"sim_discharged_outputs\":{}}}",
            w.classes,
            w.merges,
            w.sweep_sat_calls,
            w.refinement_rounds,
            w.nodes_eliminated,
            w.oracle_hits,
            w.sim_discharged_outputs
        ));
        let c = &self.classes;
        s.push_str(&format!(
            ",\"classes\":{{\"partitions\":{},\"representatives\":{},\
             \"inherited_answers\":{},\"refinement_rounds\":{},\
             \"witness_replays\":{}}}",
            c.partitions,
            c.representatives,
            c.inherited_answers,
            c.refinement_rounds,
            c.witness_replays
        ));
        s.push('}');
        s
    }
}

/// Aggregates the event stream into [`RunMetrics`]. Needs no clock of
/// its own: all durations arrive inside the events.
#[derive(Clone, Debug, Default)]
pub struct MetricsObserver {
    metrics: RunMetrics,
    fraction_sum: f64,
    budgeted_calls: u64,
    /// `target_index → worker`, learned from [`EcoEvent::TargetStarted`]
    /// and used to attribute that target's SAT calls.
    target_workers: std::collections::HashMap<usize, usize>,
}

impl MetricsObserver {
    /// Creates an empty aggregator.
    pub fn new() -> MetricsObserver {
        MetricsObserver::default()
    }

    /// The metrics accumulated so far (final after
    /// [`EcoEvent::RunFinished`]).
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Consumes the observer, returning the metrics.
    pub fn into_metrics(self) -> RunMetrics {
        self.metrics
    }

    fn target_entry(&mut self, target_index: usize) -> &mut TargetMetrics {
        if let Some(pos) = self
            .metrics
            .targets
            .iter()
            .position(|t| t.target_index == target_index)
        {
            return &mut self.metrics.targets[pos];
        }
        self.metrics.targets.push(TargetMetrics {
            target_index,
            ..TargetMetrics::default()
        });
        self.metrics.targets.last_mut().expect("just pushed")
    }

    fn worker_entry(&mut self, worker: usize) -> &mut WorkerMetrics {
        if let Some(pos) = self.metrics.workers.iter().position(|w| w.worker == worker) {
            return &mut self.metrics.workers[pos];
        }
        let at = self
            .metrics
            .workers
            .iter()
            .position(|w| w.worker > worker)
            .unwrap_or(self.metrics.workers.len());
        self.metrics.workers.insert(
            at,
            WorkerMetrics {
                worker,
                ..WorkerMetrics::default()
            },
        );
        &mut self.metrics.workers[at]
    }
}

impl EcoObserver for MetricsObserver {
    fn on_event(&mut self, event: &EcoEvent) {
        match *event {
            EcoEvent::RunStarted {
                num_targets,
                per_call_conflicts,
                jobs,
            } => {
                self.metrics.num_targets = num_targets;
                self.metrics.per_call_conflicts = per_call_conflicts;
                self.metrics.jobs = jobs;
                self.worker_entry(0);
            }
            EcoEvent::PhaseFinished { phase, elapsed } => {
                self.metrics.phases.push(PhaseMetrics { phase, elapsed });
            }
            EcoEvent::TargetStarted {
                target_index,
                worker,
            } => {
                self.target_entry(target_index);
                self.target_workers.insert(target_index, worker);
                self.worker_entry(worker).targets += 1;
            }
            EcoEvent::TargetFinished {
                target_index,
                sat_calls,
                prune,
                elapsed,
                ..
            } => {
                let entry = self.target_entry(target_index);
                entry.sat_calls = sat_calls;
                entry.prune = prune;
                entry.elapsed = elapsed;
            }
            EcoEvent::SatCall {
                kind,
                target_index,
                conflicts,
                decisions,
                propagations,
                elapsed,
                ..
            } => {
                let bucket = conflict_bucket(conflicts);
                let lat_bucket = latency_bucket(elapsed);
                let sc = &mut self.metrics.sat_calls;
                sc.total += 1;
                sc.conflicts += conflicts;
                sc.decisions += decisions;
                sc.propagations += propagations;
                sc.time += elapsed;
                let k = &mut sc.by_kind[kind.index()];
                k.calls += 1;
                k.conflicts += conflicts;
                k.time += elapsed;
                k.conflict_histogram[bucket] += 1;
                k.latency_histogram[lat_bucket] += 1;
                sc.conflict_histogram[bucket] += 1;
                sc.latency_histogram[lat_bucket] += 1;
                if let Some(budget) = self.metrics.per_call_conflicts {
                    if budget > 0 {
                        let fraction = conflicts as f64 / budget as f64;
                        self.fraction_sum += fraction;
                        self.budgeted_calls += 1;
                        let b = self.metrics.budget.get_or_insert(BudgetMetrics {
                            per_call_conflicts: budget,
                            max_fraction: 0.0,
                            mean_fraction: 0.0,
                        });
                        if fraction > b.max_fraction {
                            b.max_fraction = fraction;
                        }
                    }
                }
                if let Some(ti) = target_index {
                    let entry = self.target_entry(ti);
                    entry.observed_sat_calls += 1;
                    entry.conflicts += conflicts;
                    entry.sat_time += elapsed;
                    entry.conflict_histogram[bucket] += 1;
                    entry.latency_histogram[lat_bucket] += 1;
                }
                let worker = target_index
                    .and_then(|ti| self.target_workers.get(&ti).copied())
                    .unwrap_or(0);
                let w = self.worker_entry(worker);
                w.sat_calls += 1;
                w.conflicts += conflicts;
                w.sat_time += elapsed;
            }
            EcoEvent::QbfRefinement { .. } => self.metrics.qbf_refinements += 1,
            EcoEvent::QuantificationRefinement { .. } => {
                self.metrics.quantification_refinements += 1;
            }
            EcoEvent::SupportMinimizationStep { .. } => {
                self.metrics.support_minimization_steps += 1;
            }
            EcoEvent::StructuralFallback { .. } => self.metrics.structural_fallbacks += 1,
            EcoEvent::CegarMinRound { .. } => self.metrics.cegar_min_rounds += 1,
            EcoEvent::GovernorTripped { .. } => self.metrics.governor_trips += 1,
            EcoEvent::LadderStep { .. } => self.metrics.ladder_steps += 1,
            EcoEvent::RequestTagged { ref request_id } => {
                self.metrics.request_id = Some(request_id.clone());
            }
            EcoEvent::CacheQuery { layer, hit } => self.metrics.cache.record(layer, hit),
            EcoEvent::SweepReport {
                classes,
                merges,
                sat_calls,
                refinement_rounds,
                nodes_eliminated,
                oracle_hits,
                sim_discharged_outputs,
                ..
            } => {
                let w = &mut self.metrics.sweep;
                w.classes += classes;
                w.merges += merges;
                w.sweep_sat_calls += sat_calls;
                w.refinement_rounds += refinement_rounds;
                w.nodes_eliminated += nodes_eliminated;
                w.oracle_hits += oracle_hits;
                w.sim_discharged_outputs += sim_discharged_outputs;
            }
            EcoEvent::ClassesReport {
                partitions,
                representatives,
                inherited_answers,
                refinement_rounds,
                witness_replays,
                ..
            } => {
                let c = &mut self.metrics.classes;
                c.partitions += partitions;
                c.representatives += representatives;
                c.inherited_answers += inherited_answers;
                c.refinement_rounds += refinement_rounds;
                c.witness_replays += witness_replays;
            }
            EcoEvent::RunFinished { elapsed } => {
                self.metrics.elapsed = elapsed;
                if let Some(b) = &mut self.metrics.budget {
                    if self.budgeted_calls > 0 {
                        b.mean_fraction = self.fraction_sum / self.budgeted_calls as f64;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_are_consistent() {
        for (i, kind) in SatCallKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        let names: std::collections::HashSet<&str> =
            SatCallKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names.len(),
            SatCallKind::ALL.len(),
            "names must be distinct"
        );
    }

    #[test]
    fn conflict_buckets_partition() {
        assert_eq!(conflict_bucket(0), 0);
        assert_eq!(conflict_bucket(1), 1);
        assert_eq!(conflict_bucket(10), 1);
        assert_eq!(conflict_bucket(11), 2);
        assert_eq!(conflict_bucket(1_000_000), 6);
        assert_eq!(conflict_bucket(1_000_001), 7);
        assert_eq!(conflict_bucket(u64::MAX), NUM_CONFLICT_BUCKETS - 1);
    }

    #[test]
    fn tee_forwards_to_both() {
        #[derive(Default)]
        struct Counter(usize);
        impl EcoObserver for Counter {
            fn on_event(&mut self, _event: &EcoEvent) {
                self.0 += 1;
            }
        }
        let mut tee = TeeObserver::new(Counter::default(), Counter::default());
        tee.on_event(&EcoEvent::RunStarted {
            num_targets: 1,
            per_call_conflicts: None,
            jobs: 1,
        });
        tee.on_event(&EcoEvent::RunFinished {
            elapsed: Duration::ZERO,
        });
        assert_eq!(tee.first.0, 2);
        assert_eq!(tee.second.0, 2);
    }

    #[test]
    fn inactive_handle_skips_payload_construction() {
        let handle = ObserverHandle::default();
        assert!(!handle.is_active());
        handle.emit(|| panic!("payload must not be built without sinks"));
    }

    #[test]
    fn metrics_aggregate_sat_calls_and_budget() {
        let mut m = MetricsObserver::new();
        m.on_event(&EcoEvent::RunStarted {
            num_targets: 1,
            per_call_conflicts: Some(100),
            jobs: 2,
        });
        m.on_event(&EcoEvent::TargetStarted {
            target_index: 0,
            worker: 1,
        });
        m.on_event(&EcoEvent::SatCall {
            kind: SatCallKind::Support,
            target_index: Some(0),
            result: SolveResult::Unsat,
            conflicts: 50,
            decisions: 7,
            propagations: 20,
            elapsed: Duration::from_micros(30),
        });
        m.on_event(&EcoEvent::SatCall {
            kind: SatCallKind::Cec,
            target_index: None,
            result: SolveResult::Unsat,
            conflicts: 100,
            decisions: 3,
            propagations: 10,
            elapsed: Duration::from_micros(400),
        });
        m.on_event(&EcoEvent::TargetFinished {
            target_index: 0,
            worker: 1,
            sat_calls: 1,
            prune: None,
            elapsed: Duration::from_micros(5),
        });
        m.on_event(&EcoEvent::RunFinished {
            elapsed: Duration::from_micros(9),
        });
        let r = m.metrics();
        assert_eq!(r.sat_calls.total, 2);
        assert_eq!(r.sat_calls.conflicts, 150);
        assert_eq!(r.sat_calls.time, Duration::from_micros(430));
        let support = &r.sat_calls.by_kind[SatCallKind::Support.index()];
        assert_eq!(support.calls, 1);
        assert_eq!(support.conflicts, 50);
        assert_eq!(support.time, Duration::from_micros(30));
        assert_eq!(
            support.latency_histogram[latency_bucket(Duration::from_micros(30))],
            1
        );
        assert_eq!(r.sat_calls.by_kind[SatCallKind::Cec.index()].calls, 1);
        assert_eq!(r.sat_calls.latency_histogram.iter().sum::<u64>(), 2);
        assert_eq!(r.targets.len(), 1);
        assert_eq!(r.targets[0].observed_sat_calls, 1);
        assert_eq!(r.targets[0].sat_calls, 1);
        assert_eq!(r.targets[0].conflicts, 50);
        assert_eq!(r.targets[0].sat_time, Duration::from_micros(30));
        assert_eq!(r.jobs, 2);
        // Worker 0 gets the unattributed CEC call; worker 1 gets the
        // target-attributed support call.
        assert_eq!(r.workers.len(), 2);
        assert_eq!(r.workers[0].worker, 0);
        assert_eq!(r.workers[0].targets, 0);
        assert_eq!(r.workers[0].sat_calls, 1);
        assert_eq!(r.workers[0].conflicts, 100);
        assert_eq!(r.workers[1].worker, 1);
        assert_eq!(r.workers[1].targets, 1);
        assert_eq!(r.workers[1].sat_calls, 1);
        assert_eq!(r.workers[1].conflicts, 50);
        assert_eq!(r.workers[1].sat_time, Duration::from_micros(30));
        let b = r.budget.expect("budget configured");
        assert!((b.max_fraction - 1.0).abs() < 1e-12);
        assert!((b.mean_fraction - 0.75).abs() < 1e-12);
    }

    #[test]
    fn json_has_stable_shape() {
        let m = RunMetrics {
            num_targets: 2,
            per_call_conflicts: None,
            jobs: 4,
            elapsed: Duration::from_micros(42),
            ..RunMetrics::default()
        };
        let json = m.to_json();
        assert!(json.starts_with("{\"schema_version\":9"));
        assert!(json.contains("\"request_id\":null"));
        assert!(json.contains("\"cache\":{\"netlist_hits\":0"));
        assert!(
            json.contains("\"serving\":{\"shed\":0,\"expired\":0,\"retried\":0,\"panicked\":0}")
        );
        assert!(json.contains(
            "\"sweep\":{\"classes\":0,\"merges\":0,\"sweep_sat_calls\":0,\
             \"refinement_rounds\":0,\"nodes_eliminated\":0,\"oracle_hits\":0,\
             \"sim_discharged_outputs\":0}"
        ));
        assert!(json.contains(
            "\"classes\":{\"partitions\":0,\"representatives\":0,\
             \"inherited_answers\":0,\"refinement_rounds\":0,\
             \"witness_replays\":0}"
        ));
        assert!(json.contains("\"per_call_conflicts\":null"));
        assert!(json.contains("\"jobs\":4"));
        assert!(json.contains("\"workers\":[]"));
        assert!(json.contains("\"elapsed_us\":42"));
        assert!(json.contains("\"time_us\":0"));
        assert!(json.contains("\"latency_histogram\":[0,0,0,0,0,0,0,0]"));
        assert!(json.contains("\"budget\":null"));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn latency_buckets_partition() {
        assert_eq!(latency_bucket(Duration::ZERO), 0);
        assert_eq!(latency_bucket(Duration::from_micros(10)), 0);
        assert_eq!(latency_bucket(Duration::from_micros(11)), 1);
        assert_eq!(latency_bucket(Duration::from_millis(1)), 2);
        assert_eq!(latency_bucket(Duration::from_secs(10)), 6);
        assert_eq!(latency_bucket(Duration::from_secs(11)), 7);
        assert_eq!(
            latency_bucket(Duration::from_secs(1 << 40)),
            NUM_LATENCY_BUCKETS - 1
        );
    }
}
