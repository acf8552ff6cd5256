//! Cooperative resource governance for long SAT call chains.
//!
//! A [`ResourceGovernor`] is a cheaply-cloneable shared handle carrying
//! a wall-clock deadline, a global conflict/propagation budget pool
//! drawn down across *all* solver calls that share the handle, and a
//! cooperative cancellation flag. Attach it to any number of solvers
//! with [`Solver::set_search_control`](crate::Solver::set_search_control);
//! each solver then polls the governor periodically from inside its
//! search loop and returns [`SolveResult::Unknown`](crate::SolveResult)
//! promptly once the governor trips.
//!
//! For deterministic robustness testing the governor can also carry a
//! [`FaultPlan`] that forces `Unknown` answers (or a cancellation) at
//! chosen call indices, seeded and reproducible.
//!
//! # Examples
//!
//! ```
//! use eco_sat::{FaultPlan, GovernorLimits, ResourceGovernor, SolveResult, Solver, TripReason};
//!
//! // Fault-inject the very first solve: it must come back Unknown.
//! let governor = ResourceGovernor::new(GovernorLimits {
//!     fault_plan: Some(FaultPlan::AtCalls(vec![1])),
//!     ..GovernorLimits::default()
//! });
//! let mut solver = Solver::new();
//! let v = solver.new_var();
//! solver.add_clause(&[v.positive()]);
//! solver.set_search_control(Some(governor.control()));
//! assert_eq!(solver.solve(&[]), SolveResult::Unknown);
//! assert_eq!(governor.fault_injections(), 1);
//! // Fault trips are per-call, not sticky: the next call succeeds.
//! assert_eq!(solver.solve(&[]), SolveResult::Sat);
//! assert_eq!(governor.trip(), None);
//!
//! // Cancellation is sticky and shared across every attached solver.
//! governor.cancel();
//! assert_eq!(governor.trip(), Some(TripReason::Cancelled));
//! assert_eq!(solver.solve(&[]), SolveResult::Unknown);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative stop hook polled by [`Solver`](crate::Solver) during
/// search.
///
/// Returning `true` from either method asks the solver to abandon the
/// current call and answer
/// [`SolveResult::Unknown`](crate::SolveResult); the solver stays fully
/// usable for later calls.
pub trait SearchControl: std::fmt::Debug + Send + Sync {
    /// Called once at the start of every [`Solver::solve`](crate::Solver::solve).
    /// Returning `true` aborts the call before any search happens.
    fn solve_started(&self) -> bool {
        false
    }

    /// Called periodically from the search loop (and once more when a
    /// call finishes) with the conflicts and propagations spent since
    /// the previous report. Returning `true` stops the current call.
    fn consume(&self, conflicts: u64, propagations: u64) -> bool;
}

/// Why a [`ResourceGovernor`] stopped (or is stopping) solver calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TripReason {
    /// [`ResourceGovernor::cancel`] was called.
    Cancelled,
    /// The wall-clock deadline passed.
    Deadline,
    /// The shared global conflict/propagation pool ran dry.
    GlobalBudget,
    /// A [`FaultPlan`] forced this call to fail (per-call, not sticky).
    FaultInjected,
}

impl TripReason {
    /// A short lowercase human-readable name (stable across versions,
    /// used in reports and CLI output).
    pub fn name(self) -> &'static str {
        match self {
            TripReason::Cancelled => "cancelled",
            TripReason::Deadline => "deadline",
            TripReason::GlobalBudget => "global budget",
            TripReason::FaultInjected => "fault injected",
        }
    }
}

impl std::fmt::Display for TripReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic schedule of injected solver failures, evaluated
/// against the 1-based global SAT-call index counted by the governor.
///
/// Plans are stateless functions of the call index, so a given plan and
/// call sequence always fails the same calls — the foundation of the
/// reproducible fault-injection tests.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultPlan {
    /// Fail exactly the listed call indices.
    AtCalls(Vec<u64>),
    /// Fail every `n`-th call (`n == 0` never fails).
    EveryNth(u64),
    /// Fail call `i` when `splitmix64(seed + i) % one_in == 0` — a
    /// seeded, reproducible pseudo-random schedule.
    Seeded {
        /// PRNG seed.
        seed: u64,
        /// Average one failure per this many calls (`0` never fails).
        one_in: u64,
    },
    /// Trigger a sticky [`TripReason::Cancelled`] at call `n` (and
    /// thereafter), exercising hard-stop paths deterministically.
    CancelAt(u64),
    /// Panic at the start of the first call whose index is `>= n`,
    /// simulating a solver bug deep inside a search. Serving layers
    /// wrap solve paths in `catch_unwind` and must turn this into a
    /// structured error instead of dying; the `>=` comparison makes
    /// the plan usable on a child governor sharing a chain-wide call
    /// counter ("panic on this child's next call").
    PanicAt(u64),
}

impl FaultPlan {
    /// Whether this plan injects a (per-call) fault at `call`.
    fn injects(&self, call: u64) -> bool {
        match self {
            FaultPlan::AtCalls(calls) => calls.contains(&call),
            FaultPlan::EveryNth(n) => *n > 0 && call.is_multiple_of(*n),
            FaultPlan::Seeded { seed, one_in } => {
                *one_in > 0 && splitmix64(seed.wrapping_add(call)).is_multiple_of(*one_in)
            }
            FaultPlan::CancelAt(_) | FaultPlan::PanicAt(_) => false,
        }
    }

    /// Whether this plan cancels the governor at `call`.
    fn cancels(&self, call: u64) -> bool {
        matches!(self, FaultPlan::CancelAt(n) if call >= *n)
    }

    /// Whether this plan panics the calling thread at `call`.
    fn panics(&self, call: u64) -> bool {
        matches!(self, FaultPlan::PanicAt(n) if call >= *n)
    }
}

/// SplitMix64: the standard 64-bit finalizer-style PRNG step.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resource limits for a [`ResourceGovernor`]. All fields default to
/// "unlimited"/absent; construct with functional-update syntax over
/// [`GovernorLimits::default`].
#[derive(Clone, Debug, Default)]
pub struct GovernorLimits {
    /// Wall-clock deadline, measured from governor construction.
    pub timeout: Option<Duration>,
    /// Global conflict pool shared by every attached solver.
    pub global_conflicts: Option<u64>,
    /// Global propagation pool shared by every attached solver.
    pub global_propagations: Option<u64>,
    /// Deterministic fault-injection schedule.
    pub fault_plan: Option<FaultPlan>,
}

#[derive(Debug)]
struct GovernorState {
    deadline: Option<Instant>,
    conflict_pool: Option<AtomicU64>,
    propagation_pool: Option<AtomicU64>,
    cancelled: AtomicBool,
    deadline_tripped: AtomicBool,
    budget_tripped: AtomicBool,
    calls: AtomicU64,
    fault_injections: AtomicU64,
    fault_plan: Option<FaultPlan>,
    /// Child governors carry their own cancellation flag and — when
    /// created with [`ResourceGovernor::child_with_limits`] — their own
    /// deadline, budget pools and fault plan, while still observing
    /// every ancestor's limits through the chain. The SAT-call counter
    /// always lives at the root, so fault plans anywhere in a chain
    /// see one consistent call numbering.
    parent: Option<Arc<GovernorState>>,
}

impl GovernorState {
    /// The root of the parent chain (`self` when not a child).
    fn root(&self) -> &GovernorState {
        let mut state = self;
        while let Some(parent) = state.parent.as_deref() {
            state = parent;
        }
        state
    }

    /// Walks the chain from `self` to the root until `f` returns
    /// `Some`.
    fn find_up<T>(&self, mut f: impl FnMut(&GovernorState) -> Option<T>) -> Option<T> {
        let mut state = self;
        loop {
            if let Some(found) = f(state) {
                return Some(found);
            }
            match state.parent.as_deref() {
                Some(parent) => state = parent,
                None => return None,
            }
        }
    }

    /// Whether this handle or any ancestor was cancelled.
    fn cancelled_chain(&self) -> bool {
        self.find_up(|s| s.cancelled.load(Ordering::Relaxed).then_some(()))
            .is_some()
    }

    /// Whether this state's own deadline (if any) has passed, latching
    /// the sticky flag on first observation.
    fn own_deadline_passed(&self) -> bool {
        if self.deadline_tripped.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.deadline_tripped.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

/// Shared governor for a chain of SAT calls: wall-clock deadline,
/// global budget pool and cooperative cancellation in one handle.
///
/// Cloning is cheap (an `Arc` bump) and every clone observes and
/// affects the same state, so the handle can be kept by the caller for
/// [`ResourceGovernor::cancel`] / inspection while clones ride inside
/// solvers. See the [module docs](self) for an example.
#[derive(Clone, Debug)]
pub struct ResourceGovernor {
    state: Arc<GovernorState>,
}

impl ResourceGovernor {
    /// Creates a governor; the deadline clock starts now.
    pub fn new(limits: GovernorLimits) -> ResourceGovernor {
        ResourceGovernor {
            state: Arc::new(GovernorState {
                deadline: limits.timeout.map(|t| Instant::now() + t),
                conflict_pool: limits.global_conflicts.map(AtomicU64::new),
                propagation_pool: limits.global_propagations.map(AtomicU64::new),
                cancelled: AtomicBool::new(false),
                deadline_tripped: AtomicBool::new(false),
                budget_tripped: AtomicBool::new(false),
                calls: AtomicU64::new(0),
                fault_injections: AtomicU64::new(0),
                fault_plan: limits.fault_plan,
                parent: None,
            }),
        }
    }

    /// A child handle with its *own* limits layered under the parent's:
    /// its deadline clock starts now, its pools are private, and its
    /// fault plan is evaluated against the chain-wide call counter.
    /// Every check observes the tightest constraint along the chain, so
    /// the child can never outlive or outspend the parent — the
    /// per-request QoS primitive: a serving process keeps one root
    /// governor for global capacity and derives one bounded child per
    /// request (deadline + fair-share conflict pool), cancelling or
    /// expiring requests individually without touching its neighbours.
    pub fn child_with_limits(&self, limits: GovernorLimits) -> ResourceGovernor {
        ResourceGovernor {
            state: Arc::new(GovernorState {
                deadline: limits.timeout.map(|t| Instant::now() + t),
                conflict_pool: limits.global_conflicts.map(AtomicU64::new),
                propagation_pool: limits.global_propagations.map(AtomicU64::new),
                cancelled: AtomicBool::new(false),
                deadline_tripped: AtomicBool::new(false),
                budget_tripped: AtomicBool::new(false),
                calls: AtomicU64::new(0),
                fault_injections: AtomicU64::new(0),
                fault_plan: limits.fault_plan,
                parent: Some(self.state.clone()),
            }),
        }
    }

    /// The handle as a solver hook for
    /// [`Solver::set_search_control`](crate::Solver::set_search_control).
    pub fn control(&self) -> Arc<dyn SearchControl> {
        Arc::new(self.clone())
    }

    /// Requests cooperative cancellation: every attached solver answers
    /// `Unknown` at its next check.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Relaxed);
    }

    /// The sticky trip reason, if any — checked in severity order
    /// (cancellation, deadline, then global budget). Per-call injected
    /// faults are *not* sticky and never appear here. Child handles
    /// also observe the trips of every ancestor.
    pub fn trip(&self) -> Option<TripReason> {
        self.hard_trip().or_else(|| {
            self.state
                .find_up(|s| s.budget_tripped.load(Ordering::Relaxed).then_some(()))
                .map(|()| TripReason::GlobalBudget)
        })
    }

    /// Like [`ResourceGovernor::trip`] but only the *hard* reasons that
    /// warrant abandoning remaining work outright (cancellation or an
    /// expired deadline), not a drained budget pool, which still leaves
    /// room for SAT-free work.
    pub fn hard_trip(&self) -> Option<TripReason> {
        if self.state.cancelled_chain() {
            return Some(TripReason::Cancelled);
        }
        if self.deadline_passed() {
            return Some(TripReason::Deadline);
        }
        None
    }

    /// Number of solver calls started under this governor (shared with
    /// the whole parent chain for child handles).
    pub fn sat_calls(&self) -> u64 {
        self.state.root().calls.load(Ordering::Relaxed)
    }

    /// Number of faults injected so far by the [`FaultPlan`]s of this
    /// handle and its ancestors.
    pub fn fault_injections(&self) -> u64 {
        let mut total = 0;
        let _ = self.state.find_up(|s| {
            total += s.fault_injections.load(Ordering::Relaxed);
            None::<()>
        });
        total
    }

    /// Tightest remaining conflict pool along the chain (`None` =
    /// unlimited everywhere).
    pub fn remaining_conflicts(&self) -> Option<u64> {
        let mut min: Option<u64> = None;
        let _ = self.state.find_up(|s| {
            if let Some(pool) = &s.conflict_pool {
                let left = pool.load(Ordering::Relaxed);
                min = Some(min.map_or(left, |m| m.min(left)));
            }
            None::<()>
        });
        min
    }

    /// Time left before the nearest deadline along the chain (`None` =
    /// no deadline anywhere). Zero once any deadline has passed.
    pub fn remaining_time(&self) -> Option<Duration> {
        let mut nearest: Option<Instant> = None;
        let _ = self.state.find_up(|s| {
            if let Some(d) = s.deadline {
                nearest = Some(nearest.map_or(d, |n| n.min(d)));
            }
            None::<()>
        });
        nearest.map(|d| d.saturating_duration_since(Instant::now()))
    }

    fn deadline_passed(&self) -> bool {
        self.state
            .find_up(|s| s.own_deadline_passed().then_some(()))
            .is_some()
    }

    /// Draws `amount` from `pool`; returns `true` when the pool is now
    /// (or already was) empty.
    fn draw(pool: &AtomicU64, amount: u64) -> bool {
        let mut current = pool.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(amount);
            match pool.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return next == 0,
                Err(seen) => current = seen,
            }
        }
    }
}

impl SearchControl for ResourceGovernor {
    fn solve_started(&self) -> bool {
        // One chain-wide call numbering, owned by the root; each
        // state's own fault plan is then evaluated against it.
        let call = self.state.root().calls.fetch_add(1, Ordering::Relaxed) + 1;
        let injected = self
            .state
            .find_up(|s| {
                let plan = s.fault_plan.as_ref()?;
                if plan.cancels(call) {
                    s.cancelled.store(true, Ordering::Relaxed);
                }
                if plan.panics(call) {
                    s.fault_injections.fetch_add(1, Ordering::Relaxed);
                    panic!("injected solver panic (fault plan, call {call})");
                }
                if plan.injects(call) {
                    s.fault_injections.fetch_add(1, Ordering::Relaxed);
                    return Some(());
                }
                None
            })
            .is_some();
        injected || self.trip().is_some()
    }

    fn consume(&self, conflicts: u64, propagations: u64) -> bool {
        // Spend against every pool along the chain: a child's private
        // fair-share pool and the root's global capacity drain together.
        let _ = self.state.find_up(|s| {
            if let Some(pool) = &s.conflict_pool {
                if ResourceGovernor::draw(pool, conflicts) {
                    s.budget_tripped.store(true, Ordering::Relaxed);
                }
            }
            if let Some(pool) = &s.propagation_pool {
                if ResourceGovernor::draw(pool, propagations) {
                    s.budget_tripped.store(true, Ordering::Relaxed);
                }
            }
            None::<()>
        });
        self.trip().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveResult, Solver};

    /// A 3-colourability-style instance that takes some search: pigeonhole
    /// PHP(n+1, n) encoded directly — hard enough to burn conflicts.
    fn pigeonhole(solver: &mut Solver, holes: usize) -> Vec<Vec<crate::Lit>> {
        let pigeons = holes + 1;
        let vars: Vec<Vec<_>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| solver.new_var()).collect())
            .collect();
        for p in &vars {
            let clause: Vec<_> = p.iter().map(|v| v.positive()).collect();
            solver.add_clause(&clause);
        }
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                for (a, b) in vars[p1].iter().zip(&vars[p2]) {
                    solver.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        vars.into_iter()
            .map(|row| row.into_iter().map(|v| v.positive()).collect())
            .collect()
    }

    #[test]
    fn fault_plan_schedules_are_deterministic() {
        let plan = FaultPlan::Seeded { seed: 7, one_in: 4 };
        let a: Vec<bool> = (1..100).map(|i| plan.injects(i)).collect();
        let b: Vec<bool> = (1..100).map(|i| plan.injects(i)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "one_in=4 over 99 calls must fire");
        assert!(!a.iter().all(|&x| x), "and must not fire every call");

        let every = FaultPlan::EveryNth(3);
        assert!(!every.injects(1) && !every.injects(2) && every.injects(3));
        assert!(!FaultPlan::EveryNth(0).injects(1));
    }

    #[test]
    fn at_calls_faults_exactly_the_listed_calls() {
        let governor = ResourceGovernor::new(GovernorLimits {
            fault_plan: Some(FaultPlan::AtCalls(vec![2])),
            ..GovernorLimits::default()
        });
        let mut solver = Solver::new();
        let v = solver.new_var();
        solver.add_clause(&[v.positive()]);
        solver.set_search_control(Some(governor.control()));
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        assert_eq!(solver.solve(&[]), SolveResult::Unknown);
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        assert_eq!(governor.sat_calls(), 3);
        assert_eq!(governor.fault_injections(), 1);
        assert_eq!(governor.trip(), None, "faults are not sticky");
    }

    #[test]
    fn global_conflict_pool_is_shared_across_solvers() {
        let governor = ResourceGovernor::new(GovernorLimits {
            global_conflicts: Some(50),
            ..GovernorLimits::default()
        });
        let mut a = Solver::new();
        pigeonhole(&mut a, 7);
        a.set_search_control(Some(governor.control()));
        let mut b = a.clone();
        // The first solver drains the pool...
        assert_eq!(a.solve(&[]), SolveResult::Unknown);
        assert_eq!(governor.trip(), Some(TripReason::GlobalBudget));
        // ...so the second one is rejected at call entry.
        assert_eq!(b.solve(&[]), SolveResult::Unknown);
        assert_eq!(governor.remaining_conflicts(), Some(0));
    }

    #[test]
    fn deadline_trips_solver_promptly() {
        let governor = ResourceGovernor::new(GovernorLimits {
            timeout: Some(Duration::from_millis(20)),
            ..GovernorLimits::default()
        });
        let mut solver = Solver::new();
        pigeonhole(&mut solver, 10);
        solver.set_search_control(Some(governor.control()));
        let t0 = Instant::now();
        let result = solver.solve(&[]);
        assert_eq!(result, SolveResult::Unknown);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "PHP(11,10) must be cut off far below its natural runtime"
        );
        assert_eq!(governor.trip(), Some(TripReason::Deadline));
        assert_eq!(governor.hard_trip(), Some(TripReason::Deadline));
    }

    #[test]
    fn cancellation_wins_over_other_reasons() {
        let governor = ResourceGovernor::new(GovernorLimits {
            global_conflicts: Some(1),
            ..GovernorLimits::default()
        });
        governor.cancel();
        assert_eq!(governor.trip(), Some(TripReason::Cancelled));
    }

    #[test]
    fn cancel_at_plan_sets_sticky_cancellation() {
        let governor = ResourceGovernor::new(GovernorLimits {
            fault_plan: Some(FaultPlan::CancelAt(2)),
            ..GovernorLimits::default()
        });
        let mut solver = Solver::new();
        let v = solver.new_var();
        solver.add_clause(&[v.positive()]);
        solver.set_search_control(Some(governor.control()));
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        assert_eq!(solver.solve(&[]), SolveResult::Unknown);
        assert_eq!(governor.trip(), Some(TripReason::Cancelled));
        assert_eq!(solver.solve(&[]), SolveResult::Unknown);
    }

    #[test]
    fn panic_at_plan_panics_inside_the_solver_call() {
        let governor = ResourceGovernor::new(GovernorLimits {
            fault_plan: Some(FaultPlan::PanicAt(2)),
            ..GovernorLimits::default()
        });
        let mut solver = Solver::new();
        let v = solver.new_var();
        solver.add_clause(&[v.positive()]);
        solver.set_search_control(Some(governor.control()));
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| solver.solve(&[])));
        let payload = unwound.expect_err("call 2 must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic carries a message");
        assert!(message.contains("injected solver panic"), "{message}");
        assert_eq!(governor.fault_injections(), 1);
        assert_eq!(governor.trip(), None, "a panic is not a sticky trip");
    }

    #[test]
    fn panic_at_fires_on_a_child_joining_a_running_call_chain() {
        // The chain-wide counter is already past 1; a child plan with
        // `PanicAt(current + 1)` must fire on the child's next call.
        let root = ResourceGovernor::new(GovernorLimits::default());
        let mut warm = Solver::new();
        let v = warm.new_var();
        warm.add_clause(&[v.positive()]);
        warm.set_search_control(Some(root.control()));
        assert_eq!(warm.solve(&[]), SolveResult::Sat);
        assert_eq!(warm.solve(&[]), SolveResult::Sat);
        let child = root.child_with_limits(GovernorLimits {
            fault_plan: Some(FaultPlan::PanicAt(root.sat_calls() + 1)),
            ..GovernorLimits::default()
        });
        let mut solver = Solver::new();
        let v = solver.new_var();
        solver.add_clause(&[v.positive()]);
        solver.set_search_control(Some(child.control()));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| solver.solve(&[])));
        assert!(unwound.is_err(), "the child's first call must panic");
        // The panic stays scoped to the child's plan: solvers on the
        // root keep working.
        assert_eq!(warm.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn child_cancellation_is_scoped_and_shares_resources() {
        let governor = ResourceGovernor::new(GovernorLimits {
            global_conflicts: Some(50),
            ..GovernorLimits::default()
        });
        let child = governor.child_with_limits(GovernorLimits::default());
        // Cancelling the child does not affect the parent...
        child.cancel();
        assert_eq!(child.trip(), Some(TripReason::Cancelled));
        assert_eq!(governor.trip(), None);
        // ...but the child draws from the parent's shared pool.
        let sibling = governor.child_with_limits(GovernorLimits::default());
        let mut solver = Solver::new();
        pigeonhole(&mut solver, 7);
        solver.set_search_control(Some(sibling.control()));
        assert_eq!(solver.solve(&[]), SolveResult::Unknown);
        assert_eq!(governor.trip(), Some(TripReason::GlobalBudget));
        assert_eq!(sibling.trip(), Some(TripReason::GlobalBudget));
        assert_eq!(governor.remaining_conflicts(), Some(0));
        assert_eq!(sibling.remaining_conflicts(), Some(0));
        // A parent cancellation reaches every child.
        governor.cancel();
        assert_eq!(sibling.hard_trip(), Some(TripReason::Cancelled));
        // Calls made under children count on the shared counter.
        assert_eq!(governor.sat_calls(), sibling.sat_calls());
        assert!(governor.sat_calls() >= 1);
    }

    #[test]
    fn child_limits_layer_under_the_parent() {
        let root = ResourceGovernor::new(GovernorLimits {
            global_conflicts: Some(1_000_000),
            ..GovernorLimits::default()
        });
        // A request-scoped child with a small private fair-share pool.
        let request = root.child_with_limits(GovernorLimits {
            global_conflicts: Some(50),
            ..GovernorLimits::default()
        });
        assert_eq!(request.remaining_conflicts(), Some(50), "tightest pool");
        let mut solver = Solver::new();
        pigeonhole(&mut solver, 7);
        solver.set_search_control(Some(request.control()));
        assert_eq!(solver.solve(&[]), SolveResult::Unknown);
        // The request tripped on its own pool; the root keeps capacity
        // (minus what the request actually spent) and stays untripped.
        assert_eq!(request.trip(), Some(TripReason::GlobalBudget));
        assert_eq!(root.trip(), None);
        let left = root.remaining_conflicts().expect("root pool present");
        assert!(left < 1_000_000, "spend drains the root pool too");
        assert!(left > 0, "a 50-conflict request cannot drain the root");
        // Calls still count on the shared chain-wide counter.
        assert_eq!(root.sat_calls(), request.sat_calls());
    }

    #[test]
    fn child_deadline_expires_without_touching_the_parent() {
        let root = ResourceGovernor::new(GovernorLimits::default());
        let request = root.child_with_limits(GovernorLimits {
            timeout: Some(Duration::from_millis(0)),
            ..GovernorLimits::default()
        });
        assert_eq!(request.hard_trip(), Some(TripReason::Deadline));
        assert_eq!(request.remaining_time(), Some(Duration::ZERO));
        assert_eq!(root.trip(), None);
        assert_eq!(root.remaining_time(), None);
    }

    #[test]
    fn unlimited_governor_never_interferes() {
        let governor = ResourceGovernor::new(GovernorLimits::default());
        let mut solver = Solver::new();
        pigeonhole(&mut solver, 5);
        solver.set_search_control(Some(governor.control()));
        assert_eq!(solver.solve(&[]), SolveResult::Unsat);
        assert!(governor.sat_calls() >= 1);
        assert_eq!(governor.trip(), None);
    }
}
