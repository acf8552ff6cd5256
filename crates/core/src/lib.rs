//! # eco-core
//!
//! A from-scratch reproduction of *"Efficient Computation of ECO Patch
//! Functions"* (Dao, Lee, Chen, Lin, Jiang, Mishchenko, Brayton — DAC
//! 2018): SAT-based, resource-aware computation of multi-output ECO
//! patch functions, the method that won the 2017 ICCAD CAD Contest
//! Problem A.
//!
//! Given an *implementation* AIG with designated *target* nodes, a
//! *specification* AIG, and per-signal costs, [`EcoEngine`] computes
//! low-cost patch functions making the patched implementation
//! equivalent to the specification:
//!
//! - sufficiency check of the target set via CEGAR 2QBF
//!   ([`check_targets_sufficient`], Sec. 3.2),
//! - structural pruning to a logic window ([`compute_window`],
//!   Sec. 3.3),
//! - per-target universal quantification with exact expansion or QBF
//!   certificates ([`QuantifiedMiter`], Secs. 3.1/3.6.2),
//! - cost-aware support minimization ([`minimize_assumptions`],
//!   Algorithm 1) with a baseline `analyze_final` mode and the exact
//!   [`sat_prune_support`] (Sec. 3.4),
//! - patch functions by prime-cube enumeration
//!   ([`enumerate_patch_sop`], Sec. 3.5) factored into multi-level
//!   logic,
//! - structural patches with max-flow resubstitution ([`cegar_min`],
//!   Sec. 3.6),
//! - resource governance: wall-clock deadlines, global budget pools,
//!   cooperative cancellation ([`ResourceGovernor`]), and a per-target
//!   degradation ladder yielding anytime outcomes with
//!   [`TargetDisposition`]s instead of aborted runs.
//!
//! # Examples
//!
//! ```
//! use eco_aig::Aig;
//! use eco_core::{EcoEngine, EcoOptions, EcoProblem, SupportMethod};
//!
//! // Old implementation: y = a & b. New spec: y = a ^ b.
//! let mut im = Aig::new();
//! let a = im.add_input();
//! let b = im.add_input();
//! let t = im.and(a, b);
//! im.add_output(t);
//! let mut sp = Aig::new();
//! let a = sp.add_input();
//! let b = sp.add_input();
//! let y = sp.xor(a, b);
//! sp.add_output(y);
//!
//! let problem = EcoProblem::with_unit_weights(im, sp, vec![t.node()])?;
//! let options = EcoOptions::builder()
//!     .method(SupportMethod::MinimizeAssumptions)
//!     .build()?;
//! let outcome = EcoEngine::new(options).solve(&problem.snapshot())?;
//! assert!(outcome.verified);
//! # Ok::<(), eco_core::EcoError>(())
//! ```
//!
//! Attach an [`EcoObserver`] with [`EcoEngine::with_observer`] to
//! stream [`EcoEvent`]s (phase timings, per-SAT-call telemetry), or
//! call [`EcoEngine::with_metrics`] to aggregate a [`RunMetrics`]
//! summary into the outcome.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cec;
mod cegar_min;
mod classes;
mod cnf;
mod cost;
mod cubes;
mod detect;
mod emit;
mod engine;
mod error;
mod exact;
mod interp;
pub mod json;
mod miter;
mod observe;
mod problem;
mod qbf;
mod snapshot;
mod structural;
mod support;
mod sweep;
pub mod trace;
mod window;

pub use cache::{CacheLayer, CacheStats, EcoCache};
pub use cec::{check_equivalence, CecResult};
pub use cegar_min::{cegar_min, cegar_min_filtered, CegarMinResult};
pub use classes::{partition_literals, PartitionOutcome};
pub use cnf::CnfEncoder;
pub use cost::{generate_weights, WeightDistribution};
pub use cubes::{enumerate_patch_sop, PatchSop};
pub use detect::{detect_targets, DetectOptions, DetectedTargets};
pub use emit::{netlist_patches, NamedPatch};
pub use engine::{
    AppliedPatch, EcoEngine, EcoOptions, EcoOptionsBuilder, EcoOutcome, PatchKind, SupportMethod,
    TargetDisposition, TargetPatchReport,
};
pub use error::{BudgetExhausted, EcoError};
pub use exact::{sat_prune_support, PruneReport, SatPruneOptions, SatPruneResult};
pub use interp::{
    craig_interpolant, interpolation_patch, interpolation_patch_governed, InterpolantPatch,
};
pub use miter::{EcoMiter, QuantifiedMiter};
pub use observe::{
    conflict_bucket, latency_bucket, BudgetMetrics, CacheCounters, ClassesCounters, EcoEvent,
    EcoObserver, KindMetrics, LadderRung, MetricsObserver, NullObserver, Phase, PhaseMetrics,
    RunMetrics, SatCallKind, SatCallMetrics, ServingCounters, SupportStep, SweepCounters,
    TargetMetrics, TeeObserver, WorkerMetrics, CONFLICT_BUCKET_BOUNDS, LATENCY_BUCKET_BOUNDS_US,
    NUM_CONFLICT_BUCKETS, NUM_LATENCY_BUCKETS,
};
pub use problem::EcoProblem;
pub use qbf::{check_targets_sufficient, QbfOutcome};
pub use snapshot::{
    cone_hash, hash_aig, hash_bytes, ContentHasher, ProblemSnapshot, SnapshotHashes,
};
pub use structural::{structural_patch, StructuralPatch};
pub use support::{
    minimize_assumptions, naive_minimize_assumptions, support_solver_for, SupportResult,
    SupportSolver,
};
pub use window::{compute_divisors, compute_window, Window};

// Resource-governance types, re-exported so engine callers need not
// depend on `eco_sat` directly.
pub use eco_sat::{
    FaultPlan, GovernorLimits, ResourceGovernor, SearchControl, SolveResult, TripReason,
};
