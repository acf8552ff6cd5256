//! Search-trajectory pins for the CDCL solver.
//!
//! Every counter the search produces (decisions, propagations,
//! conflicts, restarts, learnt/deleted clauses, the learnt-clause high
//! water mark), every final-conflict core and every model is a pure
//! function of the clause set and the call sequence. These pins record
//! them for a fixed set of instances, so a change to clause storage or
//! propagation that claims to keep the search identical has to prove
//! it: one reordered watcher, one differently ordered literal in a
//! learnt clause or one changed reduction victim moves the counters.
//!
//! The long-run instance crosses the first learnt-clause reduction
//! (30,000 conflicts), so reduction and arena compaction both run, but
//! stays below the conflict count at which clause activities approach
//! the rescale threshold.

use eco_sat::{ClauseRef, Lit, SolveResult, Solver, SolverStats, Var};
use eco_testutil::Rng;

/// The deterministic part of [`SolverStats`] (everything but time).
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    solves: u64,
    decisions: u64,
    propagations: u64,
    conflicts: u64,
    restarts: u64,
    learned_clauses: u64,
    deleted_learnts: u64,
    peak_learnts: u64,
}

impl From<&SolverStats> for Counters {
    fn from(s: &SolverStats) -> Counters {
        Counters {
            solves: s.solves,
            decisions: s.decisions,
            propagations: s.propagations,
            conflicts: s.conflicts,
            restarts: s.restarts,
            learned_clauses: s.learned_clauses,
            deleted_learnts: s.deleted_learnts,
            peak_learnts: s.peak_learnts,
        }
    }
}

/// FNV-1a over a stream of words: a compact fingerprint for models,
/// cores and proof contents.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Fingerprint of one answer: the result, then the model (after Sat)
/// or the final-conflict core in the solver's order (after Unsat).
fn answer_fingerprint(s: &Solver, result: SolveResult, h: &mut Fnv) {
    h.word(match result {
        SolveResult::Sat => 1,
        SolveResult::Unsat => 2,
        SolveResult::Unknown => 3,
    });
    match result {
        SolveResult::Sat => {
            for v in 0..s.num_vars() {
                let value = s.model_value(Var::from_index(v).positive());
                h.word(value.to_option().map_or(2, u64::from));
            }
        }
        SolveResult::Unsat => {
            h.word(s.conflict().len() as u64);
            for l in s.conflict() {
                h.word(u64::from(l.code()));
            }
        }
        SolveResult::Unknown => {}
    }
}

fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
    (0..n).map(|_| s.new_var()).collect()
}

/// Pigeonhole: `pigeons` pigeons into `pigeons - 1` holes.
fn pigeonhole(s: &mut Solver, pigeons: usize, tag: bool) -> Vec<Vec<Var>> {
    let holes = pigeons - 1;
    let p: Vec<Vec<Var>> = (0..pigeons).map(|_| vars(s, holes)).collect();
    for (i, row) in p.iter().enumerate() {
        let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
        s.add_clause_tagged(&clause, u8::from(tag && i % 2 == 0));
    }
    for h in 0..holes {
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                let clause = [row1[h].negative(), row2[h].negative()];
                s.add_clause_tagged(&clause, u8::from(tag && h % 2 == 1));
            }
        }
    }
    p
}

/// Random 3-SAT with `n` variables and `m` clauses from `seed`.
fn random_3sat(s: &mut Solver, n: usize, m: usize, seed: u64) -> Vec<Var> {
    let xs = vars(s, n);
    let mut rng = Rng::new(seed);
    for _ in 0..m {
        let clause: Vec<Lit> = (0..3).map(|_| xs[rng.index(n)].lit(rng.bool())).collect();
        s.add_clause(&clause);
    }
    xs
}

#[test]
fn pigeonhole_refutation_is_pinned() {
    let mut s = Solver::new();
    pigeonhole(&mut s, 8, false);
    let result = s.solve(&[]);
    assert_eq!(result, SolveResult::Unsat);
    assert!(s.conflict().is_empty());
    assert_eq!(
        Counters::from(s.stats()),
        Counters {
            solves: 1,
            decisions: 6991,
            propagations: 84235,
            conflicts: 5949,
            restarts: 29,
            learned_clauses: 5948,
            deleted_learnts: 0,
            peak_learnts: 5942,
        }
    );
}

#[test]
fn random_3sat_models_and_refutations_are_pinned() {
    // Near the 4.26 ratio threshold: a mix of Sat and Unsat answers.
    let mut pins = Vec::new();
    for seed in 0..6u64 {
        let mut s = Solver::new();
        random_3sat(&mut s, 120, 511, seed);
        let result = s.solve(&[]);
        let mut h = Fnv::new();
        answer_fingerprint(&s, result, &mut h);
        pins.push((seed, result, h.0, Counters::from(s.stats())));
    }
    let expected: Vec<(u64, SolveResult, u64, Counters)> = vec![
        (
            0,
            SolveResult::Sat,
            2669540955122259748,
            Counters {
                solves: 1,
                decisions: 403,
                propagations: 8490,
                conflicts: 325,
                restarts: 2,
                learned_clauses: 325,
                deleted_learnts: 0,
                peak_learnts: 325,
            },
        ),
        (
            1,
            SolveResult::Unsat,
            2746152651961504999,
            Counters {
                solves: 1,
                decisions: 935,
                propagations: 20796,
                conflicts: 777,
                restarts: 5,
                learned_clauses: 776,
                deleted_learnts: 0,
                peak_learnts: 770,
            },
        ),
        (
            2,
            SolveResult::Sat,
            12884739337119360133,
            Counters {
                solves: 1,
                decisions: 1335,
                propagations: 31347,
                conflicts: 1104,
                restarts: 6,
                learned_clauses: 1104,
                deleted_learnts: 0,
                peak_learnts: 1101,
            },
        ),
        (
            3,
            SolveResult::Unsat,
            2746152651961504999,
            Counters {
                solves: 1,
                decisions: 602,
                propagations: 13568,
                conflicts: 504,
                restarts: 4,
                learned_clauses: 503,
                deleted_learnts: 0,
                peak_learnts: 496,
            },
        ),
        (
            4,
            SolveResult::Unsat,
            2746152651961504999,
            Counters {
                solves: 1,
                decisions: 945,
                propagations: 20779,
                conflicts: 789,
                restarts: 5,
                learned_clauses: 788,
                deleted_learnts: 0,
                peak_learnts: 782,
            },
        ),
        (
            5,
            SolveResult::Unsat,
            2746152651961504999,
            Counters {
                solves: 1,
                decisions: 509,
                propagations: 10146,
                conflicts: 418,
                restarts: 3,
                learned_clauses: 417,
                deleted_learnts: 0,
                peak_learnts: 412,
            },
        ),
    ];
    assert_eq!(pins, expected);
}

#[test]
fn incremental_assumption_cores_are_pinned() {
    // An under-constrained random formula queried under a stream of
    // random assumption sets, learnt clauses carried across calls.
    let mut s = Solver::new();
    let xs = random_3sat(&mut s, 90, 330, 0xEC0);
    let mut rng = Rng::new(17);
    let mut h = Fnv::new();
    let mut answers = [0u32; 3];
    for _ in 0..60 {
        let k = rng.range(4, 24) as usize;
        let assumptions: Vec<Lit> = (0..k)
            .map(|_| xs[rng.index(xs.len())].lit(rng.bool()))
            .collect();
        let result = s.solve(&assumptions);
        answers[result as usize] += 1;
        answer_fingerprint(&s, result, &mut h);
        if result == SolveResult::Unsat {
            for l in s.conflict() {
                assert!(assumptions.contains(l), "core literal {l:?} not assumed");
            }
        }
    }
    assert_eq!(
        (answers, h.0, Counters::from(s.stats())),
        (
            [11, 49, 0],
            14127592965295833834,
            Counters {
                solves: 60,
                decisions: 677,
                propagations: 11511,
                conflicts: 471,
                restarts: 0,
                learned_clauses: 471,
                deleted_learnts: 0,
                peak_learnts: 471,
            }
        )
    );
}

#[test]
fn long_run_through_reduction_is_pinned() {
    // Pigeonhole 10 → 9 is far out of reach; a 35,000-conflict budget
    // stops it after the first reduction (30,000 conflicts) and its
    // compaction, well before clause activities reach 1e20.
    let mut s = Solver::new();
    let p = pigeonhole(&mut s, 10, false);
    s.set_budget(Some(35_000), None);
    assert_eq!(s.solve(&[]), SolveResult::Unknown);
    s.clear_budget();
    // The learnt database survives: a conflicting assumption pair
    // still yields its two-literal core.
    let result = s.solve(&[p[0][3].positive(), p[7][3].positive()]);
    let mut h = Fnv::new();
    answer_fingerprint(&s, result, &mut h);
    assert_eq!(result, SolveResult::Unsat);
    assert_eq!(
        (s.num_learnts(), h.0, Counters::from(s.stats())),
        (
            20000,
            14466004945295301927,
            Counters {
                solves: 2,
                decisions: 42103,
                propagations: 455131,
                conflicts: 35000,
                restarts: 124,
                learned_clauses: 35000,
                deleted_learnts: 15000,
                peak_learnts: 30000,
            }
        )
    );
}

#[test]
fn proof_mode_refutation_is_pinned() {
    let mut s = Solver::new();
    s.enable_proof();
    pigeonhole(&mut s, 6, true);
    assert_eq!(s.solve(&[]), SolveResult::Unsat);
    // The whole resolution DAG: every clause's literals in stored
    // order, its tag, and its recorded chain, plus the final conflict
    // and the level-zero reasons. Interpolants are a function of
    // exactly this.
    let mut h = Fnv::new();
    for i in 0..s.proof_arena_len() {
        let cref = ClauseRef::from_index(i);
        h.word(u64::from(s.clause_is_learnt(cref)));
        h.word(u64::from(s.clause_tag(cref)));
        for l in s.clause_lits(cref) {
            h.word(u64::from(l.code()));
        }
        let chain = s.proof_chain(cref).expect("proof mode");
        h.word(chain.head.map_or(u64::MAX, |c| c.index() as u64));
        for step in &chain.steps {
            h.word(step.pivot.index() as u64);
            h.word(step.clause.index() as u64);
        }
    }
    let confl = s.final_conflict_clause().expect("level-zero conflict");
    h.word(confl.index() as u64);
    for &l in s.trail_level0() {
        h.word(u64::from(l.code()));
        h.word(s.var_reason(l.var()).map_or(u64::MAX, |c| c.index() as u64));
    }
    assert_eq!(
        (s.proof_arena_len(), h.0, Counters::from(s.stats())),
        (
            228,
            4580160288938469030,
            Counters {
                solves: 1,
                decisions: 183,
                propagations: 1679,
                conflicts: 148,
                restarts: 1,
                learned_clauses: 147,
                deleted_learnts: 0,
                peak_learnts: 147,
            }
        )
    );
}
