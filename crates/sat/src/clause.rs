//! Clause storage for the CDCL solver.
//!
//! Every clause lives inline in one flat arena: a four-word header
//! (length; learnt/deleted flags with the LBD; activity bits; id)
//! followed by its literals. The solver's hot structures — watchers and
//! the per-variable reasons — name a clause by its arena *offset*, so a
//! watcher visit reads one contiguous block instead of chasing a
//! pointer to a separately allocated literal vector.
//!
//! The public [`ClauseRef`] is a stable dense *id*, kept in the header
//! and mapped to the current offset by an id table. Ids of freed
//! clauses are recycled LIFO, so id order (which breaks ties in the
//! learnt-clause reduction) is independent of where clauses sit in the
//! arena. Freed clauses leave holes until [`ClauseDb::compact`] slides
//! the live ones down, keeping their order, and rewrites the offsets
//! held by watchers and reasons. Proof mode never frees a clause, so it
//! never compacts and ids `0..arena_len()` enumerate every clause ever
//! allocated.

use crate::types::Lit;

/// Stable handle to a clause in the solver's clause arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    /// Creates a reference from a dense arena index (for proof
    /// traversal; only meaningful for indices below the arena length).
    #[inline]
    pub fn from_index(index: usize) -> ClauseRef {
        ClauseRef(index as u32)
    }

    /// Returns the dense arena index of the clause.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel offset: "no clause" (a decision or level-zero fact without
/// a recorded reason).
pub(crate) const NO_CLAUSE: u32 = u32::MAX;

/// Watcher tag bit on the offset: the watched clause is binary, and the
/// watcher's blocker is the literal it implies.
pub(crate) const BINARY: u32 = 1 << 31;

const HEADER: usize = 4;
const LEN: usize = 0;
const FLAGS: usize = 1;
const ACTIVITY: usize = 2;
const ID: usize = 3;

const LEARNT: u32 = 1;
const DELETED: u32 = 2;
const LBD_SHIFT: u32 = 2;

/// An entry of a watch list: the watched clause's offset (tagged with
/// [`BINARY`] for binary clauses outside proof mode) and a blocker
/// literal whose truth satisfies the clause without visiting it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Watcher {
    pub cref: u32,
    pub blocker: Lit,
}

impl Watcher {
    /// The watched clause's arena offset, without the tag bit.
    #[inline]
    pub fn offset(self) -> u32 {
        self.cref & !BINARY
    }
}

/// The flat clause arena with its id table.
///
/// Header words are stored as raw [`Lit`] codes so the literals of a
/// clause can be handed out as a plain `&[Lit]` slice.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClauseDb {
    arena: Vec<Lit>,
    /// `offsets[id]`: arena offset of clause `id`, [`NO_CLAUSE`] once
    /// freed.
    offsets: Vec<u32>,
    free_ids: Vec<u32>,
    /// Arena words held by freed clauses.
    wasted: usize,
    pub num_learnt: usize,
    pub learnt_literals: u64,
}

impl ClauseDb {
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Stores a clause and returns its offset.
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> u32 {
        debug_assert!(
            !lits.is_empty(),
            "empty clauses are represented by the ok flag"
        );
        if learnt {
            self.num_learnt += 1;
            self.learnt_literals += lits.len() as u64;
        }
        let off = self.arena.len();
        assert!(
            off + HEADER + lits.len() < BINARY as usize,
            "clause arena exceeds 2^31 words"
        );
        let id = match self.free_ids.pop() {
            Some(id) => {
                self.offsets[id as usize] = off as u32;
                id
            }
            None => {
                self.offsets.push(off as u32);
                (self.offsets.len() - 1) as u32
            }
        };
        self.arena.extend_from_slice(&[
            Lit(lits.len() as u32),
            Lit((lbd << LBD_SHIFT) | if learnt { LEARNT } else { 0 }),
            Lit(0f32.to_bits()),
            Lit(id),
        ]);
        self.arena.extend_from_slice(lits);
        off as u32
    }

    /// Frees the clause at `off`; its id becomes the next one handed
    /// out and its words are reclaimed by the next compaction.
    pub fn free(&mut self, off: u32) {
        let o = off as usize;
        debug_assert!(self.arena[o + FLAGS].0 & DELETED == 0);
        let len = self.len_of(off);
        if self.is_learnt(off) {
            self.num_learnt -= 1;
            self.learnt_literals -= len as u64;
        }
        self.arena[o + FLAGS].0 |= DELETED;
        self.wasted += HEADER + len;
        let id = self.arena[o + ID].0;
        self.offsets[id as usize] = NO_CLAUSE;
        self.free_ids.push(id);
    }

    /// The id of the clause at `off`.
    #[inline]
    pub fn id(&self, off: u32) -> ClauseRef {
        ClauseRef(self.arena[off as usize + ID].0)
    }

    /// The current offset of a live clause.
    #[inline]
    pub fn offset(&self, cref: ClauseRef) -> u32 {
        let off = self.offsets[cref.index()];
        assert!(off != NO_CLAUSE, "{cref:?} was freed");
        off
    }

    #[inline]
    pub fn len_of(&self, off: u32) -> usize {
        self.arena[off as usize + LEN].0 as usize
    }

    /// The `k`-th literal of the clause at `off`.
    #[inline]
    pub fn lit(&self, off: u32, k: usize) -> Lit {
        self.arena[off as usize + HEADER + k]
    }

    #[inline]
    pub fn lits(&self, off: u32) -> &[Lit] {
        let o = off as usize + HEADER;
        &self.arena[o..o + self.len_of(off)]
    }

    #[inline]
    pub fn lits_mut(&mut self, off: u32) -> &mut [Lit] {
        let o = off as usize + HEADER;
        let len = self.len_of(off);
        &mut self.arena[o..o + len]
    }

    #[inline]
    pub fn is_learnt(&self, off: u32) -> bool {
        self.arena[off as usize + FLAGS].0 & LEARNT != 0
    }

    /// Literal block distance at learning time (Glucose-style quality).
    #[inline]
    pub fn lbd(&self, off: u32) -> u32 {
        self.arena[off as usize + FLAGS].0 >> LBD_SHIFT
    }

    #[inline]
    pub fn activity(&self, off: u32) -> f32 {
        f32::from_bits(self.arena[off as usize + ACTIVITY].0)
    }

    #[inline]
    pub fn set_activity(&mut self, off: u32, activity: f32) {
        self.arena[off as usize + ACTIVITY] = Lit(activity.to_bits());
    }

    /// Offsets of all live learnt clauses, in id order.
    pub fn learnt_refs(&self) -> Vec<u32> {
        self.offsets
            .iter()
            .copied()
            .filter(|&off| off != NO_CLAUSE && self.is_learnt(off))
            .collect()
    }

    /// Number of live clauses (learnt and original).
    pub fn len(&self) -> usize {
        self.offsets.len() - self.free_ids.len()
    }

    /// Number of ids ever handed out, freed ones included (equals the
    /// live count in proof mode, which never frees).
    pub fn arena_len(&self) -> usize {
        self.offsets.len()
    }

    /// `true` once freed clauses hold a fifth of the arena (MiniSat's
    /// garbage fraction).
    pub fn should_compact(&self) -> bool {
        self.wasted * 5 > self.arena.len()
    }

    /// Slides every live clause down over the freed ones, keeping
    /// arena order, and rewrites the offsets in `watches` and
    /// `reasons` (which must name live clauses or be [`NO_CLAUSE`]).
    /// Ids are unchanged.
    pub fn compact(&mut self, watches: &mut [Vec<Watcher>], reasons: &mut [u32]) {
        // Pass 1: assign new offsets through the id table; the arena is
        // still untouched, so old offsets still find their ids.
        let mut old = 0;
        let mut new = 0;
        while old < self.arena.len() {
            let size = HEADER + self.arena[old + LEN].0 as usize;
            if self.arena[old + FLAGS].0 & DELETED == 0 {
                self.offsets[self.arena[old + ID].0 as usize] = new as u32;
                new += size;
            }
            old += size;
        }
        let relocate = |off: u32| self.offsets[self.arena[off as usize + ID].0 as usize];
        for list in watches.iter_mut() {
            for w in list.iter_mut() {
                w.cref = (w.cref & BINARY) | relocate(w.offset());
            }
        }
        for r in reasons.iter_mut().filter(|r| **r != NO_CLAUSE) {
            *r = relocate(*r);
        }
        // Pass 2: move. A clause only moves down and ends before the
        // next clause's old header, so every header is read before it
        // can be overwritten.
        let mut old = 0;
        let mut new = 0;
        while old < self.arena.len() {
            let size = HEADER + self.arena[old + LEN].0 as usize;
            if self.arena[old + FLAGS].0 & DELETED == 0 {
                self.arena.copy_within(old..old + size, new);
                new += size;
            }
            old += size;
        }
        self.arena.truncate(new);
        self.wasted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::pigeonhole;
    use crate::types::Var;
    use crate::{SolveResult, Solver};

    fn lits(ids: &[i32]) -> Vec<Lit> {
        ids.iter()
            .map(|&i| Var::from_index(i.unsigned_abs() as usize).lit(i < 0))
            .collect()
    }

    #[test]
    fn alloc_and_read_back_header_and_literals() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, -2, 3]), false, 0);
        let b = db.alloc(&lits(&[4, 5]), true, 7);
        assert_eq!(db.lits(a), lits(&[1, -2, 3]));
        assert_eq!(db.lits(b), lits(&[4, 5]));
        assert!(!db.is_learnt(a) && db.is_learnt(b));
        assert_eq!(db.lbd(b), 7);
        assert_eq!((db.id(a), db.id(b)), (ClauseRef(0), ClauseRef(1)));
        assert_eq!(db.offset(ClauseRef(1)), b);
        db.set_activity(b, 2.5);
        assert_eq!(db.activity(b), 2.5);
        assert_eq!(db.activity(a), 0.0);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn ids_are_recycled_lifo() {
        let mut db = ClauseDb::new();
        let offs: Vec<u32> = (0..4)
            .map(|i| db.alloc(&lits(&[i + 1, i + 2]), true, 2))
            .collect();
        db.free(offs[1]);
        db.free(offs[3]);
        assert_eq!(db.len(), 2);
        assert_eq!(db.num_learnt, 2);
        // The most recently freed id comes back first, at a fresh offset.
        let c = db.alloc(&lits(&[7, 8]), false, 0);
        let d = db.alloc(&lits(&[8, 9]), false, 0);
        assert_eq!((db.id(c), db.id(d)), (ClauseRef(3), ClauseRef(1)));
        assert!(c > offs[3] && d > c);
        assert_eq!(db.lits(db.offset(ClauseRef(1))), lits(&[8, 9]));
        let e = db.alloc(&lits(&[9, 10]), false, 0);
        assert_eq!(db.id(e), ClauseRef(4));
        assert_eq!(db.arena_len(), 5);
    }

    #[test]
    fn learnt_refs_come_back_in_id_order() {
        let mut db = ClauseDb::new();
        let _orig = db.alloc(&lits(&[1, 2]), false, 0);
        let l1 = db.alloc(&lits(&[2, 3]), true, 2);
        let l2 = db.alloc(&lits(&[3, 4]), true, 2);
        let l3 = db.alloc(&lits(&[4, 5]), true, 2);
        db.free(l1);
        // Recycles id 1, but lands at the end of the arena.
        let l4 = db.alloc(&lits(&[5, 6]), true, 2);
        assert!(l4 > l3);
        assert_eq!(db.learnt_refs(), vec![l4, l2, l3]);
        let ids: Vec<u32> = db.learnt_refs().iter().map(|&o| db.id(o).0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn learnt_literal_accounting() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2, 3]), true, 3);
        let _b = db.alloc(&lits(&[4, 5]), true, 2);
        assert_eq!(db.learnt_literals, 5);
        db.free(a);
        assert_eq!(db.learnt_literals, 2);
    }

    #[test]
    fn compaction_keeps_order_and_remaps_watchers_and_reasons() {
        let mut db = ClauseDb::new();
        let clauses: Vec<Vec<Lit>> = (0..6)
            .map(|i| lits(&[i + 1, -(i + 2), i + 3][..2 + (i as usize % 2)]))
            .collect();
        let offs: Vec<u32> = clauses.iter().map(|c| db.alloc(c, true, 3)).collect();
        db.set_activity(offs[4], 9.0);
        let mut watches = vec![
            vec![
                Watcher {
                    cref: offs[5],
                    blocker: clauses[5][0],
                },
                Watcher {
                    cref: offs[0] | BINARY,
                    blocker: clauses[0][1],
                },
            ],
            vec![Watcher {
                cref: offs[4],
                blocker: clauses[4][1],
            }],
        ];
        let mut reasons = vec![NO_CLAUSE, offs[2], offs[5], NO_CLAUSE];
        db.free(offs[1]);
        db.free(offs[3]);
        assert!(db.should_compact());
        db.compact(&mut watches, &mut reasons);
        assert!(!db.should_compact());
        // Survivors keep their ids, their contents and their order.
        let live = [0usize, 2, 4, 5];
        let mut prev = None;
        for &i in &live {
            let off = db.offset(ClauseRef(i as u32));
            assert_eq!(db.lits(off), clauses[i]);
            assert_eq!(db.id(off), ClauseRef(i as u32));
            assert!(prev < Some(off));
            prev = Some(off);
        }
        assert_eq!(db.activity(db.offset(ClauseRef(4))), 9.0);
        assert_eq!(db.learnt_literals, 2 + 2 + 2 + 3);
        // The arena holds nothing but the survivors.
        assert_eq!(
            db.arena.len(),
            live.iter().map(|&i| HEADER + clauses[i].len()).sum()
        );
        // Every watcher and reason names the same clause as before,
        // and the binary tag survives.
        let at = |id: u32| db.offset(ClauseRef(id));
        assert_eq!(watches[0][0].cref, at(5));
        assert_eq!(watches[0][1].cref, at(0) | BINARY);
        assert_eq!(watches[1][0].cref, at(4));
        assert_eq!(reasons, vec![NO_CLAUSE, at(2), at(5), NO_CLAUSE]);
        // Freed ids are still recycled after a compaction.
        let f = db.alloc(&lits(&[9, 10]), false, 0);
        assert_eq!(db.id(f), ClauseRef(3));
    }

    #[test]
    fn proof_mode_never_frees_or_compacts() {
        let mut s = Solver::new();
        s.enable_proof();
        pigeonhole(&mut s, 6);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let learnts = s.stats().learned_clauses as usize;
        assert!(learnts > 100);
        let db = s.clause_db();
        assert_eq!(db.wasted, 0);
        assert!(db.free_ids.is_empty());
        assert_eq!(db.len(), db.arena_len());
        assert_eq!(db.num_learnt, learnts);
        // Ids are allocation order, and offsets grow with them.
        for id in 1..db.arena_len() {
            assert!(db.offsets[id - 1] < db.offsets[id]);
        }
    }

    #[test]
    fn public_queries_answer_in_ids() {
        // Level-zero facts propagated through a long and a binary
        // clause, read back before and after a forced compaction.
        let mut s = Solver::new();
        let v: Vec<Var> = (0..5).map(|_| s.new_var()).collect();
        // Satisfied at level zero through v0, so it is no one's reason.
        let (_, filler) =
            s.add_clause_tagged(&[v[0].positive(), v[3].positive(), v[4].positive()], 0);
        let (_, long) =
            s.add_clause_tagged(&[v[0].negative(), v[1].negative(), v[2].positive()], 0);
        let (_, bin) = s.add_clause_tagged(&[v[2].negative(), v[3].negative()], 0);
        s.add_clause(&[v[0].positive()]);
        s.add_clause(&[v[1].positive()]);
        assert!(s.value(v[3].negative()).is_true());
        for compacted in [false, true] {
            assert_eq!(s.var_reason(v[2]), long);
            assert_eq!(s.var_reason(v[3]), bin);
            assert_eq!(s.var_reason(v[0]), None);
            let long_lits = s.clause_lits(long.unwrap());
            assert_eq!(long_lits[0], v[2].positive(), "implied literal first");
            let mut bin_lits = s.clause_lits(bin.unwrap()).to_vec();
            bin_lits.sort();
            assert_eq!(bin_lits, vec![v[2].negative(), v[3].negative()]);
            if !compacted {
                s.free_and_compact(filler.unwrap());
                assert_eq!(s.clause_db().arena_len(), 3);
                assert_eq!(s.clause_db().len(), 2);
            }
        }
        // In proof mode, units are clauses too: the conflicting unit is
        // the final conflict, the first one the reason for its variable.
        let mut p = Solver::new();
        p.enable_proof();
        let a = p.new_var();
        let (_, c0) = p.add_clause_tagged(&[a.positive()], 1);
        let (ok, c1) = p.add_clause_tagged(&[a.negative()], 2);
        assert!(!ok);
        assert_eq!(p.final_conflict_clause(), c1);
        assert_eq!(p.var_reason(a), c0);
        assert_eq!(p.clause_lits(c1.unwrap()), &[a.negative()]);
    }
}
