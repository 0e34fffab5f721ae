//! Exact survivor counting (model counting) over the lowered plan.
//!
//! The guards of `beast-engine` and the linter passes of this module can
//! prove subtrees *dead*; this analysis answers the complementary question:
//! exactly **how many** survivors does a subtree hold? [`Counter`] walks the
//! plan in loop order like an enumeration engine would, but instead of
//! visiting survivors it computes subtree cardinalities bottom-up and reuses
//! them aggressively:
//!
//! * **Footprint memoization** — the survivor count below a loop level is a
//!   function of only the outer values that the subtree's defines and checks
//!   actually *read* (its dependency footprint, computed once from the
//!   plan's read/write sets). Sibling subtrees that do not depend on an
//!   outer binding therefore share one cache entry, and counting costs far
//!   less than enumeration whenever the nest is not fully entangled.
//! * **Flat tables** — the memo is one table per loop level: footprint keys
//!   stored flat, an open-addressing index probed by a hash computed from
//!   the slots in place (no key is built to look one up), and every entry a
//!   span of the level's one arena of `(value, cumulative count)` pairs. An
//!   empty entry costs only its key, and the whole memo drops in O(levels).
//! * **Solved levels** — a level whose body opens with a reject-unless-equal
//!   check affine in its slot ([`super::narrow`]) has at most one feasible
//!   value per entry. The counter solves for it with the engine's solver and
//!   its no-wrap obligation ([`super::narrow::solve_affine`]) instead of
//!   enumerating and storing the level; whatever the solver cannot prove
//!   falls through to enumeration, which reproduces any error.
//! * **Product-domain restriction** — before enumerating a level's realized
//!   domain, the straight-line run of defines and checks at that level is
//!   evaluated once over the interval × congruence product with the loop
//!   variable abstracted to its whole domain; a decided rejection proves
//!   the level empty without touching a single value. When the run contains
//!   `%`-family checks against concrete moduli, the same abstract pass runs
//!   per *residue class* of the domain (`congruence` answers the `% == 0`
//!   family exactly), and every value in a rejected class is skipped
//!   wholesale — the counting analog of the engine's congruence guards. Like
//!   the engine's guards the pass runs only where it can pay: the run holds
//!   a check, the level is not uniform, and the realized domain has at least
//!   `MIN_ABSTRACT_FANOUT` values.
//!
//! The per-level entries keep the feasible values with cumulative subtree
//! counts, which is exactly the table a count-weighted *direct sampler*
//! needs to draw uniform survivors with zero rejections in O(depth): see
//! [`Counter::descend`], [`Counter::entry`] and `beast_search`'s
//! `DirectSampler`.
//!
//! Counts saturate at `u128::MAX` (unreachable for any space that could
//! ever be enumerated); work is bounded by a [`CountBudget`] so the linter
//! can afford an exact-count pass without risking a runaway analysis.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

use crate::error::EvalError;
use crate::interval::{Interval, IvProg, IvScratch};
use crate::ir::{IntBinOp, IntExpr, LBody, LIter, LStep, LoweredPlan};
use crate::iterator::Realized;
use crate::pointprog::{PointProg, StepProgs};
use crate::value::Value;

use super::congruence::{cg_of_bind, cg_of_values, eval_product, Congruence};
use super::footprint::suffix_footprints;
use super::narrow::{narrowable_loops, solve_affine, Solved};

/// Work limits for a counting run. Exceeding either limit aborts the
/// analysis ([`Counter::total`] returns `None`) rather than degrading to an
/// approximate count — every number this module reports is exact.
#[derive(Debug, Clone, Copy)]
pub struct CountBudget {
    /// Maximum concrete values recursed into across the whole run.
    pub max_enumerated: u64,
    /// Maximum memo entries kept alive.
    pub max_memo_entries: usize,
}

impl Default for CountBudget {
    fn default() -> CountBudget {
        CountBudget { max_enumerated: 50_000_000, max_memo_entries: 500_000 }
    }
}

/// Per-loop-level counters of a counting run.
#[derive(Debug, Clone)]
pub struct LevelStats {
    /// Iterator name bound at this level.
    pub name: Arc<str>,
    /// Loop depth.
    pub depth: usize,
    /// Memo entries computed at this level (cache misses).
    pub entries: u64,
    /// Entries answered by solving the level's opening equality check:
    /// neither memo entries nor cache misses.
    pub solved: u64,
    /// Realized domain values summed over computed entries.
    pub domain_values: u64,
    /// Values whose subtree count is nonzero, summed over computed entries.
    pub feasible_values: u64,
    /// Values skipped wholesale because their residue class was rejected by
    /// the abstract pass.
    pub residue_skipped: u64,
}

/// Aggregate counters of a counting run.
#[derive(Debug, Clone, Default)]
pub struct CountStats {
    /// Subtree counts answered from the footprint cache.
    pub cache_hits: u64,
    /// Subtree counts computed by enumeration and stored (solved levels
    /// are neither hits nor misses: see [`LevelStats::solved`]).
    pub cache_misses: u64,
    /// Concrete values recursed into.
    pub enumerated: u64,
    /// Whole levels proven empty by the abstract pre-pass alone.
    pub domains_rejected: u64,
    /// Residue classes rejected by the abstract pre-pass.
    pub residue_classes_pruned: u64,
    /// Per-level counters, outermost first.
    pub levels: Vec<LevelStats>,
}

/// A handle on the feasible domain of one loop level under one prefix, as
/// [`Counter::descend`] finds it. [`Counter::entry`] reads it; it is only
/// meaningful to the counter that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef(Repr);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Repr {
    /// No feasible value.
    Empty,
    /// `len` pairs of level `level`'s arena, from `start`.
    Stored { level: u32, start: u32, len: u32 },
    /// A solved level's one feasible value and its (nonzero) subtree count.
    Solved { value: [i64; 1], count: [u128; 1] },
}

impl EntryRef {
    const EMPTY: EntryRef = EntryRef(Repr::Empty);
}

/// The feasible domain of one loop level under one dependency footprint:
/// every value with a nonzero subtree count, in domain order, paired with
/// the *cumulative* count up to and including that value. The last
/// cumulative value is the level's total; cumulative form makes a
/// count-weighted draw a binary search.
#[derive(Debug, Clone, Copy)]
pub struct LevelView<'a> {
    values: &'a [i64],
    cum: &'a [u128],
}

impl LevelView<'_> {
    /// Total survivor count below this level.
    pub fn total(&self) -> u128 {
        self.cum.last().copied().unwrap_or(0)
    }

    /// Number of feasible values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no value survives.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `i`-th feasible value (panics when `i ≥ len()`).
    pub fn value_at(&self, i: usize) -> i64 {
        self.values[i]
    }

    /// Position of a feasible value.
    pub fn position_of(&self, v: i64) -> Option<usize> {
        self.values.iter().position(|&x| x == v)
    }

    /// Count-weighted selection: map a survivor index `idx` in
    /// `[0, total)` to `(value, remainder)` where `remainder` indexes the
    /// survivors below that value — `None` when `idx ≥ total`. This is the
    /// weighted-descent step: a single uniform index over the whole subtree
    /// decomposes level by level into a unique survivor.
    pub fn pick(&self, idx: u128) -> Option<(i64, u128)> {
        let p = self.cum.partition_point(|&cum| cum <= idx);
        let value = *self.values.get(p)?;
        let prev = if p == 0 { 0 } else { self.cum[p - 1] };
        Some((value, idx - prev))
    }
}

/// One step of a count-weighted descent (see [`Counter::descend`]).
pub enum DescentStep {
    /// The walk reached a loop level: pick a feasible value from
    /// [`Counter::entry`]`(&entry)`, write it to `slot`, and continue from
    /// `step + 1`.
    Level {
        /// Index of the `Bind` step in `lp.steps`.
        step: usize,
        /// Slot the level binds.
        slot: u32,
        /// The level's feasible values with cumulative subtree counts.
        entry: EntryRef,
    },
    /// A survivor was reached; the slot array holds its values.
    Done,
    /// A check rejected the prefix (unreachable when every level picked a
    /// feasible value).
    Dead,
}

/// Maximum residue classes the abstract pre-pass will test per level.
const MAX_RESIDUE_CLASSES: u64 = 64;

/// Maximum modulus considered for residue-class filtering.
const MAX_MODULUS: i64 = 1 << 20;

/// Smallest realized domain the abstract pre-pass runs on — the counting
/// twin of the engine's guard fanout: below it, enumerating the few values
/// costs less than one abstract pass over the run.
const MIN_ABSTRACT_FANOUT: usize = 4;

/// Vacant bucket of a [`Table`] index.
const VACANT: u32 = u32::MAX;

/// Multiplicative (Fx-style) hash of a footprint key, read in place; a
/// bucket is its top bits.
#[inline]
fn key_hash(key: impl Iterator<Item = i64>) -> u64 {
    key.fold(0, |h: u64, v| (h.rotate_left(5) ^ v as u64).wrapping_mul(0x517c_c1b7_2722_0a95))
}

/// One loop level's memo. Entry `e`'s footprint key is
/// `keys[e·w .. (e+1)·w]` (`w` = the level's footprint width) and its
/// feasible values are the span `spans[e]` of the level's one `values` /
/// `cum` arena. `index` holds entry ids, open-addressed with linear probing
/// at load ≤ ½ over a power-of-two length.
///
/// Entries of one level are computed one at a time — computing one only
/// recurses into deeper levels — so the entry being filled always owns the
/// tail of the arena and of `keys`.
#[derive(Default)]
struct Table {
    keys: Vec<i64>,
    spans: Vec<(u32, u32)>,
    index: Vec<u32>,
    values: Vec<i64>,
    cum: Vec<u128>,
}

impl Table {
    #[inline]
    fn bucket(&self, h: u64) -> usize {
        (h >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// The stored entry whose key is `slots` read at `fp`, probed from `h`.
    #[inline]
    fn find(&self, fp: &[u32], slots: &[i64], h: u64) -> Option<u32> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let w = fp.len();
        let mut b = self.bucket(h);
        loop {
            let e = self.index[b];
            if e == VACANT {
                return None;
            }
            let key = &self.keys[e as usize * w..][..w];
            if key.iter().zip(fp).all(|(&k, &s)| k == slots[s as usize]) {
                return Some(e);
            }
            b = (b + 1) & mask;
        }
    }

    /// Arena and key lengths before an entry is begun.
    fn mark(&self) -> (usize, usize) {
        (self.keys.len(), self.values.len())
    }

    /// Drop an entry begun at `mark` that will not be stored.
    fn rollback(&mut self, (keys, values): (usize, usize)) {
        self.keys.truncate(keys);
        self.values.truncate(values);
        self.cum.truncate(values);
    }

    /// Store the entry begun at `mark` — its key and values already at the
    /// tails — under hash `h`. `None` when its id or span does not fit the
    /// `u32` index.
    fn insert(&mut self, w: usize, h: u64, (_, start): (usize, usize)) -> Option<u32> {
        let e = u32::try_from(self.spans.len()).ok().filter(|&e| e != VACANT)?;
        let span = (u32::try_from(start).ok()?, u32::try_from(self.values.len() - start).ok()?);
        if (self.spans.len() + 1) * 2 > self.index.len() {
            self.index = vec![VACANT; (self.index.len() * 2).max(16)];
            for old in 0..e {
                let h = key_hash(self.keys[old as usize * w..][..w].iter().copied());
                self.place(old, h);
            }
        }
        self.spans.push(span);
        self.place(e, h);
        Some(e)
    }

    fn place(&mut self, e: u32, h: u64) {
        let mask = self.index.len() - 1;
        let mut b = self.bucket(h);
        while self.index[b] != VACANT {
            b = (b + 1) & mask;
        }
        self.index[b] = e;
    }

    fn entry_ref(&self, level: usize, e: u32) -> EntryRef {
        let (start, len) = self.spans[e as usize];
        EntryRef(Repr::Stored { level: level as u32, start, len })
    }
}

/// A realized loop domain in integer form.
enum Domain<'a> {
    Range { start: i64, step: i64, len: usize },
    Ints(Cow<'a, [i64]>),
}

impl Domain<'_> {
    fn range(start: i64, stop: i64, step: i64) -> Self {
        Domain::Range { start, step, len: Realized::Range { start, stop, step }.len() }
    }

    fn len(&self) -> usize {
        match self {
            Domain::Range { len, .. } => *len,
            Domain::Ints(v) => v.len(),
        }
    }

    fn nth(&self, k: usize) -> i64 {
        match self {
            Domain::Range { start, step, .. } => start.wrapping_add((k as i64).wrapping_mul(*step)),
            Domain::Ints(v) => v[k],
        }
    }
}

/// Per loop level: what [`Counter::build`] learned about it, and its memo.
struct Level {
    /// The coefficient and offset of the equality check opening the level's
    /// body, when the level is solved rather than enumerated (survivor mode
    /// only).
    solve: Option<[PointProg; 2]>,
    /// The level's run (defines and checks up to the next loop) holds an
    /// expression check, which the abstract pre-pass could decide.
    run_has_check: bool,
    /// `%`-divisor expressions inside the run whose reads are all bound
    /// before the level — residue-filter candidates.
    rem_divisors: Vec<PointProg>,
    table: Table,
}

/// Memoized exact survivor counter over a lowered plan.
pub struct Counter<'a> {
    lp: &'a LoweredPlan,
    budget: CountBudget,
    /// Skip constraint checks entirely: counts the (dependent) Cartesian
    /// tuple space instead — the denominator of a survival rate.
    ignore_checks: bool,
    aborted: bool,
    /// Per step: sorted slots the suffix starting at this step reads from
    /// outside (the dependency footprint).
    footprints: Vec<Arc<[u32]>>,
    /// Per step: compiled interval program for expression bodies.
    progs: Vec<Option<IvProg>>,
    /// Per step: the concrete evaluator of defines, checks and bounds.
    points: StepProgs<'a>,
    /// Per `Bind` step: level ordinal (outermost first).
    level_of: Vec<usize>,
    levels: Vec<Level>,
    /// Memo entries stored across all levels.
    memo_len: usize,
    /// Reused environments of the abstract pre-pass.
    iv_env: Vec<Interval>,
    cg_env: Vec<Congruence>,
    scratch: IvScratch,
    stats: CountStats,
}

impl<'a> Counter<'a> {
    /// Counter with the default budget.
    pub fn new(lp: &'a LoweredPlan) -> Counter<'a> {
        Counter::with_budget(lp, CountBudget::default())
    }

    /// Counter with an explicit work budget.
    pub fn with_budget(lp: &'a LoweredPlan, budget: CountBudget) -> Counter<'a> {
        Counter::build(lp, budget, false)
    }

    /// Counter of the *unconstrained* tuple space (checks ignored): the
    /// denominator for survival rates. Dependent domains still realize under
    /// outer values, so this is the exact number of tuples an exhaustive
    /// sweep would test constraints on.
    pub fn tuples(lp: &'a LoweredPlan) -> Counter<'a> {
        Counter::tuples_with_budget(lp, CountBudget::default())
    }

    /// [`Counter::tuples`] with an explicit budget.
    pub fn tuples_with_budget(lp: &'a LoweredPlan, budget: CountBudget) -> Counter<'a> {
        Counter::build(lp, budget, true)
    }

    fn build(lp: &'a LoweredPlan, budget: CountBudget, ignore_checks: bool) -> Counter<'a> {
        let space = lp.plan.space();
        // In tuple mode checks never run, so their reads do not constrain
        // the subtree: leaving them out both widens cache sharing and
        // enables the uniform-level product shortcut. For the same reason
        // no level is solved there.
        let footprints = suffix_footprints(lp, !ignore_checks);
        let mut narrowings =
            if ignore_checks { Vec::new() } else { narrowable_loops(lp) }.into_iter();

        // Compiled abstract programs for every expression body.
        let progs: Vec<Option<IvProg>> = lp
            .steps
            .iter()
            .map(|s| match s {
                LStep::Define { body: LBody::Expr(e), .. }
                | LStep::Check { body: LBody::Expr(e), .. } => Some(IvProg::compile(e)),
                _ => None,
            })
            .collect();

        let mut level_of = vec![usize::MAX; lp.steps.len()];
        let mut levels = Vec::new();
        let mut level_stats = Vec::new();
        // Slots written strictly before the current step: residue-filter
        // divisors must be fully bound when their level opens.
        let mut written = vec![false; lp.n_slots as usize];
        for (i, s) in lp.steps.iter().enumerate() {
            if let LStep::Bind { depth, iter, .. } = s {
                level_of[i] = levels.len();
                level_stats.push(LevelStats {
                    name: space.iters()[*iter].name.clone(),
                    depth: *depth,
                    entries: 0,
                    solved: 0,
                    domain_values: 0,
                    feasible_values: 0,
                    residue_skipped: 0,
                });
                let mut run_has_check = false;
                let mut rem_divisors = Vec::new();
                for step in &lp.steps[i + 1..] {
                    match step {
                        LStep::Bind { .. } | LStep::Visit => break,
                        LStep::Check { body: LBody::Expr(e), .. } => {
                            run_has_check = true;
                            collect_rem_divisors(e, &mut |d| {
                                let mut ok = true;
                                d.for_each_slot(&mut |s| ok &= written[s as usize]);
                                if ok {
                                    rem_divisors.push(PointProg::compile(d));
                                }
                            });
                        }
                        _ => {}
                    }
                }
                levels.push(Level {
                    solve: narrowings.next().flatten().map(|n| {
                        [PointProg::compile(&n.check.coeff), PointProg::compile(&n.check.offset)]
                    }),
                    run_has_check,
                    rem_divisors,
                    table: Table::default(),
                });
            }
            if let LStep::Bind { slot, .. } | LStep::Define { slot, .. } = s {
                written[*slot as usize] = true;
            }
        }

        Counter {
            lp,
            budget,
            ignore_checks,
            aborted: false,
            footprints,
            progs,
            points: StepProgs::new(lp),
            level_of,
            levels,
            memo_len: 0,
            iv_env: Vec::new(),
            cg_env: Vec::new(),
            scratch: IvScratch::default(),
            stats: CountStats { levels: level_stats, ..CountStats::default() },
        }
    }

    /// Exact survivor count of the whole space; `None` when the work budget
    /// was exhausted before the count completed.
    pub fn total(&mut self) -> Result<Option<u128>, EvalError> {
        let mut slots = vec![0i64; self.lp.n_slots as usize];
        let c = self.count_from(0, &mut slots)?;
        Ok((!self.aborted).then_some(c))
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CountStats {
        &self.stats
    }

    /// True when a budget limit stopped the analysis.
    pub fn aborted(&self) -> bool {
        self.aborted
    }

    /// Walk the straight-line steps from `from`, evaluating defines and
    /// checks concretely against `slots`, until a loop level, a survivor or
    /// a rejection is reached. Returns `None` when the work budget aborts
    /// the underlying count (never happens after a successful
    /// [`Counter::total`], whose tables then answer every level: stored
    /// levels from the memo, solved levels by solving again).
    pub fn descend(
        &mut self,
        from: usize,
        slots: &mut [i64],
    ) -> Result<Option<DescentStep>, EvalError> {
        let lp = self.lp;
        let mut i = from;
        loop {
            match &lp.steps[i] {
                LStep::Visit => return Ok(Some(DescentStep::Done)),
                LStep::Define { slot, .. } => {
                    slots[*slot as usize] = self.points.define(i, slots)?;
                    i += 1;
                }
                LStep::Check { .. } => {
                    if !self.ignore_checks && self.points.rejects(i, slots)? {
                        return Ok(Some(DescentStep::Dead));
                    }
                    i += 1;
                }
                LStep::Bind { slot, .. } => {
                    let slot = *slot;
                    let entry = self.entry_at(i, slots)?;
                    if self.aborted {
                        return Ok(None);
                    }
                    return Ok(Some(DescentStep::Level { step: i, slot, entry }));
                }
            }
        }
    }

    /// The feasible values behind a handle from [`Counter::descend`].
    pub fn entry<'e>(&'e self, entry: &'e EntryRef) -> LevelView<'e> {
        match &entry.0 {
            Repr::Empty => LevelView { values: &[], cum: &[] },
            Repr::Stored { level, start, len } => {
                let table = &self.levels[*level as usize].table;
                let span = *start as usize..*start as usize + *len as usize;
                LevelView { values: &table.values[span.clone()], cum: &table.cum[span] }
            }
            Repr::Solved { value, count } => LevelView { values: value, cum: count },
        }
    }

    /// Count survivors of the subtree rooted at step `from` under the bound
    /// prefix in `slots`.
    fn count_from(&mut self, from: usize, slots: &mut [i64]) -> Result<u128, EvalError> {
        let lp = self.lp;
        let mut i = from;
        loop {
            if self.aborted {
                return Ok(0);
            }
            match &lp.steps[i] {
                LStep::Visit => return Ok(1),
                LStep::Define { slot, .. } => {
                    slots[*slot as usize] = self.points.define(i, slots)?;
                    i += 1;
                }
                LStep::Check { .. } => {
                    if !self.ignore_checks && self.points.rejects(i, slots)? {
                        return Ok(0);
                    }
                    i += 1;
                }
                LStep::Bind { .. } => {
                    let entry = self.entry_at(i, slots)?;
                    return Ok(self.entry(&entry).total());
                }
            }
        }
    }

    /// The feasible-domain entry of the loop level at step `i` under the
    /// bound prefix in `slots`: solved when the level opens with a solvable
    /// equality check, answered from the footprint cache when the footprint
    /// values match a previous subtree, computed (and stored) otherwise.
    fn entry_at(&mut self, i: usize, slots: &mut [i64]) -> Result<EntryRef, EvalError> {
        let level = self.level_of[i];
        let lp = self.lp;
        let LStep::Bind { slot, domain, .. } = &lp.steps[i] else {
            unreachable!("entry_at is only called on Bind steps")
        };
        let slot = *slot as usize;

        if let Some(solved) = self.solve_level(level, i, domain, slots) {
            self.stats.levels[level].solved += 1;
            let Some(x) = solved.hit else { return Ok(EntryRef::EMPTY) };
            if !self.charge_value() {
                return Ok(EntryRef::EMPTY);
            }
            slots[slot] = x;
            // Step `i + 1` is the solved check, which `x` passes.
            let count = self.count_from(i + 2, slots)?;
            return Ok(if count > 0 {
                EntryRef(Repr::Solved { value: [x], count: [count] })
            } else {
                EntryRef::EMPTY
            });
        }

        let fp = &self.footprints[i];
        let h = key_hash(fp.iter().map(|&s| slots[s as usize]));
        let table = &mut self.levels[level].table;
        if let Some(e) = table.find(fp, slots, h) {
            self.stats.cache_hits += 1;
            return Ok(table.entry_ref(level, e));
        }
        self.stats.cache_misses += 1;
        // The key is read before the level runs: a bind's bounds may read
        // its own, stale slot.
        let mark = table.mark();
        table.keys.extend(fp.iter().map(|&s| slots[s as usize]));

        let filled = self.fill(i, level, slot, domain, slots);
        let table = &mut self.levels[level].table;
        let (len, residue_skipped) = match filled {
            Ok(filled) if !self.aborted => filled,
            failed => {
                table.rollback(mark);
                failed?;
                return Ok(EntryRef::EMPTY);
            }
        };
        let stored = (self.memo_len < self.budget.max_memo_entries)
            .then(|| table.insert(self.footprints[i].len(), h, mark))
            .flatten();
        let Some(e) = stored else {
            table.rollback(mark);
            self.aborted = true;
            return Ok(EntryRef::EMPTY);
        };
        self.memo_len += 1;
        let lvl = &mut self.stats.levels[level];
        lvl.entries += 1;
        lvl.domain_values += len;
        lvl.feasible_values += u64::from(table.spans[e as usize].1);
        lvl.residue_skipped += residue_skipped;
        Ok(table.entry_ref(level, e))
    }

    /// Solve level `level`'s opening equality check over its realized range
    /// under `slots`. `None` — enumerate instead — when the level is not
    /// solvable, when the range bounds, `a` or `k` fail to evaluate (the
    /// enumerating path reproduces the error where it arises, or finds the
    /// range empty), or when [`solve_affine`] cannot decide the entry.
    fn solve_level(
        &self,
        level: usize,
        i: usize,
        domain: &LIter,
        slots: &[i64],
    ) -> Option<Solved> {
        let (Some([coeff, offset]), LIter::Range { .. }) = (&self.levels[level].solve, domain)
        else {
            return None;
        };
        let (start, stop, step) = self.points.bounds(i, slots).ok()?;
        let (a, k) = (coeff.eval(slots).ok()?, offset.eval(slots).ok()?);
        let len = Realized::Range { start, stop, step }.len() as u64;
        solve_affine(a, k, start, step, len)
    }

    /// Charge one concrete value to the budget; `false` once it is spent.
    fn charge_value(&mut self) -> bool {
        self.stats.enumerated += 1;
        if self.stats.enumerated > self.budget.max_enumerated {
            self.aborted = true;
        }
        !self.aborted
    }

    /// Enumerate the level bound at step `i` under `slots` into the tail of
    /// its arena: every feasible value with its cumulative subtree count.
    /// Returns the realized length and the values residue classes skipped.
    fn fill(
        &mut self,
        i: usize,
        level: usize,
        slot: usize,
        domain: &'a LIter,
        slots: &mut [i64],
    ) -> Result<(u64, u64), EvalError> {
        let dom = self.realize(i, domain, slots)?;
        let len = dom.len();
        if len == 0 {
            return Ok((0, 0));
        }
        // Uniform-level shortcut: when nothing after this bind reads the
        // bound slot (checks included — in tuple mode they are excluded
        // from footprints because they never run), every value has the
        // same subtree count: recurse once and replicate.
        if self.footprints[i + 1].binary_search(&(slot as u32)).is_err() {
            if self.charge_value() {
                slots[slot] = dom.nth(0);
                let c = self.count_from(i + 1, slots)?;
                if c > 0 {
                    let table = &mut self.levels[level].table;
                    let mut cum = 0u128;
                    for k in 0..len {
                        cum = cum.saturating_add(c);
                        table.values.push(dom.nth(k));
                        table.cum.push(cum);
                    }
                }
            }
            return Ok((len as u64, 0));
        }

        // Abstract pre-pass over the level's run, with the loop variable
        // abstracted to its whole realized domain: a decided rejection
        // proves the level empty outright; otherwise residue classes of the
        // domain are tested once each and values in rejected classes are
        // skipped without recursion.
        let mut rejected_classes = None;
        if !self.ignore_checks && self.levels[level].run_has_check && len >= MIN_ABSTRACT_FANOUT {
            let (iv, cg) = domain_product(&dom);
            if self.run_rejects(i, slots, slot, iv, cg) {
                self.stats.domains_rejected += 1;
                return Ok((len as u64, 0));
            }
            rejected_classes = self.rejected_residue_classes(i, level, slots, slot, &dom, iv);
        }
        let mut cum = 0u128;
        let mut residue_skipped = 0u64;
        for k in 0..len {
            let v = dom.nth(k);
            if let Some((m, rej)) = &rejected_classes {
                if rej.binary_search(&v.rem_euclid(*m)).is_ok() {
                    residue_skipped += 1;
                    continue;
                }
            }
            if !self.charge_value() {
                break;
            }
            slots[slot] = v;
            let c = self.count_from(i + 1, slots)?;
            if c > 0 {
                cum = cum.saturating_add(c);
                let table = &mut self.levels[level].table;
                table.values.push(v);
                table.cum.push(cum);
            }
        }
        Ok((len as u64, residue_skipped))
    }

    /// Realize the domain of the level bound at step `i` under `slots`.
    fn realize(&self, i: usize, domain: &'a LIter, slots: &[i64]) -> Result<Domain<'a>, EvalError> {
        Ok(match domain {
            LIter::Range { .. } => {
                let (start, stop, step) = self.points.bounds(i, slots)?;
                Domain::range(start, stop, step)
            }
            LIter::Values(v) => Domain::Ints(Cow::Borrowed(v)),
            LIter::Opaque { .. } => match self.points.realize(i, slots)? {
                Realized::Range { start, stop, step } => Domain::range(start, stop, step),
                Realized::Values(vs) => Domain::Ints(Cow::Owned(
                    vs.iter().map(Value::as_int).collect::<Result<_, _>>()?,
                )),
            },
        })
    }

    /// Evaluate the level's straight-line run (defines and checks up to the
    /// next loop or the visit) over the interval × congruence product, with
    /// the level's variable abstracted to `(x_iv, x_cg)` and every outer
    /// slot an exact point. Returns `true` when some check *provably*
    /// rejects every concretization — and no step before it could have
    /// raised a runtime error instead (`clean` tracking), so skipping the
    /// whole class is observationally identical to enumerating it.
    fn run_rejects(
        &mut self,
        bind_step: usize,
        slots: &[i64],
        bind_slot: usize,
        x_iv: Interval,
        x_cg: Congruence,
    ) -> bool {
        let (iv_env, cg_env, scratch) = (&mut self.iv_env, &mut self.cg_env, &mut self.scratch);
        iv_env.clear();
        iv_env.extend(slots.iter().map(|&v| Interval::point(v)));
        cg_env.clear();
        cg_env.extend(slots.iter().map(|&v| Congruence::point(v)));
        iv_env[bind_slot] = x_iv;
        cg_env[bind_slot] = x_cg;
        let mut run_clean = true;
        for (j, step) in self.lp.steps.iter().enumerate().skip(bind_step + 1) {
            match step {
                LStep::Bind { .. } | LStep::Visit => break,
                LStep::Define { slot, body, .. } => match body {
                    LBody::Expr(_) => {
                        let prog = self.progs[j].as_ref().expect("expr body compiled");
                        let (o, cg) = eval_product(prog, iv_env, cg_env, scratch);
                        run_clean &= o.clean;
                        iv_env[*slot as usize] = o.iv;
                        cg_env[*slot as usize] = cg;
                    }
                    LBody::Opaque => {
                        run_clean = false;
                        iv_env[*slot as usize] = Interval::TOP;
                        cg_env[*slot as usize] = Congruence::top();
                    }
                },
                LStep::Check { body, .. } => match body {
                    LBody::Expr(_) => {
                        let prog = self.progs[j].as_ref().expect("expr body compiled");
                        let (o, cg) = eval_product(prog, iv_env, cg_env, scratch);
                        if run_clean && o.clean && (!o.iv.contains(0) || cg.always_nonzero())
                        {
                            return true;
                        }
                        run_clean &= o.clean;
                    }
                    LBody::Opaque => run_clean = false,
                },
            }
        }
        false
    }

    /// Residue classes of the level's domain rejected by the abstract run:
    /// `Some((modulus, sorted rejected residues))` when filtering applies
    /// and rejects something, `None` otherwise.
    fn rejected_residue_classes(
        &mut self,
        bind_step: usize,
        level: usize,
        slots: &[i64],
        bind_slot: usize,
        dom: &Domain<'_>,
        dom_iv: Interval,
    ) -> Option<(i64, Vec<i64>)> {
        // Combine the concrete values of every candidate divisor into one
        // modulus (lcm, capped): testing classes mod the lcm decides every
        // individual `%` check at once.
        let mut modulus: i64 = 1;
        for d in &self.levels[level].rem_divisors {
            let Ok(v) = d.eval(slots) else { continue };
            let v = v.unsigned_abs().min(i64::MAX as u64) as i64;
            if !(2..=MAX_MODULUS).contains(&v) {
                continue;
            }
            let g = gcd(modulus, v);
            match (modulus / g).checked_mul(v) {
                Some(l) if l <= MAX_MODULUS => modulus = l,
                _ => {}
            }
        }
        if modulus < 2 {
            return None;
        }

        // Residue classes the domain actually visits.
        let classes: Vec<i64> = match dom {
            Domain::Range { start, step, len } => {
                let g = gcd(step.unsigned_abs().min(i64::MAX as u64) as i64, modulus);
                let period = (modulus / g) as u64;
                if period > MAX_RESIDUE_CLASSES || period as usize >= *len {
                    return None;
                }
                (0..period)
                    .map(|t| (start.rem_euclid(modulus) + t as i64 * g) % modulus)
                    .collect()
            }
            Domain::Ints(vs) => {
                let set: BTreeSet<i64> = vs.iter().map(|v| v.rem_euclid(modulus)).collect();
                if set.len() as u64 > MAX_RESIDUE_CLASSES || set.len() >= vs.len() {
                    return None;
                }
                set.into_iter().collect()
            }
        };

        let mut rejected = Vec::new();
        for c in classes {
            let cg = Congruence { m: modulus, r: c.rem_euclid(modulus) };
            if self.run_rejects(bind_step, slots, bind_slot, dom_iv, cg) {
                self.stats.residue_classes_pruned += 1;
                rejected.push(c);
            }
        }
        rejected.sort_unstable();
        (!rejected.is_empty()).then_some((modulus, rejected))
    }
}

/// The whole-domain abstraction of a non-empty realized domain: value hull
/// interval plus the exact progression congruence.
fn domain_product(dom: &Domain<'_>) -> (Interval, Congruence) {
    match dom {
        Domain::Range { start, step, len } => {
            let last = start.wrapping_add((*len as i64 - 1).wrapping_mul(*step));
            let cg = cg_of_bind(Congruence::point(*start), Congruence::point(*step));
            (Interval::new(*start, last), cg)
        }
        Domain::Ints(vs) => {
            let (lo, hi) =
                vs.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            (Interval::new(lo, hi), cg_of_values(vs))
        }
    }
}

/// Collect the divisor subexpressions of every `%` node.
fn collect_rem_divisors<'e>(e: &'e IntExpr, f: &mut impl FnMut(&'e IntExpr)) {
    match e {
        IntExpr::Const(_) | IntExpr::Slot(_) => {}
        IntExpr::Neg(a) | IntExpr::Not(a) | IntExpr::Abs(a) => collect_rem_divisors(a, f),
        IntExpr::Bin(op, a, b) => {
            if *op == IntBinOp::Rem {
                f(b);
            }
            collect_rem_divisors(a, f);
            collect_rem_divisors(b, f);
        }
        IntExpr::Call2(_, a, b) => {
            collect_rem_divisors(a, f);
            collect_rem_divisors(b, f);
        }
        IntExpr::Ternary(c, t, x) => {
            collect_rem_divisors(c, f);
            collect_rem_divisors(t, f);
            collect_rem_divisors(x, f);
        }
    }
}

/// Nonnegative gcd (total: `gcd(0, 0) == 0`).
fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintClass;
    use crate::expr::var;
    use crate::plan::{Plan, PlanOptions};
    use crate::pointprog::SlotView;
    use crate::space::Space;

    fn lower(space: &Arc<Space>) -> LoweredPlan {
        let plan = Plan::new(space, PlanOptions::default()).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    /// Brute-force survivor count by walking the plan recursively, every
    /// expression through the reference tree evaluator.
    fn brute_force(lp: &LoweredPlan) -> u128 {
        fn view<'v>(lp: &'v LoweredPlan, slots: &'v [i64]) -> SlotView<'v> {
            SlotView { names: &lp.slot_names, slots, consts: lp.plan.space().consts() }
        }
        fn walk(lp: &LoweredPlan, i: usize, slots: &mut Vec<i64>) -> u128 {
            let space = lp.plan.space();
            match &lp.steps[i] {
                LStep::Visit => 1,
                LStep::Define { slot, body, derived } => {
                    slots[*slot as usize] = match body {
                        LBody::Expr(e) => e.eval(slots).unwrap(),
                        LBody::Opaque => {
                            let v = space.deriveds()[*derived].kind.eval(&view(lp, slots));
                            v.unwrap().as_int().unwrap()
                        }
                    };
                    walk(lp, i + 1, slots)
                }
                LStep::Check { constraint, body } => {
                    let rejects = match body {
                        LBody::Expr(e) => e.eval(slots).unwrap() != 0,
                        LBody::Opaque => space.constraints()[*constraint]
                            .kind
                            .rejects(&view(lp, slots))
                            .unwrap(),
                    };
                    if rejects {
                        0
                    } else {
                        walk(lp, i + 1, slots)
                    }
                }
                LStep::Bind { slot, iter, domain, .. } => {
                    let realized = match domain {
                        LIter::Range { start, stop, step } => Realized::Range {
                            start: start.eval(slots).unwrap(),
                            stop: stop.eval(slots).unwrap(),
                            step: step.eval(slots).unwrap(),
                        },
                        LIter::Values(v) => {
                            Realized::Values(v.iter().map(|&x| Value::Int(x)).collect())
                        }
                        LIter::Opaque { .. } => {
                            space.realize_iter(*iter, &view(lp, slots)).unwrap()
                        }
                    };
                    let mut total = 0u128;
                    for k in 0..realized.len() {
                        slots[*slot as usize] =
                            realized.nth_value(k).unwrap().as_int().unwrap();
                        total += walk(lp, i + 1, slots);
                    }
                    total
                }
            }
        }
        let mut slots = vec![0i64; lp.n_slots as usize];
        walk(lp, 0, &mut slots)
    }

    #[test]
    fn counts_match_brute_force_on_a_dependent_space() {
        let space = Space::builder("count_mini")
            .constant("cap", 30)
            .range("a", 1, 9)
            .range_step("b", var("a"), 33, var("a"))
            .derived("ab", var("a") * var("b"))
            .constraint("over", ConstraintClass::Hard, var("ab").gt(var("cap")))
            .build()
            .unwrap();
        let lp = lower(&space);
        let mut counter = Counter::new(&lp);
        assert_eq!(counter.total().unwrap(), Some(brute_force(&lp)));
    }

    #[test]
    fn independent_dimensions_share_cache_entries() {
        let space = Space::builder("count_indep")
            .range("x", 0, 100)
            .range("y", 0, 100)
            .constraint("x_even", ConstraintClass::Hard, (var("x") % 2).ne(0))
            .constraint("y_mod3", ConstraintClass::Hard, (var("y") % 3).ne(0))
            .build()
            .unwrap();
        let lp = lower(&space);
        let mut counter = Counter::new(&lp);
        assert_eq!(counter.total().unwrap(), Some(50 * 34));
        // y's subtree reads nothing of x: one computed entry, 49 hits.
        assert!(counter.stats().cache_hits >= 49, "{:?}", counter.stats());
        assert!(
            counter.stats().enumerated < 100 * 100,
            "memoization failed to beat enumeration: {:?}",
            counter.stats()
        );
    }

    #[test]
    fn residue_classes_prune_stepped_divisibility() {
        // b steps by 1 but only multiples of 24 survive: the class pass
        // should reject the 23 dead residue classes wholesale.
        let space = Space::builder("count_residue")
            .range("b", 0, 2400)
            .constraint("mult", ConstraintClass::Hard, (var("b") % 24).ne(0))
            .build()
            .unwrap();
        let lp = lower(&space);
        let mut counter = Counter::new(&lp);
        assert_eq!(counter.total().unwrap(), Some(100));
        assert!(counter.stats().residue_classes_pruned >= 23, "{:?}", counter.stats());
        assert_eq!(counter.stats().enumerated, 100);
    }

    #[test]
    fn whole_domain_rejection_skips_enumeration() {
        let space = Space::builder("count_empty_level")
            .range("x", 1, 1000)
            .constraint("nope", ConstraintClass::Hard, var("x").ge(1))
            .build()
            .unwrap();
        let lp = lower(&space);
        let mut counter = Counter::new(&lp);
        assert_eq!(counter.total().unwrap(), Some(0));
        assert_eq!(counter.stats().enumerated, 0, "{:?}", counter.stats());
        assert_eq!(counter.stats().domains_rejected, 1);
    }

    #[test]
    fn tuples_mode_ignores_checks() {
        let space = Space::builder("count_tuples")
            .range("a", 0, 10)
            .range("b", 0, 7)
            .constraint("all", ConstraintClass::Hard, var("a").ge(0))
            .build()
            .unwrap();
        let lp = lower(&space);
        assert_eq!(Counter::tuples(&lp).total().unwrap(), Some(70));
        assert_eq!(Counter::new(&lp).total().unwrap(), Some(0));
    }

    #[test]
    fn budget_exhaustion_reports_none() {
        let space = Space::builder("count_budget")
            .range("a", 0, 1000)
            .range_step("b", var("a"), 100_000, crate::expr::lit(1))
            .build()
            .unwrap();
        let lp = lower(&space);
        let mut counter = Counter::with_budget(
            &lp,
            CountBudget { max_enumerated: 100, max_memo_entries: 8 },
        );
        assert_eq!(counter.total().unwrap(), None);
        assert!(counter.aborted());
    }

    #[test]
    fn level_view_pick_is_a_weighted_inverse() {
        let view = LevelView { values: &[10, 20, 40], cum: &[2, 3, 7] };
        assert_eq!(view.total(), 7);
        assert_eq!(view.len(), 3);
        let picks: Vec<(i64, u128)> = (0..7).map(|i| view.pick(i).unwrap()).collect();
        assert_eq!(
            picks,
            vec![(10, 0), (10, 1), (20, 0), (40, 0), (40, 1), (40, 2), (40, 3)]
        );
        assert_eq!(view.position_of(20), Some(1));
        assert_eq!(view.position_of(30), None);
        // Past the end, and on an empty level, `pick` answers `None`.
        assert_eq!(view.pick(7), None);
        assert_eq!(view.pick(u128::MAX), None);
        assert_eq!(LevelView { values: &[], cum: &[] }.pick(0), None);
    }

    #[test]
    fn opaque_iterators_are_counted_through_the_space() {
        let space = Space::builder("count_opaque")
            .range("a", 1, 5)
            .deferred_iter("b", &["a"], |env| {
                Ok(Realized::Range { start: 0, stop: env.require_int("a")?, step: 1 })
            })
            .build()
            .unwrap();
        let lp = lower(&space);
        let mut counter = Counter::new(&lp);
        // 1 + 2 + 3 + 4 dependent values.
        assert_eq!(counter.total().unwrap(), Some(10));
    }

    /// Keys from a list of `(a, b)` footprint values, read through
    /// footprint `[0, 1]` exactly as a level reads its slots.
    fn insert_key(t: &mut Table, key: [i64; 2], h: u64, value: i64) -> u32 {
        let mark = t.mark();
        t.keys.extend(key);
        t.values.push(value);
        t.cum.push(1);
        t.insert(2, h, mark).unwrap()
    }

    #[test]
    fn flat_table_resolves_colliding_keys() {
        // Every key under one hash: each lookup must walk the probe chain
        // and stop at its own key, and a key never inserted must miss.
        let mut t = Table::default();
        let keys = [[1, 2], [2, 1], [0, 0], [-1, i64::MAX], [i64::MIN, 7]];
        for (n, key) in keys.iter().enumerate() {
            assert_eq!(insert_key(&mut t, *key, 0xDEAD_BEEF, n as i64), n as u32);
        }
        assert_eq!(t.index.len(), 16, "five entries fit the first index");
        for (n, key) in keys.iter().enumerate() {
            assert_eq!(t.find(&[0, 1], key, 0xDEAD_BEEF), Some(n as u32), "{key:?}");
            assert_eq!(t.values[t.spans[n].0 as usize], n as i64);
        }
        assert_eq!(t.find(&[0, 1], &[2, 2], 0xDEAD_BEEF), None);
        // A zero-width footprint has one key, the empty one.
        let mut t = Table::default();
        let mark = t.mark();
        assert_eq!(t.insert(0, key_hash(std::iter::empty()), mark), Some(0));
        assert_eq!(t.find(&[], &[], key_hash(std::iter::empty())), Some(0));
    }

    #[test]
    fn flat_table_grows_and_keeps_every_entry() {
        let mut t = Table::default();
        let key = |n: i64| [n % 97 - 48, n / 97];
        for n in 0..10_000i64 {
            let k = key(n);
            assert_eq!(t.find(&[0, 1], &k, key_hash(k.into_iter())), None);
            insert_key(&mut t, k, key_hash(k.into_iter()), n);
        }
        assert!(t.index.len().is_power_of_two() && t.index.len() >= 2 * 10_000);
        for n in 0..10_000i64 {
            let k = key(n);
            let e = t.find(&[0, 1], &k, key_hash(k.into_iter())).expect("stored");
            assert_eq!(t.values[t.spans[e as usize].0 as usize], n);
        }
        // A rolled-back entry leaves no trace in the arena or the keys.
        let mark = t.mark();
        t.keys.extend([1, 2]);
        t.values.push(5);
        t.cum.push(5);
        t.rollback(mark);
        assert_eq!((t.keys.len(), t.values.len(), t.cum.len()), (20_000, 10_000, 10_000));
    }

    /// `x` opens with `o·x != t`: solved per entry, never stored, and the
    /// count equals enumeration's.
    #[test]
    fn solved_levels_are_counted_not_stored() {
        let space = Space::builder("count_solved")
            .range("o", 1, 7)
            .derived("t", var("o") * 12)
            .range("x", 0, 40)
            .constraint("ox", ConstraintClass::Hard, (var("o") * var("x")).ne(var("t")))
            .range("y", 0, var("x"))
            .constraint("odd", ConstraintClass::Soft, (var("y") % 2).eq(0))
            .build()
            .unwrap();
        let lp = lower(&space);
        let mut counter = Counter::new(&lp);
        assert_eq!(counter.total().unwrap(), Some(brute_force(&lp)));
        let x = &counter.stats().levels[1];
        assert_eq!((&*x.name, x.solved, x.entries), ("x", 6, 0), "{:?}", counter.stats());
        // Tuple mode never solves.
        let mut tuples = Counter::tuples(&lp);
        tuples.total().unwrap();
        assert_eq!(tuples.stats().levels[1].solved, 0);
    }

    /// A coefficient that divides by zero at run time (`o = 2`) cannot be
    /// solved: the level is enumerated and fails exactly where, and as,
    /// the same check spelled past the recogniser (`|| 0`) fails.
    #[test]
    fn a_faulting_coefficient_fails_like_enumeration() {
        let lowered = |spelled: bool| {
            let first = (var("x") * (crate::expr::lit(12) / (var("o") - 2))).ne(var("t"));
            lower(
                &Space::builder("count_fault")
                    .range("o", 0, 5)
                    .derived("t", var("o") * 3)
                    .range("x", 1, crate::expr::lit(20) + var("o"))
                    .constraint(
                        "first",
                        ConstraintClass::Correctness,
                        if spelled { first.or(crate::expr::lit(0)) } else { first },
                    )
                    .range("y", 0, 6)
                    .build()
                    .unwrap(),
            )
        };
        let (narrowed, spelled) = (lowered(false), lowered(true));
        let mut counter = Counter::new(&narrowed);
        let err = counter.total().unwrap_err();
        assert_eq!(Counter::new(&spelled).total().unwrap_err(), err);
        let x = counter.stats().levels.iter().find(|l| &*l.name == "x").unwrap();
        assert!(x.solved > 0, "o = 0 and 1 solve before o = 2 fails: {x:?}");
    }
}
