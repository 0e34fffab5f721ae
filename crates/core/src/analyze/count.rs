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
//! * **Unique-key levels** — where no two visits can present the same key
//!   (`footprint::unique_key_levels`: the outermost level, and any
//!   level whose key determines its nearest non-free ancestor's key and
//!   value), a lookup could never hit. Such a level keeps no key, hash or
//!   index slot: its entries are plain arena spans that only links reach.
//!   Each still counts as a miss and against the memo budget.
//! * **Solved levels** — a level whose body opens with a reject-unless-equal
//!   check affine in its slot (its [`LevelPlan::narrowing`]) has at most one
//!   feasible value per entry. The counter solves for it with the engine's
//!   solve and its no-wrap obligation ([`super::narrow::Solve`]) instead of
//!   enumerating and storing the level; whatever the solver cannot prove
//!   falls through to enumeration, which reproduces any error. When the
//!   level's parent binds it as its very next step and the coefficient is
//!   affine in the parent's slot ([`LevelPlan::child_solve`]), the parent
//!   evaluates the child's bounds, offset and coefficient parts once per
//!   entry and solves the child from its own value loop: a value with no
//!   hit is charged and counted as the child's solve would count it,
//!   without descending.
//! * **Free levels** — a uniform level (nothing below reads its slot) whose
//!   run is empty (the next step binds or visits) and whose domain is a
//!   range or a static list ([`LevelPlan::free`]) has no memo: no key, no
//!   hash, no index slot. Its entry is the realized domain, one per-value
//!   count and the child's link, recomputed on every visit; the child's
//!   memo already provides the sharing, because the child's key is a
//!   subset of the free level's. Survivor mode only: a tuple counter, which
//!   never draws, has no free level.
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
//!   `MIN_ABSTRACT_FANOUT` values. Each level run is one abstract program
//!   ([`AbsProgs`]) compiled from the plan's abstract step program
//!   ([`AbsSteps`]) when the counter is built: only the steps of the plan's
//!   congruence slice ([`AbsSteps::slice`]) evaluate over the product; the
//!   rest — a run of comparisons, typically — runs interval-only.
//!
//! The per-level entries keep the feasible values with cumulative subtree
//! counts, and every feasible value links to the entry its subtree opens
//! with (an [`EntryRef`]; the leaf below the innermost level). Once
//! [`Counter::total`] returns, the tables are a linked structure from
//! [`Counter::root`]: a count-weighted *direct sampler* draws uniform
//! survivors with zero rejections in O(depth) by picking a value, writing
//! its slot and following its link, without evaluating, hashing or solving
//! anything — see [`Counter::entry`], [`Counter::fill_derived`] and
//! `beast_search`'s `DirectSampler`.
//!
//! Counts saturate at `u128::MAX` (unreachable for any space that could
//! ever be enumerated); work is bounded by a [`CountBudget`] so the linter
//! can afford an exact-count pass without risking a runaway analysis.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

use crate::error::EvalError;
use crate::interval::Interval;
use crate::ir::{IntBinOp, IntExpr, LBody, LIter, LStep, LoweredPlan};
use crate::iterator::{range_len, Realized};
use crate::pointprog::{RootProg, RunExit, RunProgs, RunSpec, StepProgs};
use crate::value::Value;

use super::absprog::{AbsFile, AbsProgs, Verdict, Window};
use super::congruence::Congruence;
use super::footprint::{suffix_footprints, unique_key_levels};
use super::levels::{levels, LevelTable};
#[cfg(doc)]
use super::levels::LevelPlan;
use super::narrow::{ChildEntry, ChildProgs, Solve, Solved};
use super::steps::{range_box, values_box, AbsSteps};

/// Work limits for a counting run. Exceeding either limit aborts the
/// analysis ([`Counter::total`] returns `None`) rather than degrading to an
/// approximate count — every number this module reports is exact.
#[derive(Debug, Clone, Copy)]
pub struct CountBudget {
    /// Maximum concrete values recursed into across the whole run.
    pub max_enumerated: u64,
    /// Maximum table entries kept alive: memo entries, a unique-key level's
    /// entries and a free level's entries.
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
    /// The level keeps a memo: its entries are looked up by footprint key.
    /// Free and unique-key levels keep none.
    pub memo: bool,
    /// Entries answered from this level's memo (cache hits).
    pub hits: u64,
    /// Entries computed and stored at this level (cache misses), memoised
    /// or, on a unique-key level, reached only by links.
    pub entries: u64,
    /// Entries of a free level, computed in closed form on every visit:
    /// neither memo entries nor cache misses.
    pub free: u64,
    /// Entries answered by solving the level's opening equality check:
    /// neither memo entries nor cache misses.
    pub solved: u64,
    /// Realized domain values summed over computed (memo and free) entries.
    pub domain_values: u64,
    /// Values whose subtree count is nonzero, summed over computed (memo
    /// and free) entries.
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
    /// Subtree counts computed by enumeration and stored, memoised or not
    /// (solved and free levels are neither hits nor misses: see
    /// [`LevelStats::solved`] and [`LevelStats::free`]).
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

/// A link to the feasible domain of one loop level under one prefix, or to
/// the leaf — the visit — below the innermost level. Every stored feasible
/// value links to the entry its subtree opens with, and [`Counter::root`]
/// to the outermost one; [`Counter::entry`] reads it. It is only
/// meaningful to the counter that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef(Repr);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Repr {
    /// No feasible value.
    Empty,
    /// The visit: the prefix is one survivor.
    Leaf,
    /// `len` values of level `level`'s arena, from `start`.
    Stored { level: u32, start: u32, len: u32 },
    /// Entry `index` of free level `level`.
    Free { level: u32, index: u32 },
}

impl EntryRef {
    const EMPTY: EntryRef = EntryRef(Repr::Empty);
    const LEAF: EntryRef = EntryRef(Repr::Leaf);
}

/// The feasible domain of one loop level under one dependency footprint:
/// every value with a nonzero subtree count, in domain order, with the
/// *cumulative* count up to and including that value and the link to the
/// entry its subtree opens with. The last cumulative value is the level's
/// total; cumulative form makes a count-weighted draw a binary search, and
/// on a free level, where every value has the same count, a division.
#[derive(Debug, Clone)]
pub struct LevelView<'a> {
    slot: u32,
    values: Values<'a>,
}

#[derive(Debug, Clone)]
enum Values<'a> {
    Stored { values: &'a [i64], cum: &'a [u128], child: &'a [EntryRef] },
    /// A free level's whole realized domain: every value opens the same
    /// `count` survivors at `child`.
    Free { domain: Domain<'a>, count: u128, child: EntryRef },
}

impl LevelView<'_> {
    /// The slot the level binds.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// Total survivor count below this level.
    pub fn total(&self) -> u128 {
        match &self.values {
            Values::Stored { cum, .. } => cum.last().copied().unwrap_or(0),
            Values::Free { domain, count, .. } => count.saturating_mul(domain.len() as u128),
        }
    }

    /// Number of feasible values.
    pub fn len(&self) -> usize {
        match &self.values {
            Values::Stored { values, .. } => values.len(),
            Values::Free { domain, .. } => domain.len(),
        }
    }

    /// True when no value survives.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th feasible value (panics when `i ≥ len()`).
    pub fn value_at(&self, i: usize) -> i64 {
        match &self.values {
            Values::Stored { values, .. } => values[i],
            Values::Free { domain, .. } => {
                assert!(i < domain.len(), "value {i} of a {}-value level", domain.len());
                domain.nth(i)
            }
        }
    }

    /// Position of a feasible value.
    pub fn position_of(&self, v: i64) -> Option<usize> {
        match &self.values {
            Values::Stored { values, .. } => values.iter().position(|&x| x == v),
            Values::Free { domain, .. } => domain.position_of(v),
        }
    }

    /// The link below the `i`-th feasible value (panics when `i ≥ len()`).
    pub fn child(&self, i: usize) -> EntryRef {
        match &self.values {
            Values::Stored { child, .. } => child[i],
            Values::Free { domain, child, .. } => {
                assert!(i < domain.len(), "value {i} of a {}-value level", domain.len());
                *child
            }
        }
    }

    /// Count-weighted selection: map a survivor index `idx` in
    /// `[0, total)` to `(position, remainder)` where `remainder` indexes the
    /// survivors below the value at `position` — `None` when
    /// `idx ≥ total`. This is the weighted-descent step: a single uniform
    /// index over the whole subtree decomposes level by level into a unique
    /// survivor.
    pub fn pick(&self, idx: u128) -> Option<(usize, u128)> {
        match &self.values {
            Values::Stored { cum, .. } => {
                let p = cum.partition_point(|&cum| cum <= idx);
                let prev = if p == 0 { 0 } else { cum[p - 1] };
                (p < cum.len()).then(|| (p, idx - prev))
            }
            Values::Free { domain, count, .. } => {
                let k = idx.checked_div(*count)?;
                (k < domain.len() as u128).then(|| (k as usize, idx % count))
            }
        }
    }
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
/// `cum` / `child` arena. `index` holds entry ids, open-addressed with
/// linear probing at load ≤ ½ over a power-of-two length. A solved level's
/// hits are one-value spans of the same arena that nothing looks up: only
/// links reach them. So are a unique-key level's entries, which store no
/// key, span or index slot at all.
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
    child: Vec<EntryRef>,
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
        self.child.truncate(values);
    }

    /// Append a feasible value to the arena.
    fn push(&mut self, value: i64, cum: u128, child: EntryRef) {
        self.values.push(value);
        self.cum.push(cum);
        self.child.push(child);
    }

    /// The arena from `start` to its end as a span; `None` past `u32`.
    fn tail(&self, start: usize) -> Option<(u32, u32)> {
        Some((u32::try_from(start).ok()?, u32::try_from(self.values.len() - start).ok()?))
    }

    /// Store the entry begun at `mark` — its key and values already at the
    /// tails — under hash `h`. `None` when its id or span does not fit the
    /// `u32` index.
    fn insert(&mut self, w: usize, h: u64, (_, start): (usize, usize)) -> Option<u32> {
        let e = u32::try_from(self.spans.len()).ok().filter(|&e| e != VACANT)?;
        let span = self.tail(start)?;
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

/// One entry of a free level: every value of its realized domain opens the
/// same `count > 0` survivors at `child`. The domain is `len` values from
/// `start` by `step` on a range level, the level's static list otherwise.
struct FreeEntry {
    start: i64,
    step: i64,
    len: usize,
    count: u128,
    child: EntryRef,
}

/// A realized loop domain in integer form.
#[derive(Debug, Clone)]
enum Domain<'a> {
    Range { start: i64, step: i64, len: usize },
    Ints(Cow<'a, [i64]>),
}

impl Domain<'_> {
    fn range(start: i64, stop: i64, step: i64) -> Self {
        Domain::Range { start, step, len: range_len(start, stop, step) as usize }
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

    fn position_of(&self, v: i64) -> Option<usize> {
        match self {
            Domain::Range { start, step, len } => {
                let (off, step) = (v as i128 - *start as i128, *step as i128);
                let k = (step != 0 && off % step == 0).then(|| off / step)?;
                (0..*len as i128).contains(&k).then_some(k as usize)
            }
            Domain::Ints(vs) => vs.iter().position(|&x| x == v),
        }
    }
}

/// Per loop level: what [`Counter::build`] learned about it, and its memo.
struct Level {
    /// Index of the level's `Bind` step, the slot it binds, and its run.
    step: usize,
    slot: u32,
    run: Range<usize>,
    /// The equality check opening the level's body, when the level is
    /// solved rather than enumerated (survivor mode only).
    solve: Option<Solve>,
    /// `c` and `d` of the next level's coefficient `c·x + d`, when this
    /// level solves its child from its own value loop (survivor mode only).
    child_solve: Option<ChildProgs>,
    /// A free level: entries in closed form, no memo (survivor mode only).
    free: bool,
    /// Nothing after the bind reads the slot, so every value has the same
    /// subtree count (checks left out in tuple mode, where they never run).
    uniform: bool,
    /// Entries are looked up by footprint key: neither free nor unique-key.
    memo: bool,
    /// The abstract pre-pass's program, an index into `Counter::pre`: the
    /// level's run (defines and checks up to the next loop) holds an
    /// expression check, which the pre-pass could decide (survivor mode
    /// only).
    pre: Option<u32>,
    /// `%`-divisor expressions inside the run whose reads are all bound
    /// before the level — residue-filter candidates.
    rem_divisors: Vec<RootProg>,
    table: Table,
    /// A free level's entries.
    frees: Vec<FreeEntry>,
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
    /// The pre-pass programs, one per level run holding a check.
    pre: AbsProgs,
    /// Per step: the concrete evaluator of defines, checks and bounds.
    points: StepProgs<'a>,
    /// Per `Bind` step: level ordinal (outermost first).
    level_of: Vec<usize>,
    levels: Vec<Level>,
    /// Memo and free entries stored across all levels.
    memo_len: usize,
    /// The link of the outermost level and the count behind it, set once
    /// [`Counter::total`] decides.
    root: EntryRef,
    decided: Option<u128>,
    /// The file the pre-pass programs run over.
    pfile: AbsFile,
    /// Every pre-pass run — level, slots, box, verdict — for the
    /// differential test.
    #[cfg(test)]
    pre_log: Vec<(usize, Vec<i64>, Interval, Congruence, bool)>,
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
        // no level is solved there; and a tuple counter never draws, so no
        // level is free (a free level's per-visit recursion would cost
        // tuple counts far more than the memo it saves).
        let survivors = !ignore_checks;
        let LevelTable { levels: plan, footprints } = levels(lp);
        let footprints = if survivors { footprints } else { suffix_footprints(lp, false) };

        // A solved entry resumes after its level's opening check. Every
        // concrete program — runs, bounds, solves, divisors — is compiled
        // into the runs' one value file.
        let cuts: Vec<usize> = (plan.iter())
            .filter(|p| survivors && p.narrowing.is_some())
            .map(|p| p.step + 1)
            .collect();
        let spec = RunSpec { checks: survivors, cuts: &cuts, skip_bit: &|_| None, derive: true };
        let mut runs = RunProgs::builder(lp, spec);

        let mut level_of = vec![usize::MAX; lp.steps.len()];
        let mut levels = Vec::with_capacity(plan.len());
        let mut level_stats = Vec::with_capacity(plan.len());
        // Slots written strictly before the current level's bind: residue-
        // filter divisors must be fully bound when their level opens.
        let mut written = vec![false; lp.n_slots as usize];
        let mut written_upto = 0;
        let mut n_pre = 0;
        for (l, p) in plan.iter().enumerate() {
            for s in &lp.steps[written_upto..p.step] {
                if let Some(slot) = s.written_slot() {
                    written[slot as usize] = true;
                }
            }
            written_upto = p.step;
            let LStep::Bind { depth, iter, .. } = &lp.steps[p.step] else {
                unreachable!("a level opens with its bind")
            };
            level_of[p.step] = l;
            level_stats.push(LevelStats {
                name: space.iters()[*iter].name.clone(),
                depth: *depth,
                memo: false,
                hits: 0,
                entries: 0,
                free: 0,
                solved: 0,
                domain_values: 0,
                feasible_values: 0,
                residue_skipped: 0,
            });
            let run = &lp.steps[p.run.clone()];
            let mut run_has_check = false;
            let mut rem_divisors = Vec::new();
            for step in run {
                if let LStep::Check { body: LBody::Expr(e), .. } = step {
                    run_has_check = true;
                    collect_rem_divisors(e, &mut |d| {
                        let mut ok = true;
                        d.for_each_slot(&mut |s| ok &= written[s as usize]);
                        if ok {
                            rem_divisors.push(runs.root(d));
                        }
                    });
                }
            }
            let free = survivors && p.free;
            levels.push(Level {
                step: p.step,
                slot: p.slot,
                run: p.run.clone(),
                solve: (p.narrowing.as_ref().filter(|_| survivors))
                    .map(|n| Solve::new(n, &mut runs)),
                child_solve: (p.child_solve.as_ref().filter(|_| survivors))
                    .map(|c| ChildProgs::new(c, &mut runs)),
                free,
                uniform: if survivors {
                    p.unread_below
                } else {
                    footprints[p.step + 1].binary_search(&p.slot).is_err()
                },
                memo: !free,
                pre: (survivors && run_has_check).then(|| {
                    n_pre += 1;
                    n_pre - 1
                }),
                rem_divisors,
                table: Table::default(),
                frees: Vec::new(),
            });
        }

        let points = StepProgs::new(lp, runs.finish());
        let free: Vec<bool> = levels.iter().map(|l| l.free).collect();
        let solved: Vec<bool> = levels.iter().map(|l| l.solve.is_some()).collect();
        let abs = AbsSteps::new(lp);
        let unique = unique_key_levels(lp, &abs, &plan, &footprints, &free, &solved);
        for ((level, stats), unique) in levels.iter_mut().zip(&mut level_stats).zip(unique) {
            level.memo &= !unique;
            stats.memo = level.memo;
        }
        let pre = pre_pass(lp, &abs, &levels);

        Counter {
            lp,
            budget,
            ignore_checks,
            aborted: false,
            footprints,
            pfile: pre.file(),
            #[cfg(test)]
            pre_log: Vec::new(),
            pre,
            points,
            level_of,
            levels,
            memo_len: 0,
            root: EntryRef::EMPTY,
            decided: None,
            stats: CountStats { levels: level_stats, ..CountStats::default() },
        }
    }

    /// Exact survivor count of the whole space; `None` when the work budget
    /// was exhausted before the count completed. A decided count also sets
    /// [`Counter::root`].
    ///
    /// Once decided, later calls return the same count without a walk: a
    /// second walk would refill every level that keeps no memo.
    pub fn total(&mut self) -> Result<Option<u128>, EvalError> {
        if self.decided.is_some() {
            return Ok(self.decided);
        }
        let mut slots = self.file();
        let (count, root) = self.count_from(0, &mut slots)?;
        if self.aborted {
            return Ok(None);
        }
        self.root = root;
        self.decided = Some(count);
        Ok(self.decided)
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CountStats {
        &self.stats
    }

    /// True when a budget limit stopped the analysis.
    pub fn aborted(&self) -> bool {
        self.aborted
    }

    /// Test hook: the same counter with a memo at every level that is not
    /// free — unique-key levels included.
    #[cfg(test)]
    fn with_every_memo(mut self) -> Self {
        for (level, stats) in self.levels.iter_mut().zip(&mut self.stats.levels) {
            level.memo = !level.free;
            stats.memo = level.memo;
        }
        self
    }

    /// Test hook: the same counter with every pre-pass step evaluated over
    /// the product, as if every step were in the congruence slice.
    #[cfg(test)]
    fn with_full_product(mut self) -> Self {
        let abs = AbsSteps::new(self.lp).with_full_product();
        self.pre = pre_pass(self.lp, &abs, &self.levels);
        self.pfile = self.pre.file();
        self
    }

    /// The link a walk starts from once [`Counter::total`] has decided the
    /// count: the outermost level's entry, the leaf when the plan binds
    /// nothing, empty when nothing survives (or before the count).
    pub fn root(&self) -> EntryRef {
        self.root
    }

    /// The level behind a link; `None` at the leaf, where the walk has
    /// written every bind slot of one survivor. The empty link reads as a
    /// level without values.
    pub fn entry(&self, link: EntryRef) -> Option<LevelView<'_>> {
        let (lvl, values) = match link.0 {
            Repr::Leaf => return None,
            Repr::Empty => {
                let values = Values::Stored { values: &[], cum: &[], child: &[] };
                return Some(LevelView { slot: 0, values });
            }
            Repr::Stored { level, start, len } => {
                let lvl = &self.levels[level as usize];
                let span = start as usize..start as usize + len as usize;
                let values = Values::Stored {
                    values: &lvl.table.values[span.clone()],
                    cum: &lvl.table.cum[span.clone()],
                    child: &lvl.table.child[span],
                };
                (lvl, values)
            }
            Repr::Free { level, index } => {
                let lvl = &self.levels[level as usize];
                let f = &lvl.frees[index as usize];
                let domain = match &self.lp.steps[lvl.step] {
                    LStep::Bind { domain: LIter::Values(v), .. } => Domain::Ints(Cow::Borrowed(v)),
                    _ => Domain::Range { start: f.start, step: f.step, len: f.len },
                };
                (lvl, Values::Free { domain, count: f.count, child: f.child })
            }
        };
        Some(LevelView { slot: lvl.slot, values })
    }

    /// A fresh value file for [`Counter::fill_derived`]: the plan's slots
    /// (zero), then the constants and temporaries of its run programs.
    pub fn file(&self) -> Vec<i64> {
        self.points.runs.file()
    }

    /// Evaluate every define of the plan in step order against `file`, a
    /// value file ([`Counter::file`]) whose bind slots hold a survivor (a
    /// walk at the leaf): the derived values that survivor carries.
    pub fn fill_derived(&self, file: &mut [i64]) -> Result<(), EvalError> {
        self.points.derive(file)
    }

    /// Survivors below a link.
    fn link_total(&self, link: EntryRef) -> u128 {
        self.entry(link).map_or(1, |level| level.total())
    }

    /// Count survivors of the subtree rooted at step `from` under the bound
    /// prefix in `slots`, with the link to the entry the subtree opens with.
    fn count_from(
        &mut self,
        from: usize,
        slots: &mut [i64],
    ) -> Result<(u128, EntryRef), EvalError> {
        let lp = self.lp;
        let mut i = from;
        loop {
            if self.aborted {
                return Ok((0, EntryRef::EMPTY));
            }
            if let Some((_, run)) = self.points.runs.at(i) {
                match run.run(slots, 0) {
                    Ok(RunExit::Pass) => i = run.end(),
                    Ok(RunExit::Reject(_)) => return Ok((0, EntryRef::EMPTY)),
                    Err(fault) => return Err(fault.error),
                }
                continue;
            }
            // Past the runs: opaque steps, binds and the visit.
            match &lp.steps[i] {
                LStep::Visit => return Ok((1, EntryRef::LEAF)),
                LStep::Define { slot, .. } => {
                    slots[*slot as usize] = self.points.opaque_define(i, slots)?;
                    i += 1;
                }
                LStep::Check { .. } => {
                    if !self.ignore_checks && self.points.opaque_rejects(i, slots)? {
                        return Ok((0, EntryRef::EMPTY));
                    }
                    i += 1;
                }
                LStep::Bind { .. } => {
                    let entry = self.entry_at(i, slots)?;
                    return Ok((self.link_total(entry), entry));
                }
            }
        }
    }

    /// The feasible-domain entry of the loop level at step `i` under the
    /// bound prefix in `slots`: solved when the level opens with a solvable
    /// equality check, in closed form on a free level, answered from the
    /// footprint cache when the footprint values match a previous subtree,
    /// computed (and stored) otherwise — on a unique-key level, without a
    /// lookup or a key.
    fn entry_at(&mut self, i: usize, slots: &mut [i64]) -> Result<EntryRef, EvalError> {
        let level = self.level_of[i];
        let lp = self.lp;
        let LStep::Bind { slot, domain, .. } = &lp.steps[i] else {
            unreachable!("entry_at is only called on Bind steps")
        };
        let slot = *slot as usize;

        if let Some(solved) = self.solve_level(level, i, slots) {
            return self.solved_entry(level, i, solved, slots);
        }
        if self.levels[level].free {
            return self.free_entry(level, i, domain, slots);
        }

        let memo = self.levels[level].memo;
        let fp = &self.footprints[i];
        let table = &mut self.levels[level].table;
        let mut h = 0;
        if memo {
            h = key_hash(fp.iter().map(|&s| slots[s as usize]));
            if let Some(e) = table.find(fp, slots, h) {
                self.stats.cache_hits += 1;
                self.stats.levels[level].hits += 1;
                return Ok(table.entry_ref(level, e));
            }
        }
        self.stats.cache_misses += 1;
        let mark = table.mark();
        if memo {
            // The key is read before the level runs: a bind's bounds may
            // read its own, stale slot.
            table.keys.extend(fp.iter().map(|&s| slots[s as usize]));
        }

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
        let feasible = (table.values.len() - mark.1) as u64;
        let stored = if self.memo_len >= self.budget.max_memo_entries {
            None
        } else if memo {
            table.insert(self.footprints[i].len(), h, mark).map(|e| table.entry_ref(level, e))
        } else {
            table
                .tail(mark.1)
                .map(|(start, len)| EntryRef(Repr::Stored { level: level as u32, start, len }))
        };
        let Some(link) = stored else {
            table.rollback(mark);
            self.aborted = true;
            return Ok(EntryRef::EMPTY);
        };
        self.memo_len += 1;
        let lvl = &mut self.stats.levels[level];
        lvl.entries += 1;
        lvl.domain_values += len;
        lvl.feasible_values += feasible;
        lvl.residue_skipped += residue_skipped;
        Ok(link)
    }

    /// The entry of solved level `level` (bound at step `i`) once `solved`
    /// is known: empty without a hit, otherwise the hit as a one-value span
    /// of the level's arena, which only links reach.
    fn solved_entry(
        &mut self,
        level: usize,
        i: usize,
        solved: Solved,
        slots: &mut [i64],
    ) -> Result<EntryRef, EvalError> {
        self.stats.levels[level].solved += 1;
        let Some(x) = solved.hit else { return Ok(EntryRef::EMPTY) };
        if !self.charge_value() {
            return Ok(EntryRef::EMPTY);
        }
        slots[self.levels[level].slot as usize] = x;
        // Step `i + 1` is the solved check, which `x` passes.
        let (count, child) = self.count_from(i + 2, slots)?;
        if count == 0 {
            return Ok(EntryRef::EMPTY);
        }
        let table = &mut self.levels[level].table;
        let start = table.values.len();
        table.push(x, count, child);
        Ok(self.link_tail(level, start))
    }

    /// The entry of free level `level` (bound at step `i`): its realized
    /// domain and one recursion for the first value, whose count and link
    /// every value shares. Counted against the memo budget like the memo
    /// entry it replaces, because it is kept alive the same way.
    fn free_entry(
        &mut self,
        level: usize,
        i: usize,
        domain: &'a LIter,
        slots: &mut [i64],
    ) -> Result<EntryRef, EvalError> {
        let dom = self.realize(i, domain, slots)?;
        let len = dom.len();
        let (count, child) = if len > 0 && self.charge_value() {
            slots[self.levels[level].slot as usize] = dom.nth(0);
            self.count_from(i + 1, slots)?
        } else {
            (0, EntryRef::EMPTY)
        };
        if self.aborted || self.memo_len >= self.budget.max_memo_entries {
            self.aborted = true;
            return Ok(EntryRef::EMPTY);
        }
        self.memo_len += 1;
        let lvl = &mut self.stats.levels[level];
        lvl.free += 1;
        lvl.domain_values += len as u64;
        if count == 0 {
            return Ok(EntryRef::EMPTY);
        }
        lvl.feasible_values += len as u64;
        let (start, step) = match dom {
            Domain::Range { start, step, .. } => (start, step),
            Domain::Ints(_) => (0, 0),
        };
        let frees = &mut self.levels[level].frees;
        let Ok(index) = u32::try_from(frees.len()) else {
            self.aborted = true;
            return Ok(EntryRef::EMPTY);
        };
        frees.push(FreeEntry { start, step, len, count, child });
        Ok(EntryRef(Repr::Free { level: level as u32, index }))
    }

    /// Link `level`'s arena from `start` to its end; a span past `u32`
    /// aborts the count.
    fn link_tail(&mut self, level: usize, start: usize) -> EntryRef {
        match self.levels[level].table.tail(start) {
            Some((start, len)) => EntryRef(Repr::Stored { level: level as u32, start, len }),
            None => {
                self.aborted = true;
                EntryRef::EMPTY
            }
        }
    }

    /// Solve level `level`'s opening equality check over its realized range
    /// under `slots`. `None` — enumerate instead — when the level is not
    /// solvable, when the range bounds, `a` or `k` fail to evaluate (the
    /// enumerating path reproduces the error where it arises, or finds the
    /// range empty), or when the solve cannot decide the entry.
    fn solve_level(&self, level: usize, i: usize, slots: &mut [i64]) -> Option<Solved> {
        let solve = self.levels[level].solve.as_ref()?;
        let (start, stop, step) = self.points.runs.bounds(i, slots).ok()?;
        solve.solve(slots, start, step, range_len(start, stop, step))
    }

    /// The child solve of level `level` (bound at step `i`) for the entry
    /// `slots` opens; `None` — every value takes the child's own path —
    /// when the level has none or anything fails to evaluate.
    fn child_entry(&self, level: usize, i: usize, slots: &mut [i64]) -> Option<ChildEntry> {
        let progs = self.levels[level].child_solve.as_ref()?;
        let child = self.levels[level + 1].solve.as_ref()?;
        let (start, stop, step) = self.points.runs.bounds(i + 1, slots).ok()?;
        progs.entry(child, slots, start, step, range_len(start, stop, step))
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
    /// its arena: every feasible value with its cumulative subtree count and
    /// its link. Returns the realized length and the values residue classes
    /// skipped.
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
        // Uniform-level shortcut: every value has the same subtree count,
        // so recurse once and replicate.
        if self.levels[level].uniform {
            if self.charge_value() {
                slots[slot] = dom.nth(0);
                let (c, child) = self.count_from(i + 1, slots)?;
                if c > 0 {
                    let table = &mut self.levels[level].table;
                    let mut cum = 0u128;
                    for k in 0..len {
                        cum = cum.saturating_add(c);
                        table.push(dom.nth(k), cum, child);
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
        if self.levels[level].pre.is_some() && len >= MIN_ABSTRACT_FANOUT {
            let (iv, cg) = match &dom {
                Domain::Range { start, step, len } => range_box(*start, *step, *len as u64),
                Domain::Ints(vs) => values_box(vs),
            };
            if self.run_rejects(level, slots, iv, cg) {
                self.stats.domains_rejected += 1;
                return Ok((len as u64, 0));
            }
            rejected_classes = self.rejected_residue_classes(level, slots, &dom, iv);
        }
        let child_solve = self.child_entry(level, i, slots);
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
            // The child's own solve, minus its evaluations; anything it
            // declines goes down the child's own path.
            let (c, child) = match child_solve.as_ref().and_then(|s| s.solve(v)) {
                Some(solved) => {
                    let child = self.solved_entry(level + 1, i + 1, solved, slots)?;
                    (self.link_total(child), child)
                }
                None => self.count_from(i + 1, slots)?,
            };
            if c > 0 {
                cum = cum.saturating_add(c);
                self.levels[level].table.push(v, cum, child);
            }
        }
        Ok((len as u64, residue_skipped))
    }

    /// Realize the domain of the level bound at step `i` under `slots`.
    fn realize(
        &self,
        i: usize,
        domain: &'a LIter,
        slots: &mut [i64],
    ) -> Result<Domain<'a>, EvalError> {
        Ok(match domain {
            LIter::Range { .. } => {
                let (start, stop, step) = self.points.runs.bounds(i, slots)?;
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
    /// slot an exact point: the level's pre-pass program ([`pre_pass`]).
    /// Returns `true` when some check *provably* rejects every
    /// concretization — and no step before it could have raised a runtime
    /// error instead (`clean` tracking), so skipping the whole class is
    /// observationally identical to enumerating it.
    fn run_rejects(
        &mut self,
        level: usize,
        slots: &[i64],
        x_iv: Interval,
        x_cg: Congruence,
    ) -> bool {
        let pre = self.levels[level].pre.expect("a pre-pass program") as usize;
        let verdict = self.pre.run(pre, &mut self.pfile, slots, x_iv, x_cg);
        let rejects = matches!(verdict, Verdict::Skip { .. });
        #[cfg(test)]
        self.pre_log.push((level, slots[..self.lp.n_slots as usize].to_vec(), x_iv, x_cg, rejects));
        rejects
    }

    /// Residue classes of the level's domain rejected by the abstract run:
    /// `Some((modulus, sorted rejected residues))` when filtering applies
    /// and rejects something, `None` otherwise.
    fn rejected_residue_classes(
        &mut self,
        level: usize,
        slots: &mut [i64],
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
            if self.run_rejects(level, slots, dom_iv, cg) {
                self.stats.residue_classes_pruned += 1;
                rejected.push(c);
            }
        }
        rejected.sort_unstable();
        (!rejected.is_empty()).then_some((modulus, rejected))
    }
}

/// Compile the pre-pass programs, in `Level::pre` order: one window per
/// level whose run holds a check, seeded with every slot the run reads from
/// outside itself, evaluated over the product on `abs`'s congruence slice.
fn pre_pass(lp: &LoweredPlan, abs: &AbsSteps, levels: &[Level]) -> AbsProgs {
    let windows: Vec<Window> = (levels.iter().filter(|l| l.pre.is_some()))
        .map(|level| {
            let run = level.run.clone();
            let written: Vec<u32> =
                lp.steps[run.clone()].iter().filter_map(LStep::written_slot).collect();
            let mut seed: Vec<u32> = (run.clone())
                .flat_map(|i| abs.reads(i).collect::<Vec<_>>())
                .filter(|s| *s != level.slot && !written.contains(s))
                .collect();
            seed.sort_unstable();
            seed.dedup();
            let dirty = abs.dirty(run.start, seed.iter().copied().chain([level.slot]));
            Window { start: run.start, end: run.end, slot: level.slot, seed, dirty, parent: None }
        })
        .collect();
    AbsProgs::new(lp, abs, true, &windows)
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
    use crate::expr::{lit, var};
    use crate::plan::{LoopOrder, Plan, PlanOptions};
    use crate::pointprog::SlotView;
    use crate::space::Space;

    fn lower(space: &Arc<Space>) -> LoweredPlan {
        let plan = Plan::new(space, PlanOptions::default()).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    /// Brute-force survivor count by walking the plan recursively, every
    /// expression through the reference tree evaluator.
    fn brute_force(lp: &LoweredPlan) -> u128 {
        brute_survivors(lp).len() as u128
    }

    /// Every survivor's slots, in loop order, by the same brute-force walk.
    fn brute_survivors(lp: &LoweredPlan) -> Vec<Vec<i64>> {
        fn walk(lp: &LoweredPlan, i: usize, slots: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
            let space = lp.plan.space();
            match &lp.steps[i] {
                LStep::Visit => out.push(slots.clone()),
                LStep::Define { slot, body, derived } => {
                    slots[*slot as usize] = match body {
                        LBody::Expr(e) => e.eval(slots).unwrap(),
                        LBody::Opaque => {
                            let v = space.deriveds()[*derived].kind.eval(&SlotView::new(lp, slots));
                            v.unwrap().as_int().unwrap()
                        }
                    };
                    walk(lp, i + 1, slots, out)
                }
                LStep::Check { constraint, body } => {
                    let rejects = match body {
                        LBody::Expr(e) => e.eval(slots).unwrap() != 0,
                        LBody::Opaque => space.constraints()[*constraint]
                            .kind
                            .rejects(&SlotView::new(lp, slots))
                            .unwrap(),
                    };
                    if !rejects {
                        walk(lp, i + 1, slots, out)
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
                            space.realize_iter(*iter, &SlotView::new(lp, slots)).unwrap()
                        }
                    };
                    for k in 0..realized.len() {
                        slots[*slot as usize] =
                            realized.nth_value(k).unwrap().as_int().unwrap();
                        walk(lp, i + 1, slots, out);
                    }
                }
            }
        }
        let (mut slots, mut out) = (vec![0i64; lp.n_slots as usize], Vec::new());
        walk(lp, 0, &mut slots, &mut out);
        out
    }

    /// The survivor at index `idx`, by walking the links from the root.
    fn walk_links(counter: &Counter<'_>, mut idx: u128) -> Vec<i64> {
        let mut slots = counter.file();
        let mut link = counter.root();
        while let Some(level) = counter.entry(link) {
            let (k, rem) = level.pick(idx).expect("index inside the level");
            slots[level.slot() as usize] = level.value_at(k);
            link = level.child(k);
            idx = rem;
        }
        counter.fill_derived(&mut slots).unwrap();
        slots.truncate(counter.lp.n_slots as usize);
        slots
    }

    /// Count `lp`, then check the total and that the link walk of every
    /// index is the brute-force survivor of the same index.
    fn assert_links_index_the_survivors(lp: &LoweredPlan) -> CountStats {
        let want = brute_survivors(lp);
        let mut counter = Counter::new(lp);
        assert_eq!(counter.total().unwrap(), Some(want.len() as u128));
        for (k, want) in want.iter().enumerate() {
            assert_eq!(&walk_links(&counter, k as u128), want, "survivor {k}");
        }
        counter.stats().clone()
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
        assert_links_index_the_survivors(&lower(&space));
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
        let child = [EntryRef::LEAF; 3];
        let values = Values::Stored { values: &[10, 20, 40], cum: &[2, 3, 7], child: &child };
        let view = LevelView { slot: 0, values };
        assert_eq!(view.total(), 7);
        assert_eq!(view.len(), 3);
        let picks: Vec<(i64, u128)> =
            (0..7).map(|i| view.pick(i).map(|(k, r)| (view.value_at(k), r)).unwrap()).collect();
        assert_eq!(
            picks,
            vec![(10, 0), (10, 1), (20, 0), (40, 0), (40, 1), (40, 2), (40, 3)]
        );
        assert_eq!(view.position_of(20), Some(1));
        assert_eq!(view.position_of(30), None);
        // Past the end, and on an empty level, `pick` answers `None`.
        assert_eq!(view.pick(7), None);
        assert_eq!(view.pick(u128::MAX), None);
        let empty = Values::Stored { values: &[], cum: &[], child: &[] };
        assert_eq!(LevelView { slot: 0, values: empty }.pick(0), None);

        // A free level: 4, 7, 10 with 3 survivors below each.
        let domain = Domain::Range { start: 4, step: 3, len: 3 };
        let values = Values::Free { domain, count: 3, child: EntryRef::LEAF };
        let view = LevelView { slot: 0, values };
        assert_eq!((view.total(), view.len()), (9, 3));
        let picks: Vec<(i64, u128)> =
            (0..9).map(|i| view.pick(i).map(|(k, r)| (view.value_at(k), r)).unwrap()).collect();
        assert_eq!(picks[..4], [(4, 0), (4, 1), (4, 2), (7, 0)]);
        assert_eq!(picks[8], (10, 2));
        assert_eq!(view.pick(9), None);
        let positions = [7, 8, 13, 1].map(|v| view.position_of(v));
        assert_eq!(positions, [Some(1), None, None, None]);
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
        t.push(value, 1, EntryRef::LEAF);
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
        t.push(5, 5, EntryRef::LEAF);
        t.rollback(mark);
        assert_eq!((t.keys.len(), t.values.len(), t.cum.len()), (20_000, 10_000, 10_000));
        assert_eq!(t.child.len(), 10_000);
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

    /// The links index exactly the brute-force survivors through a solved
    /// level's one-value spans and a stored static list.
    #[test]
    fn links_index_solved_levels_and_lists() {
        let space = Space::builder("links_solved")
            .range("o", 1, 7)
            .derived("t", var("o") * 12)
            .range("x", 0, 40)
            .constraint("ox", ConstraintClass::Hard, (var("o") * var("x")).ne(var("t")))
            .list("w", [3i64, -1, 8])
            .constraint("wx", ConstraintClass::Soft, (var("w") + var("x")).lt(0))
            .build()
            .unwrap();
        assert_links_index_the_survivors(&lower(&space));
    }

    /// `u`, `v` and `s` are read by nothing and open empty runs: free levels
    /// with no memo entry, over a range whose bounds read `a`, a static list
    /// and a constant range. Unhoisted, every check runs after `s`, which
    /// then keeps its memo. Tuple mode keeps a memo at every level.
    #[test]
    fn free_levels_are_counted_in_closed_form_and_indexed() {
        let space = Space::builder("count_free")
            .range("a", 1, 5)
            .range("u", var("a"), var("a") * 2)
            .range("b", 0, 6)
            .constraint("ab", ConstraintClass::Hard, ((var("a") + var("b")) % 3).eq(0))
            .list("v", [4i64, -4, 9])
            .range("s", 0, 2)
            .constraint("b4", ConstraintClass::Hard, var("b").gt(4))
            .build()
            .unwrap();
        let order = LoopOrder::Explicit(["a", "u", "b", "v", "s"].map(String::from).to_vec());
        let lower_with = |hoist| {
            let options = PlanOptions { hoist, order: order.clone(), ..PlanOptions::default() };
            LoweredPlan::new(&Plan::new(&space, options).unwrap()).unwrap()
        };
        let lp = lower_with(true);
        let stats = assert_links_index_the_survivors(&lp);
        let level = |name: &str| stats.levels.iter().find(|l| &*l.name == name).unwrap().clone();
        for (name, free) in [("a", false), ("u", true), ("b", false), ("v", true), ("s", true)] {
            let l = level(name);
            assert_eq!((l.free > 0, l.entries > 0), (free, !free), "{l:?}");
        }
        // Each visit of `u` is one free entry: `a` has four values.
        assert_eq!((level("u").free, level("u").domain_values), (4, 1 + 2 + 3 + 4));
        let stats = assert_links_index_the_survivors(&lower_with(false));
        let frees: Vec<bool> = stats.levels.iter().map(|l| l.free > 0).collect();
        assert_eq!(frees, [false, true, false, true, false], "{stats:?}");
        let mut tuples = Counter::tuples(&lp);
        assert_eq!(tuples.total().unwrap(), Some(brute_tuples(&lp)));
        assert!(tuples.stats().levels.iter().all(|l| l.free == 0), "{:?}", tuples.stats());
    }

    /// The tuple count of `lp` by brute force: the survivor walk of the
    /// same plan with every check removed.
    fn brute_tuples(lp: &LoweredPlan) -> u128 {
        let mut unchecked = lp.clone();
        unchecked.steps.retain(|s| !matches!(s, LStep::Check { .. }));
        brute_force(&unchecked)
    }

    /// A free level's entries count against the memo budget, so a run
    /// that fits only without them aborts.
    #[test]
    fn free_entries_count_against_the_memo_budget() {
        let space = Space::builder("count_free_budget")
            .range("a", 0, 40)
            .range("u", 0, 3)
            .range("b", 0, var("a") + 1)
            .constraint("ab", ConstraintClass::Hard, (var("a") + var("b")).gt(50))
            .build()
            .unwrap();
        let lp = lower(&space);
        let mut free = Counter::new(&lp);
        assert_eq!(free.total().unwrap(), Some(brute_force(&lp)));
        let needed: u64 = free.stats().levels.iter().map(|l| l.entries + l.free).sum();
        let needed = needed as usize;
        let budget = |max_memo_entries| CountBudget { max_memo_entries, ..CountBudget::default() };
        assert!(Counter::with_budget(&lp, budget(needed)).total().unwrap().is_some());
        let mut short = Counter::with_budget(&lp, budget(needed - 1));
        assert_eq!(short.total().unwrap(), None);
    }

    /// `n` opens with `m·n != t` and `m`'s next step binds it: `m` solves
    /// `n` from its own value loop. Every counter equals the count of the
    /// same space with `n`'s bound spelled to read `m` (`+ 0·m`), which the
    /// recogniser refuses, so `n` solves itself; `c·x + d` zero at `m = 3`
    /// takes `n`'s own path (enumeration) in both.
    #[test]
    fn a_parent_solves_its_child_with_the_childs_own_counters() {
        let lowered = |spelled: bool, coeff: crate::expr::E| {
            // `(m + 2) / 100` is 0 for every `m`, but reads it.
            let stop = crate::expr::lit(30);
            let stop = if spelled { stop + (var("m") + 2) / 100 } else { stop };
            lower(
                &Space::builder("count_parent")
                    .constant("t", 24)
                    .range("o", 1, 4)
                    .range("m", -2, 9)
                    .range("n", 1, stop)
                    .constraint("mn", ConstraintClass::Hard, (coeff * var("n")).ne(var("t")))
                    .range("y", 0, var("n") % 3 + 1)
                    .constraint("oy", ConstraintClass::Soft, ((var("o") + var("y")) % 2).eq(0))
                    .build()
                    .unwrap(),
            )
        };
        for coeff in [|| var("m"), || var("m") - 3, || var("o") * var("m") + var("o")] {
            let (solved, spelled) = (lowered(false, coeff()), lowered(true, coeff()));
            assert!(levels(&solved).levels[1].child_solve.is_some());
            assert!(levels(&spelled).levels[1].child_solve.is_none());
            let stats = assert_links_index_the_survivors(&solved);
            let mut reference = Counter::new(&spelled);
            reference.total().unwrap();
            assert_eq!(format!("{stats:?}"), format!("{:?}", reference.stats()));
            assert!(stats.levels[2].solved > 0, "{stats:?}");
        }
    }

    /// A coefficient part or an offset that faults at run time (`o = 2`)
    /// sends the whole entry down the child's own path, which fails exactly
    /// as the same check spelled past the recogniser fails.
    #[test]
    fn a_faulting_parent_solve_fails_like_enumeration() {
        let lowered = |spelled: bool, offset: bool| {
            let div = crate::expr::lit(12) / (var("o") - 2);
            let first = if offset {
                (var("m") * var("n")).ne(div)
            } else {
                (var("m") * div * var("n")).ne(var("t"))
            };
            lower(
                &Space::builder("count_parent_fault")
                    .constant("t", 12)
                    .range("o", 0, 5)
                    .range("m", 1, 7)
                    .range("n", 1, 20)
                    .constraint(
                        "first",
                        ConstraintClass::Correctness,
                        if spelled { first.or(crate::expr::lit(0)) } else { first },
                    )
                    .build()
                    .unwrap(),
            )
        };
        for offset in [false, true] {
            let (solved, spelled) = (lowered(false, offset), lowered(true, offset));
            assert!(levels(&solved).levels[1].child_solve.is_some());
            let mut counter = Counter::new(&solved);
            let err = counter.total().unwrap_err();
            assert_eq!(Counter::new(&spelled).total().unwrap_err(), err);
            assert!(counter.stats().levels[2].solved > 0, "o = 0 and 1 solve before o = 2");
        }
    }

    /// Values stored across every level's arena and free entries.
    fn arena_len(counter: &Counter<'_>) -> (usize, usize, usize) {
        let levels = &counter.levels;
        let values = levels.iter().map(|l| l.table.values.len()).sum();
        let keys = levels.iter().map(|l| l.table.keys.len()).sum();
        (values, keys, levels.iter().map(|l| l.frees.len()).sum())
    }

    /// A second `total` returns the decided count and root without a walk:
    /// the outermost level keeps no memo, so a walk would refill every
    /// unique-key level below it.
    #[test]
    fn total_is_idempotent() {
        let space = Space::builder("count_twice")
            .range("a", 1, 9)
            .range("u", 0, 3)
            .range_step("b", var("a"), 33, var("a"))
            .derived("ab", var("a") * var("b"))
            .constraint("over", ConstraintClass::Hard, var("ab").gt(30))
            .build()
            .unwrap();
        let lp = lower(&space);
        for mut counter in [Counter::new(&lp), Counter::tuples(&lp)] {
            let first = counter.total().unwrap();
            let (stats, root, arena) =
                (format!("{:?}", counter.stats()), counter.root(), arena_len(&counter));
            assert!(first.is_some() && !counter.stats().levels[0].memo);
            assert_eq!(counter.total().unwrap(), first);
            assert_eq!(format!("{:?}", counter.stats()), stats);
            assert_eq!((counter.root(), arena_len(&counter)), (root, arena));
        }
    }

    /// Outcomes a count must reproduce with either change turned off: the
    /// total or error, every counter (the `memo` flags aside) and, on a
    /// decided count, the survivor behind every index.
    fn outcome(counter: &mut Counter<'_>) -> (String, String, Vec<Vec<i64>>) {
        let total = counter.total();
        let mut stats = counter.stats().clone();
        for level in &mut stats.levels {
            level.memo = false;
        }
        let walks = match total {
            Ok(Some(n)) => (0..n.min(300)).map(|k| walk_links(counter, k)).collect(),
            _ => Vec::new(),
        };
        (format!("{total:?}"), format!("{stats:?}"), walks)
    }

    /// Every pre-pass verdict — whole domains and residue classes — is the
    /// one walking the level's run one step at a time with the per-step
    /// transfer (`AbsSteps::eval`) reaches over the same box, the `clean`
    /// chain included, on the seeded spaces of the narrowing and replay
    /// suites and on stepped divisibility checks behind a define that may
    /// fail.
    #[test]
    fn pre_pass_programs_match_step_by_step_evaluation() {
        use super::super::steps::{AbsEnv, BindHull};
        let (mut runs, mut rejected) = (0u32, 0u32);
        for seed in 0..120u64 {
            let g = crate::replay_gen::generate(seed);
            let options = PlanOptions {
                order: LoopOrder::Explicit(g.order.clone()),
                ..PlanOptions::default()
            };
            // A stepped, guarded divisor whose residue classes the pass
            // rejects, behind a define that may divide by zero.
            let (m, k) = (2 + seed as i64 % 5, seed as i64 % 3);
            let residues = Space::builder("pre_residue")
                .range("a", k - 1, 4)
                .derived("q", lit(12) / var("a"))
                .range_step("b", var("a"), 90, 1 + seed as i64 % 2)
                .constraint("mult", ConstraintClass::Hard, (var("b") % m).ne(0))
                .constraint("q_pos", ConstraintClass::Soft, (var("b") + var("q")).lt(0))
                .build()
                .unwrap();
            for lp in [
                lower(&crate::narrow_gen::generate(seed).space),
                lower(&crate::narrow_gen::generate_parent(seed, false).space),
                LoweredPlan::new(&Plan::new(&g.space, options).unwrap()).unwrap(),
                lower(&residues),
            ] {
                let abs = AbsSteps::new(&lp);
                let mut counter = Counter::new(&lp);
                let _ = counter.total();
                for (level, slots, iv, cg, got) in &counter.pre_log {
                    let Level { slot, run, .. } = &counter.levels[*level];
                    let mut env = AbsEnv::top(lp.n_slots as usize);
                    env.set_points(slots);
                    (env.iv[*slot as usize], env.cg[*slot as usize]) = (*iv, *cg);
                    let (mut clean, mut want) = (true, false);
                    for j in run.clone() {
                        let product = abs.slice()[j];
                        let fact = abs.eval(j, &mut env, product, BindHull::Bounds);
                        if clean && fact.rejects_all {
                            want = true;
                            break;
                        }
                        clean &= fact.out.clean;
                        env.write(&fact, product);
                    }
                    assert_eq!(*got, want, "seed {seed}, level {level}, {slots:?}, {iv:?}, {cg:?}");
                    runs += 1;
                    rejected += u32::from(want);
                }
            }
        }
        assert!(runs > 1_200 && rejected > 300, "{runs} pre-pass runs, {rejected} rejected");
    }

    /// Both changes are invisible on the seeded spaces of the narrowing and
    /// replay suites — solved, free, stepped and opaque levels, errors
    /// included — in survivor and tuple mode, under budgets that abort at
    /// varied points: the counter with a memo at every level, and the one
    /// evaluating every pre-pass step over the product, agree with the
    /// counter as built on every outcome, and a level left without a memo
    /// would never have hit it.
    #[test]
    fn unique_keys_and_the_congruence_slice_change_no_count() {
        let mut plans = Vec::new();
        for seed in 0..120u64 {
            plans.push(lower(&crate::narrow_gen::generate(seed).space));
            plans.push(lower(&crate::narrow_gen::generate_parent(seed, false).space));
            let g = crate::replay_gen::generate(seed);
            let options = PlanOptions {
                order: LoopOrder::Explicit(g.order.clone()),
                ..PlanOptions::default()
            };
            plans.push(LoweredPlan::new(&Plan::new(&g.space, options).unwrap()).unwrap());
        }
        let budgets = [
            CountBudget::default(),
            CountBudget { max_enumerated: 40, ..CountBudget::default() },
            CountBudget { max_memo_entries: 6, ..CountBudget::default() },
        ];
        let (mut unmemoised, mut sliced_out, mut aborted) = (0u32, 0u32, 0u32);
        for (n, lp) in plans.iter().enumerate() {
            let abs = AbsSteps::new(lp);
            let mut checks = lp.steps.iter().zip(abs.slice());
            sliced_out += u32::from(checks.any(|(s, p)| matches!(s, LStep::Check { .. }) && !p));
            for (budget, tuples) in budgets.iter().flat_map(|&b| [(b, false), (b, true)]) {
                let at = format!("plan {n}, {budget:?}, tuples {tuples}");
                let with_budget =
                    if tuples { Counter::tuples_with_budget } else { Counter::with_budget };
                let build = || with_budget(lp, budget);
                let mut built = build();
                let want = outcome(&mut built);
                aborted += u32::from(built.aborted());
                let mut every_memo = build().with_every_memo();
                assert_eq!(outcome(&mut every_memo), want, "{at}");
                let pairs = built.stats().levels.iter().zip(&every_memo.stats().levels);
                for (level, reference) in pairs.filter(|(l, _)| !l.memo && l.free == 0) {
                    unmemoised += 1;
                    assert_eq!((level.hits, reference.hits), (0, 0), "{at}: {reference:?}");
                }
                assert_eq!(outcome(&mut build().with_full_product()), want, "{at}");
            }
        }
        assert!(
            unmemoised > 3000 && sliced_out > 80 && aborted > 400,
            "{unmemoised} unmemoised levels, {sliced_out} plans with checks outside the \
             slice, {aborted} aborts"
        );
    }
}
