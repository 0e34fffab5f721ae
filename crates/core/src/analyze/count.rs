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
//! * **Product-domain restriction** — before enumerating a level's realized
//!   domain, the straight-line run of defines and checks at that level is
//!   evaluated once over the interval × congruence product with the loop
//!   variable abstracted to its whole domain; a decided rejection proves
//!   the level empty without touching a single value. When the run contains
//!   `%`-family checks against concrete moduli, the same abstract pass runs
//!   per *residue class* of the domain (`congruence` answers the `% == 0`
//!   family exactly), and every value in a rejected class is skipped
//!   wholesale — the counting analog of the engine's congruence guards.
//!
//! The per-level cache entries ([`LevelEntry`]) keep the feasible values
//! with cumulative subtree counts, which is exactly the table a
//! count-weighted *direct sampler* needs to draw uniform survivors with
//! zero rejections in O(depth): see [`Counter::descend`] and
//! `beast_search`'s `DirectSampler`.
//!
//! Counts saturate at `u128::MAX` (unreachable for any space that could
//! ever be enumerated); work is bounded by a [`CountBudget`] so the linter
//! can afford an exact-count pass without risking a runaway analysis.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use crate::error::EvalError;
use crate::expr::Bindings;
use crate::interval::{Interval, IvProg};
use crate::ir::{IntBinOp, IntExpr, LBody, LIter, LStep, LoweredPlan};
use crate::iterator::Realized;
use crate::value::Value;

use super::congruence::{cg_of_bind, cg_of_values, eval_product, Congruence, Product};
use super::footprint::suffix_footprints;

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
    /// Subtree counts computed by enumeration.
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

/// The feasible domain of one loop level under one dependency footprint:
/// every value with a nonzero subtree count, paired with the *cumulative*
/// count up to and including that value. The last cumulative value is the
/// level's total; per-value counts are adjacent differences. Cumulative
/// form makes a count-weighted draw a binary search.
#[derive(Debug, Clone, Default)]
pub struct LevelEntry {
    values: Vec<(i64, u128)>,
}

impl LevelEntry {
    /// Total survivor count below this level.
    pub fn total(&self) -> u128 {
        self.values.last().map(|&(_, c)| c).unwrap_or(0)
    }

    /// Number of feasible values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no value survives.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `i`-th feasible value.
    pub fn value_at(&self, i: usize) -> i64 {
        self.values[i].0
    }

    /// Subtree count of the `i`-th feasible value.
    pub fn count_at(&self, i: usize) -> u128 {
        let prev = if i == 0 { 0 } else { self.values[i - 1].1 };
        self.values[i].1 - prev
    }

    /// Position of a feasible value.
    pub fn position_of(&self, v: i64) -> Option<usize> {
        self.values.iter().position(|&(x, _)| x == v)
    }

    /// Count-weighted selection: map a survivor index `idx` in
    /// `[0, total)` to `(value, remainder)` where `remainder` indexes the
    /// survivors below that value. This is the weighted-descent step: a
    /// single uniform index over the whole subtree decomposes level by
    /// level into a unique survivor.
    pub fn pick(&self, idx: u128) -> (i64, u128) {
        let p = self.values.partition_point(|&(_, cum)| cum <= idx);
        let prev = if p == 0 { 0 } else { self.values[p - 1].1 };
        (self.values[p].0, idx - prev)
    }
}

/// One step of a count-weighted descent (see [`Counter::descend`]).
pub enum DescentStep {
    /// The walk reached a loop level: pick a feasible value from `entry`,
    /// write it to `slot`, and continue from `step + 1`.
    Level {
        /// Index of the `Bind` step in `lp.steps`.
        step: usize,
        /// Slot the level binds.
        slot: u32,
        /// Feasible values with cumulative subtree counts.
        entry: Arc<LevelEntry>,
    },
    /// A survivor was reached; the slot array holds its values.
    Done,
    /// A check rejected the prefix (unreachable when every level picked a
    /// feasible value).
    Dead,
}

/// Positional slot view over the space's constants — the counting analog of
/// the engine's `SlotBindings`, used to realize opaque iterators and
/// evaluate deferred defines/checks.
struct SlotView<'a> {
    names: &'a [Arc<str>],
    slots: &'a [i64],
    consts: &'a [(Arc<str>, Value)],
}

impl Bindings for SlotView<'_> {
    fn get(&self, name: &str) -> Option<Value> {
        if let Some(i) = self.names.iter().position(|n| &**n == name) {
            return Some(Value::Int(self.slots[i]));
        }
        self.consts.iter().find(|(n, _)| &**n == name).map(|(_, v)| v.clone())
    }
}

/// Maximum residue classes the abstract pre-pass will test per level.
const MAX_RESIDUE_CLASSES: u64 = 64;

/// Maximum modulus considered for residue-class filtering.
const MAX_MODULUS: i64 = 1 << 20;

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
    /// Per `Bind` step: `%`-divisor expressions inside the level's run whose
    /// reads are all bound before the level — residue-filter candidates.
    rem_divisors: Vec<Vec<&'a IntExpr>>,
    /// Per `Bind` step: level ordinal (outermost first).
    level_of: HashMap<usize, usize>,
    memo: HashMap<(usize, Box<[i64]>), Arc<LevelEntry>>,
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
        let n_steps = lp.steps.len();
        // In tuple mode checks never run, so their reads do not constrain
        // the subtree: leaving them out both widens cache sharing and
        // enables the uniform-level product shortcut.
        let footprints = suffix_footprints(lp, !ignore_checks);

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

        // Slots written strictly before each step, for residue-filter
        // candidate divisors (they must be fully bound at the level).
        let mut written_before: Vec<Vec<bool>> = Vec::with_capacity(n_steps);
        let mut written = vec![false; lp.n_slots as usize];
        for s in &lp.steps {
            written_before.push(written.clone());
            match s {
                LStep::Bind { slot, .. } | LStep::Define { slot, .. } => {
                    written[*slot as usize] = true
                }
                _ => {}
            }
        }

        // Residue-filter candidates per Bind: `a % d` divisors appearing in
        // the level's run of checks, with every slot of `d` bound before
        // the level opens.
        let mut rem_divisors: Vec<Vec<&'a IntExpr>> = vec![Vec::new(); n_steps];
        let mut level_of = HashMap::new();
        let mut levels = Vec::new();
        for (i, s) in lp.steps.iter().enumerate() {
            let LStep::Bind { slot: _, depth, iter, .. } = s else { continue };
            level_of.insert(i, levels.len());
            levels.push(LevelStats {
                name: space.iters()[*iter].name.clone(),
                depth: *depth,
                entries: 0,
                domain_values: 0,
                feasible_values: 0,
                residue_skipped: 0,
            });
            let mut divisors = Vec::new();
            for step in &lp.steps[i + 1..] {
                match step {
                    LStep::Bind { .. } | LStep::Visit => break,
                    LStep::Check { body: LBody::Expr(e), .. } => {
                        collect_rem_divisors(e, &mut |d| {
                            let mut ok = true;
                            d.for_each_slot(&mut |s| {
                                ok &= written_before[i][s as usize];
                            });
                            if ok {
                                divisors.push(d);
                            }
                        });
                    }
                    _ => {}
                }
            }
            rem_divisors[i] = divisors;
        }

        Counter {
            lp,
            budget,
            ignore_checks,
            aborted: false,
            footprints,
            progs,
            rem_divisors,
            level_of,
            memo: HashMap::new(),
            stats: CountStats { levels, ..CountStats::default() },
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
    /// [`Counter::total`], whose cache then answers every level).
    pub fn descend(
        &mut self,
        from: usize,
        slots: &mut Vec<i64>,
    ) -> Result<Option<DescentStep>, EvalError> {
        let lp = self.lp;
        let space = lp.plan.space();
        let mut i = from;
        loop {
            match &lp.steps[i] {
                LStep::Visit => return Ok(Some(DescentStep::Done)),
                LStep::Define { slot, body, derived } => {
                    slots[*slot as usize] = eval_define(lp, space, *derived, body, slots)?;
                    i += 1;
                }
                LStep::Check { constraint, body } => {
                    if !self.ignore_checks && eval_check(lp, space, *constraint, body, slots)? {
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

    /// Count survivors of the subtree rooted at step `from` under the bound
    /// prefix in `slots`.
    fn count_from(&mut self, from: usize, slots: &mut Vec<i64>) -> Result<u128, EvalError> {
        let lp = self.lp;
        let space = lp.plan.space();
        let mut i = from;
        loop {
            if self.aborted {
                return Ok(0);
            }
            match &lp.steps[i] {
                LStep::Visit => return Ok(1),
                LStep::Define { slot, body, derived } => {
                    slots[*slot as usize] = eval_define(lp, space, *derived, body, slots)?;
                    i += 1;
                }
                LStep::Check { constraint, body } => {
                    if !self.ignore_checks && eval_check(lp, space, *constraint, body, slots)? {
                        return Ok(0);
                    }
                    i += 1;
                }
                LStep::Bind { .. } => {
                    return Ok(self.entry_at(i, slots)?.total());
                }
            }
        }
    }

    /// The feasible-domain entry of the loop level at step `i` under the
    /// bound prefix in `slots`: answered from the footprint cache when the
    /// footprint values match a previous subtree, computed (and cached)
    /// otherwise.
    fn entry_at(
        &mut self,
        i: usize,
        slots: &mut Vec<i64>,
    ) -> Result<Arc<LevelEntry>, EvalError> {
        let fp = Arc::clone(&self.footprints[i]);
        let key: (usize, Box<[i64]>) =
            (i, fp.iter().map(|&s| slots[s as usize]).collect());
        if let Some(e) = self.memo.get(&key) {
            self.stats.cache_hits += 1;
            return Ok(Arc::clone(e));
        }
        self.stats.cache_misses += 1;

        let lp = self.lp;
        let space = lp.plan.space();
        let LStep::Bind { slot, iter, domain, .. } = &lp.steps[i] else {
            unreachable!("entry_at is only called on Bind steps")
        };
        let (slot, iter) = (*slot, *iter);

        let realized = match domain {
            LIter::Range { start, stop, step } => Realized::Range {
                start: start.eval(slots)?,
                stop: stop.eval(slots)?,
                step: step.eval(slots)?,
            },
            LIter::Values(v) => {
                Realized::Values(v.iter().map(|&x| Value::Int(x)).collect())
            }
            LIter::Opaque { .. } => {
                let view = SlotView {
                    names: &lp.slot_names,
                    slots,
                    consts: space.consts(),
                };
                space.realize_iter(iter, &view)?
            }
        };
        let len = realized.len();
        let level = self.level_of[&i];

        // Abstract pre-pass over the level's run, with the loop variable
        // abstracted to its whole realized domain. A decided rejection
        // proves the level empty outright.
        let mut entry = LevelEntry::default();
        let mut residue_skipped = 0u64;
        let dom = domain_product(&realized)?;
        let whole_rejected = !self.ignore_checks
            && len > 0
            && match &dom {
                Some((iv, cg)) => self.run_rejects(i, slots, slot, *iv, *cg),
                None => false,
            };
        // Uniform-level shortcut: when nothing after this bind reads the
        // bound slot (checks included — in tuple mode they are excluded
        // from footprints because they never run), every value has the
        // same subtree count: recurse once and replicate.
        let uniform =
            len > 0 && self.footprints[i + 1].binary_search(&slot).is_err();
        if whole_rejected {
            self.stats.domains_rejected += 1;
        } else if uniform {
            self.stats.enumerated += 1;
            if self.stats.enumerated > self.budget.max_enumerated {
                self.aborted = true;
            } else {
                slots[slot as usize] = realized.nth_value(0).expect("len > 0").as_int()?;
                let c = self.count_from(i + 1, slots)?;
                if c > 0 {
                    let mut cum = 0u128;
                    entry.values.reserve(len);
                    for k in 0..len {
                        let v = realized.nth_value(k).expect("index in range").as_int()?;
                        cum = cum.saturating_add(c);
                        entry.values.push((v, cum));
                    }
                }
            }
        } else {
            // Residue-class filtering: test each residue class of the
            // domain against the run once; values in rejected classes are
            // skipped without recursion.
            let rejected_classes = if self.ignore_checks {
                None
            } else {
                self.rejected_residue_classes(i, slots, slot, &realized, &dom)?
            };
            let mut cum = 0u128;
            for k in 0..len {
                let v = realized.nth_value(k).expect("index in range").as_int()?;
                if let Some((m, rej)) = &rejected_classes {
                    if rej.contains(&v.rem_euclid(*m)) {
                        residue_skipped += 1;
                        continue;
                    }
                }
                self.stats.enumerated += 1;
                if self.stats.enumerated > self.budget.max_enumerated {
                    self.aborted = true;
                    break;
                }
                slots[slot as usize] = v;
                let c = self.count_from(i + 1, slots)?;
                if c > 0 {
                    cum = cum.saturating_add(c);
                    entry.values.push((v, cum));
                }
            }
        }

        let entry = Arc::new(entry);
        if !self.aborted {
            let lvl = &mut self.stats.levels[level];
            lvl.entries += 1;
            lvl.domain_values += len as u64;
            lvl.feasible_values += entry.len() as u64;
            lvl.residue_skipped += residue_skipped;
            if self.memo.len() < self.budget.max_memo_entries {
                self.memo.insert(key, Arc::clone(&entry));
            } else {
                self.aborted = true;
            }
        }
        Ok(entry)
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
        bind_slot: u32,
        x_iv: Interval,
        x_cg: Congruence,
    ) -> bool {
        let lp = self.lp;
        let mut iv_env: Vec<Interval> =
            slots.iter().map(|&v| Interval::point(v)).collect();
        let mut cg_env: Vec<Congruence> =
            slots.iter().map(|&v| Congruence::point(v)).collect();
        iv_env[bind_slot as usize] = x_iv;
        cg_env[bind_slot as usize] = x_cg;
        let mut stack: Vec<Product> = Vec::new();
        let mut run_clean = true;
        for (j, step) in lp.steps.iter().enumerate().skip(bind_step + 1) {
            match step {
                LStep::Bind { .. } | LStep::Visit => break,
                LStep::Define { slot, body, .. } => match body {
                    LBody::Expr(_) => {
                        let prog = self.progs[j].as_ref().expect("expr body compiled");
                        let (o, cg) = eval_product(prog, &iv_env, &cg_env, &mut stack);
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
                        let (o, cg) = eval_product(prog, &iv_env, &cg_env, &mut stack);
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

    /// Residue classes of the level's domain rejected by the abstract run.
    /// Returns `Some((modulus, rejected residues))` when filtering applies,
    /// `None` when no profitable modulus exists.
    fn rejected_residue_classes(
        &mut self,
        bind_step: usize,
        slots: &[i64],
        bind_slot: u32,
        realized: &Realized,
        dom: &Option<(Interval, Congruence)>,
    ) -> Result<Option<(i64, HashSet<i64>)>, EvalError> {
        let Some((dom_iv, _)) = dom else { return Ok(None) };
        // Combine the concrete values of every candidate divisor into one
        // modulus (lcm, capped): testing classes mod the lcm decides every
        // individual `%` check at once.
        let mut modulus: i64 = 1;
        for d in &self.rem_divisors[bind_step] {
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
            return Ok(None);
        }

        // Residue classes the domain actually visits.
        let classes: Vec<i64> = match realized {
            Realized::Range { start, step, .. } => {
                let g = gcd(step.unsigned_abs().min(i64::MAX as u64) as i64, modulus);
                let period = (modulus / g) as u64;
                if period > MAX_RESIDUE_CLASSES || period as usize >= realized.len() {
                    return Ok(None);
                }
                (0..period)
                    .map(|t| (start.rem_euclid(modulus) + t as i64 * g) % modulus)
                    .collect()
            }
            Realized::Values(vs) => {
                let mut set = BTreeSet::new();
                for v in vs {
                    set.insert(v.as_int()?.rem_euclid(modulus));
                }
                if set.len() as u64 > MAX_RESIDUE_CLASSES || set.len() >= vs.len() {
                    return Ok(None);
                }
                set.into_iter().collect()
            }
        };

        let mut rejected = HashSet::new();
        for c in classes {
            let cg = Congruence { m: modulus, r: c.rem_euclid(modulus) };
            if self.run_rejects(bind_step, slots, bind_slot, *dom_iv, cg) {
                self.stats.residue_classes_pruned += 1;
                rejected.insert(c);
            }
        }
        Ok((!rejected.is_empty()).then_some((modulus, rejected)))
    }
}

/// Concrete evaluation of a define body (expression or deferred closure).
fn eval_define(
    lp: &LoweredPlan,
    space: &crate::space::Space,
    derived: usize,
    body: &LBody,
    slots: &[i64],
) -> Result<i64, EvalError> {
    match body {
        LBody::Expr(e) => e.eval(slots),
        LBody::Opaque => {
            let view = SlotView { names: &lp.slot_names, slots, consts: space.consts() };
            space.deriveds()[derived].kind.eval(&view)?.as_int()
        }
    }
}

/// Concrete evaluation of a check body; `true` means reject.
fn eval_check(
    lp: &LoweredPlan,
    space: &crate::space::Space,
    constraint: usize,
    body: &LBody,
    slots: &[i64],
) -> Result<bool, EvalError> {
    match body {
        LBody::Expr(e) => Ok(e.eval(slots)? != 0),
        LBody::Opaque => {
            let view = SlotView { names: &lp.slot_names, slots, consts: space.consts() };
            space.constraints()[constraint].kind.rejects(&view)
        }
    }
}

/// The whole-domain abstraction of a realized domain: value hull interval
/// plus the exact progression congruence. `None` for an empty domain.
fn domain_product(realized: &Realized) -> Result<Option<(Interval, Congruence)>, EvalError> {
    let len = realized.len();
    if len == 0 {
        return Ok(None);
    }
    match realized {
        Realized::Range { start, step, .. } => {
            let first = *start;
            let last = start.wrapping_add((len as i64 - 1).wrapping_mul(*step));
            let iv = Interval::new(first, last);
            let cg = cg_of_bind(Congruence::point(first), Congruence::point(*step));
            Ok(Some((iv, cg)))
        }
        Realized::Values(vs) => {
            let mut ints = Vec::with_capacity(vs.len());
            for v in vs {
                ints.push(v.as_int()?);
            }
            let (lo, hi) = (
                ints.iter().copied().min().expect("nonempty"),
                ints.iter().copied().max().expect("nonempty"),
            );
            Ok(Some((Interval::new(lo, hi), cg_of_values(&ints))))
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
    use crate::space::Space;

    fn lower(space: &Arc<Space>) -> LoweredPlan {
        let plan = Plan::new(space, PlanOptions::default()).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    /// Brute-force survivor count by walking the plan recursively.
    fn brute_force(lp: &LoweredPlan) -> u128 {
        fn walk(lp: &LoweredPlan, i: usize, slots: &mut Vec<i64>) -> u128 {
            let space = lp.plan.space();
            match &lp.steps[i] {
                LStep::Visit => 1,
                LStep::Define { slot, body, derived } => {
                    slots[*slot as usize] =
                        eval_define(lp, space, *derived, body, slots).unwrap();
                    walk(lp, i + 1, slots)
                }
                LStep::Check { constraint, body } => {
                    if eval_check(lp, space, *constraint, body, slots).unwrap() {
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
                            let view = SlotView {
                                names: &lp.slot_names,
                                slots,
                                consts: space.consts(),
                            };
                            space.realize_iter(*iter, &view).unwrap()
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
    fn level_entry_pick_is_a_weighted_inverse() {
        let entry = LevelEntry { values: vec![(10, 2), (20, 3), (40, 7)] };
        assert_eq!(entry.total(), 7);
        assert_eq!(entry.count_at(0), 2);
        assert_eq!(entry.count_at(1), 1);
        assert_eq!(entry.count_at(2), 4);
        let picks: Vec<(i64, u128)> = (0..7).map(|i| entry.pick(i)).collect();
        assert_eq!(
            picks,
            vec![(10, 0), (10, 1), (20, 0), (40, 0), (40, 1), (40, 2), (40, 3)]
        );
        assert_eq!(entry.position_of(20), Some(1));
        assert_eq!(entry.position_of(30), None);
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
}
