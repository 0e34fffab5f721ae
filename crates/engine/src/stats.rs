//! Pruning statistics: how much of the search space each constraint removes.
//!
//! The paper motivates aggressive pruning ("sometimes by as much as 99%",
//! Section VI) and reports the GEMM sweep counts; the companion work \[7\]
//! visualizes how constraints carve the space. This module records, per
//! constraint, how many tuples it evaluated and how many it rejected, and
//! renders a textual pruning funnel.

use std::fmt::Write as _;

use beast_core::constraint::ConstraintClass;
use beast_core::space::Space;

use crate::fault::{FaultAction, FaultKind, FaultRecord};

/// Per-constraint pruning counters for one sweep.
///
/// The per-constraint split depends on *check order*: within a run of
/// checks, the first rejecting constraint gets the kill credit and later
/// ones are never evaluated for that tuple. Every backend runs the declared
/// order, so with block pruning off the rows equal the walker's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Times each constraint was evaluated (indexed like
    /// [`Space::constraints`]).
    pub evaluated: Vec<u64>,
    /// Times each constraint rejected the current tuple.
    pub pruned: Vec<u64>,
    /// Number of surviving points.
    pub survivors: u64,
}

/// Counters for the interval-based block pruner (subtree skips and check
/// elisions). Kept separate from [`PruneStats`] so the per-constraint
/// funnel stays directly comparable across backends that do not block-prune
/// (walker, VM, generated code): elided checks are still *counted* as
/// evaluated-and-passed in `PruneStats`, and only genuinely skipped
/// subtrees make `evaluated` totals diverge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Guard verdicts: one per run of a loop's interval × congruence guard
    /// program (every verdict, skip or not). Scaled through replay like the
    /// other additive counters, so it counts what a full enumeration would
    /// have run and is chunk-grid invariant.
    pub guard_runs: u64,
    /// Loop subtrees skipped because a constraint was statically false
    /// (always rejecting) over the remaining subdomain.
    pub subtree_skips: u64,
    /// Subset of `subtree_skips` decided only by the congruence half of
    /// the reduced product (the interval hull alone was inconclusive) —
    /// divisibility pruning.
    pub congruence_skips: u64,
    /// Lower-bound estimate of points never enumerated thanks to subtree
    /// skips: skipped domain length × statically known inner fanout.
    pub points_skipped: u64,
    /// Per-point check evaluations avoided because a constraint was
    /// statically true (never rejecting) over the remaining subdomain.
    pub checks_elided: u64,
    /// Loop entries *solved* instead of enumerated: the loop's first check
    /// was a reject-unless-equal predicate affine in the loop variable, so
    /// the at most one passing value was computed in closed form (see
    /// `beast_core::analyze::narrow`). The check is still credited in
    /// [`PruneStats`] as evaluated once per value of the realized range.
    /// An entry its parent solved in closed form, without entering it,
    /// counts the same.
    pub loops_solved: u64,
    /// Loop values covered by those solved entries (the sum of their
    /// realized range lengths) — check evaluations credited, not executed.
    pub points_solved: u64,
    /// Replay events: a loop whose variable nothing below it reads ran its
    /// body for the first value only, and the survivors that pass recorded
    /// were re-emitted for every other value (see `crate::replay`). Counted
    /// where a replay executes — never scaled by an enclosing replay — so
    /// the number is exact and chunk-grid invariant.
    pub loops_replayed: u64,
    /// Survivor visits emitted from a recording instead of by evaluation;
    /// `PruneStats::survivors` minus this is the number of survivors the
    /// engine actually evaluated.
    pub rows_replayed: u64,
}

impl BlockStats {
    /// Merge counters from another sweep chunk (parallel workers).
    pub fn merge(&mut self, other: &BlockStats) {
        self.guard_runs += other.guard_runs;
        self.subtree_skips += other.subtree_skips;
        self.congruence_skips += other.congruence_skips;
        self.points_skipped = self.points_skipped.saturating_add(other.points_skipped);
        self.checks_elided += other.checks_elided;
        self.loops_solved += other.loops_solved;
        self.points_solved += other.points_solved;
        self.loops_replayed += other.loops_replayed;
        self.rows_replayed += other.rows_replayed;
    }

    /// The `block pruning:` line of sweep and funnel reports; `None` when
    /// no guard ran and narrowing and replay had nothing to do.
    pub fn render_line(&self) -> Option<String> {
        let active = self.guard_runs > 0
            || self.subtree_skips > 0
            || self.checks_elided > 0
            || self.loops_solved > 0
            || self.loops_replayed > 0;
        active.then(|| {
            format!(
                "block pruning: {} guard runs, \
                 {} subtree skips ({} by congruence, ≥ {} points never enumerated), \
                 {} checks elided, {} loops solved ({} values never enumerated), \
                 {} loops replayed ({} survivors re-emitted)",
                self.guard_runs,
                self.subtree_skips,
                self.congruence_skips,
                self.points_skipped,
                self.checks_elided,
                self.loops_solved,
                self.points_solved,
                self.loops_replayed,
                self.rows_replayed
            )
        })
    }
}

/// Per-policy fault counters for one sweep, aggregated from the structured
/// [`FaultRecord`] list the supervisor collects. Like the other stats these
/// are deterministic for a pinned chunk grid, so they can be asserted in
/// tests and compared across thread counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Points dropped under [`FaultPolicy::SkipPoint`](crate::fault::FaultPolicy).
    pub points_skipped: u64,
    /// Chunks dropped (quarantine policy, escalated skip-point faults, or
    /// retries running out).
    pub chunks_quarantined: u64,
    /// Chunk attempts re-run under [`FaultPolicy::Retry`](crate::fault::FaultPolicy)
    /// (in-process) or re-dealt after a worker-process fault (distributed).
    pub retries: u64,
    /// Panics caught at the chunk boundary.
    pub panics: u64,
    /// Worker processes launched by the distributed supervisor, including
    /// replacements ([`crate::distribute`]; zero for in-process sweeps).
    pub workers_spawned: u64,
    /// Replacement workers spawned after a worker died, stalled, or lied.
    pub worker_restarts: u64,
    /// Shards re-dealt to another worker after a worker-level fault
    /// (the [`FaultKind::is_worker`] subset of `retries`).
    pub shards_retried: u64,
    /// Workers killed because their heartbeat/read deadline expired.
    pub heartbeat_timeouts: u64,
}

impl FaultCounters {
    /// Aggregate the counters from a record list. `workers_spawned` and
    /// `worker_restarts` describe supervisor activity rather than faults, so
    /// they are not derivable from records — the distributed supervisor sets
    /// them after this.
    pub fn from_records(records: &[FaultRecord]) -> FaultCounters {
        let mut c = FaultCounters::default();
        for r in records {
            match r.action {
                FaultAction::SkippedPoint => c.points_skipped += 1,
                FaultAction::QuarantinedChunk => c.chunks_quarantined += 1,
                FaultAction::Retried => c.retries += 1,
            }
            if r.kind == FaultKind::Panic {
                c.panics += 1;
            }
            if r.kind.is_worker() && r.action == FaultAction::Retried {
                c.shards_retried += 1;
            }
            if r.kind == FaultKind::WorkerTimeout {
                c.heartbeat_timeouts += 1;
            }
        }
        c
    }

    /// Total number of recorded faults this summarizes.
    pub fn total(&self) -> u64 {
        self.points_skipped + self.chunks_quarantined + self.retries
    }
}

impl PruneStats {
    /// Fresh counters for a space with `n_constraints` constraints.
    pub fn new(n_constraints: usize) -> PruneStats {
        PruneStats {
            evaluated: vec![0; n_constraints],
            pruned: vec![0; n_constraints],
            survivors: 0,
        }
    }

    /// Record one constraint evaluation.
    #[inline]
    pub fn record(&mut self, constraint: usize, rejected: bool) {
        self.evaluated[constraint] += 1;
        self.pruned[constraint] += u64::from(rejected);
    }

    /// Record one survivor.
    #[inline]
    pub fn record_survivor(&mut self) {
        self.survivors += 1;
    }

    /// Total rejections across all constraints.
    pub fn total_pruned(&self) -> u64 {
        self.pruned.iter().sum()
    }

    /// Merge counters from another sweep chunk (parallel workers).
    pub fn merge(&mut self, other: &PruneStats) {
        assert_eq!(self.evaluated.len(), other.evaluated.len());
        for (a, b) in self.evaluated.iter_mut().zip(&other.evaluated) {
            *a += b;
        }
        for (a, b) in self.pruned.iter_mut().zip(&other.pruned) {
            *a += b;
        }
        self.survivors += other.survivors;
    }

    /// Kill rate of constraint `i`: rejected / evaluated (0 when never run).
    pub fn kill_rate(&self, i: usize) -> f64 {
        if self.evaluated[i] == 0 {
            0.0
        } else {
            self.pruned[i] as f64 / self.evaluated[i] as f64
        }
    }

    /// Overall pruning fraction: rejections / (rejections + survivors).
    ///
    /// With hoisted constraints a single rejection removes many raw tuples,
    /// so this understates the raw-space pruning factor; it measures work
    /// actually done, which is the quantity the engines optimize.
    pub fn pruned_fraction(&self) -> f64 {
        let total = self.total_pruned() + self.survivors;
        if total == 0 {
            0.0
        } else {
            self.total_pruned() as f64 / total as f64
        }
    }

    /// Render the pruning funnel as a text table, one row per constraint in
    /// plan order, with class, evaluations, rejections and kill rate.
    pub fn render_funnel(&self, space: &Space) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:<12} {:>14} {:>14} {:>9}",
            "constraint", "class", "evaluated", "pruned", "kill%"
        );
        let _ = writeln!(out, "{}", "-".repeat(78));
        for (i, c) in space.constraints().iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<24} {:<12} {:>14} {:>14} {:>8.2}%",
                c.name,
                c.class.to_string(),
                self.evaluated[i],
                self.pruned[i],
                100.0 * self.kill_rate(i)
            );
        }
        let _ = writeln!(out, "{}", "-".repeat(78));
        let _ = writeln!(
            out,
            "survivors: {}   rejected tuples: {}   pruned fraction: {:.2}%",
            self.survivors,
            self.total_pruned(),
            100.0 * self.pruned_fraction()
        );
        out
    }

    /// Totals per constraint class: (evaluated, pruned).
    pub fn per_class(&self, space: &Space) -> Vec<(ConstraintClass, u64, u64)> {
        let mut classes: Vec<(ConstraintClass, u64, u64)> = Vec::new();
        for (i, c) in space.constraints().iter().enumerate() {
            match classes.iter_mut().find(|(cl, _, _)| *cl == c.class) {
                Some((_, e, p)) => {
                    *e += self.evaluated[i];
                    *p += self.pruned[i];
                }
                None => classes.push((c.class, self.evaluated[i], self.pruned[i])),
            }
        }
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::expr::var;
    use beast_core::space::Space;

    #[test]
    fn record_and_rates() {
        let mut s = PruneStats::new(2);
        s.record(0, true);
        s.record(0, false);
        s.record(1, true);
        s.record_survivor();
        assert_eq!(s.evaluated, vec![2, 1]);
        assert_eq!(s.pruned, vec![1, 1]);
        assert_eq!(s.kill_rate(0), 0.5);
        assert_eq!(s.total_pruned(), 2);
        assert!((s.pruned_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = PruneStats::new(1);
        a.record(0, true);
        a.record_survivor();
        let mut b = PruneStats::new(1);
        b.record(0, false);
        b.record_survivor();
        a.merge(&b);
        assert_eq!(a.evaluated, vec![2]);
        assert_eq!(a.pruned, vec![1]);
        assert_eq!(a.survivors, 2);
    }

    #[test]
    fn funnel_renders_rows() {
        let space = Space::builder("f")
            .range("x", 0, 10)
            .constraint(
                "odd",
                ConstraintClass::Soft,
                (var("x") % 2).ne(0),
            )
            .build()
            .unwrap();
        let mut s = PruneStats::new(1);
        for x in 0..10 {
            s.record(0, x % 2 != 0);
            if x % 2 == 0 {
                s.record_survivor();
            }
        }
        let text = s.render_funnel(&space);
        assert!(text.contains("odd"));
        assert!(text.contains("soft"));
        assert!(text.contains("50.00%"));
        assert!(text.contains("survivors: 5"));
        let per_class = s.per_class(&space);
        assert_eq!(per_class, vec![(ConstraintClass::Soft, 10, 5)]);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = PruneStats::new(0);
        assert_eq!(s.total_pruned(), 0);
        assert_eq!(s.pruned_fraction(), 0.0);
    }
}
