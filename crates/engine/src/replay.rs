//! Replay, engine side: evaluate the subtree under a loop nothing reads
//! *once*, then re-emit its survivors for every other value of the loop.
//!
//! The level plan ([`LevelPlan::replayable`]) marks the loops whose slot no
//! later step reads. Every iteration of such a loop runs the same
//! body on the same inputs: the same checks reject, the same guards skip,
//! the same points survive — only the loop's own slot differs in what the
//! visitor sees. So the compiled engine runs the body for the first value
//! with a *recording* open ([`Log::open`]), logging the slot row of every
//! survivor it emits ([`Log::record`]), and at the loop's `Next`
//! ([`Log::close`]) patches the loop slot in the logged rows and visits them
//! again, in order, once per remaining value. The additive counters
//! ([`PruneStats`], [`BlockStats`]) advance by exactly what
//! the first pass added, times the values replayed — the closed-form credit
//! that keeps every funnel row bit-identical to enumeration.
//!
//! # Nesting without copying
//!
//! Recordings nest (GEMM opens five). When an inner loop closes while an
//! outer recording is still open, the points it replayed are *not* appended
//! to the log: its rows stay where they are and a [`Repeat`] descriptor —
//! which rows, which slot, which values — is left beside them, in pre-order.
//! An outer replay walks rows and descriptors recursively, so the log holds
//! each *evaluated* survivor once and a replay costs one slot patch and one
//! visit per emitted point.
//!
//! # Decline or abandon, never guess
//!
//! The engine opens no recording with a fault injector attached (injected
//! faults are keyed on per-point visit ordinals). A recording whose body
//! recorded a [`FaultRecord`](crate::fault::FaultRecord) is abandoned at its
//! `Next` together with every recording around it, and the remaining values
//! enumerate — each reproduces the fault with its own bindings, exactly as
//! without replay. A log that would outgrow its fixed cap is abandoned the
//! same way; loops entered afterwards record afresh, so memory stays
//! bounded however large the space.

use std::ops::Range;

use beast_core::analyze::levels::LevelPlan;

use crate::stats::{BlockStats, PruneStats};

/// Row-log capacity in slots (`i64`s) per interpreter state — 512 KiB. The
/// GEMM spaces the benchmark sweeps peak two orders of magnitude below it.
const LOG_CAP: usize = 1 << 16;

/// The per-loop replay table of a compiled program, plus the log cap its
/// runs record under.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    loops: Vec<bool>,
    cap: usize,
}

impl Table {
    /// The table of a plan's levels in its final step order (see
    /// [`LevelPlan::replayable`]: never loop 0, nothing opaque below).
    pub(crate) fn build(levels: &[LevelPlan]) -> Table {
        Table { loops: levels.iter().map(|l| l.replayable).collect(), cap: LOG_CAP }
    }

    /// Does loop `l` replay?
    #[inline]
    pub(crate) fn replays(&self, l: usize) -> bool {
        self.loops[l]
    }

    /// The same table recording under a different cap.
    #[cfg(test)]
    pub(crate) fn with_cap(self, cap: usize) -> Table {
        Table { cap, ..self }
    }

    /// The same program with replay declined everywhere.
    #[cfg(test)]
    pub(crate) fn declined(self) -> Table {
        Table { loops: vec![false; self.loops.len()], ..self }
    }

    /// A fresh, empty log for one interpreter state over `width` slots.
    pub(crate) fn new_log(&self, width: usize) -> Log {
        Log {
            width,
            cap: self.cap,
            open: Vec::new(),
            snaps: Vec::new(),
            rows: Vec::new(),
            repeats: Vec::new(),
            values: Vec::new(),
        }
    }
}

/// One open recording: the first pass of a replayable loop's body.
#[derive(Debug)]
struct Recording {
    loop_id: u32,
    /// First row of this recording's segment of the log.
    row0: u32,
    /// Where this recording's descriptors start: its own placeholder when
    /// an outer recording is open, its body's descriptors otherwise.
    repeat0: u32,
    /// Start of its counter snapshot in [`Log::snaps`].
    snap0: u32,
    /// Fault records the state held when the recording opened.
    faults: usize,
}

/// "These rows were emitted once per value": what an inner replay leaves
/// in the log for the recordings around it.
#[derive(Debug, Clone)]
struct Repeat {
    /// The rows the inner loop's first pass recorded.
    rows: Range<u32>,
    /// The inner loop's slot.
    slot: u32,
    /// Every value the inner loop took, the first included, in
    /// [`Log::values`].
    values: Range<u32>,
    /// One past the last descriptor nested inside `rows`.
    end: u32,
}

/// How a recording ended (see [`Log::close`]).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Closed {
    /// The recording was abandoned: advance the loop as if it never opened.
    Declined,
    /// Every remaining value was replayed; the loop slot's exit value.
    Replayed(i64),
    /// The cancel probe tripped mid-replay.
    Cancelled,
}

/// The recordings of one interpreter state.
#[derive(Debug)]
pub(crate) struct Log {
    /// Slots per row.
    width: usize,
    /// Most slots `rows` (and values `values`) may hold.
    cap: usize,
    /// Open recordings, innermost last.
    open: Vec<Recording>,
    /// Counter snapshots of the open recordings, stacked.
    snaps: Vec<u64>,
    /// Slot rows of the survivors evaluated while a recording was open.
    rows: Vec<i64>,
    /// Descriptors over `rows`, pre-order.
    repeats: Vec<Repeat>,
    /// Value arena of the descriptors.
    values: Vec<i64>,
}

/// Apply `f` to every additive counter, in one fixed order; the flag marks
/// the one that saturates. `loops_replayed` / `rows_replayed` are left out
/// on purpose: they count replays where they execute and are never scaled.
fn for_each_counter(
    stats: &mut PruneStats,
    blocks: &mut BlockStats,
    mut f: impl FnMut(&mut u64, bool),
) {
    stats.evaluated.iter_mut().for_each(|c| f(c, false));
    stats.pruned.iter_mut().for_each(|c| f(c, false));
    f(&mut stats.survivors, false);
    f(&mut blocks.guard_runs, false);
    f(&mut blocks.subtree_skips, false);
    f(&mut blocks.congruence_skips, false);
    f(&mut blocks.points_skipped, true);
    f(&mut blocks.checks_elided, false);
    f(&mut blocks.loops_solved, false);
    f(&mut blocks.points_solved, false);
}

/// Add `(now − snap) × times` to every counter: the closed-form credit for
/// `times` more passes that each count exactly what the recorded one did.
fn scale_since(snap: &[u64], times: u64, stats: &mut PruneStats, blocks: &mut BlockStats) {
    let mut snap = snap.iter();
    for_each_counter(stats, blocks, |c, saturates| {
        let delta = *c - snap.next().expect("snapshot covers every counter");
        *c = if saturates {
            c.saturating_add(delta.saturating_mul(times))
        } else {
            *c + delta * times
        };
    });
}

/// Write `v` into `slot` of every row of `seg`.
fn patch(rows: &mut [i64], width: usize, seg: Range<u32>, slot: u32, v: i64) {
    for r in seg {
        rows[r as usize * width + slot as usize] = v;
    }
}

/// Visit the rows of `seg` as they stand, in order. Returns the visits made,
/// `None` once `visit` reports a cancel.
fn emit_rows(
    rows: &[i64],
    width: usize,
    seg: Range<u32>,
    visit: &mut impl FnMut(&[i64]) -> bool,
) -> Option<u64> {
    for r in seg.clone() {
        if visit(&rows[r as usize * width..][..width]) {
            return None;
        }
    }
    Some(u64::from(seg.end - seg.start))
}

/// Visit the points the rows of `seg` stand for, in emission order: plain
/// rows once, the rows of each descriptor in `nested` once per value of its
/// loop — patched to that value first, and expanded recursively. Each
/// descriptor's values include the first, so a segment left on its loop's
/// last value by one pass starts the next pass right.
fn emit_segment(
    rows: &mut [i64],
    width: usize,
    repeats: &[Repeat],
    values: &[i64],
    seg: Range<u32>,
    nested: Range<u32>,
    visit: &mut impl FnMut(&[i64]) -> bool,
) -> Option<u64> {
    let mut n = 0u64;
    let (mut r, mut d) = (seg.start, nested.start);
    while d < nested.end {
        let rep = &repeats[d as usize];
        n += emit_rows(rows, width, r..rep.rows.start, visit)?;
        for &v in &values[rep.values.start as usize..rep.values.end as usize] {
            patch(rows, width, rep.rows.clone(), rep.slot, v);
            n += emit_segment(
                rows,
                width,
                repeats,
                values,
                rep.rows.clone(),
                d + 1..rep.end,
                visit,
            )?;
        }
        (r, d) = (rep.rows.end, rep.end);
    }
    n += emit_rows(rows, width, r..seg.end, visit)?;
    Some(n)
}

impl Log {
    /// Is the innermost open recording loop `loop_id`'s?
    #[inline]
    pub(crate) fn is_open(&self, loop_id: u32) -> bool {
        self.open.last().is_some_and(|r| r.loop_id == loop_id)
    }

    /// Log the slot row of a survivor the engine just evaluated. Free when
    /// nothing is recording; abandons every recording when the log is full.
    #[inline]
    pub(crate) fn record(&mut self, slots: &[i64]) {
        if self.open.is_empty() {
            return;
        }
        if self.rows.len() + slots.len() > self.cap {
            self.clear();
            return;
        }
        self.rows.extend_from_slice(slots);
    }

    /// Drop every open recording and everything logged for them.
    fn clear(&mut self) {
        self.open.clear();
        self.snaps.clear();
        self.rows.clear();
        self.repeats.clear();
        self.values.clear();
    }

    /// Open a recording for loop `loop_id`, about to run its body for the
    /// first value: snapshot the counters and note where its rows start.
    pub(crate) fn open(
        &mut self,
        loop_id: u32,
        faults: usize,
        stats: &mut PruneStats,
        blocks: &mut BlockStats,
    ) {
        let rec = Recording {
            loop_id,
            row0: (self.rows.len() / self.width) as u32,
            repeat0: self.repeats.len() as u32,
            snap0: self.snaps.len() as u32,
            faults,
        };
        if !self.open.is_empty() {
            // Pre-order: reserve this loop's descriptor ahead of the ones
            // its body will leave; `close` fills it in or takes it back.
            self.repeats.push(Repeat { rows: 0..0, slot: 0, values: 0..0, end: 0 });
        }
        let snaps = &mut self.snaps;
        for_each_counter(stats, blocks, |c, _| snaps.push(*c));
        self.open.push(rec);
    }

    /// End loop `rec`'s recording at its `Next`, the body having run for
    /// `first`: replay the logged survivors for every value `next_value`
    /// still yields (draining the loop exactly as advancing it would), then
    /// credit the counters with what the first pass added, once per value
    /// replayed. `faults` is the state's current fault-record count; `visit`
    /// receives each replayed row and returns `true` to cancel.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn close(
        &mut self,
        slot: u32,
        first: i64,
        faults: usize,
        mut next_value: impl FnMut() -> Option<i64>,
        stats: &mut PruneStats,
        blocks: &mut BlockStats,
        mut visit: impl FnMut(&[i64]) -> bool,
    ) -> Closed {
        let rec = self.open.pop().expect("close follows is_open");
        if faults != rec.faults {
            // The body faulted: every other value must fault for itself.
            self.clear();
            return Closed::Declined;
        }
        let nested = !self.open.is_empty();
        let seg = rec.row0..(self.rows.len() / self.width) as u32;
        let inner = rec.repeat0 + u32::from(nested)..self.repeats.len() as u32;
        // An enclosing recording will replay this loop too: keep its values.
        let keep = nested && !seg.is_empty();
        let values0 = self.values.len() as u32;
        if keep {
            self.values.push(first);
        }
        let (mut last, mut times, mut emitted, mut overflow) = (first, 0u64, 0u64, false);
        while let Some(v) = next_value() {
            (last, times) = (v, times + 1);
            if !seg.is_empty() {
                patch(&mut self.rows, self.width, seg.clone(), slot, v);
                let n = emit_segment(
                    &mut self.rows,
                    self.width,
                    &self.repeats,
                    &self.values,
                    seg.clone(),
                    inner.clone(),
                    &mut visit,
                );
                let Some(n) = n else { return Closed::Cancelled };
                emitted += n;
            }
            if keep && self.values.len() < self.cap {
                self.values.push(v);
            } else {
                overflow |= keep;
            }
        }
        scale_since(&self.snaps[rec.snap0 as usize..], times, stats, blocks);
        self.snaps.truncate(rec.snap0 as usize);
        blocks.loops_replayed += 1;
        blocks.rows_replayed += emitted;
        if !nested || overflow {
            // Outermost: the log has served its purpose. Overflow: this
            // loop replayed correctly, the recordings around it cannot.
            self.clear();
        } else if keep {
            self.repeats[rec.repeat0 as usize] = Repeat {
                rows: seg,
                slot,
                values: values0..self.values.len() as u32,
                end: self.repeats.len() as u32,
            };
        } else {
            self.repeats.truncate(rec.repeat0 as usize);
        }
        Closed::Replayed(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loop nest in miniature, driven through the same protocol the
    /// engine uses: loop `l` runs `lens[l]` values into slot `l`; a leaf
    /// survives unless `reject` says otherwise, and counts one evaluation
    /// (and `l + 1` skipped points, to exercise the saturating counter).
    struct Model {
        lens: Vec<i64>,
        replays: Vec<bool>,
        reject: fn(&[i64]) -> bool,
        log: Log,
        out: Vec<Vec<i64>>,
        stats: PruneStats,
        blocks: BlockStats,
    }

    impl Model {
        fn descend(&mut self, l: usize, slots: &mut Vec<i64>) {
            if l == self.lens.len() {
                let rejected = (self.reject)(slots);
                self.stats.record(0, rejected);
                self.blocks.points_skipped =
                    self.blocks.points_skipped.saturating_add(slots.len() as u64);
                if !rejected {
                    self.stats.record_survivor();
                    self.log.record(slots);
                    self.out.push(slots.clone());
                }
                return;
            }
            let len = self.lens[l];
            if len == 0 {
                return;
            }
            let recording = self.replays[l] && len >= 2;
            if recording {
                self.log.open(l as u32, 0, &mut self.stats, &mut self.blocks);
            }
            slots[l] = 0;
            self.descend(l + 1, slots);
            let mut next = 1;
            if recording && self.log.is_open(l as u32) {
                let out = &mut self.out;
                let closed = self.log.close(
                    l as u32,
                    0,
                    0,
                    || {
                        let v = next;
                        next += 1;
                        (v < len).then_some(v)
                    },
                    &mut self.stats,
                    &mut self.blocks,
                    |row| {
                        out.push(row.to_vec());
                        false
                    },
                );
                assert_eq!(closed, Closed::Replayed(len - 1));
                slots[l] = len - 1;
                return;
            }
            for v in next..len {
                slots[l] = v;
                self.descend(l + 1, slots);
            }
        }
    }

    fn run(lens: &[i64], replays: &[bool], reject: fn(&[i64]) -> bool, cap: usize) -> Model {
        let table = Table { loops: replays.to_vec(), cap };
        let mut m = Model {
            lens: lens.to_vec(),
            replays: replays.to_vec(),
            reject,
            log: table.new_log(lens.len()),
            out: Vec::new(),
            stats: PruneStats::new(1),
            blocks: BlockStats::default(),
        };
        m.descend(0, &mut vec![0; lens.len()]);
        assert!(m.log.open.is_empty() && m.log.rows.is_empty() && m.log.snaps.is_empty());
        assert!(m.log.repeats.is_empty() && m.log.values.is_empty());
        m
    }

    /// Replay against plain enumeration of the same nest: same points in
    /// the same order, same counters, and the two replay counters account
    /// for exactly the survivors that were not evaluated.
    fn assert_replay_is_invisible(lens: &[i64], replays: &[bool], reject: fn(&[i64]) -> bool, cap: usize) {
        let plain = run(lens, &vec![false; lens.len()], reject, cap);
        let replayed = run(lens, replays, reject, cap);
        let at = format!("lens {lens:?} replays {replays:?} cap {cap}");
        assert_eq!(replayed.out, plain.out, "{at}");
        assert_eq!(replayed.stats, plain.stats, "{at}");
        assert_eq!(
            BlockStats { loops_replayed: 0, rows_replayed: 0, ..replayed.blocks },
            plain.blocks,
            "{at}"
        );
        assert!(replayed.blocks.rows_replayed <= replayed.stats.survivors, "{at}");
        if cap == usize::MAX {
            // A replayable loop of two or more values that is ever entered.
            let entered = (0..lens.len())
                .any(|l| replays[l] && lens[l] >= 2 && lens[..l].iter().all(|len| *len > 0));
            assert_eq!(replayed.blocks.loops_replayed > 0, entered, "{at}");
        }
    }

    // The predicates read only slots 0 and 2, which no shape below replays.
    fn keep_all(_: &[i64]) -> bool {
        false
    }
    fn odd_sum(s: &[i64]) -> bool {
        (s[0] + s[2]) % 2 != 0
    }
    fn reject_all(_: &[i64]) -> bool {
        true
    }

    #[test]
    fn replay_is_invisible_on_every_nest_shape() {
        let f = false;
        let t = true;
        let shapes: &[(&[i64], &[bool])] = &[
            (&[3, 2, 4], &[f, t, f]),          // depth 1, survivors below
            (&[3, 2, 4, 5], &[f, f, f, t]),    // innermost: the body is the visit
            (&[2, 2, 3, 2, 2], &[f, t, f, t, t]), // adjacent run and a non-adjacent nest
            (&[2, 3, 2, 2, 3, 2], &[f, t, f, t, t, t]), // runs of 1 and 3 around a read loop
            (&[2, 4, 3, 3], &[f, t, f, t]),    // longer replayed domains
            (&[3, 1, 2, 2], &[f, t, f, t]),    // length 1 never records
            (&[3, 2, 0, 2], &[f, t, f, t]),    // an empty loop below a recording
            (&[3, 0, 2, 2], &[f, t, f, t]),    // an empty replayable loop
        ];
        for (lens, replays) in shapes {
            for reject in [keep_all as fn(&[i64]) -> bool, odd_sum, reject_all] {
                assert_replay_is_invisible(lens, replays, reject, usize::MAX);
            }
        }
    }

    #[test]
    fn a_full_log_abandons_the_open_recordings_and_changes_nothing() {
        let lens: &[i64] = &[2, 3, 4, 2, 3];
        let replays = &[false, true, false, true, true];
        let unbounded = run(lens, replays, keep_all, usize::MAX);
        for cap in [0, 5, 10, 25, 60, 200] {
            assert_replay_is_invisible(lens, replays, keep_all, cap);
            assert_replay_is_invisible(lens, replays, odd_sum, cap);
        }
        // A cap of five slots holds one row: the innermost loop (one row
        // per pass) still replays, the loops around it cannot.
        let tight = run(lens, replays, keep_all, 5);
        assert!(tight.blocks.loops_replayed > 0);
        assert!(tight.blocks.rows_replayed < unbounded.blocks.rows_replayed);
        assert_eq!(run(lens, replays, keep_all, 0).blocks.loops_replayed, 0);
    }

    #[test]
    fn nested_replays_are_stored_once_and_expanded_on_demand() {
        // Two adjacent binary loops over a four-value read loop: the outer
        // recording holds 4 evaluated rows and one descriptor, not 8 rows.
        let mut m = Model {
            lens: vec![1, 2, 2, 4],
            replays: vec![false, true, true, false],
            reject: keep_all,
            log: Table { loops: vec![], cap: usize::MAX }.new_log(4),
            out: Vec::new(),
            stats: PruneStats::new(1),
            blocks: BlockStats::default(),
        };
        // Drive loop 1's first pass by hand to look at the log mid-flight.
        let mut slots = vec![0i64; 4];
        m.log.open(1, 0, &mut m.stats, &mut m.blocks);
        m.descend(2, &mut slots);
        assert_eq!(m.log.rows.len(), 4 * 4, "inner replay must not copy rows");
        assert_eq!(m.log.repeats.len(), 1);
        assert_eq!(m.log.values, [0, 1]);
        assert_eq!(m.blocks.loops_replayed, 1);
        assert_eq!(m.blocks.rows_replayed, 4);
        assert_eq!(m.stats.survivors, 8);
        let mut replayed = Vec::new();
        let mut pending = Some(1i64);
        let closed = m.log.close(
            1,
            0,
            0,
            || pending.take(),
            &mut m.stats,
            &mut m.blocks,
            |row| {
                replayed.push(row.to_vec());
                false
            },
        );
        assert_eq!(closed, Closed::Replayed(1));
        let want: Vec<Vec<i64>> =
            (0..2).flat_map(|b| (0..4).map(move |x| vec![0, 1, b, x])).collect();
        assert_eq!(replayed, want);
        // Counted where they happen: one more replay event and its 8 rows,
        // not the inner event times two.
        assert_eq!((m.blocks.loops_replayed, m.blocks.rows_replayed), (2, 12));
        assert_eq!(m.stats.survivors, 16);
        assert_eq!(m.stats.evaluated, [16]);
    }

    #[test]
    fn counters_scale_by_the_recorded_delta_and_saturate_where_marked() {
        let mut stats = PruneStats { evaluated: vec![10, 0], pruned: vec![4, 0], survivors: 3 };
        let mut blocks = BlockStats {
            guard_runs: 2,
            points_skipped: u64::MAX - 10,
            checks_elided: 7,
            loops_replayed: 5,
            rows_replayed: 6,
            ..BlockStats::default()
        };
        let mut snap = Vec::new();
        for_each_counter(&mut stats, &mut blocks, |c, _| snap.push(*c));
        assert_eq!(snap.len(), 2 + 2 + 1 + 7);
        stats.evaluated[0] += 5;
        blocks.guard_runs += 3;
        stats.pruned[0] += 2;
        stats.survivors += 3;
        blocks.points_skipped += 4;
        blocks.checks_elided += 1;
        blocks.loops_replayed += 9;
        scale_since(&snap, 3, &mut stats, &mut blocks);
        assert_eq!(stats.evaluated, [10 + 5 * 4, 0]);
        assert_eq!(stats.pruned, [4 + 2 * 4, 0]);
        assert_eq!(stats.survivors, 3 + 3 * 4);
        assert_eq!(blocks.points_skipped, u64::MAX);
        assert_eq!(blocks.checks_elided, 7 + 4);
        assert_eq!(blocks.guard_runs, 2 + 3 * 4);
        assert_eq!((blocks.loops_replayed, blocks.rows_replayed), (14, 6), "never scaled");
    }

    #[test]
    fn a_body_that_recorded_a_fault_or_a_tripped_probe_ends_the_replay() {
        let table = Table { loops: vec![], cap: usize::MAX };
        let (mut stats, mut blocks) = (PruneStats::new(0), BlockStats::default());
        // Two recordings open; the inner one's body pushed a fault record.
        let mut log = table.new_log(2);
        log.open(1, 0, &mut stats, &mut blocks);
        log.open(2, 0, &mut stats, &mut blocks);
        log.record(&[7, 0]);
        let closed = log.close(
            1,
            0,
            1,
            || panic!("an abandoned loop is advanced by the engine, not drained here"),
            &mut stats,
            &mut blocks,
            |_| panic!("nothing may be replayed"),
        );
        assert_eq!(closed, Closed::Declined);
        assert!(!log.is_open(1) && !log.is_open(2) && log.rows.is_empty());
        assert_eq!(blocks, BlockStats::default());

        // A cancel reported by the visit callback stops at that row.
        let mut log = table.new_log(2);
        log.open(1, 0, &mut stats, &mut blocks);
        log.record(&[7, 0]);
        log.record(&[8, 0]);
        let mut values = 1..4i64;
        let mut seen = 0;
        let closed = log.close(
            1,
            0,
            0,
            || values.next(),
            &mut stats,
            &mut blocks,
            |_| {
                seen += 1;
                seen == 3
            },
        );
        assert_eq!((closed, seen), (Closed::Cancelled, 3));
    }

    #[test]
    fn the_table_follows_the_recogniser_and_a_declined_one_replays_nothing() {
        use beast_core::constraint::ConstraintClass;
        use beast_core::expr::var;
        use beast_core::plan::{Plan, PlanOptions};
        use beast_core::space::Space;
        // All level 0, so loop order is definition order: o, u, x, w.
        let space = Space::builder("replay_table")
            .range("o", 0, 3)
            .range("u", 0, 2)
            .range("x", 0, 5)
            .range("w", 0, 2)
            .constraint("ox", ConstraintClass::Soft, (var("o") + var("x")).gt(5))
            .build()
            .unwrap();
        let lp = LoweredPlan::new(&Plan::new(&space, PlanOptions::default()).unwrap()).unwrap();
        let table = Table::build(&beast_core::analyze::levels::levels(&lp).levels);
        let replays: Vec<bool> = (0..lp.n_loops()).map(|l| table.replays(l)).collect();
        assert_eq!(replays, [false, true, false, true]);
        let declined = table.clone().declined();
        assert!((0..lp.n_loops()).all(|l| !declined.replays(l)));
        assert_eq!(table.with_cap(9).new_log(4).cap, 9);
    }

    // ---- engine level: `Compiled` with the table on, declined, capped ----

    use std::sync::Arc;

    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::{lit, var};
    use beast_core::ir::LoweredPlan;
    use beast_core::plan::{LoopOrder, Plan, PlanOptions};
    use beast_core::space::{Space, SpaceBuilder};

    use crate::compiled::{ChunkCtx, Compiled, EngineOptions};
    use crate::fault::{CancelProbe, CancelToken, FaultPolicy};
    use crate::visit::{CollectVisitor, CountVisitor};
    use crate::walker::SweepOutcome;

    fn lowered_in(b: SpaceBuilder, order: &[&str]) -> LoweredPlan {
        let space = b.build().unwrap();
        let order = LoopOrder::Explicit(order.iter().map(|s| s.to_string()).collect());
        let plan = Plan::new(&space, PlanOptions { order, ..PlanOptions::default() }).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    /// GEMM in miniature: unread binary loops above a narrowed pair, a
    /// threshold block, an unread loop directly above a filtering one, and
    /// unread innermost loops.
    fn shapes() -> Vec<(&'static str, LoweredPlan)> {
        let x = || var("x");
        let o = || var("o");
        vec![
            (
                "runs_around_a_narrowed_pair",
                lowered_in(
                    Space::builder("r1")
                        .range("o", 1, 5)
                        .range("u1", 0, 2)
                        .range("u2", 0, 2)
                        .range("p", 1, 7)
                        .range("u3", 0, 3)
                        .range("x", 1, lit(13) / var("p") + 1)
                        .constraint("px", ConstraintClass::Correctness, (var("p") * x()).ne(12))
                        .derived("t", x() * o())
                        .constraint("big", ConstraintClass::Hard, var("t").gt(30))
                        .range("v", 0, 3),
                    &["o", "u1", "u2", "p", "u3", "x", "v"],
                ),
            ),
            (
                "above_a_filter_loop_and_innermost",
                lowered_in(
                    Space::builder("r2")
                        .range("o", 0, 4)
                        .list("u", [5i64, -2, 9])
                        .range("y", 0, 12)
                        .constraint("oy", ConstraintClass::Soft, ((var("y") + o()) % 3).eq(0))
                        .range("w", 0, 9),
                    &["o", "u", "y", "w"],
                ),
            ),
            (
                "run_time_bounds_negative_steps_and_empties",
                lowered_in(
                    Space::builder("r3")
                        .range("o", 0, 5)
                        .range_step("u", o() + 3, o(), -1)
                        .range("e", 0, o() - 2)
                        .range("x", 0, 6)
                        .constraint("xo", ConstraintClass::Soft, ((x() + o()) % 2).eq(0))
                        .range("one", 4, 5),
                    &["o", "u", "e", "x", "one"],
                ),
            ),
        ]
    }

    fn run_all(c: &Compiled) -> SweepOutcome<CollectVisitor> {
        c.run(CollectVisitor::new(c.point_names().clone(), usize::MAX)).unwrap()
    }

    fn quiet(b: BlockStats) -> BlockStats {
        BlockStats { loops_replayed: 0, rows_replayed: 0, ..b }
    }

    #[test]
    fn the_replaying_engine_equals_the_declined_engine_on_every_counter() {
        let options = [
            EngineOptions::default(),
            EngineOptions::no_intervals(),
            EngineOptions { min_guard_fanout: 1, ..EngineOptions::default() },
        ];
        for (name, lp) in shapes() {
            for opts in options {
                let on = Compiled::with_options(lp.clone(), opts);
                let off = Compiled::with_options(lp.clone(), opts).map_replay(Table::declined);
                let (a, b) = (run_all(&on), run_all(&off));
                let at = format!("{name} under {}", opts.signature());
                assert!(a.stats.survivors > 0, "{at}: empty space proves nothing");
                assert_eq!(a.visitor.points, b.visitor.points, "{at}: survivors / order");
                assert_eq!(a.stats, b.stats, "{at}: PruneStats");
                assert_eq!(quiet(a.blocks), b.blocks, "{at}: BlockStats");
                assert!(a.blocks.loops_replayed > 0, "{at}: nothing replayed");
                assert!(a.blocks.rows_replayed < a.stats.survivors, "{at}: nothing evaluated");
                assert_eq!((b.blocks.loops_replayed, b.blocks.rows_replayed), (0, 0), "{at}");
                // Chunk by chunk (loop 0 dealt one value at a time) the
                // counters fold to the same totals.
                let mut blocks = BlockStats::default();
                for v in on.outer_domain().unwrap() {
                    blocks.merge(&on.run_outer_chunk(&[v], CountVisitor::default()).unwrap().blocks);
                }
                assert_eq!(blocks, a.blocks, "{at}: chunk-grid invariance");
            }
        }
    }

    #[test]
    fn a_tiny_cap_changes_nothing_but_the_replay_counters() {
        for (name, lp) in shapes() {
            let full = run_all(&Compiled::new(lp.clone()));
            let width = lp.n_slots as usize;
            for rows in [0, 1, 2, 5] {
                let capped = Compiled::new(lp.clone()).map_replay(|t| t.with_cap(rows * width));
                let out = run_all(&capped);
                let at = format!("{name} capped at {rows} row(s)");
                assert_eq!(out.visitor.points, full.visitor.points, "{at}");
                assert_eq!(out.stats, full.stats, "{at}");
                assert_eq!(quiet(out.blocks), quiet(full.blocks), "{at}");
                assert!(out.blocks.rows_replayed <= full.blocks.rows_replayed, "{at}");
            }
        }
    }

    #[test]
    fn a_cancel_during_replay_is_noticed_there() {
        // One level-0 value, one unread loop of 5000: after the first body
        // pass every remaining point is a replayed row, so a tripped probe
        // can only be noticed inside the replay (the two `Next`s poll twice,
        // far below the cadence).
        let lp = lowered_in(
            Space::builder("cancel").range("o", 0, 1).range("u", 0, 5000),
            &["o", "u"],
        );
        let c = Compiled::new(lp);
        assert_eq!(c.run(CountVisitor::default()).unwrap().blocks.rows_replayed, 4999);
        let token = Arc::new(CancelToken::new());
        token.cancel();
        let probe = CancelProbe::new(Some(token), None);
        let ctx = ChunkCtx {
            policy: FaultPolicy::Abort,
            injector: None,
            chunk: 0,
            attempt: 0,
            cancel: Some(&probe),
        };
        let run = c.run_loops(Some(&[0]), CountVisitor::default(), &ctx);
        assert!(matches!(run, Err(beast_core::error::EvalError::Cancelled)));
    }
}
