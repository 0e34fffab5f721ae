//! Sweep telemetry: a machine-readable account of what a parallel sweep did
//! and where the time went.
//!
//! The paper reports *aggregate* numbers (total sweep time, total survivors,
//! §XI); this module records the breakdown that explains them — per-constraint
//! and per-DAG-level prune counters, per-worker wall time and chunk counts
//! under the dynamic scheduler, and overall throughput — as a [`SweepReport`]
//! that renders both as a text table and as JSON (hand-rolled, std-only: the
//! build environment cannot vendor `serde`).
//!
//! Live progress during a sweep is exposed through [`SweepProgress`], a block
//! of atomic counters that workers bump after every chunk; any monitor thread
//! may poll [`SweepProgress::snapshot`] without perturbing the hot path.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use beast_core::analyze::diagnostics::json_escape_into;
use beast_core::analyze::LintSummary;
use beast_core::space::Space;

use crate::fault::FaultRecord;
use crate::stats::{BlockStats, FaultCounters, PruneStats};

/// Shared progress counters for a running sweep.
///
/// Workers update these with relaxed atomics once per completed chunk (never
/// per point), so polling them costs the sweep nothing measurable.
#[derive(Debug, Default)]
pub struct SweepProgress {
    /// Chunks fully processed so far.
    pub chunks_done: AtomicUsize,
    /// Total chunks in this sweep (set once before workers start).
    pub chunks_total: AtomicUsize,
    /// Tuples decided so far: survivors plus constraint rejections.
    pub tuples_decided: AtomicU64,
}

/// One point-in-time view of a sweep's progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Chunks fully processed.
    pub chunks_done: usize,
    /// Total chunks.
    pub chunks_total: usize,
    /// Tuples decided (survivors + rejections).
    pub tuples_decided: u64,
}

impl SweepProgress {
    /// Read all counters at once.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            chunks_done: self.chunks_done.load(Ordering::Relaxed),
            chunks_total: self.chunks_total.load(Ordering::Relaxed),
            tuples_decided: self.tuples_decided.load(Ordering::Relaxed),
        }
    }

    /// Completed fraction in `[0, 1]` (0 when the total is not yet known).
    pub fn fraction_done(&self) -> f64 {
        let s = self.snapshot();
        if s.chunks_total == 0 {
            0.0
        } else {
            s.chunks_done as f64 / s.chunks_total as f64
        }
    }
}

/// What one worker thread did during a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerTelemetry {
    /// Worker index (0-based).
    pub worker: usize,
    /// Chunks this worker pulled from the shared queue.
    pub chunks: u64,
    /// Wall time spent inside chunk evaluation.
    pub busy: Duration,
    /// Constraint evaluations this worker performed.
    pub evaluated: u64,
    /// Survivors this worker visited.
    pub survivors: u64,
}

/// Pruning counters for one constraint, annotated with its DAG level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintTelemetry {
    /// Constraint name.
    pub name: String,
    /// Constraint class (`hard` / `soft` / `correctness` / `generic`).
    pub class: String,
    /// DAG level the planner hoisted the check to (0 = outermost).
    pub level: usize,
    /// Times evaluated.
    pub evaluated: u64,
    /// Times it rejected the tuple.
    pub pruned: u64,
}

impl ConstraintTelemetry {
    /// Rejections per evaluation (0 when never evaluated).
    pub fn kill_rate(&self) -> f64 {
        if self.evaluated == 0 {
            0.0
        } else {
            self.pruned as f64 / self.evaluated as f64
        }
    }
}

/// Pruning counters aggregated over all constraints hoisted to one DAG
/// level — the "how early do we cut" view of the funnel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelTelemetry {
    /// DAG level (0 = outermost, evaluated least often per raw tuple).
    pub level: usize,
    /// Constraint evaluations at this level.
    pub evaluated: u64,
    /// Rejections at this level.
    pub pruned: u64,
}

impl LevelTelemetry {
    /// Rejections per evaluation at this level (0 when never evaluated).
    pub fn kill_rate(&self) -> f64 {
        if self.evaluated == 0 {
            0.0
        } else {
            self.pruned as f64 / self.evaluated as f64
        }
    }
}

/// Machine-readable record of one parallel sweep: configuration, pruning
/// funnel, per-worker load, and throughput.
///
/// Produced by [`crate::sweep::sweep`], printed by
/// `repro threads` / `repro sweep`, and read by the `benchmark/` probes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Space name.
    pub space: String,
    /// Worker threads requested.
    pub threads: usize,
    /// Values in the realized level-0 domain.
    pub outer_len: usize,
    /// Level-0 values per scheduler chunk.
    pub chunk_len: usize,
    /// Number of chunks the domain was split into.
    pub chunks: usize,
    /// End-to-end sweep wall time.
    pub elapsed: Duration,
    /// Surviving points.
    pub survivors: u64,
    /// Total constraint evaluations.
    pub evaluated: u64,
    /// Total rejections.
    pub pruned: u64,
    /// Loop subtrees skipped by the interval block pruner (0 with
    /// `--no-intervals` or when nothing was statically decidable).
    pub subtree_skips: u64,
    /// Subset of `subtree_skips` decided only by the congruence half of
    /// the reduced product (0 with `--no-congruence`).
    pub congruence_skips: u64,
    /// Lower-bound estimate of raw tuples never enumerated thanks to
    /// subtree skips.
    pub points_skipped: u64,
    /// Per-point constraint evaluations elided because the check was
    /// statically true over its subtree (still counted in `evaluated`).
    pub checks_elided: u64,
    /// Interval × congruence guard verdicts (see
    /// [`BlockStats::guard_runs`]; 0 with `--no-intervals`).
    pub guard_runs: u64,
    /// Loop entries solved in closed form instead of enumerated (their
    /// first check was a reject-unless-equal predicate affine in the loop
    /// variable; see [`BlockStats::loops_solved`]).
    pub loops_solved: u64,
    /// Loop values those solved entries covered — check evaluations
    /// credited to `evaluated` without being executed.
    pub points_solved: u64,
    /// Replay events: loops nothing below reads, whose body ran for the
    /// first value only (see [`BlockStats::loops_replayed`]).
    pub loops_replayed: u64,
    /// Survivor visits re-emitted from a recording instead of evaluated.
    pub rows_replayed: u64,
    /// Chunks satisfied from the sub-sweep cache instead of re-enumeration
    /// (0 unless the sweep ran under `crate::service`'s memo).
    pub cache_hits: u64,
    /// Chunks that consulted the sub-sweep cache and missed (0 when no
    /// cache was attached).
    pub cache_misses: u64,
    /// Space-linter summary recorded at engine compile time (`None` when
    /// the lint gate is `Allow`).
    pub lint: Option<LintSummary>,
    /// Per-constraint rows, in plan order.
    pub constraints: Vec<ConstraintTelemetry>,
    /// Per-DAG-level aggregation, ascending by level.
    pub levels: Vec<LevelTelemetry>,
    /// Per-worker load, ascending by worker index.
    pub workers: Vec<WorkerTelemetry>,
    /// True when the sweep stopped early (cancel, deadline, or a simulated
    /// kill) and the outcome covers only a prefix of the chunk grid; a
    /// checkpointed partial sweep can be resumed to completion.
    pub partial: bool,
    /// Chunk index the sweep resumed from (`None` for a fresh run).
    pub resumed_at: Option<usize>,
    /// Name of the fault policy the sweep ran with.
    pub fault_policy: String,
    /// Aggregated per-policy fault counters.
    pub fault_counters: FaultCounters,
    /// Structured fault records, merged in chunk order.
    pub faults: Vec<FaultRecord>,
    /// Runtime-native tier counters (`None` when the tier was not active:
    /// not requested, or preparation fell back to the in-process engine).
    pub native: Option<crate::native::NativeStats>,
}

impl SweepReport {
    /// Assemble a report from merged sweep statistics plus scheduler and
    /// worker bookkeeping.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        space: &Space,
        stats: &PruneStats,
        blocks: &BlockStats,
        threads: usize,
        outer_len: usize,
        chunk_len: usize,
        chunks: usize,
        elapsed: Duration,
        workers: Vec<WorkerTelemetry>,
        lint: Option<LintSummary>,
    ) -> SweepReport {
        let dag = space.dag();
        let constraints: Vec<ConstraintTelemetry> = space
            .constraints()
            .iter()
            .enumerate()
            .map(|(i, c)| ConstraintTelemetry {
                name: c.name.to_string(),
                class: c.class.to_string(),
                level: dag.level(space.constraint_node(i)),
                evaluated: stats.evaluated[i],
                pruned: stats.pruned[i],
            })
            .collect();
        let mut levels: Vec<LevelTelemetry> = Vec::new();
        for c in &constraints {
            match levels.iter_mut().find(|l| l.level == c.level) {
                Some(l) => {
                    l.evaluated += c.evaluated;
                    l.pruned += c.pruned;
                }
                None => levels.push(LevelTelemetry {
                    level: c.level,
                    evaluated: c.evaluated,
                    pruned: c.pruned,
                }),
            }
        }
        levels.sort_by_key(|l| l.level);
        SweepReport {
            space: space.name().to_string(),
            threads,
            outer_len,
            chunk_len,
            chunks,
            elapsed,
            survivors: stats.survivors,
            evaluated: stats.evaluated.iter().sum(),
            pruned: stats.pruned.iter().sum(),
            subtree_skips: blocks.subtree_skips,
            congruence_skips: blocks.congruence_skips,
            points_skipped: blocks.points_skipped,
            checks_elided: blocks.checks_elided,
            guard_runs: blocks.guard_runs,
            loops_solved: blocks.loops_solved,
            points_solved: blocks.points_solved,
            loops_replayed: blocks.loops_replayed,
            rows_replayed: blocks.rows_replayed,
            cache_hits: 0,
            cache_misses: 0,
            lint,
            constraints,
            levels,
            workers,
            partial: false,
            resumed_at: None,
            fault_policy: "abort".to_string(),
            fault_counters: FaultCounters::default(),
            faults: Vec::new(),
            native: None,
        }
    }

    /// Tuples decided per second: (survivors + rejections) / elapsed.
    ///
    /// Sub-microsecond elapsed times (trivial spaces, timer granularity)
    /// are noise, not throughput; they return 0 instead of a huge or
    /// infinite rate leaking into JSON.
    pub fn tuples_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs < 1e-6 {
            0.0
        } else {
            (self.survivors + self.pruned) as f64 / secs
        }
    }

    /// Load imbalance across workers: max busy time / mean busy time.
    ///
    /// 1.0 is a perfectly balanced sweep; under the old static
    /// one-chunk-per-thread split, DAG-hoisted pruning routinely pushed this
    /// past 2 on skewed spaces (one thread serializing the sweep).
    pub fn imbalance(&self) -> f64 {
        if self.workers.is_empty() {
            return 1.0;
        }
        let busys: Vec<f64> = self.workers.iter().map(|w| w.busy.as_secs_f64()).collect();
        let max = busys.iter().cloned().fold(0.0f64, f64::max);
        let mean = busys.iter().sum::<f64>() / busys.len() as f64;
        // Near-zero mean busy time (trivial spaces finish inside timer
        // granularity) would turn the ratio into noise, inf, or NaN;
        // report a perfectly balanced 1.0 instead.
        if mean < 1e-9 {
            1.0
        } else {
            max / mean
        }
    }

    /// Render as JSON (stable key order, no external dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        json_str(&mut out, "space", &self.space);
        out.push(',');
        json_int(&mut out, "threads", self.threads);
        out.push(',');
        json_int(&mut out, "outer_len", self.outer_len);
        out.push(',');
        json_int(&mut out, "chunk_len", self.chunk_len);
        out.push(',');
        json_int(&mut out, "chunks", self.chunks);
        out.push(',');
        json_num(&mut out, "elapsed_s", self.elapsed.as_secs_f64());
        out.push(',');
        json_num(&mut out, "tuples_per_sec", self.tuples_per_sec());
        out.push(',');
        json_int(&mut out, "survivors", self.survivors);
        out.push(',');
        json_int(&mut out, "evaluated", self.evaluated);
        out.push(',');
        json_int(&mut out, "pruned", self.pruned);
        out.push(',');
        json_int(&mut out, "subtree_skips", self.subtree_skips);
        out.push(',');
        json_int(&mut out, "congruence_skips", self.congruence_skips);
        out.push(',');
        json_int(&mut out, "points_skipped", self.points_skipped);
        out.push(',');
        json_int(&mut out, "checks_elided", self.checks_elided);
        out.push(',');
        json_int(&mut out, "guard_runs", self.guard_runs);
        out.push(',');
        json_int(&mut out, "loops_solved", self.loops_solved);
        out.push(',');
        json_int(&mut out, "points_solved", self.points_solved);
        out.push(',');
        json_int(&mut out, "loops_replayed", self.loops_replayed);
        out.push(',');
        json_int(&mut out, "rows_replayed", self.rows_replayed);
        out.push(',');
        json_int(&mut out, "cache_hits", self.cache_hits);
        out.push(',');
        json_int(&mut out, "cache_misses", self.cache_misses);
        out.push(',');
        json_num(&mut out, "imbalance", self.imbalance());
        out.push_str(",\"native\":");
        match self.native {
            Some(n) => {
                // Exact decimal integers, never through f64.
                out.push_str("{\"compile_ms\":");
                out.push_str(&n.compile_ms.to_string());
                out.push_str(",\"artifact_cache_hits\":");
                out.push_str(&n.artifact_cache_hits.to_string());
                out.push_str(",\"chunks_native\":");
                out.push_str(&n.chunks_native.to_string());
                out.push_str(",\"rows_streamed\":");
                out.push_str(&n.rows_streamed.to_string());
                out.push_str(",\"chunks_fallback\":");
                out.push_str(&n.chunks_fallback.to_string());
                out.push_str(",\"workers_spawned\":");
                out.push_str(&n.workers_spawned.to_string());
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"partial\":");
        out.push_str(if self.partial { "true" } else { "false" });
        out.push_str(",\"resumed_at\":");
        match self.resumed_at {
            Some(c) => out.push_str(&c.to_string()),
            None => out.push_str("null"),
        }
        out.push(',');
        json_str(&mut out, "fault_policy", &self.fault_policy);
        out.push_str(",\"fault_counters\":{");
        json_int(&mut out, "points_skipped", self.fault_counters.points_skipped);
        out.push(',');
        json_int(&mut out, "chunks_quarantined", self.fault_counters.chunks_quarantined);
        out.push(',');
        json_int(&mut out, "retries", self.fault_counters.retries);
        out.push(',');
        json_int(&mut out, "panics", self.fault_counters.panics);
        out.push(',');
        json_int(&mut out, "workers_spawned", self.fault_counters.workers_spawned);
        out.push(',');
        json_int(&mut out, "worker_restarts", self.fault_counters.worker_restarts);
        out.push(',');
        json_int(&mut out, "shards_retried", self.fault_counters.shards_retried);
        out.push(',');
        json_int(&mut out, "heartbeat_timeouts", self.fault_counters.heartbeat_timeouts);
        out.push_str("},\"faults\":[");
        for (i, r) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            fault_record_json(&mut out, r);
        }
        out.push(']');
        out.push_str(",\"lint\":");
        match self.lint {
            Some(s) => {
                out.push('{');
                json_int(&mut out, "errors", s.errors);
                out.push(',');
                json_int(&mut out, "warnings", s.warnings);
                out.push(',');
                json_int(&mut out, "infos", s.infos);
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"constraints\":[");
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_str(&mut out, "name", &c.name);
            out.push(',');
            json_str(&mut out, "class", &c.class);
            out.push(',');
            json_int(&mut out, "level", c.level);
            out.push(',');
            json_int(&mut out, "evaluated", c.evaluated);
            out.push(',');
            json_int(&mut out, "pruned", c.pruned);
            out.push(',');
            json_num(&mut out, "kill_rate", c.kill_rate());
            out.push('}');
        }
        out.push_str("],\"levels\":[");
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_int(&mut out, "level", l.level);
            out.push(',');
            json_int(&mut out, "evaluated", l.evaluated);
            out.push(',');
            json_int(&mut out, "pruned", l.pruned);
            out.push(',');
            json_num(&mut out, "kill_rate", l.kill_rate());
            out.push('}');
        }
        out.push_str("],\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_int(&mut out, "worker", w.worker);
            out.push(',');
            json_int(&mut out, "chunks", w.chunks);
            out.push(',');
            json_num(&mut out, "busy_s", w.busy.as_secs_f64());
            out.push(',');
            json_int(&mut out, "evaluated", w.evaluated);
            out.push(',');
            json_int(&mut out, "survivors", w.survivors);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Render as a human-readable multi-table summary.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep `{}`: {} outer values in {} chunk(s) of {} on {} thread(s)",
            self.space, self.outer_len, self.chunks, self.chunk_len, self.threads
        );
        let _ = writeln!(
            out,
            "elapsed {:.3} s   {:.2} M tuples/s   survivors {}   pruned {}   imbalance {:.2}",
            self.elapsed.as_secs_f64(),
            self.tuples_per_sec() / 1e6,
            self.survivors,
            self.pruned,
            self.imbalance()
        );
        let blocks = BlockStats {
            guard_runs: self.guard_runs,
            subtree_skips: self.subtree_skips,
            congruence_skips: self.congruence_skips,
            points_skipped: self.points_skipped,
            checks_elided: self.checks_elided,
            loops_solved: self.loops_solved,
            points_solved: self.points_solved,
            loops_replayed: self.loops_replayed,
            rows_replayed: self.rows_replayed,
        };
        if let Some(line) = blocks.render_line() {
            let _ = writeln!(out, "{line}");
        }
        if self.cache_hits + self.cache_misses > 0 {
            let _ = writeln!(
                out,
                "sub-sweep cache: {} hit(s), {} miss(es)",
                self.cache_hits, self.cache_misses
            );
        }
        if let Some(n) = self.native {
            let _ = writeln!(
                out,
                "native tier: {} chunk(s) in worker processes ({} fallback), {} row(s) streamed, compile {} ms{}, {} worker(s) spawned",
                n.chunks_native,
                n.chunks_fallback,
                n.rows_streamed,
                n.compile_ms,
                if n.artifact_cache_hits > 0 { " (artifact cache hit)" } else { "" },
                n.workers_spawned
            );
        }
        if let Some(s) = self.lint {
            if s.errors + s.warnings + s.infos > 0 {
                let _ = writeln!(
                    out,
                    "lint: {} error(s), {} warning(s), {} info(s) — see `repro lint`",
                    s.errors, s.warnings, s.infos
                );
            }
        }
        if self.partial || self.resumed_at.is_some() {
            let _ = writeln!(
                out,
                "coverage: partial={}{}",
                self.partial,
                match self.resumed_at {
                    Some(c) => format!("   resumed at chunk {c}"),
                    None => String::new(),
                }
            );
        }
        if self.fault_counters.total() > 0 {
            let c = self.fault_counters;
            let _ = writeln!(
                out,
                "faults ({}): {} point(s) skipped, {} chunk(s) quarantined, {} retry(ies), {} panic(s)",
                self.fault_policy,
                c.points_skipped,
                c.chunks_quarantined,
                c.retries,
                c.panics
            );
        }
        if self.fault_counters.workers_spawned > 0 {
            let c = self.fault_counters;
            let _ = writeln!(
                out,
                "workers: {} spawned, {} restart(s), {} shard retry(ies), {} heartbeat timeout(s)",
                c.workers_spawned,
                c.worker_restarts,
                c.shards_retried,
                c.heartbeat_timeouts
            );
        }
        let _ = writeln!(
            out,
            "\n{:<24} {:<12} {:>5} {:>14} {:>14} {:>8}",
            "constraint", "class", "level", "evaluated", "pruned", "kill%"
        );
        for c in &self.constraints {
            let _ = writeln!(
                out,
                "{:<24} {:<12} {:>5} {:>14} {:>14} {:>7.2}%",
                c.name,
                c.class,
                c.level,
                c.evaluated,
                c.pruned,
                100.0 * c.kill_rate()
            );
        }
        let _ = writeln!(
            out,
            "\n{:<6} {:>14} {:>14} {:>8}",
            "level", "evaluated", "pruned", "kill%"
        );
        for l in &self.levels {
            let _ = writeln!(
                out,
                "{:<6} {:>14} {:>14} {:>7.2}%",
                l.level,
                l.evaluated,
                l.pruned,
                100.0 * l.kill_rate()
            );
        }
        let _ = writeln!(
            out,
            "\n{:<7} {:>7} {:>10} {:>14} {:>12}",
            "worker", "chunks", "busy s", "evaluated", "survivors"
        );
        for w in &self.workers {
            let _ = writeln!(
                out,
                "{:<7} {:>7} {:>10.3} {:>14} {:>12}",
                w.worker,
                w.chunks,
                w.busy.as_secs_f64(),
                w.evaluated,
                w.survivors
            );
        }
        out
    }
}

/// Append one [`FaultRecord`] as a JSON object (stable key order; shared by
/// the report serializer and the checkpoint writer).
pub(crate) fn fault_record_json(out: &mut String, r: &FaultRecord) {
    use std::fmt::Write as _;
    // Counters are written as exact decimal integers (never through f64,
    // which silently rounds above 2^53).
    let _ = write!(
        out,
        "{{\"chunk\":{},\"ordinal\":{},\"attempt\":{},",
        r.chunk, r.ordinal, r.attempt
    );
    json_str(out, "kind", r.kind.name());
    out.push(',');
    json_str(out, "action", r.action.name());
    out.push(',');
    json_str(out, "site", &r.site);
    out.push(',');
    json_str(out, "error", &r.error);
    out.push_str(",\"bindings\":[");
    for (i, (name, value)) in r.bindings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        json_str_value(out, name);
        let _ = write!(out, ",{value}]");
    }
    out.push_str("]}");
}

/// Append a bare escaped JSON string (no key).
pub(crate) fn json_str_value(out: &mut String, value: &str) {
    out.push('"');
    json_escape_into(out, value);
    out.push('"');
}

/// Append `"key":"escaped value"`.
pub(crate) fn json_str(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    json_str_value(out, value);
}

/// Append `"key":integer` for a counter: exact decimal, never through
/// `f64`, which rounds above 2^53.
pub(crate) fn json_int(out: &mut String, key: &str, value: impl std::fmt::Display) {
    use std::fmt::Write as _;
    let _ = write!(out, "\"{key}\":{value}");
}

/// Append `"key":number` for a real value (non-finite values become 0 —
/// JSON has no NaN).
pub(crate) fn json_num(out: &mut String, key: &str, value: f64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    if value.is_finite() {
        if value == value.trunc() && value.abs() < 9.0e15 {
            out.push_str(&format!("{}", value as i64));
        } else {
            out.push_str(&format!("{value}"));
        }
    } else {
        out.push('0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;

    fn sample_report() -> SweepReport {
        let space = Space::builder("tele")
            .constant("cap", 10)
            .range("a", 0, 8)
            .range("b", 0, 8)
            .derived("ab", var("a") * var("b"))
            .constraint("a_odd", ConstraintClass::Soft, (var("a") % 2).ne(0))
            .constraint("over", ConstraintClass::Hard, var("ab").gt(var("cap")))
            .build()
            .unwrap();
        let mut stats = PruneStats::new(2);
        for _ in 0..8 {
            stats.record(0, false);
        }
        for i in 0..64u64 {
            stats.record(1, i % 4 == 0);
            if i % 4 != 0 {
                stats.record_survivor();
            }
        }
        let workers = vec![
            WorkerTelemetry {
                worker: 0,
                chunks: 3,
                busy: Duration::from_millis(30),
                evaluated: 40,
                survivors: 24,
            },
            WorkerTelemetry {
                worker: 1,
                chunks: 2,
                busy: Duration::from_millis(10),
                evaluated: 32,
                survivors: 24,
            },
        ];
        let blocks = BlockStats {
            guard_runs: 11,
            subtree_skips: 3,
            congruence_skips: 1,
            points_skipped: 120,
            checks_elided: 5,
            loops_solved: 4,
            points_solved: 76,
            loops_replayed: 2,
            rows_replayed: 9,
        };
        SweepReport::new(
            &space,
            &stats,
            &blocks,
            2,
            8,
            2,
            4,
            Duration::from_millis(40),
            workers,
            Some(LintSummary { errors: 0, warnings: 2, infos: 5 }),
        )
    }

    /// Counters past 2^53 — a solved loop credits `entries · len` at once —
    /// come back from the JSON exactly: the top-level counters and every
    /// constraint and level row.
    #[test]
    fn counters_past_2_pow_53_are_exact_in_json() {
        use crate::checkpoint::JsonValue;
        use crate::sweep::{sweep, SweepSpec};
        use crate::visit::CountVisitor;
        use beast_core::ir::LoweredPlan;
        use beast_core::plan::{Plan, PlanOptions};

        let space = Space::builder("wide")
            .range("a", 0, 4)
            .range("x", 0, 1i64 << 60)
            .constraint("x7", ConstraintClass::Hard, var("x").ne(7))
            .build()
            .unwrap();
        let lp = LoweredPlan::new(&Plan::new(&space, PlanOptions::default()).unwrap()).unwrap();
        let (_, r) = sweep(&lp, &SweepSpec::new(1), CountVisitor::default).unwrap();
        assert_eq!((r.survivors, r.evaluated, r.pruned), (4, 1 << 62, (1 << 62) - 4));

        let json = JsonValue::parse(&r.to_json()).unwrap();
        let int = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_u64);
        let top = [r.survivors, r.evaluated, r.pruned, r.loops_solved, r.points_solved];
        let keys = ["survivors", "evaluated", "pruned", "loops_solved", "points_solved"];
        for (k, want) in keys.into_iter().zip(top) {
            assert_eq!(int(&json, k), Some(want), "{k}");
        }
        let rows = |k: &str| json.get(k).and_then(JsonValue::items).unwrap().to_vec();
        let constraints: Vec<_> = r.constraints.iter().map(|c| (c.evaluated, c.pruned)).collect();
        let levels: Vec<_> = r.levels.iter().map(|l| (l.evaluated, l.pruned)).collect();
        for (k, want) in [("constraints", constraints), ("levels", levels)] {
            let got: Vec<_> = (rows(k).iter())
                .map(|row| (int(row, "evaluated").unwrap(), int(row, "pruned").unwrap()))
                .collect();
            assert_eq!(got, want, "{k}");
        }
    }

    #[test]
    fn constraint_levels_come_from_the_dag() {
        let r = sample_report();
        // `a_odd` depends only on the level-0 iterator; `over` depends on a
        // derived of both iterators and sits deeper.
        let a_odd = r.constraints.iter().find(|c| c.name == "a_odd").unwrap();
        let over = r.constraints.iter().find(|c| c.name == "over").unwrap();
        assert!(a_odd.level < over.level);
        assert_eq!(a_odd.evaluated, 8);
        assert_eq!(over.pruned, 16);
    }

    #[test]
    fn levels_aggregate_constraints() {
        let r = sample_report();
        let total_eval: u64 = r.levels.iter().map(|l| l.evaluated).sum();
        assert_eq!(total_eval, r.evaluated);
        assert!(r.levels.windows(2).all(|w| w[0].level < w[1].level));
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let r = sample_report();
        // busy = 30ms and 10ms → mean 20ms → imbalance 1.5.
        assert!((r.imbalance() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let r = sample_report();
        let json = r.to_json();
        // Structural sanity without a JSON parser: balanced braces/brackets,
        // all sections present, no trailing commas.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"space\":\"tele\"",
            "\"threads\":2",
            "\"constraints\":[",
            "\"levels\":[",
            "\"workers\":[",
            "\"tuples_per_sec\":",
            "\"imbalance\":1.5",
            "\"busy_s\":0.03",
            "\"subtree_skips\":3",
            "\"congruence_skips\":1",
            "\"points_skipped\":120",
            "\"checks_elided\":5",
            "\"guard_runs\":11",
            "\"loops_solved\":4",
            "\"points_solved\":76",
            "\"loops_replayed\":2",
            "\"rows_replayed\":9",
            "\"lint\":{\"errors\":0,\"warnings\":2,\"infos\":5}",
            "\"partial\":false",
            "\"resumed_at\":null",
            "\"fault_policy\":\"abort\"",
            "\"fault_counters\":{\"points_skipped\":0,\"chunks_quarantined\":0,\"retries\":0,\"panics\":0,\"workers_spawned\":0,\"worker_restarts\":0,\"shards_retried\":0,\"heartbeat_timeouts\":0}",
            "\"faults\":[]",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains(",]") && !json.contains(",}"));
    }

    /// Fault fields serialize with a pinned shape: a populated record keeps
    /// the exact key order downstream tooling greps for, `resumed_at`
    /// switches from `null` to a number, and the text rendering surfaces
    /// the counters and coverage line.
    #[test]
    fn fault_fields_have_pinned_json_shape() {
        use crate::fault::{FaultAction, FaultKind, FaultRecord};
        let mut r = sample_report();
        r.partial = true;
        r.resumed_at = Some(4);
        r.fault_policy = "quarantine_chunk".to_string();
        r.faults.push(FaultRecord {
            chunk: 7,
            ordinal: 3,
            attempt: 1,
            kind: FaultKind::Error,
            action: FaultAction::QuarantinedChunk,
            site: "low_fmas".to_string(),
            error: "division by zero".to_string(),
            bindings: vec![("blk_m".to_string(), 96)],
        });
        r.faults.push(FaultRecord {
            chunk: 9,
            ordinal: 0,
            attempt: 0,
            kind: FaultKind::WorkerExit,
            action: FaultAction::Retried,
            site: "worker".to_string(),
            error: "worker exited: signal 9".to_string(),
            bindings: vec![],
        });
        r.fault_counters = crate::stats::FaultCounters::from_records(&r.faults);
        r.fault_counters.workers_spawned = 4;
        r.fault_counters.worker_restarts = 1;
        let json = r.to_json();
        assert!(json.contains("\"partial\":true"), "{json}");
        assert!(json.contains("\"resumed_at\":4"), "{json}");
        assert!(
            json.contains(
                "{\"chunk\":7,\"ordinal\":3,\"attempt\":1,\"kind\":\"error\",\
                 \"action\":\"quarantined_chunk\",\"site\":\"low_fmas\",\
                 \"error\":\"division by zero\",\"bindings\":[[\"blk_m\",96]]}"
            ),
            "fault record shape changed: {json}"
        );
        assert!(
            json.contains(
                "{\"chunk\":9,\"ordinal\":0,\"attempt\":0,\"kind\":\"worker_exit\",\
                 \"action\":\"retried\",\"site\":\"worker\",\
                 \"error\":\"worker exited: signal 9\",\"bindings\":[]}"
            ),
            "worker fault record shape changed: {json}"
        );
        assert!(json.contains("\"chunks_quarantined\":1"), "{json}");
        assert!(
            json.contains(
                "\"workers_spawned\":4,\"worker_restarts\":1,\
                 \"shards_retried\":1,\"heartbeat_timeouts\":0"
            ),
            "worker counter shape changed: {json}"
        );
        let text = r.render_text();
        assert!(text.contains("partial=true"), "{text}");
        assert!(text.contains("resumed at chunk 4"), "{text}");
        assert!(text.contains("1 chunk(s) quarantined"), "{text}");
        assert!(
            text.contains("workers: 4 spawned, 1 restart(s), 1 shard retry(ies), 0 heartbeat timeout(s)"),
            "{text}"
        );
    }

    /// The lint block degrades to an explicit `null` (not a missing key)
    /// when the gate skipped the analyzer, and the congruence, guard,
    /// narrowing and replay counters sit next to `subtree_skips` in the
    /// pinned key order.
    #[test]
    fn lint_block_and_congruence_counter_have_pinned_shape() {
        let mut r = sample_report();
        let json = r.to_json();
        assert!(
            json.contains(
                "\"subtree_skips\":3,\"congruence_skips\":1,\"points_skipped\":120,\
                 \"checks_elided\":5,\"guard_runs\":11,\"loops_solved\":4,\
                 \"points_solved\":76,\"loops_replayed\":2,\"rows_replayed\":9,\
                 \"cache_hits\""
            ),
            "block-pruning key order changed: {json}"
        );
        r.lint = None;
        let json = r.to_json();
        assert!(json.contains("\"lint\":null"), "{json}");
        let text = sample_report().render_text();
        assert!(
            text.contains("block pruning: 11 guard runs, 3 subtree skips (1 by congruence"),
            "{text}"
        );
        assert!(text.contains("5 checks elided, 4 loops solved (76 values never enumerated)"), "{text}");
        assert!(text.contains("2 loops replayed (9 survivors re-emitted)"), "{text}");
        assert!(text.contains("lint: 0 error(s), 2 warning(s), 5 info(s)"), "{text}");
    }

    /// Pin the serialized shape of a constraint row and a level row.
    #[test]
    fn constraint_and_level_rows_have_pinned_json_shape() {
        let json = sample_report().to_json();
        assert!(
            json.contains(
                "{\"name\":\"a_odd\",\"class\":\"soft\",\"level\":1,\"evaluated\":8,\
                 \"pruned\":0,\"kill_rate\":0}"
            ),
            "{json}"
        );
        // Levels carry a kill_rate (over: 16 pruned / 64 evaluated = 0.25).
        assert!(json.contains("\"pruned\":16,\"kill_rate\":0.25"), "{json}");
    }

    /// Near-zero elapsed/busy times must not leak inf/NaN into the report.
    #[test]
    fn trivial_sweeps_guard_against_non_finite_rates() {
        let mut r = sample_report();
        r.elapsed = Duration::ZERO;
        for w in &mut r.workers {
            w.busy = Duration::ZERO;
        }
        assert_eq!(r.tuples_per_sec(), 0.0);
        assert_eq!(r.imbalance(), 1.0);
        // Sub-microsecond times are timer noise, not throughput.
        r.elapsed = Duration::from_nanos(1);
        assert_eq!(r.tuples_per_sec(), 0.0);
        let json = r.to_json();
        // Non-finite numbers would appear as bare values after a colon
        // (`"infos"` is a legitimate key, so match the value position).
        assert!(!json.contains(":inf") && !json.contains(":NaN"), "{json}");
    }

    /// The counter run of the report JSON has a pinned shape: the cache
    /// counters are followed directly by `imbalance`.
    #[test]
    fn counter_run_has_pinned_json_shape() {
        let json = sample_report().to_json();
        assert!(
            json.contains("\"cache_hits\":0,\"cache_misses\":0,\"imbalance\":"),
            "counter key order changed: {json}"
        );
    }

    /// The native-tier block serializes with a pinned shape: `null` when
    /// the tier was inactive, a fixed-key-order object when it ran, keyed
    /// between `imbalance` and `partial`; active counters also surface in
    /// the text rendering.
    #[test]
    fn native_counters_have_pinned_json_shape() {
        let mut r = sample_report();
        let json = r.to_json();
        assert!(json.contains(",\"native\":null,\"partial\":"), "{json}");
        let text = r.render_text();
        assert!(!text.contains("native tier"), "{text}");
        r.native = Some(crate::native::NativeStats {
            compile_ms: 120,
            artifact_cache_hits: 1,
            chunks_native: 7,
            rows_streamed: 4096,
            chunks_fallback: 1,
            workers_spawned: 2,
        });
        let json = r.to_json();
        assert!(
            json.contains(
                ",\"native\":{\"compile_ms\":120,\"artifact_cache_hits\":1,\
                 \"chunks_native\":7,\"rows_streamed\":4096,\
                 \"chunks_fallback\":1,\"workers_spawned\":2},\"partial\":"
            ),
            "native counter key order changed: {json}"
        );
        let text = r.render_text();
        assert!(
            text.contains(
                "native tier: 7 chunk(s) in worker processes (1 fallback), \
                 4096 row(s) streamed, compile 120 ms (artifact cache hit), \
                 2 worker(s) spawned"
            ),
            "{text}"
        );
    }

    #[test]
    fn json_escapes_names() {
        let mut out = String::new();
        json_str(&mut out, "k", "a\"b\\c\nd");
        assert_eq!(out, "\"k\":\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn progress_snapshot_reads_counters() {
        let p = SweepProgress::default();
        p.chunks_total.store(10, Ordering::Relaxed);
        p.chunks_done.store(4, Ordering::Relaxed);
        p.tuples_decided.store(1000, Ordering::Relaxed);
        let s = p.snapshot();
        assert_eq!((s.chunks_done, s.chunks_total, s.tuples_decided), (4, 10, 1000));
        assert!((p.fraction_done() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn text_rendering_mentions_all_sections() {
        let r = sample_report();
        let text = r.render_text();
        assert!(text.contains("sweep `tele`"));
        assert!(text.contains("constraint"));
        assert!(text.contains("worker"));
        assert!(text.contains("imbalance 1.50"));
    }
}
