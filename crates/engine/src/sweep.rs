//! One-call sweep helpers: plan → lower → compile → run in a single
//! function, for callers who do not need to reuse the intermediate
//! artifacts.

use std::sync::Arc;

use beast_core::error::{EvalError, SpaceError};
use beast_core::ir::LoweredPlan;
use beast_core::plan::{Plan, PlanOptions};
use beast_core::space::Space;

use crate::compiled::Compiled;
use crate::parallel::{run_parallel, run_parallel_report, ParallelOptions};
use crate::point::{Point, PointRef};
use crate::stats::PruneStats;
use crate::telemetry::SweepReport;
use crate::visit::{BestK, CollectVisitor, CountVisitor};

/// Errors from the sweep drivers and one-call helpers.
#[derive(Debug)]
pub enum SweepError {
    /// Planning or lowering failed.
    Space(SpaceError),
    /// Evaluation failed.
    Eval(EvalError),
    /// A worker thread panicked. Under [`FaultPolicy::Abort`](crate::fault::FaultPolicy)
    /// the panic payload surfaces here as a structured error instead of
    /// poisoning the orchestrator's `join`; other policies convert panics
    /// into quarantined-chunk [`FaultRecord`](crate::fault::FaultRecord)s.
    WorkerPanic {
        /// Chunk being evaluated when the panic fired (`None` when the panic
        /// escaped outside any chunk).
        chunk: Option<usize>,
        /// Stringified panic payload.
        message: String,
    },
    /// Reading, writing or validating a checkpoint file failed.
    Checkpoint(String),
    /// The requested engine options cannot drive this sweep (for example,
    /// the native tier handed to the distributed driver).
    Config(String),
}

impl From<SpaceError> for SweepError {
    fn from(e: SpaceError) -> Self {
        SweepError::Space(e)
    }
}

impl From<EvalError> for SweepError {
    fn from(e: EvalError) -> Self {
        SweepError::Eval(e)
    }
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Space(e) => write!(f, "{e}"),
            SweepError::Eval(e) => write!(f, "{e}"),
            SweepError::WorkerPanic { chunk: Some(c), message } => {
                write!(f, "worker panicked in chunk {c}: {message}")
            }
            SweepError::WorkerPanic { chunk: None, message } => {
                write!(f, "worker panicked: {message}")
            }
            SweepError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            SweepError::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

fn compile(space: &Arc<Space>) -> Result<Compiled, SweepError> {
    let plan = Plan::new(space, PlanOptions::default())?;
    Ok(Compiled::new(LoweredPlan::new(&plan)?))
}

/// Count the survivors of a space (default plan, compiled engine).
pub fn count(space: &Arc<Space>) -> Result<(u64, PruneStats), SweepError> {
    let out = compile(space)?.run(CountVisitor::default())?;
    Ok((out.visitor.count, out.stats))
}

/// Collect up to `cap` surviving points.
pub fn collect(space: &Arc<Space>, cap: usize) -> Result<(Vec<Point>, PruneStats), SweepError> {
    let compiled = compile(space)?;
    let out = compiled.run(CollectVisitor::new(compiled.point_names().clone(), cap))?;
    Ok((out.visitor.points, out.stats))
}

/// Keep the `k` best survivors under `score` (higher wins), swept across
/// `threads` worker threads.
pub fn best_k<F>(
    space: &Arc<Space>,
    k: usize,
    threads: usize,
    score: F,
) -> Result<(Vec<(f64, Point)>, PruneStats), SweepError>
where
    F: Fn(&PointRef<'_>) -> f64 + Send + Sync + Clone + 'static,
{
    let plan = Plan::new(space, PlanOptions::default())?;
    let lowered = LoweredPlan::new(&plan)?;
    let names = Compiled::new(lowered.clone()).point_names().clone();
    let out = run_parallel(&lowered, threads, move || {
        BestK::new(names.clone(), k, score.clone())
    })?;
    Ok((out.visitor.best, out.stats))
}

/// Count survivors across `threads` worker threads and return the full
/// [`SweepReport`] (pruning funnel, per-worker timings, scheduler shape).
pub fn count_report(
    space: &Arc<Space>,
    threads: usize,
) -> Result<(u64, SweepReport), SweepError> {
    let plan = Plan::new(space, PlanOptions::default())?;
    let lowered = LoweredPlan::new(&plan)?;
    let (out, report) =
        run_parallel_report(&lowered, &ParallelOptions::new(threads), CountVisitor::default)?;
    Ok((out.visitor.count, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;

    fn space() -> Arc<Space> {
        Space::builder("sweep_helpers")
            .range("x", 0, 50)
            .range("y", 0, 10)
            .constraint("diag", ConstraintClass::Generic, var("x").lt(var("y")))
            .build()
            .unwrap()
    }

    #[test]
    fn count_matches_brute_force() {
        let (n, stats) = count(&space()).unwrap();
        // keep x >= y: for y in 0..10, x in y..50 → sum (50 - y)
        let expect: u64 = (0..10u64).map(|y| 50 - y).sum();
        assert_eq!(n, expect);
        assert_eq!(stats.survivors, n);
    }

    #[test]
    fn collect_caps() {
        let (points, _) = collect(&space(), 7).unwrap();
        assert_eq!(points.len(), 7);
        assert!(points.iter().all(|p| p.get_int("x") >= p.get_int("y")));
    }

    #[test]
    fn best_k_finds_maximum() {
        let (best, _) = best_k(&space(), 3, 2, |p| {
            (p.get("x").unwrap().as_int().unwrap() + p.get("y").unwrap().as_int().unwrap())
                as f64
        })
        .unwrap();
        assert_eq!(best.len(), 3);
        // Max of x + y subject to x >= y: (49, 9).
        assert_eq!(best[0].0, 58.0);
        assert_eq!(best[0].1.get_int("x"), 49);
    }

    #[test]
    fn count_report_matches_count() {
        let (n, stats) = count(&space()).unwrap();
        let (n2, report) = count_report(&space(), 4).unwrap();
        assert_eq!(n2, n);
        assert_eq!(report.survivors, stats.survivors);
        assert_eq!(report.pruned, stats.total_pruned());
    }

    #[test]
    fn errors_surface() {
        let bad = Space::builder("dz")
            .range("x", 0, 4)
            .derived("boom", var("x") / var("x"))
            .build()
            .unwrap();
        assert!(matches!(count(&bad), Err(SweepError::Eval(_))));
    }
}
