//! Shared workload builders for the `repro` binary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::Arc;

use beast_core::expr::{var, E};
use beast_core::ir::LoweredPlan;
use beast_core::plan::{Plan, PlanOptions};
use beast_core::space::Space;

/// Build the synthetic loop-nest workload of Figs. 17–19: `depth` nested
/// loops whose lengths multiply to approximately `total` iterations, with
/// integer arithmetic on the loop variables in the innermost body ("there
/// are no memory accesses through mutable containers", Section XI-B).
///
/// Returns the space and the exact iteration count.
pub fn loop_nest_space(depth: usize, total: u64) -> (Arc<Space>, u64) {
    assert!(depth >= 1);
    let len = (total as f64).powf(1.0 / depth as f64).ceil() as i64;
    let mut builder = Space::builder("loop_nest");
    let mut body: Option<E> = None;
    let mut actual: u64 = 1;
    for d in 0..depth {
        let name = format!("i{d}");
        builder = builder.range(&name, 0, len);
        actual *= len as u64;
        // i0*3 + i1*5 + ... — cheap integer arithmetic on locals.
        let term = var(&name) * (2 * d as i64 + 3);
        body = Some(match body {
            None => term,
            Some(acc) => acc + term,
        });
    }
    let space = builder
        .derived("acc", body.expect("at least one loop"))
        .build()
        .expect("loop nest space is valid");
    (space, actual)
}

/// Plan and lower a space with default options: the one set-up every `repro`
/// subcommand runs before it evaluates anything.
pub fn plan_default(space: &Arc<Space>) -> (Plan, LoweredPlan) {
    let plan = Plan::new(space, PlanOptions::default()).expect("planning succeeds");
    let lp = LoweredPlan::new(&plan).expect("lowering succeeds");
    (plan, lp)
}

/// Format an iterations-per-second figure the way the paper's plots do
/// (millions of iterations per second).
pub fn miters_per_sec(iters: u64, seconds: f64) -> f64 {
    iters as f64 / seconds / 1.0e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_engine::compiled::Compiled;
    use beast_engine::visit::CountVisitor;

    #[test]
    fn loop_nest_counts_match() {
        for depth in 1..=4 {
            let (space, expected) = loop_nest_space(depth, 10_000);
            let (_, lp) = plan_default(&space);
            let out = Compiled::new(lp).run(CountVisitor::default()).unwrap();
            assert_eq!(out.visitor.count, expected, "depth {depth}");
            assert!(expected >= 10_000);
        }
    }

    #[test]
    fn rate_formatting() {
        assert!((miters_per_sec(2_000_000, 2.0) - 1.0).abs() < 1e-12);
    }
}
