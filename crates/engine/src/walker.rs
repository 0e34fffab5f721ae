//! The *walker*: an AST-interpreting evaluation backend whose cost model
//! mirrors CPython's, used to reproduce Fig. 17 of the paper.
//!
//! Like Python, every variable access goes through an associative-array
//! lookup (a `HashMap` keyed by name, with the default collision-resistant
//! hasher — the analog of Python's dict-backed scopes), and loop control can
//! be driven three ways, mirroring the paper's three syntactic variants:
//!
//! * [`LoopStyle::While`] — the loop variable, bound and stride live in the
//!   environment and are re-read/re-written through the hash map on every
//!   iteration (the paper's `while` variant, the slowest);
//! * [`LoopStyle::RangeMaterialized`] — the whole domain is materialized
//!   into a `Vec` up front, like Python 2's `range()` building a list;
//! * [`LoopStyle::RangeLazy`] — the domain is iterated lazily, like
//!   `xrange()` (the fastest Python variant in Fig. 17).

use std::collections::HashMap;
use std::sync::Arc;

use beast_core::error::EvalError;
use beast_core::expr::Bindings;
use beast_core::iterator::Realized;
use beast_core::plan::{Plan, Step};
use beast_core::value::Value;

use crate::point::PointRef;
use crate::stats::{BlockStats, PruneStats};
use crate::visit::Visitor;

/// Loop-control strategy, the experimental variable of Fig. 17.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopStyle {
    /// Loop control through the environment, like a Python `while` loop.
    While,
    /// Materialize the domain into a list first, like Python 2 `range()`.
    RangeMaterialized,
    /// Iterate the domain lazily, like Python 2 `xrange()`.
    #[default]
    RangeLazy,
}

/// Result of a sweep: pruning statistics (the visitor is returned by value
/// from [`Walker::run`]).
#[derive(Debug)]
pub struct SweepOutcome<V> {
    /// Per-constraint pruning counters.
    pub stats: PruneStats,
    /// Interval block-pruning counters. Always zero for backends without
    /// block pruning (walker, VM) and for the compiled engine with
    /// intervals disabled.
    pub blocks: BlockStats,
    /// The visitor, holding whatever it accumulated.
    pub visitor: V,
}

/// The interpreting backend.
pub struct Walker<'p> {
    plan: &'p Plan,
    style: LoopStyle,
    point_names: Arc<[Arc<str>]>,
}

impl<'p> Walker<'p> {
    /// Create a walker for a plan with the given loop style.
    pub fn new(plan: &'p Plan, style: LoopStyle) -> Walker<'p> {
        let space = plan.space();
        let mut names: Vec<Arc<str>> = Vec::new();
        names.extend(space.iters().iter().map(|d| d.name.clone()));
        names.extend(space.deriveds().iter().map(|d| d.name.clone()));
        Walker { plan, style, point_names: Arc::from(names.into_boxed_slice()) }
    }

    /// Names reported for visited points (iterators then derived variables).
    pub fn point_names(&self) -> &Arc<[Arc<str>]> {
        &self.point_names
    }

    /// Run the sweep, feeding survivors to the visitor.
    pub fn run<V: Visitor>(&self, visitor: V) -> Result<SweepOutcome<V>, EvalError> {
        let space = self.plan.space();
        let mut env: HashMap<Arc<str>, Value> = space
            .consts()
            .iter()
            .map(|(n, v)| (n.clone(), v.clone()))
            .collect();
        let mut state = RunState {
            stats: PruneStats::new(space.constraints().len()),
            visitor,
        };
        self.exec(0, &mut env, &mut state)?;
        Ok(SweepOutcome {
            stats: state.stats,
            blocks: BlockStats::default(),
            visitor: state.visitor,
        })
    }

    fn exec<V: Visitor>(
        &self,
        pos: usize,
        env: &mut HashMap<Arc<str>, Value>,
        state: &mut RunState<V>,
    ) -> Result<(), EvalError> {
        let steps = self.plan.steps();
        if pos >= steps.len() {
            return Ok(());
        }
        let space = self.plan.space();
        match steps[pos] {
            Step::Bind { iter, .. } => {
                let def = &space.iters()[iter];
                let name = &def.name;
                match self.style {
                    LoopStyle::While => {
                        // Model a Python `while`: the control state lives in
                        // the environment and every iteration re-reads and
                        // re-writes it through the hash map.
                        let domain = def.kind.realize(&EnvView(env))?;
                        let (start, stop, step) = match domain {
                            Realized::Range { start, stop, step } => (start, stop, step),
                            Realized::Values(values) => {
                                // Non-range domains fall back to list
                                // iteration; the while-style overhead is
                                // modeled by indexing through the env.
                                let idx_name: Arc<str> =
                                    Arc::from(format!("__idx_{name}").as_str());
                                env.insert(idx_name.clone(), Value::Int(0));
                                loop {
                                    let i = env
                                        .get(&idx_name)
                                        .expect("index var")
                                        .as_int()?;
                                    if i as usize >= values.len() {
                                        break;
                                    }
                                    env.insert(name.clone(), values[i as usize].clone());
                                    self.exec(pos + 1, env, state)?;
                                    let i = env.get(&idx_name).expect("index var").as_int()?;
                                    env.insert(idx_name.clone(), Value::Int(i + 1));
                                }
                                env.remove(&idx_name);
                                env.remove(name);
                                return Ok(());
                            }
                        };
                        if step == 0 {
                            return Ok(());
                        }
                        let stop_name: Arc<str> =
                            Arc::from(format!("__stop_{name}").as_str());
                        let step_name: Arc<str> =
                            Arc::from(format!("__step_{name}").as_str());
                        env.insert(name.clone(), Value::Int(start));
                        env.insert(stop_name.clone(), Value::Int(stop));
                        env.insert(step_name.clone(), Value::Int(step));
                        loop {
                            let v = env.get(name).expect("loop var").as_int()?;
                            let stop = env.get(&stop_name).expect("stop").as_int()?;
                            let in_range = if step > 0 { v < stop } else { v > stop };
                            if !in_range {
                                break;
                            }
                            self.exec(pos + 1, env, state)?;
                            let v = env.get(name).expect("loop var").as_int()?;
                            let st = env.get(&step_name).expect("step").as_int()?;
                            env.insert(name.clone(), Value::Int(v + st));
                        }
                        env.remove(&stop_name);
                        env.remove(&step_name);
                        env.remove(name);
                    }
                    LoopStyle::RangeMaterialized => {
                        let values = def.kind.realize(&EnvView(env))?.to_values();
                        for v in values {
                            env.insert(name.clone(), v);
                            self.exec(pos + 1, env, state)?;
                        }
                        env.remove(name);
                    }
                    LoopStyle::RangeLazy => {
                        let domain = def.kind.realize(&EnvView(env))?;
                        for v in domain.iter() {
                            env.insert(name.clone(), v);
                            self.exec(pos + 1, env, state)?;
                        }
                        env.remove(name);
                    }
                }
                Ok(())
            }
            Step::Define { derived } => {
                let def = &space.deriveds()[derived];
                let value = def.kind.eval(&EnvView(env))?;
                env.insert(def.name.clone(), value);
                self.exec(pos + 1, env, state)
            }
            Step::Check { constraint } => {
                let def = &space.constraints()[constraint];
                let rejected = def.kind.rejects(&EnvView(env))?;
                state.stats.record(constraint, rejected);
                if rejected {
                    // Prune: abandon this tuple; control returns to the
                    // innermost enclosing loop, which continues.
                    return Ok(());
                }
                self.exec(pos + 1, env, state)
            }
            Step::Visit => {
                state.stats.record_survivor();
                let view = PointRef::Env { names: &self.point_names, env: &EnvView(env) };
                state.visitor.visit(&view);
                Ok(())
            }
        }
    }
}

struct RunState<V> {
    stats: PruneStats,
    visitor: V,
}

/// Read-only [`Bindings`] view over the walker's mutable environment.
struct EnvView<'a>(&'a HashMap<Arc<str>, Value>);

impl Bindings for EnvView<'_> {
    fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;
    use beast_core::plan::PlanOptions;
    use beast_core::space::Space;

    use crate::visit::{CollectVisitor, CountVisitor};

    fn mini_plan() -> Plan {
        let s = Space::builder("mini")
            .constant("cap", 20)
            .range("a", 1, 5)
            .range_step("b", var("a"), 13, var("a"))
            .derived("ab", var("a") * var("b"))
            .constraint("over", ConstraintClass::Hard, var("ab").gt(var("cap")))
            .build()
            .unwrap();
        Plan::new(&s, PlanOptions::default()).unwrap()
    }

    /// Ground truth by brute force.
    fn expected_survivors() -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        for a in 1..5i64 {
            let mut b = a;
            while b < 13 {
                if a * b <= 20 {
                    out.push((a, b));
                }
                b += a;
            }
        }
        out
    }

    #[test]
    fn all_styles_agree_with_brute_force() {
        let plan = mini_plan();
        let expected = expected_survivors();
        for style in [LoopStyle::While, LoopStyle::RangeMaterialized, LoopStyle::RangeLazy] {
            let walker = Walker::new(&plan, style);
            let out = walker
                .run(CollectVisitor::new(walker.point_names().clone(), 1000))
                .unwrap();
            let got: Vec<(i64, i64)> = out
                .visitor
                .points
                .iter()
                .map(|p| (p.get_int("a"), p.get_int("b")))
                .collect();
            assert_eq!(got, expected, "style {style:?}");
            assert_eq!(out.stats.survivors, expected.len() as u64);
        }
    }

    #[test]
    fn stats_count_evaluations_and_rejections() {
        let plan = mini_plan();
        let walker = Walker::new(&plan, LoopStyle::RangeLazy);
        let out = walker.run(CountVisitor::default()).unwrap();
        // Every (a, b) tuple is checked exactly once: sum over a of |b(a)|.
        let tuples: u64 = (1..5u64).map(|a| 12 / a).sum();
        assert_eq!(out.stats.evaluated[0], tuples);
        assert_eq!(
            out.stats.pruned[0] + out.stats.survivors,
            out.stats.evaluated[0]
        );
    }

    #[test]
    fn derived_values_visible_to_visitor() {
        let plan = mini_plan();
        let walker = Walker::new(&plan, LoopStyle::RangeLazy);
        let out = walker
            .run(CollectVisitor::new(walker.point_names().clone(), 1000))
            .unwrap();
        for p in &out.visitor.points {
            assert_eq!(p.get_int("ab"), p.get_int("a") * p.get_int("b"));
        }
    }

    #[test]
    fn while_style_handles_list_domains() {
        let s = Space::builder("list")
            .list("x", [3i64, 1, 4, 1, 5])
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        let walker = Walker::new(&plan, LoopStyle::While);
        let out = walker
            .run(CollectVisitor::new(walker.point_names().clone(), 10))
            .unwrap();
        let got: Vec<i64> = out.visitor.points.iter().map(|p| p.get_int("x")).collect();
        assert_eq!(got, vec![3, 1, 4, 1, 5]);
    }

    #[test]
    fn closure_iterators_work_in_walker() {
        let s = Space::builder("primes")
            .constant("max", 12)
            .closure_iter("p", &["max"], |env| {
                let max = env.require_int("max").unwrap_or(0);
                let mut known: Vec<i64> = Vec::new();
                let mut n = 1i64;
                std::iter::from_fn(move || loop {
                    n += 1;
                    if n > max {
                        return None;
                    }
                    if known.iter().all(|k| n % k != 0) {
                        known.push(n);
                        return Some(Value::Int(n));
                    }
                })
            })
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        let walker = Walker::new(&plan, LoopStyle::RangeLazy);
        let out = walker
            .run(CollectVisitor::new(walker.point_names().clone(), 10))
            .unwrap();
        let got: Vec<i64> = out.visitor.points.iter().map(|p| p.get_int("p")).collect();
        assert_eq!(got, vec![2, 3, 5, 7, 11]);
    }

    #[test]
    fn negative_step_ranges() {
        let s = Space::builder("down")
            .range_step("x", 4, 0, -1)
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        for style in [LoopStyle::While, LoopStyle::RangeLazy, LoopStyle::RangeMaterialized] {
            let walker = Walker::new(&plan, style);
            let out = walker
                .run(CollectVisitor::new(walker.point_names().clone(), 10))
                .unwrap();
            let got: Vec<i64> = out.visitor.points.iter().map(|p| p.get_int("x")).collect();
            assert_eq!(got, vec![4, 3, 2, 1], "style {style:?}");
        }
    }

    #[test]
    fn unhoisted_plan_gives_same_survivors_more_work() {
        let space = mini_plan();
        let hoisted = Walker::new(&space, LoopStyle::RangeLazy)
            .run(CountVisitor::default())
            .unwrap();
        let un = Plan::new(space.space(), PlanOptions::unhoisted()).unwrap();
        let unhoisted = Walker::new(&un, LoopStyle::RangeLazy)
            .run(CountVisitor::default())
            .unwrap();
        assert_eq!(hoisted.visitor.count, unhoisted.visitor.count);
        assert!(unhoisted.stats.evaluated[0] >= hoisted.stats.evaluated[0]);
    }
}
