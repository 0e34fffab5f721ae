//! Final lowering: the program tree with all expressions flattened into
//! pure statements — the representation the backends print verbatim.
//!
//! Every backend-visible construct is explicit here: loop bounds are
//! pre-assigned to named temporaries, lazy operators are `if` statements,
//! value-list domains are numbered constant pools, and all temporaries are
//! collected up front for declare-at-top languages (Fortran).

use crate::flatten::{flatten, FStmt, PExpr, TempGen};
use crate::tree::{GDomain, GNode, Program};

/// A statement node of the final, backend-ready program.
#[derive(Debug, Clone)]
pub enum SNode {
    /// Declare a temporary (ignored by declaration-free languages).
    Declare {
        /// Temporary name.
        var: String,
    },
    /// Assign a pure expression.
    Assign {
        /// Target variable.
        var: String,
        /// Pure value.
        value: PExpr,
    },
    /// Conditional on `cond != 0`.
    If {
        /// Condition.
        cond: PExpr,
        /// Nonzero branch.
        then: Vec<SNode>,
        /// Zero branch.
        otherwise: Vec<SNode>,
    },
    /// Half-open range loop; `start`/`stop`/`step` name temporaries assigned
    /// immediately before this node.
    RangeLoop {
        /// Loop variable.
        var: String,
        /// Temp holding the inclusive start.
        start: String,
        /// Temp holding the exclusive stop.
        stop: String,
        /// Temp holding the stride.
        step: String,
        /// True when the stride is a compile-time positive constant (lets
        /// backends emit a plain `<` loop instead of the sign-dispatching
        /// form).
        const_positive_step: bool,
        /// The loop's narrowing, when its body opens with a solvable
        /// equality check (see [`SNarrow`]). Advisory: a backend that
        /// ignores it enumerates, which is always correct.
        narrow: Option<SNarrow>,
        /// Loop body.
        body: Vec<SNode>,
    },
    /// Loop over constant pool `pool`.
    ValuesLoop {
        /// Loop variable.
        var: String,
        /// Index into [`LoweredProgram::pools`].
        pool: usize,
        /// Loop body.
        body: Vec<SNode>,
    },
    /// Count a rejection of constraint `idx` and skip to the next iteration
    /// of the innermost enclosing loop (or end the run if none encloses).
    Prune {
        /// Constraint index.
        idx: usize,
    },
    /// Count a survivor and fold all program variables into the checksum.
    Visit,
}

/// A range loop whose first body statement is the check of constraint
/// `constraint`, rejecting iff `coeff · var + offset ≢ 0 (mod 2⁶⁴)`
/// (`beast_core::analyze::narrow`). Both operands are invariant for the
/// duration of the loop; evaluating them is only sound once the realised
/// range is known to be non-empty, because the check they stand for would
/// not have run at all otherwise.
#[derive(Debug, Clone)]
pub struct SNarrow {
    /// Constraint index of the solved check.
    pub constraint: usize,
    /// Statements assigning the temporaries `coeff` / `offset` read (lazy
    /// operators flattened out). Their names are in
    /// [`LoweredProgram::narrow_temps`], not `temps`.
    pub setup: Vec<SNode>,
    /// Multiplier of the loop variable.
    pub coeff: PExpr,
    /// Slot-independent remainder.
    pub offset: PExpr,
}

/// The backend-ready program.
#[derive(Debug, Clone)]
pub struct LoweredProgram {
    /// Program name.
    pub name: String,
    /// All named variables (iterators + deriveds, slot order).
    pub vars: Vec<String>,
    /// Constraint names, indexed by `Prune::idx`.
    pub constraint_names: Vec<String>,
    /// Constant pools for value-list loops.
    pub pools: Vec<Vec<i64>>,
    /// Every temporary name appearing in `Declare` nodes, in order.
    pub temps: Vec<String>,
    /// Temporaries of the [`SNarrow::setup`] statements — a namespace of
    /// their own (`_n0`, …), so a backend that ignores narrowing prints the
    /// same program with or without it.
    pub narrow_temps: Vec<String>,
    /// The statement tree.
    pub body: Vec<SNode>,
}

/// Lower a [`Program`] to the final statement form.
pub fn lower(program: &Program) -> LoweredProgram {
    let names: Vec<std::sync::Arc<str>> = program
        .vars
        .iter()
        .map(|v| std::sync::Arc::<str>::from(v.as_str()))
        .collect();
    let mut cx = LowerCx {
        names: &names,
        gen: TempGen::default(),
        narrow_gen: TempGen::with_prefix("_n"),
        pools: Vec::new(),
        temps: Vec::new(),
        narrow_temps: Vec::new(),
    };
    let body = lower_nodes(&program.roots, &mut cx);
    let LowerCx { pools, temps, narrow_temps, .. } = cx;
    LoweredProgram {
        name: program.name.clone(),
        vars: program.vars.clone(),
        constraint_names: program.constraints.iter().map(|c| c.name.clone()).collect(),
        pools,
        temps,
        narrow_temps,
        body,
    }
}

/// What [`lower_nodes`] threads through the tree.
struct LowerCx<'a> {
    names: &'a [std::sync::Arc<str>],
    gen: TempGen,
    narrow_gen: TempGen,
    pools: Vec<Vec<i64>>,
    temps: Vec<String>,
    narrow_temps: Vec<String>,
}

fn fstmts_to_snodes(stmts: Vec<FStmt>, temps: &mut Vec<String>) -> Vec<SNode> {
    stmts
        .into_iter()
        .map(|s| match s {
            FStmt::Declare { var } => {
                temps.push(var.clone());
                SNode::Declare { var }
            }
            FStmt::Assign { var, value } => SNode::Assign { var, value },
            FStmt::If { cond, then, otherwise } => SNode::If {
                cond,
                then: fstmts_to_snodes(then, temps),
                otherwise: fstmts_to_snodes(otherwise, temps),
            },
        })
        .collect()
}

fn lower_nodes(nodes: &[GNode], cx: &mut LowerCx<'_>) -> Vec<SNode> {
    let mut out = Vec::new();
    for node in nodes {
        match node {
            GNode::Define { var, expr } => {
                let mut stmts = Vec::new();
                let value = flatten(expr, cx.names, &mut cx.gen, &mut stmts);
                out.extend(fstmts_to_snodes(stmts, &mut cx.temps));
                out.push(SNode::Assign { var: var.clone(), value });
            }
            GNode::Check { idx, expr } => {
                let mut stmts = Vec::new();
                let cond = flatten(expr, cx.names, &mut cx.gen, &mut stmts);
                out.extend(fstmts_to_snodes(stmts, &mut cx.temps));
                out.push(SNode::If {
                    cond,
                    then: vec![SNode::Prune { idx: *idx }],
                    otherwise: vec![],
                });
            }
            GNode::Visit => out.push(SNode::Visit),
            GNode::Loop { var, domain, narrow, body } => match domain {
                GDomain::Range { start, stop, step } => {
                    let const_positive_step =
                        matches!(step.as_const(), Some(k) if k > 0);
                    let mut emit_bound = |e: &beast_core::ir::IntExpr,
                                          suffix: &str,
                                          out: &mut Vec<SNode>|
                     -> String {
                        let name = format!("_{suffix}_{var}_{}", {
                            let t = cx.gen.fresh();
                            t.trim_start_matches("_t").to_string()
                        });
                        let mut stmts = Vec::new();
                        let value = flatten(e, cx.names, &mut cx.gen, &mut stmts);
                        out.extend(fstmts_to_snodes(stmts, &mut cx.temps));
                        cx.temps.push(name.clone());
                        out.push(SNode::Declare { var: name.clone() });
                        out.push(SNode::Assign { var: name.clone(), value });
                        name
                    };
                    let start_t = emit_bound(start, "start", &mut out);
                    let stop_t = emit_bound(stop, "stop", &mut out);
                    let step_t = emit_bound(step, "step", &mut out);
                    let narrow = narrow.as_ref().map(|n| {
                        let mut stmts = Vec::new();
                        let coeff =
                            flatten(&n.check.coeff, cx.names, &mut cx.narrow_gen, &mut stmts);
                        let offset =
                            flatten(&n.check.offset, cx.names, &mut cx.narrow_gen, &mut stmts);
                        SNarrow {
                            constraint: n.constraint,
                            setup: fstmts_to_snodes(stmts, &mut cx.narrow_temps),
                            coeff,
                            offset,
                        }
                    });
                    let lowered_body = lower_nodes(body, cx);
                    out.push(SNode::RangeLoop {
                        var: var.clone(),
                        start: start_t,
                        stop: stop_t,
                        step: step_t,
                        const_positive_step,
                        narrow,
                        body: lowered_body,
                    });
                }
                GDomain::Values(values) => {
                    let pool = cx.pools.len();
                    cx.pools.push(values.clone());
                    let lowered_body = lower_nodes(body, cx);
                    out.push(SNode::ValuesLoop {
                        var: var.clone(),
                        pool,
                        body: lowered_body,
                    });
                }
            },
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Program;
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::{ternary, var};
    use beast_core::ir::LoweredPlan;
    use beast_core::plan::{Plan, PlanOptions};
    use beast_core::space::Space;

    fn lowered_program() -> LoweredProgram {
        let s = Space::builder("lower")
            .range("a", 1, 5)
            .range_step("b", var("a"), 17, var("a"))
            .list("m", [0i64, 1])
            .derived("d", ternary(var("m").eq(1), var("a") * 2, var("b")))
            .constraint("c", ConstraintClass::Hard, var("d").gt(10))
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        lower(&Program::from_lowered(&lp).unwrap())
    }

    #[test]
    fn structure_is_complete() {
        let p = lowered_program();
        assert_eq!(p.vars, vec!["a", "b", "m", "d"]);
        assert_eq!(p.constraint_names, vec!["c"]);
        assert_eq!(p.pools, vec![vec![0, 1]]);
        assert!(!p.temps.is_empty());
        // Top level: three bound temps (declare+assign each) then the loop.
        assert!(matches!(p.body.last().unwrap(), SNode::RangeLoop { .. }));
    }

    #[test]
    fn const_positive_step_detected() {
        let p = lowered_program();
        let SNode::RangeLoop { const_positive_step, body, .. } = p.body.last().unwrap()
        else {
            panic!("expected range loop");
        };
        assert!(const_positive_step); // outer loop `a`: step 1
        // The `b` loop (step `a`, dynamic) is nested somewhere below.
        fn find_dynamic(nodes: &[SNode]) -> Option<bool> {
            for n in nodes {
                match n {
                    SNode::RangeLoop { var, const_positive_step, body, .. } => {
                        if var == "b" {
                            return Some(*const_positive_step);
                        }
                        if let Some(x) = find_dynamic(body) {
                            return Some(x);
                        }
                    }
                    SNode::ValuesLoop { body, .. } => {
                        if let Some(x) = find_dynamic(body) {
                            return Some(x);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        assert_eq!(find_dynamic(body), Some(false));
    }
}
