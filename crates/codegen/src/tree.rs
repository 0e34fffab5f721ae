//! Backend-agnostic program tree extracted from a lowered plan.
//!
//! This is the input every source-code backend consumes: the loop nest with
//! hoisted defines and checks, constants already folded, all expressions in
//! integer IR. Spaces containing opaque Rust closures (deferred/closure
//! iterators or constraints) cannot be translated — the paper's system has
//! the same boundary: its translator consumes the declarative description,
//! not arbitrary host-language code.

use beast_core::analyze::levels::levels;
use beast_core::analyze::narrow::Narrowing;
use beast_core::constraint::ConstraintClass;
use beast_core::ir::{IntExpr, LBody, LIter, LStep, LoweredPlan};

/// Codegen errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// The plan contains an opaque Rust closure that cannot be printed.
    Opaque(String),
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::Opaque(name) => {
                write!(f, "definition `{name}` is an opaque closure and cannot be translated")
            }
        }
    }
}

impl std::error::Error for CodegenError {}

/// A loop domain.
#[derive(Debug, Clone)]
pub enum GDomain {
    /// Half-open range with IR bounds.
    Range {
        /// Inclusive start.
        start: IntExpr,
        /// Exclusive stop.
        stop: IntExpr,
        /// Stride (sign may be dynamic).
        step: IntExpr,
    },
    /// Explicit values.
    Values(Vec<i64>),
}

/// A program-tree node.
#[derive(Debug, Clone)]
pub enum GNode {
    /// A loop binding `var`.
    Loop {
        /// Loop variable name.
        var: String,
        /// The domain.
        domain: GDomain,
        /// Set when the body opens with a reject-unless-equal check affine
        /// in `var` (the level plan's `narrowing`; never on the outermost
        /// loop, as in the engine's table): an emitter may solve the loop
        /// for its ≤ 1 passing value instead of enumerating it. Only
        /// [`crate::native`] does.
        narrow: Option<Narrowing>,
        /// Loop body.
        body: Vec<GNode>,
    },
    /// Derived-variable assignment.
    Define {
        /// Variable name.
        var: String,
        /// Value expression.
        expr: IntExpr,
    },
    /// Pruning check: when `expr` is nonzero, count it and skip to the next
    /// iteration of the innermost enclosing loop (or end the run when there
    /// is none).
    Check {
        /// Constraint index (into [`Program::constraints`]).
        idx: usize,
        /// The predicate.
        expr: IntExpr,
    },
    /// Survivor point: count it and fold all bound variables into the
    /// checksum.
    Visit,
}

/// One constraint's metadata.
#[derive(Debug, Clone)]
pub struct GConstraint {
    /// Name (used in the canonical output).
    pub name: String,
    /// Class, for generated comments.
    pub class: ConstraintClass,
}

/// The backend-agnostic program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Program name (from the space name).
    pub name: String,
    /// Every variable the program binds (iterators then deriveds, slot
    /// order) — backends declare these and XOR them into the checksum.
    pub vars: Vec<String>,
    /// Constraint metadata, indexed by check `idx`.
    pub constraints: Vec<GConstraint>,
    /// Top-level nodes (preamble defines/checks, then the loop nest).
    pub roots: Vec<GNode>,
}

impl Program {
    /// Extract the program tree from a lowered plan.
    pub fn from_lowered(lp: &LoweredPlan) -> Result<Program, CodegenError> {
        let space = lp.plan.space();
        let vars: Vec<String> = lp.slot_names.iter().map(|n| n.to_string()).collect();
        let constraints: Vec<GConstraint> = space
            .constraints()
            .iter()
            .map(|c| GConstraint { name: c.name.to_string(), class: c.class })
            .collect();

        let mut levels = levels(lp).levels.into_iter().enumerate();
        let mut stack: Vec<Vec<GNode>> = vec![Vec::new()];
        let mut open: Vec<(String, GDomain, Option<Narrowing>)> = Vec::new();
        for step in &lp.steps {
            match step {
                LStep::Bind { slot, domain, iter, .. } => {
                    let var = lp.slot_names[*slot as usize].to_string();
                    let domain = match domain {
                        LIter::Range { start, stop, step } => GDomain::Range {
                            start: start.clone(),
                            stop: stop.clone(),
                            step: step.clone(),
                        },
                        LIter::Values(v) => GDomain::Values(v.clone()),
                        LIter::Opaque { .. } => {
                            return Err(CodegenError::Opaque(
                                space.iters()[*iter].name.to_string(),
                            ))
                        }
                    };
                    // One level per bind, in bind order.
                    let narrow = levels.next().and_then(|(l, p)| p.narrowing.filter(|_| l > 0));
                    open.push((var, domain, narrow));
                    stack.push(Vec::new());
                }
                LStep::Define { slot, body, derived } => {
                    let var = lp.slot_names[*slot as usize].to_string();
                    let expr = match body {
                        LBody::Expr(e) => e.clone(),
                        LBody::Opaque => {
                            return Err(CodegenError::Opaque(
                                space.deriveds()[*derived].name.to_string(),
                            ))
                        }
                    };
                    stack.last_mut().expect("body").push(GNode::Define { var, expr });
                }
                LStep::Check { constraint, body } => {
                    let expr = match body {
                        LBody::Expr(e) => e.clone(),
                        LBody::Opaque => {
                            return Err(CodegenError::Opaque(
                                space.constraints()[*constraint].name.to_string(),
                            ))
                        }
                    };
                    stack
                        .last_mut()
                        .expect("body")
                        .push(GNode::Check { idx: *constraint, expr });
                }
                LStep::Visit => stack.last_mut().expect("body").push(GNode::Visit),
            }
        }
        while let Some((var, domain, narrow)) = open.pop() {
            let body = stack.pop().expect("loop body");
            stack.last_mut().expect("outer").push(GNode::Loop { var, domain, narrow, body });
        }
        let roots = stack.pop().expect("roots");
        debug_assert!(stack.is_empty());
        Ok(Program { name: space.name().to_string(), vars, constraints, roots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::expr::var;
    use beast_core::plan::{Plan, PlanOptions};
    use beast_core::space::Space;

    #[test]
    fn extracts_tree_shape() {
        let s = Space::builder("tree")
            .constant("cap", 10)
            .range("a", 1, 5)
            .range_step("b", var("a"), 17, var("a"))
            .derived("ab", var("a") * var("b"))
            .constraint(
                "over",
                ConstraintClass::Hard,
                var("ab").gt(var("cap")),
            )
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        let p = Program::from_lowered(&lp).unwrap();
        assert_eq!(p.vars, vec!["a", "b", "ab"]);
        assert_eq!(p.constraints.len(), 1);
        // One outer loop at the root.
        assert_eq!(p.roots.len(), 1);
        match &p.roots[0] {
            GNode::Loop { var, body, .. } => {
                assert_eq!(var, "a");
                assert!(matches!(body[0], GNode::Loop { .. }));
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn opaque_spaces_are_rejected() {
        let s = Space::builder("opaque")
            .range("a", 0, 4)
            .deferred_iter("b", &["a"], |env| {
                Ok(beast_core::iterator::Realized::Range {
                    start: 0,
                    stop: env.require_int("a")?,
                    step: 1,
                })
            })
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        let err = Program::from_lowered(&lp).unwrap_err();
        assert_eq!(err, CodegenError::Opaque("b".into()));
    }
}
