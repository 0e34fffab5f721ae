//! Static analysis of search spaces: a multi-pass linter over the lowered
//! plan plus the congruence abstract domain it shares with the engine.
//!
//! The paper's premise is that bad tuning configurations should be caught
//! *before* enumeration; this module extends that from configurations to
//! the space description itself. A space author who writes an impossible
//! constraint today gets a slow sweep returning zero survivors and no clue
//! why. [`analyze`] reads the static walk of the plan's abstract step
//! program ([`steps`]) over the interval × congruence product domain and
//! reports structured diagnostics with stable codes:
//!
//! | code  | severity | finding |
//! |-------|----------|---------|
//! | BE001 | error    | a constraint rejects every point: the space is provably empty |
//! | BE002 | warning  | a constraint can never reject: dead check |
//! | BE003 | warning  | a constraint's rejections are covered by another: subsumed |
//! | BE004 | info/warning | iterator/derived variable read by nothing |
//! | BE005 | warning  | name shadows an expression builtin or C keyword |
//! | BE006 | info     | check reads only outer-loop variables: hoistable |
//! | BE007 | warning  | derived variable can fail at runtime (divisor may be 0) |
//! | BE008 | warning  | arithmetic provably can exceed `i64` and wrap |
//! | BE009 | info     | exact survivor count and survival rate (counting pass) |
//! | BE010 | warning  | survival rate below 1e-4: rejection sampling impractical |
//!
//! BE009/BE010 come from the exact model-counting pass ([`count`]) and are
//! only emitted by [`analyze_with_counts`] — the engine's pre-sweep gate
//! runs the abstract passes alone, so building an engine stays cheap.
//!
//! [`levels`] derives every per-level fact the engine, the counter and the
//! emitted C read — narrowing, child solves, unread, replayable and free
//! levels, static fanouts — in one pass, from the shapes in [`narrow`] and
//! the suffix footprints of [`footprint`], which also key the counter's
//! memo.
//!
//! [`steps`] compiles every plan step once for abstract evaluation
//! ([`AbsSteps`]); its one transfer serves the static walk the linter, the
//! constraint scheduler and the unique-key recogniser read, and [`absprog`]
//! compiles windows of it into the flat programs the compiled engine's
//! subtree guards and the counter's pre-pass run. Its congruence
//! half ([`congruence`]) is where residue facts prune divisibility
//! constraints (`% == 0`, `!=` against a multiple) that intervals alone
//! cannot decide.

pub mod absprog;
pub mod congruence;
pub mod count;
pub mod diagnostics;
pub mod footprint;
pub mod levels;
pub mod narrow;
pub mod steps;

use crate::ir::{IntBinOp, IntExpr, LBody, LStep, LoweredPlan};
use crate::space::NodeTarget;

pub use absprog::{AbsFile, AbsProgs, Verdict, Window};
pub use congruence::{cg_of_bind, cg_of_values, eval_product, reduce, Congruence, Product};
pub use count::{CountBudget, CountStats, Counter, EntryRef, LevelStats, LevelView};
pub use diagnostics::{Diagnostic, LintReport, LintSummary, Severity};
pub use steps::{AbsEnv, AbsSteps, BindHull, StepFact};

/// What the engine does with lint findings before a sweep (configured via
/// `EngineOptions` in `beast-engine`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintGate {
    /// Run the analyzer and refuse to sweep when any error-severity
    /// diagnostic is found.
    Deny,
    /// Run the analyzer and record the summary in sweep telemetry (the
    /// default: findings surface in `SweepReport` JSON, never block).
    #[default]
    Warn,
    /// Skip the analyzer entirely.
    Allow,
}

/// Run all lint passes over a lowered plan and return the findings sorted
/// by (code, name) for deterministic output.
pub fn analyze(lp: &LoweredPlan) -> LintReport {
    analyze_steps(lp, &AbsSteps::new(lp))
}

/// [`analyze`] over the plan's already compiled abstract step program
/// (`abs` must be [`AbsSteps::new`] of `lp`): the compiled engine's lint
/// gate reads the program its guards run instead of compiling another.
pub fn analyze_steps(lp: &LoweredPlan, abs: &AbsSteps) -> LintReport {
    let mut diags = Vec::new();
    walk_passes(lp, abs, &mut diags);
    subsumption_pass(lp, &mut diags);
    unused_pass(lp, &mut diags);
    shadow_pass(lp, &mut diags);
    diags.sort_by(|a, b| (a.code, &a.name).cmp(&(b.code, &b.name)));
    LintReport { diagnostics: diags }
}

/// [`analyze`] plus the exact counting pass with the default
/// [`CountBudget`]: BE009 (exact survivor count and survival rate), BE010
/// (survival rate below 1e-4) and, where the abstract domains could not
/// prove emptiness but the exact count is zero, a count-witnessed BE001.
///
/// Counting is budgeted but not free — this entry point is for the linter
/// CLI and reports, not for the per-build engine gate.
pub fn analyze_with_counts(lp: &LoweredPlan) -> LintReport {
    analyze_with_counts_budget(lp, count::CountBudget::default())
}

/// [`analyze_with_counts`] under an explicit work budget. When the budget
/// is exhausted or a domain fails to realize, the count-powered
/// diagnostics are skipped and the abstract report returned unchanged.
pub fn analyze_with_counts_budget(lp: &LoweredPlan, budget: CountBudget) -> LintReport {
    let mut report = analyze(lp);
    let mut counter = Counter::with_budget(lp, budget);
    let Ok(Some(survivors)) = counter.total() else { return report };
    let Ok(Some(tuples)) = Counter::tuples_with_budget(lp, budget).total() else {
        return report;
    };
    let name = lp.plan.space().name().to_string();
    let rate = if tuples == 0 { 0.0 } else { survivors as f64 / tuples as f64 };
    let diags = &mut report.diagnostics;
    diags.push(Diagnostic {
        severity: Severity::Info,
        code: "BE009",
        name: name.clone(),
        message: format!(
            "exact count: {survivors} survivor(s) of {tuples} tuple(s) \
             (survival rate {rate:.3e})"
        ),
        suggestion: None,
    });
    if survivors == 0 && !diags.iter().any(|d| d.code == "BE001") {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: "BE001",
            name: name.clone(),
            message: "the exact counting pass proves the space empty: every \
                      tuple is rejected"
                .into(),
            suggestion: Some(
                "the abstract domains cannot name the culprit; bisect by \
                 removing constraints and re-counting"
                    .into(),
            ),
        });
    } else if survivors > 0 && rate < 1e-4 {
        diags.push(Diagnostic {
            severity: Severity::Warning,
            code: "BE010",
            name,
            message: format!(
                "survival rate {rate:.3e} is below 1e-4: rejection sampling \
                 is impractical ({} tuples per survivor)",
                tuples / survivors
            ),
            suggestion: Some(
                "use the count-weighted direct sampler (zero rejections) or \
                 relax the tightest constraints"
                    .into(),
            ),
        });
    }
    diags.sort_by(|a, b| (a.code, &a.name).cmp(&(b.code, &b.name)));
    report
}

/// The linter's reading of the static walk ([`AbsSteps::walk`], over the
/// product): the environment-dependent diagnostics (BE001 empty space,
/// BE002 dead check, BE006 hoistable check, BE007 fallible define, BE008
/// overflow risk).
fn walk_passes(lp: &LoweredPlan, abs: &AbsSteps, diags: &mut Vec<Diagnostic>) {
    let space = lp.plan.space();
    // Loop level at which each slot's value becomes available (-1 =
    // preamble); for derived slots, the transitive max over their reads, so
    // hoistability judgments see through defines.
    let mut slot_level: Vec<i64> = vec![-1; lp.n_slots as usize];
    let mut cur_level: i64 = -1;

    let needed_level = |e: &IntExpr, slot_level: &[i64]| -> i64 {
        let mut need = -1i64;
        e.for_each_slot(&mut |s| need = need.max(slot_level[s as usize]));
        need
    };

    abs.walk(true, |i, _, fact| match &lp.steps[i] {
        LStep::Bind { slot, depth, .. } => {
            cur_level = *depth as i64;
            slot_level[*slot as usize] = cur_level;
        }
        LStep::Define { derived, slot, body } => {
            let name = &space.deriveds()[*derived].name;
            slot_level[*slot as usize] = match body {
                LBody::Expr(e) => {
                    if !fact.out.clean {
                        diags.push(Diagnostic {
                            severity: Severity::Warning,
                            code: "BE007",
                            name: name.to_string(),
                            message: "may fail at runtime: a divisor's interval contains 0"
                                .into(),
                            suggestion: Some(format!(
                                "guard the division in `{}` or constrain its divisor away \
                                 from 0",
                                e.render_c(&lp.slot_names)
                            )),
                        });
                    } else if fact.out.widened {
                        diags.push(overflow_diag(name, e, lp));
                    }
                    needed_level(e, &slot_level)
                }
                LBody::Opaque => cur_level,
            };
        }
        LStep::Check { constraint, body: LBody::Expr(e) } => {
            let name = &space.constraints()[*constraint].name;
            if fact.rejects_all {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "BE001",
                    name: name.to_string(),
                    message: "statically rejects every point: the search space is provably \
                              empty"
                        .into(),
                    suggestion: Some(format!(
                        "the predicate `{}` is always true under the declared domains; \
                         relax or remove it",
                        e.render_c(&lp.slot_names)
                    )),
                });
            } else if fact.passes_all {
                diags.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "BE002",
                    name: name.to_string(),
                    message: "can never reject a point: dead check".into(),
                    suggestion: Some(format!(
                        "the predicate `{}` is always false under the declared domains; \
                         remove it",
                        e.render_c(&lp.slot_names)
                    )),
                });
            } else if fact.out.clean && fact.out.widened {
                diags.push(overflow_diag(name, e, lp));
            }
            let needed = needed_level(e, &slot_level);
            if needed < cur_level {
                diags.push(Diagnostic {
                    severity: Severity::Info,
                    code: "BE006",
                    name: name.to_string(),
                    message: format!(
                        "evaluated at loop level {cur_level} but (after simplification) \
                         reads nothing bound below level {needed}: hoistable"
                    ),
                    suggestion: Some(
                        "rewrite the definitions it references so the planner sees the \
                         smaller dependency set"
                            .into(),
                    ),
                });
            }
        }
        LStep::Check { body: LBody::Opaque, .. } | LStep::Visit => {}
    });
}

fn overflow_diag(name: &str, e: &IntExpr, lp: &LoweredPlan) -> Diagnostic {
    Diagnostic {
        severity: Severity::Warning,
        code: "BE008",
        name: name.to_string(),
        message: "arithmetic can provably exceed the i64 range and wrap at \
                  runtime"
            .into(),
        suggestion: Some(format!(
            "tighten the domains feeding `{}` so intermediates stay in range",
            e.render_c(&lp.slot_names)
        )),
    }
}

/// Threshold family of a normalized comparison: `lhs >= t` or `lhs <= t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// Fires when `lhs >= t`.
    Lower,
    /// Fires when `lhs <= t`.
    Upper,
}

/// Normalize `lhs OP const` / `const OP rhs` comparisons into
/// `(expr, family, inclusive threshold)`.
fn normalize(e: &IntExpr) -> Option<(&IntExpr, Family, i64)> {
    let IntExpr::Bin(op, a, b) = e else { return None };
    let (lhs, op, c) = if let Some(c) = b.as_const() {
        (&**a, *op, c)
    } else if let Some(c) = a.as_const() {
        // `c OP rhs` flips to `rhs OP' c`.
        let flipped = match op {
            IntBinOp::Lt => IntBinOp::Gt,
            IntBinOp::Le => IntBinOp::Ge,
            IntBinOp::Gt => IntBinOp::Lt,
            IntBinOp::Ge => IntBinOp::Le,
            _ => return None,
        };
        (&**b, flipped, c)
    } else {
        return None;
    };
    match op {
        IntBinOp::Ge => Some((lhs, Family::Lower, c)),
        IntBinOp::Gt => Some((lhs, Family::Lower, c.checked_add(1)?)),
        IntBinOp::Le => Some((lhs, Family::Upper, c)),
        IntBinOp::Lt => Some((lhs, Family::Upper, c.checked_sub(1)?)),
        _ => None,
    }
}

/// BE003: a constraint whose rejection set is contained in another
/// same-class constraint's rejection set is redundant. Detected for
/// structurally identical left-hand sides compared against constant
/// thresholds (`x > 10` is subsumed by `x > 5`).
fn subsumption_pass(lp: &LoweredPlan, diags: &mut Vec<Diagnostic>) {
    let space = lp.plan.space();
    let checks: Vec<(usize, &IntExpr, Family, i64)> = lp
        .steps
        .iter()
        .filter_map(|s| match s {
            LStep::Check { constraint, body: LBody::Expr(e) } => {
                normalize(e).map(|(lhs, fam, t)| (*constraint, lhs, fam, t))
            }
            _ => None,
        })
        .collect();
    for &(ci, lhs_i, fam_i, t_i) in &checks {
        let covered_by = checks.iter().find(|&&(cj, lhs_j, fam_j, t_j)| {
            cj != ci
                && fam_j == fam_i
                && lhs_j == lhs_i
                && space.constraints()[cj].class == space.constraints()[ci].class
                && match fam_i {
                    // Fire-set {x >= t_i} ⊆ {x >= t_j} iff t_i >= t_j.
                    Family::Lower => t_i >= t_j,
                    Family::Upper => t_i <= t_j,
                }
                // Identical fire-sets: keep the earlier definition.
                && (t_i != t_j || cj < ci)
        });
        if let Some(&(cj, ..)) = covered_by {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                code: "BE003",
                name: space.constraints()[ci].name.to_string(),
                message: format!(
                    "every point it rejects is already rejected by `{}`: redundant",
                    space.constraints()[cj].name
                ),
                suggestion: Some("remove the subsumed constraint".into()),
            });
        }
    }
}

/// BE004: definitions nothing depends on. A derived variable nobody reads
/// is wasted work per point (warning); an iterator nothing reads is a pure
/// enumeration dimension (info — often intentional, e.g. a seed).
fn unused_pass(lp: &LoweredPlan, diags: &mut Vec<Diagnostic>) {
    let space = lp.plan.space();
    let dag = space.dag();
    for v in 0..dag.len() {
        if !dag.dependents(v).is_empty() {
            continue;
        }
        match space.node_target(v) {
            NodeTarget::Derived(d) => diags.push(Diagnostic {
                severity: Severity::Warning,
                code: "BE004",
                name: space.deriveds()[d].name.to_string(),
                message: "derived variable is never read by any constraint, \
                          derived variable or iterator bound"
                    .into(),
                suggestion: Some("remove it (computed per point, used by nothing)".into()),
            }),
            NodeTarget::Iter(i) => diags.push(Diagnostic {
                severity: Severity::Info,
                code: "BE004",
                name: space.iters()[i].name.to_string(),
                message: "iterator is not read by any constraint or definition: \
                          pure enumeration dimension"
                    .into(),
                suggestion: None,
            }),
            NodeTarget::Constraint(_) => {}
        }
    }
}

/// Names of the expression builtins a space symbol may shadow in generated
/// code.
const BUILTIN_NAMES: [&str; 6] = ["min", "max", "abs", "div_ceil", "gcd", "round_up"];

/// C (and CUDA) keywords that are valid BEAST identifiers but break the C
/// source generator.
const C_KEYWORDS: [&str; 34] = [
    "auto", "break", "case", "char", "const", "continue", "default", "do", "double",
    "else", "enum", "extern", "float", "for", "goto", "if", "inline", "int", "long",
    "register", "restrict", "return", "short", "signed", "sizeof", "static", "struct",
    "switch", "typedef", "union", "unsigned", "void", "volatile", "while",
];

/// BE005: space symbols that collide with builtin function names or C
/// keywords. The builder only rejects duplicates *among* space symbols, so
/// these are constructible and miscompile generated sources.
fn shadow_pass(lp: &LoweredPlan, diags: &mut Vec<Diagnostic>) {
    let space = lp.plan.space();
    let mut names: Vec<&str> = space.consts().iter().map(|(n, _)| &**n).collect();
    names.extend(space.iters().iter().map(|d| &*d.name));
    names.extend(space.deriveds().iter().map(|d| &*d.name));
    for name in names {
        let what = if BUILTIN_NAMES.contains(&name) {
            "an expression builtin"
        } else if C_KEYWORDS.contains(&name) {
            "a C keyword"
        } else {
            continue;
        };
        diags.push(Diagnostic {
            severity: Severity::Warning,
            code: "BE005",
            name: name.to_string(),
            message: format!("shadows {what}: generated source will not compile"),
            suggestion: Some(format!("rename `{name}` (e.g. `{name}_`)")),
        });
    }
}
