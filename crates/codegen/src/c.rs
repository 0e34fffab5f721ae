//! The C backend — the paper's primary target: "a translation system that
//! converts that description to a standard C code, which can then be
//! compiled with a C compiler, executed at high speed" (Section I).

use beast_core::expr::Builtin;

use crate::backend::Backend;
use crate::flatten::{ArithOp, CmpOp, PExpr};
use crate::lower::{LoweredProgram, SNode};
use crate::writer::CodeWriter;

/// C (C99) source generator.
#[derive(Debug, Default, Clone, Copy)]
pub struct CBackend;

pub(crate) fn expr_c(e: &PExpr) -> String {
    expr(e)
}

fn expr(e: &PExpr) -> String {
    match e {
        PExpr::Const(k) => {
            // `-9223372036854775808LL` is formally two tokens (unary minus on
            // an out-of-range literal); spell INT64_MIN the portable way.
            if *k == i64::MIN {
                "(-9223372036854775807LL - 1)".to_string()
            } else {
                format!("{k}LL")
            }
        }
        PExpr::Var(v) => v.clone(),
        PExpr::Arith(op, a, b) => {
            let (a, b) = (expr(a), expr(b));
            let f = match op {
                ArithOp::Add => "b_add",
                ArithOp::Sub => "b_sub",
                ArithOp::Mul => "b_mul",
                ArithOp::Div => "b_div",
                ArithOp::FloorDiv => "b_floordiv",
                ArithOp::Rem => "b_rem",
            };
            format!("{f}({a}, {b})")
        }
        PExpr::Cmp(op, a, b) => {
            let tok = match op {
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
                CmpOp::Eq => "==",
                CmpOp::Ne => "!=",
            };
            format!("((int64_t)({} {tok} {}))", expr(a), expr(b))
        }
        PExpr::Neg(a) => format!("b_neg({})", expr(a)),
        PExpr::Not(a) => format!("((int64_t)({} == 0))", expr(a)),
        PExpr::Abs(a) => format!("b_abs({})", expr(a)),
        PExpr::Call(b, x, y) => {
            let f = match b {
                Builtin::Min => "b_min",
                Builtin::Max => "b_max",
                Builtin::DivCeil => "b_divceil",
                Builtin::Gcd => "b_gcd",
                Builtin::RoundUp => "b_roundup",
                Builtin::Abs => unreachable!("abs is unary"),
            };
            format!("{f}({}, {})", expr(x), expr(y))
        }
    }
}

/// Emit the arithmetic runtime shared by every C-family emitter (plain C,
/// OpenMP, and the native chunk worker).
///
/// The helpers replicate the engine's compiled programs (`beast_core::ir`'s
/// `eval_bin` / `eval_call2`) bit for bit, i64 extremes included:
/// `+`/`-`/`*`/negate/abs wrap modulo 2^64 (via unsigned arithmetic, so no
/// signed-overflow UB); `/` and `%` are the wrapping truncated forms
/// (`INT64_MIN / -1 == INT64_MIN`, `INT64_MIN % -1 == 0`); floor-division
/// is *Euclidean* (`div_euclid`, remainder always non-negative), not
/// C99/Python floor semantics, and `div_ceil` / `round_up` wrap their inner
/// sum and product. Division by zero and the one unrepresentable Euclidean
/// quotient abort through `b_fail` (exit 2), mirroring the engine's
/// `DivisionByZero` / `Overflow` evaluation errors.
pub(crate) fn emit_c_helpers(w: &mut CodeWriter) {
    w.line("static int64_t b_add(int64_t a, int64_t b) { return (int64_t)((uint64_t)a + (uint64_t)b); }");
    w.line("static int64_t b_sub(int64_t a, int64_t b) { return (int64_t)((uint64_t)a - (uint64_t)b); }");
    w.line("static int64_t b_mul(int64_t a, int64_t b) { return (int64_t)((uint64_t)a * (uint64_t)b); }");
    w.line("static int64_t b_neg(int64_t a) { return (int64_t)(0ULL - (uint64_t)a); }");
    w.line("static int64_t b_min(int64_t a, int64_t b) { return a < b ? a : b; }");
    w.line("static int64_t b_max(int64_t a, int64_t b) { return a > b ? a : b; }");
    w.line("static int64_t b_abs(int64_t a) { return a < 0 ? b_neg(a) : a; }");
    w.line("static void b_fail(const char *what) { fprintf(stderr, \"evaluation error: %s\\n\", what); exit(2); }");
    w.line("static int64_t b_div(int64_t a, int64_t b) { if (b == 0) b_fail(\"division by zero\"); if (b == -1) return b_neg(a); return a / b; }");
    w.line("static int64_t b_rem(int64_t a, int64_t b) { if (b == 0) b_fail(\"division by zero\"); if (b == -1) return 0; return a % b; }");
    w.line("static int64_t b_floordiv(int64_t a, int64_t b) { int64_t q, r; if (b == 0) b_fail(\"division by zero\"); if (a == INT64_MIN && b == -1) b_fail(\"floor-division overflow\"); q = a / b; r = a % b; if (r < 0) q = (b > 0) ? q - 1 : q + 1; return q; }");
    w.line("static int64_t b_divceil(int64_t a, int64_t b) { return b_floordiv(b_sub(b_add(a, b), 1), b); }");
    w.line("static int64_t b_roundup(int64_t a, int64_t b) { return b_mul(b_divceil(a, b), b); }");
    w.line("static int64_t b_gcd(int64_t a, int64_t b) { uint64_t x = a < 0 ? 0ULL - (uint64_t)a : (uint64_t)a; uint64_t y = b < 0 ? 0ULL - (uint64_t)b : (uint64_t)b; while (y != 0) { uint64_t t = x % y; x = y; y = t; } return (int64_t)x; }");
}

/// The C statements for `nodes`, shared by the serial and OpenMP backends:
/// a rejection counts and `continue`s inside a loop (`loop_depth > 0`) and
/// `return`s from `run` outside every loop.
pub(crate) fn emit(
    w: &mut CodeWriter,
    nodes: &[SNode],
    program: &LoweredProgram,
    loop_depth: usize,
) {
    for node in nodes {
        match node {
            SNode::Declare { .. } => {} // all temps pre-declared at the top
            SNode::Assign { var, value } => w.line(format!("{var} = {};", expr(value))),
            SNode::If { cond, then, otherwise } => {
                w.open(format!("if ({} != 0) {{", expr(cond)));
                emit(w, then, program, loop_depth);
                if !otherwise.is_empty() {
                    w.hinge("} else {");
                    emit(w, otherwise, program, loop_depth);
                }
                w.close("}");
            }
            SNode::RangeLoop { var, start, stop, step, const_positive_step, body, .. } => {
                if *const_positive_step {
                    w.open(format!("for ({var} = {start}; {var} < {stop}; {var} += {step}) {{"));
                } else {
                    w.open(format!(
                        "for ({var} = {start}; ({step} > 0) ? ({var} < {stop}) : ({var} > {stop}); {var} += {step}) {{"
                    ));
                }
                emit(w, body, program, loop_depth + 1);
                w.close("}");
            }
            SNode::ValuesLoop { var, pool, body } => {
                let n = program.pools[*pool].len();
                w.open(format!(
                    "for (size_t _pi_{var} = 0; _pi_{var} < {n}; _pi_{var}++) {{"
                ));
                w.line(format!("{var} = pool_{pool}[_pi_{var}];"));
                emit(w, body, program, loop_depth + 1);
                w.close("}");
            }
            SNode::Prune { idx } => {
                w.line(format!("pruned[{idx}]++;"));
                if loop_depth > 0 {
                    w.line("continue;");
                } else {
                    w.line("return;");
                }
            }
            SNode::Visit => {
                w.line("survivors++;");
                let xor = program.vars.join(" ^ ");
                w.line(format!("checksum ^= {xor};"));
            }
        }
    }
}

impl Backend for CBackend {
    fn language(&self) -> &'static str {
        "C"
    }

    fn extension(&self) -> &'static str {
        "c"
    }

    fn generate(&self, p: &LoweredProgram) -> String {
        let mut w = CodeWriter::new();
        w.line(format!("/* generated by beast-codegen: space `{}` */", p.name));
        w.line("#include <stdio.h>");
        w.line("#include <stdint.h>");
        w.line("#include <stdlib.h>");
        w.line("#include <inttypes.h>");
        w.blank();
        emit_c_helpers(&mut w);
        w.blank();
        w.line("static uint64_t survivors = 0;");
        w.line(format!("static uint64_t pruned[{}];", p.constraint_names.len().max(1)));
        w.line("static int64_t checksum = 0;");
        for (i, pool) in p.pools.iter().enumerate() {
            let vals: Vec<String> = pool.iter().map(|v| format!("{v}LL")).collect();
            w.line(format!(
                "static const int64_t pool_{i}[{}] = {{{}}};",
                pool.len(),
                vals.join(", ")
            ));
        }
        w.blank();
        w.open("static void run(void) {");
        if !p.vars.is_empty() {
            w.line(format!("int64_t {};", join_decl(&p.vars)));
        }
        if !p.temps.is_empty() {
            w.line(format!("int64_t {};", join_decl(&p.temps)));
        }
        emit(&mut w, &p.body, p, 0);
        w.close("}");
        w.blank();
        w.open("int main(void) {");
        w.line("run();");
        w.line("printf(\"survivors %\" PRIu64 \"\\n\", survivors);");
        for (i, name) in p.constraint_names.iter().enumerate() {
            w.line(format!(
                "printf(\"pruned {name} %\" PRIu64 \"\\n\", pruned[{i}]);"
            ));
        }
        w.line("printf(\"checksum %\" PRId64 \"\\n\", checksum);");
        w.line("return 0;");
        w.close("}");
        w.finish()
    }
}

pub(crate) fn join_decl(names: &[String]) -> String {
    names
        .iter()
        .map(|n| format!("{n} = 0"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::tree::Program;
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;
    use beast_core::ir::LoweredPlan;
    use beast_core::plan::{Plan, PlanOptions};
    use beast_core::space::Space;

    #[test]
    fn generates_compilable_looking_c() {
        let s = Space::builder("cgen")
            .range("a", 1, 5)
            .range_step("b", var("a"), 17, var("a"))
            .list("m", [0i64, 1])
            .derived("d", var("a") * var("b") + var("m"))
            .constraint("big", ConstraintClass::Hard, var("d").gt(20))
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        let prog = lower(&Program::from_lowered(&lp).unwrap());
        let src = CBackend.generate(&prog);
        assert!(src.contains("#include <stdint.h>"));
        assert!(src.contains("static void run(void)"));
        assert!(src.contains("pruned[0]++;"));
        assert!(src.contains("continue;"));
        assert!(src.contains("pool_0"));
        assert!(src.contains("checksum ^= a ^ b ^ m ^ d;"));
        assert!(src.contains("pruned big"));
        // Balanced braces.
        assert_eq!(
            src.matches('{').count(),
            src.matches('}').count(),
            "unbalanced braces:\n{src}"
        );
    }
}
