//! Chunk-worker emitter for the engine's runtime-native tier.
//!
//! The offline [`crate::c::CBackend`] prints a whole-space program that
//! enumerates every tuple and reports aggregate counters. The native tier
//! instead needs a *chunk worker*: the same loop nest, but with the
//! outermost (level-0) loop replaced by a loop over outer values handed to
//! the process at runtime, and with every survivor streamed back so the
//! engine can fold results in chunk order — bit-identical survivors,
//! emission order, and per-constraint statistics.
//!
//! ## Worker protocol (version [`PROTOCOL_VERSION`], host-endian)
//!
//! The worker is *resident*: it serves one request after another until its
//! stdin closes, so a sweep pays one process spawn per slot, not per chunk.
//!
//! request (stdin):  `u32 n`, then `n × i64` level-0 values (one chunk).
//! reply (stdout):   per survivor, a length-prefixed row — `u32 len`
//!         (= `8 × n_vars`) followed by `n_vars × i64` slot values in slot
//!         order — then a trailer: `u32` [`ROW_SENTINEL`],
//!         `u32 n_constraints`, per constraint `u64 evaluated` +
//!         `u64 pruned`, `u64 survivors`, `u64 loops_solved`,
//!         `u64 points_solved`, and `u32 ordinal` — the number of requests
//!         this process answered before this one, so a host that lost step
//!         with its worker finds out. stdout is flushed after every reply.
//!
//! Every counter is zeroed before each request: a reply describes its own
//! chunk only. Up to `survivors` the reply is, byte for byte, what the
//! one-shot version-1 worker wrote for the same chunk.
//!
//! Exit codes: 0 stdin reached EOF exactly on a request boundary; 2
//! evaluation error (`b_fail`, matching the interpreter's evaluation-error
//! path); 3 protocol/IO error (EOF inside a request, allocation or write
//! failure). The engine treats a dead worker — or a malformed reply — as
//! grounds to re-run the chunk in-process, so a worker failure is never
//! observable in results.
//!
//! ## Statistics and loop narrowing
//!
//! Per-point statistics are exact: `evaluated[i]` is bumped immediately
//! before constraint `i`'s condition is tested, `pruned[i]` when it fires —
//! the same per-point, declared-order accounting the compiled engine uses
//! with block pruning disabled.
//!
//! A range loop carrying an [`SNarrow`](crate::lower::SNarrow) is *solved*
//! rather than enumerated, exactly as the compiled engine does
//! (`beast_core::analyze::narrow`): once the realised range is known
//! non-empty, the emitted code evaluates the check's `coeff` / `offset` and
//! calls the `b_narrow` helper, which — when `coeff ≠ 0` and `coeff·x + offset`,
//! computed in `__int128`, stays inside `int64_t` at both ends of the range
//! — shrinks the loop's bounds to the at most one value that passes and
//! pre-credits the check `evaluated += skipped, pruned += skipped` for the
//! rest. The loop body is emitted once, unchanged: the check still runs, and
//! is counted, for the hit. Anything the helper cannot prove leaves the
//! bounds alone, so the loop enumerates. `loops_solved` / `points_solved`
//! count what the engine's `BlockStats` fields of the same name count.

use crate::c::{emit_c_helpers, expr_c, join_decl};
use crate::lower::{LoweredProgram, SNode};
use crate::writer::CodeWriter;

/// Version stamp folded into the artifact cache key; bump on any protocol
/// or emission change so stale cached binaries can never be reused.
/// (1 = one request per process; 2 = resident request loop, narrowing
/// counters and request ordinal in the trailer.)
pub const PROTOCOL_VERSION: u32 = 2;

/// `u32` marker separating survivor rows from the stats trailer. Never a
/// valid row length (rows are `8 × n_vars ≤ 2^31`).
pub const ROW_SENTINEL: u32 = 0xFFFF_FFFF;

/// Why a plan cannot be lowered to a chunk worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerEmitError {
    /// The plan has no loop at all — nothing to chunk over.
    NoOuterLoop,
    /// A constraint check or visit precedes the first loop; its once-per-
    /// sweep accounting cannot be replicated by per-chunk processes.
    PreambleEffect,
}

impl std::fmt::Display for WorkerEmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerEmitError::NoOuterLoop => write!(f, "plan has no outer loop to chunk"),
            WorkerEmitError::PreambleEffect => {
                write!(f, "plan checks or visits before the first loop")
            }
        }
    }
}

fn contains_effect(nodes: &[SNode]) -> bool {
    nodes.iter().any(|n| match n {
        SNode::Prune { .. } | SNode::Visit => true,
        SNode::If { then, otherwise, .. } => {
            contains_effect(then) || contains_effect(otherwise)
        }
        SNode::RangeLoop { body, .. } | SNode::ValuesLoop { body, .. } => contains_effect(body),
        SNode::Declare { .. } | SNode::Assign { .. } => false,
    })
}

/// Emit statements with the worker's extras: per-point `evaluated[i]++`
/// ahead of every constraint check, and survivor rows streamed on `Visit`.
fn emit(w: &mut CodeWriter, nodes: &[SNode], program: &LoweredProgram) {
    for node in nodes {
        match node {
            SNode::Declare { .. } => {} // all temps pre-declared at the top
            SNode::Assign { var, value } => w.line(format!("{var} = {};", expr_c(value))),
            // A constraint check lowers to exactly `if (cond) prune;` — the
            // shape we key the per-point evaluation counter on.
            SNode::If { cond, then, otherwise }
                if otherwise.is_empty()
                    && matches!(then.as_slice(), [SNode::Prune { .. }]) =>
            {
                let SNode::Prune { idx } = &then[0] else { unreachable!() };
                w.line(format!("evaluated[{idx}]++;"));
                w.open(format!("if ({} != 0) {{", expr_c(cond)));
                w.line(format!("pruned[{idx}]++;"));
                w.line("continue;");
                w.close("}");
            }
            SNode::If { cond, then, otherwise } => {
                w.open(format!("if ({} != 0) {{", expr_c(cond)));
                emit(w, then, program);
                if !otherwise.is_empty() {
                    w.hinge("} else {");
                    emit(w, otherwise, program);
                }
                w.close("}");
            }
            SNode::RangeLoop { var, start, stop, step, const_positive_step, narrow, body } => {
                if let Some(n) = narrow {
                    // Solve instead of enumerating (module docs). The
                    // operands may fail to evaluate, and stand for a check
                    // that only runs on a non-empty range.
                    if *const_positive_step {
                        w.open(format!("if ({start} < {stop}) {{"));
                    } else {
                        w.open(format!(
                            "if (({step} > 0) ? ({start} < {stop}) : ({step} < 0 && {start} > {stop})) {{"
                        ));
                    }
                    emit(w, &n.setup, program);
                    w.line(format!(
                        "b_narrow({}, {}, {}, &{start}, &{stop}, {step});",
                        n.constraint,
                        expr_c(&n.coeff),
                        expr_c(&n.offset)
                    ));
                    w.close("}");
                }
                if *const_positive_step {
                    w.open(format!("for ({var} = {start}; {var} < {stop}; {var} += {step}) {{"));
                } else {
                    w.open(format!(
                        "for ({var} = {start}; ({step} > 0) ? ({var} < {stop}) : ({var} > {stop}); {var} += {step}) {{"
                    ));
                }
                emit(w, body, program);
                w.close("}");
            }
            SNode::ValuesLoop { var, pool, body } => {
                let n = program.pools[*pool].len();
                w.open(format!(
                    "for (size_t _pi_{var} = 0; _pi_{var} < {n}; _pi_{var}++) {{"
                ));
                w.line(format!("{var} = pool_{pool}[_pi_{var}];"));
                emit(w, body, program);
                w.close("}");
            }
            SNode::Prune { idx } => {
                // A prune outside the check shape (should not occur today).
                w.line(format!("pruned[{idx}]++;"));
                w.line("continue;");
            }
            SNode::Visit => {
                w.line("survivors++;");
                for (i, v) in program.vars.iter().enumerate() {
                    w.line(format!("row[{i}] = {v};"));
                }
                w.line("put_u32(8u * (uint32_t)N_VARS);");
                w.line("fwrite(row, 8, N_VARS, stdout);");
            }
        }
    }
}

/// The solve step shared by every narrowed loop of a worker: the C
/// rendition of `beast_core::analyze::narrow::solve_affine` plus its closed-form
/// credit. Called with a realised range the caller proved non-empty.
fn emit_narrow_helper(w: &mut CodeWriter) {
    w.line("/* Solve a loop whose body opens with check `c`, rejecting iff a*x + k != 0");
    w.line("   (mod 2^64), over the non-empty range *start, *start + step, ... before *stop:");
    w.line("   when a*x + k provably never wraps, shrink the bounds to the one value that");
    w.line("   passes (or to nothing) and credit the check for the values skipped. */");
    w.open("static void b_narrow(uint32_t c, int64_t a, int64_t k, int64_t *start, int64_t *stop, int64_t step) {");
    w.line("#ifdef __SIZEOF_INT128__");
    w.line("uint64_t stride = step > 0 ? (uint64_t)step : 0 - (uint64_t)step;");
    w.line("uint64_t span = step > 0 ? (uint64_t)*stop - (uint64_t)*start : (uint64_t)*start - (uint64_t)*stop;");
    w.line("uint64_t len = (span - 1) / stride + 1, skipped = len;");
    w.line("int64_t first = *start, last = (int64_t)((uint64_t)first + (uint64_t)step * (len - 1)), x = 0;");
    w.line("__int128 at_first = (__int128)a * first + k, at_last = (__int128)a * last + k;");
    w.line("if (a == 0 || at_first < INT64_MIN || at_first > INT64_MAX || at_last < INT64_MIN || at_last > INT64_MAX) return;");
    w.line("loops_solved++;");
    w.line("points_solved += len;");
    w.line("*stop = first;");
    w.line("/* Exact and monotone over the range: a zero needs a sign change, a | k, and");
    w.line("   a root on the stride. (a == -1 also keeps INT64_MIN / -1 out of the divide.) */");
    w.open("if ((at_first <= 0 && at_last >= 0) || (at_first >= 0 && at_last <= 0)) {");
    w.line("int on = 1;");
    w.line("if (a == -1) x = k; else if (k % a != 0) on = 0; else x = b_neg(k / a);");
    w.open("if (on && (step > 0 ? (uint64_t)x - (uint64_t)first : (uint64_t)first - (uint64_t)x) % stride == 0) {");
    w.line("*start = x;");
    w.line("*stop = step > 0 ? x + 1 : x - 1;");
    w.line("skipped--;");
    w.close("}");
    w.close("}");
    w.line("evaluated[c] += skipped;");
    w.line("pruned[c] += skipped;");
    w.line("#else");
    w.line("(void)c; (void)a; (void)k; (void)start; (void)stop; (void)step;");
    w.line("#endif");
    w.close("}");
}

/// Lower a program to standalone chunk-worker C source.
///
/// Fails (so the engine can fall back to the in-process tier) when the plan
/// has no outer loop, or when a check/visit precedes it — those execute
/// once per sweep in the engine but would execute once per worker process.
pub fn emit_chunk_worker(p: &LoweredProgram) -> Result<String, WorkerEmitError> {
    let split = p
        .body
        .iter()
        .position(|n| matches!(n, SNode::RangeLoop { .. } | SNode::ValuesLoop { .. }))
        .ok_or(WorkerEmitError::NoOuterLoop)?;
    if contains_effect(&p.body[split + 1..]) {
        // A second top-level nest would also evaluate per chunk.
        return Err(WorkerEmitError::PreambleEffect);
    }
    if contains_effect(&p.body[..split]) {
        return Err(WorkerEmitError::PreambleEffect);
    }

    let nc = p.constraint_names.len();
    let nv = p.vars.len();
    let mut w = CodeWriter::new();
    w.line(format!(
        "/* generated by beast-codegen: native chunk worker for space `{}` (protocol {PROTOCOL_VERSION}) */",
        p.name
    ));
    w.line("#include <stdio.h>");
    w.line("#include <stdint.h>");
    w.line("#include <stdlib.h>");
    w.line("#include <string.h>");
    w.blank();
    emit_c_helpers(&mut w);
    w.blank();
    w.line(format!("#define N_VARS {nv}"));
    w.line(format!("#define N_CONSTRAINTS {nc}"));
    w.line(format!("static uint64_t evaluated[{}];", nc.max(1)));
    w.line(format!("static uint64_t pruned[{}];", nc.max(1)));
    w.line("static uint64_t survivors, loops_solved, points_solved;");
    w.line(format!("static int64_t row[{}];", nv.max(1)));
    for (i, pool) in p.pools.iter().enumerate() {
        let vals: Vec<String> = pool.iter().map(|v| format!("{v}LL")).collect();
        w.line(format!(
            "static const int64_t pool_{i}[{}] = {{{}}};",
            pool.len(),
            vals.join(", ")
        ));
    }
    w.blank();
    w.line("static int read_exact(void *buf, size_t n) { return fread(buf, 1, n, stdin) == n; }");
    w.line("static void put_u32(uint32_t v) { fwrite(&v, 4, 1, stdout); }");
    w.line("static void put_u64(uint64_t v) { fwrite(&v, 8, 1, stdout); }");
    w.blank();
    emit_narrow_helper(&mut w);
    w.blank();

    w.open("static void run_chunk(const int64_t *chunk, uint32_t n_chunk) {");
    if !p.vars.is_empty() {
        w.line(format!("int64_t {};", join_decl(&p.vars)));
    }
    if !p.temps.is_empty() {
        w.line(format!("int64_t {};", join_decl(&p.temps)));
    }
    if !p.narrow_temps.is_empty() {
        w.line(format!("int64_t {};", join_decl(&p.narrow_temps)));
    }
    // Preamble: bound temps (and any pre-loop defines) for the outer loop.
    emit(&mut w, &p.body[..split], p);
    // The outer loop, re-targeted at the supplied chunk values.
    let outer_var = match &p.body[split] {
        SNode::RangeLoop { var, .. } | SNode::ValuesLoop { var, .. } => var.clone(),
        _ => unreachable!("split points at a loop"),
    };
    let body: &[SNode] = match &p.body[split] {
        SNode::RangeLoop { body, .. } | SNode::ValuesLoop { body, .. } => body,
        _ => unreachable!("split points at a loop"),
    };
    w.open("for (uint32_t _ci = 0; _ci < n_chunk; _ci++) {");
    w.line(format!("{outer_var} = chunk[_ci];"));
    emit(&mut w, body, p);
    w.close("}");
    w.close("}");
    w.blank();

    w.open("int main(void) {");
    w.line("static char outbuf[1 << 20];");
    w.line("int64_t *chunk = NULL;");
    w.line("uint32_t cap = 0, ordinal = 0;");
    w.line("setvbuf(stdout, outbuf, _IOFBF, sizeof outbuf);");
    w.open("for (;;) {");
    w.line("uint32_t n_chunk = 0;");
    w.line("size_t got = fread(&n_chunk, 1, 4, stdin);");
    w.line("if (got == 0 && feof(stdin)) return 0;");
    w.open("if (got != 4) {");
    w.line("fprintf(stderr, \"protocol: truncated chunk length\\n\");");
    w.line("return 3;");
    w.close("}");
    w.open("if (n_chunk > cap) {");
    w.line("free(chunk);");
    w.line("chunk = malloc((size_t)n_chunk * 8);");
    w.line("cap = n_chunk;");
    w.close("}");
    w.open("if (n_chunk > 0 && (!chunk || !read_exact(chunk, (size_t)n_chunk * 8))) {");
    w.line("fprintf(stderr, \"protocol: truncated chunk values\\n\");");
    w.line("return 3;");
    w.close("}");
    w.line("memset(evaluated, 0, sizeof evaluated);");
    w.line("memset(pruned, 0, sizeof pruned);");
    w.line("survivors = loops_solved = points_solved = 0;");
    w.line("run_chunk(chunk, n_chunk);");
    w.line(format!("put_u32(0x{ROW_SENTINEL:08X}u);"));
    w.line("put_u32(N_CONSTRAINTS);");
    w.open("for (uint32_t _i = 0; _i < N_CONSTRAINTS; _i++) {");
    w.line("put_u64(evaluated[_i]);");
    w.line("put_u64(pruned[_i]);");
    w.close("}");
    w.line("put_u64(survivors);");
    w.line("put_u64(loops_solved);");
    w.line("put_u64(points_solved);");
    w.line("put_u32(ordinal++);");
    w.line("if (fflush(stdout) != 0 || ferror(stdout)) return 3;");
    w.close("}");
    w.close("}");
    Ok(w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::tree::{GNode, Program};
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;
    use beast_core::ir::LoweredPlan;
    use beast_core::plan::{Plan, PlanOptions};
    use beast_core::space::Space;

    fn worker_for(space: &std::sync::Arc<Space>) -> Result<String, WorkerEmitError> {
        let plan = Plan::new(space, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        emit_chunk_worker(&lower(&Program::from_lowered(&lp).unwrap()))
    }

    #[test]
    fn emits_protocol_scaffolding_and_per_check_counters() {
        let s = Space::builder("worker")
            .range("a", 1, 5)
            .range_step("b", var("a"), 17, var("a"))
            .derived("d", var("a") * var("b"))
            .constraint("big", ConstraintClass::Hard, var("d").gt(20))
            .build()
            .unwrap();
        let src = worker_for(&s).unwrap();
        assert!(src.contains("a = chunk[_ci];"), "outer loop not chunk-driven:\n{src}");
        assert!(src.contains("evaluated[0]++;"));
        assert!(src.contains("pruned[0]++;"));
        assert!(src.contains("put_u32(0xFFFFFFFFu);"));
        assert!(src.contains("fwrite(row, 8, N_VARS, stdout);"));
        // The original outer range loop must be gone — only the chunk loop
        // iterates at top level.
        assert!(!src.contains("for (a = "), "outer range loop survived:\n{src}");
        assert_eq!(src.matches('{').count(), src.matches('}').count());
    }

    fn loops_of(nodes: &mut [GNode], out: &mut Vec<(String, bool)>, strip: bool) {
        for node in nodes {
            if let GNode::Loop { var, narrow, body, .. } = node {
                out.push((var.clone(), narrow.is_some()));
                if strip {
                    *narrow = None;
                }
                loops_of(body, out, strip);
            }
        }
    }

    /// Two stacked solvable loops under a solvable *outer* loop, a list
    /// domain and a define-before-check: only `y` and `z` may narrow.
    fn narrowing_space() -> std::sync::Arc<Space> {
        Space::builder("narrowed")
            .range("x", 1, 9)
            .constraint("x4", ConstraintClass::Hard, var("x").ne(4))
            .range("y", 1, var("x") + 9)
            .constraint("yx", ConstraintClass::Hard, (var("y") * 2).ne(var("x") + 2))
            .range_step("z", var("y"), 40, var("x"))
            .constraint("zy", ConstraintClass::Hard, (var("z") - var("y")).ne(var("x") * 3))
            .list("w", [1i64, 2, 3])
            .constraint("wx", ConstraintClass::Hard, var("w").ne(var("x")))
            .range("v", 0, 5)
            .derived("vv", var("v") + var("w"))
            .constraint("vv3", ConstraintClass::Hard, var("vv").ne(3))
            .build()
            .unwrap()
    }

    #[test]
    fn narrowed_source_precredits_exactly_the_recognised_loops() {
        let plan = Plan::new(&narrowing_space(), PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        let mut program = Program::from_lowered(&lp).unwrap();
        let mut loops = Vec::new();
        loops_of(&mut program.roots, &mut loops, false);
        let narrowed: Vec<&str> =
            loops.iter().filter(|(_, n)| *n).map(|(v, _)| v.as_str()).collect();
        assert_eq!(narrowed, ["y", "z"], "{loops:?}");

        let src = emit_chunk_worker(&lower(&program)).unwrap();
        let calls: Vec<&str> =
            src.lines().map(str::trim).filter(|l| l.starts_with("b_narrow(")).collect();
        assert_eq!(calls.len(), 2, "{calls:?}");
        // Constraint index, then the bounds of the loop it narrows.
        for (call, (constraint, var)) in calls.iter().zip([(1, "y"), (2, "z")]) {
            assert!(call.starts_with(&format!("b_narrow({constraint}, ")), "{calls:?}");
            assert!(call.contains(&format!("&_start_{var}_")), "{calls:?}");
        }
        // `z` steps by a run-time sign: the non-empty proof covers both.
        assert!(src.contains(" < 0 && _start_z_"), "{src}");
        // Bodies are emitted once: every check is still tested in place.
        for idx in 0..5 {
            assert_eq!(src.matches(&format!("evaluated[{idx}]++;")).count(), 1, "check {idx}");
        }
        assert_eq!(src.matches('{').count(), src.matches('}').count());

        // With the narrowings stripped the worker is the enumerating one.
        loops_of(&mut program.roots, &mut Vec::new(), true);
        let plain = emit_chunk_worker(&lower(&program)).unwrap();
        assert!(!plain.lines().any(|l| l.trim().starts_with("b_narrow(")));
    }

    /// Narrowing is for the chunk worker alone: every other backend prints
    /// the same bytes whether or not the tree carries it.
    #[test]
    fn other_backends_ignore_the_narrowing() {
        let spaces = [
            narrowing_space(),
            beast_gemm::build_gemm_space(&beast_gemm::GemmSpaceParams::reduced(16)).unwrap(),
        ];
        for space in &spaces {
            let plan = Plan::new(space, PlanOptions::default()).unwrap();
            let lp = LoweredPlan::new(&plan).unwrap();
            let mut program = Program::from_lowered(&lp).unwrap();
            let with = lower(&program);
            let mut loops = Vec::new();
            loops_of(&mut program.roots, &mut loops, true);
            assert!(loops.iter().any(|(_, n)| *n), "nothing to ignore in {}", space.name());
            let without = lower(&program);
            assert_eq!(with.temps, without.temps);
            for backend in crate::all_backends() {
                assert_eq!(
                    backend.generate(&with),
                    backend.generate(&without),
                    "{} output depends on the narrowing",
                    backend.language()
                );
            }
        }
    }

    /// The emitted `b_narrow` against enumeration under the check's own
    /// (wrapping) semantics, on the grid `beast_core::analyze::narrow` tests its
    /// solver with: it declines exactly when `a = 0` or `a·x + k` leaves
    /// `i64` at an end of the range, and otherwise leaves a range holding
    /// exactly the hits, with everything else credited.
    #[test]
    fn the_c_solve_helper_agrees_with_enumeration_on_a_seeded_grid() {
        let Some(cc) = crate::toolchain::find_c_compiler() else { return };
        let mut w = CodeWriter::new();
        for header in ["stdio", "stdint", "stdlib"] {
            w.line(format!("#include <{header}.h>"));
        }
        emit_c_helpers(&mut w);
        w.line("static uint64_t evaluated[1], pruned[1], loops_solved, points_solved;");
        emit_narrow_helper(&mut w);
        w.open("int main(void) {");
        w.line("long long a, k, start, stop, step;");
        w.open("while (scanf(\"%lld %lld %lld %lld %lld\", &a, &k, &start, &stop, &step) == 5) {");
        w.line("int64_t s = start, e = stop;");
        w.line("evaluated[0] = pruned[0] = loops_solved = points_solved = 0;");
        w.line("b_narrow(0, a, k, &s, &e, step);");
        w.line("printf(\"%lld %lld %llu %llu %llu %llu\\n\", (long long)s, (long long)e, (unsigned long long)evaluated[0], (unsigned long long)pruned[0], (unsigned long long)loops_solved, (unsigned long long)points_solved);");
        w.close("}");
        w.line("return 0;");
        w.close("}");
        let dir = std::env::temp_dir().join(format!("beast-narrow-helper-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (src, bin) = (dir.join("helper.c"), dir.join("helper"));
        crate::toolchain::write_source(&src, &w.finish()).unwrap();
        crate::toolchain::compile(&cc, &["-O2"], &src, &bin).unwrap();

        #[rustfmt::skip]
        let interesting = [
            i64::MIN, i64::MIN + 1, -(1 << 62), -1000, -7, -3, -1, 0, 1, 2, 5, 12, 1 << 31,
            1 << 62, i64::MAX - 1, i64::MAX,
        ];
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut pick = |n: usize| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize % n
        };
        let mut cases = Vec::new();
        while cases.len() < 6_000 {
            let a = interesting[pick(interesting.len())];
            let start: i64 = [-20, -3, 0, 1, 4, i64::MAX - 40, i64::MIN + 40][pick(7)];
            let step: i64 = [1, 2, 3, 7, -1, -2, -5][pick(7)];
            let len = 1 + pick(12) as i128;
            // Any stop strictly inside the last stride realizes `len` values.
            let stop = start as i128 + step as i128 * len
                - step.signum() as i128 * pick(step.unsigned_abs() as usize) as i128;
            let Ok(stop) = i64::try_from(stop) else { continue };
            // Half the time aim k at a value of the range so hits occur.
            let k = if pick(2) == 0 {
                let x = start.wrapping_add(step.wrapping_mul(pick(len as usize + 1) as i64));
                a.wrapping_mul(x).wrapping_neg()
            } else {
                interesting[pick(interesting.len())]
            };
            cases.push((a, k, start, stop, step, len as u64));
        }
        let input: String =
            cases.iter().map(|(a, k, s, e, st, _)| format!("{a} {k} {s} {e} {st}\n")).collect();
        let mut child = std::process::Command::new(&bin)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let mut stdin = child.stdin.take().unwrap();
        let feeder = std::thread::spawn(move || {
            use std::io::Write;
            stdin.write_all(input.as_bytes()).unwrap();
        });
        let out = child.wait_with_output().unwrap();
        feeder.join().unwrap();
        assert!(out.status.success());
        let out = String::from_utf8(out.stdout).unwrap();
        assert_eq!(out.lines().count(), cases.len());

        let range = |start: i64, stop: i64, step: i64| {
            let mut v = Vec::new();
            let mut x = start as i128;
            while if step > 0 { x < stop as i128 } else { x > stop as i128 } {
                v.push(x as i64);
                x += step as i128;
            }
            v
        };
        let (mut solved, mut hit) = (0, 0);
        for (line, &(a, k, start, stop, step, len)) in out.lines().zip(&cases) {
            let at = format!("a={a} k={k} range({start}, {stop}, {step}) -> {line}");
            let f: Vec<i128> = line.split(' ').map(|t| t.parse().unwrap()).collect();
            let (s, e, credit, loops, points) =
                (f[0] as i64, f[1] as i64, (f[2], f[3]), f[4], f[5]);
            let values = range(start, stop, step);
            assert_eq!(values.len() as u64, len, "{at}");
            let ends_fit = [values[0], values[values.len() - 1]]
                .iter()
                .all(|&x| i64::try_from(a as i128 * x as i128 + k as i128).is_ok());
            if a == 0 || !ends_fit {
                assert_eq!((s, e, credit, loops, points), (start, stop, (0, 0), 0, 0), "{at}");
                continue;
            }
            let hits: Vec<i64> = values
                .iter()
                .copied()
                .filter(|&x| a.wrapping_mul(x).wrapping_add(k) == 0)
                .collect();
            assert_eq!(range(s, e, step), hits, "{at}");
            let skipped = (len - hits.len() as u64) as i128;
            assert_eq!((credit, loops, points), ((skipped, skipped), 1, len as i128), "{at}");
            solved += 1;
            hit += hits.len();
        }
        assert!(solved > 1_500 && hit > 300, "grid too tame: {solved} solved, {hit} hits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_planless_or_preamble_effect_shapes() {
        // A space whose only constraint involves no iterators is checked
        // before the first loop — once per sweep — which a per-chunk worker
        // cannot reproduce.
        let s = Space::builder("pre")
            .constant("k", 3)
            .range("a", 0, 4)
            .constraint("never", ConstraintClass::Hard, var("k").gt(10))
            .build()
            .unwrap();
        match worker_for(&s) {
            Err(WorkerEmitError::PreambleEffect) | Ok(_) => {} // hoisting-dependent
            Err(e) => panic!("unexpected: {e:?}"),
        }
    }
}
