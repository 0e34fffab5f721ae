//! The GEMM search space — a line-by-line transcription of the paper's
//! Section IX: global settings (Fig. 10), the 15 iterators (Fig. 11), the
//! derived variables (Fig. 12), and the 12 pruning constraints
//! (Figs. 13–15).
//!
//! Settings (`precision`, `arithmetic`, `trans_a`, `trans_b`) and device
//! parameters enter the space as *constants*; the per-precision branches of
//! Figs. 11–12 are expressed as ternary expressions over those constants, so
//! the lowering pass folds them into straight-line integer code — exactly
//! what the paper's translator does when it specializes the generated C for
//! one autotuning run.

use std::sync::Arc;

use beast_core::constraint::ConstraintClass;
use beast_core::error::SpaceError;
use beast_core::expr::{lit, min2, ternary, var, E};
use beast_core::iterator::build as ib;
use beast_core::space::Space;
use beast_cuda::{CcLimits, DeviceProps};
use beast_gpu_sim::{GemmConfig, Precision, Transpose};

/// Parameters defining one autotuning run (one precision × transpose case on
/// one device — the paper tunes each case separately, Section IX-C).
#[derive(Debug, Clone)]
pub struct GemmSpaceParams {
    /// The target device.
    pub device: DeviceProps,
    /// Arithmetic precision (Fig. 10's `precision` + `arithmetic`).
    pub precision: Precision,
    /// Transposition case (Fig. 10's `trans_a` / `trans_b`).
    pub transpose: Transpose,
    /// Soft-constraint threshold: lowest desired occupancy in threads.
    pub min_threads_per_multiprocessor: i64,
    /// Soft-constraint threshold: lowest desired FMA:load ratio.
    pub min_fmas_per_load: i64,
}

impl GemmSpaceParams {
    /// The paper's default run: double real, no transposes, on a Tesla K40c,
    /// with the Fig. 14 thresholds.
    pub fn paper_default() -> GemmSpaceParams {
        GemmSpaceParams {
            device: DeviceProps::tesla_k40c(),
            precision: Precision::Double,
            transpose: Transpose::default(),
            min_threads_per_multiprocessor: 256,
            min_fmas_per_load: 2,
        }
    }

    /// Same settings on a reduced device (`max_dim` thread-grid limit) so
    /// that full sweeps complete in test- and benchmark-friendly time.
    pub fn reduced(max_dim: i64) -> GemmSpaceParams {
        GemmSpaceParams {
            device: DeviceProps::reduced(max_dim),
            ..GemmSpaceParams::paper_default()
        }
    }

    /// Compute-capability limits for the device.
    pub fn cc(&self) -> CcLimits {
        CcLimits::for_cc(self.device.cuda_major, self.device.cuda_minor)
            .expect("built-in devices have valid compute capabilities")
    }
}

/// Build the GEMM search space.
pub fn build_gemm_space(params: &GemmSpaceParams) -> Result<Arc<Space>, SpaceError> {
    let d = &params.device;
    let cc = params.cc();
    let trans_a = i64::from(params.transpose.a);
    let trans_b = i64::from(params.transpose.b);

    let name = format!(
        "{}gemm_{}_{}",
        params.precision.blas_letter(),
        params.transpose.suffix(),
        d.name.replace(' ', "_").to_lowercase()
    );

    let is_double = || var("precision").eq("double");
    let is_complex = || var("arithmetic").eq("complex");

    // dim_vec domain (Fig. 11): double/real {1,2}; double/complex {1};
    // single/real {1,4}; single/complex {1,2} — encoded as range bounds that
    // fold to constants at lowering time.
    let dim_vec_stop = ternary(
        is_double(),
        ternary(is_complex(), lit(2), lit(3)),
        ternary(is_complex(), lit(3), lit(5)),
    );
    let dim_vec_step = ternary(
        is_double(),
        lit(1),
        ternary(is_complex(), lit(1), lit(3)),
    );

    // Helper: multiply by 2 when `cond`.
    fn double_if(cond: E, base: E) -> E {
        ternary(cond, base.clone() * 2, base)
    }

    let builder = Space::builder(&name)
        // ---- Fig. 10: global settings ----
        .constant("precision", params.precision.precision_str())
        .constant("arithmetic", params.precision.arithmetic_str())
        .constant("trans_a", trans_a)
        .constant("trans_b", trans_b)
        // ---- Fig. 8: device query ----
        .constant("max_threads_per_block", d.max_threads_per_block)
        .constant("max_threads_dim_x", d.max_threads_dim_x)
        .constant("max_threads_dim_y", d.max_threads_dim_y)
        .constant("max_shared_mem_per_block", d.max_shared_mem_per_block)
        .constant("warp_size", d.warp_size)
        .constant("max_regs_per_block", d.max_regs_per_block)
        .constant("max_threads_per_multi_processor", d.max_threads_per_multi_processor)
        .constant("max_registers_per_multi_processor", d.max_registers_per_multi_processor)
        .constant("max_shmem_per_multi_processor", d.max_shmem_per_multi_processor)
        .constant("float_size", d.float_size)
        // ---- Fig. 9: compute-capability lookup ----
        .constant("max_blocks_per_multi_processor", cc.max_blocks_per_multi_processor)
        .constant("max_warps_per_multi_processor", cc.max_warps_per_multi_processor)
        .constant("max_registers_per_thread", cc.max_registers_per_thread)
        // ---- Fig. 14 thresholds ----
        .constant("min_threads_per_multi_processor", params.min_threads_per_multiprocessor)
        .constant("min_fmas_per_load", params.min_fmas_per_load)
        // ---- Fig. 11: the 15 iterators ----
        .range("dim_m", 1, var("max_threads_dim_x") + 1)
        .range("dim_n", 1, var("max_threads_dim_y") + 1)
        .range_step("blk_m", var("dim_m"), var("max_threads_dim_x") + 1, var("dim_m"))
        .range_step("blk_n", var("dim_n"), var("max_threads_dim_y") + 1, var("dim_n"))
        .range(
            "blk_k",
            1,
            min2(var("max_threads_dim_x"), var("max_threads_dim_y")) + 1,
        )
        .iter(
            "dim_vec",
            ib::range_step(lit(1), dim_vec_stop, dim_vec_step),
        )
        .iter(
            "vec_mul",
            ib::range(lit(0), ternary(var("dim_vec").eq(1), lit(1), lit(2))),
        )
        .range(
            "dim_m_a",
            1,
            ternary(
                var("trans_a").eq(0),
                var("blk_m") / var("dim_vec"),
                var("blk_k") / var("dim_vec"),
            ) + 1,
        )
        .range(
            "dim_n_a",
            1,
            ternary(var("trans_a").eq(0), var("blk_k"), var("blk_m")) + 1,
        )
        .range(
            "dim_m_b",
            1,
            ternary(
                var("trans_b").eq(0),
                var("blk_k") / var("dim_vec"),
                var("blk_n") / var("dim_vec"),
            ) + 1,
        )
        .range(
            "dim_n_b",
            1,
            ternary(var("trans_b").eq(0), var("blk_n"), var("blk_k")) + 1,
        )
        .range("tex_a", 0, 2)
        .range("tex_b", 0, 2)
        .range("shmem_l1", 0, 2)
        .range("shmem_banks", 0, 2)
        // ---- Fig. 12: derived variables ----
        .derived("threads_per_block", var("dim_m") * var("dim_n"))
        .derived("thr_m", var("blk_m") / var("dim_m"))
        .derived("thr_n", var("blk_n") / var("dim_n"))
        .derived(
            "regs_per_thread",
            double_if(
                is_complex(),
                double_if(is_double(), var("thr_m") * var("thr_n")),
            ),
        )
        .derived("regs_per_block", var("regs_per_thread") * var("threads_per_block"))
        .derived(
            "shmem_per_block",
            double_if(
                is_complex(),
                double_if(
                    is_double(),
                    var("blk_k") * (var("blk_m") + var("blk_n")) * var("float_size"),
                ),
            ),
        )
        .derived(
            "max_blocks_by_regs",
            min2(
                var("max_registers_per_multi_processor") / var("regs_per_block"),
                var("max_blocks_per_multi_processor"),
            ),
        )
        .derived(
            "max_threads_by_regs",
            var("max_blocks_by_regs") * var("threads_per_block"),
        )
        .derived(
            "max_blocks_by_shmem",
            min2(
                var("max_shmem_per_multi_processor") / var("shmem_per_block"),
                var("max_blocks_per_multi_processor"),
            ),
        )
        .derived(
            "max_threads_by_shmem",
            var("max_blocks_by_shmem") * var("threads_per_block"),
        )
        .derived(
            "loads_per_thread",
            (var("thr_m") + var("thr_n")) * var("blk_k") / var("dim_vec"),
        )
        .derived(
            "loads_per_block",
            double_if(
                is_complex(),
                var("loads_per_thread") * var("threads_per_block"),
            ),
        )
        .derived("fmas_per_thread", var("thr_m") * var("thr_n") * var("blk_k"))
        .derived(
            "fmas_per_block",
            ternary(
                is_complex(),
                var("fmas_per_thread") * var("threads_per_block") * 4,
                var("fmas_per_thread") * var("threads_per_block"),
            ),
        )
        // ---- Fig. 13: hard constraints ----
        .constraint(
            "over_max_threads",
            ConstraintClass::Hard,
            var("threads_per_block").gt(var("max_threads_per_block")),
        )
        .constraint(
            "over_max_regs_per_thread",
            ConstraintClass::Hard,
            var("regs_per_thread").gt(var("max_registers_per_thread")),
        )
        .constraint(
            "over_max_regs_per_block",
            ConstraintClass::Hard,
            var("regs_per_block").gt(var("max_regs_per_block")),
        )
        .constraint(
            "over_max_shmem",
            ConstraintClass::Hard,
            var("shmem_per_block").gt(var("max_shared_mem_per_block")),
        )
        // ---- Fig. 14: soft constraints ----
        .constraint(
            "low_occupancy_regs",
            ConstraintClass::Soft,
            var("max_threads_by_regs").lt(var("min_threads_per_multi_processor")),
        )
        .constraint(
            "low_occupancy_shmem",
            ConstraintClass::Soft,
            var("max_threads_by_shmem").lt(var("min_threads_per_multi_processor")),
        )
        // fmas_per_block / loads_per_block < min_fmas_per_load, written
        // multiplicatively: equivalent for positive counts and safe when a
        // degenerate configuration drives loads_per_block to zero.
        .constraint(
            "low_fmas",
            ConstraintClass::Soft,
            var("fmas_per_block").lt(var("min_fmas_per_load") * var("loads_per_block")),
        )
        .constraint(
            "partial_warps",
            ConstraintClass::Soft,
            (var("threads_per_block") % var("warp_size")).ne(0),
        )
        // ---- Fig. 15: correctness constraints ----
        .constraint(
            "cant_reshape_a1",
            ConstraintClass::Correctness,
            (var("dim_m_a") * var("dim_n_a")).ne(var("threads_per_block")),
        )
        .constraint(
            "cant_reshape_b1",
            ConstraintClass::Correctness,
            (var("dim_m_b") * var("dim_n_b")).ne(var("threads_per_block")),
        )
        .constraint(
            "cant_reshape_a2",
            ConstraintClass::Correctness,
            var("trans_a")
                .eq(0)
                .and(
                    (var("blk_m") % (var("dim_m_a") * var("dim_vec")))
                        .ne(0)
                        .or((var("blk_k") % var("dim_n_a")).ne(0)),
                )
                .or(var("trans_a").ne(0).and(
                    (var("blk_k") % (var("dim_m_a") * var("dim_vec")))
                        .ne(0)
                        .or((var("blk_m") % var("dim_n_a")).ne(0)),
                )),
        )
        .constraint(
            "cant_reshape_b2",
            ConstraintClass::Correctness,
            var("trans_b")
                .eq(0)
                .and(
                    (var("blk_k") % (var("dim_m_b") * var("dim_vec")))
                        .ne(0)
                        .or((var("blk_n") % var("dim_n_b")).ne(0)),
                )
                .or(var("trans_b").ne(0).and(
                    (var("blk_n") % (var("dim_m_b") * var("dim_vec")))
                        .ne(0)
                        .or((var("blk_k") % var("dim_n_b")).ne(0)),
                )),
        );

    builder.build()
}

/// The 15 iterator names in definition order (Fig. 11).
pub const ITERATOR_NAMES: [&str; 15] = [
    "dim_m",
    "dim_n",
    "blk_m",
    "blk_n",
    "blk_k",
    "dim_vec",
    "vec_mul",
    "dim_m_a",
    "dim_n_a",
    "dim_m_b",
    "dim_n_b",
    "tex_a",
    "tex_b",
    "shmem_l1",
    "shmem_banks",
];

/// Extract a [`GemmConfig`] from a borrowed point view, by name. A scoring
/// closure over one plan's survivors reads rows by index instead
/// ([`ConfigSlots`]).
pub fn pointref_to_config(point: &beast_engine::point::PointRef<'_>) -> GemmConfig {
    config_from(|i| {
        let name = ITERATOR_NAMES[i];
        point
            .get(name)
            .unwrap_or_else(|| panic!("point missing `{name}`"))
            .as_int()
            .expect("gemm parameters are integers")
    })
}

/// Extract a [`GemmConfig`] from a surviving point.
pub fn point_to_config(point: &beast_engine::point::Point) -> GemmConfig {
    config_from(|i| point.get_int(ITERATOR_NAMES[i]))
}

/// GEMM's iterators ([`ITERATOR_NAMES`]) resolved to their slots once per
/// plan, so a survivor's [`GemmConfig`] reads its row by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigSlots([usize; ITERATOR_NAMES.len()]);

impl ConfigSlots {
    /// Resolve every iterator among a plan's slot `names`; `None` when one
    /// is missing.
    pub fn new(names: &[Arc<str>]) -> Option<ConfigSlots> {
        let mut slots = [0; ITERATOR_NAMES.len()];
        for (slot, name) in slots.iter_mut().zip(ITERATOR_NAMES) {
            *slot = names.iter().position(|n| &**n == name)?;
        }
        Some(ConfigSlots(slots))
    }

    /// The config of a survivor row, in the plan's slot order.
    pub fn config(&self, row: &[i64]) -> GemmConfig {
        config_from(|i| row[self.0[i]])
    }
}

/// A [`GemmConfig`] from the integer value of each iterator, by its index
/// in [`ITERATOR_NAMES`].
fn config_from(gi: impl Fn(usize) -> i64) -> GemmConfig {
    GemmConfig {
        dim_m: gi(0),
        dim_n: gi(1),
        blk_m: gi(2),
        blk_n: gi(3),
        blk_k: gi(4),
        dim_vec: gi(5),
        vec_mul: gi(6) != 0,
        dim_m_a: gi(7),
        dim_n_a: gi(8),
        dim_m_b: gi(9),
        dim_n_b: gi(10),
        tex_a: gi(11) != 0,
        tex_b: gi(12) != 0,
        shmem_l1: gi(13) != 0,
        shmem_banks: gi(14) != 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::plan::{Plan, PlanOptions};

    #[test]
    fn full_space_builds_for_all_cases() {
        for precision in Precision::all() {
            for transpose in Transpose::all() {
                let params = GemmSpaceParams {
                    precision,
                    transpose,
                    ..GemmSpaceParams::paper_default()
                };
                let space = build_gemm_space(&params).unwrap();
                assert_eq!(space.iters().len(), 15);
                assert_eq!(space.deriveds().len(), 14);
                assert_eq!(space.constraints().len(), 12);
                assert!(!space.has_opaque_nodes());
            }
        }
    }

    #[test]
    fn iterator_names_match_fig11() {
        let space = build_gemm_space(&GemmSpaceParams::paper_default()).unwrap();
        let names: Vec<&str> = space.iters().iter().map(|d| &*d.name).collect();
        assert_eq!(names, ITERATOR_NAMES);
    }

    #[test]
    fn constraint_classes_match_paper() {
        let space = build_gemm_space(&GemmSpaceParams::paper_default()).unwrap();
        let hard: Vec<&str> = space
            .constraints()
            .iter()
            .filter(|c| c.class == ConstraintClass::Hard)
            .map(|c| &*c.name)
            .collect();
        assert_eq!(
            hard,
            vec![
                "over_max_threads",
                "over_max_regs_per_thread",
                "over_max_regs_per_block",
                "over_max_shmem"
            ]
        );
        let soft = space
            .constraints()
            .iter()
            .filter(|c| c.class == ConstraintClass::Soft)
            .count();
        let correctness = space
            .constraints()
            .iter()
            .filter(|c| c.class == ConstraintClass::Correctness)
            .count();
        assert_eq!((soft, correctness), (4, 4));
    }

    /// One-root programs pay for themselves on the paper's own workload:
    /// across the lowered GEMM plan's derived/constraint expressions and
    /// range bounds, a program has at most one instruction per operator of
    /// its tree and strictly fewer in aggregate (leaves are operands, the
    /// `|| 0` and `!= 0` of the reshape constraints fold away), and a
    /// constant subtree in place of any literal folds back to that literal.
    #[test]
    fn point_programs_fold_lowered_gemm_expressions() {
        use beast_core::ir::{IntBinOp, IntExpr, LBody, LIter, LStep, LoweredPlan};
        use beast_core::pointprog::RootProg;

        let space = build_gemm_space(&GemmSpaceParams::paper_default()).unwrap();
        let plan = Plan::new(&space, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();

        let mut exprs: Vec<&IntExpr> = Vec::new();
        for step in &lp.steps {
            match step {
                LStep::Bind { domain: LIter::Range { start, stop, step }, .. } => {
                    exprs.extend([start, stop, step]);
                }
                LStep::Define { body: LBody::Expr(e), .. }
                | LStep::Check { body: LBody::Expr(e), .. } => exprs.push(e),
                _ => {}
            }
        }
        assert!(!exprs.is_empty(), "lowered GEMM plan has no integer expressions");

        /// Operator (non-leaf) nodes of a tree.
        fn operators(e: &IntExpr) -> usize {
            let mut leaves = 0;
            e.for_each_slot(&mut |_| leaves += 1);
            e.op_count() as usize - leaves - consts(e)
        }
        fn consts(e: &IntExpr) -> usize {
            match e {
                IntExpr::Const(_) => 1,
                IntExpr::Slot(_) => 0,
                IntExpr::Neg(a) | IntExpr::Not(a) | IntExpr::Abs(a) => consts(a),
                IntExpr::Bin(_, a, b) | IntExpr::Call2(_, a, b) => consts(a) + consts(b),
                IntExpr::Ternary(c, t, f) => consts(c) + consts(t) + consts(f),
            }
        }
        /// `e` with its first literal `k` spelled `(k * 3) - (k * 2)`.
        fn splice(e: &IntExpr) -> Option<IntExpr> {
            let b = Box::new;
            match e {
                IntExpr::Const(k) => Some(IntExpr::Bin(
                    IntBinOp::Sub,
                    b(IntExpr::Bin(IntBinOp::Mul, b(IntExpr::Const(*k)), b(IntExpr::Const(3)))),
                    b(IntExpr::Bin(IntBinOp::Mul, b(IntExpr::Const(*k)), b(IntExpr::Const(2)))),
                )),
                IntExpr::Slot(_) => None,
                IntExpr::Neg(a) => splice(a).map(|a| IntExpr::Neg(b(a))),
                IntExpr::Not(a) => splice(a).map(|a| IntExpr::Not(b(a))),
                IntExpr::Abs(a) => splice(a).map(|a| IntExpr::Abs(b(a))),
                IntExpr::Bin(op, x, y) => splice(x)
                    .map(|x| IntExpr::Bin(*op, b(x), y.clone()))
                    .or_else(|| splice(y).map(|y| IntExpr::Bin(*op, x.clone(), b(y)))),
                IntExpr::Call2(f, x, y) => splice(x)
                    .map(|x| IntExpr::Call2(*f, b(x), y.clone()))
                    .or_else(|| splice(y).map(|y| IntExpr::Call2(*f, x.clone(), b(y)))),
                IntExpr::Ternary(..) => None,
            }
        }

        let (mut ins, mut ops, mut spliced) = (0usize, 0usize, 0usize);
        for e in exprs {
            let p = RootProg::compile(e);
            assert!(p.len() <= operators(e), "{} instructions for {e}", p.len());
            ins += p.len();
            ops += operators(e);
            if let Some(s) = splice(e) {
                assert_eq!(RootProg::compile(&s), p, "spliced constant in {e}");
                spliced += 1;
            }
        }
        assert!(spliced > 0, "no GEMM expression holds a literal");
        assert!(ins < ops, "nothing folded across the GEMM plan ({ins} vs {ops} operators)");
    }

    #[test]
    fn dag_levels_are_sensible() {
        let space = build_gemm_space(&GemmSpaceParams::paper_default()).unwrap();
        let dag = space.dag();
        // dim_m / dim_n are independent (level 0).
        assert_eq!(dag.level(0), 0);
        assert_eq!(dag.level(1), 0);
        // blk_m depends on dim_m.
        let blk_m = space.iters().iter().position(|d| &*d.name == "blk_m").unwrap();
        assert_eq!(dag.level(space.iter_node(blk_m)), 1);
        // dim_m_a depends on blk_m and dim_vec.
        let dim_m_a =
            space.iters().iter().position(|d| &*d.name == "dim_m_a").unwrap();
        assert!(dag.level(space.iter_node(dim_m_a)) >= 2);
    }

    #[test]
    fn plan_and_lowering_succeed() {
        let space = build_gemm_space(&GemmSpaceParams::reduced(16)).unwrap();
        let plan = Plan::new(&space, PlanOptions::default()).unwrap();
        let lowered = beast_core::ir::LoweredPlan::new(&plan).unwrap();
        // String settings must be entirely folded away.
        assert!(!lowered.has_opaque_steps());
        // 15 iterators + 14 deriveds = 29 slots.
        assert_eq!(lowered.n_slots, 29);
    }

    #[test]
    fn dot_output_mentions_all_iterators() {
        let space = build_gemm_space(&GemmSpaceParams::paper_default()).unwrap();
        let dot = space.dag().to_dot("gemm");
        for name in ITERATOR_NAMES {
            assert!(dot.contains(name), "missing {name}");
        }
        assert!(dot.contains("octagon")); // constraints styled like Fig. 16
    }
}
