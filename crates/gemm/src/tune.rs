//! End-to-end GEMM autotuning: enumerate → prune → score → pick.
//!
//! This is the full BEAST loop of Section I — "the variants that pass the
//! pruning process are compiled, run and benchmarked, and the best
//! performers are identified" — with the analytic performance model standing
//! in for compile-and-run (the substitution documented in DESIGN.md), and
//! the functional simulator available to *verify* that winning
//! configurations compute correct products.

use beast_core::error::{EvalError, SpaceError};
use beast_core::ir::LoweredPlan;
use beast_core::plan::{Plan, PlanOptions};
use beast_engine::parallel::run_parallel;
use beast_engine::point::{Point, PointRef};
use beast_engine::stats::PruneStats;
use beast_engine::sweep::SweepError;
use beast_engine::visit::BestK;
use beast_gpu_sim::{estimate, model_peak, GemmConfig, Matrix, PerfEstimate};

use crate::space::{
    build_gemm_space, point_to_config, pointref_to_config, ConfigSlots, GemmSpaceParams,
};

/// Errors from the tuning pipeline.
#[derive(Debug)]
pub enum TuneError {
    /// The space failed to build or lower.
    Space(SpaceError),
    /// Evaluation failed at runtime.
    Eval(EvalError),
    /// The sweep driver failed (worker panic, checkpoint I/O).
    Sweep(SweepError),
}

impl From<SpaceError> for TuneError {
    fn from(e: SpaceError) -> Self {
        TuneError::Space(e)
    }
}

impl From<EvalError> for TuneError {
    fn from(e: EvalError) -> Self {
        TuneError::Eval(e)
    }
}

impl From<SweepError> for TuneError {
    fn from(e: SweepError) -> Self {
        match e {
            SweepError::Space(s) => TuneError::Space(s),
            SweepError::Eval(v) => TuneError::Eval(v),
            other => TuneError::Sweep(other),
        }
    }
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::Space(e) => write!(f, "space error: {e}"),
            TuneError::Eval(e) => write!(f, "evaluation error: {e}"),
            TuneError::Sweep(e) => write!(f, "sweep error: {e}"),
        }
    }
}

impl std::error::Error for TuneError {}

/// One tuned candidate.
#[derive(Debug, Clone)]
pub struct TunedKernel {
    /// The configuration.
    pub config: GemmConfig,
    /// Its modeled performance.
    pub perf: PerfEstimate,
    /// The surviving point (all iterator + derived values).
    pub point: Point,
}

/// Result of a tuning sweep.
#[derive(Debug)]
pub struct TuneOutcome {
    /// The top-k configurations, best first.
    pub best: Vec<TunedKernel>,
    /// Pruning statistics for the sweep.
    pub stats: PruneStats,
    /// Survivor count.
    pub survivors: u64,
    /// The device's model peak for this precision, GFLOP/s.
    pub peak_gflops: f64,
}

impl TuneOutcome {
    /// Best configuration's fraction of model peak (the paper's Table I
    /// "80% of peak" metric); zero if nothing survived.
    pub fn best_fraction_of_peak(&self) -> f64 {
        self.best.first().map(|k| k.perf.fraction_of_peak).unwrap_or(0.0)
    }
}

/// Run the full autotuning sweep for the given parameters, keeping the
/// best `k` configurations, using `threads` worker threads.
pub fn tune_gemm(
    params: &GemmSpaceParams,
    k: usize,
    threads: usize,
) -> Result<TuneOutcome, TuneError> {
    let space = build_gemm_space(params)?;
    let plan = Plan::new(&space, PlanOptions::default())?;
    let lowered = LoweredPlan::new(&plan)?;

    let device = params.device.clone();
    let cc = params.cc();
    let precision = params.precision;
    let names: std::sync::Arc<[std::sync::Arc<str>]> =
        std::sync::Arc::from(lowered.slot_names.clone().into_boxed_slice());

    let config_slots =
        ConfigSlots::new(&lowered.slot_names).expect("a GEMM plan binds every GEMM iterator");
    let score_device = device.clone();
    let make = move || {
        let device = score_device.clone();
        BestK::new(names.clone(), k, move |point| {
            let config = match point {
                PointRef::Slots { slots, .. } => config_slots.config(slots),
                PointRef::Env { .. } => pointref_to_config(point),
            };
            estimate(&device, &cc, &config, precision).gflops
        })
    };

    let out = run_parallel(&lowered, threads, make)?;
    let survivors = out.stats.survivors;
    let best = out
        .visitor
        .best
        .into_iter()
        .map(|(_, point)| {
            let config = point_to_config(&point);
            let perf = estimate(&device, &cc, &config, precision);
            TunedKernel { config, perf, point }
        })
        .collect();

    Ok(TuneOutcome {
        best,
        stats: out.stats,
        survivors,
        peak_gflops: model_peak(&device, precision),
    })
}

/// Verify a tuned configuration numerically: simulate the kernel on a
/// random tile-compatible workload and compare against the reference GEMM.
/// Returns the max-norm error. Double-precision convenience wrapper of
/// [`verify_config_for`].
pub fn verify_config(config: &GemmConfig, transpose: beast_gpu_sim::Transpose) -> f64 {
    verify_config_for::<f64>(config, transpose)
}

/// Verify a configuration at any of the four LAPACK precisions (the scalar
/// type parameter selects S/D/C/Z, matching the paper's per-precision
/// tuning runs).
pub fn verify_config_for<T: beast_gpu_sim::Scalar>(
    config: &GemmConfig,
    transpose: beast_gpu_sim::Transpose,
) -> f64 {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEA57);
    let m = (config.blk_m as usize) * 2;
    let n = (config.blk_n as usize) * 2;
    let k = (config.blk_k as usize) * 2;
    let a: Matrix<T> = if transpose.a {
        Matrix::random(k, m, &mut rng)
    } else {
        Matrix::random(m, k, &mut rng)
    };
    let b: Matrix<T> = if transpose.b {
        Matrix::random(n, k, &mut rng)
    } else {
        Matrix::random(k, n, &mut rng)
    };
    let expect = beast_gpu_sim::reference_gemm_trans(&a, &b, transpose.a, transpose.b);
    let got = beast_gpu_sim::sim_gemm(config, &a, &b, transpose.a, transpose.b);
    got.c.max_dist(&expect)
}

/// Count survivors of the sweep without scoring (used by the headline
/// experiment and tests).
pub fn count_survivors(
    params: &GemmSpaceParams,
    threads: usize,
) -> Result<(u64, PruneStats), TuneError> {
    let space = build_gemm_space(params)?;
    let plan = Plan::new(&space, PlanOptions::default())?;
    let lowered = LoweredPlan::new(&plan)?;
    let out = run_parallel(
        &lowered,
        threads,
        beast_engine::visit::CountVisitor::default,
    )?;
    Ok((out.visitor.count, out.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_gpu_sim::Transpose;

    #[test]
    fn reduced_sweep_finds_good_correct_kernels() {
        let params = GemmSpaceParams::reduced(48);
        let outcome = tune_gemm(&params, 5, 4).unwrap();
        assert!(outcome.survivors > 0, "no survivors");
        assert!(!outcome.best.is_empty());
        // Scores are sorted descending.
        for w in outcome.best.windows(2) {
            assert!(w[0].perf.gflops >= w[1].perf.gflops);
        }
        // Every winner must compute a numerically correct product.
        for kernel in &outcome.best {
            let err = verify_config(&kernel.config, Transpose::default());
            assert!(
                err < 1e-10,
                "winning config {:?} computes wrong results (err {err})",
                kernel.config
            );
        }
    }

    #[test]
    fn survivors_satisfy_all_constraints_independently() {
        // Cross-check the space's constraint expressions against the
        // independent Rust implementation in beast-gpu-sim::config.
        let params = GemmSpaceParams::reduced(16);
        let outcome = tune_gemm(&params, 50, 2).unwrap();
        let device = &params.device;
        let cc = params.cc();
        for kernel in &outcome.best {
            let d = kernel.config.derived(
                device,
                cc.max_blocks_per_multi_processor,
                params.precision,
            );
            // Hard constraints.
            assert!(d.threads_per_block <= device.max_threads_per_block);
            assert!(d.regs_per_thread <= cc.max_registers_per_thread);
            assert!(d.regs_per_block <= device.max_regs_per_block);
            assert!(d.shmem_per_block <= device.max_shared_mem_per_block);
            // Soft constraints.
            assert!(d.max_threads_by_regs >= params.min_threads_per_multiprocessor);
            assert!(d.max_threads_by_shmem >= params.min_threads_per_multiprocessor);
            assert!(d.fmas_per_block >= params.min_fmas_per_load * d.loads_per_block);
            assert_eq!(d.threads_per_block % device.warp_size, 0);
            // Correctness constraints.
            let c = &kernel.config;
            assert_eq!(c.dim_m_a * c.dim_n_a, d.threads_per_block);
            assert_eq!(c.dim_m_b * c.dim_n_b, d.threads_per_block);
            assert_eq!(c.blk_m % (c.dim_m_a * c.dim_vec), 0);
            assert_eq!(c.blk_k % c.dim_n_a, 0);
            assert_eq!(c.blk_k % (c.dim_m_b * c.dim_vec), 0);
            assert_eq!(c.blk_n % c.dim_n_b, 0);
        }
    }

    #[test]
    fn pruning_removes_most_of_the_space() {
        // The paper cites pruning "sometimes by as much as 99%".
        let (survivors, stats) = count_survivors(&GemmSpaceParams::reduced(16), 2).unwrap();
        assert!(survivors > 0);
        assert!(
            stats.pruned_fraction() > 0.9,
            "expected >90% pruning, got {:.2}%",
            100.0 * stats.pruned_fraction()
        );
    }

    #[test]
    fn all_precisions_tune_and_verify() {
        use beast_gpu_sim::{Complex, Precision};
        for precision in Precision::all() {
            let params = GemmSpaceParams {
                precision,
                ..GemmSpaceParams::reduced(16)
            };
            let outcome = tune_gemm(&params, 2, 2).unwrap();
            assert!(outcome.survivors > 0, "{precision:?}");
            for kernel in &outcome.best {
                let c = &kernel.config;
                let t = beast_gpu_sim::Transpose::default();
                let err = match precision {
                    Precision::Single => verify_config_for::<f32>(c, t),
                    Precision::Double => verify_config_for::<f64>(c, t),
                    Precision::SingleComplex => verify_config_for::<Complex<f32>>(c, t),
                    Precision::DoubleComplex => verify_config_for::<Complex<f64>>(c, t),
                };
                let tol = match precision {
                    Precision::Single | Precision::SingleComplex => 1e-2,
                    _ => 1e-10,
                };
                assert!(
                    err < tol,
                    "{precision:?}: config {c:?} wrong (err {err})"
                );
            }
        }
    }

    #[test]
    fn transposed_cases_tune_too() {
        for transpose in Transpose::all() {
            let params = GemmSpaceParams {
                transpose,
                ..GemmSpaceParams::reduced(16)
            };
            let outcome = tune_gemm(&params, 3, 2).unwrap();
            assert!(outcome.survivors > 0, "case {}", transpose.suffix());
            for kernel in &outcome.best {
                let err = verify_config(&kernel.config, transpose);
                assert!(
                    err < 1e-10,
                    "case {}: config {:?} wrong (err {err})",
                    transpose.suffix(),
                    kernel.config
                );
            }
        }
    }
}
