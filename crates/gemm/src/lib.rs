//! # beast-gemm
//!
//! The paper's model autotuning problem (Section IX): the GEMM kernel for
//! NVIDIA GPUs, "the largest and most complex search space, and the largest
//! and most complex set of pruning constraints" the BEAST project
//! encountered — 15 iterators (Fig. 11), 14 derived variables (Fig. 12), and
//! 12 pruning constraints in three classes (Figs. 13–15), parameterized by
//! device properties (Fig. 8), compute-capability tables (Fig. 9) and the
//! precision/transpose settings (Fig. 10).
//!
//! [`space::build_gemm_space`] transcribes the paper's listings into a
//! `beast-core` space; [`tune::tune_gemm`] runs the full loop: enumerate
//! with the compiled multithreaded engine, prune, score each survivor with
//! the analytic performance model, and return the best kernels — each of
//! which is then *numerically verified* by the functional simulator.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batched;
pub mod resolve;
pub mod space;
pub mod tune;

pub use batched::{
    build_batched_cholesky_space, estimate_batched, point_to_batched_config,
    tune_batched_cholesky, BatchedCholeskyConfig, BatchedCholeskyParams,
};
pub use resolve::{gemm_resolver, resolve_gemm_space};
pub use space::{
    build_gemm_space, point_to_config, pointref_to_config, ConfigSlots, GemmSpaceParams,
    ITERATOR_NAMES,
};
pub use tune::{count_survivors, tune_gemm, verify_config, verify_config_for, TuneOutcome, TunedKernel};
