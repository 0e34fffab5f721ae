//! # beast-engine
//!
//! Evaluation backends for `beast-core` search spaces, reproducing the
//! performance study of *"Search Space Generation and Pruning System for
//! Autotuners"* (IPDPSW 2016), Sections X–XI:
//!
//! | Backend | Paper analog | Cost model |
//! |---|---|---|
//! | [`walker::Walker`] | Python (Fig. 17) | AST interpretation, hash-map variable access, three loop syntaxes |
//! | [`vm::Vm`] | Lua (Fig. 18) | register bytecode, dispatch per op, three loop syntaxes |
//! | [`compiled::Compiled`] | generated C (Fig. 19) | folded constants, flat `i64` slots, native loop control |
//! | [`parallel::run_parallel`] | multithreaded generated C (Section X-B) | compiled backend, dynamically scheduled over level-0 chunks |
//!
//! All backends execute the *same* plan and produce identical survivors and
//! pruning statistics (cross-checked by integration tests); they differ only
//! in evaluation machinery, which is exactly the variable the paper measures.
//!
//! ```
//! use beast_core::prelude::*;
//! use beast_engine::prelude::*;
//!
//! let space = Space::builder("demo")
//!     .range("a", 1, 9)
//!     .range_step("b", var("a"), 17, var("a"))
//!     .constraint("odd", ConstraintClass::Soft, (var("b") % 2).ne(0))
//!     .build()
//!     .unwrap();
//! let plan = Plan::new(&space, PlanOptions::default()).unwrap();
//! let lowered = LoweredPlan::new(&plan).unwrap();
//!
//! let compiled = Compiled::new(lowered);
//! let out = compiled.run(CountVisitor::default()).unwrap();
//! assert!(out.visitor.count > 0);
//! println!("{}", out.stats.render_funnel(&space));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod compiled;
pub mod distribute;
pub mod fault;
mod narrow;
pub mod native;
pub mod parallel;
pub mod point;
#[doc(hidden)]
pub mod postfix;
mod replay;
pub mod service;
pub mod stats;
pub mod sweep;
pub mod telemetry;
pub mod visit;
pub mod viz;
pub mod vm;
pub mod walker;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::checkpoint::{run_checkpointed, CheckpointConfig, SaveState};
    pub use crate::compiled::{Compiled, EngineOptions, EngineTier};
    pub use crate::distribute::{
        run_distributed, run_distributed_checkpointed, serve_worker, DistributeOptions,
        WorkerChaos,
    };
    pub use crate::fault::{CancelToken, FaultInjector, FaultPolicy, FaultRecord};
    pub use crate::native::{NativeContext, NativeStats};
    pub use crate::parallel::{run_parallel, run_parallel_report, ParallelOptions};
    pub use crate::point::{Point, PointRef};
    pub use crate::service::cache::{run_cached, CacheStats, SweepCache};
    pub use crate::service::{ResolvedSpace, ServiceConfig, SpaceResolver, SweepService};
    pub use crate::stats::{BlockStats, FaultCounters, PruneStats};
    pub use crate::sweep::SweepError;
    pub use crate::telemetry::{SweepProgress, SweepReport};
    pub use crate::visit::{
        BestK, CollectVisitor, CountVisitor, FingerprintVisitor, Reservoir, Visitor,
    };
    pub use crate::vm::{Vm, VmStyle};
    pub use crate::walker::{LoopStyle, SweepOutcome, Walker};
}
