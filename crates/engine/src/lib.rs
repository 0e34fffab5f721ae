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
//! | [`sweep::sweep`] | multithreaded generated C (Section X-B) | compiled backend, dynamically scheduled over level-0 chunks |
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
    pub use crate::checkpoint::{CheckpointConfig, SaveState};
    pub use crate::compiled::{Compiled, EngineOptions, EngineTier};
    pub use crate::distribute::{serve_worker, WorkerChaos, Workers};
    pub use crate::fault::{CancelToken, FaultInjector, FaultPolicy, FaultRecord};
    pub use crate::native::{NativeContext, NativeStats};
    pub use crate::point::{Point, PointRef};
    pub use crate::service::cache::{CacheStats, SweepCache};
    pub use crate::service::{ResolvedSpace, ServiceConfig, SpaceResolver, SweepService};
    pub use crate::stats::{BlockStats, FaultCounters, PruneStats};
    pub use crate::sweep::{sweep, SweepError, SweepSpec};
    pub use crate::telemetry::{SweepProgress, SweepReport};
    pub use crate::visit::{BestK, CollectVisitor, CountVisitor, FingerprintVisitor, Visitor};
    pub use crate::vm::{Vm, VmStyle};
    pub use crate::walker::{LoopStyle, SweepOutcome, Walker};
}

// The seeded space generators of the workspace's integration tests, for
// unit tests that need this crate's test-only hooks. They import
// `beast::prelude`, which here is the core crate's.
#[cfg(test)]
extern crate beast_core as beast;
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../../tests/common/narrow_gen.rs"]
mod narrow_gen;
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../../tests/common/replay_gen.rs"]
mod replay_gen;
