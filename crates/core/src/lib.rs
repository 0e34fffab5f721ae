//! # beast-core
//!
//! Declarative search-space generation and pruning for autotuners — a Rust
//! reproduction of the BEAST language from *"Search Space Generation and
//! Pruning System for Autotuners"* (Luszczek et al., IPDPSW 2016).
//!
//! A search space is described declaratively as
//!
//! * **iterators** — the tunable dimensions; expression ranges, value lists,
//!   deferred functions of other iterators, or stateful generator closures
//!   (Section V of the paper);
//! * **derived variables** — named intermediate quantities (Fig. 12);
//! * **constraints** — hard / soft / correctness predicates that prune the
//!   space, where `true` means *reject* (Section VI, Figs. 13–15).
//!
//! Dependencies between definitions are extracted automatically (for
//! expression forms) or declared (for deferred forms), producing a DAG whose
//! level sets order the generated loop nest (Section X). Constraints and
//! derived variables are hoisted to the shallowest loop at which their inputs
//! are bound, so one failed check prunes an entire subtree.
//!
//! ## Quick example
//!
//! ```
//! use beast_core::prelude::*;
//!
//! let space = Space::builder("example")
//!     .constant("max_threads", 1024)
//!     .range("dim_m", 1, 33)
//!     .range("dim_n", 1, 33)
//!     .derived("threads", var("dim_m") * var("dim_n"))
//!     .constraint(
//!         "over_max_threads",
//!         ConstraintClass::Hard,
//!         var("threads").gt(var("max_threads")),
//!     )
//!     .build()
//!     .unwrap();
//!
//! let plan = Plan::new(&space, PlanOptions::default()).unwrap();
//! assert_eq!(plan.loop_iters().len(), 2);
//! ```
//!
//! Evaluation engines live in the `beast-engine` crate; source-code
//! generation (the paper's "translation to standard C") in `beast-codegen`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod constraint;
pub mod dag;
pub mod derived;
pub mod error;
pub mod expr;
pub mod hash;
pub mod interval;
pub mod ir;
pub mod iterator;
mod macros;
pub mod plan;
pub mod pointprog;
pub mod schedule;
pub mod space;
pub mod value;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::analyze::{Congruence, Diagnostic, LintGate, LintReport, LintSummary, Severity};
    pub use crate::constraint::{ConstraintClass, ConstraintKind};
    pub use crate::dag::{Dag, NodeKind};
    pub use crate::derived::DerivedKind;
    pub use crate::error::{EvalError, SpaceError};
    pub use crate::expr::{lit, max2, min2, ternary, var, Bindings, Expr, VarRef, E};
    pub use crate::hash::Fnv1a;
    pub use crate::interval::{interval_of, Interval, IntervalOutcome, IvProg, IvScratch};
    pub use crate::ir::{IntExpr, LoweredPlan};
    pub use crate::iterator::{build as iter_build, IterKind, Realized};
    pub use crate::plan::{LoopOrder, Plan, PlanOptions, Step};
    pub use crate::pointprog::PointProg;
    pub use crate::schedule::ScheduleMode;
    pub use crate::space::{Space, SpaceBuilder};
    pub use crate::value::Value;
}

// The seeded space generators of the workspace's integration tests, for
// unit tests that need this crate's test-only hooks. They import
// `beast::prelude`, which here is this crate's.
#[cfg(test)]
extern crate self as beast;
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../../tests/common/narrow_gen.rs"]
mod narrow_gen;
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../../tests/common/replay_gen.rs"]
mod replay_gen;
