//! The retired constraint-schedule switch, kept as a name only.
//!
//! Every engine runs a level's checks in the order the planner emitted
//! them: the paper's order, the one the walker, the counter and the
//! generated C share (DESIGN.md §5). [`ScheduleMode`] survives so that the
//! standalone `benchmark/` crate still compiles; both variants mean the
//! declared order.

/// Both variants select the declared check order.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// The declared plan order.
    #[default]
    Declared,
    /// Retired: the declared plan order.
    Adaptive,
}
