//! The name the compiled engine's expression programs had while they ran on
//! a stack machine. They are [`beast_core::pointprog::PointProg`]s now; the
//! alias stays only because the standalone `benchmark/` harness still
//! compiles against it (`Postfix::compile(e).len()`, its
//! `core.postfix_ops` probe, which counts register instructions).

pub use beast_core::pointprog::PointProg as Postfix;
