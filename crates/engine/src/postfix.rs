//! The name the compiled engine's expression programs had while they ran on
//! a stack machine. An expression outside a run is a
//! [`beast_core::pointprog::RootProg`] now, a one-root program in its
//! consumer's value file; the alias stays only because the standalone
//! `benchmark/` harness still compiles against it
//! (`Postfix::compile(e).len()`, its `core.postfix_ops` probe, which counts
//! the instructions of each expression compiled alone).

pub use beast_core::pointprog::RootProg as Postfix;
