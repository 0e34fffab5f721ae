//! The space linter: pinned diagnostics on the paper's GEMM space, one
//! broken-space variant per lint pass (BE001–BE010, with the count-powered
//! lints exercised through `analyze_with_counts`), and the engine-side
//! lint gate.
//!
//! The GEMM snapshot is deliberately exact — codes, names and summary
//! counts — so any change to a pass's verdict on the flagship space shows
//! up as a diff here, not as silently shifted telemetry. The acceptance
//! bar from the paper's perspective: the canonical space is *valid*, so
//! the linter must report zero false "empty space" errors on it.

use std::sync::Arc;

use beast::gemm::{build_gemm_space, GemmSpaceParams};
use beast::prelude::*;
use beast_core::analyze::{self, LintGate};

/// Lower a space with default plan options.
fn lower(space: &Arc<Space>) -> LoweredPlan {
    let plan = Plan::new(space, PlanOptions::default()).unwrap();
    LoweredPlan::new(&plan).unwrap()
}

/// The (code, name) pairs of a report, in the report's (sorted) order.
fn codes(report: &LintReport) -> Vec<(&str, String)> {
    report.diagnostics.iter().map(|d| (d.code, d.name.clone())).collect()
}

/// Does the report hold a diagnostic with this code, name and severity?
fn has(report: &LintReport, code: &str, name: &str, severity: Severity) -> bool {
    report
        .diagnostics
        .iter()
        .any(|d| d.code == code && d.name == name && d.severity == severity)
}

/// Pinned snapshot of the canonical (paper-default) GEMM space: five pure
/// enumeration dimensions, one fallible define, one overflow-prone define —
/// and, crucially, zero errors: the flagship space must not be "proven"
/// empty by its own linter.
#[test]
fn gemm_canonical_snapshot_is_pinned() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::paper_default()).unwrap());
    // The full linter *including* the counting pass: on the paper-default
    // device the counter exhausts its default budget and degrades
    // gracefully — the snapshot pins that no BE009/BE010 appears and the
    // abstract findings are untouched.
    let report = analyze::analyze_with_counts(&lp);
    let expect: Vec<(&str, String)> = [
        ("BE004", "shmem_banks"),
        ("BE004", "shmem_l1"),
        ("BE004", "tex_a"),
        ("BE004", "tex_b"),
        ("BE004", "vec_mul"),
        ("BE007", "max_blocks_by_regs"),
        ("BE008", "max_threads_by_regs"),
    ]
    .map(|(c, n)| (c, n.to_string()))
    .to_vec();
    assert_eq!(codes(&report), expect);
    for d in &report.diagnostics {
        let want = if d.code == "BE004" { Severity::Info } else { Severity::Warning };
        assert_eq!(d.severity, want, "{}[{}]", d.code, d.name);
    }
    let sum = report.summary();
    assert_eq!((sum.errors, sum.warnings, sum.infos), (0, 2, 5));
    assert!(!report.has_errors(), "canonical GEMM flagged as broken:\n{}", report.render_text());
}

/// On the reduced(16) device the two capacity constraints can never fire
/// (everything fits), which the linter reports as dead checks on top of
/// the canonical findings — and the space is small enough for the counting
/// pass to finish, so the exact-count lints land too: BE009 reports 1824
/// survivors of 8,259,231,744 tuples and BE010 warns that the survival
/// rate (≈2.2e-7) makes naive rejection sampling impractical.
#[test]
fn gemm_reduced_device_adds_dead_capacity_checks() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(16)).unwrap());
    let report = analyze::analyze_with_counts(&lp);
    assert!(has(&report, "BE002", "over_max_shmem", Severity::Warning));
    assert!(has(&report, "BE002", "over_max_threads", Severity::Warning));
    let be009 = report.diagnostics.iter().find(|d| d.code == "BE009").expect("BE009 missing");
    assert_eq!(be009.severity, Severity::Info);
    assert!(be009.message.contains("1824"), "{}", be009.message);
    let be010 = report.diagnostics.iter().find(|d| d.code == "BE010").expect("BE010 missing");
    assert_eq!(be010.severity, Severity::Warning);
    let sum = report.summary();
    assert_eq!((sum.errors, sum.warnings, sum.infos), (0, 5, 6));
    assert_eq!(report.diagnostics.len(), 11);
}

/// BE001: a constraint that rejects every point by interval reasoning
/// alone (its predicate is bounded away from zero).
#[test]
fn be001_empty_space_by_interval() {
    let space = Space::builder("lint_be001")
        .range("x", 1, 17)
        .constraint("always_fires", ConstraintClass::Hard, var("x").ge(1))
        .build()
        .unwrap();
    let report = analyze::analyze(&lower(&space));
    assert!(has(&report, "BE001", "always_fires", Severity::Error));
    assert!(report.has_errors());
}

/// BE001 via the congruence half: `x` steps by 4 so `x % 2 == 0` on every
/// point, making `(x % 2) != 1` a tautology. The interval hull of `x % 2`
/// is `[0, 1]`, which contains both truth values — only the residue fact
/// proves the space empty. This is the divisibility reasoning the engine's
/// congruence subtree guards reuse.
#[test]
fn be001_empty_space_by_congruence_only() {
    let space = Space::builder("lint_be001_cg")
        .range_step("x", lit(4), 100, lit(4))
        .constraint("parity_trap", ConstraintClass::Hard, (var("x") % 2).ne(1))
        .build()
        .unwrap();
    let report = analyze::analyze(&lower(&space));
    assert!(
        has(&report, "BE001", "parity_trap", Severity::Error),
        "congruence half missed a residue tautology:\n{}",
        report.render_text()
    );
}

/// BE002: a constraint whose predicate is statically false never rejects.
#[test]
fn be002_dead_check() {
    let space = Space::builder("lint_be002")
        .range("x", 1, 17)
        .constraint("never_fires", ConstraintClass::Hard, var("x").gt(100))
        .build()
        .unwrap();
    let report = analyze::analyze(&lower(&space));
    assert!(has(&report, "BE002", "never_fires", Severity::Warning));
}

/// BE003: `x > 10` rejects a subset of what `x > 5` rejects, so the
/// tighter same-class constraint is redundant.
#[test]
fn be003_subsumed_constraint() {
    let space = Space::builder("lint_be003")
        .range("x", 0, 21)
        .constraint("loose", ConstraintClass::Hard, var("x").gt(5))
        .constraint("tight", ConstraintClass::Hard, var("x").gt(10))
        .build()
        .unwrap();
    let report = analyze::analyze(&lower(&space));
    assert!(has(&report, "BE003", "tight", Severity::Warning));
    assert!(!has(&report, "BE003", "loose", Severity::Warning), "subsumption is directional");
}

/// BE004: a derived variable nothing reads is per-point wasted work
/// (warning); an iterator nothing reads is a pure enumeration dimension
/// (info).
#[test]
fn be004_unused_symbols() {
    let space = Space::builder("lint_be004")
        .range("x", 0, 21)
        .range("seed", 0, 4)
        .derived("scratch", var("x") + 1)
        .constraint("cap", ConstraintClass::Hard, var("x").gt(10))
        .build()
        .unwrap();
    let report = analyze::analyze(&lower(&space));
    assert!(has(&report, "BE004", "scratch", Severity::Warning));
    assert!(has(&report, "BE004", "seed", Severity::Info));
    assert!(!has(&report, "BE004", "x", Severity::Info), "x is read by `cap`");
}

/// BE005: space symbols may shadow expression builtins or C keywords —
/// the builder accepts them but generated sources miscompile.
#[test]
fn be005_shadowed_names() {
    let space = Space::builder("lint_be005")
        .constant("while", 3)
        .list("min", [1, 2])
        .constraint("uses_min", ConstraintClass::Hard, var("min").gt(var("while")))
        .build()
        .unwrap();
    let report = analyze::analyze(&lower(&space));
    assert!(has(&report, "BE005", "min", Severity::Warning));
    assert!(has(&report, "BE005", "while", Severity::Warning));
}

/// BE006: the planner places checks by *declared* dependencies; when
/// simplification folds those away (`y * 0 + 7` is the constant 7), the
/// check runs deeper in the nest than it needs to.
#[test]
fn be006_hoistable_check() {
    // The erasing multiply is the point: the planner sees a dependency on
    // `y`, the simplifier folds it to a constant.
    #[allow(clippy::erasing_op)]
    let folded = var("y") * 0 + 7;
    let space = Space::builder("lint_be006")
        .range("y", 0, 4)
        .derived("folded", folded)
        .constraint("late_check", ConstraintClass::Hard, var("folded").lt(3))
        .build()
        .unwrap();
    let report = analyze::analyze(&lower(&space));
    assert!(has(&report, "BE006", "late_check", Severity::Info));
}

/// BE007: a derived variable whose divisor interval contains zero can fail
/// at runtime.
#[test]
fn be007_fallible_define() {
    let space = Space::builder("lint_be007")
        .range("x", 0, 4)
        .derived("q", lit(100) / var("x"))
        .constraint("cap", ConstraintClass::Hard, var("q").gt(50))
        .build()
        .unwrap();
    let report = analyze::analyze(&lower(&space));
    assert!(has(&report, "BE007", "q", Severity::Warning));
}

/// BE008: arithmetic whose interval provably escapes `i64` wraps at
/// runtime.
#[test]
fn be008_overflow_risk() {
    let space = Space::builder("lint_be008")
        .list("x", [1i64, 4_000_000_000_000_000_000])
        .derived("big", var("x") * var("x"))
        .constraint("cap", ConstraintClass::Hard, var("big").gt(10))
        .build()
        .unwrap();
    let report = analyze::analyze(&lower(&space));
    assert!(has(&report, "BE008", "big", Severity::Warning));
}

/// BE009: the counting pass reports the exact survivor count and survival
/// rate on any space it can afford to count.
#[test]
fn be009_exact_count_info() {
    let space = Space::builder("lint_be009")
        .range("x", 0, 10)
        .constraint("cap", ConstraintClass::Hard, var("x").gt(6))
        .build()
        .unwrap();
    let report = analyze::analyze_with_counts(&lower(&space));
    assert!(has(&report, "BE009", "lint_be009", Severity::Info));
    let d = report.diagnostics.iter().find(|d| d.code == "BE009").unwrap();
    assert!(d.message.contains("7 survivor(s) of 10 tuple(s)"), "{}", d.message);
    // The plain abstract entry point never counts.
    assert!(!analyze::analyze(&lower(&space))
        .diagnostics
        .iter()
        .any(|d| d.code == "BE009"));
}

/// BE010: a needle-in-a-haystack space (1 survivor in 100,000 tuples)
/// warns that rejection sampling is impractical.
#[test]
fn be010_low_survival_rate_warns() {
    let space = Space::builder("lint_be010")
        .range("x", 0, 100_000)
        .constraint("needle", ConstraintClass::Hard, var("x").ne(42))
        .build()
        .unwrap();
    let report = analyze::analyze_with_counts(&lower(&space));
    assert!(has(&report, "BE010", "lint_be010", Severity::Warning));
    let d = report.diagnostics.iter().find(|d| d.code == "BE010").unwrap();
    assert!(d.message.contains("below 1e-4"), "{}", d.message);
    assert!(!report.has_errors());
}

/// BE001 with an exact-count witness: `x·(x+1)` is always even, so a
/// constraint rejecting even products empties the space — but neither the
/// interval hull of `x·(x+1) % 2` (which is `[0, 1]`) nor any single-slot
/// residue fact can prove it. Only the counting pass sees zero survivors.
#[test]
fn be001_empty_space_by_exact_count_only() {
    let space = Space::builder("lint_be001_count")
        .range("x", 0, 10)
        .constraint(
            "consecutive_even",
            ConstraintClass::Hard,
            ((var("x") * (var("x") + 1)) % 2).eq(0),
        )
        .build()
        .unwrap();
    let lp = lower(&space);
    // The abstract passes alone cannot prove emptiness...
    assert!(
        !analyze::analyze(&lp).has_errors(),
        "abstract pass unexpectedly proved emptiness — the fixture no longer \
         isolates the counting witness"
    );
    // ...the counting pass can, and names the space rather than a constraint.
    let report = analyze::analyze_with_counts(&lp);
    assert!(has(&report, "BE001", "lint_be001_count", Severity::Error));
    assert!(report.has_errors());
    let d = report.diagnostics.iter().find(|d| d.code == "BE001").unwrap();
    assert!(d.message.contains("counting pass"), "{}", d.message);
}

/// The engine-side gate: `Deny` refuses to sweep a space with an
/// error-severity finding, `Warn` (the default) sweeps and records the
/// summary, `Allow` skips analysis entirely.
#[test]
fn lint_gate_controls_the_engine() {
    let space = Space::builder("lint_gate")
        .range("x", 1, 17)
        .constraint("always_fires", ConstraintClass::Hard, var("x").ge(1))
        .build()
        .unwrap();
    let lp = lower(&space);

    let deny = Compiled::with_options(
        lp.clone(),
        EngineOptions { lint: LintGate::Deny, ..EngineOptions::default() },
    );
    match deny.run(CountVisitor::default()) {
        Err(EvalError::Custom(msg)) => {
            assert!(msg.contains("lint gate"), "unexpected message: {msg}")
        }
        other => panic!("deny gate let a provably-empty space sweep: {other:?}"),
    }

    // Warn (default): the sweep runs — and indeed finds nothing — while
    // the summary is recorded for telemetry.
    let warn = Compiled::with_options(lp.clone(), EngineOptions::default());
    let sum = warn.lint_summary().expect("warn gate records a summary");
    assert_eq!(sum.errors, 1);
    let out = warn.run(CountVisitor::default()).unwrap();
    assert_eq!(out.visitor.count, 0);

    // Allow: no analysis at all.
    let allow = Compiled::with_options(
        lp,
        EngineOptions { lint: LintGate::Allow, ..EngineOptions::default() },
    );
    assert!(allow.lint_summary().is_none());
}
