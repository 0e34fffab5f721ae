//! Exact survivor counting over the lowered plan: pinned GEMM fixtures
//! (the numbers the paper's pruning discussion revolves around) and
//! footprint-cache soundness properties on seeded random spaces, each
//! cross-checked against a full enumeration by the compiled engine.

use std::sync::Arc;

use beast::gemm::{build_gemm_space, GemmSpaceParams};
use beast::prelude::*;
use beast::search::DirectSampler;
use beast_core::analyze::levels::{levels, LevelPlan};
use beast_core::analyze::{analyze_with_counts, CountBudget, Counter, LevelStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lower a space with default plan options.
fn lower(space: &Arc<Space>) -> LoweredPlan {
    let plan = Plan::new(space, PlanOptions::default()).unwrap();
    LoweredPlan::new(&plan).unwrap()
}

/// Ground truth: survivors found by a full sweep of the compiled engine.
fn sweep_count(lp: &LoweredPlan) -> u64 {
    Compiled::new(lp.clone()).run(CountVisitor::default()).unwrap().visitor.count
}

/// The flagship fixture: GEMM on the reduced(16) device has exactly 1824
/// survivors out of 8,259,231,744 dependent tuples (survival ≈ 2.2e-7 —
/// far thinner than ROADMAP's old 1824/432192 estimate, which is why
/// rejection sampling needs deep backtracking there). The counter must
/// agree with a full sweep, and its footprint cache must actually fire.
#[test]
fn gemm_reduced16_count_is_pinned() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(16)).unwrap());
    let mut counter = Counter::new(&lp);
    let total = counter.total().unwrap();
    assert_eq!(total, Some(1824));
    assert_eq!(total, Some(sweep_count(&lp) as u128));
    assert!(
        counter.stats().cache_hits > 0,
        "footprint cache never fired on GEMM: {:?}",
        counter.stats()
    );
    assert_eq!(Counter::tuples(&lp).total().unwrap(), Some(8_259_231_744));
}

/// Unique-key levels on GEMM reduced(48): the six levels whose footprint
/// key fixes their nearest non-free ancestor's key and value — `blk_n`'s
/// through `threads_per_block = dim_m · dim_n`, `blk_m`'s through the free
/// `tex_*` / `shmem_*` levels — keep no memo and could never have hit it.
/// The reshape levels `dim_m_a` / `dim_m_b`, whose keys forget `dim_n`,
/// keep theirs and take every hit.
#[test]
fn gemm_reduced48_keeps_a_memo_only_where_keys_repeat() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(48)).unwrap());
    let mut counter = Counter::new(&lp);
    assert_eq!(counter.total().unwrap(), Some(91_872));
    let stats = counter.stats();
    let level = |name: &str| stats.levels.iter().find(|l| &*l.name == name).unwrap();
    for name in ["dim_m", "dim_n", "blk_k", "dim_vec", "blk_m", "blk_n"] {
        let l = level(name);
        assert!(!l.memo && l.hits == 0 && l.entries > 0, "{l:?}");
    }
    let reshape = ["dim_m_a", "dim_m_b"].map(|name| (level(name).memo, level(name).hits));
    assert_eq!(reshape, [(true, 3903), (true, 1281)]);
    assert_eq!(stats.cache_hits, 3903 + 1281);
    assert!(stats.levels.iter().filter(|l| l.free > 0).all(|l| !l.memo), "{stats:?}");
}

/// GEMM's level plan on reduced(32): the five unread iterators replay and
/// are free, the two reshape levels are solved, and their parents solve
/// them — the same levels `repro count 48` reports free and solved.
#[test]
fn gemm_level_plan_is_pinned() {
    let names = |lp: &LoweredPlan, field: fn(&LevelPlan) -> bool| -> Vec<String> {
        let plan = levels(lp).levels;
        plan.iter().filter(|l| field(l)).map(|l| lp.slot_names[l.slot as usize].to_string()).collect()
    };
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(32)).unwrap());
    let unread = ["tex_a", "tex_b", "shmem_l1", "shmem_banks", "vec_mul"];
    assert_eq!(names(&lp, |l| l.replayable), unread);
    assert_eq!(names(&lp, |l| l.free), unread);
    assert_eq!(names(&lp, |l| l.narrowing.is_some()), ["dim_n_a", "dim_n_b"]);
    let plan = levels(&lp).levels;
    let child_solves: Vec<(&str, &str)> = plan
        .windows(2)
        .filter(|w| w[0].child_solve.is_some())
        .map(|w| (&*lp.slot_names[w[0].slot as usize], &*lp.slot_names[w[1].slot as usize]))
        .collect();
    assert_eq!(child_solves, [("dim_m_a", "dim_n_a"), ("dim_m_b", "dim_n_b")]);

    // The counter's own report on reduced(48) names the same levels.
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(48)).unwrap());
    let mut counter = Counter::new(&lp);
    counter.total().unwrap();
    let levels_with = |pick: fn(&LevelStats) -> u64| -> Vec<String> {
        let stats = counter.stats().levels.iter();
        stats.filter(|l| pick(l) > 0).map(|l| l.name.to_string()).collect()
    };
    assert_eq!(levels_with(|l| l.free), names(&lp, |l| l.free));
    assert_eq!(levels_with(|l| l.solved), names(&lp, |l| l.narrowing.is_some()));
}

/// The congruence slice of GEMM: `partial_warps`, the four reshape checks
/// and the steps they read evaluate over the product; every comparison,
/// and every define only comparisons read, runs interval-only — the whole
/// of `blk_n`'s run among them.
#[test]
fn gemm_congruence_slice_keeps_divisibility_and_drops_comparisons() {
    use beast_core::analyze::congruence::product_slice;
    use beast_core::ir::LStep;

    let space = build_gemm_space(&GemmSpaceParams::reduced(48)).unwrap();
    let lp = lower(&space);
    let label = |step: &LStep| match step {
        LStep::Check { constraint, .. } => space.constraints()[*constraint].name.to_string(),
        LStep::Visit => "visit".to_string(),
        _ => lp.slot_names[step.written_slot().unwrap() as usize].to_string(),
    };
    let slice = product_slice(&lp.steps, lp.n_slots as usize);
    let mut kept: Vec<String> =
        lp.steps.iter().zip(&slice).filter(|(_, &k)| k).map(|(s, _)| label(s)).collect();
    kept.sort();
    let mut want = [
        "dim_m", "dim_n", "threads_per_block", "partial_warps", "blk_k", "dim_vec", "blk_m",
        "blk_n", "dim_m_a", "dim_n_a", "cant_reshape_a1", "cant_reshape_a2", "dim_m_b",
        "dim_n_b", "cant_reshape_b1", "cant_reshape_b2",
    ];
    want.sort();
    assert_eq!(kept, want);
    // The counter's pre-pass slices each level's run on its own.
    let blk_n = lp.steps.iter().position(|s| label(s) == "blk_n").unwrap();
    let run = lp.steps[blk_n + 1..].iter().position(|s| matches!(s, LStep::Bind { .. }));
    let end = blk_n + 1 + run.unwrap();
    assert!(end - blk_n > 10, "blk_n's run holds the register and occupancy checks");
    assert!(!product_slice(&lp.steps[blk_n + 1..end], lp.n_slots as usize).contains(&true));
}

/// Same agreement on the reduced(32) device, where the survivor set is
/// larger and differently shaped.
#[test]
fn gemm_reduced32_count_matches_sweep() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(32)).unwrap());
    let expected = sweep_count(&lp) as u128;
    let mut counter = Counter::new(&lp);
    assert_eq!(counter.total().unwrap(), Some(expected));
}

/// Counting must beat enumeration on GEMM: the whole point of footprint
/// memoization is that the counter recurses into far fewer values than the
/// dependent tuple space holds.
#[test]
fn gemm_counting_is_cheaper_than_enumeration() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(16)).unwrap());
    let mut counter = Counter::new(&lp);
    counter.total().unwrap();
    assert!(
        counter.stats().enumerated < 100_000,
        "counting did not beat enumeration (8.26e9 tuples): {:?}",
        counter.stats()
    );
}

/// The count-powered linter on reduced(16): BE009 reports the exact count
/// and rate, and the rate (≈2.2e-7) is far below 1e-4, so BE010 warns
/// that rejection sampling is impractical — exactly the finding the
/// direct sampler exists to answer.
#[test]
fn gemm_count_lints_report_the_exact_rate() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(16)).unwrap());
    let report = analyze_with_counts(&lp);
    let be009 = report
        .diagnostics
        .iter()
        .find(|d| d.code == "BE009")
        .expect("BE009 missing");
    assert!(be009.message.contains("1824"), "{}", be009.message);
    assert!(be009.message.contains("8259231744"), "{}", be009.message);
    let be010 = report
        .diagnostics
        .iter()
        .find(|d| d.code == "BE010")
        .expect("BE010 missing");
    assert!(be010.message.contains("below 1e-4"), "{}", be010.message);
}

/// A seeded random constrained space: `dims` stepped ranges (some starting
/// at an earlier dimension's value), a derived product, and a mix of
/// threshold and divisibility constraints. Small enough that a full sweep
/// is instant; varied enough to exercise realization, residue filtering
/// and the footprint keys.
fn random_space(seed: u64) -> Arc<Space> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = rng.gen_range(1..4usize);
    let mut b = Space::builder(&format!("prop_{seed}"));
    for i in 0..dims {
        let name = format!("i{i}");
        let start = rng.gen_range(0..5i64);
        let step = rng.gen_range(1..4i64);
        let len = rng.gen_range(1..9i64);
        if i > 0 && rng.gen_bool(0.4) {
            // Dependent domain: start at the previous dimension's value.
            let prev = format!("i{}", i - 1);
            b = b.range_step(&name, var(&prev), lit(start + step * len), lit(step));
        } else {
            b = b.range_step(&name, lit(start), lit(start + step * len), lit(step));
        }
    }
    if dims >= 2 && rng.gen_bool(0.7) {
        b = b.derived("prod", var("i0") * var("i1"));
        b = b.constraint("prod_cap", ConstraintClass::Hard, var("prod").gt(rng.gen_range(5..40i64)));
    }
    for (c, i) in (0..dims).enumerate() {
        if rng.gen_bool(0.5) {
            let name = format!("c{c}");
            let v = format!("i{i}");
            if rng.gen_bool(0.5) {
                let m = rng.gen_range(2..5i64);
                b = b.constraint(&name, ConstraintClass::Hard, (var(&v) % m).ne(0));
            } else {
                b = b.constraint(&name, ConstraintClass::Hard, var(&v).gt(rng.gen_range(0..12i64)));
            }
        }
    }
    b.build().unwrap()
}

/// Footprint-cache soundness: on 40 seeded random spaces the memoized
/// count equals a brute-force enumeration by the engine, exactly.
#[test]
fn random_spaces_count_equals_enumeration() {
    for seed in 0..40u64 {
        let space = random_space(seed);
        let lp = lower(&space);
        let expected = sweep_count(&lp) as u128;
        let mut counter = Counter::new(&lp);
        assert_eq!(
            counter.total().unwrap(),
            Some(expected),
            "seed {seed}: count diverged from enumeration ({:?})",
            counter.stats()
        );
    }
}

/// Tuple mode (checks ignored) equals an unconstrained engine sweep on the
/// same seeded spaces: dependent domains still realize under outer values.
#[test]
fn random_spaces_tuple_count_equals_unconstrained_enumeration() {
    for seed in 0..20u64 {
        let space = random_space(seed);
        let lp = lower(&space);
        let survivors = sweep_count(&lp) as u128;
        let tuples = Counter::tuples(&lp).total().unwrap().unwrap();
        assert!(
            tuples >= survivors,
            "seed {seed}: fewer tuples ({tuples}) than survivors ({survivors})"
        );
        if space.constraints().is_empty() {
            assert_eq!(tuples, survivors, "seed {seed}: no constraints, counts must agree");
        }
    }
}

/// An exhausted budget reports `None`, never a wrong number.
#[test]
fn budget_exhaustion_is_explicit() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(16)).unwrap());
    let mut counter = Counter::with_budget(
        &lp,
        CountBudget { max_enumerated: 50, ..CountBudget::default() },
    );
    assert_eq!(counter.total().unwrap(), None);
    assert!(counter.aborted());
}

/// A range whose span or stride leaves `i64` has one exact length: the
/// counter solves such a level without overflowing, in debug builds too.
#[test]
fn wide_ranges_count_without_overflow() {
    let count = |b: SpaceBuilder| {
        let lp = lower(&b.constraint("x5", ConstraintClass::Hard, var("x").ne(5)).build().unwrap());
        let mut counter = Counter::new(&lp);
        (counter.total().unwrap(), counter.stats().levels[0].solved)
    };
    assert_eq!(count(Space::builder("span").range("x", -2, i64::MAX)), (Some(1), 1));
    // One value, 0, which the check rejects; the sweep agrees.
    let stride = || Space::builder("stride").range_step("x", 0, -10, i64::MIN);
    assert_eq!(count(stride()), (Some(0), 1));
    let lp = lower(&stride().constraint("x5", ConstraintClass::Hard, var("x").ne(5)).build().unwrap());
    assert_eq!(Counter::tuples(&lp).total().unwrap(), Some(1));
    assert_eq!(sweep_count(&lp), 0);
}

#[path = "common/narrow_gen.rs"]
mod narrow_gen;

/// The survivors a count must equal: the walker's, or the VM's where the
/// walker's *checked* arithmetic trips on a wrap the lowered plan computes
/// (the VM wraps like the counter). Asserts `counted` against them, and
/// says whether the walker answered; `None` when the count and every
/// oracle fail.
fn oracle_survivors(
    lp: &LoweredPlan,
    seed: u64,
    counted: &Result<Option<u128>, EvalError>,
) -> Option<(Vec<Point>, bool)> {
    let walker = Walker::new(&lp.plan, LoopStyle::default());
    let by_walker = walker.run(CollectVisitor::new(walker.point_names().clone(), usize::MAX));
    let vm = Vm::compile(lp, VmStyle::NumericFor);
    let by_vm = vm.run(CollectVisitor::new(vm.point_names().clone(), usize::MAX));
    match (counted, by_walker, by_vm) {
        (Ok(n), Ok(w), _) => {
            assert_eq!(*n, Some(w.visitor.points.len() as u128), "seed {seed}: walker");
            Some((w.visitor.points, true))
        }
        (Ok(n), Err(EvalError::Overflow), Ok(v)) => {
            assert_eq!(*n, Some(v.visitor.points.len() as u128), "seed {seed}: VM");
            Some((v.visitor.points, false))
        }
        (Err(_), Err(_), Err(_)) => None,
        (n, w, v) => {
            panic!("seed {seed}: counter {n:?}, walker {:?}, VM {:?}", w.err(), v.err())
        }
    }
}

/// On at most 64 survivors, check that `point_at` enumerates exactly
/// `want`, in order, on every slot; returns whether it checked.
fn indexes_like(lp: &LoweredPlan, seed: u64, want: &[Point]) -> bool {
    if want.len() > 64 {
        return false;
    }
    let mut sampler = DirectSampler::new(lp, StdRng::seed_from_u64(seed)).unwrap();
    for (k, want) in want.iter().enumerate() {
        let got = sampler.point_at(k as u128).unwrap();
        for name in want.names().iter() {
            assert_eq!(got.get(name), want.get(name), "seed {seed}: point {k}, `{name}`");
        }
    }
    true
}

/// The loop-narrowing suite's 240 seeded spaces — solvable first checks
/// with zero, negative, run-time-zero and `i64`-extreme coefficients,
/// empty and negative-step ranges, hits at either end, inside, outside and
/// off stride — counted with solved levels. The total equals the walker's
/// survivor count or both fail; where the walker's *checked* arithmetic
/// trips on a wrap the lowered plan computes (`i64`-extreme coefficients),
/// the VM, which wraps like the counter, is the oracle. On small spaces the
/// index↔survivor bijection enumerates exactly the oracle's survivors, in
/// its order.
#[test]
fn narrowing_spaces_count_and_index_like_the_walker() {
    let (mut solved, mut walked, mut indexed) = (0u64, 0u32, 0u32);
    for seed in 0..240u64 {
        let g = narrow_gen::generate(seed);
        let lp = lower(&g.space);
        let mut counter = Counter::new(&lp);
        let counted = counter.total();
        let levels_solved: u64 = counter.stats().levels.iter().map(|l| l.solved).sum();
        if g.must_enumerate {
            assert_eq!(levels_solved, 0, "seed {seed}: solved an unnarrowable level");
        }
        solved += levels_solved;

        let Some((want, by_walker)) = oracle_survivors(&lp, seed, &counted) else { continue };
        walked += u32::from(by_walker);
        indexed += u32::from(indexes_like(&lp, seed, &want));
    }
    assert!(
        solved > 0 && walked > 100 && indexed > 100,
        "solved {solved} levels, walker agreed on {walked} spaces, indexed {indexed}"
    );
}

/// Tuple mode keeps its memo at every level (no free levels): reduced(24)'s
/// dependent tuple space stays decided within the default budget.
#[test]
fn gemm_reduced24_tuple_count_is_decided() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(24)).unwrap());
    let mut tuples = Counter::tuples(&lp);
    assert_eq!(tuples.total().unwrap(), Some(165_294_930_944));
    assert!(tuples.stats().levels.iter().all(|l| l.free == 0), "{:?}", tuples.stats());
}

#[path = "common/replay_gen.rs"]
#[allow(dead_code)]
mod replay_gen;

/// Free levels on the replay suite's seeded spaces: unread loops at varied
/// depths, adjacent or alone, outermost or not, with opaque steps below.
/// Hoisted, every unread loop opens an empty run; unhoisted, the innermost
/// loop's run holds every check. The count equals the walker's, the
/// links index its survivors, and a level is counted in closed form
/// (`free`, never `entries`) exactly where an unread loop opens an empty
/// run.
#[test]
fn free_levels_count_and_index_like_the_walker() {
    let (mut free_levels, mut kept, mut indexed) = (0u32, 0u32, 0u32);
    for seed in 0..160u64 {
        let g = replay_gen::generate(seed);
        let innermost = g.order.last().unwrap();
        for hoist in [true, false] {
            let order = LoopOrder::Explicit(g.order.clone());
            let options = PlanOptions { hoist, order, ..PlanOptions::default() };
            let lp = LoweredPlan::new(&Plan::new(&g.space, options).unwrap()).unwrap();
            let mut counter = Counter::new(&lp);
            let counted = counter.total();
            let (want, _) = oracle_survivors(&lp, seed, &counted)
                .unwrap_or_else(|| panic!("seed {seed}: {counted:?}"));
            indexed += u32::from(indexes_like(&lp, seed, &want));
            for l in &counter.stats().levels {
                let unread = g.unread.iter().any(|u| *u == *l.name);
                if unread && (hoist || *innermost != *l.name) {
                    assert_eq!((l.entries, l.solved), (0, 0), "seed {seed}, hoist {hoist}: {l:?}");
                    free_levels += u32::from(l.free > 0);
                } else {
                    assert_eq!(l.free, 0, "seed {seed}, hoist {hoist}: {l:?}");
                    kept += u32::from(unread && l.entries > 0);
                }
            }
        }
    }
    assert!(
        free_levels > 500 && kept > 40 && indexed > 80,
        "{free_levels} free levels, {kept} unread levels kept a memo, {indexed} spaces indexed"
    );
}

/// The in-parent solve on seeded parent-coefficient shapes: counts and
/// indices equal the walker's (the VM's across a wrap), the recogniser
/// accepts exactly the pairs the generator built to be solved from the
/// parent, and a fault in `c` or `k` is the enumerating path's error.
#[test]
fn parent_solves_count_and_index_like_the_walker() {
    let (mut in_parent, mut failed, mut indexed) = (0u32, 0u32, 0u32);
    for seed in 0..240u64 {
        let g = narrow_gen::generate_parent(seed, false);
        let lp = lower(&g.space);
        let solves = levels(&lp).levels;
        assert_eq!(solves[1].child_solve.is_some(), g.in_parent, "seed {seed}: {:?}", lp.steps);
        in_parent += u32::from(g.in_parent);
        let counted = Counter::new(&lp).total();
        match oracle_survivors(&lp, seed, &counted) {
            Some((want, _)) => indexed += u32::from(indexes_like(&lp, seed, &want)),
            None => {
                failed += 1;
                let spelled = lower(&narrow_gen::generate_parent(seed, true).space);
                let err = Counter::new(&spelled).total().unwrap_err();
                assert_eq!(counted.unwrap_err(), err, "seed {seed}");
            }
        }
    }
    assert!(
        in_parent > 120 && failed > 30 && indexed > 120,
        "{in_parent} solved from the parent, {failed} failed, {indexed} indexed"
    );
}
