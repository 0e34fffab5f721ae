//! Zero-rejection direct sampling, end to end: every draw on the GEMM
//! space is a validated survivor under either sampler, direct draws are at
//! least 10× faster than rejection draws, sampling is deterministic per
//! seed, the draw distribution is uniform (chi-square smoke), and the search
//! algorithms stay seed-deterministic under both sampler kinds.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use beast::gemm::{build_gemm_space, GemmSpaceParams};
use beast::prelude::*;
use beast::search::{
    hill_climb, random_search, simulated_annealing, DirectSampler, Sampler, SamplerKind,
    SearchBudget,
};
use beast_core::ir::LStep;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn lower(space: &Arc<Space>) -> LoweredPlan {
    let plan = Plan::new(space, PlanOptions::default()).unwrap();
    LoweredPlan::new(&plan).unwrap()
}

fn gemm16() -> LoweredPlan {
    lower(&build_gemm_space(&GemmSpaceParams::reduced(16)).unwrap())
}

/// Pull the iterator `(slot, value)` pairs out of a sampled point so the
/// rejection sampler's independent validator can re-check them.
fn iter_assignment(lp: &LoweredPlan, p: &Point) -> Vec<(u32, i64)> {
    lp.steps
        .iter()
        .filter_map(|s| match s {
            LStep::Bind { slot, .. } => {
                Some((*slot, p.get_int(&lp.slot_names[*slot as usize])))
            }
            _ => None,
        })
        .collect()
}

/// The headline satellite: 1000 direct draws on GEMM reduced(16), zero
/// rejections, every point independently validated by the rejection
/// sampler's `evaluate_assignment` (re-realized domains, re-evaluated
/// deriveds and constraints).
#[test]
fn thousand_gemm_draws_are_all_survivors_with_zero_rejections() {
    let lp = gemm16();
    let mut direct = DirectSampler::new(&lp, StdRng::seed_from_u64(7)).unwrap();
    let mut validator = Sampler::new(&lp, StdRng::seed_from_u64(0));
    for i in 0..1000 {
        let p = direct.sample().unwrap().expect("space is nonempty");
        let pairs = iter_assignment(&lp, &p);
        assert!(
            validator.evaluate_assignment(&pairs).unwrap().is_some(),
            "draw {i} is not a survivor: {pairs:?}"
        );
    }
    assert_eq!(direct.stats.accepted, 1000);
    assert_eq!(direct.stats.rejected, 0, "direct sampling must never reject");
    assert_eq!(direct.stats.dead_ends, 0, "direct sampling must never dead-end");
}

/// The rejection half, and why the direct sampler exists: on GEMM
/// reduced(16) (survival ≈ 2.2e-7) every rejection draw is a validated
/// survivor, and direct draws are at least 10× faster. Each side is timed as
/// the fastest of 3 interleaved rounds of 20 draws; the recorded gap is
/// ≈ 2,400×, so the floor holds in debug builds and on a noisy host. A floor
/// on discarded walks would not work: seeds differ little in discards per
/// draw, the gap is the cost of each walk.
#[test]
fn rejection_draws_are_survivors_and_direct_draws_are_ten_times_faster() {
    const DRAWS: usize = 20;
    let lp = gemm16();
    let mut direct = DirectSampler::new(&lp, StdRng::seed_from_u64(1)).unwrap();
    let mut rejection = Sampler::new(&lp, StdRng::seed_from_u64(1));
    let mut validator = Sampler::new(&lp, StdRng::seed_from_u64(0));
    let (mut t_direct, mut t_rejection) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..DRAWS {
            direct.sample().unwrap().expect("space is nonempty");
        }
        t_direct = t_direct.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let drawn: Vec<Point> = (0..DRAWS)
            .map(|_| rejection.sample(1_000_000).unwrap().expect("space is nonempty"))
            .collect();
        t_rejection = t_rejection.min(t.elapsed().as_secs_f64());
        for (i, p) in drawn.iter().enumerate() {
            let pairs = iter_assignment(&lp, p);
            assert!(
                validator.evaluate_assignment(&pairs).unwrap().is_some(),
                "rejection draw {i} is not a survivor: {pairs:?}"
            );
        }
    }
    assert!(
        t_rejection >= 10.0 * t_direct,
        "direct sampling below 10x rejection on reduced(16): {t_direct:.2e} s vs {t_rejection:.2e} s"
    );
}

/// The same seed draws the same GEMM points; a different seed does not.
#[test]
fn gemm_sampling_is_deterministic_per_seed() {
    let lp = gemm16();
    let draw = |seed: u64| -> Vec<String> {
        let mut s = DirectSampler::new(&lp, StdRng::seed_from_u64(seed)).unwrap();
        (0..50).map(|_| format!("{:?}", s.sample().unwrap().unwrap().values())).collect()
    };
    assert_eq!(draw(3), draw(3));
    assert_ne!(draw(3), draw(4));
}

/// The index↔survivor bijection through the count tables' links, on every
/// slot: on reduced(16), `point_at(k)` is the walker's `k`-th survivor for
/// every `k`, bind slots and the derived slots filled at the leaf alike.
#[test]
fn gemm_point_at_is_the_walkers_kth_survivor_on_every_slot() {
    let lp = gemm16();
    let walker = Walker::new(&lp.plan, LoopStyle::default());
    let run = walker.run(CollectVisitor::new(walker.point_names().clone(), usize::MAX));
    let want = run.unwrap().visitor.points;
    assert_eq!(want.len(), 1824);
    let mut sampler = DirectSampler::new(&lp, StdRng::seed_from_u64(0)).unwrap();
    for (k, want) in want.iter().enumerate() {
        let got = sampler.point_at(k as u128).unwrap();
        assert_eq!(got.names().len(), want.names().len(), "point {k}");
        for name in want.names().iter() {
            assert_eq!(got.get(name), want.get(name), "point {k}, `{name}`");
        }
    }
}

/// A small dependent space whose survivors can be enumerated outright:
/// `a ∈ 1..9`, `b ∈ a..33 step a`, pruning `a·b > 30` — 42 survivors.
fn small_space() -> Arc<Space> {
    Space::builder("chi")
        .range_step("a", lit(1), lit(9), lit(1))
        .range_step("b", var("a"), lit(33), var("a"))
        .derived("ab", var("a") * var("b"))
        .constraint("cap", ConstraintClass::Hard, var("ab").gt(30))
        .build()
        .unwrap()
}

/// Chi-square uniformity smoke: draw 200·K samples from a K-survivor
/// space and check the statistic against mean + 6σ of the χ²(K−1)
/// distribution. The index→survivor bijection (`point_at`) enumerates the
/// expected support exactly.
#[test]
fn direct_draws_are_uniform_chi_square_smoke() {
    let lp = lower(&small_space());
    let mut sampler = DirectSampler::new(&lp, StdRng::seed_from_u64(11)).unwrap();
    let total = sampler.total();
    assert_eq!(total, 42, "fixture survivor count drifted");
    let k = total as usize;

    let mut support: HashMap<String, u64> = HashMap::new();
    for idx in 0..total {
        let p = sampler.point_at(idx).unwrap();
        support.insert(format!("{:?}", p.values()), 0);
    }
    assert_eq!(support.len(), k, "point_at is not injective");

    let n = 200 * k as u64;
    for _ in 0..n {
        let p = sampler.sample().unwrap().unwrap();
        *support.get_mut(&format!("{:?}", p.values())).expect("draw outside support") += 1;
    }

    let expected = n as f64 / k as f64;
    let stat: f64 =
        support.values().map(|&o| (o as f64 - expected).powi(2) / expected).sum();
    let df = (k - 1) as f64;
    let bound = df + 6.0 * (2.0 * df).sqrt();
    assert!(stat < bound, "chi-square statistic {stat:.1} exceeds {bound:.1} (df {df})");
}

/// Hill climbing, annealing and random search all replay bit-identically
/// for a fixed seed, under the rejection sampler and the direct sampler
/// alike — and the direct sampler never rejects along the way.
#[test]
fn search_algorithms_are_deterministic_per_seed_under_both_samplers() {
    let lp = gemm16();
    let score = |p: &Point| {
        p.values().iter().map(|v| v.as_int().unwrap() as f64).sum::<f64>()
    };
    for kind in [SamplerKind::Rejection, SamplerKind::Direct] {
        let budget = SearchBudget {
            evaluations: 30,
            attempts_per_sample: 100_000,
            sampler: kind,
        };
        let rs =
            |seed: u64| random_search(&lp, StdRng::seed_from_u64(seed), budget, score).unwrap();
        let hc =
            |seed: u64| hill_climb(&lp, StdRng::seed_from_u64(seed), budget, 6, score).unwrap();
        let sa = |seed: u64| {
            simulated_annealing(&lp, StdRng::seed_from_u64(seed), budget, 50.0, 0.99, score)
                .unwrap()
        };
        for (name, a, b) in [
            ("random_search", rs(9), rs(9)),
            ("hill_climb", hc(9), hc(9)),
            ("simulated_annealing", sa(9), sa(9)),
        ] {
            assert_eq!(a.evaluations, b.evaluations, "{kind:?} {name}: evaluations differ");
            assert_eq!(a.history, b.history, "{kind:?} {name}: history differs");
            assert_eq!(
                format!("{:?}", a.best),
                format!("{:?}", b.best),
                "{kind:?} {name}: best point differs"
            );
            assert!(a.best.is_some(), "{kind:?} {name}: found nothing");
        }
    }
}

/// FNV-1a over the little-endian bytes of every slot value of `points`.
fn fnv1a(points: &[Point]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in points {
        for v in p.values().iter() {
            for b in v.as_int().unwrap().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The draws are pinned, not just deterministic: 20,000 seed-42 draws on
/// reduced(32), then 1,000 neighbor moves from them, hash to what the
/// counter's `HashMap`-of-`Arc` tables drew before the flat, solved tables
/// replaced them (checksums computed on that commit). Any change to the
/// counts, the order of a level's feasible values or the descent would
/// move them.
#[test]
fn direct_draws_and_neighbors_are_pinned_on_reduced32() {
    let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(32)).unwrap());
    let mut sampler = DirectSampler::new(&lp, StdRng::seed_from_u64(42)).unwrap();
    assert_eq!(sampler.total(), 31_872);
    let draws: Vec<Point> = (0..20_000).map(|_| sampler.sample().unwrap().unwrap()).collect();
    let moves: Vec<Point> = draws[..1_000]
        .iter()
        .map(|p| sampler.neighbor(p, 16).unwrap().expect("reduced(32) points have neighbors"))
        .collect();
    assert_eq!(
        (format!("{:016x}", fnv1a(&draws)), format!("{:016x}", fnv1a(&moves))),
        (DRAWS_FNV.to_string(), NEIGHBORS_FNV.to_string())
    );
}

const DRAWS_FNV: &str = "a595b963e7c45bf8";
const NEIGHBORS_FNV: &str = "2d56e0ff9051cf78";

/// The rejection sampler's draws are pinned too: 1,000 seed-42 draws on
/// reduced(16) hash to what the tree-walking sampler drew before its
/// expressions became point programs (checksum computed on that commit).
/// Any change to a realized domain, a define, a check or the random walk
/// would move it.
#[test]
fn rejection_draws_are_pinned_on_reduced16() {
    let lp = gemm16();
    let mut sampler = Sampler::new(&lp, StdRng::seed_from_u64(42));
    let draws: Vec<Point> =
        (0..1_000).map(|_| sampler.sample(1_000_000).unwrap().expect("nonempty")).collect();
    assert_eq!(format!("{:016x}", fnv1a(&draws)), REJECTION_FNV);
    assert_eq!((sampler.stats.accepted, sampler.stats.rejected), (1_000, 9_717));
}

const REJECTION_FNV: &str = "650d25584578770a";
