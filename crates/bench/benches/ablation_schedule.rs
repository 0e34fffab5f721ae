//! Ablation: constraint-schedule modes on the full GEMM sweep — the
//! declared plan order vs the adaptive order (cost-model seed, re-sorted by
//! one calibration pass at engine-build time).
//!
//! Before timing anything, the invariant the scheduler is sold on is
//! asserted: identical survivor count *and identical visit order* across
//! both modes, at 1/2/8 threads, with interval pruning on and off.
//! Then each mode is timed (criterion, serial sweep, both interval
//! settings) and a `schedule_ablation` JSON record with the median
//! wall-clock per mode is appended to `BENCH_sweep.json` (run the
//! `gemm_sweep` bench first — it truncates that file; see EXPERIMENTS.md).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use beast_core::ir::LoweredPlan;
use beast_core::plan::{Plan, PlanOptions};
use beast_core::schedule::ScheduleMode;
use beast_engine::compiled::{Compiled, EngineOptions};
use beast_engine::parallel::{run_parallel_report, ParallelOptions};
use beast_engine::point::PointRef;
use beast_engine::visit::{CountVisitor, Visitor};
use beast_gemm::{build_gemm_space, GemmSpaceParams};

const DIM: i64 = 16;
const MODES: [ScheduleMode; 2] = [ScheduleMode::Declared, ScheduleMode::Adaptive];

/// Order-sensitive survivor fingerprint: an FNV-style rolling hash over the
/// visited points *in order* (chunk merges fold partial hashes in chunk
/// order, so the parallel fingerprint is order-sensitive too).
#[derive(Default)]
struct OrderHashVisitor {
    count: u64,
    hash: u64,
}

impl Visitor for OrderHashVisitor {
    fn visit(&mut self, point: &PointRef<'_>) {
        self.count += 1;
        for i in 0..point.names().len() {
            let v = point.value(i).as_int().unwrap() as u64;
            self.hash = (self.hash ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn merge(&mut self, other: Self) {
        self.count += other.count;
        self.hash = (self.hash ^ other.hash).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn options(mode: ScheduleMode, intervals: bool) -> EngineOptions {
    let mut opts =
        if intervals { EngineOptions::default() } else { EngineOptions::no_intervals() };
    opts.schedule = mode;
    opts
}

/// Per-configuration median of `reps` timed serial sweeps, in seconds.
/// One rep times every configuration back to back (round-robin), so slow
/// machine phases land on all configurations instead of on whichever one
/// happened to run during them — sequential per-mode timing made the
/// mode-vs-mode ratios noise-dominated.
fn interleaved_medians(compileds: &[Compiled], reps: usize) -> Vec<f64> {
    let mut times = vec![Vec::with_capacity(reps); compileds.len()];
    for _ in 0..reps {
        for (i, compiled) in compileds.iter().enumerate() {
            let t0 = Instant::now();
            compiled.run(CountVisitor::default()).unwrap();
            times[i].push(t0.elapsed().as_secs_f64());
        }
    }
    times
        .into_iter()
        .map(|mut t| {
            t.sort_by(|a, b| a.partial_cmp(b).unwrap());
            t[t.len() / 2]
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let params = GemmSpaceParams::reduced(DIM);
    let space = build_gemm_space(&params).unwrap();
    let plan = Plan::new(&space, PlanOptions::default()).unwrap();
    let lp = LoweredPlan::new(&plan).unwrap();

    // --- Invariant: the schedule is invisible in results. -----------------
    // The chunk-merge hash fold is order-sensitive but chunking-dependent,
    // so each thread count gets its own declared-order fingerprint (the
    // scheduler cuts identical chunks for identical plans and thread
    // counts) and every mode × interval setting must reproduce it.
    let baseline = Compiled::new(lp.clone()).run(OrderHashVisitor::default()).unwrap();
    assert!(baseline.visitor.count > 0, "degenerate GEMM space");
    let par_baseline: Vec<(usize, u64, u64)> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let opts = ParallelOptions::new(threads);
            let (out, _) = run_parallel_report(&lp, &opts, OrderHashVisitor::default).unwrap();
            (threads, out.visitor.count, out.visitor.hash)
        })
        .collect();
    for mode in MODES {
        for intervals in [true, false] {
            let engine = options(mode, intervals);
            let serial =
                Compiled::with_options(lp.clone(), engine).run(OrderHashVisitor::default()).unwrap();
            assert_eq!(
                (serial.visitor.count, serial.visitor.hash),
                (baseline.visitor.count, baseline.visitor.hash),
                "{mode} (intervals={intervals}) changed survivors or their order"
            );
            for &(threads, count, hash) in &par_baseline {
                let opts = ParallelOptions { threads, engine, ..ParallelOptions::default() };
                let (par, _) =
                    run_parallel_report(&lp, &opts, OrderHashVisitor::default).unwrap();
                assert_eq!(
                    (par.visitor.count, par.visitor.hash),
                    (count, hash),
                    "{mode} (intervals={intervals}) diverged at {threads} threads"
                );
            }
        }
    }
    eprintln!(
        "gemm reduced({DIM}): {} survivors, bit-identical across all modes × threads × intervals",
        baseline.visitor.count
    );

    // --- Criterion timing (serial, both interval settings). ---------------
    let mut group = c.benchmark_group("ablation_schedule");
    group.sample_size(10);
    for mode in MODES {
        for intervals in [true, false] {
            let compiled = Compiled::with_options(lp.clone(), options(mode, intervals));
            let label =
                format!("{mode}_{}", if intervals { "intervals" } else { "no_intervals" });
            group.bench_function(&*label, |bench| {
                bench.iter(|| compiled.run(CountVisitor::default()).unwrap().visitor.count);
            });
        }
    }
    group.finish();

    // --- Median record appended to BENCH_sweep.json. ----------------------
    let mut record = String::from("\n{\"schedule_ablation\":{\"space\":\"gemm_reduced16\"");
    let configs: Vec<(ScheduleMode, bool)> = [true, false]
        .into_iter()
        .flat_map(|iv| MODES.into_iter().map(move |m| (m, iv)))
        .collect();
    let compileds: Vec<Compiled> = configs
        .iter()
        .map(|&(mode, iv)| Compiled::with_options(lp.clone(), options(mode, iv)))
        .collect();
    let medians = interleaved_medians(&compileds, 15);
    for (&(mode, intervals), &med) in configs.iter().zip(&medians) {
        let declared = medians[configs
            .iter()
            .position(|&(m, iv)| m == ScheduleMode::Declared && iv == intervals)
            .unwrap()];
        let tag = if intervals { "intervals" } else { "no_intervals" };
        record.push_str(&format!(
            ",\"{mode}_{tag}_s\":{med:.6},\"{mode}_{tag}_speedup\":{:.3}",
            declared / med
        ));
        eprintln!(
            "{mode:>8} ({tag}): median {med:.4} s  ({:.2}x vs declared)",
            declared / med
        );
    }
    record.push_str("}}");
    match std::fs::OpenOptions::new().append(true).open("BENCH_sweep.json") {
        Ok(mut f) => {
            use std::io::Write as _;
            if let Err(e) = f.write_all(record.as_bytes()) {
                eprintln!("cannot append to BENCH_sweep.json: {e}");
            } else {
                eprintln!("appended schedule_ablation record to BENCH_sweep.json");
            }
        }
        Err(e) => eprintln!(
            "BENCH_sweep.json not found ({e}); run the gemm_sweep bench first to create it"
        ),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
