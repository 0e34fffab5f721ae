//! Scaling record for the distributed supervisor: `repro distribute` at
//! 1, 2 and 4 worker processes on the reduced(64) GEMM space.
//!
//! Before any timing, the merge contract is asserted: every worker count
//! must reproduce the serial compiled engine's survivor count and
//! order-sensitive fingerprint bit for bit — a distributed sweep is sold as
//! *the same sweep*, merely sharded across processes. Timings use the
//! interleaved-median discipline of the other ablation benches and are
//! appended to `BENCH_sweep.json` as a `distribute_scaling` record.
//!
//! The ≥2× speedup expectation at 4 workers only holds with ≥4 hardware
//! threads; on smaller machines (CI containers are often single-core) the
//! numbers are still recorded, but the assertion is skipped — scaling
//! *cannot* happen without cores, and the bit-identity contract is the part
//! that must hold everywhere.

use criterion::{criterion_group, criterion_main, Criterion};

use beast_core::ir::LoweredPlan;
use beast_core::plan::{Plan, PlanOptions};
use beast_engine::compiled::Compiled;
use beast_engine::distribute::{run_distributed, DistributeOptions};
use beast_engine::visit::FingerprintVisitor;
use beast_gemm::{build_gemm_space, GemmSpaceParams};

/// Large enough that one worker takes ≥ 0.2 s: since the engine replays
/// unread loops a reduced(32) sweep is ≈ 45 ms, where the ≥ 2× floor below
/// would measure process spawns, not scaling.
const DIM: i64 = 64;
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
/// Pinned grid: enough chunks that 4 workers stay busy, identical across
/// worker counts so the shard protocol (not the grid) is the only variable.
const CHUNKS: usize = 64;

fn lower() -> LoweredPlan {
    let space = build_gemm_space(&GemmSpaceParams::reduced(DIM)).unwrap();
    let plan = Plan::new(&space, PlanOptions::default()).unwrap();
    LoweredPlan::new(&plan).unwrap()
}

fn opts(workers: usize) -> DistributeOptions {
    let exe = env!("CARGO_BIN_EXE_repro").to_string();
    // `repro` defaults to the adaptive schedule; this harness uses
    // `EngineOptions::default()` (declared), so pin the worker to match or
    // the handshake's signature check degrades every slot to in-process.
    let mut opts = DistributeOptions::new(
        workers,
        vec![exe, "worker".to_string(), DIM.to_string(), "--schedule".to_string(), "declared".to_string()],
    );
    opts.chunk_count = CHUNKS;
    opts
}

/// Median of `n` interleaved timed runs per worker count.
fn interleaved_medians(lp: &LoweredPlan, n: usize) -> Vec<f64> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); WORKER_COUNTS.len()];
    for _ in 0..n {
        for (i, workers) in WORKER_COUNTS.iter().enumerate() {
            let start = std::time::Instant::now();
            run_distributed(lp, &opts(*workers), FingerprintVisitor::new).unwrap();
            samples[i].push(start.elapsed().as_secs_f64());
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let lp = lower();
    let serial = Compiled::new(lp.clone()).run(FingerprintVisitor::new()).unwrap();

    // Bit-identity first: no timing is reported for a merge that diverges.
    for workers in WORKER_COUNTS {
        let (out, report) = run_distributed(&lp, &opts(workers), FingerprintVisitor::new).unwrap();
        assert_eq!(
            (out.visitor.count, out.visitor.hash),
            (serial.visitor.count, serial.visitor.hash),
            "reduced({DIM}): distributed fingerprint diverged at {workers} worker(s)"
        );
        assert!(!report.partial);
        assert_eq!(
            report.fault_counters.workers_spawned, workers as u64,
            "clean run should spawn exactly one process per slot"
        );
    }
    eprintln!(
        "gemm reduced({DIM}): {} survivors, fingerprints identical at {WORKER_COUNTS:?} workers",
        serial.visitor.count
    );

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let meds = interleaved_medians(&lp, 5);
    let speedup = meds[0] / meds[2];
    eprintln!(
        "gemm reduced({DIM}): 1 worker {:.4} s, 2 workers {:.4} s, 4 workers {:.4} s \
         ({speedup:.2}x at 4, {cores} core(s))",
        meds[0], meds[1], meds[2]
    );
    // Scaling needs hardware to scale onto; the contract everywhere else is
    // bit-identity, which was asserted above.
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "4 workers on {cores} cores should be >=2x over 1 worker, got {speedup:.2}x"
        );
    } else {
        eprintln!("only {cores} core(s): recording timings, skipping the >=2x assertion");
    }

    let mut group = c.benchmark_group("ablation_distribute");
    group.sample_size(10);
    for workers in WORKER_COUNTS {
        group.bench_function(format!("workers{workers}"), |bench| {
            bench.iter(|| {
                run_distributed(&lp, &opts(workers), FingerprintVisitor::new)
                    .unwrap()
                    .0
                    .visitor
                    .count
            });
        });
    }
    group.finish();

    // --- Median record appended to BENCH_sweep.json. ----------------------
    let record = format!(
        "\n{{\"distribute_scaling\":{{\"gemm_reduced{DIM}_workers1_s\":{:.6},\
         \"gemm_reduced{DIM}_workers2_s\":{:.6},\"gemm_reduced{DIM}_workers4_s\":{:.6},\
         \"speedup_4x\":{:.3},\"cores\":{cores}}}}}",
        meds[0], meds[1], meds[2], speedup
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    match std::fs::OpenOptions::new().append(true).open(path) {
        Ok(mut f) => {
            use std::io::Write as _;
            if let Err(e) = f.write_all(record.as_bytes()) {
                eprintln!("cannot append to {path}: {e}");
            } else {
                eprintln!("appended distribute_scaling record to {path}");
            }
        }
        Err(e) => {
            eprintln!("{path} not found ({e}); run the gemm_sweep bench first to create it")
        }
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
