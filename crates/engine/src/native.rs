//! The runtime-native tier: lower the plan to a standalone C *chunk worker*,
//! compile it once with the host C compiler, and evaluate level-0 chunks in
//! worker processes instead of the in-process compiled engine.
//!
//! This closes the paper's loop at runtime: the same generated-C speed the
//! offline study measures (Figs. 17–19, the ~253× C-vs-Python headline) is
//! folded back into the live sweep. The contract is strict bit-identity —
//! survivors, emission order, per-constraint [`PruneStats`] and visitor
//! fingerprints must match the compiled engine exactly — so the worker's C
//! arithmetic helpers mirror the engine's wrapping/Euclidean semantics
//! operator for operator, and the host decodes each reply in full and
//! validates it before a single visit is replayed.
//!
//! Workers are *resident* (worker protocol v2, `beast_codegen::native`): a
//! [`NativeContext`] keeps the worker processes it spawned parked on a
//! request boundary between chunks, so a sweep spawns at most one process
//! per slot instead of one per chunk, and the emitted C solves the same
//! equality loops the in-process engine solves (its `narrow` module) with the
//! same closed-form credit.
//!
//! The tier is best-effort by design: any failure to prepare (no compiler on
//! `PATH`, opaque plan steps, compile error) or to run a chunk (spawn
//! failure, protocol violation, worker crash) falls back to the in-process
//! compiled engine, silently for preparation and counted per chunk in
//! [`NativeStats`] for execution — and the worker involved is killed and
//! reaped, never reused. A sweep therefore never fails *because* the native
//! tier exists.

use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use beast_codegen::{emit_chunk_worker, lower, toolchain, Program, PROTOCOL_VERSION, ROW_SENTINEL};
use beast_core::hash::Fnv1a;
use beast_core::ir::LoweredPlan;

use crate::compiled::{Compiled, EngineOptions};
use crate::parallel::{Answer, ChunkDone, ChunkExecutor};
use crate::point::PointRef;
use crate::stats::{BlockStats, PruneStats};
use crate::telemetry::SweepReport;
use crate::visit::Visitor;
use crate::walker::SweepOutcome;

/// Counters describing what the native tier did during one sweep. Reported
/// in [`crate::telemetry::SweepReport`] as `native`; `None` there means the
/// tier never activated (not requested, or preparation fell back).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NativeStats {
    /// Wall-clock milliseconds spent compiling the worker (0 on an
    /// artifact-cache hit).
    pub compile_ms: u64,
    /// 1 if the compiled worker binary was reused from the artifact cache.
    pub artifact_cache_hits: u64,
    /// Chunks evaluated by worker processes.
    pub chunks_native: u64,
    /// Survivor rows streamed back from workers.
    pub rows_streamed: u64,
    /// Chunks that fell back to the in-process compiled engine after a
    /// worker-side failure.
    pub chunks_fallback: u64,
    /// Worker processes spawned. Workers are resident, so a fault-free
    /// sweep spawns at most one per slot however many chunks it deals.
    pub workers_spawned: u64,
}

/// A prepared native tier for one plan: the compiled worker binary, the
/// stream-shape facts needed to decode its replies, and the idle resident
/// worker processes.
pub struct NativeContext {
    bin: PathBuf,
    n_vars: usize,
    n_constraints: usize,
    compile_ms: u64,
    cache_hit: bool,
    chunks_native: AtomicU64,
    rows_streamed: AtomicU64,
    chunks_fallback: AtomicU64,
    workers_spawned: AtomicU64,
    /// Idle workers, each parked on a request boundary. [`Self::run_chunk`]
    /// checks one out (spawning when none is idle) and returns it only
    /// after a fully validated reply, so a worker in here is never mid-
    /// stream; one that failed in any way is killed and reaped instead.
    idle: Mutex<Vec<Worker>>,
}

/// Directory holding compiled worker binaries, keyed by plan structure.
/// Overridable via `BEAST_NATIVE_CACHE_DIR` (CI uses this for an isolated,
/// inspectable cache); defaults to a stable subdirectory of the system
/// temp dir so repeated sweeps of the same plan skip the compile entirely.
fn cache_dir() -> PathBuf {
    match std::env::var_os("BEAST_NATIVE_CACHE_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir().join("beast-native-cache"),
    }
}

/// Distinguishes the temp files of concurrent [`NativeContext::prepare`]
/// calls within one process (the pid distinguishes processes).
static PREPARE_SEQ: AtomicU64 = AtomicU64::new(0);

impl NativeContext {
    /// Lower `lp` to a chunk worker, compile it (or reuse a cached binary),
    /// and return a ready-to-dispatch context. Any `Err` means the caller
    /// should fall back to the in-process compiled engine; the message is
    /// diagnostic only.
    pub fn prepare(lp: &LoweredPlan, opts: &EngineOptions) -> Result<NativeContext, String> {
        Self::prepare_in(lp, opts, &cache_dir())
    }

    /// [`Self::prepare`] with the artifact cache at `dir`.
    fn prepare_in(
        lp: &LoweredPlan,
        opts: &EngineOptions,
        dir: &Path,
    ) -> Result<NativeContext, String> {
        if lp.has_opaque_steps() {
            return Err("plan has opaque host-closure steps; no printable source".into());
        }
        let cc = toolchain::find_c_compiler()
            .ok_or_else(|| "no C compiler (gcc/cc) on PATH".to_string())?;
        let program = Program::from_lowered(lp).map_err(|e| e.to_string())?;
        let lowered = lower(&program);
        let source = emit_chunk_worker(&lowered).map_err(|e| e.to_string())?;

        // Artifact key: plan structure + exact emitted source + protocol
        // version + the options signature + which compiler. Source and
        // structural hash overlap, but hashing both means neither an emitter
        // change nor a structural-hash change can alias a stale binary.
        let mut h = Fnv1a::new();
        h.write_u64(lp.structural_hash());
        h.write_bytes(source.as_bytes());
        h.write_u64(u64::from(PROTOCOL_VERSION));
        h.write_bytes(opts.signature().as_bytes());
        h.write_bytes(cc.to_string_lossy().as_bytes());
        let key = h.finish();

        std::fs::create_dir_all(dir).map_err(|e| format!("cache dir: {e}"))?;
        let bin = dir.join(format!("worker-{key:016x}"));

        let (compile_ms, cache_hit) = if bin.is_file() {
            (0, true)
        } else {
            // Source and binary go to names no other `prepare` — in this
            // process or another — can be using, then are renamed into
            // place: concurrent preparations of one plan race benignly
            // (last rename wins, every candidate is identical).
            let unique =
                format!("{}-{}", std::process::id(), PREPARE_SEQ.fetch_add(1, Ordering::Relaxed));
            let tmp_src = dir.join(format!("worker-{key:016x}.tmp.{unique}.c"));
            let tmp_bin = dir.join(format!("worker-{key:016x}.tmp.{unique}"));
            toolchain::write_source(&tmp_src, &source).map_err(|e| e.to_string())?;
            let built = toolchain::compile(&cc, &["-O2"], &tmp_src, &tmp_bin)
                .map_err(|e| e.to_string())
                .and_then(|took| {
                    std::fs::rename(&tmp_bin, &bin).map_err(|e| format!("install binary: {e}"))?;
                    Ok(took)
                });
            if built.is_ok() {
                // The source is kept beside the binary for inspection only.
                let _ = std::fs::rename(&tmp_src, dir.join(format!("worker-{key:016x}.c")));
            } else {
                let _ = std::fs::remove_file(&tmp_src);
                let _ = std::fs::remove_file(&tmp_bin);
            }
            (built?.as_millis() as u64, false)
        };

        Ok(NativeContext {
            bin,
            n_vars: lowered.vars.len(),
            n_constraints: lowered.constraint_names.len(),
            compile_ms,
            cache_hit,
            chunks_native: AtomicU64::new(0),
            rows_streamed: AtomicU64::new(0),
            chunks_fallback: AtomicU64::new(0),
            workers_spawned: AtomicU64::new(0),
            idle: Mutex::new(Vec::new()),
        })
    }

    /// Snapshot the counters for the sweep report.
    pub fn stats(&self) -> NativeStats {
        NativeStats {
            compile_ms: self.compile_ms,
            artifact_cache_hits: u64::from(self.cache_hit),
            chunks_native: self.chunks_native.load(Ordering::Relaxed),
            rows_streamed: self.rows_streamed.load(Ordering::Relaxed),
            chunks_fallback: self.chunks_fallback.load(Ordering::Relaxed),
            workers_spawned: self.workers_spawned.load(Ordering::Relaxed),
        }
    }

    fn idle(&self) -> std::sync::MutexGuard<'_, Vec<Worker>> {
        // Every update is a single push or pop, so the list is valid even
        // if a holder panicked.
        self.idle.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// An idle resident worker, or a freshly spawned one.
    fn checkout(&self) -> Result<Worker, String> {
        if let Some(worker) = self.idle().pop() {
            return Ok(worker);
        }
        let mut child = Command::new(&self.bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn worker: {e}"))?;
        self.workers_spawned.fetch_add(1, Ordering::Relaxed);
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        Ok(Worker { child, stdin, stdout: BufReader::with_capacity(1 << 16, stdout), served: 0 })
    }

    /// Evaluate one level-0 chunk in a resident worker process and replay
    /// its survivor rows into `visitor`.
    ///
    /// The worker's whole reply is read and validated — row lengths, the
    /// sentinel, the counter trailer, the survivor count, the echoed
    /// request ordinal, nothing buffered past the trailer — *before* any
    /// visit happens, so a failed chunk can be retried in-process without
    /// double-visiting. On any error the worker that served (or failed to
    /// serve) the chunk has been killed and reaped by the time this returns.
    pub fn run_chunk<V: Visitor>(
        &self,
        chunk: &[i64],
        names: &[Arc<str>],
        mut visitor: V,
    ) -> Result<SweepOutcome<V>, String> {
        let n = u32::try_from(chunk.len()).map_err(|_| "chunk too large".to_string())?;
        let mut request = Vec::with_capacity(4 + chunk.len() * 8);
        request.extend_from_slice(&n.to_ne_bytes());
        for v in chunk {
            request.extend_from_slice(&v.to_ne_bytes());
        }

        let mut worker = self.checkout()?;
        let reply = match worker.exchange(&request, self.n_vars, self.n_constraints) {
            Ok(reply) => reply,
            Err(e) => return Err(worker.discard(e)),
        };
        self.idle().push(worker);

        // Fully validated: replay the rows in worker emission order.
        let n_rows = reply.stats.survivors;
        if self.n_vars > 0 {
            for slots in reply.rows.chunks_exact(self.n_vars) {
                visitor.visit(&PointRef::Slots { names, slots });
            }
        } else {
            for _ in 0..n_rows {
                visitor.visit(&PointRef::Slots { names, slots: &[] });
            }
        }
        self.chunks_native.fetch_add(1, Ordering::Relaxed);
        self.rows_streamed.fetch_add(n_rows, Ordering::Relaxed);

        Ok(SweepOutcome {
            stats: reply.stats,
            blocks: reply.blocks,
            schedule: None,
            visitor,
        })
    }
}

/// Shut every idle worker down: closing stdin on a request boundary is the
/// protocol's orderly exit.
impl Drop for NativeContext {
    fn drop(&mut self) {
        for worker in self.idle().drain(..) {
            worker.retire();
        }
    }
}

/// The native-process executor of the sweep frame: one resident worker
/// process per busy slot. Any worker-side failure (spawn, crash, protocol
/// violation) is counted and answered *evaluate locally* — the frame
/// re-evaluates from scratch, and no visit happened yet because the
/// worker's reply is fully validated before replay.
impl<V: Visitor> ChunkExecutor<V> for NativeContext {
    fn run(
        &self,
        _slot: usize,
        _chunk: usize,
        values: &[i64],
        compiled: &Compiled,
        make_visitor: &dyn Fn() -> V,
    ) -> Answer<V> {
        match self.run_chunk(values, compiled.point_names(), make_visitor()) {
            Ok(out) => Answer::Done(ChunkDone { outcome: Some(out), faults: Vec::new() }),
            Err(_) => {
                self.chunks_fallback.fetch_add(1, Ordering::Relaxed);
                Answer::Local
            }
        }
    }

    /// A slot that stops pulling chunks needs its worker no longer: retire
    /// one idle worker (any — they are interchangeable).
    fn close(&self, _slot: usize) {
        // Popped in its own statement: the pool is unlocked while waiting.
        let worker = self.idle().pop();
        if let Some(worker) = worker {
            worker.retire();
        }
    }

    fn stamp(&self, report: &mut SweepReport) {
        report.native = Some(self.stats());
    }
}

/// One resident worker process, parked on a request boundary.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// Requests answered so far — the ordinal the next reply must echo.
    served: u32,
}

/// One decoded, validated reply.
#[derive(Debug)]
struct Reply {
    /// Survivor rows, `n_vars` slots each, in emission order.
    rows: Vec<i64>,
    stats: PruneStats,
    /// The narrowing counters; everything else is zero, as with block
    /// pruning off.
    blocks: BlockStats,
}

impl Worker {
    /// Send one request and read its reply in full.
    fn exchange(
        &mut self,
        request: &[u8],
        n_vars: usize,
        n_constraints: usize,
    ) -> Result<Reply, String> {
        self.stdin.write_all(request).map_err(|e| format!("write chunk: {e}"))?;
        let reply = read_reply(&mut self.stdout, n_vars, n_constraints, self.served)?;
        self.served = self.served.wrapping_add(1);
        Ok(reply)
    }

    /// Orderly shutdown of an idle worker: EOF on a request boundary makes
    /// it exit 0; reap it.
    fn retire(self) {
        let Worker { mut child, stdin, .. } = self;
        drop(stdin);
        let _ = child.wait();
    }

    /// A worker that failed mid-request is in an unknown state: kill it,
    /// reap it, and return `error` extended with how the process ended.
    fn discard(self, error: String) -> String {
        let Worker { mut child, stdin, stdout, .. } = self;
        drop((stdin, stdout));
        let _ = child.kill();
        let status = child.wait().map_or_else(|e| e.to_string(), |s| s.to_string());
        let mut stderr = String::new();
        if let Some(mut pipe) = child.stderr.take() {
            let _ = pipe.read_to_string(&mut stderr);
        }
        format!("{error} (worker: {status}) {}", stderr.trim()).trim_end().to_string()
    }
}

/// Read one reply from a worker's stdout and validate all of it: every row
/// length, the sentinel, the constraint count, survivors = rows streamed,
/// the echoed request ordinal, and that nothing is buffered behind the
/// trailer (a resident worker's stream has no EOF to delimit a reply; bytes
/// that arrive later corrupt the *next* reply's framing and are refused
/// there). Every read is exact, so a truncated stream is a clean error.
fn read_reply<R: Read>(
    r: &mut BufReader<R>,
    n_vars: usize,
    n_constraints: usize,
    ordinal: u32,
) -> Result<Reply, String> {
    fn take<const N: usize>(r: &mut impl Read) -> Result<[u8; N], String> {
        let mut out = [0u8; N];
        r.read_exact(&mut out).map_err(|e| format!("truncated worker stream: {e}"))?;
        Ok(out)
    }
    let u32_of = |r: &mut BufReader<R>| take(r).map(u32::from_ne_bytes);
    let u64_of = |r: &mut BufReader<R>| take(r).map(u64::from_ne_bytes);

    let mut rows: Vec<i64> = Vec::new();
    let mut row = vec![0u8; 8 * n_vars];
    let mut n_rows: u64 = 0;
    loop {
        let len = u32_of(r)?;
        if len == ROW_SENTINEL {
            break;
        }
        if len as usize != row.len() {
            return Err(format!("bad row length {len} (expected {})", row.len()));
        }
        r.read_exact(&mut row).map_err(|e| format!("truncated worker stream: {e}"))?;
        rows.extend(
            row.chunks_exact(8).map(|b| i64::from_ne_bytes(b.try_into().expect("8 bytes"))),
        );
        n_rows += 1;
    }
    let nc = u32_of(r)? as usize;
    if nc != n_constraints {
        return Err(format!("trailer reports {nc} constraints (expected {n_constraints})"));
    }
    let mut stats = PruneStats { evaluated: vec![0; nc], pruned: vec![0; nc], survivors: 0 };
    for i in 0..nc {
        stats.evaluated[i] = u64_of(r)?;
        stats.pruned[i] = u64_of(r)?;
    }
    stats.survivors = u64_of(r)?;
    let loops_solved = u64_of(r)?;
    let points_solved = u64_of(r)?;
    let echoed = u32_of(r)?;
    if stats.survivors != n_rows {
        return Err(format!(
            "trailer claims {} survivors but {n_rows} rows streamed",
            stats.survivors
        ));
    }
    if echoed != ordinal {
        return Err(format!("reply echoes request {echoed} (expected {ordinal})"));
    }
    if !r.buffer().is_empty() {
        return Err(format!("{} trailing bytes after trailer", r.buffer().len()));
    }
    let blocks = BlockStats { loops_solved, points_solved, ..BlockStats::default() };
    Ok(Reply { rows, stats, blocks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{run_supervised, ParallelOptions};
    use crate::visit::{CollectVisitor, CountVisitor, FingerprintVisitor};
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;
    use beast_core::plan::{Plan, PlanOptions};
    use beast_core::space::Space;

    /// Three loops; `b`'s opens with a solvable check, so every test here
    /// also runs the narrowed C.
    fn small_plan() -> LoweredPlan {
        let s = Space::builder("native-unit")
            .range("a", 1, 9)
            .range("b", 1, 9)
            .constraint("ab12", ConstraintClass::Hard, (var("a") * var("b")).ne(12))
            .range("c", 1, 7)
            .derived("bc", var("b") * var("c"))
            .constraint("cap", ConstraintClass::Hard, var("bc").gt(30))
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    /// The in-process engine normalized the way `run_threaded` does for
    /// native runs.
    fn reference_engine(lp: &LoweredPlan) -> Compiled {
        let norm = EngineOptions {
            intervals: false,
            congruence: false,
            schedule: Default::default(),
            ..EngineOptions::native()
        };
        Compiled::with_options(lp.clone(), norm)
    }

    /// The block counters both tiers define: the worker solves loops but
    /// neither guards nor replays.
    fn narrowing(b: &BlockStats) -> (u64, u64) {
        (b.loops_solved, b.points_solved)
    }

    fn process_exists(pid: u32) -> bool {
        Path::new("/proc").join(pid.to_string()).exists()
    }

    #[test]
    fn prepare_and_run_chunk_matches_in_process_engine() {
        let Some(_) = toolchain::find_c_compiler() else { return };
        let lp = small_plan();
        let ctx = NativeContext::prepare(&lp, &EngineOptions::native()).expect("prepare");
        let compiled = reference_engine(&lp);
        let names = compiled.point_names().clone();
        let outer = compiled.outer_domain().expect("outer domain");
        assert!(!outer.is_empty());

        let nat = ctx
            .run_chunk(&outer, &names, CollectVisitor::new(names.clone(), 10_000))
            .expect("native chunk");
        let reference = compiled
            .run(CollectVisitor::new(names.clone(), 10_000))
            .expect("reference run");

        assert_eq!(nat.visitor.total, reference.visitor.total);
        assert_eq!(nat.visitor.points, reference.visitor.points);
        assert_eq!(nat.stats, reference.stats);
        assert!(nat.blocks.loops_solved > 0, "the `b` loop was not narrowed");
        assert_eq!(narrowing(&nat.blocks), narrowing(&reference.blocks));
        assert_eq!(ctx.stats().chunks_native, 1);
        assert_eq!(ctx.stats().rows_streamed, nat.stats.survivors);
    }

    #[test]
    fn second_prepare_hits_artifact_cache() {
        let Some(_) = toolchain::find_c_compiler() else { return };
        let lp = small_plan();
        let opts = EngineOptions::native();
        let first = NativeContext::prepare(&lp, &opts).expect("prepare 1");
        let second = NativeContext::prepare(&lp, &opts).expect("prepare 2");
        // First call may or may not hit depending on prior runs, but the
        // second is guaranteed to reuse the binary the first installed.
        let _ = first;
        assert_eq!(second.stats().artifact_cache_hits, 1);
        assert_eq!(second.stats().compile_ms, 0);
    }

    /// Two executors of one process preparing one plan on a cold cache used
    /// to share a temp name: one `rename` failed and that sweep silently
    /// lost its native tier.
    #[test]
    fn concurrent_cold_prepares_of_one_plan_all_succeed() {
        let Some(_) = toolchain::find_c_compiler() else { return };
        let lp = small_plan();
        let dir =
            std::env::temp_dir().join(format!("beast-native-prepare-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let barrier = std::sync::Barrier::new(4);
        let results: Vec<Result<NativeStats, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        NativeContext::prepare_in(&lp, &EngineOptions::native(), &dir)
                            .map(|ctx| ctx.stats())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("prepare thread")).collect()
        });
        for r in &results {
            assert!(r.is_ok(), "a concurrent prepare failed: {results:?}");
        }
        // Nothing but the installed binary and its source is left behind.
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(left.is_empty(), "temp files left behind: {left:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// (a) A resident worker answers each request for that request alone:
    /// the counters are zeroed in between, and an empty chunk reports zero
    /// everything.
    #[test]
    fn one_resident_worker_equals_fresh_workers_chunk_by_chunk() {
        let Some(_) = toolchain::find_c_compiler() else { return };
        let lp = small_plan();
        let opts = EngineOptions::native();
        let names = reference_engine(&lp).point_names().clone();
        let run = |ctx: &NativeContext, chunk: &[i64]| {
            let out = ctx
                .run_chunk(chunk, &names, CollectVisitor::new(names.clone(), 10_000))
                .expect("native chunk");
            (out.visitor.points, out.stats, out.blocks)
        };

        let resident = NativeContext::prepare(&lp, &opts).expect("prepare");
        let first = run(&resident, &[1, 2, 3]);
        let empty = run(&resident, &[]);
        let second = run(&resident, &[4, 5, 6, 7, 8]);
        assert_eq!(resident.stats().workers_spawned, 1);
        assert_eq!(resident.stats().chunks_native, 3);

        assert!(empty.0.is_empty());
        assert_eq!(empty.1, PruneStats::new(2));
        assert_eq!(empty.2, BlockStats::default());
        assert!(first.1.survivors > 0 && second.1.survivors > 0);
        assert!(first.2.loops_solved > 0 && second.2.loops_solved > 0);
        assert_ne!(first.1, second.1);
        for (chunk, got) in [(&[1i64, 2, 3][..], &first), (&[4i64, 5, 6, 7, 8][..], &second)] {
            let fresh = NativeContext::prepare(&lp, &opts).expect("prepare");
            assert_eq!(&run(&fresh, chunk), got, "chunk {chunk:?}");
            assert_eq!(fresh.stats().workers_spawned, 1);
        }
    }

    /// Every error path reaps the process it held: after a protocol error
    /// the pool is empty and the worker is gone, not a zombie.
    #[test]
    fn a_protocol_error_kills_and_reaps_the_worker() {
        let Some(_) = toolchain::find_c_compiler() else { return };
        let lp = small_plan();
        let mut ctx = NativeContext::prepare(&lp, &EngineOptions::native()).expect("prepare");
        let names = reference_engine(&lp).point_names().clone();
        ctx.run_chunk(&[1, 2], &names, CountVisitor::default()).expect("healthy chunk");
        let pid = ctx.idle()[0].child.id();
        assert!(!Path::new("/proc/self").exists() || process_exists(pid));

        // The host now expects wider rows than the worker writes.
        ctx.n_vars += 1;
        let err = ctx.run_chunk(&[1, 2], &names, CountVisitor::default()).map(|_| ()).unwrap_err();
        assert!(err.contains("bad row length"), "{err}");
        assert!(ctx.idle().is_empty(), "a failed worker went back to the pool");
        assert!(!process_exists(pid), "worker {pid} was not reaped");
        assert_eq!(ctx.stats().chunks_native, 1);

        // The next chunk gets a fresh worker.
        ctx.n_vars -= 1;
        ctx.run_chunk(&[3], &names, CountVisitor::default()).expect("respawned");
        assert_eq!(ctx.stats().workers_spawned, 2);
    }

    /// (b) A resident worker that dies between chunks costs exactly one
    /// local chunk: the frame answers it in-process, the next chunk gets a
    /// fresh worker, and nothing observable changes.
    #[test]
    fn a_worker_killed_between_chunks_falls_back_once_and_respawns() {
        let Some(_) = toolchain::find_c_compiler() else { return };
        let lp = small_plan();
        let ctx = NativeContext::prepare(&lp, &EngineOptions::native()).expect("prepare");
        let reference = reference_engine(&lp);
        let serial = reference.run(FingerprintVisitor::new()).expect("serial");

        // The frame asks for a chunk's visitor right before it asks the
        // executor for a worker, i.e. while the resident worker is idle.
        let calls = AtomicU64::new(0);
        let make_visitor = || {
            if calls.fetch_add(1, Ordering::Relaxed) == 1 {
                let mut idle = ctx.idle();
                idle[0].child.kill().expect("kill resident worker");
            }
            FingerprintVisitor::new()
        };
        let opts = ParallelOptions { threads: 1, chunk_count: 4, ..ParallelOptions::default() };
        let (out, report) = run_supervised(
            &reference,
            std::time::Instant::now(),
            &opts,
            make_visitor,
            None,
            None,
            None,
            &ctx,
        )
        .expect("sweep");

        assert_eq!(out.visitor, serial.visitor);
        assert_eq!(out.stats, serial.stats);
        assert_eq!(
            narrowing(&out.blocks),
            narrowing(&serial.blocks),
            "fallback and native chunks count alike"
        );
        let native = report.native.expect("stamped");
        assert_eq!(
            (native.chunks_native, native.chunks_fallback, native.workers_spawned),
            (3, 1, 2)
        );
        assert!(ctx.idle().is_empty(), "the frame's close() retires the slot's worker");
    }

    fn encode_reply(rows: &[&[i64]], counts: &[(u64, u64)], tail: (u64, u64, u64, u32)) -> Vec<u8> {
        let mut out = Vec::new();
        for row in rows {
            out.extend_from_slice(&(8 * row.len() as u32).to_ne_bytes());
            row.iter().for_each(|v| out.extend_from_slice(&v.to_ne_bytes()));
        }
        out.extend_from_slice(&ROW_SENTINEL.to_ne_bytes());
        out.extend_from_slice(&(counts.len() as u32).to_ne_bytes());
        for (evaluated, pruned) in counts {
            out.extend_from_slice(&evaluated.to_ne_bytes());
            out.extend_from_slice(&pruned.to_ne_bytes());
        }
        let (survivors, loops_solved, points_solved, ordinal) = tail;
        out.extend_from_slice(&survivors.to_ne_bytes());
        out.extend_from_slice(&loops_solved.to_ne_bytes());
        out.extend_from_slice(&points_solved.to_ne_bytes());
        out.extend_from_slice(&ordinal.to_ne_bytes());
        out
    }

    /// `read_reply` has no visitor to call: whatever it refuses is refused
    /// before any visit.
    #[test]
    fn malformed_replies_are_refused_before_any_visit() {
        let decode = |bytes: &[u8]| read_reply(&mut BufReader::new(bytes), 2, 1, 5);
        let rows: [&[i64]; 2] = [&[1, 2], &[3, -4]];
        let good = encode_reply(&rows, &[(9, 7)], (2, 3, 8, 5));
        let reply = decode(&good).expect("well-formed reply");
        assert_eq!(reply.rows, [1, 2, 3, -4]);
        assert_eq!(reply.stats, PruneStats { evaluated: vec![9], pruned: vec![7], survivors: 2 });
        assert_eq!((reply.blocks.loops_solved, reply.blocks.points_solved), (3, 8));

        let refused = |bytes: Vec<u8>, why: &str| {
            let err = decode(&bytes).expect_err(why);
            assert!(err.contains(why), "{err}");
        };
        refused(encode_reply(&rows, &[(9, 7)], (2, 3, 8, 4)), "echoes request 4");
        refused(encode_reply(&[&[1, 2], &[3]], &[(9, 7)], (2, 3, 8, 5)), "bad row length 8");
        refused(encode_reply(&rows, &[(9, 7)], (3, 3, 8, 5)), "claims 3 survivors");
        refused(encode_reply(&rows, &[(9, 7), (1, 1)], (2, 3, 8, 5)), "2 constraints");
        refused([good.clone(), vec![0]].concat(), "1 trailing bytes");
        refused(good[..good.len() - 1].to_vec(), "truncated worker stream");
        refused(good[..5].to_vec(), "truncated worker stream");
    }
}
