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
//! operator for operator, and the host decodes each worker's entire output
//! and validates it before a single visit is replayed.
//!
//! The tier is best-effort by design: any failure to prepare (no compiler on
//! `PATH`, opaque plan steps, compile error) or to run a chunk (spawn
//! failure, protocol violation, worker crash) falls back to the in-process
//! compiled engine, silently for preparation and counted per chunk in
//! [`NativeStats`] for execution. A sweep therefore never fails *because*
//! the native tier exists.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use beast_codegen::{emit_chunk_worker, lower, toolchain, Program, PROTOCOL_VERSION, ROW_SENTINEL};
use beast_core::hash::Fnv1a;
use beast_core::ir::LoweredPlan;

use crate::compiled::{Compiled, EngineOptions};
use crate::parallel::{Answer, ChunkDone, ChunkExecutor};
use crate::point::PointRef;
use crate::stats::PruneStats;
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
}

/// A prepared native tier for one plan: the compiled worker binary plus the
/// stream-shape facts needed to decode its output.
pub struct NativeContext {
    bin: PathBuf,
    n_vars: usize,
    n_constraints: usize,
    compile_ms: u64,
    cache_hit: bool,
    chunks_native: AtomicU64,
    rows_streamed: AtomicU64,
    chunks_fallback: AtomicU64,
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

impl NativeContext {
    /// Lower `lp` to a chunk worker, compile it (or reuse a cached binary),
    /// and return a ready-to-dispatch context. Any `Err` means the caller
    /// should fall back to the in-process compiled engine; the message is
    /// diagnostic only.
    pub fn prepare(lp: &LoweredPlan, opts: &EngineOptions) -> Result<NativeContext, String> {
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

        let dir = cache_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("cache dir: {e}"))?;
        let bin = dir.join(format!("worker-{key:016x}"));

        let (compile_ms, cache_hit) = if bin.is_file() {
            (0, true)
        } else {
            let src_path = dir.join(format!("worker-{key:016x}.c"));
            toolchain::write_source(&src_path, &source).map_err(|e| e.to_string())?;
            // Compile to a pid-suffixed temp name, then atomically rename:
            // concurrent sweeps of the same plan race benignly (last rename
            // wins, both binaries are identical).
            let tmp = dir.join(format!("worker-{key:016x}.tmp.{}", std::process::id()));
            let took = toolchain::compile(&cc, &["-O2"], &src_path, &tmp)
                .map_err(|e| e.to_string())?;
            std::fs::rename(&tmp, &bin).map_err(|e| format!("install binary: {e}"))?;
            (took.as_millis() as u64, false)
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
        }
    }

    /// Evaluate one level-0 chunk in a worker process and replay its
    /// survivor rows into `visitor`.
    ///
    /// The worker's whole output is read and validated — row lengths, the
    /// sentinel, the counter trailer, the survivor count, absence of
    /// trailing bytes — *before* any visit happens, so a failed chunk can
    /// be retried in-process without double-visiting.
    pub fn run_chunk<V: Visitor>(
        &self,
        chunk: &[i64],
        names: &[Arc<str>],
        mut visitor: V,
    ) -> Result<SweepOutcome<V>, String> {
        let mut child = Command::new(&self.bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn worker: {e}"))?;

        {
            let stdin = child.stdin.as_mut().expect("piped stdin");
            let n = u32::try_from(chunk.len()).map_err(|_| "chunk too large".to_string())?;
            let mut buf = Vec::with_capacity(4 + chunk.len() * 8);
            buf.extend_from_slice(&n.to_ne_bytes());
            for v in chunk {
                buf.extend_from_slice(&v.to_ne_bytes());
            }
            stdin.write_all(&buf).map_err(|e| format!("write chunk: {e}"))?;
        }
        drop(child.stdin.take());

        let out = child.wait_with_output().map_err(|e| format!("wait worker: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "worker exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }

        let mut r = StreamReader { buf: &out.stdout, pos: 0 };
        let row_len = self.n_vars.max(1);
        let mut rows: Vec<i64> = Vec::new();
        let mut n_rows: u64 = 0;
        loop {
            let len = r.u32()?;
            if len == ROW_SENTINEL {
                break;
            }
            if len as usize != 8 * self.n_vars {
                return Err(format!(
                    "bad row length {len} (expected {})",
                    8 * self.n_vars
                ));
            }
            for _ in 0..self.n_vars {
                rows.push(r.i64()?);
            }
            n_rows += 1;
        }
        let nc = r.u32()? as usize;
        if nc != self.n_constraints {
            return Err(format!(
                "trailer reports {nc} constraints (expected {})",
                self.n_constraints
            ));
        }
        let mut stats = PruneStats {
            evaluated: vec![0; nc],
            pruned: vec![0; nc],
            survivors: 0,
        };
        for i in 0..nc {
            stats.evaluated[i] = r.u64()?;
            stats.pruned[i] = r.u64()?;
        }
        stats.survivors = r.u64()?;
        if r.pos != r.buf.len() {
            return Err(format!("{} trailing bytes after trailer", r.buf.len() - r.pos));
        }
        if stats.survivors != n_rows {
            return Err(format!(
                "trailer claims {} survivors but {} rows streamed",
                stats.survivors, n_rows
            ));
        }

        // Fully validated: replay the rows in worker emission order.
        if self.n_vars > 0 {
            for slots in rows.chunks_exact(row_len) {
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
            stats,
            blocks: Default::default(),
            schedule: None,
            lanes: Default::default(),
            visitor,
        })
    }
}

/// The native-process executor of the sweep frame: one worker process per
/// chunk. Any worker-side failure (spawn, crash, protocol violation) is
/// counted and answered *evaluate locally* — the frame re-evaluates from
/// scratch, and no visit happened yet because the worker's output is fully
/// validated before replay.
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

    fn stamp(&self, report: &mut SweepReport) {
        report.native = Some(self.stats());
    }
}

/// Cursor over the worker's stdout bytes; every read is bounds-checked so a
/// truncated or corrupt stream becomes a clean protocol error.
struct StreamReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl StreamReader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let end = self.pos.checked_add(N).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| "truncated worker stream".to_string())?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, String> {
        self.take().map(u32::from_ne_bytes)
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.take().map(u64::from_ne_bytes)
    }

    fn i64(&mut self) -> Result<i64, String> {
        self.take().map(i64::from_ne_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visit::{CollectVisitor, CountVisitor};
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;
    use beast_core::plan::{Plan, PlanOptions};
    use beast_core::space::Space;

    fn small_plan() -> LoweredPlan {
        let s = Space::builder("native-unit")
            .range("a", 1, 9)
            .range("b", 1, 9)
            .derived("ab", var("a") * var("b"))
            .constraint("cap", ConstraintClass::Hard, var("ab").gt(30))
            .build()
            .unwrap();
        let plan = Plan::new(&s, PlanOptions::default()).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    #[test]
    fn prepare_and_run_chunk_matches_in_process_engine() {
        let Some(_) = toolchain::find_c_compiler() else { return };
        let lp = small_plan();
        let opts = EngineOptions::native();
        let ctx = NativeContext::prepare(&lp, &opts).expect("prepare");

        // Reference: the in-process compiled engine over the full space,
        // normalized the way the parallel driver does for native runs.
        let norm = EngineOptions {
            intervals: false,
            congruence: false,
            schedule: Default::default(),
            ..opts
        };
        let compiled = Compiled::with_options(lp.clone(), norm);
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

    #[test]
    fn corrupt_stream_is_rejected_before_any_visit() {
        let mut r = StreamReader { buf: &[1, 2, 3], pos: 0 };
        assert!(r.u32().is_err());

        // A bad row length must error rather than visiting garbage; emulate
        // by decoding a hand-built stream through the same reader paths.
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u32.to_ne_bytes()); // not a multiple of 8
        let mut r = StreamReader { buf: &buf, pos: 0 };
        let len = r.u32().unwrap();
        assert_ne!(len, ROW_SENTINEL);
        assert_ne!(len as usize % 8, 0);
    }

    #[test]
    fn run_chunk_on_empty_chunk_reports_zero_everything() {
        let Some(_) = toolchain::find_c_compiler() else { return };
        let lp = small_plan();
        let ctx = NativeContext::prepare(&lp, &EngineOptions::native()).expect("prepare");
        let names: Vec<Arc<str>> = Vec::new();
        let out = ctx
            .run_chunk(&[], &names, CountVisitor::default())
            .expect("empty chunk");
        assert_eq!(out.stats.survivors, 0);
        assert_eq!(out.visitor.count, 0);
    }
}
