//! Distributed sharded sweeps: a multi-process supervisor that deals level-0
//! chunk shards to worker *processes* and folds their results bit-identically
//! to a serial run.
//!
//! [`crate::parallel`] scales a sweep across threads; this module scales it
//! across processes — the unit of isolation that survives `kill -9`, OOM
//! kills, and hung evaluations. The supervisor re-invokes a worker command
//! (normally the `repro` binary in its hidden `worker` mode), speaks a
//! length-prefixed JSON protocol over the worker's stdin/stdout, and deals
//! shards dynamically: each shard is one scheduler chunk of the level-0
//! domain, the same unit [`crate::parallel::run_parallel`]'s supervisor
//! schedules across threads. Workers run the existing fault-tolerant chunk
//! loop and stream back per-chunk outcomes ([`SaveState`] visitor blocks
//! plus [`FaultRecord`]s), which the supervisor validates fully before
//! folding **in chunk order** through the same collector the thread pool
//! uses.
//!
//! # Wire protocol v1
//!
//! Every frame is a 4-byte big-endian length followed by that many bytes of
//! UTF-8 JSON (max 64 MiB). Supervisor → worker: `hello` (space name,
//! structural fingerprint, engine signature, fault policy, heartbeat
//! interval), `shard` (chunk index + its level-0 values), `bye`. Worker →
//! supervisor: `ready` (echoes fingerprint + signature for the handshake),
//! `hb` (heartbeat while a shard is in flight), `done` (chunk outcome +
//! faults), `fail` (abort-policy error or panic). The full grammar and
//! failure matrix live in `docs/DISTRIBUTED.md`.
//!
//! # Robustness model
//!
//! Worker death (crash, `kill -9`, closed pipe), silence (heartbeat/read
//! deadline expired) and lies (malformed or mismatched replies) are all
//! *worker-level faults*: the in-flight shard is re-dealt with exponential
//! backoff — to a respawned worker while the restart budget lasts, then to
//! the supervisor's own in-process engine — and recorded as a [`FaultRecord`]
//! with kind [`FaultKind::WorkerExit`] / [`FaultKind::WorkerTimeout`] /
//! [`FaultKind::ProtocolError`]. After [`DistributeOptions::shard_retry_max`]
//! failed attempts the shard is quarantined exactly like a chunk under
//! [`FaultPolicy::QuarantineChunk`]. When spawning fails entirely the run
//! degrades to in-process evaluation and still completes. Because nothing
//! from a failed attempt is ever folded (a worker's reply is validated
//! in full first, and evaluation is deterministic), retries cannot change
//! the merged outcome: survivors, emission order, statistics and
//! fingerprints are bit-identical to a serial run at any worker count.
//!
//! Checkpoint integration reuses [`crate::checkpoint`] unchanged — the
//! supervisor folds in chunk order, so `kill -9` of the *supervisor* is
//! resumable with [`run_distributed_checkpointed`], and a resumed run is
//! bit-identical to an uninterrupted one (`tests/distribute.rs` in
//! `beast-bench` asserts this end to end).

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use beast_core::error::EvalError;
use beast_core::ir::LoweredPlan;

use crate::checkpoint::{
    blocks_json, parse_blocks, parse_checkpoint, parse_fault_record, parse_stats, stats_json,
    u64_array, write_checkpoint, CheckpointConfig, JsonValue, SaveState,
};
use crate::compiled::{ChunkCtx, Compiled, EngineOptions, EngineTier};
use crate::fault::{FaultAction, FaultKind, FaultPolicy, FaultRecord};
use crate::parallel::{
    chunk_len_for, panic_message, ChunkDone, CkSink, Collector, ResumeSeed,
};
use crate::stats::{BlockStats, FaultCounters, LaneStats, PruneStats};
use crate::sweep::SweepError;
use crate::telemetry::{fault_record_json, json_str, SweepProgress, SweepReport, WorkerTelemetry};
use crate::visit::Visitor;
use crate::walker::SweepOutcome;

/// Wire protocol version spoken by [`serve_worker`] and the supervisor.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on a single frame payload (64 MiB). A length prefix beyond
/// this is treated as a protocol violation, not an allocation request.
const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Hard ceiling on one retry backoff sleep, so exponential growth cannot
/// stall the deal for minutes.
const MAX_BACKOFF_MS: u64 = 2_000;

/// Configuration for [`run_distributed`].
#[derive(Debug, Clone)]
pub struct DistributeOptions {
    /// Worker *processes* to spawn (values below 1 are treated as 1).
    pub workers: usize,
    /// Command line for one worker: program plus arguments. The worker must
    /// speak protocol v1 on stdin/stdout — normally this is
    /// `[repro, "worker", <dim>, ...]` built by the CLI. An empty command
    /// skips spawning entirely and evaluates every shard in-process.
    pub worker_cmd: Vec<String>,
    /// Explicit total number of scheduler chunks (0 = derive from the worker
    /// count like [`crate::parallel::ParallelOptions::chunk_count`]). Pin
    /// this for fault injection and cross-worker-count determinism checks.
    pub chunk_count: usize,
    /// Compiled-engine options; workers must be configured identically
    /// (verified at handshake via [`EngineOptions::signature`]).
    pub engine: EngineOptions,
    /// What an evaluation error or chunk panic does inside a worker — the
    /// same policy semantics as a threaded sweep, applied worker-side.
    pub fault_policy: FaultPolicy,
    /// Heartbeat/read deadline per worker: if no frame (heartbeats included)
    /// arrives within this window while a shard is in flight, the worker is
    /// declared hung, killed, and the shard re-dealt.
    pub heartbeat: Duration,
    /// Worker-level attempts per shard beyond the first; when exhausted the
    /// shard is quarantined as a [`FaultAction::QuarantinedChunk`].
    pub shard_retry_max: u32,
    /// Base backoff before re-dealing a failed shard; doubles per attempt,
    /// capped at 2 s.
    pub shard_backoff_ms: u64,
    /// Total worker respawns allowed across the run (0 = automatic:
    /// `2 × workers`). Once spent, slots that lose their worker degrade to
    /// in-process evaluation instead of respawning.
    pub restart_max: usize,
    /// Optional shared progress counters, bumped once per folded chunk.
    pub progress: Option<Arc<SweepProgress>>,
    /// Stop dealing new shards after this many chunks (0 = no limit) — the
    /// deterministic interruption knob for checkpoint/resume tests.
    pub stop_after_chunks: usize,
    /// Chaos knob: `kill -9` the worker that receives the Nth dealt shard
    /// (1-based) right after dispatching it. Exercises the `WorkerExit`
    /// recovery path deterministically in tests and the CI smoke job.
    pub chaos_kill_after: Option<u64>,
}

impl DistributeOptions {
    /// Options for `workers` processes running `worker_cmd`, with default
    /// robustness settings (10 s heartbeat, 3 retries, 50 ms base backoff).
    pub fn new(workers: usize, worker_cmd: Vec<String>) -> DistributeOptions {
        DistributeOptions {
            workers: workers.max(1),
            worker_cmd,
            chunk_count: 0,
            engine: EngineOptions::default(),
            fault_policy: FaultPolicy::default(),
            heartbeat: Duration::from_secs(10),
            shard_retry_max: 3,
            shard_backoff_ms: 50,
            restart_max: 0,
            progress: None,
            stop_after_chunks: 0,
            chaos_kill_after: None,
        }
    }
}

/// Deterministic failure injection for [`serve_worker`], driven by the
/// hidden `repro worker` CLI flags. Counters are 1-based shard ordinals as
/// received by this worker.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerChaos {
    /// Exit the process (status 113) upon receiving this shard, before
    /// evaluating it — simulates a crash with the shard in flight.
    pub die_after: Option<u64>,
    /// Go silent upon receiving this shard: stop heartbeating and never
    /// reply, until the supervisor's deadline kills the process.
    pub stall_after: Option<u64>,
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one length-prefixed frame and flush it.
fn write_frame<W: Write>(w: &mut W, payload: &str) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary. Oversized
/// lengths, truncation mid-frame and invalid UTF-8 are all errors.
fn read_frame<R: Read + ?Sized>(r: &mut R) -> Result<Option<String>, String> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err("truncated frame length".to_string()),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("read frame length: {e}")),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| format!("read frame payload: {e}"))?;
    String::from_utf8(payload).map(Some).map_err(|_| "frame is not UTF-8".to_string())
}

// ---------------------------------------------------------------------------
// Shared chunk evaluation (worker side and in-process degradation)
// ---------------------------------------------------------------------------

/// Why a chunk evaluation aborted under [`FaultPolicy::Abort`] — the only
/// information that can cross a process boundary.
pub(crate) enum ChunkAbort {
    /// An [`EvalError`] (rendered, since the structured error cannot be
    /// serialized across the pipe).
    Error(String),
    /// A caught panic payload.
    Panic(String),
}

/// Evaluate one chunk exactly like a thread in
/// [`crate::parallel::run_supervised`] would: per-policy retry loop, panic
/// isolation, structured fault records. Shared by [`serve_worker`] and the
/// supervisor's in-process degradation path so both produce bit-identical
/// outcomes and fault records.
fn eval_chunk_local<V: Visitor>(
    compiled: &Compiled,
    values: &[i64],
    chunk: usize,
    policy: FaultPolicy,
    make_visitor: &dyn Fn() -> V,
) -> Result<ChunkDone<V>, ChunkAbort> {
    let (retry_max, backoff_ms) = match policy {
        FaultPolicy::Retry { max, backoff_ms } => (max, backoff_ms),
        _ => (0, 0),
    };
    let mut faults: Vec<FaultRecord> = Vec::new();
    let mut outcome: Option<SweepOutcome<V>> = None;
    for attempt in 0..=retry_max {
        if attempt > 0 && backoff_ms > 0 {
            std::thread::sleep(Duration::from_millis(backoff_ms));
        }
        let ctx = ChunkCtx { policy, injector: None, chunk, attempt, cancel: None };
        let attempt_result = catch_unwind(AssertUnwindSafe(|| {
            compiled.run_outer_chunk_supervised(values, make_visitor(), &ctx)
        }));
        let (kind, error, site, bindings) = match attempt_result {
            Ok(Ok(run)) => {
                faults.extend(run.faults);
                outcome = Some(run.outcome);
                break;
            }
            Ok(Err(e)) => {
                if policy == FaultPolicy::Abort {
                    return Err(ChunkAbort::Error(e.root().to_string()));
                }
                let (site, bindings) = match e.point_context() {
                    Some(ctx) => (ctx.site.clone(), ctx.bindings.clone()),
                    None => ("chunk".to_string(), Vec::new()),
                };
                (FaultKind::Error, e.root().to_string(), site, bindings)
            }
            Err(payload) => {
                let message = panic_message(payload);
                if policy == FaultPolicy::Abort {
                    return Err(ChunkAbort::Panic(message));
                }
                (FaultKind::Panic, message, "chunk".to_string(), Vec::new())
            }
        };
        let exhausted = attempt == retry_max;
        faults.push(FaultRecord {
            chunk,
            ordinal: 0,
            attempt,
            kind,
            action: if exhausted { FaultAction::QuarantinedChunk } else { FaultAction::Retried },
            site,
            error,
            bindings,
        });
        if exhausted {
            break;
        }
    }
    Ok(ChunkDone { outcome, faults })
}

// ---------------------------------------------------------------------------
// Frame (de)serialization
// ---------------------------------------------------------------------------

/// Serialize a finished chunk into a `done` frame payload.
fn done_frame<V: Visitor + SaveState>(chunk: usize, done: &ChunkDone<V>) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256);
    let _ = write!(out, "{{\"v\":{PROTOCOL_VERSION},\"done\":{{\"chunk\":{chunk},\"outcome\":");
    match &done.outcome {
        None => out.push_str("null"),
        Some(o) => {
            out.push_str("{\"stats\":");
            stats_json(&mut out, &o.stats);
            out.push_str(",\"blocks\":");
            blocks_json(&mut out, &o.blocks);
            let _ = write!(
                out,
                ",\"lanes\":{{\"lane_evals\":{},\"lanes_masked\":{},\"scalar_fallbacks\":{},\
                 \"super_hits\":",
                o.lanes.lane_evals, o.lanes.lanes_masked, o.lanes.scalar_fallbacks
            );
            u64_array(&mut out, &o.lanes.super_hits);
            out.push_str("},\"visitor\":");
            out.push_str(&o.visitor.save_state());
            out.push('}');
        }
    }
    out.push_str(",\"faults\":[");
    for (i, r) in done.faults.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        fault_record_json(&mut out, r);
    }
    out.push_str("]}}");
    out
}

/// Parse a `lanes` object written by [`done_frame`].
fn parse_lanes(doc: &JsonValue) -> Result<LaneStats, String> {
    let counter = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("worker: lanes.{key} missing"))
    };
    let super_hits = doc
        .get("super_hits")
        .and_then(JsonValue::items)
        .ok_or_else(|| "worker: lanes.super_hits missing".to_string())?
        .iter()
        .map(|v| v.as_u64().ok_or_else(|| "worker: lanes.super_hits not integers".to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(LaneStats {
        lane_evals: counter("lane_evals")?,
        lanes_masked: counter("lanes_masked")?,
        scalar_fallbacks: counter("scalar_fallbacks")?,
        super_hits,
    })
}

/// Fully validate a worker's `done` frame against what the supervisor
/// dispatched before anything is folded: the chunk index must match, counter
/// arrays must cover exactly the plan's constraints, and every nested block
/// (blocks, lanes, visitor state, fault records) must parse. Any
/// violation is a [`FaultKind::ProtocolError`] — the shard is re-dealt and
/// nothing from the lying worker reaches the merge.
fn parse_done<V: Visitor + SaveState>(
    doc: &JsonValue,
    expect_chunk: usize,
    n_constraints: usize,
    make_visitor: &dyn Fn() -> V,
) -> Result<ChunkDone<V>, String> {
    let done = doc.get("done").ok_or_else(|| "worker: missing done body".to_string())?;
    let chunk = done
        .get("chunk")
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| "worker: done.chunk missing".to_string())?;
    if chunk != expect_chunk {
        return Err(format!("worker replied for chunk {chunk}, expected {expect_chunk}"));
    }
    let faults = done
        .get("faults")
        .and_then(JsonValue::items)
        .ok_or_else(|| "worker: done.faults missing".to_string())?
        .iter()
        .map(parse_fault_record)
        .collect::<Result<Vec<_>, _>>()?;
    if faults.iter().any(|f| f.chunk != expect_chunk) {
        return Err("worker: fault record for a different chunk".to_string());
    }
    let outcome = match done.get("outcome") {
        None => return Err("worker: done.outcome missing".to_string()),
        Some(JsonValue::Null) => None,
        Some(o) => {
            let stats =
                parse_stats(o.get("stats").ok_or_else(|| "worker: outcome.stats missing".to_string())?, "worker")?;
            if stats.evaluated.len() != n_constraints {
                return Err(format!(
                    "worker stats cover {} constraint(s), the plan has {n_constraints}",
                    stats.evaluated.len()
                ));
            }
            let blocks = parse_blocks(
                o.get("blocks").ok_or_else(|| "worker: outcome.blocks missing".to_string())?,
                "worker",
            )?;
            let lanes = parse_lanes(
                o.get("lanes").ok_or_else(|| "worker: outcome.lanes missing".to_string())?,
            )?;
            let mut visitor = make_visitor();
            visitor
                .load_state(o.get("visitor").ok_or_else(|| "worker: outcome.visitor missing".to_string())?)
                .map_err(|e| format!("worker: {e}"))?;
            Some(SweepOutcome { stats, blocks, lanes, schedule: None, visitor })
        }
    };
    Ok(ChunkDone { outcome, faults })
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Serve shards over an arbitrary byte stream — the worker half of protocol
/// v1, normally wired to stdin/stdout by the hidden `repro worker` mode.
///
/// The worker builds its own [`Compiled`] engine from its own copy of the
/// plan; the handshake lets the supervisor verify (via the structural
/// fingerprint and [`EngineOptions::signature`]) that both sides agree on
/// what is being evaluated before any shard is dealt. While a shard is in
/// flight a ticker thread emits `hb` frames at a quarter of the negotiated
/// heartbeat interval, so a busy worker is never mistaken for a hung one.
/// Returns after a `bye` frame or clean EOF (the supervisor died — exiting
/// leaves no orphan). Protocol violations return `Err` so the binary can
/// exit nonzero.
pub fn serve_worker<V, F, R, W>(
    lp: &LoweredPlan,
    engine: EngineOptions,
    make_visitor: F,
    chaos: &WorkerChaos,
    mut input: R,
    output: W,
) -> Result<(), String>
where
    V: Visitor + SaveState,
    F: Fn() -> V,
    R: Read,
    W: Write + Send,
{
    let compiled = Compiled::with_options(lp.clone(), engine);
    compiled.lint_denied().map_err(|e| e.to_string())?;
    let out = Mutex::new(output);

    // Handshake: the hello carries the policy and heartbeat cadence; the
    // ready reply carries this worker's identity for the supervisor to check.
    let hello = read_frame(&mut input)?.ok_or_else(|| "eof before hello".to_string())?;
    let doc = JsonValue::parse(&hello).map_err(|e| format!("hello: {e}"))?;
    let hello = doc.get("hello").ok_or_else(|| "first frame is not hello".to_string())?;
    let policy = hello
        .get("policy")
        .and_then(JsonValue::as_str)
        .and_then(FaultPolicy::parse)
        .ok_or_else(|| "hello: unparseable policy".to_string())?;
    let hb_ms = hello.get("hb_ms").and_then(JsonValue::as_u64).unwrap_or(10_000);
    let ready = format!(
        "{{\"v\":{PROTOCOL_VERSION},\"ready\":{{\"structural\":\"{:016x}\",\"engine\":\"{}\"}}}}",
        lp.structural_hash(),
        compiled.options().signature()
    );
    write_frame(&mut *out.lock().unwrap(), &ready).map_err(|e| format!("ready: {e}"))?;

    let busy: Mutex<Option<usize>> = Mutex::new(None);
    let (stop, wake) = (Mutex::new(false), Condvar::new());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let tick = Duration::from_millis((hb_ms / 4).clamp(10, 1_000));
            let mut stopped = stop.lock().unwrap();
            loop {
                // Sleeps one tick, or until `stop` is raised: the scope joins
                // this thread, so the worker must not outlive its serve loop
                // by the rest of a tick.
                stopped = wake.wait_timeout_while(stopped, tick, |s| !*s).unwrap().0;
                if *stopped {
                    break;
                }
                let current = *busy.lock().unwrap();
                if let Some(chunk) = current {
                    let frame = format!("{{\"v\":{PROTOCOL_VERSION},\"hb\":{{\"chunk\":{chunk}}}}}");
                    // A write failure means the supervisor is gone; the next
                    // shard read will fail and end the serve loop.
                    let _ = write_frame(&mut *out.lock().unwrap(), &frame);
                }
            }
        });
        let result = serve_shards(&compiled, policy, &make_visitor, chaos, &mut input, &out, &busy);
        *stop.lock().unwrap() = true;
        wake.notify_all();
        result
    })
}

/// The shard-serving loop of [`serve_worker`], separated so the heartbeat
/// ticker can be stopped on every exit path.
#[allow(clippy::too_many_arguments)]
fn serve_shards<V, W>(
    compiled: &Compiled,
    policy: FaultPolicy,
    make_visitor: &dyn Fn() -> V,
    chaos: &WorkerChaos,
    input: &mut dyn Read,
    out: &Mutex<W>,
    busy: &Mutex<Option<usize>>,
) -> Result<(), String>
where
    V: Visitor + SaveState,
    W: Write + Send,
{
    let mut received: u64 = 0;
    loop {
        let frame = match read_frame(input)? {
            None => return Ok(()),
            Some(f) => f,
        };
        let doc = JsonValue::parse(&frame).map_err(|e| format!("shard frame: {e}"))?;
        if doc.get("bye").is_some() {
            return Ok(());
        }
        let shard = doc.get("shard").ok_or_else(|| "expected shard or bye".to_string())?;
        let chunk = shard
            .get("chunk")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| "shard.chunk missing".to_string())?;
        let values = shard
            .get("values")
            .and_then(JsonValue::items)
            .ok_or_else(|| "shard.values missing".to_string())?
            .iter()
            .map(|v| v.as_i64().ok_or_else(|| "shard.values not integers".to_string()))
            .collect::<Result<Vec<i64>, _>>()?;
        received += 1;
        if chaos.die_after == Some(received) {
            // Crash with the shard in flight: the supervisor sees EOF and
            // must re-deal it (FaultKind::WorkerExit).
            std::process::exit(113);
        }
        if chaos.stall_after == Some(received) {
            // Go silent: no heartbeats, no reply. The supervisor's deadline
            // expires (FaultKind::WorkerTimeout) and it kills this process.
            *busy.lock().unwrap() = None;
            loop {
                std::thread::sleep(Duration::from_secs(3_600));
            }
        }
        *busy.lock().unwrap() = Some(chunk);
        let evaluated = eval_chunk_local(compiled, &values, chunk, policy, make_visitor);
        *busy.lock().unwrap() = None;
        let reply = match &evaluated {
            Ok(done) => done_frame(chunk, done),
            Err(abort) => {
                let (kind, message) = match abort {
                    ChunkAbort::Error(m) => ("error", m),
                    ChunkAbort::Panic(m) => ("panic", m),
                };
                let mut f = String::with_capacity(64 + message.len());
                use std::fmt::Write as _;
                let _ = write!(f, "{{\"v\":{PROTOCOL_VERSION},\"fail\":{{\"chunk\":{chunk},");
                json_str(&mut f, "kind", kind);
                f.push(',');
                json_str(&mut f, "error", message);
                f.push_str("}}");
                f
            }
        };
        write_frame(&mut *out.lock().unwrap(), &reply).map_err(|e| format!("reply: {e}"))?;
    }
}

// ---------------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------------

/// A live worker process: its child handle, its stdin for frames out, and a
/// channel fed by a reader thread draining its stdout — so the supervisor
/// can wait on replies *with a deadline* (the stall detector).
struct Link {
    child: Child,
    stdin: ChildStdin,
    rx: Receiver<Result<String, String>>,
}

impl Link {
    /// Spawn the worker command and complete the `hello`/`ready` handshake,
    /// verifying it evaluates the same plan under the same engine options.
    fn connect(
        cmd: &[String],
        hello: &str,
        structural: &str,
        engine_sig: &str,
        deadline: Duration,
    ) -> Result<Link, String> {
        let (head, rest) = cmd.split_first().ok_or_else(|| "empty worker command".to_string())?;
        let mut child = Command::new(head)
            .args(rest)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn worker `{head}`: {e}"))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let mut stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || loop {
            match read_frame(&mut stdout) {
                Ok(Some(frame)) => {
                    if tx.send(Ok(frame)).is_err() {
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let _ = tx.send(Err(e));
                    break;
                }
            }
        });
        let mut link = Link { child, stdin, rx };
        if let Err(e) = link.handshake(hello, structural, engine_sig, deadline) {
            link.kill();
            return Err(e);
        }
        Ok(link)
    }

    fn handshake(
        &mut self,
        hello: &str,
        structural: &str,
        engine_sig: &str,
        deadline: Duration,
    ) -> Result<(), String> {
        write_frame(&mut self.stdin, hello).map_err(|e| format!("send hello: {e}"))?;
        let frame = match self.rx.recv_timeout(deadline) {
            Ok(Ok(f)) => f,
            Ok(Err(e)) => return Err(format!("handshake: {e}")),
            Err(_) => return Err("no ready frame before the deadline".to_string()),
        };
        let doc = JsonValue::parse(&frame).map_err(|e| format!("ready: {e}"))?;
        let ready = doc.get("ready").ok_or_else(|| "first frame is not ready".to_string())?;
        if ready.get("structural").and_then(JsonValue::as_str) != Some(structural) {
            return Err("worker evaluates a different plan (structural fingerprint mismatch)"
                .to_string());
        }
        if ready.get("engine").and_then(JsonValue::as_str) != Some(engine_sig) {
            return Err("worker runs different engine options (signature mismatch)".to_string());
        }
        Ok(())
    }

    /// Kill and reap immediately (fault paths).
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Graceful shutdown: send `bye`, give the worker a short grace period
    /// to exit on its own, then kill and reap — children are never leaked.
    /// The reader thread hangs up at the worker's stdout EOF, i.e. as it
    /// exits, so a healthy worker is reaped the moment it is gone.
    fn shutdown(self) {
        let Link { mut child, mut stdin, rx } = self;
        let _ = write_frame(&mut stdin, &format!("{{\"v\":{PROTOCOL_VERSION},\"bye\":{{}}}}"));
        drop(stdin);
        let grace = Instant::now() + Duration::from_millis(500);
        // Stray frames are drained; hang-up and expiry both end the wait.
        while rx.recv_timeout(grace.saturating_duration_since(Instant::now())).is_ok() {}
        while Instant::now() < grace {
            if let Ok(Some(_)) = child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// One shard in flight or queued for re-dealing: the chunk index, the
/// worker-level attempt counter, and the fault records accumulated by
/// earlier failed attempts (folded with the chunk when it completes, so the
/// recovery history survives in chunk order).
struct Shard {
    chunk: usize,
    attempt: u32,
    faults: Vec<FaultRecord>,
}

/// Shared dealing state across driver threads.
struct Deal {
    /// Next fresh chunk index.
    cursor: AtomicUsize,
    /// Shards re-queued after a worker-level fault, dealt before fresh ones.
    retry: Mutex<VecDeque<Shard>>,
    /// Chunks submitted to the collector (folded, quarantined or aborted).
    completed: AtomicUsize,
    /// Shards dispatched to worker processes (the chaos-kill ordinal).
    dealt: AtomicU64,
    /// Worker respawns consumed from the restart budget.
    restarts: AtomicUsize,
    /// Successful spawns (handshake included).
    spawned: AtomicU64,
    /// Successful re-spawns after a worker died mid-run.
    respawned: AtomicU64,
}

/// Run a lowered plan across worker processes; see the module docs for the
/// protocol and robustness model.
///
/// The merged outcome is bit-identical to [`crate::parallel::run_parallel`]
/// and to the serial engine — same survivors, same emission order, same
/// statistics — at any worker count, including under worker crashes and
/// re-dealt shards (as long as no shard exhausts its retry budget and is
/// quarantined).
pub fn run_distributed<V, F>(
    lp: &LoweredPlan,
    opts: &DistributeOptions,
    make_visitor: F,
) -> Result<(SweepOutcome<V>, SweepReport), SweepError>
where
    V: Visitor + Send + SaveState,
    F: Fn() -> V + Sync,
{
    distribute_supervised(lp, opts, make_visitor, None, None)
}

/// [`run_distributed`] with checkpoint persistence and optional resume —
/// the distributed twin of [`crate::checkpoint::run_checkpointed`], writing
/// the same format-2 files, so killing the *supervisor* is recoverable too.
pub fn run_distributed_checkpointed<V, F>(
    lp: &LoweredPlan,
    opts: &DistributeOptions,
    ck: &CheckpointConfig,
    make_visitor: F,
) -> Result<(SweepOutcome<V>, SweepReport), SweepError>
where
    V: Visitor + Send + SaveState,
    F: Fn() -> V + Sync,
{
    let space_name = lp.plan.space().name().to_string();
    let engine_sig = opts.engine.signature();
    let seed = if ck.resume {
        let text = std::fs::read_to_string(&ck.path).map_err(|e| {
            SweepError::Checkpoint(format!("cannot read checkpoint {}: {e}", ck.path.display()))
        })?;
        parse_checkpoint(&text, &space_name, &engine_sig, &make_visitor)
            .map_err(SweepError::Checkpoint)?
    } else {
        None
    };
    let writer = |snap: &crate::parallel::CkSnapshot<'_, V>| {
        write_checkpoint(&ck.path, &space_name, &engine_sig, snap)
    };
    let sink = CkSink { every: ck.every_chunks.max(1), write: &writer };
    distribute_supervised(lp, opts, make_visitor, seed, Some(&sink))
}

fn distribute_supervised<V, F>(
    lp: &LoweredPlan,
    opts: &DistributeOptions,
    make_visitor: F,
    resume: Option<ResumeSeed<V>>,
    sink: Option<&CkSink<'_, V>>,
) -> Result<(SweepOutcome<V>, SweepReport), SweepError>
where
    V: Visitor + Send + SaveState,
    F: Fn() -> V + Sync,
{
    let t_start = Instant::now();
    match opts.engine.engine {
        EngineTier::Walker => {
            return Err(SweepError::Config(
                "the walker tier is serial-only; distributed sweeps run the compiled tier"
                    .to_string(),
            ))
        }
        EngineTier::Native => {
            return Err(SweepError::Config(
                "the native tier cannot be distributed: shards already run in worker \
                 processes; use the compiled tier"
                    .to_string(),
            ))
        }
        _ => {}
    }
    let n_slots = opts.workers.max(1);
    let compiled = Compiled::with_options(lp.clone(), opts.engine);
    compiled.lint_denied()?;
    let space = lp.plan.space();
    let n_constraints = space.constraints().len();
    let policy = opts.fault_policy;

    let resumed_at = resume.as_ref().map(|r| r.next);
    let (mut stats, seed_blocks, seed_faults, seed_visitor, pinned) = match resume {
        Some(seed) => (
            seed.stats,
            seed.blocks,
            seed.faults,
            Some(seed.visitor),
            Some((seed.chunk_len, seed.outer_len)),
        ),
        None => {
            (PruneStats::new(n_constraints), BlockStats::default(), Vec::new(), None, None)
        }
    };

    // Preamble constraints run once, supervisor-side (workers evaluate only
    // chunk bodies). A resumed run's seed already includes them.
    let preamble_ok = if resumed_at.is_some() {
        let mut scratch = PruneStats::new(n_constraints);
        compiled.preamble_record(&mut scratch).map_err(SweepError::Eval)?
    } else {
        compiled.preamble_record(&mut stats).map_err(SweepError::Eval)?
    };

    let finish_early = |stats: &PruneStats, blocks: BlockStats, faults: Vec<FaultRecord>| {
        let mut report = SweepReport::new(
            space,
            stats,
            &blocks,
            n_slots,
            0,
            0,
            0,
            t_start.elapsed(),
            vec![],
            compiled.schedule_telemetry(),
            compiled.lint_summary(),
        );
        report.resumed_at = resumed_at;
        report.fault_policy = policy.name();
        report.fault_counters = FaultCounters::from_records(&faults);
        report.faults = faults;
        report
    };

    let outer = if preamble_ok { compiled.outer_domain().map_err(SweepError::Eval)? } else { Vec::new() };
    if outer.is_empty() {
        let report = finish_early(&stats, seed_blocks, seed_faults.clone());
        return Ok((
            SweepOutcome {
                stats,
                blocks: seed_blocks,
                lanes: LaneStats::default(),
                schedule: None,
                visitor: seed_visitor.unwrap_or_else(&make_visitor),
            },
            report,
        ));
    }

    if let Some((_, expected_outer)) = pinned {
        if outer.len() != expected_outer {
            return Err(SweepError::Checkpoint(format!(
                "checkpointed level-0 domain has {expected_outer} value(s) but the realized \
                 domain has {}; the space changed since the checkpoint",
                outer.len()
            )));
        }
    }
    let chunk_len = pinned
        .map(|(len, _)| len)
        .unwrap_or_else(|| chunk_len_for(lp, outer.len(), n_slots, 0, opts.chunk_count));
    let chunks: Vec<&[i64]> = outer.chunks(chunk_len.max(1)).collect();
    let start = resumed_at.unwrap_or(0).min(chunks.len());
    let limit = if opts.stop_after_chunks > 0 {
        (start + opts.stop_after_chunks).min(chunks.len())
    } else {
        chunks.len()
    };
    if let Some(progress) = &opts.progress {
        progress.chunks_total.store(chunks.len(), Ordering::Relaxed);
        progress.chunks_done.store(start, Ordering::Relaxed);
        progress.tuples_decided.store(stats.survivors + stats.total_pruned(), Ordering::Relaxed);
    }

    let goal = limit - start;
    let abort = AtomicBool::new(false);
    let first_error: Mutex<Option<SweepError>> = Mutex::new(None);
    let collector = Mutex::new(Collector {
        next: start,
        pending: BTreeMap::new(),
        stats,
        blocks: seed_blocks,
        lanes: LaneStats::default(),
        faults: seed_faults,
        visitor: seed_visitor,
        outer_len: outer.len(),
        chunk_len,
        chunks: chunks.len(),
        since_save: 0,
    });
    let deal = Deal {
        cursor: AtomicUsize::new(start),
        retry: Mutex::new(VecDeque::new()),
        completed: AtomicUsize::new(0),
        dealt: AtomicU64::new(0),
        restarts: AtomicUsize::new(0),
        spawned: AtomicU64::new(0),
        respawned: AtomicU64::new(0),
    };
    let restart_budget =
        if opts.restart_max > 0 { opts.restart_max } else { 2 * n_slots };

    let structural = format!("{:016x}", lp.structural_hash());
    let engine_sig = opts.engine.signature();
    let hello = {
        let mut h = String::with_capacity(160);
        use std::fmt::Write as _;
        let _ = write!(h, "{{\"v\":{PROTOCOL_VERSION},\"hello\":{{");
        json_str(&mut h, "space", space.name());
        let _ = write!(
            h,
            ",\"structural\":\"{structural}\",\"engine\":\"{engine_sig}\",\"policy\":\"{}\",\
             \"hb_ms\":{}}}}}",
            policy.spec(),
            u64::try_from(opts.heartbeat.as_millis()).unwrap_or(u64::MAX).max(1)
        );
        h
    };

    let fail = |err: SweepError| {
        let mut slot = first_error.lock().unwrap();
        if slot.is_none() {
            *slot = Some(err);
        }
        abort.store(true, Ordering::Relaxed);
    };

    // One driver thread per worker slot. A driver owns at most one child
    // process and one in-flight shard at a time; finished shards are folded
    // in chunk order by the shared collector, so which worker evaluated a
    // chunk never affects the merged outcome.
    let drive = |slot: usize| -> WorkerTelemetry {
        let mut telemetry = WorkerTelemetry {
            worker: slot,
            chunks: 0,
            busy: Duration::ZERO,
            evaluated: 0,
            survivors: 0,
        };
        let mut link: Option<Link> = None;
        let mut started = false;
        // Permanent degradation to in-process evaluation: entered when
        // spawning fails or the restart budget is spent.
        let mut inproc = opts.worker_cmd.is_empty();
        'serve: loop {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let shard = {
                let mut queue = deal.retry.lock().unwrap();
                match queue.pop_front() {
                    Some(s) => Some(s),
                    None => {
                        drop(queue);
                        let i = deal.cursor.fetch_add(1, Ordering::Relaxed);
                        if i < limit {
                            Some(Shard { chunk: i, attempt: 0, faults: Vec::new() })
                        } else {
                            None
                        }
                    }
                }
            };
            let mut shard = match shard {
                Some(s) => s,
                None => {
                    if deal.completed.load(Ordering::Relaxed) >= goal {
                        break;
                    }
                    // Another driver's in-flight shard may yet be re-queued;
                    // stay available instead of exiting early.
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
            };
            let t0 = Instant::now();

            // Worker acquisition: first spawn is free, respawns draw on the
            // shared restart budget; failures degrade this slot permanently.
            if !inproc && link.is_none() {
                if started {
                    let used = deal.restarts.fetch_add(1, Ordering::Relaxed);
                    if used >= restart_budget {
                        inproc = true;
                    }
                }
                if !inproc {
                    match Link::connect(
                        &opts.worker_cmd,
                        &hello,
                        &structural,
                        &engine_sig,
                        opts.heartbeat,
                    ) {
                        Ok(l) => {
                            deal.spawned.fetch_add(1, Ordering::Relaxed);
                            if started {
                                deal.respawned.fetch_add(1, Ordering::Relaxed);
                            }
                            started = true;
                            link = Some(l);
                        }
                        Err(_) => inproc = true,
                    }
                }
            }

            if inproc {
                // Graceful degradation: evaluate the shard with the
                // supervisor's own engine — bit-identical by the determinism
                // contract, merely slower.
                let done = match eval_chunk_local(
                    &compiled,
                    chunks[shard.chunk],
                    shard.chunk,
                    policy,
                    &make_visitor,
                ) {
                    Ok(mut done) => {
                        let mut faults = std::mem::take(&mut shard.faults);
                        faults.extend(done.faults);
                        done.faults = faults;
                        done
                    }
                    Err(ChunkAbort::Error(message)) => {
                        fail(SweepError::Eval(EvalError::Custom(message)));
                        break;
                    }
                    Err(ChunkAbort::Panic(message)) => {
                        fail(SweepError::WorkerPanic { chunk: Some(shard.chunk), message });
                        break;
                    }
                };
                telemetry.busy += t0.elapsed();
                if !submit(&collector, &deal, opts, sink, &fail, shard.chunk, done, &mut telemetry)
                {
                    break;
                }
                continue;
            }

            // Dispatch the shard to the worker.
            let l = link.as_mut().expect("link acquired above");
            let shard_no = deal.dealt.fetch_add(1, Ordering::Relaxed) + 1;
            let mut frame = String::with_capacity(64 + chunks[shard.chunk].len() * 8);
            {
                use std::fmt::Write as _;
                let _ = write!(
                    frame,
                    "{{\"v\":{PROTOCOL_VERSION},\"shard\":{{\"chunk\":{},\"values\":",
                    shard.chunk
                );
                frame.push('[');
                for (i, v) in chunks[shard.chunk].iter().enumerate() {
                    if i > 0 {
                        frame.push(',');
                    }
                    let _ = write!(frame, "{v}");
                }
                frame.push_str("]}}");
            }
            let dispatched = write_frame(&mut l.stdin, &frame);
            if opts.chaos_kill_after == Some(shard_no) {
                // Deterministic chaos: SIGKILL our own worker with the shard
                // in flight. Recovery must be indistinguishable from a real
                // crash.
                let _ = l.child.kill();
            }
            let verdict: Result<ChunkDone<V>, (FaultKind, String)> = if dispatched.is_err() {
                Err((FaultKind::WorkerExit, "worker closed its pipe".to_string()))
            } else {
                await_reply(l, shard.chunk, n_constraints, &make_visitor, opts.heartbeat)
            };

            match verdict {
                Ok(mut done) => {
                    telemetry.busy += t0.elapsed();
                    let mut faults = std::mem::take(&mut shard.faults);
                    faults.extend(done.faults);
                    done.faults = faults;
                    if !submit(
                        &collector,
                        &deal,
                        opts,
                        sink,
                        &fail,
                        shard.chunk,
                        done,
                        &mut telemetry,
                    ) {
                        break;
                    }
                }
                Err((FaultKind::Error, message)) => {
                    // Abort-policy fail frame relayed by the worker.
                    fail(SweepError::Eval(EvalError::Custom(message)));
                    break;
                }
                Err((FaultKind::Panic, message)) => {
                    fail(SweepError::WorkerPanic { chunk: Some(shard.chunk), message });
                    break;
                }
                Err((kind, error)) => {
                    // Worker-level fault: kill the worker (nothing it says
                    // can be trusted now), record the fault, and either
                    // re-deal with backoff or quarantine the shard.
                    telemetry.busy += t0.elapsed();
                    if let Some(mut l) = link.take() {
                        l.kill();
                    }
                    let exhausted = shard.attempt >= opts.shard_retry_max;
                    shard.faults.push(FaultRecord {
                        chunk: shard.chunk,
                        ordinal: 0,
                        attempt: shard.attempt,
                        kind,
                        action: if exhausted {
                            FaultAction::QuarantinedChunk
                        } else {
                            FaultAction::Retried
                        },
                        site: "worker".to_string(),
                        error,
                        bindings: Vec::new(),
                    });
                    if exhausted {
                        let done =
                            ChunkDone { outcome: None, faults: std::mem::take(&mut shard.faults) };
                        if !submit(
                            &collector,
                            &deal,
                            opts,
                            sink,
                            &fail,
                            shard.chunk,
                            done,
                            &mut telemetry,
                        ) {
                            break;
                        }
                    } else {
                        let backoff = opts
                            .shard_backoff_ms
                            .saturating_mul(1u64 << shard.attempt.min(5))
                            .min(MAX_BACKOFF_MS);
                        if backoff > 0 {
                            std::thread::sleep(Duration::from_millis(backoff));
                        }
                        shard.attempt += 1;
                        deal.retry.lock().unwrap().push_back(shard);
                    }
                    continue 'serve;
                }
            }
        }
        if let Some(l) = link.take() {
            l.shutdown();
        }
        telemetry
    };

    let mut workers: Vec<WorkerTelemetry> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..n_slots.min(goal.max(1))).map(|s| scope.spawn(move || drive(s))).collect();
        handles
            .into_iter()
            .filter_map(|h| match h.join() {
                Ok(telemetry) => Some(telemetry),
                Err(payload) => {
                    fail(SweepError::WorkerPanic { chunk: None, message: panic_message(payload) });
                    None
                }
            })
            .collect()
    });
    workers.sort_by_key(|w| w.worker);

    if let Some(err) = first_error.into_inner().unwrap() {
        return Err(err);
    }

    let mut collector = collector.into_inner().unwrap();
    let partial = collector.next < chunks.len();
    if let Some(sink) = sink {
        collector.save(sink).map_err(SweepError::Checkpoint)?;
    }
    let Collector { stats, blocks, lanes, faults, visitor, .. } = collector;

    let mut report = SweepReport::new(
        space,
        &stats,
        &blocks,
        n_slots,
        outer.len(),
        chunk_len,
        chunks.len(),
        t_start.elapsed(),
        workers,
        compiled.schedule_telemetry(),
        compiled.lint_summary(),
    );
    report.partial = partial;
    report.resumed_at = resumed_at;
    report.fault_policy = policy.name();
    report.fault_counters = FaultCounters::from_records(&faults);
    report.fault_counters.workers_spawned = deal.spawned.into_inner();
    report.fault_counters.worker_restarts = deal.respawned.into_inner();
    report.faults = faults;
    report.lanes = lanes.clone();
    Ok((
        SweepOutcome {
            stats,
            blocks,
            lanes,
            schedule: compiled.learned_orders(),
            visitor: visitor.unwrap_or_else(make_visitor),
        },
        report,
    ))
}

/// Fold one finished shard into the collector and bump the completion
/// counter; returns `false` when the sweep must abort (checkpoint write
/// failure).
#[allow(clippy::too_many_arguments)]
fn submit<V: Visitor>(
    collector: &Mutex<Collector<V>>,
    deal: &Deal,
    opts: &DistributeOptions,
    sink: Option<&CkSink<'_, V>>,
    fail: &dyn Fn(SweepError),
    chunk: usize,
    done: ChunkDone<V>,
    telemetry: &mut WorkerTelemetry,
) -> bool {
    if let Some(out) = &done.outcome {
        telemetry.evaluated += out.stats.evaluated.iter().sum::<u64>();
        telemetry.survivors += out.stats.survivors;
    }
    telemetry.chunks += 1;
    let folded = collector.lock().unwrap().add(chunk, done, opts.progress.as_ref(), sink);
    deal.completed.fetch_add(1, Ordering::Relaxed);
    if let Err(msg) = folded {
        fail(SweepError::Checkpoint(msg));
        return false;
    }
    true
}

/// Wait for the worker's reply to an in-flight shard, treating heartbeat
/// frames as liveness and everything unexpected as a fault:
///
/// * `done` — fully validated, then returned for folding;
/// * `fail` — mapped to `FaultKind::Error`/`Panic` (abort policy);
/// * silence past the deadline — `WorkerTimeout`;
/// * closed pipe / read error — `WorkerExit`;
/// * anything malformed — `ProtocolError`.
fn await_reply<V: Visitor + SaveState>(
    link: &mut Link,
    chunk: usize,
    n_constraints: usize,
    make_visitor: &dyn Fn() -> V,
    deadline: Duration,
) -> Result<ChunkDone<V>, (FaultKind, String)> {
    loop {
        let frame = match link.rx.recv_timeout(deadline) {
            Ok(Ok(f)) => f,
            Ok(Err(e)) => return Err((FaultKind::WorkerExit, format!("worker pipe error: {e}"))),
            Err(RecvTimeoutError::Timeout) => {
                return Err((
                    FaultKind::WorkerTimeout,
                    format!("no frame within {deadline:?} while chunk {chunk} was in flight"),
                ))
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err((FaultKind::WorkerExit, "worker exited with a shard in flight".to_string()))
            }
        };
        let doc = match JsonValue::parse(&frame) {
            Ok(d) => d,
            Err(e) => return Err((FaultKind::ProtocolError, format!("malformed frame: {e}"))),
        };
        if doc.get("hb").is_some() {
            continue;
        }
        if let Some(failed) = doc.get("fail") {
            let message = failed
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("unspecified worker failure")
                .to_string();
            let kind = match failed.get("kind").and_then(JsonValue::as_str) {
                Some("panic") => FaultKind::Panic,
                _ => FaultKind::Error,
            };
            return Err((kind, message));
        }
        if doc.get("done").is_some() {
            return parse_done(&doc, chunk, n_constraints, make_visitor)
                .map_err(|e| (FaultKind::ProtocolError, e));
        }
        return Err((FaultKind::ProtocolError, "unexpected frame type".to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;
    use beast_core::plan::{Plan, PlanOptions};
    use beast_core::space::Space;

    use crate::parallel::{run_parallel_report, ParallelOptions};
    use crate::visit::FingerprintVisitor;

    fn lowered() -> LoweredPlan {
        let space = Space::builder("dist")
            .constant("cap", 300)
            .range("a", 1, 33)
            .range("b", 1, 33)
            .range_step("c", var("a"), 65, var("a"))
            .derived("abc", var("a") * var("b") + var("c"))
            .constraint("over", ConstraintClass::Hard, var("abc").gt(var("cap")))
            .constraint("odd", ConstraintClass::Soft, (var("abc") % 2).ne(0))
            .build()
            .unwrap();
        let plan = Plan::new(&space, PlanOptions::default()).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"v\":1}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some("{\"v\":1}".to_string()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(String::new()));
        assert_eq!(read_frame(&mut r).unwrap(), None);

        // A hostile length prefix is refused without allocating.
        let huge = (MAX_FRAME + 1).to_be_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        // Truncation mid-payload is an error, not EOF.
        let mut short = Vec::new();
        write_frame(&mut short, "abcdef").unwrap();
        short.truncate(short.len() - 2);
        assert!(read_frame(&mut &short[..]).is_err());
    }

    /// Drive [`serve_worker`] over in-memory pipes with a scripted
    /// supervisor and check the replies fold to the same result as the
    /// in-process engine.
    #[test]
    fn serve_worker_replies_match_in_process_evaluation() {
        let lp = lowered();
        let compiled = Compiled::with_options(lp.clone(), EngineOptions::default());
        let outer = compiled.outer_domain().unwrap();
        let structural = format!("{:016x}", lp.structural_hash());
        let sig = EngineOptions::default().signature();

        let mut script = Vec::new();
        let hello = format!(
            "{{\"v\":1,\"hello\":{{\"space\":\"dist\",\"structural\":\"{structural}\",\
             \"engine\":\"{sig}\",\"policy\":\"abort\",\"hb_ms\":10000}}}}"
        );
        write_frame(&mut script, &hello).unwrap();
        let mut shard = "{\"v\":1,\"shard\":{\"chunk\":0,\"values\":[".to_string();
        for (i, v) in outer.iter().enumerate() {
            if i > 0 {
                shard.push(',');
            }
            shard.push_str(&v.to_string());
        }
        shard.push_str("]}}");
        write_frame(&mut script, &shard).unwrap();
        write_frame(&mut script, "{\"v\":1,\"bye\":{}}").unwrap();

        let mut replies: Vec<u8> = Vec::new();
        serve_worker(
            &lp,
            EngineOptions::default(),
            FingerprintVisitor::new,
            &WorkerChaos::default(),
            &script[..],
            &mut replies,
        )
        .unwrap();

        let mut r = &replies[..];
        let ready = read_frame(&mut r).unwrap().unwrap();
        let ready = JsonValue::parse(&ready).unwrap();
        assert_eq!(
            ready.get("ready").unwrap().get("structural").unwrap().as_str(),
            Some(structural.as_str())
        );
        let done = read_frame(&mut r).unwrap().unwrap();
        let done = JsonValue::parse(&done).unwrap();
        let parsed: ChunkDone<FingerprintVisitor> =
            parse_done(&done, 0, 2, &FingerprintVisitor::new).unwrap();
        assert!(parsed.faults.is_empty());
        let from_worker = parsed.outcome.expect("clean chunk has an outcome");

        // The whole domain as one chunk equals a serial in-process run's
        // chunk outcome.
        let direct = eval_chunk_local(
            &compiled,
            &outer,
            0,
            FaultPolicy::Abort,
            &FingerprintVisitor::new,
        )
        .ok()
        .unwrap()
        .outcome
        .unwrap();
        assert_eq!(from_worker.visitor, direct.visitor);
        assert_eq!(from_worker.stats, direct.stats);
    }

    /// A worker command that cannot spawn degrades every slot to in-process
    /// evaluation — the sweep still completes, bit-identical to a threaded
    /// run.
    #[test]
    fn spawn_failure_degrades_to_in_process() {
        let lp = lowered();
        let mut opts =
            DistributeOptions::new(2, vec!["/nonexistent/beast-worker-binary".to_string()]);
        opts.chunk_count = 4;
        let (dist, report) = run_distributed(&lp, &opts, FingerprintVisitor::new).unwrap();

        let mut popts = ParallelOptions::new(1);
        popts.chunk_count = 4;
        let (serial, _) = run_parallel_report(&lp, &popts, FingerprintVisitor::new).unwrap();
        assert_eq!(dist.visitor, serial.visitor);
        assert_eq!(dist.stats, serial.stats);
        assert_eq!(report.fault_counters.workers_spawned, 0);
        assert!(!report.partial);
    }

    /// An empty worker command skips spawning entirely (pure in-process
    /// distribution), and the merge is identical at any slot count.
    #[test]
    fn in_process_distribution_is_bit_identical_across_slot_counts() {
        let lp = lowered();
        let mut reference: Option<FingerprintVisitor> = None;
        for workers in [1usize, 2, 4] {
            let mut opts = DistributeOptions::new(workers, Vec::new());
            opts.chunk_count = 8;
            let (out, report) = run_distributed(&lp, &opts, FingerprintVisitor::new).unwrap();
            assert!(!report.partial);
            match &reference {
                None => reference = Some(out.visitor),
                Some(r) => assert_eq!(&out.visitor, r, "divergence at {workers} workers"),
            }
        }
    }

    /// Tier gating: walker and native tiers are refused with a config error.
    #[test]
    fn non_compiled_tiers_are_rejected() {
        let lp = lowered();
        for tier in [EngineTier::Walker, EngineTier::Native] {
            let mut opts = DistributeOptions::new(1, Vec::new());
            opts.engine.engine = tier;
            let err = run_distributed(&lp, &opts, FingerprintVisitor::new).err().unwrap();
            assert!(matches!(err, SweepError::Config(_)), "tier {tier:?} not rejected");
        }
    }

    /// A lying worker reply (wrong chunk, short stats) is a protocol error.
    #[test]
    fn done_validation_rejects_lies() {
        let mk = FingerprintVisitor::new;
        let good = "{\"v\":1,\"done\":{\"chunk\":3,\"outcome\":{\"stats\":{\"evaluated\":[1,2],\
                    \"pruned\":[0,1],\"survivors\":1},\"blocks\":{\"subtree_skips\":0,\
                    \"congruence_skips\":0,\"points_skipped\":0,\"checks_elided\":0},\
                    \"lanes\":{\"lane_evals\":0,\"lanes_masked\":0,\"scalar_fallbacks\":0,\
                    \"super_hits\":[]},\"visitor\":{\"hash\":1,\"pow\":2,\
                    \"count\":1}},\"faults\":[]}}";
        let doc = JsonValue::parse(good).unwrap();
        assert!(parse_done::<FingerprintVisitor>(&doc, 3, 2, &mk).is_ok());
        // Wrong chunk id.
        assert!(parse_done::<FingerprintVisitor>(&doc, 4, 2, &mk).is_err());
        // Counter arrays shorter than the constraint list.
        assert!(parse_done::<FingerprintVisitor>(&doc, 3, 3, &mk).is_err());
        // Missing visitor state.
        let broken = good.replace(",\"visitor\":{\"hash\":1,\"pow\":2,\"count\":1}", "");
        let doc = JsonValue::parse(&broken).unwrap();
        assert!(parse_done::<FingerprintVisitor>(&doc, 3, 2, &mk).is_err());
    }
}
