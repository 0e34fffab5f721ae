//! Distributed sharded sweeps: the sweep supervisor dealing level-0 chunk
//! shards to worker *processes*, folding their results bit-identically to a
//! serial run.
//!
//! [`crate::parallel`] holds the one sweep frame — set-up, deal, chunk-order
//! fold, report — and asks an executor where each chunk runs. This module is
//! the executor whose answer is "in another process", the unit of isolation
//! that survives `kill -9`, OOM kills, and hung evaluations: each worker
//! slot owns one re-invoked worker command (normally the `repro` binary in
//! its hidden `worker` mode) and speaks a length-prefixed JSON protocol over
//! its stdin/stdout. A shard is one scheduler chunk of the level-0 domain,
//! the same unit a threaded sweep schedules. Workers run the same chunk
//! attempt loop the frame runs in-thread and stream back per-chunk outcomes
//! ([`SaveState`] visitor blocks plus
//! [`FaultRecord`](crate::fault::FaultRecord)s), which are validated fully
//! before the frame folds them **in chunk order**.
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
//! # Overlapping the hop
//!
//! A worker reads its frames in order and answers each shard in turn, so
//! the supervisor need not wait for one reply before dealing the next:
//!
//! * each slot keeps **two shards in flight** — it claims its next chunk
//!   and writes that shard before it waits on the current reply, so the
//!   worker finds its next shard in the pipe as it writes a `done`. Replies
//!   match the oldest shard in flight. A slot keeps one once fewer undealt
//!   chunks remain than slots, so idle slots get the tail;
//! * the **handshake is off the critical path** — the first slot's worker
//!   is spawned and sent `hello` when [`sweep`] creates the executor, before
//!   the supervisor builds its own engine; the other slots' when the frame
//!   knows how many slots it deals to. Shards follow right behind `hello`,
//!   and `ready` is checked before the first reply is accepted.
//!
//! # Robustness model
//!
//! Worker death (crash, `kill -9`, closed pipe), silence (heartbeat/read
//! deadline expired) and lies (malformed or mismatched replies) are all
//! *worker-level faults* of the shard being waited on, which is all this
//! module says about them: the frame records each as a `FaultRecord` with
//! kind [`FaultKind::WorkerExit`] / [`FaultKind::WorkerTimeout`] /
//! [`FaultKind::ProtocolError`] and has the slot re-deal the shard with
//! exponential backoff — to a respawned worker while the restart budget
//! lasts, then to the supervisor's own in-process engine. A shard queued
//! behind it that the dead worker never answered is re-dealt when its turn
//! comes, with no record of its own. After [`Workers::retry_max`] failed
//! deals the shard is quarantined exactly like a chunk under
//! [`FaultPolicy::QuarantineChunk`]. A worker whose `ready` names another
//! plan or other engine options, and a worker command that cannot spawn,
//! degrade the slot to in-process evaluation, and the run still completes.
//! Because nothing from a failed attempt is ever folded (a worker's reply
//! is validated in full first, and evaluation is deterministic), retries
//! cannot change the merged outcome: survivors, emission order, statistics
//! and fingerprints are bit-identical to a serial run at any worker count.
//! Every worker started is shut down and reaped on every exit path,
//! returns before the first deal included.
//!
//! Everything else is the frame's and the spec's: a [`SweepSpec`] with
//! [`SweepSpec::workers`] attached is swept by [`crate::sweep::sweep`] like
//! any other, so a checkpoint or a cache attaches to it the same way. One
//! file format means `kill -9` of the *supervisor* is resumable, a threaded
//! sweep resumes a distributed sweep's file and the other way round, and a
//! resumed run is bit-identical to an uninterrupted one
//! (`tests/fault_tolerance.rs`, and end to end `tests/distribute.rs` in
//! `beast-bench`).

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use beast_core::error::EvalError;
use beast_core::ir::LoweredPlan;

use crate::checkpoint::{
    blocks_json, parse_blocks, parse_fault_record, parse_stats, stats_json, JsonValue, SaveState,
    StateCodec,
};
use crate::compiled::{Compiled, EngineOptions};
use crate::fault::{FaultKind, FaultPolicy};
use crate::parallel::{attempt_chunk, Answer, ChunkDone, ChunkExecutor};
use crate::sweep::{sweep, SweepError, SweepSpec};
use crate::telemetry::{fault_record_json, json_str, SweepReport};
use crate::visit::{FingerprintVisitor, Visitor};
use crate::walker::SweepOutcome;

/// Wire protocol version spoken by [`serve_worker`] and the supervisor.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on a single frame payload (64 MiB). A length prefix beyond
/// this is treated as a protocol violation, not an allocation request.
const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// The worker-process transport of a [`SweepSpec`] ([`SweepSpec::workers`]):
/// the command each slot runs and how a slot recovers when its worker dies,
/// stalls or lies.
#[derive(Debug, Clone)]
pub struct Workers {
    /// Command line for one worker: program plus arguments. The worker must
    /// speak protocol v1 on stdin/stdout — normally this is
    /// `[repro, "worker", <dim>, ...]` built by the CLI. An empty command
    /// skips spawning entirely and evaluates every shard in-process.
    pub cmd: Vec<String>,
    /// Heartbeat/read deadline per worker: if no frame (heartbeats included)
    /// arrives within this window while a shard is in flight, the worker is
    /// declared hung, killed, and the shard re-dealt.
    pub heartbeat: Duration,
    /// Worker-level attempts per shard beyond the first; when exhausted the
    /// shard is quarantined as a
    /// [`FaultAction::QuarantinedChunk`](crate::fault::FaultAction::QuarantinedChunk).
    pub retry_max: u32,
    /// Base backoff before re-dealing a failed shard; doubles per attempt,
    /// capped at 2 s.
    pub backoff_ms: u64,
    /// Total worker respawns allowed across the run (0 = automatic:
    /// `2 × slots`). Once spent, slots that lose their worker degrade to
    /// in-process evaluation instead of respawning.
    pub restart_max: usize,
    /// Chaos knob: `kill -9` the worker that is written the Nth dealt shard
    /// (1-based) right after writing it; the fault lands on the oldest shard
    /// that worker holds. Exercises the `WorkerExit` recovery path
    /// deterministically in tests and the CI smoke job.
    pub chaos_kill_after: Option<u64>,
}

impl Workers {
    /// Workers running `cmd`, with default robustness settings (10 s
    /// heartbeat, 3 retries, 50 ms base backoff).
    pub fn new(cmd: Vec<String>) -> Workers {
        Workers {
            cmd,
            heartbeat: Duration::from_secs(10),
            retry_max: 3,
            backoff_ms: 50,
            restart_max: 0,
            chaos_kill_after: None,
        }
    }
}

/// A [`SweepSpec`] with [`Workers`] attached, under its former name, kept
/// for the benchmark harness; it derefs to the spec.
pub struct DistributeOptions<V: 'static = FingerprintVisitor>(SweepSpec<'static, V>);

impl<V: Visitor + SaveState + 'static> DistributeOptions<V> {
    /// `workers` slots running `worker_cmd` with default robustness settings.
    pub fn new(workers: usize, worker_cmd: Vec<String>) -> DistributeOptions<V> {
        DistributeOptions(SweepSpec::new(workers).workers(Workers::new(worker_cmd)))
    }
}

impl<V: 'static> std::ops::Deref for DistributeOptions<V> {
    type Target = SweepSpec<'static, V>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<V: 'static> std::ops::DerefMut for DistributeOptions<V> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

/// [`sweep`] of a spec with [`Workers`] attached, under its former name,
/// kept for the benchmark harness.
pub fn run_distributed<V, F>(
    lp: &LoweredPlan,
    opts: &DistributeOptions<V>,
    make_visitor: F,
) -> Result<(SweepOutcome<V>, SweepReport), SweepError>
where
    V: Visitor + Send + 'static,
    F: Fn() -> V + Sync,
{
    sweep(lp, opts, make_visitor)
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
            out.push_str(",\"visitor\":");
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

/// Fully validate a worker's `done` frame against what the supervisor
/// dispatched before anything is folded: the chunk index must match, counter
/// arrays must cover exactly the plan's constraints, and every nested block
/// (blocks, visitor state, fault records) must parse. Any
/// violation is a [`FaultKind::ProtocolError`] — the shard is re-dealt and
/// nothing from the lying worker reaches the merge.
fn parse_done<V: Visitor>(
    doc: &JsonValue,
    expect_chunk: usize,
    n_constraints: usize,
    make_visitor: &dyn Fn() -> V,
    codec: StateCodec<V>,
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
            let mut visitor = make_visitor();
            let state = o.get("visitor").ok_or_else(|| "worker: outcome.visitor missing".to_string())?;
            (codec.load)(&mut visitor, state).map_err(|e| format!("worker: {e}"))?;
            Some(SweepOutcome { stats, blocks, visitor })
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
        let evaluated = attempt_chunk(compiled, &values, chunk, policy, None, None, make_visitor);
        *busy.lock().unwrap() = None;
        let reply = match &evaluated {
            Ok(done) => done_frame(chunk, done),
            // Only here, at the pipe, is an abort flattened to text: the
            // structured error cannot be serialized across it.
            Err(abort) => {
                let (kind, message) = match abort {
                    SweepError::WorkerPanic { message, .. } => ("panic", message.clone()),
                    SweepError::Eval(e) => ("error", e.root().to_string()),
                    other => ("error", other.to_string()),
                };
                let mut f = String::with_capacity(64 + message.len());
                use std::fmt::Write as _;
                let _ = write!(f, "{{\"v\":{PROTOCOL_VERSION},\"fail\":{{\"chunk\":{chunk},");
                json_str(&mut f, "kind", kind);
                f.push(',');
                json_str(&mut f, "error", &message);
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

/// A shard frame up to this long is written the moment it is dealt, while
/// the worker may still be booting or busy: `hello` and two such frames
/// fit in a pipe's buffer (64 KiB by default on Linux, 16 KiB on macOS), so
/// the write cannot block on a worker that reads nothing. A longer frame
/// waits until the worker has answered every shard before it.
const AHEAD_BYTES: usize = 4096;

/// How a worker failed its `ready` check.
enum Handshake {
    /// It died or went silent with shards in flight: a worker-level fault
    /// of the shard being waited on.
    Fault(FaultKind, String),
    /// It answered with something other than this plan under these
    /// options: the slot degrades to in-process evaluation.
    Refused,
}

/// A shard dealt to a worker: its chunk and, while it is unwritten, its
/// frame (held back by [`AHEAD_BYTES`], or not delivered because the pipe
/// closed).
struct Flight {
    chunk: usize,
    held: Option<String>,
}

/// A live worker process: its child handle, its stdin for frames out, a
/// channel fed by a reader thread draining its stdout — so the supervisor
/// can wait on replies *with a deadline* (the stall detector) — and the
/// shards it holds, oldest first, which is the order it answers them in.
struct Link {
    child: Child,
    stdin: ChildStdin,
    rx: Receiver<Result<String, String>>,
    /// Its `ready` was read and matched.
    ready: bool,
    /// It was dealt a shard.
    dealt: bool,
    /// A write failed: the worker closed its pipe, and nothing more is
    /// written to it.
    closed: bool,
    flights: VecDeque<Flight>,
}

impl Link {
    /// Spawn the worker command and write `hello`, without waiting for
    /// `ready`: that is read before the first reply ([`Link::check_ready`]).
    fn spawn(cmd: &[String], hello: &str) -> Result<Link, String> {
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
        let flights = VecDeque::new();
        let mut link =
            Link { child, stdin, rx, ready: false, dealt: false, closed: false, flights };
        // A worker gone before it reads `hello` fails its `ready` check.
        link.closed = write_frame(&mut link.stdin, hello).is_err();
        Ok(link)
    }

    /// Queue `frame` for `chunk` behind the shards in flight, writing it
    /// now where that cannot block (see [`AHEAD_BYTES`]); true if written.
    fn post(&mut self, chunk: usize, frame: String) -> bool {
        let idle = self.ready && self.flights.is_empty();
        let now = self.flights.iter().all(|f| f.held.is_none())
            && (idle || frame.len() <= AHEAD_BYTES);
        let held = if now { self.write(frame) } else { Some(frame) };
        let written = held.is_none();
        self.flights.push_back(Flight { chunk, held });
        written
    }

    /// Write `frame`, or hand it back if the pipe is closed.
    fn write(&mut self, frame: String) -> Option<String> {
        if self.closed || write_frame(&mut self.stdin, &frame).is_err() {
            self.closed = true;
            return Some(frame);
        }
        None
    }

    /// Read the worker's `ready` and check that it evaluates the same plan
    /// under the same engine options.
    fn check_ready(
        &mut self,
        structural: &str,
        engine_sig: &str,
        deadline: Duration,
    ) -> Result<(), Handshake> {
        let fault = |kind, error: &str| Err(Handshake::Fault(kind, error.to_string()));
        let frame = match self.rx.recv_timeout(deadline) {
            Ok(Ok(f)) => f,
            Ok(Err(e)) => return fault(FaultKind::WorkerExit, &format!("handshake: {e}")),
            Err(RecvTimeoutError::Timeout) => {
                let error = format!("no ready frame within {deadline:?}");
                return fault(FaultKind::WorkerTimeout, &error);
            }
            Err(RecvTimeoutError::Disconnected) => {
                return fault(FaultKind::WorkerExit, "worker exited before its ready frame")
            }
        };
        let doc = JsonValue::parse(&frame).map_err(|_| Handshake::Refused)?;
        let ready = doc.get("ready").ok_or(Handshake::Refused)?;
        let same = ready.get("structural").and_then(JsonValue::as_str) == Some(structural)
            && ready.get("engine").and_then(JsonValue::as_str) == Some(engine_sig);
        if !same {
            return Err(Handshake::Refused);
        }
        self.ready = true;
        Ok(())
    }

    /// Kill and reap immediately.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Release the worker; children are never leaked. One that still holds
    /// shards nobody will wait for, or never got past `hello`, is killed
    /// and reaped at once. One that answered everything it was dealt gets
    /// `bye` and a short grace period to exit on its own, then is killed
    /// and reaped: the reader thread hangs up at the worker's stdout EOF,
    /// i.e. as it exits, so a healthy worker is reaped the moment it is
    /// gone.
    fn shutdown(self) {
        if !self.ready || !self.flights.is_empty() {
            return self.kill();
        }
        let Link { mut child, mut stdin, rx, .. } = self;
        let _ = write_frame(&mut stdin, &format!("{{\"v\":{PROTOCOL_VERSION},\"bye\":{{}}}}"));
        drop(stdin);
        let grace = Instant::now() + Duration::from_millis(500);
        // Stray frames are drained; hang-up and expiry both end the wait.
        while rx.recv_timeout(grace.saturating_duration_since(Instant::now())).is_ok() {}
        // A worker that hung up is microseconds from exiting: poll from
        // 10 µs, doubling up to 1 ms, so it is reaped about when it is gone.
        let mut pause = Duration::from_micros(10);
        while Instant::now() < grace {
            if let Ok(Some(_)) = child.try_wait() {
                return;
            }
            std::thread::sleep(pause);
            pause = (pause * 2).min(Duration::from_millis(1));
        }
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// What one worker slot holds between shards.
#[derive(Default)]
struct LinkSlot {
    link: Option<Link>,
    /// A worker was spawned for this slot before (a new one is a respawn).
    started: bool,
    /// Permanent degradation to in-process evaluation: entered when spawning
    /// fails, a worker fails its `ready` check or the restart budget is
    /// spent (or with no worker command).
    inproc: bool,
}

/// The distribute executor of the sweep frame: slot *s* owns at most one
/// worker process, to which its chunks are written as `shard` frames — up
/// to two in flight — and whose replies are awaited, oldest
/// first, under the heartbeat deadline. Worker death, silence and lies are
/// answered as worker-level faults of the awaited shard — the frame
/// re-deals or quarantines it, and re-deals the shards queued behind it
/// when their turn comes — and a slot that cannot (re)spawn answers
/// *evaluate locally*.
pub(crate) struct LinkExecutor<'a, V> {
    workers: &'a Workers,
    codec: StateCodec<V>,
    hello: String,
    structural: String,
    engine_sig: String,
    n_constraints: usize,
    restart_budget: usize,
    slots: Vec<Mutex<LinkSlot>>,
    /// Shards written to worker processes (the chaos-kill ordinal).
    dealt: AtomicU64,
    /// Worker respawns consumed from the restart budget.
    restarts: AtomicUsize,
    /// Workers dealt a shard.
    spawned: AtomicU64,
    /// Workers spawned to replace one that died mid-run.
    respawned: AtomicU64,
}

impl<V: Visitor> ChunkExecutor<V> for LinkExecutor<'_, V> {
    fn start(&self, slots: usize) {
        for slot in self.slots.iter().take(slots).skip(1) {
            self.acquire(&mut slot.lock().unwrap());
        }
    }

    fn queues(&self) -> bool {
        true
    }

    fn send(&self, slot: usize, chunk: usize, values: &[i64]) {
        self.post(&mut self.slots[slot].lock().unwrap(), chunk, values);
    }

    fn run(
        &self,
        slot: usize,
        chunk: usize,
        values: &[i64],
        _compiled: &Compiled,
        make_visitor: &dyn Fn() -> V,
    ) -> Answer<V> {
        let mut slot = self.slots[slot].lock().unwrap();
        // Deal the chunk unless it is in flight already; either way it is
        // the oldest shard in flight, because the frame deals in chunk
        // order and a fault drops every shard its worker held.
        self.post(&mut slot, chunk, values);
        // Graceful degradation: the supervisor's own engine evaluates the
        // shard — bit-identical by the determinism contract, merely slower.
        let Some(l) = slot.link.as_mut() else { return Answer::Local };
        debug_assert_eq!(l.flights.front().map(|f| f.chunk), Some(chunk));
        let checked = match l.ready {
            true => Ok(()),
            false => l.check_ready(&self.structural, &self.engine_sig, self.workers.heartbeat),
        };
        let answer = match checked {
            Ok(()) => self.reply(l, chunk, make_visitor),
            Err(Handshake::Fault(kind, error)) => Answer::Fault { kind, error },
            Err(Handshake::Refused) => {
                // Nothing it sent is folded, and the slot spawns no more.
                slot.inproc = true;
                Answer::Local
            }
        };
        if !matches!(answer, Answer::Done(_) | Answer::Abort(_)) {
            // Nothing this worker says can be trusted now.
            if let Some(l) = slot.link.take() {
                l.kill();
            }
        }
        answer
    }

    fn redeal(&self) -> (u32, u64) {
        (self.workers.retry_max, self.workers.backoff_ms)
    }

    fn close(&self, slot: usize) {
        self.release(slot);
    }

    fn stamp(&self, report: &mut SweepReport) {
        report.fault_counters.workers_spawned = self.spawned.load(Ordering::Relaxed);
        report.fault_counters.worker_restarts = self.respawned.load(Ordering::Relaxed);
    }
}

impl<'a, V> LinkExecutor<'a, V> {
    /// The executor for `spec`'s slots, each owning at most one process
    /// running `workers.cmd`. The first slot's worker is spawned and sent
    /// `hello` here, so that it boots while the supervisor builds its own
    /// engine; the other slots' start when the frame knows how many slots
    /// it deals to. A worker is counted in `workers_spawned` once it is
    /// dealt a shard; one that never is is killed and reaped when its slot
    /// closes, or when the executor is dropped on an early return.
    pub(crate) fn new(
        lp: &LoweredPlan,
        spec: &SweepSpec<'_, V>,
        workers: &'a Workers,
        codec: StateCodec<V>,
    ) -> LinkExecutor<'a, V> {
        let slots = spec.slots.max(1);
        let space = lp.plan.space();
        let structural = format!("{:016x}", lp.structural_hash());
        let engine_sig = spec.engine.signature();
        let hello = {
            let mut h = String::with_capacity(160);
            use std::fmt::Write as _;
            let _ = write!(h, "{{\"v\":{PROTOCOL_VERSION},\"hello\":{{");
            json_str(&mut h, "space", space.name());
            let _ = write!(
                h,
                ",\"structural\":\"{structural}\",\"engine\":\"{engine_sig}\",\"policy\":\"{}\",\
                 \"hb_ms\":{}}}}}",
                spec.fault_policy.spec(),
                u64::try_from(workers.heartbeat.as_millis()).unwrap_or(u64::MAX).max(1)
            );
            h
        };
        let exec = LinkExecutor {
            workers,
            codec,
            hello,
            structural,
            engine_sig,
            n_constraints: space.constraints().len(),
            restart_budget: if workers.restart_max > 0 { workers.restart_max } else { 2 * slots },
            slots: (0..slots)
                .map(|_| Mutex::new(LinkSlot { inproc: workers.cmd.is_empty(), ..LinkSlot::default() }))
                .collect(),
            dealt: AtomicU64::new(0),
            restarts: AtomicUsize::new(0),
            spawned: AtomicU64::new(0),
            respawned: AtomicU64::new(0),
        };
        exec.acquire(&mut exec.slots[0].lock().unwrap());
        exec
    }

    /// Give `slot` a worker unless it has one or is degraded: the first
    /// spawn is free, respawns draw on the shared restart budget, and a
    /// failure degrades the slot permanently.
    fn acquire(&self, slot: &mut LinkSlot) {
        if slot.inproc || slot.link.is_some() {
            return;
        }
        if slot.started && self.restarts.fetch_add(1, Ordering::Relaxed) >= self.restart_budget {
            slot.inproc = true;
            return;
        }
        match Link::spawn(&self.workers.cmd, &self.hello) {
            Ok(l) => {
                if slot.started {
                    self.respawned.fetch_add(1, Ordering::Relaxed);
                }
                slot.started = true;
                slot.link = Some(l);
            }
            Err(_) => slot.inproc = true,
        }
    }

    /// Deal `chunk` to `slot`'s worker, spawning one if needed, unless it
    /// is in flight there already or the slot evaluates in process.
    fn post(&self, slot: &mut LinkSlot, chunk: usize, values: &[i64]) {
        if slot.link.as_ref().is_some_and(|l| l.flights.iter().any(|f| f.chunk == chunk)) {
            return;
        }
        self.acquire(slot);
        let Some(l) = slot.link.as_mut() else { return };
        if !l.dealt {
            l.dealt = true;
            self.spawned.fetch_add(1, Ordering::Relaxed);
        }
        if l.post(chunk, shard_frame(chunk, values)) {
            self.wrote(l);
        }
    }

    /// Count a shard written to `l`, and run the chaos knob on it.
    fn wrote(&self, l: &mut Link) {
        let shard_no = self.dealt.fetch_add(1, Ordering::Relaxed) + 1;
        if self.workers.chaos_kill_after == Some(shard_no) {
            // Deterministic chaos: SIGKILL our own worker with the shard
            // in flight. Recovery must be indistinguishable from a real
            // crash.
            let _ = l.child.kill();
        }
    }

    /// The reply to `l`'s oldest shard in flight, `chunk`: written now if
    /// it was held back, then awaited and, unless it is a fault, taken off
    /// the queue.
    fn reply(&self, l: &mut Link, chunk: usize, make_visitor: &dyn Fn() -> V) -> Answer<V>
    where
        V: Visitor,
    {
        if let Some(frame) = l.flights.front_mut().and_then(|f| f.held.take()) {
            if l.write(frame).is_some() {
                return Answer::Fault {
                    kind: FaultKind::WorkerExit,
                    error: "worker closed its pipe".to_string(),
                };
            }
            self.wrote(l);
        }
        let (n, codec, deadline) = (self.n_constraints, self.codec, self.workers.heartbeat);
        let answer = await_reply(l, chunk, n, make_visitor, codec, deadline);
        if !matches!(answer, Answer::Fault { .. }) {
            l.flights.pop_front();
        }
        answer
    }

    /// Shut `slot`'s worker down, if it has one.
    fn release(&self, slot: usize) {
        let link = self.slots[slot].lock().unwrap().link.take();
        if let Some(l) = link {
            l.shutdown();
        }
    }
}

impl<V> Drop for LinkExecutor<'_, V> {
    /// Every exit path reaps: a sweep that returns before its slots close
    /// (lint gate, preamble error, empty level-0 domain, checkpoint
    /// mismatch, a failure) still holds the workers it started.
    fn drop(&mut self) {
        for slot in 0..self.slots.len() {
            self.release(slot);
        }
    }
}

/// The `shard` frame dealing `chunk`, whose level-0 values are `values`.
fn shard_frame(chunk: usize, values: &[i64]) -> String {
    use std::fmt::Write as _;
    let mut frame = String::with_capacity(64 + values.len() * 8);
    let _ = write!(frame, "{{\"v\":{PROTOCOL_VERSION},\"shard\":{{\"chunk\":{chunk},\"values\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            frame.push(',');
        }
        let _ = write!(frame, "{v}");
    }
    frame.push_str("]}}");
    frame
}

/// Wait for the worker's reply to an in-flight shard, treating heartbeat
/// frames as liveness and everything unexpected as a fault:
///
/// * `done` — fully validated, then answered for folding;
/// * `fail` — the worker's abort-policy error or panic aborts the sweep;
/// * silence past the deadline — `WorkerTimeout`;
/// * closed pipe / read error — `WorkerExit`;
/// * anything malformed — `ProtocolError`.
fn await_reply<V: Visitor>(
    link: &mut Link,
    chunk: usize,
    n_constraints: usize,
    make_visitor: &dyn Fn() -> V,
    codec: StateCodec<V>,
    deadline: Duration,
) -> Answer<V> {
    let fault = |kind, error| Answer::Fault { kind, error };
    loop {
        let frame = match link.rx.recv_timeout(deadline) {
            Ok(Ok(f)) => f,
            Ok(Err(e)) => return fault(FaultKind::WorkerExit, format!("worker pipe error: {e}")),
            Err(RecvTimeoutError::Timeout) => {
                return fault(
                    FaultKind::WorkerTimeout,
                    format!("no frame within {deadline:?} while chunk {chunk} was in flight"),
                )
            }
            Err(RecvTimeoutError::Disconnected) => {
                return fault(FaultKind::WorkerExit, "worker exited with a shard in flight".to_string())
            }
        };
        let doc = match JsonValue::parse(&frame) {
            Ok(d) => d,
            Err(e) => return fault(FaultKind::ProtocolError, format!("malformed frame: {e}")),
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
            return Answer::Abort(match failed.get("kind").and_then(JsonValue::as_str) {
                Some("panic") => SweepError::WorkerPanic { chunk: Some(chunk), message },
                _ => SweepError::Eval(EvalError::Custom(message)),
            });
        }
        if doc.get("done").is_some() {
            return match parse_done(&doc, chunk, n_constraints, make_visitor, codec) {
                Ok(done) => Answer::Done(done),
                Err(e) => fault(FaultKind::ProtocolError, e),
            };
        }
        return fault(FaultKind::ProtocolError, "unexpected frame type".to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;
    use beast_core::plan::{Plan, PlanOptions};
    use beast_core::space::Space;

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
            parse_done(&done, 0, 2, &FingerprintVisitor::new, StateCodec::of()).unwrap();
        assert!(parsed.faults.is_empty());
        let from_worker = parsed.outcome.expect("clean chunk has an outcome");

        // The whole domain as one chunk equals a serial in-process run's
        // chunk outcome.
        let direct = attempt_chunk(
            &compiled,
            &outer,
            0,
            FaultPolicy::Abort,
            None,
            None,
            &FingerprintVisitor::new,
        )
        .ok()
        .unwrap()
        .outcome
        .unwrap();
        assert_eq!(from_worker.visitor, direct.visitor);
        assert_eq!(from_worker.stats, direct.stats);
    }

    /// Shards written behind `hello` before `ready` is read, two at a time
    /// — the supervisor's queue — are answered in order, one `done` each,
    /// each equal to the chunk evaluated in process.
    #[test]
    fn serve_worker_answers_queued_shards_in_order() {
        let lp = lowered();
        let compiled = Compiled::with_options(lp.clone(), EngineOptions::default());
        let outer = compiled.outer_domain().unwrap();
        let (first, second) = outer.split_at(outer.len() / 2);

        let mut script = Vec::new();
        let hello = "{\"v\":1,\"hello\":{\"policy\":\"abort\",\"hb_ms\":10000}}";
        write_frame(&mut script, hello).unwrap();
        write_frame(&mut script, &shard_frame(4, first)).unwrap();
        write_frame(&mut script, &shard_frame(5, second)).unwrap();
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
        let ready = JsonValue::parse(&read_frame(&mut r).unwrap().unwrap()).unwrap();
        assert!(ready.get("ready").is_some());
        for (chunk, values) in [(4, first), (5, second)] {
            let done = JsonValue::parse(&read_frame(&mut r).unwrap().unwrap()).unwrap();
            let parsed: ChunkDone<FingerprintVisitor> =
                parse_done(&done, chunk, 2, &FingerprintVisitor::new, StateCodec::of()).unwrap();
            let direct = attempt_chunk(
                &compiled,
                values,
                chunk,
                FaultPolicy::Abort,
                None,
                None,
                &FingerprintVisitor::new,
            )
            .ok()
            .unwrap()
            .outcome
            .unwrap();
            let from_worker = parsed.outcome.expect("clean chunk has an outcome");
            assert_eq!((from_worker.visitor, from_worker.stats), (direct.visitor, direct.stats));
        }
        assert_eq!(read_frame(&mut r).unwrap(), None, "two shards, two replies");
    }

    /// While a worker boots or works, a short shard frame is written the
    /// moment it is dealt, a long one — which could fill the pipe of a
    /// worker that reads nothing — is held back, and nothing overtakes it.
    #[test]
    fn long_shards_are_held_back_until_their_turn() {
        // `sleep` reads nothing: it stands for a worker that never gets to
        // its next frame.
        let mut link = Link::spawn(&["sleep".to_string(), "60".to_string()], "{}").unwrap();
        assert!(link.post(0, shard_frame(0, &[1, 2, 3])), "a short shard is written at once");
        let long = shard_frame(1, &[-1_234_567; 512]);
        assert!(long.len() > AHEAD_BYTES);
        assert!(!link.post(1, long), "a long shard waits");
        assert!(!link.post(2, shard_frame(2, &[4])), "a short shard does not overtake it");
        let held: Vec<_> = link.flights.iter().map(|f| (f.chunk, f.held.is_some())).collect();
        assert_eq!(held, [(0, false), (1, true), (2, true)]);
        link.kill();
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

        let serial_spec = SweepSpec { chunk_count: 4, ..SweepSpec::new(1) };
        let (serial, _) = sweep(&lp, &serial_spec, FingerprintVisitor::new).unwrap();
        assert_eq!(dist.visitor, serial.visitor);
        assert_eq!(dist.stats, serial.stats);
        assert_eq!(report.fault_counters.workers_spawned, 0);
        assert!(!report.partial);
    }

    /// A sweep that returns before it deals anything — here its level-0
    /// domain is empty — kills and reaps the worker spawned early for its
    /// first slot (a `sleep` that would hold a graceful shutdown for its
    /// whole grace period) and counts no worker spawned.
    #[test]
    fn an_early_return_reaps_the_early_worker_and_counts_none() {
        let space = Space::builder("none").range("x", 5, 5).build().unwrap();
        let lp = LoweredPlan::new(&Plan::new(&space, PlanOptions::default()).unwrap()).unwrap();
        let spec: SweepSpec<'_, FingerprintVisitor> =
            SweepSpec::new(2).workers(Workers::new(vec!["sleep".to_string(), "60".to_string()]));
        let t = Instant::now();
        let (out, report) = sweep(&lp, &spec, FingerprintVisitor::new).unwrap();
        assert!(t.elapsed() < Duration::from_secs(10), "{:?}", t.elapsed());
        assert_eq!((out.visitor.count, report.chunks), (0, 0));
        assert_eq!(report.fault_counters.workers_spawned, 0);
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

    /// Under `FaultPolicy::Abort`, a distributed sweep that never crossed a
    /// process boundary (no worker command; a command that cannot spawn)
    /// returns the same structured error — root, site, bindings — as the
    /// threaded sweep, not a flattened `Custom` rendering of it.
    #[test]
    fn in_process_abort_keeps_the_structured_error() {
        let space = Space::builder("dz")
            .range("x", 0, 64)
            .derived("bad", var("x") / (var("x") - 10))
            .build()
            .unwrap();
        let lp = LoweredPlan::new(&Plan::new(&space, PlanOptions::default()).unwrap()).unwrap();
        let threaded = sweep(&lp, &SweepSpec::new(2), FingerprintVisitor::new);
        let Err(SweepError::Eval(want)) = threaded else { panic!("dz must abort the threaded sweep") };
        assert!(want.point_context().is_some());
        for cmd in [Vec::new(), vec!["/nonexistent/beast-worker-binary".to_string()]] {
            let opts = DistributeOptions::new(2, cmd.clone());
            let err = run_distributed(&lp, &opts, FingerprintVisitor::new).err().unwrap();
            let SweepError::Eval(got) = err else { panic!("{cmd:?}: expected Eval, got {err:?}") };
            assert_eq!(got.root(), want.root(), "{cmd:?}");
            assert_eq!(got.point_context(), want.point_context(), "{cmd:?}");
        }
    }

    /// A lying worker reply (wrong chunk, short stats) is a protocol error;
    /// a well-formed one carries its block counters through, `guard_runs`
    /// included.
    #[test]
    fn done_validation_rejects_lies() {
        let mk = FingerprintVisitor::new;
        let good = "{\"v\":1,\"done\":{\"chunk\":3,\"outcome\":{\"stats\":{\"evaluated\":[1,2],\
                    \"pruned\":[0,1],\"survivors\":1},\"blocks\":{\"subtree_skips\":0,\
                    \"congruence_skips\":0,\"points_skipped\":0,\"checks_elided\":0,\
                    \"guard_runs\":5},\
                    \"visitor\":{\"hash\":1,\"pow\":2,\"count\":1}},\"faults\":[]}}";
        let doc = JsonValue::parse(good).unwrap();
        let done = parse_done(&doc, 3, 2, &mk, StateCodec::of()).unwrap();
        assert_eq!(done.outcome.unwrap().blocks.guard_runs, 5);
        // Wrong chunk id.
        assert!(parse_done(&doc, 4, 2, &mk, StateCodec::of()).is_err());
        // Counter arrays shorter than the constraint list.
        assert!(parse_done(&doc, 3, 3, &mk, StateCodec::of()).is_err());
        // Missing visitor state.
        let broken = good.replace(",\"visitor\":{\"hash\":1,\"pow\":2,\"count\":1}", "");
        let doc = JsonValue::parse(&broken).unwrap();
        assert!(parse_done(&doc, 3, 2, &mk, StateCodec::of()).is_err());
    }
}
