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
//! # Robustness model
//!
//! Worker death (crash, `kill -9`, closed pipe), silence (heartbeat/read
//! deadline expired) and lies (malformed or mismatched replies) are all
//! *worker-level faults*, which is all this module says about them: the
//! frame records each as a `FaultRecord` with kind
//! [`FaultKind::WorkerExit`] / [`FaultKind::WorkerTimeout`] /
//! [`FaultKind::ProtocolError`] and has the slot re-deal the shard with
//! exponential backoff — to a respawned worker while the restart budget
//! lasts, then to the supervisor's own in-process engine. After
//! [`Workers::retry_max`] failed deals the shard is
//! quarantined exactly like a chunk under [`FaultPolicy::QuarantineChunk`].
//! When spawning fails entirely the run degrades to in-process evaluation
//! and still completes. Because nothing from a failed attempt is ever folded
//! (a worker's reply is validated in full first, and evaluation is
//! deterministic), retries cannot change the merged outcome: survivors,
//! emission order, statistics and fingerprints are bit-identical to a serial
//! run at any worker count.
//!
//! Everything else is the frame's and the spec's: a [`SweepSpec`] with
//! [`SweepSpec::workers`] attached is swept by [`crate::sweep::sweep`] like
//! any other, so a checkpoint or a cache attaches to it the same way. One
//! file format means `kill -9` of the *supervisor* is resumable, a threaded
//! sweep resumes a distributed sweep's file and the other way round, and a
//! resumed run is bit-identical to an uninterrupted one
//! (`tests/fault_tolerance.rs`, and end to end `tests/distribute.rs` in
//! `beast-bench`).

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
    /// Chaos knob: `kill -9` the worker that receives the Nth dealt shard
    /// (1-based) right after dispatching it. Exercises the `WorkerExit`
    /// recovery path deterministically in tests and the CI smoke job.
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
    /// fails or the restart budget is spent (or with no worker command).
    inproc: bool,
}

/// The distribute executor of the sweep frame: slot *s* owns at most one
/// worker process, to which its chunk is written as a `shard` frame and whose
/// reply is awaited under the heartbeat deadline. Worker death, silence and
/// lies are answered as worker-level faults — the frame re-deals or
/// quarantines — and a slot that cannot (re)spawn answers *evaluate locally*.
pub(crate) struct LinkExecutor<'a, V> {
    workers: &'a Workers,
    codec: StateCodec<V>,
    hello: String,
    structural: String,
    engine_sig: String,
    n_constraints: usize,
    restart_budget: usize,
    slots: Vec<Mutex<LinkSlot>>,
    /// Shards dispatched to worker processes (the chaos-kill ordinal).
    dealt: AtomicU64,
    /// Worker respawns consumed from the restart budget.
    restarts: AtomicUsize,
    /// Successful spawns (handshake included).
    spawned: AtomicU64,
    /// Successful re-spawns after a worker died mid-run.
    respawned: AtomicU64,
}

impl<V: Visitor> ChunkExecutor<V> for LinkExecutor<'_, V> {
    fn run(
        &self,
        slot: usize,
        chunk: usize,
        values: &[i64],
        _compiled: &Compiled,
        make_visitor: &dyn Fn() -> V,
    ) -> Answer<V> {
        let mut slot = self.slots[slot].lock().unwrap();
        // Worker acquisition: first spawn is free, respawns draw on the
        // shared restart budget; failures degrade this slot permanently.
        if !slot.inproc && slot.link.is_none() {
            if slot.started && self.restarts.fetch_add(1, Ordering::Relaxed) >= self.restart_budget {
                slot.inproc = true;
            } else {
                match Link::connect(
                    &self.workers.cmd,
                    &self.hello,
                    &self.structural,
                    &self.engine_sig,
                    self.workers.heartbeat,
                ) {
                    Ok(l) => {
                        self.spawned.fetch_add(1, Ordering::Relaxed);
                        if slot.started {
                            self.respawned.fetch_add(1, Ordering::Relaxed);
                        }
                        slot.started = true;
                        slot.link = Some(l);
                    }
                    Err(_) => slot.inproc = true,
                }
            }
        }
        // Graceful degradation: the supervisor's own engine evaluates the
        // shard — bit-identical by the determinism contract, merely slower.
        let Some(l) = slot.link.as_mut() else { return Answer::Local };

        let shard_no = self.dealt.fetch_add(1, Ordering::Relaxed) + 1;
        let mut frame = String::with_capacity(64 + values.len() * 8);
        {
            use std::fmt::Write as _;
            let _ = write!(
                frame,
                "{{\"v\":{PROTOCOL_VERSION},\"shard\":{{\"chunk\":{chunk},\"values\":"
            );
            frame.push('[');
            for (i, v) in values.iter().enumerate() {
                if i > 0 {
                    frame.push(',');
                }
                let _ = write!(frame, "{v}");
            }
            frame.push_str("]}}");
        }
        let dispatched = write_frame(&mut l.stdin, &frame);
        if self.workers.chaos_kill_after == Some(shard_no) {
            // Deterministic chaos: SIGKILL our own worker with the shard
            // in flight. Recovery must be indistinguishable from a real
            // crash.
            let _ = l.child.kill();
        }
        let answer = if dispatched.is_err() {
            Answer::Fault { kind: FaultKind::WorkerExit, error: "worker closed its pipe".to_string() }
        } else {
            await_reply(l, chunk, self.n_constraints, make_visitor, self.codec, self.workers.heartbeat)
        };
        if matches!(answer, Answer::Fault { .. }) {
            // Nothing this worker says can be trusted now.
            if let Some(mut l) = slot.link.take() {
                l.kill();
            }
        }
        answer
    }

    fn redeal(&self) -> (u32, u64) {
        (self.workers.retry_max, self.workers.backoff_ms)
    }

    fn close(&self, slot: usize) {
        if let Some(l) = self.slots[slot].lock().unwrap().link.take() {
            l.shutdown();
        }
    }

    fn stamp(&self, report: &mut SweepReport) {
        report.fault_counters.workers_spawned = self.spawned.load(Ordering::Relaxed);
        report.fault_counters.worker_restarts = self.respawned.load(Ordering::Relaxed);
    }
}

impl<'a, V> LinkExecutor<'a, V> {
    /// The executor for `spec`'s slots, each owning at most one process
    /// running `workers.cmd`; nothing is spawned until a slot is dealt a
    /// chunk.
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
        LinkExecutor {
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
        }
    }
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
