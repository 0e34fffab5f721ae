//! Fault tolerance primitives for the sweep supervisor.
//!
//! At production scale a sweep runs for hours (the paper's headline GEMM
//! enumeration is 66 948 s in Python); a single bad point or a panicking
//! worker must not discard everything enumerated so far. This module defines
//! the vocabulary the supervisor in [`crate::parallel`] speaks:
//!
//! - [`FaultPolicy`] — what to do when evaluating a point raises an
//!   [`EvalError`](beast_core::error::EvalError) or a chunk panics.
//! - [`FaultRecord`] — a structured, deterministic account of one fault,
//!   surfaced in [`SweepReport`](crate::telemetry::SweepReport) JSON.
//! - [`CancelToken`] — cooperative cancellation, polled *inside* chunks so
//!   cancel latency is bounded by a poll interval rather than a chunk length.
//! - [`FaultInjector`] — a seeded, replayable source of artificial faults
//!   keyed on `(chunk index, point ordinal, attempt)`, so every policy and
//!   the resume path can be exercised deterministically in CI.
//!
//! # Determinism under faults
//!
//! Fault decisions are keyed on the *chunk grid*, not on thread scheduling:
//! the injector hashes `(seed, kind, chunk, ordinal)` and the recovery
//! actions (skip point, quarantine chunk) only ever remove work in units that
//! are merged in chunk order. Pinning the grid with
//! [`SweepSpec::chunk_count`](crate::sweep::SweepSpec::chunk_count) makes
//! the full fault set and the surviving-point sequence invariant across
//! thread counts — asserted in `tests/fault_tolerance.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the sweep does when evaluating a point fails or a chunk panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Stop the sweep and surface the first error (historical behaviour).
    /// Worker panics still surface as structured
    /// [`SweepError::WorkerPanic`](crate::sweep::SweepError) instead of
    /// poisoning the orchestrator.
    #[default]
    Abort,
    /// Drop the failing point, record a [`FaultRecord`], and continue with
    /// the next tuple of the innermost enclosing iterator. An error outside
    /// every loop (in the preamble, which the engine's build runs once)
    /// has no tuple to skip: under this and every other policy it fails
    /// the sweep before any chunk is dealt.
    SkipPoint,
    /// Drop the whole chunk containing the fault (its survivors and stats are
    /// excluded) and continue with the remaining chunks.
    QuarantineChunk,
    /// Re-run the failing chunk up to `max` additional times, sleeping
    /// `backoff_ms` milliseconds between attempts; if every attempt fails the
    /// chunk is quarantined. Useful when evaluation calls out to flaky
    /// external oracles.
    Retry {
        /// Maximum number of *re*-tries after the initial attempt.
        max: u32,
        /// Constant sleep between attempts, in milliseconds.
        backoff_ms: u64,
    },
}

impl FaultPolicy {
    /// Stable lowercase name used in telemetry JSON and on the CLI.
    pub fn name(&self) -> String {
        match self {
            FaultPolicy::Abort => "abort".to_string(),
            FaultPolicy::SkipPoint => "skip_point".to_string(),
            FaultPolicy::QuarantineChunk => "quarantine_chunk".to_string(),
            FaultPolicy::Retry { max, backoff_ms } => {
                format!("retry(max={max},backoff_ms={backoff_ms})")
            }
        }
    }

    /// A spelling that [`FaultPolicy::parse`] accepts (unlike
    /// [`FaultPolicy::name`], whose `retry(max=…)` form is display-only).
    /// Used to forward the policy to distributed worker processes over the
    /// shard protocol ([`crate::distribute`]).
    pub fn spec(&self) -> String {
        match self {
            FaultPolicy::Retry { max, backoff_ms } => format!("retry:{max}:{backoff_ms}"),
            other => other.name(),
        }
    }

    /// Parse a CLI spelling: `abort`, `skip`, `skip_point`, `quarantine`,
    /// `quarantine_chunk`, `retry`, or `retry:MAX[:BACKOFF_MS]`.
    pub fn parse(s: &str) -> Option<FaultPolicy> {
        match s {
            "abort" => Some(FaultPolicy::Abort),
            "skip" | "skip_point" => Some(FaultPolicy::SkipPoint),
            "quarantine" | "quarantine_chunk" => Some(FaultPolicy::QuarantineChunk),
            "retry" => Some(FaultPolicy::Retry {
                max: 2,
                backoff_ms: 0,
            }),
            _ => {
                let rest = s.strip_prefix("retry:")?;
                let mut it = rest.splitn(2, ':');
                let max = it.next()?.parse().ok()?;
                let backoff_ms = match it.next() {
                    Some(b) => b.parse().ok()?,
                    None => 0,
                };
                Some(FaultPolicy::Retry { max, backoff_ms })
            }
        }
    }
}

/// What raised the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// An [`EvalError`](beast_core::error::EvalError) during evaluation.
    Error,
    /// A panic caught at the chunk boundary.
    Panic,
    /// A distributed worker *process* died (crash, `kill -9`, or EOF on its
    /// pipe) while a shard was in flight ([`crate::distribute`]).
    WorkerExit,
    /// A distributed worker stopped sending frames: the per-worker
    /// heartbeat/read deadline expired and the supervisor killed it.
    WorkerTimeout,
    /// A worker reply failed validation (malformed frame, wrong chunk,
    /// mismatched counter shapes, or a failed handshake). The shard is
    /// re-dealt; nothing from the lying worker is folded.
    ProtocolError,
}

impl FaultKind {
    /// Stable lowercase name used in JSON.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Error => "error",
            FaultKind::Panic => "panic",
            FaultKind::WorkerExit => "worker_exit",
            FaultKind::WorkerTimeout => "worker_timeout",
            FaultKind::ProtocolError => "protocol_error",
        }
    }

    /// Inverse of [`FaultKind::name`].
    pub fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "error" => Some(FaultKind::Error),
            "panic" => Some(FaultKind::Panic),
            "worker_exit" => Some(FaultKind::WorkerExit),
            "worker_timeout" => Some(FaultKind::WorkerTimeout),
            "protocol_error" => Some(FaultKind::ProtocolError),
            _ => None,
        }
    }

    /// Is this a worker-*process* fault (exit/timeout/protocol), as opposed
    /// to an in-process evaluation fault?
    pub fn is_worker(&self) -> bool {
        matches!(
            self,
            FaultKind::WorkerExit | FaultKind::WorkerTimeout | FaultKind::ProtocolError
        )
    }
}

/// How the supervisor recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The failing point was dropped; the sweep continued within the chunk.
    SkippedPoint,
    /// The whole chunk was dropped (directly, or after retries ran out).
    QuarantinedChunk,
    /// The chunk was re-run; a later attempt may have succeeded.
    Retried,
}

impl FaultAction {
    /// Stable lowercase name used in JSON.
    pub fn name(&self) -> &'static str {
        match self {
            FaultAction::SkippedPoint => "skipped_point",
            FaultAction::QuarantinedChunk => "quarantined_chunk",
            FaultAction::Retried => "retried",
        }
    }

    /// Inverse of [`FaultAction::name`].
    pub fn parse(s: &str) -> Option<FaultAction> {
        match s {
            "skipped_point" => Some(FaultAction::SkippedPoint),
            "quarantined_chunk" => Some(FaultAction::QuarantinedChunk),
            "retried" => Some(FaultAction::Retried),
            _ => None,
        }
    }
}

/// One recorded fault. Records are merged in chunk order (and, within a
/// chunk, in evaluation order), so with a pinned chunk grid the full record
/// sequence is identical at any thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Index of the chunk the fault occurred in.
    pub chunk: usize,
    /// Per-chunk visit ordinal at the time of the fault (0 when the fault is
    /// not tied to a specific point, e.g. a panic).
    pub ordinal: u64,
    /// Which attempt at the chunk raised it (0 = first run).
    pub attempt: u32,
    /// Error or panic.
    pub kind: FaultKind,
    /// How the supervisor recovered.
    pub action: FaultAction,
    /// Name of the failing constraint/define/iterator, or a marker like
    /// `visit` (injected point faults) / `chunk` (panics).
    pub site: String,
    /// Root error display (context stripped — the context lives in
    /// [`FaultRecord::bindings`]).
    pub error: String,
    /// Iterator/define values bound when the fault fired.
    pub bindings: Vec<(String, i64)>,
}

/// Cooperative cancellation flag shared between a caller and a running
/// sweep. Cheap to poll; workers check it between chunks and (via an
/// internal probe) inside chunks every few thousand loop advances, so
/// cancel latency is bounded even when one chunk covers the whole domain.
#[derive(Debug, Default)]
pub struct CancelToken {
    flag: AtomicBool,
}

impl CancelToken {
    /// New, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has [`CancelToken::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A worker's view of "should I stop": an optional shared [`CancelToken`]
/// plus an optional wall-clock deadline. Both are polled together.
#[derive(Debug, Clone, Default)]
pub(crate) struct CancelProbe {
    token: Option<Arc<CancelToken>>,
    deadline: Option<Instant>,
}

impl CancelProbe {
    pub(crate) fn new(token: Option<Arc<CancelToken>>, deadline: Option<Instant>) -> Self {
        CancelProbe { token, deadline }
    }

    /// True when there is anything to poll; lets the engine skip the
    /// per-iteration countdown entirely for unsupervised runs.
    pub(crate) fn armed(&self) -> bool {
        self.token.is_some() || self.deadline.is_some()
    }

    pub(crate) fn cancelled(&self) -> bool {
        if let Some(t) = &self.token {
            if t.is_cancelled() {
                return true;
            }
        }
        if let Some(d) = &self.deadline {
            if Instant::now() >= *d {
                return true;
            }
        }
        false
    }
}

/// Deterministic, replayable fault source for tests and CI.
///
/// Decisions depend only on `(seed, kind, chunk, ordinal, attempt)` — never
/// on threads or timing — so a faulted sweep over a pinned chunk grid
/// produces the same fault set at any thread count, and a resumed sweep
/// re-injects exactly the faults the interrupted run would have seen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    seed: u64,
    error_rate: f64,
    panic_rate: f64,
    transient: bool,
}

impl FaultInjector {
    /// New injector with both rates at zero.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            seed,
            error_rate: 0.0,
            panic_rate: 0.0,
            transient: false,
        }
    }

    /// Probability that any given visited point raises an injected
    /// [`EvalError`](beast_core::error::EvalError).
    pub fn error_rate(mut self, rate: f64) -> Self {
        self.error_rate = rate;
        self
    }

    /// Probability that any given chunk panics at the start of execution.
    pub fn panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate;
        self
    }

    /// When set, faults only fire on the first attempt at a chunk — retries
    /// succeed, which makes [`FaultPolicy::Retry`] testable end to end.
    pub fn transient(mut self, transient: bool) -> Self {
        self.transient = transient;
        self
    }

    /// The seed this injector was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Should the `ordinal`-th visited point of `chunk` raise an error?
    pub fn point_error(&self, chunk: usize, ordinal: u64, attempt: u32) -> bool {
        if self.error_rate <= 0.0 || (self.transient && attempt > 0) {
            return false;
        }
        self.roll(1, chunk as u64, ordinal, if self.transient { 0 } else { attempt }) < self.error_rate
    }

    /// Should `chunk` panic on this attempt?
    pub fn chunk_panic(&self, chunk: usize, attempt: u32) -> bool {
        if self.panic_rate <= 0.0 || (self.transient && attempt > 0) {
            return false;
        }
        self.roll(2, chunk as u64, 0, if self.transient { 0 } else { attempt }) < self.panic_rate
    }

    /// Is either rate non-zero?
    pub fn armed(&self) -> bool {
        self.error_rate > 0.0 || self.panic_rate > 0.0
    }

    fn roll(&self, kind: u64, chunk: u64, ordinal: u64, attempt: u32) -> f64 {
        // One short-lived xoshiro256** per decision, seeded from a SplitMix64
        // mix of the coordinates. Constants are the SplitMix64 increment
        // multiplied by small odd numbers — only independence matters here.
        let mixed = self
            .seed
            .wrapping_add(kind.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(chunk.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add(ordinal.wrapping_mul(0x1656_67B1_9E37_79F9))
            .wrapping_add((attempt as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
        StdRng::seed_from_u64(mixed).gen::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_is_deterministic_and_key_sensitive() {
        let a = FaultInjector::new(7).error_rate(0.5);
        let b = FaultInjector::new(7).error_rate(0.5);
        let mut hits = 0usize;
        for chunk in 0..8 {
            for ord in 0..64 {
                assert_eq!(a.point_error(chunk, ord, 0), b.point_error(chunk, ord, 0));
                if a.point_error(chunk, ord, 0) {
                    hits += 1;
                }
            }
        }
        // ~50% of 512 draws; loose bounds just prove both rails are live.
        assert!(hits > 128 && hits < 384, "hits = {hits}");
        let c = FaultInjector::new(8).error_rate(0.5);
        let differs = (0..64).any(|ord| a.point_error(0, ord, 0) != c.point_error(0, ord, 0));
        assert!(differs, "seed must change the decision stream");
    }

    #[test]
    fn transient_faults_clear_on_retry() {
        let inj = FaultInjector::new(3).error_rate(1.0).panic_rate(1.0).transient(true);
        assert!(inj.point_error(0, 0, 0));
        assert!(!inj.point_error(0, 0, 1));
        assert!(inj.chunk_panic(5, 0));
        assert!(!inj.chunk_panic(5, 1));
        // Non-transient: the decision for a fixed key ignores nothing.
        let hard = FaultInjector::new(3).error_rate(1.0);
        assert!(hard.point_error(0, 0, 0) && hard.point_error(0, 0, 1));
    }

    #[test]
    fn cancel_token_latches() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [
            FaultPolicy::Abort,
            FaultPolicy::SkipPoint,
            FaultPolicy::QuarantineChunk,
            FaultPolicy::Retry { max: 3, backoff_ms: 10 },
        ] {
            if let FaultPolicy::Retry { max, backoff_ms } = p {
                assert_eq!(
                    FaultPolicy::parse(&format!("retry:{max}:{backoff_ms}")),
                    Some(p)
                );
            } else {
                assert_eq!(FaultPolicy::parse(&p.name()), Some(p));
            }
            // `spec()` is parseable for every policy, including retry.
            assert_eq!(FaultPolicy::parse(&p.spec()), Some(p));
        }
        assert_eq!(FaultPolicy::parse("retry"), Some(FaultPolicy::Retry { max: 2, backoff_ms: 0 }));
        assert_eq!(FaultPolicy::parse("nope"), None);
    }

    #[test]
    fn fault_kind_names_round_trip() {
        for k in [
            FaultKind::Error,
            FaultKind::Panic,
            FaultKind::WorkerExit,
            FaultKind::WorkerTimeout,
            FaultKind::ProtocolError,
        ] {
            assert_eq!(FaultKind::parse(k.name()), Some(k));
            assert_eq!(k.is_worker(), !matches!(k, FaultKind::Error | FaultKind::Panic));
        }
        assert_eq!(FaultKind::parse("nope"), None);
    }
}
