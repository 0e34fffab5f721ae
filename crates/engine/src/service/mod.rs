//! Sweep-as-a-service: a std-only HTTP daemon that accepts space
//! descriptions over JSON, schedules sweeps on a shared fault-tolerant
//! worker pool, streams progress, and memoizes completed sub-sweeps in a
//! fingerprint-keyed cache so repeated or overlapping requests fold cached
//! chunk outcomes instead of re-enumerating them.
//!
//! The wire protocol (endpoints, JSON shapes, examples) is documented in
//! `docs/PROTOCOL.md`; the architecture and the cache-soundness argument in
//! `DESIGN.md` §8. In brief:
//!
//! | Route                        | Purpose                                       |
//! |------------------------------|-----------------------------------------------|
//! | `GET  /healthz`              | liveness, retained jobs, acceptor pool        |
//! | `POST /sweeps`               | submit a sweep (`"wait": true` to block)      |
//! | `GET  /sweeps`               | list retained jobs (live + 64 newest finished) |
//! | `GET  /sweeps/{id}`          | job state; full report once done; 404 once evicted |
//! | `GET  /sweeps/{id}/progress` | chunked stream of progress JSON lines         |
//! | `GET  /cache/stats`          | sub-sweep cache and engine-reuse counters     |
//! | `POST /shutdown`             | graceful stop                                 |
//!
//! The daemon is generic over *what spaces it can build*: callers supply a
//! [`SpaceResolver`] that turns the request's `"space"` JSON object into a
//! [`ResolvedSpace`] (lowered plan + cache scope). The engine crate stays
//! ignorant of concrete space families; the GEMM resolver lives in
//! `beast-gemm` and is wired up by `repro serve`.
//!
//! Each distinct `"space"` object is resolved and compiled once: every job
//! for it shares one prepared entry (label, scope, structural hash and the
//! compiled engine), which lives as long as some retained job uses it.

pub mod cache;
pub mod http;

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use beast_core::ir::LoweredPlan;

use crate::checkpoint::{JsonValue, SaveState};
use crate::compiled::{Compiled, EngineOptions};
use crate::parallel::ParallelOptions;
use crate::telemetry::{json_num, json_str, SweepProgress};
use crate::visit::FingerprintVisitor;

use cache::{run_cached_on, SweepCache};
use http::{configure_stream, read_request, write_error, write_json, ChunkedWriter, Reply, Request};

use beast_core::analyze::LintGate;

/// A space description resolved into something the engine can sweep.
#[derive(Debug)]
pub struct ResolvedSpace {
    /// Human-readable label echoed in job listings (e.g.
    /// `gemm reduced(16) on Reduced synthetic Kepler, sgemm NN`).
    pub label: String,
    /// Cache-scope component naming everything about the request that the
    /// lowered plan does not already pin (in practice: a stable rendering
    /// of the resolver inputs). Folded into every sub-sweep cache key.
    pub scope: String,
    /// The lowered plan to sweep.
    pub plan: LoweredPlan,
}

/// Callback that turns the request's `"space"` JSON object into a
/// [`ResolvedSpace`]. Errors become HTTP 400 responses verbatim.
///
/// It must be a pure function of its argument. The daemon resolves each
/// distinct `"space"` object once and answers every later request with an
/// equal object (`==`) from that result and the engine built from it, for as
/// long as a retained job uses them. Errors are not kept: an unresolvable
/// space is resolved, and refused, again on every request.
pub type SpaceResolver =
    Arc<dyn Fn(&JsonValue) -> Result<ResolvedSpace, String> + Send + Sync>;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address, e.g. `127.0.0.1:7411` — port 0 picks a free port
    /// (the realized address is available from [`SweepService::addr`]).
    pub addr: String,
    /// Worker threads per sweep (the `ParallelOptions::threads` each job
    /// runs with).
    pub threads: usize,
    /// Sweeps executed concurrently (executor pool size). Queued jobs wait.
    pub executors: usize,
    /// Pinned scheduler chunk count. Every job uses the same grid so that
    /// overlapping requests produce cache-compatible chunks; see
    /// `DESIGN.md` §8 for why the key tolerates grid changes anyway.
    pub chunk_count: usize,
    /// Optional on-disk store for the sub-sweep cache; written after a
    /// completed job and at shutdown, whenever entries were stored since the
    /// last write.
    pub cache_path: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            executors: 2,
            chunk_count: 32,
            cache_path: None,
        }
    }
}

/// Lifecycle of one submitted sweep.
enum JobState {
    Queued,
    Running,
    /// Completed: the pre-rendered result JSON (see `job_json`).
    Done(String),
    Failed(String),
}

impl JobState {
    fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_))
    }

    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// One distinct request space, shared by every job that asked for it: the
/// resolver's answer, and the engine the first of those jobs to run builds.
///
/// Sharing one engine across jobs and executors is sound for the reason it is
/// across the threads of one sweep: [`Compiled`] is immutable after the
/// build, and every run keeps its state to itself.
struct Prepared {
    label: String,
    scope: String,
    /// [`LoweredPlan::structural_hash`] of the resolved plan: the plan part
    /// of every cache key of this space.
    plan_hash: u64,
    /// The resolved plan, until the engine build moves it into `engine`.
    plan: Mutex<Option<LoweredPlan>>,
    engine: OnceLock<Compiled>,
}

impl Prepared {
    fn new(resolved: ResolvedSpace) -> Prepared {
        Prepared {
            plan_hash: resolved.plan.structural_hash(),
            label: resolved.label,
            scope: resolved.scope,
            plan: Mutex::new(Some(resolved.plan)),
            engine: OnceLock::new(),
        }
    }

    /// The engine, and whether this call built it: the first caller builds
    /// with `opts`, concurrent first callers wait for that one build, and
    /// every later caller reuses it.
    fn engine(&self, opts: EngineOptions) -> (&Compiled, bool) {
        let mut built = false;
        let engine = self.engine.get_or_init(|| {
            built = true;
            let plan = self.plan.lock().unwrap().take();
            Compiled::with_options(plan.expect("only the engine build takes the plan"), opts)
        });
        (engine, built)
    }
}

/// One submitted sweep.
struct Job {
    id: u64,
    /// The request's space, shared with every retained job that asked for an
    /// equal one.
    space: Arc<Prepared>,
    progress: Arc<SweepProgress>,
    state: Mutex<JobState>,
    state_cv: Condvar,
}

impl Job {
    /// Render the job as a JSON object for listings and result fetches.
    fn to_json(&self) -> String {
        let state = self.state.lock().unwrap();
        match &*state {
            JobState::Done(body) => body.clone(),
            other => {
                let mut out = String::from("{");
                json_num(&mut out, "id", self.id as f64);
                out.push(',');
                json_str(&mut out, "label", &self.space.label);
                out.push(',');
                json_str(&mut out, "state", other.name());
                if let JobState::Failed(err) = other {
                    out.push(',');
                    json_str(&mut out, "error", err);
                }
                if matches!(other, JobState::Running) {
                    let snap = self.progress.snapshot();
                    out.push(',');
                    json_num(&mut out, "chunks_done", snap.chunks_done as f64);
                    out.push(',');
                    json_num(&mut out, "chunks_total", snap.chunks_total as f64);
                    out.push(',');
                    json_num(&mut out, "tuples_decided", snap.tuples_decided as f64);
                }
                out.push('}');
                out
            }
        }
    }

    /// One progress-stream line: state plus the live counters.
    fn progress_line(&self) -> String {
        let snap = self.progress.snapshot();
        let state = self.state.lock().unwrap();
        let mut out = String::from("{");
        json_num(&mut out, "id", self.id as f64);
        out.push(',');
        json_str(&mut out, "state", state.name());
        out.push(',');
        json_num(&mut out, "chunks_done", snap.chunks_done as f64);
        out.push(',');
        json_num(&mut out, "chunks_total", snap.chunks_total as f64);
        out.push(',');
        json_num(&mut out, "tuples_decided", snap.tuples_decided as f64);
        out.push_str("}\n");
        out
    }

    fn set_state(&self, next: JobState) {
        *self.state.lock().unwrap() = next;
        self.state_cv.notify_all();
    }

    /// Block until the job reaches a terminal state, then return its JSON.
    fn wait_terminal(&self) -> String {
        let mut state = self.state.lock().unwrap();
        while !state.is_terminal() {
            state = self.state_cv.wait(state).unwrap();
        }
        drop(state);
        self.to_json()
    }
}

/// Jobs the table retains. Past this, registering a job evicts the oldest
/// *terminal* ones (their result JSON is the bulk of the daemon's memory); a
/// queued or running job is never evicted, and an evicted id answers 404.
const MAX_JOBS: usize = 64;

/// Idle acceptors the pool keeps: the daemon starts this many, and one that
/// finishes a connection while this many others are idle exits.
const IDLE_ACCEPTORS: usize = 2;

/// The acceptor pool's counts (see [`acceptor_loop`]), read by `/healthz`.
#[derive(Default)]
struct AcceptorCounts {
    /// Acceptor threads alive.
    live: usize,
    /// Of those, the ones in `accept` or on their way back to it.
    idle: usize,
    /// Acceptor threads started over the daemon's life, the first ones
    /// included.
    spawned: u64,
}

/// Everything the acceptors and executors share.
struct ServerState {
    cfg: ServiceConfig,
    /// The realized bind address (the shutdown wake-up connects to it).
    addr: SocketAddr,
    resolver: SpaceResolver,
    /// Prepared spaces by the request's `"space"` object, compared with
    /// `==`. Jobs own the entries, so one dies with the last retained job
    /// that uses it ([`MAX_JOBS`] bounds the table too); dead ones are
    /// pruned when an entry is inserted.
    spaces: Mutex<Vec<(JsonValue, Weak<Prepared>)>>,
    /// Lifetime engine builds and reuses, for `/cache/stats`.
    engine_builds: AtomicU64,
    engine_reuses: AtomicU64,
    cache: SweepCache<FingerprintVisitor>,
    /// The cache's `stores` count at its last write to `cfg.cache_path`: a
    /// write that would store nothing new is skipped.
    persisted_stores: Mutex<u64>,
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    acceptors: Mutex<AcceptorCounts>,
    /// Signalled when an idle acceptor exits and when the stop is flagged:
    /// what [`SweepService::wait`] blocks on.
    acceptors_cv: Condvar,
}

impl ServerState {
    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs.lock().unwrap().get(&id).cloned()
    }

    /// The prepared entry for a request's `"space"` object: the live one a
    /// retained job holds, or a new one from the resolver.
    fn prepare(&self, space: &JsonValue) -> Result<Arc<Prepared>, String> {
        let find = |spaces: &[(JsonValue, Weak<Prepared>)]| {
            spaces.iter().find(|(key, _)| key == space).and_then(|(_, entry)| entry.upgrade())
        };
        if let Some(found) = find(&self.spaces.lock().unwrap()) {
            return Ok(found);
        }
        // Resolved outside the lock. An equal space that was inserted
        // meanwhile wins, so its engine is still built once.
        let fresh = Arc::new(Prepared::new((self.resolver)(space)?));
        let mut spaces = self.spaces.lock().unwrap();
        if let Some(found) = find(&spaces) {
            return Ok(found);
        }
        spaces.retain(|(_, entry)| entry.strong_count() > 0);
        spaces.push((space.clone(), Arc::downgrade(&fresh)));
        Ok(fresh)
    }

    /// `/cache/stats`: the cache's counters, then the engine counters.
    fn stats_json(&self) -> String {
        let engines = self
            .spaces
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, entry)| entry.upgrade().is_some_and(|p| p.engine.get().is_some()))
            .count();
        let mut out = self.cache.stats().to_json();
        out.pop(); // reopen the cache's object
        out.push(',');
        json_num(&mut out, "engines", engines as f64);
        out.push(',');
        json_num(&mut out, "engine_builds", self.engine_builds.load(Ordering::Relaxed) as f64);
        out.push(',');
        json_num(&mut out, "engine_reuses", self.engine_reuses.load(Ordering::Relaxed) as f64);
        out.push('}');
        out
    }

    /// Write the cache file, unless nothing was stored since the last write.
    fn persist(&self) -> Result<(), String> {
        let mut persisted = self.persisted_stores.lock().unwrap();
        let stores = self.cache.stats().stores;
        if stores != *persisted {
            self.cache.persist()?;
            *persisted = stores;
        }
        Ok(())
    }

    /// Add a job to the table, keeping it within [`MAX_JOBS`].
    fn register(&self, job: Arc<Job>) {
        let mut jobs = self.jobs.lock().unwrap();
        jobs.insert(job.id, job);
        let excess = jobs.len().saturating_sub(MAX_JOBS);
        let evict: Vec<u64> = jobs
            .iter()
            .filter(|(_, job)| job.state.lock().unwrap().is_terminal())
            .map(|(id, _)| *id)
            .take(excess)
            .collect();
        for id in evict {
            jobs.remove(&id);
        }
    }

    /// Flag the stop and wake every thread that could be blocked on it: idle
    /// executors through the queue condvar, every idle acceptor through a
    /// throwaway loopback connection to its own listener.
    fn request_shutdown(&self) {
        // Raised under the queue lock, so an executor is either still ahead
        // of its flag check or already waiting when the notify lands.
        let queue = self.queue.lock().unwrap();
        self.shutdown.store(true, Ordering::SeqCst);
        drop(queue);
        self.queue_cv.notify_all();
        // Read under the pool lock, after the flag: an acceptor that turned
        // idle before is counted, and one that would turn idle after sees
        // the flag and exits instead. A busy one exits when it finishes.
        let idle = {
            let pool = self.acceptors.lock().unwrap();
            self.acceptors_cv.notify_all();
            pool.idle
        };
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // One connection per idle acceptor: each takes one, sees the flag
        // and exits without serving it.
        for _ in 0..idle {
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        }
    }

    /// `/healthz`: the retained job count, then the acceptor pool's counts.
    fn health_json(&self) -> String {
        let jobs = self.jobs.lock().unwrap().len();
        let pool = self.acceptors.lock().unwrap();
        let mut out = String::from("{\"ok\":true,");
        json_num(&mut out, "jobs", jobs as f64);
        out.push(',');
        json_num(&mut out, "acceptors", pool.live as f64);
        out.push(',');
        json_num(&mut out, "idle", pool.idle as f64);
        out.push(',');
        json_num(&mut out, "acceptors_spawned", pool.spawned as f64);
        out.push('}');
        out
    }
}

/// A running daemon: the realized bind address plus join handles for its
/// executors (acceptors are detached; [`SweepService::wait`] waits for the
/// idle ones through the pool's counts). Dropping the handle without
/// calling [`SweepService::wait`] detaches every thread (they still honor
/// `POST /shutdown`).
pub struct SweepService {
    addr: SocketAddr,
    state: Arc<ServerState>,
    executors: Vec<JoinHandle<()>>,
}

impl SweepService {
    /// Bind, spawn the executor pool and the first acceptors, and return.
    ///
    /// Fails if the address cannot be bound or (when `cache_path` is set)
    /// the existing cache file is malformed.
    pub fn start(cfg: ServiceConfig, resolver: SpaceResolver) -> Result<SweepService, String> {
        let cache = match &cfg.cache_path {
            Some(path) => SweepCache::with_path(path, &FingerprintVisitor::new)?,
            None => SweepCache::new(),
        };
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;

        let executors = cfg.executors.max(1);
        let state = Arc::new(ServerState {
            cfg,
            addr,
            resolver,
            spaces: Mutex::new(Vec::new()),
            engine_builds: AtomicU64::new(0),
            engine_reuses: AtomicU64::new(0),
            cache,
            persisted_stores: Mutex::new(0),
            jobs: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            acceptors: Mutex::new(AcceptorCounts::default()),
            acceptors_cv: Condvar::new(),
        });

        let executor_joins: Vec<JoinHandle<()>> = (0..executors)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("sweep-exec-{i}"))
                    .spawn(move || executor_loop(&state))
                    .map_err(|e| format!("cannot spawn executor: {e}"))
            })
            .collect::<Result<_, _>>()?;

        let listener = Arc::new(listener);
        let mut pool = state.acceptors.lock().unwrap();
        for _ in 0..IDLE_ACCEPTORS {
            spawn_acceptor(&state, &listener, &mut pool)
                .map_err(|e| format!("cannot spawn acceptor: {e}"))?;
        }
        drop(pool);

        Ok(SweepService { addr, state, executors: executor_joins })
    }

    /// The realized bind address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request a graceful stop, exactly like `POST /shutdown`.
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Block until a shutdown was requested (via [`SweepService::shutdown`]
    /// or `POST /shutdown`), every idle acceptor and every executor has
    /// exited, then persist the cache one final time if anything was stored
    /// since the last write. An acceptor still serving a connection is not
    /// waited for: it exits when that connection ends.
    pub fn wait(self) -> Result<(), String> {
        let state = &self.state;
        let pool = state.acceptors.lock().unwrap();
        let running = |pool: &mut AcceptorCounts| {
            !state.shutdown.load(Ordering::SeqCst) || pool.idle > 0
        };
        drop(state.acceptors_cv.wait_while(pool, running).unwrap());
        for join in self.executors {
            join.join().map_err(|_| "executor thread panicked".to_string())?;
        }
        self.state.persist()
    }
}

/// Start one acceptor on `listener`. It is counted idle from the start,
/// since it goes straight into `accept`; the caller holds the pool lock, so
/// the thread cannot update the counts before this does.
fn spawn_acceptor(
    state: &Arc<ServerState>,
    listener: &Arc<TcpListener>,
    pool: &mut AcceptorCounts,
) -> std::io::Result<()> {
    let (state, listener) = (Arc::clone(state), Arc::clone(listener));
    std::thread::Builder::new()
        .name("sweep-acceptor".to_string())
        .spawn(move || acceptor_loop(&listener, &state))?;
    pool.live += 1;
    pool.idle += 1;
    pool.spawned += 1;
    Ok(())
}

/// One acceptor: block in `accept`, serve the connection on this thread,
/// accept again. The pool sizes itself: an acceptor that takes a connection
/// while no other is idle first starts a replacement, so a stalled client
/// never stops the daemon accepting, and one that finishes while
/// [`IDLE_ACCEPTORS`] others are idle exits. Steady sequential traffic
/// therefore starts no thread. After a stop is flagged an acceptor exits
/// instead of serving or accepting again; the wake-up connections of
/// [`ServerState::request_shutdown`] unblock the idle ones.
fn acceptor_loop(listener: &Arc<TcpListener>, state: &Arc<ServerState>) {
    loop {
        let accepted = listener.accept();
        let mut pool = state.acceptors.lock().unwrap();
        if state.shutdown.load(Ordering::SeqCst) {
            pool.idle -= 1;
            pool.live -= 1;
            state.acceptors_cv.notify_all();
            return;
        }
        let Ok((mut stream, _)) = accepted else {
            // Transient (e.g. descriptor exhaustion): back off and retry,
            // counted idle throughout.
            drop(pool);
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        pool.idle -= 1;
        if pool.idle == 0 {
            // Should the spawn fail, connections wait in the backlog until
            // an acceptor is free.
            let _ = spawn_acceptor(state, listener, &mut pool);
        }
        drop(pool);
        handle_connection(&mut stream, state);
        let mut pool = state.acceptors.lock().unwrap();
        let stay = !state.shutdown.load(Ordering::SeqCst) && pool.idle < IDLE_ACCEPTORS;
        if stay {
            pool.idle += 1;
        } else {
            pool.live -= 1;
        }
        drop(pool);
        // Closed only now: a client that reads to EOF and comes straight back
        // finds this acceptor counted idle, not a reason to spawn.
        drop(stream);
        if !stay {
            return;
        }
    }
}

/// Executor loop: pull job ids off the queue, run each sweep through the
/// cache, publish the result, persist the cache.
fn executor_loop(state: &Arc<ServerState>) {
    loop {
        let id = {
            let mut queue = state.queue.lock().unwrap();
            loop {
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = state.queue_cv.wait(queue).unwrap();
            }
        };
        let Some(job) = state.job(id) else { continue };
        run_job(state, &job);
    }
}

/// Run one job to a terminal state.
fn run_job(state: &ServerState, job: &Job) {
    job.set_state(JobState::Running);
    let opts = ParallelOptions {
        chunk_count: state.cfg.chunk_count,
        progress: Some(Arc::clone(&job.progress)),
        engine: EngineOptions {
            // The daemon serves programmatic clients; linting belongs to
            // the space author's workflow, not the request path.
            lint: LintGate::Allow,
            ..EngineOptions::default()
        },
        ..ParallelOptions::new(state.cfg.threads)
    };
    let space = &job.space;
    // The clock starts before the engine is fetched, so the job that builds
    // it reports the build in its `elapsed_s`.
    let t_start = Instant::now();
    let (engine, built) = space.engine(opts.engine);
    let counter = if built { &state.engine_builds } else { &state.engine_reuses };
    counter.fetch_add(1, Ordering::Relaxed);
    let run = run_cached_on(
        engine,
        space.plan_hash,
        t_start,
        &opts,
        &state.cache,
        &space.scope,
        FingerprintVisitor::new,
    );
    match run {
        Ok((outcome, report)) => {
            let mut out = String::from("{");
            json_num(&mut out, "id", job.id as f64);
            out.push(',');
            json_str(&mut out, "label", &space.label);
            out.push(',');
            json_str(&mut out, "state", "done");
            out.push(',');
            json_num(&mut out, "survivors", report.survivors as f64);
            out.push(',');
            json_num(&mut out, "elapsed_s", report.elapsed.as_secs_f64());
            out.push(',');
            json_num(&mut out, "cache_hits", report.cache_hits as f64);
            out.push(',');
            json_num(&mut out, "cache_misses", report.cache_misses as f64);
            out.push_str(",\"fingerprint\":");
            out.push_str(&outcome.visitor.save_state());
            out.push_str(",\"report\":");
            out.push_str(&report.to_json());
            out.push('}');
            job.set_state(JobState::Done(out));
            if let Err(e) = state.persist() {
                eprintln!("repro serve: cache persist failed: {e}");
            }
        }
        Err(e) => job.set_state(JobState::Failed(format!("sweep failed: {e}"))),
    }
}

/// Serve one connection: read a single request and dispatch it. A handler
/// that fails, or panics (say in the [`SpaceResolver`]), before sending a
/// byte answers 500; the panic is caught here, on the acceptor, so it costs
/// the client its answer and never the acceptor.
fn handle_connection(stream: &mut TcpStream, state: &Arc<ServerState>) {
    // Socket timeouts in both directions, so a silent or undraining client
    // cannot pin this acceptor indefinitely.
    if configure_stream(stream).is_err() {
        return;
    }
    let mut reply = Reply::new(stream);
    let error = match catch_unwind(AssertUnwindSafe(|| serve(&mut reply, state))) {
        Ok(Ok(())) => return,
        Ok(Err(e)) => e,
        Err(_) => "request handler panicked".to_string(),
    };
    // Once a head is out, a second status line would only corrupt it.
    if !reply.started() {
        let _ = write_error(&mut reply, 500, &error);
    }
}

/// Read the request and route it; a malformed one answers 400.
fn serve(reply: &mut Reply<'_>, state: &Arc<ServerState>) -> Result<(), String> {
    match read_request(reply.stream) {
        Ok(Some(request)) => dispatch(reply, &request, state),
        Ok(None) => Ok(()),
        Err(e) => write_error(reply, 400, &e).map_err(|e| format!("write response: {e}")),
    }
}

/// Route one parsed request.
fn dispatch(
    stream: &mut impl Write,
    request: &Request,
    state: &Arc<ServerState>,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("write response: {e}");
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => write_json(stream, 200, &state.health_json()).map_err(io),
        ("POST", ["sweeps"]) => submit(stream, request, state),
        ("GET", ["sweeps"]) => {
            let jobs = state.jobs.lock().unwrap();
            let mut body = String::from("{\"jobs\":[");
            for (i, job) in jobs.values().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&job.to_json());
            }
            body.push_str("]}");
            drop(jobs);
            write_json(stream, 200, &body).map_err(io)
        }
        ("GET", ["sweeps", id]) => match parse_id(id) {
            Some(id) => match state.job(id) {
                Some(job) => write_json(stream, 200, &job.to_json()).map_err(io),
                None => write_error(stream, 404, &format!("no sweep {id}")).map_err(io),
            },
            None => write_error(stream, 400, "sweep id must be an integer").map_err(io),
        },
        ("GET", ["sweeps", id, "progress"]) => match parse_id(id) {
            Some(id) => match state.job(id) {
                Some(job) => stream_progress(stream, &job),
                None => write_error(stream, 404, &format!("no sweep {id}")).map_err(io),
            },
            None => write_error(stream, 400, "sweep id must be an integer").map_err(io),
        },
        ("GET", ["cache", "stats"]) => write_json(stream, 200, &state.stats_json()).map_err(io),
        ("POST", ["shutdown"]) => {
            let reply = write_json(stream, 200, "{\"ok\":true,\"shutting_down\":true}");
            state.request_shutdown();
            reply.map_err(io)
        }
        ("GET" | "POST", _) => {
            write_error(stream, 404, &format!("no route for {}", request.path)).map_err(io)
        }
        _ => write_error(stream, 405, &format!("method {} not allowed", request.method))
            .map_err(io),
    }
}

fn parse_id(s: &str) -> Option<u64> {
    s.parse::<u64>().ok()
}

/// `POST /sweeps`: find or resolve the space, enqueue a job, answer `202`
/// with the queued job — or, with `"wait": true`, block until terminal and
/// answer `200` with the full result.
fn submit(
    stream: &mut impl Write,
    request: &Request,
    state: &Arc<ServerState>,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("write response: {e}");
    if state.shutdown.load(Ordering::SeqCst) {
        return write_error(stream, 503, "service is shutting down").map_err(io);
    }
    let body = match request.body_str() {
        Ok(body) => body,
        Err(e) => return write_error(stream, 400, &e).map_err(io),
    };
    let doc = match JsonValue::parse(body) {
        Ok(doc) => doc,
        Err(e) => return write_error(stream, 400, &format!("malformed JSON: {e}")).map_err(io),
    };
    let Some(space) = doc.get("space") else {
        return write_error(stream, 400, "request must have a `space` object").map_err(io);
    };
    let prepared = match state.prepare(space) {
        Ok(prepared) => prepared,
        Err(e) => return write_error(stream, 400, &e).map_err(io),
    };
    let wait = doc.get("wait").and_then(JsonValue::as_bool).unwrap_or(false);

    let id = state.next_id.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(Job {
        id,
        space: prepared,
        progress: Arc::new(SweepProgress::default()),
        state: Mutex::new(JobState::Queued),
        state_cv: Condvar::new(),
    });
    state.register(Arc::clone(&job));
    state.queue.lock().unwrap().push_back(id);
    state.queue_cv.notify_one();

    if wait {
        write_json(stream, 200, &job.wait_terminal()).map_err(io)
    } else {
        write_json(stream, 202, &job.to_json()).map_err(io)
    }
}

/// `GET /sweeps/{id}/progress`: chunked JSON lines at ~25 ms cadence while
/// the job runs, then one terminal line with the full result as soon as the
/// job finishes.
fn stream_progress(stream: &mut impl Write, job: &Job) -> Result<(), String> {
    let io = |e: std::io::Error| format!("stream progress: {e}");
    let mut writer = ChunkedWriter::begin(stream, 200, "application/json").map_err(io)?;
    let pause = Duration::from_millis(25);
    let mut state = job.state.lock().unwrap();
    while !state.is_terminal() {
        drop(state);
        writer.chunk(&job.progress_line()).map_err(io)?;
        state = job
            .state_cv
            .wait_timeout_while(job.state.lock().unwrap(), pause, |s| !s.is_terminal())
            .unwrap()
            .0;
    }
    drop(state);
    let mut terminal = job.to_json();
    terminal.push('\n');
    writer.chunk(&terminal).map_err(io)?;
    writer.end().map_err(io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::var;
    use beast_core::plan::{Plan, PlanOptions};
    use beast_core::space::Space;

    /// Resolves `{"cap": N}` into a small two-loop space and counts its
    /// calls; with a barrier, every call waits there for the others. It
    /// panics on `{"panic": true}`.
    fn toy_resolver(calls: Arc<AtomicUsize>, barrier: Option<Arc<Barrier>>) -> SpaceResolver {
        Arc::new(move |doc: &JsonValue| {
            calls.fetch_add(1, Ordering::SeqCst);
            if let Some(barrier) = &barrier {
                barrier.wait();
            }
            if doc.get("panic").is_some() {
                panic!("the toy resolver was asked to panic");
            }
            let cap = doc.get("cap").and_then(JsonValue::as_i64).ok_or("space needs `cap`")?;
            let space = Space::builder("toy")
                .constant("cap", cap)
                .range("a", 1, 17)
                .range("b", 1, 17)
                .derived("ab", var("a") * var("b"))
                .constraint("over", ConstraintClass::Hard, var("ab").gt(var("cap")))
                .build()
                .unwrap();
            let plan = Plan::new(&space, PlanOptions::default()).unwrap();
            Ok(ResolvedSpace {
                label: format!("toy cap {cap}"),
                scope: format!("toy|cap={cap}"),
                plan: LoweredPlan::new(&plan).unwrap(),
            })
        })
    }

    fn start(executors: usize, resolver: SpaceResolver) -> SweepService {
        let cfg =
            ServiceConfig { threads: 1, executors, chunk_count: 4, ..ServiceConfig::default() };
        SweepService::start(cfg, resolver).unwrap()
    }

    /// One request on its own connection: (status, body).
    fn http(service: &SweepService, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(service.addr()).unwrap();
        write!(stream, "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len())
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
        (status, raw.split_once("\r\n\r\n").unwrap().1.to_string())
    }

    fn sweep(service: &SweepService, cap: i64) -> u16 {
        let body = format!("{{\"space\":{{\"cap\":{cap}}},\"wait\":true}}");
        http(service, "POST", "/sweeps", &body).0
    }

    /// `(engines, engine_builds, engine_reuses)` from `/cache/stats`.
    fn engine_counters(service: &SweepService) -> (u64, u64, u64) {
        let stats = JsonValue::parse(&http(service, "GET", "/cache/stats", "").1).unwrap();
        let num = |key: &str| stats.get(key).and_then(JsonValue::as_u64).unwrap();
        (num("engines"), num("engine_builds"), num("engine_reuses"))
    }

    /// `(acceptors, idle, acceptors_spawned)` from `/healthz`.
    fn acceptor_counts(service: &SweepService) -> (u64, u64, u64) {
        let health = JsonValue::parse(&http(service, "GET", "/healthz", "").1).unwrap();
        let num = |key: &str| health.get(key).and_then(JsonValue::as_u64).unwrap();
        (num("acceptors"), num("idle"), num("acceptors_spawned"))
    }

    fn stop(service: SweepService) {
        service.shutdown();
        service.wait().unwrap();
    }

    #[test]
    fn an_unresolvable_space_is_refused_every_time_and_builds_nothing() {
        let calls = Arc::new(AtomicUsize::new(0));
        let service = start(1, toy_resolver(Arc::clone(&calls), None));
        for _ in 0..2 {
            let (status, body) =
                http(&service, "POST", "/sweeps", "{\"space\":{\"cup\":3},\"wait\":true}");
            assert_eq!(status, 400, "{body}");
        }
        assert_eq!(calls.load(Ordering::SeqCst), 2, "a resolver error is not kept");
        assert_eq!(engine_counters(&service), (0, 0, 0));
        stop(service);
    }

    #[test]
    fn concurrent_first_requests_for_one_space_build_one_engine() {
        let calls = Arc::new(AtomicUsize::new(0));
        // Both requests are inside the resolver before either inserts its
        // entry, so the second insert finds the first one's.
        let barrier = Arc::new(Barrier::new(2));
        let service = start(2, toy_resolver(Arc::clone(&calls), Some(barrier)));
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2).map(|_| scope.spawn(|| sweep(&service, 40))).collect();
            for client in clients {
                assert_eq!(client.join().unwrap(), 200);
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(engine_counters(&service), (1, 1, 1));
        stop(service);
    }

    #[test]
    fn a_space_whose_jobs_were_all_evicted_is_resolved_and_built_again() {
        let calls = Arc::new(AtomicUsize::new(0));
        let service = start(1, toy_resolver(Arc::clone(&calls), None));
        assert_eq!(sweep(&service, 40), 200);
        for _ in 0..MAX_JOBS {
            assert_eq!(sweep(&service, 50), 200);
        }
        // The last of those evicted the cap-40 job, and its entry with it.
        assert_eq!(engine_counters(&service), (1, 2, MAX_JOBS as u64 - 1));
        assert_eq!(sweep(&service, 40), 200);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(engine_counters(&service), (2, 3, MAX_JOBS as u64 - 1));
        stop(service);
    }

    #[test]
    fn a_panicking_resolver_answers_500_and_the_acceptor_serves_on() {
        let service = start(1, toy_resolver(Arc::new(AtomicUsize::new(0)), None));
        let before = acceptor_counts(&service);
        assert_eq!(before, (2, 1, 2), "two acceptors, one of them answering");
        let (status, body) =
            http(&service, "POST", "/sweeps", "{\"space\":{\"panic\":true},\"wait\":true}");
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("request handler panicked"), "{body}");
        assert_eq!(sweep(&service, 40), 200);
        assert_eq!(acceptor_counts(&service), before);
        stop(service);
    }
}
