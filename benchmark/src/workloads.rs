//! The six workloads and the loop that measures them.
//!
//! Each workload drives the product the way its users do — the `repro`
//! binary as a child process, real HTTP against a spawned `repro serve`, the
//! public `beast-search` API — from one harness thread. A run is a few
//! *rounds*; each round sets the workload up from scratch (timed as
//! `setup_s`, warm-up op included), then measures ops until its share of the
//! run's seconds is spent.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{ChildStdout, Command};
use std::time::Instant;

use beast_core::ir::{LStep, LoweredPlan};
use beast_engine::checkpoint::JsonValue;
use beast_search::{DirectSampler, Sampler};
use rand::rngs::StdRng;
use rand::Rng;

use crate::http::exchange;
use crate::inputs::{check, rng, serve_variants, shuffle, Expected, Reference, Sizes, Variant};
use crate::stats::quantile;
use crate::sys::{proc_cpu_s, self_cpu_s, self_hwm_kb, Proc};
use crate::trace::Tracer;

/// The workloads, in BENCHMARK.json order (which records why each exists).
pub const WORKLOADS: [&str; 6] = [
    "sweep-inproc",
    "sweep-distribute",
    "sweep-native",
    "serve-cold",
    "serve-warm",
    "count-sample",
];

/// Set-ups (rounds) per end-to-end run for the workloads whose round length
/// is a share of the run's seconds; `setup_s` is taken over them.
pub const ROUNDS: u32 = 5;

/// The scheduler grid every sweep is pinned to, so tiers are comparable.
const CHUNKS: &str = "32";

/// Threads per sweep, worker processes per distributed sweep, threads per
/// daemon job. One, not the VM's two: this class of VM gives its second vCPU
/// a core of its own only some of the time — measured, the same
/// `repro sweep 32 --threads 2` took 0.55 s for two minutes on end (no
/// speed-up over one thread) and then 0.31 s — so a two-thread op's
/// wall-clock says which of the two states the host was in, not what the
/// product costs. One-thread ops stayed within 3 % through both. Parallel
/// dispatch is measured by the traced run's `parallel.*` probes instead.
const PARALLELISM: &str = "1";

/// Everything a workload needs from the run.
pub struct Env {
    /// The built `repro` binary.
    pub repro: PathBuf,
    /// Harness-owned scratch directory inside the build directory.
    pub work: PathBuf,
    /// Threads of the traced run's parallel-dispatch probes: `min(2, nproc)`.
    pub probe_threads: usize,
    /// `--quick`: every input on `reduced(16)`.
    pub quick: bool,
    pub sizes: Sizes,
    pub expected: Expected,
    pub seed: u64,
}

/// Counters a workload's own ops reported during a traced run, by per-layer
/// metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// One timed op.
pub struct Sample {
    /// Which input the op ran on. The statistic is taken per input and
    /// averaged over inputs, so inputs of different cost never share a
    /// quantile.
    pub input: usize,
    /// Wall-clock seconds, clocked around the process / HTTP exchange / API
    /// call only (verification is outside).
    pub seconds: f64,
    /// User + system CPU seconds the product spent on the op.
    pub cpu_s: f64,
}

/// What one call of [`Workload::unit`] did: a sample per op that succeeded,
/// a message per op that failed.
#[derive(Default)]
pub struct Unit {
    pub samples: Vec<Sample>,
    pub failures: Vec<String>,
}

impl Unit {
    /// A failed warm-up op does not abort the run: the timed ops that follow
    /// fail the same way and are counted.
    fn warn_if_failed(self, what: &str) {
        for failure in self.failures {
            eprintln!("warning: {what} failed: {failure}");
        }
    }
}

pub trait Workload {
    /// Bring the workload to the state just before its first timed op,
    /// warm-up op included. An error here (a product process that cannot be
    /// started, not a wrong output) aborts the run.
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// Run and verify one unit: one op, or one `serve-cold` batch.
    fn unit(&mut self, tr: &mut Tracer) -> Unit;
    /// A round is exactly one unit (a `serve-cold` batch needs a fresh daemon).
    fn one_unit_per_round(&self) -> bool {
        false
    }
    /// End the round: stop what `setup` started.
    fn teardown(&mut self) -> Result<(), String>;
    /// Highest resident set of any product process so far, KiB.
    fn peak_rss_kb(&self) -> u64;
    fn counts(&self) -> &Counts;
}

pub fn make<'e>(name: &str, env: &'e Env) -> Result<Box<dyn Workload + 'e>, String> {
    Ok(match name {
        "sweep-inproc" => Box::new(Cli::new(env, Tier::Inproc)?),
        "sweep-distribute" => Box::new(Cli::new(env, Tier::Distribute)?),
        "sweep-native" => Box::new(Cli::new(env, Tier::Native)?),
        "serve-cold" => Box::new(Serve::new(env, false)?),
        "serve-warm" => Box::new(Serve::new(env, true)?),
        "count-sample" => Box::new(CountSample::new(env)?),
        other => return Err(format!("unknown workload `{other}` (one of {WORKLOADS:?})")),
    })
}

/// What one run of one workload measured.
pub struct Measured {
    /// Seconds per set-up, one per round.
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
    pub peak_rss_kb: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

/// The quantile every timing is reported at. This class of VM has a slow
/// mode — a neighbour on the sibling hardware thread, for seconds at a time —
/// that only ever *adds* time, by up to 1.9× for integer loops and much less
/// for process spawns, so neither the median nor any rescaling by a
/// calibration loop is steady from run to run; the low decile tracks the
/// undisturbed machine. (Measured over six runs of `count-sample`: spread of
/// the median 28 %, of the low decile 4.5 %.) The traced run reports the
/// median beside it as `workload.op_median_s`.
pub const TIMING_QUANTILE: f64 = 0.10;

impl Measured {
    /// The `p`-quantile of `field` per input, averaged over the inputs.
    pub fn per_op(&self, p: f64, field: impl Fn(&Sample) -> f64) -> f64 {
        let mut by_input: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for s in &self.samples {
            by_input.entry(s.input).or_default().push(field(s));
        }
        by_input.values().map(|v| quantile(v, p)).sum::<f64>() / by_input.len() as f64
    }
}

/// Measure `w` for about `seconds` seconds, split into `rounds` rounds.
pub fn measure(
    w: &mut dyn Workload,
    seconds: f64,
    rounds: u32,
    tr: &mut Tracer,
) -> Result<Measured, String> {
    // Fault hook for the harness's own tests: panic after N units, so the
    // tests can check that no product process survives an unwinding harness.
    let panic_after: Option<u64> = std::env::var("BEAST_BENCH_PANIC_AFTER_OPS")
        .ok()
        .and_then(|v| v.parse().ok());

    let mut m = Measured {
        setup_s: Vec::new(),
        samples: Vec::new(),
        peak_rss_kb: 0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let round_budget = seconds / f64::from(rounds);
    let mut measured = 0.0;
    let mut units = 0u64;
    while measured < seconds * 0.999 {
        let t_setup = Instant::now();
        let id = tr.begin("setup");
        w.setup(tr)?;
        tr.end(id);
        m.setup_s.push(t_setup.elapsed().as_secs_f64());

        let t_round = Instant::now();
        loop {
            tr.next_op();
            let unit = w.unit(tr);
            units += 1;
            if panic_after == Some(units) {
                panic!("BEAST_BENCH_PANIC_AFTER_OPS={units}: deliberate harness panic");
            }
            m.attempted += (unit.samples.len() + unit.failures.len()) as u64;
            m.failed += unit.failures.len() as u64;
            m.samples.extend(unit.samples);
            m.failures.extend(
                unit.failures
                    .into_iter()
                    .take(4usize.saturating_sub(m.failures.len())),
            );
            if w.one_unit_per_round() || t_round.elapsed().as_secs_f64() >= round_budget {
                break;
            }
        }
        measured += t_round.elapsed().as_secs_f64();
        w.teardown()?;
    }
    m.peak_rss_kb = w.peak_rss_kb();
    Ok(m)
}

// ---------------------------------------------------------------------------
// sweep-inproc / sweep-distribute / sweep-native: `repro` as a child process
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Tier {
    Inproc,
    Distribute,
    Native,
}

struct Cli<'e> {
    env: &'e Env,
    tier: Tier,
    variant: Variant,
    want: Reference,
    rss_kb: u64,
    counts: Counts,
}

impl<'e> Cli<'e> {
    fn new(env: &'e Env, tier: Tier) -> Result<Cli<'e>, String> {
        let variant = Variant::cli(env.sizes.sweep_dim);
        let want = env.expected.get(&variant)?;
        Ok(Cli {
            env,
            tier,
            variant,
            want,
            rss_kb: 0,
            counts: Counts::new(),
        })
    }

    fn native_cache(&self) -> PathBuf {
        self.env.work.join("native-cache")
    }

    fn command(&self, report: Option<&PathBuf>) -> Command {
        let mut cmd = Command::new(&self.env.repro);
        let dim = self.variant.dim.to_string();
        match self.tier {
            // CLI defaults: adaptive schedule, so group dispatch and no lanes.
            Tier::Inproc => cmd.args(["sweep", &dim, "--threads", PARALLELISM]),
            Tier::Distribute => cmd.args(["distribute", &dim, "--workers", PARALLELISM]),
            Tier::Native => cmd
                .args([
                    "sweep",
                    &dim,
                    "--engine",
                    "native",
                    "--threads",
                    PARALLELISM,
                ])
                .env("BEAST_NATIVE_CACHE_DIR", self.native_cache()),
        };
        cmd.args(["--chunks", CHUNKS]);
        if let Some(path) = report {
            cmd.arg("--json").arg(path);
        }
        cmd
    }

    /// Check one op's stdout against the reference and the fault-free
    /// contract of its tier.
    fn verify(&self, code: Option<i32>, stdout: &str) -> Result<(), String> {
        if code != Some(0) {
            return Err(format!("repro exited with {code:?}"));
        }
        let line = stdout
            .lines()
            .find(|l| l.starts_with("survivors: "))
            .ok_or("no `survivors:` line in repro output")?;
        let mut words = line.split_whitespace();
        let survivors: u64 = words
            .nth(1)
            .and_then(|w| w.parse().ok())
            .ok_or("bad survivors")?;
        let fingerprint = words
            .nth(1)
            .and_then(|w| u64::from_str_radix(w, 16).ok())
            .ok_or("bad fingerprint")?;
        check(&self.variant, self.want, survivors, fingerprint)?;
        let has = |needle: &str| stdout.lines().any(|l| l.contains(needle));
        match self.tier {
            Tier::Inproc => Ok(()),
            Tier::Native if has("native tier:") && has("(0 fallback)") => Ok(()),
            Tier::Native => Err("native tier fell back to the in-process engine".to_string()),
            Tier::Distribute if has("0 restart(s), 0 shard retry(ies), 0 heartbeat timeout(s)") => {
                Ok(())
            }
            Tier::Distribute => Err("worker restart, retry or timeout on a fault-free run".into()),
        }
    }

    fn run_once(&mut self, tr: &mut Tracer) -> Unit {
        let report = tr.on().then(|| self.env.work.join("report.json"));
        let mut cmd = self.command(report.as_ref());
        let op = tr.begin("op");
        let t = Instant::now();
        let spawn = tr.begin("spawn");
        let spawned = Proc::spawn(&mut cmd);
        tr.end(spawn);
        let wait = tr.begin("run+wait");
        let finished = spawned.and_then(|mut p| p.output());
        tr.end(wait);
        let seconds = t.elapsed().as_secs_f64();
        tr.end(op);

        let verdict = match finished {
            Ok((stdout, exit)) => {
                self.rss_kb = self.rss_kb.max(exit.maxrss_kb);
                tr.time("verify", || self.verify(exit.code, &stdout))
                    .map(|()| exit.cpu_s)
            }
            Err(e) => Err(format!("cannot run repro: {e}")),
        };
        if let (Ok(_), Some(path)) = (&verdict, &report) {
            let doc = std::fs::read_to_string(path)
                .ok()
                .and_then(|s| JsonValue::parse(&s).ok());
            if let Some(report) = doc.as_ref().and_then(|d| d.get("report")) {
                report_counts(report, &mut self.counts);
            }
        }
        match verdict {
            Ok(cpu_s) => Unit {
                samples: vec![Sample {
                    input: 0,
                    seconds,
                    cpu_s,
                }],
                ..Unit::default()
            },
            Err(failure) => Unit {
                failures: vec![failure],
                ..Unit::default()
            },
        }
    }
}

impl Workload for Cli<'_> {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        if self.tier == Tier::Native {
            // Empty the artifact cache, so emit + gcc land in set-up.
            let dir = self.native_cache();
            match std::fs::remove_dir_all(&dir) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("cannot empty {}: {e}", dir.display()));
                }
                _ => {}
            }
        }
        self.run_once(tr).warn_if_failed("warm-up op");
        Ok(())
    }

    fn unit(&mut self, tr: &mut Tracer) -> Unit {
        self.run_once(tr)
    }

    fn teardown(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn peak_rss_kb(&self) -> u64 {
        self.rss_kb
    }

    fn counts(&self) -> &Counts {
        &self.counts
    }
}

/// Fold the counters of one `SweepReport` JSON into per-layer metric names.
pub fn report_counts(report: &JsonValue, counts: &mut Counts) {
    let num =
        |doc: &JsonValue, key: &str| doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0) as f64;
    for (metric, key) in [
        ("compiled.evaluated", "evaluated"),
        ("compiled.pruned", "pruned"),
        ("compiled.subtree_skips", "subtree_skips"),
        ("compiled.points_skipped", "points_skipped"),
        ("compiled.checks_elided", "checks_elided"),
        ("lanes.lane_evals", "lane_evals"),
        ("lanes.lanes_masked", "lanes_masked"),
        ("lanes.scalar_fallbacks", "scalar_fallbacks"),
    ] {
        counts.insert(metric, num(report, key));
    }
    if let Some(native) = report.get("native").filter(|n| **n != JsonValue::Null) {
        counts.insert("native.rows_streamed", num(native, "rows_streamed"));
        counts.insert("native.fallback_chunks", num(native, "chunks_fallback"));
    }
    if let Some(faults) = report.get("fault_counters") {
        for (metric, key) in [
            ("distribute.workers_spawned", "workers_spawned"),
            ("distribute.worker_restarts", "worker_restarts"),
            ("distribute.shards_retried", "shards_retried"),
            ("distribute.heartbeat_timeouts", "heartbeat_timeouts"),
        ] {
            counts.insert(metric, num(faults, key));
        }
    }
}

// ---------------------------------------------------------------------------
// serve-cold / serve-warm: real HTTP against a spawned `repro serve`
// ---------------------------------------------------------------------------

/// A running `repro serve`. Dropping it kills the daemon's process group.
pub struct Daemon {
    proc: Proc,
    pub addr: String,
    // Held so the daemon's final `println!` does not hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawn the daemon on a free port (so runs never collide) with an
    /// in-memory cache, and wait until `/healthz` answers.
    pub fn spawn(env: &Env) -> Result<Daemon, String> {
        let mut cmd = Command::new(&env.repro);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--executors",
            "1",
            "--chunks",
            CHUNKS,
        ])
        .args(["--threads", PARALLELISM]);
        let mut proc =
            Proc::spawn(&mut cmd).map_err(|e| format!("cannot spawn repro serve: {e}"))?;
        let mut stdout = BufReader::new(proc.stdout());
        let mut banner = String::new();
        stdout
            .read_line(&mut banner)
            .map_err(|e| format!("daemon banner: {e}"))?;
        let addr = banner
            .split_once("http://")
            .map(|(_, rest)| {
                rest.split(|c: char| c == ',' || c.is_whitespace())
                    .next()
                    .unwrap_or("")
            })
            .filter(|a| !a.is_empty())
            .ok_or_else(|| format!("daemon did not announce an address: {banner:?}"))?
            .to_string();
        let health = exchange(&mut Tracer::new(false), &addr, "GET", "/healthz", "")?;
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        Ok(Daemon {
            proc,
            addr,
            _stdout: stdout,
        })
    }

    pub fn pid(&self) -> u32 {
        self.proc.pid()
    }

    /// `POST /shutdown`, then reap: the daemon's lifetime CPU and peak RSS.
    pub fn shutdown(mut self) -> Result<crate::sys::Exit, String> {
        exchange(&mut Tracer::new(false), &self.addr, "POST", "/shutdown", "")?;
        let exit = self
            .proc
            .wait()
            .map_err(|e| format!("reaping the daemon: {e}"))?;
        match exit.code {
            Some(0) => Ok(exit),
            code => Err(format!("daemon exited with {code:?}")),
        }
    }
}

/// What one verified `POST /sweeps {"wait":true}` told the client.
pub struct Served {
    pub seconds: f64,
    /// Client latency minus the server-reported `elapsed_s`.
    pub overhead_s: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub doc: JsonValue,
}

/// Submit one sweep and check the answer against the reference.
pub fn submit(tr: &mut Tracer, addr: &str, v: &Variant, want: Reference) -> Result<Served, String> {
    let body = format!("{{\"space\":{},\"wait\":true}}", v.space_json());
    let op = tr.begin("op");
    let answer = exchange(tr, addr, "POST", "/sweeps", &body);
    tr.end(op);
    let answer = answer?;
    let verify = tr.begin("verify");
    let checked = (|| {
        if answer.status != 200 {
            return Err(format!(
                "{}: HTTP {}: {:.120}",
                v.key(),
                answer.status,
                answer.body
            ));
        }
        let doc = JsonValue::parse(&answer.body).map_err(|e| format!("{}: {e}", v.key()))?;
        if doc.get("state").and_then(JsonValue::as_str) != Some("done") {
            return Err(format!("{}: sweep not done: {:.120}", v.key(), answer.body));
        }
        let num = |key: &str| doc.get(key).and_then(JsonValue::as_u64);
        let hash = doc
            .get("fingerprint")
            .and_then(|f| f.get("hash"))
            .and_then(JsonValue::as_u64);
        let (Some(survivors), Some(hash), Some(hits), Some(misses)) = (
            num("survivors"),
            hash,
            num("cache_hits"),
            num("cache_misses"),
        ) else {
            return Err(format!(
                "{}: response lacks survivors/fingerprint/cache counts",
                v.key()
            ));
        };
        check(v, want, survivors, hash)?;
        let elapsed = match doc.get("elapsed_s") {
            Some(JsonValue::Float(f)) => *f,
            Some(JsonValue::Int(i)) => *i as f64,
            _ => return Err(format!("{}: response lacks elapsed_s", v.key())),
        };
        Ok(Served {
            seconds: answer.total_s(),
            overhead_s: answer.total_s() - elapsed,
            cache_hits: hits,
            cache_misses: misses,
            doc,
        })
    })();
    tr.end(verify);
    checked
}

/// Requests a `serve-cold` daemon serves before it is replaced.
const COLD_BATCH: usize = 4;

struct Serve<'e> {
    env: &'e Env,
    warm: bool,
    set: Vec<(Variant, Reference)>,
    rng: StdRng,
    /// Cold only: what is left of the current seeded order of the set.
    queue: Vec<usize>,
    daemon: Option<Daemon>,
    rss_kb: u64,
    /// Chunk-level cache traffic of the timed requests, as each response
    /// reported it (priming excluded).
    timed_hits: u64,
    timed_misses: u64,
    counts: Counts,
}

impl<'e> Serve<'e> {
    fn new(env: &'e Env, warm: bool) -> Result<Serve<'e>, String> {
        let mut variants = serve_variants(env.sizes.serve_dim);
        if warm {
            variants.truncate(env.sizes.primed);
        }
        let set = variants
            .into_iter()
            .map(|v| env.expected.get(&v).map(|want| (v, want)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Serve {
            env,
            warm,
            set,
            rng: rng(env.seed, u64::from(warm)),
            queue: Vec::new(),
            daemon: None,
            rss_kb: 0,
            timed_hits: 0,
            timed_misses: 0,
            counts: Counts::new(),
        })
    }

    /// One request; a cold one must miss on every chunk, a warm one hit.
    fn request(&mut self, tr: &mut Tracer, i: usize) -> Result<Sample, String> {
        let daemon = self.daemon.as_ref().expect("set up before use");
        let (v, want) = &self.set[i];
        let cpu_before = proc_cpu_s(daemon.pid()).map_err(|e| format!("daemon CPU clock: {e}"))?;
        let served = submit(tr, &daemon.addr, v, *want)?;
        let cpu_s =
            proc_cpu_s(daemon.pid()).map_err(|e| format!("daemon CPU clock: {e}"))? - cpu_before;
        self.timed_hits += served.cache_hits;
        self.timed_misses += served.cache_misses;
        let wrong_side = if self.warm {
            served.cache_misses
        } else {
            served.cache_hits
        };
        if wrong_side != 0 {
            return Err(format!(
                "{}: {} chunk(s) {} the cache on a {} request",
                v.key(),
                wrong_side,
                if self.warm { "missed" } else { "hit" },
                if self.warm { "warm" } else { "cold" }
            ));
        }
        // The engine counters of one fixed space, so they repeat exactly
        // whichever request happens to be the run's last.
        if tr.on() && i == 0 {
            if let Some(report) = served.doc.get("report") {
                report_counts(report, &mut self.counts);
            }
        }
        Ok(Sample {
            input: i,
            seconds: served.seconds,
            cpu_s,
        })
    }

    fn requests(&mut self, tr: &mut Tracer, order: &[usize]) -> Unit {
        let mut unit = Unit::default();
        for &i in order {
            match self.request(tr, i) {
                Ok(sample) => unit.samples.push(sample),
                Err(failure) => unit.failures.push(failure),
            }
        }
        unit
    }
}

impl Workload for Serve<'_> {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.daemon = Some(tr.time("daemon.spawn", || Daemon::spawn(self.env))?);
        if self.warm {
            // Prime: the first submission of each space fills the cache; the
            // first resubmission is the warm-up op.
            let mut quiet = Tracer::new(false);
            for (v, want) in self.set.iter().chain(&self.set[..1]) {
                let addr = &self.daemon.as_ref().expect("just spawned").addr;
                if let Err(failure) = submit(&mut quiet, addr, v, *want) {
                    eprintln!("warning: priming failed: {failure}");
                }
            }
        }
        Ok(())
    }

    fn unit(&mut self, tr: &mut Tracer) -> Unit {
        if self.warm {
            // Closed loop, drawn with replacement from the primed set.
            let i = self.rng.gen_range(0..self.set.len());
            self.requests(tr, &[i])
        } else {
            // The next few spaces of the seeded order; each is new to this
            // daemon. A fresh daemon every few requests, not every pass,
            // because a daemon's threads tend to stay on the vCPU they
            // started on: a space's samples should not share one placement.
            if self.queue.is_empty() {
                self.queue = (0..self.set.len()).collect();
                shuffle(&mut self.queue, &mut self.rng);
            }
            let rest = self.queue.len().saturating_sub(COLD_BATCH);
            let batch = self.queue.split_off(rest);
            self.requests(tr, &batch)
        }
    }

    fn one_unit_per_round(&self) -> bool {
        !self.warm
    }

    fn teardown(&mut self) -> Result<(), String> {
        let daemon = self.daemon.take().expect("set up before teardown");
        let stats = exchange(
            &mut Tracer::new(false),
            &daemon.addr,
            "GET",
            "/cache/stats",
            "",
        )?;
        let stats = JsonValue::parse(&stats.body).map_err(|e| format!("/cache/stats: {e}"))?;
        let num = |key: &str| stats.get(key).and_then(JsonValue::as_u64).unwrap_or(0) as f64;
        // The run's first daemon only: its requests are fixed by the seed,
        // so the counts repeat however many rounds fit in the run.
        for (metric, key) in [
            ("cache.hits", "hits"),
            ("cache.misses", "misses"),
            ("cache.stores", "stores"),
            ("cache.entries", "entries"),
        ] {
            self.counts.entry(metric).or_insert(num(key));
        }
        let timed = self.timed_hits + self.timed_misses;
        self.counts.insert(
            "cache.hit_ratio",
            if timed > 0 {
                self.timed_hits as f64 / timed as f64
            } else {
                0.0
            },
        );
        self.rss_kb = self.rss_kb.max(daemon.shutdown()?.maxrss_kb);
        Ok(())
    }

    fn peak_rss_kb(&self) -> u64 {
        self.rss_kb
    }

    fn counts(&self) -> &Counts {
        &self.counts
    }
}

// ---------------------------------------------------------------------------
// count-sample: the public counting + direct-sampling API, in process
// ---------------------------------------------------------------------------

struct CountSample<'e> {
    env: &'e Env,
    variant: Variant,
    want: Reference,
    lp: Option<LoweredPlan>,
    rng_stream: u64,
    counts: Counts,
}

impl<'e> CountSample<'e> {
    fn new(env: &'e Env) -> Result<CountSample<'e>, String> {
        let variant = Variant::cli(env.sizes.count_dim);
        let want = env.expected.get(&variant)?;
        Ok(CountSample {
            env,
            variant,
            want,
            lp: None,
            rng_stream: 0,
            counts: Counts::new(),
        })
    }
}

/// The iterator assignment of a drawn point, as `evaluate_assignment` takes it.
fn iter_assignment(lp: &LoweredPlan, p: &beast_engine::point::Point) -> Vec<(u32, i64)> {
    lp.steps
        .iter()
        .filter_map(|s| match s {
            LStep::Bind { slot, .. } => Some((*slot, p.get_int(&lp.slot_names[*slot as usize]))),
            _ => None,
        })
        .collect()
}

impl Workload for CountSample<'_> {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.lp = Some(tr.time("lower", || self.variant.lower()));
        self.unit(tr).warn_if_failed("warm-up op");
        Ok(())
    }

    fn unit(&mut self, tr: &mut Tracer) -> Unit {
        let lp = self.lp.as_ref().expect("set up before use");
        self.rng_stream += 1;
        let draw_rng = rng(self.env.seed, 0x5A4D_0000 + self.rng_stream);

        let op = tr.begin("op");
        let (t, cpu) = (Instant::now(), self_cpu_s());
        let built = tr.time("sampler.build", || DirectSampler::new(lp, draw_rng));
        let drawn = built.and_then(|mut sampler| {
            let draws = tr.begin("sampler.draws");
            let points: Result<Vec<_>, _> = (0..self.env.sizes.draws)
                .map(|_| sampler.sample())
                .collect();
            tr.end(draws);
            points.map(|points| (sampler.total(), sampler.stats, points))
        });
        let seconds = t.elapsed().as_secs_f64();
        let cpu_s = self_cpu_s() - cpu;
        tr.end(op);

        // Outside the timed region: the total is the reference count and
        // every draw re-validates as a survivor.
        let verdict = tr.time("verify", || {
            let (total, stats, points) = drawn.map_err(|e| format!("direct sampler: {e}"))?;
            if total != u128::from(self.want.survivors) {
                return Err(format!(
                    "{}: counted {total}, expected {}",
                    self.variant.key(),
                    self.want.survivors
                ));
            }
            if stats.rejected != 0 || stats.dead_ends != 0 {
                return Err(format!("direct sampler rejected: {stats:?}"));
            }
            let mut validator = Sampler::new(lp, rng(0, 0));
            for p in points {
                let Some(p) = p else {
                    return Err("empty draw from a non-empty space".into());
                };
                let pairs = iter_assignment(lp, &p);
                if !matches!(validator.evaluate_assignment(&pairs), Ok(Some(_))) {
                    return Err(format!("draw is not a survivor: {pairs:?}"));
                }
            }
            Ok(stats.rejected)
        });
        match verdict {
            Ok(rejected) => {
                self.counts.insert("search.rejected", rejected as f64);
                Unit {
                    samples: vec![Sample {
                        input: 0,
                        seconds,
                        cpu_s,
                    }],
                    ..Unit::default()
                }
            }
            Err(failure) => Unit {
                failures: vec![failure],
                ..Unit::default()
            },
        }
    }

    fn teardown(&mut self) -> Result<(), String> {
        self.lp = None;
        Ok(())
    }

    fn peak_rss_kb(&self) -> u64 {
        self_hwm_kb()
    }

    fn counts(&self) -> &Counts {
        &self.counts
    }
}
