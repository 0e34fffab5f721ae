//! Cache-correctness suite for the sweep service (`beast_engine::service`).
//!
//! Pins the headline soundness claim of `DESIGN.md` §8: a sweep served from
//! the fingerprint-keyed sub-sweep cache is **bit-identical** to a cold
//! run — same survivors, same emission order (order-sensitive fingerprint),
//! same merged statistics. Every scenario asserts fingerprint equality
//! against a cold in-process baseline:
//!
//! - identical request resubmitted → every chunk hits;
//! - prefix overlap (a partial sweep seeds the cache, a full sweep follows)
//!   → exactly the seeded chunks hit, the rest miss;
//! - device-parameter mismatch (`reduced(16)` vs `reduced(32)`) → no hits,
//!   because device limits fold into the lowered plan's constants and
//!   change its structural hash;
//! - concurrent HTTP clients racing the same sweep → all get the cold
//!   fingerprint;
//! - the chunked progress stream terminates with the full result;
//! - resubmissions of one space reuse one compiled engine, interleaved
//!   spaces keep their own, and neither changes a fingerprint;
//! - with a cache file, only a job that stored chunks rewrites it;
//! - hostile input — a 200 000-deep JSON body, a 64 KiB request line — gets
//!   400 and the daemon keeps serving;
//! - the acceptor pool: sequential requests start no thread, stalled
//!   sockets grow the pool without delaying anyone, and shutdown stops it
//!   whatever its size.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use beast_engine::checkpoint::JsonValue;
use beast_engine::sweep::{sweep, SweepSpec};
use beast_engine::service::cache::SweepCache;
use beast_engine::service::{ServiceConfig, SweepService};
use beast_engine::visit::FingerprintVisitor;
use beast_gemm::{gemm_resolver, resolve_gemm_space};

/// Same grid the service pins, so in-process baselines and HTTP runs chunk
/// identically (the cache key tolerates grid changes, but matching grids
/// make hit counts exact).
const CHUNKS: usize = 32;

fn gemm_plan(dim: i64) -> beast_core::ir::LoweredPlan {
    let doc = JsonValue::parse(&format!("{{\"kind\":\"gemm\",\"reduced\":{dim}}}")).unwrap();
    resolve_gemm_space(&doc).unwrap().plan
}

fn opts() -> SweepSpec<'static, FingerprintVisitor> {
    SweepSpec { chunk_count: CHUNKS, ..SweepSpec::new(2) }
}

/// Cold, cache-free baseline: (fingerprint hash, survivors).
fn cold_baseline(dim: i64) -> (u64, u64) {
    let (out, report) =
        sweep(&gemm_plan(dim), &opts(), FingerprintVisitor::new).unwrap();
    (out.visitor.hash, report.survivors)
}

// ---------------------------------------------------------------------------
// library-level cache scenarios
// ---------------------------------------------------------------------------

#[test]
fn identical_sweep_hits_every_chunk_and_is_bit_identical() {
    let lp = gemm_plan(16);
    let (cold_fp, cold_survivors) = cold_baseline(16);
    let cache: SweepCache<FingerprintVisitor> = SweepCache::new();

    let (first, first_rep) =
        sweep(&lp, &opts().cache(&cache, "t"), FingerprintVisitor::new).unwrap();
    assert_eq!(first.visitor.hash, cold_fp, "cold cached run must match cache-free run");
    assert_eq!(first_rep.cache_hits, 0);
    let chunks = first_rep.chunks as u64;
    assert_eq!(first_rep.cache_misses, chunks);

    let (second, second_rep) =
        sweep(&lp, &opts().cache(&cache, "t"), FingerprintVisitor::new).unwrap();
    assert_eq!(second_rep.cache_hits, chunks, "every chunk must be served from cache");
    assert_eq!(second_rep.cache_misses, 0);
    assert_eq!(second.visitor, first.visitor, "fingerprint must be bit-identical");
    assert_eq!(second.stats, first.stats);
    assert_eq!(second.blocks, first.blocks);
    assert_eq!(second_rep.survivors, cold_survivors);
}

#[test]
fn prefix_overlap_hits_exactly_the_seeded_chunks() {
    let lp = gemm_plan(16);
    let (cold_fp, _) = cold_baseline(16);
    let cache: SweepCache<FingerprintVisitor> = SweepCache::new();

    // Seed the cache with a strict prefix of the chunk grid.
    let seed_opts = SweepSpec { stop_after_chunks: 5, ..opts() };
    let (_, seed_rep) =
        sweep(&lp, &seed_opts.cache(&cache, "t"), FingerprintVisitor::new).unwrap();
    assert!(seed_rep.partial, "seeding run must stop early");
    let seeded = cache.stats().entries as u64;
    assert!(seeded >= 5, "expected at least 5 seeded chunks, got {seeded}");

    // The full sweep folds the seeded prefix from cache and computes the
    // rest — and is still bit-identical to the cold run.
    let (full, full_rep) =
        sweep(&lp, &opts().cache(&cache, "t"), FingerprintVisitor::new).unwrap();
    assert_eq!(full_rep.cache_hits, seeded, "exactly the seeded chunks must hit");
    assert_eq!(full_rep.cache_misses, full_rep.chunks as u64 - seeded);
    assert_eq!(full.visitor.hash, cold_fp, "partial-hit run must be bit-identical to cold");
}

#[test]
fn device_param_mismatch_never_hits() {
    let (fp16, _) = cold_baseline(16);
    let (fp32, _) = cold_baseline(32);
    assert_ne!(fp16, fp32, "the two devices must genuinely differ");

    let cache: SweepCache<FingerprintVisitor> = SweepCache::new();
    let (a, _) =
        sweep(&gemm_plan(16), &opts().cache(&cache, "t"), FingerprintVisitor::new).unwrap();
    let (b, rep) =
        sweep(&gemm_plan(32), &opts().cache(&cache, "t"), FingerprintVisitor::new).unwrap();
    assert_eq!(rep.cache_hits, 0, "different device limits must never share entries");
    assert_eq!(a.visitor.hash, fp16);
    assert_eq!(b.visitor.hash, fp32);
}

// ---------------------------------------------------------------------------
// HTTP-level scenarios
// ---------------------------------------------------------------------------

/// One HTTP/1.1 exchange: send, read to EOF, strip headers, de-chunk.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let (headers, payload) = raw.split_once("\r\n\r\n").unwrap();
    let body = if headers.to_ascii_lowercase().contains("transfer-encoding: chunked") {
        let mut out = String::new();
        let mut rest = payload;
        loop {
            let (size_line, tail) = rest.split_once("\r\n").unwrap();
            let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
            if size == 0 {
                break;
            }
            out.push_str(&tail[..size]);
            rest = tail[size..].strip_prefix("\r\n").unwrap_or(&tail[size..]);
        }
        out
    } else {
        payload.to_string()
    };
    (status, body)
}

fn start_service() -> (SweepService, String) {
    let cfg = ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        executors: 2,
        chunk_count: CHUNKS,
        cache_path: None,
    };
    let service = SweepService::start(cfg, gemm_resolver()).unwrap();
    let addr = service.addr().to_string();
    (service, addr)
}

fn submit_wait(addr: &str, dim: i64) -> JsonValue {
    let body = format!("{{\"space\":{{\"kind\":\"gemm\",\"reduced\":{dim}}},\"wait\":true}}");
    let (status, body) = http(addr, "POST", "/sweeps", &body);
    assert_eq!(status, 200, "{body}");
    let doc = JsonValue::parse(&body).unwrap();
    assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("done"), "{body}");
    doc
}

fn fingerprint_of(doc: &JsonValue) -> u64 {
    doc.get("fingerprint").and_then(|f| f.get("hash")).and_then(JsonValue::as_u64).unwrap()
}

fn hits_of(doc: &JsonValue) -> (u64, u64) {
    (
        doc.get("cache_hits").and_then(JsonValue::as_u64).unwrap(),
        doc.get("cache_misses").and_then(JsonValue::as_u64).unwrap(),
    )
}

#[test]
fn http_resubmission_hits_and_matches_cold_fingerprint() {
    let (cold_fp, cold_survivors) = cold_baseline(16);
    let (service, addr) = start_service();

    let first = submit_wait(&addr, 16);
    let (h1, m1) = hits_of(&first);
    assert_eq!(h1, 0);
    assert!(m1 > 0);
    assert_eq!(fingerprint_of(&first), cold_fp);
    assert_eq!(first.get("survivors").and_then(JsonValue::as_u64), Some(cold_survivors));

    let second = submit_wait(&addr, 16);
    let (h2, m2) = hits_of(&second);
    assert_eq!(m2, 0, "resubmission must not re-enumerate any chunk");
    assert_eq!(h2, m1, "every first-run chunk must be served from cache");
    assert_eq!(fingerprint_of(&second), cold_fp, "cache hit must be bit-identical");

    // Different device parameters must not reuse those entries.
    let other = submit_wait(&addr, 32);
    let (h3, _) = hits_of(&other);
    assert_eq!(h3, 0, "reduced(32) must miss entries stored for reduced(16)");
    assert_eq!(fingerprint_of(&other), cold_baseline(32).0);

    let (status, stats) = http(&addr, "GET", "/cache/stats", "");
    assert_eq!(status, 200);
    let stats = JsonValue::parse(&stats).unwrap();
    assert_eq!(stats.get("hits").and_then(JsonValue::as_u64), Some(h2));

    service.shutdown();
    service.wait().unwrap();
}

/// `(engines, engine_builds, engine_reuses)` from `/cache/stats`.
fn engine_counters(addr: &str) -> (u64, u64, u64) {
    let (status, stats) = http(addr, "GET", "/cache/stats", "");
    assert_eq!(status, 200);
    let stats = JsonValue::parse(&stats).unwrap();
    let num = |key: &str| stats.get(key).and_then(JsonValue::as_u64).unwrap();
    (num("engines"), num("engine_builds"), num("engine_reuses"))
}

#[test]
fn identical_submissions_build_one_engine() {
    const K: u64 = 4;
    let (cold_fp, _) = cold_baseline(16);
    let (service, addr) = start_service();
    for _ in 0..K {
        assert_eq!(fingerprint_of(&submit_wait(&addr, 16)), cold_fp);
    }
    assert_eq!(engine_counters(&addr), (1, 1, K - 1));
    service.shutdown();
    service.wait().unwrap();
}

#[test]
fn interleaved_spaces_each_keep_their_own_engine() {
    let baselines = [(16, cold_baseline(16).0), (32, cold_baseline(32).0)];
    let (service, addr) = start_service();
    for _ in 0..2 {
        for (dim, cold_fp) in baselines {
            assert_eq!(fingerprint_of(&submit_wait(&addr, dim)), cold_fp, "reduced({dim})");
        }
    }
    assert_eq!(engine_counters(&addr), (2, 2, 2));
    service.shutdown();
    service.wait().unwrap();
}

/// Remove the cache file once its writer (which runs after the job is
/// published) has created it.
fn take_written_file(path: &std::path::Path) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !path.exists() {
        assert!(std::time::Instant::now() < deadline, "the cache file was never written");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    std::fs::remove_file(path).unwrap();
}

/// With `--cache PATH` a job rewrites the file only when it stored chunks:
/// a full hit leaves it alone, here and at shutdown.
#[test]
fn only_a_job_that_stored_chunks_writes_the_cache_file() {
    let dir = std::env::temp_dir().join(format!("beast-service-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");
    std::fs::remove_file(&path).ok();
    // One executor runs jobs in turn, so once a job is done the previous
    // job's write (or skipped write) is over.
    let cfg = ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        executors: 1,
        chunk_count: CHUNKS,
        cache_path: Some(path.clone()),
    };
    let service = SweepService::start(cfg, gemm_resolver()).unwrap();
    let addr = service.addr().to_string();

    submit_wait(&addr, 16);
    take_written_file(&path);
    for _ in 0..2 {
        assert_eq!(hits_of(&submit_wait(&addr, 16)).1, 0);
    }
    assert!(!path.exists(), "a warm job must not rewrite the file");
    submit_wait(&addr, 32);
    take_written_file(&path);

    service.shutdown();
    service.wait().unwrap();
    assert!(!path.exists(), "shutdown after no new stores must not rewrite the file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_clients_all_get_the_cold_fingerprint() {
    let (cold_fp, _) = cold_baseline(16);
    let (service, addr) = start_service();

    let addr = Arc::new(addr);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let addr = Arc::clone(&addr);
            std::thread::spawn(move || fingerprint_of(&submit_wait(&addr, 16)))
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().unwrap(), cold_fp, "every concurrent client must agree");
    }

    // After the race settles, a fresh submission is served fully from cache.
    let settled = submit_wait(&addr, 16);
    let (_, misses) = hits_of(&settled);
    assert_eq!(misses, 0);
    assert_eq!(fingerprint_of(&settled), cold_fp);

    service.shutdown();
    service.wait().unwrap();
}

#[test]
fn progress_stream_terminates_with_the_full_result() {
    let (cold_fp, _) = cold_baseline(16);
    let (service, addr) = start_service();

    let (status, body) =
        http(&addr, "POST", "/sweeps", "{\"space\":{\"kind\":\"gemm\",\"reduced\":16}}");
    assert_eq!(status, 202, "{body}");
    let id = JsonValue::parse(&body).unwrap().get("id").and_then(JsonValue::as_u64).unwrap();

    let (status, stream) = http(&addr, "GET", "/sweeps/{id}/progress".replace("{id}", &id.to_string()).as_str(), "");
    assert_eq!(status, 200);
    let last = stream.lines().last().unwrap();
    let terminal = JsonValue::parse(last).unwrap();
    assert_eq!(terminal.get("state").and_then(JsonValue::as_str), Some("done"), "{last}");
    assert_eq!(fingerprint_of(&terminal), cold_fp);

    // The result endpoint agrees with the stream's terminal line.
    let (status, body) = http(&addr, "GET", &format!("/sweeps/{id}"), "");
    assert_eq!(status, 200);
    assert_eq!(fingerprint_of(&JsonValue::parse(&body).unwrap()), cold_fp);

    // Unknown ids and malformed requests are diagnosed, not 500s.
    let (status, _) = http(&addr, "GET", "/sweeps/99999", "");
    assert_eq!(status, 404);
    let (status, _) = http(&addr, "POST", "/sweeps", "{\"space\":{\"kind\":\"gemm\"}}");
    assert_eq!(status, 400);
    let (status, _) = http(&addr, "GET", "/nope", "");
    assert_eq!(status, 404);

    service.shutdown();
    service.wait().unwrap();
}

/// `wait()` on a separate thread, so a daemon that fails to stop fails the
/// test instead of hanging it.
fn wait_within(service: SweepService, limit: std::time::Duration) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(service.wait()));
    rx.recv_timeout(limit).expect("daemon threads did not exit").unwrap();
}

/// `(acceptors, idle, acceptors_spawned)` from `/healthz`.
fn acceptor_counts(addr: &str) -> (u64, u64, u64) {
    let (status, health) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health = JsonValue::parse(&health).unwrap();
    let num = |key: &str| health.get(key).and_then(JsonValue::as_u64).unwrap();
    (num("acceptors"), num("idle"), num("acceptors_spawned"))
}

/// Poll `/healthz` until `until` holds of its acceptor counts, failing past
/// `limit`.
fn poll_acceptors(
    addr: &str,
    limit: std::time::Duration,
    until: impl Fn((u64, u64, u64)) -> bool,
) -> (u64, u64, u64) {
    let deadline = std::time::Instant::now() + limit;
    loop {
        let counts = acceptor_counts(addr);
        if until(counts) {
            return counts;
        }
        assert!(std::time::Instant::now() < deadline, "acceptors stuck at {counts:?}");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Open `n` connections that never send a byte, and wait until the daemon
/// has taken them all: `n` busy acceptors plus the one answering the probe.
fn stall(addr: &str, n: usize) -> Vec<TcpStream> {
    let sockets = (0..n).map(|_| TcpStream::connect(addr).unwrap()).collect();
    poll_acceptors(addr, std::time::Duration::from_secs(5), |(live, _, _)| live > n as u64);
    sockets
}

/// Acceptors block in `accept` (no polling): both shutdown paths must wake
/// every idle one — on a daemon that never saw a request, on one whose pool
/// grew and shrank again, and with a stalled client still connected, whose
/// acceptor `wait` does not wait for.
#[test]
fn shutdown_wakes_a_blocked_acceptor() {
    let limit = std::time::Duration::from_secs(5);
    let (service, _) = start_service();
    service.shutdown();
    wait_within(service, limit);

    let (service, addr) = start_service();
    let (status, _) = http(&addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    wait_within(service, limit);

    let (service, addr) = start_service();
    drop(stall(&addr, 4));
    // The dropped clients close their sockets, so their acceptors finish.
    poll_acceptors(&addr, limit, |(live, _, spawned)| live <= 3 && spawned >= 4);
    service.shutdown();
    wait_within(service, limit);

    let (service, addr) = start_service();
    let stalled = stall(&addr, 4);
    let (status, _) = http(&addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    wait_within(service, limit);
    drop(stalled);
}

/// Steady sequential traffic is served by the first acceptors: 200
/// requests start no thread.
#[test]
fn sequential_requests_start_no_acceptor() {
    let (service, addr) = start_service();
    let (_, _, spawned) = acceptor_counts(&addr);
    for _ in 0..200 {
        submit_wait(&addr, 16);
    }
    assert_eq!(acceptor_counts(&addr), (2, 1, spawned), "(acceptors, idle, spawned)");
    service.shutdown();
    wait_within(service, std::time::Duration::from_secs(5));
}

/// Eight clients that connect and never send a byte hold eight acceptors
/// until the socket timeout cuts them off. Meanwhile the pool grows past
/// them, so `/healthz` answers at once; once they time out it shrinks back
/// to at most two idle acceptors.
#[test]
fn stalled_sockets_neither_delay_others_nor_keep_the_pool_grown() {
    let (service, addr) = start_service();
    let stalled = stall(&addr, 8);
    let started = std::time::Instant::now();
    let (live, _, spawned) = acceptor_counts(&addr);
    assert!(started.elapsed() < std::time::Duration::from_secs(1), "{:?}", started.elapsed());
    assert!(live >= 9 && spawned >= 9, "the pool grew past the stalled sockets: {live}, {spawned}");

    let limit = beast_engine::service::http::IO_TIMEOUT * 2;
    let (live, idle, _) = poll_acceptors(&addr, limit, |(live, _, _)| live <= 3);
    assert!(idle <= 2, "{live} acceptors, {idle} idle");
    drop(stalled);
    service.shutdown();
    wait_within(service, std::time::Duration::from_secs(5));
}

/// The job table is bounded: finished jobs past the newest 64 are evicted
/// (their ids then answer 404), so a long-lived daemon's memory does not
/// grow with the number of requests it has served.
#[test]
fn job_table_is_bounded_and_evicted_ids_answer_404() {
    let (service, addr) = start_service();
    let mut last = 0;
    for _ in 0..200 {
        last = submit_wait(&addr, 16).get("id").and_then(JsonValue::as_u64).unwrap();
    }
    let (status, health) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health = JsonValue::parse(&health).unwrap();
    assert_eq!(health.get("jobs").and_then(JsonValue::as_u64), Some(64), "{health:?}");

    let status_of = |id: u64| http(&addr, "GET", &format!("/sweeps/{id}"), "").0;
    assert_eq!(status_of(last), 200, "the newest job is retained");
    assert_eq!(status_of(last - 63), 200, "the 64th newest job is retained");
    assert_eq!(status_of(last - 64), 404, "the 65th newest job was evicted");
    assert_eq!(status_of(1), 404, "the oldest job was evicted");

    service.shutdown();
    wait_within(service, std::time::Duration::from_secs(5));
}

/// Send `bytes` raw from a writer thread (the server may stop reading and
/// close first) and return everything the server answered before it
/// closed.
fn raw_exchange(addr: &str, bytes: Vec<u8>) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let send = std::thread::spawn(move || {
        let _ = writer.write_all(&bytes);
    });
    let mut reply = Vec::new();
    let mut buf = [0u8; 4096];
    while let Ok(n @ 1..) = stream.read(&mut buf) {
        reply.extend_from_slice(&buf[..n]);
    }
    send.join().unwrap();
    String::from_utf8_lossy(&reply).into_owned()
}

/// A body nested 200 000 arrays deep would overflow the connection
/// thread's stack and abort the daemon; a request line with no end would
/// buffer until the request deadline. Both get 400 at once, and the daemon
/// still answers `/healthz`.
#[test]
fn hostile_requests_get_400_and_the_daemon_keeps_serving() {
    let (service, addr) = start_service();
    let (status, body) = http(&addr, "POST", "/sweeps", &"[".repeat(200_000));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting deeper than 128"), "{body}");

    let started = std::time::Instant::now();
    let reply = raw_exchange(&addr, vec![b'G'; 64 * 1024]);
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert!(reply.contains("request head too large"), "{reply}");
    assert!(started.elapsed() < std::time::Duration::from_secs(10), "{:?}", started.elapsed());

    let (status, _) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    service.shutdown();
    wait_within(service, std::time::Duration::from_secs(5));
}
