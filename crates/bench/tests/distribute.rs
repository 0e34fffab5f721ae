//! End-to-end suite for `repro distribute` — the multi-process supervisor.
//!
//! Everything here drives the real binary (`CARGO_BIN_EXE_repro`), so the
//! full stack is under test: CLI flag plumbing, `std::process` spawning of
//! real worker processes, the length-prefixed wire protocol, heartbeats,
//! retry/backoff re-dealing, checkpoint/resume, and the bit-identical merge
//! contract against `repro sweep`. The chaos flags make the failure paths
//! deterministic: `--die-after` crashes a worker mid-shard, `--stall-after`
//! hangs one until the heartbeat deadline kills it, `--chaos-kill-after`
//! SIGKILLs one from the supervisor side.

use std::process::Command;

use beast_engine::checkpoint::JsonValue;

/// Pinned chunk grid so every run in this suite shards identically.
const CHUNKS: &str = "16";
const DIM: &str = "16";

fn repro(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("beast-distribute-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Read `(fingerprint, survivors, report)` from a `--json` dump.
fn read_json(path: &std::path::Path) -> (String, u64, JsonValue) {
    let text = std::fs::read_to_string(path).unwrap();
    let doc = JsonValue::parse(&text).unwrap();
    let fp = doc.get("fingerprint").unwrap().as_str().unwrap().to_string();
    let survivors = doc.get("survivors").unwrap().as_u64().unwrap();
    (fp, survivors, doc)
}

fn counter(doc: &JsonValue, name: &str) -> u64 {
    doc.get("report")
        .unwrap()
        .get("fault_counters")
        .unwrap()
        .get(name)
        .unwrap()
        .as_u64()
        .unwrap()
}

/// The serial in-process reference this whole suite compares against.
fn serial_reference(json: &std::path::Path) -> (String, u64) {
    let (code, _, err) = repro(&[
        "sweep", DIM, "--threads", "1", "--chunks", CHUNKS, "--json", json.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "serial sweep failed: {err}");
    let (fp, survivors, _) = read_json(json);
    (fp, survivors)
}

/// The merged result is bit-identical to the serial sweep at every worker
/// count — same survivors, same order-sensitive fingerprint.
#[test]
fn distribute_is_bit_identical_to_serial_at_every_worker_count() {
    let (serial_fp, serial_survivors) = serial_reference(&scratch("identity-serial.json"));
    for workers in ["1", "2", "4"] {
        let json = scratch(&format!("identity-w{workers}.json"));
        let (code, _, err) = repro(&[
            "distribute", DIM, "--workers", workers, "--chunks", CHUNKS,
            "--json", json.to_str().unwrap(),
        ]);
        assert_eq!(code, Some(0), "distribute --workers {workers} failed: {err}");
        let (fp, survivors, doc) = read_json(&json);
        assert_eq!(fp, serial_fp, "fingerprint diverged at {workers} worker(s)");
        assert_eq!(survivors, serial_survivors);
        assert_eq!(
            counter(&doc, "workers_spawned"),
            workers.parse::<u64>().unwrap(),
            "every slot should spawn exactly one worker on the clean path"
        );
    }
}

/// A worker that crashes mid-shard (simulated `kill -9` via `--die-after`)
/// is replaced and its shard re-dealt: exit 0, bit-identical result, and
/// the recovery is visible as worker-level fault records.
#[test]
fn crashing_worker_recovers_bit_identically() {
    let (serial_fp, serial_survivors) = serial_reference(&scratch("crash-serial.json"));
    let json = scratch("crash.json");
    let (code, _, err) = repro(&[
        "distribute", DIM, "--workers", "2", "--chunks", CHUNKS, "--die-after", "1",
        "--json", json.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "distribute with a crashing worker failed: {err}");
    let (fp, survivors, doc) = read_json(&json);
    assert_eq!(fp, serial_fp, "a worker crash must not change the merge");
    assert_eq!(survivors, serial_survivors);
    assert!(counter(&doc, "shards_retried") >= 1, "the crashed shard must be re-dealt");
    assert!(counter(&doc, "worker_restarts") >= 1, "the crashed worker must be replaced");
    let report = std::fs::read_to_string(&json).unwrap();
    assert!(report.contains("\"kind\":\"worker_exit\""), "fault records must name the exit");
}

/// A worker that goes silent mid-shard trips the heartbeat deadline, is
/// killed, and its shard re-dealt — still exit 0 and bit-identical.
#[test]
fn stalled_worker_is_timed_out_and_recovered() {
    let (serial_fp, serial_survivors) = serial_reference(&scratch("stall-serial.json"));
    let json = scratch("stall.json");
    let (code, _, err) = repro(&[
        "distribute", DIM, "--workers", "1", "--chunks", CHUNKS, "--stall-after", "1",
        "--heartbeat-ms", "300", "--json", json.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "distribute with a stalling worker failed: {err}");
    let (fp, survivors, doc) = read_json(&json);
    assert_eq!(fp, serial_fp, "a stalled worker must not change the merge");
    assert_eq!(survivors, serial_survivors);
    assert!(counter(&doc, "heartbeat_timeouts") >= 1, "the stall must be a recorded timeout");
    let report = std::fs::read_to_string(&json).unwrap();
    assert!(report.contains("\"kind\":\"worker_timeout\""));
}

/// The supervisor-side chaos knob: SIGKILL one worker right after dealing
/// it a shard. Mirrors the CI smoke job.
#[test]
fn supervisor_side_kill_recovers_bit_identically() {
    let (serial_fp, serial_survivors) = serial_reference(&scratch("kill-serial.json"));
    let json = scratch("kill.json");
    let (code, _, err) = repro(&[
        "distribute", DIM, "--workers", "2", "--chunks", CHUNKS, "--chaos-kill-after", "2",
        "--json", json.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "distribute surviving a SIGKILL failed: {err}");
    let (fp, survivors, doc) = read_json(&json);
    assert_eq!(fp, serial_fp, "killing a worker must not change the merge");
    assert_eq!(survivors, serial_survivors);
    assert!(counter(&doc, "workers_spawned") >= 3, "the killed worker must be respawned");
    assert!(counter(&doc, "worker_restarts") >= 1);
}

/// A distributed sweep interrupted mid-run (exit 3, resumable) and resumed
/// finishes with the serial fingerprint — the distributed twin of the
/// `repro sweep` checkpoint contract.
#[test]
fn interrupted_distribute_resumes_bit_identically() {
    let (serial_fp, serial_survivors) = serial_reference(&scratch("resume-serial.json"));
    let ck = scratch("resume.ck.json");
    let _ = std::fs::remove_file(&ck);
    let (code, _, err) = repro(&[
        "distribute", DIM, "--workers", "2", "--chunks", CHUNKS,
        "--checkpoint", ck.to_str().unwrap(), "--every", "1", "--stop-after", "5",
    ]);
    assert_eq!(code, Some(3), "an interrupted run must exit 3 (resumable): {err}");
    let json = scratch("resume.json");
    let (code, _, err) = repro(&[
        "distribute", DIM, "--workers", "2", "--chunks", CHUNKS,
        "--checkpoint", ck.to_str().unwrap(), "--resume", "--json", json.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "the resumed run must complete: {err}");
    let (fp, survivors, doc) = read_json(&json);
    assert_eq!(fp, serial_fp, "resume must be bit-identical to an uninterrupted sweep");
    assert_eq!(survivors, serial_survivors);
    assert_eq!(
        doc.get("report").unwrap().get("resumed_at").unwrap().as_u64(),
        Some(5),
        "the resume must pick up exactly where the interruption stopped"
    );
}

/// The fault records of a `--json` dump as `(chunk, kind, attempt)`.
fn fault_records(doc: &JsonValue) -> Vec<(u64, String, u64)> {
    let faults = doc.get("report").unwrap().get("faults").unwrap().items().unwrap();
    let field = |f: &JsonValue, k: &str| f.get(k).unwrap().clone();
    faults
        .iter()
        .map(|f| {
            let kind = field(f, "kind").as_str().unwrap().to_string();
            (field(f, "chunk").as_u64().unwrap(), kind, field(f, "attempt").as_u64().unwrap())
        })
        .collect()
}

/// A report with the fields CI's "Front ends agree" step drops: timing,
/// per-worker rows and the transport's fault counters.
fn comparable(doc: &JsonValue) -> Vec<(String, JsonValue)> {
    const DROP: [&str; 5] =
        ["elapsed_s", "tuples_per_sec", "imbalance", "workers", "fault_counters"];
    let Some(JsonValue::Obj(fields)) = doc.get("report") else { panic!("report is an object") };
    fields.iter().filter(|(k, _)| !DROP.contains(&k.as_str())).cloned().collect()
}

/// Real worker processes on the pipelined path: at every worker count and
/// chunk grid — one chunk, fewer chunks than two per worker, many — the
/// report equals `repro sweep`'s on the same grid, and a clean run spawns
/// one worker per slot dealt a shard, restarting, retrying and timing out
/// nothing.
#[test]
fn distribute_writes_the_sweep_report_on_every_grid() {
    for chunks in ["1", "7", "64"] {
        for workers in ["1", "2", "3"] {
            let at = format!("--workers {workers} --chunks {chunks}");
            let (want, got) = (scratch("grid-sweep.json"), scratch("grid-dist.json"));
            let (code, _, err) = repro(&[
                "sweep", DIM, "--threads", workers, "--chunks", chunks,
                "--json", want.to_str().unwrap(),
            ]);
            assert_eq!(code, Some(0), "sweep {at}: {err}");
            let (code, _, err) = repro(&[
                "distribute", DIM, "--workers", workers, "--chunks", chunks,
                "--json", got.to_str().unwrap(),
            ]);
            assert_eq!(code, Some(0), "distribute {at}: {err}");
            let ((want_fp, _, want), (fp, _, doc)) = (read_json(&want), read_json(&got));
            assert_eq!(fp, want_fp, "{at}: fingerprint");
            assert_eq!(comparable(&doc), comparable(&want), "{at}: report");
            let slots = workers.parse::<u64>().unwrap().min(chunks.parse().unwrap());
            assert_eq!(counter(&doc, "workers_spawned"), slots, "{at}: one worker per slot dealt");
            for clean in ["worker_restarts", "shards_retried", "heartbeat_timeouts"] {
                assert_eq!(counter(&doc, clean), 0, "{at}: {clean}");
            }
        }
    }
}

/// A worker that dies holding a queued shard: the fault belongs to the
/// shard the slot was waiting on, and the queued one is re-dealt with no
/// record of its own. `--die-after 2` kills every worker on its second
/// shard, so each of the three the default budget allows one slot (the
/// first and two respawns) dies once — on the awaited chunks 1, 2 and 3,
/// with 2, 3 and 4 queued behind them — before the slot degrades to
/// evaluating in process.
#[test]
fn a_worker_dying_with_a_queued_shard_faults_only_the_awaited_one() {
    let (serial_fp, _) = serial_reference(&scratch("queued-die-serial.json"));
    let json = scratch("queued-die.json");
    let (code, _, err) = repro(&[
        "distribute", DIM, "--workers", "1", "--chunks", CHUNKS, "--die-after", "2",
        "--json", json.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{err}");
    let (fp, _, doc) = read_json(&json);
    assert_eq!(fp, serial_fp);
    let exit = |chunk| (chunk, "worker_exit".to_string(), 0);
    assert_eq!(fault_records(&doc), vec![exit(1), exit(2), exit(3)]);
}

/// `--chaos-kill-after 2` on one worker: the supervisor writes shards 0
/// and 1 back to back while the worker boots, and SIGKILLs it right after
/// the second, so it dies before it can answer either. The one record is
/// on chunk 0, the awaited shard; chunk 1 is re-dealt without one.
#[test]
fn a_supervisor_kill_with_a_queued_shard_faults_only_the_awaited_one() {
    let (serial_fp, _) = serial_reference(&scratch("queued-kill-serial.json"));
    let json = scratch("queued-kill.json");
    let (code, _, err) = repro(&[
        "distribute", DIM, "--workers", "1", "--chunks", CHUNKS, "--chaos-kill-after", "2",
        "--json", json.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{err}");
    let (fp, _, doc) = read_json(&json);
    assert_eq!(fp, serial_fp);
    assert_eq!(fault_records(&doc), vec![(0, "worker_exit".to_string(), 0)]);
    assert_eq!((counter(&doc, "workers_spawned"), counter(&doc, "worker_restarts")), (2, 1));
}

/// `--stop-after 5` deals no sixth chunk, queued or not: the checkpoint
/// holds exactly five.
#[test]
fn stop_after_never_claims_past_its_limit() {
    for workers in ["1", "2"] {
        let ck = scratch(&format!("stop-w{workers}.ck.json"));
        let _ = std::fs::remove_file(&ck);
        let (code, _, err) = repro(&[
            "distribute", DIM, "--workers", workers, "--chunks", CHUNKS,
            "--checkpoint", ck.to_str().unwrap(), "--stop-after", "5",
        ]);
        assert_eq!(code, Some(3), "{workers} worker(s): {err}");
        let doc = JsonValue::parse(&std::fs::read_to_string(&ck).unwrap()).unwrap();
        assert_eq!(doc.get("next").unwrap().as_u64(), Some(5), "{workers} worker(s)");
    }
}
