//! Self-tests of the benchmark harness: drive the built binary in `--quick`
//! mode (every input on `reduced(16)`) from the repo root, as the driver
//! does, and check its output contract, its failure behaviour and that no
//! product process outlives it.
//!
//! Every harness invocation carries a unique `BEAST_BENCH_TAG` in its
//! environment. The daemon, the distribute workers and the native workers
//! inherit it, so a leaked process is one whose `/proc/<pid>/environ` still
//! holds the tag after the harness has exited — tests running in parallel
//! never see each other's processes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

use beast_engine::checkpoint::JsonValue;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

/// Run the harness from the repo root with `args`, tagged `tag`.
fn harness(tag: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_beast-benchmark"))
        .current_dir(repo_root())
        .args(args)
        .env("BEAST_BENCH_TAG", tag)
        .envs(env.iter().copied())
        .output()
        .expect("the harness binary runs")
}

fn quick(tag: &str, workload: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--quick",
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
    ];
    args.extend_from_slice(extra);
    harness(tag, &args, &[])
}

/// The result object on the last line of stdout.
fn result(out: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    JsonValue::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn keys(doc: &JsonValue) -> Vec<String> {
    match doc {
        JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn metric(doc: &JsonValue, name: &str) -> f64 {
    match doc
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
    {
        Some(JsonValue::Float(f)) => *f,
        Some(JsonValue::Int(i)) => *i as f64,
        other => panic!("metric {name} has no numeric value: {other:?}"),
    }
}

/// Names (and units) BENCHMARK.json declares under `group`.
fn declared(group: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    doc.get(group)
        .and_then(JsonValue::items)
        .expect("metric list")
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("string field")
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

/// Check the output contract of a correct run against BENCHMARK.json.
fn assert_contract(out: &Output, group: &str) -> JsonValue {
    assert!(
        out.status.success(),
        "exit {:?}; stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = result(out);
    assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
    assert!(
        doc.get("attempted")
            .and_then(JsonValue::as_u64)
            .expect("attempted")
            >= 1
    );
    assert_eq!(doc.get("failed").and_then(JsonValue::as_u64), Some(0));
    let metrics = doc.get("metrics").expect("metrics");
    let want = declared(group);
    assert_eq!(
        keys(metrics),
        want.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
    );
    for (name, unit) in &want {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        let entry = metrics.get(name).expect("declared metric is reported");
        assert_eq!(keys(entry), ["value", "unit"]);
        assert_eq!(
            entry.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(metric(&doc, name).is_finite(), "{name}");
    }
    doc
}

/// Pids of live processes that inherited `tag`.
fn tagged_processes(tag: &str) -> Vec<u32> {
    let needle = format!("BEAST_BENCH_TAG={tag}");
    let mut pids = Vec::new();
    for entry in std::fs::read_dir("/proc").expect("/proc").flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|n| n.parse::<u32>().ok())
        else {
            continue;
        };
        if let Ok(environ) = std::fs::read(entry.path().join("environ")) {
            if environ
                .split(|&b| b == 0)
                .any(|var| var == needle.as_bytes())
            {
                pids.push(pid);
            }
        }
    }
    pids
}

/// A killed process group is reaped asynchronously; give it a moment.
fn assert_no_process_left(tag: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let left = tagged_processes(tag);
        if left.is_empty() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "processes {left:?} outlived the harness (tag {tag})"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in [
        "sweep-inproc",
        "sweep-distribute",
        "sweep-native",
        "serve-cold",
        "serve-warm",
        "count-sample",
    ] {
        let tag = format!("e2e-{workload}");
        let doc = assert_contract(&quick(&tag, workload, "0", &[]), "end_to_end");
        for (name, _) in declared("end_to_end") {
            assert!(
                metric(&doc, &name) > 0.0,
                "{workload}: {name} must never be 0"
            );
        }
        assert_no_process_left(&tag);
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_repeats_its_counts() {
    let spans = repo_root().join("target/bench-trace/self-test.spans.json");
    let _ = std::fs::remove_file(&spans);
    let run = |tag: &str| {
        let out = quick(
            tag,
            "serve-warm",
            "1",
            &["--trace-out", spans.to_str().expect("utf-8 path")],
        );
        let doc = assert_contract(&out, "per_layer");
        assert_no_process_left(tag);
        doc
    };
    let first = run("traced-1");
    let spans_text = std::fs::read_to_string(&spans).expect("the span file is written");
    let spans_doc = JsonValue::parse(&spans_text).expect("the span file is JSON");
    assert!(
        spans_doc.items().is_some_and(|s| s.len() > 100),
        "spans of ops and probes are recorded"
    );

    // The fault-free contract.
    assert_eq!(
        metric(&first, "cache.hit_ratio"),
        1.0,
        "every timed warm chunk hits"
    );
    assert_eq!(metric(&first, "native.fallback_chunks"), 0.0);
    assert_eq!(metric(&first, "search.rejected"), 0.0);
    assert_eq!(metric(&first, "distribute.worker_restarts"), 0.0);

    // Counts made by the program repeat exactly with the same seed. (Cache
    // hit totals follow the number of requests that fit in the run; sizes of
    // documents that embed timings can differ by a digit.)
    let second = run("traced-2");
    for (name, unit) in declared("per_layer") {
        if unit == "count" && name != "cache.hits" {
            assert_eq!(
                metric(&first, &name),
                metric(&second, &name),
                "{name} must repeat exactly"
            );
        }
    }
}

#[test]
fn a_wrong_expected_fingerprint_fails_every_op() {
    let good = std::fs::read_to_string(repo_root().join("benchmark/expected.json"))
        .expect("expected.json");
    let entry = "\"r16/double/nn/256/2\": {\"survivors\": 1824, \"fingerprint\": \"";
    let at = good
        .find(entry)
        .expect("the quick sweep input is in expected.json")
        + entry.len();
    let mut bad = good.clone();
    bad.replace_range(at..at + 1, if &good[at..at + 1] == "0" { "1" } else { "0" });
    let path = repo_root().join("target/bench-trace/wrong-expected.json");
    std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
    std::fs::write(&path, bad).expect("write the corrupted copy");

    for workload in ["sweep-inproc", "sweep-distribute"] {
        let tag = format!("wrong-{workload}");
        let out = quick(
            &tag,
            workload,
            "0",
            &["--expected", path.to_str().expect("utf-8 path")],
        );
        assert_eq!(
            out.status.code(),
            Some(1),
            "a wrong output must fail the run"
        );
        let doc = result(&out);
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(false));
        let attempted = doc
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .expect("attempted");
        assert!(attempted >= 1);
        assert_eq!(
            doc.get("failed").and_then(JsonValue::as_u64),
            Some(attempted),
            "failed_share must be 1"
        );
        assert_no_process_left(&tag);
    }
}

#[test]
fn no_process_survives_a_harness_panic() {
    for workload in ["serve-warm", "sweep-distribute", "sweep-native"] {
        let tag = format!("panic-{workload}");
        let out = harness(
            &tag,
            &[
                "--quick",
                "--workload",
                workload,
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[("BEAST_BENCH_PANIC_AFTER_OPS", "2")],
        );
        assert!(
            !out.status.success(),
            "{workload}: the deliberate panic must fail the run"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("deliberate harness panic"));
        assert_no_process_left(&tag);
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let out = harness("bad-args", args, &[]);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
            "{args:?} printed a result"
        );
    }
}
