//! `repro` refuses a `--flag` it does not read (exit 2, one line on stderr
//! naming the flag) instead of silently running the defaults — a typo like
//! `--thread 2`, or a stale `--no-batch` / `--schedule static` / `--schedule
//! adaptive` from before the lane tier and those modes were deleted — on
//! every subcommand, flagless ones included. Drives the real binary
//! (`CARGO_BIN_EXE_repro`); every flag-reading subcommand also gets its
//! full flag set through, with `--schedule declared`, which stays accepted.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Run `repro ARGS` with stdin closed; `(exit code, stderr)`.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .output()
        .expect("repro binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// A scratch file path unique to this test process, removed up front.
fn scratch(name: &str) -> String {
    let path: PathBuf =
        std::env::temp_dir().join(format!("beast-flags-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path.to_string_lossy().into_owned()
}

#[track_caller]
fn assert_refused(args: &[&str], names: &str) {
    let (code, stderr) = repro(args);
    assert_eq!(code, Some(2), "`repro {}` must exit 2:\n{stderr}", args.join(" "));
    assert_eq!(stderr.lines().count(), 1, "one-line error expected:\n{stderr}");
    assert!(stderr.starts_with("error: ") && stderr.contains(names), "{stderr}");
}

#[track_caller]
fn assert_runs(args: &[&str], want: i32) {
    let (code, stderr) = repro(args);
    assert_eq!(code, Some(want), "`repro {}`:\n{stderr}", args.join(" "));
}

#[test]
fn unknown_and_retired_flags_exit_2_naming_the_flag() {
    assert_refused(&["sweep", "16", "--bogus"], "`--bogus`");
    assert_refused(&["sweep", "16", "--thread", "2"], "`--thread`");
    assert_refused(&["sweep", "16", "--no-batch"], "`--no-batch`");
    assert_refused(&["sweep", "16", "--schedule", "static"], "--schedule");
    // The adaptive schedule is retired too; only `declared` stays accepted.
    assert_refused(&["sweep", "16", "--schedule", "adaptive"], "--schedule");
    assert_refused(&["worker", "16", "--schedule", "adaptive"], "--schedule");
    assert_refused(&["sweep", "16", "--schedule"], "--schedule");
    // `[DIM]` is a number or `paper`, never silently the default.
    assert_refused(&["sweep", "sixteen"], "`sixteen`");
    for cmd in ["distribute", "worker", "threads", "search", "lint", "count", "serve", "client"] {
        assert_refused(&[cmd, "16", "--bogus"], "`--bogus`");
    }
    // Subcommands that read no flag of their own refuse every one.
    for cmd in [
        "device", "space", "fig16", "fig17", "fig18", "fig19", "headline", "funnel", "table1",
        "viz", "batched", "all",
    ] {
        assert_refused(&[cmd, "16", "--bogus"], "`--bogus`");
    }
    assert_refused(&["funnel", "8", "--thread", "2"], "`--thread`");
    // A value that looks like a flag is still the known flag's value.
    assert_refused(&["lint", "16", "--json", "--bogus", "--bogus"], "`--bogus`");
    // An unknown subcommand is refused too, not silently something else.
    assert_eq!(repro(&["bogus", "16"]).0, Some(2));
}

#[test]
fn every_subcommand_accepts_its_full_flag_set() {
    fn with_globals<'a>(args: &[&'a str]) -> Vec<&'a str> {
        [args, &["--schedule", "declared", "--no-intervals", "--no-congruence"]].concat()
    }

    // `sweep`: a partial first pass (same engine options, or the signature
    // check refuses the file) leaves the checkpoint `--resume` needs.
    let (ck, json) = (scratch("sweep.ck"), scratch("sweep.json"));
    assert_runs(
        &with_globals(&["sweep", "16", "--chunks", "4", "--checkpoint", &ck, "--stop-after", "2"]),
        3,
    );
    assert_runs(
        &with_globals(&[
            "sweep", "16", "--threads", "1", "--chunks", "4", "--policy", "skip", "--seed", "1",
            "--inject-errors", "0", "--inject-panics", "0", "--transient", "--checkpoint", &ck,
            "--resume", "--every", "2", "--deadline", "600", "--stop-after", "0", "--json", &json,
            "--verify", "--engine", "compiled",
        ]),
        0,
    );

    let (ck, json) = (scratch("dist.ck"), scratch("dist.json"));
    assert_runs(
        &with_globals(&["distribute", "16", "--chunks", "4", "--checkpoint", &ck, "--stop-after", "2"]),
        3,
    );
    assert_runs(
        &with_globals(&[
            "distribute", "16", "--workers", "1", "--chunks", "4", "--policy", "abort",
            "--heartbeat-ms", "10000", "--retry", "1", "--backoff", "1", "--restarts", "0",
            "--checkpoint", &ck, "--resume", "--every", "2", "--stop-after", "0", "--json", &json,
            "--chaos-kill-after", "99", "--die-after", "99", "--stall-after", "99",
        ]),
        0,
    );

    // The worker gets past its flags to the handshake, where stdin is at EOF.
    let (code, stderr) =
        repro(&with_globals(&["worker", "16", "--die-after", "9", "--stall-after", "9"]));
    assert_eq!((code, stderr.trim()), (Some(1), "worker error: eof before hello"));

    let json = scratch("threads.json");
    assert_runs(&with_globals(&["threads", "16", "--threads", "1", "--json", &json]), 0);
    assert_runs(&["search", "16", "--sampler", "direct"], 0);
    assert_runs(&["lint", "16", "--json", &scratch("lint.json")], 0);
    assert_runs(&["count", "16", "--json", &scratch("count.json")], 0);

    // `serve` on a free port; `client` primes it, checks it and stops it.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1", "--executors", "1"])
        .args(["--chunks", "4", "--cache", &scratch("serve.cache")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro serve runs");
    let mut stdout = BufReader::new(daemon.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner");
    let addr = banner
        .split_once("http://")
        .and_then(|(_, rest)| rest.split([',', ' ']).next())
        .unwrap_or_else(|| {
            let mut stderr = String::new();
            let _ = daemon.stderr.take().expect("piped stderr").read_to_string(&mut stderr);
            panic!("no address in the serve banner `{banner}`:\n{stderr}")
        })
        .to_string();
    assert_runs(
        &["client", "16", "--addr", &addr, "--runs", "2", "--expect-speedup", "0", "--shutdown"],
        0,
    );
    assert_eq!(daemon.wait().expect("daemon exits").code(), Some(0));
}

/// A flag that a run would read and then ignore is refused too (exit 2, one
/// line naming both flags), from the library's table of refused pairings:
/// the serial walker has no chunks to stop after, polls no deadline, has no
/// fault policy and is itself the reference `--verify` checks against; and
/// `--resume` and `--every` need a `--checkpoint` on both chunked front ends.
#[test]
fn flags_a_run_would_ignore_exit_2_naming_both() {
    let refused = |args: &[&str], first: &str, second: &str| {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "`repro {}` must exit 2:\n{stderr}", args.join(" "));
        assert_eq!(stderr.lines().count(), 1, "one-line error expected:\n{stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(stderr.contains(first) && stderr.contains(second), "{stderr}");
    };
    let ignored: [&[&str]; 4] =
        [&["--stop-after", "1"], &["--deadline", "60"], &["--policy", "skip"], &["--verify"]];
    for ignored in ignored {
        let args = [&["sweep", "16", "--engine", "walker"][..], ignored].concat();
        refused(&args, "--engine walker", ignored[0]);
    }
    for cmd in ["sweep", "distribute"] {
        refused(&[cmd, "16", "--resume"], "--resume", "--checkpoint");
        refused(&[cmd, "16", "--every", "2"], "--every", "--checkpoint");
    }
    // The library's own refusals reach the CLI the same way.
    refused(&["distribute", "16", "--engine", "native"], "--engine native", "--workers");
}
