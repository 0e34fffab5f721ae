//! `repro … | head -1`: a reader that closes the pipe early is a normal end
//! of output, not a crash. Drives the real binary (`CARGO_BIN_EXE_repro`)
//! with its stdout closed after the first line.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

use beast_engine::checkpoint::JsonValue;

#[test]
fn a_closed_stdout_ends_repro_quietly() {
    let json = std::env::temp_dir().join("beast-closed-stdout.json");
    let _ = std::fs::remove_file(&json);
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["sweep", "32", "--threads", "1", "--json"])
        .arg(&json)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro binary runs");

    // Read the banner's first line, then close our end: everything `repro`
    // prints once the sweep has run (tens of milliseconds later) hits a
    // broken pipe.
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("first line");
    drop(stdout);

    let mut stderr = String::new();
    child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).expect("stderr");
    let status = child.wait().expect("repro exits");
    assert!(!stderr.contains("panicked"), "repro panicked on a closed stdout:\n{stderr}");
    assert_eq!(status.code(), Some(0), "a closed stdout is not a failure:\n{stderr}");
    // It stops at the first print after the sweep, before the dump; had it
    // outrun this test to the dump, the file is there whole.
    if let Ok(text) = std::fs::read_to_string(&json) {
        JsonValue::parse(&text).expect("a --json file left behind is complete");
    }
}
