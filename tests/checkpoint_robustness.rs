//! Checkpoint robustness property suite.
//!
//! A checkpoint file is the one artifact that crosses a crash boundary, so
//! it gets adversarial treatment: every corruption of a valid file —
//! truncation at *any* byte, any single bit flip, duplicated JSON keys,
//! engine/space mismatches — must surface as a structured
//! [`SweepError::Checkpoint`] from the resume path. Never a panic, and
//! never a silent resume into wrong results. The only input that resumes is
//! the pristine file, and that resume is bit-identical to an uninterrupted
//! sweep (format 2 guards the payload with an FNV-1a CRC, so "valid JSON
//! that lies" is caught too).

use beast::prelude::*;
use beast_core::ir::LoweredPlan;
use beast_engine::checkpoint::{run_checkpointed, CheckpointConfig, JsonValue};
use beast_engine::parallel::{run_parallel_report, ParallelOptions};
use beast_gemm::{build_gemm_space, GemmSpaceParams};

const CHUNKS: usize = 16;

fn gemm_lowered() -> LoweredPlan {
    let space = build_gemm_space(&GemmSpaceParams::reduced(16)).unwrap();
    let plan = Plan::new(&space, PlanOptions::default()).unwrap();
    LoweredPlan::new(&plan).unwrap()
}

fn opts() -> ParallelOptions {
    ParallelOptions { threads: 2, chunk_count: CHUNKS, ..ParallelOptions::default() }
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("beast-checkpoint-robustness");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Produce a valid mid-sweep checkpoint file and return its bytes plus the
/// fingerprint of the uninterrupted reference sweep.
fn valid_checkpoint(name: &str) -> (std::path::PathBuf, String, FingerprintVisitor) {
    let lp = gemm_lowered();
    let path = scratch(name);
    let _ = std::fs::remove_file(&path);
    let mut interrupted = opts();
    interrupted.stop_after_chunks = CHUNKS / 2;
    let mut ck = CheckpointConfig::new(&path);
    ck.every_chunks = 1;
    let (_, report) =
        run_checkpointed(&lp, &interrupted, &ck, FingerprintVisitor::default).unwrap();
    assert!(report.partial, "the seed run must stop mid-sweep");
    let text = std::fs::read_to_string(&path).unwrap();
    let (reference, _) = run_parallel_report(&lp, &opts(), FingerprintVisitor::default).unwrap();
    (path, text, reference.visitor)
}

/// Resume from whatever is currently in `path`; the Err side is the
/// structured checkpoint diagnostic.
fn try_resume(lp: &LoweredPlan, path: &std::path::Path) -> Result<FingerprintVisitor, String> {
    let mut ck = CheckpointConfig::new(path);
    ck.resume = true;
    match run_checkpointed(lp, &opts(), &ck, FingerprintVisitor::default) {
        Ok((out, _)) => Ok(out.visitor),
        Err(SweepError::Checkpoint(msg)) => Err(msg),
        Err(other) => panic!("resume must fail as SweepError::Checkpoint, got: {other}"),
    }
}

/// Truncating the file at *every* byte boundary is refused with a
/// structured error; only the full file resumes, and it resumes
/// bit-identically.
#[test]
fn truncation_at_every_length_is_refused() {
    let lp = gemm_lowered();
    let (path, text, reference) = valid_checkpoint("truncate.json");
    for len in 0..text.len() {
        std::fs::write(&path, &text[..len]).unwrap();
        let err = try_resume(&lp, &path)
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} byte(s) must be refused"));
        assert!(!err.is_empty());
    }
    std::fs::write(&path, &text).unwrap();
    let resumed = try_resume(&lp, &path).expect("the pristine file must resume");
    assert_eq!(resumed, reference, "a pristine resume must be bit-identical");
}

/// Any single bit flip anywhere in the file — payload, counters, crc field,
/// structural punctuation — is caught (by the JSON parser, the UTF-8
/// decoder, or the format-2 CRC) and refused with a structured error.
#[test]
fn single_bit_flips_are_always_refused() {
    let lp = gemm_lowered();
    let (path, text, _) = valid_checkpoint("bitflip.json");
    let bytes = text.as_bytes();
    // Deterministic LCG so the sampled positions are stable run to run.
    let mut state: u64 = 0x5bd1_e995;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    for _ in 0..200 {
        let pos = (next() % bytes.len() as u64) as usize;
        let bit = 1u8 << (next() % 8);
        let mut flipped = bytes.to_vec();
        flipped[pos] ^= bit;
        std::fs::write(&path, &flipped).unwrap();
        assert!(
            try_resume(&lp, &path).is_err(),
            "flipping bit {bit:#04x} of byte {pos} must be refused"
        );
    }
}

/// Duplicated keys are a parse error at every nesting level — the parser
/// must not silently pick one of the two values.
#[test]
fn duplicated_keys_never_parse() {
    assert!(JsonValue::parse("{\"a\":1,\"a\":2}").is_err());
    assert!(JsonValue::parse("{\"outer\":{\"x\":1,\"x\":1}}").is_err());
    assert!(JsonValue::parse("{\"survivors\":9,\"stats\":{\"survivors\":9}}").is_ok());

    // File-level: splicing a duplicated key into a real checkpoint is
    // refused (the CRC catches the edit even before the parser would).
    let lp = gemm_lowered();
    let (path, text, _) = valid_checkpoint("dupkey.json");
    let doctored = text.replacen("{\"format\":", "{\"format\":2,\"format\":", 1);
    assert_ne!(doctored, text, "the fixture must contain a format key");
    std::fs::write(&path, &doctored).unwrap();
    assert!(try_resume(&lp, &path).is_err());
}

/// Format 1 had no crc and no recorded engine options, so a file that
/// merely *declares* it — the two-bit flip `'2'` → `'1'`, or a hand edit
/// that also strips the `crc` and `engine` fields to look the part — would
/// resume with unverified counters. Both are refused.
#[test]
fn downgrade_to_format_1_is_refused() {
    let lp = gemm_lowered();
    let (path, text, _) = valid_checkpoint("downgrade.json");
    let declared = text.replacen("{\"format\":2,", "{\"format\":1,", 1);
    assert_ne!(declared, text, "the fixture must open with its format key");
    let engine_at = declared.find(",\"engine\":\"").expect("the fixture records its engine");
    let engine_end = engine_at + 11 + declared[engine_at + 11..].find('"').unwrap() + 1;
    let crc_at = declared.rfind(",\"crc\":\"").expect("the fixture ends with its crc");
    let stripped =
        format!("{}{}}}", &declared[..engine_at], &declared[engine_end..crc_at]);
    assert!(JsonValue::parse(&stripped).is_ok(), "the doctored file must still be JSON");
    for doctored in [declared, stripped] {
        std::fs::write(&path, &doctored).unwrap();
        let err = try_resume(&lp, &path).expect_err("a format-1 file must be refused");
        assert!(err.contains("unsupported format 1"), "{err}");
    }
}

/// A checkpoint written under different engine options (a different chunk
/// semantics) or for a different space must be refused, not resumed into
/// subtly wrong results.
#[test]
fn mismatched_engine_or_space_is_refused() {
    let lp = gemm_lowered();
    let (path, _, _) = valid_checkpoint("mismatch.json");

    let mut other_engine = opts();
    other_engine.engine = EngineOptions::no_intervals();
    let mut ck = CheckpointConfig::new(&path);
    ck.resume = true;
    match run_checkpointed(&lp, &other_engine, &ck, FingerprintVisitor::default) {
        Err(SweepError::Checkpoint(msg)) => {
            assert!(msg.contains("engine"), "diagnostic should name the engine: {msg}")
        }
        other => panic!("engine mismatch must be refused, got: {other:?}"),
    }

    let other_space = build_gemm_space(&GemmSpaceParams::reduced(24)).unwrap();
    let other_plan = Plan::new(&other_space, PlanOptions::default()).unwrap();
    let other_lp = LoweredPlan::new(&other_plan).unwrap();
    let err = match try_resume(&other_lp, &path) {
        Err(err) => err,
        Ok(_) => panic!("space mismatch must be refused"),
    };
    assert!(!err.is_empty());
}

/// An empty and a non-JSON file both produce structured errors (the
/// degenerate corruption cases a crashed writer can leave behind).
#[test]
fn degenerate_files_are_refused() {
    let lp = gemm_lowered();
    for (name, contents) in [
        ("empty.json", "".as_bytes()),
        ("garbage.json", b"not json at all".as_slice()),
        ("non-utf8.json", &[0xff, 0xfe, 0x00, 0x01][..]),
    ] {
        let path = scratch(name);
        std::fs::write(&path, contents).unwrap();
        assert!(try_resume(&lp, &path).is_err(), "{name} must be refused");
    }
}
