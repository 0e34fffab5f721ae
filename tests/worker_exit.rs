//! A distribute worker must exit with its sweep, not with its heartbeat
//! ticker: `serve_worker` joins the ticker thread, which used to sleep out
//! the rest of a tick (`hb_ms / 4`, up to 1 s) after the final `bye`.

use std::cell::Cell;
use std::io::Read;
use std::time::{Duration, Instant};

use beast::prelude::*;
use beast_core::ir::LoweredPlan;
use beast_engine::distribute::{serve_worker, WorkerChaos};

/// A scripted supervisor: hands out the frame bytes and notes the instant
/// the last one (the end of `bye`) was read.
struct Script<'a> {
    bytes: &'a [u8],
    drained: &'a Cell<Option<Instant>>,
}

impl Read for Script<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.bytes.read(buf)?;
        if n > 0 && self.bytes.is_empty() {
            self.drained.set(Some(Instant::now()));
        }
        Ok(n)
    }
}

fn frame(out: &mut Vec<u8>, payload: &str) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload.as_bytes());
}

#[test]
fn worker_returns_promptly_after_bye() {
    let space = Space::builder("exit")
        .range("a", 1, 9)
        .range("b", 1, 9)
        .constraint("over", ConstraintClass::Hard, (var("a") * var("b")).gt(20))
        .build()
        .unwrap();
    let lp = LoweredPlan::new(&Plan::new(&space, PlanOptions::default()).unwrap()).unwrap();

    // A 10 s heartbeat puts the ticker on its longest (1 s) tick.
    let mut script = Vec::new();
    frame(&mut script, "{\"v\":1,\"hello\":{\"policy\":\"abort\",\"hb_ms\":10000}}");
    frame(&mut script, "{\"v\":1,\"shard\":{\"chunk\":0,\"values\":[1,2,3]}}");
    frame(&mut script, "{\"v\":1,\"bye\":{}}");

    let drained = Cell::new(None);
    let mut replies: Vec<u8> = Vec::new();
    serve_worker(
        &lp,
        EngineOptions::default(),
        FingerprintVisitor::new,
        &WorkerChaos::default(),
        Script { bytes: &script, drained: &drained },
        &mut replies,
    )
    .unwrap();
    let after_bye = drained.get().expect("the script was read to its end").elapsed();
    assert!(
        after_bye < Duration::from_millis(250),
        "worker outlived its bye by {after_bye:?}"
    );
    assert!(!replies.is_empty(), "ready and done frames were written");
}
