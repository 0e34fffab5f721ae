//! Checkpoint/resume for long sweeps: periodically persist the merged
//! chunk-order prefix of a supervised run to a JSON file, and complete only
//! the missing chunk suffix after an interruption.
//!
//! The paper's headline GEMM enumeration runs for 66 948 s in Python; at
//! that scale a power cut or a deadline must not discard a day of work. A
//! checkpoint stores the one thing the supervisor needs to continue — the
//! index of the first unfinished chunk — together with everything already
//! merged for the prefix before it: pruning statistics, block-pruning
//! counters, fault records and the visitor state (via [`SaveState`]).
//! Because [`crate::parallel`] folds chunks strictly in chunk order, the
//! prefix edge is a single number and a resumed sweep is bit-identical to an
//! uninterrupted one (asserted in `tests/fault_tolerance.rs`).
//!
//! The format is hand-rolled JSON, like the rest of the crate's telemetry —
//! the build environment cannot vendor `serde` — so this module also carries
//! a minimal recursive-descent JSON parser ([`JsonValue`]). Counters are
//! written as exact decimal integers and parsed as `i128`, never routed
//! through `f64`, which would silently round 64-bit hashes above 2^53. The
//! sub-sweep cache in [`crate::service::cache`] persists through the same
//! machinery: the parser, the [`SaveState`] visitor encoding, the shared
//! stats/blocks (de)serializers, and the atomic write protocol.
//!
//! Writes are atomic: the file is written to `<path>.tmp` and renamed over
//! the target, so a crash mid-write leaves the previous checkpoint intact.

use std::path::{Path, PathBuf};

use beast_core::hash::Fnv1a;
use beast_core::ir::LoweredPlan;

use crate::compiled::EngineOptions;
use crate::fault::{FaultAction, FaultKind, FaultRecord};
use crate::parallel::{run_threaded, CkSink, CkSnapshot, ParallelOptions, ResumeSeed};
use crate::stats::{BlockStats, PruneStats};
use crate::sweep::SweepError;
use crate::telemetry::{fault_record_json, json_str, SweepReport};
use crate::visit::{CountVisitor, FingerprintVisitor, Visitor};
use crate::walker::SweepOutcome;

/// Current (and only supported) checkpoint file format version.
///
/// Format 2 ends with a `"crc"` field — FNV-1a 64 ([`Fnv1a`], the digest the
/// structural fingerprint uses) over every byte before the `,"crc":"` suffix
/// — so truncation and bit flips are detected on resume instead of merging
/// silently wrong counters.
const FORMAT: i128 = 2;

/// The checkpoint integrity checksum of `bytes`.
fn crc64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_raw(bytes);
    h.finish()
}

/// A parsed JSON value (minimal, std-only).
///
/// Integers are kept exact as `i128` — wide enough for any `u64` counter —
/// and only lexically float numbers become [`JsonValue::Float`].
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer literal, exact.
    Int(i128),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document (trailing garbage is an error).
    /// Arrays and objects nested deeper than [`MAX_DEPTH`] are an error,
    /// so hostile input cannot exhaust the stack.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser { s: text, b: text.as_bytes(), i: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn items(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Exact unsigned integer (rejects floats and out-of-range values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Exact signed integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Exact `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Int(i) => usize::try_from(*i).ok(),
            _ => None,
        }
    }
}

/// How deeply arrays and objects may nest in a parsed document.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    /// Open one more array or object inside `depth` open ones, refusing
    /// past [`MAX_DEPTH`].
    fn descend(&self, depth: usize) -> Result<usize, String> {
        if depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.i));
        }
        Ok(depth + 1)
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    /// The value at the cursor, inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.eat_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.eat_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.i)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let depth = self.descend(depth)?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            // Duplicate keys are rejected outright: `get` returns the first
            // match, so a duplicated counter later in the file would be
            // silently ignored — exactly the corruption a checkpoint parser
            // must refuse to guess about.
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key `{key}` at byte {}", self.i));
            }
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value(depth)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let depth = self.descend(depth)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape in one go:
                    // both are ASCII, so the run ends on a char boundary of
                    // the `&str` input.
                    let start = self.i;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.i += 1;
                    }
                    out.push_str(&self.s[start..self.i]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.i += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.i += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        if float {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| format!("bad number `{text}`"))
        } else {
            text.parse::<i128>()
                .map(JsonValue::Int)
                .map_err(|_| format!("bad number `{text}`"))
        }
    }
}

/// Visitor state that can round-trip through a checkpoint file.
///
/// `save_state` returns one JSON *value* (it is embedded under the
/// checkpoint's `"visitor"` key); `load_state` restores it into a freshly
/// constructed visitor. The contract is exactness: a visitor loaded from
/// `save_state` must behave bit-identically to the one that saved it, or
/// resume determinism breaks.
pub trait SaveState {
    /// Serialize the accumulated state as a JSON value.
    fn save_state(&self) -> String;
    /// Restore state saved by [`SaveState::save_state`].
    fn load_state(&mut self, v: &JsonValue) -> Result<(), String>;
}

impl SaveState for CountVisitor {
    fn save_state(&self) -> String {
        format!("{{\"count\":{}}}", self.count)
    }

    fn load_state(&mut self, v: &JsonValue) -> Result<(), String> {
        self.count = v
            .get("count")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| "visitor state: missing count".to_string())?;
        Ok(())
    }
}

impl SaveState for FingerprintVisitor {
    fn save_state(&self) -> String {
        format!(
            "{{\"hash\":{},\"pow\":{},\"count\":{}}}",
            self.hash, self.pow, self.count
        )
    }

    fn load_state(&mut self, v: &JsonValue) -> Result<(), String> {
        let field = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("visitor state: missing {key}"))
        };
        self.hash = field("hash")?;
        self.pow = field("pow")?;
        self.count = field("count")?;
        Ok(())
    }
}

/// Where, how often, and whether to resume a checkpointed sweep.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint file path.
    pub path: PathBuf,
    /// Persist after this many newly completed chunks (min 1; the final
    /// state is always flushed on exit).
    pub every_chunks: usize,
    /// Load `path` and complete only the missing chunks. Without this flag
    /// an existing file is overwritten and the sweep starts from scratch.
    pub resume: bool,
}

impl CheckpointConfig {
    /// Checkpoint to `path` every 8 chunks, without resuming.
    pub fn new(path: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig { path: path.into(), every_chunks: 8, resume: false }
    }
}

/// [`crate::parallel::run_parallel_report`] with checkpoint persistence and
/// optional resume.
///
/// On resume the chunk grid is pinned from the file (never re-derived from
/// the thread count), the completed prefix `0..next` is seeded into the
/// merge, and workers evaluate only chunks `next..`; the final outcome is
/// bit-identical to an uninterrupted run. A missing file with
/// [`CheckpointConfig::resume`] set, or a checkpoint recorded for a
/// different space shape, fails with [`SweepError::Checkpoint`].
pub fn run_checkpointed<V, F>(
    lp: &LoweredPlan,
    opts: &ParallelOptions,
    ck: &CheckpointConfig,
    make_visitor: F,
) -> Result<(SweepOutcome<V>, SweepReport), SweepError>
where
    V: Visitor + Send + SaveState,
    F: Fn() -> V + Sync,
{
    with_checkpoint(lp, &opts.engine, ck, &make_visitor, |seed, sink| {
        run_threaded(lp, opts, &make_visitor, seed, Some(sink), None)
    })
}

/// The checkpoint wiring shared by [`run_checkpointed`] and
/// [`crate::distribute::run_distributed_checkpointed`]: read and validate
/// the resume seed when [`CheckpointConfig::resume`] is set, build the write
/// sink, and hand both to `run`.
pub(crate) fn with_checkpoint<V, T>(
    lp: &LoweredPlan,
    engine: &EngineOptions,
    ck: &CheckpointConfig,
    make_visitor: &dyn Fn() -> V,
    run: impl FnOnce(Option<ResumeSeed<V>>, &CkSink<'_, V>) -> Result<T, SweepError>,
) -> Result<T, SweepError>
where
    V: Visitor + SaveState,
{
    let space_name = lp.plan.space().name().to_string();
    // The same execution-options fingerprint that scopes the sub-sweep cache
    // is recorded in every checkpoint: resuming a prefix evaluated under
    // different options (another engine tier, pruning toggles, schedule)
    // would merge counters with incompatible accounting.
    let engine_sig = engine.signature();
    let seed = if ck.resume {
        let text = std::fs::read_to_string(&ck.path).map_err(|e| {
            SweepError::Checkpoint(format!(
                "cannot read checkpoint {}: {e}",
                ck.path.display()
            ))
        })?;
        parse_checkpoint(&text, &space_name, &engine_sig, make_visitor)
            .map_err(SweepError::Checkpoint)?
    } else {
        None
    };
    let writer =
        |snap: &CkSnapshot<'_, V>| write_checkpoint(&ck.path, &space_name, &engine_sig, snap);
    run(seed, &CkSink { every: ck.every_chunks.max(1), write: &writer })
}

/// Serialize and atomically persist one snapshot.
pub(crate) fn write_checkpoint<V: SaveState>(
    path: &Path,
    space: &str,
    engine_sig: &str,
    snap: &CkSnapshot<'_, V>,
) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(1024);
    let _ = write!(out, "{{\"format\":{FORMAT},");
    json_str(&mut out, "space", space);
    out.push(',');
    json_str(&mut out, "engine", engine_sig);
    let _ = write!(
        out,
        ",\"outer_len\":{},\"chunk_len\":{},\"chunks\":{},\"next\":{}",
        snap.outer_len, snap.chunk_len, snap.chunks, snap.next
    );
    out.push_str(",\"stats\":");
    stats_json(&mut out, snap.stats);
    out.push_str(",\"blocks\":");
    blocks_json(&mut out, snap.blocks);
    out.push_str(",\"faults\":[");
    for (i, r) in snap.faults.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        fault_record_json(&mut out, r);
    }
    out.push_str("],\"visitor\":");
    out.push_str(&snap.visitor.save_state());
    // Format 2 integrity suffix: the checksum covers every byte before it,
    // so the parser can recompute the same prefix with a single `rfind`.
    let crc = crc64(out.as_bytes());
    let _ = write!(out, ",\"crc\":\"{crc:016x}\"}}");

    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, &out)
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} over {}: {e}", tmp.display(), path.display()))
}

fn u64_array(out: &mut String, values: &[u64]) {
    use std::fmt::Write as _;
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// Append [`PruneStats`] as a JSON object with exact integer counters.
/// Shared by the checkpoint writer and the sub-sweep cache store.
pub(crate) fn stats_json(out: &mut String, stats: &PruneStats) {
    use std::fmt::Write as _;
    out.push_str("{\"evaluated\":");
    u64_array(out, &stats.evaluated);
    out.push_str(",\"pruned\":");
    u64_array(out, &stats.pruned);
    let _ = write!(out, ",\"survivors\":{}}}", stats.survivors);
}

/// Append [`BlockStats`] as a JSON object with exact integer counters.
pub(crate) fn blocks_json(out: &mut String, blocks: &BlockStats) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"subtree_skips\":{},\"congruence_skips\":{},\
         \"points_skipped\":{},\"checks_elided\":{},\"guard_runs\":{},\
         \"loops_solved\":{},\"points_solved\":{},\
         \"loops_replayed\":{},\"rows_replayed\":{}}}",
        blocks.subtree_skips,
        blocks.congruence_skips,
        blocks.points_skipped,
        blocks.checks_elided,
        blocks.guard_runs,
        blocks.loops_solved,
        blocks.points_solved,
        blocks.loops_replayed,
        blocks.rows_replayed
    );
}

/// Parse a [`PruneStats`] object written by [`stats_json`]. `ctx` prefixes
/// error messages (e.g. `"checkpoint"` or `"cache"`).
pub(crate) fn parse_stats(doc: &JsonValue, ctx: &str) -> Result<PruneStats, String> {
    let counters = |key: &str| -> Result<Vec<u64>, String> {
        doc.get(key)
            .and_then(JsonValue::items)
            .ok_or_else(|| format!("{ctx}: stats.{key} missing"))?
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| format!("{ctx}: stats.{key} not integers")))
            .collect()
    };
    let stats = PruneStats {
        evaluated: counters("evaluated")?,
        pruned: counters("pruned")?,
        survivors: doc
            .get("survivors")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("{ctx}: stats.survivors missing"))?,
    };
    if stats.evaluated.len() != stats.pruned.len() {
        return Err(format!("{ctx}: stats arrays disagree in length"));
    }
    Ok(stats)
}

/// Parse a [`BlockStats`] object written by [`blocks_json`]. The guard,
/// narrowing and replay counters are optional (absent ⇒ 0): checkpoints,
/// cache files and `done` frames written before they existed still load.
pub(crate) fn parse_blocks(doc: &JsonValue, ctx: &str) -> Result<BlockStats, String> {
    let block = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("{ctx}: blocks.{key} missing"))
    };
    let optional = |key: &str| match doc.get(key) {
        None => Ok(0),
        Some(v) => v.as_u64().ok_or_else(|| format!("{ctx}: blocks.{key} not an integer")),
    };
    Ok(BlockStats {
        subtree_skips: block("subtree_skips")?,
        congruence_skips: block("congruence_skips")?,
        points_skipped: block("points_skipped")?,
        checks_elided: block("checks_elided")?,
        guard_runs: optional("guard_runs")?,
        loops_solved: optional("loops_solved")?,
        points_solved: optional("points_solved")?,
        loops_replayed: optional("loops_replayed")?,
        rows_replayed: optional("rows_replayed")?,
    })
}

/// Parse and validate a checkpoint file into a [`ResumeSeed`]. Returns
/// `Ok(None)` when the file records no completed chunks (fresh start).
pub(crate) fn parse_checkpoint<V: Visitor + SaveState>(
    text: &str,
    space: &str,
    engine_sig: &str,
    make_visitor: &dyn Fn() -> V,
) -> Result<Option<ResumeSeed<V>>, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("malformed checkpoint: {e}"))?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("checkpoint: missing `{key}`"));
    let usize_field = |key: &str| {
        field(key)?.as_usize().ok_or_else(|| format!("checkpoint: `{key}` is not an integer"))
    };

    let format = field("format")?
        .as_i64()
        .ok_or_else(|| "checkpoint: `format` is not an integer".to_string())?;
    if format != FORMAT as i64 {
        return Err(format!("checkpoint: unsupported format {format}"));
    }
    // A valid crc comes before any counter is trusted.
    verify_crc(text, &doc)?;
    let recorded_space = field("space")?.as_str().unwrap_or_default();
    if recorded_space != space {
        return Err(format!(
            "checkpoint is for space `{recorded_space}`, not `{space}`"
        ));
    }
    // A prefix whose counters were produced under other execution options
    // cannot be merged.
    let recorded_engine = field("engine")?.as_str().unwrap_or_default();
    if recorded_engine != engine_sig {
        return Err(format!(
            "checkpoint was written with engine options `{recorded_engine}`, \
             current options are `{engine_sig}`"
        ));
    }
    let outer_len = usize_field("outer_len")?;
    let chunk_len = usize_field("chunk_len")?;
    let chunks = usize_field("chunks")?;
    let next = usize_field("next")?;
    if next > chunks || chunk_len == 0 {
        return Err(format!(
            "checkpoint: inconsistent grid (next {next}, chunks {chunks}, chunk_len {chunk_len})"
        ));
    }
    if next == 0 {
        return Ok(None);
    }

    let stats = parse_stats(field("stats")?, "checkpoint")?;
    let blocks = parse_blocks(field("blocks")?, "checkpoint")?;

    let faults = field("faults")?
        .items()
        .ok_or_else(|| "checkpoint: faults is not an array".to_string())?
        .iter()
        .map(parse_fault_record)
        .collect::<Result<Vec<_>, _>>()?;

    let mut visitor = make_visitor();
    visitor.load_state(field("visitor")?)?;

    Ok(Some(ResumeSeed { outer_len, chunk_len, next, stats, blocks, faults, visitor }))
}

/// Verify the trailing `,"crc":"…"` suffix of a format-2 checkpoint:
/// recompute FNV-1a 64 over the byte prefix and compare against the
/// recorded value. Truncation, bit flips in the body, and flips inside the
/// crc itself all fail here with a structured error.
fn verify_crc(text: &str, doc: &JsonValue) -> Result<(), String> {
    let recorded = doc
        .get("crc")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "checkpoint: format 2 requires a `crc` field".to_string())?;
    // Exactly what the writer emits (`{:016x}`): a case-flipped digit would
    // parse to the same value, and a flipped bit must never resume.
    let canonical = recorded.len() == 16
        && recorded.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    let recorded = u64::from_str_radix(recorded, 16)
        .ok()
        .filter(|_| canonical)
        .ok_or_else(|| "checkpoint: `crc` is not 16 lowercase hex digits".to_string())?;
    // The writer emits the crc as the final field, so the last occurrence
    // of the marker is the real suffix boundary even if a string payload
    // earlier in the file happens to contain the same bytes.
    let marker = ",\"crc\":\"";
    let pos = text
        .rfind(marker)
        .ok_or_else(|| "checkpoint: `crc` suffix missing".to_string())?;
    let computed = crc64(&text.as_bytes()[..pos]);
    if computed != recorded {
        return Err(format!(
            "checkpoint: crc mismatch (recorded {recorded:016x}, computed {computed:016x}) \
             — file is corrupt, refusing to resume"
        ));
    }
    Ok(())
}

pub(crate) fn parse_fault_record(v: &JsonValue) -> Result<FaultRecord, String> {
    let miss = |key: &str| format!("checkpoint: fault record missing `{key}`");
    Ok(FaultRecord {
        chunk: v.get("chunk").and_then(JsonValue::as_usize).ok_or_else(|| miss("chunk"))?,
        ordinal: v.get("ordinal").and_then(JsonValue::as_u64).ok_or_else(|| miss("ordinal"))?,
        attempt: v
            .get("attempt")
            .and_then(JsonValue::as_u64)
            .and_then(|a| u32::try_from(a).ok())
            .ok_or_else(|| miss("attempt"))?,
        kind: v
            .get("kind")
            .and_then(JsonValue::as_str)
            .and_then(FaultKind::parse)
            .ok_or_else(|| miss("kind"))?,
        action: v
            .get("action")
            .and_then(JsonValue::as_str)
            .and_then(FaultAction::parse)
            .ok_or_else(|| miss("action"))?,
        site: v.get("site").and_then(JsonValue::as_str).ok_or_else(|| miss("site"))?.to_string(),
        error: v.get("error").and_then(JsonValue::as_str).ok_or_else(|| miss("error"))?.to_string(),
        bindings: v
            .get("bindings")
            .and_then(JsonValue::items)
            .ok_or_else(|| miss("bindings"))?
            .iter()
            .map(|pair| {
                let items = pair.items().filter(|p| p.len() == 2)?;
                Some((items[0].as_str()?.to_string(), items[1].as_i64()?))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| "checkpoint: malformed fault bindings".to_string())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::EngineOptions;

    #[test]
    fn json_parser_round_trips_scalars_and_nesting() {
        let doc = JsonValue::parse(
            r#"{"a": 1, "b": [true, null, -7, 2.5, "x\nyA"], "c": {"d": 18446744073709551615}}"#,
        )
        .unwrap();
        assert_eq!(doc.get("a").unwrap(), &JsonValue::Int(1));
        let b = doc.get("b").unwrap().items().unwrap();
        assert_eq!(b[0], JsonValue::Bool(true));
        assert_eq!(b[1], JsonValue::Null);
        assert_eq!(b[2].as_i64(), Some(-7));
        assert_eq!(b[3], JsonValue::Float(2.5));
        assert_eq!(b[4].as_str(), Some("x\nyA"));
        // u64::MAX survives exactly (this is why integers are i128, not f64).
        assert_eq!(doc.get("c").unwrap().get("d").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn json_parser_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "{} extra", "\"unterminated", "tru"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Nesting is capped: a document [`MAX_DEPTH`] levels deep parses, one
    /// level more is an error, and so is a 200 000-deep one, which would
    /// otherwise overflow the parsing thread's stack.
    #[test]
    fn json_parser_refuses_nesting_past_the_cap() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&objects).is_ok());
        for bad in [nested(MAX_DEPTH + 1), "[".repeat(200_000), "{\"k\":".repeat(200_000)] {
            let err = JsonValue::parse(&bad).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        // Depth is per path, not per document: siblings do not add up.
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","));
        assert!(JsonValue::parse(&wide).is_ok());
    }

    /// Strings parse in one pass: a 4 MiB string of multi-byte characters,
    /// quotes and escapes round-trips, well inside the time a per-character
    /// re-validation of the tail would take (minutes).
    #[test]
    fn json_parser_reads_long_strings_in_linear_time() {
        let unit = "añ€𝄞\"\\\n";
        let want = unit.repeat((4 << 20) / unit.len());
        let mut doc = String::new();
        crate::telemetry::json_str_value(&mut doc, &want);
        let start = std::time::Instant::now();
        let got = JsonValue::parse(&doc).unwrap();
        assert_eq!(got.as_str(), Some(want.as_str()));
        assert!(start.elapsed() < std::time::Duration::from_secs(5), "{:?}", start.elapsed());
    }

    #[test]
    fn visitor_states_round_trip() {
        let counted = CountVisitor { count: 12345 };
        let mut restored = CountVisitor::default();
        restored.load_state(&JsonValue::parse(&counted.save_state()).unwrap()).unwrap();
        assert_eq!(restored.count, 12345);

        let fp = FingerprintVisitor { hash: u64::MAX - 3, pow: 0x123456789abcdef0, count: 7 };
        let mut restored = FingerprintVisitor::new();
        restored.load_state(&JsonValue::parse(&fp.save_state()).unwrap()).unwrap();
        assert_eq!(restored, fp);
    }

    #[test]
    fn fault_records_round_trip_through_json() {
        let record = FaultRecord {
            chunk: 3,
            ordinal: 42,
            attempt: 1,
            kind: FaultKind::Panic,
            action: FaultAction::QuarantinedChunk,
            site: "chunk".to_string(),
            error: "injected panic (chunk 3)\"quoted\"".to_string(),
            bindings: vec![("x".to_string(), -5), ("y".to_string(), 9)],
        };
        let mut out = String::new();
        fault_record_json(&mut out, &record);
        let parsed = parse_fault_record(&JsonValue::parse(&out).unwrap()).unwrap();
        assert_eq!(parsed, record);
    }

    /// Block counters written before the guard, narrowing and replay
    /// counters existed (older checkpoints, cache files, `done` frames)
    /// still load, as zeros.
    #[test]
    fn blocks_without_narrowing_counters_still_parse() {
        let old = r#"{"subtree_skips":4,"congruence_skips":1,"points_skipped":99,"checks_elided":6}"#;
        let blocks = parse_blocks(&JsonValue::parse(old).unwrap(), "test").unwrap();
        assert_eq!(
            blocks,
            BlockStats {
                subtree_skips: 4,
                congruence_skips: 1,
                points_skipped: 99,
                checks_elided: 6,
                ..BlockStats::default()
            }
        );
        let mut out = String::new();
        let new = BlockStats {
            guard_runs: 8,
            loops_solved: 3,
            points_solved: 57,
            loops_replayed: 2,
            rows_replayed: 11,
            ..blocks
        };
        blocks_json(&mut out, &new);
        assert_eq!(parse_blocks(&JsonValue::parse(&out).unwrap(), "test").unwrap(), new);
        // Present but malformed is still an error, not a silent zero.
        for key in ["guard_runs", "loops_solved", "rows_replayed"] {
            let bad = old.replace('}', &format!(r#","{key}":"many"}}"#));
            assert!(parse_blocks(&JsonValue::parse(&bad).unwrap(), "test").is_err());
        }
    }

    #[test]
    fn checkpoint_file_round_trips() {
        let dir = std::env::temp_dir().join("beast-ck-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.json");
        let stats = PruneStats {
            evaluated: vec![10, 20],
            pruned: vec![1, 2],
            survivors: 27,
        };
        let blocks = BlockStats {
            guard_runs: 12,
            subtree_skips: 4,
            congruence_skips: 1,
            points_skipped: 99,
            checks_elided: 6,
            loops_solved: 7,
            points_solved: 140,
            loops_replayed: 5,
            rows_replayed: 19,
        };
        let visitor = FingerprintVisitor { hash: 0xdead_beef_dead_beef, pow: 3, count: 27 };
        let faults = vec![FaultRecord {
            chunk: 1,
            ordinal: 0,
            attempt: 0,
            kind: FaultKind::Error,
            action: FaultAction::SkippedPoint,
            site: "bad".to_string(),
            error: "division by zero".to_string(),
            bindings: vec![("x".to_string(), 10)],
        }];
        let sig = EngineOptions::default().signature();
        write_checkpoint(
            &path,
            "unit",
            &sig,
            &CkSnapshot {
                outer_len: 64,
                chunk_len: 8,
                chunks: 8,
                next: 5,
                stats: &stats,
                blocks: &blocks,
                faults: &faults,
                visitor: &visitor,
            },
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let seed =
            parse_checkpoint::<FingerprintVisitor>(&text, "unit", &sig, &FingerprintVisitor::new)
                .unwrap()
                .expect("next > 0 must produce a seed");
        assert_eq!((seed.outer_len, seed.chunk_len, seed.next), (64, 8, 5));
        assert_eq!(seed.stats, stats);
        assert_eq!(seed.blocks, blocks);
        assert_eq!(seed.faults, faults);
        assert_eq!(seed.visitor, visitor);
        // Space mismatch is refused.
        assert!(parse_checkpoint::<FingerprintVisitor>(
            &text,
            "other",
            &sig,
            &FingerprintVisitor::new
        )
        .is_err());
        // Engine-options mismatch is refused: a prefix evaluated under the
        // native tier (or different pruning toggles) cannot be merged with
        // chunks evaluated under the defaults.
        let native_sig = EngineOptions::native().signature();
        let mismatch = parse_checkpoint::<FingerprintVisitor>(
            &text,
            "unit",
            &native_sig,
            &FingerprintVisitor::new,
        );
        match mismatch {
            Err(err) => assert!(err.contains("engine options"), "{err}"),
            Ok(_) => panic!("engine-options mismatch must be refused"),
        }
        // A file that merely *declares* format 1 (no crc, no `engine` key —
        // what a pre-options writer produced, or a hand edit) is refused:
        // nothing about its counters or options could be verified.
        let legacy = text
            .replacen("{\"format\":2,", "{\"format\":1,", 1)
            .replacen(&format!(",\"engine\":\"{sig}\""), "", 1);
        assert_ne!(legacy, text, "engine key must be present to strip");
        let crc_at = legacy.rfind(",\"crc\":\"").expect("crc suffix must be present to strip");
        let legacy = format!("{}}}", &legacy[..crc_at]);
        let parse = |t: &str| {
            parse_checkpoint::<FingerprintVisitor>(t, "unit", &sig, &FingerprintVisitor::new)
        };
        let err = parse(&legacy).err().expect("a format-1 file must be refused");
        assert!(err.contains("unsupported format 1"), "{err}");
        // Format 2 without the `engine` key is refused too, even under a crc
        // recomputed to match the edit.
        let body = text[..text.rfind(",\"crc\":\"").unwrap()]
            .replacen(&format!(",\"engine\":\"{sig}\""), "", 1);
        let no_engine = format!("{body},\"crc\":\"{:016x}\"}}", crc64(body.as_bytes()));
        let err = parse(&no_engine).err().expect("a file without `engine` must be refused");
        assert!(err.contains("missing `engine`"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// Format 2 corruption is caught by the crc: flipping any single body
    /// byte, truncating the file, or doctoring the recorded crc itself all
    /// yield a structured error instead of a silent wrong resume.
    #[test]
    fn checkpoint_crc_catches_corruption() {
        let stats = PruneStats { evaluated: vec![10], pruned: vec![1], survivors: 9 };
        let blocks = BlockStats::default();
        let visitor = CountVisitor { count: 9 };
        let dir = std::env::temp_dir().join("beast-ck-crc-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crc.json");
        let sig = EngineOptions::default().signature();
        write_checkpoint(
            &path,
            "unit",
            &sig,
            &CkSnapshot {
                outer_len: 16,
                chunk_len: 4,
                chunks: 4,
                next: 2,
                stats: &stats,
                blocks: &blocks,
                faults: &[],
                visitor: &visitor,
            },
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let parse = |t: &str| {
            parse_checkpoint::<CountVisitor>(t, "unit", &sig, &CountVisitor::default)
        };
        assert!(parse(&text).unwrap().is_some(), "pristine file must parse");

        // Flip the survivor count: structurally valid JSON, wrong bytes.
        let flipped = text.replacen("\"survivors\":9", "\"survivors\":8", 1);
        assert_ne!(flipped, text);
        let err = parse(&flipped).err().expect("flipped body must be refused");
        assert!(err.contains("crc mismatch"), "{err}");

        // Doctor the recorded crc itself.
        let crc_at = text.rfind(",\"crc\":\"").unwrap() + ",\"crc\":\"".len();
        let mut doctored = text.clone();
        let old = doctored.as_bytes()[crc_at];
        let new = if old == b'0' { '1' } else { '0' };
        doctored.replace_range(crc_at..crc_at + 1, &new.to_string());
        let err = parse(&doctored).err().expect("doctored crc must be refused");
        assert!(err.contains("crc"), "{err}");

        // Truncations anywhere are either a parse error or a crc mismatch,
        // never Ok.
        for cut in 1..text.len() {
            assert!(parse(&text[..cut]).is_err(), "truncation at {cut} accepted");
        }
    }

    /// Duplicate keys are a parse error everywhere: `get` returns the first
    /// match, so accepting duplicates would silently ignore the second copy
    /// of a counter.
    #[test]
    fn json_parser_rejects_duplicate_keys() {
        assert!(JsonValue::parse(r#"{"a":1,"a":2}"#).is_err());
        assert!(JsonValue::parse(r#"{"a":{"b":1,"b":1}}"#).is_err());
        assert!(JsonValue::parse(r#"{"a":1,"b":{"a":2}}"#).is_ok(), "nesting is not duplication");
    }
}
