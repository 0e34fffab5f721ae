//! Benchmark inputs and their reference outputs.
//!
//! An input is one GEMM space, written as the `"space"` object of a
//! `POST /sweeps` request; `repro sweep DIM` sweeps the variant with the
//! default precision, transposition and thresholds. `expected.json` holds the
//! survivor count and order-sensitive fingerprint of every input, produced
//! once by the interpreting [`Walker`] (`gen-expected`) and never by the
//! tiers under test.

use std::collections::BTreeMap;

use beast_codegen::{generate_and_run, lower, CBackend, Program, Toolchain, ToolchainResult};
use beast_core::analyze::count::Counter;
use beast_core::ir::LoweredPlan;
use beast_engine::checkpoint::JsonValue;
use beast_engine::visit::FingerprintVisitor;
use beast_engine::walker::{LoopStyle, Walker};
use beast_gemm::resolve_gemm_space;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PRECISIONS: [&str; 4] = ["single", "double", "single-complex", "double-complex"];
const TRANSPOSES: [&str; 4] = ["nn", "nt", "tn", "tt"];
const MIN_THREADS: [i64; 4] = [128, 256, 384, 512];
const MIN_FMAS: [i64; 4] = [1, 2, 3, 4];

/// One GEMM space: reduced device width, precision, transposition and the
/// two soft-constraint thresholds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    pub dim: i64,
    pub precision: &'static str,
    pub transpose: &'static str,
    pub min_threads: i64,
    pub min_fmas: i64,
}

impl Variant {
    /// The variant `repro sweep DIM` / `distribute DIM` sweeps.
    pub fn cli(dim: i64) -> Variant {
        Variant {
            dim,
            precision: "double",
            transpose: "nn",
            min_threads: 256,
            min_fmas: 2,
        }
    }

    /// Key in `expected.json`.
    pub fn key(&self) -> String {
        format!(
            "r{}/{}/{}/{}/{}",
            self.dim, self.precision, self.transpose, self.min_threads, self.min_fmas
        )
    }

    /// The `"space"` object of a request for this variant.
    pub fn space_json(&self) -> String {
        format!(
            "{{\"kind\":\"gemm\",\"reduced\":{},\"precision\":\"{}\",\"transpose\":\"{}\",\
             \"min_threads_per_multiprocessor\":{},\"min_fmas_per_load\":{}}}",
            self.dim, self.precision, self.transpose, self.min_threads, self.min_fmas
        )
    }

    /// Build and lower the space through the resolver the daemon uses.
    pub fn lower(&self) -> LoweredPlan {
        let doc = JsonValue::parse(&self.space_json()).expect("variant JSON is well-formed");
        resolve_gemm_space(&doc)
            .expect("every benchmark variant resolves")
            .plan
    }
}

/// The fixed request set of the `serve-*` workloads: every precision ×
/// transposition at the default thresholds, then the default case at every
/// other threshold pair — 31 distinct spaces. The set is fixed, and the seed
/// only orders it, because request cost varies 30× across variants: a seeded
/// *subset* would make the workload's cost a function of the seed.
pub fn serve_variants(dim: i64) -> Vec<Variant> {
    let mut set = Vec::new();
    for precision in PRECISIONS {
        for transpose in TRANSPOSES {
            set.push(Variant {
                precision,
                transpose,
                ..Variant::cli(dim)
            });
        }
    }
    for min_threads in MIN_THREADS {
        for min_fmas in MIN_FMAS {
            let v = Variant {
                min_threads,
                min_fmas,
                ..Variant::cli(dim)
            };
            if !set.contains(&v) {
                set.push(v);
            }
        }
    }
    set
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Input sizes of one benchmark mode.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `reduced(DIM)` of the three `sweep-*` workloads.
    pub sweep_dim: i64,
    /// `reduced(DIM)` of the `serve-*` request set.
    pub serve_dim: i64,
    /// `reduced(DIM)` of `count-sample`.
    pub count_dim: i64,
    /// Uniform draws per `count-sample` op.
    pub draws: usize,
    /// Warm requests primed per `serve-warm` set-up.
    pub primed: usize,
}

impl Sizes {
    /// The sizes BENCHMARK.json's numbers are measured at. `reduced(32)` is
    /// the largest sweep that still gives a dozen one-thread ops in a
    /// ten-second run; the serve set runs at `reduced(20)` so that all 31
    /// spaces are served about seven times (1.5 s a pass) in one.
    pub const FULL: Sizes = Sizes {
        sweep_dim: 32,
        serve_dim: 20,
        count_dim: 48,
        draws: 20_000,
        primed: 8,
    };
    /// `--quick`: everything on `reduced(16)` (1 824 survivors), for the
    /// harness's own tests.
    pub const QUICK: Sizes = Sizes {
        sweep_dim: 16,
        serve_dim: 16,
        count_dim: 16,
        draws: 500,
        primed: 4,
    };

    /// Every variant these sizes make the workloads check.
    fn variants(&self) -> Vec<Variant> {
        let mut all = vec![Variant::cli(self.sweep_dim), Variant::cli(self.count_dim)];
        all.extend(serve_variants(self.serve_dim));
        all
    }
}

/// Reference output of one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub survivors: u64,
    pub fingerprint: u64,
}

/// The parsed `expected.json`.
pub struct Expected(BTreeMap<String, Reference>);

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("expected.json: {e}"))?;
        let Some(JsonValue::Obj(inputs)) = doc.get("inputs") else {
            return Err("expected.json: no `inputs` object".to_string());
        };
        let mut map = BTreeMap::new();
        for (key, entry) in inputs {
            let survivors = entry.get("survivors").and_then(JsonValue::as_u64);
            let fingerprint = entry
                .get("fingerprint")
                .and_then(JsonValue::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            match (survivors, fingerprint) {
                (Some(survivors), Some(fingerprint)) => {
                    map.insert(
                        key.clone(),
                        Reference {
                            survivors,
                            fingerprint,
                        },
                    );
                }
                _ => return Err(format!("expected.json: malformed entry `{key}`")),
            }
        }
        Ok(Expected(map))
    }

    pub fn get(&self, v: &Variant) -> Result<Reference, String> {
        self.0
            .get(&v.key())
            .copied()
            .ok_or_else(|| format!("expected.json has no entry `{}`; run gen-expected", v.key()))
    }
}

/// Compare a tier's output with the reference.
pub fn check(v: &Variant, want: Reference, survivors: u64, fingerprint: u64) -> Result<(), String> {
    if survivors == want.survivors && fingerprint == want.fingerprint {
        Ok(())
    } else {
        Err(format!(
            "{}: got {survivors} survivors / {fingerprint:016x}, expected {} / {:016x}",
            v.key(),
            want.survivors,
            want.fingerprint
        ))
    }
}

/// `gen-expected`: sweep every input of both modes with the walker, demand
/// that the exact counter and the generated C program agree on the survivor
/// count, and print the new `expected.json` to stdout.
pub fn gen_expected() -> Result<String, String> {
    let mut variants = Sizes::FULL.variants();
    variants.extend(Sizes::QUICK.variants());
    let mut entries: BTreeMap<String, Reference> = BTreeMap::new();
    for v in variants {
        if entries.contains_key(&v.key()) {
            continue;
        }
        let t = std::time::Instant::now();
        let lp = v.lower();
        let out = Walker::new(&lp.plan, LoopStyle::RangeLazy)
            .run(FingerprintVisitor::default())
            .map_err(|e| format!("{}: walker: {e}", v.key()))?;
        let survivors = out.visitor.count;

        let counted = Counter::new(&lp)
            .total()
            .map_err(|e| format!("{}: count: {e}", v.key()))?;
        if counted != Some(u128::from(survivors)) {
            return Err(format!(
                "{}: walker {survivors} ≠ counter {counted:?}",
                v.key()
            ));
        }
        let program = Program::from_lowered(&lp).map_err(|e| format!("{}: {e}", v.key()))?;
        match generate_and_run(&CBackend, &Toolchain::c(), &lower(&program)) {
            ToolchainResult::Ran { counts, .. } if counts.survivors == survivors => {}
            other => {
                return Err(format!(
                    "{}: generated C disagrees or did not run: {other:?}",
                    v.key()
                ))
            }
        }
        eprintln!(
            "{}: {survivors} survivors ({:.1} s)",
            v.key(),
            t.elapsed().as_secs_f64()
        );
        entries.insert(
            v.key(),
            Reference {
                survivors,
                fingerprint: out.visitor.hash,
            },
        );
    }

    let mut out = String::from(
        "{\n\"generator\": \"Walker (LoopStyle::RangeLazy) + FingerprintVisitor; survivor counts \
         cross-checked against Counter::total and the generated C program\",\n\"inputs\": {\n",
    );
    let last = entries.len() - 1;
    for (i, (key, r)) in entries.iter().enumerate() {
        out.push_str(&format!(
            "  \"{key}\": {{\"survivors\": {}, \"fingerprint\": \"{:016x}\"}}{}\n",
            r.survivors,
            r.fingerprint,
            if i == last { "" } else { "," }
        ));
    }
    out.push_str("}\n}\n");
    Ok(out)
}
