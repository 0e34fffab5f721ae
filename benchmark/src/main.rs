//! The repo's benchmark: six named workloads over the whole Space → report
//! pipeline, three end-to-end metrics each, and a traced run that attributes
//! time and work to single layers. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! beast-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                 [--quick] [--expected PATH] [--trace-out PATH]
//! beast-benchmark gen-expected > benchmark/expected.json
//! ```
//!
//! Run from the repo root. Without `--workload` every workload runs in turn.
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. The exit code is non-zero when any op's output was
//! wrong.

mod host;
mod http;
mod inputs;
mod probes;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use beast_engine::checkpoint::JsonValue;

use host::HostGuard;
use inputs::{Expected, Sizes};
use stats::median;
use trace::Tracer;
use workloads::{measure, Env, Measured, ROUNDS, TIMING_QUANTILE, WORKLOADS};

/// End-to-end metrics, in BENCHMARK.json order: (name, unit).
const END_TO_END: [(&str, &str); 3] = [("op_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s")];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    quick: bool,
    expected: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        quick: false,
        expected: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}` (one of {WORKLOADS:?})"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--expected" => args.expected = Some(PathBuf::from(value()?)),
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Build `repro` the way its users do — from the root workspace, release
/// profile — and return the binary's path.
fn build_repro(target_dir: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "beast-bench",
            "--bin",
            "repro",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building `repro` failed (run from the repo root)".to_string());
    }
    let bin = target_dir.join("release").join("repro");
    if !bin.is_file() {
        return Err(format!("cargo built no {}", bin.display()));
    }
    Ok(bin)
}

/// `better` and `bound` of every metric, from BENCHMARK.json (display only).
fn metric_specs() -> Vec<(String, String, Option<f64>)> {
    let Some(doc) = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|s| JsonValue::parse(&s).ok())
    else {
        return Vec::new();
    };
    let mut specs = Vec::new();
    for group in ["end_to_end", "per_layer"] {
        for m in doc.get(group).and_then(JsonValue::items).unwrap_or(&[]) {
            let text = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            let bound = match m.get("bound") {
                Some(JsonValue::Float(f)) => Some(*f),
                Some(JsonValue::Int(i)) => Some(*i as f64),
                _ => None,
            };
            specs.push((text("name"), text("better"), bound));
        }
    }
    specs
}

/// One workload's result: the JSON metrics plus the human-readable rows.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn end_to_end_metrics(m: &Measured) -> Vec<(String, f64, &'static str)> {
    let value = |name: &str| match name {
        "op_s" => m.per_op(TIMING_QUANTILE, |s| s.seconds),
        "peak_rss_mb" => m.peak_rss_kb as f64 / 1024.0,
        "setup_s" => median(&m.setup_s),
        _ => unreachable!("END_TO_END names only"),
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), value(name), unit))
        .collect()
}

fn run_workload(
    name: &str,
    args: &Args,
    env: &Env,
    specs: &[(String, String, Option<f64>)],
) -> Result<Outcome, String> {
    let mut w = workloads::make(name, env)?;
    let guard = HostGuard::begin();
    let mut spans = Tracer::new(true);
    // A traced invocation is a short untraced reference run, then the same
    // again with spans on; the layer probes follow below.
    let (mut measured, traced) = if args.trace {
        let reference = measure(w.as_mut(), args.seconds / 4.0, 2, &mut Tracer::new(false))?;
        (
            reference,
            Some(measure(w.as_mut(), args.seconds / 4.0, 2, &mut spans)?),
        )
    } else {
        (
            measure(w.as_mut(), args.seconds, ROUNDS, &mut Tracer::new(false))?,
            None,
        )
    };
    let counts = w.counts().clone();
    drop(w);
    let host = guard.end();
    println!(
        "{name}: host.calib_s {:.6} s, host.steal_share {:.4}{}",
        host.calib_s,
        host.steal_share,
        if host.disturbed {
            "  ** disturbed: calibrations differ by more than 10 % **"
        } else {
            ""
        }
    );

    let op_s = |m: &Measured, p: f64| m.per_op(p, |s| s.seconds);
    let all_failed =
        measured.samples.is_empty() || traced.as_ref().is_some_and(|t| t.samples.is_empty());
    let metrics = match &traced {
        // No op succeeded: there is nothing to take a quantile of.
        _ if all_failed => Vec::new(),
        None => end_to_end_metrics(&measured),
        Some(traced) => {
            let mut own = counts;
            let overhead = op_s(traced, TIMING_QUANTILE) / op_s(&measured, TIMING_QUANTILE) - 1.0;
            own.insert("trace.overhead_share", overhead);
            own.insert("workload.op_median_s", op_s(traced, 0.5));
            own.insert(
                "workload.cpu_s",
                traced.per_op(TIMING_QUANTILE, |s| s.cpu_s),
            );
            let layers = probes::run(env, &mut spans, &own, &host)?;
            let out = args.trace_out.clone().unwrap_or_else(|| {
                env.work.join(format!(
                    "../../bench-trace/{name}-seed{}.spans.json",
                    args.seed
                ))
            });
            spans
                .write(&out)
                .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
            eprintln!("{name}: spans written to {}", out.display());
            layers
        }
    };
    if let Some(traced) = traced {
        measured.attempted += traced.attempted;
        measured.failed += traced.failed;
        measured.failures.extend(traced.failures);
        measured.samples.extend(traced.samples);
    }

    println!(
        "{name}: attempted {} failed {} (failed_share {:.4}); set-ups n={}",
        measured.attempted,
        measured.failed,
        measured.failed as f64 / measured.attempted as f64,
        measured.setup_s.len(),
    );
    if !measured.samples.is_empty() {
        println!(
            "{name}: op wall-clock n={} p10={:.6} q1={:.6} median={:.6} q3={:.6} s",
            measured.samples.len(),
            op_s(&measured, 0.10),
            op_s(&measured, 0.25),
            op_s(&measured, 0.50),
            op_s(&measured, 0.75),
        );
    }
    for failure in &measured.failures {
        println!("{name}: FAILED op: {failure}");
    }
    for (metric, value, unit) in &metrics {
        let spec = specs.iter().find(|(n, _, _)| n == metric);
        let better = spec.map_or("?", |s| s.1.as_str());
        let bound = spec
            .and_then(|s| s.2)
            .map_or(String::new(), |b| format!("  bound {b}"));
        println!("  {name:<17} {metric:<32} {value:>16.6} {unit:<6} better={better}{bound}");
    }
    Ok(Outcome {
        attempted: measured.attempted,
        failed: measured.failed,
        metrics,
    })
}

fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    )
}

fn run(argv: &[String]) -> Result<bool, String> {
    if argv.first().map(String::as_str) == Some("gen-expected") {
        print!("{}", inputs::gen_expected()?);
        return Ok(true);
    }
    let args = parse_args(argv)?;
    let started = Instant::now();

    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let target_dir =
        cwd.join(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()));
    let repro = build_repro(&target_dir)?;

    // Everything the harness or the product writes stays in the build
    // directory: the scratch dir, the native artifact cache, and — through
    // TMPDIR — the code generator's compile directories.
    let work = target_dir
        .join("bench-work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(work.join("tmp")).map_err(|e| format!("{}: {e}", work.display()))?;
    std::env::set_var("TMPDIR", work.join("tmp"));

    let expected = match &args.expected {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => include_str!("../expected.json").to_string(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let env = Env {
        repro,
        work: work.clone(),
        probe_threads: nproc.min(2),
        quick: args.quick,
        sizes: if args.quick {
            Sizes::QUICK
        } else {
            Sizes::FULL
        },
        expected: Expected::parse(&expected)?,
        seed: args.seed,
    };
    let specs = metric_specs();

    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    let result = names.iter().try_for_each(|name| {
        let outcome = run_workload(name, &args, &env, &specs)?;
        attempted += outcome.attempted;
        failed += outcome.failed;
        // One workload: the contract's metric names. All of them: prefixed.
        metrics.extend(outcome.metrics.into_iter().map(|(metric, value, unit)| {
            (
                if names.len() == 1 {
                    metric
                } else {
                    format!("{name}.{metric}")
                },
                value,
                unit,
            )
        }));
        Ok::<(), String>(())
    });
    let _ = std::fs::remove_dir_all(&work);
    result?;

    eprintln!(
        "total {:.1} s on {nproc} core(s)",
        started.elapsed().as_secs_f64()
    );
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json declares exactly the workloads and metrics the harness
    /// reports, in the order it reports them.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let list = |group: &str, field: &str| -> Vec<String> {
            doc.get(group)
                .and_then(JsonValue::items)
                .expect("list")
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(JsonValue::as_str)
                        .expect("string field")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(list("workloads", "name"), WORKLOADS);
        assert_eq!(list("end_to_end", "name"), END_TO_END.map(|(name, _)| name));
        assert_eq!(list("end_to_end", "unit"), END_TO_END.map(|(_, unit)| unit));
        assert_eq!(
            list("per_layer", "name"),
            probes::PER_LAYER
                .iter()
                .map(|(name, _)| *name)
                .collect::<Vec<_>>()
        );
        assert_eq!(
            list("per_layer", "unit"),
            probes::PER_LAYER
                .iter()
                .map(|(_, unit)| *unit)
                .collect::<Vec<_>>()
        );
        let paths: Vec<&str> = doc
            .get("paths")
            .and_then(JsonValue::items)
            .expect("paths")
            .iter()
            .filter_map(JsonValue::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }

    #[test]
    fn arguments_of_the_driver_parse() {
        let argv = [
            "--workload",
            "serve-warm",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .map(String::from);
        let args = parse_args(&argv).expect("the driver's argument list parses");
        assert_eq!(
            (
                args.workload.as_deref(),
                args.seed,
                args.seconds,
                args.trace
            ),
            (Some("serve-warm"), 42, 10.0, true)
        );
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse_args(&["--trace".to_string(), "yes".to_string()]).is_err());
    }
}
