//! End-to-end and per-layer benchmark of the VarSaw reproduction's paper
//! workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <baseline-ch4-6|varsaw-h2o-8|table3-mini> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop: one caller starts its next VQE run (or
//! Table-3 round) only after the previous one finished, until `--seconds`
//! have passed and a fixed minimum of runs completed. With `--trace 0` the
//! loop runs untraced and the end-to-end metrics are reported; with
//! `--trace 1` it alternates untraced and traced runs and reports the
//! per-layer metrics. Every run's outputs are checked. The last line of
//! standard output is a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; a fuller record is written to `perfbench/out/`.

mod json;
mod replay;
mod runs;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <baseline-ch4-6|varsaw-h2o-8|table3-mini> \
                     --seed <u64> --seconds <s> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::Workload::parse(&value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The checkout's git revision, read from `.git` without running git.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown (not a git checkout)".to_string(),
    }
}

/// Where the run came from: hardware, threading, build and revision.
fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Int(nproc as u64)),
        (
            "varsaw_num_threads",
            Json::Int(parallel::num_threads() as u64),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("features", Json::str("default (telemetry off)")),
        ("git_revision", Json::str(git_revision())),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    eprintln!(
        "perfbench: {name} seed {} for {} s, trace {}",
        args.seed, args.seconds, args.trace as u8
    );
    let report = workloads::run(args.workload, args.seed, args.seconds, args.trace);

    for e in &report.errors {
        eprintln!("perfbench: FAILED CHECK: {e}");
    }
    for m in &report.metrics {
        println!(
            "{:<34} {:>14.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let correct = report.errors.is_empty();
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac} ({} of {} runs failed)",
        report.failed, report.attempted
    );
    let metric_json = |m: &workloads::Metric| {
        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))])
    };
    let record = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("environment", environment()),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(report.failed)),
        ("failed_frac", Json::Num(failed_frac)),
        (
            "errors",
            Json::Arr(report.errors.iter().map(Json::str).collect()),
        ),
        (
            "metrics",
            Json::obj(report.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("samples", Json::Int(m.samples as u64)),
                    ]),
                )
            })),
        ),
        ("details", Json::obj(report.details.clone())),
    ]);
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{name}-seed{}-trace{}", args.seed, args.trace as u8);
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), format!("{record}\n")))
        .and_then(|()| match &report.spans {
            Some(lines) => std::fs::write(out_dir.join(format!("{stem}.spans.jsonl")), lines),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", out_dir.display());
    }

    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(report.attempted)),
            ("failed", Json::Int(report.failed)),
            (
                "metrics",
                Json::obj(report.metrics.iter().map(|m| (m.name, metric_json(m)))),
            ),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload table3-mini --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.name(), "table3-mini");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload table3-mini --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload table3-mini --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload table3-mini --seed 1 --seconds 1").is_err());
        assert!(args("--workload table3-mini --seed").is_err());
    }
}
