//! The repository benchmark: two clocks, four workloads, a per-layer
//! ledger. See `benchmark/README.md`.
//!
//! ```text
//! sbft-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; prints `workload name value unit …` rows and, as the last
//!     line of standard output, one JSON object with the run's metrics
//! sbft-benchmark [--seed <n>] [--seconds <s>]
//!     every workload, five end-to-end runs and one per-layer run each,
//!     every run a child process of this program; writes
//!     benchmark/out/BENCH.json
//! sbft-benchmark compare <parent BENCH.json> <change BENCH.json>
//!     one row per (workload, end-to-end metric); exit code 1 on `worse`
//! ```

mod compare;
mod inline;
mod json;
mod layers;
mod rt_pass;
mod run;
mod sim_pass;
mod spec;
mod stats;
mod workloads;

use json::Json;
use run::RunOutput;
use sbft_sim::{CpuModel, NetworkModel};
use spec::{END_TO_END, PER_LAYER};
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

/// End-to-end runs per workload in the all-workloads mode: five, so that
/// one disturbed run moves a quartile, not both.
const REPEATS: usize = 5;

/// Where results, traces and the runtime's WAL files go: `out/` beside
/// this package's manifest, inside the checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: 24.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(1.0..=600.0).contains(&parsed.seconds) {
                    return Err(bad("between 1 and 600"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// States what the simulated clock is made of: every `sim_*` figure is a
/// function of these constants, not of this host.
fn print_header(workload: &Workload, args: &Args) {
    let cpu = CpuModel::default();
    let net = NetworkModel::default();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "# workload={} seed={} seconds={} trace={} host_cores={cores}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# clocks: sim_* = simulated time under the models below (repeats per seed); host_* = wall time of the single-threaded simulator; rt_* = wall time of LocalCluster on OS threads");
    println!(
        "# sim point: {} closed-loop clients, warm-up {} + window {}, shim of {} (PBFT), regions {:?}, crash {:?}",
        workload.sim.clients,
        workload.sim.warmup,
        workload.sim.duration,
        workload.config.fault.n_r,
        workload.config.regions.regions(),
        workload.sim.crash,
    );
    println!(
        "# rt point: {} closed-loop clients (1 for runtime.rt_commit_mean_us), home region only, runtime workload seed fixed at 1",
        workload.rt_clients
    );
    println!("# CpuModel::default(): {cpu:?}");
    println!(
        "# NetworkModel::default(): {net:?}; link jitter U[0,{}) per shim message from the seed",
        workloads::LINK_JITTER
    );
    println!(
        "# modelled cloud: cold start {}, region one-way latency from home (ms): {:?}",
        sbft_serverless::cloud::DEFAULT_COLD_START,
        workload
            .config
            .regions
            .regions()
            .iter()
            .map(|r| r.one_way_latency_ms_from_home())
            .collect::<Vec<_>>(),
    );
}

fn print_rows(out: &RunOutput) {
    for (name, value, s) in &out.values {
        let (unit, _) = spec::lookup(name).expect("catalogued");
        println!(
            "{} {name} {value} {unit} n={} median={} q1={} q3={}",
            out.workload, s.n, s.median, s.q1, s.q3
        );
    }
    println!("{} ops_attempted {} count", out.workload, out.attempted);
    println!("{} ops_failed {} count", out.workload, out.failed);
    for problem in &out.problems {
        println!("{} CHECK FAILED {problem}", out.workload);
    }
}

/// The contract's result line: exactly the catalogued metrics of the
/// chosen family, each a number as measured.
fn result_line(out: &RunOutput, trace: bool) -> Result<String, String> {
    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = out
            .value(name)
            .ok_or_else(|| format!("{name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        metrics.push((
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(out.problems.is_empty())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render())
}

fn run_one(workload: &Workload, args: &Args) -> ExitCode {
    let out_dir = out_dir();
    // The thread runtime puts its WAL files under the system temporary
    // directory; keep them inside the checkout. Set before any thread
    // exists.
    let tmp = out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp);

    print_header(workload, args);
    let out = if args.trace {
        run::per_layer(workload, args.seed, args.seconds, &out_dir)
    } else {
        run::end_to_end(workload, args.seed, args.seconds)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    print_rows(&out);
    match result_line(&out, args.trace) {
        Ok(line) => {
            println!("{line}");
            if out.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("internal error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one child of this program and parses its result line.
fn child_run(workload: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn run_all(args: &Args) -> Result<PathBuf, String> {
    let mut workloads_json = Vec::new();
    for name in workloads::NAMES {
        let runs = (0..REPEATS)
            .map(|_| child_run(name, args, false))
            .collect::<Result<Vec<Json>, String>>()?;
        let traced = child_run(name, args, true)?;
        let end_to_end = END_TO_END.map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(r, m.name))
                .collect();
            let s = Summary::of(&values);
            (
                m.name,
                Json::obj([
                    ("unit", Json::Str(m.unit.into())),
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    (
                        "runs",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            )
        });
        let per_layer = PER_LAYER.map(|m| {
            (
                m.name,
                Json::obj([
                    ("unit", Json::Str(m.unit.into())),
                    (
                        "value",
                        metric_value(&traced, m.name).map_or(Json::Null, Json::Num),
                    ),
                ]),
            )
        });
        let total = |key: &str| -> f64 {
            runs.iter()
                .chain([&traced])
                .filter_map(|r| r.get(key).and_then(Json::as_f64))
                .sum()
        };
        workloads_json.push((
            name,
            Json::obj([
                ("attempted", Json::Num(total("attempted"))),
                ("failed", Json::Num(total("failed"))),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("repeats", Json::Num(REPEATS as f64)),
        ("host_cores", Json::Num(cores as f64)),
        ("workloads", Json::obj(workloads_json)),
    ]);
    let path = out_dir().join("BENCH.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, doc.render_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn run_compare(parent: &str, change: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let comparison = load(parent)
        .and_then(|p| load(change).map(|c| (p, c)))
        .and_then(|(p, c)| compare::compare(&p, &c));
    match comparison {
        Ok(compare::Comparison { rows, warnings }) => {
            print!("{}", compare::render(&rows));
            for warning in &warnings {
                println!("# warning: {warning}");
            }
            let count = |v| rows.iter().filter(|r| r.verdict == v).count();
            println!(
                "# {} better, {} same, {} worse, {} unresolved",
                count(compare::Verdict::Better),
                count(compare::Verdict::Same),
                count(compare::Verdict::Worse),
                count(compare::Verdict::Unresolved),
            );
            if count(compare::Verdict::Worse) > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, parent, change] => run_compare(parent, change),
            _ => {
                eprintln!("usage: compare <parent BENCH.json> <change BENCH.json>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_deref() {
        None => match run_all(&args) {
            Ok(path) => {
                println!("# wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(1)
            }
        },
        Some(name) => match Workload::by_name(name) {
            Some(workload) => run_one(&workload, &args),
            None => {
                eprintln!(
                    "unknown workload {name}; choose from {:?}",
                    workloads::NAMES
                );
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_in_any_order_and_reject_nonsense() {
        let a = args(&[
            "--trace",
            "1",
            "--seconds",
            "7",
            "--workload",
            "steady",
            "--seed",
            "9",
        ])
        .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("steady"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 7.0, true));
        let defaults = args(&[]).expect("no arguments is the full run");
        assert_eq!(
            (defaults.seed, defaults.trace, defaults.workload),
            (42, false, None)
        );
        for bad in [
            &["--trace", "2"][..],
            &["--seconds", "0"],
            &["--seed"],
            &["--frobnicate", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn result_line_carries_exactly_the_catalogued_family() {
        let workload = Workload::by_name("steady").unwrap();
        // A 1-second end-to-end run of the smoke-sized workload measures
        // every end-to-end metric, and nothing of the other family.
        let small = workload.shrunk(400, sbft_types::SimDuration::from_millis(100));
        let out = run::end_to_end(&small, 3, 1.0);
        let line = result_line(&out, false).expect("every end-to-end metric measured");
        let doc = Json::parse(&line).expect("result line is JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, value), spec) in metrics.iter().zip(END_TO_END) {
            assert_eq!(name, spec.name);
            assert_eq!(value.get("unit").and_then(Json::as_str), Some(spec.unit));
            assert!(
                value.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{name}"
            );
        }
        assert!(
            result_line(&out, true).is_err(),
            "no layer metric was measured"
        );
    }
}
