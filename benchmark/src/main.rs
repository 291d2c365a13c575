//! E11 — one end-to-end benchmark for the whole alert path: TCP frame →
//! admission → rules → sharded host → ledger → channel send.
//!
//! ```text
//! benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//!               [--data-dir DIR] [--out FILE]
//! benchmark all [--seed N] [--seconds S] [--runs K] [--quick] [--data-dir DIR] [--out FILE]
//! benchmark compare <a.json> <b.json> [--manifest BENCHMARK.json]
//! ```
//!
//! `run` ends its standard output with the one JSON line the benchmark
//! driver reads. See `README.md` beside this package for every metric
//! and workload.

#![forbid(unsafe_code)]

mod analysis;
mod bench;
mod check;
mod compare;
mod json;
mod loadgen;
mod metrics;
mod pipeline;
mod procfs;
mod run;
mod sink;
mod stages;
mod stats;
mod workload;

use bench::Options;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark run --workload <steady|durable|storm|churn|retry> [--seed N] [--seconds S]
                [--trace 0|1] [--quick] [--data-dir DIR] [--out FILE]
  benchmark all [--seed N] [--seconds S] [--runs K] [--quick] [--data-dir DIR] [--out FILE]
  benchmark compare <a.json> <b.json> [--manifest BENCHMARK.json]";

/// Phase length of `--quick`: 2 s closed, 3 s open.
const QUICK_SECONDS: f64 = 5.0;

/// The package directory, where `out/` lives; the repository root (and
/// `BENCHMARK.json`) is its parent.
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Flags after the subcommand: `--name value` pairs, the bare `--quick`,
/// and positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    quick: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            flags: Vec::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some("quick") => parsed.quick = true,
                Some(name) => {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    parsed.flags.push((name.to_string(), value.clone()));
                }
                None => parsed.positional.push(arg.clone()),
            }
        }
        Ok(parsed)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: cannot read {text:?}")),
        }
    }

    fn known(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !allowed.contains(&n.as_str()))
        {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }

    fn options(&self) -> Result<Options, String> {
        let default_seconds = if self.quick {
            QUICK_SECONDS
        } else {
            metrics::RUN_SECONDS as f64
        };
        let seconds: f64 = self.number("seconds", default_seconds)?;
        if !(1.0..=60.0).contains(&seconds) {
            return Err("--seconds must be between 1 and 60".to_string());
        }
        let out_dir = package_dir().join("out");
        Ok(Options {
            seed: self.number("seed", 1)?,
            seconds,
            trace: match self.get("trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            },
            quick: self.quick,
            // Inside the checkout by default, so a run touches nothing
            // else; point it at a tmpfs to take the disk out of the
            // file-backed workloads (README, "The data dir").
            data_dir: self
                .get("data-dir")
                .map_or_else(|| out_dir.join("data"), PathBuf::from),
            out_dir,
        })
    }
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    args.known(&["workload", "seed", "seconds", "trace", "data-dir", "out"])?;
    let name = args.get("workload").ok_or("run needs --workload")?;
    let workload = workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let result = bench::run(&workload, &args.options()?)?;
    if let Some(path) = args.get("out") {
        bench::write_result_file(path.as_ref(), vec![result.to_json()])?;
    }
    println!("{}", result.driver_line());
    Ok(ExitCode::SUCCESS)
}

/// Every workload in `BENCHMARK.json`, `--runs` times over, each run in a
/// child process of its own: like under the driver, no run inherits the
/// heap, the page cache of the allocator or the peak-RSS mark of another.
fn cmd_all(args: &Args) -> Result<ExitCode, String> {
    args.known(&["seed", "seconds", "runs", "data-dir", "out"])?;
    let opts = args.options()?;
    let rounds: u64 = args.number("runs", 1)?;
    let exe = std::env::current_exe().map_err(|e| format!("find the benchmark binary: {e}"))?;
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("create the out dir: {e}"))?;
    let part = opts
        .out_dir
        .join(format!("all-{}.json", std::process::id()));
    let mut runs = Vec::new();
    for round in 0..rounds {
        for workload in &workload::WORKLOADS {
            let mut child = std::process::Command::new(&exe);
            child.args(["run", "--workload", workload.name]);
            child.args(["--seed", &(opts.seed + round).to_string()]);
            child.args(["--seconds", &opts.seconds.to_string()]);
            child
                .arg("--data-dir")
                .arg(&opts.data_dir)
                .arg("--out")
                .arg(&part);
            if opts.quick {
                child.arg("--quick");
            }
            let status = child.status().map_err(|e| format!("start a run: {e}"))?;
            if !status.success() {
                return Err(format!("the {} run failed ({status})", workload.name));
            }
            let text = std::fs::read_to_string(&part).map_err(|e| format!("read a result: {e}"))?;
            let file = json::parse(&text)?;
            runs.extend(
                file.get("runs")
                    .map(json::Json::as_array)
                    .unwrap_or_default()
                    .to_vec(),
            );
        }
    }
    let _ = std::fs::remove_file(&part);
    let failed: f64 = runs
        .iter()
        .filter_map(|run| run.get("failed").and_then(json::Json::as_f64))
        .sum();
    println!("all: {} runs, {failed} failed operations", runs.len());
    if let Some(path) = args.get("out") {
        bench::write_result_file(path.as_ref(), runs)?;
    }
    Ok(if failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    args.known(&["manifest"])?;
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two result files".to_string());
    };
    let manifest = args
        .get("manifest")
        .map_or_else(|| package_dir().join("../BENCHMARK.json"), PathBuf::from);
    let regressed = compare::compare(a.as_ref(), b.as_ref(), &manifest)?;
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) => Args::parse(rest).and_then(|args| match command.as_str() {
            "run" => cmd_run(&args),
            "all" => cmd_all(&args),
            "compare" => cmd_compare(&args),
            other => Err(format!("unknown command {other:?}\n{USAGE}")),
        }),
        None => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}
