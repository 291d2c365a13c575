//! The one experiment runner: `exp <id>|all [--smoke] [--write] [seed]`.
//!
//! `<id>` is a row of [`EXPERIMENTS`] (E1–E10, A1–A6; see `DESIGN.md` §5
//! and `EXPERIMENTS.md`); `all` runs every row at its recorded shape.
//! `--smoke` selects the reduced CI shape of the six correctness smokes
//! (`make smoke`); `--write` (with `all`) regenerates
//! `EXPERIMENTS_RESULTS.md`. The seed defaults to 42. A violated
//! invariant panics inside the experiment; a bad command line exits 2.

use simba_bench::experiments::{run_all, Run, EXPERIMENTS};
use std::fmt::Write as _;

fn usage() -> String {
    let ids = |smokes_only: bool| {
        EXPERIMENTS
            .iter()
            .filter(|(.., smoke)| !smokes_only || smoke.is_some())
            .map(|(id, ..)| *id)
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "usage: exp <id>|all [--smoke] [--write] [seed]\n  \
         ids:      {}\n  \
         --smoke   the reduced CI shape ({} only)\n  \
         --write   with `all`: regenerate EXPERIMENTS_RESULTS.md\n  \
         seed      default 42",
        ids(false),
        ids(true)
    )
}

/// Resolves a command line to `(run, write, seed)`, where `run` is the one
/// shape asked for or `None` for `all`. `Err` is the usage error.
fn parse(args: &[String]) -> Result<(Option<Run>, bool, u64), String> {
    let (mut target, mut smoke, mut write, mut seed) = (None, false, false, None);
    for arg in args {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--write" => write = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            word if target.is_none() => target = Some(word),
            word if seed.is_none() => {
                seed = Some(word.parse().map_err(|_| format!("seed {word:?} is not a number"))?)
            }
            word => return Err(format!("unexpected argument {word:?}")),
        }
    }
    let target = target.ok_or("which experiment?")?;
    let run = if target == "all" {
        if smoke {
            return Err("--smoke takes one of the smoke ids, not `all`".into());
        }
        None
    } else {
        if write {
            return Err("--write regenerates the whole results file: use it with `all`".into());
        }
        let (_, full, reduced) = EXPERIMENTS
            .iter()
            .find(|(id, ..)| *id == target)
            .ok_or_else(|| format!("unknown experiment {target:?}"))?;
        Some(if smoke { reduced.ok_or_else(|| format!("{target} has one shape"))? } else { *full })
    };
    Ok((run, write, seed.unwrap_or(42)))
}

/// Runs the command line (without the program name) and returns the
/// process exit code: 0 ok, 2 usage error.
fn main_with(args: &[String]) -> i32 {
    let (run, write, seed) = match parse(args) {
        Ok(parsed) => parsed,
        Err(problem) => {
            eprintln!("error: {problem}\n\n{}", usage());
            return 2;
        }
    };
    let outputs = run.map_or_else(|| run_all(seed), |run| vec![run(seed)]);
    for o in &outputs {
        o.print();
    }
    if write {
        let mut md = String::new();
        let _ = writeln!(
            md,
            "<!-- generated by `cargo run -p simba-bench --release --bin exp -- all {seed} --write` -->"
        );
        for o in &outputs {
            md.push_str(&o.to_markdown());
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS_RESULTS.md");
        std::fs::write(path, md).expect("write results file");
        eprintln!("wrote {path}");
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(main_with(&args));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn usage_lists_every_table_id() {
        let text = usage();
        let listed: Vec<&str> = text
            .lines()
            .find_map(|l| l.trim().strip_prefix("ids:"))
            .expect("an ids line")
            .split_whitespace()
            .collect();
        let table: Vec<&str> = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
        assert_eq!(listed, table);
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        assert_eq!(main_with(&args(&[])), 2);
        assert_eq!(main_with(&args(&["e11"])), 2, "unknown id");
        assert_eq!(main_with(&args(&["e1", "--smoke"])), 2, "E1 has one shape");
        assert_eq!(main_with(&args(&["all", "--smoke"])), 2);
        assert_eq!(main_with(&args(&["e7", "--write"])), 2);
        assert_eq!(main_with(&args(&["e7", "--users", "5"])), 2, "shape flags are gone");
        assert_eq!(main_with(&args(&["e7", "seven"])), 2);
        assert_eq!(main_with(&args(&["e7", "7", "8"])), 2);
    }

    #[test]
    fn smoke_and_seed_select_the_reduced_shape() {
        let (run, write, seed) = parse(&args(&["e7", "--smoke", "7"])).expect("a valid line");
        assert_eq!((write, seed), (false, 7));
        let out = run.expect("one experiment")(seed);
        assert_eq!(out.id, "E7");
        // StoreBenchOptions::smoke(): 8 writers × 2 000 facts over 64 keys.
        assert!(out.tables[0].to_markdown().contains("| 8 | 2000 | 64 |"), "{:?}", out.tables[0]);
        assert_eq!(main_with(&args(&["e7", "--smoke", "7"])), 0);

        let (all, write, seed) = parse(&args(&["all", "--write"])).expect("a valid line");
        assert!(all.is_none() && write);
        assert_eq!(seed, 42);
    }
}
