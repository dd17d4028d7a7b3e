//! `consensus_bench`: the one rig every speed claim in this repository is
//! measured with. See `README.md` beside this package for the workloads,
//! the metrics and the reasons for both.
//!
//! ```text
//! consensus_bench --workload <name|all> --seed <u64> [--seconds <n>] [--trace [0|1]]
//! consensus_bench compare <a> <b>
//! ```
//!
//! A run prints a `{"run": …}` line recording how it was made, then, as the
//! last line, one JSON object with exactly the keys `correct`, `attempted`,
//! `failed` and `metrics`. It exits non-zero if any output check failed.

mod rig;

use std::process::ExitCode;

use rig::run::{run_workload, Options, DEFAULT_SECONDS};
use rig::workloads::{self, Workload};

const USAGE: &str = "usage: consensus_bench --workload <name|all> --seed <u64> \
                     [--seconds <n>] [--trace [0|1]]\n       consensus_bench compare <a> <b>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => bench(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("consensus_bench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Parses the run arguments. `--trace` may stand alone or take `0`/`1`.
fn parse(args: &[String]) -> Result<(Vec<Workload>, Options), String> {
    let mut selected = None;
    let mut options = Options { seed: 0, seconds: DEFAULT_SECONDS, traced: false };
    let mut seeded = false;
    let mut args = args.iter().map(String::as_str).peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}\n{USAGE}"));
        match flag {
            "--workload" => {
                let name = value("a workload name")?;
                selected = Some(match name {
                    "all" => workloads::ALL.to_vec(),
                    name => vec![workloads::by_name(name).ok_or_else(|| {
                        let known: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
                        format!("unknown workload {name}; known: {}, all", known.join(", "))
                    })?],
                });
            }
            "--seed" => {
                options.seed = value("a u64")?.parse().map_err(|e| format!("--seed: {e}"))?;
                seeded = true;
            }
            "--seconds" => {
                options.seconds = value("a whole number of seconds")?
                    .parse()
                    .ok()
                    .filter(|&seconds| (1..=600).contains(&seconds))
                    .ok_or("--seconds takes a whole number from 1 to 600")?;
            }
            "--trace" => {
                options.traced = match args.next_if(|next| matches!(*next, "0" | "1")) {
                    Some(switch) => switch == "1",
                    None => true,
                };
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    match (selected, seeded) {
        (Some(selected), true) => Ok((selected, options)),
        _ => Err(format!("--workload and --seed are required\n{USAGE}")),
    }
}

fn bench(args: &[String]) -> Result<bool, String> {
    let (selected, options) = parse(args)?;
    let mut all_correct = true;
    for workload in selected {
        let report =
            run_workload(workload, &options).map_err(|err| format!("{}: {err}", workload.name))?;
        for failure in &report.failures {
            eprintln!("consensus_bench: {}: {failure}", workload.name);
        }
        println!("{}", report.run_line(&options));
        println!("{}", report.result_line(&options));
        all_correct &= report.correct();
    }
    Ok(all_correct)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err(USAGE.to_string()) };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|err| format!("{path}: {err}"));
    let bounds = rig::compare::bounds(&read("BENCHMARK.json")?)?;
    let (table, any_worse) = rig::compare::compare(
        &bounds,
        &rig::compare::results(&read(a)?),
        &rig::compare::results(&read(b)?),
    );
    print!("{table}");
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_invocation_and_the_short_forms() {
        let (selected, options) =
            parse(&args("--workload lan-open --seed 7 --seconds 3 --trace 0")).unwrap();
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].name, "lan-open");
        assert_eq!((options.seed, options.seconds, options.traced), (7, 3, false));

        let (selected, options) =
            parse(&args("--trace --workload all --seed 18446744073709551615")).unwrap();
        assert_eq!(selected.len(), 6);
        assert_eq!(options.seconds, DEFAULT_SECONDS);
        assert!(options.traced && options.seed == u64::MAX);
        assert!(parse(&args("--workload all --seed 1 --trace 1")).unwrap().1.traced);
    }

    #[test]
    fn rejects_what_it_cannot_run() {
        assert!(parse(&args("--workload lan-open")).is_err(), "no seed");
        assert!(parse(&args("--seed 1")).is_err(), "no workload");
        assert!(parse(&args("--workload nope --seed 1")).unwrap_err().contains("lan-batched"));
        assert!(parse(&args("--workload all --seed 1 --seconds 0")).is_err());
        assert!(parse(&args("--workload all --seed x")).is_err());
        assert!(parse(&args("--workload all --seed 1 --frobnicate")).is_err());
    }
}
