//! `perfbench` — runs one gnrlab benchmark workload and prints its
//! metrics. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! perfbench --workload <paper_circuits|device_tables|deck_logic|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-refs <workload|all>
//! ```
//!
//! A run report (metrics, host reference kernel, and for a traced run
//! every span and the telemetry snapshot) is written to
//! `.bench_trace/<workload>-seed<n>-trace<0|1>.json` under the working
//! directory.

use gnrlab_perfbench::workloads::NAMES;
use gnrlab_perfbench::{metrics, run_workload, write_refs, RunConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <paper_circuits|device_tables|deck_logic|all> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --write-refs <workload|all>";

/// Pool size: the host's cores, at most 2.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    write_refs: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        traced: false,
        write_refs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--write-refs" => args.write_refs = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn workload_list(name: &str) -> Result<Vec<&'static str>, String> {
    if name == "all" {
        return Ok(NAMES.to_vec());
    }
    NAMES
        .iter()
        .find(|n| **n == name)
        .map(|n| vec![*n])
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

fn run(args: Args) -> Result<(), String> {
    if let Some(which) = &args.write_refs {
        for name in workload_list(which)? {
            let path = write_refs(name, default_threads())?;
            println!("wrote {}", path.display());
        }
        return Ok(());
    }
    let names = workload_list(args.workload.as_deref().ok_or("--workload is required")?)?;
    let mut runs = Vec::new();
    for name in names {
        let cfg = RunConfig {
            workload: name.to_string(),
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            threads: default_threads(),
        };
        let run = run_workload(&cfg)?;
        print!("{}", run.render());
        let dir = std::path::Path::new(".bench_trace");
        let file = dir.join(format!(
            "{name}-seed{}-trace{}.json",
            args.seed,
            u8::from(args.traced)
        ));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&file, run.report_json().dump() + "\n"))
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        runs.push(run);
    }
    println!("{}", metrics::result_line(&runs));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
