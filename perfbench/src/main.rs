//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload on the Full-scale world of the given seed and prints,
//! as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run also
//! writes its spans to `.perfbench/trace-<workload>-seed<n>.json`.
//! Progress and failure messages go to standard error.

use perfbench::{result_json, run, Options, Plan, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("bad --seed '{value}': {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("bad --seconds '{value}': {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad --seconds '{value}': must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}': 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(5.0),
        trace: trace.unwrap_or(false),
        plan: Plan::full(),
        work_dir: PathBuf::from(".perfbench"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &report.tally.messages {
        eprintln!("perfbench: check failed: {m}");
    }
    if opts.trace {
        let path = opts.work_dir.join(format!(
            "trace-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        ));
        let written = std::fs::create_dir_all(&opts.work_dir)
            .and_then(|()| std::fs::write(&path, report.tracer.to_json().render()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let metrics = if opts.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for m in &report.end_to_end {
        eprintln!("{:<22} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&report, metrics).render());
    ExitCode::SUCCESS
}
