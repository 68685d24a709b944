//! `nucdb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload: sets the server up (several times, for a steady
//! `setup_s`), warms it, drives it as a closed loop for `--seconds`,
//! checks every answer against an in-process reference build, and with
//! `--trace 1` adds the traced per-layer pass. Prints every metric with
//! its unit, then one JSON result line; exits non-zero on a wrong answer
//! or a failed run. Working files go under `.perfbench/` in the current
//! directory.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use nucdb_perfbench::gen::{Size, Workload};
use nucdb_perfbench::report::{result_line, PER_LAYER};
use nucdb_perfbench::{run, RunConfig};

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let required = |key: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let number = |key: &str| -> Result<u64, String> {
        required(key)?
            .parse()
            .map_err(|_| format!("{key} must be a whole number"))
    };
    let name = required("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(RunConfig {
        workload,
        size: Size::full(),
        seed: number("--seed")?,
        seconds: Duration::from_secs(number("--seconds")?.max(1)),
        trace,
    })
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: nucdb-perfbench --workload <homology|screen|live_mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = match run(&config, Path::new(".perfbench")) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let s = &report.served;
    println!(
        "{} searches ({} answers checked, {} mismatches), {} inserts, over {:.2} s",
        s.searches.len(),
        s.checked,
        s.mismatches,
        s.inserts.len(),
        s.wall_s
    );
    let metrics = report.layers.clone().unwrap_or_else(|| report.end_to_end());
    for m in &metrics {
        let samples = match m.name {
            "search_p50_ms" | "search_p99_ms" => format!(" (n={})", s.search_latency_ms().n),
            "serve.insert_p50_ms" | "serve.insert_p99_ms" => {
                format!(" (n={})", s.insert_latency_ms().n)
            }
            _ => String::new(),
        };
        let moves = PER_LAYER
            .iter()
            .find(|l| l.0 == m.name)
            .map_or(String::new(), |l| format!("  -> {}", l.2));
        println!(
            "  {:<28} {:>14.4} {}{samples}{moves}",
            m.name, m.value, m.unit
        );
    }
    let correct = report.failed == 0;
    println!(
        "{}",
        result_line(correct, report.attempted.max(1), report.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: answers differed from the reference or operations failed");
        ExitCode::FAILURE
    }
}
