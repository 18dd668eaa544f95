//! `perfbench --workload <mine-8k|sync-128k|sim-64> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds, prints each check's
//! verdict and each metric with its unit, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. The
//! exit code is 0 only when every check passed and no operation failed.

use hashcore_perfbench::report::Outcome;
use hashcore_perfbench::{mine, sim, sync};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <mine-8k|sync-128k|sim-64> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match (args.workload.as_str(), args.trace) {
        ("mine-8k", false) => mine::run,
        ("mine-8k", true) => mine::trace,
        ("sync-128k", false) => sync::run,
        ("sync-128k", true) => sync::trace,
        ("sim-64", false) => sim::run,
        ("sim-64", true) => sim::trace,
        (other, _) => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        hashcore_perfbench::nproc()
    );
    let mut outcome = Outcome::default();
    run(args.seed, args.seconds, &mut outcome);
    println!("{}", outcome.render(args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
