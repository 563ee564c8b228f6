//! `x2v-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its result as the last line of standard
//! output: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exits 2 on bad arguments and 1 when the run cannot set up.

use std::time::Instant;

use x2v_e2ebench::{run, RunConfig, Workload};

fn main() {
    let process_start = Instant::now();
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: x2v-e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&config, process_start) {
        Ok(out) => println!("{}", out.to_json()),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<RunConfig, String> {
    let mut config = RunConfig {
        workload: Workload::WlKernelCv,
        seed: 0,
        seconds: 10.0,
        trace: false,
        plant: None,
    };
    let mut workload = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => config.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                config.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    config.workload = workload.ok_or("--workload is required")?;
    Ok(config)
}
