//! Deterministic perf-regression suite.
//!
//! ```text
//! bench_suite [--smoke] [--reps N] [--warmup N] [--out PATH] [--budget-ms N]
//! bench_suite diff <baseline.json> <candidate.json> [--threshold-pct P] [--informational]
//! ```
//!
//! Runs fixed-seed workloads across the workspace's hot subsystems and
//! writes a schema-versioned `BENCH_<n>.json` report (first free index in
//! the current directory unless `--out` is given). The report write is
//! atomic (temp file + fsync + rename), and a write failure is a hard
//! error (exit 2) — a silently missing report would read as "no
//! regressions" downstream. The suite only measures: it never reads or
//! writes a checkpoint, even with `X2V_CKPT_DIR`/`X2V_RESUME` set, and an
//! interrupted run is simply re-run. The `diff` subcommand compares two
//! reports and exits non-zero on gating median regressions — see
//! `docs/bench-schema.md` for the file format and the regression rule.

use x2v_bench::suite::{
    diff_main, next_report_path, render_table, report_json, run_suite, SuiteConfig,
};
use x2v_bench::ObsRun;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        std::process::exit(diff_main(&args[1..]));
    }

    let mut cfg = SuiteConfig::full();
    let mut out_path: Option<std::path::PathBuf> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--smoke" => cfg = SuiteConfig::smoke(),
            "--reps" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.reps = n,
                None => usage_error("--reps requires a positive integer"),
            },
            "--warmup" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.warmup = n,
                None => usage_error("--warmup requires an integer"),
            },
            "--out" => match iter.next() {
                Some(p) => out_path = Some(p.into()),
                None => usage_error("--out requires a path"),
            },
            "--budget-ms" => {
                iter.next(); // consumed by ObsRun's ambient-budget scan
            }
            other if other.starts_with("--budget-ms=") => {}
            other => usage_error(&format!("unknown argument {other}")),
        }
    }

    // ObsRun would open a checkpoint store when X2V_CKPT_DIR/X2V_RESUME is
    // set. The resumable paths the suite times would then save (and, on
    // resume, skip) the very work being measured, so measure without one.
    std::env::remove_var("X2V_CKPT_DIR");
    std::env::remove_var("X2V_RESUME");
    let _obs = ObsRun::new("bench_suite");
    let results = run_suite(&cfg);
    print!("{}", render_table(&results));

    let path = out_path.unwrap_or_else(|| next_report_path(std::path::Path::new(".")));
    let json = report_json(&results, &cfg);
    // Atomic (rename-into-place) write: a crash or full disk here leaves
    // either no report or a complete one, never a torn JSON document that
    // downstream diffing would misparse. The write is fault-injectable at
    // site "bench/report" (X2V_FAULTS=enospc@bench/report etc.).
    if let Err(e) = x2v_ckpt::atomic::write_atomic("bench/report", &path, json.as_bytes()) {
        eprintln!("bench_suite: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
    println!("wrote {}", path.display());
}

fn usage_error(msg: &str) -> ! {
    eprintln!("bench_suite: {msg}");
    eprintln!(
        "usage: bench_suite [--smoke] [--reps N] [--warmup N] [--out PATH] [--budget-ms N]\n       \
         bench_suite diff <baseline.json> <candidate.json> [--threshold-pct P] [--informational]"
    );
    std::process::exit(2);
}
