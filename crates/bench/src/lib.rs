//! # x2v-bench — experiment harness
//!
//! Shared machinery for the `exp_*` binaries that regenerate the paper's
//! figures, worked examples and theorem checks (see DESIGN.md §3 for the
//! per-experiment index and EXPERIMENTS.md for paper-vs-measured records).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fleet_workloads;
pub mod harness;
pub mod suite;

/// RAII guard that finalises the instrumentation report of one experiment.
///
/// Put one at the top of an `exp_*` binary's `main`; when it drops at exit
/// the collected spans/counters/histograms are written as a JSON report
/// and/or printed as a table, according to the `X2V_OBS` environment
/// variable (no-op when observability is off).
///
/// Creating the guard also:
///
/// * arms the workspace-wide budget escape hatch: a `--budget-ms N`
///   argument (or the `X2V_BUDGET_MS` environment variable; the argument
///   wins) installs an ambient [`x2v_guard::Budget`] wall-clock deadline,
///   so every `exp_*` binary can be bounded without per-binary plumbing.
///   A budget trip panics with the typed diagnostic; the panic unwinds
///   through `main`, so this guard still drops and the partial obs report
///   — including the `guard/*` counters — is written;
/// * arms the workspace-wide checkpoint escape hatch: a `--ckpt-dir PATH`
///   argument (or `X2V_CKPT_DIR=PATH`; the argument wins) opens an ambient
///   [`x2v_ckpt::Store`] there, so every resumable hot path (SGNS epochs,
///   Gram row blocks) checkpoints durably without per-binary plumbing. A
///   `--resume` argument (or `X2V_RESUME=1`) additionally opts in to
///   *restoring* from those checkpoints — defaulting the store to
///   `target/ckpt` when no directory was named;
/// * initialises event tracing from `X2V_TRACE` (see `x2v-prof`): with
///   tracing on, every instrumented call site streams begin/end events
///   and the guard writes `target/trace/<run>.trace.json` on drop;
/// * switches on allocation counting whenever metrics or tracing are
///   collected, so `alloc/*` counters land in the report.
///
/// On drop the guard records run-level comparability metrics before
/// finalising: `run/wall_ms` (whole-run wall time) and, on Linux,
/// `run/peak_rss_bytes` (`VmHWM` from `/proc/self/status`; silently
/// skipped elsewhere).
pub struct ObsRun {
    run: &'static str,
    start: std::time::Instant,
    tracing: bool,
}

impl ObsRun {
    /// Guard for the run named `run` (conventionally the binary name).
    pub fn new(run: &'static str) -> Self {
        if let Some(ms) = budget_ms_from(std::env::args(), |k| std::env::var(k).ok()) {
            x2v_guard::install_ambient(x2v_guard::Budget::unlimited().with_deadline_ms(ms));
            eprintln!("[{run}] ambient budget installed: {ms} ms wall clock");
        }
        let (ckpt_dir, resume) = ckpt_from(std::env::args(), |k| std::env::var(k).ok());
        if let Some(dir) = ckpt_dir.or_else(|| resume.then(|| "target/ckpt".to_string())) {
            match x2v_ckpt::Store::open(&dir) {
                Ok(store) => {
                    x2v_ckpt::install_ambient(store);
                    x2v_ckpt::set_resume(resume);
                    eprintln!(
                        "[{run}] checkpoint store at {dir}{}",
                        if resume { " (resume requested)" } else { "" }
                    );
                }
                // A broken checkpoint directory must not stop the run: the
                // job degrades to non-durable (cold-start) execution.
                Err(e) => {
                    eprintln!("[{run}] checkpoint store unavailable, continuing without: {e}")
                }
            }
        }
        let tracing = x2v_prof::init_from_env();
        if tracing || x2v_obs::enabled() {
            x2v_prof::set_alloc_counting(true);
        }
        ObsRun {
            run,
            start: std::time::Instant::now(),
            tracing,
        }
    }
}

impl Drop for ObsRun {
    fn drop(&mut self) {
        let wall_ms = u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX);
        x2v_obs::counter_add("run/wall_ms", wall_ms);
        if let Some(rss) = peak_rss_bytes() {
            // counter_max, not counter_add: a live flusher (x2v-serve's
            // snapshot thread) may already have sampled the high-water
            // mark during the run.
            x2v_obs::counter_max("run/peak_rss_bytes", rss);
        }
        if x2v_prof::alloc_counting_enabled() {
            let a = x2v_prof::alloc_snapshot();
            x2v_obs::counter_add("alloc/allocs", a.allocs);
            x2v_obs::counter_add("alloc/frees", a.frees);
            x2v_obs::counter_add("alloc/bytes", a.bytes);
            x2v_obs::counter_add("alloc/peak_bytes", a.peak_bytes);
        }
        x2v_obs::finish(self.run);
        if self.tracing {
            match x2v_prof::write_trace(self.run) {
                Ok(path) => eprintln!("[x2v-prof] wrote trace {}", path.display()),
                Err(e) => eprintln!("[x2v-prof] failed to write trace: {e}"),
            }
        }
    }
}

/// Peak resident set size of this process in bytes. Moved to
/// [`x2v_obs::peak_rss_bytes`] so live snapshot flushers below the bench
/// layer can sample it too; this re-export keeps existing callers working.
pub use x2v_obs::peak_rss_bytes;

/// Resolves the budget escape hatch: `--budget-ms N` (also `--budget-ms=N`)
/// beats `X2V_BUDGET_MS=N`; absent or unparsable means no budget.
fn budget_ms_from(
    args: impl IntoIterator<Item = String>,
    env: impl Fn(&str) -> Option<String>,
) -> Option<u64> {
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--budget-ms" {
            return args.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = a.strip_prefix("--budget-ms=") {
            return v.parse().ok();
        }
    }
    env("X2V_BUDGET_MS").and_then(|v| v.parse().ok())
}

/// Resolves the checkpoint escape hatch: `(directory, resume)`.
/// `--ckpt-dir PATH` (also `--ckpt-dir=PATH`) beats `X2V_CKPT_DIR=PATH`;
/// `--resume` beats `X2V_RESUME` (`1`/`true` count as set).
fn ckpt_from(
    args: impl IntoIterator<Item = String>,
    env: impl Fn(&str) -> Option<String>,
) -> (Option<String>, bool) {
    let mut dir = None;
    let mut resume = false;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--ckpt-dir" {
            dir = args.next();
        } else if let Some(v) = a.strip_prefix("--ckpt-dir=") {
            dir = Some(v.to_string());
        } else if a == "--resume" {
            resume = true;
        }
    }
    if dir.is_none() {
        dir = env("X2V_CKPT_DIR").filter(|v| !v.is_empty());
    }
    if !resume {
        resume = env("X2V_RESUME").is_some_and(|v| v == "1" || v.eq_ignore_ascii_case("true"));
    }
    (dir, resume)
}

#[cfg(test)]
mod tests {
    use super::{budget_ms_from, ckpt_from};

    fn no_env(_: &str) -> Option<String> {
        None
    }

    #[test]
    fn flag_forms_parse() {
        let argv = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(
            budget_ms_from(argv(&["exp", "--budget-ms", "250"]), no_env),
            Some(250)
        );
        assert_eq!(
            budget_ms_from(argv(&["exp", "--budget-ms=90"]), no_env),
            Some(90)
        );
        assert_eq!(budget_ms_from(argv(&["exp"]), no_env), None);
        assert_eq!(budget_ms_from(argv(&["exp", "--budget-ms"]), no_env), None);
    }

    #[test]
    fn env_is_fallback_only() {
        let argv = vec![
            "exp".to_string(),
            "--budget-ms".to_string(),
            "7".to_string(),
        ];
        let env = |k: &str| (k == "X2V_BUDGET_MS").then(|| "99".to_string());
        assert_eq!(budget_ms_from(argv, env), Some(7));
        assert_eq!(budget_ms_from(vec!["exp".to_string()], env), Some(99));
    }

    #[test]
    fn ckpt_flags_parse() {
        let argv = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(ckpt_from(argv(&["exp"]), no_env), (None, false));
        assert_eq!(
            ckpt_from(argv(&["exp", "--ckpt-dir", "/tmp/c"]), no_env),
            (Some("/tmp/c".to_string()), false)
        );
        assert_eq!(
            ckpt_from(argv(&["exp", "--ckpt-dir=/tmp/c", "--resume"]), no_env),
            (Some("/tmp/c".to_string()), true)
        );
        let env = |k: &str| match k {
            "X2V_CKPT_DIR" => Some("/env/dir".to_string()),
            "X2V_RESUME" => Some("1".to_string()),
            _ => None,
        };
        assert_eq!(
            ckpt_from(argv(&["exp"]), env),
            (Some("/env/dir".to_string()), true)
        );
        // Arguments beat the environment.
        assert_eq!(
            ckpt_from(argv(&["exp", "--ckpt-dir", "/arg/dir"]), env),
            (Some("/arg/dir".to_string()), true)
        );
    }
}
