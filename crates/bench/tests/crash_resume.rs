//! Real-crash integration tests: child processes are aborted or SIGKILLed
//! mid-job and the parent verifies the checkpoint store left behind —
//! resumes must land on the exact golden result, and no crash window may
//! leave a store that fails to load or a torn report artifact.
//!
//! Each test spawns its own child processes with their own process-global
//! state, so unlike the in-process fault suites these tests can run on
//! parallel threads; every test uses its own temp directories.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use x2v_ckpt::Store;

const CRASHEE: &str = env!("CARGO_BIN_EXE_ckpt_crashee");
const BENCH_SUITE: &str = env!("CARGO_BIN_EXE_bench_suite");

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("x2v-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Runs `bin args…` to completion and returns `(exit success, stdout)`.
fn run(bin: &str, args: &[&str], envs: &[(&str, &str)]) -> (bool, String) {
    let out = Command::new(bin)
        .args(args)
        .envs(envs.iter().copied())
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// A child aborted mid-training leaves durable epoch checkpoints, and a
/// resumed run reproduces the uninterrupted model *exactly* (the crashee
/// prints a CRC over every model coefficient's bit pattern).
#[test]
fn abort_mid_training_then_resume_matches_golden() {
    let golden_dir = tmpdir("golden");
    let crash_dir = tmpdir("abort");

    let (ok, golden) = run(CRASHEE, &["train", golden_dir.to_str().unwrap()], &[]);
    assert!(ok, "golden run must succeed");
    let golden = golden.trim().to_string();
    assert!(!golden.is_empty(), "golden run must print a fingerprint");

    // Die at the start of epoch 2: epochs 0 and 1 are already durable.
    let (ok, _) = run(
        CRASHEE,
        &["train-abort", crash_dir.to_str().unwrap(), "2"],
        &[],
    );
    assert!(!ok, "the aborting child must die with a nonzero status");
    let (generation, _) = Store::open(&crash_dir)
        .unwrap()
        .load_latest("crashee", "sgns-epoch")
        .unwrap()
        .expect("the aborted run must leave a valid checkpoint behind");
    assert_eq!(
        generation, 2,
        "exactly two epoch checkpoints were committed"
    );

    let (ok, resumed) = run(CRASHEE, &["train-resume", crash_dir.to_str().unwrap()], &[]);
    assert!(ok, "the resumed run must succeed");
    assert_eq!(
        resumed.trim(),
        golden,
        "resumed model must be bit-identical to the uninterrupted one"
    );

    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// SIGKILL lands at a random point inside the checkpoint writer's hot loop;
/// whatever survives on disk must load cleanly and carry exactly the
/// payload its generation number promises — atomicity means there is no
/// window in which the store is unreadable or silently wrong.
#[test]
fn sigkill_mid_write_leaves_a_loadable_store() {
    for round in 0..3 {
        let dir = tmpdir(&format!("spin-{round}"));
        let mut child = Command::new(CRASHEE)
            .args(["spin", dir.to_str().unwrap()])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn spin child");
        // Wait until the first generation is committed, let the write loop
        // run a little, then SIGKILL it mid-flight.
        let mut ready = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut ready)
            .expect("read ready line");
        assert_eq!(ready.trim(), "ready");
        std::thread::sleep(Duration::from_millis(100));
        child.kill().expect("SIGKILL the spin child");
        let _ = child.wait();

        let (generation, payload) = Store::open(&dir)
            .unwrap()
            .load_latest("spin", "blob")
            .expect("a killed writer must never make the store unreadable")
            .expect("at least generation 1 was committed before the kill");
        assert_eq!(payload.len(), 64 * 1024, "round {round}");
        let expected = (generation % 251) as u8 + 1;
        assert!(
            payload.iter().all(|&b| b == expected),
            "round {round}: generation {generation} must carry its own payload, \
             not a torn or mixed one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An injected ENOSPC on the report write makes `bench_suite` exit
/// non-zero and leaves *no* partial report — a silently missing or torn
/// report would read as "no regressions" downstream.
#[test]
fn report_write_failure_exits_nonzero_without_partial_file() {
    let dir = tmpdir("report-enospc");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("BENCH_report.json");
    let (ok, _) = run(
        BENCH_SUITE,
        &["--smoke", "--out", out.to_str().unwrap()],
        &[("X2V_FAULTS", "enospc@bench/report")],
    );
    assert!(!ok, "a failed report write must be a hard error");
    assert!(
        !out.exists(),
        "no partial report may exist after a failed write"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `bench_suite` only measures: run under `X2V_CKPT_DIR` and
/// `X2V_RESUME=1`, it must neither save nor restore a checkpoint (no store
/// directory is created), and every workload must compute what
/// a plain run computes. The retired `--resume` / `--ckpt-dir` flags are
/// usage errors.
#[test]
fn bench_suite_never_checkpoints_even_with_a_store_in_the_env() {
    let ckpt = tmpdir("suite-ckpt");
    let dir = tmpdir("suite-out");
    std::fs::create_dir_all(&dir).unwrap();
    let plain_out = dir.join("plain.json");
    let env_out = dir.join("env.json");
    // `work` is a full-range u64, which the f64 JSON reader would round,
    // so it is read from the report text: one bench per line.
    let work_of = |path: &std::path::Path| -> Vec<(String, String)> {
        let text = std::fs::read_to_string(path).expect("the run must write its report");
        let works: Vec<_> = text
            .lines()
            .filter_map(|line| {
                let name = line.trim().strip_prefix('"')?.split('"').next()?;
                let work = line.split("\"work\": ").nth(1)?.split(',').next()?;
                Some((name.to_string(), work.to_string()))
            })
            .collect();
        assert!(!works.is_empty(), "{} carries no benches", path.display());
        works
    };

    let (ok, _) = run(
        BENCH_SUITE,
        &["--smoke", "--out", plain_out.to_str().unwrap()],
        &[],
    );
    assert!(ok, "the plain suite run must succeed");
    let (ok, _) = run(
        BENCH_SUITE,
        &["--smoke", "--out", env_out.to_str().unwrap()],
        &[
            ("X2V_CKPT_DIR", ckpt.to_str().unwrap()),
            ("X2V_RESUME", "1"),
        ],
    );
    assert!(ok, "the suite run with a store in the env must succeed");
    assert!(!ckpt.exists(), "the suite must not even open the store");
    assert_eq!(
        work_of(&env_out),
        work_of(&plain_out),
        "every workload must compute what a plain run computes"
    );

    for flags in [
        &["--smoke", "--resume"][..],
        &["--smoke", "--ckpt-dir", "x"],
    ] {
        let status = Command::new(BENCH_SUITE)
            .args(flags)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("spawn bench_suite");
        assert_eq!(status.code(), Some(2), "{flags:?} must be a usage error");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
