//! The workspace's rename-into-place atomic file writer.
//!
//! Every artifact the workspace persists (obs run reports, Chrome traces,
//! `BENCH_<n>.json`, checkpoints) goes through [`atomic_write`]: the bytes
//! are written to a uniquely-named temporary file *in the destination
//! directory*, flushed with `fsync`, and then renamed over the final path.
//! POSIX rename is atomic within a filesystem, so a reader — or a process
//! that crashes and restarts — observes either the complete old content or
//! the complete new content, never a torn prefix.
//!
//! This primitive lives in `x2v-obs` (the bottom of the crate stack) so the
//! report and trace writers can use it; `x2v-ckpt` layers checksummed
//! framing, generation management and fault injection on top.

use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic per-process suffix so concurrent writers (threads or tests)
/// never collide on a temp name.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The temporary path `atomic_write` stages `path`'s new content at:
/// `.<file>.tmp-<pid>-<seq>` in the same directory (same filesystem, so the
/// final rename cannot degrade to a copy).
fn temp_path_for(path: &Path) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let file = path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    let tmp = format!(".{file}.tmp-{}-{seq}", std::process::id());
    path.with_file_name(tmp)
}

/// Stages `bytes` for `path` without committing: writes and fsyncs the
/// temporary file and returns its path, leaving any existing `path`
/// untouched. This is the state a crash between write and rename leaves
/// behind, which the torn-write test below simulates deterministically.
fn atomic_stage(path: &Path, bytes: &[u8]) -> std::io::Result<PathBuf> {
    let tmp = temp_path_for(path);
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    Ok(tmp)
}

/// Commits a staged temporary file over `path` (atomic rename, then a
/// best-effort fsync of the containing directory so the rename itself is
/// durable).
fn atomic_commit(tmp: &Path, path: &Path) -> std::io::Result<()> {
    fs::rename(tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Directory fsync is advisory: some filesystems reject opening a
        // directory for sync; the rename already happened atomically.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// `fsync`, rename into place. On error the destination is untouched and
/// the temp file is removed (best-effort).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = atomic_stage(path, bytes)?;
    atomic_commit(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("x2v-obs-fsio-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn write_then_overwrite() {
        let d = tmpdir("rw");
        let p = d.join("a.json");
        atomic_write(&p, b"first").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"first");
        atomic_write(&p, b"second, longer content").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"second, longer content");
        // No temp debris after successful commits.
        assert_eq!(fs::read_dir(&d).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn crash_window_leaves_old_content_intact() {
        let d = tmpdir("crash");
        let p = d.join("report.json");
        atomic_write(&p, b"{\"gen\": 1}").unwrap();
        // Simulate a crash after staging but before the rename: the
        // destination must still read back the complete old content.
        let tmp = atomic_stage(&p, b"{\"gen\": 2, \"torn\": maybe").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"{\"gen\": 1}");
        // Recovery (a later successful write) supersedes the stale temp.
        atomic_commit(&tmp, &p).unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"{\"gen\": 2, \"torn\": maybe");
        let _ = fs::remove_dir_all(&d);
    }
}
