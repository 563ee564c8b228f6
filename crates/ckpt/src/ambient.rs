//! The process-wide ambient checkpoint store, mirroring the ambient budget
//! in `x2v-guard`.
//!
//! Library APIs take an explicit `&Store`; the infallible hot-path wrappers
//! and the `exp_*` binaries use the ambient store instead — installed by
//! `ObsRun` when `--resume` / `X2V_CKPT_DIR` is in play — so checkpointing
//! composes with existing call sites without threading a store through
//! every signature.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::store::Store;

static AMBIENT: Mutex<Option<Arc<Store>>> = Mutex::new(None);
static AMBIENT_SET: AtomicBool = AtomicBool::new(false);
static RESUME: AtomicBool = AtomicBool::new(false);

/// Installs a process-wide ambient store. Resumable hot paths
/// (`Word2Vec::train`, `gram_resumable`) checkpoint into it, and — when
/// [`set_resume`]`(true)` is also in effect — restore from it before
/// starting work.
pub fn install_ambient(store: Store) {
    *AMBIENT.lock().expect("ambient store lock") = Some(Arc::new(store));
    AMBIENT_SET.store(true, Ordering::Release);
}

/// Removes the ambient store and clears the resume flag.
pub fn clear_ambient() {
    AMBIENT_SET.store(false, Ordering::Release);
    RESUME.store(false, Ordering::Release);
    *AMBIENT.lock().expect("ambient store lock") = None;
}

/// The ambient store, if one is installed. One relaxed atomic load on the
/// fast (no store) path.
pub fn ambient() -> Option<Arc<Store>> {
    if !AMBIENT_SET.load(Ordering::Acquire) {
        return None;
    }
    AMBIENT.lock().expect("ambient store lock").clone()
}

/// Sets whether resumable hot paths should *restore* from the ambient store
/// (the `--resume` flag). Saving checkpoints only requires the store to be
/// installed; restoring additionally requires this opt-in, so a fresh run
/// pointed at an old checkpoint directory does not silently resume stale
/// state.
pub fn set_resume(resume: bool) {
    RESUME.store(resume, Ordering::Release);
}

/// Whether `--resume` is in effect (see [`set_resume`]).
pub fn resume_requested() -> bool {
    RESUME.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Ambient state is process-global; one #[test] so parallel test threads
    // cannot interleave install/clear.
    #[test]
    fn install_resume_clear_cycle() {
        clear_ambient();
        assert!(ambient().is_none());
        assert!(!resume_requested());

        let dir = std::env::temp_dir().join(format!("x2v-ckpt-ambient-{}", std::process::id()));
        install_ambient(Store::open(&dir).unwrap());
        set_resume(true);
        assert!(ambient().is_some());
        assert!(resume_requested());

        clear_ambient();
        assert!(ambient().is_none());
        assert!(!resume_requested());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
