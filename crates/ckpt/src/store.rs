//! The generation-numbered, quarantine-on-corruption checkpoint store.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/<job>/gen-000001.ckpt      oldest retained generation
//! <root>/<job>/gen-000002.ckpt
//! <root>/<job>/gen-000003.ckpt      newest
//! <root>/<job>/claim-t3-a0.frame    a named frame (e.g. a fleet task lease)
//! <root>/<job>/quarantine/gen-000002.ckpt   (if generation 2 failed validation)
//! ```
//!
//! Every file is a [`frame`] (`x2v-ckpt/v1`: magic + kind +
//! length + CRC32 + payload) written through the site-tagged atomic writer
//! ([`crate::atomic`]), so a crash at any instant leaves either the
//! complete previous generation set or the complete new one. On load the
//! store scans generations newest-first; a file that fails frame validation
//! is moved to `quarantine/` (never deleted — it is the forensic evidence)
//! and the scan falls back to the next older generation. Only when *no*
//! generation validates does the caller cold-start.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use x2v_guard::faults::StoreFaultKind;
use x2v_guard::GuardError;

use crate::frame;

/// How many generations [`Store::save`] retains per job before pruning the
/// oldest. Two or more, so the newest generation being corrupt never strands
/// the job: the previous one is still on disk.
const RETENTION: usize = 3;

/// File extension of named frames (see [`Store::claim_named`]); distinct
/// from `.ckpt` so the generation scan never confuses the two.
const NAMED_EXTENSION: &str = "frame";

/// A durable, checksummed artifact store rooted at one directory.
///
/// Cheap to clone conceptually but deliberately not `Clone`: share it via
/// `Arc` (see [`crate::install_ambient`]).
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`, retaining
    /// the newest `RETENTION` generations per job.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, GuardError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| {
            GuardError::storage(
                crate::SITE,
                format!("cannot create store root {}: {e}", root.display()),
            )
        })?;
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory holding `job`'s generations.
    pub fn job_dir(&self, job: &str) -> PathBuf {
        self.root.join(sanitize_job(job))
    }

    /// Saves `payload` as the next generation of `job`, framed and tagged
    /// `kind`, returning the new generation number (1-based). The write is
    /// atomic; on success older generations beyond the retention limit are
    /// pruned. Counts `ckpt/saved` and `ckpt/bytes_written`.
    pub fn save(&self, job: &str, kind: &str, payload: &[u8]) -> Result<u64, GuardError> {
        let dir = self.job_dir(job);
        fs::create_dir_all(&dir).map_err(|e| {
            GuardError::storage(
                crate::SITE,
                format!("cannot create job dir {}: {e}", dir.display()),
            )
        })?;
        let generation = self
            .generations(&dir)?
            .last()
            .map(|&(g, _)| g + 1)
            .unwrap_or(1);
        let path = dir.join(gen_file(generation));
        let bytes = frame::encode(kind, payload);
        crate::atomic::write_atomic(crate::SITE, &path, &bytes).map_err(|e| {
            GuardError::storage(
                crate::SITE,
                format!("cannot write checkpoint {}: {e}", path.display()),
            )
        })?;
        x2v_obs::counter_add("ckpt/saved", 1);
        x2v_obs::counter_add("ckpt/bytes_written", bytes.len() as u64);
        x2v_obs::mark("ckpt/saved");
        self.prune(&dir, generation)?;
        Ok(generation)
    }

    /// Loads the newest generation of `job` whose frame validates and whose
    /// kind is `kind`, returning `(generation, payload)`. Generations that
    /// fail validation are moved to `quarantine/` (counted as
    /// `ckpt/corrupt_detected`) and the scan falls back to the next older
    /// one. `Ok(None)` means no usable checkpoint exists: cold-start.
    ///
    /// Safe to call while a writer is actively publishing into the same
    /// job: a listed file that has *vanished* by the time it is read means
    /// the writer's retention pruning raced this scan, so the scan restarts
    /// against the fresh directory state instead of misreporting the pruned
    /// file as corruption. The result is always either the old or a newer
    /// complete generation — never an error, never a torn frame.
    ///
    /// Only unreadable *directories* — including a quarantine directory
    /// that cannot be created — surface as `Err`; individual bad files
    /// never abort the scan.
    pub fn load_latest(&self, job: &str, kind: &str) -> Result<Option<(u64, Vec<u8>)>, GuardError> {
        let dir = self.job_dir(job);
        if !dir.exists() {
            return Ok(None);
        }
        // Rescans are bounded for determinism; each one requires the writer
        // to have pruned past the whole previous listing within the
        // list-to-read window (microseconds vs. fsync-paced saves), so the
        // bound is unreachable in practice.
        const SCAN_ATTEMPTS: usize = 8;
        'rescan: for attempt in 0..SCAN_ATTEMPTS {
            let mut gens = self.generations(&dir)?;
            gens.reverse(); // newest first
            for (generation, path) in gens {
                match fs::read(&path) {
                    Ok(bytes) => match frame::decode_kind(&bytes, kind) {
                        Ok(payload) => return Ok(Some((generation, payload))),
                        Err(err) => self.quarantine(&dir, &path, &err.to_string())?,
                    },
                    Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                        if attempt + 1 < SCAN_ATTEMPTS {
                            continue 'rescan; // pruned under us: re-list
                        }
                        // Out of rescans: skip it — there is nothing on
                        // disk to quarantine.
                    }
                    Err(err) => self.quarantine(&dir, &path, &format!("unreadable: {err}"))?,
                }
            }
            return Ok(None);
        }
        Ok(None)
    }

    /// The newest generation number of `job` present on disk, without
    /// reading or validating any file — the generation-*watch* API. A
    /// long-lived reader (the `x2v-serve` reload poller) calls this
    /// cheaply on an interval and only pays for [`Store::load_latest`]
    /// when the number moves. `Ok(None)` means the job has no generations
    /// (never saved, or all pruned/quarantined).
    ///
    /// The returned number can exceed what [`Store::load_latest`] will
    /// load: the newest file may still fail validation. That gap is
    /// exactly the "newest is corrupt or mid-write" signal graceful
    /// degradation keys on.
    pub fn latest_generation(&self, job: &str) -> Result<Option<u64>, GuardError> {
        let dir = self.job_dir(job);
        if !dir.exists() {
            return Ok(None);
        }
        Ok(self.generations(&dir)?.last().map(|&(g, _)| g))
    }

    /// Deletes every generation of `job` (quarantined files are kept). Used
    /// when a finished job's checkpoints are no longer needed.
    pub fn clear_job(&self, job: &str) -> Result<(), GuardError> {
        let dir = self.job_dir(job);
        if !dir.exists() {
            return Ok(());
        }
        for (_, path) in self.generations(&dir)? {
            fs::remove_file(&path).map_err(|e| {
                GuardError::storage(
                    crate::SITE,
                    format!("cannot remove {}: {e}", path.display()),
                )
            })?;
        }
        Ok(())
    }

    /// Atomically claims `job`'s named frame `name`: the file is created
    /// with `O_EXCL` semantics (`create_new`), so when any number of
    /// processes race on the same name the kernel arbitrates and exactly
    /// one observes `Ok(true)`; every other claimant gets `Ok(false)`. The
    /// winner's payload (framed and tagged `kind`) is then written and
    /// synced into the file.
    ///
    /// Unlike generations the claim is *not* published via temp+rename —
    /// the exclusive create IS the claim, and renaming over it would let
    /// two winners race. The price: a claimant killed mid-write leaves a
    /// claim whose payload does not decode. Readers must treat that as
    /// *pending*, not corruption (see [`Store::load_named`]); a supervisor
    /// that owns the protocol decides when an undecodable claim is dead.
    pub fn claim_named(
        &self,
        job: &str,
        name: &str,
        kind: &str,
        payload: &[u8],
    ) -> Result<bool, GuardError> {
        let dir = self.job_dir(job);
        fs::create_dir_all(&dir).map_err(|e| {
            GuardError::storage(
                crate::SITE,
                format!("cannot create job dir {}: {e}", dir.display()),
            )
        })?;
        let path = self.named_path(job, name);
        let mut file = match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => return Ok(false),
            Err(e) => {
                return Err(GuardError::storage(
                    crate::SITE,
                    format!("cannot claim {}: {e}", path.display()),
                ))
            }
        };
        let bytes = frame::encode(kind, payload);
        file.write_all(&bytes)
            .and_then(|()| file.sync_all())
            .map_err(|e| {
                GuardError::storage(
                    crate::SITE,
                    format!("cannot write claim {}: {e}", path.display()),
                )
            })?;
        x2v_obs::counter_add("ckpt/saved", 1);
        x2v_obs::counter_add("ckpt/bytes_written", bytes.len() as u64);
        Ok(true)
    }

    /// Saves `payload` as `job`'s named frame `name` (framed and tagged
    /// `kind`), atomically replacing any previous content via the tagged
    /// atomic writer. Last-writer-wins — the right semantics for idempotent
    /// protocol markers (lease revocations) where overwriting is the point;
    /// use [`Store::claim_named`] when exactly-one-winner matters.
    pub fn save_named(
        &self,
        job: &str,
        name: &str,
        kind: &str,
        payload: &[u8],
    ) -> Result<(), GuardError> {
        let dir = self.job_dir(job);
        fs::create_dir_all(&dir).map_err(|e| {
            GuardError::storage(
                crate::SITE,
                format!("cannot create job dir {}: {e}", dir.display()),
            )
        })?;
        let path = self.named_path(job, name);
        let bytes = frame::encode(kind, payload);
        crate::atomic::write_atomic(crate::SITE, &path, &bytes).map_err(|e| {
            GuardError::storage(
                crate::SITE,
                format!("cannot write named frame {}: {e}", path.display()),
            )
        })?;
        x2v_obs::counter_add("ckpt/saved", 1);
        x2v_obs::counter_add("ckpt/bytes_written", bytes.len() as u64);
        Ok(())
    }

    /// Loads `job`'s named frame `name` if present and valid, returning its
    /// payload. `Ok(None)` covers both "never written" and "present but not
    /// (yet) a valid `kind` frame" — the latter is a claim still being
    /// written by a racing process (or one killed mid-write), which readers
    /// treat as pending. Named frames are never quarantined for exactly
    /// that reason: an undecodable one is not evidence of corruption, and
    /// whether it is *dead* is a protocol-level judgement
    /// (see `x2v-fleet`'s supervisor), not a storage-level one.
    pub fn load_named(
        &self,
        job: &str,
        name: &str,
        kind: &str,
    ) -> Result<Option<Vec<u8>>, GuardError> {
        let path = self.named_path(job, name);
        match fs::read(&path) {
            Ok(bytes) => Ok(frame::decode_kind(&bytes, kind).ok()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(GuardError::storage(
                crate::SITE,
                format!("cannot read named frame {}: {e}", path.display()),
            )),
        }
    }

    /// Whether `job`'s named frame `name` exists on disk at all (decodable
    /// or not) — the cheap existence probe claimants use to skip work that
    /// is already spoken for.
    pub fn named_exists(&self, job: &str, name: &str) -> bool {
        self.named_path(job, name).exists()
    }

    /// Deletes every named frame of `job`. Generations and quarantined
    /// files are kept.
    pub fn clear_named(&self, job: &str) -> Result<(), GuardError> {
        let dir = self.job_dir(job);
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => {
                return Err(GuardError::storage(
                    crate::SITE,
                    format!("cannot list {}: {e}", dir.display()),
                ))
            }
        };
        for entry in entries.flatten() {
            let is_frame = entry
                .path()
                .extension()
                .is_some_and(|e| e == NAMED_EXTENSION);
            if is_frame {
                let path = entry.path();
                fs::remove_file(&path).map_err(|e| {
                    GuardError::storage(
                        crate::SITE,
                        format!("cannot remove {}: {e}", path.display()),
                    )
                })?;
            }
        }
        Ok(())
    }

    /// The on-disk path of `job`'s named frame `name`. The `.frame`
    /// extension keeps named frames invisible to the `gen-*.ckpt`
    /// generation scan.
    fn named_path(&self, job: &str, name: &str) -> PathBuf {
        self.job_dir(job)
            .join(format!("{}.{NAMED_EXTENSION}", sanitize_job(name)))
    }

    /// All `gen-*.ckpt` files in `dir`, sorted by ascending generation.
    fn generations(&self, dir: &Path) -> Result<Vec<(u64, PathBuf)>, GuardError> {
        let mut out = Vec::new();
        let entries = match fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => {
                return Err(GuardError::storage(
                    crate::SITE,
                    format!("cannot list {}: {e}", dir.display()),
                ))
            }
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(generation) = parse_gen_file(&name) {
                out.push((generation, entry.path()));
            }
        }
        out.sort_unstable_by_key(|&(g, _)| g);
        Ok(out)
    }

    /// Moves a corrupt generation into `dir`'s `quarantine/` subdirectory.
    /// The *move* is best-effort (a failed rename leaves the file in place,
    /// where a later scan quarantines it again; it is never *loaded*), but
    /// a quarantine directory that cannot be created surfaces as a typed
    /// [`GuardError::Storage`] at [`crate::QUARANTINE_SITE`]: a store that
    /// can neither preserve the forensic evidence nor record the fact is a
    /// disk-level emergency, not something to shrug off. Drillable via
    /// `enospc@ckpt/quarantine`.
    fn quarantine(&self, dir: &Path, path: &Path, why: &str) -> Result<(), GuardError> {
        x2v_obs::counter_add("ckpt/corrupt_detected", 1);
        x2v_obs::mark("ckpt/corrupt_detected");
        eprintln!(
            "[x2v-ckpt] quarantining corrupt checkpoint {} ({why})",
            path.display()
        );
        let qdir = dir.join("quarantine");
        if x2v_guard::faults::store_fault(crate::QUARANTINE_SITE) == Some(StoreFaultKind::Enospc) {
            return Err(GuardError::storage(
                crate::QUARANTINE_SITE,
                format!(
                    "injected enospc: cannot create quarantine dir {}",
                    qdir.display()
                ),
            ));
        }
        fs::create_dir_all(&qdir).map_err(|e| {
            GuardError::storage(
                crate::QUARANTINE_SITE,
                format!("cannot create quarantine dir {}: {e}", qdir.display()),
            )
        })?;
        if let Some(name) = path.file_name() {
            let _ = fs::rename(path, qdir.join(name));
        }
        Ok(())
    }

    /// Removes generations older than the retention window ending at
    /// `newest`.
    fn prune(&self, dir: &Path, newest: u64) -> Result<(), GuardError> {
        let cutoff = newest.saturating_sub(RETENTION as u64 - 1);
        for (generation, path) in self.generations(dir)? {
            if generation < cutoff {
                // Best-effort: a prune failure must not fail the save that
                // triggered it.
                let _ = fs::remove_file(&path);
            }
        }
        Ok(())
    }
}

fn gen_file(generation: u64) -> String {
    format!("gen-{generation:06}.ckpt")
}

fn parse_gen_file(name: &str) -> Option<u64> {
    name.strip_prefix("gen-")?
        .strip_suffix(".ckpt")?
        .parse()
        .ok()
}

/// Maps an arbitrary job name onto a safe single path component: every
/// character outside `[A-Za-z0-9._-]` becomes `_`. Distinct jobs should use
/// names that stay distinct under this mapping.
fn sanitize_job(job: &str) -> String {
    let mapped: String = job
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    // Never produce a dot-only component ("." / "..") or an empty one.
    if mapped.is_empty() || mapped.chars().all(|c| c == '.') {
        "job".to_string()
    } else {
        mapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpstore(tag: &str) -> Store {
        let d = std::env::temp_dir().join(format!("x2v-ckpt-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        Store::open(d).unwrap()
    }

    fn teardown(store: Store) {
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn save_load_round_trip_with_generations() {
        let store = tmpstore("rt");
        assert_eq!(store.load_latest("j", "k").unwrap(), None);
        assert_eq!(store.save("j", "k", b"one").unwrap(), 1);
        assert_eq!(store.save("j", "k", b"two").unwrap(), 2);
        let (generation, payload) = store.load_latest("j", "k").unwrap().unwrap();
        assert_eq!(generation, 2);
        assert_eq!(payload, b"two");
        teardown(store);
    }

    #[test]
    fn latest_generation_watches_without_reading() {
        let store = tmpstore("watch");
        assert_eq!(store.latest_generation("j").unwrap(), None);
        store.save("j", "k", b"one").unwrap();
        assert_eq!(store.latest_generation("j").unwrap(), Some(1));
        store.save("j", "k", b"two").unwrap();
        assert_eq!(store.latest_generation("j").unwrap(), Some(2));
        // The watch sees a corrupt newest generation (it only counts
        // files); load_latest then falls back below it.
        let newest = store.job_dir("j").join("gen-000002.ckpt");
        fs::write(&newest, b"garbage").unwrap();
        assert_eq!(store.latest_generation("j").unwrap(), Some(2));
        let (generation, _) = store.load_latest("j", "k").unwrap().unwrap();
        assert_eq!(generation, 1);
        // After quarantine the watch agrees with what is loadable again.
        assert_eq!(store.latest_generation("j").unwrap(), Some(1));
        teardown(store);
    }

    #[test]
    fn retention_prunes_oldest() {
        let store = tmpstore("prune");
        for i in 0..5u8 {
            store.save("j", "k", &[i]).unwrap();
        }
        let dir = store.job_dir("j");
        let mut names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec!["gen-000003.ckpt", "gen-000004.ckpt", "gen-000005.ckpt"]
        );
        teardown(store);
    }

    #[test]
    fn corrupt_newest_falls_back_and_quarantines() {
        let store = tmpstore("corrupt");
        store.save("j", "k", b"good").unwrap();
        store.save("j", "k", b"newer").unwrap();
        // Flip a payload bit in the newest generation on disk.
        let newest = store.job_dir("j").join("gen-000002.ckpt");
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        fs::write(&newest, &bytes).unwrap();

        let (generation, payload) = store.load_latest("j", "k").unwrap().unwrap();
        assert_eq!(generation, 1);
        assert_eq!(payload, b"good");
        // The corrupt file moved to quarantine, not deleted.
        assert!(!newest.exists());
        assert!(store
            .job_dir("j")
            .join("quarantine")
            .join("gen-000002.ckpt")
            .exists());
        teardown(store);
    }

    #[test]
    fn all_generations_corrupt_means_cold_start() {
        let store = tmpstore("cold");
        store.save("j", "k", b"a").unwrap();
        store.save("j", "k", b"b").unwrap();
        for entry in fs::read_dir(store.job_dir("j")).unwrap().flatten() {
            if entry.path().extension().is_some_and(|e| e == "ckpt") {
                fs::write(entry.path(), b"garbage, not a frame").unwrap();
            }
        }
        assert_eq!(store.load_latest("j", "k").unwrap(), None);
        teardown(store);
    }

    #[test]
    fn kind_mismatch_is_not_loaded() {
        let store = tmpstore("kind");
        store.save("j", "gram-rows", b"rows").unwrap();
        assert_eq!(store.load_latest("j", "sgns-epoch").unwrap(), None);
        teardown(store);
    }

    #[test]
    fn job_names_are_sanitized() {
        assert_eq!(sanitize_job("w2v/seed-42"), "w2v_seed-42");
        assert_eq!(sanitize_job("../escape"), ".._escape");
        assert_eq!(sanitize_job(".."), "job");
        assert_eq!(sanitize_job(""), "job");
        let store = tmpstore("sanitize");
        store.save("a/b", "k", b"x").unwrap();
        assert!(store.root().join("a_b").is_dir());
        teardown(store);
    }

    #[test]
    fn named_frames_claim_save_load_clear() {
        let store = tmpstore("named");
        // First claim wins and round-trips; the second loses without
        // touching the winner's payload.
        assert!(store
            .claim_named("j", "claim-t0-a0", "lease", b"w1")
            .unwrap());
        assert!(!store
            .claim_named("j", "claim-t0-a0", "lease", b"w2")
            .unwrap());
        assert_eq!(
            store.load_named("j", "claim-t0-a0", "lease").unwrap(),
            Some(b"w1".to_vec())
        );
        assert!(store.named_exists("j", "claim-t0-a0"));
        assert!(!store.named_exists("j", "claim-t1-a0"));
        // save_named is last-writer-wins.
        store
            .save_named("j", "revoked-t0-a0", "mark", b"a")
            .unwrap();
        store
            .save_named("j", "revoked-t0-a0", "mark", b"b")
            .unwrap();
        assert_eq!(
            store.load_named("j", "revoked-t0-a0", "mark").unwrap(),
            Some(b"b".to_vec())
        );
        // A kind mismatch and a missing frame both read as pending.
        assert_eq!(store.load_named("j", "claim-t0-a0", "mark").unwrap(), None);
        assert_eq!(store.load_named("j", "nope", "lease").unwrap(), None);
        // An undecodable (mid-write) claim reads as pending, exists, and is
        // never quarantined.
        let torn = store.job_dir("j").join("claim-t2-a0.frame");
        fs::write(&torn, b"partial garbage").unwrap();
        assert!(store.named_exists("j", "claim-t2-a0"));
        assert_eq!(store.load_named("j", "claim-t2-a0", "lease").unwrap(), None);
        assert!(!store.job_dir("j").join("quarantine").exists());
        // clear_named removes frames but leaves generations alone.
        store.save("j", "k", b"gen").unwrap();
        store.clear_named("j").unwrap();
        assert!(!store.named_exists("j", "claim-t0-a0"));
        assert!(!store.named_exists("j", "revoked-t0-a0"));
        assert_eq!(store.load_latest("j", "k").unwrap().unwrap().1, b"gen");
        teardown(store);
    }

    #[test]
    fn named_frames_do_not_disturb_generations() {
        let store = tmpstore("named-gen");
        store.save("j", "k", b"one").unwrap();
        store
            .claim_named("j", "claim-t0-a0", "lease", b"w")
            .unwrap();
        // The named frame is not a generation: the watch and the scan both
        // ignore it, and saving again continues the gen sequence.
        assert_eq!(store.latest_generation("j").unwrap(), Some(1));
        assert_eq!(store.save("j", "k", b"two").unwrap(), 2);
        assert_eq!(store.load_latest("j", "k").unwrap().unwrap().1, b"two");
        teardown(store);
    }

    #[test]
    fn clear_job_removes_generations_keeps_quarantine() {
        let store = tmpstore("clear");
        store.save("j", "k", b"a").unwrap();
        store.save("j", "k", b"b").unwrap();
        let newest = store.job_dir("j").join("gen-000002.ckpt");
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        store.load_latest("j", "k").unwrap(); // quarantines gen 2
        store.clear_job("j").unwrap();
        assert_eq!(store.load_latest("j", "k").unwrap(), None);
        assert!(store.job_dir("j").join("quarantine").is_dir());
        teardown(store);
    }
}
