//! The on-store fleet protocol: job naming, frame kinds and payload codecs.
//!
//! Everything the supervisor and its workers exchange lives in the ckpt
//! store as validated frames, grouped into per-purpose store *jobs* under
//! one fleet job name `<job>`:
//!
//! ```text
//! <job>.manifest            gen frames, kind "fleet-manifest"
//! <job>.lease               named frames: claim-t<T>-a<K> ("fleet-lease"),
//!                           revoked-t<T>-a<K> ("fleet-mark")
//! <job>.shard.<FP>.t<T>     gen frames, kind "fleet-shard"
//! <job>.hb.w<W>             gen frames, kind "fleet-heartbeat"
//! ```
//!
//! `<FP>` is the manifest fingerprint (CRC32 over the manifest payload):
//! baking it into the shard job name means shards from a *different*
//! manifest — a changed parameter, a different workload — are simply
//! invisible, so a resume can never merge stale bytes.
//!
//! A task `T` is attempted at monotonically increasing attempt indices
//! `K = 0, 1, …`: attempt `K` is owned by whoever wins the `O_EXCL` race
//! on `claim-t<T>-a<K>`, and is over when the supervisor publishes the
//! idempotent `revoked-t<T>-a<K>` marker (dead owner, stalled owner, or
//! corrupt shard). The *current* attempt of a task is the smallest
//! unrevoked index; a task with all `max_attempts` indices revoked is
//! abandoned. Claims and markers are never deleted mid-run — they are the
//! audit trail — and shard payloads do not mention the worker that
//! produced them, so every attempt publishes byte-identical shards.

use x2v_ckpt::codec::{Dec, Enc};
use x2v_ckpt::{crc32, Store};
use x2v_guard::faults::{self, SocketFaultKind};
use x2v_guard::GuardError;
use x2v_obs::keys;

/// Frame kind of manifest generations.
pub const MANIFEST_KIND: &str = "fleet-manifest";
/// Frame kind of task lease claims.
pub const LEASE_KIND: &str = "fleet-lease";
/// Frame kind of revocation markers.
pub const MARK_KIND: &str = "fleet-mark";
/// Frame kind of result shard generations.
pub const SHARD_KIND: &str = "fleet-shard";
/// Frame kind of heartbeat generations.
pub const HEARTBEAT_KIND: &str = "fleet-heartbeat";

/// Upper bound accepted for a decoded manifest parameter blob.
const MAX_PARAMS: usize = 1 << 26;
/// Upper bound accepted for a decoded shard payload.
const MAX_SHARD: usize = 1 << 30;

/// The store job holding `job`'s manifest generations.
pub fn manifest_job(job: &str) -> String {
    format!("{job}.manifest")
}

/// The store job holding `job`'s lease claims and revocation markers.
pub fn lease_job(job: &str) -> String {
    format!("{job}.lease")
}

/// The store job holding task `task`'s result shards under manifest
/// fingerprint `fingerprint`.
pub fn shard_job(job: &str, fingerprint: u32, task: usize) -> String {
    format!("{job}.shard.{fingerprint:08x}.t{task}")
}

/// The store job holding worker `worker`'s heartbeat generations.
pub fn heartbeat_job(job: &str, worker: u64) -> String {
    format!("{job}.hb.w{worker}")
}

/// The named frame claiming attempt `attempt` of task `task`.
pub fn claim_name(task: usize, attempt: u64) -> String {
    format!("claim-t{task}-a{attempt}")
}

/// The named frame revoking attempt `attempt` of task `task`.
pub fn revoked_name(task: usize, attempt: u64) -> String {
    format!("revoked-t{task}-a{attempt}")
}

/// The task manifest: everything a worker process needs to reconstruct
/// the workload and enumerate its tasks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Workload family identifier ([`crate::Workload::kind`]).
    pub workload_kind: String,
    /// Serialised workload parameters ([`crate::Workload::params`]).
    pub params: Vec<u8>,
    /// Number of tasks.
    pub num_tasks: u64,
}

impl Manifest {
    /// Builds the manifest of `workload`.
    pub fn of(workload: &dyn crate::Workload) -> Self {
        Manifest {
            workload_kind: workload.kind().to_string(),
            params: workload.params(),
            num_tasks: workload.num_tasks() as u64,
        }
    }

    /// Serialises the manifest payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.str(&self.workload_kind)
            .bytes(&self.params)
            .u64(self.num_tasks);
        e.finish()
    }

    /// Deserialises a manifest payload; `None` on any malformation.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut d = Dec::new(payload);
        let workload_kind = d.str(256, "manifest kind").ok()?;
        let params = d.bytes_vec(MAX_PARAMS, "manifest params").ok()?;
        let num_tasks = d.u64("manifest tasks").ok()?;
        d.finish("manifest tail").ok()?;
        Some(Manifest {
            workload_kind,
            params,
            num_tasks,
        })
    }

    /// The manifest fingerprint: CRC32 over the encoded payload. Shard job
    /// names embed it, so shards are only ever merged against the exact
    /// manifest that produced them.
    pub fn fingerprint(&self) -> u32 {
        crc32::crc32(&self.encode())
    }
}

/// A lease claim payload: who owns this attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lease {
    /// Claiming worker's fleet id (`u64::MAX` for the inline supervisor).
    pub worker: u64,
    /// Claiming process id, for forensics and external `kill`.
    pub pid: u64,
}

impl Lease {
    /// Serialises the lease payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.worker).u64(self.pid);
        e.finish()
    }

    /// Deserialises a lease payload; `None` on any malformation (a claim
    /// caught mid-write — treated as pending by readers).
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut d = Dec::new(payload);
        let worker = d.u64("lease worker").ok()?;
        let pid = d.u64("lease pid").ok()?;
        d.finish("lease tail").ok()?;
        Some(Lease { worker, pid })
    }
}

/// A heartbeat payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Heartbeat {
    /// Beating worker's fleet id.
    pub worker: u64,
    /// Beating worker's process id (the chaos battery reads this to aim
    /// its SIGKILLs).
    pub pid: u64,
    /// Monotonic beat sequence within this worker process.
    pub seq: u64,
}

impl Heartbeat {
    /// Serialises the heartbeat payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.worker).u64(self.pid).u64(self.seq);
        e.finish()
    }

    /// Deserialises a heartbeat payload; `None` on any malformation.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        let mut d = Dec::new(payload);
        let worker = d.u64("hb worker").ok()?;
        let pid = d.u64("hb pid").ok()?;
        let seq = d.u64("hb seq").ok()?;
        d.finish("hb tail").ok()?;
        Some(Heartbeat { worker, pid, seq })
    }
}

/// Encodes a shard payload. Deliberately excludes any producer identity:
/// shard bytes are a function of (manifest, task) alone, so duplicated
/// publishes are byte-identical.
fn encode_shard(task: usize, data: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(task as u64).bytes(data);
    e.finish()
}

/// Decodes a shard payload for `task`; `None` on malformation or task
/// mismatch (either is treated as corruption by the supervisor).
pub fn decode_shard(task: usize, payload: &[u8]) -> Option<Vec<u8>> {
    let mut d = Dec::new(payload);
    let t = d.u64("shard task").ok()?;
    if t != task as u64 {
        return None;
    }
    let data = d.bytes_vec(MAX_SHARD, "shard data").ok()?;
    d.finish("shard tail").ok()?;
    Some(data)
}

/// The current attempt index of `task`: the smallest `k < max_attempts`
/// whose revocation marker is absent, or `None` when every attempt has
/// been revoked — the task is abandoned. Both the supervisor and the
/// workers derive attempt state from the same on-store markers, so they
/// can never disagree about which attempt is live.
pub fn current_attempt(store: &Store, job: &str, task: usize, max_attempts: u64) -> Option<u64> {
    let lease = lease_job(job);
    (0..max_attempts).find(|&k| !store.named_exists(&lease, &revoked_name(task, k)))
}

/// Publishes the shard for `task` (counting
/// [`keys::fleet::SHARDS_PUBLISHED`]), honouring the `corrupt@fleet/shard`
/// drill: when it fires, one bit of the just-written frame is flipped on
/// disk *after* the atomic publish — exactly what silent media corruption
/// between publish and collection looks like — so the supervisor's
/// quarantine-and-retry path is exercised end to end.
pub fn publish_shard(
    store: &Store,
    job: &str,
    fingerprint: u32,
    task: usize,
    data: &[u8],
) -> Result<(), GuardError> {
    let shard = shard_job(job, fingerprint, task);
    let payload = encode_shard(task, data);
    let generation = store.save(&shard, SHARD_KIND, &payload)?;
    x2v_obs::counter_add(keys::fleet::SHARDS_PUBLISHED, 1);
    if faults::socket_fault(crate::SHARD_SITE) == Some(SocketFaultKind::Corrupt) {
        // The file name is the store's documented gen layout.
        let path = store
            .job_dir(&shard)
            .join(format!("gen-{generation:06}.ckpt"));
        if let Ok(mut bytes) = std::fs::read(&path) {
            if let Some(last) = bytes.last_mut() {
                *last ^= 0x01;
            }
            let _ = std::fs::write(&path, &bytes);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips() {
        let m = Manifest {
            workload_kind: "fleet-gram-wl".into(),
            params: vec![1, 2, 3],
            num_tasks: 9,
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        assert_eq!(
            m.fingerprint(),
            Manifest::decode(&m.encode()).unwrap().fingerprint()
        );

        let l = Lease {
            worker: 3,
            pid: 4242,
        };
        assert_eq!(Lease::decode(&l.encode()).unwrap(), l);
        assert_eq!(Lease::decode(b"torn"), None);

        let h = Heartbeat {
            worker: 1,
            pid: 99,
            seq: 7,
        };
        assert_eq!(Heartbeat::decode(&h.encode()).unwrap(), h);

        let shard = encode_shard(5, b"rows");
        assert_eq!(decode_shard(5, &shard).unwrap(), b"rows");
        assert_eq!(decode_shard(6, &shard), None, "task mismatch is corruption");
    }

    #[test]
    fn fingerprint_distinguishes_manifests() {
        let a = Manifest {
            workload_kind: "k".into(),
            params: vec![1],
            num_tasks: 4,
        };
        let mut b = a.clone();
        b.params = vec![2];
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(
            shard_job("j", a.fingerprint(), 0),
            shard_job("j", b.fingerprint(), 0),
            "shards of different manifests must live in different jobs"
        );
    }

    #[test]
    fn attempt_state_follows_revocation_markers() {
        let dir = std::env::temp_dir().join(format!("x2v-fleet-proto-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let lease = lease_job("j");
        assert_eq!(current_attempt(&store, "j", 0, 3), Some(0));
        store
            .save_named(&lease, &revoked_name(0, 0), MARK_KIND, b"dead")
            .unwrap();
        assert_eq!(current_attempt(&store, "j", 0, 3), Some(1));
        store
            .save_named(&lease, &revoked_name(0, 1), MARK_KIND, b"dead")
            .unwrap();
        store
            .save_named(&lease, &revoked_name(0, 2), MARK_KIND, b"dead")
            .unwrap();
        assert_eq!(current_attempt(&store, "j", 0, 3), None, "abandoned");
        assert_eq!(current_attempt(&store, "j", 1, 3), Some(0), "independent");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
