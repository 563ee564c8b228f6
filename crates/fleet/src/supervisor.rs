//! The fleet supervisor: spawn, watch, revoke, respawn, merge.
//!
//! [`run_fleet`] drives a [`Workload`] to completion
//! across N worker subprocesses (or inline, in-process, when `workers <=
//! 1`), surviving worker SIGKILLs, stalls and corrupt shards. Its loop is
//! a small state machine over the durable protocol state
//! ([`crate::protocol`]):
//!
//! 1. **collect** — pull validated shards into memory; a shard that fails
//!    validation was quarantined by the store (never deleted), counts
//!    `fleet/shard_corrupt`, and its task's current lease is revoked so
//!    the next attempt can be claimed;
//! 2. **reap** — a worker that exited non-zero (or was SIGKILLed) counts
//!    `fleet/worker_deaths`, has its leases revoked, and is respawned
//!    after a seeded, jittered [`Backoff`] delay (`fleet/respawns`) until
//!    its respawn budget runs out;
//! 3. **stall-watch** — a live worker whose heartbeat generation stops
//!    advancing for `stall_timeout_ms` counts `fleet/stalls_detected` and
//!    is killed; the reap path then takes over;
//! 4. **settle** — a task whose every attempt has been revoked is
//!    abandoned. When all tasks are done-or-abandoned (or nobody is left
//!    to run them) the loop ends — so the supervisor can *never* hang.
//!
//! Missing tasks at the end either degrade the run to a declared partial
//! result (`allow_partial`, counting `fleet/partial`) or surface as a
//! typed [`GuardError::WorkerFailed`] with the missing tasks enumerated.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use x2v_ckpt::Store;
use x2v_guard::retry::Backoff;
use x2v_guard::GuardError;
use x2v_obs::keys;

use crate::protocol::{self, Lease, Manifest, LEASE_KIND, MANIFEST_KIND, MARK_KIND, SHARD_KIND};
use crate::{Workload, SITE};

/// Configuration of one fleet run.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Fleet job name: the namespace of every protocol frame in the store.
    pub job: String,
    /// Worker count. `<= 1` runs inline in this process — no subprocesses,
    /// no leases, the degenerate fleet every multi-worker run must match
    /// bit-for-bit.
    pub workers: usize,
    /// Path to the worker executable (the `fleet_worker` bin). Required
    /// when `workers > 1`.
    pub worker_cmd: Option<PathBuf>,
    /// Extra environment for the *first* worker cohort only — the fault
    /// drill channel (`X2V_FAULTS` set here arms exactly one cohort;
    /// respawned workers always start clean, so a drilled crash loop
    /// cannot recurse forever).
    pub worker_env: Vec<(String, String)>,
    /// Worker heartbeat period.
    pub heartbeat_ms: u64,
    /// How long a worker's heartbeat may stand still before the
    /// supervisor declares it stalled and kills it.
    pub stall_timeout_ms: u64,
    /// Per-task retry cap: a task may be re-dispatched this many times
    /// after its first attempt before it is abandoned.
    pub max_task_retries: u64,
    /// Seed of the respawn [`Backoff`] (worker id is the stream, so the
    /// jitter sequence is deterministic per slot).
    pub backoff_seed: u64,
    /// Respawn backoff base delay in milliseconds.
    pub backoff_base_ms: u64,
    /// Respawn backoff delay cap in milliseconds.
    pub backoff_cap_ms: u64,
    /// How many times one worker slot may be respawned before it is
    /// retired.
    pub respawn_cap: u32,
    /// Supervisor poll period.
    pub poll_ms: u64,
    /// Degrade to a declared-partial result instead of erroring when
    /// tasks remain missing at the end.
    pub allow_partial: bool,
    /// Reuse shards of a previous identical run (same manifest bytes)
    /// instead of starting fresh.
    pub resume: bool,
}

impl FleetConfig {
    /// A single-worker (inline) configuration with house defaults.
    pub fn new(job: impl Into<String>) -> Self {
        FleetConfig {
            job: job.into(),
            workers: 1,
            worker_cmd: None,
            worker_env: Vec::new(),
            heartbeat_ms: 50,
            stall_timeout_ms: 1_000,
            max_task_retries: 3,
            backoff_seed: 42,
            backoff_base_ms: Backoff::DEFAULT_BASE_MS,
            backoff_cap_ms: 200,
            respawn_cap: Backoff::DEFAULT_MAX_RETRIES,
            poll_ms: 20,
            allow_partial: false,
            resume: false,
        }
    }
}

/// What one fleet run produced.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// Shard bytes per task, in task order; `None` exactly for the tasks
    /// listed in [`FleetOutcome::missing`].
    pub shards: Vec<Option<Vec<u8>>>,
    /// Tasks with no valid shard after the retry budget, ascending.
    pub missing: Vec<usize>,
    /// Whether every task produced a shard.
    pub complete: bool,
    /// Worker deaths observed (crashes, SIGKILLs, stall kills).
    pub worker_deaths: u64,
    /// Workers respawned.
    pub respawns: u64,
    /// Heartbeat stalls detected.
    pub stalls: u64,
    /// Task lease revocations (the retry count).
    pub retries: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskStatus {
    Pending,
    Done,
    Abandoned,
}

/// What the store currently holds for one task's shard job.
enum ShardState {
    /// Nothing published (or everything quarantined on an earlier poll).
    Missing,
    /// A validated shard.
    Valid(Vec<u8>),
    /// The newest shard failed frame validation and was quarantined just
    /// now; the task is retriable.
    Quarantined,
    /// A frame validated but its payload does not decode — nothing a
    /// retry can fix (defensive; unreachable via the supported writers).
    Poisoned,
}

/// Executes `workload` under `cfg` against `store`. See the module doc
/// for the loop contract; see [`crate::Workload`] for the determinism
/// contract that makes the merged bytes schedule-independent.
pub fn run_fleet(
    store: &Store,
    cfg: &FleetConfig,
    workload: &dyn Workload,
) -> Result<FleetOutcome, GuardError> {
    let _span = x2v_obs::span("fleet/run");
    if cfg.workers > 1 && cfg.worker_cmd.is_none() {
        return Err(GuardError::invalid_input(
            SITE,
            format!("{} workers requested but no worker_cmd given", cfg.workers),
        ));
    }
    let manifest = Manifest::of(workload);
    let fingerprint = manifest.fingerprint();
    prepare_store(store, cfg, &manifest, fingerprint)?;

    let mut outcome = if cfg.workers > 1 {
        run_supervised(store, cfg, workload, fingerprint)?
    } else {
        run_inline(store, cfg, workload, fingerprint)?
    };
    outcome.missing = outcome
        .shards
        .iter()
        .enumerate()
        .filter_map(|(t, s)| s.is_none().then_some(t))
        .collect();
    outcome.complete = outcome.missing.is_empty();

    if outcome.complete {
        cleanup_store(store, cfg, &manifest, fingerprint);
        return Ok(outcome);
    }
    if cfg.allow_partial {
        x2v_obs::counter_add(keys::fleet::PARTIAL, 1);
        x2v_obs::mark(keys::fleet::PARTIAL);
        x2v_guard::note_degraded();
        return Ok(outcome);
    }
    Err(GuardError::WorkerFailed {
        site: SITE,
        tasks: outcome.missing.clone(),
        retries: outcome.retries,
        detail: format!(
            "{} of {} tasks missing after {} worker deaths and {} stalls; \
             completed shards are durable — re-run with --resume",
            outcome.missing.len(),
            outcome.shards.len(),
            outcome.worker_deaths,
            outcome.stalls,
        ),
    })
}

/// Publishes the manifest and reconciles pre-existing protocol state:
/// matching manifest + `resume` keeps the shards; anything else clears
/// them so the run starts fresh. Leases and revocation markers are
/// transient per run either way — shards are the durable truth.
fn prepare_store(
    store: &Store,
    cfg: &FleetConfig,
    manifest: &Manifest,
    fingerprint: u32,
) -> Result<(), GuardError> {
    let mjob = protocol::manifest_job(&cfg.job);
    let payload = manifest.encode();
    let mut resumed = false;
    if cfg.resume {
        if let Some((_, existing)) = store.load_latest(&mjob, MANIFEST_KIND)? {
            resumed = existing == payload;
        }
        if resumed {
            x2v_ckpt::note_resumed();
        } else {
            x2v_ckpt::note_cold_start();
        }
    }
    if !resumed {
        for t in 0..manifest.num_tasks as usize {
            store.clear_job(&protocol::shard_job(&cfg.job, fingerprint, t))?;
        }
    }
    store.clear_named(&protocol::lease_job(&cfg.job))?;
    store.save(&mjob, MANIFEST_KIND, &payload)?;
    Ok(())
}

/// Removes a completed run's protocol state (best-effort; quarantined
/// files are kept by `clear_job`, as always).
fn cleanup_store(store: &Store, cfg: &FleetConfig, manifest: &Manifest, fingerprint: u32) {
    for t in 0..manifest.num_tasks as usize {
        let _ = store.clear_job(&protocol::shard_job(&cfg.job, fingerprint, t));
    }
    let _ = store.clear_named(&protocol::lease_job(&cfg.job));
    let _ = store.clear_job(&protocol::manifest_job(&cfg.job));
    for w in 0..cfg.workers as u64 {
        let _ = store.clear_job(&protocol::heartbeat_job(&cfg.job, w));
    }
}

fn shard_state(
    store: &Store,
    cfg: &FleetConfig,
    fingerprint: u32,
    task: usize,
) -> Result<ShardState, GuardError> {
    let job = protocol::shard_job(&cfg.job, fingerprint, task);
    if store.latest_generation(&job)?.is_none() {
        return Ok(ShardState::Missing);
    }
    match store.load_latest(&job, SHARD_KIND)? {
        Some((_, payload)) => match protocol::decode_shard(task, &payload) {
            Some(data) => Ok(ShardState::Valid(data)),
            None => Ok(ShardState::Poisoned),
        },
        // Present a moment ago, nothing loadable now: the scan quarantined
        // every generation of this shard job.
        None => Ok(ShardState::Quarantined),
    }
}

/// Revokes the current attempt of `task` (idempotent marker), counting
/// the retry. No-op when the task is already abandoned.
fn revoke_current(
    store: &Store,
    cfg: &FleetConfig,
    task: usize,
    max_attempts: u64,
    retries: &mut u64,
    why: &str,
) -> Result<(), GuardError> {
    if let Some(k) = protocol::current_attempt(store, &cfg.job, task, max_attempts) {
        store.save_named(
            &protocol::lease_job(&cfg.job),
            &protocol::revoked_name(task, k),
            MARK_KIND,
            why.as_bytes(),
        )?;
        *retries += 1;
        x2v_obs::counter_add(keys::fleet::RETRIES, 1);
        x2v_guard::note_retry();
    }
    Ok(())
}

/// The inline (single-process) executor: the reference every multi-worker
/// schedule must reproduce bit-for-bit. Tasks run in task order; the
/// `corrupt@fleet/shard` drill and the quarantine-retry loop still apply,
/// so even the degenerate fleet exercises the corruption path.
fn run_inline(
    store: &Store,
    cfg: &FleetConfig,
    workload: &dyn Workload,
    fingerprint: u32,
) -> Result<FleetOutcome, GuardError> {
    let budget = x2v_guard::ambient();
    let mut meter = budget.meter(SITE);
    let n = workload.num_tasks();
    let mut shards: Vec<Option<Vec<u8>>> = vec![None; n];
    let mut retries = 0u64;
    for (t, slot) in shards.iter_mut().enumerate() {
        meter.tick(1)?;
        let mut attempts = 0u64;
        loop {
            match shard_state(store, cfg, fingerprint, t)? {
                ShardState::Valid(data) => {
                    *slot = Some(data);
                    x2v_obs::counter_add(keys::fleet::TASKS_DONE, 1);
                    break;
                }
                ShardState::Poisoned => {
                    x2v_obs::counter_add(keys::fleet::SHARD_CORRUPT, 1);
                    break;
                }
                ShardState::Quarantined => {
                    x2v_obs::counter_add(keys::fleet::SHARD_CORRUPT, 1);
                    retries += 1;
                    x2v_obs::counter_add(keys::fleet::RETRIES, 1);
                    x2v_guard::note_retry();
                    attempts += 1;
                    if attempts > cfg.max_task_retries {
                        break;
                    }
                }
                ShardState::Missing => {
                    let data = workload.run_task(t)?;
                    protocol::publish_shard(store, &cfg.job, fingerprint, t, &data)?;
                    // Loop around: collection validates what landed on
                    // disk, so an injected corruption is caught here.
                }
            }
        }
    }
    Ok(FleetOutcome {
        shards,
        missing: Vec::new(),
        complete: false,
        worker_deaths: 0,
        respawns: 0,
        stalls: 0,
        retries,
    })
}

/// One worker slot: its subprocess, respawn budget and heartbeat watch.
struct Slot {
    worker: u64,
    child: Option<Child>,
    backoff: Backoff,
    respawn_at: Option<Instant>,
    retired: bool,
    hb_seen: Option<u64>,
    hb_changed: Instant,
}

/// Owns the live children; dropping it kills and reaps every one, so an
/// early `?` return (budget trip, storage failure) never leaks worker
/// processes.
struct Cohort {
    slots: Vec<Slot>,
}

impl Drop for Cohort {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let Some(child) = slot.child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

fn spawn_worker(
    store: &Store,
    cfg: &FleetConfig,
    worker: u64,
    max_attempts: u64,
    first_cohort: bool,
) -> Result<Child, GuardError> {
    let cmd_path = cfg
        .worker_cmd
        .as_ref()
        .expect("worker_cmd checked by run_fleet");
    let mut cmd = Command::new(cmd_path);
    cmd.arg(store.root())
        .arg(&cfg.job)
        .arg(worker.to_string())
        .arg(cfg.heartbeat_ms.to_string())
        .arg(max_attempts.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    // The supervisor's resource envelope is its own: workers must not
    // inherit the ambient budget/store/report plumbing.
    for var in ["X2V_BUDGET_MS", "X2V_OBS", "X2V_CKPT_DIR", "X2V_RESUME"] {
        cmd.env_remove(var);
    }
    if first_cohort {
        for (k, v) in &cfg.worker_env {
            cmd.env(k, v);
        }
    } else {
        // Respawns start clean: an armed one-shot fault already fired in
        // the cohort it was aimed at, and re-arming it in every respawn
        // would turn a drill into an unbounded crash loop.
        cmd.env_remove("X2V_FAULTS");
    }
    cmd.spawn().map_err(|e| {
        GuardError::storage(
            SITE,
            format!(
                "cannot spawn worker {} ({}): {e}",
                worker,
                cmd_path.display()
            ),
        )
    })
}

fn run_supervised(
    store: &Store,
    cfg: &FleetConfig,
    workload: &dyn Workload,
    fingerprint: u32,
) -> Result<FleetOutcome, GuardError> {
    let budget = x2v_guard::ambient();
    let mut meter = budget.meter(SITE);
    let n = workload.num_tasks();
    let max_attempts = cfg.max_task_retries + 1;
    let stall_timeout = Duration::from_millis(cfg.stall_timeout_ms.max(1));

    let mut status = vec![TaskStatus::Pending; n];
    let mut shards: Vec<Option<Vec<u8>>> = vec![None; n];
    let (mut deaths, mut respawns, mut stalls, mut retries) = (0u64, 0u64, 0u64, 0u64);

    let mut cohort = Cohort { slots: Vec::new() };
    for worker in 0..cfg.workers as u64 {
        cohort.slots.push(Slot {
            worker,
            child: Some(spawn_worker(store, cfg, worker, max_attempts, true)?),
            backoff: Backoff::new(cfg.backoff_seed, worker)
                .with_base_ms(cfg.backoff_base_ms)
                .with_cap_ms(cfg.backoff_cap_ms)
                .with_max_retries(cfg.respawn_cap),
            respawn_at: None,
            retired: false,
            hb_seen: None,
            hb_changed: Instant::now(),
        });
    }

    loop {
        // A tripped ambient budget (or cancel token) unwinds through here;
        // the Cohort drop kills the workers, and the shards already
        // collected stay durable for --resume.
        meter.tick(1)?;

        // 1. Collect shards; quarantined ones burn a retry.
        for t in 0..n {
            if status[t] == TaskStatus::Done {
                continue;
            }
            match shard_state(store, cfg, fingerprint, t)? {
                ShardState::Valid(data) => {
                    shards[t] = Some(data);
                    status[t] = TaskStatus::Done;
                    x2v_obs::counter_add(keys::fleet::TASKS_DONE, 1);
                }
                ShardState::Missing => {}
                ShardState::Quarantined => {
                    x2v_obs::counter_add(keys::fleet::SHARD_CORRUPT, 1);
                    x2v_obs::mark(keys::fleet::SHARD_CORRUPT);
                    revoke_current(store, cfg, t, max_attempts, &mut retries, "corrupt shard")?;
                }
                ShardState::Poisoned => {
                    x2v_obs::counter_add(keys::fleet::SHARD_CORRUPT, 1);
                    while protocol::current_attempt(store, &cfg.job, t, max_attempts).is_some() {
                        revoke_current(store, cfg, t, max_attempts, &mut retries, "poisoned")?;
                    }
                }
            }
            if status[t] == TaskStatus::Pending
                && protocol::current_attempt(store, &cfg.job, t, max_attempts).is_none()
            {
                status[t] = TaskStatus::Abandoned;
            }
        }
        if status.iter().all(|&s| s != TaskStatus::Pending) {
            break;
        }

        // 2. Reap deaths, watch heartbeats, fire due respawns.
        for slot in &mut cohort.slots {
            if let Some(child) = slot.child.as_mut() {
                let exited = child.try_wait().map_err(|e| {
                    GuardError::storage(SITE, format!("cannot reap worker {}: {e}", slot.worker))
                })?;
                if let Some(exit) = exited {
                    slot.child = None;
                    if exit.success() {
                        slot.retired = true;
                    } else {
                        deaths += 1;
                        x2v_obs::counter_add(keys::fleet::WORKER_DEATHS, 1);
                        x2v_obs::mark(keys::fleet::WORKER_DEATHS);
                        revoke_worker_leases(
                            store,
                            cfg,
                            slot.worker,
                            &status,
                            max_attempts,
                            &mut retries,
                        )?;
                        match slot.backoff.next_delay() {
                            Some(delay) => slot.respawn_at = Some(Instant::now() + delay),
                            None => slot.retired = true,
                        }
                    }
                } else {
                    let hb =
                        store.latest_generation(&protocol::heartbeat_job(&cfg.job, slot.worker))?;
                    if hb != slot.hb_seen {
                        slot.hb_seen = hb;
                        slot.hb_changed = Instant::now();
                    } else if slot.hb_changed.elapsed() >= stall_timeout {
                        stalls += 1;
                        x2v_obs::counter_add(keys::fleet::STALLS, 1);
                        x2v_obs::mark(keys::fleet::STALLS);
                        let _ = child.kill();
                        // The reap branch handles the death next poll.
                        slot.hb_changed = Instant::now();
                    }
                }
            } else if slot.respawn_at.is_some_and(|at| Instant::now() >= at) {
                slot.respawn_at = None;
                slot.child = Some(spawn_worker(store, cfg, slot.worker, max_attempts, false)?);
                slot.hb_seen =
                    store.latest_generation(&protocol::heartbeat_job(&cfg.job, slot.worker))?;
                slot.hb_changed = Instant::now();
                respawns += 1;
                x2v_obs::counter_add(keys::fleet::RESPAWNS, 1);
                x2v_obs::mark(keys::fleet::RESPAWNS);
            }
        }

        // 3. Nobody left to make progress. Workers exit cleanly when every
        // task looks settled *to them* — but a corrupt-shard revocation can
        // land after a worker's last sweep, leaving claimable work with no
        // one alive. Recall one retired worker for it, on the same respawn
        // budget; only when that budget is spent does the remainder get
        // abandoned instead of waiting forever.
        let alive = cohort
            .slots
            .iter()
            .any(|s| s.child.is_some() || s.respawn_at.is_some());
        if !alive {
            let mut recalled = false;
            if status.contains(&TaskStatus::Pending) {
                for slot in cohort.slots.iter_mut().filter(|s| s.retired) {
                    if let Some(delay) = slot.backoff.next_delay() {
                        slot.retired = false;
                        slot.respawn_at = Some(Instant::now() + delay);
                        recalled = true;
                        break; // one worker covers a handful of revoked tasks
                    }
                }
            }
            if !recalled {
                for s in status.iter_mut().filter(|s| **s == TaskStatus::Pending) {
                    *s = TaskStatus::Abandoned;
                }
                break;
            }
        }

        std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(1)));
    }
    drop(cohort);

    // Final sweep: a worker may have published its last shard between the
    // supervisor's last collection and its exit.
    for (t, slot) in shards.iter_mut().enumerate() {
        if status[t] != TaskStatus::Done {
            if let ShardState::Valid(data) = shard_state(store, cfg, fingerprint, t)? {
                *slot = Some(data);
                status[t] = TaskStatus::Done;
                x2v_obs::counter_add(keys::fleet::TASKS_DONE, 1);
            }
        }
    }

    Ok(FleetOutcome {
        shards,
        missing: Vec::new(),
        complete: false,
        worker_deaths: deaths,
        respawns,
        stalls,
        retries,
    })
}

/// Revokes every pending-task lease owned by dead worker `worker`. A
/// claim that exists but does not decode was torn mid-write; revoking it
/// is always safe, because shard bytes never depend on who computes them
/// — a revoked-but-actually-live owner republishing is byte-identical
/// duplication, not divergence.
fn revoke_worker_leases(
    store: &Store,
    cfg: &FleetConfig,
    worker: u64,
    status: &[TaskStatus],
    max_attempts: u64,
    retries: &mut u64,
) -> Result<(), GuardError> {
    let lease = protocol::lease_job(&cfg.job);
    for (t, _) in status
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == TaskStatus::Pending)
    {
        let Some(k) = protocol::current_attempt(store, &cfg.job, t, max_attempts) else {
            continue;
        };
        let claim = protocol::claim_name(t, k);
        if !store.named_exists(&lease, &claim) {
            continue;
        }
        let owner = store
            .load_named(&lease, &claim, LEASE_KIND)?
            .and_then(|p| Lease::decode(&p));
        let dead = match owner {
            Some(lease) => lease.worker == worker,
            None => true, // torn claim: its writer died mid-claim
        };
        if dead {
            revoke_current(store, cfg, t, max_attempts, retries, "owner died")?;
        }
    }
    Ok(())
}
