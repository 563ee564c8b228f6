//! Deterministic fault injection for testing degradation paths.
//!
//! Faults are armed either programmatically ([`inject`]) or through the
//! `X2V_FAULTS` environment variable (read once, like `X2V_OBS`), and fire
//! at a *chosen call count* of a guarded site — so the budget-exhaustion,
//! cancellation and NaN-poisoning recovery paths can be exercised
//! deterministically, without oversized inputs or real timeouts.
//!
//! ## `X2V_FAULTS` grammar
//!
//! Comma-separated `kind@site[:at]` clauses, `at` defaulting to 1:
//!
//! ```text
//! X2V_FAULTS=budget@hom/brute:2,cancel@wl/kwl,nan@kernel/gram:3
//! ```
//!
//! * `budget@site:N` — the N-th guarded operation at `site` observes
//!   [`GuardError::BudgetExhausted`](crate::GuardError::BudgetExhausted)
//!   on its first budget check;
//! * `cancel@site:N` — likewise, but
//!   [`GuardError::Cancelled`](crate::GuardError::Cancelled);
//! * `nan@site:N` — the N-th value passed through [`poison_f64`] at `site`
//!   is replaced by NaN.
//! * `panic@site:N` — the N-th query of [`panic_fault`] at `site` answers
//!   `true`, telling the caller (the `x2v-par` worker loop at
//!   `"par/worker"`) to panic deliberately — exercising the pool's
//!   panic-containment path, which must surface
//!   [`GuardError::WorkerPanic`](crate::GuardError::WorkerPanic) without
//!   poisoning any global state.
//!
//! Store-level fault kinds target durable-artifact writers (queried via
//! [`store_fault`], honoured by `x2v-ckpt`'s tagged atomic writer):
//!
//! * `torn@site:N` — the N-th write at `site` persists only a prefix of
//!   its bytes, simulating a crash mid-write of a non-atomic writer;
//! * `bitflip@site:N` — one bit of the N-th write's payload is flipped
//!   after any checksum was computed, simulating silent media corruption;
//! * `enospc@site:N` — the N-th write at `site` fails with an I/O error
//!   before anything reaches the destination, simulating a full disk.
//!
//! Socket-level fault kinds target network-facing request paths (queried
//! via [`socket_fault`], honoured by the `x2v-serve` daemon):
//!
//! * `conndrop@site:N` — the N-th query at `site` tells the caller to drop
//!   the connection on the floor, simulating a client (or middlebox)
//!   vanishing mid-request;
//! * `slowread@site:N` — the N-th query tells the caller to behave as a
//!   slow-loris peer: stall until the socket read deadline expires;
//! * `corrupt@site:N` — the N-th query tells the caller to corrupt the
//!   bytes it just read (one bit flipped) before validating them,
//!   simulating a torn or bit-rotted artifact arriving over the wire or
//!   from disk.
//!
//! Process-level fault kinds target fleet worker subprocesses (queried via
//! [`proc_fault`], honoured by the `x2v-fleet` worker loop):
//!
//! * `kill9@site:N` — the N-th query at `site` (the worker's
//!   `"fleet/worker"` task loop) tells the worker to die instantly and
//!   unceremoniously (`abort`, no unwinding, no cleanup), simulating
//!   `SIGKILL` / OOM-kill mid-task;
//! * `stall@site:N` — the N-th query at `site` (the worker's
//!   `"fleet/heartbeat"` beat loop) tells the worker to stop heartbeating
//!   and hang forever, simulating a livelocked or wedged process that the
//!   supervisor must detect by heartbeat timeout and kill.
//!
//! Every fired fault increments the `guard/faults_injected` obs counter.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// The kind of control-flow fault a [`Meter`](crate::Meter) can be forced
/// to report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Force `BudgetExhausted`.
    Budget,
    /// Force `Cancelled`.
    Cancel,
}

/// The kind of durable-store fault a tagged artifact write can be forced
/// to exhibit (see [`store_fault`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreFaultKind {
    /// Persist only a prefix of the bytes (a torn write).
    Torn,
    /// Flip one payload bit after checksumming (silent corruption).
    Bitflip,
    /// Fail the write before touching the destination (disk full).
    Enospc,
}

/// The kind of socket-layer fault a network request path can be forced to
/// exhibit (see [`socket_fault`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketFaultKind {
    /// Drop the connection without a response (a vanished peer).
    ConnDrop,
    /// Stall like a slow-loris peer until the read deadline expires.
    SlowRead,
    /// Flip one bit of the bytes just read, before validation.
    Corrupt,
}

/// The kind of process-level fault a fleet worker subprocess can be forced
/// to exhibit (see [`proc_fault`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcFaultKind {
    /// Die instantly with no unwinding or cleanup (simulated SIGKILL).
    Kill9,
    /// Stop heartbeating and hang forever (a wedged process).
    Stall,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Flow(FaultKind),
    Nan,
    Panic,
    Store(StoreFaultKind),
    Socket(SocketFaultKind),
    Proc(ProcFaultKind),
}

/// One armed fault: fire `kind` on the `at`-th call at `site`.
#[derive(Debug)]
struct Slot {
    kind: Kind,
    site: String,
    at: u64,
    calls: u64,
    fired: bool,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static SLOTS: Mutex<Vec<Slot>> = Mutex::new(Vec::new());
static ENV_PARSED: OnceLock<()> = OnceLock::new();

fn ensure_env_parsed() {
    ENV_PARSED.get_or_init(|| {
        if let Ok(spec) = std::env::var("X2V_FAULTS") {
            for clause in spec.split(',') {
                let clause = clause.trim();
                if clause.is_empty() {
                    continue;
                }
                if let Some((kind, rest)) = clause.split_once('@') {
                    let (site, at) = match rest.rsplit_once(':') {
                        Some((s, n)) => match n.parse::<u64>() {
                            Ok(at) => (s, at),
                            Err(_) => (rest, 1),
                        },
                        None => (rest, 1),
                    };
                    let kind = match kind.trim() {
                        "budget" => Kind::Flow(FaultKind::Budget),
                        "cancel" => Kind::Flow(FaultKind::Cancel),
                        "nan" => Kind::Nan,
                        "panic" => Kind::Panic,
                        "torn" => Kind::Store(StoreFaultKind::Torn),
                        "bitflip" => Kind::Store(StoreFaultKind::Bitflip),
                        "enospc" => Kind::Store(StoreFaultKind::Enospc),
                        "conndrop" => Kind::Socket(SocketFaultKind::ConnDrop),
                        "slowread" => Kind::Socket(SocketFaultKind::SlowRead),
                        "corrupt" => Kind::Socket(SocketFaultKind::Corrupt),
                        "kill9" => Kind::Proc(ProcFaultKind::Kill9),
                        "stall" => Kind::Proc(ProcFaultKind::Stall),
                        other => {
                            eprintln!("[x2v-guard] ignoring unknown fault kind {other:?}");
                            continue;
                        }
                    };
                    arm(kind, site.trim(), at.max(1));
                } else {
                    eprintln!("[x2v-guard] ignoring malformed X2V_FAULTS clause {clause:?}");
                }
            }
        }
    });
}

fn arm(kind: Kind, site: &str, at: u64) {
    let mut slots = SLOTS.lock().expect("fault slots lock");
    slots.push(Slot {
        kind,
        site: site.to_string(),
        at,
        calls: 0,
        fired: false,
    });
    ACTIVE.store(true, Ordering::Release);
}

/// Programmatically arms a control-flow fault: the `at`-th guarded
/// operation at `site` (1-based) reports `kind`.
pub fn inject(kind: FaultKind, site: &str, at: u64) {
    ensure_env_parsed();
    arm(Kind::Flow(kind), site, at.max(1));
}

/// Programmatically arms NaN poisoning: the `at`-th value passed through
/// [`poison_f64`] at `site` (1-based) becomes NaN.
pub fn inject_nan(site: &str, at: u64) {
    ensure_env_parsed();
    arm(Kind::Nan, site, at.max(1));
}

/// Programmatically arms a store fault: the `at`-th tagged artifact write
/// at `site` (1-based) exhibits `kind`.
pub fn inject_store(kind: StoreFaultKind, site: &str, at: u64) {
    ensure_env_parsed();
    arm(Kind::Store(kind), site, at.max(1));
}

/// Programmatically arms a worker-panic fault: the `at`-th query of
/// [`panic_fault`] at `site` (1-based) answers `true`.
pub fn inject_panic(site: &str, at: u64) {
    ensure_env_parsed();
    arm(Kind::Panic, site, at.max(1));
}

/// Programmatically arms a socket fault: the `at`-th query of
/// [`socket_fault`] at `site` (1-based) answers `kind`.
pub fn inject_socket(kind: SocketFaultKind, site: &str, at: u64) {
    ensure_env_parsed();
    arm(Kind::Socket(kind), site, at.max(1));
}

/// Disarms every pending fault (armed by env or programmatically).
pub fn clear() {
    ensure_env_parsed();
    SLOTS.lock().expect("fault slots lock").clear();
    ACTIVE.store(false, Ordering::Release);
}

/// Whether any fault is currently armed. One relaxed atomic load when
/// nothing is armed.
pub fn any_armed() -> bool {
    ensure_env_parsed();
    ACTIVE.load(Ordering::Acquire)
}

/// Called by [`Budget::meter`](crate::Budget::meter): counts this guarded
/// operation against armed control-flow faults at `site` and returns the
/// fault the new meter must report, if any fires.
pub(crate) fn armed(site: &str) -> Option<FaultKind> {
    if !any_armed() {
        return None;
    }
    let mut slots = SLOTS.lock().expect("fault slots lock");
    for slot in slots.iter_mut() {
        if slot.fired || slot.site != site {
            continue;
        }
        if let Kind::Flow(kind) = slot.kind {
            slot.calls += 1;
            if slot.calls == slot.at {
                slot.fired = true;
                return Some(kind);
            }
        }
    }
    None
}

/// Called by a tagged artifact writer before persisting bytes at `site`:
/// counts this write against armed store faults and returns the fault it
/// must exhibit, if one fires. One relaxed atomic load when nothing is
/// armed. Firing increments `guard/faults_injected` and emits the
/// `guard/fault_injected` trace instant, like every other fault kind.
pub fn store_fault(site: &str) -> Option<StoreFaultKind> {
    if !any_armed() {
        return None;
    }
    let mut slots = SLOTS.lock().expect("fault slots lock");
    for slot in slots.iter_mut() {
        if slot.fired || slot.site != site {
            continue;
        }
        if let Kind::Store(kind) = slot.kind {
            slot.calls += 1;
            if slot.calls == slot.at {
                slot.fired = true;
                x2v_obs::counter_add("guard/faults_injected", 1);
                x2v_obs::mark("guard/fault_injected");
                return Some(kind);
            }
        }
    }
    None
}

/// Queried by a network request path at `site` (e.g. `"serve/read"` before
/// reading a request, `"serve/frame"` before validating loaded artifact
/// bytes): counts this query against armed socket faults and returns the
/// fault the caller must exhibit, if one fires. One relaxed atomic load
/// when nothing is armed. Firing increments `guard/faults_injected` and
/// emits the `guard/fault_injected` trace instant.
pub fn socket_fault(site: &str) -> Option<SocketFaultKind> {
    if !any_armed() {
        return None;
    }
    let mut slots = SLOTS.lock().expect("fault slots lock");
    for slot in slots.iter_mut() {
        if slot.fired || slot.site != site {
            continue;
        }
        if let Kind::Socket(kind) = slot.kind {
            slot.calls += 1;
            if slot.calls == slot.at {
                slot.fired = true;
                x2v_obs::counter_add("guard/faults_injected", 1);
                x2v_obs::mark("guard/fault_injected");
                return Some(kind);
            }
        }
    }
    None
}

/// Queried by a fleet worker subprocess at `site` (`"fleet/worker"` before
/// starting a task, `"fleet/heartbeat"` before emitting a beat): counts
/// this query against armed process faults and returns the fault the
/// worker must exhibit, if one fires — `Kill9` means abort on the spot,
/// `Stall` means stop heartbeating and hang. One relaxed atomic load when
/// nothing is armed. Firing increments `guard/faults_injected` and emits
/// the `guard/fault_injected` trace instant.
pub fn proc_fault(site: &str) -> Option<ProcFaultKind> {
    if !any_armed() {
        return None;
    }
    let mut slots = SLOTS.lock().expect("fault slots lock");
    for slot in slots.iter_mut() {
        if slot.fired || slot.site != site {
            continue;
        }
        if let Kind::Proc(kind) = slot.kind {
            slot.calls += 1;
            if slot.calls == slot.at {
                slot.fired = true;
                x2v_obs::counter_add("guard/faults_injected", 1);
                x2v_obs::mark("guard/fault_injected");
                return Some(kind);
            }
        }
    }
    None
}

/// Queried by a parallel worker before executing a chunk at `site`:
/// counts this chunk against armed `panic` faults and returns `true` when
/// one fires — the caller is then expected to panic deliberately, which
/// the pool must contain and surface as a typed
/// [`GuardError::WorkerPanic`](crate::GuardError::WorkerPanic). One
/// relaxed atomic load when nothing is armed.
pub fn panic_fault(site: &str) -> bool {
    if !any_armed() {
        return false;
    }
    let mut slots = SLOTS.lock().expect("fault slots lock");
    for slot in slots.iter_mut() {
        if slot.fired || slot.site != site || slot.kind != Kind::Panic {
            continue;
        }
        slot.calls += 1;
        if slot.calls == slot.at {
            slot.fired = true;
            x2v_obs::counter_add("guard/faults_injected", 1);
            x2v_obs::mark("guard/fault_injected");
            return true;
        }
    }
    false
}

/// Passes `value` through the NaN-poisoning point at `site`: returns NaN
/// when an armed `nan` fault fires, `value` otherwise. Numeric hot paths
/// route their most failure-prone quantity (a normalisation denominator, the
/// SVM's working-set step length) through this so `NumericFailure` recovery is testable.
#[inline]
pub fn poison_f64(site: &str, value: f64) -> f64 {
    if !any_armed() {
        return value;
    }
    let mut slots = SLOTS.lock().expect("fault slots lock");
    for slot in slots.iter_mut() {
        if slot.fired || slot.site != site || slot.kind != Kind::Nan {
            continue;
        }
        slot.calls += 1;
        if slot.calls == slot.at {
            slot.fired = true;
            x2v_obs::counter_add("guard/faults_injected", 1);
            x2v_obs::mark("guard/fault_injected");
            return f64::NAN;
        }
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fault state is process-global; exercise it from a single #[test] so
    // parallel test threads cannot interleave arm/clear.
    #[test]
    fn arm_fire_clear_cycle() {
        clear();
        assert!(!any_armed());

        inject(FaultKind::Budget, "test/site", 2);
        assert!(any_armed());
        assert_eq!(armed("other/site"), None);
        assert_eq!(armed("test/site"), None); // call 1: not yet
        assert_eq!(armed("test/site"), Some(FaultKind::Budget)); // call 2
        assert_eq!(armed("test/site"), None); // fired, stays off

        inject_nan("test/nan", 2);
        assert_eq!(poison_f64("test/nan", 1.5), 1.5);
        assert!(poison_f64("test/nan", 1.5).is_nan());
        assert_eq!(poison_f64("test/nan", 1.5), 1.5);

        inject_panic("test/panic", 2);
        assert!(!panic_fault("other/panic"));
        assert!(!panic_fault("test/panic")); // query 1: not yet
        assert!(panic_fault("test/panic")); // query 2
        assert!(!panic_fault("test/panic")); // fired, stays off

        inject_store(StoreFaultKind::Torn, "test/store", 2);
        assert_eq!(store_fault("other/store"), None);
        assert_eq!(store_fault("test/store"), None); // write 1: not yet
        assert_eq!(store_fault("test/store"), Some(StoreFaultKind::Torn));
        assert_eq!(store_fault("test/store"), None); // fired, stays off

        inject_socket(SocketFaultKind::ConnDrop, "test/socket", 2);
        assert_eq!(socket_fault("other/socket"), None);
        assert_eq!(socket_fault("test/socket"), None); // query 1: not yet
        assert_eq!(socket_fault("test/socket"), Some(SocketFaultKind::ConnDrop));
        assert_eq!(socket_fault("test/socket"), None); // fired, stays off

        clear();
        assert!(!any_armed());
    }
}
