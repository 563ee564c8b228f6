//! The serving daemon: bounded accept queue, worker pool, per-request
//! deadlines, a hot-reload thread that degrades gracefully, and a live
//! telemetry plane (request ids, windowed metrics, `/metrics` + `/stats`,
//! periodic obs-snapshot flushing).
//!
//! ## Failure containment map
//!
//! | Threat | Defence | Signal |
//! |---|---|---|
//! | burst of connections | bounded queue, shed with retryable 429 | `serve/shed` |
//! | slow/stalled client | socket read timeout → typed 408 | `serve/errors` |
//! | oversized request | hard head/body byte bounds → 413 | `serve/errors` |
//! | expensive query | per-request deadline, metered scan → 504 | `serve/deadline_trips` |
//! | corrupt new artifact | reload rejected, last good snapshot keeps serving | `serve/stale_serves`, `serve/reload_rejected` |
//! | vanished peer | write error swallowed, worker moves on | `serve/conn_dropped` |
//!
//! Every thread is joined on [`Server::shutdown`]; no request path panics
//! on untrusted bytes (`tests/serve_faults.rs` proves each row above).
//!
//! ## Telemetry plane
//!
//! Each accepted connection gets a monotonically increasing **request id**
//! (starting at [`Config::request_id_base`], which tests pin for
//! determinism). Every response the daemon cannot answer normally —
//! including sheds written straight from the accept thread — emits one
//! structured [`AccessRecord`] line to stderr carrying that id, so any
//! 4xx/5xx is attributable after the fact. Request counters and the
//! latency/queue-depth histograms are recorded **windowed**
//! ([`x2v_obs::windowed_counter_add`] / [`x2v_obs::windowed_observe`]):
//! they land in the lifetime registry *and* the last-N-seconds ring, and
//! `GET /metrics` / `GET /stats` expose both views live. When obs
//! collection is on, a flusher thread additionally writes the full obs
//! report atomically every [`Config::flush_secs`] (env [`FLUSH_ENV`]), so
//! even a SIGKILL'd daemon leaves a parseable telemetry snapshot behind.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use x2v_ckpt::Store;
use x2v_guard::faults::{self, SocketFaultKind};
use x2v_guard::{Budget, GuardError};
use x2v_obs::keys;

use crate::access::AccessRecord;
use crate::error::ServeError;
use crate::http::{self, Request, CONTENT_TYPE_JSON, CONTENT_TYPE_PROM};
use crate::index::{EmbeddingSet, ARTIFACT_KIND};
use crate::metrics::{self, Endpoint, StatsContext};

/// Fault site for worker-side socket reads (`conndrop@serve/read`,
/// `slowread@serve/read`).
pub const READ_SITE: &str = "serve/read";
/// Fault site for artifact frames on (re)load (`corrupt@serve/frame`).
pub const FRAME_SITE: &str = "serve/frame";
/// Fault site for the periodic obs-snapshot write
/// (`enospc@serve/snapshot`, `torn@serve/snapshot`, …).
pub const SNAPSHOT_SITE: &str = "serve/snapshot";

/// Environment variable overriding the default per-request deadline.
pub const DEADLINE_ENV: &str = "X2V_SERVE_DEADLINE_MS";
/// Environment variable overriding the obs-snapshot flush period in
/// seconds (`0` disables the flusher).
pub const FLUSH_ENV: &str = "X2V_OBS_FLUSH_S";

/// Tunables for one [`Server`]. `Default` is production-shaped; tests dial
/// the bounds down to force each degradation path deterministically.
#[derive(Clone, Debug)]
pub struct Config {
    /// Bind address; port 0 picks a free port (read it back via
    /// [`Server::addr`]).
    pub addr: String,
    /// Worker threads handling accepted connections.
    pub workers: usize,
    /// Bounded accept-queue depth; connections beyond it are shed.
    pub queue_depth: usize,
    /// Default per-request deadline when the client sends none.
    pub default_deadline_ms: u64,
    /// Hard server-side cap on client-requested `deadline_ms`.
    pub max_deadline_ms: u64,
    /// Maximum request-head bytes read before responding 413.
    pub max_head_bytes: usize,
    /// Socket read/write timeout (the slow-loris bound).
    pub io_timeout_ms: u64,
    /// How often the reload thread polls the store for a new generation.
    pub reload_poll_ms: u64,
    /// The store job name the served artifact lives under.
    pub job: String,
    /// Hard cap on the `k` of `/similar` queries.
    pub max_k: usize,
    /// Requests slower than this (accept to response, milliseconds) count
    /// into `serve/slow_requests` and fire a `serve/slow_request` instant
    /// into the trace ring.
    pub slow_request_ms: u64,
    /// Obs-snapshot flush period in seconds; `0` disables the flusher.
    /// The thread is only spawned when obs collection is enabled.
    pub flush_secs: u64,
    /// Run name the flusher writes snapshots under
    /// (`target/obs/<run>.json`).
    pub snapshot_run: String,
    /// Whether failing responses emit access-log lines to stderr.
    pub access_log: bool,
    /// First request id to hand out. Production leaves this at 0; tests
    /// pin it so ids in captured access logs are deterministic.
    pub request_id_base: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            default_deadline_ms: 250,
            max_deadline_ms: 5_000,
            max_head_bytes: 8 * 1024,
            io_timeout_ms: 2_000,
            reload_poll_ms: 200,
            job: "serve".to_string(),
            max_k: 100,
            slow_request_ms: 100,
            flush_secs: 10,
            snapshot_run: "serve-live".to_string(),
            access_log: true,
            request_id_base: 0,
        }
    }
}

impl Config {
    /// `Default`, then applies the [`DEADLINE_ENV`] and [`FLUSH_ENV`]
    /// overrides if set to parseable millisecond/second counts
    /// (the deadline must be non-zero; a zero flush period disables the
    /// flusher).
    pub fn from_env() -> Self {
        let mut config = Config::default();
        if let Some(ms) = std::env::var(DEADLINE_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&ms| ms > 0)
        {
            config.default_deadline_ms = ms;
        }
        if let Some(secs) = std::env::var(FLUSH_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            config.flush_secs = secs;
        }
        config
    }
}

/// One accepted connection travelling through the queue: the stream plus
/// its request id and accept timestamp (deadlines and latency are anchored
/// at accept, so queue wait counts).
struct Conn {
    stream: TcpStream,
    id: u64,
    accepted: Instant,
}

/// One immutable generation of servable state. Swapped atomically under
/// the snapshot mutex; `stale` flips to true (without a swap) when a newer
/// on-disk generation exists but failed validation.
struct Snapshot {
    set: EmbeddingSet,
    generation: u64,
    stale: AtomicBool,
}

/// State shared by the accept, worker, reload, and flusher threads.
struct Shared {
    config: Config,
    store: Store,
    snapshot: Mutex<Option<Arc<Snapshot>>>,
    stop: AtomicBool,
    /// Next request id to assign (monotonic from
    /// [`Config::request_id_base`]).
    next_id: AtomicU64,
    /// Connections currently sitting in the accept queue.
    queue_len: AtomicUsize,
    /// Server start time, exposed as `uptime_s` on `/stats`.
    started: Instant,
}

impl Shared {
    fn current(&self) -> Option<Arc<Snapshot>> {
        self.snapshot.lock().expect("snapshot lock").clone()
    }

    /// Polls the store once and applies whatever it finds. Called at
    /// startup and from the reload loop; returns whether a swap happened.
    fn reload_once(&self) -> bool {
        // Watch BEFORE loading: load_latest quarantines corrupt frames,
        // which retroactively changes what "latest generation" means. The
        // pre-load watch is the honest view of what the trainer published.
        let watched = self
            .store
            .latest_generation(&self.config.job)
            .unwrap_or_default();
        let current_gen = self.current().map(|s| s.generation);
        if watched.is_none() || watched == current_gen {
            return false; // nothing new on disk
        }
        match self.try_load() {
            Ok(Some((generation, set))) if Some(generation) != current_gen => {
                // Loading an *older* generation than the watch saw means the
                // newest frame failed validation and was quarantined: the
                // snapshot serves, but flagged stale.
                let stale = Some(generation) != watched;
                let swapped = Arc::new(Snapshot {
                    set,
                    generation,
                    stale: AtomicBool::new(stale),
                });
                *self.snapshot.lock().expect("snapshot lock") = Some(swapped);
                x2v_obs::windowed_counter_add(keys::SERVE_RELOADS, 1);
                if stale {
                    x2v_obs::windowed_counter_add(keys::SERVE_RELOAD_REJECTED, 1);
                }
                true
            }
            Ok(_) | Err(_) => {
                // The published generation is unreadable, corrupt, or
                // degrades to the generation already being served: keep the
                // last good snapshot and flag it stale.
                x2v_obs::windowed_counter_add(keys::SERVE_RELOAD_REJECTED, 1);
                if let Some(snap) = self.current() {
                    snap.stale.store(true, Ordering::Relaxed);
                }
                false
            }
        }
    }

    /// Loads and validates the newest loadable generation, honouring the
    /// `corrupt@serve/frame` injection point.
    fn try_load(&self) -> Result<Option<(u64, EmbeddingSet)>, GuardError> {
        let Some((generation, mut payload)) =
            self.store.load_latest(&self.config.job, ARTIFACT_KIND)?
        else {
            return Ok(None);
        };
        if let Some(SocketFaultKind::Corrupt) = faults::socket_fault(FRAME_SITE) {
            if let Some(byte) = payload.first_mut() {
                *byte ^= 0xFF;
            }
        }
        let set = EmbeddingSet::decode(&payload)?;
        Ok(Some((generation, set)))
    }
}

/// A running daemon. Dropping it without [`shutdown`](Server::shutdown)
/// leaks the threads until process exit; call `shutdown` for a clean join.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    reloader: Option<JoinHandle<()>>,
    flusher: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, performs the initial artifact load (a missing or corrupt
    /// artifact is NOT fatal — the server starts not-ready and the reload
    /// loop keeps trying), and spawns the thread pool.
    pub fn start(config: Config, store: Store) -> Result<Server, GuardError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| GuardError::storage(READ_SITE, format!("bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| GuardError::storage(READ_SITE, format!("local_addr: {e}")))?;
        let next_id = AtomicU64::new(config.request_id_base);
        let shared = Arc::new(Shared {
            config,
            store,
            snapshot: Mutex::new(None),
            stop: AtomicBool::new(false),
            next_id,
            queue_len: AtomicUsize::new(0),
            started: Instant::now(),
        });
        shared.reload_once();

        let (tx, rx) = mpsc::sync_channel::<Conn>(shared.config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&rx, &shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &tx, &shared))
        };
        let reloader = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || reload_loop(&shared))
        };
        // The flusher is only worth a thread when there are metrics to
        // flush and a non-zero period to flush them at.
        let flusher = (shared.config.flush_secs > 0 && x2v_obs::enabled()).then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || flusher_loop(&shared))
        });
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
            reloader: Some(reloader),
            flusher,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains in-flight work, and joins every thread.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection; it checks
        // the stop flag before forwarding anything.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.reloader.take() {
            let _ = h.join();
        }
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, tx: &SyncSender<Conn>, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break; // the wake-up connection (or a straggler) is dropped
        }
        let Ok(stream) = stream else { continue };
        let conn = Conn {
            stream,
            id: shared.next_id.fetch_add(1, Ordering::Relaxed),
            accepted: Instant::now(),
        };
        let depth = shared.queue_len.load(Ordering::Relaxed);
        x2v_obs::windowed_observe(keys::SERVE_QUEUE_DEPTH, depth as f64);
        match tx.try_send(conn) {
            Ok(()) => {
                shared.queue_len.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(conn)) | Err(TrySendError::Disconnected(conn)) => {
                shed(conn, shared);
            }
        }
    }
    // tx drops here; workers drain the queue and exit.
}

/// The load-shedding path: a fast, bounded-time 429 written straight from
/// the accept thread so a full queue costs microseconds, not a worker.
/// Shed connections still get a request id and an access-log line — a
/// 429 a client reports must be findable in the server's log.
fn shed(conn: Conn, shared: &Shared) {
    x2v_obs::windowed_counter_add(keys::SERVE_SHED, 1);
    x2v_obs::mark("serve/shed");
    let Conn {
        mut stream,
        id,
        accepted,
    } = conn;
    let timeout = Duration::from_millis(shared.config.io_timeout_ms.clamp(1, 100));
    let _ = stream.set_write_timeout(Some(timeout));
    let err = ServeError::Overloaded;
    let _ = http::write_error_with_id(&mut stream, &err, id);
    if shared.config.access_log {
        AccessRecord {
            id,
            endpoint: None,
            status: err.status(),
            latency_ms: accepted.elapsed().as_secs_f64() * 1e3,
            deadline_remaining_ms: None,
            err: Some(&err.to_string()),
        }
        .emit();
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Conn>>>, shared: &Shared) {
    loop {
        let next = rx.lock().expect("worker queue lock").recv();
        match next {
            Ok(conn) => {
                shared.queue_len.fetch_sub(1, Ordering::Relaxed);
                handle_connection(conn, shared);
            }
            Err(_) => return, // accept loop gone, queue drained
        }
    }
}

fn handle_connection(conn: Conn, shared: &Shared) {
    let Conn {
        mut stream,
        id,
        accepted,
    } = conn;
    // Injected socket faults fire before any real I/O, so the drills are
    // deterministic regardless of what bytes the peer actually sent.
    match faults::socket_fault(READ_SITE) {
        Some(SocketFaultKind::ConnDrop) => {
            x2v_obs::windowed_counter_add(keys::SERVE_CONN_DROPPED, 1);
            return; // dropping the stream resets the connection
        }
        Some(SocketFaultKind::SlowRead) => {
            // The peer stalls: burn the read window, then answer exactly
            // like a real timeout would.
            std::thread::sleep(Duration::from_millis(shared.config.io_timeout_ms.min(200)));
            respond_error(
                &mut stream,
                &ServeError::SlowClient,
                shared,
                id,
                None,
                accepted,
            );
            observe_request_end(shared, accepted);
            return;
        }
        _ => {}
    }
    let io_timeout = Duration::from_millis(shared.config.io_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));

    match http::read_request(&mut stream, shared.config.max_head_bytes) {
        Ok(request) => {
            let endpoint = Endpoint::from_path(&request.path);
            x2v_obs::windowed_counter_add(endpoint.req_key(), 1);
            match route(&request, shared, accepted) {
                Ok((body, content_type)) => {
                    x2v_obs::windowed_counter_add(keys::SERVE_REQUESTS, 1);
                    if let Err(e) = http::write_response(
                        &mut stream,
                        200,
                        "OK",
                        false,
                        content_type,
                        body.as_bytes(),
                    ) {
                        let _ = e;
                        x2v_obs::windowed_counter_add(keys::SERVE_CONN_DROPPED, 1);
                    }
                    // Successful responses are normally silent, but a 200
                    // that blew the slow-request threshold is a latency
                    // incident — it gets the same attributable log line an
                    // error would, just with no `err` token.
                    let latency_ms = accepted.elapsed().as_secs_f64() * 1e3;
                    if shared.config.access_log && latency_ms > shared.config.slow_request_ms as f64
                    {
                        AccessRecord {
                            id,
                            endpoint: Some(&request.path),
                            status: 200,
                            latency_ms,
                            deadline_remaining_ms: None,
                            err: None,
                        }
                        .emit();
                    }
                }
                Err(err) => {
                    x2v_obs::windowed_counter_add(keys::SERVE_REQUESTS, 1);
                    x2v_obs::windowed_counter_add(endpoint.err_key(), 1);
                    respond_error(&mut stream, &err, shared, id, Some(&request.path), accepted);
                }
            }
        }
        Err(err) => {
            // The request never parsed; it still counts (and errs) under
            // the `other` endpoint class so parse-reject storms show up in
            // the windowed rates.
            x2v_obs::windowed_counter_add(Endpoint::Other.req_key(), 1);
            x2v_obs::windowed_counter_add(Endpoint::Other.err_key(), 1);
            respond_error(&mut stream, &err, shared, id, None, accepted);
        }
    }
    observe_request_end(shared, accepted);
}

/// Records the end-of-request telemetry: windowed latency, and the
/// slow-request counter + trace instant when the threshold is crossed.
fn observe_request_end(shared: &Shared, accepted: Instant) {
    let latency_ms = accepted.elapsed().as_secs_f64() * 1e3;
    x2v_obs::windowed_observe(keys::SERVE_LATENCY_MS, latency_ms);
    if latency_ms > shared.config.slow_request_ms as f64 {
        x2v_obs::windowed_counter_add(keys::SERVE_SLOW, 1);
        // The instant lands in the per-thread trace ring next to this
        // request's spans, flagging the slice worth flushing/inspecting.
        x2v_obs::mark("serve/slow_request");
    }
}

fn respond_error(
    stream: &mut TcpStream,
    err: &ServeError,
    shared: &Shared,
    id: u64,
    endpoint: Option<&str>,
    accepted: Instant,
) {
    x2v_obs::windowed_counter_add(keys::SERVE_ERRORS, 1);
    let deadline_remaining_ms = if matches!(err, ServeError::DeadlineExceeded { .. }) {
        x2v_obs::windowed_counter_add(keys::SERVE_DEADLINE_TRIPS, 1);
        x2v_obs::mark("serve/deadline_trip");
        Some(0) // by definition: the deadline is what tripped
    } else {
        None
    };
    let timeout = Duration::from_millis(shared.config.io_timeout_ms.clamp(1, 500));
    let _ = stream.set_write_timeout(Some(timeout));
    if http::write_error_with_id(stream, err, id).is_err() {
        x2v_obs::windowed_counter_add(keys::SERVE_CONN_DROPPED, 1);
    }
    if shared.config.access_log {
        AccessRecord {
            id,
            endpoint,
            status: err.status(),
            latency_ms: accepted.elapsed().as_secs_f64() * 1e3,
            deadline_remaining_ms,
            err: Some(&err.to_string()),
        }
        .emit();
    }
}

/// Routes a parsed request to a `(body, content type)` pair, or a typed
/// error.
fn route(
    request: &Request,
    shared: &Shared,
    started: Instant,
) -> Result<(String, &'static str), ServeError> {
    match request.path.as_str() {
        "/health" => Ok(("{\"status\": \"ok\"}".to_string(), CONTENT_TYPE_JSON)),
        "/ready" => {
            let snap = shared
                .current()
                .ok_or_else(|| ServeError::unavailable("no servable snapshot loaded yet"))?;
            Ok((
                format!(
                    "{{\"ready\": true, \"generation\": {}, \"stale\": {}}}",
                    snap.generation,
                    snap.stale.load(Ordering::Relaxed)
                ),
                CONTENT_TYPE_JSON,
            ))
        }
        "/metrics" => {
            // Scrapes run under the same request budget as queries: the
            // render is cheap and bounded, but a scrape arriving past its
            // deadline must still answer 504, not burn a worker.
            let budget = request_budget(request, shared, started)?;
            let mut meter = budget.meter("serve/metrics");
            let text = metrics::render_prometheus(x2v_obs::global(), x2v_obs::global_window());
            meter.tick(1)?;
            Ok((text, CONTENT_TYPE_PROM))
        }
        "/stats" => {
            let budget = request_budget(request, shared, started)?;
            let mut meter = budget.meter("serve/stats");
            // Read the snapshot without counting a stale serve: `/stats`
            // introspects degradation, it does not serve embeddings.
            let snap = shared.current();
            let ctx = StatsContext {
                generation: snap.as_ref().map(|s| s.generation),
                stale: snap
                    .as_ref()
                    .map(|s| s.stale.load(Ordering::Relaxed))
                    .unwrap_or(false),
                uptime_s: shared.started.elapsed().as_secs(),
                queue_depth: shared.queue_len.load(Ordering::Relaxed),
                peak_rss_bytes: x2v_obs::peak_rss_bytes(),
            };
            let json = metrics::render_stats(x2v_obs::global(), x2v_obs::global_window(), &ctx);
            meter.tick(1)?;
            Ok((json, CONTENT_TYPE_JSON))
        }
        path if path.starts_with("/embed/") => {
            let id = &path["/embed/".len()..];
            if id.is_empty() {
                return Err(ServeError::bad_request("missing embedding id in path"));
            }
            let snap = servable(shared)?;
            let vector = snap
                .set
                .vector(id)
                .ok_or_else(|| ServeError::not_found(format!("embedding id {id:?}")))?;
            let values: Vec<String> = vector.iter().map(|v| format_f64(*v)).collect();
            Ok((
                format!(
                    "{{\"id\": \"{}\", \"generation\": {}, \"stale\": {}, \"vector\": [{}]}}",
                    x2v_obs::json_escape(id),
                    snap.generation,
                    snap.stale.load(Ordering::Relaxed),
                    values.join(", ")
                ),
                CONTENT_TYPE_JSON,
            ))
        }
        "/similar" => {
            let id = request
                .param("id")
                .ok_or_else(|| ServeError::bad_request("missing required parameter id"))?
                .to_string();
            let k = request
                .u64_param("k")?
                .unwrap_or(10)
                .min(shared.config.max_k as u64) as usize;
            let budget = request_budget(request, shared, started)?;
            let snap = servable(shared)?;
            let hits = snap.set.top_k(&id, k, &budget)?;
            let rendered: Vec<String> = hits
                .iter()
                .map(|h| {
                    format!(
                        "{{\"id\": \"{}\", \"score\": {}}}",
                        x2v_obs::json_escape(&h.id),
                        format_f64(h.score)
                    )
                })
                .collect();
            Ok((
                format!(
                    "{{\"id\": \"{}\", \"k\": {k}, \"generation\": {}, \"stale\": {}, \"hits\": [{}]}}",
                    x2v_obs::json_escape(&id),
                    snap.generation,
                    snap.stale.load(Ordering::Relaxed),
                    rendered.join(", ")
                ),
                CONTENT_TYPE_JSON,
            ))
        }
        other => Err(ServeError::not_found(format!("path {other:?}"))),
    }
}

/// The current snapshot, with stale serves counted — the graceful
/// degradation signal: requests keep being answered, observably.
fn servable(shared: &Shared) -> Result<Arc<Snapshot>, ServeError> {
    let snap = shared
        .current()
        .ok_or_else(|| ServeError::unavailable("no servable snapshot loaded yet"))?;
    if snap.stale.load(Ordering::Relaxed) {
        x2v_obs::windowed_counter_add(keys::SERVE_STALE, 1);
    }
    Ok(snap)
}

/// Builds the per-request budget: client `deadline_ms` capped server-side,
/// falling back to the configured default, anchored at accept time so
/// queue wait counts against the deadline.
fn request_budget(
    request: &Request,
    shared: &Shared,
    started: Instant,
) -> Result<Budget, ServeError> {
    let requested = request.u64_param("deadline_ms")?;
    let deadline_ms = requested
        .unwrap_or(shared.config.default_deadline_ms)
        .min(shared.config.max_deadline_ms);
    let elapsed_ms = started.elapsed().as_millis() as u64;
    if elapsed_ms >= deadline_ms {
        return Err(ServeError::DeadlineExceeded {
            elapsed_ms: Some(elapsed_ms),
        });
    }
    Ok(Budget::unlimited().with_deadline_ms(deadline_ms - elapsed_ms))
}

/// JSON-safe float rendering (total: NaN/inf become null).
fn format_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn reload_loop(shared: &Shared) {
    let slice = Duration::from_millis(10);
    let mut elapsed = Duration::ZERO;
    let poll_every = Duration::from_millis(shared.config.reload_poll_ms.max(1));
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(slice.min(poll_every));
        elapsed += slice;
        if elapsed >= poll_every {
            elapsed = Duration::ZERO;
            shared.reload_once();
        }
    }
}

/// The periodic obs-snapshot flusher: every [`Config::flush_secs`] it
/// samples the live peak-RSS high-water mark and writes the full obs
/// report to [`x2v_obs::Report::default_path`] through the
/// fault-injectable atomic writer (site [`SNAPSHOT_SITE`]), so a daemon
/// killed without warning still leaves a parseable telemetry snapshot no
/// older than one flush period. A failed write is counted
/// (`serve/snapshot_write_failed`) and retried next period — telemetry
/// must never take the daemon down.
fn flusher_loop(shared: &Shared) {
    let slice = Duration::from_millis(10);
    let period = Duration::from_secs(shared.config.flush_secs.max(1));
    let mut elapsed = Duration::ZERO;
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(slice.min(period));
        elapsed += slice;
        if elapsed >= period {
            elapsed = Duration::ZERO;
            flush_snapshot(shared);
        }
    }
    // One final flush on clean shutdown so the last partial period's
    // telemetry is not lost.
    flush_snapshot(shared);
}

/// One snapshot write (see [`flusher_loop`]).
fn flush_snapshot(shared: &Shared) {
    if let Some(rss) = x2v_obs::peak_rss_bytes() {
        x2v_obs::counter_max(keys::RUN_PEAK_RSS, rss);
    }
    let report = x2v_obs::report(&shared.config.snapshot_run);
    let path = report.default_path();
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match x2v_ckpt::atomic::write_atomic(SNAPSHOT_SITE, &path, report.to_json().as_bytes()) {
        Ok(()) => x2v_obs::counter_add(keys::SERVE_SNAPSHOTS, 1),
        Err(e) => {
            x2v_obs::counter_add(keys::SERVE_SNAPSHOT_FAILED, 1);
            eprintln!("[x2v-serve] obs snapshot write failed: {e}");
        }
    }
}

/// Publishes `set` to `store` under `job` as the next generation — the
/// trainer-side half of the serving contract, also used by the load
/// generator and the fault drills.
pub fn publish(store: &Store, job: &str, set: &EmbeddingSet) -> Result<u64, GuardError> {
    store.save(job, ARTIFACT_KIND, &set.encode())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_env_override_applies() {
        // Process-global env: single test, set + unset within it.
        std::env::set_var(DEADLINE_ENV, "75");
        assert_eq!(Config::from_env().default_deadline_ms, 75);
        std::env::set_var(DEADLINE_ENV, "not-a-number");
        assert_eq!(
            Config::from_env().default_deadline_ms,
            Config::default().default_deadline_ms
        );
        std::env::remove_var(DEADLINE_ENV);
        assert_eq!(
            Config::from_env().default_deadline_ms,
            Config::default().default_deadline_ms
        );
        // Flush period: any parseable value applies, 0 disables.
        std::env::set_var(FLUSH_ENV, "3");
        assert_eq!(Config::from_env().flush_secs, 3);
        std::env::set_var(FLUSH_ENV, "0");
        assert_eq!(Config::from_env().flush_secs, 0);
        std::env::remove_var(FLUSH_ENV);
        assert_eq!(Config::from_env().flush_secs, Config::default().flush_secs);
    }

    #[test]
    fn format_f64_is_json_safe() {
        assert_eq!(format_f64(1.5), "1.5");
        assert_eq!(format_f64(f64::NAN), "null");
        assert_eq!(format_f64(f64::INFINITY), "null");
    }
}
