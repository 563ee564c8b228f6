//! The `serve-similar` workload: open-loop HTTP traffic against an
//! `x2v-serve` daemon in this process, with one republish mid-run.
//!
//! Requests go out on a fixed schedule at [`RATE`] per second from two
//! client threads, one connection each at a time; each request's latency
//! is timed from when it was *due*, so a stall also charges the requests
//! queued behind it. Every answer is checked after the measured part
//! against `EmbeddingSet` itself for the generation the answer reports.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_ckpt::Store;
use x2v_guard::Budget;
use x2v_serve::server::{publish, Config, Server};
use x2v_serve::{EmbeddingSet, Hit, ARTIFACT_KIND};

use crate::{
    derive_seed, median, ms_since, peak_rss_mb, quantile, Outcome, RunConfig, SETUP_ROUNDS,
};

/// Requests per second, open loop: about a fifth of the ~2700 req/s the
/// two connections complete back to back on a 2-vCPU machine. At 1000 and
/// 1500 req/s the two connections queue whenever the host slows down, and
/// the tail spread 40–110% between runs (see README.md).
const RATE: f64 = 500.0;
/// Vectors in the served index.
const VECTORS: usize = 20_000;
/// Dimension of each vector.
const DIM: usize = 32;
/// Distinct ids the traffic draws from.
const QUERY_IDS: usize = 1024;
/// Share of requests that are `/similar` (the rest are `/embed`).
const SIMILAR_SHARE: f64 = 0.8;
/// Neighbours per `/similar` request.
const K: usize = 10;
/// Store job the index is published under.
const JOB: &str = "serve";
/// Warm-up requests per set-up round.
const WARMUP_REQUESTS: usize = 20;
/// Client socket timeout; a request that takes longer fails.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
/// Server worker threads.
const WORKERS: usize = 2;
/// Client threads (each holds at most one connection at a time).
const CLIENTS: usize = 2;
/// In-process calls timed per layer for `serve.scan_ms` / `serve.parse_ms`.
const LAYER_SAMPLES: usize = 200;
/// Repeats per timed parse (one parse is around a microsecond).
const PARSE_REPEATS: usize = 100;

/// One scheduled request.
struct Planned {
    /// When it is due, after the start of its phase.
    due: Duration,
    /// The request path.
    path: String,
    /// The id it asks about.
    id: String,
    /// `/similar` (true) or `/embed` (false).
    similar: bool,
}

/// What the client saw for one request.
struct Record {
    /// Completion, from the due time (ms).
    latency_ms: f64,
    /// Send start, from the due time (ms).
    late_ms: f64,
    /// TCP connect time (ms).
    connect_ms: f64,
    /// Send start to completion (ms).
    service_ms: f64,
    /// HTTP status (0 when the transport failed).
    status: u16,
    body: String,
}

/// Everything set-up builds: the two index generations, the schedule and
/// a ready daemon serving the first generation.
struct Prepared {
    dir: PathBuf,
    store: Store,
    server: Server,
    sets: [EmbeddingSet; 2],
    generations: [u64; 2],
    schedule: Vec<Planned>,
    publish_ms: Vec<f64>,
}

fn vector_set(seed: u64) -> EmbeddingSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (0..VECTORS)
        .map(|i| {
            let v = (0..DIM).map(|_| rng.random_range(-1.0..1.0)).collect();
            (format!("v{i}"), v)
        })
        .collect();
    EmbeddingSet::new(rows).expect("synthetic vectors are well-formed")
}

fn schedule(seed: u64, seconds: f64) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 5, 0));
    let ids: Vec<String> = (0..QUERY_IDS)
        .map(|_| format!("v{}", rng.random_range(0..VECTORS)))
        .collect();
    let n = ((RATE * seconds).ceil() as usize).max(1);
    (0..n)
        .map(|i| {
            let id = ids[rng.random_range(0..QUERY_IDS)].clone();
            let similar = rng.random_bool(SIMILAR_SHARE);
            let path = if similar {
                format!("/similar?id={id}&k={K}")
            } else {
                format!("/embed/{id}")
            };
            Planned {
                due: Duration::from_secs_f64(i as f64 / RATE),
                path,
                id,
                similar,
            }
        })
        .collect()
}

fn server_config() -> Config {
    Config {
        workers: WORKERS,
        default_deadline_ms: 2_000,
        reload_poll_ms: 20,
        job: JOB.to_string(),
        flush_secs: 0,
        access_log: false,
        ..Config::default()
    }
}

/// The scratch directory of set-up round `round`, inside the checkout.
fn scratch_dir(round: usize) -> PathBuf {
    PathBuf::from(".bench_scratch").join(format!("serve-{}-{round}", std::process::id()))
}

fn prepare(config: &RunConfig, round: usize) -> Result<Prepared, String> {
    let sets = [
        vector_set(derive_seed(config.seed, 6, 0)),
        vector_set(derive_seed(config.seed, 6, 1)),
    ];
    let schedule = schedule(config.seed, config.seconds);
    let dir = scratch_dir(round);
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let generation = publish(&store, JOB, &sets[0]).map_err(|e| e.to_string())?;
    let publish_ms = vec![ms_since(t0)];
    let server_store = Store::open(&dir).map_err(|e| e.to_string())?;
    let server = Server::start(server_config(), server_store).map_err(|e| e.to_string())?;
    let addr = server.addr();
    let ready_by = Instant::now() + Duration::from_secs(10);
    while get(addr, "/ready").status != 200 {
        if Instant::now() > ready_by {
            server.shutdown();
            return Err("daemon never became ready".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    for planned in schedule.iter().take(WARMUP_REQUESTS) {
        let status = get(addr, &planned.path).status;
        if status != 200 {
            server.shutdown();
            return Err(format!("warm-up {} answered {status}", planned.path));
        }
    }
    Ok(Prepared {
        dir,
        store,
        server,
        sets,
        generations: [generation, 0],
        schedule,
        publish_ms,
    })
}

/// Runs `serve-similar`.
///
/// # Errors
/// A set-up round that cannot start a ready daemon.
pub(crate) fn run(config: &RunConfig, process_start: Instant) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_ROUNDS);
    let mut publish_ms = Vec::new();
    let mut prepared = None;
    for round in 0..SETUP_ROUNDS {
        if let Some(p) = prepared.take() {
            teardown(p);
        }
        let t0 = if round == 0 {
            process_start
        } else {
            Instant::now()
        };
        match prepare(config, round) {
            Ok(p) => {
                setup_s.push(t0.elapsed().as_secs_f64());
                publish_ms.extend_from_slice(&p.publish_ms);
                prepared = Some(p);
            }
            Err(e) => {
                let _ = std::fs::remove_dir_all(scratch_dir(round));
                return Err(format!("serve set-up failed: {e}"));
            }
        }
    }
    let mut p = prepared.expect("at least one set-up round");
    p.publish_ms = publish_ms;
    let out = if config.trace {
        measure_traced(config, &mut p)
    } else {
        measure(config, &mut p, median(&setup_s))
    };
    teardown(p);
    Ok(out)
}

fn teardown(p: Prepared) {
    p.server.shutdown();
    let _ = std::fs::remove_dir_all(&p.dir);
    // Leaves the parent behind only if another run is using it.
    let _ = std::fs::remove_dir(p.dir.parent().unwrap_or(Path::new(".")));
}

/// The untraced measured part: the whole schedule, republishing halfway.
fn measure(config: &RunConfig, p: &mut Prepared, setup_s: f64) -> Outcome {
    let half = Duration::from_secs_f64(config.seconds / 2.0);
    let (records, elapsed) = drive(p, 0..p.schedule.len(), Some(half));
    let mut out = check(p, &p.schedule, &records);
    let answered_right = (out.attempted - out.failed) as f64 / out.attempted as f64;
    require_reload(p, &records, &mut out);
    let ok = records.iter().filter(|r| r.status == 200).count();
    let latencies: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
    out.push("setup_s", setup_s, "s");
    out.push("throughput", ok as f64 / elapsed.as_secs_f64(), "1/s");
    out.push("p50_ms", median(&latencies), "ms");
    out.push("quality", answered_right, "share");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    out
}

/// The traced run: the first half of the schedule with obs off, then the
/// second half with obs on (republishing halfway through it), then the
/// in-process layer calls on the same queries and bytes, and a final
/// `/metrics` scrape for the daemon's own counters.
fn measure_traced(config: &RunConfig, p: &mut Prepared) -> Outcome {
    let n = p.schedule.len();
    let (plain, _) = drive(p, 0..n / 2, None);
    x2v_obs::set_enabled(true);
    let quarter = Duration::from_secs_f64(config.seconds / 4.0);
    let (traced, _) = drive(p, n / 2..n, Some(quarter));
    let scrape = get(p.server.addr(), "/metrics");
    x2v_obs::set_enabled(false);

    let mut out = check(p, &p.schedule[..n / 2], &plain);
    let checked = check(p, &p.schedule[n / 2..], &traced);
    out.attempted += checked.attempted;
    out.failed += checked.failed;
    out.wrong += checked.wrong;
    require_reload(p, &traced, &mut out);

    let traced_planned = &p.schedule[n / 2..];
    let pick = |similar: bool| -> Vec<f64> {
        traced
            .iter()
            .zip(traced_planned)
            .filter(|(_, q)| q.similar == similar)
            .map(|(r, _)| r.service_ms)
            .collect()
    };
    let similar_ms = median(&pick(true));
    let scan_ms = scan_layer(p, traced_planned);
    let parse_ms = parse_layer(traced_planned);
    out.push("serve.scan_ms", scan_ms, "ms");
    out.push("serve.similar_ms", similar_ms, "ms");
    out.push("serve.parse_ms", parse_ms, "ms");
    out.push("serve.embed_ms", median(&pick(false)), "ms");
    out.push("ckpt.publish_ms", median(&p.publish_ms), "ms");
    out.push("ckpt.reload_ms", reload_layer(p), "ms");
    out.push(
        "ckpt.snapshot_bytes",
        p.sets[0].encode().len() as f64,
        "bytes",
    );
    out.push(
        "serve.shed",
        prom_value(&scrape.body, "x2v_serve_shed"),
        "count",
    );
    out.push(
        "serve.deadline_trips",
        prom_value(&scrape.body, "x2v_serve_deadline_trips"),
        "count",
    );
    let late: Vec<f64> = traced.iter().map(|r| r.late_ms).collect();
    let connect: Vec<f64> = traced.iter().map(|r| r.connect_ms).collect();
    out.push("client.late_ms", quantile(&late, 0.99), "ms");
    out.push("client.connect_ms", median(&connect), "ms");
    // The tail from the due time, of the untraced half: too dependent on
    // the host's CPU steal to bound (README.md, "Noise findings").
    let from_due: Vec<f64> = plain.iter().map(|r| r.latency_ms).collect();
    out.push("client.p90_ms", quantile(&from_due, 0.9), "ms");
    out.push("client.p99_ms", quantile(&from_due, 0.99), "ms");
    out.push("bench.ops", traced.len() as f64, "count");
    // Throughput is pinned by the schedule, so the overhead compares
    // service rates: untraced over traced median service time.
    let service_all = |rs: &[Record]| -> Vec<f64> { rs.iter().map(|r| r.service_ms).collect() };
    out.push(
        "bench.trace_overhead",
        median(&service_all(&plain)) / median(&service_all(&traced)),
        "ratio",
    );
    out.push(
        "bench.layer_coverage",
        (scan_ms + parse_ms) / similar_ms,
        "ratio",
    );
    out
}

/// Sends `range` of the schedule on time from [`CLIENTS`] threads, and
/// republishes the second index generation `republish_at` into the phase.
/// Returns the records in schedule order and the phase's wall time (from
/// its start to the last completion).
fn drive(
    p: &mut Prepared,
    range: std::ops::Range<usize>,
    republish_at: Option<Duration>,
) -> (Vec<Record>, Duration) {
    let addr = p.server.addr();
    let planned = &p.schedule[range];
    let base = planned.first().map_or(Duration::ZERO, |q| q.due);
    let start = Instant::now() + Duration::from_millis(5);
    let mut republished = None;
    let mut per_client: Vec<Vec<(usize, Record)>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    (c..planned.len())
                        .step_by(CLIENTS)
                        .map(|i| {
                            (
                                i,
                                send(addr, &planned[i].path, start + (planned[i].due - base)),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        if let Some(at) = republish_at {
            sleep_until(start + at);
            let t0 = Instant::now();
            republished = Some(publish(&p.store, JOB, &p.sets[1]));
            p.publish_ms.push(ms_since(t0));
        }
        per_client = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
    });
    let end = Instant::now();
    match republished {
        Some(Ok(generation)) => p.generations[1] = generation,
        Some(Err(e)) => eprintln!("republish failed: {e}"),
        None => {}
    }
    let mut records: Vec<(usize, Record)> = per_client.into_iter().flatten().collect();
    records.sort_by_key(|(i, _)| *i);
    (records.into_iter().map(|(_, r)| r).collect(), end - start)
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Sends one request when it is due and records what happened.
fn send(addr: SocketAddr, path: &str, due: Instant) -> Record {
    sleep_until(due);
    let started = Instant::now();
    let late_ms = (started - due).as_secs_f64() * 1e3;
    let mut connect_ms = 0.0;
    let response = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT).and_then(|mut stream| {
        connect_ms = ms_since(started);
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: x2v\r\n\r\n").as_bytes())?;
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes)?;
        Ok(bytes)
    });
    let (status, body) = response.map_or((0, String::new()), |bytes| parse_response(&bytes));
    Record {
        latency_ms: ms_since(due),
        late_ms,
        connect_ms,
        service_ms: ms_since(started),
        status,
        body,
    }
}

/// A blocking GET outside the schedule (readiness, warm-up, scrape).
fn get(addr: SocketAddr, path: &str) -> Record {
    send(addr, path, Instant::now())
}

fn parse_response(bytes: &[u8]) -> (u16, String) {
    let text = String::from_utf8_lossy(bytes);
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    (status, body)
}

/// Checks every record against the index generation its answer reports;
/// `planned` is the part of the schedule the records answer.
/// A non-200 status or an answer that differs counts as failed; a wrong
/// answer also counts as wrong.
fn check(p: &Prepared, planned: &[Planned], records: &[Record]) -> Outcome {
    let mut out = Outcome {
        attempted: records.len() as u64,
        ..Outcome::default()
    };
    let mut oracle: HashMap<(usize, &str), Vec<Hit>> = HashMap::new();
    for (r, q) in records.iter().zip(planned) {
        if r.status != 200 {
            out.failed += 1;
            continue;
        }
        let generation = number_after(&r.body, "\"generation\": ");
        let Some(which) = p
            .generations
            .iter()
            .position(|&g| g != 0 && Some(g as f64) == generation)
        else {
            out.failed += 1;
            out.wrong += 1;
            continue;
        };
        let set = &p.sets[which];
        let right = if q.similar {
            let expected = oracle.entry((which, q.id.as_str())).or_insert_with(|| {
                set.top_k(&q.id, K, &Budget::unlimited())
                    .expect("query ids are in the index")
            });
            hits_match(&r.body, expected)
        } else {
            let got = floats_in(r.body.split("\"vector\": [").nth(1).unwrap_or(""));
            set.vector(&q.id).is_some_and(|v| same_bits(&got, v))
        };
        if !right {
            out.failed += 1;
            out.wrong += 1;
        }
    }
    out
}

/// Counts a failed check when no answer in `records` came from the
/// republished generation: the hot reload never took effect.
fn require_reload(p: &Prepared, records: &[Record], out: &mut Outcome) {
    let republished = p.generations[1] as f64;
    let seen = records
        .iter()
        .any(|r| number_after(&r.body, "\"generation\": ") == Some(republished));
    if p.generations[1] == 0 || !seen {
        eprintln!("no answer came from the republished generation");
        out.failed += 1;
        out.wrong += 1;
    }
}

/// Whether the `hits` of a `/similar` body equal `expected` exactly, ids
/// and score bits.
fn hits_match(body: &str, expected: &[Hit]) -> bool {
    let Some(hits) = body.split("\"hits\": [").nth(1) else {
        return false;
    };
    let got: Vec<(&str, Option<f64>)> = hits
        .split("{\"id\": \"")
        .skip(1)
        .map(|h| {
            let id = h.split('"').next().unwrap_or("");
            (id, number_after(h, "\"score\": "))
        })
        .collect();
    got.len() == expected.len()
        && got.iter().zip(expected).all(|((id, score), hit)| {
            *id == hit.id && score.map(f64::to_bits) == Some(hit.score.to_bits())
        })
}

/// The number right after the first `key` in `text`.
fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = text.split(key).nth(1)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The comma-separated numbers before the first `]` of `text`.
fn floats_in(text: &str) -> Vec<f64> {
    text.split(']')
        .next()
        .unwrap_or("")
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Median time of one in-process `EmbeddingSet::top_k` over the first
/// `/similar` queries of `planned`, against the generation served first.
fn scan_layer(p: &Prepared, planned: &[Planned]) -> f64 {
    let times: Vec<f64> = planned
        .iter()
        .filter(|q| q.similar)
        .take(LAYER_SAMPLES)
        .map(|q| {
            let t0 = Instant::now();
            let hits = p.sets[0].top_k(&q.id, K, &Budget::unlimited());
            std::hint::black_box(hits).ok();
            ms_since(t0)
        })
        .collect();
    median(&times)
}

/// Median time of one in-process `http::read_request` over the bytes of
/// the first requests of `planned`.
fn parse_layer(planned: &[Planned]) -> f64 {
    let times: Vec<f64> = planned
        .iter()
        .take(LAYER_SAMPLES)
        .map(|q| {
            let bytes = format!("GET {} HTTP/1.1\r\nHost: x2v\r\n\r\n", q.path);
            let t0 = Instant::now();
            for _ in 0..PARSE_REPEATS {
                let mut reader = bytes.as_bytes();
                let parsed = x2v_serve::http::read_request(&mut reader, 8 * 1024);
                std::hint::black_box(parsed).ok();
            }
            ms_since(t0) / PARSE_REPEATS as f64
        })
        .collect();
    median(&times)
}

/// Median time of the reload's own work, in process: load the newest
/// frame from the store and decode it.
fn reload_layer(p: &Prepared) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let loaded = p
                .store
                .load_latest(JOB, ARTIFACT_KIND)
                .ok()
                .flatten()
                .map(|(_, payload)| EmbeddingSet::decode(&payload));
            std::hint::black_box(loaded);
            ms_since(t0)
        })
        .collect();
    median(&times)
}

/// The value of an exposition line `series <value>`; 0 when the series is
/// absent (the daemon only emits counters that moved).
fn prom_value(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(series)
                .and_then(|rest| rest.strip_prefix(' '))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0.0)
}
