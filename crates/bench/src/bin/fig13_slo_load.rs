//! **Figure 13 — Mixed dashboard workload under live ingestion, SLO-gated.**
//!
//! The closed-loop load harness: N simulated dashboard users (Zipf-focused
//! tile views, drill-downs, period/country pans — see
//! [`rased_bench::workload`]) drive the *real* HTTP tier over keep-alive
//! connections while the [`IngestController`] streams a multi-day dataset
//! in. Each user is identified to the server's admission control via
//! `X-Forwarded-For`, so per-client fair queuing and global load shedding
//! are exercised end-to-end. A poller thread watches `/api/metrics` and
//! stamps every sample with the index epoch it was served under, so the
//! report breaks latency, QPS, error mix and cube-cache hit rate down *per
//! epoch* — the serving-tier behavior across each live publish.
//!
//! After the stream drains, a deliberate overload burst — one scraper
//! identity opening one greedy connection per free worker, all expensive
//! queries — verifies that saturation degrades to cheap-path `503 +
//! Retry-After`, not latency collapse: with every connection sharing one
//! identity, the per-client cap structurally forces sheds whenever more
//! than the cap are served concurrently. Every burst request carries a
//! unique cache-busting `cb=` nonce, so each one is a cold render and
//! admission control — not the response cache — decides its fate. The
//! burst is sized to the worker pool so no connection waits in the accept
//! queue — measured shed latency is the shed path itself, not connection
//! queueing.
//!
//! A cache probe then measures the response cache directly on the quiet
//! server: a run of nonce-distinct cold misses, then a run of repeats of
//! one fixed key. Every repeat must be byte-identical to the first
//! render, and the hit-path p99 must sit strictly below the miss-path
//! p99 — the cache is a memcpy, not a second render.
//!
//! Finally an **open-loop** phase offers a *fixed arrival rate* to the
//! quiet server: dispatcher threads fire requests on an absolute schedule
//! regardless of completions, recording both response latency and how far
//! each dispatch slipped past its scheduled instant. Closed-loop users
//! self-throttle to the service rate and so under-report queueing delay;
//! the open-loop section of `BENCH_fig13.json` is the complementary
//! offered-load view.
//!
//! The run fails (non-zero exit) if any SLO gate is violated:
//!
//! 1. zero non-503 5xx anywhere;
//! 2. p99 of successful expensive+cheap requests in the main phase is
//!    under `FIG13_P99_BOUND_MS` (default 250);
//! 3. the overload burst observed at least one shed, and the p99 of its
//!    503 responses is under `FIG13_SHED_P99_BOUND_MS` (default 250 —
//!    generous for scheduling noise on saturated single-core CI boxes;
//!    a shed is written before any query work, so anything above this is
//!    a structural regression, not noise);
//! 4. ingest streamed every queued day and the epoch advanced, and the
//!    per-epoch report covers the full observed epoch span;
//! 5. the response cache recorded hits, every probe hit was byte-identical
//!    to its cold render, and the probe hit-path p99 is strictly below the
//!    miss-path p99.
//!
//! `BENCH_MEASURE_MS` selects smoke mode (< 100 ms budget: tiny dataset, 4
//! users, report to the scratch dir). Full mode (the default) runs 8 users
//! against a month-scale baseline and persists `BENCH_fig13.json` into the
//! current directory — the checked-in perf trajectory.

#![forbid(unsafe_code)]

use rased_bench::bench_dir;
use rased_bench::harness::Harness;
use rased_bench::httpc::{json_uint_field, HttpClient};
use rased_bench::workload::{RequestKind, UserSession, Vocab, DEFAULT_SKEW};
use rased_core::{CubeSchema, IngestController, Rased, RasedConfig, ServerConfig};
use rased_dashboard::json::Json;
use rased_dashboard::DashboardServer;
use rased_osm_gen::{Dataset, DatasetConfig};
use rased_temporal::{Date, DateRange};
use std::collections::BTreeMap;
use std::error::Error;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload base seed: every user stream derives from it, so two runs of
/// the same binary issue byte-identical request sequences.
const SEED: u64 = 0x0F13_2026;

/// Cache-probe samples per path (misses, then hits). A nearest-rank p99
/// over `n` samples leaves `n - ceil(0.99 n)` samples beyond it; 1000
/// leaves ten, so the hit-vs-miss p99 gate compares tails, not maxima.
const PROBE_SAMPLES: usize = 1000;

/// One measured request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    epoch: u64,
    kind: RequestKind,
    status: u16,
    micros: u64,
}

/// Cumulative cache counters as read off `/api/metrics`: the cube cache
/// (query tier) and the response cache (serving tier).
#[derive(Debug, Clone, Copy, Default)]
struct CacheCounters {
    cube_hits: u64,
    cube_misses: u64,
    resp_hits: u64,
    resp_misses: u64,
}

/// One `/api/metrics` observation at an epoch transition.
#[derive(Debug, Clone, Copy)]
struct EpochSnap {
    epoch: u64,
    at: Instant,
    counters: CacheCounters,
}

struct Params {
    smoke: bool,
    base_days: i32,
    live_days: i32,
    users: u64,
    workers: usize,
    max_active_per_client: usize,
    shed_threshold: usize,
    burst_requests: usize,
    /// Open-loop phase: offered arrival rate (requests/second) …
    ol_rate: u64,
    /// … sustained for this long …
    ol_secs: Duration,
    /// … spread over this many dispatcher threads.
    ol_threads: usize,
}

impl Params {
    fn for_budget(budget: Duration) -> Params {
        let smoke = budget < Duration::from_millis(100);
        if smoke {
            Params {
                smoke,
                base_days: 8,
                live_days: 3,
                users: 4,
                // users + poller + final metrics fetch: every connection
                // gets a dedicated worker, none starves in the accept queue.
                workers: 6,
                max_active_per_client: 1,
                shed_threshold: 3,
                burst_requests: 6,
                ol_rate: 60,
                ol_secs: Duration::from_millis(250),
                ol_threads: 2,
            }
        } else {
            Params {
                smoke,
                base_days: 30,
                live_days: 6,
                users: 8,
                workers: 10,
                max_active_per_client: 1,
                shed_threshold: 6,
                burst_requests: 25,
                ol_rate: 150,
                ol_secs: Duration::from_secs(3),
                ol_threads: 4,
            }
        }
    }
}

fn env_millis(key: &str, default_ms: u64) -> Duration {
    Duration::from_millis(
        std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default_ms),
    )
}

/// Nearest-rank percentile over an already-sorted µs vector.
fn pctl(sorted: &[u64], p: f64) -> u64 {
    rased_bench::harness::percentile(sorted, p).unwrap_or(0)
}

fn main() -> Result<(), Box<dyn Error>> {
    let budget = Harness::from_env().measure();
    let p = Params::for_budget(budget);
    // Full mode keeps the users running at least 2 s: on a fast release
    // build the live stream drains in well under a second, and a
    // trajectory point needs more than a handful of samples to be worth
    // comparing across commits.
    let budget = if p.smoke { budget } else { budget.max(Duration::from_secs(2)) };
    let p99_bound = env_millis("FIG13_P99_BOUND_MS", 250);
    let shed_p99_bound = env_millis("FIG13_SHED_P99_BOUND_MS", 250);

    let dir = bench_dir("fig13")?;
    for sub in ["base", "live", "system"] {
        let _ = std::fs::remove_dir_all(dir.join(sub));
    }
    let start = Date::new(2021, 1, 1)?;
    let mut base_cfg = DatasetConfig::small(SEED);
    base_cfg.range = DateRange::new(start, start.add_days(p.base_days - 1));
    let live_start = start.add_days(p.base_days);
    let mut live_cfg = base_cfg.clone();
    live_cfg.range = DateRange::new(live_start, live_start.add_days(p.live_days - 1));

    println!(
        "# Fig 13: {} users vs. {}-day baseline + {}-day live stream \
         (workers {}, per-client cap {}, shed threshold {})",
        p.users, p.base_days, p.live_days, p.workers, p.max_active_per_client, p.shed_threshold
    );
    let base = Dataset::generate(&dir.join("base"), base_cfg)?;
    Dataset::generate(&dir.join("live"), live_cfg)?;

    let schema =
        CubeSchema::new(base.config.world.n_countries, base.config.sim.n_road_types);
    let system = Arc::new(Rased::create(
        RasedConfig::new(dir.join("system")).with_schema(schema),
    )?);
    system.ingest_dataset(&base)?;

    // Vocabulary the simulated users browse: real codes/values from the
    // system under test, over the full (base + live) window.
    let vocab = Vocab {
        range: DateRange::new(start, live_start.add_days(p.live_days - 1)),
        countries: system
            .countries()
            .ids()
            .filter_map(|id| system.countries().code(id).map(str::to_string))
            .collect(),
        roads: system
            .roads()
            .ids()
            .filter_map(|id| system.roads().value(id).map(str::to_string))
            .collect(),
    };

    let config = ServerConfig {
        workers: p.workers,
        max_active_per_client: p.max_active_per_client,
        shed_threshold: p.shed_threshold,
        trust_forwarded_for: true,
        ..ServerConfig::default()
    };
    let ingest = Arc::new(IngestController::start(Arc::clone(&system))?);
    let server = Arc::new(
        DashboardServer::bind_with(Arc::clone(&system), "127.0.0.1:0", config)?
            .with_ingest(Arc::clone(&ingest), None),
    );
    let addr = server.addr()?;
    let stop_server = server.stop_handle();
    let serve_thread = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve())
    };

    // Metrics poller: tracks the live epoch (users stamp samples with it)
    // and records cumulative cube-cache counters at every transition.
    let epoch_now = Arc::new(AtomicU64::new(0));
    let stop_poll = Arc::new(AtomicBool::new(false));
    let poller = {
        let epoch_now = Arc::clone(&epoch_now);
        let stop = Arc::clone(&stop_poll);
        std::thread::spawn(move || poll_metrics(addr, &epoch_now, &stop))
    };

    // Main phase: closed-loop users run while the live dataset streams in.
    ingest.enqueue(PathBuf::from(dir.join("live"))).map_err(|_| "ingest queue full")?;
    let stop_users = Arc::new(AtomicBool::new(false));
    let t_main = Instant::now();
    let mut user_threads = Vec::new();
    for u in 0..p.users {
        let vocab = vocab.clone();
        let epoch_now = Arc::clone(&epoch_now);
        let stop = Arc::clone(&stop_users);
        user_threads
            .push(std::thread::spawn(move || run_user(addr, u, vocab, &epoch_now, &stop)));
    }

    // Run until the measurement budget is spent *and* the stream drained
    // (or a generous deadline, so a wedged writer fails loudly).
    let deadline = t_main + Duration::from_secs(180);
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let s = ingest.status();
        let drained = s.phase == rased_core::IngestPhase::Idle && s.queued == 0;
        if (t_main.elapsed() >= budget && drained) || Instant::now() >= deadline {
            break;
        }
    }
    stop_users.store(true, Ordering::Relaxed);
    let mut samples: Vec<Sample> = Vec::new();
    for t in user_threads {
        samples.extend(t.join().map_err(|_| "user thread panicked")?);
    }
    let main_end = Instant::now();
    let main_secs = t_main.elapsed().as_secs_f64();

    // Overload burst: one scraper identity, one greedy connection per
    // worker left free by the poller, expensive queries only. Every
    // connection presents the same `X-Forwarded-For`, so once more than
    // `max_active_per_client` run concurrently the surplus *must* shed —
    // admission is exercised structurally, not by timing luck. Capping
    // connections at the free-worker count keeps every burst connection
    // on a dedicated worker: a shed's measured latency is then the cheap
    // 503 path, not time spent queued behind another keep-alive
    // connection waiting for a worker.
    // The heaviest legal query: full range, four group dimensions — long
    // enough that admitted executions overlap pending ones. Each request
    // appends a unique `cb=` nonce (ignored by the query parser, part of
    // the cache key), so every burst request is a cold render: the
    // response cache cannot absorb the overload that this phase exists
    // to measure.
    let burst_target = format!(
        "/api/analysis?start={}&end={}&group=country,road,update,day",
        vocab.range.start(),
        vocab.range.end()
    );
    let mut burst_threads = Vec::new();
    for t in 0..p.workers.saturating_sub(1) {
        let target = burst_target.clone();
        let epoch_now = Arc::clone(&epoch_now);
        let n = p.burst_requests;
        burst_threads.push(std::thread::spawn(move || {
            run_burst(addr, "198.51.100.99", &target, t, n, &epoch_now)
        }));
    }
    let mut burst: Vec<Sample> = Vec::new();
    for t in burst_threads {
        burst.extend(t.join().map_err(|_| "burst thread panicked")?);
    }

    // Cache probe on the now-quiet server: cold misses vs. repeat hits on
    // one fixed key, sequentially over one connection with its own
    // identity (admission never interferes).
    let probe = run_cache_probe(addr, &burst_target, PROBE_SAMPLES, PROBE_SAMPLES);

    // The server's own view of admission and the response cache, straight
    // off `/api/metrics` — the harness reads shed and hit counters from
    // the system under test itself. Fetched after the probe, so the
    // response-cache totals deterministically include the probe's hits.
    let (admission, resp_totals) = HttpClient::connect(addr)
        .and_then(|mut c| c.get("/api/metrics", &[]))
        .ok()
        .map(|resp| (admission_counters(&resp.body), resp_cache_counters(&resp.body)))
        .unwrap_or_default();

    // Open-loop phase: a fixed arrival rate offered to the quiet server.
    // Unlike the closed-loop users (whose request rate self-throttles to
    // the server's service rate, hiding queueing delay), the dispatchers
    // fire on an absolute schedule and record how far behind it they
    // fall — latency under *offered* load, the complementary view the
    // open-vs-closed-loop literature insists on.
    let open_loop = run_open_loop(addr, &vocab, p.ol_rate, p.ol_secs, p.ol_threads);

    stop_poll.store(true, Ordering::Relaxed);
    let (snaps, final_counters) = poller.join().map_err(|_| "poller thread panicked")?;
    let ingest_status = ingest.status();
    ingest.shutdown();
    stop_server.stop();
    serve_thread.join().map_err(|_| "serve thread panicked")??;

    let mut report = build_report(
        &p, budget, main_secs, main_end, &samples, &burst, &snaps, final_counters,
        ingest_status.days_published, system.index().epoch(),
    );
    report.admission = admission;
    report.resp_totals = resp_totals;
    report.probe = probe;
    report.open_loop = open_loop;
    print_report(&report);

    // Persist the trajectory point (full mode: into the working directory,
    // i.e. the repo checkout; smoke mode: scratch only).
    let out = if p.smoke {
        dir.join("BENCH_fig13.json")
    } else {
        PathBuf::from("BENCH_fig13.json")
    };
    std::fs::write(&out, report_json(&report, p99_bound, shed_p99_bound))?;
    println!("\n(report written to {})", out.display());

    enforce_slos(&report, p99_bound, shed_p99_bound)
}

// ---------------------------------------------------------------- threads

/// One simulated user: closed loop over a keep-alive connection,
/// reconnecting when the server rotates the connection out.
fn run_user(
    addr: SocketAddr,
    user: u64,
    vocab: Vocab,
    epoch_now: &AtomicU64,
    stop: &AtomicBool,
) -> Vec<Sample> {
    let mut session = UserSession::new(SEED, user, vocab, DEFAULT_SKEW);
    let fwd = format!("203.0.113.{user}");
    let headers = [("X-Forwarded-For", fwd.as_str())];
    let mut client = HttpClient::connect(addr).ok();
    let mut samples = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let req = session.next_request();
        let epoch = epoch_now.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let status = match client.as_mut().map(|c| c.get(&req.target, &headers)) {
            Some(Ok(resp)) => Some(resp.status),
            _ => {
                // Dead or missing connection: reconnect and retry once.
                client = HttpClient::connect(addr).ok();
                match client.as_mut().map(|c| c.get(&req.target, &headers)) {
                    Some(Ok(resp)) => Some(resp.status),
                    _ => None,
                }
            }
        };
        if let Some(status) = status {
            samples.push(Sample {
                epoch,
                kind: req.kind,
                status,
                micros: t0.elapsed().as_micros() as u64,
            });
        } else {
            // Both attempts failed; don't spin on a dead server.
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    samples
}

/// One greedy overload connection: `n` expensive requests back-to-back,
/// presenting the shared scraper identity `client`. Every request gets a
/// unique `cb=` nonce (thread id × request index), so none of them can be
/// a response-cache hit — the burst measures admission, not the cache.
fn run_burst(
    addr: SocketAddr,
    client: &str,
    target: &str,
    thread: usize,
    n: usize,
    epoch_now: &AtomicU64,
) -> Vec<Sample> {
    let headers = [("X-Forwarded-For", client)];
    let mut client = HttpClient::connect(addr).ok();
    let mut samples = Vec::new();
    for i in 0..n {
        let busted = format!("{target}&cb=burst-{thread}-{i}");
        let epoch = epoch_now.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let resp = match client.as_mut().map(|c| c.get(&busted, &headers)) {
            Some(Ok(resp)) => Some(resp),
            _ => {
                client = HttpClient::connect(addr).ok();
                match client.as_mut().map(|c| c.get(&busted, &headers)) {
                    Some(Ok(resp)) => Some(resp),
                    _ => None,
                }
            }
        };
        if let Some(resp) = resp {
            samples.push(Sample {
                epoch,
                kind: RequestKind::TileView,
                status: resp.status,
                micros: t0.elapsed().as_micros() as u64,
            });
        }
    }
    samples
}

/// Probe result: the two latency populations the cache SLO compares, plus
/// the byte-identity tally for the hit path.
#[derive(Debug, Default)]
struct ProbeResult {
    /// Sorted µs per cold render (each a nonce-distinct cache miss).
    miss_lat: Vec<u64>,
    /// Sorted µs per repeat of the one fixed probe key.
    hit_lat: Vec<u64>,
    /// How many repeats came back byte-identical to the first render.
    identical: usize,
}

/// Measure the response cache head-on, on the quiet post-burst server:
/// `misses` nonce-distinct cold renders of the heaviest legal query, then
/// `hits` repeats of the first one — which is cached by now, so every
/// repeat must be the very same bytes, served without rendering.
fn run_cache_probe(addr: SocketAddr, target: &str, misses: usize, hits: usize) -> ProbeResult {
    let headers = [("X-Forwarded-For", "203.0.113.200")];
    let mut client = HttpClient::connect(addr).ok();
    let mut get = move |path: &str| match client.as_mut().map(|c| c.get(path, &headers)) {
        Some(Ok(resp)) if resp.status == 200 => Some(resp),
        _ => {
            client = HttpClient::connect(addr).ok();
            match client.as_mut().map(|c| c.get(path, &headers)) {
                Some(Ok(resp)) if resp.status == 200 => Some(resp),
                _ => None,
            }
        }
    };
    let mut out = ProbeResult::default();
    let mut reference: Option<String> = None;
    // The hits replay the *last* miss: the most recently inserted entry,
    // which the misses before it cannot have evicted from the cache.
    let last = misses.saturating_sub(1);
    for i in 0..misses {
        let path = format!("{target}&cb=probe-{i}");
        let t0 = Instant::now();
        if let Some(resp) = get(&path) {
            out.miss_lat.push(t0.elapsed().as_micros() as u64);
            if i == last {
                reference = Some(resp.body);
            }
        }
    }
    let fixed = format!("{target}&cb=probe-{last}");
    for _ in 0..hits {
        let t0 = Instant::now();
        if let Some(resp) = get(&fixed) {
            out.hit_lat.push(t0.elapsed().as_micros() as u64);
            if reference.as_deref() == Some(resp.body.as_str()) {
                out.identical += 1;
            }
        }
    }
    out.miss_lat.sort_unstable();
    out.hit_lat.sort_unstable();
    out
}

/// Open-loop phase result: what a fixed offered rate did to latency, and
/// how far the dispatchers fell behind their own schedule.
#[derive(Debug, Default)]
struct OpenLoopResult {
    offered_rps: u64,
    secs: f64,
    issued: usize,
    /// Sorted µs per 2xx response.
    ok_lat: Vec<u64>,
    shed_503: usize,
    status_4xx: usize,
    other_5xx: usize,
    /// Requests that never got a response (dead connection twice over).
    failed: usize,
    /// Sorted µs of schedule lag (actual dispatch − scheduled dispatch).
    lag: Vec<u64>,
}

/// Per-dispatcher tally, merged into [`OpenLoopResult`] at join.
#[derive(Debug, Default)]
struct OpenLoopShard {
    issued: usize,
    ok_lat: Vec<u64>,
    shed_503: usize,
    status_4xx: usize,
    other_5xx: usize,
    failed: usize,
    lag: Vec<u64>,
}

/// Drive the server open-loop: `threads` dispatchers share a target of
/// `rate` requests/second for `secs`, each firing on an absolute schedule
/// (`t0 + i·interval`) whether or not the previous request has returned.
/// This is the bounded-concurrency approximation of a true open loop —
/// one in-flight request per dispatcher — so when the server can't keep
/// up the honest signal is schedule *lag*, recorded per request, not a
/// silently reduced offered rate. Each dispatcher presents its own
/// identity: admission's per-client cap never structurally sheds it.
fn run_open_loop(
    addr: SocketAddr,
    vocab: &Vocab,
    rate: u64,
    secs: Duration,
    threads: usize,
) -> OpenLoopResult {
    let threads = threads.max(1);
    let mut handles = Vec::new();
    for t in 0..threads {
        let vocab = vocab.clone();
        handles.push(std::thread::spawn(move || {
            // Distinct stream per dispatcher, disjoint from the closed-loop
            // users' (user ids 0..users) so request sequences don't alias.
            let mut session = UserSession::new(SEED ^ 0x0F14, 1_000 + t as u64, vocab, DEFAULT_SKEW);
            let fwd = format!("203.0.113.{}", 210 + t);
            let headers = [("X-Forwarded-For", fwd.as_str())];
            let mut client = HttpClient::connect(addr).ok();
            let interval = Duration::from_secs_f64(threads as f64 / rate.max(1) as f64);
            let t0 = Instant::now();
            let mut next = t0;
            let mut shard = OpenLoopShard::default();
            while next.duration_since(t0) < secs {
                let now = Instant::now();
                if let Some(wait) = next.checked_duration_since(now) {
                    std::thread::sleep(wait);
                }
                shard.lag.push(Instant::now().saturating_duration_since(next).as_micros() as u64);
                let req = session.next_request();
                shard.issued += 1;
                let ts = Instant::now();
                let status = match client.as_mut().map(|c| c.get(&req.target, &headers)) {
                    Some(Ok(resp)) => Some(resp.status),
                    _ => {
                        client = HttpClient::connect(addr).ok();
                        match client.as_mut().map(|c| c.get(&req.target, &headers)) {
                            Some(Ok(resp)) => Some(resp.status),
                            _ => None,
                        }
                    }
                };
                match status {
                    Some(s @ 200..=299) => {
                        let _ = s;
                        shard.ok_lat.push(ts.elapsed().as_micros() as u64);
                    }
                    Some(503) => shard.shed_503 += 1,
                    Some(400..=499) => shard.status_4xx += 1,
                    Some(_) => shard.other_5xx += 1,
                    None => shard.failed += 1,
                }
                next += interval;
            }
            shard
        }));
    }
    let mut out = OpenLoopResult {
        offered_rps: rate,
        secs: secs.as_secs_f64(),
        ..OpenLoopResult::default()
    };
    for h in handles {
        if let Ok(shard) = h.join() {
            out.issued += shard.issued;
            out.ok_lat.extend(shard.ok_lat);
            out.shed_503 += shard.shed_503;
            out.status_4xx += shard.status_4xx;
            out.other_5xx += shard.other_5xx;
            out.failed += shard.failed;
            out.lag.extend(shard.lag);
        }
    }
    out.ok_lat.sort_unstable();
    out.lag.sort_unstable();
    out
}

/// Poll `/api/metrics`, publishing the live epoch and snapshotting the
/// cumulative cube- and response-cache counters at every epoch
/// transition. Returns the transition log and the final counters.
fn poll_metrics(
    addr: SocketAddr,
    epoch_now: &AtomicU64,
    stop: &AtomicBool,
) -> (Vec<EpochSnap>, CacheCounters) {
    let mut client = HttpClient::connect(addr).ok();
    let mut snaps: Vec<EpochSnap> = Vec::new();
    let mut counters = CacheCounters::default();
    let mut last_epoch = u64::MAX;
    while !stop.load(Ordering::Relaxed) {
        let body = match client.as_mut().map(|c| c.get("/api/metrics", &[])) {
            Some(Ok(resp)) if resp.status == 200 => Some(resp.body),
            _ => {
                client = HttpClient::connect(addr).ok();
                None
            }
        };
        if let Some(body) = body {
            let epoch = json_uint_field(&body, "epoch").unwrap_or(0);
            counters.cube_hits = json_uint_field(&body, "cube_hits").unwrap_or(counters.cube_hits);
            counters.cube_misses =
                json_uint_field(&body, "cube_misses").unwrap_or(counters.cube_misses);
            // Cumulative counters are monotone; `max` keeps a transient
            // parse miss from walking them backwards.
            let resp = resp_cache_counters(&body);
            counters.resp_hits = resp.resp_hits.max(counters.resp_hits);
            counters.resp_misses = resp.resp_misses.max(counters.resp_misses);
            epoch_now.store(epoch, Ordering::Relaxed);
            if epoch != last_epoch {
                snaps.push(EpochSnap { epoch, at: Instant::now(), counters });
                last_epoch = epoch;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    (snaps, counters)
}

// ----------------------------------------------------------------- report

/// Admission counters as served by `/api/metrics` (the section is nested,
/// so parse relative to its key).
#[derive(Debug, Default, Clone, Copy)]
struct AdmissionCounters {
    max_active: u64,
    shed_client_cap: u64,
    shed_overload: u64,
}

fn admission_counters(body: &str) -> AdmissionCounters {
    let section = body
        .find("\"admission\"")
        .and_then(|at| body.get(at..))
        .unwrap_or("");
    AdmissionCounters {
        max_active: json_uint_field(section, "max_active").unwrap_or(0),
        shed_client_cap: json_uint_field(section, "shed_client_cap").unwrap_or(0),
        shed_overload: json_uint_field(section, "shed_overload").unwrap_or(0),
    }
}

/// Response-cache hit/miss totals from the nested `"response_cache"`
/// section (its `hits`/`misses` keys are the section's first matches, so
/// parsing relative to the marker is exact).
fn resp_cache_counters(body: &str) -> CacheCounters {
    let section = body
        .find("\"response_cache\"")
        .and_then(|at| body.get(at..))
        .unwrap_or("");
    CacheCounters {
        resp_hits: json_uint_field(section, "hits").unwrap_or(0),
        resp_misses: json_uint_field(section, "misses").unwrap_or(0),
        ..CacheCounters::default()
    }
}

struct EpochRow {
    epoch: u64,
    samples: usize,
    qps: f64,
    p50: u64,
    p99: u64,
    p999: u64,
    shed_503: usize,
    other_err: usize,
    /// Cube-cache hit rate over this epoch's wall window (None when the
    /// poller skipped the epoch between polls, or nothing was served).
    hit_rate: Option<f64>,
    /// Response-cache hit rate over the same window (same None rules).
    resp_hit_rate: Option<f64>,
}

struct Report {
    smoke: bool,
    users: u64,
    workers: usize,
    live_days: i32,
    main_secs: f64,
    budget_ms: u64,
    requests: usize,
    qps: f64,
    ok_p50: u64,
    ok_p99: u64,
    ok_p999: u64,
    ok_max: u64,
    status_2xx: usize,
    status_4xx: usize,
    shed_503: usize,
    other_5xx: usize,
    kind_counts: Vec<(&'static str, usize)>,
    epochs: Vec<EpochRow>,
    epoch_start: u64,
    epoch_end: u64,
    days_published: u64,
    burst_requests: usize,
    burst_shed: usize,
    burst_ok: usize,
    burst_other_5xx: usize,
    burst_shed_p99: u64,
    burst_ok_p99: u64,
    admission: AdmissionCounters,
    /// Server-side response-cache totals after the probe.
    resp_totals: CacheCounters,
    probe: ProbeResult,
    open_loop: OpenLoopResult,
}

#[allow(clippy::too_many_arguments)]
fn build_report(
    p: &Params,
    budget: Duration,
    main_secs: f64,
    main_end: Instant,
    samples: &[Sample],
    burst: &[Sample],
    snaps: &[EpochSnap],
    final_counters: CacheCounters,
    days_published: u64,
    final_epoch: u64,
) -> Report {
    let mut ok: Vec<u64> = Vec::new();
    let (mut s2, mut s4, mut shed, mut s5) = (0usize, 0usize, 0usize, 0usize);
    let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
    for s in samples {
        *kinds.entry(s.kind.label()).or_insert(0) += 1;
        match s.status {
            200..=299 => {
                s2 += 1;
                ok.push(s.micros);
            }
            503 => shed += 1,
            400..=499 => s4 += 1,
            _ => s5 += 1,
        }
    }
    ok.sort_unstable();

    // Per-epoch bins over the observed span; epochs the poller skipped (or
    // that served nothing) still get a row, so the report provably covers
    // the whole span.
    let observed: Vec<u64> =
        samples.iter().map(|s| s.epoch).chain(snaps.iter().map(|s| s.epoch)).collect();
    let epoch_start = observed.iter().copied().min().unwrap_or(0);
    let epoch_end = observed.iter().copied().max().unwrap_or(0).max(final_epoch);
    let mut bins: BTreeMap<u64, Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        bins.entry(s.epoch).or_default().push(s);
    }
    let mut epochs = Vec::new();
    for epoch in epoch_start..=epoch_end {
        let empty = Vec::new();
        let in_epoch = bins.get(&epoch).unwrap_or(&empty);
        let mut lat: Vec<u64> =
            in_epoch.iter().filter(|s| s.status < 300).map(|s| s.micros).collect();
        lat.sort_unstable();
        let shed_503 = in_epoch.iter().filter(|s| s.status == 503).count();
        let other_err =
            in_epoch.iter().filter(|s| s.status >= 300 && s.status != 503).count();
        // Wall window + cache-counter deltas from the poller transition log.
        // The last epoch has no successor transition: its window closes at
        // the end of the main phase (`main_end`), where sampling stopped.
        let found = snaps.iter().enumerate().find(|(_, s)| s.epoch == epoch);
        let (secs, hit_rate, resp_hit_rate) = match found {
            Some((i, cur)) => {
                let (end_t, end_c) = match snaps.get(i + 1) {
                    Some(next) => (Some(next.at), next.counters),
                    None => (Some(main_end), final_counters),
                };
                let secs = end_t.map(|t| t.duration_since(cur.at).as_secs_f64());
                let delta_rate = |h: u64, m: u64, h0: u64, m0: u64| {
                    let (dh, dm) = (h.saturating_sub(h0), m.saturating_sub(m0));
                    if dh + dm > 0 { Some(dh as f64 / (dh + dm) as f64) } else { None }
                };
                let cube = delta_rate(
                    end_c.cube_hits,
                    end_c.cube_misses,
                    cur.counters.cube_hits,
                    cur.counters.cube_misses,
                );
                let resp = delta_rate(
                    end_c.resp_hits,
                    end_c.resp_misses,
                    cur.counters.resp_hits,
                    cur.counters.resp_misses,
                );
                (secs, cube, resp)
            }
            None => (None, None, None),
        };
        let qps = match secs {
            Some(s) if s > 0.0 => in_epoch.len() as f64 / s,
            _ => 0.0,
        };
        epochs.push(EpochRow {
            epoch,
            samples: in_epoch.len(),
            qps,
            p50: pctl(&lat, 0.50),
            p99: pctl(&lat, 0.99),
            p999: pctl(&lat, 0.999),
            shed_503,
            other_err,
            hit_rate,
            resp_hit_rate,
        });
    }

    let mut burst_ok_lat: Vec<u64> = Vec::new();
    let mut burst_shed_lat: Vec<u64> = Vec::new();
    let mut burst_other_5xx = 0usize;
    for s in burst {
        match s.status {
            200..=299 => burst_ok_lat.push(s.micros),
            503 => burst_shed_lat.push(s.micros),
            st if st >= 500 => burst_other_5xx += 1,
            _ => {}
        }
    }
    burst_ok_lat.sort_unstable();
    burst_shed_lat.sort_unstable();

    Report {
        smoke: p.smoke,
        users: p.users,
        workers: p.workers,
        live_days: p.live_days,
        main_secs,
        budget_ms: budget.as_millis() as u64,
        requests: samples.len(),
        qps: if main_secs > 0.0 { samples.len() as f64 / main_secs } else { 0.0 },
        ok_p50: pctl(&ok, 0.50),
        ok_p99: pctl(&ok, 0.99),
        ok_p999: pctl(&ok, 0.999),
        ok_max: ok.last().copied().unwrap_or(0),
        status_2xx: s2,
        status_4xx: s4,
        shed_503: shed,
        other_5xx: s5,
        kind_counts: kinds.into_iter().collect(),
        epochs,
        epoch_start,
        epoch_end,
        days_published,
        burst_requests: burst.len(),
        burst_shed: burst_shed_lat.len(),
        burst_ok: burst_ok_lat.len(),
        burst_other_5xx,
        burst_shed_p99: pctl(&burst_shed_lat, 0.99),
        burst_ok_p99: pctl(&burst_ok_lat, 0.99),
        admission: AdmissionCounters::default(),
        resp_totals: CacheCounters::default(),
        probe: ProbeResult::default(),
        open_loop: OpenLoopResult::default(),
    }
}

fn fmt_us(us: u64) -> String {
    rased_bench::fmt_duration(Duration::from_micros(us))
}

fn print_report(r: &Report) {
    println!(
        "\n# main phase: {} requests in {:.2} s ({:.0} rps aggregate, {} users)",
        r.requests, r.main_secs, r.qps, r.users
    );
    println!(
        "  ok latency: p50 {} | p99 {} | p999 {} | max {}",
        fmt_us(r.ok_p50),
        fmt_us(r.ok_p99),
        fmt_us(r.ok_p999),
        fmt_us(r.ok_max)
    );
    println!(
        "  status mix: {} 2xx, {} 4xx, {} shed-503, {} other-5xx",
        r.status_2xx, r.status_4xx, r.shed_503, r.other_5xx
    );
    let kinds: Vec<String> =
        r.kind_counts.iter().map(|(k, n)| format!("{k} {n}")).collect();
    println!("  request mix: {}", kinds.join(", "));
    let pct = |h: Option<f64>| h.map(|h| format!("{:.1}%", h * 100.0)).unwrap_or_else(|| "-".into());
    println!(
        "\n{:>6} | {:>7} | {:>8} | {:>10} | {:>10} | {:>10} | {:>4} | {:>5} | {:>8} | {:>8}",
        "epoch", "samples", "qps", "p50", "p99", "p999", "503", "err", "cube-hit", "resp-hit"
    );
    println!("{}", "-".repeat(103));
    for e in &r.epochs {
        println!(
            "{:>6} | {:>7} | {:>8.1} | {:>10} | {:>10} | {:>10} | {:>4} | {:>5} | {:>8} | {:>8}",
            e.epoch,
            e.samples,
            e.qps,
            fmt_us(e.p50),
            fmt_us(e.p99),
            fmt_us(e.p999),
            e.shed_503,
            e.other_err,
            pct(e.hit_rate),
            pct(e.resp_hit_rate),
        );
    }
    println!(
        "\n# ingest: {} days published, epochs {} → {}",
        r.days_published, r.epoch_start, r.epoch_end
    );
    println!(
        "# overload burst: {} requests → {} served, {} shed (shed p99 {}, ok p99 {})",
        r.burst_requests,
        r.burst_ok,
        r.burst_shed,
        fmt_us(r.burst_shed_p99),
        fmt_us(r.burst_ok_p99)
    );
    println!(
        "# server admission counters: max_active {}, shed_client_cap {}, shed_overload {}",
        r.admission.max_active, r.admission.shed_client_cap, r.admission.shed_overload
    );
    println!(
        "# cache probe: {} cold misses (p99 {}), {} hits (p99 {}, {}/{} byte-identical)",
        r.probe.miss_lat.len(),
        fmt_us(pctl(&r.probe.miss_lat, 0.99)),
        r.probe.hit_lat.len(),
        fmt_us(pctl(&r.probe.hit_lat, 0.99)),
        r.probe.identical,
        r.probe.hit_lat.len(),
    );
    let total = r.resp_totals.resp_hits + r.resp_totals.resp_misses;
    println!(
        "# response cache totals: {} hits, {} misses ({})",
        r.resp_totals.resp_hits,
        r.resp_totals.resp_misses,
        if total > 0 {
            format!("{:.1}% hit rate", r.resp_totals.resp_hits as f64 / total as f64 * 100.0)
        } else {
            "no keyed requests".into()
        }
    );
    let ol = &r.open_loop;
    let achieved = if ol.secs > 0.0 { ol.issued as f64 / ol.secs } else { 0.0 };
    println!(
        "# open loop: offered {} rps for {:.2} s → {} issued ({:.0} rps achieved), \
         ok p50 {} p99 {}, {} shed, {} 4xx, {} other-5xx, {} failed, lag p99 {}",
        ol.offered_rps,
        ol.secs,
        ol.issued,
        achieved,
        fmt_us(pctl(&ol.ok_lat, 0.50)),
        fmt_us(pctl(&ol.ok_lat, 0.99)),
        ol.shed_503,
        ol.status_4xx,
        ol.other_5xx,
        ol.failed,
        fmt_us(pctl(&ol.lag, 0.99)),
    );
}

fn report_json(r: &Report, p99_bound: Duration, shed_bound: Duration) -> String {
    let mut j = Json::new();
    j.begin_object();
    j.kv_string("bench", "fig13_slo_load");
    j.kv_string("mode", if r.smoke { "smoke" } else { "full" });
    j.kv_uint("seed", SEED);
    j.kv_uint("users", r.users);
    j.kv_uint("workers", r.workers as u64);
    j.kv_uint("budget_ms", r.budget_ms);
    j.key("main_secs").number(r.main_secs);
    j.kv_uint("requests", r.requests as u64);
    j.key("qps").number(r.qps);
    j.key("latency_micros").begin_object();
    j.kv_uint("p50", r.ok_p50);
    j.kv_uint("p99", r.ok_p99);
    j.kv_uint("p999", r.ok_p999);
    j.kv_uint("max", r.ok_max);
    j.end_object();
    j.key("error_mix").begin_object();
    j.kv_uint("status_2xx", r.status_2xx as u64);
    j.kv_uint("status_4xx", r.status_4xx as u64);
    j.kv_uint("shed_503", r.shed_503 as u64);
    j.kv_uint("other_5xx", r.other_5xx as u64);
    j.end_object();
    j.key("request_mix").begin_object();
    for (k, n) in &r.kind_counts {
        j.kv_uint(k, *n as u64);
    }
    j.end_object();
    j.key("ingest").begin_object();
    j.kv_uint("days_published", r.days_published);
    j.kv_uint("epoch_start", r.epoch_start);
    j.kv_uint("epoch_end", r.epoch_end);
    j.end_object();
    j.key("epochs").begin_array();
    for e in &r.epochs {
        j.begin_object();
        j.kv_uint("epoch", e.epoch);
        j.kv_uint("samples", e.samples as u64);
        j.key("qps").number(e.qps);
        j.kv_uint("p50_micros", e.p50);
        j.kv_uint("p99_micros", e.p99);
        j.kv_uint("p999_micros", e.p999);
        j.kv_uint("shed_503", e.shed_503 as u64);
        j.kv_uint("other_err", e.other_err as u64);
        match e.hit_rate {
            Some(h) => j.key("cache_hit_rate").number(h),
            None => j.key("cache_hit_rate").null(),
        };
        match e.resp_hit_rate {
            Some(h) => j.key("resp_cache_hit_rate").number(h),
            None => j.key("resp_cache_hit_rate").null(),
        };
        j.end_object();
    }
    j.end_array();
    j.key("admission").begin_object();
    j.kv_uint("max_active", r.admission.max_active);
    j.kv_uint("shed_client_cap", r.admission.shed_client_cap);
    j.kv_uint("shed_overload", r.admission.shed_overload);
    j.end_object();
    j.key("overload").begin_object();
    j.kv_uint("requests", r.burst_requests as u64);
    j.kv_uint("served", r.burst_ok as u64);
    j.kv_uint("shed_503", r.burst_shed as u64);
    j.kv_uint("other_5xx", r.burst_other_5xx as u64);
    j.kv_uint("shed_p99_micros", r.burst_shed_p99);
    j.kv_uint("ok_p99_micros", r.burst_ok_p99);
    j.end_object();
    j.key("response_cache").begin_object();
    j.kv_uint("hits", r.resp_totals.resp_hits);
    j.kv_uint("misses", r.resp_totals.resp_misses);
    j.kv_uint("probe_misses", r.probe.miss_lat.len() as u64);
    j.kv_uint("probe_hits", r.probe.hit_lat.len() as u64);
    j.kv_uint("probe_identical", r.probe.identical as u64);
    j.kv_uint("probe_miss_p50_micros", pctl(&r.probe.miss_lat, 0.50));
    j.kv_uint("probe_miss_p99_micros", pctl(&r.probe.miss_lat, 0.99));
    j.kv_uint("probe_hit_p50_micros", pctl(&r.probe.hit_lat, 0.50));
    j.kv_uint("probe_hit_p99_micros", pctl(&r.probe.hit_lat, 0.99));
    j.end_object();
    // Appended after every pre-existing section: the perf-gate parser
    // (`bench_compare`) reads the *first* `qps`/`p99` in the document, so
    // new trailing sections never perturb the compared point.
    let ol = &r.open_loop;
    j.key("open_loop").begin_object();
    j.kv_uint("offered_rps", ol.offered_rps);
    j.key("duration_secs").number(ol.secs);
    j.kv_uint("issued", ol.issued as u64);
    j.key("achieved_rps").number(if ol.secs > 0.0 { ol.issued as f64 / ol.secs } else { 0.0 });
    j.kv_uint("ok", ol.ok_lat.len() as u64);
    j.kv_uint("ok_p50_micros", pctl(&ol.ok_lat, 0.50));
    j.kv_uint("ok_p99_micros", pctl(&ol.ok_lat, 0.99));
    j.kv_uint("shed_503", ol.shed_503 as u64);
    j.kv_uint("status_4xx", ol.status_4xx as u64);
    j.kv_uint("other_5xx", ol.other_5xx as u64);
    j.kv_uint("failed", ol.failed as u64);
    j.kv_uint("lag_p50_micros", pctl(&ol.lag, 0.50));
    j.kv_uint("lag_p99_micros", pctl(&ol.lag, 0.99));
    j.end_object();
    j.key("slo").begin_object();
    j.kv_uint("p99_bound_micros", p99_bound.as_micros() as u64);
    j.kv_uint("shed_p99_bound_micros", shed_bound.as_micros() as u64);
    j.end_object();
    j.end_object();
    let mut s = j.finish();
    s.push('\n');
    s
}

/// The gate: print every violated SLO and exit non-zero on any.
fn enforce_slos(
    r: &Report,
    p99_bound: Duration,
    shed_bound: Duration,
) -> Result<(), Box<dyn Error>> {
    let mut violations: Vec<String> = Vec::new();
    let p99_bound_us = p99_bound.as_micros() as u64;
    let shed_bound_us = shed_bound.as_micros() as u64;
    if r.other_5xx > 0 || r.burst_other_5xx > 0 || r.open_loop.other_5xx > 0 {
        violations.push(format!(
            "non-503 5xx responses: {} main, {} burst, {} open-loop (want 0)",
            r.other_5xx, r.burst_other_5xx, r.open_loop.other_5xx
        ));
    }
    if r.open_loop.issued == 0 {
        violations.push("open-loop phase issued no requests".to_string());
    } else if r.open_loop.ok_lat.is_empty() {
        violations.push("open-loop phase got no successful responses".to_string());
    }
    if r.status_2xx == 0 {
        violations.push("no successful requests in the main phase".to_string());
    }
    if r.ok_p99 > p99_bound_us {
        violations.push(format!(
            "main-phase p99 {} exceeds bound {}",
            fmt_us(r.ok_p99),
            fmt_us(p99_bound_us)
        ));
    }
    if r.burst_shed == 0 {
        violations.push("overload burst produced no shed 503s — admission control inert".into());
    } else if r.burst_shed_p99 > shed_bound_us {
        violations.push(format!(
            "shed-path p99 {} exceeds bound {} — 503s are not cheap",
            fmt_us(r.burst_shed_p99),
            fmt_us(shed_bound_us)
        ));
    }
    // Gate 5: the response cache must be live, correct, and fast.
    if r.resp_totals.resp_hits == 0 {
        violations.push("response cache recorded no hits over the whole run".into());
    }
    if r.probe.hit_lat.is_empty() {
        violations.push("cache probe recorded no hit samples".into());
    } else {
        if r.probe.identical != r.probe.hit_lat.len() {
            violations.push(format!(
                "cache hits not byte-identical to the cold render: {} of {}",
                r.probe.identical,
                r.probe.hit_lat.len()
            ));
        }
        let (hit_p99, miss_p99) = (pctl(&r.probe.hit_lat, 0.99), pctl(&r.probe.miss_lat, 0.99));
        if hit_p99 >= miss_p99 {
            violations.push(format!(
                "cache hit-path p99 {} not below miss-path p99 {}",
                fmt_us(hit_p99),
                fmt_us(miss_p99)
            ));
        }
    }
    if r.days_published < r.live_days as u64 {
        violations.push(format!(
            "ingest published {} of {} queued days",
            r.days_published, r.live_days
        ));
    }
    if r.epoch_end <= r.epoch_start {
        violations.push("epoch never advanced during the run".to_string());
    }
    let span = (r.epoch_end - r.epoch_start + 1) as usize;
    if r.epochs.len() != span {
        violations.push(format!(
            "per-epoch report covers {} of {} epochs in span",
            r.epochs.len(),
            span
        ));
    }
    if violations.is_empty() {
        println!("\nSLO gates: all passed");
        Ok(())
    } else {
        for v in &violations {
            println!("SLO VIOLATION: {v}");
        }
        Err(format!("{} SLO gate(s) failed", violations.len()).into())
    }
}
