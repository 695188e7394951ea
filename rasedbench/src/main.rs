//! The RASED benchmark.
//!
//! ```text
//! rasedbench --workload <browse_hot|explore_cold|ingest_live> --seed N \
//!            --seconds S --trace <0|1>
//! ```
//!
//! One run generates its inputs from the seed, sets a store up from an
//! empty directory (three times with `--trace 0`, reporting the median),
//! serves it through the real `DashboardServer` with the default
//! `ServerConfig`, and drives the workload over HTTP from this process
//! with at most `min(nproc, 2)` client threads and connections: a light
//! phase (one request in flight), a phase at the workload's nominal fixed
//! rate, and a rising-rate search for the highest rate that meets the
//! workload's p99 limit. Reads are open loop and timed from their
//! scheduled send. Answers are checked against the record-scan oracle
//! after the timed window. The run ends with live days handed to the
//! server (during the window on `ingest_live`, after it otherwise).
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! measured run plus a traced in-process replay of the same sequence on
//! a private copy of the store, and prints the per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Working files go under `.rasedbench_work/` and span dumps under
//! `.rasedbench_out/`, both relative to the current directory.

mod check;
mod gen;
mod jsonr;
mod load;
mod system;
mod trace;
mod window;

use gen::{BrowseGen, ExploreGen, Kind, Req};
use load::Sample;
use rased_bench::harness::percentile;
use rased_bench::workload::Vocab;
use std::collections::BTreeMap;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use system::{Inputs, LiveFeed, Served};
use window::{quietest, Gen, Measured, Sequence};

type Res<T> = Result<T, Box<dyn Error>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    BrowseHot,
    ExploreCold,
    IngestLive,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "browse_hot" => Some(Workload::BrowseHot),
            "explore_cold" => Some(Workload::ExploreCold),
            "ingest_live" => Some(Workload::IngestLive),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::BrowseHot => "browse_hot",
            Workload::ExploreCold => "explore_cold",
            Workload::IngestLive => "ingest_live",
        }
    }
}

/// A workload's fixed load shape.
pub struct Spec {
    /// Light phase: one request in flight at this rate (req/s).
    pub light_rate: f64,
    /// Nominal phase rate (req/s) over all client threads.
    pub nominal_rate: f64,
    /// First rate of the limit search, and the factor between its steps.
    pub ramp_start: f64,
    pub ramp_factor: f64,
    /// The p99 latency limit, ms.
    pub p99_limit_ms: f64,
    /// Fewest requests of the sequence the traced run replays (it always
    /// covers the light phase).
    pub replay: usize,
    /// Untimed requests at the nominal rate before the light phase, s.
    pub warmup_secs: f64,
}

impl Spec {
    /// The search never offers more than this (req/s).
    pub fn max_rate(&self) -> f64 {
        self.ramp_start * self.ramp_factor.powi(5)
    }
}

fn spec(w: Workload) -> Spec {
    match w {
        Workload::BrowseHot => Spec {
            light_rate: 200.0,
            nominal_rate: 2000.0,
            ramp_start: 4000.0,
            ramp_factor: 1.5,
            p99_limit_ms: 50.0,
            replay: 2_000,
            warmup_secs: 1.0,
        },
        Workload::ExploreCold => Spec {
            light_rate: 100.0,
            nominal_rate: 300.0,
            ramp_start: 800.0,
            ramp_factor: 1.5,
            p99_limit_ms: 100.0,
            replay: 300,
            warmup_secs: 0.0,
        },
        Workload::IngestLive => Spec {
            light_rate: 200.0,
            nominal_rate: 300.0,
            ramp_start: 1500.0,
            ramp_factor: 1.5,
            p99_limit_ms: 100.0,
            replay: 2_000,
            warmup_secs: 1.0,
        },
    }
}

/// Shares of `--seconds` for the light, nominal and search phases.
const SHARES: (f64, f64) = (0.1, 0.5);
/// Live days: one is handed over every `DAY_PERIOD`; runs that do not
/// stream during the window hand `PROBE_DAYS` over after it.
const DAY_PERIOD: Duration = Duration::from_millis(100);
const PROBE_DAYS: usize = 16;
/// Set-ups per `--trace 0` run (the median is reported).
const SETUPS: usize = 3;
/// Untraced/traced replay pairs behind `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: get("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rasedbench: {e}");
            eprintln!("usage: rasedbench --workload <browse_hot|explore_cold|ingest_live> --seed N --seconds S --trace <0|1>");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".rasedbench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(report) => {
            println!("{}", report.json());
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("rasedbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One metric value with its unit.
struct Metric {
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    trace_ok: bool,
    metrics: BTreeMap<&'static str, Metric>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("{name:<34} {value:>14.4} {unit}");
        self.metrics.insert(name, Metric { value, unit });
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.trace_ok
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, m)| {
                format!(
                    "\"{k}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// `p`-th percentile of latencies in ms with its sample count, or `None`
/// unless at least ten samples lie beyond it. Failed requests count as
/// missing every limit (infinite latency).
fn pctl_ms(samples: &[&Sample], p: f64) -> Option<(f64, usize)> {
    let mut us: Vec<u64> = samples
        .iter()
        .map(|s| if s.ok() { s.latency_us } else { u64::MAX })
        .collect();
    us.sort_unstable();
    let n = us.len();
    let rank = (p * n as f64).ceil() as usize;
    if n < 10 || n - rank.min(n) < 10 {
        return None;
    }
    percentile(&us, p).map(|v| (v as f64 / 1e3, n))
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (s, n) = it.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        s / n as f64
    }
}

/// The workload's request stream.
fn sequence(w: Workload, seed: u64, vocab: Vocab, inputs: &Inputs) -> Sequence {
    let gen = match w {
        Workload::ExploreCold => Gen::Explore(ExploreGen::new(seed, vocab, inputs.anchors(512))),
        Workload::BrowseHot | Workload::IngestLive => Gen::Browse(BrowseGen::new(seed, vocab)),
    };
    Sequence {
        gen,
        reqs: Vec::new(),
    }
}

fn metrics_doc(addr: std::net::SocketAddr) -> Res<jsonr::Value> {
    Ok(jsonr::Value::parse(&load::get_once(addr, "/api/metrics")?)?)
}

fn run(args: &Args, work: &Path) -> Res<Report> {
    let sp = spec(args.workload);
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let streaming = args.workload == Workload::IngestLive;
    let stream_secs = args.seconds * (1.0 - SHARES.0) + 10.0;
    let live_days = if streaming {
        (stream_secs / DAY_PERIOD.as_secs_f64()).ceil() as i32
    } else {
        PROBE_DAYS as i32
    };
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work)?;
    let inputs = Inputs::generate(work, args.seed, live_days)?;

    // Set-up, from an empty directory to the first answered request. The
    // measured window runs on the first set-up; with `--trace 0` further
    // set-ups are timed after it, so their store deletions stay out of
    // the window.
    let (served, took) = Served::setup(&work.join("store"), &inputs.base)?;
    let mut setup_s = vec![took.as_secs_f64()];
    let rows = served.system.warehouse().row_count();
    let disk = system::disk_bytes(&served.dir)?;

    let sys = &served.system;
    let vocab = Vocab {
        range: system::base_range()?,
        countries: sys
            .countries()
            .ids()
            .filter_map(|id| sys.countries().code(id).map(str::to_string))
            .collect(),
        roads: sys
            .roads()
            .ids()
            .filter_map(|id| sys.roads().value(id).map(str::to_string))
            .collect(),
    };
    let mut seq = sequence(args.workload, args.seed, vocab, &inputs);
    let mut feed = LiveFeed::new(&inputs.live, &work.join("live"))?;

    let mut m = window::measure(
        &sp,
        args.seconds,
        SHARES,
        &served,
        &mut seq,
        &mut feed,
        threads,
        streaming,
    )?;
    let reqs = seq.reqs;
    let mut report = Report {
        trace_ok: true,
        ..Report::default()
    };
    if streaming && !feed.drain(&served.ingest, Duration::from_secs(60)) {
        report.failed += (feed.handed.len() - feed.visible.len()) as u64;
    }
    m.m_end = Some(metrics_doc(served.addr)?);

    // Checks, after the timed window.
    let mut failures = m.all().filter(|s| !s.ok()).count() as u64;
    let mismatches = check::run(
        sys,
        &reqs,
        m.all(),
        args.workload == Workload::ExploreCold,
        args.workload == Workload::BrowseHot,
        args.seed,
        system::base_range()?,
    )?;
    failures += mismatches;
    report.attempted += m.all().count() as u64;

    // Live days after the window, on the quiet server.
    if !streaming {
        let t0 = Instant::now();
        for k in 0..PROBE_DAYS {
            let due = t0 + DAY_PERIOD * k as u32;
            while Instant::now() < due {
                feed.poll(&served.ingest);
                std::thread::sleep(Duration::from_micros(200));
            }
            feed.hand(&served.ingest)?;
        }
        if !feed.drain(&served.ingest, Duration::from_secs(60)) {
            failures += (feed.handed.len() - feed.visible.len()) as u64;
        }
    }
    report.attempted += feed.handed.len() as u64;
    report.failed += failures;
    let freshness = median(&mut feed.freshness_ms());
    let days_per_s = feed.days_per_writer_s();
    let queue_wait = median(&mut feed.queue_wait_ms());
    let handed_days: Vec<rased_temporal::Date> = feed.handed_days().to_vec();
    let live_dir = work.join("live");
    served.teardown()?;
    if !args.trace {
        for _ in 1..SETUPS {
            let (s, took) = Served::setup(&work.join("store"), &inputs.base)?;
            setup_s.push(took.as_secs_f64());
            s.teardown()?;
        }
    }
    eprintln!("set-ups: {setup_s:?} s");
    println!(
        "# {} seed {} | rows {} | {} requests ({} light windows, {} nominal windows, {} search) | {} live days | failures {}",
        args.workload.name(),
        args.seed,
        rows,
        m.all().count(),
        m.light.len(),
        m.nominal.len(),
        m.search.len(),
        handed_days.len(),
        failures
    );

    if !args.trace {
        let quiet_nominal = quietest(&m.nominal)?;
        let quiet_light = quietest(&m.light)?;
        let nominal: Vec<&Sample> = quiet_nominal
            .iter()
            .flat_map(|w| w.samples.iter())
            .collect();
        let light: Vec<&Sample> = quiet_light.iter().flat_map(|w| w.samples.iter()).collect();
        let (p50, n50) = pctl_ms(&nominal, 0.50).ok_or("too few nominal samples for p50")?;
        let (l50, nl) = pctl_ms(&light, 0.50).ok_or("too few light samples for p50")?;
        let (p99, n99) = nominal_p99(&m);
        println!(
            "# over the quietest quarter of each phase's windows: p50_ms over {n50} samples, client.light_p50_ms over {nl}"
        );
        println!(
            "# p99 limit {} ms, generator lag p99 {} us, CPU stolen by the hypervisor {:.1}%",
            sp.p99_limit_ms, m.gen_lag_p99_us, m.steal_pct
        );
        report.put("setup_s", median(&mut setup_s), "s");
        report.put("p50_ms", p50, "ms");
        report.put("modeled_io_ms_per_req", modeled_io_ms(&m), "ms");
        report.put("rss_peak_mb", m.rss_peak_mb, "MiB");
        report.put("disk_bytes_per_row", disk as f64 / rows.max(1) as f64, "B");
        println!("# unbounded on a shared host (reported with --trace 1 too):");
        println!(
            "#   client.light_p50_ms {l50:.4} ms over {nl} samples, client.p99_ms {p99:.4} ms over {n99} samples,"
        );
        println!("#   client.slo_rps {:.1} 1/s,", m.slo_rps);
        println!("#   ingest.days_per_s {days_per_s:.2} days/s, ingest.freshness_p50_ms {freshness:.4} ms");
        return Ok(report);
    }

    layer_metrics(&mut report, &m, &reqs, queue_wait)?;
    // End-to-end figures that do not repeat within a bound on a shared
    // host (they move with the CPU time the hypervisor steals): reported
    // here, unbounded.
    let quiet_light = quietest(&m.light)?;
    let light: Vec<&Sample> = quiet_light.iter().flat_map(|w| w.samples.iter()).collect();
    let l50 = pctl_ms(&light, 0.50)
        .ok_or("too few light samples for p50")?
        .0;
    report.put("client.light_p50_ms", l50, "ms");
    report.put("client.p99_ms", nominal_p99(&m).0, "ms");
    report.put("client.slo_rps", m.slo_rps, "1/s");
    report.put("ingest.days_per_s", days_per_s, "days/s");
    report.put("ingest.freshness_p50_ms", freshness, "ms");
    traced(
        &mut report,
        args,
        &sp,
        &inputs,
        &reqs,
        &m,
        &handed_days,
        &live_dir,
        work,
    )?;
    Ok(report)
}

/// p99 of the nominal phase over the windows the generator kept up in
/// (all windows when those hold fewer than ten samples beyond it), with
/// its sample count.
fn nominal_p99(m: &Measured) -> (f64, usize) {
    let samples = |valid_only: bool| -> Vec<&Sample> {
        let windows = m.nominal.iter().filter(|w| w.lag_ok || !valid_only);
        windows.flat_map(|w| w.samples.iter()).collect()
    };
    pctl_ms(&samples(true), 0.99)
        .or_else(|| pctl_ms(&samples(false), 0.99))
        .unwrap_or((0.0, 0))
}

/// Mean modeled critical-path I/O per rendered `/api/analysis` answer of
/// the measured window: an answer whose exact bytes were already served
/// is a replay of an earlier render and is not counted again.
fn modeled_io_ms(m: &Measured) -> f64 {
    let mut seen = std::collections::HashSet::new();
    mean(
        m.all()
            .filter(|s| s.stats.is_some() && seen.insert(s.body_hash))
            .map(|s| s.stats.map_or(0.0, |st| st.io_critical_us) / 1e3),
    )
}

/// Per-layer counts from the measured run: `/api/metrics` deltas and the
/// answers' `stats` objects (renders only; replays of cached bytes repeat
/// an earlier render's numbers).
fn layer_metrics(r: &mut Report, m: &Measured, reqs: &[Req], queue_wait_ms: f64) -> Res<()> {
    let (Some(a), Some(l), Some(b)) = (&m.m_start, &m.m_light, &m.m_end) else {
        return Err("missing /api/metrics snapshots".into());
    };
    let d = |path: &str| -> Res<f64> { Ok(b.req(path)? - a.req(path)?) };
    let ratio = |h: f64, miss: f64| if h + miss > 0.0 { h / (h + miss) } else { 0.0 };

    // Event loop: client latency (from the actual send) minus the latency
    // the server records, over the light phase. The snapshot request taken
    // before the phase is recorded inside the delta; it is subtracted.
    let served_n = l.req("requests.total")? - a.req("requests.total")? - 1.0;
    let served_us = l.req("latency_micros.total")? - a.req("latency_micros.total")?;
    let client_us: f64 = m.light_samples().map(|s| s.service_us as f64).sum();
    r.put(
        "evloop.outside_server_us",
        (client_us - served_us) / served_n.max(1.0),
        "us",
    );
    r.put("workers.max_busy", b.req("workers.max_busy")?, "count");
    r.put(
        "respcache.hit_ratio",
        ratio(d("response_cache.hits")?, d("response_cache.misses")?),
        "ratio",
    );
    r.put(
        "respcache.invalidations",
        d("response_cache.invalidations")?,
        "count",
    );
    r.put("respcache.bytes", b.req("response_cache.bytes")?, "B");
    r.put(
        "admission.shed",
        d("admission.shed_client_cap")? + d("admission.shed_overload")?,
        "count",
    );
    r.put(
        "cubecache.hit_ratio",
        ratio(d("cache.cube_hits")?, d("cache.cube_misses")?),
        "ratio",
    );
    r.put(
        "bank.block_hit_ratio",
        ratio(
            d("spatial.block_cache_hits")?,
            d("spatial.block_cache_misses")?,
        ),
        "ratio",
    );
    r.put(
        "api.response_bytes",
        mean(m.all().map(|s| s.bytes as f64)),
        "B",
    );

    let mut seen = std::collections::HashSet::new();
    let renders: Vec<(Kind, load::Stats)> = m
        .all()
        .filter_map(|s| Some((reqs.get(s.seq)?.kind, s.stats?, s.body_hash)))
        .filter(|(_, _, h)| seen.insert(*h))
        .map(|(k, st, _)| (k, st))
        .collect();
    let over = |f: &dyn Fn(&load::Stats) -> f64, kinds: &[Kind]| {
        mean(
            renders
                .iter()
                .filter(|(k, _)| kinds.contains(k))
                .map(|(_, st)| f(st)),
        )
    };
    let any = [Kind::Analysis, Kind::Viewport];
    r.put("engine.wall_us", over(&|s| s.wall_us, &any), "us");
    r.put(
        "planner.cubes_per_req",
        over(&|s| s.cubes, &[Kind::Analysis]),
        "count",
    );
    r.put(
        "storage.reads_per_req",
        over(&|s| s.physical_reads, &any),
        "count",
    );
    r.put(
        "storage.modeled_io_us_per_req",
        over(&|s| s.modeled_io_us, &any),
        "us",
    );
    r.put(
        "bank.blocks_per_req",
        over(&|s| s.blocks, &[Kind::Viewport]),
        "count",
    );
    r.put(
        "bank.scan_rows_per_req",
        over(&|s| s.scan_rows, &[Kind::Viewport]),
        "count",
    );
    r.put(
        "warehouse.scan_rows",
        renders.iter().map(|(_, s)| s.scan_rows).sum(),
        "count",
    );
    r.put("ingest.queue_wait_ms", queue_wait_ms, "ms");
    r.put("client.gen_lag_p99_us", m.gen_lag_p99_us as f64, "us");
    r.put("machine.steal_pct", m.steal_pct, "%");
    Ok(())
}

/// The traced replay on a private copy of the store.
#[allow(clippy::too_many_arguments)]
fn traced(
    r: &mut Report,
    args: &Args,
    sp: &Spec,
    inputs: &Inputs,
    reqs: &[Req],
    m: &Measured,
    days: &[rased_temporal::Date],
    live_dir: &Path,
    work: &Path,
) -> Res<()> {
    let sys = system::build_store(&work.join("trace_store"), &inputs.base)?;
    // The replay covers the light phase, whose one-in-flight HTTP
    // latencies it is compared with.
    let light_end = m.light_start + m.light_samples().count();
    let replay = reqs
        .get(..sp.replay.max(light_end).min(reqs.len()))
        .unwrap_or_default();
    let mut t = trace::Tracer::new(true);
    let totals = trace::replay_requests(&sys, replay, &mut t)?;
    let live = rased_osm_gen::Dataset::load_manifest(live_dir)?;
    let day_counts = trace::replay_days(&sys, &live, days, &mut t)?;

    // Overhead: the same requests with spans off and on, alternating; the
    // median pass of each.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PAIRS {
        off.push(
            trace::replay_requests(&sys, replay, &mut trace::Tracer::new(false))?
                .iter()
                .sum::<u64>() as f64,
        );
        on.push(
            trace::replay_requests(&sys, replay, &mut trace::Tracer::new(true))?
                .iter()
                .sum::<u64>() as f64,
        );
    }
    let (off, on) = (median(&mut off), median(&mut on));

    let a = trace::attribute(&t.spans);
    let out = PathBuf::from(".rasedbench_out").join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    t.write_jsonl(&out)?;
    println!("# spans written to {}", out.display());

    // The invariant: per request or day, layer self times plus the
    // unattributed remainder equal the total.
    for &(name, id, total, layers, own) in &a.roots {
        if layers + own != total {
            eprintln!("trace attribution broken for {name} {id}: {layers} + {own} != {total}");
            r.trace_ok = false;
        }
    }
    let per = |name: &str| -> f64 {
        a.self_ns
            .get(name)
            .map_or(0.0, |&(ns, n)| ns as f64 / n.max(1) as f64 / 1e3)
    };
    let requests: Vec<_> = a.roots.iter().filter(|x| x.0 == "request").collect();
    let n_req = requests.len().max(1) as f64;
    let kind_of = |id: u32| reqs.get(id as usize).map(|q| q.kind);
    let span_mean = |name: &str, kind: Kind| {
        mean(
            t.spans
                .iter()
                .filter(|s| s.name == name && kind_of(s.req) == Some(kind))
                .map(|s| (s.end - s.start) as f64 / 1e3),
        )
    };
    let parse_ns: u64 = ["api.parse_qs", "api.parse"]
        .iter()
        .filter_map(|k| a.self_ns.get(k))
        .map(|x| x.0)
        .sum();
    r.put("api.parse_us", parse_ns as f64 / n_req / 1e3, "us");
    r.put("api.render_us", per("api.render"), "us");
    r.put("respcache.lookup_us", per("respcache.lookup"), "us");
    r.put("respcache.flight_us", per("respcache.render_through"), "us");
    r.put("engine.execute_us", per("engine.execute"), "us");
    r.put(
        "planner.plan_us",
        mean(
            t.spans
                .iter()
                .filter(|s| s.name == "planner.plan")
                .map(|s| (s.end - s.start) as f64 / 1e3),
        ),
        "us",
    );
    r.put(
        "bank.fetch_us",
        span_mean("engine.execute", Kind::Viewport),
        "us",
    );
    r.put("warehouse.sample_us", per("warehouse.sample"), "us");
    r.put(
        "trace.unattributed_us",
        requests.iter().map(|x| x.4 as f64).sum::<f64>() / n_req / 1e3,
        "us",
    );
    r.put("trace.overhead_pct", (on - off) / off.max(1.0) * 100.0, "%");
    // HTTP latency (from the actual send) minus the replay total, over the
    // light phase's one-in-flight requests.
    let cross = mean(m.light_samples().filter_map(|s| {
        totals
            .get(s.seq)
            .map(|&ns| s.service_us as f64 - ns as f64 / 1e3)
    }));
    r.put("trace.http_minus_replay_us", cross, "us");
    let nd = day_counts.len().max(1) as f64;
    r.put("crawl.us_per_day", per("crawl"), "us");
    r.put(
        "crawl.records_per_day",
        day_counts.iter().map(|d| d.records as f64).sum::<f64>() / nd,
        "count",
    );
    r.put("warehouse.insert_us_per_day", per("warehouse.insert"), "us");
    r.put("warehouse.flush_us_per_day", per("warehouse.flush"), "us");
    r.put("index.publish_us_per_day", per("index.publish"), "us");
    r.put(
        "index.maintenance_ops_per_day",
        day_counts
            .iter()
            .map(|d| d.maintenance_ops as f64)
            .sum::<f64>()
            / nd,
        "count",
    );
    r.put("bank.publish_us_per_day", per("bank.publish"), "us");
    drop(sys);
    std::fs::remove_dir_all(work.join("trace_store"))?;
    Ok(())
}
