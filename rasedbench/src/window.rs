//! The measured window: a light phase, a nominal phase and the rate
//! search, all open loop.
//!
//! The light and nominal phases run as consecutive windows of fixed size;
//! around each window the machine's CPU time stolen by the hypervisor is
//! read from `/proc/stat`. Latency figures come from the quietest quarter
//! of a phase's windows (those with the least stolen time), so a noisy
//! neighbour on a shared host moves the windows it hits rather than the
//! figure. A window in which the generator fell behind its bound never
//! counts; a phase in which that happens to every window makes the run
//! invalid.

use crate::gen::{BrowseGen, ExploreGen, Req};
use crate::load::{self, Phase, Sample};
use crate::system::{LiveFeed, Served};
use crate::{jsonr, metrics_doc, Spec, DAY_PERIOD};
use rased_bench::harness::percentile;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// A phase's generator lag bound, µs.
const GEN_LAG_BOUND_US: u64 = 5_000;
/// Latency figures use the quietest `1 / QUIET_SHARE` of a phase's
/// windows. Short windows let that share avoid more of the hypervisor's
/// bursts: a nominal window lasts `NOMINAL_WINDOW_SECS` (at least
/// `MIN_NOMINAL_WINDOW` requests), a light window holds `LIGHT_WINDOW`.
const QUIET_SHARE: usize = 4;
const NOMINAL_WINDOW_SECS: f64 = 0.25;
const MIN_NOMINAL_WINDOW: usize = 100;
const LIGHT_WINDOW: usize = 50;
/// The nominal phase holds at least this many requests: ten beyond the
/// p99 of the windows the generator kept up in, when at least half of
/// them are.
const MIN_NOMINAL: usize = 2_000;
/// Length of one step of the rate search.
const STEP_SECS: f64 = 1.0;

/// A workload's request generator.
pub enum Gen {
    Browse(BrowseGen),
    Explore(ExploreGen),
}

/// The workload's request stream, generated as far as it is consumed.
pub struct Sequence {
    pub gen: Gen,
    pub reqs: Vec<Req>,
}

impl Sequence {
    /// The requests `at..at + n`, generating them first if needed.
    fn take(&mut self, at: usize, n: usize) -> &[Req] {
        while self.reqs.len() < at + n {
            let req = match &mut self.gen {
                Gen::Browse(g) => g.next_req(),
                Gen::Explore(g) => g.next_req(),
            };
            self.reqs.push(req);
        }
        self.reqs.get(at..at + n).unwrap_or_default()
    }
}

/// The machine's `/proc/stat` CPU tick counters: user, nice, system,
/// idle, iowait, irq, softirq, steal.
fn cpu_ticks() -> Vec<i64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .take(8)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
        })
        .unwrap_or_default()
}

/// Share of CPU time stolen between two tick readings, %.
fn steal_pct(before: &[i64], after: &[i64]) -> f64 {
    let d: Vec<i64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    d.get(7).map_or(0.0, |&st| {
        st as f64 * 100.0 / d.iter().sum::<i64>().max(1) as f64
    })
}

/// One window of a fixed-rate phase.
pub struct Window {
    pub samples: Vec<Sample>,
    pub steal_pct: f64,
    pub lag_ok: bool,
}

/// The generator lag of a set of samples at p99, or at the highest
/// percentile with ten samples beyond it when there are fewer, µs.
fn gen_lag_p99(samples: &[Sample]) -> u64 {
    let mut lag: Vec<u64> = samples.iter().map(|s| s.gen_lag_us).collect();
    lag.sort_unstable();
    let p = (1.0 - 10.0 / lag.len().max(1) as f64).clamp(0.0, 0.99);
    percentile(&lag, p).unwrap_or(0)
}

/// The quietest share of a phase's windows, least stolen CPU time first,
/// among those the generator kept up in: a window in which it fell behind
/// is left out, never averaged in, and a phase with no such window left
/// makes the run invalid.
pub fn quietest(windows: &[Window]) -> Result<Vec<&Window>, String> {
    let mut ok: Vec<&Window> = windows.iter().filter(|w| w.lag_ok).collect();
    if ok.is_empty() {
        return Err(format!(
            "the generator fell behind its {GEN_LAG_BOUND_US} us bound in all {} windows of a phase; run invalid",
            windows.len()
        ));
    }
    ok.sort_by(|a, b| a.steal_pct.total_cmp(&b.steal_pct));
    ok.truncate(windows.len().div_ceil(QUIET_SHARE));
    Ok(ok)
}

/// Everything the measured window produced.
#[derive(Default)]
pub struct Measured {
    pub warmup: Vec<Sample>,
    pub light: Vec<Window>,
    pub nominal: Vec<Window>,
    pub search: Vec<Sample>,
    pub slo_rps: f64,
    pub rss_peak_mb: f64,
    pub gen_lag_p99_us: u64,
    /// Share of the machine's CPU time stolen by the hypervisor over the
    /// whole window, %.
    pub steal_pct: f64,
    /// Sequence number of the light phase's first request.
    pub light_start: usize,
    /// `/api/metrics` before and after the light phase, and at the end.
    pub m_start: Option<jsonr::Value>,
    pub m_light: Option<jsonr::Value>,
    pub m_end: Option<jsonr::Value>,
}

impl Measured {
    pub fn all(&self) -> impl Iterator<Item = &Sample> {
        let windows = self.light.iter().chain(&self.nominal);
        self.warmup
            .iter()
            .chain(windows.flat_map(|w| w.samples.iter()))
            .chain(&self.search)
    }

    pub fn light_samples(&self) -> impl Iterator<Item = &Sample> {
        self.light.iter().flat_map(|w| w.samples.iter())
    }
}

/// Run `windows` windows of `per` requests each at `rate`.
fn run_windows(
    served: &Served,
    seq: &mut Sequence,
    next: &mut usize,
    windows: usize,
    per: usize,
    rate: f64,
    threads: usize,
) -> Vec<Window> {
    (0..windows)
        .map(|_| {
            let reqs = seq.take(*next, per);
            let cpu0 = cpu_ticks();
            let samples = load::run(
                served.addr,
                &Phase {
                    reqs,
                    first_seq: *next,
                    rate,
                    threads,
                },
                Instant::now(),
            );
            let steal = steal_pct(&cpu0, &cpu_ticks());
            *next += per;
            let lag = gen_lag_p99(&samples);
            Window {
                samples,
                steal_pct: steal,
                lag_ok: lag <= GEN_LAG_BOUND_US,
            }
        })
        .collect()
}

/// One step of the rate search: its p99 (µs, failures infinite), the
/// median send lateness of its last quarter (µs; a growing backlog), and
/// whether it is valid (generator on time).
fn step(
    served: &Served,
    seq: &mut Sequence,
    next: &mut usize,
    rate: f64,
    threads: usize,
) -> (Vec<Sample>, u64, u64, bool) {
    let n = (rate * STEP_SECS).ceil() as usize;
    let reqs = seq.take(*next, n);
    let samples = load::run(
        served.addr,
        &Phase {
            reqs,
            first_seq: *next,
            rate,
            threads,
        },
        Instant::now(),
    );
    *next += n;
    let mut lat: Vec<u64> = samples
        .iter()
        .map(|s| if s.ok() { s.latency_us } else { u64::MAX })
        .collect();
    lat.sort_unstable();
    let p99 = percentile(&lat, 0.99).unwrap_or(u64::MAX);
    let mut tail: Vec<u64> = samples
        .get(samples.len() - samples.len() / 4..)
        .unwrap_or_default()
        .iter()
        .map(|s| s.send_late_us)
        .collect();
    tail.sort_unstable();
    let backlog = percentile(&tail, 0.5).unwrap_or(0);
    // Stolen time is not a reason to re-run a step: near saturation the
    // hypervisor takes more from a busier machine, and that is part of
    // the capacity measured here.
    let valid = gen_lag_p99(&samples) <= GEN_LAG_BOUND_US;
    (samples, p99, backlog, valid)
}

/// The rate search: fixed-rate steps rising by the workload's factor
/// until one misses the p99 limit or shows a growing backlog (median
/// lateness of its last quarter above half the limit), then bisection in
/// log-rate between the highest passing and the lowest failing rate; the
/// result interpolates where p99 crosses the limit, in log-latency. An
/// invalid step is re-run (at most twice in a row); a failing step counts
/// only when an immediate re-run fails too.
fn search(
    sp: &Spec,
    served: &Served,
    seq: &mut Sequence,
    next: &mut usize,
    budget: Duration,
    threads: usize,
    out: &mut Vec<Sample>,
) -> f64 {
    let limit_us = (sp.p99_limit_ms * 1e3) as u64;
    let t0 = Instant::now();
    let mut rate = sp.ramp_start;
    let mut pass: Option<(f64, f64)> = None;
    let mut fail: Option<(f64, f64)> = None;
    let (mut strikes, mut invalid) = (0, 0);
    while t0.elapsed().as_secs_f64() + STEP_SECS <= budget.as_secs_f64() {
        let (samples, p99, backlog, valid) = step(served, seq, next, rate, threads);
        out.extend(samples);
        if !valid && invalid < 2 {
            invalid += 1;
            continue;
        }
        invalid = 0;
        let ok = p99 <= limit_us && backlog <= limit_us / 2;
        strikes = if ok { 0 } else { strikes + 1 };
        if strikes == 1 {
            continue;
        }
        if ok {
            pass = Some((rate, p99 as f64));
        } else {
            fail = Some((rate, p99 as f64));
            strikes = 0;
        }
        rate = match (pass, fail) {
            (Some((p, _)), Some((f, _))) => (p * f).sqrt(),
            (Some((p, _)), None) => (p * sp.ramp_factor).min(sp.max_rate()),
            (_, Some((f, _))) => f / sp.ramp_factor,
            (None, None) => rate,
        };
    }
    let limit = limit_us as f64;
    match (pass, fail) {
        (Some((rp, lp)), Some((rf, lf))) => {
            let (lp, lf) = (lp.max(1.0).ln(), lf.min(1e12).ln());
            let f = if lf > lp {
                ((limit.ln() - lp) / (lf - lp)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            rp + (rf - rp) * f
        }
        (Some((rp, _)), None) => {
            eprintln!("the rate search never failed: slo_rps is a lower bound");
            rp
        }
        (None, _) => 0.0,
    }
}

/// Run the measured window. The main thread samples resident memory
/// during the light and nominal phases and, when `streaming`, hands live
/// days over on schedule from the end of the light phase on.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    sp: &Spec,
    seconds: f64,
    shares: (f64, f64),
    served: &Served,
    seq: &mut Sequence,
    feed: &mut LiveFeed,
    threads: usize,
    streaming: bool,
) -> Result<Measured, Box<dyn std::error::Error>> {
    let light_windows = ((seconds * shares.0 * sp.light_rate) as usize / LIGHT_WINDOW).max(2);
    let nominal_window = ((sp.nominal_rate * NOMINAL_WINDOW_SECS) as usize).max(MIN_NOMINAL_WINDOW);
    let nominal_windows =
        ((seconds * shares.1 * sp.nominal_rate) as usize).max(MIN_NOMINAL) / nominal_window;
    let search_budget = Duration::from_secs_f64(seconds * (1.0 - shares.0 - shares.1));
    let stage = AtomicU8::new(0);
    let cpu0 = cpu_ticks();

    let mut m = std::thread::scope(|scope| -> Result<Measured, Box<dyn std::error::Error>> {
        let load_thread = scope.spawn(|| -> Result<Measured, String> {
            let mut out = Measured::default();
            let mut next = 0usize;
            if sp.warmup_secs > 0.0 {
                // Let the caches fill before timing: the requests are the
                // sequence's first, at the nominal rate; they are checked
                // like every other answer but timed by no metric.
                let n = (sp.warmup_secs * sp.nominal_rate) as usize;
                let reqs = seq.take(next, n);
                let phase = Phase {
                    reqs,
                    first_seq: next,
                    rate: sp.nominal_rate,
                    threads,
                };
                out.warmup = load::run(served.addr, &phase, Instant::now());
                next += n;
            }
            out.m_start = Some(metrics_doc(served.addr).map_err(|e| e.to_string())?);
            out.light_start = next;
            out.light = run_windows(
                served,
                seq,
                &mut next,
                light_windows,
                LIGHT_WINDOW,
                sp.light_rate,
                1,
            );
            out.m_light = Some(metrics_doc(served.addr).map_err(|e| e.to_string())?);
            stage.store(1, Ordering::SeqCst);
            out.nominal = run_windows(
                served,
                seq,
                &mut next,
                nominal_windows,
                nominal_window,
                sp.nominal_rate,
                threads,
            );
            stage.store(2, Ordering::SeqCst);
            out.slo_rps = search(
                sp,
                served,
                seq,
                &mut next,
                search_budget,
                threads,
                &mut out.search,
            );
            Ok(out)
        });
        let mut peak = crate::system::rss_mb().unwrap_or(0.0);
        let mut next_day: Option<Instant> = None;
        let mut last_rss = Instant::now();
        while !load_thread.is_finished() {
            let now = Instant::now();
            let stage = stage.load(Ordering::SeqCst);
            if stage < 2 && now - last_rss >= Duration::from_millis(20) {
                peak = peak.max(crate::system::rss_mb().unwrap_or(0.0));
                last_rss = now;
            }
            if streaming && stage >= 1 {
                let due = *next_day.get_or_insert(now);
                if now >= due && feed.remaining() > 0 {
                    feed.hand(&served.ingest)?;
                    next_day = Some(due + DAY_PERIOD);
                }
                feed.poll(&served.ingest);
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let mut out = load_thread.join().map_err(|_| "load thread panicked")??;
        out.rss_peak_mb = peak;
        Ok(out)
    })?;
    m.steal_pct = steal_pct(&cpu0, &cpu_ticks());
    let mut lags: Vec<u64> = m.all().map(|s| s.gen_lag_us).collect();
    lags.sort_unstable();
    m.gen_lag_p99_us = percentile(&lags, 0.99).unwrap_or(0);
    Ok(m)
}
