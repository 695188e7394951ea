//! Open-loop HTTP load: requests leave on a fixed schedule whatever the
//! server is doing, and each one is timed from its scheduled send.
//!
//! A phase spreads its requests over `threads` client threads, each with
//! one keep-alive connection; request `i` is due at `t0 + i / rate` and is
//! sent by thread `i % threads`. A request that is due while its
//! connection still waits on an earlier answer leaves late, and that wait
//! is part of its latency. How late the generator itself ran (a send
//! after both its due time and its connection's last answer) is recorded
//! separately as the generator lag.

use crate::gen::{Kind, Req};
use rased_bench::httpc::HttpClient;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the workload's request sequence.
    pub seq: usize,
    /// HTTP status; 0 on a transport failure.
    pub status: u16,
    /// Scheduled send → last response byte, µs (the reported latency).
    pub latency_us: u64,
    /// Actual send → last response byte, µs.
    pub service_us: u64,
    /// How late the generator sent after the request could have left, µs.
    pub gen_lag_us: u64,
    /// How late the send was against the schedule, µs (includes waiting
    /// for the connection).
    pub send_late_us: u64,
    /// FNV-1a of the whole body (byte-identity of repeated keys).
    pub body_hash: u64,
    /// FNV-1a of the body before its `"stats"` member: the answer's rows.
    pub rows_hash: u64,
    /// Body length in bytes.
    pub bytes: usize,
    /// The `stats` object of an `/api/analysis` answer.
    pub stats: Option<Stats>,
    /// What the checks need of an `/api/sample` answer.
    pub digest: Option<SampleDigest>,
}

/// An `/api/sample` answer reduced to what the checks use: how many
/// samples it held and the box they span.
#[derive(Debug, Clone, Copy)]
pub struct SampleDigest {
    pub count: usize,
    pub lat: (f64, f64),
    pub lon: (f64, f64),
}

impl SampleDigest {
    /// Scan the body's `"lat":` and `"lon":` members; `None` when the
    /// body is not a sample answer.
    fn of(body: &str) -> Option<SampleDigest> {
        if !body.starts_with("{\"samples\":[") {
            return None;
        }
        let mut d = SampleDigest {
            count: 0,
            lat: (f64::MAX, f64::MIN),
            lon: (f64::MAX, f64::MIN),
        };
        for (key, span) in [("\"lat\":", &mut d.lat), ("\"lon\":", &mut d.lon)] {
            let mut n = 0;
            for (at, _) in body.match_indices(key) {
                let rest = body.get(at + key.len()..).unwrap_or("");
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                let v: f64 = rest.get(..end)?.parse().ok()?;
                *span = (span.0.min(v), span.1.max(v));
                n += 1;
            }
            d.count = n;
        }
        Some(d)
    }
}

/// The execution statistics an `/api/analysis` answer reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    pub io_critical_us: f64,
    pub modeled_io_us: f64,
    pub wall_us: f64,
    pub physical_reads: f64,
    pub cubes: f64,
    pub blocks: f64,
    pub scan_rows: f64,
}

/// Where the `stats` member of an analysis answer starts.
pub fn stats_at(body: &str) -> Option<usize> {
    body.rfind(",\"stats\":")
}

impl Stats {
    fn parse(body: &str) -> Option<Stats> {
        let at = stats_at(body)?;
        let obj = body.get(at + ",\"stats\":".len()..body.len().checked_sub(1)?)?;
        let v = crate::jsonr::Value::parse(obj).ok()?;
        let n = |k: &str| v.num(k).unwrap_or(0.0);
        Some(Stats {
            io_critical_us: n("io_critical_micros"),
            modeled_io_us: n("modeled_io_micros"),
            wall_us: n("wall_micros"),
            physical_reads: n("physical_reads"),
            cubes: n("cubes_from_cache") + n("cubes_from_disk"),
            blocks: n("blocks_from_cache") + n("blocks_from_disk"),
            scan_rows: n("scan_rows"),
        })
    }
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

impl Sample {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// A fixed-rate phase over `reqs`, whose first element has sequence
/// number `first_seq`.
pub struct Phase<'a> {
    pub reqs: &'a [Req],
    pub first_seq: usize,
    pub rate: f64,
    pub threads: usize,
}

/// Run a phase to completion (every request answered or failed).
pub fn run(addr: SocketAddr, phase: &Phase<'_>, t0: Instant) -> Vec<Sample> {
    let threads = phase.threads.max(1);
    let period = Duration::from_secs_f64(1.0 / phase.rate.max(1e-3));
    let mut out: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).ok();
                    let mut free_at = t0;
                    let mut samples = Vec::new();
                    for i in (k..phase.reqs.len()).step_by(threads) {
                        let Some(req) = phase.reqs.get(i) else { break };
                        let due = t0 + period.mul_f64(i as f64);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let ready = due.max(free_at);
                        let (status, body) = send(addr, &mut client, &req.target);
                        let done = Instant::now();
                        free_at = done;
                        let analysis = matches!(req.kind, Kind::Analysis | Kind::Viewport);
                        let stats = if analysis { Stats::parse(&body) } else { None };
                        let rows_end = if analysis { stats_at(&body) } else { None };
                        let rows = body.as_bytes().get(..rows_end.unwrap_or(body.len()));
                        samples.push(Sample {
                            seq: phase.first_seq + i,
                            status,
                            latency_us: micros(done - due),
                            service_us: micros(done - sent),
                            gen_lag_us: micros(sent.saturating_duration_since(ready)),
                            send_late_us: micros(sent.saturating_duration_since(due)),
                            body_hash: fnv(body.as_bytes()),
                            rows_hash: fnv(rows.unwrap_or_default()),
                            bytes: body.len(),
                            stats,
                            digest: if req.kind == Kind::Sample {
                                SampleDigest::of(&body)
                            } else {
                                None
                            },
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    out.sort_by_key(|s| s.seq);
    out
}

/// GET on the held connection, reconnecting once when the server has
/// rotated it out. A transport failure reports status 0.
fn send(addr: SocketAddr, client: &mut Option<HttpClient>, target: &str) -> (u16, String) {
    for _ in 0..2 {
        if client.is_none() {
            *client = HttpClient::connect(addr).ok();
        }
        match client.as_mut().map(|c| c.get(target, &[])) {
            Some(Ok(resp)) => return (resp.status, resp.body),
            _ => *client = None,
        }
    }
    (0, String::new())
}

fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// One GET on a fresh connection (metrics snapshots, readiness probes).
pub fn get_once(addr: SocketAddr, target: &str) -> Result<String, String> {
    let mut c = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let resp = c
        .get(target, &[])
        .map_err(|e| format!("GET {target}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET {target}: status {}", resp.status));
    }
    Ok(resp.body)
}
