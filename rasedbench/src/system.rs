//! The system under test: generated inputs, the timed set-up of a served
//! store, live-day hand-over, and the process-level measurements (disk,
//! resident memory).

use crate::load;
use rased_core::{CubeSchema, IngestController, Rased, RasedConfig, ServerConfig};
use rased_dashboard::{DashboardServer, StopHandle};
use rased_osm_gen::{Dataset, DatasetConfig};
use rased_temporal::{Date, DateRange};
use std::error::Error;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Res<T> = Result<T, Box<dyn Error>>;

/// The generated inputs of one run: a one-year base dataset the store is
/// built from, and the live days handed over while it serves.
pub struct Inputs {
    pub base: Dataset,
    pub live: Dataset,
}

/// First day of the base year.
pub fn base_range() -> Res<DateRange> {
    Ok(DateRange::new(
        Date::new(2021, 1, 1)?,
        Date::new(2021, 12, 31)?,
    ))
}

impl Inputs {
    /// Generate both datasets from `seed` under `dir`.
    pub fn generate(dir: &Path, seed: u64, live_days: i32) -> Res<Inputs> {
        let mut cfg = DatasetConfig::small(seed);
        cfg.range = base_range()?;
        let base = Dataset::generate(&dir.join("base"), cfg.clone())?;
        let live_start = cfg.range.end().add_days(1);
        cfg.range = DateRange::new(live_start, live_start.add_days(live_days.max(1) - 1));
        let live = Dataset::generate(&dir.join("live_src"), cfg)?;
        Ok(Inputs { base, live })
    }

    /// `(lat, lon)` of every `step`-th base update: where the data is.
    pub fn anchors(&self, max: usize) -> Vec<(f64, f64)> {
        let step = (self.base.truth.len() / max.max(1)).max(1);
        self.base
            .truth
            .iter()
            .step_by(step)
            .take(max)
            .map(|r| (r.lat(), r.lon()))
            .collect()
    }
}

/// A store built from the base dataset and served over HTTP with the
/// default [`ServerConfig`], with a streaming ingest controller attached.
pub struct Served {
    pub system: Arc<Rased>,
    pub ingest: Arc<IngestController>,
    pub addr: SocketAddr,
    stop: StopHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    pub dir: PathBuf,
}

/// Build a store under `dir` from the base dataset.
pub fn build_store(dir: &Path, base: &Dataset) -> Res<Rased> {
    let _ = std::fs::remove_dir_all(dir);
    let schema = CubeSchema::new(base.config.world.n_countries, base.config.sim.n_road_types);
    let system = Rased::create(RasedConfig::new(dir).with_schema(schema))?;
    system.ingest_dataset(base)?;
    Ok(system)
}

impl Served {
    /// Set up from an empty directory: build the store, start serving, and
    /// wait for the first answered request. Returns the time that took.
    pub fn setup(dir: &Path, base: &Dataset) -> Res<(Served, Duration)> {
        let t0 = Instant::now();
        let system = Arc::new(build_store(dir, base)?);
        // The writer and the server start on a thread of lowered priority,
        // so every server-side thread (event loop, workers, query threads,
        // ingest writer) inherits it.
        let (tx, rx) = std::sync::mpsc::channel();
        let sys = Arc::clone(&system);
        let thread = std::thread::spawn(move || -> std::io::Result<()> {
            lower_priority();
            let ingest = Arc::new(IngestController::start(Arc::clone(&sys))?);
            let server = DashboardServer::bind_with(sys, "127.0.0.1:0", ServerConfig::default())?
                .with_ingest(Arc::clone(&ingest), None);
            let _ = tx.send((ingest, server.addr()?, server.stop_handle()));
            server.serve()
        });
        let Ok((ingest, addr, stop)) = rx.recv() else {
            thread.join().map_err(|_| "server thread panicked")??;
            return Err("server did not start".into());
        };
        let served = Served {
            system,
            ingest,
            addr,
            stop,
            thread: Some(thread),
            dir: dir.to_path_buf(),
        };
        load::get_once(addr, "/api/meta")?;
        Ok((served, t0.elapsed()))
    }

    /// Stop serving, stop the writer, and delete the store.
    pub fn teardown(mut self) -> Res<()> {
        self.shutdown()?;
        let dir = self.dir.clone();
        drop(self);
        std::fs::remove_dir_all(dir)?;
        Ok(())
    }

    fn shutdown(&mut self) -> Res<()> {
        self.stop.stop();
        self.ingest.shutdown();
        if let Some(t) = self.thread.take() {
            t.join().map_err(|_| "server thread panicked")??;
        }
        Ok(())
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Nice value of every server-side thread.
const SERVER_NICE: i32 = 10;

extern "C" {
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

/// Lower the calling thread's scheduling priority (Linux: `nice` is per
/// thread, and threads it spawns inherit it). The server's event loop,
/// workers and query threads run below the load generator, so the
/// generator's sends stay on schedule when the server saturates both
/// cores; it sleeps between sends and takes little CPU itself.
fn lower_priority() {
    // SAFETY: setpriority(PRIO_PROCESS, 0, n) only changes the calling
    // thread's nice value; it reads and writes no memory of ours.
    let _ = unsafe { setpriority(0, 0, SERVER_NICE) };
}

/// Bytes of every file under `dir`.
pub fn disk_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            disk_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Resident set size of this process, MiB (Linux `/proc/self/status`).
pub fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Hands live days to the running server one at a time, through the
/// streaming ingest controller, and records when each became visible.
///
/// The live dataset is generated up front into a staging directory; a
/// day is handed over by moving its two files into the directory the
/// controller tails (`serve --follow` semantics: a job publishes every
/// day whose files exist and stops at the first missing one) and
/// enqueueing that directory. Monthly history dumps are never handed
/// over, so live days stay on the daily path.
pub struct LiveFeed {
    src: Dataset,
    dst: rased_osm_gen::DatasetPaths,
    days: Vec<Date>,
    pub handed: Vec<Instant>,
    pub picked: Vec<Option<Instant>>,
    pub visible: Vec<Instant>,
    base_published: u64,
}

impl LiveFeed {
    pub fn new(src: &Dataset, dir: &Path) -> Res<LiveFeed> {
        let dst = rased_osm_gen::DatasetPaths::new(dir);
        for sub in ["diffs", "changesets"] {
            std::fs::create_dir_all(dir.join(sub))?;
        }
        std::fs::copy(
            src.paths.root.join("dataset.manifest"),
            dir.join("dataset.manifest"),
        )?;
        let src = Dataset::load_manifest(&src.paths.root)?;
        let days = src.config.range.days().collect();
        Ok(LiveFeed {
            src,
            dst,
            days,
            handed: Vec::new(),
            picked: Vec::new(),
            visible: Vec::new(),
            base_published: 0,
        })
    }

    /// Days still available to hand over.
    pub fn remaining(&self) -> usize {
        self.days.len() - self.handed.len()
    }

    /// The days handed over so far, in order.
    pub fn handed_days(&self) -> &[Date] {
        self.days.get(..self.handed.len()).unwrap_or_default()
    }

    /// Hand the next day to `ingest`; `Ok(false)` when none is left. A
    /// full controller queue is an error: at one day per period the writer
    /// has fallen behind by a whole queue.
    pub fn hand(&mut self, ingest: &IngestController) -> Res<bool> {
        let Some(&day) = self.days.get(self.handed.len()) else {
            return Ok(false);
        };
        if self.handed.is_empty() {
            self.base_published = ingest.status().days_published;
        }
        let at = Instant::now();
        std::fs::rename(self.src.paths.changesets(day), self.dst.changesets(day))?;
        std::fs::rename(self.src.paths.diff(day), self.dst.diff(day))?;
        ingest.enqueue(self.dst.root.clone())?;
        self.handed.push(at);
        self.picked.push(None);
        Ok(true)
    }

    /// Record pick-ups and publishes observed now. Returns true when every
    /// handed day is visible.
    pub fn poll(&mut self, ingest: &IngestController) -> bool {
        let s = ingest.status();
        let now = Instant::now();
        if s.queued == 0 {
            for p in self.picked.iter_mut().filter(|p| p.is_none()) {
                *p = Some(now);
            }
        }
        let published = s.days_published.saturating_sub(self.base_published) as usize;
        while self.visible.len() < published.min(self.handed.len()) {
            self.visible.push(now);
        }
        self.visible.len() == self.handed.len()
    }

    /// Wait (polling) until every handed day is visible or `timeout`.
    pub fn drain(&mut self, ingest: &IngestController, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.poll(ingest) {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    /// Per day: hand-over → visible, ms.
    pub fn freshness_ms(&self) -> Vec<f64> {
        self.handed
            .iter()
            .zip(&self.visible)
            .map(|(h, v)| (*v - *h).as_secs_f64() * 1e3)
            .collect()
    }

    /// Per day: hand-over → picked up by the writer, ms.
    pub fn queue_wait_ms(&self) -> Vec<f64> {
        self.handed
            .iter()
            .zip(&self.picked)
            .filter_map(|(h, p)| p.map(|p| (p - *h).as_secs_f64() * 1e3))
            .collect()
    }

    /// Days published per second of writer time: one over the median
    /// day's service time, which runs from when the writer could start the
    /// day (handed, and the previous day visible) to when it became
    /// visible.
    pub fn days_per_writer_s(&self) -> f64 {
        let mut service = Vec::new();
        let mut prev: Option<Instant> = None;
        for (h, v) in self.handed.iter().zip(&self.visible) {
            let start = prev.map_or(*h, |p| p.max(*h));
            service.push(v.saturating_duration_since(start).as_secs_f64());
            prev = Some(*v);
        }
        service.sort_by(f64::total_cmp);
        match service.get(service.len() / 2) {
            Some(&s) if s > 0.0 => 1.0 / s,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_publish_sequence() {
        let (a, b) = (
            dettest::TempDir::new("rasedbench-inputs-a"),
            dettest::TempDir::new("rasedbench-inputs-b"),
        );
        let x = Inputs::generate(a.path(), 9, 4).expect("inputs");
        let y = Inputs::generate(b.path(), 9, 4).expect("inputs");
        assert_eq!(x.base.truth, y.base.truth);
        assert_eq!(x.live.truth, y.live.truth);
        assert_eq!(x.anchors(64), y.anchors(64));
        let fa = LiveFeed::new(&x.live, &a.path().join("live")).expect("feed");
        let fb = LiveFeed::new(&y.live, &b.path().join("live")).expect("feed");
        assert_eq!(fa.days, fb.days);
        assert_eq!(fa.days.len(), 4);
        assert!(fa.days.iter().all(|d| *d > x.base.config.range.end()));
        for day in &fa.days {
            let read = |p: PathBuf| std::fs::read(p).expect("day file");
            assert_eq!(read(x.live.paths.diff(*day)), read(y.live.paths.diff(*day)));
        }
    }
}
