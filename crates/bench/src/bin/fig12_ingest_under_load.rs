//! **Figure 12 — Serving latency under live ingestion.**
//!
//! Query latency (p50 / p99) against a running system, measured twice over
//! the same window set: first quiescent, then while the streaming
//! [`IngestController`] is crawling and publishing a second dataset
//! concurrently. The epoch-pinned read path means the second run pays only
//! for cache invalidations and writer CPU — a bounded p99 regression, not
//! a stall — and the closing line reports exactly how much was published
//! under the readers' feet (units, invalidations, final epoch).
//!
//! `BENCH_MEASURE_MS` shrinks the datasets and the per-mode query budget
//! for CI smoke runs (default 200 ms per mode).

#![forbid(unsafe_code)]

use rased_bench::{bench_dir, fmt_duration};
use rased_bench::harness::{Harness, LatencyProfile};
use rased_core::{CubeSchema, IngestController, IngestPhase, Rased, RasedConfig};
use rased_osm_gen::{Dataset, DatasetConfig};
use rased_query::{AnalysisQuery, GroupDim};
use rased_temporal::{Date, DateRange, Granularity};
use std::error::Error;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn Error>> {
    let budget = Harness::from_env().measure();
    let smoke = budget < Duration::from_millis(100);
    // Baseline dataset (batch-ingested) and a follow-on span the controller
    // streams in while queries run.
    let (base_days, live_days) = if smoke { (14i32, 7i32) } else { (45, 30) };

    let dir = bench_dir("fig12")?;
    // The system dir must not survive across runs with different datasets.
    for sub in ["base", "live", "system"] {
        let _ = std::fs::remove_dir_all(dir.join(sub));
    }
    let start = Date::new(2021, 1, 1)?;
    let mut base_cfg = DatasetConfig::small(0xF12A);
    base_cfg.range = DateRange::new(start, start.add_days(base_days - 1));
    let live_start = start.add_days(base_days);
    let mut live_cfg = base_cfg.clone();
    live_cfg.range = DateRange::new(live_start, live_start.add_days(live_days - 1));

    println!("# Fig 12: generating {base_days}-day baseline + {live_days}-day live datasets...");
    let base = Dataset::generate(&dir.join("base"), base_cfg)?;
    Dataset::generate(&dir.join("live"), live_cfg)?;

    let schema = CubeSchema::new(
        base.config.world.n_countries,
        base.config.sim.n_road_types,
    );
    let system = Arc::new(Rased::create(
        RasedConfig::new(dir.join("system")).with_schema(schema),
    )?);
    println!("# Fig 12: batch-ingesting the baseline...");
    system.ingest_dataset(&base)?;

    let q = AnalysisQuery::over(DateRange::new(start, live_start.add_days(live_days - 1)))
        .group(GroupDim::UpdateType)
        .group(GroupDim::Date(Granularity::Week));

    println!(
        "\n{:>10} | {:>8} | {:>10} | {:>10} | {:>10} | {:>10}",
        "mode", "queries", "p50", "p99", "p999", "max"
    );
    println!("{}", "-".repeat(73));

    // Quiescent: nothing publishing.
    let quiet = run_queries(&system, &q, budget, || false)?;
    report("quiet", &quiet);

    // Under load: the controller streams the live dataset while the same
    // query mix runs; keep querying until it drains (or 20× budget, so a
    // wedged writer fails loudly instead of hanging the bench).
    let ingest = IngestController::start(Arc::clone(&system))?;
    ingest
        .enqueue(PathBuf::from(dir.join("live")))
        .map_err(|_| "ingest queue full")?;
    let deadline = Instant::now() + budget.max(Duration::from_millis(50)) * 20;
    let busy = run_queries(&system, &q, budget, || {
        let s = ingest.status();
        let active = s.phase != IngestPhase::Idle || s.queued > 0;
        active && Instant::now() < deadline
    })?;
    report("ingesting", &busy);
    let status = ingest.status();
    ingest.shutdown();

    let published = system.index().published_units();
    let invalidated = system.index().invalidations();
    println!(
        "\n(published {published} units under load — {} days, {} months — \
         {invalidated} cache invalidations, final epoch {}; last error: {})",
        status.days_published,
        status.months_published,
        system.index().epoch(),
        status.last_error.as_deref().unwrap_or("none"),
    );

    let ratio = busy.p99.as_secs_f64() / quiet.p99.as_secs_f64().max(f64::EPSILON);
    println!("(p99 under ingest = {ratio:.2}x quiescent)");
    Ok(())
}

/// Run `q` repeatedly for at least `budget`, continuing while
/// `keep_going()` holds, and profile per-query wall latency.
fn run_queries(
    system: &Rased,
    q: &AnalysisQuery,
    budget: Duration,
    mut keep_going: impl FnMut() -> bool,
) -> Result<LatencyProfile, Box<dyn Error>> {
    let started = Instant::now();
    let mut samples: Vec<Duration> = Vec::new();
    while started.elapsed() < budget || keep_going() {
        let t0 = Instant::now();
        system.query(q)?;
        samples.push(t0.elapsed());
    }
    // Shared nearest-rank percentiles (rased_bench::harness) — the old
    // hand-rolled `pick()` truncated the rank, under-reporting p99 at
    // small N.
    LatencyProfile::from_samples(&mut samples).ok_or_else(|| "no samples recorded".into())
}

fn report(mode: &str, p: &LatencyProfile) {
    // Full percentile ladder from the shared profile — same columns as
    // fig13, so the two figures read side by side.
    println!(
        "{:>10} | {:>8} | {:>10} | {:>10} | {:>10} | {:>10}",
        mode,
        p.count,
        fmt_duration(p.p50),
        fmt_duration(p.p99),
        fmt_duration(p.p999),
        fmt_duration(p.max)
    );
}
