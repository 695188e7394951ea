//! The traced replay: the workload's request sequence and live days,
//! replayed in-process through each layer's public functions on a private
//! copy of the store, with a span around every call.
//!
//! A request replays the steps the server takes for it, in its order:
//! `parse_query_string` → response-cache key and `lookup` → on a miss,
//! `ResponseCache::render_through`, whose render closure wraps
//! `parse_analysis_query` → `Rased::engine().execute` → `result_to_json`
//! (an `/api/sample` render wraps the warehouse sampler and the JSON
//! writer instead). `LevelPlanner::plan` runs beside each analysis,
//! through `rased_index::with_planner` on every shard, as a root span of
//! its own that is not part of the request. A live day replays
//! `DailyCrawler::crawl` → `Warehouse::insert_batch` + `flush` →
//! `ShardedIndex::ingest_day_marked` → `SpatialBank::publish_day`.
//!
//! Spans (name, start, end, parent, request id) stay in memory until the
//! run ends. A span's self time is its duration minus its children's, so
//! per request the self times of the named layers plus the root's own
//! (unattributed) time sum exactly to the request's total.

use crate::gen::{Kind, Req};
use rased_collector::DailyCrawler;
use rased_core::{Rased, RasedError};
use rased_cube::DataCube;
use rased_dashboard::json::Json;
use rased_dashboard::{parse_analysis_query, parse_query_string, result_to_json};
use rased_dashboard::{RespKey, ResponseCache};
use rased_osm_gen::Dataset;
use rased_temporal::{Date, Period};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: Option<u32>,
    /// Request index, or `DAY_BASE + day index` for a live day.
    pub req: u32,
    pub start: u64,
    pub end: u64,
}

/// Request ids at or above this mark live days, not requests.
pub const DAY_BASE: u32 = 1 << 30;

/// An in-memory span recorder; with `on == false` it records nothing and
/// reads no clock, which is the untraced baseline of the overhead figure.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, req: u32) {
        if !self.on {
            return;
        }
        let parent = self
            .open
            .last()
            .and_then(|&i| self.spans.get(i))
            .map(|s| s.id);
        let id = self.spans.len() as u32;
        let start = self.now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            id,
            parent,
            req,
            start,
            end: start,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now();
        if let Some(s) = self.open.pop().and_then(|i| self.spans.get_mut(i)) {
            s.end = now;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u32, f: impl FnOnce() -> T) -> T {
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    /// Write the spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Replay requests on `sys` through a fresh response cache with the
/// server's default budgets. Returns each request's wall time (ns).
pub fn replay_requests(sys: &Rased, reqs: &[Req], t: &mut Tracer) -> Result<Vec<u64>, String> {
    let config = rased_core::ServerConfig::default();
    let cache = ResponseCache::new(
        config.effective_response_cache_bytes(),
        config.effective_response_cache_entries(),
    );
    let mut totals = Vec::with_capacity(reqs.len());
    for (i, req) in reqs.iter().enumerate() {
        let id = i as u32;
        let t0 = Instant::now();
        t.enter("request", id);
        let (path, query) = req.split();
        let params = t.span("api.parse_qs", id, || parse_query_string(query));
        match req.kind {
            Kind::Meta => {
                t.span("api.render", id, || meta_body(sys));
            }
            Kind::Analysis | Kind::Viewport | Kind::Sample => {
                let hit = t.span("respcache.lookup", id, || {
                    let key = RespKey::with_stamp(path, query, stamp(sys, req.kind));
                    cache.lookup(&key).is_some().then_some(()).ok_or(key)
                });
                if let Err(key) = hit {
                    t.enter("respcache.render_through", id);
                    let mut failed = None;
                    let resp = cache.render_through(&key, || {
                        match render(sys, req.kind, &params, t, id) {
                            Ok(body) => (200, "application/json", body.into_bytes()),
                            Err(e) => {
                                failed = Some(e);
                                (500, "text/plain", Vec::new())
                            }
                        }
                    });
                    t.exit();
                    if let Some(e) = failed {
                        return Err(format!("replay of {}: {e}", req.target));
                    }
                    if resp.status() != 200 {
                        return Err(format!(
                            "replay of {}: status {}",
                            req.target,
                            resp.status()
                        ));
                    }
                }
            }
        }
        t.exit();
        totals.push(t0.elapsed().as_nanos() as u64);
        // Beside the request, not inside it: the level planner on every
        // shard, over the sub-ranges the engine plans.
        if req.kind == Kind::Analysis {
            if let Ok(q) = parse_analysis_query(sys, &params) {
                t.span("planner.plan", id, || plan_beside(sys, &q));
            }
        }
    }
    Ok(totals)
}

/// The response-cache stamp: every shard of the hierarchy the render
/// reads (a superset of the server's routed stamp; the replay store is
/// quiet, so the key only has to be stable).
fn stamp(sys: &Rased, kind: Kind) -> Vec<(u16, u64)> {
    let epochs = match kind {
        Kind::Viewport => sys.spatial_bank().epochs(),
        _ => sys.index().epochs(),
    };
    let base = if kind == Kind::Viewport {
        rased_dashboard::respcache::SPATIAL_STAMP_BASE
    } else {
        0
    };
    epochs
        .iter()
        .enumerate()
        .map(|(s, &e)| (base | s as u16, e))
        .collect()
}

fn render(
    sys: &Rased,
    kind: Kind,
    params: &[(String, String)],
    t: &mut Tracer,
    id: u32,
) -> Result<String, String> {
    if kind == Kind::Sample {
        let get = |k: &str| {
            params
                .iter()
                .find(|(pk, _)| pk == k)
                .map(|(_, v)| v.as_str())
        };
        let (bbox, limit, q) = t.span("api.parse", id, || -> Result<_, String> {
            let c = |k: &str| -> Result<f64, String> {
                get(k)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad `{k}`"))
            };
            let bbox = rased_geo::BBox::from_deg(
                c("min_lat")?,
                c("min_lon")?,
                c("max_lat")?,
                c("max_lon")?,
            );
            let limit: usize = get("limit").and_then(|v| v.parse().ok()).unwrap_or(100);
            let q = match (get("start"), get("end")) {
                (Some(_), Some(_)) => Some(parse_analysis_query(sys, params).map_err(|e| e.0)?),
                _ => None,
            };
            Ok((bbox, limit, q))
        })?;
        let records = t
            .span("warehouse.sample", id, || match &q {
                Some(q) => sys.sample_for_query(q, &bbox, limit),
                None => sys.sample_region(&bbox, limit),
            })
            .map_err(|e| e.to_string())?;
        return Ok(t.span("api.render", id, || sample_body(sys, &records)));
    }
    let q = t
        .span("api.parse", id, || parse_analysis_query(sys, params))
        .map_err(|e| e.0)?;
    let result = t
        .span("engine.execute", id, || sys.engine().execute(&q))
        .map_err(|e| e.to_string())?;
    Ok(t.span("api.render", id, || result_to_json(sys, &result)))
}

/// Plan the query's window on every shard, per date group like the
/// engine does. Returns the number of cubes planned.
fn plan_beside(sys: &Rased, q: &rased_core::AnalysisQuery) -> usize {
    let kind = sys.config().planner;
    let mut cubes = 0;
    for store in sys.index().stores() {
        cubes += rased_index::with_planner(store, |planner| match q.date_granularity() {
            None => planner.plan(q.range, kind).cube_count(),
            Some(g) => {
                let mut n = 0;
                let mut p = Period::containing(g, q.range.start());
                while p.start() <= q.range.end() {
                    let Some(sub) = p.range().intersect(q.range) else {
                        break;
                    };
                    n += planner.plan(sub, kind).cube_count();
                    p = p.succ();
                }
                n
            }
        });
    }
    cubes
}

/// The `/api/sample` body, written with the dashboard's JSON writer in the
/// server's field order.
fn sample_body(sys: &Rased, records: &[rased_osm_model::UpdateRecord]) -> String {
    let mut j = Json::new();
    j.begin_object();
    j.key("samples").begin_array();
    for r in records {
        j.begin_object();
        j.kv_string("element", r.element_type.xml_name());
        j.kv_string("update", r.update_type.label());
        j.kv_string("date", &r.date.to_string());
        j.key("lat").number(r.lat());
        j.key("lon").number(r.lon());
        j.kv_string("country", sys.countries().name(r.country).unwrap_or("?"));
        j.kv_string("road", sys.roads().value(r.road_type).unwrap_or("?"));
        j.kv_uint("changeset", r.changeset.raw());
        j.end_object();
    }
    j.end_array();
    j.end_object();
    j.finish()
}

/// The `/api/meta` body, written in the server's field order.
fn meta_body(sys: &Rased) -> String {
    let index = sys.index();
    let mut j = Json::new();
    j.begin_object();
    j.kv_string("system", "RASED");
    match index.coverage() {
        Some((lo, hi)) => {
            j.kv_string("coverage_start", &lo.to_string());
            j.kv_string("coverage_end", &hi.to_string());
        }
        None => {
            j.key("coverage_start").null();
            j.key("coverage_end").null();
        }
    }
    j.kv_uint("cubes", index.cube_count() as u64);
    j.kv_uint("rows", sys.warehouse().row_count());
    j.kv_uint("countries", sys.countries().len() as u64);
    j.kv_uint("road_types", sys.roads().len() as u64);
    j.kv_uint("index_levels", index.levels() as u64);
    j.kv_uint("cache_slots", index.cache_slots() as u64);
    j.kv_uint("index_shards", index.shard_count() as u64);
    j.end_object();
    j.finish()
}

/// Per-day write-path counts from the replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct DayCounts {
    pub records: u64,
    pub maintenance_ops: u64,
}

/// Replay live days through the write path's public calls.
pub fn replay_days(
    sys: &Rased,
    live: &Dataset,
    days: &[Date],
    t: &mut Tracer,
) -> Result<Vec<DayCounts>, RasedError> {
    let atlas = live.atlas();
    let mut out = Vec::new();
    for (i, &day) in days.iter().enumerate() {
        let id = DAY_BASE + i as u32;
        t.enter("day", id);
        let (records, _) = t.span("crawl", id, || -> Result<_, RasedError> {
            let diff = BufReader::new(File::open(live.paths.diff(day))?);
            let changesets = BufReader::new(File::open(live.paths.changesets(day))?);
            Ok(DailyCrawler::new(&atlas, sys.roads()).crawl(diff, changesets)?)
        })?;
        let expanded = sys.config().zones.expand_all(&records);
        let cube = DataCube::from_records(sys.config().schema, &expanded)
            .map_err(rased_index::IndexError::from)?;
        t.span("warehouse.insert", id, || {
            sys.warehouse().insert_batch(&records)
        })?;
        t.span("warehouse.flush", id, || sys.warehouse().flush())?;
        let mark = sys.warehouse().row_count();
        let maint = t.span("index.publish", id, || {
            sys.index().ingest_day_marked(day, &cube, mark)
        })?;
        t.span("bank.publish", id, || {
            sys.spatial_bank().publish_day(day, &records)
        })?;
        t.exit();
        out.push(DayCounts {
            records: records.len() as u64,
            maintenance_ops: maint.total_ops() as u64,
        });
    }
    Ok(out)
}

/// Self time per span name, and per root span the unattributed remainder,
/// aggregated per request or day.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Span name → (total self ns, occurrences).
    pub self_ns: BTreeMap<&'static str, (u64, u64)>,
    /// Per root span (request or day): (name, total ns, Σ child-layer self
    /// ns, unattributed ns).
    pub roots: Vec<(&'static str, u32, u64, u64, u64)>,
}

/// Compute self times. Each span's self time is its duration minus the
/// durations of its direct children (children are nested and disjoint by
/// construction: one thread, strictly nested enter/exit).
pub fn attribute(spans: &[Span]) -> Attribution {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(c) = child_ns.get_mut(p as usize) {
                *c += s.end - s.start;
            }
        }
    }
    let mut a = Attribution::default();
    let mut below = vec![0u64; spans.len()];
    // Children come after their parent in `spans`; walk backwards so each
    // parent sees the self-time sum of its whole subtree.
    for (i, s) in spans.iter().enumerate().rev() {
        let own = (s.end - s.start).saturating_sub(child_ns.get(i).copied().unwrap_or(0));
        if s.parent.is_some() {
            let e = a.self_ns.entry(s.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        let subtree = own + below.get(i).copied().unwrap_or(0);
        match s.parent {
            Some(p) => {
                if let Some(b) = below.get_mut(p as usize) {
                    *b += subtree;
                }
            }
            None => {
                let layers = below.get(i).copied().unwrap_or(0);
                a.roots.push((s.name, s.req, s.end - s.start, layers, own));
            }
        }
    }
    a.roots.reverse();
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_unattributed_sum_to_the_total() {
        let spans = vec![
            Span {
                name: "request",
                id: 0,
                parent: None,
                req: 0,
                start: 0,
                end: 100,
            },
            Span {
                name: "a",
                id: 1,
                parent: Some(0),
                req: 0,
                start: 5,
                end: 20,
            },
            Span {
                name: "b",
                id: 2,
                parent: Some(0),
                req: 0,
                start: 20,
                end: 90,
            },
            Span {
                name: "c",
                id: 3,
                parent: Some(2),
                req: 0,
                start: 30,
                end: 60,
            },
        ];
        let a = attribute(&spans);
        assert_eq!(a.self_ns.get("a"), Some(&(15, 1)));
        assert_eq!(a.self_ns.get("b"), Some(&(40, 1)));
        assert_eq!(a.self_ns.get("c"), Some(&(30, 1)));
        assert_eq!(a.roots, vec![("request", 0, 100, 85, 15)]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 7), 7);
        assert!(t.spans.is_empty());
        let mut t = Tracer::new(true);
        t.span("outer", 1, || ());
        assert_eq!(t.spans.len(), 1);
    }
}
