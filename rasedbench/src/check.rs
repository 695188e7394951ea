//! Answer checks, run after the timed window.
//!
//! * `/api/analysis` answers are compared row for row with
//!   `naive_execute` over the store's warehouse rows: the oracle result is
//!   rendered by `result_to_json` and its rows (everything before the
//!   `stats` member, which carries timings) must hash the same as the
//!   served answer's. `explore_cold` checks every answer; the other
//!   workloads a seeded sample.
//! * `/api/sample` answers must hold `min(limit, matching rows)` samples,
//!   each inside the box.
//! * On `browse_hot`, every repeat of a target must be byte-identical to
//!   the first answer for it.

use crate::gen::{Kind, Req};
use crate::load::{fnv, stats_at, Sample, SampleDigest};
use rased_core::Rased;
use rased_dashboard::{parse_analysis_query, parse_query_string, result_to_json};
use rased_geo::{BBox, Point};
use rased_osm_model::UpdateRecord;
use rased_query::{naive_execute, AnalysisQuery};
use rased_temporal::DateRange;
use std::collections::HashMap;
use std::error::Error;

/// One in this many answers is oracle-checked where not every one is.
const SAMPLE_EVERY: u64 = 8;

/// Check the answers; returns the number of mismatches (each is printed).
pub fn run<'a>(
    sys: &Rased,
    reqs: &[Req],
    samples: impl Iterator<Item = &'a Sample>,
    check_all: bool,
    byte_identity: bool,
    seed: u64,
    base_range: DateRange,
) -> Result<u64, Box<dyn Error>> {
    let mut rows: Vec<UpdateRecord> = Vec::with_capacity(sys.warehouse().row_count() as usize);
    sys.warehouse().scan(|_, r| rows.push(*r))?;
    let sizes = sys.network_sizes();
    let base = AnalysisQuery::over(base_range);
    let mut first: HashMap<&str, u64> = HashMap::new();
    let mut oracle_memo: HashMap<&str, u64> = HashMap::new();
    let mut bad = 0u64;
    let mut checked = 0u64;
    for s in samples.filter(|s| s.ok()) {
        let Some(req) = reqs.get(s.seq) else { continue };
        if byte_identity && req.kind != Kind::Meta {
            let h = *first.entry(req.target.as_str()).or_insert(s.body_hash);
            if h != s.body_hash {
                eprintln!(
                    "mismatch: repeat of {} differs from its first answer",
                    req.target
                );
                bad += 1;
            }
        }
        let pick =
            fnv(&[seed.to_le_bytes(), (s.seq as u64).to_le_bytes()].concat()) % SAMPLE_EVERY == 0;
        if !(check_all || pick) {
            continue;
        }
        checked += 1;
        let ok = match req.kind {
            Kind::Analysis | Kind::Viewport => {
                let want = match oracle_memo.get(req.target.as_str()) {
                    Some(&h) => h,
                    None => {
                        let (_, query) = req.split();
                        let q = parse_analysis_query(sys, &parse_query_string(query))
                            .map_err(|e| format!("{}: {e}", req.target))?;
                        let json = result_to_json(sys, &naive_execute(&rows, &q, Some(&sizes)));
                        let h = fnv(json
                            .as_bytes()
                            .get(..stats_at(&json).unwrap_or(json.len()))
                            .unwrap_or_default());
                        oracle_memo.insert(req.target.as_str(), h);
                        h
                    }
                };
                want == s.rows_hash
            }
            Kind::Sample => match s.digest {
                Some(d) => check_sample(sys, req, d, &rows, &base)?,
                None => false,
            },
            Kind::Meta => true,
        };
        if !ok {
            eprintln!(
                "mismatch: {} disagrees with the record-scan oracle",
                req.target
            );
            bad += 1;
        }
    }
    eprintln!("checked {checked} answers against the oracle: {bad} mismatches");
    Ok(bad)
}

fn check_sample(
    sys: &Rased,
    req: &Req,
    got: SampleDigest,
    rows: &[UpdateRecord],
    base: &AnalysisQuery,
) -> Result<bool, Box<dyn Error>> {
    let (_, query) = req.split();
    let params = parse_query_string(query);
    let get = |k: &str| {
        params
            .iter()
            .find(|(pk, _)| pk == k)
            .map(|(_, v)| v.as_str())
    };
    let c = |k: &str| -> Result<f64, String> {
        get(k)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("bad {k}"))
    };
    let (lat0, lon0, lat1, lon1) = (c("min_lat")?, c("min_lon")?, c("max_lat")?, c("max_lon")?);
    let bbox = BBox::from_deg(lat0, lon0, lat1, lon1);
    let limit: usize = get("limit").and_then(|v| v.parse().ok()).unwrap_or(100);
    let q = match (get("start"), get("end")) {
        (Some(_), Some(_)) => Some(parse_analysis_query(sys, &params).map_err(|e| e.0)?),
        _ => None,
    };
    // Without a window, rows published after the answer was served (live
    // days) may or may not have been visible to it: the count must lie
    // between what the base year alone and what every row allow.
    let in_box = |r: &&UpdateRecord| bbox.contains(Point::new(r.lat7, r.lon7));
    let lo = rows
        .iter()
        .filter(in_box)
        .filter(|r| q.as_ref().unwrap_or(base).range.contains(r.date))
        .count();
    let hi = if q.is_some() {
        lo
    } else {
        rows.iter().filter(in_box).count()
    };
    let eps = 1e-6;
    let inside = got.count == 0
        || (got.lat.0 >= lat0 - eps
            && got.lat.1 <= lat1 + eps
            && got.lon.0 >= lon0 - eps
            && got.lon.1 <= lon1 + eps);
    Ok(inside && (lo.min(limit)..=hi.min(limit)).contains(&got.count))
}
