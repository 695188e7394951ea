//! Seeded request generators for the three workloads.
//!
//! Every generator is a pure function of its seed and of the vocabulary it
//! is handed (country codes, road values, the data window, anchor points
//! taken from the generated dataset), so the same seed yields the same
//! request sequence. The server only ever sees these generated targets.

use dettest::Rng;
use rased_bench::workload::{UserSession, Vocab, Zipf, DEFAULT_SKEW};
use rased_dashboard::RespKey;
use rased_temporal::Date;
use std::collections::HashSet;

/// What a request exercises, for per-class accounting and checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/api/analysis` without a spatial filter (cube path).
    Analysis,
    /// `/api/analysis` with `bbox=` (spatial bank path).
    Viewport,
    /// `/api/sample` (warehouse path).
    Sample,
    /// `/api/meta`.
    Meta,
}

/// One generated request target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub kind: Kind,
    pub target: String,
}

impl Req {
    /// Path and query string of the target.
    pub fn split(&self) -> (&str, &str) {
        self.target
            .split_once('?')
            .unwrap_or((self.target.as_str(), ""))
    }

    /// The response-cache key the server derives for this target, with an
    /// empty stamp: two targets that normalize to the same key would be
    /// answered from one cache line.
    pub fn resp_key(&self) -> RespKey {
        let (path, query) = self.split();
        RespKey::with_stamp(path, query, Vec::new())
    }
}

fn classify(target: &str) -> Kind {
    if target.starts_with("/api/meta") {
        Kind::Meta
    } else if target.starts_with("/api/sample") {
        Kind::Sample
    } else if target.contains("bbox=") {
        Kind::Viewport
    } else {
        Kind::Analysis
    }
}

/// Users in the `browse_hot` population. Each returning user replays the
/// session it browsed before, so the distinct keys are bounded by
/// `BROWSE_USERS × BROWSE_SESSION_STEPS` however long the run is.
pub const BROWSE_USERS: u64 = 96;
/// Requests per browsing session.
pub const BROWSE_SESSION_STEPS: usize = 16;
/// Sessions open at once; their requests interleave round-robin.
const BROWSE_OPEN_SESSIONS: usize = 4;

/// The `browse_hot` mix: dashboard sessions of
/// [`rased_bench::workload::UserSession`]. Arriving sessions pick a user by
/// Zipf popularity; a user's session always starts from the dashboard's
/// default view, so most requests repeat a key.
pub struct BrowseGen {
    seed: u64,
    vocab: Vocab,
    rng: Rng,
    users: Zipf,
    open: Vec<(UserSession, usize)>,
    turn: usize,
}

impl BrowseGen {
    pub fn new(seed: u64, vocab: Vocab) -> BrowseGen {
        let mut rng = Rng::new(Rng::derive(seed, 0xB0));
        let users = Zipf::new(BROWSE_USERS as usize, DEFAULT_SKEW);
        let mut open = Vec::new();
        for _ in 0..BROWSE_OPEN_SESSIONS {
            let user = users.sample(&mut rng) as u64;
            open.push((UserSession::new(seed, user, vocab.clone(), DEFAULT_SKEW), 0));
        }
        BrowseGen {
            seed,
            vocab,
            rng,
            users,
            open,
            turn: 0,
        }
    }

    pub fn next_req(&mut self) -> Req {
        let slot = self.turn % self.open.len().max(1);
        self.turn += 1;
        if self
            .open
            .get(slot)
            .is_some_and(|(_, steps)| *steps >= BROWSE_SESSION_STEPS)
        {
            let user = self.users.sample(&mut self.rng) as u64;
            let fresh = UserSession::new(self.seed, user, self.vocab.clone(), DEFAULT_SKEW);
            if let Some(s) = self.open.get_mut(slot) {
                *s = (fresh, 0);
            }
        }
        match self.open.get_mut(slot) {
            Some((session, steps)) => {
                *steps += 1;
                let target = session.next_request().target;
                Req {
                    kind: classify(&target),
                    target,
                }
            }
            None => Req {
                kind: Kind::Meta,
                target: "/api/meta".into(),
            },
        }
    }
}

/// Window lengths the analyst mix draws from, in days: a week to a year.
const WINDOWS: [i32; 7] = [7, 14, 30, 61, 91, 182, 365];
/// Largest result a generated analysis may group into (rows).
const MAX_GROUPS: u64 = 2_000;

/// The `explore_cold` mix: an analyst who never asks the same question
/// twice. Windows from a week to the full range, one to four group
/// dimensions, country/road/update filters, percentage values, `bbox=`
/// viewports around places that hold data, and `/api/sample` boxes.
/// Every target's normalized response-cache key is new: a draw whose key
/// was already issued is redrawn, so the keys differ because the queries
/// differ, never through a parameter the API ignores.
pub struct ExploreGen {
    rng: Rng,
    vocab: Vocab,
    anchors: Vec<(f64, f64)>,
    seen: HashSet<RespKey>,
}

impl ExploreGen {
    /// `anchors` are `(lat, lon)` points where the dataset has updates;
    /// viewports and sample boxes are drawn around them.
    pub fn new(seed: u64, vocab: Vocab, anchors: Vec<(f64, f64)>) -> ExploreGen {
        ExploreGen {
            rng: Rng::new(Rng::derive(seed, 0xE0)),
            vocab,
            anchors,
            seen: HashSet::new(),
        }
    }

    pub fn next_req(&mut self) -> Req {
        loop {
            let req = self.draw();
            if self.seen.insert(req.resp_key()) {
                return req;
            }
        }
    }

    fn pick<'a>(&mut self, items: &'a [String]) -> &'a str {
        items
            .get(self.rng.below(items.len().max(1) as u64) as usize)
            .map_or("", String::as_str)
    }

    fn window(&mut self) -> (Date, Date, i32) {
        let total = self.vocab.range.len_days() as i32;
        let len = WINDOWS
            .get(self.rng.below(WINDOWS.len() as u64) as usize)
            .copied()
            .unwrap_or(7);
        let len = len.min(total).max(1);
        let off = self.rng.below((total - len + 1).max(1) as u64) as i32;
        let start = self.vocab.range.start().add_days(off);
        (start, start.add_days(len - 1), len)
    }

    /// A box of side `deg` degrees around an anchor, jittered.
    fn bbox(&mut self, deg: f64) -> String {
        let (lat, lon) = self
            .anchors
            .get(self.rng.below(self.anchors.len().max(1) as u64) as usize)
            .copied()
            .unwrap_or((0.0, 0.0));
        let jitter = |rng: &mut Rng| (rng.f64() - 0.5) * deg;
        let lat0 = (lat + jitter(&mut self.rng) - deg / 2.0).clamp(-89.0, 89.0 - deg.min(170.0));
        let lon0 = (lon + jitter(&mut self.rng) - deg / 2.0).clamp(-179.0, 179.0 - deg.min(350.0));
        format!(
            "{:.2},{:.2},{:.2},{:.2}",
            lat0,
            lon0,
            lat0 + deg.min(170.0),
            lon0 + deg.min(350.0)
        )
    }

    fn draw(&mut self) -> Req {
        let roll = self.rng.below(100);
        let (start, end, len) = self.window();
        let mut target = match roll {
            // 15%: a map sample box, scoped to a window half of the time.
            0..=14 => {
                let deg = [1.0, 3.0, 8.0][self.rng.below(3) as usize % 3];
                let b = self.bbox(deg);
                let mut parts = b.split(',');
                let mut next = || parts.next().unwrap_or("0").to_string();
                let (a, b2, c, d) = (next(), next(), next(), next());
                let limit = self.rng.range_u64(10, 200);
                let mut t = format!(
                    "/api/sample?min_lat={a}&min_lon={b2}&max_lat={c}&max_lon={d}&limit={limit}"
                );
                if self.rng.bool() {
                    t.push_str(&format!("&start={start}&end={end}"));
                }
                t
            }
            _ => format!("/api/analysis?start={start}&end={end}"),
        };
        if roll >= 15 {
            // 1 to 4 group dimensions, at most one of them temporal.
            let dims = self.rng.range_u64(1, 4) as usize;
            let mut pool: Vec<&str> = vec!["country", "road", "update", "element", "date"];
            let mut group: Vec<&str> = Vec::new();
            let mut rows: u64 = 1;
            for _ in 0..dims {
                let i = self.rng.below(pool.len() as u64) as usize;
                let dim = pool.remove(i.min(pool.len() - 1));
                let (name, card) = match dim {
                    "country" => ("country", self.vocab.countries.len() as u64),
                    "road" => ("road", self.vocab.roads.len() as u64),
                    "update" => ("update", 4),
                    "element" => ("element", 3),
                    _ => {
                        let gran = match len {
                            0..=31 => ["day", "week"][self.rng.below(2) as usize % 2],
                            32..=91 => ["week", "month"][self.rng.below(2) as usize % 2],
                            _ => ["month", "year"][self.rng.below(2) as usize % 2],
                        };
                        let periods = match gran {
                            "day" => len as u64,
                            "week" => len as u64 / 7 + 2,
                            "month" => len as u64 / 28 + 2,
                            _ => 2,
                        };
                        (gran, periods)
                    }
                };
                if rows * card > MAX_GROUPS {
                    continue;
                }
                rows *= card;
                group.push(name);
            }
            if group.is_empty() {
                group.push("update");
            }
            target.push_str(&format!("&group={}", group.join(",")));
            // Filters.
            if self.rng.below(100) < 45 {
                let n = self.rng.range_u64(1, 3);
                let mut cs: Vec<String> = Vec::new();
                for _ in 0..n {
                    let c = self.pick(&self.vocab.countries.clone()).to_string();
                    if !cs.contains(&c) {
                        cs.push(c);
                    }
                }
                target.push_str(&format!("&countries={}", cs.join(",")));
            }
            if self.rng.below(100) < 25 {
                let r = self.pick(&self.vocab.roads.clone()).to_string();
                target.push_str(&format!("&roads={r}"));
            }
            if self.rng.below(100) < 20 {
                let u =
                    ["create", "delete", "geometry", "metadata"][self.rng.below(4) as usize % 4];
                target.push_str(&format!("&updates={u}"));
            }
            if self.rng.below(100) < 10 {
                target.push_str("&value=percentage");
            }
            // 30% of analyses are viewport drill-downs.
            if roll >= 70 {
                let deg = [2.0, 5.0, 10.0, 25.0][self.rng.below(4) as usize % 4];
                let b = self.bbox(deg);
                target.push_str(&format!("&bbox={b}"));
            }
        }
        Req {
            kind: classify(&target),
            target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rased_temporal::DateRange;

    fn test_vocab() -> Vocab {
        let start = Date::new(2021, 1, 1).expect("date");
        Vocab::synthetic(12, 12, DateRange::new(start, start.add_days(364)))
    }

    fn anchors() -> Vec<(f64, f64)> {
        vec![(10.0, 20.0), (-30.5, 140.25), (48.0, 2.0)]
    }

    #[test]
    fn same_seed_same_sequences() {
        let mut a = BrowseGen::new(7, test_vocab());
        let mut b = BrowseGen::new(7, test_vocab());
        for _ in 0..2_000 {
            assert_eq!(a.next_req(), b.next_req());
        }
        let mut a = ExploreGen::new(7, test_vocab(), anchors());
        let mut b = ExploreGen::new(7, test_vocab(), anchors());
        for _ in 0..2_000 {
            assert_eq!(a.next_req(), b.next_req());
        }
        let mut c = ExploreGen::new(8, test_vocab(), anchors());
        let first: Vec<Req> = (0..50).map(|_| c.next_req()).collect();
        let mut a = ExploreGen::new(7, test_vocab(), anchors());
        assert_ne!(first, (0..50).map(|_| a.next_req()).collect::<Vec<_>>());
    }

    #[test]
    fn explore_never_repeats_a_normalized_key() {
        let mut g = ExploreGen::new(3, test_vocab(), anchors());
        let mut keys = HashSet::new();
        for _ in 0..5_000 {
            let r = g.next_req();
            // Normalization the server applies: decoded, sorted params.
            assert!(keys.insert(r.resp_key()), "repeated key for {}", r.target);
            // And with the parameters shuffled, it is still the same key.
            let (path, query) = r.split();
            let mut parts: Vec<&str> = query.split('&').collect();
            parts.reverse();
            assert_eq!(
                RespKey::with_stamp(path, &parts.join("&"), Vec::new()),
                r.resp_key()
            );
        }
    }

    #[test]
    fn explore_covers_every_request_class() {
        let mut g = ExploreGen::new(11, test_vocab(), anchors());
        let reqs: Vec<Req> = (0..1_000).map(|_| g.next_req()).collect();
        for kind in [Kind::Analysis, Kind::Viewport, Kind::Sample] {
            assert!(reqs.iter().any(|r| r.kind == kind), "{kind:?} missing");
        }
        assert!(reqs
            .iter()
            .any(|r| r.target.contains("start=2021-01-01&end=2021-12-31")));
        assert!(reqs.iter().any(|r| r.target.contains("countries=")));
        assert!(reqs
            .iter()
            .any(|r| r.target.matches(',').count() >= 3 && r.target.contains("group=")));
    }

    #[test]
    fn browse_working_set_is_bounded_and_mostly_repeats() {
        let mut g = BrowseGen::new(5, test_vocab());
        let mut keys = HashSet::new();
        let n = 20_000;
        for _ in 0..n {
            keys.insert(g.next_req().resp_key());
        }
        assert!(
            keys.len() as u64 <= BROWSE_USERS * BROWSE_SESSION_STEPS as u64,
            "{}",
            keys.len()
        );
        assert!(keys.len() * 10 < n, "{} distinct of {n}", keys.len());
    }

    #[test]
    fn targets_use_only_api_parameters() {
        // The server receives only generated inputs: every parameter is
        // one the API interprets (no nonces, no cache busters).
        let known = [
            "start",
            "end",
            "countries",
            "roads",
            "updates",
            "group",
            "value",
            "bbox",
            "min_lat",
            "min_lon",
            "max_lat",
            "max_lon",
            "limit",
        ];
        let mut b = BrowseGen::new(1, test_vocab());
        let mut e = ExploreGen::new(1, test_vocab(), anchors());
        for r in (0..2_000)
            .map(|_| b.next_req())
            .chain((0..2_000).map(|_| e.next_req()))
        {
            let (_, query) = r.split();
            for (k, _) in rased_dashboard::parse_query_string(query) {
                assert!(
                    known.contains(&k.as_str()),
                    "unexpected parameter {k} in {}",
                    r.target
                );
            }
        }
    }
}
