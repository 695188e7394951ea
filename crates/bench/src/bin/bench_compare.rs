//! **Cross-commit bench regression gate.**
//!
//! `BENCH_fig13.json` is committed after every meaningful serving-tier
//! change, so its git history is a performance trajectory. This gate loads
//! the two most recent committed points and fails when the newer one
//! regresses beyond tolerance:
//!
//! * throughput: `qps` dropping by more than `BENCH_CMP_QPS_DROP`
//!   (default 0.50, i.e. a >50% collapse) fails;
//! * latency: full-run `latency_micros.p99` growing by more than
//!   `BENCH_CMP_P99_X` (default 3.0×) fails.
//!
//! The tolerances are deliberately loose: the harness runs on whatever
//! hardware CI happens to get, so only order-of-magnitude collapses — a
//! serialized event loop, an inert cache — should trip it, not noise.
//! With fewer than two committed points the gate prints a notice and
//! passes; a brand-new repo has no trajectory to defend.

#![forbid(unsafe_code)]

use rased_bench::httpc::{json_float_field, json_uint_field};
use std::error::Error;
use std::process::Command;

const BENCH_FILE: &str = "BENCH_fig13.json";

/// One trajectory point: the metrics we gate on, plus provenance.
#[derive(Debug, Clone, PartialEq)]
struct Point {
    commit: String,
    qps: f64,
    p99_micros: u64,
}

fn env_frac(key: &str, default: f64) -> f64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Run `git` with `args`, returning stdout on success.
fn git(args: &[&str]) -> Result<String, Box<dyn Error>> {
    let out = Command::new("git").args(args).output()?;
    if !out.status.success() {
        return Err(format!(
            "git {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        )
        .into());
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Parse the gated metrics out of one `BENCH_fig13.json` document. The
/// first `"qps"` in the document is the full-run aggregate and the first
/// `"p99"` is `latency_micros.p99` (per-epoch rows use `p99_micros`), so
/// the same field scan the load harness uses works here too.
fn parse_point(commit: &str, body: &str) -> Result<Point, Box<dyn Error>> {
    let qps = json_float_field(body, "qps")
        .ok_or_else(|| format!("{commit}: no \"qps\" field in {BENCH_FILE}"))?;
    let p99_micros = json_uint_field(body, "p99")
        .ok_or_else(|| format!("{commit}: no \"p99\" field in {BENCH_FILE}"))?;
    Ok(Point { commit: commit.to_string(), qps, p99_micros })
}

/// The two most recent committed trajectory points, newest first.
/// `None` when the history holds fewer than two.
fn trajectory() -> Result<Option<(Point, Point)>, Box<dyn Error>> {
    let log = git(&["log", "-n", "2", "--format=%h", "--", BENCH_FILE])?;
    let commits: Vec<&str> = log.split_whitespace().collect();
    let [newer, older] = commits.as_slice() else { return Ok(None) };
    let new_body = git(&["show", &format!("{newer}:{BENCH_FILE}")])?;
    let old_body = git(&["show", &format!("{older}:{BENCH_FILE}")])?;
    Ok(Some((parse_point(newer, &new_body)?, parse_point(older, &old_body)?)))
}

/// Compare `new` against `old`; returns the list of violations (empty =
/// pass). Pure so the gate's arithmetic is unit-testable without git.
fn violations(old: &Point, new: &Point, qps_drop: f64, p99_x: f64) -> Vec<String> {
    let mut v = Vec::new();
    let qps_floor = old.qps * (1.0 - qps_drop);
    if new.qps < qps_floor {
        v.push(format!(
            "qps regression: {:.0} -> {:.0} (floor {:.0} = {:.0}% of {})",
            old.qps,
            new.qps,
            qps_floor,
            (1.0 - qps_drop) * 100.0,
            old.commit,
        ));
    }
    let p99_ceil = (old.p99_micros as f64 * p99_x).ceil() as u64;
    if new.p99_micros > p99_ceil {
        v.push(format!(
            "p99 regression: {}us -> {}us (ceiling {}us = {p99_x}x of {})",
            old.p99_micros, new.p99_micros, p99_ceil, old.commit,
        ));
    }
    v
}

fn main() -> Result<(), Box<dyn Error>> {
    let qps_drop = env_frac("BENCH_CMP_QPS_DROP", 0.50);
    let p99_x = env_frac("BENCH_CMP_P99_X", 3.0);

    let Some((new, old)) = trajectory()? else {
        println!("bench-compare: fewer than two committed {BENCH_FILE} points; nothing to gate");
        return Ok(());
    };
    println!(
        "bench-compare: {} (qps {:.0}, p99 {}us) vs {} (qps {:.0}, p99 {}us)",
        new.commit, new.qps, new.p99_micros, old.commit, old.qps, old.p99_micros,
    );
    let found = violations(&old, &new, qps_drop, p99_x);
    if found.is_empty() {
        println!("bench-compare: OK (tolerance: qps drop <= {:.0}%, p99 <= {p99_x}x)", qps_drop * 100.0);
        return Ok(());
    }
    for v in &found {
        eprintln!("bench-compare: {v}");
    }
    Err(format!("{} regression(s) beyond tolerance", found.len()).into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(commit: &str, qps: f64, p99: u64) -> Point {
        Point { commit: commit.into(), qps, p99_micros: p99 }
    }

    #[test]
    fn within_tolerance_passes() {
        let old = pt("aaa", 40_000.0, 2_000);
        let new = pt("bbb", 25_000.0, 5_500);
        assert!(violations(&old, &new, 0.50, 3.0).is_empty());
    }

    #[test]
    fn qps_collapse_fails() {
        let old = pt("aaa", 40_000.0, 2_000);
        let new = pt("bbb", 15_000.0, 2_000);
        let v = violations(&old, &new, 0.50, 3.0);
        assert_eq!(v.len(), 1);
        assert!(v.first().is_some_and(|m| m.contains("qps regression")));
    }

    #[test]
    fn p99_blowup_fails() {
        let old = pt("aaa", 40_000.0, 2_000);
        let new = pt("bbb", 40_000.0, 6_001);
        let v = violations(&old, &new, 0.50, 3.0);
        assert_eq!(v.len(), 1);
        assert!(v.first().is_some_and(|m| m.contains("p99 regression")));
    }

    #[test]
    fn both_axes_reported() {
        let old = pt("aaa", 40_000.0, 2_000);
        let new = pt("bbb", 1_000.0, 60_000);
        assert_eq!(violations(&old, &new, 0.50, 3.0).len(), 2);
    }

    #[test]
    fn improvement_never_fails() {
        let old = pt("aaa", 40_000.0, 2_000);
        let new = pt("bbb", 80_000.0, 500);
        assert!(violations(&old, &new, 0.50, 3.0).is_empty());
    }

    #[test]
    fn parses_committed_report_shape() {
        let body = r#"{"bench":"fig13_slo_load","qps":41377.14,"latency_micros":{"p50":10,"p99":2365,"p999":3347},"epochs":[{"epoch":0,"qps":0,"p99_micros":1906}]}"#;
        let p = parse_point("abc1234", body).unwrap();
        assert_eq!(p.qps, 41377.14);
        assert_eq!(p.p99_micros, 2365);
    }

    #[test]
    fn appended_report_sections_do_not_move_the_gated_point() {
        // The report schema grows over time (the open-loop section is one
        // such addition, and more will follow). New sections append after
        // the full-run aggregates, so the first-"qps"/first-"p99" scan
        // must parse a grown document identically to the original shape —
        // comparing a pre-growth point against a post-growth point stays
        // apples-to-apples.
        let body = r#"{"bench":"fig13_slo_load","qps":41377.14,"latency_micros":{"p50":10,"p99":2365,"p999":3347},"epochs":[{"epoch":0,"qps":0,"p99_micros":1906}],"open_loop":{"offered_rps":150,"achieved_rps":149.2,"ok_p99_micros":901,"lag_p99_micros":77},"slo":{"p99_bound_micros":120000}}"#;
        let p = parse_point("def5678", body).unwrap();
        assert_eq!(p.qps, 41377.14);
        assert_eq!(p.p99_micros, 2365);
    }
}
