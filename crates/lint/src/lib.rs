//! `rased-lint` — in-repo static analysis for the RASED workspace.
//!
//! The workspace is hermetic by policy (std-only, `--offline --locked`
//! CI), so its correctness tooling lives in-repo too. This crate is a
//! std-only static-analysis engine over the workspace's own sources,
//! built on a total Rust lexer ([`lexer`]): any byte sequence lexes to
//! tokens or a typed error, never a panic — the same contract as the
//! serving tier's HTTP parser.
//!
//! Passes (each a module, each feeding [`Finding`]s into one report):
//!
//! * [`panics`] — the panic-freedom ratchet (`unwrap`/`expect`/`panic!`
//!   family, plus a separate slice-indexing count), checked per crate
//!   against [`baseline::Baseline`]; request-path crates are denied any
//!   unsuppressed finding.
//! * [`locks`] — static lock-discipline audit against the rank table in
//!   `lint.toml`; complements the runtime cycle detector in
//!   `rased_storage::sync`.
//! * [`determinism`] — wall-clock/env/network bans outside the allowlist,
//!   protecting `dettest` replayability.
//! * [`hermetic`] — manifest scanning (no external dependencies), absorbed
//!   from `tests/hermetic.rs`.
//!
//! Justified residue is suppressed in place with
//! `// lint: allow(<category>, "<reason>")` on the finding's line or the
//! line above; suppressions are counted and reported, never silent.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod callgraph;
pub mod config;
pub mod determinism;
pub mod hermetic;
pub mod items;
pub mod lexer;
pub mod locks;
pub mod nonblocking;
pub mod panics;
pub mod reach;
pub mod source;

use baseline::Baseline;
use config::Config;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The finding taxonomy. `Panic` and `SliceIndex` ratchet against the
/// baseline; the rest fail outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    Panic,
    SliceIndex,
    Lock,
    Determinism,
    Hermetic,
    /// Blocking work reachable from an event-loop root ([`nonblocking`]).
    Nonblocking,
    /// A panic reachable from a request-path root ([`reach`]).
    PanicReach,
}

impl Category {
    /// The name used in pragmas and report output.
    pub fn name(self) -> &'static str {
        match self {
            Category::Panic => "panic",
            Category::SliceIndex => "slice_index",
            Category::Lock => "lock",
            Category::Determinism => "determinism",
            Category::Hermetic => "hermetic",
            Category::Nonblocking => "nonblocking",
            Category::PanicReach => "panic_reach",
        }
    }
}

/// One finding, suppressed or not.
#[derive(Debug, Clone)]
pub struct Finding {
    pub category: Category,
    /// Owning crate (empty for manifest-level findings).
    pub crate_name: String,
    /// Workspace-relative path.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    /// Covered by a `// lint: allow(...)` pragma.
    pub suppressed: bool,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}{}",
            self.path.display(),
            self.line,
            self.category.name(),
            self.message,
            if self.suppressed { " (suppressed by pragma)" } else { "" },
        )
    }
}

/// The complete result of a workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, including suppressed ones.
    pub findings: Vec<Finding>,
    /// Unsuppressed `panic` counts per crate.
    pub panic_counts: BTreeMap<String, usize>,
    /// Unsuppressed `slice_index` counts per crate.
    pub slice_index_counts: BTreeMap<String, usize>,
    /// Hard failures (formatted), empty on a passing run.
    pub failures: Vec<String>,
    /// Notices (e.g. "ratchet can tighten"), informational.
    pub notices: Vec<String>,
}

impl Report {
    /// Total unsuppressed panic findings — the headline number.
    pub fn panic_total(&self) -> usize {
        self.panic_counts.values().sum()
    }

    /// The baseline these counts would write.
    pub fn as_baseline(&self) -> Baseline {
        Baseline { panic: self.panic_counts.clone(), slice_index: self.slice_index_counts.clone() }
    }

    /// Did the run pass?
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The report as a JSON document (`--format=json`): every finding with
    /// its category/path/line/suppression, per-crate ratchet counts, and
    /// the failure/notice lists — enough for trend tooling to consume a CI
    /// artifact without re-running the lint.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"ok\":");
        out.push_str(if self.ok() { "true" } else { "false" });
        out.push_str(",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"category\":{},\"crate\":{},\"path\":{},\"line\":{},\"suppressed\":{},\"message\":{}}}",
                json_str(f.category.name()),
                json_str(&f.crate_name),
                json_str(&f.path.display().to_string()),
                f.line,
                f.suppressed,
                json_str(&f.message),
            ));
        }
        out.push_str("],\"counts\":{");
        for (i, (name, panic)) in self.panic_counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let slices = self.slice_index_counts.get(name).copied().unwrap_or(0);
            out.push_str(&format!(
                "{}:{{\"panic\":{panic},\"slice_index\":{slices}}}",
                json_str(name)
            ));
        }
        out.push_str("},\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(f));
        }
        out.push_str("],\"notices\":[");
        for (i, n) in self.notices.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(n));
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string encoding: quotes, backslashes, and control bytes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Reject a configured root that resolves to no function: a renamed or
/// deleted entry point would otherwise silently shrink the pass it seeds.
fn check_roots(config: &Config, graph: &callgraph::Graph<'_>) -> Result<(), String> {
    for (section, specs) in [
        ("[panic] reach_roots", &config.panic_reach_roots),
        ("[nonblocking] roots", &config.nonblocking_roots),
        ("[nonblocking] deny_calls", &config.nonblocking_deny_calls),
    ] {
        if let Some(spec) = specs.iter().find(|spec| graph.find_roots(spec).is_empty()) {
            return Err(format!(
                "lint.toml: {section} entry {spec:?} names no function in the workspace"
            ));
        }
    }
    Ok(())
}

/// Run every pass over the workspace at `root` and evaluate policy
/// (baseline ratchet + deny-crates) into a [`Report`].
pub fn run_workspace(root: &Path) -> Result<Report, Box<dyn std::error::Error>> {
    let config = Config::load(root)?;
    let baseline = Baseline::load(root)?;
    let crates = source::discover_workspace(root)?;

    let mut report = Report::default();
    for c in &crates {
        report.panic_counts.insert(c.name.clone(), 0);
        report.slice_index_counts.insert(c.name.clone(), 0);
        for file in &c.files {
            panics::scan(&c.name, file, &mut report.findings);
            locks::scan(&c.name, &config, file, &mut report.findings);
            determinism::scan(&c.name, &config, file, &mut report.findings);
        }
    }
    hermetic::scan(root, &config, &mut report.findings)?;

    // Interprocedural passes over the workspace call graph: cross-function
    // lock-rank propagation, the nonblocking event-loop invariant, and
    // panic reachability from the request path.
    let graph = callgraph::Graph::build(&crates);
    check_roots(&config, &graph)?;
    locks::propagate(&config, &graph, &mut report.findings);
    nonblocking::scan(&config, &graph, &mut report.findings);
    reach::scan(&config, &graph, &mut report.findings);

    for f in &report.findings {
        if f.suppressed {
            continue;
        }
        match f.category {
            Category::Panic => {
                *report.panic_counts.entry(f.crate_name.clone()).or_default() += 1;
            }
            Category::SliceIndex => {
                *report.slice_index_counts.entry(f.crate_name.clone()).or_default() += 1;
            }
            // Non-ratcheted categories fail outright.
            Category::Lock
            | Category::Determinism
            | Category::Hermetic
            | Category::Nonblocking
            | Category::PanicReach => {
                report.failures.push(f.to_string());
            }
        }
    }

    // Deny rule: the request path may contain no unsuppressed panic
    // findings at all, baseline or not.
    for f in &report.findings {
        if f.category == Category::Panic
            && !f.suppressed
            && config.panic_deny_crates.contains(&f.crate_name)
        {
            report.failures.push(format!("{f} — `{}` is a request-path crate: panic-free or pragma'd", f.crate_name));
        }
    }

    // Ratchet: counts may only go down.
    match &baseline {
        None => report.notices.push(format!(
            "no {} yet — run with --write-baseline to seed the ratchet",
            baseline::BASELINE_FILE
        )),
        Some(base) => {
            let mut can_tighten = false;
            for (counts, base_map, category) in [
                (&report.panic_counts, &base.panic, Category::Panic),
                (&report.slice_index_counts, &base.slice_index, Category::SliceIndex),
            ] {
                for (name, &count) in counts {
                    let allowed = base_map.get(name).copied().unwrap_or(0);
                    if count > allowed {
                        report.failures.push(format!(
                            "[{}] {name}: {count} findings exceed the baseline of {allowed} — \
                             the ratchet only goes down (fix the new call sites or add a \
                             `// lint: allow({}, \"…\")` pragma with a reason)",
                            category.name(),
                            category.name(),
                        ));
                    } else if count < allowed {
                        can_tighten = true;
                    }
                }
            }
            if can_tighten {
                report.notices.push(
                    "counts are below the checked-in baseline — run with --write-baseline to tighten the ratchet"
                        .to_string(),
                );
            }
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_names_match_pragma_syntax() {
        assert_eq!(Category::Panic.name(), "panic");
        assert_eq!(Category::SliceIndex.name(), "slice_index");
        assert_eq!(Category::Lock.name(), "lock");
        assert_eq!(Category::Determinism.name(), "determinism");
        assert_eq!(Category::Hermetic.name(), "hermetic");
        assert_eq!(Category::Nonblocking.name(), "nonblocking");
        assert_eq!(Category::PanicReach.name(), "panic_reach");
    }

    #[test]
    fn json_report_escapes_and_round_trips_shape() {
        let mut r = Report::default();
        r.findings.push(Finding {
            category: Category::Panic,
            crate_name: "rased-core".into(),
            path: PathBuf::from("crates/core/src/lib.rs"),
            line: 7,
            message: "`.expect()` on \"weird\"\npath".into(),
            suppressed: true,
        });
        r.panic_counts.insert("rased-core".into(), 1);
        r.slice_index_counts.insert("rased-core".into(), 0);
        r.notices.push("ratchet can tighten".into());
        let j = r.to_json();
        assert!(j.starts_with("{\"ok\":true,"));
        assert!(j.contains(r#""category":"panic""#));
        assert!(j.contains(r#""crate":"rased-core""#));
        assert!(j.contains(r#""line":7"#));
        assert!(j.contains(r#""suppressed":true"#));
        // Embedded quote and newline are escaped, keeping the doc one line.
        assert!(j.contains(r#"\"weird\""#));
        assert!(j.contains(r"\npath"));
        assert!(!j.contains('\n'));
        assert!(j.contains(r#""rased-core":{"panic":1,"slice_index":0}"#));
        assert!(j.ends_with(r#""failures":[],"notices":["ratchet can tighten"]}"#));
    }

    #[test]
    fn json_report_failure_flag() {
        let mut r = Report::default();
        r.failures.push("rased-core: panic count 5 > baseline 4".into());
        let j = r.to_json();
        assert!(j.starts_with("{\"ok\":false,"));
        assert!(j.contains("panic count 5 > baseline 4"));
    }
}
