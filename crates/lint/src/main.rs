//! `rased-lint` — CLI for the in-repo static-analysis engine.
//!
//! ```text
//! rased-lint --workspace [--root DIR] [--write-baseline] [--verbose]
//!            [--format=text|json]
//! ```
//!
//! Exit status is the CI contract: 0 when every pass and the ratchet
//! hold, 1 otherwise. `ci.sh` runs this before the test suites.
//! `--format=json` swaps the human summary for one machine-readable JSON
//! document on stdout (findings, per-crate counts, failures, notices) —
//! `ci.sh` saves it as the `lint-findings.json` artifact.

#![forbid(unsafe_code)]

use rased_lint::baseline;
use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Text,
    Json,
}

struct Options {
    root: PathBuf,
    write_baseline: bool,
    verbose: bool,
    format: Format,
}

fn parse_args() -> Result<Options, String> {
    let mut root = None;
    let mut write_baseline = false;
    let mut verbose = false;
    let mut workspace = false;
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--write-baseline" => write_baseline = true,
            "--verbose" | "-v" => verbose = true,
            "--format=text" => format = Format::Text,
            "--format=json" => format = Format::Json,
            "--root" => {
                let v = args.next().ok_or("--root needs a directory argument")?;
                root = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                return Err("usage: rased-lint --workspace [--root DIR] [--write-baseline] [--verbose] [--format=text|json]"
                    .to_string())
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if !workspace {
        return Err("rased-lint currently only supports --workspace mode (try --help)".to_string());
    }
    let root = match root {
        Some(r) => r,
        // Default to the manifest dir's workspace root when run via
        // `cargo run -p rased-lint`, else the current directory.
        None => match std::env::var("CARGO_MANIFEST_DIR") {
            Ok(dir) => {
                let p = PathBuf::from(dir);
                p.parent().and_then(|p| p.parent()).map(|p| p.to_path_buf()).unwrap_or(p)
            }
            Err(_) => PathBuf::from("."),
        },
    };
    Ok(Options { root, write_baseline, verbose, format })
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let report = match rased_lint::run_workspace(&options.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rased-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Format::Json = options.format {
        // One machine-readable document on stdout; the exit code still
        // carries pass/fail, and failures stay visible on stderr below.
        println!("{}", report.to_json());
        if !report.ok() {
            eprintln!("rased-lint FAILED:");
            for f in &report.failures {
                eprintln!("  {f}");
            }
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if options.verbose {
        for f in &report.findings {
            println!("{f}");
        }
    }

    let suppressed = report.findings.iter().filter(|f| f.suppressed).count();
    println!("rased-lint: panic-point baseline {} across {} crates ({} suppressed by pragma)",
        report.panic_total(),
        report.panic_counts.len(),
        suppressed,
    );
    for (name, count) in &report.panic_counts {
        let slices = report.slice_index_counts.get(name).copied().unwrap_or(0);
        println!("  {name}: {count} panic, {slices} slice_index");
    }
    for n in &report.notices {
        println!("note: {n}");
    }

    if options.write_baseline {
        let b = report.as_baseline();
        if let Err(e) = b.save(&options.root) {
            eprintln!("rased-lint: writing {}: {e}", baseline::BASELINE_FILE);
            return ExitCode::FAILURE;
        }
        println!("wrote {} (panic total {})", baseline::BASELINE_FILE, b.panic_total());
    }

    if !report.ok() {
        eprintln!("\nrased-lint FAILED:");
        for f in &report.failures {
            eprintln!("  {f}");
        }
        return ExitCode::FAILURE;
    }
    println!("rased-lint: OK");
    ExitCode::SUCCESS
}
