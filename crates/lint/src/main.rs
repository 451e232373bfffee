//! `snn-lint` CLI: lint the workspace's lock discipline, print
//! diagnostics, exit nonzero on findings.
//!
//! ```text
//! snn-lint [--root <dir>] [--list]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

// Library code reports failure through its typed errors, never a panic.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unimplemented)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// `Ok(None)` for `--list`, else the `--root` given, if any.
fn parse_args() -> Result<Option<Option<PathBuf>>, String> {
    let mut root = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?)),
            "--list" => return Ok(None),
            "--help" | "-h" => {
                println!(
                    "snn-lint: the workspace's lock-discipline checks\n\n\
                     USAGE: snn-lint [--root <dir>] [--list]\n\n\
                     See DESIGN.md \"Lints\" for both ids and the rest of the lint setup."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(Some(root))
}

/// Walks upward from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`.
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if std::fs::read_to_string(&manifest).is_ok_and(|text| text.contains("[workspace]")) {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory \
                        (pass --root explicitly)"
                .into());
        }
    }
}

fn main() -> ExitCode {
    let root = match parse_args() {
        Ok(Some(root)) => root,
        Ok(None) => {
            for lint in &snn_lint::passes::LINTS {
                println!("{:<12} {}  [scope: {}]", lint.id, lint.summary, lint.scope);
            }
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let report = match root.map_or_else(find_root, Ok).and_then(|root| snn_lint::run(&root)) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let wall = started.elapsed();
    for d in &report.diagnostics {
        println!("{}", d.render());
    }
    if report.is_clean() {
        println!("snn-lint: {} files checked, no findings", report.checked_files);
    } else {
        println!(
            "snn-lint: {} findings in {} files checked",
            report.diagnostics.len(),
            report.checked_files
        );
    }
    eprintln!("snn-lint: analysis wall time {:.1} ms", wall.as_secs_f64() * 1000.0);
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
