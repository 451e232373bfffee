//! `snn-lint` CLI: lint the workspace, print diagnostics, exit nonzero
//! on findings.
//!
//! ```text
//! snn-lint [--root <dir>] [--format text|json|sarif] [--list] [--explain <ID>]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Args {
    root: Option<PathBuf>,
    format: Format,
    list: bool,
    explain: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { root: None, format: Format::Text, list: false, explain: None };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let value = it.next().ok_or("--root needs a directory argument")?;
                args.root = Some(PathBuf::from(value));
            }
            "--format" => match it.next().as_deref() {
                Some("json") => args.format = Format::Json,
                Some("text") => args.format = Format::Text,
                Some("sarif") => args.format = Format::Sarif,
                other => {
                    return Err(format!(
                        "--format expects `text`, `json` or `sarif`, got {:?}",
                        other.unwrap_or("<missing>")
                    ))
                }
            },
            "--list" => args.list = true,
            "--explain" => {
                let id = it.next().ok_or("--explain needs a lint id argument (e.g. L-DET-FLOW)")?;
                args.explain = Some(id);
            }
            "--help" | "-h" => {
                println!(
                    "snn-lint: repo-native static analysis\n\n\
                     USAGE: snn-lint [--root <dir>] [--format text|json|sarif] [--list]\n       \
                     [--explain <ID>]\n\n\
                     --explain <ID>        print one pass's rule, scope and rationale\n\n\
                     Suppress a finding in-source with a justification:\n  \
                     // snn-lint: allow(<ID>): <why this is sound>\n\n\
                     See DESIGN.md §9, §15 and §16 for every lint id and its rationale."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

/// Walks upward from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`.
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Ok(dir);
                }
            }
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory \
                        (pass --root explicitly)"
                .into());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for lint in snn_lint::passes::catalog() {
            println!("{:<12} {}  [scope: {}]", lint.id, lint.summary, lint.scope);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(id) = &args.explain {
        let Some(lint) = snn_lint::passes::explain(id) else {
            eprintln!("error: unknown lint id {id:?} — run `snn-lint --list` for every known id");
            return ExitCode::from(2);
        };
        println!("{id}: {}\n\nscope: {}\n\n{}", lint.summary, lint.scope, lint.explain);
        return ExitCode::SUCCESS;
    }
    let root = match args.root.map_or_else(find_root, Ok) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let report = match snn_lint::run(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let wall = started.elapsed();
    match args.format {
        Format::Json => {
            println!("{}", snn_lint::diag::to_json(&report.diagnostics, report.checked_files));
        }
        Format::Sarif => {
            let rules: Vec<snn_lint::sarif::SarifRule> = snn_lint::passes::catalog()
                .into_iter()
                .map(|lint| snn_lint::sarif::SarifRule {
                    id: lint.id,
                    short_description: lint.summary.to_string(),
                })
                .collect();
            println!(
                "{}",
                snn_lint::sarif::render(
                    "snn-lint",
                    "DESIGN.md",
                    &rules,
                    &report.diagnostics,
                    |_| { snn_lint::sarif::Level::Warning }
                )
            );
        }
        Format::Text => {
            for d in &report.diagnostics {
                println!("{}", d.render());
            }
            if report.is_clean() {
                println!("snn-lint: {} files checked, no findings", report.checked_files);
            } else {
                let counts = snn_lint::diag::count_by_id(&report.diagnostics);
                let summary: Vec<String> =
                    counts.iter().map(|(id, n)| format!("{n}× {id}")).collect();
                println!(
                    "snn-lint: {} findings in {} files checked ({})",
                    report.diagnostics.len(),
                    report.checked_files,
                    summary.join(", ")
                );
            }
        }
    }
    eprintln!("snn-lint: analysis wall time {:.1} ms", wall.as_secs_f64() * 1000.0);
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
