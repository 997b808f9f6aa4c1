//! `m2x-lint` CLI: scan the workspace, print findings, exit non-zero on
//! any violation. Usage:
//!
//! ```text
//! cargo run -p m2x-lint            # scan the enclosing workspace
//! cargo run -p m2x-lint -- <root>  # scan an explicit workspace root
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = match std::env::args().nth(1) {
        Some(arg) => PathBuf::from(arg),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match m2x_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("m2x-lint: no workspace root found above {}", cwd.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let report = m2x_lint::scan_workspace(&root);
    for finding in &report.findings {
        println!("{finding}");
    }
    if report.is_clean() {
        println!(
            "m2x-lint: clean ({} files scanned, rules R1-R3)",
            report.files_scanned
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "m2x-lint: {} finding(s) across {} files scanned",
            report.findings.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}
