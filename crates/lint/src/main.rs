//! `xai-lint` — the workspace invariant linter's CLI.
//!
//! ```text
//! xai-lint [--root <dir>]              lint the workspace (exit 1 on findings)
//! xai-lint --list-locks [--root <dir>] print the lock-class hierarchy table
//! xai-lint --list-pub [--root <dir>]   print the public-item count per product crate
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut list_locks = false;
    let mut list_pub = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("xai-lint: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--list-locks" => list_locks = true,
            "--list-pub" => list_pub = true,
            "--help" | "-h" => {
                println!(
                    "xai-lint: workspace invariant linter\n\
                     \n\
                     usage: xai-lint [--root <dir>] [--list-locks] [--list-pub]\n\
                     \n\
                     rules: {}\n\
                     waive in place with `// lint:allow(<rule>): <reason>`",
                    xai_lint::RULES.join(", ")
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("xai-lint: unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    if list_locks {
        return match xai_lint::collect_lock_classes(&root) {
            Ok(decls) => {
                print!("{}", xai_lint::render_lock_table(&decls));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xai-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    if list_pub {
        return match xai_lint::pub_item_table(&root) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xai-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    match xai_lint::lint_workspace(&root) {
        Ok(diags) if diags.is_empty() => {
            println!("xai-lint: workspace clean");
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            for d in &diags {
                eprintln!("{d}");
            }
            eprintln!("xai-lint: {} violation(s)", diags.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xai-lint: {e}");
            ExitCode::from(2)
        }
    }
}
