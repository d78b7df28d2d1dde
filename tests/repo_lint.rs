//! The repo lint (`make lint` runs this file alone; tier-1 runs it
//! with the suite), eight rules:
//!
//! 1. No wall-clock or OS-entropy primitives anywhere in simulation
//!    code: every stochastic draw must fork from the study seed and
//!    every timestamp must be SimTime, or runs stop being bitwise
//!    reproducible.
//! 2. Wall-clock *timing* is quarantined in `crates/obs` (the
//!    telemetry layer, DESIGN.md §5) and `crates/serve` (the IO
//!    boundary, DESIGN.md §12, whose socket deadlines and drain budget
//!    are wall-clock by nature and never feed simulation state):
//!    simulation crates measure elapsed time only through
//!    `obs::Stopwatch` / `obs::span!`. The CLI binary is user-facing
//!    and exempt.
//! 3. Library sources never print: stdout is reserved for
//!    machine-readable output and stderr goes through the leveled
//!    `obs` logger. Allowlist: the CLI binary and the logger itself.
//! 4. Library sources never call bare unwrap (DESIGN.md §6): failure
//!    paths return the typed `ddoscovery::Error`, degrade to
//!    `None`/NaN, or justify an impossible failure with
//!    `expect("why")`. This also bans the NaN-panicking
//!    `partial_cmp(..)` + unwrap comparator idiom — use `total_cmp`.
//!    Only lines before a file's first test-module marker are in
//!    scope; tests and benches may unwrap freely.
//! 5. Unwind capture (the std panic-catching primitive) is confined to
//!    `crates/simcore/src/recover.rs`, the designated recovery module
//!    (DESIGN.md §8): every caught panic flows through
//!    `recover::capture` so retry budgets and `fault.*` counters stay
//!    consistent.
//! 6. Chrome trace-event emission (the `traceEvents` document key) is
//!    confined to `crates/obs/src/trace.rs`, the flight recorder
//!    (DESIGN.md §10): one exporter owns the event schema. Consumers
//!    outside library sources (tests, `examples/trace_check.rs`) may
//!    parse the format freely.
//! 7. Stage-cell IO (the cell magic constant and the default store
//!    directory) is confined to `crates/core/src/diskstore.rs`, the
//!    persistent stage store (DESIGN.md §11): one module owns the
//!    checksummed wire layout, so every load is integrity-checked and
//!    every reject is counted. The CLI binary may name the default
//!    directory in its usage text; tests and benches may poke cells.
//! 8. Socket IO (the TCP listener/stream types) is confined to
//!    `crates/serve/src`, the query-service boundary (DESIGN.md §12):
//!    one crate owns accept loops, deadlines, and load shedding, so a
//!    socket anywhere else would dodge the admission control and the
//!    `http.*` counters. Tests and benches may open client sockets.

use std::fs;
use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == "vendor" {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

struct Rule {
    /// Shown in violation reports.
    name: &'static str,
    /// Substrings that must not appear (built by concatenation so this
    /// file passes its own scan).
    patterns: Vec<String>,
    /// Directories (relative to the repo root) the rule scans.
    dirs: &'static [&'static str],
    /// Returns true when the repo-relative path is exempt.
    allow: fn(&str) -> bool,
    /// Stop scanning each file at its first test-module marker —
    /// inline `mod tests` blocks are not library code.
    library_lines_only: bool,
}

fn scan(root: &Path, rule: &Rule) -> Vec<String> {
    // Built by concatenation so this file passes its own scan.
    let test_marker = ["#[cfg(te", "st)]"].concat();
    let mut files = Vec::new();
    for dir in rule.dirs {
        rust_sources(&root.join(dir), &mut files);
    }
    let mut violations = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        if (rule.allow)(&rel) {
            continue;
        }
        let Ok(text) = fs::read_to_string(file) else { continue };
        for (lineno, line) in text.lines().enumerate() {
            if rule.library_lines_only && line.contains(test_marker.as_str()) {
                break;
            }
            for pat in &rule.patterns {
                if line.contains(pat.as_str()) {
                    violations.push(format!(
                        "{rel}:{}: [{}] {}",
                        lineno + 1,
                        rule.name,
                        line.trim()
                    ));
                }
            }
        }
    }
    violations
}

#[test]
fn repo_lint_rules_hold() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Sanity: the directory layout still holds a real code base.
    let mut all = Vec::new();
    for dir in ["crates", "src", "examples", "tests"] {
        rust_sources(&root.join(dir), &mut all);
    }
    assert!(
        all.len() > 50,
        "lint scanned only {} files — directory layout changed?",
        all.len()
    );

    let rules = [
        Rule {
            name: "nondeterminism primitive",
            patterns: vec![["thread_", "rng"].concat(), ["System", "Time"].concat()],
            dirs: &["crates", "src", "examples", "tests"],
            allow: |_| false,
            library_lines_only: false,
        },
        Rule {
            name: "wall-clock timing outside crates/obs",
            patterns: vec![["Inst", "ant"].concat()],
            dirs: &["crates", "src", "tests"],
            allow: |rel| {
                rel.starts_with("crates/obs/")
                    || rel.starts_with("crates/serve/")
                    || rel.starts_with("crates/core/src/bin/")
            },
            library_lines_only: false,
        },
        Rule {
            name: "raw print in library code",
            patterns: vec![["print", "ln!"].concat(), ["eprint", "ln!"].concat()],
            dirs: &["crates", "src"],
            allow: |rel| {
                // Only library sources are in scope — crate tests and
                // benches sit outside src/ and may print freely.
                !(rel.starts_with("src/") || rel.contains("/src/"))
                    || rel.starts_with("crates/core/src/bin/")
                    || rel == "crates/obs/src/log.rs"
            },
            library_lines_only: false,
        },
        Rule {
            name: "bare unwrap in library code",
            patterns: vec![[".unwr", "ap()"].concat()],
            dirs: &["crates", "src"],
            // Same library scope as the print rule; the CLI binary is
            // NOT exempt here — its failure paths carry exit codes.
            allow: |rel| !(rel.starts_with("src/") || rel.contains("/src/")),
            library_lines_only: true,
        },
        Rule {
            name: "unwind boundary outside the recovery module",
            patterns: vec![["catch_", "unwind"].concat()],
            dirs: &["crates", "src", "examples", "tests"],
            allow: |rel| rel == "crates/simcore/src/recover.rs",
            library_lines_only: false,
        },
        Rule {
            name: "trace-event emission outside the flight recorder",
            patterns: vec![["traceEv", "ents"].concat()],
            dirs: &["crates", "src"],
            // Same library scope as the print rule: only src/ files are
            // emitters; tests and examples merely parse the format.
            allow: |rel| {
                !(rel.starts_with("src/") || rel.contains("/src/"))
                    || rel == "crates/obs/src/trace.rs"
            },
            library_lines_only: false,
        },
        Rule {
            name: "stage-cell IO outside the disk store module",
            patterns: vec![
                ["CELL_", "MAGIC"].concat(),
                [".ddoscovery", "/store"].concat(),
            ],
            dirs: &["crates", "src"],
            // Same library scope as the print rule; the CLI binary only
            // names the default directory in its usage text.
            allow: |rel| {
                !(rel.starts_with("src/") || rel.contains("/src/"))
                    || rel == "crates/core/src/diskstore.rs"
                    || rel.starts_with("crates/core/src/bin/")
            },
            library_lines_only: false,
        },
        Rule {
            name: "socket IO outside the serve crate",
            patterns: vec![["TcpList", "ener"].concat(), ["TcpStr", "eam"].concat()],
            dirs: &["crates", "src"],
            // Same library scope as the print rule: only src/ files are
            // in scope, and only crates/serve may touch sockets.
            allow: |rel| {
                !(rel.starts_with("src/") || rel.contains("/src/"))
                    || rel.starts_with("crates/serve/src/")
            },
            library_lines_only: false,
        },
    ];

    let violations: Vec<String> = rules.iter().flat_map(|r| scan(root, r)).collect();
    assert!(
        violations.is_empty(),
        "repo lint violations:\n{}",
        violations.join("\n")
    );
}
