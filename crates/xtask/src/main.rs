//! Workspace automation. One command so far:
//!
//! ```sh
//! cargo xtask analyze
//! ```
//!
//! A source-level lint pass over the workspace's concurrency-critical
//! code, run in CI with exit 1 on any violation. Four rules:
//!
//! 1. **SAFETY comments** (workspace-wide): every `unsafe` block, impl,
//!    or fn must carry a `// SAFETY:` comment (or a `# Safety` doc
//!    section) within the preceding few lines.
//! 2. **No panics on the hot path**: `unwrap`/`expect`/`panic!` and
//!    friends are banned in the scheduler/submit modules outside
//!    `#[cfg(test)]` regions — a panicking submit path poisons lanes.
//! 3. **No allocation in zero-alloc functions**: the functions the
//!    counting-allocator gates protect (`FlightRecorder::record`, the
//!    metrics plane's per-reply recorders, the slot reply protocol, the
//!    ring push/pop, the channel's send and receive paths, the submit
//!    path, the scheduler's window serve loop and its shed and
//!    execute-and-reply paths, and the thread pool's dispatch:
//!    `broadcast`, `broadcast_chunks` and the `run_task` and
//!    `worker_loop` that run its tasks) must not call allocating std
//!    constructors.
//! 4. **Annotated `Relaxed`**: an `Ordering::Relaxed` in a statement
//!    touching a protocol atomic (gate state, bypass claim, seqlock seq,
//!    ring head/tail, sleeper count, channel sender/receiver counts) must
//!    carry a `// relaxed:` justification inside that statement or up to
//!    two lines above it. The rule reads the whole statement, not the
//!    line, because rustfmt splits long chains and argument lists.
//!
//! Exceptions live in `crates/xtask/analyze-allowlist.txt` as
//! `file|line-substring|reason` triples — reviewable, greppable, and
//! immune to line-number drift.
//!
//! The pass also checks its own configuration, so a rename cannot
//! silently retire a check: every rule-3 function must still be
//! declared in its file, every rule-4 atomic must still be named by a
//! code line of its file (outside tests), and every allowlist entry must
//! still match a line.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod scan;

use scan::FileScan;

/// Hot-path modules where rule 2 (no panics) applies.
const HOT_PATH_FILES: &[&str] = &[
    "crates/kron-runtime/src/runtime.rs",
    "crates/kron-runtime/src/scheduler.rs",
    "crates/shims/crossbeam/src/lib.rs",
];

/// Rule 3: `file -> functions` that must not allocate (the zero-alloc
/// steady-state gates prove this dynamically at test time; this rule
/// catches the regression at review time, before a gate trips).
const ZERO_ALLOC_FNS: &[(&str, &[&str])] = &[
    ("crates/kron-runtime/src/trace.rs", &["record"]),
    (
        "crates/kron-runtime/src/metrics.rs",
        &[
            "record",
            "record_timings",
            "record_model_serve",
            "record_plan_lookup",
            "record_device_execute",
        ],
    ),
    (
        "crates/kron-runtime/src/scheduler.rs",
        &[
            "finish",
            "shed",
            "execute_and_reply",
            "try_bypass",
            "fold_cycle",
            "serve_pending",
            "serve_group",
            "serve_chunk",
        ],
    ),
    (
        "crates/kron-runtime/src/runtime.rs",
        &[
            "submit",
            "admit",
            "admit_claimed",
            "release",
            "fill",
            "take_blocking",
            "try_enter",
            "exit",
            "bypass_try_claim",
            "bypass_release_claim",
        ],
    ),
    (
        "crates/shims/rayon/src/lib.rs",
        &["broadcast", "broadcast_chunks", "run_task", "worker_loop"],
    ),
    (
        "crates/shims/crossbeam/src/lib.rs",
        &[
            "push",
            "pop",
            "send",
            "try_recv",
            "recv",
            "recv_timeout",
            "recv_until",
        ],
    ),
];

/// Allocating std calls banned inside zero-alloc functions.
const ALLOC_TOKENS: &[&str] = &[
    "Vec::new",
    "Vec::with_capacity",
    "vec!",
    "Box::new",
    ".to_vec()",
    "format!",
    "String::from",
    "to_string()",
    ".collect()",
    "collect::<",
];

/// Rule 4: `file -> protocol atomic identifiers` whose `Relaxed`
/// operations need a `// relaxed:` annotation. Plain counters are not
/// listed — `Relaxed` is their natural ordering and needs no comment.
const RELAXED_PROTOCOL_ATOMICS: &[(&str, &[&str])] = &[
    ("crates/kron-runtime/src/runtime.rs", &["state", "inflight"]),
    (
        "crates/kron-runtime/src/trace.rs",
        &["seq", "head", "drained"],
    ),
    (
        "crates/shims/crossbeam/src/lib.rs",
        &["head", "tail", "seq", "sleepers", "senders", "receivers"],
    ),
];

/// How many lines above an `unsafe` token a `SAFETY:` comment may sit.
const SAFETY_LOOKBACK: usize = 12;

/// Panic-adjacent tokens banned on the hot path.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

struct Allowlist {
    /// `(file, line-substring)` pairs; the reason column is for humans.
    entries: Vec<(String, String)>,
}

impl Allowlist {
    fn parse(text: &str) -> Self {
        let entries = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
            .filter_map(|l| {
                let mut parts = l.splitn(3, '|');
                let file = parts.next()?.trim().to_string();
                let needle = parts.next()?.trim().to_string();
                parts.next()?; // the reason column is mandatory
                Some((file, needle))
            })
            .collect();
        Allowlist { entries }
    }

    fn load(path: &Path) -> Self {
        Allowlist::parse(&std::fs::read_to_string(path).unwrap_or_default())
    }

    fn permits(&self, file: &str, line_text: &str) -> bool {
        self.entries
            .iter()
            .any(|(f, needle)| f == file && line_text.contains(needle.as_str()))
    }

    /// Indices of the entries for `file` that some line of `scan` matches.
    fn matched_in<'a>(
        &'a self,
        file: &'a str,
        scan: &'a FileScan,
    ) -> impl Iterator<Item = usize> + 'a {
        self.entries
            .iter()
            .enumerate()
            .filter_map(move |(i, (f, needle))| {
                (f == file && scan.lines.iter().any(|l| l.raw.contains(needle.as_str())))
                    .then_some(i)
            })
    }
}

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask manifest has a workspace root two levels up")
        .to_path_buf()
}

fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// The rule-3 functions named for file `rel`.
fn zero_alloc_fns(rel: &str) -> &'static [&'static str] {
    ZERO_ALLOC_FNS
        .iter()
        .find(|(f, _)| *f == rel)
        .map(|(_, fns)| *fns)
        .unwrap_or(&[])
}

/// Whether a line's code ends a statement for rule 4's walk back: it
/// ends in `;`, `{` or `}`, or it has no code.
fn ends_statement(code: &str) -> bool {
    let code = code.trim();
    code.is_empty() || code.ends_with([';', '{', '}'])
}

/// The rule-4 protocol atomics named for file `rel`.
fn relaxed_atoms(rel: &str) -> &'static [&'static str] {
    RELAXED_PROTOCOL_ATOMICS
        .iter()
        .find(|(f, _)| *f == rel)
        .map(|(_, ids)| *ids)
        .unwrap_or(&[])
}

fn check_file(rel: &str, scan: &FileScan, allow: &Allowlist, violations: &mut Vec<Violation>) {
    let is_hot_path = HOT_PATH_FILES.contains(&rel);
    let relaxed_atoms = relaxed_atoms(rel);
    let zero_alloc_lines = scan.function_body_lines(zero_alloc_fns(rel));

    for (idx, line) in scan.lines.iter().enumerate() {
        let lineno = idx + 1;
        let waived = |text: &str| allow.permits(rel, text);

        // Rule 1: SAFETY comments, workspace-wide (test code included —
        // unsoundness in a test is still unsoundness).
        if scan.has_unsafe_token(idx) {
            let documented = (idx.saturating_sub(SAFETY_LOOKBACK)..=idx).any(|i| {
                let c = &scan.lines[i].comment;
                c.contains("SAFETY:") || c.contains("# Safety")
            });
            if !documented && !waived(&line.raw) {
                violations.push(Violation {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "unsafe-undocumented",
                    message: format!(
                        "`unsafe` without a `// SAFETY:` comment within {SAFETY_LOOKBACK} lines"
                    ),
                });
            }
        }

        // Rules 2–4 skip test regions: test-only panics and orderings
        // are not hot-path code.
        if line.in_test_region {
            continue;
        }

        if is_hot_path {
            for tok in PANIC_TOKENS {
                if line.code.contains(tok) && !waived(&line.raw) {
                    violations.push(Violation {
                        file: rel.to_string(),
                        line: lineno,
                        rule: "hot-path-panic",
                        message: format!("`{tok}` on the scheduler/submit hot path"),
                    });
                }
            }
        }

        if zero_alloc_lines.contains(&idx) {
            for tok in ALLOC_TOKENS {
                if line.code.contains(tok) && !waived(&line.raw) {
                    violations.push(Violation {
                        file: rel.to_string(),
                        line: lineno,
                        rule: "zero-alloc",
                        message: format!("allocating call `{tok}` in a zero-alloc function"),
                    });
                }
            }
        }

        if !relaxed_atoms.is_empty() && line.code.contains("Ordering::Relaxed") {
            // The statement this ordering sits in, rejoined across the
            // lines rustfmt split it over.
            let mut first = idx;
            while first > 0 && !ends_statement(&scan.lines[first - 1].code) {
                first -= 1;
            }
            let statement: String = scan.lines[first..=idx]
                .iter()
                .map(|l| l.code.trim())
                .collect();
            let touches_protocol_atomic = relaxed_atoms.iter().any(|id| {
                statement.contains(&format!("{id}.")) || statement.contains(&format!("self.{id}"))
            });
            let annotated =
                (first.saturating_sub(2)..=idx).any(|i| scan.lines[i].comment.contains("relaxed:"));
            if touches_protocol_atomic && !annotated && !waived(&line.raw) {
                violations.push(Violation {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "bare-relaxed",
                    message:
                        "`Ordering::Relaxed` on a protocol atomic without a `// relaxed:` justification"
                            .to_string(),
                });
            }
        }
    }
}

/// The pass's self-check against one file: every rule-3 function named
/// for `rel` must still be declared in it, every rule-4 atomic named for
/// it must appear in a code line outside its tests, and every allowlist
/// entry that matches one of its lines is marked in `matched`.
fn check_config(
    rel: &str,
    scan: &FileScan,
    allow: &Allowlist,
    matched: &mut [bool],
    violations: &mut Vec<Violation>,
) {
    for name in scan.undeclared_fns(zero_alloc_fns(rel)) {
        violations.push(Violation {
            file: rel.to_string(),
            line: 0,
            rule: "zero-alloc",
            message: format!("zero-alloc function `{name}` is not declared in this file"),
        });
    }
    for id in relaxed_atoms(rel) {
        if !scan.names(id) {
            violations.push(Violation {
                file: rel.to_string(),
                line: 0,
                rule: "bare-relaxed",
                message: format!("protocol atomic `{id}` is named by no code line of this file"),
            });
        }
    }
    for i in allow.matched_in(rel, scan) {
        matched[i] = true;
    }
}

fn analyze() -> ExitCode {
    let root = workspace_root();
    let allow = Allowlist::load(&root.join("crates/xtask/analyze-allowlist.txt"));
    let mut violations = Vec::new();
    let sources = rust_sources(&root);
    let mut scanned = Vec::new();
    let mut matched = vec![false; allow.entries.len()];
    for path in &sources {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let scan = FileScan::new(&text);
        check_file(&rel, &scan, &allow, &mut violations);
        check_config(&rel, &scan, &allow, &mut matched, &mut violations);
        scanned.push(rel);
    }
    let listed = ZERO_ALLOC_FNS
        .iter()
        .map(|(file, _)| (file, "zero-alloc"))
        .chain(
            RELAXED_PROTOCOL_ATOMICS
                .iter()
                .map(|(file, _)| (file, "bare-relaxed")),
        );
    for (file, rule) in listed {
        if !scanned.iter().any(|rel| rel == file) {
            violations.push(Violation {
                file: file.to_string(),
                line: 0,
                rule,
                message: format!("file listed for `{rule}` not found"),
            });
        }
    }
    for ((file, needle), _) in allow.entries.iter().zip(&matched).filter(|(_, m)| !**m) {
        violations.push(Violation {
            file: file.clone(),
            line: 0,
            rule: "allowlist",
            message: format!("allowlist entry `{needle}` matches no line"),
        });
    }
    if violations.is_empty() {
        println!(
            "analyze: {} files clean ({} allowlist entries)",
            sources.len(),
            allow.entries.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!(
            "analyze: {} violation(s) across {} files — fix, or allowlist with a reason in crates/xtask/analyze-allowlist.txt",
            violations.len(),
            sources.len()
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("analyze") => analyze(),
        Some(other) => {
            eprintln!("xtask: unknown command `{other}` (try `cargo xtask analyze`)");
            ExitCode::from(2)
        }
        None => {
            eprintln!("xtask: no command given (try `cargo xtask analyze`)");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_requires_all_three_columns() {
        let allow = Allowlist::parse(
            "# comment\n\
             crates/a.rs | foo() | reasoned exception\n\
             crates/b.rs | missing-reason\n",
        );
        assert_eq!(allow.entries.len(), 1);
        assert!(allow.permits("crates/a.rs", "    let x = foo();"));
        assert!(!allow.permits("crates/b.rs", "missing-reason"));
        assert!(!allow.permits("crates/c.rs", "foo()"));
    }

    fn violations_in(rel: &str, src: &str) -> Vec<String> {
        let scan = FileScan::new(src);
        let allow = Allowlist { entries: vec![] };
        let mut out = Vec::new();
        check_file(rel, &scan, &allow, &mut out);
        out.iter().map(|v| format!("{v}")).collect()
    }

    #[test]
    fn undocumented_unsafe_is_flagged_and_safety_comment_clears_it() {
        let bad = violations_in("crates/x/src/lib.rs", "fn f() { unsafe { g() } }\n");
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("unsafe-undocumented"));

        let good = violations_in(
            "crates/x/src/lib.rs",
            "// SAFETY: g has no invariants.\nfn f() { unsafe { g() } }\n",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn hot_path_panic_flagged_outside_tests_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn g(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   }\n";
        let v = violations_in("crates/kron-runtime/src/scheduler.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains(":1:") && v[0].contains("hot-path-panic"));
        // The same code in a non-hot-path file passes.
        assert!(violations_in("crates/kron-core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn zero_alloc_rule_scopes_to_named_functions() {
        let src = "impl R {\n\
                       fn record(&self) {\n\
                           let v = Vec::new();\n\
                       }\n\
                       fn drain(&self) {\n\
                           let v = Vec::new();\n\
                       }\n\
                   }\n";
        let v = violations_in("crates/kron-runtime/src/trace.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains(":3:") && v[0].contains("zero-alloc"));
    }

    #[test]
    fn config_check_flags_renamed_functions_and_marks_live_allowlist_entries() {
        let allow = Allowlist::parse(
            "crates/kron-runtime/src/trace.rs | x.unwrap() | reasoned\n\
             crates/kron-runtime/src/trace.rs | gone() | reasoned\n\
             crates/b.rs | x.unwrap() | reasoned\n",
        );
        let scan = FileScan::new("fn recorded(r: &R) { r.seq; r.head; r.drained; x.unwrap() }\n");
        let mut matched = vec![false; allow.entries.len()];
        let mut out = Vec::new();
        let rel = "crates/kron-runtime/src/trace.rs";
        check_config(rel, &scan, &allow, &mut matched, &mut out);
        assert_eq!(out.len(), 1);
        assert!(format!("{}", out[0]).contains("`record` is not declared"));
        assert_eq!(matched, [true, false, false]);
    }

    #[test]
    fn config_check_flags_protocol_atomics_no_code_line_names() {
        let allow = Allowlist { entries: vec![] };
        let rel = "crates/kron-runtime/src/trace.rs";
        let config = |src: &str| {
            let mut out = Vec::new();
            check_config(rel, &FileScan::new(src), &allow, &mut [], &mut out);
            out.iter().map(|v| format!("{v}")).collect::<Vec<_>>()
        };
        // `drained` only in a string, a comment and a test: none counts.
        let v = config(
            "fn record(r: &R) {\n\
                 r.seq.load(Ordering::Acquire);\n\
                 r.head.load(Ordering::Acquire);\n\
                 let what = \"drained\"; // drained\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn g(r: &R) { r.drained.load(Ordering::Acquire); }\n\
             }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("`drained` is named by no code line"), "{v:?}");
        // A code line naming it clears the check.
        let v = config("fn record(r: &R) { r.seq; r.head; r.drained; }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn bare_relaxed_on_protocol_atomic_needs_annotation() {
        let bad = violations_in(
            "crates/kron-runtime/src/trace.rs",
            "fn f(r: &R) { r.seq.store(1, Ordering::Relaxed); }\n",
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("bare-relaxed"));

        let good = violations_in(
            "crates/kron-runtime/src/trace.rs",
            "fn f(r: &R) {\n    // relaxed: publication is ordered by the Release fence below.\n    r.seq.store(1, Ordering::Relaxed);\n}\n",
        );
        assert!(good.is_empty(), "{good:?}");

        // Relaxed on an unlisted counter needs nothing.
        let counter = violations_in(
            "crates/kron-runtime/src/trace.rs",
            "fn f(r: &R) { r.hits.fetch_add(1, Ordering::Relaxed); }\n",
        );
        assert!(counter.is_empty(), "{counter:?}");
    }

    #[test]
    fn bare_relaxed_rule_reads_the_whole_rustfmt_split_statement() {
        let rel = "crates/kron-runtime/src/runtime.rs";
        let chain = "    self.hub\n        .inflight\n        .fetch_add(1, Ordering::Relaxed);\n";
        let bad = violations_in(rel, &format!("fn f(&self) {{\n{chain}}}\n"));
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(
            bad[0].contains(":4:") && bad[0].contains("bare-relaxed"),
            "{bad:?}"
        );

        // A note above the statement's first line clears it.
        let good = violations_in(
            rel,
            &format!("fn f(&self) {{\n    // relaxed: a gauge; it publishes no data.\n{chain}}}\n"),
        );
        assert!(good.is_empty(), "{good:?}");

        // The walk back stops at the previous statement's end.
        let counter = violations_in(
            rel,
            "fn f(&self) {\n    let n = self.inflight.load(Ordering::Acquire);\n    self.hits\n        .fetch_add(n, Ordering::Relaxed);\n}\n",
        );
        assert!(counter.is_empty(), "{counter:?}");
    }
}
