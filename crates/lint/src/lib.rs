#![warn(missing_docs)]

//! `lsq-lint`: the workspace architectural linter.
//!
//! The simulator's performance trajectory rests on invariants the
//! compiler cannot see: hot search loops must stay allocation-free, the
//! `NopProbe` observer must stay truly zero-cost, every `LSQ_*`
//! environment knob must be registered and documented, metric names
//! must stay greppable, and every relaxed atomic must say why it is
//! safe. This crate checks those rules
//! mechanically on every `cargo test` (via the root `lint_clean` test)
//! and in CI, so refactors can be aggressive without silently
//! regressing the properties the benchmarks depend on.
//!
//! # Running
//!
//! ```text
//! cargo run -p lsq-lint            # lint the workspace, exit 0/1
//! cargo run -p lsq-lint -- --json  # machine-readable diagnostics
//! cargo run -p lsq-lint -- --self-check  # prove every rule fires
//! ```
//!
//! # Waivers
//!
//! A violation is silenced on its own line or the line above it with
//!
//! ```text
//! // lsq-lint: allow(<rule>, reason = "<why this is safe>")
//! ```
//!
//! The reason is mandatory; a reasonless waiver is itself a violation.
//!
//! # Adding a rule
//!
//! Add an id constant and a check function in [`rules`], register the
//! id in [`rules::ALL_RULES`], call the check from
//! [`rules::run_file_rules`] (or `run_workspace_rules` for
//! whole-workspace invariants), add firing/clean/waived fixtures to
//! `tests/rules.rs` and a self-check fixture below, and document the
//! rule in `EXPERIMENTS.md`.

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod waiver;

pub use diag::{to_json, Diagnostic, Severity};
pub use engine::{Role, Workspace};

/// An I/O or usage error from workspace loading.
#[derive(Debug)]
pub struct Error {
    message: String,
}

impl Error {
    pub(crate) fn new(message: String) -> Error {
        Error { message }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Lints every source file under `root` and returns the surviving
/// diagnostics (waivers already applied), sorted by path and line.
pub fn lint_workspace(root: &std::path::Path) -> Result<Vec<Diagnostic>, Error> {
    Ok(Workspace::load(root)?.lint())
}

/// Lints a single in-memory source file (no drift checks). Used by the
/// fixture tests and [`self_check`].
pub fn lint_source(rel: &str, role: Role, src: &str) -> Vec<Diagnostic> {
    Workspace::from_source(rel, role, src).lint()
}

/// One self-check fixture: a rule, a source that must fire it, and a
/// source that must stay clean.
struct Fixture {
    rule: &'static str,
    rel: &'static str,
    role: Role,
    firing: &'static str,
    clean: &'static str,
}

const FIXTURES: &[Fixture] = &[
    Fixture {
        rule: rules::HOT_PATH_ALLOC,
        rel: "crates/x/src/lib.rs",
        role: Role::Lib,
        firing: "// lsq-lint: hot\nfn search(&mut self) { let v = self.xs.to_vec(); }\n",
        clean: "// lsq-lint: hot\nfn search(&mut self) { self.buf.clear(); self.buf.push(1); }\n",
    },
    Fixture {
        rule: rules::KNOB_REGISTRY,
        rel: "crates/x/src/lib.rs",
        role: Role::Lib,
        firing: "fn f() { let _ = std::env::var(\"LSQ_JOBS\"); }\n",
        clean: "fn f() { let _ = lsq_util::knobs::get(\"LSQ_JOBS\"); }\n",
    },
    Fixture {
        rule: rules::ZERO_COST_NOP,
        rel: "crates/x/src/lib.rs",
        role: Role::Lib,
        firing: "struct NopSink;\nimpl Sink for NopSink { fn emit(&mut self, e: E) { \
                 self.log(e) } }\n",
        clean: "struct NopSink;\nimpl Sink for NopSink {\n    #[inline(always)]\n    \
                fn emit(&mut self, _e: E) {}\n    #[inline(always)]\n    \
                fn enabled(&self) -> bool { false }\n}\n",
    },
    Fixture {
        rule: rules::METRIC_NAMING,
        rel: "crates/x/src/lib.rs",
        role: Role::Lib,
        firing: "fn f(m: &M) { m.counter(\"jobsDone\", \"help\"); }\n",
        clean: "fn f(m: &M) { m.counter(\"lsq_jobs_done_total\", \"help\"); }\n",
    },
    Fixture {
        rule: rules::NO_UNWRAP_IN_LIB,
        rel: "crates/x/src/lib.rs",
        role: Role::Lib,
        firing: "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        clean: "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
    },
    Fixture {
        rule: rules::RELAXED_ORDERING_AUDIT,
        rel: "crates/telemetry/src/metrics.rs",
        role: Role::Lib,
        firing: "fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n",
        clean: "fn f(c: &AtomicU64) -> u64 {\n    // lsq-lint: allow(relaxed-ordering-audit, \
                reason = \"monotonic counter, no ordering needed\")\n    \
                c.load(Ordering::Relaxed)\n}\n",
    },
    Fixture {
        rule: rules::WAIVER_SYNTAX,
        rel: "crates/x/src/lib.rs",
        role: Role::Lib,
        firing: "// lsq-lint: allow(no-unwrap-in-lib)\nfn f(x: Option<u32>) -> u32 { \
                 x.unwrap_or(0) }\n",
        clean: "// lsq-lint: allow(no-unwrap-in-lib, reason = \"documented invariant\")\n\
                fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    },
];

/// Proves every rule both fires on a seeded violation and stays quiet
/// on the compliant twin. Returns a list of failures (empty = pass).
pub fn self_check() -> Vec<String> {
    let mut failures = Vec::new();
    for fx in FIXTURES {
        let firing = lint_source(fx.rel, fx.role, fx.firing);
        if !firing.iter().any(|d| d.rule == fx.rule) {
            failures.push(format!(
                "rule {} did not fire on its seeded violation (got: {:?})",
                fx.rule,
                firing.iter().map(|d| d.rule).collect::<Vec<_>>()
            ));
        }
        let clean = lint_source(fx.rel, fx.role, fx.clean);
        if clean.iter().any(|d| d.rule == fx.rule) {
            failures.push(format!("rule {} fired on its compliant fixture", fx.rule));
        }
    }
    failures
}
