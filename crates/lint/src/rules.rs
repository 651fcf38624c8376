//! The rule catalog.
//!
//! | id | invariant |
//! |----|-----------|
//! | `hot-path-alloc` | no allocation constructs inside `lsq-lint: hot` items |
//! | `knob-registry` | `LSQ_*` env reads go through `lsq_util::knobs`; registry ↔ `EXPERIMENTS.md` knob table stay in sync |
//! | `zero-cost-nop` | `impl … for Nop*` methods are `#[inline(always)]` with trivial bodies |
//! | `metric-naming` | telemetry metric names are `lsq_`-prefixed snake_case, label keys snake_case |
//! | `no-unwrap-in-lib` | no `unwrap()` / `expect()` / `panic!` in library code outside tests |
//! | `relaxed-ordering-audit` | every `Ordering::Relaxed` in the engine and telemetry carries a waiver-style justification |
//! | `waiver-syntax` | every waiver names a known rule and carries a non-empty reason |
//!
//! Each rule reports [`Severity::Error`] diagnostics; waivers
//! (`lsq-lint: allow(<rule>, reason = "…")`) suppress any rule except
//! `waiver-syntax` itself.

use crate::diag::{Diagnostic, Severity};
use crate::engine::{match_braces, FileCtx, Role, Workspace};
use crate::lexer::{Tok, TokKind};

/// Rule id: allocation constructs in hot paths.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Rule id: env-knob reads outside the registry, or registry/doc drift.
pub const KNOB_REGISTRY: &str = "knob-registry";
/// Rule id: non-trivial or non-inlined `Nop*` impl methods.
pub const ZERO_COST_NOP: &str = "zero-cost-nop";
/// Rule id: malformed metric or label names.
pub const METRIC_NAMING: &str = "metric-naming";
/// Rule id: `unwrap()` / `expect()` / `panic!` in library code.
pub const NO_UNWRAP_IN_LIB: &str = "no-unwrap-in-lib";
/// Rule id: unjustified `Ordering::Relaxed`.
pub const RELAXED_ORDERING_AUDIT: &str = "relaxed-ordering-audit";
/// Rule id: malformed `lsq-lint:` directives.
pub const WAIVER_SYNTAX: &str = "waiver-syntax";

/// Every rule id, for waiver validation and documentation.
pub const ALL_RULES: &[&str] = &[
    HOT_PATH_ALLOC,
    KNOB_REGISTRY,
    ZERO_COST_NOP,
    METRIC_NAMING,
    NO_UNWRAP_IN_LIB,
    RELAXED_ORDERING_AUDIT,
    WAIVER_SYNTAX,
];

/// The one module allowed to read `LSQ_*` environment variables.
pub const KNOB_REGISTRY_FILE: &str = "crates/util/src/knobs.rs";

/// Files/trees subject to `relaxed-ordering-audit`.
const RELAXED_AUDIT_SCOPE: &[&str] = &["crates/experiments/src/engine.rs", "crates/telemetry/"];

fn error(rule: &'static str, f: &FileCtx, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: f.rel.clone(),
        line,
        severity: Severity::Error,
        message,
    }
}

/// Runs every per-file rule over `f`.
pub fn run_file_rules(f: &FileCtx, ws: &Workspace, out: &mut Vec<Diagnostic>) {
    hot_path_alloc(f, out);
    knob_registry_file(f, ws, out);
    zero_cost_nop(f, out);
    metric_naming(f, out);
    no_unwrap_in_lib(f, out);
    relaxed_ordering_audit(f, out);
}

/// Runs rules that need the whole workspace (knob drift).
pub fn run_workspace_rules(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    knob_registry_drift(ws, out);
}

// ---------------------------------------------------------------------
// R1: hot-path-alloc
// ---------------------------------------------------------------------

/// Types whose associated constructors allocate.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "String", "Box", "Rc", "Arc",
];
/// Allocating associated functions on [`ALLOC_TYPES`].
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];
/// Allocating (or container-cloning) method calls, and map-entry growth.
const ALLOC_METHODS: &[&str] = &[
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "clone",
    "or_default",
    "or_insert",
    "or_insert_with",
];

fn hot_path_alloc(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    let t = &f.lexed.toks;
    for region in &f.hot_regions {
        for i in region.start..region.end.min(t.len()) {
            let construct = alloc_construct(t, i);
            if let Some(construct) = construct {
                out.push(error(
                    HOT_PATH_ALLOC,
                    f,
                    t[i].line,
                    format!(
                        "`{construct}` allocates inside hot path `{}`; reuse a scratch \
                         buffer or hoist the allocation out of the marked region",
                        region.name
                    ),
                ));
            }
        }
    }
}

/// If an allocation construct begins at token `i`, names it.
fn alloc_construct(t: &[Tok], i: usize) -> Option<String> {
    let at = |j: usize| t.get(j);
    let tok = at(i)?;
    // `vec![…]`, `format!(…)`.
    if (tok.is_ident("vec") || tok.is_ident("format")) && at(i + 1)?.is_punct('!') {
        return Some(format!("{}!", tok.text));
    }
    // `Vec::new`, `Box::new`, `String::from`, `…::with_capacity`.
    if tok.kind == TokKind::Ident
        && ALLOC_TYPES.contains(&tok.text.as_str())
        && at(i + 1)?.is_punct(':')
        && at(i + 2)?.is_punct(':')
        && at(i + 3)
            .is_some_and(|m| m.kind == TokKind::Ident && ALLOC_CTORS.contains(&m.text.as_str()))
    {
        return Some(format!("{}::{}", tok.text, t[i + 3].text));
    }
    // `.collect(`, `.clone(`, `.to_vec(`, … (also `.collect::<…>`).
    if tok.is_punct('.')
        && at(i + 1)
            .is_some_and(|m| m.kind == TokKind::Ident && ALLOC_METHODS.contains(&m.text.as_str()))
        && at(i + 2).is_some_and(|p| p.is_punct('(') || p.is_punct(':'))
    {
        return Some(format!(".{}()", t[i + 1].text));
    }
    None
}

// ---------------------------------------------------------------------
// R2: knob-registry
// ---------------------------------------------------------------------

/// Whether `name` has the shape of an `LSQ_*` environment knob.
fn is_knob_shaped(name: &str) -> bool {
    name.strip_prefix("LSQ_").is_some_and(|rest| {
        !rest.is_empty()
            && rest
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    })
}

/// Knob names registered in the knob-registry module: its `LSQ_*`
/// string literals outside `#[cfg(test)]` (tests may name fake knobs).
pub fn registry_knob_names(f: &FileCtx) -> Vec<String> {
    let mut names: Vec<String> = f
        .lexed
        .toks
        .iter()
        .enumerate()
        .filter(|(i, t)| t.kind == TokKind::Str && is_knob_shaped(&t.text) && !f.in_test_region(*i))
        .map(|(_, t)| t.text.clone())
        .collect();
    names.sort();
    names.dedup();
    names
}

/// `LSQ_*` knobs assigned (`LSQ_NAME=…`) in a CI workflow, with their
/// 1-based line numbers. A knob name not directly followed by `=` (one
/// quoted in a string, or an expansion) is not an assignment.
pub fn workflow_knob_assignments(yml: &str) -> Vec<(String, u32)> {
    let is_name = |c: u8| c.is_ascii_uppercase() || c.is_ascii_digit() || c == b'_';
    let mut out = Vec::new();
    for (i, line) in yml.lines().enumerate() {
        let bytes = line.as_bytes();
        for (start, _) in line.match_indices("LSQ_") {
            if start > 0 && is_name(bytes[start - 1]) {
                continue;
            }
            let end = start + bytes[start..].iter().take_while(|&&c| is_name(c)).count();
            if bytes.get(end) == Some(&b'=') && is_knob_shaped(&line[start..end]) {
                out.push((line[start..end].to_string(), i as u32 + 1));
            }
        }
    }
    out
}

/// Knob names documented in the `EXPERIMENTS.md` knob table: markdown
/// table rows whose first cell is a backticked `LSQ_*` name.
pub fn documented_knob_names(md: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for (i, line) in md.lines().enumerate() {
        let Some(row) = line.trim().strip_prefix('|') else {
            continue;
        };
        let Some(cell) = row.split('|').next() else {
            continue;
        };
        let Some(name) = cell
            .trim()
            .strip_prefix('`')
            .and_then(|c| c.strip_suffix('`'))
        else {
            continue;
        };
        if is_knob_shaped(name) {
            out.push((name.to_string(), i as u32 + 1));
        }
    }
    out
}

fn knob_registry_file(f: &FileCtx, ws: &Workspace, out: &mut Vec<Diagnostic>) {
    if f.rel == KNOB_REGISTRY_FILE {
        return;
    }
    let t = &f.lexed.toks;
    for i in 0..t.len() {
        // `var("LSQ_…")` / `var_os("LSQ_…")` — an env read that
        // bypasses the registry accessors.
        if (t[i].is_ident("var") || t[i].is_ident("var_os"))
            && t.get(i + 1).is_some_and(|p| p.is_punct('('))
            && t.get(i + 2)
                .is_some_and(|s| s.kind == TokKind::Str && is_knob_shaped(&s.text))
        {
            out.push(error(
                KNOB_REGISTRY,
                f,
                t[i].line,
                format!(
                    "env read of `{}` bypasses the knob registry; use \
                     `lsq_util::knobs::{{get, get_os, flag}}` instead",
                    t[i + 2].text
                ),
            ));
        }
        // Any knob-shaped literal in lib/bin code must be registered,
        // so typos and undeclared knobs cannot hide.
        if matches!(f.role, Role::Lib | Role::Bin)
            && ws.has_drift_inputs
            && t[i].kind == TokKind::Str
            && is_knob_shaped(&t[i].text)
            && !ws.registry_knobs.contains(&t[i].text)
        {
            out.push(error(
                KNOB_REGISTRY,
                f,
                t[i].line,
                format!(
                    "`{}` is not in lsq_util::knobs::REGISTRY; register it there \
                     and add it to the EXPERIMENTS.md knob table",
                    t[i].text
                ),
            ));
        }
    }
}

fn knob_registry_drift(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    if !ws.has_drift_inputs {
        return;
    }
    for knob in &ws.registry_knobs {
        if !ws.documented_knobs.iter().any(|(n, _)| n == knob) {
            out.push(Diagnostic {
                rule: KNOB_REGISTRY,
                path: KNOB_REGISTRY_FILE.to_string(),
                line: 0,
                severity: Severity::Error,
                message: format!(
                    "knob `{knob}` is registered but missing from the \
                     EXPERIMENTS.md knob table"
                ),
            });
        }
    }
    for (knob, line) in &ws.documented_knobs {
        if !ws.registry_knobs.contains(knob) {
            out.push(Diagnostic {
                rule: KNOB_REGISTRY,
                path: "EXPERIMENTS.md".to_string(),
                line: *line,
                severity: Severity::Error,
                message: format!(
                    "knob `{knob}` is documented but not registered in \
                     lsq_util::knobs::REGISTRY"
                ),
            });
        }
    }
    for (path, text) in &ws.workflows {
        for (knob, line) in workflow_knob_assignments(text) {
            if !ws.registry_knobs.contains(&knob) {
                out.push(Diagnostic {
                    rule: KNOB_REGISTRY,
                    path: path.clone(),
                    line,
                    severity: Severity::Error,
                    message: format!(
                        "workflow sets `{knob}`, which is not in \
                         lsq_util::knobs::REGISTRY: nothing reads it"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// R3: zero-cost-nop
// ---------------------------------------------------------------------

fn zero_cost_nop(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    let t = &f.lexed.toks;
    let mut i = 0;
    while i < t.len() {
        if !t[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let Some(open) = (i..t.len()).find(|&j| t[j].is_punct('{')) else {
            break;
        };
        let header = &t[i..open];
        let for_pos = header.iter().position(|tok| tok.is_ident("for"));
        let is_nop_impl = for_pos.is_some_and(|p| {
            header[p..]
                .iter()
                .any(|tok| tok.kind == TokKind::Ident && tok.text.starts_with("Nop"))
        });
        let end = match_braces(&f.lexed, open);
        if is_nop_impl {
            check_nop_impl(f, open, end, out);
        }
        i = open + 1; // descend: nested impls don't exist, but stay safe
    }
}

fn check_nop_impl(f: &FileCtx, open: usize, end: usize, out: &mut Vec<Diagnostic>) {
    let t = &f.lexed.toks;
    let mut methods = 0;
    let mut inline_always = false;
    let mut j = open + 1;
    while j < end.saturating_sub(1) {
        if t[j].is_punct('#') && t.get(j + 1).is_some_and(|b| b.is_punct('[')) {
            // Scan the attribute for `inline ( always )`.
            let attr_end = (j + 1..end).find(|&k| t[k].is_punct(']')).unwrap_or(end);
            inline_always |= (j + 2..attr_end).any(|k| {
                t[k].is_ident("inline")
                    && t.get(k + 1).is_some_and(|p| p.is_punct('('))
                    && t.get(k + 2).is_some_and(|a| a.is_ident("always"))
            });
            j = attr_end + 1;
            continue;
        }
        if t[j].is_ident("fn") {
            methods += 1;
            let name = t.get(j + 1).map(|n| n.text.clone()).unwrap_or_default();
            let Some(body_open) = (j..end).find(|&k| t[k].is_punct('{')) else {
                break;
            };
            let body_end = match_braces(&f.lexed, body_open);
            if !inline_always {
                out.push(error(
                    ZERO_COST_NOP,
                    f,
                    t[j].line,
                    format!(
                        "Nop impl method `{name}` is missing #[inline(always)]; \
                         zero-cost no-ops must always inline away"
                    ),
                ));
            }
            if !trivial_body(&t[body_open + 1..body_end.saturating_sub(1)]) {
                out.push(error(
                    ZERO_COST_NOP,
                    f,
                    t[j].line,
                    format!(
                        "Nop impl method `{name}` has a non-trivial body; no-op \
                         impls may only return a constant or nothing"
                    ),
                ));
            }
            inline_always = false;
            j = body_end;
            continue;
        }
        j += 1;
    }
    if methods == 0 {
        out.push(error(
            ZERO_COST_NOP,
            f,
            t[open].line,
            "Nop impl has no methods, so its zero-cost contract rests on trait \
             defaults; spell out each method with #[inline(always)] and a \
             trivial body so the invariant is locally checkable"
                .to_string(),
        ));
    }
}

/// A trivial no-op body: empty, or a single constant token.
fn trivial_body(body: &[Tok]) -> bool {
    match body {
        [] => true,
        [t] => {
            t.kind == TokKind::Num
                || t.is_ident("false")
                || t.is_ident("true")
                || t.is_ident("None")
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------
// R4: metric-naming
// ---------------------------------------------------------------------

/// Registry methods whose first argument is a metric name.
const METRIC_FNS: &[&str] = &[
    "counter",
    "counter_with",
    "gauge",
    "gauge_with",
    "float_gauge",
    "float_gauge_with",
    "histogram",
    "histogram_with",
];

fn is_snake_case(s: &str) -> bool {
    !s.is_empty()
        && s.starts_with(|c: char| c.is_ascii_lowercase())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && !s.contains("__")
        && !s.ends_with('_')
}

fn metric_naming(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    let t = &f.lexed.toks;
    for i in 0..t.len() {
        let is_reg_call = t[i].is_punct('.')
            && t.get(i + 1)
                .is_some_and(|m| m.kind == TokKind::Ident && METRIC_FNS.contains(&m.text.as_str()))
            && t.get(i + 2).is_some_and(|p| p.is_punct('('))
            && t.get(i + 3).is_some_and(|s| s.kind == TokKind::Str);
        if !is_reg_call {
            continue;
        }
        let name = &t[i + 3].text;
        let snake = name.strip_prefix("lsq_").is_some_and(is_snake_case);
        if !snake {
            out.push(error(
                METRIC_NAMING,
                f,
                t[i + 3].line,
                format!(
                    "metric name `{name}` must be lsq_-prefixed snake_case \
                     (`lsq_<subsystem>_<what>[_total]`)"
                ),
            ));
        }
        if t[i + 1].text.ends_with("_with") {
            check_label_keys(f, i + 2, out);
        }
    }
}

/// Inside the call starting at `open` (a `(`), every `( "key" ,` tuple
/// opener is a label key; keys must be snake_case.
fn check_label_keys(f: &FileCtx, open: usize, out: &mut Vec<Diagnostic>) {
    let t = &f.lexed.toks;
    let mut depth = 0usize;
    for j in open..t.len() {
        if t[j].is_punct('(') {
            depth += 1;
            if depth >= 2
                && t.get(j + 1).is_some_and(|s| s.kind == TokKind::Str)
                && t.get(j + 2).is_some_and(|c| c.is_punct(','))
                && !is_snake_case(&t[j + 1].text)
            {
                out.push(error(
                    METRIC_NAMING,
                    f,
                    t[j + 1].line,
                    format!("label key `{}` must be snake_case", t[j + 1].text),
                ));
            }
        } else if t[j].is_punct(')') {
            if depth <= 1 {
                break;
            }
            depth -= 1;
        }
    }
}

// ---------------------------------------------------------------------
// R5: no-unwrap-in-lib
// ---------------------------------------------------------------------

fn no_unwrap_in_lib(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    if f.role != Role::Lib {
        return;
    }
    let t = &f.lexed.toks;
    for i in 0..t.len() {
        if f.in_test_region(i) {
            continue;
        }
        // `.unwrap()` / `.expect(…)`.
        if t[i].is_punct('.')
            && t.get(i + 1)
                .is_some_and(|m| m.is_ident("unwrap") || m.is_ident("expect"))
            && t.get(i + 2).is_some_and(|p| p.is_punct('('))
        {
            out.push(error(
                NO_UNWRAP_IN_LIB,
                f,
                t[i + 1].line,
                format!(
                    "`.{}()` in library code; return an error, use a safe \
                     fallback (debug_assert! + default), or waive with a reason",
                    t[i + 1].text
                ),
            ));
        }
        // `panic!(…)`.
        if t[i].is_ident("panic") && t.get(i + 1).is_some_and(|p| p.is_punct('!')) {
            out.push(error(
                NO_UNWRAP_IN_LIB,
                f,
                t[i].line,
                "`panic!` in library code; return an error or waive with a reason".to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// R6: relaxed-ordering-audit
// ---------------------------------------------------------------------

fn relaxed_ordering_audit(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    let in_scope = RELAXED_AUDIT_SCOPE
        .iter()
        .any(|s| f.rel == *s || f.rel.starts_with(s));
    if !in_scope {
        return;
    }
    let t = &f.lexed.toks;
    for i in 0..t.len() {
        if f.in_test_region(i) {
            continue;
        }
        if t[i].is_ident("Ordering")
            && t.get(i + 1).is_some_and(|p| p.is_punct(':'))
            && t.get(i + 2).is_some_and(|p| p.is_punct(':'))
            && t.get(i + 3).is_some_and(|m| m.is_ident("Relaxed"))
        {
            out.push(error(
                RELAXED_ORDERING_AUDIT,
                f,
                t[i].line,
                "`Ordering::Relaxed` requires a justification: add \
                 `// lsq-lint: allow(relaxed-ordering-audit, reason = \"…\")` \
                 explaining why no synchronization edge is needed"
                    .to_string(),
            ));
        }
    }
}
