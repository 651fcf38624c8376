//! Workspace loading, file classification, and rule orchestration.

use std::path::Path;

use crate::diag::Diagnostic;
use crate::lexer::{self, Lexed, TokKind};
use crate::waiver::{self, Directives};
use crate::{rules, Error};

/// What kind of compilation target a file belongs to. Rules scope
/// themselves by role: `no-unwrap-in-lib` only polices [`Role::Lib`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Library code (`*/src/**`, excluding `src/bin/` and `main.rs`).
    Lib,
    /// Binary code (`*/src/bin/**`, `main.rs`, `build.rs`).
    Bin,
    /// Integration tests (`*/tests/**`).
    Test,
    /// Examples (`*/examples/**`).
    Example,
    /// Benchmarks (`*/benches/**`).
    Bench,
}

/// A half-open token-index range `[start, end)` with the item name it
/// covers, used for hot regions and `#[cfg(test)]` regions.
#[derive(Debug, Clone)]
pub struct Region {
    /// First token index inside the region (the opening brace).
    pub start: usize,
    /// Token index one past the closing brace.
    pub end: usize,
    /// Item name (`fn` or `mod` identifier), for messages.
    pub name: String,
}

/// One lexed, classified source file.
pub struct FileCtx {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Target role (see [`Role`]).
    pub role: Role,
    /// Token stream and comments.
    pub lexed: Lexed,
    /// Parsed `lsq-lint:` directives.
    pub directives: Directives,
    /// Token ranges of `#[cfg(test)]` items.
    pub test_regions: Vec<Region>,
    /// Token ranges of `lsq-lint: hot` items.
    pub hot_regions: Vec<Region>,
}

impl FileCtx {
    /// Builds a context from source text (no filesystem access).
    pub fn from_source(rel: &str, role: Role, src: &str) -> FileCtx {
        let lexed = lexer::lex(src);
        let directives = waiver::parse(rel, &lexed.comments, rules::ALL_RULES);
        let test_regions = find_cfg_test_regions(&lexed);
        let mut ctx = FileCtx {
            rel: rel.to_string(),
            role,
            lexed,
            directives,
            test_regions,
            hot_regions: Vec::new(),
        };
        ctx.hot_regions = find_hot_regions(&ctx);
        ctx
    }

    /// Whether token index `i` falls inside a `#[cfg(test)]` item.
    pub fn in_test_region(&self, i: usize) -> bool {
        self.test_regions.iter().any(|r| r.start <= i && i < r.end)
    }
}

/// Matches braces starting at `open` (which must index a `{`); returns
/// the index one past the matching `}`, or the token count if
/// unbalanced (lexer guarantees strings/comments are opaque, so braces
/// here are structural).
pub fn match_braces(lexed: &Lexed, open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in lexed.toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
    }
    lexed.toks.len()
}

/// Finds `#[cfg(test)]`-guarded items: the attribute token pattern,
/// then the braces of the next item.
fn find_cfg_test_regions(lexed: &Lexed) -> Vec<Region> {
    let t = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..t.len() {
        let is_cfg_test = i + 6 < t.len()
            && t[i].is_punct('#')
            && t[i + 1].is_punct('[')
            && t[i + 2].is_ident("cfg")
            && t[i + 3].is_punct('(')
            && t[i + 4].is_ident("test")
            && t[i + 5].is_punct(')')
            && t[i + 6].is_punct(']');
        if !is_cfg_test {
            continue;
        }
        // The guarded item's body: first `{` after the attribute. Items
        // without one (`use …;` etc.) guard nothing we police.
        let Some(open) = (i + 7..t.len()).find(|&j| t[j].is_punct('{')) else {
            continue;
        };
        let name = (i + 7..open)
            .rev()
            .find(|&j| t[j].kind == TokKind::Ident)
            .map(|j| t[j].text.clone())
            .unwrap_or_default();
        out.push(Region {
            start: open,
            end: match_braces(lexed, open),
            name,
        });
    }
    out
}

/// Attaches each `lsq-lint: hot` marker to the next `fn` or `mod` item
/// and records its body as a hot region.
fn find_hot_regions(ctx: &FileCtx) -> Vec<Region> {
    let t = &ctx.lexed.toks;
    let mut out = Vec::new();
    for &line in &ctx.directives.hot_lines {
        let item = t
            .iter()
            .position(|tok| tok.line >= line && (tok.is_ident("fn") || tok.is_ident("mod")));
        let Some(item) = item else { continue };
        let name = t
            .get(item + 1)
            .filter(|tok| tok.kind == TokKind::Ident)
            .map(|tok| tok.text.clone())
            .unwrap_or_default();
        let Some(open) = (item..t.len()).find(|&j| t[j].is_punct('{')) else {
            continue;
        };
        out.push(Region {
            start: open,
            end: match_braces(&ctx.lexed, open),
            name,
        });
    }
    out
}

/// A loaded workspace: every lexed `.rs` file plus the rule inputs that
/// live outside Rust source (the knob registry, the `EXPERIMENTS.md`
/// knob table and the CI workflows).
pub struct Workspace {
    /// All source files, in walk order.
    pub files: Vec<FileCtx>,
    /// Registered knob names parsed from the registry module.
    pub registry_knobs: Vec<String>,
    /// Knob names documented in the `EXPERIMENTS.md` knob table, with
    /// their 1-based line numbers.
    pub documented_knobs: Vec<(String, u32)>,
    /// Whether both drift inputs were present (fixture workspaces built
    /// from bare source skip the drift check).
    pub has_drift_inputs: bool,
    /// CI workflow files (`.github/workflows/*.yml`) as
    /// `(workspace-relative path, text)`, checked for `LSQ_*=`
    /// assignments of unregistered knobs.
    pub workflows: Vec<(String, String)>,
}

/// Directories never walked.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".claude"];

impl Workspace {
    /// Loads every `.rs` file under `root` (skipping `target/`,
    /// `vendor/`, and VCS internals) plus the drift-check inputs.
    pub fn load(root: &Path) -> Result<Workspace, Error> {
        let mut paths = Vec::new();
        walk(root, root, &mut paths)?;
        paths.sort();
        let mut files = Vec::new();
        for rel in paths {
            let src = std::fs::read_to_string(root.join(&rel))
                .map_err(|e| Error::new(format!("read {rel}: {e}")))?;
            files.push(FileCtx::from_source(&rel, classify(&rel), &src));
        }
        let registry = files.iter().find(|f| f.rel == rules::KNOB_REGISTRY_FILE);
        let has_registry = registry.is_some();
        let registry_knobs = registry.map(rules::registry_knob_names).unwrap_or_default();
        let experiments = std::fs::read_to_string(root.join("EXPERIMENTS.md")).ok();
        let documented_knobs = experiments
            .as_deref()
            .map(rules::documented_knob_names)
            .unwrap_or_default();
        let has_drift_inputs = has_registry && experiments.is_some();
        Ok(Workspace {
            files,
            registry_knobs,
            documented_knobs,
            has_drift_inputs,
            workflows: load_workflows(root)?,
        })
    }

    /// A single-file workspace over in-memory source, for tests and the
    /// self-check. Drift inputs are absent, so `knob-registry` checks
    /// only the bypass/unregistered-literal patterns.
    pub fn from_source(rel: &str, role: Role, src: &str) -> Workspace {
        Workspace {
            files: vec![FileCtx::from_source(rel, role, src)],
            registry_knobs: Vec::new(),
            documented_knobs: Vec::new(),
            has_drift_inputs: false,
            workflows: Vec::new(),
        }
    }

    /// Runs every rule, applies waivers, and returns the surviving
    /// diagnostics sorted by path and line.
    pub fn lint(&self) -> Vec<Diagnostic> {
        let mut raw = Vec::new();
        for f in &self.files {
            rules::run_file_rules(f, self, &mut raw);
        }
        rules::run_workspace_rules(self, &mut raw);
        let mut out: Vec<Diagnostic> = raw.into_iter().filter(|d| !self.is_waived(d)).collect();
        // Malformed directives are never waivable.
        for f in &self.files {
            out.extend(f.directives.errors.iter().cloned());
        }
        out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        out
    }

    fn is_waived(&self, d: &Diagnostic) -> bool {
        self.files.iter().any(|f| {
            f.rel == d.path
                && f.directives
                    .waivers
                    .iter()
                    .any(|w| w.covers(d.rule, d.line))
        })
    }
}

/// The CI workflow files under `root/.github/workflows`, sorted by path;
/// none if the directory does not exist.
fn load_workflows(root: &Path) -> Result<Vec<(String, String)>, Error> {
    const DIR: &str = ".github/workflows";
    let Ok(entries) = std::fs::read_dir(root.join(DIR)) else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| Error::new(format!("{DIR}: {e}")))?.path();
        if path.extension().is_some_and(|x| x == "yml" || x == "yaml") {
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            let rel = format!("{DIR}/{name}");
            let text = std::fs::read_to_string(&path)
                .map_err(|e| Error::new(format!("read {rel}: {e}")))?;
            out.push((rel, text));
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), Error> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| Error::new(format!("{}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| Error::new(format!("{}: {e}", dir.display())))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel_string(rel));
            }
        }
    }
    Ok(())
}

fn rel_string(rel: &Path) -> String {
    let mut s = String::new();
    for part in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&part.as_os_str().to_string_lossy());
    }
    s
}

/// Classifies a workspace-relative path into a [`Role`].
pub fn classify(rel: &str) -> Role {
    let has = |needle: &str| rel.contains(needle) || rel.starts_with(&needle[1..]);
    if has("/tests/") {
        Role::Test
    } else if has("/examples/") {
        Role::Example
    } else if has("/benches/") {
        Role::Bench
    } else if rel.contains("/src/bin/") || rel.ends_with("/main.rs") || rel.ends_with("build.rs") {
        Role::Bin
    } else {
        Role::Lib
    }
}
