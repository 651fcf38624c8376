//! The central `LSQ_*` environment-knob registry.
//!
//! Every environment variable the workspace reads is declared here —
//! name, value kind, default, and a one-line doc — and read through
//! [`get`] / [`flag`]. The `lsq-lint` rule `knob-registry`
//! enforces this mechanically: a literal `std::env::var("LSQ_…")` call
//! anywhere outside this module is a lint error, as is drift between
//! this table and the knob table in `EXPERIMENTS.md` (in either
//! direction).
//!
//! Registering a knob means adding one [`Knob`] row to [`REGISTRY`] and
//! one row to the `EXPERIMENTS.md` knob table; call sites then use
//! `lsq_util::knobs::get("LSQ_MY_KNOB")`.

/// One registered environment knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knob {
    /// Environment-variable name (`LSQ_…`).
    pub name: &'static str,
    /// Value kind, for humans: `"int"`, `"flag"`, `"path"`, `"string"`.
    pub kind: &'static str,
    /// Default used when the variable is unset, for humans.
    pub default: &'static str,
    /// One-line description.
    pub doc: &'static str,
}

/// Every environment knob the workspace reads, in alphabetical order.
pub const REGISTRY: &[Knob] = &[
    Knob {
        name: "LSQ_ACCOUNTING",
        kind: "flag",
        default: "off",
        doc: "Attach the cycle accountant to every fresh job (CPI stacks).",
    },
    Knob {
        name: "LSQ_ACCOUNTING_CSV",
        kind: "path",
        default: "unset",
        doc: "Windowed CPI-stack CSV destination, `<path>[:window]` (default window 10000).",
    },
    Knob {
        name: "LSQ_EXPERIMENTS_JSON",
        kind: "path",
        default: "unset",
        doc: "Dump one JSON record per submitted engine job to this path.",
    },
    Knob {
        name: "LSQ_INSTRS",
        kind: "int",
        default: "250000",
        doc: "Measured instructions per (benchmark, design point) job.",
    },
    Knob {
        name: "LSQ_JOBS",
        kind: "int",
        default: "available parallelism",
        doc: "Worker threads for the work-stealing experiment engine.",
    },
    Knob {
        name: "LSQ_METRICS_ADDR",
        kind: "string",
        default: "unset",
        doc: "Serve live /metrics and /jobs on this `host:port` during engine runs.",
    },
    Knob {
        name: "LSQ_PIPEVIEW",
        kind: "path",
        default: "unset",
        doc: "Per-instruction pipeline-viewer log, `<path>[:konata|:o3]` (default format konata).",
    },
    Knob {
        name: "LSQ_PIPEVIEW_CAP",
        kind: "int",
        default: "65536",
        doc: "Finished-record ring capacity for the pipeline viewer; oldest are evicted first.",
    },
    Knob {
        name: "LSQ_PROFILE",
        kind: "flag",
        default: "off",
        doc: "Attach the per-phase wall-time self-profiler to every fresh job.",
    },
    Knob {
        name: "LSQ_PROGRESS",
        kind: "flag",
        default: "auto (stderr is a tty)",
        doc: "Force the batch progress meter on (`1`) or off (`0`).",
    },
    Knob {
        name: "LSQ_SAMPLE_CYCLES",
        kind: "int",
        default: "unset (1000 in timeline mode)",
        doc: "Windowed time-series sampler period in cycles for traced runs.",
    },
    Knob {
        name: "LSQ_TRACE",
        kind: "path",
        default: "unset",
        doc: "Trace sink, `<path>[:events|:chrome|:timeline]` (default format events).",
    },
    Knob {
        name: "LSQ_TRACE_CAP",
        kind: "int",
        default: "262144",
        doc: "Event-ring capacity (events) for traced runs; oldest are evicted first.",
    },
];

/// Looks up a registered knob by name.
pub fn find(name: &str) -> Option<&'static Knob> {
    REGISTRY.iter().find(|k| k.name == name)
}

/// Whether `name` is a registered knob.
pub fn is_registered(name: &str) -> bool {
    find(name).is_some()
}

fn assert_registered(name: &str) {
    debug_assert!(
        is_registered(name),
        "environment knob {name} is not in lsq_util::knobs::REGISTRY; \
         register it there and document it in EXPERIMENTS.md"
    );
}

/// Reads a registered knob as UTF-8, `None` when unset or invalid UTF-8.
///
/// The single sanctioned path to `std::env::var` for `LSQ_*` names;
/// debug builds assert the name is registered.
pub fn get(name: &str) -> Option<String> {
    assert_registered(name);
    std::env::var(name).ok()
}

/// Reads a boolean knob: set, non-empty, and not `0` (after trimming).
pub fn flag(name: &str) -> bool {
    matches!(get(name).as_deref().map(str::trim), Some(v) if !v.is_empty() && v != "0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_prefixed() {
        for pair in REGISTRY.windows(2) {
            assert!(pair[0].name < pair[1].name, "registry sorted by name");
        }
        for k in REGISTRY {
            assert!(
                k.name.starts_with("LSQ_"),
                "{} must be LSQ_-prefixed",
                k.name
            );
            assert!(!k.doc.is_empty() && !k.kind.is_empty() && !k.default.is_empty());
        }
    }

    #[test]
    fn lookup_and_flag_semantics() {
        assert!(is_registered("LSQ_JOBS"));
        assert!(!is_registered("LSQ_NOT_A_KNOB"));
        // `flag` reads through the process environment; exercise the
        // parse via a registered knob that tests own exclusively.
        std::env::set_var("LSQ_PROFILE", "0");
        assert!(!flag("LSQ_PROFILE"));
        std::env::set_var("LSQ_PROFILE", " 1 ");
        assert!(flag("LSQ_PROFILE"));
        std::env::set_var("LSQ_PROFILE", "");
        assert!(!flag("LSQ_PROFILE"));
        std::env::remove_var("LSQ_PROFILE");
        assert!(!flag("LSQ_PROFILE"));
    }
}
