//! Environment-driven trace configuration.
//!
//! Any run — `bin/diag`, `bin/artifact`, or a full experiment batch —
//! can be traced without code changes:
//!
//! * `LSQ_TRACE=<path>[:events|:chrome|:timeline]` selects the sink
//!   file and format (`events` = JSONL, `chrome` = Chrome
//!   `trace_event` JSON for Perfetto, `timeline` = windowed CSV only).
//! * `LSQ_SAMPLE_CYCLES=<n>` sets the sampler window; `events` and
//!   `chrome` runs with a window also write a `<path>.timeline.csv`
//!   sidecar.
//! * `LSQ_TRACE_CAP=<n>` bounds the event ring (default
//!   [`crate::DEFAULT_RING_CAPACITY`]).

use std::path::{Path, PathBuf};

use crate::sample::Sampler;
use crate::tracer::{TraceBuffer, DEFAULT_RING_CAPACITY};

/// Output format for a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// JSON Lines, one event object per line.
    Events,
    /// Chrome `trace_event` JSON (opens in Perfetto / `chrome://tracing`).
    Chrome,
    /// Windowed CSV time series only (no per-event output).
    Timeline,
}

/// A parsed trace configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Primary output path.
    pub path: PathBuf,
    /// Output format.
    pub mode: TraceMode,
    /// Sampler window in cycles, if sampling was requested.
    pub sample_cycles: Option<u64>,
    /// Event-ring capacity.
    pub capacity: usize,
}

impl TraceConfig {
    /// Parse an `LSQ_TRACE`-style value plus an optional
    /// `LSQ_SAMPLE_CYCLES`-style value. The mode suffix is optional and
    /// defaults to `events`; an unrecognized suffix is treated as part
    /// of the path (so `C:\traces\out.json` keeps working).
    pub fn parse(trace: &str, sample_cycles: Option<&str>) -> TraceConfig {
        let (path, mode) = match trace.rsplit_once(':') {
            Some((p, "events")) => (p, TraceMode::Events),
            Some((p, "chrome")) => (p, TraceMode::Chrome),
            Some((p, "timeline")) => (p, TraceMode::Timeline),
            _ => (trace, TraceMode::Events),
        };
        let sample_cycles = sample_cycles.and_then(|s| s.trim().parse::<u64>().ok());
        TraceConfig {
            path: PathBuf::from(path),
            mode,
            sample_cycles: sample_cycles.filter(|&n| n > 0),
            capacity: DEFAULT_RING_CAPACITY,
        }
    }

    /// Read `LSQ_TRACE` / `LSQ_SAMPLE_CYCLES` / `LSQ_TRACE_CAP`;
    /// `None` when `LSQ_TRACE` is unset or empty.
    pub fn from_env() -> Option<TraceConfig> {
        let trace = lsq_util::knobs::get("LSQ_TRACE")?;
        if trace.trim().is_empty() {
            return None;
        }
        let sample = lsq_util::knobs::get("LSQ_SAMPLE_CYCLES");
        let mut cfg = TraceConfig::parse(&trace, sample.as_deref());
        if let Some(cap) =
            lsq_util::knobs::get("LSQ_TRACE_CAP").and_then(|s| s.trim().parse::<usize>().ok())
        {
            cfg.capacity = cap.max(1);
        }
        Some(cfg)
    }

    /// The sampler window to use, honouring the mode: `timeline` runs
    /// sample even when `LSQ_SAMPLE_CYCLES` is unset (defaulting to
    /// 1000 cycles), since a timeline with no windows would be empty.
    pub fn effective_sample_cycles(&self) -> Option<u64> {
        match (self.mode, self.sample_cycles) {
            (_, Some(n)) => Some(n),
            (TraceMode::Timeline, None) => Some(1000),
            _ => None,
        }
    }

    /// Path of the CSV timeline sidecar written alongside `events` /
    /// `chrome` output when sampling is on.
    pub fn timeline_path(&self) -> PathBuf {
        let mut os = self.path.clone().into_os_string();
        os.push(".timeline.csv");
        PathBuf::from(os)
    }

    /// Write the configured outputs. Returns the paths written. The
    /// sampler, if provided, should already be flushed by the caller
    /// (`ProbeSet::take_sampler` in `lsq-pipeline` does this).
    pub fn write(
        &self,
        buf: &TraceBuffer,
        sampler: Option<&Sampler>,
    ) -> std::io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        match self.mode {
            TraceMode::Events => {
                write_file(&self.path, &buf.to_jsonl())?;
                written.push(self.path.clone());
            }
            TraceMode::Chrome => {
                write_file(&self.path, &buf.to_chrome_trace())?;
                written.push(self.path.clone());
            }
            TraceMode::Timeline => {
                if let Some(s) = sampler {
                    write_file(&self.path, &s.to_csv())?;
                    written.push(self.path.clone());
                }
            }
        }
        if self.mode != TraceMode::Timeline {
            if let Some(s) = sampler {
                let path = self.timeline_path();
                write_file(&path, &s.to_csv())?;
                written.push(path);
            }
        }
        Ok(written)
    }
}

/// `path` uniquified for engine job `n`: job 0 writes the configured
/// path verbatim; job `n` appends `.n` (`out.json` → `out.json.3`) so
/// parallel jobs never clobber each other.
pub fn numbered(path: &Path, n: u64) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    if n > 0 {
        os.push(format!(".{n}"));
    }
    PathBuf::from(os)
}

fn write_file(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mode_suffixes() {
        let c = TraceConfig::parse("/tmp/t.json:chrome", None);
        assert_eq!(c.path, PathBuf::from("/tmp/t.json"));
        assert_eq!(c.mode, TraceMode::Chrome);
        let c = TraceConfig::parse("/tmp/t.jsonl:events", Some("500"));
        assert_eq!(c.mode, TraceMode::Events);
        assert_eq!(c.sample_cycles, Some(500));
        let c = TraceConfig::parse("/tmp/t.csv:timeline", None);
        assert_eq!(c.mode, TraceMode::Timeline);
    }

    #[test]
    fn bare_path_defaults_to_events() {
        let c = TraceConfig::parse("/tmp/out.jsonl", None);
        assert_eq!(c.mode, TraceMode::Events);
        assert_eq!(c.path, PathBuf::from("/tmp/out.jsonl"));
        // Unrecognized suffix stays part of the path.
        let c = TraceConfig::parse("trace:v2", None);
        assert_eq!(c.path, PathBuf::from("trace:v2"));
    }

    #[test]
    fn zero_sample_cycles_disables_sampling() {
        let c = TraceConfig::parse("/tmp/t.json", Some("0"));
        assert_eq!(c.sample_cycles, None);
        assert_eq!(c.effective_sample_cycles(), None);
    }

    #[test]
    fn timeline_mode_defaults_a_window() {
        let c = TraceConfig::parse("/tmp/t.csv:timeline", None);
        assert_eq!(c.effective_sample_cycles(), Some(1000));
        let c = TraceConfig::parse("/tmp/t.csv:timeline", Some("250"));
        assert_eq!(c.effective_sample_cycles(), Some(250));
    }

    #[test]
    fn job_paths_are_unique_and_job_zero_is_verbatim() {
        let c = TraceConfig::parse("/tmp/t.json:chrome", None);
        assert_eq!(numbered(&c.path, 0), PathBuf::from("/tmp/t.json"));
        assert_eq!(numbered(&c.path, 3), PathBuf::from("/tmp/t.json.3"));
        assert_eq!(c.timeline_path(), PathBuf::from("/tmp/t.json.timeline.csv"));
    }
}
