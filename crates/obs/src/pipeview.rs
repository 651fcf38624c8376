//! Per-instruction pipeline-lifecycle records and viewer sinks.
//!
//! The tracer (PR 2) answers *what happened when*; the profiler (PR 5)
//! answers *where wall time went*; the CPI stacks (PR 6) answer *which
//! component ate the commit slots*. None of them can show one
//! instruction's life. This module defines the [`PipeRecord`] the
//! simulator's lifecycle recorder fills in (one per dynamic
//! instruction: fetch/dispatch/issue/writeback/commit cycles, squash
//! with cause, dependency edges, SQ-search extra latency, miss level)
//! and renders a batch of records in the two de-facto standard
//! pipeline-viewer formats:
//!
//! * **Konata** (`Kanata\t0004` log) — loads in
//!   <https://github.com/shioyadan/Konata>.
//! * **O3PipeView** — gem5's `O3PipeView:` line format, consumed by
//!   `util/o3-pipeview.py` and compatible viewers.
//!
//! Both writers have matching parsers ([`parse_konata`], [`parse_o3`])
//! so tests can round-trip a real run's output and assert every
//! committed instruction appears exactly once with squashed ones
//! flagged. [`PipeviewConfig`] wires the sink to the
//! `LSQ_PIPEVIEW=<path>[:konata|:o3]` knob.

use std::path::{Path, PathBuf};

use crate::event::SquashCause;
use lsq_isa::{Addr, InstrKind, Pc};

/// Default capacity of the finished-record ring (`LSQ_PIPEVIEW_CAP`).
pub const DEFAULT_PIPEVIEW_CAPACITY: usize = 65536;

/// One dynamic instruction's recorded lifetime. Cycle stamps are
/// `None` until the instruction reaches that stage; a record ends
/// either in `commit` or in `squash` (never both).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipeRecord {
    /// ROB sequence number (reused after squash: a squashed record and
    /// a later committed one may share a `seq`).
    pub seq: u64,
    /// Static PC.
    pub pc: Pc,
    /// Effective address (memory ops; 0 otherwise).
    pub addr: Addr,
    /// Instruction kind.
    pub kind: InstrKind,
    /// Producer sequence numbers for the two source operands, as
    /// resolved by rename at dispatch.
    pub deps: [Option<u64>; 2],
    /// Cycle the instruction entered the frontend.
    pub fetch: u64,
    /// Cycle it entered the ROB/queues.
    pub dispatch: Option<u64>,
    /// Cycle it issued to execute / memory.
    pub issue: Option<u64>,
    /// Cycle its result was available (completion).
    pub writeback: Option<u64>,
    /// Extra cycles the segmented SQ search added to a load's latency.
    pub sq_extra: u32,
    /// Deepest hierarchy level a load's access reached
    /// (0 = L1/forward, 1 = L2, 2 = memory).
    pub mem_level: u8,
    /// Cycle it retired, if it did.
    pub commit: Option<u64>,
    /// Squash cycle and cause, if it was squashed instead.
    pub squash: Option<(u64, SquashCause)>,
}

impl PipeRecord {
    /// A vacant slot (`seq == u64::MAX`), used by recorders to
    /// preallocate storage.
    pub fn vacant() -> Self {
        PipeRecord {
            seq: u64::MAX,
            pc: Pc(0),
            addr: Addr(0),
            kind: InstrKind::IntAlu,
            deps: [None, None],
            fetch: 0,
            dispatch: None,
            issue: None,
            writeback: None,
            sq_extra: 0,
            mem_level: 0,
            commit: None,
            squash: None,
        }
    }

    /// Whether this slot holds a real record.
    pub fn is_occupied(&self) -> bool {
        self.seq != u64::MAX
    }

    /// The cycle the record ended: commit or squash.
    pub fn end_cycle(&self) -> Option<u64> {
        self.commit.or(self.squash.map(|(c, _)| c))
    }
}

/// Output format for a pipeline-viewer run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeviewMode {
    /// Konata `Kanata\t0004` log.
    Konata,
    /// gem5 `O3PipeView:` lines.
    O3,
}

/// A parsed pipeline-viewer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PipeviewConfig {
    /// Output path.
    pub path: PathBuf,
    /// Output format.
    pub mode: PipeviewMode,
    /// Finished-record ring capacity; oldest records are evicted first.
    pub capacity: usize,
}

impl PipeviewConfig {
    /// Parse an `LSQ_PIPEVIEW`-style value. The format suffix is
    /// optional and defaults to `konata`; an unrecognized suffix is
    /// treated as part of the path.
    pub fn parse(spec: &str) -> PipeviewConfig {
        let (path, mode) = match spec.rsplit_once(':') {
            Some((p, "konata")) => (p, PipeviewMode::Konata),
            Some((p, "o3")) => (p, PipeviewMode::O3),
            _ => (spec, PipeviewMode::Konata),
        };
        PipeviewConfig {
            path: PathBuf::from(path),
            mode,
            capacity: DEFAULT_PIPEVIEW_CAPACITY,
        }
    }

    /// Read `LSQ_PIPEVIEW` / `LSQ_PIPEVIEW_CAP`; `None` when
    /// `LSQ_PIPEVIEW` is unset or empty.
    pub fn from_env() -> Option<PipeviewConfig> {
        let spec = lsq_util::knobs::get("LSQ_PIPEVIEW")?;
        if spec.trim().is_empty() {
            return None;
        }
        let mut cfg = PipeviewConfig::parse(&spec);
        if let Some(cap) =
            lsq_util::knobs::get("LSQ_PIPEVIEW_CAP").and_then(|s| s.trim().parse::<usize>().ok())
        {
            cfg.capacity = cap.max(1);
        }
        Some(cfg)
    }

    /// Render `records` in the configured format and write the file.
    pub fn write(&self, records: &[PipeRecord]) -> std::io::Result<PathBuf> {
        let text = match self.mode {
            PipeviewMode::Konata => to_konata(records),
            PipeviewMode::O3 => to_o3(records),
        };
        write_file(&self.path, &text)?;
        Ok(self.path.clone())
    }
}

fn write_file(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

/// Stage names used in Konata output, in pipeline order: frontend,
/// dispatch-to-issue wait, execute/memory, completed-to-retire wait.
const KONATA_STAGES: [&str; 4] = ["F", "Ds", "Ex", "Cm"];

/// Renders records as a Konata (`Kanata\t0004`) log. File instruction
/// ids are emission indices (unique even when `seq` is reused after a
/// squash); the `seq` rides in the `I` command's instruction-id field
/// and the label.
pub fn to_konata(records: &[PipeRecord]) -> String {
    // (cycle, text) command list; a stable sort by cycle preserves each
    // record's internal chronology and lets Konata's single forward
    // cycle cursor replay everything.
    let mut cmds: Vec<(u64, String)> = Vec::new();
    let mut retire_id = 0u64;
    for (id, r) in records.iter().enumerate() {
        if !r.is_occupied() {
            continue;
        }
        let end = r.end_cycle();
        cmds.push((r.fetch, format!("I\t{id}\t{}\t0", r.seq)));
        cmds.push((
            r.fetch,
            format!("L\t{id}\t0\t{}: {} pc={:#x}", r.seq, r.kind, r.pc.0),
        ));
        if r.kind.is_mem() {
            cmds.push((
                r.fetch,
                format!(
                    "L\t{id}\t1\taddr={:#x} level={} sq_extra={}",
                    r.addr.0, r.mem_level, r.sq_extra
                ),
            ));
        }
        // Stage boundaries in order; stages starting after the record
        // ended (e.g. a writeback stamped past a squash) are dropped.
        let starts = [
            Some(r.fetch),
            r.dispatch,
            r.issue,
            r.writeback.filter(|&w| end.is_none_or(|e| w <= e)),
        ];
        let mut open: Option<&str> = None;
        for (stage, start) in KONATA_STAGES.iter().zip(starts) {
            let Some(start) = start else { continue };
            if let Some(prev) = open {
                cmds.push((start, format!("E\t{id}\t0\t{prev}")));
            }
            cmds.push((start, format!("S\t{id}\t0\t{stage}")));
            open = Some(stage);
        }
        let end = end.unwrap_or_else(|| {
            // Still in flight when recording stopped: close at the last
            // known stamp so the log stays well-formed.
            starts.iter().flatten().copied().max().unwrap_or(r.fetch)
        });
        if let Some(prev) = open {
            cmds.push((end, format!("E\t{id}\t0\t{prev}")));
        }
        let flush = u64::from(r.squash.is_some() || r.commit.is_none());
        cmds.push((end, format!("R\t{id}\t{retire_id}\t{flush}")));
        retire_id += 1;
    }
    cmds.sort_by_key(|(cycle, _)| *cycle);

    let mut out = String::from("Kanata\t0004\n");
    let mut cursor = cmds.first().map(|(c, _)| *c).unwrap_or(0);
    out.push_str(&format!("C=\t{cursor}\n"));
    for (cycle, cmd) in &cmds {
        if *cycle > cursor {
            out.push_str(&format!("C\t{}\n", cycle - cursor));
            cursor = *cycle;
        }
        out.push_str(cmd);
        out.push('\n');
    }
    out
}

/// Renders records as gem5 `O3PipeView:` lines (one tick per cycle).
/// Squashed instructions get the conventional retire tick 0.
pub fn to_o3(records: &[PipeRecord]) -> String {
    let mut out = String::new();
    for r in records.iter().filter(|r| r.is_occupied()) {
        out.push_str(&format!(
            "O3PipeView:fetch:{}:{:#x}:0:{}:{}\n",
            r.fetch, r.pc.0, r.seq, r.kind
        ));
        out.push_str(&format!("O3PipeView:decode:{}\n", r.fetch));
        let dispatch = r.dispatch.unwrap_or(0);
        out.push_str(&format!("O3PipeView:rename:{dispatch}\n"));
        out.push_str(&format!("O3PipeView:dispatch:{dispatch}\n"));
        out.push_str(&format!("O3PipeView:issue:{}\n", r.issue.unwrap_or(0)));
        out.push_str(&format!(
            "O3PipeView:complete:{}\n",
            r.writeback.unwrap_or(0)
        ));
        let retire = r.commit.unwrap_or(0);
        out.push_str(&format!("O3PipeView:retire:{retire}:store:{retire}\n"));
    }
    out
}

/// One instruction reconstructed from a viewer log by [`parse_konata`]
/// or [`parse_o3`]. Only the fields both formats can express.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedInstr {
    /// File-unique instruction id (emission index).
    pub id: u64,
    /// ROB sequence number.
    pub seq: u64,
    /// Fetch cycle.
    pub fetch: u64,
    /// Retire cycle for committed instructions.
    pub retire: Option<u64>,
    /// Whether the log flags the instruction as squashed/flushed.
    pub squashed: bool,
    /// Left-pane label text (Konata only; empty for O3).
    pub label: String,
}

/// Parses a Konata log produced by [`to_konata`] (or any conforming
/// `Kanata\t0004` file using `I`/`L`/`S`/`E`/`R`/`C`/`C=` commands).
pub fn parse_konata(text: &str) -> Result<Vec<ParsedInstr>, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, header)) if header.starts_with("Kanata\t") => {}
        _ => return Err("missing Kanata header".to_string()),
    }
    let mut cycle = 0u64;
    let mut instrs: Vec<ParsedInstr> = Vec::new();
    let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let field = |f: Option<&str>, what: &str, no: usize| -> Result<u64, String> {
        f.and_then(|s| s.trim().parse::<u64>().ok())
            .ok_or_else(|| format!("line {}: bad {what}", no + 1))
    };
    for (no, line) in lines {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        let cmd = parts.next().unwrap_or("");
        match cmd {
            "C=" => cycle = field(parts.next(), "cycle", no)?,
            "C" => cycle += field(parts.next(), "cycle delta", no)?,
            "I" => {
                let id = field(parts.next(), "id", no)?;
                let seq = field(parts.next(), "instruction id", no)?;
                index.insert(id, instrs.len());
                instrs.push(ParsedInstr {
                    id,
                    seq,
                    fetch: cycle,
                    retire: None,
                    squashed: false,
                    label: String::new(),
                });
            }
            "L" => {
                let id = field(parts.next(), "id", no)?;
                let kind = field(parts.next(), "label type", no)?;
                let i = *index
                    .get(&id)
                    .ok_or_else(|| format!("line {}: L before I for id {id}", no + 1))?;
                if kind == 0 {
                    instrs[i].label = parts.collect::<Vec<_>>().join("\t");
                }
            }
            "S" | "E" => {
                let id = field(parts.next(), "id", no)?;
                if !index.contains_key(&id) {
                    return Err(format!("line {}: {cmd} before I for id {id}", no + 1));
                }
            }
            "R" => {
                let id = field(parts.next(), "id", no)?;
                let _retire_id = field(parts.next(), "retire id", no)?;
                let flush = field(parts.next(), "retire type", no)?;
                let i = *index
                    .get(&id)
                    .ok_or_else(|| format!("line {}: R before I for id {id}", no + 1))?;
                if flush == 0 {
                    instrs[i].retire = Some(cycle);
                } else {
                    instrs[i].squashed = true;
                }
            }
            _ => return Err(format!("line {}: unknown command {cmd:?}", no + 1)),
        }
    }
    Ok(instrs)
}

/// Parses gem5 `O3PipeView:` lines produced by [`to_o3`]. Ids are
/// assigned in file order; a retire tick of 0 marks a squash.
pub fn parse_o3(text: &str) -> Result<Vec<ParsedInstr>, String> {
    let mut instrs: Vec<ParsedInstr> = Vec::new();
    for (no, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let rest = line
            .strip_prefix("O3PipeView:")
            .ok_or_else(|| format!("line {}: not an O3PipeView record", no + 1))?;
        let mut parts = rest.split(':');
        let stage = parts.next().unwrap_or("");
        let tick = parts
            .next()
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| format!("line {}: bad tick", no + 1))?;
        match stage {
            "fetch" => {
                let _pc = parts.next();
                let _upc = parts.next();
                let seq = parts
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| format!("line {}: bad seq", no + 1))?;
                instrs.push(ParsedInstr {
                    id: instrs.len() as u64,
                    seq,
                    fetch: tick,
                    retire: None,
                    squashed: false,
                    label: String::new(),
                });
            }
            "retire" => {
                let last = instrs
                    .last_mut()
                    .ok_or_else(|| format!("line {}: retire before fetch", no + 1))?;
                if tick == 0 {
                    last.squashed = true;
                } else {
                    last.retire = Some(tick);
                }
            }
            "decode" | "rename" | "dispatch" | "issue" | "complete" => {}
            other => return Err(format!("line {}: unknown stage {other:?}", no + 1)),
        }
    }
    Ok(instrs)
}

/// Parses either supported format, sniffing the header line.
pub fn parse_pipeview(text: &str) -> Result<Vec<ParsedInstr>, String> {
    if text.starts_with("Kanata\t") {
        parse_konata(text)
    } else {
        parse_o3(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(seq: u64, fetch: u64) -> PipeRecord {
        PipeRecord {
            seq,
            pc: Pc(0x400 + seq * 4),
            addr: Addr(0),
            kind: InstrKind::IntAlu,
            deps: [None, None],
            fetch,
            dispatch: Some(fetch + 1),
            issue: Some(fetch + 3),
            writeback: Some(fetch + 4),
            sq_extra: 0,
            mem_level: 0,
            commit: Some(fetch + 6),
            squash: None,
        }
    }

    fn squashed(seq: u64, fetch: u64, at: u64) -> PipeRecord {
        PipeRecord {
            squash: Some((at, SquashCause::MemOrder)),
            commit: None,
            ..committed(seq, fetch)
        }
    }

    #[test]
    fn parses_mode_suffixes_and_bare_paths() {
        let c = PipeviewConfig::parse("/tmp/p.log:o3");
        assert_eq!(c.path, PathBuf::from("/tmp/p.log"));
        assert_eq!(c.mode, PipeviewMode::O3);
        let c = PipeviewConfig::parse("/tmp/p.log:konata");
        assert_eq!(c.mode, PipeviewMode::Konata);
        let c = PipeviewConfig::parse("/tmp/p.log");
        assert_eq!(c.mode, PipeviewMode::Konata);
        assert_eq!(c.capacity, DEFAULT_PIPEVIEW_CAPACITY);
        // Unrecognized suffix stays part of the path.
        let c = PipeviewConfig::parse("view:v2");
        assert_eq!(c.path, PathBuf::from("view:v2"));
    }

    #[test]
    fn konata_round_trip_preserves_coverage_and_flags() {
        let records = vec![
            committed(0, 10),
            committed(1, 10),
            squashed(2, 11, 15),
            committed(2, 17),
        ];
        let text = to_konata(&records);
        assert!(text.starts_with("Kanata\t0004\n"));
        let parsed = parse_konata(&text).expect("well-formed log");
        assert_eq!(parsed.len(), 4);
        let retired: Vec<u64> = parsed
            .iter()
            .filter(|p| p.retire.is_some())
            .map(|p| p.seq)
            .collect();
        assert_eq!(retired, vec![0, 1, 2]);
        let flushed: Vec<&ParsedInstr> = parsed.iter().filter(|p| p.squashed).collect();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].seq, 2);
        assert!(flushed[0].retire.is_none());
        // Fetch cycles survive the cycle-cursor encoding.
        assert_eq!(parsed[0].fetch, 10);
        assert_eq!(parsed[3].fetch, 17);
        assert_eq!(parsed[0].retire, Some(16));
        assert!(parsed[0].label.contains("pc=0x400"));
    }

    #[test]
    fn konata_cycles_are_monotone() {
        let text = to_konata(&[committed(5, 100), committed(6, 90)]);
        // The writer sorts commands, so the single cycle cursor never
        // has to move backwards; parse succeeding proves it.
        let parsed = parse_konata(&text).expect("well-formed log");
        assert_eq!(parsed.len(), 2);
        let by_seq = |s: u64| parsed.iter().find(|p| p.seq == s).expect("present");
        assert_eq!(by_seq(5).fetch, 100);
        assert_eq!(by_seq(6).fetch, 90);
    }

    #[test]
    fn o3_round_trip_preserves_coverage_and_flags() {
        let records = vec![committed(0, 10), squashed(1, 11, 15), committed(1, 17)];
        let text = to_o3(&records);
        let parsed = parse_o3(&text).expect("well-formed log");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].retire, Some(16));
        assert!(parsed[1].squashed);
        assert_eq!(parsed[2].seq, 1);
        assert_eq!(parsed[2].retire, Some(23));
    }

    #[test]
    fn sniffer_dispatches_on_header() {
        let records = vec![committed(0, 1)];
        assert_eq!(
            parse_pipeview(&to_konata(&records)).expect("konata"),
            parse_konata(&to_konata(&records)).expect("konata")
        );
        assert_eq!(
            parse_pipeview(&to_o3(&records)).expect("o3"),
            parse_o3(&to_o3(&records)).expect("o3")
        );
    }

    #[test]
    fn vacant_slots_are_skipped() {
        let records = vec![PipeRecord::vacant(), committed(3, 5)];
        let parsed = parse_konata(&to_konata(&records)).expect("well-formed log");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].seq, 3);
        assert_eq!(to_o3(&[PipeRecord::vacant()]), "");
    }

    #[test]
    fn writers_handle_inflight_tail_records() {
        // A record that never finished (end of run): stays parseable,
        // counted as neither retired nor squashed... the R command is
        // still emitted as a flush so viewers close the lane.
        let mut r = committed(9, 50);
        r.commit = None;
        let parsed = parse_konata(&to_konata(&[r])).expect("well-formed log");
        assert_eq!(parsed.len(), 1);
        assert!(parsed[0].retire.is_none());
        assert!(parsed[0].squashed);
    }
}
