//! Simulated results as checkable records, and the committed reference
//! outputs (`golden/seed<N>.json`) they are checked against.
//!
//! An operation is one job or, for `paper_all`, one rendered artifact.
//! Its record holds every simulated counter of the job's `SimResult`
//! (host timing excluded) and an FNV-1a digest of them; an artifact's
//! record holds the digest of its rendered text. A reference file stores
//! one record per operation for each workload and pass of one seed.

use lsq_obs::Json;
use lsq_pipeline::SimResult;
use std::path::PathBuf;

/// Names of the simulated counters in [`Op::values`], in order.
pub const FIELDS: &[&str] = &[
    "cycles",
    "committed",
    "loads_committed",
    "stores_committed",
    "branches_committed",
    "branch_predictions",
    "branch_mispredictions",
    "violation_squashes",
    "instructions_squashed",
    "hit_cycle_cap",
    "lq_occupancy",
    "sq_occupancy",
    "ooo_issued_loads",
    "inflight_loads",
    "l1d_miss_rate",
    "l2_miss_rate",
    "lsq.loads_dispatched",
    "lsq.stores_dispatched",
    "lsq.loads_issued",
    "lsq.stores_issued",
    "lsq.stores_committed",
    "lsq.sq_searches",
    "lsq.sq_search_hits",
    "lsq.lq_searches_by_stores",
    "lsq.lq_searches_by_loads",
    "lsq.lb_searches",
    "lsq.violations",
    "lsq.commit_violations",
    "lsq.useless_searches",
    "lsq.load_load_violations",
    "lsq.invalidations",
    "lsq.invalidation_squashes",
    "lsq.sq_port_stalls",
    "lsq.lq_port_stalls",
    "lsq.commit_port_delays",
    "lsq.lb_full_stalls",
    "lsq.in_order_stalls",
    "lsq.store_set_waits",
    "lsq.seg_search_hist",
];

/// Every simulated counter of `r`, in [`FIELDS`] order.
fn values(r: &SimResult) -> Vec<Json> {
    let s = &r.lsq;
    let mut hist: Vec<Json> = s.seg_search_hist.iter().map(|(_, n)| n.into()).collect();
    hist.push(s.seg_search_hist.overflow().into());
    vec![
        r.cycles.into(),
        r.committed.into(),
        r.loads_committed.into(),
        r.stores_committed.into(),
        r.branches_committed.into(),
        r.branch_predictions.into(),
        r.branch_mispredictions.into(),
        r.violation_squashes.into(),
        r.instructions_squashed.into(),
        r.hit_cycle_cap.into(),
        r.lq_occupancy.into(),
        r.sq_occupancy.into(),
        r.ooo_issued_loads.into(),
        r.inflight_loads.into(),
        r.l1d_miss_rate.into(),
        r.l2_miss_rate.into(),
        s.loads_dispatched.into(),
        s.stores_dispatched.into(),
        s.loads_issued.into(),
        s.stores_issued.into(),
        s.stores_committed.into(),
        s.sq_searches.into(),
        s.sq_search_hits.into(),
        s.lq_searches_by_stores.into(),
        s.lq_searches_by_loads.into(),
        s.lb_searches.into(),
        s.violations.into(),
        s.commit_violations.into(),
        s.useless_searches.into(),
        s.load_load_violations.into(),
        s.invalidations.into(),
        s.invalidation_squashes.into(),
        s.sq_port_stalls.into(),
        s.lq_port_stalls.into(),
        s.commit_port_delays.into(),
        s.lb_full_stalls.into(),
        s.in_order_stalls.into(),
        s.store_set_waits.into(),
        Json::Arr(hist),
    ]
}

/// 64-bit FNV-1a of `text`, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The checkable record of one operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// `<design point>/<benchmark>/s<seed>` for a job, the artifact id
    /// for an artifact.
    pub label: String,
    /// Digest of [`Op::values`] (job) or of the rendered text (artifact).
    pub digest: String,
    /// The job's counters in [`FIELDS`] order; empty for an artifact.
    pub values: Vec<Json>,
    /// The job ended on the simulator's safety cycle cap.
    pub capped: bool,
}

impl Op {
    /// The record of one simulated job.
    pub fn job(label: &str, r: &SimResult) -> Op {
        let values = values(r);
        Op {
            label: label.to_string(),
            digest: digest(&Json::Arr(values.clone()).to_string()),
            values,
            capped: r.hit_cycle_cap,
        }
    }

    /// The record of one rendered artifact.
    pub fn artifact(label: &str, text: &str) -> Op {
        Op {
            label: label.to_string(),
            digest: digest(text),
            values: Vec::new(),
            capped: false,
        }
    }

    /// The counter named `field` as a number (0 when absent).
    pub fn field(&self, field: &str) -> f64 {
        FIELDS
            .iter()
            .position(|f| *f == field)
            .and_then(|i| self.values.get(i))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// Where this record differs from `expected`, naming the first
    /// differing counter; `None` when they are identical. Counters are
    /// compared as well as digests, so a hand-edited reference value is
    /// caught even where its digest was left alone.
    pub fn diff(&self, expected: &Op) -> Option<String> {
        let first = self
            .values
            .iter()
            .zip(&expected.values)
            .zip(FIELDS)
            .find(|((got, want), _)| got.to_string() != want.to_string());
        if let Some(((got, want), field)) = first {
            return Some(format!("field {field} is {got}, expected {want}"));
        }
        (self.digest != expected.digest || self.values.len() != expected.values.len())
            .then(|| format!("digest {} differs from {}", self.digest, expected.digest))
    }

    /// `[label, digest, capped, values]` for the parent/child protocol.
    pub fn to_json(&self) -> Json {
        Json::Arr(vec![
            self.label.as_str().into(),
            self.digest.as_str().into(),
            self.capped.into(),
            Json::Arr(self.values.clone()),
        ])
    }

    /// Inverse of [`Op::to_json`].
    pub fn from_json(j: &Json) -> Option<Op> {
        let [label, digest, capped, values] = j.as_arr()? else {
            return None;
        };
        Some(Op {
            label: label.as_str()?.to_string(),
            digest: digest.as_str()?.to_string(),
            capped: capped.as_bool()?,
            values: values.as_arr()?.to_vec(),
        })
    }
}

/// Why each failing operation failed, one entry per operation: it hit
/// the cycle cap, it differs from its reference record (when
/// `reference` is given), or it differs from the same operation in an
/// earlier batch of this run (when `earlier` is given).
pub fn failures(ops: &[Op], reference: Option<&[Op]>, earlier: Option<&[Op]>) -> Vec<String> {
    fn find<'a>(set: &'a [Op], label: &str) -> Option<&'a Op> {
        set.iter().find(|o| o.label == label)
    }
    ops.iter()
        .filter_map(|op| {
            let why = if op.capped {
                Some("hit the simulator's cycle cap".to_string())
            } else if let Some(reference) = reference {
                match find(reference, &op.label) {
                    Some(expected) => op.diff(expected).map(|d| format!("{d} (reference)")),
                    None => Some("has no reference record".to_string()),
                }
            } else {
                None
            };
            let why = why.or_else(|| {
                let expected = find(earlier?, &op.label)?;
                op.diff(expected).map(|d| format!("{d} (earlier batch)"))
            });
            why.map(|w| format!("{}: {w}", op.label))
        })
        .collect()
}

/// The reference outputs of one seed.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The seed the job lists were built from.
    pub seed: u64,
    /// `(workload, pass, records)` sections.
    pub sections: Vec<(String, String, Vec<Op>)>,
}

impl Reference {
    /// Where the reference file of `seed` lives in the source tree.
    pub fn path(seed: u64) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("seed{seed}.json"))
    }

    /// The records of one workload and pass, if the file has them.
    pub fn ops(&self, workload: &str, pass: &str) -> Option<&[Op]> {
        self.sections
            .iter()
            .find(|(w, p, _)| w == workload && p == pass)
            .map(|(_, _, ops)| ops.as_slice())
    }

    /// Loads the reference file of `seed`; `Ok(None)` when there is none.
    ///
    /// # Errors
    ///
    /// An unreadable or malformed file, or one written for a different
    /// counter list than [`FIELDS`].
    pub fn load(seed: u64) -> Result<Option<Reference>, String> {
        let path = Reference::path(seed);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        Reference::parse(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the text of a reference file.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing seed, or a counter list other than
    /// [`FIELDS`].
    pub fn parse(text: &str) -> Result<Reference, String> {
        let doc = Json::parse(text)?;
        let fields: Vec<&str> = doc
            .get("fields")
            .and_then(Json::as_arr)
            .map(|f| f.iter().filter_map(Json::as_str).collect())
            .unwrap_or_default();
        if fields != FIELDS {
            return Err("recorded for a different counter list; re-bless".to_string());
        }
        let seed = doc.get("seed").and_then(Json::as_u64).ok_or("no seed")?;
        let mut sections = Vec::new();
        for (key, records) in doc.as_obj().unwrap_or_default() {
            let Some((workload, pass)) = key.split_once('.') else {
                continue;
            };
            let mut ops = Vec::new();
            for (label, record) in records.as_obj().ok_or("section is not an object")? {
                let (digest, values) = record
                    .as_arr()
                    .and_then(|r| r.split_first())
                    .ok_or("record is not a non-empty array")?;
                ops.push(Op {
                    label: label.clone(),
                    digest: digest.as_str().ok_or("digest is not a string")?.to_string(),
                    values: values.to_vec(),
                    capped: false,
                });
            }
            sections.push((workload.to_string(), pass.to_string(), ops));
        }
        Ok(Reference { seed, sections })
    }

    /// The file text: a header, then one line per record so reviews of
    /// a re-bless show which operations changed.
    pub fn render(&self, reason: &str, git_rev: &str) -> String {
        let s = |v: &str| Json::from(v).to_string();
        let fields = Json::Arr(FIELDS.iter().map(|f| Json::from(*f)).collect());
        let mut out = format!(
            "{{\n\"seed\": {},\n\"reason\": {},\n\"git_rev\": {},\n\"fields\": {fields}",
            self.seed,
            s(reason),
            s(git_rev)
        );
        for (workload, pass, ops) in &self.sections {
            out.push_str(&format!(",\n{}: {{", s(&format!("{workload}.{pass}"))));
            for (i, op) in ops.iter().enumerate() {
                let mut record = vec![Json::from(op.digest.as_str())];
                record.extend(op.values.iter().cloned());
                let sep = if i == 0 { "" } else { "," };
                out.push_str(&format!("{sep}\n{}: {}", s(&op.label), Json::Arr(record)));
            }
            out.push_str("\n}");
        }
        out.push_str("\n}\n");
        out
    }
}
