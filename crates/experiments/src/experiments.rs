//! One implementation per paper artifact (Tables 1–6, Figures 6–12).
//!
//! Every function returns an [`Artifact`] — a titled, column-aligned
//! table shaped like the paper's, plus notes recording what shape the
//! paper reports so EXPERIMENTS.md can put paper and measurement side by
//! side. The experiment binaries print artifacts; the integration tests
//! re-run them with tiny instruction budgets and assert the shapes.

use crate::engine;
use crate::runner::{int_fp_means, run_matrix, run_matrix_on, RunSpec};
use lsq_core::{LoadOrderPolicy, LsqConfig, PredictorKind, SegAlloc};
use lsq_pipeline::{ProbeSpec, SimConfig, SimResult, CP_COMPONENTS};
use lsq_stats::Table;
use lsq_trace::BenchProfile;

/// A reproduced table or figure.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Identifier matching the paper ("Table 2", "Figure 10", ...).
    pub id: &'static str,
    /// What the artifact shows.
    pub title: &'static str,
    /// The reproduced rows.
    pub table: Table,
    /// Shape expectations from the paper and measured aggregates.
    pub notes: Vec<String>,
}

impl std::fmt::Display for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}: {}", self.id, self.title)?;
        writeln!(f, "{}", self.table)?;
        for n in &self.notes {
            writeln!(f, "  * {n}")?;
        }
        Ok(())
    }
}

/// The paper's Table 2 base IPCs, for side-by-side columns.
pub const PAPER_BASE_IPC: &[(&str, f64)] = &[
    ("bzip", 2.5),
    ("gcc", 2.1),
    ("gzip", 2.0),
    ("mcf", 0.3),
    ("parser", 1.9),
    ("perl", 3.0),
    ("twolf", 1.5),
    ("vortex", 2.2),
    ("vpr", 1.3),
    ("ammp", 1.2),
    ("applu", 2.6),
    ("art", 0.3),
    ("equake", 1.1),
    ("mesa", 3.3),
    ("mgrid", 2.2),
    ("sixtrack", 2.9),
    ("swim", 1.0),
    ("wupwise", 2.9),
];

fn paper_ipc(name: &str) -> f64 {
    PAPER_BASE_IPC
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0.0)
}

/// The standard design points, with their labels: the 2-ported
/// conventional baseline and one point for each of the paper's three
/// techniques. The CPI-stack and critical-path tables compare them, the
/// `bench` binary measures throughput on them (its `BENCH_sim.json`
/// keys jobs by these labels), and the tests sweep them.
pub fn design_points() -> [(&'static str, LsqConfig); 4] {
    [
        ("conventional2", LsqConfig::default()),
        (
            "pair",
            LsqConfig {
                predictor: PredictorKind::Pair,
                ..LsqConfig::default()
            },
        ),
        ("lb1", LsqConfig::with_techniques(1)),
        ("segmented", LsqConfig::segmented(SegAlloc::SelfCircular)),
    ]
}

fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

/// One `(bench, value)` pair per benchmark, in row order.
type Series = Vec<(&'static str, f64)>;

/// The table of a figure that compares each later design point of `rows`
/// against the row's first: under `header` (the bench column, then one
/// per compared point), each cell is `fmt2(value(result, base))`. Also
/// returns each column's values as a [`Series`] for the Int/Fp notes.
fn columns(
    header: Vec<&str>,
    rows: &[(&'static str, Vec<SimResult>)],
    value: impl Fn(&SimResult, &SimResult) -> f64,
) -> (Table, Vec<Series>) {
    let mut series = vec![Series::new(); header.len() - 1];
    let mut t = Table::new(header);
    for (name, r) in rows {
        let mut row = vec![name.to_string()];
        for (s, result) in series.iter_mut().zip(&r[1..]) {
            let v = value(result, &r[0]);
            row.push(fmt2(v));
            s.push((*name, v));
        }
        t.row(row);
    }
    (t, series)
}

fn speedup_row_note(label: &str, rows: &[(&'static str, f64)]) -> String {
    let (int, fp) = int_fp_means(rows);
    format!(
        "{label}: Int.Avg {} / Fp.Avg {}",
        lsq_stats::pct(int - 1.0),
        lsq_stats::pct(fp - 1.0)
    )
}

// ----------------------------------------------------------------------
// Table 1 — system configuration
// ----------------------------------------------------------------------

/// Table 1: the base system configuration (a direct dump, proving the
/// simulator defaults match the paper).
pub fn table1() -> Artifact {
    let c = SimConfig::default();
    let mut t = Table::new(vec!["parameter", "value"]);
    t.row(vec![
        "ROB size".into(),
        format!("{} entries", c.rob_entries),
    ]);
    t.row(vec![
        "Issue queue".into(),
        format!("{} entries", c.iq_entries),
    ]);
    t.row(vec!["Issue width".into(), format!("{}", c.issue_width)]);
    t.row(vec![
        "Functional units".into(),
        format!(
            "{} integer, {} pipelined floating-point",
            c.int_units, c.fp_units
        ),
    ]);
    t.row(vec![
        "L1 caches".into(),
        format!(
            "{}K {}-way, pipelined {}-cycle hit, {}-byte block ({} d-cache ports)",
            c.hierarchy.l1d.size_bytes >> 10,
            c.hierarchy.l1d.ways,
            c.hierarchy.l1d.hit_latency,
            c.hierarchy.l1d.block_bytes,
            c.dcache_ports
        ),
    ]);
    t.row(vec![
        "L2 cache".into(),
        format!(
            "{}M {}-way, pipelined {}-cycle hit, {}-byte block",
            c.hierarchy.l2.size_bytes >> 20,
            c.hierarchy.l2.ways,
            c.hierarchy.l2.hit_latency,
            c.hierarchy.l2.block_bytes
        ),
    ]);
    t.row(vec![
        "Memory".into(),
        format!("{} cycles", c.hierarchy.mem_latency),
    ]);
    t.row(vec![
        "Store-set predictor".into(),
        format!(
            "{}-entry SSIT, {}-entry LFST (3-bit pair counter)",
            c.lsq.ssit_entries, c.lsq.lfst_entries
        ),
    ]);
    t.row(vec![
        "Branch predictor".into(),
        "hybrid GAg & PAg, 4K-entry tables, 14-cycle mispredict penalty".into(),
    ]);
    t.row(vec![
        "LSQ (base)".into(),
        format!(
            "{}-entry LQ + {}-entry SQ, {} search ports",
            c.lsq.lq_entries, c.lsq.sq_entries, c.lsq.ports
        ),
    ]);
    Artifact {
        id: "Table 1",
        title: "System configuration parameters",
        table: t,
        notes: vec!["All values match the paper's Table 1.".into()],
    }
}

// ----------------------------------------------------------------------
// Table 2 — base IPCs
// ----------------------------------------------------------------------

/// Table 2: applications and their base IPCs (2-ported conventional LSQ).
pub fn table2(spec: RunSpec) -> Artifact {
    let rows = run_matrix(&[LsqConfig::default()], false, spec);
    let mut t = Table::new(vec!["bench", "class", "IPC measured", "IPC paper"]);
    let mut pairs = Vec::new();
    for (name, r) in &rows {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "name came out of run_matrix, which iterates BenchProfile's own table")
        let fp = BenchProfile::named(name).expect("known").fp;
        t.row(vec![
            name.to_string(),
            if fp { "FP" } else { "INT" }.into(),
            fmt2(r[0].ipc()),
            format!("{:.1}", paper_ipc(name)),
        ]);
        pairs.push((*name, r[0].ipc()));
    }
    let (int, fp) = int_fp_means(&pairs);
    Artifact {
        id: "Table 2",
        title: "Applications and their base IPCs",
        table: t,
        notes: vec![format!(
            "Measured Int.Avg {int:.2} / Fp.Avg {fp:.2}; paper Int.Avg 1.98 / Fp.Avg 1.94. \
             Profiles are calibrated to land near the paper's per-benchmark base IPCs \
             (see lsq-trace)."
        )],
    }
}

// ----------------------------------------------------------------------
// Figures 6, 7 and Table 3 — store-queue search reduction
// ----------------------------------------------------------------------

fn predictor_configs() -> [LsqConfig; 4] {
    let mk = |p| LsqConfig {
        predictor: p,
        ..LsqConfig::default()
    };
    [
        LsqConfig::default(),
        mk(PredictorKind::Perfect),
        mk(PredictorKind::Aggressive),
        mk(PredictorKind::Pair),
    ]
}

/// Figure 6: store-queue search bandwidth demand of the perfect,
/// aggressive, and store-load pair predictors, relative to the base case
/// in which every load searches.
pub fn fig6(spec: RunSpec) -> Artifact {
    let (t, demand) = columns(
        vec!["bench", "perfect", "aggressive", "pair"],
        &run_matrix(&predictor_configs(), false, spec),
        |r, base| r.lsq.sq_searches as f64 / base.lsq.sq_searches.max(1) as f64,
    );
    let [(pi, pf), (ai, af), (qi, qf)] = [0, 1, 2].map(|c| int_fp_means(&demand[c]));
    Artifact {
        id: "Figure 6",
        title: "Search bandwidth reduction in the store queue by using different predictors \
                (demand relative to a conventional store queue; lower is better)",
        table: t,
        notes: vec![
            format!("Measured demand Int/Fp: perfect {pi:.2}/{pf:.2}, aggressive {ai:.2}/{af:.2}, pair {qi:.2}/{qf:.2}."),
            "Paper: perfect ≈ 0.14 overall; aggressive ≈ 0.19 Int / 0.16 Fp; pair ≈ 0.33 Int / 0.24 Fp \
             (the realistic pair predictor is the most conservative of the three)."
                .into(),
        ],
    }
}

/// Figure 7: speedup of the three predictors over the 2-ported base case.
pub fn fig7(spec: RunSpec) -> Artifact {
    let (t, speedup) = columns(
        vec!["bench", "perfect", "aggressive", "pair"],
        &run_matrix(&predictor_configs(), false, spec),
        SimResult::speedup_over,
    );
    Artifact {
        id: "Figure 7",
        title: "Performance benefit from the search bandwidth reduction in the store queue \
                (speedup over the 2-ported conventional LSQ)",
        table: t,
        notes: vec![
            speedup_row_note("Measured pair-predictor speedup", &speedup[2]),
            "Paper: ports are not binding at 2 ports, so the perfect predictor gains little; \
             the aggressive predictor LOSES on some benchmarks (squashes from eager \
             independence predictions); the pair predictor averages ≈ +2% and never loses \
             materially."
                .into(),
        ],
    }
}

/// Table 3: accuracy of the store-load pair predictor.
pub fn table3(spec: RunSpec) -> Artifact {
    let rows = run_matrix(
        &[LsqConfig {
            predictor: PredictorKind::Pair,
            ..LsqConfig::default()
        }],
        false,
        spec,
    );
    let mut t = Table::new(vec!["bench", "mispred", "squash"]);
    for (name, r) in &rows {
        t.row(vec![
            name.to_string(),
            format!("{:.1}%", r[0].lsq.pair_mispred_rate() * 100.0),
            format!("{:.1e}", r[0].lsq.pair_squash_rate()),
        ]);
    }
    Artifact {
        id: "Table 3",
        title: "Accuracy of the store-load pair predictor (mispredictions = useless searches \
                + commit-detected squashes, per issued load)",
        table: t,
        notes: vec![
            "Paper: mispredictions 0-28% per benchmark, squash rates of 1e-5..1e-3 — squashes \
             stay orders of magnitude rarer than searches, so the expensive commit-time \
             detection is almost never exercised."
                .into(),
        ],
    }
}

// ----------------------------------------------------------------------
// Figure 8, Table 4, Figure 9 — load-queue search reduction
// ----------------------------------------------------------------------

/// Figure 8: load-queue search bandwidth demand with a 2-entry load
/// buffer, relative to the conventional load queue.
pub fn fig8(spec: RunSpec) -> Artifact {
    let cfgs = [
        LsqConfig::default(),
        LsqConfig {
            load_order: LoadOrderPolicy::LoadBuffer(2),
            ..LsqConfig::default()
        },
    ];
    let (t, demand) = columns(
        vec!["bench", "LQ demand vs conventional"],
        &run_matrix(&cfgs, false, spec),
        |r, base| r.lsq.lq_searches() as f64 / base.lsq.lq_searches().max(1) as f64,
    );
    let (int, fp) = int_fp_means(&demand[0]);
    Artifact {
        id: "Figure 8",
        title: "Search bandwidth reduction in the load queue by using the load buffer \
                (demand relative to a conventional load queue; lower is better)",
        table: t,
        notes: vec![
            format!("Measured demand Int.Avg {int:.2} / Fp.Avg {fp:.2}."),
            "Paper: the load buffer removes the per-load search, cutting LQ demand by 74% \
             (Int) / 77% (Fp); mgrid reduces most (51% loads, 2% stores), vortex least \
             (18% loads, 23% stores — store searches remain)."
                .into(),
        ],
    }
}

/// Table 4: average number of loads issued out of program order.
pub fn table4(spec: RunSpec) -> Artifact {
    let rows = run_matrix(&[LsqConfig::default()], false, spec);
    let mut t = Table::new(vec!["bench", "OoO-issued loads", "in-flight loads"]);
    let mut all = Vec::new();
    for (name, r) in &rows {
        t.row(vec![
            name.to_string(),
            fmt2(r[0].ooo_issued_loads),
            format!("{:.1}", r[0].inflight_loads),
        ]);
        all.push((*name, r[0].ooo_issued_loads));
    }
    let (int, fp) = int_fp_means(&all);
    Artifact {
        id: "Table 4",
        title: "Average number of loads issued out of program order (per cycle, in flight)",
        table: t,
        notes: vec![
            format!("Measured average: Int {int:.1} / Fp {fp:.1}."),
            "Paper: fewer than 3 out-of-order-issued loads on average (vs ~41 in-flight \
             loads), which is why a <=4-entry load buffer suffices."
                .into(),
        ],
    }
}

/// Figure 9: load-buffer sizing, including the in-order strawmen.
pub fn fig9(spec: RunSpec) -> Artifact {
    let mk = |o| LsqConfig {
        load_order: o,
        ..LsqConfig::default()
    };
    let cfgs = [
        LsqConfig::default(),
        mk(LoadOrderPolicy::InOrderAlwaysSearch),
        mk(LoadOrderPolicy::InOrderNoSearch),
        mk(LoadOrderPolicy::LoadBuffer(1)),
        mk(LoadOrderPolicy::LoadBuffer(2)),
        mk(LoadOrderPolicy::LoadBuffer(4)),
    ];
    let (t, speedup) = columns(
        vec![
            "bench",
            "inord-always-search",
            "0-entry (inorder)",
            "1-entry",
            "2-entry",
            "4-entry",
        ],
        &run_matrix(&cfgs, false, spec),
        SimResult::speedup_over,
    );
    Artifact {
        id: "Figure 9",
        title: "Performance benefit from the search bandwidth reduction in the load queue \
                (speedup over the conventional 2-ported load queue)",
        table: t,
        notes: vec![
            speedup_row_note("Measured 2-entry load buffer", &speedup[3]),
            "Paper: in-order load issue loses ILP (worse when it also burns search \
             bandwidth); a 1-entry buffer recovers most of it; 2 entries ≈ +3% Int / +7% Fp; \
             4 entries is near-infinite."
                .into(),
        ],
    }
}

// ----------------------------------------------------------------------
// Figure 10 — both reduction techniques, port sweep
// ----------------------------------------------------------------------

/// Figure 10: combining the pair predictor and load buffer across port
/// counts, vs the 2-ported conventional base.
pub fn fig10(spec: RunSpec) -> Artifact {
    let cfgs = [
        LsqConfig::default(), // base (2-ported conventional)
        LsqConfig::conventional(1),
        LsqConfig::with_techniques(1),
        LsqConfig::with_techniques(2),
        LsqConfig::conventional(4),
    ];
    let (t, speedup) = columns(
        vec!["bench", "1port", "1port+tech", "2port+tech", "4port"],
        &run_matrix(&cfgs, false, spec),
        SimResult::speedup_over,
    );
    Artifact {
        id: "Figure 10",
        title: "Performance benefit from combining the two search-bandwidth reduction \
                techniques (speedup over the 2-ported conventional LSQ)",
        table: t,
        notes: vec![
            speedup_row_note("Measured 1-ported conventional", &speedup[0]),
            speedup_row_note("Measured 1-ported with techniques", &speedup[1]),
            "Paper: the 1-ported conventional LSQ drops ~24%; the 1-ported LSQ WITH the \
             techniques BEATS the 2-ported conventional base (+2% Int / +7% Fp) and the \
             2-ported-with-techniques matches a 4-ported conventional queue."
                .into(),
        ],
    }
}

// ----------------------------------------------------------------------
// Figure 11, Tables 5 & 6 — segmentation
// ----------------------------------------------------------------------

/// Figure 11: segmentation in isolation, both allocation strategies, vs
/// the 32-entry base and a hypothetical unsegmented 128-entry queue.
pub fn fig11(spec: RunSpec) -> Artifact {
    let big = LsqConfig {
        lq_entries: 128,
        sq_entries: 128,
        ..LsqConfig::default()
    };
    let cfgs = [
        LsqConfig::default(),
        LsqConfig::segmented(SegAlloc::NoSelfCircular),
        LsqConfig::segmented(SegAlloc::SelfCircular),
        big,
    ];
    let (t, speedup) = columns(
        vec![
            "bench",
            "no-self-circular 4x28",
            "self-circular 4x28",
            "128 unsegmented",
        ],
        &run_matrix(&cfgs, false, spec),
        SimResult::speedup_over,
    );
    Artifact {
        id: "Figure 11",
        title: "Performance benefit from segmentation of the LSQ (speedup over the \
                32-entry 2-ported conventional LSQ)",
        table: t,
        notes: vec![
            speedup_row_note("Measured no-self-circular", &speedup[0]),
            speedup_row_note("Measured self-circular", &speedup[1]),
            "Paper: no-self-circular +0% Int / +16% Fp (five INT benchmarks lose — their \
             working window fits one segment but gets spread over two); self-circular +5% \
             Int / +19% Fp, up to +15%/+33%, and even beats the unrealistic 128-entry \
             unsegmented queue thanks to per-segment bandwidth."
                .into(),
        ],
    }
}

/// Table 5: average number of entries needed in the load and store
/// queues (measured with generous 256-entry queues so demand is not
/// clamped by the base capacity).
pub fn table5(spec: RunSpec) -> Artifact {
    let unclamped = LsqConfig {
        lq_entries: 256,
        sq_entries: 256,
        ..LsqConfig::default()
    };
    let rows = run_matrix(&[unclamped], false, spec);
    let mut t = Table::new(vec!["bench", "avg LQ entries", "avg SQ entries"]);
    for (name, r) in &rows {
        t.row(vec![
            name.to_string(),
            format!("{:.0}", r[0].lq_occupancy),
            format!("{:.0}", r[0].sq_occupancy),
        ]);
    }
    Artifact {
        id: "Table 5",
        title: "Average number of entries needed in the load and store queues",
        table: t,
        notes: vec![
            "Paper: INT benchmarks need few entries (gcc 7/6, bzip 16/6) while FP \
             benchmarks want far more than the 32-entry base (mgrid 90/4, equake 72/15, \
             swim 70/21) — the demand gap that motivates segmentation, and the reason \
             no-self-circular hurts small-footprint INT codes."
                .into(),
        ],
    }
}

/// Table 6: distribution of the number of segments searched by loads for
/// the latest store value (self-circular allocation).
pub fn table6(spec: RunSpec) -> Artifact {
    let rows = run_matrix(&[LsqConfig::segmented(SegAlloc::SelfCircular)], false, spec);
    let mut t = Table::new(vec!["bench", "1 seg", "2 segs", "3 segs", "4 segs"]);
    let mut one = Vec::new();
    for (name, r) in &rows {
        let h = &r[0].lsq.seg_search_hist;
        t.row(vec![
            name.to_string(),
            format!("{:.1}%", h.fraction(0) * 100.0),
            format!("{:.1}%", h.fraction(1) * 100.0),
            format!("{:.1}%", h.fraction(2) * 100.0),
            format!("{:.1}%", h.fraction(3) * 100.0),
        ]);
        one.push((*name, h.fraction(0)));
    }
    let (int, fp) = int_fp_means(&one);
    Artifact {
        id: "Table 6",
        title: "Distribution of the number of searched segments by loads for the latest \
                stores (self-circular)",
        table: t,
        notes: vec![
            format!(
                "Measured single-segment fraction: Int {:.0}% / Fp {:.0}%.",
                int * 100.0,
                fp * 100.0
            ),
            "Paper: 90% of INT and 79% of FP load searches end within one segment, so the \
             extra per-segment cycle rarely hurts load latency."
                .into(),
        ],
    }
}

// ----------------------------------------------------------------------
// Figure 12 — everything combined, base + scaled processor
// ----------------------------------------------------------------------

/// Figure 12: all three techniques on a 1-ported LSQ, on the base and
/// scaled processors, each vs its own 2-ported conventional LSQ.
pub fn fig12(spec: RunSpec) -> Artifact {
    let cfgs = [LsqConfig::default(), LsqConfig::all_techniques_one_port()];
    let base_rows = run_matrix(&cfgs, false, spec);
    let scaled_rows = run_matrix(&cfgs, true, spec);
    let mut t = Table::new(vec!["bench", "base (8-wide)", "scaled (12-wide, 3-cyc L1)"]);
    let mut base_sp = Vec::new();
    let mut scaled_sp = Vec::new();
    for ((name, b), (_, s)) in base_rows.iter().zip(&scaled_rows) {
        let bsp = b[1].speedup_over(&b[0]);
        let ssp = s[1].speedup_over(&s[0]);
        t.row(vec![name.to_string(), fmt2(bsp), fmt2(ssp)]);
        base_sp.push((*name, bsp));
        scaled_sp.push((*name, ssp));
    }
    Artifact {
        id: "Figure 12",
        title: "Performance of a one-ported LSQ with the three techniques combined \
                (speedup over the 2-ported conventional LSQ on the same processor)",
        table: t,
        notes: vec![
            speedup_row_note("Measured base processor", &base_sp),
            speedup_row_note("Measured scaled processor", &scaled_sp),
            "Paper: +6% Int / +23% Fp on the base processor (up to +15%/+59%), larger on \
             the scaled processor — more in-flight instructions put more pressure on the \
             LSQ, especially for FP codes."
                .into(),
        ],
    }
}

/// Supplementary (not in the paper): the aggressive and pair predictors
/// differ only through table aliasing, and SPEC-scale programs have
/// 10-50k static memory instructions pressing on the 4K-entry SSIT. The
/// synthetic programs here have a few hundred, so at Table 1 sizes the
/// two predictors coincide. This experiment shrinks the tables to match
/// SPEC's static-footprint-to-table-size ratio, restoring the paper's
/// contrast: the alias-free aggressive predictor keeps skipping searches
/// (and squashing), while the realistic pair predictor turns conservative
/// under aliasing.
pub fn supplementary_ssit_pressure(spec: RunSpec) -> Artifact {
    let small = |p| LsqConfig {
        predictor: p,
        ssit_entries: 32,
        lfst_entries: 8,
        ..LsqConfig::default()
    };
    let cfgs = [
        LsqConfig::default(),
        small(PredictorKind::Aggressive),
        small(PredictorKind::Pair),
    ];
    let rows = run_matrix(&cfgs, false, spec);
    let mut t = Table::new(vec![
        "bench",
        "aggr demand",
        "pair demand",
        "aggr speedup",
        "pair speedup",
        "aggr squashes",
        "pair squashes",
    ]);
    let mut aggr_sp = Vec::new();
    let mut pair_sp = Vec::new();
    for (name, r) in &rows {
        let base = &r[0];
        let b = base.lsq.sq_searches.max(1) as f64;
        t.row(vec![
            name.to_string(),
            fmt2(r[1].lsq.sq_searches as f64 / b),
            fmt2(r[2].lsq.sq_searches as f64 / b),
            fmt2(r[1].speedup_over(base)),
            fmt2(r[2].speedup_over(base)),
            format!("{}", r[1].lsq.commit_violations),
            format!("{}", r[2].lsq.commit_violations),
        ]);
        aggr_sp.push((*name, r[1].speedup_over(base)));
        pair_sp.push((*name, r[2].speedup_over(base)));
    }
    Artifact {
        id: "Supplementary",
        title: "Aggressive vs pair predictor under SPEC-scale table pressure                 (32-entry SSIT / 8-entry LFST; demand and speedup vs the 2-ported base)",
        table: t,
        notes: vec![
            speedup_row_note("Measured aggressive", &aggr_sp),
            speedup_row_note("Measured pair", &pair_sp),
            "Expected shape (paper Figures 6-7): under aliasing the pair predictor's              demand rises above the aggressive predictor's (conservatism), while the              aggressive predictor pays more squashes."
                .into(),
        ],
    }
}

// ----------------------------------------------------------------------
// CPI stacks — cycle accounting across the paper's techniques
// ----------------------------------------------------------------------

/// The CPI-stack table's column groups: a label and the accounting
/// components (by [`lsq_pipeline::Component::name`]) folded into it.
const CPI_GROUPS: &[(&str, &[&str])] = &[
    ("base", &["base"]),
    ("front", &["frontend"]),
    ("redir", &["branch_redirect"]),
    ("squash", &["squash_replay"]),
    ("full", &["rob_full", "iq_full", "lq_full", "sq_full"]),
    ("search", &["search_port", "dcache_port"]),
    ("order", &["mem_ordering", "store_drain"]),
    ("exec", &["dep_chain", "exec_latency"]),
    ("cache", &["cache_l2", "cache_mem"]),
    ("seg", &["segment_overhead"]),
];

/// Supplementary (not in the paper): per-benchmark CPI stacks from the
/// cycle accountant, for the 2-ported baseline and the paper's three
/// techniques. Every commit slot of every cycle is charged to exactly
/// one component, so each row's group columns sum to its `cpi` — the
/// stack is a partition of simulated time, not a sample.
pub fn cpi_stack(spec: RunSpec) -> Artifact {
    // The knobs' other observers still apply; the accountant is asked
    // for on top of them.
    let observers = ProbeSpec {
        accounting: true,
        ..ProbeSpec::from_env()
    };
    let cfgs = design_points().map(|(_, lsq)| lsq);
    cpi_stack_from(&run_matrix_on(
        engine::global(),
        &cfgs,
        false,
        spec,
        &observers,
    ))
}

/// The CPI-stack table of `rows`, the [`design_points`] matrix run
/// with the accountant attached.
fn cpi_stack_from(rows: &[(&'static str, Vec<SimResult>)]) -> Artifact {
    let mut header = vec!["bench", "design", "cpi"];
    header.extend(CPI_GROUPS.iter().map(|(label, _)| *label));
    let mut t = Table::new(header);
    for (name, r) in rows {
        for ((design, _), res) in design_points().iter().zip(r) {
            let stack = res
                .cpi_stack
                .as_ref()
                // lsq-lint: allow(no-unwrap-in-lib, reason = "the matrix ran with the accountant attached, and the cache keys on it, so every result carries a CPI stack")
                .expect("accounting was enabled for this matrix");
            let denom = (stack.commit_width * res.committed.max(1)) as f64;
            let mut row = vec![
                name.to_string(),
                design.to_string(),
                fmt2(res.cycles as f64 / res.committed.max(1) as f64),
            ];
            for (_, components) in CPI_GROUPS {
                let slots: u64 = components.iter().map(|c| stack.slots(c)).sum();
                row.push(format!("{:.3}", slots as f64 / denom));
            }
            t.row(row);
        }
    }
    Artifact {
        id: "CPI stacks",
        title: "Cycle-accounting CPI stacks per benchmark: 2-ported conventional \
                baseline vs. the paper's three techniques (pair predictor, \
                1-entry load buffer, segmented SQ)",
        table: t,
        notes: vec![
            "Each commit slot of each cycle is charged to exactly one component \
             (components sum exactly to cycles x commit_width), so the group \
             columns of a row sum to its cpi."
                .into(),
            "Groups: base = useful commit slots; front = fetch-limited (i-cache); \
             redir = branch redirect; squash = ordering-violation squash+replay; \
             full = ROB/IQ/LQ/SQ allocation stalls; search = LSQ search-port and \
             D-cache-port stalls; order = memory-ordering rejections and \
             store-drain; exec = dependence chains and execution latency; \
             cache = L2/memory-level load misses; seg = segment-walk overhead."
                .into(),
            "Read the techniques against the baseline: lb1 should shift cycles \
             out of `search` (fewer LQ searches contend for ports) and segmented \
             may add `seg`; the pair predictor trades `order`/`search` against \
             `squash`."
                .into(),
        ],
    }
}

// ----------------------------------------------------------------------
// Critical path — longest dependency chain per design point
// ----------------------------------------------------------------------

/// Supplementary (not in the paper): the longest producer→consumer
/// dependency chain of the measured window, per benchmark, for the
/// 2-ported baseline and the paper's three techniques. Every cycle of
/// the chain is attributed to exactly one component, so the component
/// columns of a row sum to 100% of `cycles` — the per-instruction
/// analogue of the CPI stack's partition invariant.
pub fn critical_path(spec: RunSpec) -> Artifact {
    // As for `cpi_stack`: the knobs' other observers still apply, and
    // the lifecycle recorder is asked for on top of them.
    let observers = ProbeSpec {
        lifecycle: true,
        ..ProbeSpec::from_env()
    };
    let cfgs = design_points().map(|(_, lsq)| lsq);
    let rows = run_matrix_on(engine::global(), &cfgs, false, spec, &observers);
    let mut header = vec!["bench", "design", "cycles", "instrs"];
    header.extend(CP_COMPONENTS);
    let mut t = Table::new(header);
    for (bench, r) in &rows {
        for ((design, _), res) in design_points().iter().zip(r) {
            let Some(cp) = &res.critical_path else {
                continue;
            };
            assert_eq!(
                cp.total(),
                cp.length,
                "critical-path components must sum to the chain length"
            );
            let mut row = vec![
                bench.to_string(),
                design.to_string(),
                cp.length.to_string(),
                cp.instructions.to_string(),
            ];
            let denom = cp.length.max(1) as f64;
            for &cycles in &cp.components {
                row.push(format!("{:.1}%", 100.0 * cycles as f64 / denom));
            }
            t.row(row);
        }
    }
    Artifact {
        id: "Critical path",
        title: "Longest dependency chain of the measured window per benchmark: \
                2-ported conventional baseline vs. the paper's three techniques \
                (pair predictor, 1-entry load buffer, segmented SQ)",
        table: t,
        notes: vec![
            "The chain walks backwards from the last-completing committed \
             instruction, always following the producer whose result arrived \
             last; each link's interval is attributed to exactly one component, \
             so the component columns sum to 100% of `cycles`."
                .into(),
            "Components: frontend = fetch-starved; schedule = scheduler/structural \
             wait after data was ready; sq_search = segmented SQ-search extra \
             cycles; exec = non-load execution; mem_l1/l2/dram = load latency by \
             the deepest level reached."
                .into(),
            "Read the techniques against the baseline: segmented SQ moves chain \
             cycles into `sq_search`; a long `mem_dram` share means the chain is \
             memory-bound and LSQ techniques mostly shift the non-memory \
             remainder."
                .into(),
        ],
    }
}

/// One reproduced artifact: the name it is requested by, the function
/// that reproduces it, and whether [`all`] runs it.
#[derive(Debug, Clone, Copy)]
pub struct ArtifactEntry {
    /// The name `artifact <name>` and [`by_name`] accept.
    pub name: &'static str,
    /// Reproduces the artifact at a budget.
    pub(crate) run: fn(RunSpec) -> Artifact,
    /// Whether [`all`] runs it.
    pub(crate) in_all: bool,
}

impl ArtifactEntry {
    const fn paper(name: &'static str, run: fn(RunSpec) -> Artifact) -> Self {
        Self {
            name,
            run,
            in_all: true,
        }
    }

    const fn by_name_only(name: &'static str, run: fn(RunSpec) -> Artifact) -> Self {
        Self {
            name,
            run,
            in_all: false,
        }
    }
}

/// Every artifact, in paper order. [`all`] runs the paper's tables and
/// figures and the supplementary SSIT-pressure table, in this order (the
/// benchmark's golden digests cover its output). `cpi_stack` and
/// `critical_path` run by name only: no other artifact's cached result
/// serves their accounted or recorded runs, so in `all()` they would only
/// add runtime.
pub const ARTIFACTS: &[ArtifactEntry] = &[
    ArtifactEntry::paper("table1", |_| table1()),
    ArtifactEntry::paper("table2", table2),
    ArtifactEntry::paper("fig6", fig6),
    ArtifactEntry::paper("fig7", fig7),
    ArtifactEntry::paper("table3", table3),
    ArtifactEntry::paper("fig8", fig8),
    ArtifactEntry::paper("table4", table4),
    ArtifactEntry::paper("fig9", fig9),
    ArtifactEntry::paper("fig10", fig10),
    ArtifactEntry::paper("fig11", fig11),
    ArtifactEntry::paper("table5", table5),
    ArtifactEntry::paper("table6", table6),
    ArtifactEntry::paper("fig12", fig12),
    ArtifactEntry::paper("supplementary", supplementary_ssit_pressure),
    ArtifactEntry::by_name_only("cpi_stack", cpi_stack),
    ArtifactEntry::by_name_only("critical_path", critical_path),
];

/// The entry of [`ARTIFACTS`] called `name`.
fn entry(name: &str) -> Option<&'static ArtifactEntry> {
    ARTIFACTS.iter().find(|e| e.name == name)
}

/// Runs the artifact of [`ARTIFACTS`] called `name`; `None` for an
/// unknown name.
pub fn by_name(name: &str, spec: RunSpec) -> Option<Artifact> {
    entry(name).map(|e| (e.run)(spec))
}

/// Runs every [`ARTIFACTS`] entry marked for it, in paper order.
pub fn all(spec: RunSpec) -> Vec<Artifact> {
    ARTIFACTS
        .iter()
        .filter(|e| e.in_all)
        .map(|e| (e.run)(spec))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: RunSpec = RunSpec {
        warmup: 1_000,
        instrs: 4_000,
        seed: 1,
    };

    #[test]
    fn the_artifact_table_names_each_artifact_once() {
        let names: Vec<&str> = ARTIFACTS.iter().map(|e| e.name).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "{n} is declared twice");
        }
        // by_name resolves exactly the table's names.
        for n in &names {
            assert_eq!(entry(n).map(|e| e.name), Some(*n));
        }
        assert!(entry("nonesuch").is_none());
        assert!(by_name("nonesuch", TINY).is_none());
        assert_eq!(by_name("table1", TINY).map(|a| a.id), Some("Table 1"));
        // all()'s order is pinned by the benchmark's golden digests.
        let in_all: Vec<&str> = ARTIFACTS
            .iter()
            .filter(|e| e.in_all)
            .map(|e| e.name)
            .collect();
        assert_eq!(
            in_all,
            [
                "table1",
                "table2",
                "fig6",
                "fig7",
                "table3",
                "fig8",
                "table4",
                "fig9",
                "fig10",
                "fig11",
                "table5",
                "table6",
                "fig12",
                "supplementary"
            ]
        );
        assert_eq!(names.len(), in_all.len() + 2, "cpi_stack, critical_path");
    }

    /// Each cell is `fmt2(value(r[i], r[0]))`, and each column's series
    /// holds the same values in row order.
    #[test]
    fn columns_compare_each_design_point_against_the_first() {
        let spec = RunSpec {
            warmup: 0,
            instrs: 100,
            seed: 1,
        };
        let template = crate::runner::run_design_point("gzip", LsqConfig::default(), false, spec);
        let result = |cycles: u64, sq_searches: u64| {
            let mut r = template.clone();
            (r.cycles, r.committed, r.lsq.sq_searches) = (cycles, 1_000, sq_searches);
            r
        };
        let rows = [
            (
                "gzip",
                vec![result(1_000, 400), result(800, 100), result(1_250, 0)],
            ),
            (
                "swim",
                vec![result(2_000, 0), result(1_000, 3), result(3_000, 1)],
            ),
        ];
        let (t, series) = columns(vec!["bench", "a", "b"], &rows, |r, base| {
            r.lsq.sq_searches as f64 / base.lsq.sq_searches.max(1) as f64
        });
        assert_eq!(
            series,
            [
                vec![("gzip", 0.25), ("swim", 3.0)],
                vec![("gzip", 0.0), ("swim", 1.0)]
            ]
        );
        let cells: Vec<Vec<String>> = t
            .to_string()
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect();
        assert_eq!(cells, [["gzip", "0.25", "0.00"], ["swim", "3.00", "1.00"]]);
        let (_, speedup) = columns(vec!["bench", "a", "b"], &rows, SimResult::speedup_over);
        assert_eq!(
            speedup,
            [
                vec![("gzip", 1.25), ("swim", 2.0)],
                vec![("gzip", 0.8), ("swim", 2.0 / 3.0)]
            ]
        );
    }

    /// `table2` runs the baseline unobserved; `cpi_stack` after it must
    /// still find a stack in every result (the cache keys on the
    /// accountant) and render the table it renders alone.
    #[test]
    fn cpi_stack_after_table2_matches_cpi_stack_alone() {
        // A spec no other test runs, so the global cache holds only what
        // this test put there.
        let spec = RunSpec {
            warmup: 200,
            instrs: 800,
            seed: 43,
        };
        let _ = by_name("table2", spec).expect("table2 exists");
        let after = by_name("cpi_stack", spec).expect("cpi_stack exists");
        let cfgs = design_points().map(|(_, lsq)| lsq);
        let accounted = ProbeSpec {
            accounting: true,
            ..ProbeSpec::from_env()
        };
        let served = run_matrix_on(engine::global(), &cfgs, false, spec, &accounted);
        assert!(
            served
                .iter()
                .all(|(_, r)| r.iter().all(|r| r.cpi_stack.is_some())),
            "every row carries a stack"
        );
        let alone = run_matrix_on(&engine::Engine::new(), &cfgs, false, spec, &accounted);
        assert_eq!(after.table.len(), 18 * cfgs.len());
        assert_eq!(after.to_string(), cpi_stack_from(&alone).to_string());
    }

    #[test]
    fn cpi_groups_partition_every_component() {
        let grouped: Vec<&str> = CPI_GROUPS
            .iter()
            .flat_map(|(_, cs)| cs.iter().copied())
            .collect();
        for name in lsq_pipeline::Component::NAMES {
            assert_eq!(
                grouped.iter().filter(|c| **c == name).count(),
                1,
                "component {name} must appear in exactly one group"
            );
        }
        assert_eq!(grouped.len(), lsq_pipeline::Component::NAMES.len());
    }

    #[test]
    fn table1_lists_paper_parameters() {
        let a = table1();
        let s = a.to_string();
        assert!(s.contains("256 entries"));
        assert!(s.contains("14-cycle"));
        assert!(s.contains("4096-entry SSIT"));
    }

    #[test]
    fn fig6_ratios_are_fractions() {
        let a = fig6(TINY);
        assert_eq!(a.table.len(), 18);
        // Every data cell is a ratio in (0, 1.5].
        for line in a.table.to_string().lines().skip(2) {
            for cell in line.split_whitespace().skip(1) {
                let v: f64 = cell.parse().expect("numeric cell");
                assert!((0.0..=1.5).contains(&v), "ratio {v}");
            }
        }
    }

    #[test]
    fn artifacts_render_nonempty() {
        for a in [table3(TINY), fig8(TINY), table4(TINY), table6(TINY)] {
            assert!(!a.table.is_empty(), "{} empty", a.id);
            assert!(!a.to_string().is_empty());
        }
    }

    #[test]
    fn fig10_has_all_design_points() {
        let a = fig10(TINY);
        assert_eq!(a.table.len(), 18);
        let s = a.to_string();
        assert!(s.contains("1port+tech"));
        assert!(s.contains("4port"));
        assert!(s.contains("Int.Avg"));
    }

    #[test]
    fn supplementary_reports_both_predictors() {
        let a = supplementary_ssit_pressure(TINY);
        assert_eq!(a.table.len(), 18);
        let s = a.to_string();
        assert!(s.contains("aggr demand"));
        assert!(s.contains("pair squashes"));
    }

    #[test]
    fn fig12_covers_base_and_scaled() {
        let a = fig12(TINY);
        assert_eq!(a.table.len(), 18);
        assert!(a.to_string().contains("scaled"));
    }
}
