//! The windowed sampler.
//!
//! Called once per simulated cycle with a fixed set of cumulative `u64`
//! counters, the sampler folds them into fixed-width window rows of
//! per-counter deltas. Deltas are taken against the previous window's
//! cumulative values starting from zero, so the rows partition the run
//! exactly: summing any counter over every row reproduces its final
//! cumulative value, and summing `cycles` gives the number of observed
//! cycles.
//!
//! The sampler is label-driven, so one type serves both CSVs the
//! simulator writes:
//!
//! * the **timeline** (`LSQ_TRACE` + `LSQ_SAMPLE_CYCLES`) samples the
//!   [`TIMELINE`] counters and is rendered by [`timeline_csv`]: per-window
//!   IPC, mean queue occupancies and search demand. A mean occupancy is
//!   the window delta of a running occupancy sum divided by the window
//!   length, so per-window IPC weighted by window length sums back to
//!   the run's aggregate IPC;
//! * the **CPI stack** (`LSQ_ACCOUNTING_CSV`) samples one cumulative
//!   commit-slot counter per stall component and is rendered by the
//!   generic [`Sampler::to_csv`]. The pipeline crate passes the component
//!   names as labels, so this crate stays independent of its taxonomy.

/// One cycle's observations, passed to the probe's cycle-end hook.
/// Counter fields are cumulative; occupancy fields are instantaneous.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SampleInput {
    /// Cumulative committed instructions.
    pub committed: u64,
    /// Current load-queue occupancy.
    pub lq_occupancy: usize,
    /// Current store-queue occupancy.
    pub sq_occupancy: usize,
    /// Cumulative store-queue searches.
    pub sq_searches: u64,
    /// Cumulative load-queue searches (by stores and loads).
    pub lq_searches: u64,
}

/// The timeline sampler's counters, in the order [`timeline_csv`] reads
/// them: committed instructions, running sums of the per-cycle LQ and SQ
/// occupancies, and store- and load-queue searches.
pub const TIMELINE: [&str; 5] = [
    "committed",
    "lq_occupancy_sum",
    "sq_occupancy_sum",
    "sq_searches",
    "lq_searches",
];

/// One completed window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// First cycle observed in this window.
    pub start_cycle: u64,
    /// Last cycle observed in this window.
    pub end_cycle: u64,
    /// Cycles observed in this window.
    pub cycles: u64,
    /// Each counter's growth during this window, in label order.
    pub deltas: Vec<u64>,
}

/// Folds per-cycle cumulative counters into fixed-width [`Window`]s.
#[derive(Debug, Clone)]
pub struct Sampler {
    window: u64,
    labels: Vec<&'static str>,
    rows: Vec<Window>,
    samples_in_window: u64,
    win_start: u64,
    win_end: u64,
    /// Cumulative values at the end of the last flushed window.
    base: Vec<u64>,
    /// Latest cumulative values seen.
    last: Vec<u64>,
}

impl Sampler {
    /// A sampler with the given window width in cycles and counter
    /// labels (one per counter, in a fixed order).
    ///
    /// # Panics
    /// If `window` is zero or `labels` is empty.
    pub fn new(window: u64, labels: &[&'static str]) -> Self {
        assert!(window > 0, "sampler window must be at least one cycle");
        assert!(!labels.is_empty(), "sampler needs at least one counter");
        Self {
            window,
            labels: labels.to_vec(),
            rows: Vec::new(),
            samples_in_window: 0,
            win_start: 0,
            win_end: 0,
            base: vec![0; labels.len()],
            last: vec![0; labels.len()],
        }
    }

    /// The counter labels, in counter order.
    pub fn labels(&self) -> &[&'static str] {
        &self.labels
    }

    /// Records one cycle's cumulative counters. Call exactly once per
    /// simulated cycle with one value per label (cycle values may start
    /// anywhere and need not be dense — windows are "per N
    /// observations", and row boundaries report the observed cycle
    /// range).
    ///
    /// # Panics
    /// If `cumulative` does not have one value per label.
    pub fn observe(&mut self, cycle: u64, cumulative: &[u64]) {
        assert_eq!(
            cumulative.len(),
            self.labels.len(),
            "one cumulative counter per label"
        );
        if self.samples_in_window == 0 {
            self.win_start = cycle;
        }
        self.win_end = cycle;
        self.samples_in_window += 1;
        self.last.copy_from_slice(cumulative);
        if self.samples_in_window == self.window {
            self.flush_window();
        }
    }

    fn flush_window(&mut self) {
        debug_assert!(self.samples_in_window > 0);
        let deltas = self
            .last
            .iter()
            .zip(&self.base)
            .map(|(l, b)| l - b)
            .collect();
        self.rows.push(Window {
            start_cycle: self.win_start,
            end_cycle: self.win_end,
            cycles: self.samples_in_window,
            deltas,
        });
        self.base.copy_from_slice(&self.last);
        self.samples_in_window = 0;
    }

    /// Emits the partial last window, if any cycles are pending. Call at
    /// end of run so the rows cover every observed cycle.
    pub fn flush(&mut self) {
        if self.samples_in_window > 0 {
            self.flush_window();
        }
    }

    /// The completed windows, oldest first.
    pub fn rows(&self) -> &[Window] {
        &self.rows
    }

    /// The rows as CSV: `start_cycle,end_cycle,cycles,<label>,...` with
    /// one delta column per counter. Flush first to include the partial
    /// last window.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("start_cycle,end_cycle,cycles");
        for label in &self.labels {
            out.push(',');
            out.push_str(label);
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{},{},{}", r.start_cycle, r.end_cycle, r.cycles));
            for d in &r.deltas {
                out.push_str(&format!(",{d}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Renders a [`TIMELINE`] sampler's rows as the timeline CSV: per-window
/// committed count and IPC (`{:.6}`), mean LQ and SQ occupancy (`{:.3}`),
/// in-flight loads (the LQ mean: a load holds its LQ entry from dispatch
/// to retirement) and search counts. Flush first to include the partial
/// last window.
///
/// # Panics
/// If `sampler` was not built over [`TIMELINE`].
pub fn timeline_csv(sampler: &Sampler) -> String {
    assert_eq!(sampler.labels(), TIMELINE, "not a timeline sampler");
    let mut out = String::from(
        "start_cycle,end_cycle,cycles,committed,ipc,lq_occupancy,sq_occupancy,inflight_loads,sq_searches,lq_searches\n",
    );
    for r in sampler.rows() {
        let d = &r.deltas;
        let n = r.cycles as f64;
        let lq = d[1] as f64 / n;
        out.push_str(&format!(
            "{},{},{},{},{:.6},{:.3},{:.3},{:.3},{},{}\n",
            r.start_cycle,
            r.end_cycle,
            r.cycles,
            d[0],
            d[0] as f64 / n,
            lq,
            d[2] as f64 / n,
            lq,
            d[3],
            d[4]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LABELS: &[&str] = &["base", "frontend", "dep_chain"];

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_window_panics() {
        let _ = Sampler::new(0, LABELS);
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn empty_labels_panic() {
        let _ = Sampler::new(4, &[]);
    }

    #[test]
    #[should_panic(expected = "one cumulative counter per label")]
    fn mismatched_counter_width_panics() {
        let mut s = Sampler::new(4, LABELS);
        s.observe(1, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "not a timeline sampler")]
    fn timeline_rendering_needs_timeline_labels() {
        let _ = timeline_csv(&Sampler::new(4, LABELS));
    }

    #[test]
    fn windows_carry_per_counter_deltas() {
        let mut s = Sampler::new(2, LABELS);
        s.observe(1, &[5, 3, 0]);
        s.observe(2, &[8, 6, 2]);
        s.observe(3, &[16, 6, 2]);
        assert_eq!(s.rows().len(), 1);
        assert_eq!(s.rows()[0].deltas, vec![8, 6, 2]);
        assert_eq!((s.rows()[0].start_cycle, s.rows()[0].end_cycle), (1, 2));
        // The partial last window needs an explicit flush.
        s.flush();
        assert_eq!(s.rows().len(), 2);
        assert_eq!(s.rows()[1].deltas, vec![8, 0, 0]);
        assert_eq!((s.rows()[1].start_cycle, s.rows()[1].end_cycle), (3, 3));
        assert_eq!(s.rows()[1].cycles, 1);
        // Flushing again is a no-op.
        s.flush();
        assert_eq!(s.rows().len(), 2);
    }

    #[test]
    fn window_of_one_emits_every_cycle() {
        let mut s = Sampler::new(1, &["committed"]);
        s.observe(0, &[1]);
        s.observe(1, &[3]);
        assert_eq!(s.rows().len(), 2);
        assert_eq!(s.rows()[0].deltas, vec![1]);
        assert_eq!(s.rows()[1].deltas, vec![2]);
    }

    #[test]
    fn deltas_partition_the_run_exactly() {
        // Summing each counter over all rows reproduces its final
        // cumulative value, so every increment lands in exactly one
        // window, and the windows cover every observed cycle.
        let mut s = Sampler::new(7, LABELS);
        let mut cum = [0u64; 3];
        for cycle in 1..=23u64 {
            cum[(cycle % 3) as usize] += 8;
            s.observe(cycle, &cum);
        }
        s.flush();
        let mut summed = [0u64; 3];
        for r in s.rows() {
            for (acc, d) in summed.iter_mut().zip(&r.deltas) {
                *acc += d;
            }
            // Each window's deltas sum to 8 per cycle here.
            assert_eq!(r.deltas.iter().sum::<u64>(), r.cycles * 8);
        }
        assert_eq!(summed, cum);
        assert_eq!(s.rows().iter().map(|r| r.cycles).sum::<u64>(), 23);
    }

    #[test]
    fn csv_has_one_column_per_label() {
        let mut s = Sampler::new(2, LABELS);
        s.observe(1, &[4, 4, 0]);
        s.observe(2, &[8, 8, 0]);
        s.observe(3, &[9, 8, 7]);
        s.flush();
        assert_eq!(
            s.to_csv(),
            "start_cycle,end_cycle,cycles,base,frontend,dep_chain\n\
             1,2,2,8,8,0\n\
             3,3,1,1,0,7\n"
        );
    }

    #[test]
    fn timeline_csv_renders_ipc_means_and_inflight_loads() {
        // Per cycle: (committed, LQ occupancy, SQ occupancy, SQ
        // searches, LQ searches), the last two cumulative.
        let cycles: [(u64, u64, u64, u64, u64); 5] = [
            (2, 4, 1, 1, 0),
            (3, 5, 2, 3, 1),
            (3, 6, 2, 4, 1),
            (7, 2, 0, 4, 5),
            (8, 1, 1, 6, 5),
        ];
        let mut s = Sampler::new(3, &TIMELINE);
        let (mut lq_sum, mut sq_sum) = (0, 0);
        for (i, &(committed, lq, sq, sqs, lqs)) in cycles.iter().enumerate() {
            lq_sum += lq;
            sq_sum += sq;
            s.observe(10 + i as u64, &[committed, lq_sum, sq_sum, sqs, lqs]);
        }
        s.flush();
        // Window 1: 3 committed in 3 cycles, LQ 15/3, SQ 5/3.
        // Window 2: 5 committed in 2 cycles, LQ 3/2, SQ 1/2.
        assert_eq!(
            timeline_csv(&s),
            "start_cycle,end_cycle,cycles,committed,ipc,lq_occupancy,sq_occupancy,\
             inflight_loads,sq_searches,lq_searches\n\
             10,12,3,3,1.000000,5.000,1.667,5.000,4,1\n\
             13,14,2,5,2.500000,1.500,0.500,1.500,2,4\n"
        );
    }
}
