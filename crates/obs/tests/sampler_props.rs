//! Property test of the timeline rendering: building per-window means
//! from deltas of `u64` running occupancy sums must produce, bit for
//! bit, the rows of the direct algorithm that sums each window's
//! per-cycle occupancies in an `f64`.

use lsq_obs::{timeline_csv, Sampler, TIMELINE};
use proptest::prelude::*;

/// One cycle: instructions committed, LQ and SQ occupancy, and the SQ
/// and LQ searches made.
type Cycle = (u64, usize, usize, u64, u64);

/// The timeline rows (no header) computed directly: occupancies summed
/// per window in `f64`, counters differenced at window ends.
fn reference_rows(window: u64, cycles: &[Cycle]) -> String {
    let mut out = String::new();
    for (w, chunk) in cycles.chunks(window as usize).enumerate() {
        let start = w as u64 * window + 1;
        let n = chunk.len() as u64;
        let (mut committed, mut sq_searches, mut lq_searches) = (0u64, 0u64, 0u64);
        let (mut lq_sum, mut sq_sum) = (0.0f64, 0.0f64);
        for &(c, lq, sq, sqs, lqs) in chunk {
            committed += c;
            lq_sum += lq as f64;
            sq_sum += sq as f64;
            sq_searches += sqs;
            lq_searches += lqs;
        }
        let ipc = committed as f64 / n as f64;
        let lq_mean = lq_sum / n as f64;
        out.push_str(&format!(
            "{},{},{},{},{:.6},{:.3},{:.3},{:.3},{},{}\n",
            start,
            start + n - 1,
            n,
            committed,
            ipc,
            lq_mean,
            sq_sum / n as f64,
            lq_mean,
            sq_searches,
            lq_searches
        ));
    }
    out
}

/// The same rows through the sampler: cumulative counters and running
/// occupancy sums, rendered by [`timeline_csv`].
fn sampled_rows(window: u64, cycles: &[Cycle]) -> String {
    let mut s = Sampler::new(window, &TIMELINE);
    let mut cum = [0u64; 5];
    for (i, &(c, lq, sq, sqs, lqs)) in cycles.iter().enumerate() {
        for (acc, x) in cum.iter_mut().zip([c, lq as u64, sq as u64, sqs, lqs]) {
            *acc += x;
        }
        s.observe(i as u64 + 1, &cum);
    }
    s.flush();
    let csv = timeline_csv(&s);
    let (_header, rows) = csv.split_once('\n').expect("header line");
    rows.to_string()
}

fn cycle() -> impl Strategy<Value = Cycle> {
    (0u64..9, 0usize..1 << 20, 0usize..1 << 20, 0u64..5, 0u64..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn running_sum_deltas_match_per_window_f64_sums(
        window in 1u64..64,
        cycles in prop::collection::vec(cycle(), 1..400),
    ) {
        prop_assert_eq!(sampled_rows(window, &cycles), reference_rows(window, &cycles));
    }
}
