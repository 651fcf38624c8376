//! The unobserved simulation loop must not touch the heap once warm:
//! every structure the cycle loop uses is sized when the simulator is
//! built. A counting global allocator, which counts only on the thread
//! that asked it to, measures `Simulator::run`: a warm run of
//! 10,000 instructions must make exactly as many allocations as a run
//! of none, which only builds the `SimResult`. The runs include loads
//! parked on predicted stores, a full load buffer and in-order issue, so
//! parking, unparking and bulk refusal counting are measured too.

use lsq::core::{LoadOrderPolicy, LsqConfig};
use lsq::experiments::experiments::design_points as standard_points;
use lsq::pipeline::{SimConfig, Simulator};
use lsq::trace::BenchProfile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made by this thread while counting, if it counts.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn bump() {
    // `try_with`: the allocator can run while thread-locals are torn down.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: defers every operation to `System`; the counter touches no heap.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result, and the allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let r = f();
    (r, COUNT.with(|c| c.replace(None)).unwrap_or(0))
}

/// The four standard design points, the Figure 12 point on both
/// processors, in-order issue and the two squash sources besides memory
/// order.
fn design_points() -> Vec<(&'static str, SimConfig)> {
    let load_load = LsqConfig {
        load_load_squash: true,
        ..LsqConfig::default()
    };
    let mut invalidating = SimConfig::with_lsq(LsqConfig::default());
    invalidating.invalidation_rate = 0.01;
    standard_points()
        .map(|(label, lsq)| (label, SimConfig::with_lsq(lsq)))
        .into_iter()
        .chain([
            (
                "all_techniques_one_port",
                SimConfig::with_lsq(LsqConfig::all_techniques_one_port()),
            ),
            (
                "all_techniques_one_port/scaled",
                SimConfig::scaled(LsqConfig::all_techniques_one_port()),
            ),
            (
                "in_order",
                SimConfig::with_lsq(LsqConfig {
                    load_order: LoadOrderPolicy::InOrderNoSearch,
                    ..LsqConfig::default()
                }),
            ),
            ("load_load_squash", SimConfig::with_lsq(load_load)),
            ("invalidation", invalidating),
        ])
        .collect()
}

/// `gzip` and `mcf` as in the scheduler tests, plus `bzip`, whose
/// same-word loads make the load-load squash fire.
#[test]
fn warm_simulation_loop_does_not_allocate() {
    let (mut load_load_squashes, mut invalidations) = (0, 0);
    // Refusals of the three parked kinds: store-set, load buffer, in-order.
    let mut parked = [0; 3];
    for bench in ["gzip", "mcf", "bzip"] {
        for (label, cfg) in design_points() {
            let profile = BenchProfile::named(bench).expect("known benchmark");
            let mut stream = profile.stream(1);
            let mut sim = Simulator::new(cfg);
            sim.prewarm(&stream.data_regions(), stream.code_region());
            let _ = sim.run(&mut stream, 20_000);
            let (before, baseline) = allocations(|| sim.run(&mut stream, 0));
            let (after, measured) = allocations(|| sim.run(&mut stream, 10_000));
            assert_eq!(
                measured,
                baseline,
                "{bench}/{label}: the warm run allocated {} times beyond building its result",
                measured as i64 - baseline as i64
            );
            load_load_squashes += after.lsq.load_load_violations - before.lsq.load_load_violations;
            invalidations += after.lsq.invalidation_squashes - before.lsq.invalidation_squashes;
            parked[0] += after.lsq.store_set_waits - before.lsq.store_set_waits;
            parked[1] += after.lsq.lb_full_stalls - before.lsq.lb_full_stalls;
            parked[2] += after.lsq.in_order_stalls - before.lsq.in_order_stalls;
        }
    }
    assert!(parked.iter().all(|&n| n > 0), "parked refusals {parked:?}");
    // Both squash sources were exercised, not just configured.
    assert!(load_load_squashes > 0, "no load-load squash fired");
    assert!(invalidations > 0, "no invalidation squash fired");
}
