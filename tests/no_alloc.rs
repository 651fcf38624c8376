//! The unobserved simulation loop must not touch the heap once warm:
//! every structure the cycle loop uses is sized when the simulator is
//! built. A counting global allocator, which counts only on the thread
//! that asked it to, measures `Simulator::run`: a warm run of
//! 10,000 instructions must make exactly as many allocations as a run
//! of none, which only builds the `SimResult`.

use lsq::core::{LsqConfig, PredictorKind, SegAlloc};
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

fn design_points() -> Vec<(&'static str, SimConfig)> {
    let pair = LsqConfig {
        predictor: PredictorKind::Pair,
        ..LsqConfig::default()
    };
    let load_load = LsqConfig {
        load_load_squash: true,
        ..LsqConfig::default()
    };
    let mut invalidating = SimConfig::with_lsq(LsqConfig::default());
    invalidating.invalidation_rate = 0.01;
    vec![
        ("conventional2", SimConfig::with_lsq(LsqConfig::default())),
        ("pair", SimConfig::with_lsq(pair)),
        ("lb1", SimConfig::with_lsq(LsqConfig::with_techniques(1))),
        (
            "segmented",
            SimConfig::with_lsq(LsqConfig::segmented(SegAlloc::SelfCircular)),
        ),
        (
            "all_techniques_one_port",
            SimConfig::with_lsq(LsqConfig::all_techniques_one_port()),
        ),
        ("load_load_squash", SimConfig::with_lsq(load_load)),
        ("invalidation", invalidating),
    ]
}

/// `gzip` and `mcf` as in the scheduler tests, plus `bzip`, whose
/// same-word loads make the load-load squash fire.
#[test]
fn warm_simulation_loop_does_not_allocate() {
    let (mut load_load_squashes, mut invalidations) = (0, 0);
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
        }
    }
    // Both squash sources were exercised, not just configured.
    assert!(load_load_squashes > 0, "no load-load squash fired");
    assert!(invalidations > 0, "no invalidation squash fired");
}
