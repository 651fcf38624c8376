//! Micro-benchmarks of the hardware-structure models the simulator leans
//! on per cycle: predictor table operations, load-buffer bookkeeping,
//! segmented allocation, port booking, the LSQ's store-queue and
//! load-queue searches, cache accesses, and the ring queue. These bound
//! the per-cycle simulation cost and catch accidental algorithmic
//! regressions (e.g. an O(n) slip in a hot path).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lsq_core::{
    LoadBuffer, LoadIssue, Lsq, LsqConfig, PortBook, SegAlloc, SegmentedAlloc, StoreIssue,
    StoreSetPredictor,
};
use lsq_isa::{Addr, Pc};

use lsq_mem::{Cache, CacheConfig};
use lsq_util::rng::Xoshiro256;
use lsq_util::RingQueue;
use std::hint::black_box;

const OPS: u64 = 4096;

fn predictor(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_set_predictor");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("fetch_issue_commit_cycle", |b| {
        let mut p = StoreSetPredictor::paper();
        for i in 0..64 {
            p.train_pair(Pc(0x1000 + i * 8), Pc(0x2000 + i * 8));
        }
        let mut seq = 0u64;
        b.iter(|| {
            for i in 0..OPS {
                let pc = Pc(0x2000 + (i % 64) * 8);
                if let Some(ssid) = p.on_store_fetch(pc, seq) {
                    p.on_store_issue(ssid, seq);
                    p.on_store_commit(ssid);
                }
                let lp = p.on_load_fetch(Pc(0x1000 + (i % 64) * 8));
                black_box(p.must_search(lp.ssid));
                seq += 1;
            }
        })
    });
    g.finish();
}

fn load_buffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("load_buffer");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("dispatch_issue_commit", |b| {
        b.iter(|| {
            let mut lb = LoadBuffer::new(2);
            let mut seq = 0u64;
            for _ in 0..OPS / 4 {
                for _ in 0..4 {
                    lb.on_dispatch(seq, Addr(0x1000 + seq * 8));
                    seq += 1;
                }
                // Issue out of order, then in order.
                let base = seq - 4;
                let _ = lb.try_issue(base + 2);
                let _ = lb.try_issue(base);
                let _ = lb.try_issue(base + 1);
                let _ = lb.try_issue(base + 3);
                for s in base..seq {
                    lb.on_commit(s);
                }
            }
            black_box(lb.searches())
        })
    });
    g.finish();
}

fn segmentation(c: &mut Criterion) {
    let mut g = c.benchmark_group("segmentation");
    g.throughput(Throughput::Elements(OPS));
    for (label, alloc) in [
        ("self_circular", SegAlloc::SelfCircular),
        ("no_self_circular", SegAlloc::NoSelfCircular),
    ] {
        g.bench_function(format!("alloc_free/{label}"), |b| {
            b.iter(|| {
                let mut a = SegmentedAlloc::new(4, 28, alloc);
                let mut live = std::collections::VecDeque::new();
                for _ in 0..OPS {
                    if live.len() < 80 {
                        live.push_back(a.allocate().expect("capacity"));
                    } else {
                        a.free(live.pop_front().expect("live"));
                    }
                }
                black_box(a.occupied())
            })
        });
    }
    g.bench_function("port_book", |b| {
        b.iter(|| {
            let mut book = PortBook::new(4, 2);
            let mut granted = 0u64;
            for i in 0..OPS {
                if i % 3 == 0 {
                    book.begin_cycle();
                }
                if book.try_book(&[(i % 4) as usize, ((i + 1) % 4) as usize]) {
                    granted += 1;
                }
            }
            black_box(granted)
        })
    });
    g.finish();
}

/// A queue held at a measured occupancy: `stores` stores followed in
/// program order by `loads` loads. Every fourth load reads a word one of
/// the stores writes, so issued stores give some loads a forwarding
/// source part-way down the store queue.
struct Filled {
    lsq: Lsq,
    stores: u64,
    loads: u64,
}

impl Filled {
    fn new(cfg: LsqConfig, stores: u64, loads: u64, issue_stores: bool) -> Self {
        let mut f = Self {
            lsq: Lsq::new(cfg).expect("valid config"),
            stores,
            loads,
        };
        f.dispatch_stores();
        if issue_stores {
            for seq in 0..stores {
                f.lsq.begin_cycle();
                let issued = f.lsq.store_issue(seq);
                assert!(matches!(issued, StoreIssue::Issued { violation: None }));
            }
        }
        f.dispatch_loads();
        f
    }

    fn dispatch_stores(&mut self) {
        for seq in 0..self.stores {
            self.lsq
                .dispatch_store(seq, Pc(0x2000 + seq * 4), Addr(0x10_000 + seq * 64));
        }
    }

    fn load_seqs(&self) -> std::ops::Range<u64> {
        self.stores..self.stores + self.loads
    }

    fn dispatch_loads(&mut self) {
        for seq in self.load_seqs() {
            let j = seq - self.stores;
            let addr = if j.is_multiple_of(4) {
                Addr(0x10_000 + (j % self.stores) * 64)
            } else {
                Addr(0x80_000 + j * 64)
            };
            self.lsq.dispatch_load(seq, Pc(0x4000 + j * 4), addr);
        }
    }
}

/// The LSQ's search kernels at the occupancies a traced run of the
/// simulator measures (LQ ≈ 32, SQ ≈ 10 for the two-ported conventional
/// queue; LQ ≈ 67, SQ ≈ 21 for the 4 × 28 self-circular segmented one).
/// Each sample issues every resident load (or store) once, a cycle
/// apart, then squashes and re-dispatches the issued entries to restore
/// the occupancy; that restore is part of the timed work.
fn lsq_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("lsq_search");
    for (label, cfg, stores, loads) in [
        ("conventional2", LsqConfig::conventional(2), 10, 32),
        (
            "segmented",
            LsqConfig::segmented(SegAlloc::SelfCircular),
            21,
            67,
        ),
    ] {
        g.throughput(Throughput::Elements(loads));
        g.bench_function(format!("load_issue/issued/{label}"), |b| {
            let mut f = Filled::new(cfg, stores, loads, true);
            b.iter(|| {
                for seq in f.load_seqs() {
                    f.lsq.begin_cycle();
                    black_box(f.lsq.load_issue(seq));
                }
                f.lsq.squash_from(f.stores);
                f.dispatch_loads();
            })
        });

        // Two loads take both ports of the segment every load's store
        // search starts in; the rest are refused until the next cycle.
        g.throughput(Throughput::Elements(OPS));
        g.bench_function(format!("load_issue/refused/{label}"), |b| {
            let mut f = Filled::new(cfg, stores, loads, true);
            f.lsq.begin_cycle();
            let mut seqs = f.load_seqs();
            for seq in seqs.by_ref().take(2) {
                assert!(matches!(f.lsq.load_issue(seq), LoadIssue::Issued(_)));
            }
            let refused = seqs.next().expect("a third load");
            assert_eq!(f.lsq.load_issue(refused), LoadIssue::NoSqPort);
            b.iter(|| {
                for _ in 0..OPS {
                    black_box(f.lsq.load_issue(refused));
                }
            })
        });

        // Each store's violation search runs over every load, all
        // younger than it (and unissued, so none is a victim).
        g.throughput(Throughput::Elements(stores));
        g.bench_function(format!("store_issue/{label}"), |b| {
            let mut f = Filled::new(cfg, stores, loads, false);
            b.iter(|| {
                for seq in 0..f.stores {
                    f.lsq.begin_cycle();
                    black_box(f.lsq.store_issue(seq));
                }
                f.lsq.squash_from(0);
                f.dispatch_stores();
                f.dispatch_loads();
            })
        });
    }
    g.finish();
}

fn caches(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("l1_access_mixed", |b| {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 64 << 10,
            ways: 2,
            block_bytes: 32,
            hit_latency: 2,
        });
        let mut rng = Xoshiro256::seed_from_u64(1);
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..OPS {
                let addr = Addr(rng.range_u64(128 << 10));
                if cache.access(addr, false) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    // The Table 1 L2 over a 32x larger footprint: nearly every access
    // misses and replaces, so the set/tag split and victim scan dominate.
    g.bench_function("l2_access_miss_heavy", |b| {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 2 << 20,
            ways: 8,
            block_bytes: 64,
            hit_latency: 12,
        });
        let mut rng = Xoshiro256::seed_from_u64(2);
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..OPS {
                let addr = Addr(rng.range_u64(64 << 20));
                if cache.access(addr, false) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn ring_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("ring_queue");
    g.throughput(Throughput::Elements(OPS));
    // 256 entries fill the slot storage exactly; 255 leaves one of the
    // 256 power-of-two slots unused.
    for (name, capacity) in [("push_get_pop", 256), ("push_get_pop_cap255", 255)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut q: RingQueue<u64> = RingQueue::new(capacity);
                let mut acc = 0u64;
                for i in 0..OPS {
                    if q.is_full() {
                        acc ^= q.pop().expect("full queue pops").1;
                    }
                    let seq = q.push(i).expect("not full");
                    acc ^= *q.get(seq).expect("just pushed");
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

criterion_group!(
    components,
    predictor,
    load_buffer,
    segmentation,
    lsq_search,
    caches,
    ring_queue
);
criterion_main!(components);
