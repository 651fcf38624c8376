//! The issue scheduler: event-driven wakeup indexed by ROB slot, `seq &
//! (rob_entries.next_power_of_two() - 1)` (see DESIGN.md §4). Each slot
//! has a `waiting`, a `ready` and a `parked` bit and, as a producer, an
//! intrusive waiter list whose links live in the consumer slots, so
//! nothing here allocates after construction.
//!
//! A parked entry is waiting and has no `ready` bit: select found it
//! refused for a reason that holds until a known event, so it waits for
//! that event ([`Park`]) instead of being tried every cycle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The end of a waiter list; a node is `(consumer slot + 1) << 1 | source`.
const NIL: u32 = 0;

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    seq: u64,
    /// Latest issued producer's wake cycle; the wakeup once `pending` is 0.
    ready_at: u64,
    /// Sources whose producer has not issued (a repeated producer twice).
    pending: u8,
    /// This slot's waiter list, as a producer.
    head: u32,
    /// The node after each of this slot's source nodes, as a consumer.
    next: [u32; 2],
}

/// The event a parked entry waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Park {
    /// The issue of this store.
    Store(u64),
    /// The load-order event: any load issue, or a squash.
    LoadOrder,
}

/// The issue queue and its wakeup structures, indexed by ROB slot.
#[derive(Debug)]
pub struct Scheduler {
    /// Slot count minus one.
    mask: u64,
    slots: Vec<Slot>,
    waiting: Vec<u64>,
    ready: Vec<u64>,
    /// Parked entries, a subset of `waiting` disjoint from `ready`.
    parked: Vec<u64>,
    /// The parked entries waiting for the load-order event; the others
    /// wait for the store in their `key`.
    on_load_order: Vec<u64>,
    /// Per slot, the store a [`Park::Store`] entry waits for.
    key: Vec<u64>,
    /// Waiting entries.
    len: usize,
    /// Parked entries waiting for a store's issue, and for the load-order
    /// event. Derived from the masks, but kept: the early-outs it gives
    /// `issue` and `unpark_load_order`, which run for every issued
    /// instruction and load, are worth about 3% of simulation speed on
    /// cache-missing benchmarks.
    parked_counts: (u64, u64),
    /// `(wake cycle, seq)`. An entry a relaxation superseded is dropped
    /// when due, or harmless: an instruction stays ready until issue.
    calendar: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Scheduler {
    /// A scheduler for a ROB of `rob_entries` entries.
    pub fn new(rob_entries: usize) -> Self {
        let n = rob_entries.next_power_of_two();
        let words = n.div_ceil(64);
        Self {
            mask: n as u64 - 1,
            slots: vec![Slot::default(); n],
            waiting: vec![0; words],
            ready: vec![0; words],
            parked: vec![0; words],
            on_load_order: vec![0; words],
            key: vec![0; n],
            len: 0,
            parked_counts: (0, 0),
            // Per in-flight instruction: its wakeup and one entry per late
            // producer's relaxation, plus room for superseded ones.
            calendar: BinaryHeap::with_capacity(4 * n),
        }
    }

    /// The slot of in-flight `seq`.
    pub fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// The sequence number of the instruction in `slot`.
    pub fn seq_of(&self, slot: usize) -> u64 {
        self.slots[slot].seq
    }

    /// Issue-queue occupancy: the number of waiting entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The waiting entries, one bit per slot.
    pub fn waiting_mask(&self) -> &[u64] {
        &self.waiting
    }

    /// The entries select may try, one bit per slot.
    pub fn ready_mask(&self) -> &[u64] {
        &self.ready
    }

    /// The parked entries, one bit per slot.
    pub fn parked_mask(&self) -> &[u64] {
        &self.parked
    }

    /// What the entry in `slot` is parked on, if it is parked.
    // lsq-lint: hot
    pub fn parked_on(&self, slot: usize) -> Option<Park> {
        let (w, b) = bit(slot);
        if self.parked[w] & b == 0 {
            None
        } else if self.on_load_order[w] & b != 0 {
            Some(Park::LoadOrder)
        } else {
            Some(Park::Store(self.key[slot]))
        }
    }

    /// The parked entries waiting for a store's issue, and those waiting
    /// for the load-order event.
    pub fn parked_counts(&self) -> (u64, u64) {
        self.parked_counts
    }

    /// The earliest calendar wakeup.
    pub fn next_wakeup(&self) -> Option<u64> {
        self.calendar.peek().map(|&Reverse((at, _))| at)
    }

    /// Enters dispatched `seq`. `srcs[i]` is `Some((producer, wake))` if
    /// source `i`'s producer is in the ROB, `wake` its result cycle once
    /// issued; `seq` joins the producer's waiter list.
    // lsq-lint: hot
    pub fn dispatch(&mut self, seq: u64, srcs: [Option<(u64, Option<u64>)>; 2], now: u64) {
        let s = self.slot(seq);
        let mut e = Slot {
            seq,
            ..Slot::default()
        };
        for (i, src) in srcs.into_iter().enumerate() {
            let Some((producer, wake)) = src else {
                continue;
            };
            match wake {
                None => e.pending += 1,
                Some(at) => e.ready_at = e.ready_at.max(at),
            }
            let p = self.slot(producer);
            e.next[i] = self.slots[p].head;
            self.slots[p].head = (s as u32 + 1) << 1 | i as u32;
        }
        self.slots[s] = e;
        let (w, b) = bit(s);
        self.waiting[w] |= b;
        self.len += 1;
        if e.pending == 0 {
            self.schedule(s, e.ready_at, now);
        }
    }

    /// Moves every calendar entry due by `now` into the ready mask.
    // lsq-lint: hot
    pub fn wake(&mut self, now: u64) {
        while let Some(&Reverse((at, seq))) = self.calendar.peek() {
            if at > now {
                break;
            }
            self.calendar.pop();
            let s = self.slot(seq);
            if self.slots[s].seq == seq {
                let (w, b) = bit(s);
                self.ready[w] |= self.waiting[w] & !self.parked[w] & b;
            }
        }
    }

    /// Parks ready, refused `seq` until `on` happens.
    // lsq-lint: hot
    pub fn park(&mut self, seq: u64, on: Park) {
        let s = self.slot(seq);
        let (w, b) = bit(s);
        debug_assert!(self.ready[w] & b != 0, "parking an entry that is not ready");
        self.ready[w] &= !b;
        self.parked[w] |= b;
        match on {
            Park::Store(store) => {
                self.key[s] = store;
                self.parked_counts.0 += 1;
            }
            Park::LoadOrder => {
                self.on_load_order[w] |= b;
                self.parked_counts.1 += 1;
            }
        }
    }

    /// Unparks every entry waiting for the load-order event.
    // lsq-lint: hot
    pub fn unpark_load_order(&mut self) {
        if self.parked_counts.1 == 0 {
            return;
        }
        self.parked_counts.1 = 0;
        for (w, order) in self.on_load_order.iter_mut().enumerate() {
            self.ready[w] |= *order;
            self.parked[w] &= !*order;
            *order = 0;
        }
    }

    /// Removes issued `seq` and counts its consumers down; one whose last
    /// producer this was wakes at the latest of its producers' `wake`.
    /// Entries parked on `seq`'s issue are unparked.
    // lsq-lint: hot
    pub fn issue(&mut self, seq: u64, wake: u64, now: u64) {
        let s = self.slot(seq);
        debug_assert!(self.parked_on(s).is_none(), "issuing a parked entry");
        self.clear(s);
        let mut n = self.slots[s].head;
        while let Some((c, i)) = node(n) {
            let e = &mut self.slots[c];
            n = e.next[i];
            e.pending -= 1;
            e.ready_at = e.ready_at.max(wake);
            if e.pending == 0 {
                let at = e.ready_at;
                self.schedule(c, at, now);
            }
        }
        if self.parked_counts.0 == 0 {
            return;
        }
        for w in 0..self.parked.len() {
            let mut on_store = self.parked[w] & !self.on_load_order[w];
            while on_store != 0 {
                let b = on_store & on_store.wrapping_neg();
                on_store &= on_store - 1;
                if self.key[w * 64 + b.trailing_zeros() as usize] == seq {
                    self.parked[w] &= !b;
                    self.ready[w] |= b;
                    self.parked_counts.0 -= 1;
                }
            }
        }
    }

    /// Called when late-waking `producer` retires, which makes its result
    /// visible at once: `wake_of(c)` recomputes waiting consumer `c`'s
    /// wakeup from the producers still in flight, and an earlier one
    /// replaces the old.
    // lsq-lint: hot
    pub fn relax(&mut self, producer: u64, now: u64, mut wake_of: impl FnMut(u64) -> u64) {
        let mut n = self.slots[self.slot(producer)].head;
        while let Some((c, i)) = node(n) {
            let e = self.slots[c];
            n = e.next[i];
            let (w, b) = bit(c);
            if self.waiting[w] & b == 0 {
                continue;
            }
            let at = wake_of(e.seq);
            if at < e.ready_at {
                self.slots[c].ready_at = at;
                if e.pending == 0 {
                    self.schedule(c, at, now);
                }
            }
        }
    }

    /// Drops `victim..tail` after a squash: clears their bits and calendar
    /// entries, and pops them off the front of each survivor's
    /// (`head..victim`) list. Squashed seqs are handed out again, so
    /// nothing of them may linger. A squash is a load-order event.
    pub fn squash(&mut self, head: u64, victim: u64, tail: u64) {
        self.calendar.retain(|&Reverse((_, s))| s < victim);
        for seq in victim..tail {
            self.clear(self.slot(seq));
        }
        for seq in head..victim {
            let p = self.slot(seq);
            let mut n = self.slots[p].head;
            while let Some((c, i)) = node(n).filter(|&(c, _)| self.slots[c].seq >= victim) {
                n = self.slots[c].next[i];
            }
            self.slots[p].head = n;
        }
        self.unpark_load_order();
        let on_store = self.parked.iter().map(|w| u64::from(w.count_ones()));
        self.parked_counts.0 = on_store.sum();
    }

    /// Drops `s`'s bits; the parked counts are the caller's.
    fn clear(&mut self, s: usize) {
        let (w, b) = bit(s);
        self.len -= usize::from(self.waiting[w] & b != 0);
        self.waiting[w] &= !b;
        self.ready[w] &= !b;
        self.parked[w] &= !b;
        self.on_load_order[w] &= !b;
    }

    /// Makes `s` ready at `at`. A parked entry has been ready already, so
    /// a relaxed (earlier) wakeup leaves it parked.
    // lsq-lint: hot
    fn schedule(&mut self, s: usize, at: u64, now: u64) {
        if at <= now {
            let (w, b) = bit(s);
            self.ready[w] |= b & !self.parked[w];
        } else {
            self.calendar.push(Reverse((at, self.slots[s].seq)));
        }
    }
}

/// The word and bit of slot `s` in a mask.
fn bit(s: usize) -> (usize, u64) {
    (s / 64, 1 << (s % 64))
}

/// The consumer slot and source index of waiter-list node `n`.
fn node(n: u32) -> Option<(usize, usize)> {
    (n != NIL).then(|| ((n >> 1) as usize - 1, (n & 1) as usize))
}

/// The set bits of `mask` in age order: from slot `start` up, then
/// round to the slots below it (oldest first when `start` is the ROB
/// head's slot).
// lsq-lint: hot
pub fn age_order(mask: &[u64], start: usize) -> impl Iterator<Item = usize> + '_ {
    let (mut word, first) = bit(start);
    let mut bits = mask[word] & first.wrapping_neg();
    let mut left = mask.len();
    std::iter::from_fn(move || {
        while bits == 0 {
            if left == 0 {
                return None;
            }
            left -= 1;
            word = if word + 1 == mask.len() { 0 } else { word + 1 };
            // The last word visited is `start`'s again, below `start`.
            bits = mask[word] & if left == 0 { first - 1 } else { !0 };
        }
        let b = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(word * 64 + b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The ROB capacities exercised: one slot, non-powers of two, and the
    /// base and scaled processors' windows.
    const CAPACITIES: [usize; 5] = [1, 3, 100, 256, 512];

    fn bits(n: usize, slots: impl IntoIterator<Item = usize>) -> Vec<u64> {
        let mut m = vec![0; n.div_ceil(64)];
        for s in slots {
            let (w, b) = bit(s);
            m[w] |= b;
        }
        m
    }

    #[test]
    fn age_order_starts_at_every_head_and_wraps() {
        for cap in CAPACITIES {
            let n = cap.next_power_of_two();
            // Every third slot plus both ends, so words both full and
            // sparse are crossed.
            let members: Vec<usize> = (0..n).filter(|s| s % 3 == 0 || *s == n - 1).collect();
            let mask = bits(n, members.iter().copied());
            for start in 0..n {
                let want: Vec<usize> = (start..n)
                    .chain(0..start)
                    .filter(|s| members.contains(s))
                    .collect();
                let got: Vec<usize> = age_order(&mask, start).collect();
                assert_eq!(got, want, "capacity {cap}, head slot {start}");
            }
            assert_eq!(age_order(&bits(n, []), n - 1).count(), 0);
        }
    }

    #[test]
    fn duplicate_source_counts_twice_and_wakes_once() {
        let mut s = Scheduler::new(4);
        s.dispatch(0, [None, None], 0);
        s.dispatch(1, [Some((0, None)), Some((0, None))], 0);
        s.wake(1);
        assert_eq!(s.ready_mask(), &[0b01]);
        s.issue(0, 3, 1);
        assert_eq!((s.ready_mask(), s.len()), (&[0][..], 1));
        s.wake(2);
        assert_eq!(s.ready_mask(), &[0]);
        s.wake(3);
        assert_eq!(s.ready_mask(), &[0b10]);
        assert_eq!(s.next_wakeup(), None);
    }

    #[test]
    fn late_producer_retiring_wakes_its_consumers_early() {
        let mut s = Scheduler::new(8);
        s.dispatch(0, [None, None], 0);
        s.dispatch(1, [Some((0, None)), None], 0);
        // Issued at 1, complete at 3, dependents wake at 5 (late).
        s.issue(0, 5, 1);
        // A consumer dispatched after the late issue folds the penalty in.
        s.dispatch(2, [Some((0, Some(5))), None], 1);
        s.wake(3);
        assert_eq!(s.ready_mask(), &[0]);
        // Retiring at 3 makes the result architectural at once.
        s.relax(0, 3, |_| 0);
        s.wake(3);
        assert_eq!(s.ready_mask(), &[0b110]);
        // The superseded calendar entries go stale silently.
        s.issue(1, 4, 3);
        s.wake(5);
        assert_eq!(s.ready_mask(), &[0b100]);
    }

    #[test]
    fn stale_wakeup_of_a_recycled_slot_is_dropped() {
        let mut s = Scheduler::new(2);
        s.dispatch(0, [None, None], 0);
        s.dispatch(1, [Some((0, None)), None], 0);
        // Complete at 1, late: seq 1 is due at 3.
        s.issue(0, 3, 0);
        // Seq 0 retires at 1 and seq 1 issues at once, leaving its entry
        // at 3 behind.
        s.relax(0, 1, |_| 0);
        s.issue(1, 2, 1);
        s.dispatch(2, [Some((1, Some(2))), None], 1);
        // Seq 1 retires; seq 3 reuses its slot, waiting on seq 2.
        s.dispatch(3, [Some((2, None)), None], 2);
        s.wake(3);
        assert_eq!(s.ready_mask(), &[0b01]);
    }

    #[test]
    fn squash_pops_squashed_consumers_from_surviving_lists() {
        let mut s = Scheduler::new(4);
        s.dispatch(0, [None, None], 0);
        s.dispatch(1, [Some((0, None)), None], 0);
        s.dispatch(2, [Some((0, None)), Some((1, None))], 0);
        s.squash(0, 2, 3);
        assert_eq!(s.len(), 2);
        // The refetched seq 2 no longer depends on anything; issuing 0
        // must not count it down.
        s.dispatch(2, [None, None], 1);
        s.issue(0, 2, 1);
        s.wake(2);
        assert_eq!(s.ready_mask(), &[0b110]);
    }

    #[test]
    fn parked_entries_wait_for_their_event() {
        let mut s = Scheduler::new(8);
        for seq in 0..4 {
            s.dispatch(seq, [None, None], 0);
        }
        s.park(2, Park::Store(0));
        s.park(3, Park::LoadOrder);
        assert_eq!(
            (s.ready_mask(), s.parked_mask()),
            (&[0b0011][..], &[0b1100][..])
        );
        assert_eq!(
            (s.parked_on(2), s.parked_on(3)),
            (Some(Park::Store(0)), Some(Park::LoadOrder))
        );
        assert_eq!((s.parked_counts(), s.len()), ((1, 1), 4));
        // Issuing some other instruction unparks nothing.
        s.issue(1, 2, 1);
        assert_eq!(
            (s.ready_mask(), s.parked_mask()),
            (&[0b0001][..], &[0b1100][..])
        );
        // The store's issue unparks the load waiting on it, not the other.
        s.issue(0, 2, 1);
        assert_eq!(
            (s.ready_mask(), s.parked_mask()),
            (&[0b0100][..], &[0b1000][..])
        );
        s.unpark_load_order();
        assert_eq!((s.ready_mask(), s.parked_mask()), (&[0b1100][..], &[0][..]));
        assert_eq!((s.parked_counts(), s.len()), ((0, 0), 2));
    }

    #[test]
    fn a_relaxed_wakeup_leaves_a_parked_entry_parked() {
        let mut s = Scheduler::new(4);
        s.dispatch(0, [None, None], 0);
        s.dispatch(1, [Some((0, None)), None], 0);
        // Complete at 2, late: seq 1 is due at 4, and is refused then.
        s.issue(0, 4, 0);
        s.wake(4);
        s.park(1, Park::LoadOrder);
        // Seq 0 retiring relaxes seq 1's wakeup, which is long past.
        s.relax(0, 5, |_| 2);
        s.wake(5);
        assert_eq!((s.ready_mask(), s.parked_mask()), (&[0][..], &[0b10][..]));
    }

    #[test]
    fn a_squash_unparks_the_load_order_class_and_drops_the_squashed() {
        let mut s = Scheduler::new(4);
        for seq in 0..4 {
            s.dispatch(seq, [None, None], 0);
        }
        s.park(1, Park::LoadOrder);
        s.park(2, Park::Store(0));
        s.park(3, Park::LoadOrder);
        s.squash(0, 3, 4);
        assert_eq!(
            (s.ready_mask(), s.parked_mask()),
            (&[0b0011][..], &[0b0100][..])
        );
        assert_eq!((s.parked_counts(), s.len()), ((1, 0), 3));
    }

    /// One in-flight instruction of the naive model.
    #[derive(Debug, Clone, Copy)]
    struct Inst {
        seq: u64,
        deps: [Option<u64>; 2],
        /// `(complete, wake)` once issued.
        issued: Option<(u64, u64)>,
        /// The event it waits for while parked.
        parked: Option<Park>,
    }

    /// Recomputes readiness from dependences every time, as the polling
    /// scheduler does.
    struct Model {
        head: u64,
        rob: VecDeque<Inst>,
    }

    impl Model {
        fn get(&self, seq: u64) -> Option<&Inst> {
            seq.checked_sub(self.head)
                .and_then(|i| self.rob.get(i as usize))
        }

        /// A producer's wake cycle, `Some(0)` once retired, `None` while
        /// it waits.
        fn wake(&self, seq: u64) -> Option<u64> {
            self.get(seq).map_or(Some(0), |p| p.issued.map(|(_, w)| w))
        }

        fn ready(&self, now: u64) -> Vec<u64> {
            self.rob
                .iter()
                .filter(|e| e.issued.is_none() && e.parked.is_none())
                .filter(|e| {
                    e.deps
                        .iter()
                        .flatten()
                        .all(|&d| self.wake(d).is_some_and(|w| w <= now))
                })
                .map(|e| e.seq)
                .collect()
        }
    }

    fn unpark_load_order(m: &mut Model) {
        for e in &mut m.rob {
            if e.parked == Some(Park::LoadOrder) {
                e.parked = None;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random dispatch, issue, retire, squash, park, unpark and clock
        /// sequences, with duplicate sources and late producers: after
        /// every step the waiting, ready and parked masks match the naive
        /// model (parked within waiting and apart from ready), `len` and
        /// the parked counts match its counts, and age order yields the
        /// model's ready set oldest first.
        #[test]
        fn masks_match_a_model_that_recomputes_readiness(
            cap in 0usize..CAPACITIES.len(),
            ops in prop::collection::vec((0u8..8, any::<u16>(), any::<u16>(), any::<u8>()), 1..400),
        ) {
            let cap = CAPACITIES[cap];
            let mut s = Scheduler::new(cap);
            let mut m = Model { head: 0, rob: VecDeque::new() };
            let mut now = 0u64;
            for (kind, a, b, c) in ops {
                let tail = m.head + m.rob.len() as u64;
                match kind {
                    0 | 1 if m.rob.len() < cap => {
                        let pick = |x: u16| -> Option<u64> {
                            let x = u64::from(x);
                            match x % 3 {
                                0 => None,
                                1 => m.head.checked_sub(1 + x / 3 % 4),
                                _ => m.rob.get((x / 3) as usize % m.rob.len().max(1)).map(|e| e.seq),
                            }
                        };
                        let d0 = pick(a);
                        let d1 = if c % 4 == 0 { d0 } else { pick(b) };
                        let deps = [d0, d1];
                        let srcs = deps.map(|d| {
                            let d = d?;
                            m.get(d)?;
                            Some((d, m.wake(d)))
                        });
                        s.dispatch(tail, srcs, now);
                        m.rob.push_back(Inst { seq: tail, deps, issued: None, parked: None });
                    }
                    2 => {
                        let ready = m.ready(now);
                        if let Some(&seq) = ready.get(a as usize % ready.len().max(1)) {
                            let complete = now + 1 + u64::from(c % 4);
                            let wake = complete + if b % 2 == 0 { 2 } else { 0 };
                            s.issue(seq, wake, now);
                            let i = (seq - m.head) as usize;
                            m.rob[i].issued = Some((complete, wake));
                            for e in &mut m.rob {
                                if e.parked == Some(Park::Store(seq)) {
                                    e.parked = None;
                                }
                            }
                        }
                    }
                    3 => {
                        if let Some(&Inst { seq, issued: Some((complete, wake)), .. }) = m.rob.front() {
                            if complete <= now {
                                m.rob.pop_front();
                                m.head += 1;
                                if wake > complete {
                                    s.relax(seq, now, |c| {
                                        let e = m.get(c).expect("consumer in flight");
                                        e.deps.iter().flatten()
                                            .filter_map(|&d| m.get(d)?.issued.map(|(_, w)| w))
                                            .fold(0, u64::max)
                                    });
                                }
                            }
                        }
                    }
                    4 if !m.rob.is_empty() => {
                        let victim = m.rob[a as usize % m.rob.len()].seq;
                        s.squash(m.head, victim, tail);
                        m.rob.truncate((victim - m.head) as usize);
                        unpark_load_order(&mut m);
                    }
                    5 => {
                        let ready = m.ready(now);
                        if let Some(&seq) = ready.get(a as usize % ready.len().max(1)) {
                            // A store in flight, one that never issues
                            // (retired or not yet fetched), or the
                            // load-order event.
                            let on = match c % 3 {
                                0 => Park::Store(m.rob[b as usize % m.rob.len()].seq),
                                1 => Park::Store(m.head + m.rob.len() as u64 + u64::from(b)),
                                _ => Park::LoadOrder,
                            };
                            s.park(seq, on);
                            m.rob[(seq - m.head) as usize].parked = Some(on);
                        }
                    }
                    6 => {
                        s.unpark_load_order();
                        unpark_load_order(&mut m);
                    }
                    _ => now += 1,
                }
                s.wake(now);
                let n = cap.next_power_of_two();
                let waiting = m.rob.iter().filter(|e| e.issued.is_none()).map(|e| s.slot(e.seq));
                let ready = m.ready(now);
                let waiting = bits(n, waiting);
                prop_assert_eq!(s.waiting_mask(), waiting.as_slice());
                prop_assert_eq!(s.len(), m.rob.iter().filter(|e| e.issued.is_none()).count());
                let parked: Vec<&Inst> = m.rob.iter().filter(|e| e.parked.is_some()).collect();
                let parked_bits = bits(n, parked.iter().map(|e| s.slot(e.seq)));
                prop_assert_eq!(s.parked_mask(), parked_bits.as_slice());
                for (w, &p) in s.parked_mask().iter().enumerate() {
                    prop_assert_eq!(p & !s.waiting_mask()[w], 0, "parked outside waiting");
                    prop_assert_eq!(p & s.ready_mask()[w], 0, "parked and ready");
                }
                for e in &parked {
                    prop_assert_eq!(s.parked_on(s.slot(e.seq)), e.parked);
                }
                let on_order = parked.iter().filter(|e| e.parked == Some(Park::LoadOrder)).count() as u64;
                prop_assert_eq!(s.parked_counts(), (parked.len() as u64 - on_order, on_order));
                let order: Vec<u64> =
                    age_order(s.ready_mask(), s.slot(m.head)).map(|x| s.seq_of(x)).collect();
                prop_assert_eq!(order, ready);
            }
        }
    }
}
