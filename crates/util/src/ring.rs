//! A fixed-capacity FIFO ring queue with stable *sequence numbers*.
//!
//! Hardware queues in the simulator (ROB, load queue, store queue, fetch
//! buffer) are circular buffers whose entries are identified by the
//! monotonically increasing sequence number of the instruction that
//! allocated them. [`RingQueue`] provides exactly that: push at the tail,
//! pop at the head, O(1) indexed access by sequence number, and truncation
//! from an arbitrary sequence number upward (the squash operation).

/// A fixed-capacity FIFO with monotonically increasing sequence numbers.
///
/// The first element ever pushed gets sequence number 0, the next 1, and so
/// on; sequence numbers are never reused even after pops (they model an
/// instruction's dynamic age). Squashing truncates the youngest entries.
///
/// # Examples
///
/// ```
/// use lsq_util::RingQueue;
///
/// let mut q: RingQueue<&str> = RingQueue::new(2);
/// assert_eq!(q.push("a"), Some(0));
/// assert_eq!(q.push("b"), Some(1));
/// assert_eq!(q.push("c"), None); // full
/// assert_eq!(q.pop(), Some((0, "a")));
/// assert_eq!(q.push("c"), Some(2));
/// assert_eq!(q.get(2), Some(&"c"));
/// ```
#[derive(Debug, Clone)]
pub struct RingQueue<T> {
    /// Slot storage, rounded up to a power of two so that a sequence
    /// number maps to its slot with a mask instead of a division.
    slots: Vec<Option<T>>,
    /// `slots.len() - 1`.
    mask: u64,
    /// Logical capacity: at most this many elements are held, however
    /// many slots back them.
    capacity: usize,
    /// Sequence number of the head (oldest) element.
    head: u64,
    /// Sequence number the next push will receive.
    tail: u64,
}

impl<T> RingQueue<T> {
    /// Creates an empty queue that can hold `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RingQueue capacity must be non-zero");
        let len = capacity.next_power_of_two();
        Self {
            slots: (0..len).map(|_| None).collect(),
            mask: len as u64 - 1,
            capacity,
            head: 0,
            tail: 0,
        }
    }

    /// Number of elements currently held.
    #[inline]
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// Whether the queue holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Whether the queue is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    /// Total capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free slots remaining.
    #[inline]
    pub fn free(&self) -> usize {
        self.capacity() - self.len()
    }

    /// Sequence number of the oldest element, if any.
    #[inline]
    pub fn head_seq(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.head)
    }

    /// Sequence number the next push will receive.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.tail
    }

    #[inline]
    fn slot_of(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// Pushes an element at the tail, returning its sequence number, or
    /// `None` if the queue is full (the element is dropped in that case —
    /// callers check [`Self::is_full`] first in the simulator).
    pub fn push(&mut self, value: T) -> Option<u64> {
        if self.is_full() {
            return None;
        }
        let seq = self.tail;
        let slot = self.slot_of(seq);
        debug_assert!(self.slots[slot].is_none());
        self.slots[slot] = Some(value);
        self.tail += 1;
        Some(seq)
    }

    /// Pops the oldest element together with its sequence number.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.is_empty() {
            return None;
        }
        let seq = self.head;
        let slot = self.slot_of(seq);
        // lsq-lint: allow(no-unwrap-in-lib, reason = "the head slot is occupied whenever len > 0, checked above")
        let value = self.slots[slot].take().expect("head slot occupied");
        self.head += 1;
        Some((seq, value))
    }

    /// Returns a reference to the element with sequence number `seq` if it
    /// is still in the queue.
    pub fn get(&self, seq: u64) -> Option<&T> {
        if seq < self.head || seq >= self.tail {
            return None;
        }
        self.slots[self.slot_of(seq)].as_ref()
    }

    /// Returns a mutable reference to the element with sequence number
    /// `seq` if it is still in the queue.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        if seq < self.head || seq >= self.tail {
            return None;
        }
        let slot = self.slot_of(seq);
        self.slots[slot].as_mut()
    }

    /// Returns a reference to the oldest element.
    pub fn front(&self) -> Option<&T> {
        self.get(self.head)
    }

    /// Removes every element with sequence number `>= from_seq` (the squash
    /// operation) and returns how many were removed.
    pub fn truncate_from(&mut self, from_seq: u64) -> usize {
        let from = from_seq.max(self.head);
        if from >= self.tail {
            return 0;
        }
        let removed = (self.tail - from) as usize;
        for seq in from..self.tail {
            let slot = self.slot_of(seq);
            self.slots[slot] = None;
        }
        self.tail = from;
        removed
    }

    /// Iterates over `(sequence, &element)` pairs from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.head..self.tail).map(move |seq| {
            (
                seq,
                self.slots[self.slot_of(seq)]
                    .as_ref()
                    // lsq-lint: allow(no-unwrap-in-lib, reason = "iteration stays within the live range, whose slots are all occupied")
                    .expect("occupied slot in live range"),
            )
        })
    }

    /// Iterates over `(sequence, &mut element)` pairs oldest → youngest.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        let head = self.head;
        let mask = self.mask;
        let len = self.len();
        // Split via raw pointer: sequence→slot mapping never aliases within
        // head..tail because len <= capacity <= slots.
        let base = self.slots.as_mut_ptr();
        (0..len).map(move |i| {
            let seq = head + i as u64;
            let slot = (seq & mask) as usize;
            // SAFETY: each slot index in head..tail is distinct (at most
            // len <= capacity <= slots.len() consecutive seqs, masked by
            // slots.len() - 1) and in bounds, so we hand out at most one
            // &mut per slot, and the iterator borrows self mutably for
            // its whole lifetime.
            // lsq-lint: allow(no-unwrap-in-lib, reason = "live-range slots are occupied (same invariant the unsafe block documents)")
            let r = unsafe { (*base.add(slot)).as_mut().expect("occupied slot") };
            (seq, r)
        })
    }

    /// Removes all elements and resets sequence numbering.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.head = 0;
        self.tail = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = RingQueue::<u32>::new(0);
    }

    #[test]
    fn push_pop_fifo_order() {
        let mut q = RingQueue::new(4);
        for i in 0..4 {
            assert_eq!(q.push(i), Some(i as u64));
        }
        assert!(q.is_full());
        assert_eq!(q.push(9), None);
        for i in 0..4 {
            assert_eq!(q.pop(), Some((i as u64, i)));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn sequence_numbers_never_reused() {
        let mut q = RingQueue::new(2);
        q.push('a');
        q.push('b');
        q.pop();
        assert_eq!(q.push('c'), Some(2));
        q.pop();
        q.pop();
        assert_eq!(q.push('d'), Some(3));
    }

    #[test]
    fn get_by_sequence() {
        let mut q = RingQueue::new(3);
        q.push(10);
        q.push(20);
        q.pop();
        q.push(30);
        q.push(40);
        assert_eq!(q.get(0), None); // popped
        assert_eq!(q.get(1), Some(&20));
        assert_eq!(q.get(3), Some(&40));
        assert_eq!(q.get(4), None); // not yet pushed
        *q.get_mut(1).unwrap() = 21;
        assert_eq!(q.get(1), Some(&21));
    }

    #[test]
    fn truncate_from_squashes_young_entries() {
        let mut q = RingQueue::new(8);
        for i in 0..6 {
            q.push(i);
        }
        assert_eq!(q.truncate_from(3), 3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.get(3), None);
        assert_eq!(q.get(2), Some(&2));
        // Pushing after a squash reuses the freed sequence numbers, which
        // models refetching the squashed instructions.
        assert_eq!(q.push(33), Some(3));
    }

    #[test]
    fn truncate_edge_cases() {
        let mut q = RingQueue::new(4);
        q.push(1);
        q.push(2);
        assert_eq!(q.truncate_from(10), 0); // beyond tail
        q.pop();
        assert_eq!(q.truncate_from(0), 1); // clamped to head
        assert!(q.is_empty());
    }

    #[test]
    fn iter_yields_oldest_to_youngest() {
        let mut q = RingQueue::new(3);
        q.push('x');
        q.push('y');
        q.pop();
        q.push('z');
        q.push('w'); // wraps
        let v: Vec<_> = q.iter().collect();
        assert_eq!(v, vec![(1, &'y'), (2, &'z'), (3, &'w')]);
    }

    #[test]
    fn iter_mut_allows_in_place_updates() {
        let mut q = RingQueue::new(4);
        for i in 0..4 {
            q.push(i);
        }
        for (_, v) in q.iter_mut() {
            *v *= 10;
        }
        let v: Vec<_> = q.iter().map(|(_, v)| *v).collect();
        assert_eq!(v, vec![0, 10, 20, 30]);
    }

    #[test]
    fn clear_resets_numbering() {
        let mut q = RingQueue::new(2);
        q.push(1);
        q.push(2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.push(3), Some(0));
    }

    #[test]
    fn front_and_head_seq() {
        let mut q = RingQueue::new(2);
        assert_eq!(q.head_seq(), None);
        assert_eq!(q.front(), None);
        q.push(5);
        assert_eq!(q.head_seq(), Some(0));
        assert_eq!(q.front(), Some(&5));
    }

    #[test]
    fn odd_capacities_keep_their_logical_size_across_wraparounds() {
        // Slots round up to a power of two; the queue must still fill at
        // exactly `capacity` and map every live seq to its own value.
        for cap in [1usize, 3, 100, 255] {
            let mut q = RingQueue::new(cap);
            let mut model = std::collections::VecDeque::new();
            let mut next = 0u64;
            for round in 0..7u64 {
                while !q.is_full() {
                    assert_eq!(q.push(next * 10), Some(next));
                    model.push_back(next);
                    next += 1;
                }
                assert_eq!(q.capacity(), cap);
                assert_eq!(q.len(), cap);
                assert_eq!(q.free(), 0);
                assert_eq!(q.push(0), None, "cap {cap}: full at its capacity");
                // Pop a varying share, then squash part of the rest.
                for _ in 0..=(round as usize * 37) % cap {
                    let s = model.pop_front().unwrap();
                    assert_eq!(q.pop(), Some((s, s * 10)));
                }
                if let Some(&mid) = model.get(model.len() / 2) {
                    let removed = model.len() - model.len() / 2;
                    assert_eq!(q.truncate_from(mid), removed);
                    model.truncate(model.len() / 2);
                    next = mid;
                }
                assert_eq!(q.len(), model.len());
                assert_eq!(q.free(), cap - model.len());
                assert!(!q.is_full());
                for &s in &model {
                    assert_eq!(q.get(s), Some(&(s * 10)), "cap {cap} seq {s}");
                }
                assert_eq!(q.get(next), None);
                assert!(model
                    .front()
                    .is_none_or(|&h| h == 0 || q.get(h - 1).is_none()));
            }
        }
    }

    #[test]
    fn heavy_wraparound_consistency() {
        let mut q = RingQueue::new(5);
        let mut expect_head = 0u64;
        let mut next = 0u64;
        for round in 0..1000u64 {
            while !q.is_full() {
                assert_eq!(q.push(next), Some(next));
                next += 1;
            }
            let pops = 1 + (round % 5) as usize;
            for _ in 0..pops.min(q.len()) {
                let (s, v) = q.pop().unwrap();
                assert_eq!(s, v);
                assert_eq!(s, expect_head);
                expect_head += 1;
            }
        }
    }
}
