//! The engine's event queue: a tick-bucketed calendar queue with a
//! binary-heap overflow.
//!
//! Dispatch order is the deterministic `(time, insertion sequence)` order
//! the engine has always used; the calendar queue reproduces it
//! byte-for-byte (a property the equivalence tests and
//! `tests/trace_determinism.rs` assert) while turning the dominant
//! push/pop pattern — deliveries a small bounded latency ahead of `now` —
//! into O(1) array operations instead of `BTreeMap` node traffic.
//!
//! Two dequeue shapes are offered: the per-event
//! [`CalendarQueue::pop_at_or_before`] (the pre-batching hot path, kept
//! for the `SimConfig::legacy_hot_path` baseline), and the batched
//! [`CalendarQueue::take_tick`], which hands over **every** event of the
//! earliest tick in one bucket-storage swap so the engine pays the window-advance,
//! overflow-migration and occupancy-scan costs once per tick instead of
//! once per event. Both dequeue in exactly the same `(time, seq)` order;
//! the queue tests prove them equivalent against a `BTreeMap` reference
//! model.
//!
//! # Design
//!
//! * A ring of [`WHEEL_TICKS`] buckets indexed by `tick % WHEEL_TICKS`
//!   covers the sliding window `[window, window + WHEEL_TICKS)`. Network
//!   latencies and timer delays are small bounded spans, so almost every
//!   event lands here. Each bucket is a `Vec` kept in insertion-sequence
//!   order (a binary search protects the rare out-of-order migration).
//! * Only occupied buckets own storage. A bucket that empties — drained
//!   by [`CalendarQueue::pop`] or [`CalendarQueue::take_tick`], or
//!   cleared by [`CalendarQueue::reset`] or `clone_from` — parks its
//!   storage on a free list, and a bucket that fills takes storage from
//!   it. A buffer therefore lives in exactly one of three places: an
//!   occupied bucket, the `take_tick` caller's batch, or the free list.
//!   The number of buffers is bounded by the peak number of ticks
//!   occupied at once, plus one for the caller's batch — a few dozen on
//!   the engine's latency and timer spans, not one per ring bucket — so
//!   retained storage follows the live event set, not the run's length.
//! * An occupancy bitmap (one bit per bucket) finds the next nonempty
//!   tick with word-level scans instead of walking empty buckets.
//! * Events beyond the window go to a `BinaryHeap` keyed by
//!   `(time, seq)` and migrate into the ring when the window reaches
//!   them, so cross-structure ordering can never interleave wrongly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use homonym_core::time::Time;

/// Ring capacity in ticks. Power of two so the bucket index is a mask.
const WHEEL_TICKS: u64 = 1024;
/// Words of the occupancy bitmap.
const WHEEL_WORDS: usize = (WHEEL_TICKS / 64) as usize;

/// An event too far in the future for the ring.
#[derive(Clone)]
struct FarEvent<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for FarEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for FarEvent<E> {}
impl<E> PartialOrd for FarEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for FarEvent<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Bucket storage: `(seq, event)` entries; popped slots hold `None`.
type Slots<E> = Vec<(u64, Option<E>)>;

/// A ring bucket: `(seq, event)` entries sorted by `seq`, popped from
/// `head` so dequeuing is O(1) without shifting. Popped slots hold
/// `None`; once fully drained the bucket hands its storage to the free
/// list, so an empty bucket owns no allocation.
struct Bucket<E> {
    head: usize,
    items: Slots<E>,
}

impl<E: Clone> Clone for Bucket<E> {
    fn clone(&self) -> Self {
        Bucket {
            head: self.head,
            items: self.items.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.head = source.head;
        self.items.clone_from(&source.items);
    }
}

impl<E> Bucket<E> {
    const fn new() -> Self {
        Bucket {
            head: 0,
            items: Vec::new(),
        }
    }

    fn is_drained(&self) -> bool {
        self.head >= self.items.len()
    }

    /// Gives a bucket without storage a buffer from the free list, so
    /// the push that follows reuses a parked allocation.
    #[inline]
    fn claim_storage(&mut self, free: &mut Vec<Slots<E>>) {
        if self.items.capacity() == 0 {
            if let Some(items) = free.pop() {
                self.items = items;
            }
        }
    }

    /// Empties the bucket, parking its storage on the free list (a
    /// zero-capacity vector owns no allocation and is simply dropped).
    fn release(&mut self, free: &mut Vec<Slots<E>>) {
        self.head = 0;
        let mut items = std::mem::take(&mut self.items);
        if items.capacity() > 0 {
            items.clear();
            free.push(items);
        }
    }
}

/// Calendar queue dispatching in exact `(time, seq)` order.
pub(crate) struct CalendarQueue<E> {
    buckets: Vec<Bucket<E>>,
    occupied: [u64; WHEEL_WORDS],
    /// Events currently stored in the ring.
    ring_len: usize,
    /// Lowest tick the ring can currently hold; advances monotonically.
    window: u64,
    /// Memoized next-event tick, so the engine's peek-then-pop pattern
    /// scans the occupancy bitmap once per event instead of twice.
    next_tick: Option<u64>,
    overflow: BinaryHeap<Reverse<FarEvent<E>>>,
    /// Empty buffers parked by drained buckets, reused by filling ones.
    free: Vec<Slots<E>>,
}

/// Snapshot support: the queue clones bucket by bucket, preserving its
/// exact internal state (window position, partially drained buckets,
/// overflow heap), so a restored engine replays the identical `(time,
/// seq)` dequeue sequence. A clone allocates storage only for occupied
/// buckets and starts with an empty free list. `clone_from` reuses the
/// destination's allocations — buckets the source leaves empty park
/// their storage, buckets it fills draw from the free list — so the
/// snapshot/restore hot path of the prefix-sharing sweep executor
/// recycles one set of buffers instead of reallocating per fork.
impl<E: Clone> Clone for CalendarQueue<E> {
    fn clone(&self) -> Self {
        CalendarQueue {
            buckets: self.buckets.clone(),
            occupied: self.occupied,
            ring_len: self.ring_len,
            window: self.window,
            next_tick: self.next_tick,
            overflow: self.overflow.clone(),
            free: Vec::new(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        for (dst, src) in self.buckets.iter_mut().zip(&source.buckets) {
            if src.items.is_empty() {
                dst.release(&mut self.free);
            } else {
                dst.claim_storage(&mut self.free);
                dst.clone_from(src);
            }
        }
        self.occupied = source.occupied;
        self.ring_len = source.ring_len;
        self.window = source.window;
        self.next_tick = source.next_tick;
        self.overflow.clone_from(&source.overflow);
    }
}

impl<E> CalendarQueue<E> {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            buckets: (0..WHEEL_TICKS).map(|_| Bucket::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            ring_len: 0,
            window: 0,
            next_tick: None,
            overflow: BinaryHeap::new(),
            free: Vec::new(),
        }
    }

    /// Whether no events remain (used by the queue tests; the engines
    /// detect quiescence through `peek_time`).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_empty(&self) -> bool {
        self.ring_len == 0 && self.overflow.is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    fn set_occupied(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1 << (idx % 64);
    }

    fn clear_occupied(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1 << (idx % 64));
    }

    /// Inserts an event; `at` must be `>= window` (the engine only
    /// schedules at or after the current time, which the window trails).
    #[inline]
    pub(crate) fn push(&mut self, at: Time, seq: u64, event: E) {
        let at = at.ticks();
        debug_assert!(at >= self.window, "event scheduled before the window");
        if at - self.window < WHEEL_TICKS {
            let idx = (at % WHEEL_TICKS) as usize;
            let bucket = &mut self.buckets[idx];
            bucket.claim_storage(&mut self.free);
            // In-order fast path: sequences are handed out monotonically,
            // so appends keep the bucket sorted by seq.
            match bucket.items.last() {
                Some(&(last_seq, _)) if last_seq > seq => {
                    let pos = bucket
                        .items
                        .partition_point(|(s, _)| *s < seq)
                        .max(bucket.head);
                    bucket.items.insert(pos, (seq, Some(event)));
                }
                _ => bucket.items.push((seq, Some(event))),
            }
            self.set_occupied(idx);
            self.ring_len += 1;
            if self.next_tick.is_some_and(|next| at < next) {
                self.next_tick = Some(at);
            }
        } else {
            // Overflow events sit at or beyond `window + WHEEL_TICKS`,
            // which a memoized ring tick never exceeds, so the memo
            // stays valid.
            self.overflow.push(Reverse(FarEvent { at, seq, event }));
        }
    }

    /// Append-only insert for callers that push in globally increasing
    /// `seq` order (the engine always does: sequences are handed out
    /// monotonically and a bucket never holds two ticks at once, so the
    /// out-of-order guard in [`CalendarQueue::push`] can never fire).
    /// Skips the tail-sequence load and compare on the hottest store of
    /// the simulator; the batched engine path uses this, the legacy path
    /// keeps the guarded [`CalendarQueue::push`] shape.
    #[inline]
    pub(crate) fn push_in_order(&mut self, at: Time, seq: u64, event: E) {
        let at = at.ticks();
        debug_assert!(at >= self.window, "event scheduled before the window");
        if at - self.window < WHEEL_TICKS {
            let idx = (at % WHEEL_TICKS) as usize;
            let bucket = &mut self.buckets[idx];
            bucket.claim_storage(&mut self.free);
            debug_assert!(
                bucket.items.last().is_none_or(|&(last, _)| last < seq),
                "push_in_order caller violated seq monotonicity"
            );
            bucket.items.push((seq, Some(event)));
            self.set_occupied(idx);
            self.ring_len += 1;
            if self.next_tick.is_some_and(|next| at < next) {
                self.next_tick = Some(at);
            }
        } else {
            self.overflow.push(Reverse(FarEvent { at, seq, event }));
        }
    }

    /// Moves overflow events that now fit the window into the ring.
    fn migrate_overflow(&mut self) {
        while let Some(Reverse(far)) = self.overflow.peek() {
            if far.at - self.window >= WHEEL_TICKS {
                break;
            }
            let Reverse(far) = self.overflow.pop().expect("peeked");
            // Ring pushes bypass `push` to avoid re-checking the window.
            let idx = (far.at % WHEEL_TICKS) as usize;
            let bucket = &mut self.buckets[idx];
            bucket.claim_storage(&mut self.free);
            let pos = bucket
                .items
                .partition_point(|(s, _)| *s < far.seq)
                .max(bucket.head);
            bucket.items.insert(pos, (far.seq, Some(far.event)));
            self.set_occupied(idx);
            self.ring_len += 1;
        }
    }

    /// The tick of the earliest ring event, scanning the occupancy
    /// bitmap from `window` forward (with wraparound).
    fn earliest_ring_tick(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        let start = (self.window % WHEEL_TICKS) as usize;
        let mut best: Option<u64> = None;
        for step in 0..=WHEEL_WORDS {
            // Scan words starting at `start`'s word; the first and last
            // word need partial masks to respect the window rotation.
            let word_idx = (start / 64 + step) % WHEEL_WORDS;
            let mut word = self.occupied[word_idx];
            if step == 0 {
                word &= !0u64 << (start % 64);
            } else if step == WHEEL_WORDS {
                word &= !(!0u64 << (start % 64));
            }
            if word != 0 {
                let bit = word_idx * 64 + word.trailing_zeros() as usize;
                let offset = (bit as u64 + WHEEL_TICKS - start as u64) % WHEEL_TICKS;
                best = Some(self.window + offset);
                break;
            }
        }
        best
    }

    /// Time of the next event without removing it.
    #[inline]
    pub(crate) fn peek_time(&mut self) -> Option<Time> {
        if let Some(next) = self.next_tick {
            return Some(Time::from_ticks(next));
        }
        if self.ring_len == 0 {
            // Jump the window straight to the overflow's earliest event.
            let far_at = self.overflow.peek().map(|Reverse(f)| f.at)?;
            self.window = far_at;
        }
        self.migrate_overflow();
        self.next_tick = self.earliest_ring_tick();
        self.next_tick.map(Time::from_ticks)
    }

    /// Removes and returns the earliest event as `(time, seq, event)`.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(Time, u64, E)> {
        let at = self.peek_time()?.ticks();
        if self.window < at {
            self.window = at;
            // Advancing the window may have pulled more overflow events
            // into range at this same tick.
            self.migrate_overflow();
        }
        let idx = (at % WHEEL_TICKS) as usize;
        let bucket = &mut self.buckets[idx];
        debug_assert!(!bucket.is_drained(), "occupancy bit without items");
        let head = bucket.head;
        bucket.head += 1;
        let slot = &mut bucket.items[head];
        let seq = slot.0;
        let event = slot.1.take().expect("slot popped twice");
        if bucket.is_drained() {
            bucket.release(&mut self.free);
            self.clear_occupied(idx);
            self.next_tick = None;
        }
        self.ring_len -= 1;
        Some((Time::from_ticks(at), seq, event))
    }

    /// Pops the earliest event only when it is at or before `deadline` —
    /// the per-event run-loop pattern, fused so the queue resolves its
    /// memoized next tick once per event. This is the
    /// `SimConfig::legacy_hot_path` dequeue shape.
    #[inline]
    pub(crate) fn pop_at_or_before(&mut self, deadline: Time) -> Option<(Time, u64, E)> {
        if self.peek_time()? > deadline {
            return None;
        }
        self.pop()
    }

    /// Takes **every** event of the earliest tick at or before `deadline`
    /// by swapping the tick's bucket storage into `out` (entries in
    /// `(seq)` order; popped slots are `None`), and returns that tick's
    /// time; `None` when the queue is empty or the earliest event lies
    /// beyond the deadline (`out` is untouched then).
    ///
    /// `out` must arrive empty: its storage goes onto the queue's free
    /// list and the drained bucket is left without any, so the caller
    /// hands its (cleared) buffer back on the next call and buffers
    /// circulate between the caller, the free list and the occupied
    /// buckets without reallocation. The queue never keeps storage in an
    /// empty bucket, so what it retains is bounded by the peak number of
    /// ticks occupied at once, not by the ring size.
    ///
    /// This is the batched dequeue: window advance, overflow migration
    /// and the occupancy-bitmap scan happen once per *tick*, the handoff
    /// is an O(1) pointer swap, and each event is moved exactly once (by
    /// the caller, out of the swapped buffer). No event can be scheduled
    /// *at* the tick being drained (the engine only schedules strictly
    /// after `now`), so the drain can never miss a same-tick straggler.
    ///
    /// Returns the index of the first live slot (`> 0` only if per-event
    /// pops already consumed a prefix of the tick) along with the time.
    pub(crate) fn take_tick(
        &mut self,
        deadline: Time,
        out: &mut Vec<(u64, Option<E>)>,
    ) -> Option<(Time, usize)> {
        debug_assert!(out.is_empty());
        let at = self.peek_time()?;
        if at > deadline {
            return None;
        }
        let at = at.ticks();
        if self.window < at {
            self.window = at;
            // Advancing the window may pull more overflow events into
            // range at this same tick.
            self.migrate_overflow();
        }
        let idx = (at % WHEEL_TICKS) as usize;
        let bucket = &mut self.buckets[idx];
        debug_assert!(!bucket.is_drained(), "occupancy bit without items");
        let live = bucket.items.len() - bucket.head;
        let head = bucket.head;
        std::mem::swap(&mut bucket.items, out);
        bucket.release(&mut self.free);
        self.clear_occupied(idx);
        self.next_tick = None;
        self.ring_len -= live;
        Some((Time::from_ticks(at), head))
    }

    /// Every queued event as `(tick, seq, event)` in dispatch order —
    /// the queue's representation-independent content, for the durable
    /// snapshot codec. Window position, bucket layout and the
    /// ring/overflow split are reconstruction details: only the
    /// `(time, seq)` dispatch order is observable (the invariant the
    /// reference-model tests pin), and
    /// [`CalendarQueue::from_persist_entries`] reproduces it exactly by
    /// replaying the entries through [`CalendarQueue::push`].
    pub(crate) fn persist_entries(&self) -> Vec<(u64, u64, &E)> {
        let mut out: Vec<(u64, u64, &E)> = Vec::with_capacity(self.len());
        let base = self.window % WHEEL_TICKS;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            // A live bucket holds exactly one tick of the current
            // window: the tick ≡ idx (mod WHEEL_TICKS) in
            // [window, window + WHEEL_TICKS).
            let tick = self.window + (idx as u64 + WHEEL_TICKS - base) % WHEEL_TICKS;
            for (seq, slot) in &bucket.items[bucket.head..] {
                let event = slot.as_ref().expect("live slot past head");
                out.push((tick, *seq, event));
            }
        }
        for Reverse(far) in &self.overflow {
            out.push((far.at, far.seq, &far.event));
        }
        out.sort_by_key(|&(at, seq, _)| (at, seq));
        out
    }

    /// Rebuilds a queue from [`CalendarQueue::persist_entries`] output
    /// (entries must be in `(tick, seq)` order).
    pub(crate) fn from_persist_entries(entries: impl IntoIterator<Item = (u64, u64, E)>) -> Self {
        let mut q = CalendarQueue::new();
        for (at, seq, event) in entries {
            q.push(Time::from_ticks(at), seq, event);
        }
        q
    }

    /// Returns the queue to its freshly-constructed state while keeping
    /// every bucket allocation on the free list, so a sweep can reuse
    /// one queue across runs (see `EngineArena`).
    pub(crate) fn reset(&mut self) {
        for bucket in &mut self.buckets {
            bucket.release(&mut self.free);
        }
        self.occupied = [0; WHEEL_WORDS];
        self.ring_len = 0;
        self.window = 0;
        self.next_tick = None;
        self.overflow.clear();
    }

    /// Slot capacity the queue holds: every bucket's storage plus the
    /// free list (overflow heap excluded).
    #[cfg(test)]
    fn retained_slots(&self) -> usize {
        let buckets: usize = self.buckets.iter().map(|b| b.items.capacity()).sum();
        buckets + self.free.iter().map(Vec::capacity).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(Time::from_ticks(5), 2, "b");
        q.push(Time::from_ticks(5), 1, "a");
        q.push(Time::from_ticks(3), 3, "c");
        assert_eq!(q.peek_time(), Some(Time::from_ticks(3)));
        assert_eq!(q.pop(), Some((Time::from_ticks(3), 3, "c")));
        assert_eq!(q.pop(), Some((Time::from_ticks(5), 1, "a")));
        assert_eq!(q.pop(), Some((Time::from_ticks(5), 2, "b")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_events_merge_in_order() {
        let mut q = CalendarQueue::new();
        // Far event first (small seq), near event later (large seq).
        q.push(Time::from_ticks(WHEEL_TICKS * 3), 1, "far");
        q.push(Time::from_ticks(2), 2, "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Time::from_ticks(2), 2, "near")));
        assert_eq!(q.pop(), Some((Time::from_ticks(WHEEL_TICKS * 3), 1, "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn same_tick_across_ring_and_overflow_respects_seq() {
        let mut q = CalendarQueue::new();
        let t = WHEEL_TICKS + 7;
        // Goes to overflow (beyond the initial window)...
        q.push(Time::from_ticks(t), 1, "overflowed");
        // ...advance the window by draining an early event...
        q.push(Time::from_ticks(WHEEL_TICKS - 1), 2, "early");
        assert_eq!(q.pop().unwrap().2, "early");
        // ...now the same tick is in the window: ring insert, larger seq.
        q.push(Time::from_ticks(t), 3, "ringed");
        assert_eq!(q.pop(), Some((Time::from_ticks(t), 1, "overflowed")));
        assert_eq!(q.pop(), Some((Time::from_ticks(t), 3, "ringed")));
    }

    #[test]
    fn window_jumps_over_long_gaps() {
        let mut q = CalendarQueue::new();
        q.push(Time::from_ticks(10), 1, 'x');
        assert_eq!(q.pop(), Some((Time::from_ticks(10), 1, 'x')));
        q.push(Time::from_ticks(500_000), 2, 'y');
        assert_eq!(q.peek_time(), Some(Time::from_ticks(500_000)));
        assert_eq!(q.pop(), Some((Time::from_ticks(500_000), 2, 'y')));
    }

    #[test]
    fn wraparound_keeps_ordering() {
        let mut q = CalendarQueue::new();
        let mut seq = 0;
        // Drive the window through several full wheel revolutions.
        let mut expected = Vec::new();
        for round in 0..5u64 {
            for offset in [1u64, 13, 700, 1023] {
                let t = round * WHEEL_TICKS + offset;
                q.push(Time::from_ticks(t), seq, (t, seq));
                expected.push((t, seq));
                seq += 1;
            }
            // Drain this round before scheduling the next (mirrors the
            // engine, whose pushes never precede `now`).
            while q
                .peek_time()
                .is_some_and(|t| t.ticks() <= (round + 1) * WHEEL_TICKS)
            {
                let (t, s, payload) = q.pop().unwrap();
                assert_eq!(payload, (t.ticks(), s));
            }
        }
        while let Some((t, s, payload)) = q.pop() {
            assert_eq!(payload, (t.ticks(), s));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn drop_with_partially_drained_bucket_is_sound() {
        let mut q = CalendarQueue::new();
        q.push(Time::from_ticks(1), 0, String::from("a"));
        q.push(Time::from_ticks(1), 1, String::from("b"));
        q.push(Time::from_ticks(9), 2, String::from("c"));
        assert_eq!(q.pop().unwrap().2, "a");
        drop(q); // must not double-drop "a"
    }

    /// The calendar queue against a `BTreeMap` model under a random mix
    /// of pushes near and far, per-event pops, batched tick drains,
    /// resets, and snapshot/restore round-trips through `clone` and
    /// `clone_from` — every path that moves bucket storage between the
    /// ring, the caller's batch and the free list.
    #[test]
    fn reference_model_and_calendar_agree_on_random_workloads() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        type Model = BTreeMap<(Time, u64), u64>;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cal = CalendarQueue::new();
            let mut reference: Model = BTreeMap::new();
            let mut saved: Option<(CalendarQueue<u64>, Model, u64)> = None;
            let mut batch: Vec<(u64, Option<u64>)> = Vec::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for op in 0..2_000 {
                let roll = if cal.is_empty() {
                    0
                } else {
                    rng.gen_range(0..100u32)
                };
                match roll {
                    // Mixed pushes near and far...
                    0..=54 => {
                        let horizon: u64 = if rng.gen_bool(0.9) {
                            rng.gen_range(0..64)
                        } else {
                            rng.gen_range(0..WHEEL_TICKS * 4)
                        };
                        let at = Time::from_ticks(now + horizon);
                        cal.push(at, seq, seq);
                        reference.insert((at, seq), seq);
                        seq += 1;
                    }
                    // ...interleaved with per-event pops...
                    55..=74 => {
                        assert_eq!(
                            cal.peek_time(),
                            reference.first_key_value().map(|(&(t, _), _)| t)
                        );
                        let a = cal.pop();
                        let b = reference.pop_first().map(|((t, s), e)| (t, s, e));
                        assert_eq!(a, b, "diverged at op {op} of seed {seed}");
                        if let Some((t, _, _)) = a {
                            now = t.ticks();
                        }
                    }
                    // ...batched drains of one tick...
                    75..=92 => {
                        let deadline = Time::from_ticks(now + rng.gen_range(0..64));
                        let next = reference.first_key_value().map(|(&(t, _), _)| t);
                        batch.clear();
                        match cal.take_tick(deadline, &mut batch) {
                            None => {
                                let next = next.expect("take_tick on a nonempty queue");
                                assert!(next > deadline, "drain missed a due tick (seed {seed})");
                                // Peeking may have jumped the window to
                                // the next event; later pushes follow it.
                                now = next.ticks();
                            }
                            Some((t, head)) => {
                                assert_eq!(Some(t), next);
                                for (s, e) in batch.drain(head..) {
                                    let e = e.expect("live slot past head");
                                    assert_eq!(reference.pop_first(), Some(((t, s), e)));
                                }
                                assert!(
                                    reference.first_key_value().is_none_or(|(&(u, _), _)| u > t),
                                    "drain left a same-tick event (op {op} of seed {seed})"
                                );
                                now = t.ticks();
                            }
                        }
                    }
                    // ...snapshots (a clone once, then refills)...
                    93..=95 => match saved.as_mut() {
                        None => saved = Some((cal.clone(), reference.clone(), now)),
                        Some((q, model, at)) => {
                            q.clone_from(&cal);
                            model.clone_from(&reference);
                            *at = now;
                        }
                    },
                    // ...restores of the last snapshot...
                    96..=98 => {
                        if let Some((q, model, at)) = &saved {
                            cal.clone_from(q);
                            reference.clone_from(model);
                            now = *at;
                        }
                    }
                    // ...and resets.
                    _ => {
                        cal.reset();
                        reference.clear();
                    }
                }
                assert_eq!(cal.len(), reference.len());
                assert!(
                    cal.buckets
                        .iter()
                        .all(|b| !b.items.is_empty() || b.items.capacity() == 0),
                    "an empty bucket kept its storage (op {op} of seed {seed})"
                );
            }
            while !reference.is_empty() {
                assert_eq!(
                    cal.pop(),
                    reference.pop_first().map(|((t, s), e)| (t, s, e))
                );
            }
            assert!(cal.is_empty());
        }
    }

    /// Retained storage follows the ticks occupied at once, not the ring
    /// size: a burst of events lands on each of thousands of consecutive
    /// ticks (spread over a few ticks of latency), drained mostly through
    /// `take_tick` with one cycling caller buffer and sometimes through
    /// per-event pops. Every ring bucket sees a burst, yet the queue must
    /// keep only a handful of bursts' worth of slots.
    #[test]
    fn retained_storage_is_bounded_by_occupied_ticks() {
        const BURST: usize = 32;
        const SPREAD: u64 = 8;
        let mut q = CalendarQueue::new();
        let mut batch: Vec<(u64, Option<u64>)> = Vec::new();
        let mut seq = 0u64;
        for now in 0..4 * WHEEL_TICKS {
            for i in 0..BURST as u64 {
                q.push_in_order(Time::from_ticks(now + 1 + i % SPREAD), seq, seq);
                seq += 1;
            }
            let deadline = Time::from_ticks(now + 1);
            let mut drained = 0;
            if now % 5 == 0 {
                while let Some((t, _, _)) = q.pop_at_or_before(deadline) {
                    assert_eq!(t, deadline);
                    drained += 1;
                }
            } else {
                batch.clear();
                let (t, head) = q.take_tick(deadline, &mut batch).expect("a due tick");
                assert_eq!(t, deadline);
                drained = batch.len() - head;
            }
            // Each tick collects BURST / SPREAD events from each of the
            // (up to) SPREAD bursts before it.
            let expected = BURST as u64 / SPREAD * (now + 1).min(SPREAD);
            assert_eq!(drained as u64, expected);
            assert!(
                q.retained_slots() <= 16 * BURST,
                "{} slots retained at tick {now} (burst {BURST})",
                q.retained_slots()
            );
        }
    }

    /// The batched tick drain must hand back exactly what repeated
    /// per-event pops would, in the same order, across random workloads
    /// that exercise the ring, the overflow heap and window jumps.
    #[test]
    fn pop_tick_into_matches_per_event_pops() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
            let mut batched = CalendarQueue::new();
            let mut single = CalendarQueue::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut buf: Vec<(u64, Option<u64>)> = Vec::new();
            for _ in 0..400 {
                // Respect the engine contract (never schedule before the
                // window): peeking may jump the window to the overflow
                // head, so follow it before pushing relative to `now`.
                if let Some(t) = batched.peek_time() {
                    assert_eq!(single.peek_time(), Some(t));
                    now = now.max(t.ticks());
                }
                // A burst of pushes at assorted horizons...
                for _ in 0..rng.gen_range(1..8u32) {
                    let horizon: u64 = if rng.gen_bool(0.85) {
                        rng.gen_range(1..32)
                    } else {
                        rng.gen_range(1..WHEEL_TICKS * 3)
                    };
                    let at = Time::from_ticks(now + horizon);
                    batched.push(at, seq, seq);
                    single.push(at, seq, seq);
                    seq += 1;
                }
                // ...then drain one tick both ways and compare.
                let deadline = Time::from_ticks(now + rng.gen_range(0..64));
                buf.clear();
                let tick = batched.take_tick(deadline, &mut buf);
                match tick {
                    None => {
                        assert!(single.pop_at_or_before(deadline).is_none());
                    }
                    Some((t, head)) => {
                        assert_eq!(head, 0, "no per-event pops interleaved");
                        for (s, e) in buf.drain(..).map(|(s, e)| (s, e.expect("live slot"))) {
                            assert_eq!(single.pop_at_or_before(deadline), Some((t, s, e)));
                        }
                        // The single-pop side must agree the tick is done.
                        assert_ne!(
                            single.peek_time(),
                            Some(t),
                            "batched drain missed a same-tick event (seed {seed})"
                        );
                        now = t.ticks();
                    }
                }
                assert_eq!(batched.len(), single.len());
            }
        }
    }

    #[test]
    fn reset_recycles_to_empty_state() {
        let mut q = CalendarQueue::new();
        q.push(Time::from_ticks(3), 0, "a");
        q.push(Time::from_ticks(WHEEL_TICKS * 5), 1, "far");
        assert_eq!(q.pop().map(|(_, _, e)| e), Some("a"));
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        // Usable from scratch after the reset.
        q.push(Time::from_ticks(2), 7, "b");
        assert_eq!(q.pop(), Some((Time::from_ticks(2), 7, "b")));
    }
}
