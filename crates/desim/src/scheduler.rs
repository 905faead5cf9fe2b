//! The event queue.
//!
//! A [`Scheduler`] owns a priority queue of `(SimTime, E)` pairs. Events at
//! the same instant are delivered in the order they were scheduled
//! (FIFO), which makes simulations deterministic without requiring event
//! payloads to be comparable.
//!
//! For simulations whose correctness depends on a *fixed* same-instant
//! order — not the order events happened to be scheduled in —
//! [`Scheduler::schedule_keyed`] attaches an ordering key: events at the
//! same instant fire in ascending key order, FIFO within a key. That is
//! what lets a handler cancel and re-schedule an event (e.g. a TDMA grant
//! deferred by a handover outage) without perturbing the delivery order
//! of everything else at that instant — the key, not the scheduling
//! moment, decides.
//!
//! The queue is a calendar: one bucket per pending instant, in a
//! `BTreeMap` by time. A push appends to its bucket, whatever its key; a
//! bucket that took a push below its last key is stable-sorted by key
//! once, when it becomes due (the first pop or peek that reaches it), and
//! a push into a due bucket below its last key marks it for another sort.
//! Stable sorting keeps scheduling order within a key, because appends
//! only ever add the newest entry. A pop is a `pop_front` of the earliest
//! bucket; a bucket it empties leaves the map, and its allocation goes
//! to a spare pool that the next new instant draws from.
//!
//! Keys below a bucket's last one are the common case, not the
//! exception, for a simulation that pre-places a late-phase event in a
//! future instant: the cell core's handover grant (key phase 4) lands at
//! `t + delay` before that instant's ambient, sense, walk and TDMA events
//! (phases 0–3) are scheduled. On the 16×16 × 400-user, 200-tick cell run
//! (seeds 1–30), 89.4% of its ~207k pushes sorted in below such a grant
//! when each push kept its bucket in order, at a binary search and a
//! memmove apiece. Appending, only the instant's first
//! early-phase push lands below the grants (0.1% of pushes); the rest
//! follow it in key order, so each of the ~188 sorts per run merges two
//! ascending runs, ~1,030 entries in all.
//!
//! Handles name a slot in a slab of generation counters. A slot's
//! generation is odd while its event is pending and even once it has
//! fired or been cancelled, so `cancel` is an O(1) compare-and-bump and
//! the calendar skips a cancelled entry (a tombstone) when it reaches it.

use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Opaque handle to a scheduled event, usable with [`Scheduler::cancel`].
///
/// A handle is accepted by `cancel` at most once, and a stale handle —
/// one whose event has fired or been cancelled — never cancels a later
/// event, even one that reuses its slot. Slots carry a `u32` generation
/// that advances by two per use, so a stale handle could alias a new
/// event only after 2³¹ reuses of one slot (a 16×16-cell, 400-user run
/// reuses each slot ~200 times).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle {
    slot: u32,
    generation: u32,
}

struct Entry<E> {
    key: u64,
    handle: EventHandle,
    payload: E,
}

/// The entries of one instant.
struct Bucket<E> {
    /// Not yet popped (pending or cancelled). Entries of one key are
    /// always in scheduling order; the whole run is in `(key, scheduling
    /// order)` order when `sorted` holds.
    entries: VecDeque<Entry<E>>,
    /// No push since the last sort went below the last key.
    sorted: bool,
}

impl<E> Bucket<E> {
    fn push(&mut self, entry: Entry<E>) {
        if self.entries.back().is_some_and(|last| last.key > entry.key) {
            self.sorted = false;
        }
        self.entries.push_back(entry);
    }

    /// The entries in `(key, scheduling order)` order, sorting them first
    /// if a push went below the last key. The sort is stable, so it keeps
    /// each key's scheduling order.
    fn due(&mut self) -> &mut VecDeque<Entry<E>> {
        if !self.sorted {
            self.entries.make_contiguous().sort_by_key(|e| e.key);
            self.sorted = true;
        }
        &mut self.entries
    }
}

/// A deterministic future-event queue.
///
/// `E` is the caller's event type; the scheduler never inspects it. The
/// current simulation clock is the timestamp of the most recently popped
/// event ([`Scheduler::now`]); scheduling into the past is a logic error
/// and panics.
pub struct Scheduler<E> {
    /// One bucket per instant with entries not yet popped (pending or
    /// cancelled); a bucket leaves the map as soon as it is emptied.
    calendar: BTreeMap<SimTime, Bucket<E>>,
    /// Emptied buckets' queues, kept for their allocation.
    spare: Vec<VecDeque<Entry<E>>>,
    /// Per-slot generation: odd while the slot's event is pending.
    generations: Vec<u32>,
    /// Slots whose event has fired or been cancelled.
    free: Vec<u32>,
    now: SimTime,
    live: usize,
    high_water: usize,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            calendar: BTreeMap::new(),
            spare: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
            live: 0,
            high_water: 0,
        }
    }

    /// The current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The most events that were ever pending at once — the queue-depth
    /// high-water mark, for capacity gauges.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Schedule `payload` to fire at absolute time `at`, in FIFO order
    /// among events at the same instant (ordering key 0).
    ///
    /// # Panics
    /// Panics if `at` is earlier than [`Scheduler::now`]: an event cannot
    /// fire in the past.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventHandle {
        self.schedule_keyed(at, 0, payload)
    }

    /// Schedule `payload` to fire at absolute time `at` with an explicit
    /// same-instant ordering `key`: events at one instant fire in ascending
    /// key order, FIFO (scheduling order) within a key. [`Scheduler::schedule`]
    /// is `schedule_keyed` with key 0, so plain-FIFO and keyed users compose.
    ///
    /// # Panics
    /// Panics if `at` is earlier than [`Scheduler::now`].
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, payload: E) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        let slot = self.free.pop().unwrap_or_else(|| {
            self.generations.push(0);
            u32::try_from(self.generations.len() - 1).expect("more than 2³² pending events")
        });
        let generation = &mut self.generations[slot as usize];
        *generation = generation.wrapping_add(1);
        let handle = EventHandle {
            slot,
            generation: *generation,
        };
        let spare = &mut self.spare;
        let bucket = self.calendar.entry(at).or_insert_with(|| Bucket {
            entries: spare.pop().unwrap_or_default(),
            sorted: true,
        });
        bucket.push(Entry {
            key,
            handle,
            payload,
        });
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        handle
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (and is now guaranteed not to fire), `false` if it had
    /// already fired or been cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        // Handles carry odd generations, so this matches pending slots
        // only. The calendar entry stays behind as a tombstone.
        let pending = self.generations.get(handle.slot as usize) == Some(&handle.generation);
        if pending {
            self.release(handle.slot);
        }
        pending
    }

    /// End a pending event's slot: its handle and calendar entry go stale.
    fn release(&mut self, slot: u32) {
        let generation = &mut self.generations[slot as usize];
        *generation = generation.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
    }

    /// Timestamp of the next pending event without popping it. Drops the
    /// tombstones before it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(mut first) = self.calendar.first_entry() {
            let time = *first.key();
            let entries = first.get_mut().due();
            while let Some(front) = entries.front() {
                if self.generations[front.handle.slot as usize] == front.handle.generation {
                    return Some(time);
                }
                entries.pop_front();
            }
            let emptied = first.remove();
            self.retire(emptied);
        }
        None
    }

    /// Keep an emptied bucket's allocation for the next new instant. The
    /// `clear` rewinds the queue's head, so the next instant's appends
    /// fill it from the start and its sort needs no rotation.
    fn retire(&mut self, bucket: Bucket<E>) {
        let mut entries = bucket.entries;
        entries.clear();
        self.spare.push(entries);
    }

    /// Pop the earliest pending event if it is due by `until` (any time
    /// when `None`), dropping the tombstones before it.
    fn pop_due(&mut self, until: Option<SimTime>) -> Option<(SimTime, E)> {
        loop {
            let mut first = self.calendar.first_entry()?;
            let time = *first.key();
            if until.is_some_and(|u| time > u) {
                return None;
            }
            let entries = first.get_mut().due();
            let entry = entries
                .pop_front()
                .expect("calendar buckets are never empty");
            if entries.is_empty() {
                let emptied = first.remove();
                self.retire(emptied);
            }
            if self.generations[entry.handle.slot as usize] == entry.handle.generation {
                self.release(entry.handle.slot);
                debug_assert!(time >= self.now);
                self.now = time;
                return Some((time, entry.payload));
            }
        }
    }

    /// Pop the earliest pending event, advancing the clock to its timestamp.
    /// Returns `None` when the queue is exhausted (the clock stays put).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(None)
    }

    /// Run the simulation to completion (or until `until`, if given),
    /// delivering each event to `handler`. The handler may schedule further
    /// events. Returns the number of events delivered.
    ///
    /// Events *at* `until` are still delivered; events after it remain
    /// queued and the clock is left at the last delivered event.
    pub fn run_with<F>(&mut self, until: Option<SimTime>, mut handler: F) -> u64
    where
        F: FnMut(&mut Scheduler<E>, SimTime, E),
    {
        let mut delivered = 0;
        while let Some((t, e)) = self.pop_due(until) {
            handler(self, t, e);
            delivered += 1;
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(t(30), "c");
        s.schedule(t(10), "a");
        s.schedule(t(20), "b");
        assert_eq!(s.pop(), Some((t(10), "a")));
        assert_eq!(s.pop(), Some((t(20), "b")));
        assert_eq!(s.pop(), Some((t(30), "c")));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut s = Scheduler::new();
        for i in 0..100 {
            s.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(s.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut s = Scheduler::new();
        assert_eq!(s.now(), SimTime::ZERO);
        s.schedule(t(42), ());
        s.pop();
        assert_eq!(s.now(), t(42));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut s = Scheduler::new();
        s.schedule(t(10), ());
        s.pop();
        s.schedule(t(5), ());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut s = Scheduler::new();
        let h1 = s.schedule(t(1), 1);
        let _h2 = s.schedule(t(2), 2);
        assert_eq!(s.len(), 2);
        assert!(s.cancel(h1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop(), Some((t(2), 2)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn cancel_is_idempotent_and_rejects_fired() {
        let mut s = Scheduler::new();
        let h = s.schedule(t(1), ());
        assert!(s.cancel(h));
        assert!(!s.cancel(h));
        let h2 = s.schedule(t(2), ());
        s.pop();
        assert!(!s.cancel(h2), "already fired");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut s = Scheduler::new();
        let h = s.schedule(t(1), 1);
        s.schedule(t(2), 2);
        s.cancel(h);
        assert_eq!(s.peek_time(), Some(t(2)));
        assert_eq!(s.pop(), Some((t(2), 2)));
    }

    #[test]
    fn run_with_drives_chained_events() {
        // A self-rescheduling ticker: event n schedules event n+1 until 5.
        let mut s = Scheduler::new();
        s.schedule(SimTime::ZERO, 0u32);
        let mut seen = Vec::new();
        let delivered = s.run_with(None, |s, now, n| {
            seen.push((now, n));
            if n < 5 {
                s.schedule(now + SimDuration::micros(8), n + 1);
            }
        });
        assert_eq!(delivered, 6);
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[5], (t(40), 5));
    }

    #[test]
    fn run_with_until_is_inclusive() {
        let mut s = Scheduler::new();
        s.schedule(t(1), 1);
        s.schedule(t(2), 2);
        s.schedule(t(3), 3);
        let mut seen = Vec::new();
        s.run_with(Some(t(2)), |_, _, n| seen.push(n));
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn keyed_events_fire_in_key_order_regardless_of_scheduling_order() {
        let mut s = Scheduler::new();
        s.schedule_keyed(t(5), 3, "c");
        s.schedule_keyed(t(5), 1, "a");
        s.schedule_keyed(t(5), 2, "b");
        assert_eq!(s.pop(), Some((t(5), "a")));
        assert_eq!(s.pop(), Some((t(5), "b")));
        assert_eq!(s.pop(), Some((t(5), "c")));
    }

    #[test]
    fn keyed_cancel_and_reschedule_preserves_key_order() {
        // Re-scheduling an event must not demote it to "last at its
        // instant": the key decides, not the scheduling moment.
        let mut s = Scheduler::new();
        let h = s.schedule_keyed(t(5), 2, "mid-old");
        s.schedule_keyed(t(5), 1, "lo");
        s.schedule_keyed(t(5), 3, "hi");
        assert!(s.cancel(h));
        s.schedule_keyed(t(5), 2, "mid-new");
        let mut seen = Vec::new();
        while let Some((_, e)) = s.pop() {
            seen.push(e);
        }
        assert_eq!(seen, vec!["lo", "mid-new", "hi"]);
    }

    #[test]
    fn pushes_below_the_last_key_sort_once_due_and_keep_fifo() {
        // Late keys first, as a pre-placed grant lands before its
        // instant's early phases are scheduled.
        let mut s = Scheduler::new();
        s.schedule_keyed(t(5), 9, "late-a");
        s.schedule_keyed(t(5), 9, "late-b");
        s.schedule_keyed(t(5), 1, "early-a");
        s.schedule_keyed(t(5), 4, "mid");
        s.schedule_keyed(t(5), 1, "early-b");
        assert_eq!(s.pop(), Some((t(5), "early-a")));
        // Into the due bucket, below its last key: after both earlier
        // key-1 entries, before everything above key 1.
        s.schedule_keyed(t(5), 1, "early-c");
        s.schedule_keyed(t(5), 0, "now-first");
        let mut seen = Vec::new();
        while let Some((_, e)) = s.pop() {
            seen.push(e);
        }
        assert_eq!(
            seen,
            ["now-first", "early-b", "early-c", "mid", "late-a", "late-b"]
        );
    }

    #[test]
    fn same_key_falls_back_to_fifo() {
        let mut s = Scheduler::new();
        for i in 0..10 {
            s.schedule_keyed(t(5), 7, i);
        }
        for i in 0..10 {
            assert_eq!(s.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn high_water_tracks_peak_pending() {
        let mut s = Scheduler::new();
        assert_eq!(s.high_water(), 0);
        let h = s.schedule(t(1), 1);
        s.schedule(t(2), 2);
        s.schedule(t(3), 3);
        assert_eq!(s.high_water(), 3);
        s.cancel(h);
        s.pop();
        s.pop();
        assert_eq!(s.len(), 0);
        assert_eq!(s.high_water(), 3, "high-water never decays");
    }

    #[test]
    fn a_reused_slot_is_not_cancelled_by_a_stale_handle() {
        let mut s = Scheduler::new();
        let fired = s.schedule(t(1), "fired");
        assert_eq!(s.pop(), Some((t(1), "fired")));
        let reuse = s.schedule(t(2), "after fire");
        assert_eq!(reuse.slot, fired.slot, "the freed slot is reused");
        assert!(!s.cancel(fired), "a fired handle names no event");

        assert!(s.cancel(reuse));
        let again = s.schedule(t(3), "after cancel");
        assert_eq!(again.slot, reuse.slot);
        assert!(!s.cancel(reuse), "a cancelled handle names no event");
        assert!(!s.cancel(fired));
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop(), Some((t(3), "after cancel")));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn slab_and_spare_pool_stay_bounded() {
        // Schedule/cancel/pop rounds with at most 8 live events: slots
        // are recycled rather than grown, and the spare pool never holds
        // more buckets than were ever in the calendar at once.
        let mut s = Scheduler::new();
        let mut rng = crate::DetRng::seed_from_u64(5);
        let mut handles = Vec::new();
        let mut most_buckets = 0;
        let mut check = |s: &Scheduler<()>| {
            most_buckets = most_buckets.max(s.calendar.len());
            assert!(s.generations.len() <= s.high_water());
            assert!(s.spare.len() + s.calendar.len() <= most_buckets);
        };
        for _ in 0..100_000 {
            if s.len() < 8 {
                let at = s.now() + SimDuration::nanos(rng.next_below(16));
                handles.push(s.schedule_keyed(at, rng.next_below(3), ()));
                check(&s);
            }
            if rng.chance(0.3) && !handles.is_empty() {
                let i = rng.next_below(handles.len() as u64) as usize;
                s.cancel(handles.swap_remove(i));
                check(&s);
            }
            if rng.chance(0.5) {
                s.pop();
                check(&s);
            }
            if handles.len() > 64 {
                handles.drain(..32);
            }
        }
        assert_eq!(s.high_water(), 8);
    }

    #[test]
    fn foreign_handle_is_rejected() {
        let mut a = Scheduler::<()>::new();
        let mut b = Scheduler::<()>::new();
        let h = a.schedule(t(1), ());
        // b never issued seq 0 (next_seq == 0), so it must reject it.
        assert!(!b.cancel(h));
    }
}
