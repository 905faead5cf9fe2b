//! Property-based tests for the discrete-event kernel.

use desim::{DetRng, EventHandle, Scheduler, SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// The reference event queue: a min-heap on `(time, key, seq)` with
/// pending and cancelled sets, cancelled entries skipped lazily. Its
/// payload is the seq itself.
#[derive(Default)]
struct HeapOracle {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    pending: HashSet<u64>,
    cancelled: HashSet<u64>,
    next_seq: u64,
    now: SimTime,
    high_water: usize,
}

impl HeapOracle {
    fn schedule_keyed(&mut self, at: SimTime, key: u64) -> u64 {
        assert!(at >= self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, key, seq)));
        self.pending.insert(seq);
        self.high_water = self.high_water.max(self.pending.len());
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        self.pending.remove(&seq) && self.cancelled.insert(seq)
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((at, _, seq))) = self.heap.peek() {
            if !self.cancelled.remove(&seq) {
                return Some(at);
            }
            self.heap.pop();
        }
        None
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.peek_time()?;
        let Reverse((at, _, seq)) = self.heap.pop()?;
        self.pending.remove(&seq);
        self.now = at;
        Some((at, seq))
    }
}

/// The plainest reference queue: every pending event in one `Vec` kept
/// sorted by `(time, key, seq)`, a cancel a removal by seq. Its payload
/// is the seq itself.
#[derive(Default)]
struct SortedVecOracle {
    pending: Vec<(SimTime, u64, u64)>,
    next_seq: u64,
    now: SimTime,
    high_water: usize,
}

impl SortedVecOracle {
    fn schedule_keyed(&mut self, at: SimTime, key: u64) -> u64 {
        assert!(at >= self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let i = self.pending.partition_point(|&e| e < (at, key, seq));
        self.pending.insert(i, (at, key, seq));
        self.high_water = self.high_water.max(self.pending.len());
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        let i = self.pending.iter().position(|e| e.2 == seq);
        i.map(|i| self.pending.remove(i)).is_some()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.first().map(|e| e.0)
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        if self.pending.is_empty() {
            return None;
        }
        let (at, _, seq) = self.pending.remove(0);
        self.now = at;
        Some((at, seq))
    }
}

/// Δ for a schedule, from random `bits`: 0 (the current instant), small
/// (a handful of shared instants) or large.
fn delta_ns(bits: u64) -> u64 {
    match bits % 3 {
        0 => 0,
        1 => (bits >> 2) % 8,
        _ => 100 + (bits >> 2) % 100_000,
    }
}

/// The follow-up a delivery of event `id` at `run_with` schedules, if any:
/// `(Δ, key)`. Capped so a run always terminates.
fn follow_up(id: usize, issued: usize) -> Option<(u64, u64)> {
    (id.is_multiple_of(3) && issued < 400).then_some(((id % 2) as u64, (id as u64 * 7) % 4))
}

/// Probabilities at the edges of `chance_threshold`'s cases.
const CHANCE_SPECIALS: [f64; 16] = [
    0.0,
    -0.0,
    -1.0,
    -5e-324,
    f64::NEG_INFINITY,
    f64::NAN,
    1.0,
    1.5,
    f64::INFINITY,
    5e-324,                         // smallest subnormal
    f64::MIN_POSITIVE / 3.0,        // a subnormal
    f64::MIN_POSITIVE,              // smallest normal
    0.5,                            // p·2⁵³ an integer
    1.0 - 1.0 / 9007199254740992.0, // the largest f64 below 1 (2⁵³ − 1)·2⁻⁵³
    1.0 / 9007199254740992.0,       // 2⁻⁵³, threshold 1
    1.5 / 9007199254740992.0,       // between the first two lattice points
];

/// Probe `pick`: a special value, or one built from `bits` — a lattice
/// point `m·2⁻⁵³`, its neighbours one ulp either side, or a uniform value
/// in (0, 1) with an arbitrary mantissa.
fn chance_probe(pick: usize, bits: u64) -> f64 {
    let lattice = (bits >> 11) as f64 / (1u64 << 53) as f64;
    match pick.checked_sub(CHANCE_SPECIALS.len()) {
        None => CHANCE_SPECIALS[pick],
        Some(0) => lattice,
        Some(1) => f64::from_bits(lattice.to_bits() + 1),
        Some(2) => f64::from_bits(lattice.to_bits().saturating_sub(1)),
        _ => f64::from_bits(0x3FF0_0000_0000_0000 | (bits >> 12)) - 1.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The calendar delivers exactly what the heap oracle delivers, in the
    /// same order, under random schedules (ties at one instant and one
    /// key, keyed schedules at the current instant), cancels of live,
    /// fired, cancelled and slot-reused handles, pops, peeks and bounded
    /// runs; `cancel`, `len`, `high_water` and `now` agree after every step.
    #[test]
    fn calendar_matches_the_heap_oracle(
        ops in proptest::collection::vec((0u8..10, any::<u64>(), 0u64..4), 1..300),
    ) {
        let mut cal: Scheduler<usize> = Scheduler::new();
        let mut heap = HeapOracle::default();
        // Handle `i` of each side names event `i`, whose payload is `i`.
        let mut handles: Vec<EventHandle> = Vec::new();
        let mut seqs: Vec<u64> = Vec::new();
        // Per op, by `kind`: 4 in 10 schedule, 2 cancel the `bits`-th
        // handle ever issued (live, fired or cancelled), 2 pop, 1 peeks
        // and 1 runs to `now + bits % 2000`.
        for (kind, bits, key) in ops {
            match kind {
                0..=3 => {
                    let at = cal.now() + SimDuration::nanos(delta_ns(bits));
                    handles.push(cal.schedule_keyed(at, key, handles.len()));
                    seqs.push(heap.schedule_keyed(at, key));
                }
                4 | 5 => {
                    if !handles.is_empty() {
                        let i = bits as usize % handles.len();
                        prop_assert_eq!(cal.cancel(handles[i]), heap.cancel(seqs[i]));
                    }
                }
                6 | 7 => {
                    let got = cal.pop().map(|(at, id)| (at, seqs[id]));
                    prop_assert_eq!(got, heap.pop());
                }
                8 => prop_assert_eq!(cal.peek_time(), heap.peek_time()),
                _ => {
                    // Some deliveries schedule a follow-up, often at the
                    // current instant with a lower key.
                    let until = cal.now() + SimDuration::nanos(bits % 2_000);
                    let mut got = Vec::new();
                    let delivered = cal.run_with(Some(until), |s, now, id| {
                        got.push((now, id));
                        if let Some((dt, key)) = follow_up(id, handles.len()) {
                            let at = now + SimDuration::nanos(dt);
                            handles.push(s.schedule_keyed(at, key, handles.len()));
                        }
                    });
                    prop_assert_eq!(delivered, got.len() as u64);
                    for (now, id) in got {
                        prop_assert_eq!(heap.peek_time().filter(|&t| t <= until), Some(now));
                        prop_assert_eq!(heap.pop(), Some((now, seqs[id])));
                        if let Some((dt, key)) = follow_up(id, seqs.len()) {
                            seqs.push(heap.schedule_keyed(now + SimDuration::nanos(dt), key));
                        }
                    }
                    prop_assert!(heap.peek_time().is_none_or(|t| t > until));
                }
            }
            prop_assert_eq!(handles.len(), seqs.len());
            prop_assert_eq!(cal.len(), heap.pending.len());
            prop_assert_eq!(cal.is_empty(), heap.pending.is_empty());
            prop_assert_eq!(cal.high_water(), heap.high_water);
            prop_assert_eq!(cal.now(), heap.now);
        }
        // Drain: the rest comes out in the same order too.
        loop {
            let got = cal.pop().map(|(at, id)| (at, seqs[id]));
            prop_assert_eq!(got, heap.pop());
            if got.is_none() {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The calendar against the sorted-`Vec` oracle, on interleavings
    /// built to hit its lazy sort: most pushes land on one of four
    /// instants from `now` on (`now` itself included, so a bucket that is
    /// already due takes pushes) with keys that often fall below the
    /// bucket's last key — a descending run, the cell core's pre-placed
    /// late-phase grant, or a random key — and cancels leave tombstones
    /// in sorted and unsorted buckets alike. Every pop, peek, cancel,
    /// `len`, `high_water` and `now` must agree.
    #[test]
    fn calendar_matches_a_sorted_vec_oracle(
        ops in proptest::collection::vec((0u8..12, any::<u64>()), 1..400),
    ) {
        let mut cal: Scheduler<usize> = Scheduler::new();
        let mut oracle = SortedVecOracle::default();
        let mut handles: Vec<EventHandle> = Vec::new();
        let mut seqs: Vec<u64> = Vec::new();
        let mut descending = 64u64;
        // Per op, by `kind`: 6 in 12 schedule (one of them plain FIFO),
        // 2 cancel the `bits`-th handle ever issued, 3 pop and 1 peeks.
        for (kind, bits) in ops {
            match kind {
                0..=5 => {
                    let at = cal.now() + SimDuration::nanos(if bits & 0x30 == 0 { 9 + bits % 50 } else { bits % 4 });
                    let key = match kind {
                        0 => 0,
                        1 | 2 => {
                            descending = descending.checked_sub(1).unwrap_or(64);
                            descending
                        }
                        3 => (4 << 40) | ((bits >> 8) % 8),
                        _ => (bits >> 8) % 6,
                    };
                    let h = if kind == 0 {
                        cal.schedule(at, handles.len())
                    } else {
                        cal.schedule_keyed(at, key, handles.len())
                    };
                    handles.push(h);
                    seqs.push(oracle.schedule_keyed(at, key));
                }
                6 | 7 => {
                    if !handles.is_empty() {
                        let i = bits as usize % handles.len();
                        prop_assert_eq!(cal.cancel(handles[i]), oracle.cancel(seqs[i]));
                    }
                }
                8..=10 => {
                    let got = cal.pop().map(|(at, id)| (at, seqs[id]));
                    prop_assert_eq!(got, oracle.pop());
                }
                _ => prop_assert_eq!(cal.peek_time(), oracle.peek_time()),
            }
            prop_assert_eq!(cal.len(), oracle.pending.len());
            prop_assert_eq!(cal.high_water(), oracle.high_water);
            prop_assert_eq!(cal.now(), oracle.now);
        }
        loop {
            let got = cal.pop().map(|(at, id)| (at, seqs[id]));
            prop_assert_eq!(got, oracle.pop());
            if got.is_none() {
                break;
            }
        }
    }
}

proptest! {
    /// Events always pop in non-decreasing time order, FIFO within ties,
    /// regardless of insertion order.
    #[test]
    fn scheduler_orders_any_insertion(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule(SimTime::from_nanos(t), (t, i));
        }
        let mut prev: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = s.pop() {
            prop_assert_eq!(at, SimTime::from_nanos(t));
            if let Some((pt, pi)) = prev {
                prop_assert!(t >= pt);
                if t == pt {
                    prop_assert!(i > pi, "FIFO violated within a tie");
                }
            }
            prev = Some((t, i));
        }
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn cancellation_is_exact(
        times in proptest::collection::vec(0u64..100, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 100),
    ) {
        let mut s = Scheduler::new();
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, s.schedule(SimTime::from_nanos(t), i)))
            .collect();
        let mut kept = Vec::new();
        for (i, h) in handles {
            if cancel_mask[i % cancel_mask.len()] {
                prop_assert!(s.cancel(h));
                prop_assert!(!s.cancel(h), "double cancel succeeded");
            } else {
                kept.push(i);
            }
        }
        prop_assert_eq!(s.len(), kept.len());
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, i)) = s.pop() {
            popped.push(i);
        }
        popped.sort_unstable();
        kept.sort_unstable();
        prop_assert_eq!(popped, kept);
    }

    /// run_with with an `until` bound delivers exactly the events at or
    /// before the bound.
    #[test]
    fn run_with_bound_is_exact(times in proptest::collection::vec(0u64..1000, 1..100), cut in 0u64..1000) {
        let mut s = Scheduler::new();
        for &t in &times {
            s.schedule(SimTime::from_nanos(t), t);
        }
        let mut seen = Vec::new();
        s.run_with(Some(SimTime::from_nanos(cut)), |_, _, t| seen.push(t));
        let expected = times.iter().filter(|&&t| t <= cut).count();
        prop_assert_eq!(seen.len(), expected);
        prop_assert!(seen.iter().all(|&t| t <= cut));
    }

    /// Forked RNG streams are reproducible and label-sensitive.
    #[test]
    fn rng_fork_properties(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let root = DetRng::seed_from_u64(seed);
        let mut a = root.fork(&label);
        let mut b = root.fork(&label);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut other = root.fork(&format!("{label}x"));
        let same = (0..32).filter(|_| a.next_u64() == other.next_u64()).count();
        prop_assert!(same < 4);
    }

    /// next_below is always in range.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = DetRng::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(r.next_below(bound) < bound);
        }
    }

    /// The integer threshold reproduces `chance` draw for draw: on the
    /// same state, `(next_u64() >> 11) < chance_threshold(p)` equals
    /// `next_f64() < p`, for special, lattice and arbitrary `p`.
    #[test]
    fn chance_threshold_matches_chance(
        seed in any::<u64>(),
        pick in 0usize..CHANCE_SPECIALS.len() + 4,
        bits in any::<u64>(),
    ) {
        let p = chance_probe(pick, bits);
        let t = DetRng::chance_threshold(p);
        prop_assert!(t <= 1 << 53);
        let mut float = DetRng::seed_from_u64(seed);
        let mut int = float.clone();
        for _ in 0..64 {
            prop_assert_eq!(float.next_f64() < p, (int.next_u64() >> 11) < t, "p = {:e}", p);
        }
        // The threshold is the exact boundary on the 53-bit lattice.
        let scale = 1.0 / (1u64 << 53) as f64;
        if t > 0 {
            prop_assert!(((t - 1) as f64 * scale) < p, "p = {:e}", p);
        }
        if t < 1 << 53 {
            prop_assert!(p.is_nan() || t as f64 * scale >= p, "p = {:e}", p);
        }
    }

    /// Duration arithmetic round trips.
    #[test]
    fn duration_roundtrip(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        let t = SimTime::from_nanos(lo) + SimDuration::nanos(hi - lo);
        prop_assert_eq!(t.as_nanos(), hi);
        prop_assert_eq!((t - SimTime::from_nanos(lo)).as_nanos(), hi - lo);
    }
}
