//! ARM↔PRU shared-memory rings.
//!
//! On the real BBB, the ARM core and the PRU communicate through the
//! PRU's 12 KB shared data RAM: the ARM writes modulated slots into a TX
//! ring, the PRU drains it at the slot clock; in the other direction the
//! PRU fills an RX ring with ADC samples the ARM consumes. Neither side
//! waits for the other — overruns and underruns are real failure modes
//! the firmware must surface (an underrun at the transmitter would glue
//! the LED at its last state and flicker).
//!
//! [`SharedRing`] is a bounded SPSC ring with those exact semantics. The
//! default implementation is single-threaded (the simulation is a DES),
//! but the structure sits behind a `std::sync::Mutex` so the threaded demo
//! in `board.rs` can share it across real threads too. A poisoned lock is
//! ignored: each critical section is one queue operation plus its
//! counter, so a panicking peer cannot leave the ring half-updated.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Statistics for one ring.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Items successfully pushed.
    pub pushed: u64,
    /// Items successfully popped.
    pub popped: u64,
    /// Push attempts rejected because the ring was full (overrun at the
    /// producer).
    pub overruns: u64,
    /// Pop attempts on an empty ring (underrun at the consumer).
    pub underruns: u64,
}

struct Inner<T> {
    buf: std::collections::VecDeque<T>,
    capacity: usize,
    stats: RingStats,
}

/// A bounded single-producer single-consumer ring, shareable across
/// threads.
pub struct SharedRing<T> {
    inner: Arc<Mutex<Inner<T>>>,
}

impl<T> Clone for SharedRing<T> {
    fn clone(&self) -> Self {
        SharedRing {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> SharedRing<T> {
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Create a ring holding at most `capacity` items.
    ///
    /// The BBB's 12 KB shared RAM holds 12288 single-byte slot entries;
    /// the paper's firmware splits it between directions.
    pub fn new(capacity: usize) -> SharedRing<T> {
        assert!(capacity > 0, "capacity must be positive");
        SharedRing {
            inner: Arc::new(Mutex::new(Inner {
                buf: std::collections::VecDeque::with_capacity(capacity),
                capacity,
                stats: RingStats::default(),
            })),
        }
    }

    /// Push one item; returns `false` (and counts an overrun) when full.
    pub fn push(&self, item: T) -> bool {
        let mut g = self.lock();
        if g.buf.len() >= g.capacity {
            g.stats.overruns += 1;
            false
        } else {
            g.buf.push_back(item);
            g.stats.pushed += 1;
            true
        }
    }

    /// Pop one item; `None` (and an underrun) when empty.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.lock();
        match g.buf.pop_front() {
            Some(v) => {
                g.stats.popped += 1;
                Some(v)
            }
            None => {
                g.stats.underruns += 1;
                None
            }
        }
    }

    /// Pop up to `n` items without counting an underrun (batch drain).
    pub fn pop_up_to(&self, n: usize) -> Vec<T> {
        let mut g = self.lock();
        let take = n.min(g.buf.len());
        let out: Vec<T> = g.buf.drain(..take).collect();
        g.stats.popped += out.len() as u64;
        out
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free space remaining.
    pub fn free(&self) -> usize {
        let g = self.lock();
        g.capacity - g.buf.len()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> RingStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let r = SharedRing::new(8);
        for i in 0..5 {
            assert!(r.push(i));
        }
        for i in 0..5 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn overrun_and_underrun_are_counted() {
        let r = SharedRing::new(2);
        assert!(r.push(1));
        assert!(r.push(2));
        assert!(!r.push(3));
        assert!(!r.push(4));
        r.pop();
        r.pop();
        assert!(r.pop().is_none());
        let s = r.stats();
        assert_eq!(s.pushed, 2);
        assert_eq!(s.popped, 2);
        assert_eq!(s.overruns, 2);
        assert_eq!(s.underruns, 1);
    }

    #[test]
    fn pop_up_to_does_not_count_underrun() {
        let r: SharedRing<u8> = SharedRing::new(4);
        r.push(1);
        assert_eq!(r.pop_up_to(10), vec![1]);
        assert!(r.pop_up_to(10).is_empty());
        assert_eq!(r.stats().underruns, 0);
    }

    #[test]
    fn len_and_free_track() {
        let r = SharedRing::new(3);
        assert_eq!((r.len(), r.free()), (0, 3));
        r.push(1);
        r.push(2);
        assert_eq!((r.len(), r.free()), (2, 1));
        assert!(!r.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let a = SharedRing::new(4);
        let b = a.clone();
        a.push(42);
        assert_eq!(b.pop(), Some(42));
    }

    #[test]
    fn works_across_threads() {
        // The ARM-thread / PRU-thread usage of board.rs in miniature.
        let ring = SharedRing::new(1024);
        let producer = ring.clone();
        let handle = std::thread::spawn(move || {
            let mut sent = 0u32;
            while sent < 10_000 {
                if producer.push(sent) {
                    sent += 1;
                }
            }
        });
        let mut got = Vec::new();
        while got.len() < 10_000 {
            got.extend(ring.pop_up_to(256));
        }
        handle.join().unwrap();
        assert_eq!(got.len(), 10_000);
        // SPSC ordering is preserved.
        assert!(got.windows(2).all(|w| w[1] == w[0] + 1));
    }
}
