//! Board-level compositions: the transmitter and receiver of Fig. 11/12.
//!
//! A [`TransmitterBoard`] is the ARM-side frame producer feeding the
//! PRU's GPIO modulator through the TX ring (Fig. 11's BBB → MOSFET → LED
//! chain, minus the optics, which live in `vlc-channel`). A
//! [`ReceiverBoard`] is the PRU sampler filling the RX ring for the
//! ARM-side demodulator (Fig. 12's photodiode → amplifier → ADC → BBB
//! chain). Both expose the failure counters (ring overruns/underruns)
//! that §5.2's design is built to avoid.

use crate::gpio::GpioModulator;
use crate::pru::AccessMethod;
use crate::sampler::AdcSampler;
use crate::shmem::SharedRing;
use desim::{SimDuration, SimTime};

/// The transmit side: ARM frame producer + PRU GPIO loop.
pub struct TransmitterBoard {
    tx_ring: SharedRing<bool>,
    gpio: GpioModulator,
}

impl TransmitterBoard {
    /// Build with the paper's parameters: PRU access, 8 µs slots, and a
    /// ring sized like the BBB's shared RAM segment (8 K slots).
    pub fn paper_prototype() -> TransmitterBoard {
        let tx_ring = SharedRing::new(8192);
        let gpio = GpioModulator::new(tx_ring.clone(), SimDuration::micros(8), AccessMethod::Pru);
        TransmitterBoard { tx_ring, gpio }
    }

    /// Queue a frame's slot waveform; returns how many slots fit (the ARM
    /// re-offers the rest after draining — here callers check the count).
    pub fn queue_slots(&self, slots: &[bool]) -> usize {
        let mut accepted = 0;
        for &s in slots {
            if !self.tx_ring.push(s) {
                break;
            }
            accepted += 1;
        }
        accepted
    }

    /// Advance the PRU slot loop to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.gpio.run_until(until);
    }

    /// The waveform emitted so far.
    pub fn emitted(&self) -> Vec<bool> {
        self.gpio.emitted_slots()
    }

    /// Slots where the ring ran dry (illumination/frame glitches).
    pub fn underruns(&self) -> u64 {
        self.gpio.underruns()
    }

    /// Free slots currently available in the TX ring.
    pub fn ring_free(&self) -> usize {
        self.tx_ring.free()
    }
}

/// The receive side: PRU ADC sampler + ARM consumer.
pub struct ReceiverBoard {
    rx_ring: SharedRing<u16>,
    sampler: AdcSampler,
}

impl ReceiverBoard {
    /// Paper parameters: PRU access, 500 kS/s, 8 K-sample ring.
    pub fn paper_prototype() -> ReceiverBoard {
        let rx_ring = SharedRing::new(8192);
        let sampler = AdcSampler::new(rx_ring.clone(), SimDuration::micros(2), AccessMethod::Pru);
        ReceiverBoard { rx_ring, sampler }
    }

    /// Advance the sampler to `until`, pulling codes from `source`.
    pub fn run_until(&mut self, until: SimTime, source: impl FnMut(SimTime) -> u16) {
        self.sampler.run_until(until, source);
    }

    /// Drain up to `n` samples for ARM-side processing.
    pub fn drain(&self, n: usize) -> Vec<u16> {
        self.rx_ring.pop_up_to(n)
    }

    /// Samples lost to ring overruns.
    pub fn overrun_drops(&self) -> u64 {
        self.sampler.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmitter_emits_queued_frame() {
        let mut tx = TransmitterBoard::paper_prototype();
        let frame: Vec<bool> = (0..1000).map(|i| i % 7 < 3).collect();
        assert_eq!(tx.queue_slots(&frame), 1000);
        tx.run_until(SimTime::from_micros(8 * 999));
        assert_eq!(tx.emitted(), frame);
        assert_eq!(tx.underruns(), 0);
    }

    #[test]
    fn receiver_pipelines_samples() {
        let mut rx = ReceiverBoard::paper_prototype();
        let mut code = 0u16;
        rx.run_until(SimTime::from_micros(2 * 499), |_| {
            code = code.wrapping_add(1);
            code
        });
        let got = rx.drain(10_000);
        assert_eq!(got.len(), 500);
        assert_eq!(rx.overrun_drops(), 0);
    }

    #[test]
    fn backpressure_reports_partial_acceptance() {
        let tx = TransmitterBoard::paper_prototype();
        let big = vec![true; 10_000];
        let accepted = tx.queue_slots(&big);
        assert_eq!(accepted, 8192);
        assert_eq!(tx.ring_free(), 0);
    }

    #[test]
    fn threaded_arm_pru_pipeline() {
        // The real system's concurrency in miniature: an "ARM" thread
        // produces slots while the "PRU" (here: this thread) drains them.
        let tx = TransmitterBoard::paper_prototype();
        let ring = tx.tx_ring.clone();
        let total = 50_000u32;
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut sent = 0u32;
                while sent < total {
                    if ring.push(sent.is_multiple_of(2)) {
                        sent += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
            let mut got = 0u32;
            while got < total {
                let batch = tx.tx_ring.pop_up_to(512);
                got += batch.len() as u32;
                if batch.is_empty() {
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(tx.tx_ring.stats().popped, total as u64);
    }
}
