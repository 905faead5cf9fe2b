//! # desim — a small deterministic discrete-event simulation kernel
//!
//! This crate is the execution substrate for the SmartVLC reproduction. The
//! paper's evaluation runs on real hardware in real time; here every
//! component (LED driver, PRU, ADC sampler, Wi-Fi side channel, window
//! blind, ...) is a simulated process advancing through *virtual* time.
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** Two runs with the same seed produce bit-identical
//!    results. Events scheduled for the same instant fire in FIFO order of
//!    scheduling (or in ordering-key order, FIFO within a key), and all
//!    random numbers come from explicitly seeded, splittable streams
//!    ([`rng::DetRng`]).
//! 2. **Simplicity.** A single-threaded calendar event queue. No async,
//!    no threads, no global state — in the spirit of smoltcp's "simplicity
//!    and robustness" design goals.
//! 3. **Integer time.** Virtual time is integer nanoseconds
//!    ([`time::SimTime`]); a slot of 8 µs is exactly 8000 ns, so slot grids
//!    never accumulate floating-point drift.
//!
//! ## Quick example
//!
//! ```
//! use desim::{Scheduler, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick(u32) }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule(SimTime::ZERO + SimDuration::micros(8), Ev::Tick(1));
//! sched.schedule(SimTime::ZERO + SimDuration::micros(4), Ev::Tick(0));
//! let (t0, e0) = sched.pop().unwrap();
//! assert_eq!((t0, e0), (SimTime::from_nanos(4_000), Ev::Tick(0)));
//! let (t1, e1) = sched.pop().unwrap();
//! assert_eq!((t1, e1), (SimTime::from_nanos(8_000), Ev::Tick(1)));
//! assert!(sched.pop().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod scheduler;
pub mod time;
mod ziggurat;

pub use rng::DetRng;
pub use scheduler::{EventHandle, Scheduler};
pub use time::{Frequency, SimDuration, SimTime};
