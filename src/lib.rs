//! # SmartVLC — when smart lighting meets visible light communication
//!
//! A from-scratch Rust reproduction of *"SmartVLC: When Smart Lighting
//! Meets VLC"* (Wu, Wang, Xiong, Zuniga — CoNEXT 2017): a visible-light
//! link whose LED simultaneously provides *illumination* (fine-grained,
//! flicker-free dimming that keeps ambient + artificial light constant)
//! and *communication* (maximum throughput at every dimming level), built
//! on the paper's **AMPPM** modulation.
//!
//! This crate is a facade: it re-exports the workspace's layers under one
//! name so examples and downstream users need a single dependency.
//!
//! | Layer | Crate | What lives there |
//! |---|---|---|
//! | [`core`] | `smartvlc-core` | AMPPM (super-symbols, envelope, planner), MPPM/OOK-CT/VPPM baselines, Eq. 2–5 models, perception-domain adaptation, flicker rules, Table 1 framing |
//! | [`combinat`] | `combinat` | big integers, exact binomials, bit I/O, the Algorithm 1/2 enumerative codec |
//! | [`channel`] | `vlc-channel` | LED dynamics, Lambertian optics, photodiode, TIA+ADC, ambient-light profiles |
//! | [`hw`] | `vlc-hw` | BeagleBone PRU timing model, ARM↔PRU rings, GPIO/ADC loops, Wi-Fi side channel |
//! | [`link`] | `smartvlc-link` | transmitter/receiver state machines, clock recovery, streaming ARQ, end-to-end link simulation |
//! | [`sim`] | `smartvlc-sim` | the paper's §6 experiments: static/dynamic scenarios, the virtual user study, reporting |
//! | [`desim`] | `desim` | deterministic discrete-event kernel (time, scheduler, RNG) |
//!
//! ## Quickstart
//!
//! ```
//! use smartvlc::prelude::*;
//!
//! // Plan the best AMPPM super-symbol for a 35% dimming level...
//! let mut planner = AmppmPlanner::new(SystemConfig::default()).unwrap();
//! let plan = planner.plan(DimmingLevel::new(0.35).unwrap()).unwrap();
//! assert!(plan.rate_bps > 90_000.0);
//!
//! // ...and send a frame through the slot-domain codec.
//! let mut codec = FrameCodec::new(SystemConfig::default()).unwrap();
//! let descriptor = amppm_descriptor(&SystemConfig::default(),
//!                                   DimmingLevel::new(0.35).unwrap());
//! let frame = Frame::new(descriptor, b"hello light".to_vec()).unwrap();
//! let slots = codec.emit(&frame).unwrap();
//! let (parsed, stats) = codec.parse(&slots).unwrap();
//! assert!(stats.crc_ok);
//! assert_eq!(parsed.payload, b"hello light");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use combinat;
pub use desim;
pub use smartvlc_core as core;
pub use smartvlc_link as link;
pub use smartvlc_sim as sim;
pub use vlc_channel as channel;
pub use vlc_hw as hw;

/// The items most programs need, in one import.
pub mod prelude {
    pub use combinat::{BigUint, BinomialTable, BitReader, BitWriter};
    pub use desim::{DetRng, Frequency, SimDuration, SimTime};
    pub use smartvlc_core::adaptation::{AdaptationStepper, FixedStepper, PerceptionStepper};
    pub use smartvlc_core::amppm::{Candidate, Envelope, SuperSymbol};
    pub use smartvlc_core::dimming::IlluminationTarget;
    pub use smartvlc_core::frame::codec::FrameCodec;
    pub use smartvlc_core::frame::format::{amppm_descriptor, Frame, PatternDescriptor};
    pub use smartvlc_core::modem::SlotModem;
    pub use smartvlc_core::schemes::{
        AmppmModem, DarklightModem, MppmModem, OokCtModem, OppmModem, VppmModem,
    };
    pub use smartvlc_core::{
        AmppmPlanner, DimmingLevel, FlickerRules, SlotErrorProbs, SymbolPattern, SystemConfig,
    };
    pub use smartvlc_link::{
        ChannelFidelity, LinkConfig, LinkSimulation, Receiver, RxEvent, SchemeKind, Transmitter,
    };
    pub use smartvlc_sim::{
        energy_from_trace, run_broadcast, run_day, run_dynamic, run_scheme_matrix, summarize,
        UserStudy,
    };
    pub use vlc_channel::ambient::{AmbientProfile, BlindRamp, ConstantAmbient, DiurnalProfile};
    pub use vlc_channel::{ChannelConfig, OpticalChannel, RxScratch, ShadowingModel};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let cfg = SystemConfig::default();
        let planner = AmppmPlanner::new(cfg).unwrap();
        let plan = planner.plan(DimmingLevel::new(0.5).unwrap()).unwrap();
        assert!(plan.norm_rate > 0.8);
    }
}
