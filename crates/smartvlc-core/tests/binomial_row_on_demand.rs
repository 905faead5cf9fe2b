//! A garbage MPPM header at the flicker bound (`N = 500`) costs the
//! receiver one `BigUint` row of the shared binomial table, not every row
//! below it.
//!
//! The interned table is shared by the whole process, so this check has
//! a test binary of its own.

use smartvlc_core::frame::codec::{FrameCodec, PREAMBLE_SLOTS};
use smartvlc_core::frame::{FecMode, FrameCodecError, FrameHeader, PatternDescriptor};
use smartvlc_core::SystemConfig;

#[test]
fn an_mppm_header_at_n_500_builds_exactly_one_row() {
    let mut codec = FrameCodec::new(SystemConfig::default()).expect("valid system config");
    assert_eq!(codec.planner().table().rows_built(), 0);

    let header = FrameHeader {
        payload_len: 128,
        fec: FecMode::Off,
        pattern: PatternDescriptor::Mppm { n: 500, k: 250 },
    };
    let mut slots: Vec<bool> = (0..PREAMBLE_SLOTS).map(|i| i % 2 == 0).collect();
    for b in header.to_bytes() {
        slots.extend((0..8).rev().map(|bit| (b >> bit) & 1 == 1));
    }
    // A one-slot compensation run, the sync edge, and a few payload slots.
    slots.extend([true, false, true, true, false]);

    let err = codec.parse(&slots).expect_err("the payload is missing");
    assert!(
        matches!(err, FrameCodecError::Truncated { .. }),
        "the header is accepted and the payload found short: {err:?}"
    );
    assert_eq!(codec.planner().table().rows_built(), 1);
}
