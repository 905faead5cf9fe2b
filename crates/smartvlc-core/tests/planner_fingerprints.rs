//! The AMPPM planner's output, pinned bit for bit.
//!
//! A checked-in table holds, per (calibration, degradation tier), a 64-bit
//! hash of the exact bits of every [`SuperSymbolPlan`] field for all 1025
//! header-grid levels `q / 1024`. Any change to what
//! [`AmppmPlanner::plan_tiered`] returns — a different pair, different
//! multiplicities, a float computed in another order — changes a hash. On
//! a mismatch the test prints the whole computed table, so a deliberate
//! change can paste it in.

use smartvlc_core::amppm::{AmppmPlanner, PlanError, SuperSymbolPlan, MAX_DEGRADE_TIER};
use smartvlc_core::{DimmingLevel, SystemConfig};
use std::fmt::Write as _;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Exact bits of one planner answer. The destructuring is exhaustive, so
/// a field added to the plan fails to compile here until it is hashed.
fn plan_words(r: &Result<SuperSymbolPlan, PlanError>, w: &mut Vec<u64>) {
    match r {
        Ok(SuperSymbolPlan {
            super_symbol: ss,
            achieved,
            requested,
            norm_rate,
            rate_bps,
            expected_ser,
        }) => w.extend([
            1,
            ss.s1().n().into(),
            ss.s1().k().into(),
            ss.m1().into(),
            ss.s2().n().into(),
            ss.s2().k().into(),
            ss.m2().into(),
            achieved.value().to_bits(),
            requested.value().to_bits(),
            norm_rate.to_bits(),
            rate_bps.to_bits(),
            expected_ser.to_bits(),
        ]),
        Err(e) => {
            w.push(0);
            w.extend(format!("{e:?}").bytes().map(u64::from));
        }
    }
}

/// Hash of every level's plan at one tier.
fn tier_fingerprint(planner: &AmppmPlanner, tier: u8) -> u64 {
    let mut w = Vec::new();
    for q in 0..=1024u32 {
        let level = DimmingLevel::new(f64::from(q) / 1024.0).expect("q/1024 is in [0, 1]");
        plan_words(&planner.plan_tiered(level, tier), &mut w);
    }
    fnv1a(&w)
}

/// One row per (calibration, tier): the [`tier_fingerprint`].
#[rustfmt::skip]
const PINS: &[(&str, u8, u64)] = &[
    ("default", 0, 0xf5b79b15d23b47ae),
    ("default", 1, 0x5bf990a372ef6fee),
    ("default", 2, 0x9f879963ba07090d),
    ("default", 3, 0x5cd300edc61a72da),
    ("optimistic", 0, 0xdc3239a46f8a85b1),
    ("optimistic", 1, 0xbe338fc921864d66),
    ("optimistic", 2, 0x43b23fbfcac3885f),
    ("optimistic", 3, 0xbf8ad5793bf9364f),
];

#[test]
fn plan_tiered_matches_the_pinned_fingerprints() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    let mut rows = 0;
    for (name, cfg) in [
        ("default", SystemConfig::default()),
        ("optimistic", SystemConfig::paper_optimistic()),
    ] {
        let planner = AmppmPlanner::new(cfg).expect("calibration plans");
        for tier in 0..=MAX_DEGRADE_TIER {
            let hash = tier_fingerprint(&planner, tier);
            let pinned = PINS.iter().find(|p| p.0 == name && p.1 == tier);
            if pinned.map(|p| p.2) != Some(hash) {
                mismatches.push(format!("{name}/{tier}"));
            }
            rows += 1;
            writeln!(table, "    ({name:?}, {tier}, {hash:#018x}),").unwrap();
        }
    }
    assert!(
        mismatches.is_empty() && PINS.len() == rows,
        "plan_tiered moved on {mismatches:?}; computed table:\n{table}"
    );
}
