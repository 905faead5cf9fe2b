//! Ablation: super-symbol ordering — even interleave (ours) vs plain
//! concatenation (the paper's Fig. 7).
//!
//! The paper bounds the *length* of a super-symbol (Eq. 4) so its
//! internal brightness structure repeats above fth, and concatenates
//! `m1 × S1` then `m2 × S2`. We additionally spread the copies evenly.
//! This binary quantifies what that buys: the peak short-window
//! brightness excursion of the waveform (the quantity the eye's
//! fth-period integration sees) for both orderings, across dimming
//! levels. Same data, same rate, same length — strictly less
//! low-frequency ripple.

use combinat::{encode_words, BinomialTable, BitReader, EncodeScratch};
use smartvlc_bench::{f, results_dir};
use smartvlc_core::{AmppmPlanner, DimmingLevel, SystemConfig};
use smartvlc_sim::report::{markdown_table, write_csv};

/// Peak absolute deviation of the sliding `w`-slot mean from the global
/// duty (the eye-filtered ripple amplitude).
fn ripple(slots: &[bool], w: usize) -> f64 {
    if slots.len() < w {
        return 0.0;
    }
    let duty = slots.iter().filter(|&&b| b).count() as f64 / slots.len() as f64;
    let mut ones: i64 = slots[..w].iter().map(|&b| b as i64).sum();
    let mut worst = 0.0f64;
    for i in 0..=slots.len() - w {
        if i > 0 {
            ones += slots[i + w - 1] as i64 - slots[i - 1] as i64;
        }
        worst = worst.max((ones as f64 / w as f64 - duty).abs());
    }
    worst
}

fn main() {
    let cfg = SystemConfig::default();
    let planner = AmppmPlanner::new(cfg.clone()).unwrap();
    let table = BinomialTable::new(512);
    let payload = vec![0x5Au8; 256];
    let w = 125; // 1 ms window: intra-super-symbol timescale

    let mut rows = Vec::new();
    let mut improvements = Vec::new();
    for i in 1..=9 {
        let l = i as f64 / 10.0;
        let plan = planner.plan(DimmingLevel::new(l).unwrap()).unwrap();
        let ss = plan.super_symbol;
        if ss.m1() == 0 || ss.m2() == 0 {
            continue; // single-pattern super-symbol: orderings coincide
        }

        // Build both waveforms from the same data bits.
        let build = |patterns: &[smartvlc_core::SymbolPattern], table: &BinomialTable| {
            let mut reader = BitReader::new(&payload);
            let mut slots = Vec::new();
            // four super-symbols worth
            let walk = patterns.iter().cycle().take(4 * patterns.len());
            let walk = walk.map(|&p| p.into());
            let mut scratch = EncodeScratch::new();
            encode_words(table, walk, &mut reader, &mut scratch, &mut slots)
                .expect("invariant k<=n");
            slots
        };
        let interleaved = build(&ss.symbols().collect::<Vec<_>>(), &table);
        let mut concat_seq = vec![ss.s1(); ss.m1() as usize];
        concat_seq.extend(vec![ss.s2(); ss.m2() as usize]);
        let concatenated = build(&concat_seq, &table);

        let r_int = ripple(&interleaved, w);
        let r_cat = ripple(&concatenated, w);
        improvements.push(r_cat / r_int.max(1e-12));
        rows.push(vec![
            f(l, 1),
            format!("{:?}", ss),
            f(r_cat, 4),
            f(r_int, 4),
            format!("{:.2}x", r_cat / r_int.max(1e-12)),
        ]);
    }
    println!("Super-symbol ordering ablation — 1 ms-window brightness ripple:\n");
    println!(
        "{}",
        markdown_table(
            &[
                "level",
                "super-symbol",
                "concat ripple",
                "interleaved ripple",
                "reduction"
            ],
            &rows
        )
    );
    let mean = improvements.iter().sum::<f64>() / improvements.len().max(1) as f64;
    println!("mean ripple reduction from interleaving: {mean:.2}x");
    println!("(both orderings satisfy Eq. 4; interleaving just leaves more margin)");
    assert!(mean >= 1.0, "interleaving must not be worse on average");

    write_csv(
        results_dir().join("ablation_interleaving.csv"),
        &[
            "level",
            "super_symbol",
            "concat",
            "interleaved",
            "reduction",
        ],
        &rows,
    )
    .expect("write csv");
}
