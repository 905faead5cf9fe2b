//! The outer code's per-block kernels: interleaved Reed–Solomon encode,
//! clean decode (syndromes only) and decode at capability (`t` errors
//! in every codeword, so Berlekamp–Massey, Chien and the solve all run).
//!
//! The block is the paper's 128 B payload plus its 2 B CRC, the size the
//! frame codec hands the code on every coded frame.

use criterion::{criterion_group, criterion_main, Criterion};
use smartvlc_fec::{decode, encode, FecProfile};
use std::hint::black_box;

const BLOCK: usize = 130;

fn bench_fec(c: &mut Criterion) {
    let data: Vec<u8> = (0..BLOCK).map(|i| (i * 37 + 11) as u8).collect();
    let mut group = c.benchmark_group("fec");
    for profile in FecProfile::ALL {
        let name = format!("{profile:?}").to_lowercase();
        let coded = encode(profile, &data);
        // A burst of c·t bytes lands exactly t errors on each codeword.
        let burst = profile.codewords_for(BLOCK) * profile.t();
        let mut hit = coded.clone();
        for b in hit.iter_mut().skip(7).take(burst) {
            *b ^= 0x5a;
        }
        assert!(decode(profile, &hit, BLOCK).ok);

        group.bench_function(format!("encode_{name}"), |b| {
            b.iter(|| black_box(encode(profile, black_box(&data))))
        });
        group.bench_function(format!("decode_clean_{name}"), |b| {
            b.iter(|| black_box(decode(profile, black_box(&coded), BLOCK)))
        });
        group.bench_function(format!("decode_t_errors_{name}"), |b| {
            b.iter(|| black_box(decode(profile, black_box(&hit), BLOCK)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fec);
criterion_main!(benches);
