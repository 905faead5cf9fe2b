//! Scratch-buffer codec API vs the allocating wrappers on the per-symbol
//! hot path.
//!
//! `encode_codeword` / `decode_codeword` allocate a fresh BigUint
//! workspace (and output vector) per symbol; `encode_codeword_into` /
//! `decode_codeword_with` reuse an [`EncodeScratch`] and an output buffer
//! across the whole frame, and take a pure-u128 walk whenever C(N, K)
//! fits 128 bits (every modem-reachable N does). The `*_alloc` vs
//! `*_scratch` pairs below quantify the gap at the pattern sizes the
//! modem uses; (500, 250) exercises the BigUint path that remains for
//! the flicker-bound extreme.

use combinat::{
    decode_codeword, decode_codeword_with, encode_codeword, encode_codeword_into, BigUint,
    BinomialTable, EncodeScratch,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_scratch_vs_alloc(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_scratch");
    for (n, k) in [(20usize, 10usize), (31, 15), (120, 60), (500, 250)] {
        let table = BinomialTable::shared(512);
        let value = table
            .binomial(n, k)
            .checked_sub(&BigUint::from_u64(12345))
            .unwrap();

        group.bench_function(format!("encode_alloc_{n}_{k}"), |b| {
            b.iter(|| black_box(encode_codeword(&table, n, k, black_box(&value)).unwrap()))
        });
        group.bench_function(format!("encode_scratch_{n}_{k}"), |b| {
            let mut scratch = EncodeScratch::new();
            let mut out = Vec::with_capacity(n);
            b.iter(|| {
                out.clear();
                encode_codeword_into(&table, n, k, black_box(&value), &mut scratch, &mut out)
                    .unwrap();
                black_box(out.len())
            })
        });

        let codeword = encode_codeword(&table, n, k, &value).unwrap();
        group.bench_function(format!("decode_alloc_{n}_{k}"), |b| {
            b.iter(|| black_box(decode_codeword(&table, n, k, black_box(&codeword)).unwrap()))
        });
        group.bench_function(format!("decode_scratch_{n}_{k}"), |b| {
            let mut scratch = EncodeScratch::new();
            b.iter(|| {
                black_box(
                    decode_codeword_with(&table, n, k, black_box(&codeword), &mut scratch).unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scratch_vs_alloc);
criterion_main!(benches);
