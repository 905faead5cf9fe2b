//! Hot-path benchmarks for the enumerative codec (§4.4).
//!
//! The paper's pitch for combinatorial dichotomy is that it replaces a
//! 126 TB table with an O(N) walk — these benches quantify that walk at
//! the pattern sizes the modem actually uses, up to the Nmax = 500
//! flicker-bound extreme.

use combinat::{
    decode_codeword, decode_words, encode_codeword, BigUint, BinomialTable, BitWriter,
    EncodeScratch,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use desim::DetRng;
use std::hint::black_box;

fn bench_codeword(c: &mut Criterion) {
    let mut group = c.benchmark_group("codeword");
    for (n, k) in [
        (20usize, 10usize),
        (21, 11),
        (50, 25),
        (120, 60),
        (500, 250),
    ] {
        let table = BinomialTable::new(512);
        // Pre-warm the Pascal rows so the bench isolates the walk.
        table.binomial(n, k);
        let value = table
            .binomial(n, k)
            .checked_sub(&BigUint::from_u64(12345))
            .unwrap();
        group.bench_function(format!("encode_{n}_{k}"), |b| {
            b.iter(|| black_box(encode_codeword(&table, n, k, black_box(&value)).unwrap()))
        });
        let codeword = encode_codeword(&table, n, k, &value).unwrap();
        group.bench_function(format!("decode_{n}_{k}"), |b| {
            b.iter(|| black_box(decode_codeword(&table, n, k, black_box(&codeword)).unwrap()))
        });
    }
    group.finish();
}

/// The receiver's block path: one `decode_words` call over a stream of
/// random S(29, 14) symbols (a pattern the AMPPM planner emits), packed
/// once and ranked into one `BitWriter`.
fn bench_decode_words_stream(c: &mut Criterion) {
    const SYMBOLS: usize = 1024;
    let (n, k) = (29usize, 14usize);
    let table = BinomialTable::new(512);
    let count = table.binomial_u128(n, k).unwrap();
    let mut rng = DetRng::seed_from_u64(29);
    let slots: Vec<bool> = (0..SYMBOLS)
        .flat_map(|_| {
            let value = BigUint::from_u128(u128::from(rng.next_u64()) % count);
            encode_codeword(&table, n, k, &value).unwrap()
        })
        .collect();
    let mut scratch = EncodeScratch::new();
    let mut group = c.benchmark_group("decode_words_stream");
    group.throughput(Throughput::Elements(SYMBOLS as u64));
    group.bench_function(format!("s{n}_{k}_x{SYMBOLS}"), |b| {
        b.iter(|| {
            let mut writer = BitWriter::new();
            let walk = std::iter::repeat_n((n, k), SYMBOLS);
            let failures =
                decode_words(&table, walk, black_box(&slots), &mut scratch, &mut writer).unwrap();
            black_box((writer.len_bits(), failures))
        })
    });
    group.finish();
}

fn bench_table(c: &mut Criterion) {
    c.bench_function("binomial_table_build_512", |b| {
        b.iter_batched(
            || BinomialTable::new(512),
            |t| {
                black_box(t.binomial(500, 250));
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_codeword,
    bench_decode_words_stream,
    bench_table
);
criterion_main!(benches);
