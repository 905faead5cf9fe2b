//! Channel-simulation benchmarks: the full sampled pipeline vs the
//! i.i.d. slot-error fast path, per 1000 slots (8 ms of air time).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use desim::DetRng;
use std::hint::black_box;
use vlc_channel::link::{ChannelConfig, OpticalChannel, RxScratch};

fn bench_channel(c: &mut Criterion) {
    let slots: Vec<bool> = (0..1000).map(|i| i % 3 != 0).collect();
    let mut group = c.benchmark_group("channel_1000_slots");
    group.throughput(Throughput::Elements(1000));

    let mut sampled =
        OpticalChannel::new(ChannelConfig::paper_bench(3.0), DetRng::seed_from_u64(1));
    let mut scratch = RxScratch::new();
    group.bench_function("sampled_pipeline", |b| {
        b.iter(|| {
            sampled.transmit_and_decide_into(black_box(&slots), &mut scratch);
            black_box(scratch.decided.as_slice());
        })
    });

    // The SlotIid fast path the link simulation uses for long runs.
    let probs = OpticalChannel::new(ChannelConfig::paper_bench(3.0), DetRng::seed_from_u64(1))
        .analytic_error_probs();
    let mut rng = DetRng::seed_from_u64(2);
    group.bench_function("slot_iid", |b| {
        b.iter(|| {
            let out: Vec<bool> = slots
                .iter()
                .map(|&s| {
                    let p = if s {
                        probs.p_on_error
                    } else {
                        probs.p_off_error
                    };
                    if rng.chance(p) {
                        !s
                    } else {
                        s
                    }
                })
                .collect();
            black_box(out)
        })
    });

    group.bench_function("led_waveform_synthesis", |b| {
        let led = vlc_channel::led::LedModel::philips_4w7();
        b.iter(|| black_box(led.synthesize(black_box(&slots), 8e-6, 4)))
    });
    group.finish();
}

criterion_group!(benches, bench_channel);
criterion_main!(benches);
