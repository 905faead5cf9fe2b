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
    let mut out = Vec::with_capacity(slots.len());
    group.bench_function("slot_iid", |b| {
        b.iter(|| {
            probs.flip_into(&mut rng, black_box(&slots), &mut out);
            black_box(out.as_slice());
        })
    });

    // The LED step the sampled kernel runs per slot on an LED-step memo
    // miss (a hit reads its result from the memo instead).
    group.bench_function("led_slot_step", |b| {
        let step = vlc_channel::led::LedModel::philips_4w7().slot_step(8e-6, 4);
        b.iter(|| {
            let mut power = step.initial_power(slots[0]);
            for &slot in black_box(&slots) {
                power = step.walk(power, slot, |_, p| {
                    black_box(p);
                });
            }
            black_box(power)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_channel);
criterion_main!(benches);
