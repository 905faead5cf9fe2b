//! Reliable file transfer over a noisy 3.8 m SmartVLC link.
//!
//! Splits a payload into MAC frames, streams them through the channel at
//! a distance where slot errors are common, and lets the ARQ recover the
//! losses. Demonstrates the receiver/ACK machinery directly (the link
//! simulation wraps the same pieces).
//!
//! ```sh
//! cargo run --release --example file_transfer
//! ```

use smartvlc::link::mac::MacHeader;
use smartvlc::prelude::*;

fn main() {
    let cfg = SystemConfig::default();
    let level = DimmingLevel::new(0.5).unwrap();

    // The "file": 4 KB of structured data we can verify at the far end.
    let file: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
    let chunk = cfg.payload_len - MacHeader::WIRE_BYTES;
    let chunks: Vec<&[u8]> = file.chunks(chunk).collect();
    println!(
        "sending {} bytes in {} frames over 3.8 m (slot errors expected)...",
        file.len(),
        chunks.len()
    );

    let mut codec = FrameCodec::new(cfg.clone()).unwrap();
    let mut rx = Receiver::new(cfg.clone()).unwrap();
    let mut channel =
        OpticalChannel::new(ChannelConfig::paper_bench(3.8), DetRng::seed_from_u64(7));

    let mut scratch = RxScratch::new();
    let mut received: Vec<Option<Vec<u8>>> = vec![None; chunks.len()];
    let mut transmissions = 0u32;
    let mut crc_drops = 0u32;
    let descriptor = amppm_descriptor(&cfg, level);

    // Simple ARQ: keep cycling over unacknowledged chunks.
    while received.iter().any(Option::is_none) {
        for (seq, data) in chunks.iter().enumerate() {
            if received[seq].is_some() {
                continue;
            }
            let payload = MacHeader { seq: seq as u16 }.encapsulate(data);
            let frame = Frame::new(descriptor, payload).unwrap();
            let slots = codec.emit(&frame).unwrap();
            transmissions += 1;
            channel.transmit_and_decide_into(&slots, &mut scratch);
            for ev in rx.push_slots(&scratch.decided) {
                match ev {
                    RxEvent::Frame { frame, .. } => {
                        if let Some((hdr, body)) = MacHeader::decapsulate(&frame.payload) {
                            received[hdr.seq as usize] = Some(body.to_vec());
                        }
                    }
                    RxEvent::CrcFailed { .. } => crc_drops += 1,
                }
            }
        }
    }

    let reassembled: Vec<u8> = received
        .into_iter()
        .map(Option::unwrap)
        .collect::<Vec<_>>()
        .concat();
    assert_eq!(reassembled, file, "file corrupted!");
    println!(
        "done: {} transmissions for {} frames ({} CRC drops recovered by ARQ)",
        transmissions,
        chunks.len(),
        crc_drops
    );
    println!("file verified byte-for-byte at the receiver.");
}
