//! Property tests for the wire protocol: encode∘decode ≡ id on arbitrary
//! snapshots, deltas and messages — per payload and through the stream
//! reader under arbitrary read splits — plus totality on hostile bytes
//! (the decoders error, they never panic or over-allocate).

use armus_core::{BlockedInfo, Delta, PhaserId, Registration, Resource, Snapshot, TaskId};
use armus_dist::wire::{self, Request, Response, WireError};
use armus_dist::{SiteId, TenantId};
use proptest::prelude::*;

fn arb_blocked() -> impl Strategy<Value = BlockedInfo> {
    (
        0u64..200,
        0u32..4,
        1u64..6,
        0u64..5,
        proptest::collection::vec((1u64..6, 0u64..5), 0..4),
        0u64..1000,
    )
        .prop_map(|(task, site, wait_ph, wait_phase, regs, epoch)| {
            let mut regs: Vec<Registration> =
                regs.into_iter().map(|(q, m)| Registration::new(PhaserId(q), m)).collect();
            regs.sort_by_key(|r| r.phaser);
            regs.dedup_by_key(|r| r.phaser);
            let mut info = BlockedInfo::new(
                TaskId(task).with_site(site),
                vec![Resource::new(PhaserId(wait_ph), wait_phase + 1)],
                regs,
            );
            info.epoch = epoch;
            info
        })
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    proptest::collection::vec(arb_blocked(), 0..8).prop_map(Snapshot::from_tasks)
}

fn arb_delta() -> impl Strategy<Value = Delta> {
    prop_oneof![
        arb_blocked().prop_map(Delta::Block),
        (0u64..500).prop_map(|t| Delta::Unblock(TaskId(t))),
    ]
}

/// Encodes `msg` as one frame and reads it back through a
/// [`wire::FrameBuffer`] fed `chunk` bytes at a time, the way a socket
/// may split it: exactly one frame comes out, and nothing is left over.
fn frame_roundtrip<T: wire::FlatMessage>(msg: &T, chunk: usize) -> T {
    let mut bytes = Vec::new();
    wire::encode_frame_v2_into(&mut bytes, 1, msg).expect("bounded test message");
    let mut fb = wire::FrameBuffer::new();
    let mut frames = Vec::new();
    for piece in bytes.chunks(chunk) {
        fb.feed(piece);
        while let Some(frame) = fb.next_frame::<T>().expect("decode") {
            frames.push(frame.msg);
        }
    }
    assert!(!fb.has_partial(), "the whole frame was consumed");
    assert_eq!(frames.len(), 1, "exactly one frame");
    frames.pop().unwrap()
}

/// Encodes as a frame and decodes its payload, returning the whole frame
/// (correlation id and message).
fn flat_roundtrip<T: wire::FlatMessage>(msg: &T, corr: u64) -> wire::Frame<T> {
    let mut out = Vec::new();
    wire::encode_frame_v2_into(&mut out, corr, msg).expect("bounded test message");
    wire::decode_frame_payload(&out[4..]).expect("flat decode")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn snapshots_round_trip(snap in arb_snapshot(), tenant in 0u32..8, chunk in 1usize..64) {
        let back = frame_roundtrip(&Request::PublishFull {
            site: SiteId(3),
            tenant: TenantId(tenant),
            snapshot: snap.clone(),
            version: 17,
        }, chunk);
        prop_assert_eq!(
            back,
            Request::PublishFull {
                site: SiteId(3),
                tenant: TenantId(tenant),
                snapshot: snap,
                version: 17,
            }
        );
    }

    #[test]
    fn delta_intervals_round_trip(
        deltas in proptest::collection::vec(arb_delta(), 0..10),
        base in 0u64..1000,
        span in 0u64..50,
        tenant in 0u32..8,
        chunk in 1usize..64,
    ) {
        let msg = Request::PublishDeltas {
            site: SiteId(1),
            tenant: TenantId(tenant),
            base,
            deltas,
            next: base + span,
        };
        prop_assert_eq!(frame_roundtrip(&msg, chunk), msg);
    }

    #[test]
    fn views_round_trip(
        parts in proptest::collection::vec((0u32..8, arb_snapshot()), 0..5),
        chunk in 1usize..64,
    ) {
        let view: Vec<(SiteId, Snapshot)> =
            parts.into_iter().map(|(s, p)| (SiteId(s), p)).collect();
        let msg = Response::View(view);
        prop_assert_eq!(frame_roundtrip(&msg, chunk), msg);
    }

    /// Totality of the stream reader: any byte soup yields some frames,
    /// then waits for more bytes or errors — never a panic, and never a
    /// huge allocation (the input is tiny, so the length and count guards
    /// must bound everything).
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut requests = wire::FrameBuffer::new();
        requests.feed(&bytes);
        while let Ok(Some(_)) = requests.next_frame::<Request>() {}
        let mut responses = wire::FrameBuffer::new();
        responses.feed(&bytes);
        while let Ok(Some(_)) = responses.next_frame::<Response>() {}
    }

    /// A truncated frame is never misread by the stream reader: cut short
    /// on the wire it is held as a partial, and re-prefixed as if the
    /// sender meant the shorter payload it is rejected.
    #[test]
    fn truncated_payloads_are_rejected(snap in arb_snapshot(), cut in 1usize..32) {
        let mut frame = Vec::new();
        wire::encode_frame_v2_into(&mut frame, 3, &Request::Publish {
            site: SiteId(0),
            tenant: TenantId::DEFAULT,
            snapshot: snap,
        })
        .unwrap();
        let payload_len = frame.len() - 4;
        if cut < payload_len {
            let mut held = wire::FrameBuffer::new();
            held.feed(&frame[..frame.len() - cut]);
            prop_assert!(matches!(held.next_frame::<Request>(), Ok(None)));
            prop_assert!(held.has_partial());

            let short = (payload_len - cut) as u32;
            let mut rejected = wire::FrameBuffer::new();
            rejected.feed(&short.to_le_bytes());
            rejected.feed(&frame[4..frame.len() - cut]);
            prop_assert!(matches!(
                rejected.next_frame::<Request>(),
                Err(WireError::Malformed(_))
            ));
        }
    }

    #[test]
    fn flat_snapshots_round_trip_with_correlation(
        snap in arb_snapshot(),
        corr in any::<u64>(),
        tenant in any::<u32>(),
    ) {
        let msg = Request::PublishFull {
            site: SiteId(3),
            tenant: TenantId(tenant),
            snapshot: snap,
            version: 17,
        };
        let frame = flat_roundtrip(&msg, corr);
        prop_assert_eq!(frame.corr, corr);
        prop_assert_eq!(frame.msg, msg);
    }

    #[test]
    fn flat_delta_intervals_round_trip(
        deltas in proptest::collection::vec(arb_delta(), 0..10),
        base in 0u64..1000,
        span in 0u64..50,
        corr in any::<u64>(),
    ) {
        let msg = Request::PublishDeltas {
            site: SiteId(1),
            tenant: TenantId(2),
            base,
            deltas,
            next: base + span,
        };
        prop_assert_eq!(flat_roundtrip(&msg, corr).msg, msg);
    }

    #[test]
    fn flat_views_round_trip(
        parts in proptest::collection::vec((0u32..8, arb_snapshot()), 0..5),
        corr in any::<u64>(),
    ) {
        let view: Vec<(SiteId, Snapshot)> =
            parts.into_iter().map(|(s, p)| (SiteId(s), p)).collect();
        let msg = Response::View(view);
        let frame = flat_roundtrip(&msg, corr);
        prop_assert_eq!(frame.corr, corr);
        prop_assert_eq!(frame.msg, msg);
    }

    /// Totality of the payload decoder: any byte soup either decodes or
    /// errors — never a panic, never a huge allocation, for requests and
    /// responses alike.
    #[test]
    fn arbitrary_bytes_never_panic_the_flat_decoder(payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = wire::decode_frame_payload::<Request>(&payload);
        let _ = wire::decode_frame_payload::<Response>(&payload);
    }

    /// Truncating a flat frame is always rejected, never misread — the
    /// fixed-width headers and count guards catch every cut.
    #[test]
    fn truncated_flat_payloads_are_rejected(snap in arb_snapshot(), corr in any::<u64>(), cut in 1usize..32) {
        let msg = Request::PublishFull {
            site: SiteId(0),
            tenant: TenantId::DEFAULT,
            snapshot: snap,
            version: 4,
        };
        let mut out = Vec::new();
        wire::encode_frame_v2_into(&mut out, corr, &msg).unwrap();
        let payload = &out[4..];
        if cut < payload.len() {
            let truncated = &payload[..payload.len() - cut];
            prop_assert!(wire::decode_frame_payload::<Request>(truncated).is_err());
        }
    }

    /// Appending bytes to a flat frame is also rejected: v2 decoding is
    /// exact, so a desynchronised stream can never be misparsed.
    #[test]
    fn flat_trailing_garbage_is_rejected(snap in arb_snapshot(), junk in proptest::collection::vec(any::<u8>(), 1..8)) {
        let msg = Request::PublishFull {
            site: SiteId(0),
            tenant: TenantId::DEFAULT,
            snapshot: snap,
            version: 4,
        };
        let mut out = Vec::new();
        wire::encode_frame_v2_into(&mut out, 7, &msg).unwrap();
        out.extend_from_slice(&junk);
        prop_assert!(matches!(
            wire::decode_frame_payload::<Request>(&out[4..]),
            Err(WireError::Malformed(_))
        ));
    }
}
