//! Protocol robustness: property-based round-trips for every frame type,
//! and typed rejection of every malformed-input class (truncated frames,
//! flipped bits, oversized lengths, unknown opcodes). The decoder must
//! never panic on arbitrary bytes — a hostile stream costs its sender the
//! connection, nothing more.

use csv_common::key::KeyValue;
use csv_server::{
    decode_request, decode_response, encode_request, encode_response, Decoded, ProtocolError,
    Request, Response, ServerStats, WriteOp, MAX_FRAME_LEN,
};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// A strategy over every request variant, with whole-domain keys/values.
fn request() -> impl Strategy<Value = Request> {
    (
        0u64..8,
        (any::<u64>(), any::<u64>(), any::<u32>()),
        pvec(any::<u64>(), 0..48),
        pvec((any::<bool>(), any::<u64>(), any::<u64>()), 0..24),
    )
        .prop_map(|(kind, (a, b, limit), keys, raw_ops)| match kind {
            0 => Request::Get { key: a },
            1 => Request::MultiGet { keys },
            2 => Request::Range {
                lo: a.min(b),
                hi: a.max(b),
                limit,
            },
            3 => Request::Insert { key: a, value: b },
            4 => Request::Remove { key: a },
            5 => Request::WriteBatch {
                ops: raw_ops
                    .into_iter()
                    .map(|(is_remove, key, value)| {
                        if is_remove {
                            WriteOp::Remove { key }
                        } else {
                            WriteOp::Insert { key, value }
                        }
                    })
                    .collect(),
            },
            6 => Request::Stats,
            _ => Request::Shutdown,
        })
}

/// A strategy over every response variant.
fn response() -> impl Strategy<Value = Response> {
    (
        0u64..9,
        (any::<u64>(), any::<u64>(), any::<bool>()),
        pvec((any::<bool>(), any::<u64>()), 0..48),
        pvec(any::<u8>(), 0..64),
    )
        .prop_map(|(kind, (a, b, flag), pairs, text)| match kind {
            0 => Response::Value(flag.then_some(a)),
            1 => Response::Values(pairs.iter().map(|&(some, v)| some.then_some(v)).collect()),
            2 => Response::Records {
                records: pairs
                    .iter()
                    .map(|&(_, v)| KeyValue {
                        key: v,
                        value: v ^ a,
                    })
                    .collect(),
                truncated: flag,
            },
            3 => Response::Inserted(flag),
            4 => Response::Removed(flag.then_some(b)),
            5 => Response::BatchApplied {
                fresh_inserts: a as u32,
                hits: b as u32,
            },
            6 => Response::Stats(ServerStats {
                keys: a,
                shards: (b as u32) | 1,
                workers: (a as u32) % 64,
                rcu: flag,
                connections: b,
                ops: a ^ b,
                engine_healthy: !flag,
                maintenance: flag,
            }),
            7 => Response::ShuttingDown,
            _ => Response::Error(String::from_utf8_lossy(&text).into_owned()),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode → decode is the identity for every request frame, consumes
    /// exactly the encoded bytes, and every strict prefix is Incomplete.
    #[test]
    fn request_frames_round_trip(req in request(), cut in any::<usize>()) {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        match decode_request(&buf) {
            Ok(Decoded::Frame { value, consumed }) => {
                prop_assert_eq!(value, req);
                prop_assert_eq!(consumed, buf.len());
            }
            other => prop_assert!(false, "expected a frame, got {:?}", other),
        }
        let cut = cut % buf.len();
        prop_assert_eq!(decode_request(&buf[..cut]), Ok(Decoded::Incomplete));
    }

    /// Same for every response frame.
    #[test]
    fn response_frames_round_trip(resp in response(), cut in any::<usize>()) {
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        match decode_response(&buf) {
            Ok(Decoded::Frame { value, consumed }) => {
                prop_assert_eq!(value, resp);
                prop_assert_eq!(consumed, buf.len());
            }
            other => prop_assert!(false, "expected a frame, got {:?}", other),
        }
        let cut = cut % buf.len();
        prop_assert_eq!(decode_response(&buf[..cut]), Ok(Decoded::Incomplete));
    }

    /// Pure fuzz: arbitrary bytes never panic either decoder — they decode,
    /// wait for more input, or fail with a typed error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in pvec(any::<u8>(), 0..256)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Flipping any single bit of a valid frame is caught: the CRC rejects
    /// payload damage, and header damage either changes the length (longer
    /// → Incomplete/Oversized, shorter/other → CRC or structure error) but
    /// never yields the original value with a wrong payload.
    #[test]
    fn single_bit_flips_never_yield_a_wrong_payload(
        req in request(),
        flip in any::<usize>(),
    ) {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        let bit = flip % (buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        match decode_request(&buf) {
            // A length-field flip can make the frame look unfinished, and
            // flipping one bit inside e.g. a key while *also* hitting the
            // CRC is impossible — so any successfully decoded frame must
            // be byte-identical to what was sent, which a single flipped
            // bit rules out entirely.
            Ok(Decoded::Frame { value, .. }) => {
                prop_assert_eq!(value, req, "a corrupted frame decoded to a different value");
                // Reaching here would mean the flip was absorbed; with
                // len+crc+payload all covered, that cannot happen.
                prop_assert!(false, "a flipped bit went undetected");
            }
            Ok(Decoded::Incomplete) | Err(_) => {}
        }
    }
}

#[test]
fn truncated_bad_crc_oversized_and_unknown_opcode_are_distinct_typed_errors() {
    let mut valid = Vec::new();
    encode_request(&Request::Get { key: 7 }, &mut valid);

    // Truncated *within* a declared frame: shrink the length field so the
    // payload ends before the Get's key — the reader reports Truncated.
    let mut short = valid.clone();
    short[0] = 5; // opcode + 4 of the key's 8 bytes
    short.truncate(8 + 5);
    let crc = csv_common::crc::crc32(&short[8..]);
    short[4..8].copy_from_slice(&crc.to_le_bytes());
    assert_eq!(decode_request(&short), Err(ProtocolError::Truncated));

    // Bad CRC: flip a payload bit, leave the header alone.
    let mut corrupt = valid.clone();
    *corrupt.last_mut().unwrap() ^= 0x40;
    assert!(matches!(
        decode_request(&corrupt),
        Err(ProtocolError::BadCrc { .. })
    ));

    // Oversized: a hostile 512 MiB length prefix is rejected from the
    // 8 header bytes alone, before any payload arrives or is buffered.
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&(512u32 << 20).to_le_bytes());
    oversized.extend_from_slice(&[0, 0, 0, 0]);
    assert_eq!(
        decode_request(&oversized),
        Err(ProtocolError::Oversized {
            len: 512 << 20,
            max: MAX_FRAME_LEN,
        })
    );

    // Unknown opcode with a valid header.
    let payload = [0xEEu8];
    let mut unknown = Vec::new();
    unknown.extend_from_slice(&1u32.to_le_bytes());
    unknown.extend_from_slice(&csv_common::crc::crc32(&payload).to_le_bytes());
    unknown.extend_from_slice(&payload);
    assert_eq!(
        decode_request(&unknown),
        Err(ProtocolError::UnknownOpcode(0xEE))
    );

    // Every error renders a distinct human-readable message.
    let messages: Vec<String> = [
        ProtocolError::Truncated,
        ProtocolError::BadCrc {
            expected: 1,
            found: 2,
        },
        ProtocolError::Oversized {
            len: 512 << 20,
            max: MAX_FRAME_LEN,
        },
        ProtocolError::UnknownOpcode(0xEE),
        ProtocolError::Malformed("tag"),
    ]
    .iter()
    .map(|e| e.to_string())
    .collect();
    for (i, a) in messages.iter().enumerate() {
        assert!(!a.is_empty());
        for b in &messages[i + 1..] {
            assert_ne!(a, b);
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One frame of every request and response kind, byte for byte as the
/// commit before the in-place encoder and the sliced CRC wrote it (captured
/// by running that commit's `encode_*`): the wire format is asserted
/// unchanged, not assumed, and old bytes still decode to the same values.
#[test]
fn golden_frames_are_byte_identical_to_the_previous_encoder() {
    let requests = [
        (
            Request::Get {
                key: 0x0102_0304_0506_0708,
            },
            "09000000a1329c31010807060504030201",
        ),
        (
            Request::MultiGet {
                keys: vec![1, u64::MAX, 0],
            },
            "1d0000005498ced902030000000100000000000000ffffffffffffffff0000000000000000",
        ),
        (
            Request::Range {
                lo: 5,
                hi: 500,
                limit: 100,
            },
            "1500000088fdd123030500000000000000f40100000000000064000000",
        ),
        (
            Request::Insert { key: 7, value: 9 },
            "110000002c3551580407000000000000000900000000000000",
        ),
        (
            Request::Remove { key: 7 },
            "09000000f8585ba6050700000000000000",
        ),
        (
            Request::WriteBatch {
                ops: vec![
                    WriteOp::Insert { key: 1, value: 2 },
                    WriteOp::Remove { key: 3 },
                ],
            },
            "1f0000002f0bdbdf06020000000001000000000000000200000000000000010300000000000000",
        ),
        (Request::Stats, "010000002e7a664c07"),
        (Request::Shutdown, "01000000bf67d9dc08"),
    ];
    for (request, golden) in requests {
        let mut frame = Vec::new();
        encode_request(&request, &mut frame);
        assert_eq!(hex(&frame), golden, "{request:?}");
        assert_eq!(
            decode_request(&frame),
            Ok(Decoded::Frame {
                value: request,
                consumed: frame.len()
            })
        );
    }

    let responses = [
        (Response::Value(Some(9)), "0a000000210579e281010900000000000000"),
        (Response::Value(None), "02000000f5bb41638100"),
        (
            Response::Values(vec![Some(1), None, Some(u64::MAX)]),
            "18000000f7e80b2a82030000000101000000000000000001ffffffffffffffff",
        ),
        (
            Response::Records {
                records: vec![KeyValue { key: 1, value: 2 }, KeyValue { key: 3, value: 4 }],
                truncated: true,
            },
            "26000000a2d8d28c8301020000000100000000000000020000000000000003000000000000000400000000000000",
        ),
        (Response::Inserted(true), "02000000267f31698401"),
        (Response::Removed(Some(5)), "0a00000014b03dbc85010500000000000000"),
        (
            Response::BatchApplied {
                fresh_inserts: 3,
                hits: 1,
            },
            "09000000ed0d75c5860300000001000000",
        ),
        (
            Response::Stats(ServerStats {
                keys: 10,
                shards: 4,
                workers: 2,
                rcu: true,
                connections: 5,
                ops: 999,
                engine_healthy: true,
                maintenance: false,
            }),
            "240000001350a695870a000000000000000400000002000000010500000000000000e7030000000000000100",
        ),
        (Response::ShuttingDown, "010000009fe4613188"),
        (Response::Error("nope".to_string()), "090000004c4c202289040000006e6f7065"),
    ];
    for (response, golden) in responses {
        let mut frame = Vec::new();
        encode_response(&response, &mut frame);
        assert_eq!(hex(&frame), golden, "{response:?}");
        assert_eq!(
            decode_response(&frame),
            Ok(Decoded::Frame {
                value: response,
                consumed: frame.len()
            })
        );
    }
}

/// An error message too long for a frame is cut at a char boundary: with a
/// multi-byte scalar straddling the byte limit, the frame must still decode
/// (to a prefix of the message), not be rejected as non-UTF-8.
#[test]
fn oversized_error_messages_are_cut_at_a_char_boundary() {
    let limit = MAX_FRAME_LEN - 16;
    for lead in 0..4 {
        // `lead` ASCII bytes, then 3-byte scalars: every phase of the
        // scalar against the limit, including landing exactly on it.
        let message = "x".repeat(lead) + &"€".repeat(limit / 3 + 8);
        assert!(message.len() > limit);
        let mut frame = Vec::new();
        encode_response(&Response::Error(message.clone()), &mut frame);
        let Ok(Decoded::Frame {
            value: Response::Error(cut),
            consumed,
        }) = decode_response(&frame)
        else {
            panic!("lead {lead}: the truncated error frame must decode");
        };
        assert_eq!(consumed, frame.len());
        assert!(message.starts_with(&cut));
        assert!(cut.len() <= limit && cut.len() > limit - 3, "lead {lead}");
    }
}
