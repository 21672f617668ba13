//! The `NAUTPROC` wire protocol: length-prefixed, CRC-trailed frames over
//! a child process's stdin/stdout.
//!
//! Every frame is one record of the workspace's one record format,
//! sealed, opened and read by [`nautilus_obs::wire::Envelope`]:
//!
//! ```text
//! | MAGIC(8) | version u32 LE | body_len u64 LE | body | crc32 u32 LE |
//! ```
//!
//! * `MAGIC` is the fixed tag `b"NAUTPROC"`.
//! * `version` is [`VERSION`]; readers reject anything else outright.
//! * `body` is at most [`MAX_BODY_LEN`] bytes and opens with a one-byte
//!   frame kind followed by the kind's [`WireWriter`]-encoded fields.
//! * The [`crc32`](nautilus_obs::crc32) trailer covers everything before
//!   it (magic, version, length, body).
//!
//! The conversation is strictly parent-driven after the handshake:
//!
//! ```text
//! child  -> parent   Hello   { model, gene_len, metric_len }
//! parent -> child    Eval    { id, attempt, genes }
//! child  -> parent   Result  { id, outcome }
//! ...                (one Result per Eval, in order)
//! parent -> child    Shutdown
//! ```
//!
//! Decoding distinguishes a *clean* end of stream (EOF exactly on a frame
//! boundary, [`ProtoError::CleanEof`]) from a mid-frame truncation
//! ([`ProtoError::Truncated`]) — the first is how a child notices the
//! parent closed its stdin; the second is always a fault.

use std::io::{Read, Write};

use nautilus_obs::{Envelope, WireReader, WireWriter};

/// Framing, checksum and body errors: the envelope's `FrameError`.
pub use nautilus_obs::FrameError as ProtoError;

/// Fixed 8-byte tag opening every protocol frame.
pub const MAGIC: &[u8; 8] = b"NAUTPROC";

/// Current protocol version. Bump on any layout change; readers reject
/// unknown versions outright rather than guessing.
pub const VERSION: u32 = 1;

/// Upper bound on a frame body, enforced *before* allocation so a
/// corrupted length prefix cannot drive an OOM.
pub const MAX_BODY_LEN: u64 = 16 * 1024 * 1024;

const ENVELOPE: Envelope = Envelope { magic: MAGIC, version: VERSION, max_body_len: MAX_BODY_LEN };

const KIND_HELLO: u8 = 0;
const KIND_EVAL: u8 = 1;
const KIND_RESULT: u8 = 2;
const KIND_SHUTDOWN: u8 = 3;

const OUTCOME_METRICS: u8 = 0;
const OUTCOME_INFEASIBLE: u8 = 1;
const OUTCOME_FAULT: u8 = 2;

/// How an evaluation attempt ended, as reported by the child.
///
/// The variants deliberately mirror what the in-process
/// `FaultyEvaluator` produces, so a parent can reconstruct the exact
/// same `EvalFailure` taxonomy from the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOutcome {
    /// The tool produced metric values (one per catalog entry).
    Metrics {
        /// True when the tool's output is to be treated as corrupted:
        /// the parent charges the backend, then surfaces NaN so the
        /// engine quarantines the design after retries.
        garbled: bool,
        /// Simulated tool wall time, seconds.
        tool_secs: u64,
        /// Virtual attempt cost for supervision accounting, ms.
        cost_ms: u64,
        /// Metric values in catalog order.
        values: Vec<f64>,
    },
    /// The design point is infeasible for this generator.
    Infeasible {
        /// Virtual attempt cost for supervision accounting, ms.
        cost_ms: u64,
    },
    /// The attempt failed with a classified fault.
    Fault {
        /// Failure class ([`WIRE_FAULT_TRANSIENT`] and friends).
        kind: u8,
        /// Elapsed virtual ms (timeout faults).
        elapsed_ms: u64,
        /// Deadline virtual ms (timeout faults).
        limit_ms: u64,
        /// Human-readable detail; never surfaces in telemetry.
        message: String,
        /// Virtual attempt cost for supervision accounting, ms.
        cost_ms: u64,
        /// True when the child will exit immediately after flushing this
        /// frame (a "dying gasp"): the parent must reap and respawn the
        /// slot before serving the next request.
        dying: bool,
    },
}

/// [`WireOutcome::Fault`] kind: transient worker crash, retryable.
pub const WIRE_FAULT_TRANSIENT: u8 = 0;
/// [`WireOutcome::Fault`] kind: attempt exceeded its deadline.
pub const WIRE_FAULT_TIMEOUT: u8 = 1;
/// [`WireOutcome::Fault`] kind: the generator rejects this design.
pub const WIRE_FAULT_PERSISTENT: u8 = 2;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Child -> parent handshake, sent once at startup.
    Hello {
        /// Cost-model name, validated against the parent's model.
        model: String,
        /// Genome length (number of parameters).
        gene_len: u32,
        /// Metric catalog arity.
        metric_len: u32,
    },
    /// Parent -> child evaluation request.
    Eval {
        /// Request id; the matching [`Frame::Result`] echoes it.
        id: u64,
        /// Retry attempt index (drives deterministic fault fates).
        attempt: u32,
        /// Genome gene values.
        genes: Vec<u32>,
    },
    /// Child -> parent evaluation reply.
    Result {
        /// Echo of the request id.
        id: u64,
        /// How the attempt ended.
        outcome: WireOutcome,
    },
    /// Parent -> child orderly-exit request.
    Shutdown,
}

impl Frame {
    /// Encodes this frame as one complete wire record.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut body = WireWriter::new();
        match self {
            Frame::Hello { model, gene_len, metric_len } => {
                body.u8(KIND_HELLO);
                body.str(model);
                body.u32(*gene_len);
                body.u32(*metric_len);
            }
            Frame::Eval { id, attempt, genes } => {
                body.u8(KIND_EVAL);
                body.u64(*id);
                body.u32(*attempt);
                body.usize(genes.len());
                for &g in genes {
                    body.u32(g);
                }
            }
            Frame::Result { id, outcome } => {
                body.u8(KIND_RESULT);
                body.u64(*id);
                encode_outcome(&mut body, outcome);
            }
            Frame::Shutdown => body.u8(KIND_SHUTDOWN),
        }
        ENVELOPE.seal(&body.into_bytes())
    }

    /// Decodes one complete wire record.
    pub fn decode(record: &[u8]) -> Result<Frame, ProtoError> {
        decode_body(ENVELOPE.open(record)?)
    }

    /// Writes this frame to `w` and flushes.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), ProtoError> {
        w.write_all(&self.encode())?;
        Ok(w.flush()?)
    }

    /// Reads exactly one frame from `r`.
    ///
    /// EOF before the first byte is [`ProtoError::CleanEof`]; EOF anywhere
    /// later is [`ProtoError::Truncated`]. The header is validated before
    /// the body is allocated, so garbage lengths fail fast.
    pub fn read_from(r: &mut impl Read) -> Result<Frame, ProtoError> {
        decode_body(&ENVELOPE.read(r)?)
    }
}

fn encode_outcome(w: &mut WireWriter, outcome: &WireOutcome) {
    match outcome {
        WireOutcome::Metrics { garbled, tool_secs, cost_ms, values } => {
            w.u8(OUTCOME_METRICS);
            w.bool(*garbled);
            w.u64(*tool_secs);
            w.u64(*cost_ms);
            w.usize(values.len());
            for &v in values {
                w.f64(v);
            }
        }
        WireOutcome::Infeasible { cost_ms } => {
            w.u8(OUTCOME_INFEASIBLE);
            w.u64(*cost_ms);
        }
        WireOutcome::Fault { kind, elapsed_ms, limit_ms, message, cost_ms, dying } => {
            w.u8(OUTCOME_FAULT);
            w.u8(*kind);
            w.u64(*elapsed_ms);
            w.u64(*limit_ms);
            w.str(message);
            w.u64(*cost_ms);
            w.bool(*dying);
        }
    }
}

fn decode_body(body: &[u8]) -> Result<Frame, ProtoError> {
    let mut r = WireReader::new(body);
    let frame = match r.u8()? {
        KIND_HELLO => Frame::Hello { model: r.str()?, gene_len: r.u32()?, metric_len: r.u32()? },
        KIND_EVAL => {
            let id = r.u64()?;
            let attempt = r.u32()?;
            let n = r.len_prefix()?;
            let mut genes = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                genes.push(r.u32()?);
            }
            Frame::Eval { id, attempt, genes }
        }
        KIND_RESULT => Frame::Result { id: r.u64()?, outcome: decode_outcome(&mut r)? },
        KIND_SHUTDOWN => Frame::Shutdown,
        other => return Err(ProtoError::Malformed(format!("unknown frame kind {other}"))),
    };
    r.finish()?;
    Ok(frame)
}

fn decode_outcome(r: &mut WireReader<'_>) -> Result<WireOutcome, nautilus_obs::WireError> {
    Ok(match r.u8()? {
        OUTCOME_METRICS => {
            let garbled = r.bool()?;
            let tool_secs = r.u64()?;
            let cost_ms = r.u64()?;
            let n = r.len_prefix()?;
            let mut values = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                values.push(r.f64()?);
            }
            WireOutcome::Metrics { garbled, tool_secs, cost_ms, values }
        }
        OUTCOME_INFEASIBLE => WireOutcome::Infeasible { cost_ms: r.u64()? },
        OUTCOME_FAULT => WireOutcome::Fault {
            kind: r.u8()?,
            elapsed_ms: r.u64()?,
            limit_ms: r.u64()?,
            message: r.str()?,
            cost_ms: r.u64()?,
            dying: r.bool()?,
        },
        other => return Err(nautilus_obs::WireError(format!("unknown outcome tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_ga::rng::{check_cases, SearchRng};
    use nautilus_obs::crc32;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello { model: "router".into(), gene_len: 9, metric_len: 4 },
            Frame::Eval { id: 7, attempt: 2, genes: vec![0, 3, 1, 4, 1, 5] },
            Frame::Result {
                id: 7,
                outcome: WireOutcome::Metrics {
                    garbled: false,
                    tool_secs: 1_234,
                    cost_ms: 456,
                    values: vec![1.5, -0.25, f64::NAN, 1e300],
                },
            },
            Frame::Result { id: 8, outcome: WireOutcome::Infeasible { cost_ms: 77 } },
            Frame::Result {
                id: 9,
                outcome: WireOutcome::Fault {
                    kind: WIRE_FAULT_TIMEOUT,
                    elapsed_ms: 1_001,
                    limit_ms: 1_000,
                    message: "injected".into(),
                    cost_ms: 100,
                    dying: false,
                },
            },
            Frame::Result {
                id: 10,
                outcome: WireOutcome::Fault {
                    kind: WIRE_FAULT_TRANSIENT,
                    elapsed_ms: 0,
                    limit_ms: 0,
                    message: "crash".into(),
                    cost_ms: 250,
                    dying: true,
                },
            },
            Frame::Shutdown,
        ]
    }

    /// NaN-tolerant frame equality (wire f64 is bit-pattern preserving).
    fn frames_eq(a: &Frame, b: &Frame) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    #[test]
    fn every_sample_round_trips_through_bytes() {
        for frame in samples() {
            let bytes = frame.encode();
            let back = Frame::decode(&bytes).expect("decode");
            assert!(frames_eq(&frame, &back), "{frame:?} != {back:?}");
        }
    }

    #[test]
    fn every_sample_round_trips_through_a_stream() {
        let mut stream = Vec::new();
        for frame in samples() {
            frame.write_to(&mut stream).unwrap();
        }
        let mut r = &stream[..];
        for frame in samples() {
            let back = Frame::read_from(&mut r).expect("read");
            assert!(frames_eq(&frame, &back));
        }
        assert!(matches!(Frame::read_from(&mut r), Err(ProtoError::CleanEof)));
    }

    #[test]
    fn golden_frame_bytes_are_stable() {
        // A committed fixture: if this assertion ever fails, the wire
        // format changed and VERSION must be bumped with a migration.
        let frame = Frame::Eval { id: 0x0102_0304, attempt: 5, genes: vec![6, 7] };
        let expected: Vec<u8> = {
            let mut v = Vec::new();
            v.extend_from_slice(b"NAUTPROC");
            v.extend_from_slice(&1u32.to_le_bytes()); // version
            v.extend_from_slice(&29u64.to_le_bytes()); // body_len
            v.push(1); // kind: Eval
            v.extend_from_slice(&0x0102_0304u64.to_le_bytes());
            v.extend_from_slice(&5u32.to_le_bytes());
            v.extend_from_slice(&2u64.to_le_bytes()); // gene count
            v.extend_from_slice(&6u32.to_le_bytes());
            v.extend_from_slice(&7u32.to_le_bytes());
            v.extend_from_slice(&0x1b9a_1d3cu32.to_le_bytes()); // CRC-32 trailer
            v
        };
        assert_eq!(frame.encode(), expected);
        // The literal trailer also pins the checksum algorithm itself
        // (poly 0xEDB88320, reflected, inverted).
        assert_eq!(crc32(&expected[..expected.len() - 4]), 0x1b9a_1d3c);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = Frame::Eval { id: 42, attempt: 1, genes: vec![1, 2, 3] }.encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    Frame::decode(&corrupt).is_err(),
                    "bit {bit} of byte {byte} flipped undetected"
                );
            }
        }
    }

    #[test]
    fn oversized_body_length_is_rejected_before_allocation() {
        let mut bytes = Frame::Shutdown.encode();
        bytes[12..20].copy_from_slice(&(MAX_BODY_LEN + 1).to_le_bytes());
        assert!(
            matches!(Frame::decode(&bytes), Err(ProtoError::Oversized(n)) if n == MAX_BODY_LEN + 1)
        );
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = samples()[2].encode();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut]).expect_err("truncation accepted");
            assert!(
                matches!(err, ProtoError::Truncated | ProtoError::BadMagic),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn stream_truncation_mid_frame_is_not_a_clean_eof() {
        let bytes = samples()[1].encode();
        for cut in 1..bytes.len() {
            let mut r = &bytes[..cut];
            let err = Frame::read_from(&mut r).expect_err("truncation accepted");
            assert!(matches!(err, ProtoError::Truncated), "cut at {cut} gave {err:?}");
        }
    }

    #[test]
    fn wrong_version_and_magic_are_rejected() {
        let mut bytes = Frame::Shutdown.encode();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(Frame::decode(&bytes), Err(ProtoError::UnsupportedVersion(99))));
        let mut bytes = Frame::Shutdown.encode();
        bytes[..8].copy_from_slice(b"NAUTCKPT");
        assert!(matches!(Frame::decode(&bytes), Err(ProtoError::BadMagic)));
    }

    #[test]
    fn error_labels_are_stable() {
        assert_eq!(ProtoError::Truncated.label(), "truncated");
        assert_eq!(ProtoError::BadMagic.label(), "bad_magic");
        assert_eq!(ProtoError::BadCrc { computed: 0, stored: 1 }.label(), "bad_crc");
        assert_eq!(ProtoError::Malformed(String::new()).label(), "malformed");
    }

    /// Fewer than `max` values drawn by `draw`.
    fn vec_below<T>(rng: &mut SearchRng, max: u64, draw: impl Fn(&mut SearchRng) -> T) -> Vec<T> {
        (0..rng.below(max)).map(|_| draw(rng)).collect()
    }

    /// Any `f64` bit pattern, with NaN, ±∞ and ±0 drawn often.
    fn any_f64(rng: &mut SearchRng) -> f64 {
        match rng.below(6) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => f64::from_bits(rng.next_u64() & (1 << 63)),
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    /// Up to 40 chars other than `\n` (the regex `.{0,40}`), half of them
    /// ASCII and half any Unicode scalar value.
    fn any_line(rng: &mut SearchRng) -> String {
        (0..rng.below(41))
            .map(|_| loop {
                let code = if rng.chance(0.5) { rng.below(0x80) } else { rng.below(0x11_0000) };
                if let Some(c) = char::from_u32(code as u32).filter(|&c| c != '\n') {
                    break c;
                }
            })
            .collect()
    }

    #[test]
    fn arbitrary_eval_frames_round_trip() {
        check_cases("arbitrary_eval_frames_round_trip", 256, |rng| {
            let frame = Frame::Eval {
                id: rng.next_u64(),
                attempt: rng.next_u64() as u32,
                genes: vec_below(rng, 64, |rng| rng.next_u64() as u32),
            };
            let back = Frame::decode(&frame.encode()).unwrap();
            assert!(frames_eq(&frame, &back), "{frame:?} != {back:?}");
        });
    }

    #[test]
    fn arbitrary_metric_results_round_trip() {
        check_cases("arbitrary_metric_results_round_trip", 256, |rng| {
            let frame = Frame::Result {
                id: rng.next_u64(),
                outcome: WireOutcome::Metrics {
                    garbled: rng.chance(0.5),
                    tool_secs: rng.next_u64(),
                    cost_ms: rng.next_u64(),
                    values: vec_below(rng, 16, any_f64),
                },
            };
            let back = Frame::decode(&frame.encode()).unwrap();
            assert!(frames_eq(&frame, &back), "{frame:?} != {back:?}");
        });
    }

    #[test]
    fn arbitrary_fault_results_round_trip() {
        check_cases("arbitrary_fault_results_round_trip", 256, |rng| {
            let frame = Frame::Result {
                id: rng.next_u64(),
                outcome: WireOutcome::Fault {
                    kind: rng.below(3) as u8,
                    elapsed_ms: rng.next_u64(),
                    limit_ms: rng.next_u64(),
                    message: any_line(rng),
                    cost_ms: rng.next_u64(),
                    dying: rng.chance(0.5),
                },
            };
            let back = Frame::decode(&frame.encode()).unwrap();
            assert!(frames_eq(&frame, &back), "{frame:?} != {back:?}");
        });
    }

    #[test]
    fn random_byte_soup_never_panics() {
        check_cases("random_byte_soup_never_panics", 256, |rng| {
            let bytes = vec_below(rng, 256, |rng| rng.next_u64() as u8);
            let _ = Frame::decode(&bytes);
            let mut r = &bytes[..];
            let _ = Frame::read_from(&mut r);
        });
    }
}
