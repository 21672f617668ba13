//! The `NAUTSRVC` wire protocol: length-prefixed, CRC-trailed frames over
//! a localhost TCP connection to the search daemon.
//!
//! Every frame is one record of the workspace's one record format,
//! sealed, opened and read by [`nautilus_obs::wire::Envelope`]:
//!
//! ```text
//! | MAGIC(8) | version u32 LE | body_len u64 LE | body | crc32 u32 LE |
//! ```
//!
//! * `MAGIC` is the fixed tag `b"NAUTSRVC"`.
//! * `version` is [`VERSION`]; readers reject anything else outright,
//!   *before* checking the CRC, so a version bump that moves the trailer
//!   still yields a precise error.
//! * `body` is at most [`MAX_BODY_LEN`] bytes and opens with a one-byte
//!   frame kind followed by the kind's [`WireWriter`]-encoded fields.
//! * The [`crc32`](nautilus_obs::crc32) trailer covers all before it.
//!
//! The conversation is one request / one reply per connection. The daemon
//! keeps no per-connection state, which is what lets a client retry any
//! request verbatim against a *restarted* daemon: job identity lives in
//! the daemon's state directory, not in the socket.
//!
//! ```text
//! client -> daemon   Request::Submit { spec }
//! daemon -> client   Reply::Submitted { job }   (or Reply::Rejected)
//! ...                (connection closes; later queries open fresh ones)
//! ```

use std::io::{Read, Write};

use nautilus_obs::{Envelope, WireReader, WireWriter};

use crate::job::{JobPhase, JobSpec};
use crate::quota::Backpressure;

/// Framing, checksum and body errors: the envelope's `FrameError`.
pub use nautilus_obs::FrameError as ProtoError;

/// Fixed 8-byte tag opening every protocol frame.
pub const MAGIC: &[u8; 8] = b"NAUTSRVC";

/// Current protocol version. Bump on any layout change; readers reject
/// unknown versions outright rather than guessing.
///
/// * v1 — initial protocol.
/// * v2 — [`JobSpec`] grew a trailing `dedupe_key` string (idempotent
///   resubmission).
pub const VERSION: u32 = 2;

/// Upper bound on a frame body, enforced *before* allocation so a
/// corrupted length prefix cannot drive an OOM. Result frames carry full
/// event streams, so the cap matches `NAUTPROC`'s.
pub const MAX_BODY_LEN: u64 = 16 * 1024 * 1024;

const ENVELOPE: Envelope = Envelope { magic: MAGIC, version: VERSION, max_body_len: MAX_BODY_LEN };

const KIND_PING: u8 = 0;
const KIND_SUBMIT: u8 = 1;
const KIND_STATUS: u8 = 2;
const KIND_RESULT: u8 = 3;
const KIND_CANCEL: u8 = 4;
const KIND_DRAIN: u8 = 5;

const KIND_PONG: u8 = 0x80;
const KIND_SUBMITTED: u8 = 0x81;
const KIND_REJECTED: u8 = 0x82;
const KIND_STATUS_REPLY: u8 = 0x83;
const KIND_RESULT_REPLY: u8 = 0x84;
const KIND_CANCELLED: u8 = 0x85;
const KIND_DRAINING: u8 = 0x86;
const KIND_ERROR: u8 = 0x87;

/// Client -> daemon request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Reply::Pong`].
    Ping,
    /// Queue a new search job.
    Submit {
        /// Full job description.
        spec: JobSpec,
    },
    /// Query one job's lifecycle phase.
    Status {
        /// Job id from [`Reply::Submitted`].
        job: u64,
    },
    /// Fetch a finished job's artifacts.
    Result {
        /// Job id from [`Reply::Submitted`].
        job: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Job id from [`Reply::Submitted`].
        job: u64,
    },
    /// Stop accepting work, checkpoint every in-flight run, and exit.
    Drain,
}

/// Daemon -> client reply frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Request::Ping`].
    Pong {
        /// Number of jobs the daemon currently knows about.
        jobs: u64,
    },
    /// The submission was accepted and queued.
    Submitted {
        /// Daemon-assigned job id, stable across daemon restarts.
        job: u64,
    },
    /// The submission was refused. Always a *typed* reason — quota and
    /// breaker pressure never silently drop a job.
    Rejected {
        /// Why the daemon refused the work.
        reason: Backpressure,
    },
    /// Answer to [`Request::Status`].
    Status {
        /// Echo of the queried job id.
        job: u64,
        /// Current lifecycle phase.
        phase: JobPhase,
        /// Phase detail (failure message, stop reason, ...); empty when
        /// there is nothing to add.
        detail: String,
    },
    /// Answer to [`Request::Result`] for a finished job.
    Result {
        /// Echo of the queried job id.
        job: u64,
        /// Terminal phase (`Done`, `Failed`, or `Cancelled`).
        phase: JobPhase,
        /// Deterministic outcome digest (empty unless `Done`).
        outcome_json: String,
        /// Normalized [`nautilus::RunReport`] JSON (empty unless `Done`).
        report_json: String,
        /// Normalized event stream, one JSON object per line (empty
        /// unless `Done`).
        events_jsonl: String,
    },
    /// The cancel request was recorded.
    Cancelled {
        /// Echo of the cancelled job id.
        job: u64,
    },
    /// The daemon is now draining.
    Draining {
        /// Jobs still queued or running at the time of the request.
        pending: u64,
    },
    /// The request could not be served (unknown job id, job not finished,
    /// ...). Protocol-level faults close the connection instead.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// One protocol frame, request or reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client -> daemon.
    Request(Request),
    /// Daemon -> client.
    Reply(Reply),
}

impl Frame {
    /// Encodes this frame as one complete wire record.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut body = WireWriter::new();
        match self {
            Frame::Request(req) => encode_request(&mut body, req),
            Frame::Reply(rep) => encode_reply(&mut body, rep),
        }
        ENVELOPE.seal(&body.into_bytes())
    }

    /// Decodes one complete wire record.
    ///
    /// # Errors
    ///
    /// Every framing violation maps to a distinct [`ProtoError`]; a valid
    /// checksum over a structurally broken body is [`ProtoError::Malformed`].
    pub fn decode(record: &[u8]) -> Result<Frame, ProtoError> {
        decode_body(ENVELOPE.open(record)?)
    }

    /// Writes this frame to `w` and flushes.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Io`] on any write failure.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), ProtoError> {
        w.write_all(&self.encode())?;
        Ok(w.flush()?)
    }

    /// Reads exactly one frame from `r`.
    ///
    /// EOF before the first byte is [`ProtoError::CleanEof`]; EOF anywhere
    /// later is [`ProtoError::Truncated`]. The header is validated before
    /// the body is allocated, so garbage lengths fail fast.
    ///
    /// # Errors
    ///
    /// As [`Frame::decode`], plus [`ProtoError::Io`].
    pub fn read_from(r: &mut impl Read) -> Result<Frame, ProtoError> {
        decode_body(&ENVELOPE.read(r)?)
    }
}

fn encode_request(w: &mut WireWriter, req: &Request) {
    match req {
        Request::Ping => w.u8(KIND_PING),
        Request::Submit { spec } => {
            w.u8(KIND_SUBMIT);
            spec.encode_into(w);
        }
        Request::Status { job } => {
            w.u8(KIND_STATUS);
            w.u64(*job);
        }
        Request::Result { job } => {
            w.u8(KIND_RESULT);
            w.u64(*job);
        }
        Request::Cancel { job } => {
            w.u8(KIND_CANCEL);
            w.u64(*job);
        }
        Request::Drain => w.u8(KIND_DRAIN),
    }
}

fn encode_reply(w: &mut WireWriter, rep: &Reply) {
    match rep {
        Reply::Pong { jobs } => {
            w.u8(KIND_PONG);
            w.u64(*jobs);
        }
        Reply::Submitted { job } => {
            w.u8(KIND_SUBMITTED);
            w.u64(*job);
        }
        Reply::Rejected { reason } => {
            w.u8(KIND_REJECTED);
            reason.encode_into(w);
        }
        Reply::Status { job, phase, detail } => {
            w.u8(KIND_STATUS_REPLY);
            w.u64(*job);
            w.u8(phase.code());
            w.str(detail);
        }
        Reply::Result { job, phase, outcome_json, report_json, events_jsonl } => {
            w.u8(KIND_RESULT_REPLY);
            w.u64(*job);
            w.u8(phase.code());
            w.str(outcome_json);
            w.str(report_json);
            w.str(events_jsonl);
        }
        Reply::Cancelled { job } => {
            w.u8(KIND_CANCELLED);
            w.u64(*job);
        }
        Reply::Draining { pending } => {
            w.u8(KIND_DRAINING);
            w.u64(*pending);
        }
        Reply::Error { message } => {
            w.u8(KIND_ERROR);
            w.str(message);
        }
    }
}

fn decode_body(body: &[u8]) -> Result<Frame, ProtoError> {
    let mut r = WireReader::new(body);
    let frame = match r.u8()? {
        KIND_PING => Frame::Request(Request::Ping),
        KIND_SUBMIT => Frame::Request(Request::Submit { spec: JobSpec::decode_from(&mut r)? }),
        KIND_STATUS => Frame::Request(Request::Status { job: r.u64()? }),
        KIND_RESULT => Frame::Request(Request::Result { job: r.u64()? }),
        KIND_CANCEL => Frame::Request(Request::Cancel { job: r.u64()? }),
        KIND_DRAIN => Frame::Request(Request::Drain),
        KIND_PONG => Frame::Reply(Reply::Pong { jobs: r.u64()? }),
        KIND_SUBMITTED => Frame::Reply(Reply::Submitted { job: r.u64()? }),
        KIND_REJECTED => {
            Frame::Reply(Reply::Rejected { reason: Backpressure::decode_from(&mut r)? })
        }
        KIND_STATUS_REPLY => Frame::Reply(Reply::Status {
            job: r.u64()?,
            phase: JobPhase::from_code(r.u8()?)?,
            detail: r.str()?,
        }),
        KIND_RESULT_REPLY => Frame::Reply(Reply::Result {
            job: r.u64()?,
            phase: JobPhase::from_code(r.u8()?)?,
            outcome_json: r.str()?,
            report_json: r.str()?,
            events_jsonl: r.str()?,
        }),
        KIND_CANCELLED => Frame::Reply(Reply::Cancelled { job: r.u64()? }),
        KIND_DRAINING => Frame::Reply(Reply::Draining { pending: r.u64()? }),
        KIND_ERROR => Frame::Reply(Reply::Error { message: r.str()? }),
        other => return Err(ProtoError::Malformed(format!("unknown frame kind {other}"))),
    };
    r.finish()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_obs::crc32;

    fn sample_spec() -> JobSpec {
        JobSpec {
            tenant: "acme".into(),
            model: "bowl".into(),
            strategy: "guided-strong".into(),
            seed: 0xBEEF,
            generations: 12,
            eval_workers: 2,
            max_evals: 500,
            deadline_ms: 0,
            eval_delay_us: 250,
            dedupe_key: "retry-42".into(),
        }
    }

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Request(Request::Ping),
            Frame::Request(Request::Submit { spec: sample_spec() }),
            Frame::Request(Request::Status { job: 7 }),
            Frame::Request(Request::Result { job: 7 }),
            Frame::Request(Request::Cancel { job: 9 }),
            Frame::Request(Request::Drain),
            Frame::Reply(Reply::Pong { jobs: 3 }),
            Frame::Reply(Reply::Submitted { job: 7 }),
            Frame::Reply(Reply::Rejected {
                reason: Backpressure::QueueFull { queued: 8, limit: 8 },
            }),
            Frame::Reply(Reply::Rejected {
                reason: Backpressure::UnknownModel { name: "warp-core".into() },
            }),
            Frame::Reply(Reply::Status { job: 7, phase: JobPhase::Running, detail: String::new() }),
            Frame::Reply(Reply::Result {
                job: 7,
                phase: JobPhase::Done,
                outcome_json: "{\"stop\":\"completed\"}".into(),
                report_json: "{}".into(),
                events_jsonl: "{\"type\":\"run_start\"}\n".into(),
            }),
            Frame::Reply(Reply::Cancelled { job: 9 }),
            Frame::Reply(Reply::Draining { pending: 2 }),
            Frame::Reply(Reply::Error { message: "unknown job 42".into() }),
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in samples() {
            let record = frame.encode();
            let decoded = Frame::decode(&record).expect("round trip");
            assert_eq!(decoded, frame);
            let mut cursor = std::io::Cursor::new(record);
            let read = Frame::read_from(&mut cursor).expect("stream round trip");
            assert_eq!(read, frame);
        }
    }

    #[test]
    fn golden_ping_bytes_are_stable() {
        // Layout freeze: magic, version 2, one-byte body, CRC trailer.
        let record = Frame::Request(Request::Ping).encode();
        assert_eq!(&record[..8], b"NAUTSRVC");
        assert_eq!(&record[8..12], &2u32.to_le_bytes());
        assert_eq!(&record[12..20], &1u64.to_le_bytes());
        assert_eq!(record[20], KIND_PING);
        // A literal CRC-32 trailer, so neither the encoder nor the
        // checksum algorithm can drift unnoticed.
        assert_eq!(&record[21..], &0x791b_b794u32.to_le_bytes());
        assert_eq!(crc32(&record[..21]), 0x791b_b794);
        assert_eq!(record.len(), 25);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let record = Frame::Request(Request::Submit { spec: sample_spec() }).encode();
        for byte in 0..record.len() {
            for bit in 0..8 {
                let mut corrupt = record.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    Frame::decode(&corrupt).is_err(),
                    "bit {bit} of byte {byte}/{} flipped without detection",
                    record.len()
                );
            }
        }
    }

    #[test]
    fn oversized_body_length_is_rejected_before_allocation() {
        let mut record = Frame::Request(Request::Ping).encode();
        record[12..20].copy_from_slice(&(MAX_BODY_LEN + 1).to_le_bytes());
        assert!(
            matches!(Frame::decode(&record), Err(ProtoError::Oversized(n)) if n == MAX_BODY_LEN + 1)
        );
    }

    #[test]
    fn every_prefix_truncation_is_detected() {
        let record = Frame::Reply(Reply::Submitted { job: 1 }).encode();
        for cut in 0..record.len() {
            assert!(
                Frame::decode(&record[..cut]).is_err(),
                "truncation at {cut}/{} silently accepted",
                record.len()
            );
        }
    }

    #[test]
    fn unknown_version_is_rejected_before_crc() {
        let mut record = Frame::Request(Request::Ping).encode();
        record[8..12].copy_from_slice(&99u32.to_le_bytes());
        // No CRC fixup: the version check must fire first.
        assert!(matches!(Frame::decode(&record), Err(ProtoError::UnsupportedVersion(99))));
        let mut cursor = std::io::Cursor::new(record);
        assert!(matches!(Frame::read_from(&mut cursor), Err(ProtoError::UnsupportedVersion(99))));
    }

    #[test]
    fn error_labels_are_stable() {
        let cases: Vec<(ProtoError, &str)> = vec![
            (ProtoError::CleanEof, "clean_eof"),
            (ProtoError::Truncated, "truncated"),
            (ProtoError::BadMagic, "bad_magic"),
            (ProtoError::UnsupportedVersion(9), "unsupported_version"),
            (ProtoError::Oversized(1), "oversized"),
            (ProtoError::BadCrc { computed: 1, stored: 2 }, "bad_crc"),
            (ProtoError::Malformed("x".into()), "malformed"),
        ];
        for (err, label) in cases {
            assert_eq!(err.label(), label);
        }
    }
}
