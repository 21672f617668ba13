//! The workspace's one record format, and the little-endian codec its
//! bodies are written in.
//!
//! `NAUTCKPT` journal records (`nautilus-ga`), `NAUTPROC` tool frames
//! (`nautilus-proc`) and `NAUTSRVC` daemon frames (`nautilus-serve`) are
//! all sealed, opened and read by one [`Envelope`]:
//!
//! ```text
//! | magic(8) | version u32 LE | body_len u64 LE | body | crc32 u32 LE |
//! ```
//!
//! Each format keeps only a constant envelope and a body codec written
//! with [`WireWriter`] and read with [`WireReader`]. All integers are
//! little-endian; floats are IEEE-754 bit patterns (NaN round-trips
//! bit-exactly); strings and byte blobs are `u64` length-prefixed
//! UTF-8/raw bytes.
//!
//! Decoding is *total*: every read returns `Err` (never panics) on
//! truncated or malformed input, so corrupt records degrade to a reported
//! error rather than a crash.

use std::io::Read;

/// Bytes before a record's body: magic, version, body length.
const HEADER_LEN: usize = 8 + 4 + 8;

/// Bytes after a record's body: the CRC-32 trailer.
const CRC_LEN: usize = 4;

/// CRC-32 (IEEE 802.3, reflected, poly `0xEDB88320`) of `bytes`.
///
/// Bitwise implementation: records are small or rare enough that a
/// lookup table buys nothing measurable.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Why a record failed to open, read or decode.
#[derive(Debug)]
#[non_exhaustive]
pub enum FrameError {
    /// The stream ended cleanly on a record boundary (zero bytes of the
    /// next record were read): the peer closed its end.
    CleanEof,
    /// The record or stream ended before the declared length.
    Truncated,
    /// The record does not start with its envelope's magic.
    BadMagic,
    /// The record's version is not the one its envelope accepts.
    UnsupportedVersion(u32),
    /// The declared body length exceeds the envelope's cap.
    Oversized(u64),
    /// The CRC-32 over the record does not match its trailer.
    BadCrc {
        /// Checksum recomputed from the received bytes.
        computed: u32,
        /// Checksum stored in the record trailer.
        stored: u32,
    },
    /// The record has bytes after its trailer, or a body that failed
    /// structural decoding despite a valid checksum.
    Malformed(String),
    /// An I/O failure other than end-of-stream.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::CleanEof => write!(f, "clean end of stream"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadMagic => write!(f, "not a frame of this protocol (bad magic)"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::Oversized(n) => write!(f, "frame body of {n} bytes exceeds cap"),
            FrameError::BadCrc { computed, stored } => {
                write!(f, "checksum mismatch: computed {computed:#010x}, stored {stored:#010x}")
            }
            FrameError::Malformed(reason) => write!(f, "malformed frame body: {reason}"),
            FrameError::Io(e) => write!(f, "i/o failure: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> FrameError {
        FrameError::Malformed(e.0)
    }
}

impl FrameError {
    /// Short, deterministic label for telemetry payloads — no byte counts
    /// or OS error text, so event streams stay byte-identical run to run.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FrameError::CleanEof => "clean_eof",
            FrameError::Truncated => "truncated",
            FrameError::BadMagic => "bad_magic",
            FrameError::UnsupportedVersion(_) => "unsupported_version",
            FrameError::Oversized(_) => "oversized",
            FrameError::BadCrc { .. } => "bad_crc",
            FrameError::Malformed(_) => "malformed",
            FrameError::Io(_) => "io",
        }
    }
}

/// One record format: the magic, version and body-length cap that its
/// records are sealed with and checked against.
///
/// A record is checked in a fixed order, so a given corruption always
/// gets the same error: magic, then version (before the CRC, so a version
/// bump that moves the trailer still gets a precise error), then the
/// length cap (before any allocation), then the exact length, then the
/// CRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Fixed 8-byte tag opening every record.
    pub magic: &'static [u8; 8],
    /// The one version readers accept; anything else is rejected outright.
    pub version: u32,
    /// Largest body accepted. A stream reader allocates the declared
    /// length, so a format read from a peer caps it; `u64::MAX` suits
    /// records that are already in memory.
    pub max_body_len: u64,
}

impl Envelope {
    /// Wraps `body` in a complete record: header, body, CRC trailer.
    #[must_use]
    pub fn seal(&self, body: &[u8]) -> Vec<u8> {
        let mut record = Vec::with_capacity(HEADER_LEN + body.len() + CRC_LEN);
        record.extend_from_slice(self.magic);
        record.extend_from_slice(&self.version.to_le_bytes());
        record.extend_from_slice(&(body.len() as u64).to_le_bytes());
        record.extend_from_slice(body);
        let crc = crc32(&record);
        record.extend_from_slice(&crc.to_le_bytes());
        record
    }

    /// Checks one complete record and returns its body.
    ///
    /// # Errors
    ///
    /// A record shorter than a header and trailer is
    /// [`FrameError::BadMagic`] when its first 8 bytes are not the magic
    /// and [`FrameError::Truncated`] otherwise. Longer records are checked
    /// in the order the type doc gives; a record longer than its declared
    /// length is [`FrameError::Malformed`].
    pub fn open<'a>(&self, record: &'a [u8]) -> Result<&'a [u8], FrameError> {
        let Some((header, _)) = record.split_first_chunk::<HEADER_LEN>() else {
            let foreign = record.len() >= 8 && record[..8] != self.magic[..];
            return Err(if foreign { FrameError::BadMagic } else { FrameError::Truncated });
        };
        let body_len = self.check_header(header)?;
        let crc_at = HEADER_LEN + body_len;
        match record.len().checked_sub(crc_at + CRC_LEN) {
            None => return Err(FrameError::Truncated),
            Some(0) => {}
            Some(_) => return Err(FrameError::Malformed("trailing bytes after crc".into())),
        }
        let computed = crc32(&record[..crc_at]);
        let stored = u32::from_le_bytes(record[crc_at..].try_into().expect("4-byte trailer"));
        if computed != stored {
            return Err(FrameError::BadCrc { computed, stored });
        }
        Ok(&record[HEADER_LEN..crc_at])
    }

    /// Reads exactly one record from `r` and returns its body.
    ///
    /// The header is checked before the rest is read, so a garbage length
    /// fails fast and the one allocation is bounded by `max_body_len`.
    ///
    /// # Errors
    ///
    /// EOF before the first byte is [`FrameError::CleanEof`]; EOF anywhere
    /// later is [`FrameError::Truncated`]. Otherwise as
    /// [`Envelope::open`], plus [`FrameError::Io`].
    pub fn read(&self, r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
        let mut header = [0u8; HEADER_LEN];
        read_exact_or(r, &mut header, FrameError::CleanEof)?;
        let body_len = self.check_header(&header)?;
        let mut record = vec![0u8; HEADER_LEN + body_len + CRC_LEN];
        record[..HEADER_LEN].copy_from_slice(&header);
        read_exact_or(r, &mut record[HEADER_LEN..], FrameError::Truncated)?;
        self.open(&record)?;
        record.truncate(HEADER_LEN + body_len);
        record.drain(..HEADER_LEN);
        Ok(record)
    }

    /// Checks magic, version and length cap; returns the body length.
    fn check_header(&self, header: &[u8; HEADER_LEN]) -> Result<usize, FrameError> {
        if header[..8] != self.magic[..] {
            return Err(FrameError::BadMagic);
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if version != self.version {
            return Err(FrameError::UnsupportedVersion(version));
        }
        let body_len = u64::from_le_bytes(header[12..].try_into().expect("8 bytes"));
        if body_len > self.max_body_len {
            return Err(FrameError::Oversized(body_len));
        }
        // The whole record's length must be a `usize`, even uncapped.
        usize::try_from(body_len)
            .ok()
            .filter(|&n| n <= usize::MAX - HEADER_LEN - CRC_LEN)
            .ok_or(FrameError::Oversized(body_len))
    }
}

/// `read_exact` that maps a zero-progress EOF to `on_empty_eof` and a
/// partial-read EOF to [`FrameError::Truncated`].
fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    on_empty_eof: FrameError,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Err(on_empty_eof),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Error produced by [`WireReader`] on truncated or malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed record: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Append-only little-endian encoder.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// A fresh, empty writer.
    #[must_use]
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (NaN-preserving).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }
}

/// Cursor-based little-endian decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed — catches records with
    /// trailing garbage that a length-prefixed format should never have.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError(format!("{} trailing bytes", self.remaining())))
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError(format!(
                "truncated {what}: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().expect("8-byte slice")))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting lengths that
    /// exceed the remaining input (a corrupt length prefix cannot force a
    /// huge allocation).
    pub fn len_prefix(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        let n = usize::try_from(v).map_err(|_| WireError(format!("length {v} overflows")))?;
        Ok(n)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError(format!("bool byte {other}"))),
        }
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len_prefix()?;
        self.take(n, "blob")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError("invalid utf-8".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An envelope of no real format, so these checks pin the envelope
    /// and not any one format's constants.
    const TEST: Envelope = Envelope { magic: b"NAUTTEST", version: 3, max_body_len: 64 };

    const BODY: &[u8] = b"an envelope body";

    fn open_err(envelope: &Envelope, record: &[u8]) -> FrameError {
        envelope.open(record).expect_err("record accepted")
    }

    fn read_err(envelope: &Envelope, mut stream: &[u8]) -> FrameError {
        envelope.read(&mut stream).expect_err("stream accepted")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_single_bit_flip_is_rejected_on_slice_and_stream() {
        let record = TEST.seal(BODY);
        assert_eq!(TEST.open(&record).unwrap(), BODY);
        assert_eq!(TEST.read(&mut &record[..]).unwrap(), BODY);
        for byte in 0..record.len() {
            for bit in 0..8 {
                let mut corrupt = record.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(TEST.open(&corrupt).is_err(), "bit {bit} of byte {byte} opened");
                assert!(TEST.read(&mut &corrupt[..]).is_err(), "bit {bit} of byte {byte} read");
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected_on_slice_and_stream() {
        let record = TEST.seal(BODY);
        for cut in 0..record.len() {
            let err = open_err(&TEST, &record[..cut]);
            assert!(matches!(err, FrameError::Truncated), "slice cut at {cut} gave {err:?}");
            let err = read_err(&TEST, &record[..cut]);
            if cut == 0 {
                assert!(matches!(err, FrameError::CleanEof), "empty stream gave {err:?}");
            } else {
                assert!(matches!(err, FrameError::Truncated), "stream cut at {cut} gave {err:?}");
            }
        }
    }

    #[test]
    fn magic_and_version_are_checked_before_the_crc() {
        // No CRC fixup after either edit: the earlier check must fire.
        let mut foreign = TEST.seal(BODY);
        foreign[..8].copy_from_slice(b"NAUTCKPT");
        assert!(matches!(open_err(&TEST, &foreign), FrameError::BadMagic));
        assert!(matches!(read_err(&TEST, &foreign), FrameError::BadMagic));
        // A record too short to hold a header is still foreign, not short,
        // once its first 8 bytes are readable and wrong.
        assert!(matches!(open_err(&TEST, &foreign[..10]), FrameError::BadMagic));
        assert!(matches!(open_err(&TEST, &foreign[..7]), FrameError::Truncated));

        let mut bumped = TEST.seal(BODY);
        bumped[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(open_err(&TEST, &bumped), FrameError::UnsupportedVersion(99)));
        assert!(matches!(read_err(&TEST, &bumped), FrameError::UnsupportedVersion(99)));
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocation() {
        // The stream holds no body: reading the declared length would end
        // in `Truncated`, so `Oversized` shows the cap is checked first.
        let mut record = TEST.seal(b"");
        record[12..20].copy_from_slice(&(TEST.max_body_len + 1).to_le_bytes());
        assert!(matches!(open_err(&TEST, &record), FrameError::Oversized(65)));
        assert!(matches!(read_err(&TEST, &record), FrameError::Oversized(65)));
        // Uncapped, a length no record can have is still refused.
        let uncapped = Envelope { max_body_len: u64::MAX, ..TEST };
        record[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(open_err(&uncapped, &record), FrameError::Oversized(u64::MAX)));
        assert!(matches!(read_err(&uncapped, &record), FrameError::Oversized(u64::MAX)));
    }

    #[test]
    fn trailing_bytes_after_the_crc_are_malformed() {
        let mut record = TEST.seal(BODY);
        record.push(0);
        let err = open_err(&TEST, &record);
        assert!(matches!(&err, FrameError::Malformed(r) if r == "trailing bytes after crc"));
    }

    #[test]
    fn error_labels_are_stable() {
        let cases = [
            (FrameError::CleanEof, "clean_eof"),
            (FrameError::Truncated, "truncated"),
            (FrameError::BadMagic, "bad_magic"),
            (FrameError::UnsupportedVersion(9), "unsupported_version"),
            (FrameError::Oversized(1), "oversized"),
            (FrameError::BadCrc { computed: 1, stored: 2 }, "bad_crc"),
            (FrameError::Malformed("x".into()), "malformed"),
            (FrameError::Io(std::io::Error::other("x")), "io"),
        ];
        for (err, label) in cases {
            assert_eq!(err.label(), label);
        }
        assert!(FrameError::BadMagic.to_string().contains("bad magic"));
    }

    #[test]
    fn scalars_round_trip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.usize(42);
        w.f64(f64::NAN);
        w.f64(-0.0);
        w.bool(true);
        w.str("hello ☂");
        w.bytes(&[1, 2, 3]);
        assert!(!w.is_empty());
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.len_prefix().unwrap(), 42);
        assert!(r.f64().unwrap().is_nan(), "NaN must round-trip");
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hello ☂");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn every_truncation_errors_instead_of_panicking() {
        let mut w = WireWriter::new();
        w.u64(123);
        w.str("abc");
        w.f64(1.5);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            let ok = r.u64().and_then(|_| r.str()).and_then(|_| r.f64()).is_ok();
            assert!(!ok, "cut at {cut} silently parsed");
        }
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_rejected() {
        let mut r = WireReader::new(&[2]);
        assert!(r.bool().is_err());
        let mut w = WireWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert!(WireReader::new(&bytes).str().is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut w = WireWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(r.bytes().is_err(), "a huge length prefix must not allocate");
    }

    #[test]
    fn finish_rejects_trailing_garbage() {
        let mut w = WireWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish().is_err());
        r.u8().unwrap();
        r.finish().unwrap();
    }
}
