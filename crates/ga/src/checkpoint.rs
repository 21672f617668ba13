//! Durable resume for the generational GA: a journal of tool replies.
//!
//! A run is a pure function of its seed and of the replies its tool
//! gives: the engine never touches the RNG while it evaluates, it scores
//! in first-occurrence order at every worker count, and supervision runs
//! in virtual time. So the one thing a crashed run cannot recompute is a
//! reply, and that is all a [`CheckpointStore`] keeps. Resuming is
//! running again from the seed over the same store: each reply the
//! journal holds is answered from it, with no tool call and no delay,
//! and the first one it lacks goes to the tool. The run itself rebuilds
//! its RNG position, population, cache, history, fault ledger, breaker
//! state and event stream, so a resumed run ends byte-identical to an
//! uninterrupted one at any worker count.
//!
//! # Who journals what
//!
//! The engine does not know what a reply is. Whoever wraps the tool asks
//! [`Journal::reply`] before calling it and hands each live reply to
//! [`Journal::record`], keyed by the genome and an attempt number: the
//! `nautilus` crate's cost-model wrapper journals model replies under
//! attempt 0, and its subprocess evaluator journals each NAUTPROC round
//! trip under its attempt. The engine appends the replies a scoring batch
//! recorded when the batch ends, on its own thread, sorted by key.
//!
//! # On-disk layout
//!
//! One file, `journal.nckpt`, holds a sequence of records in the
//! workspace's one record format, sealed and opened by
//! [`nautilus_obs::wire::Envelope`]:
//!
//! ```text
//! +----------+---------------+----------------+--------+-------------+
//! | MAGIC(8) | schema u32 LE | body_len u64 LE| body   | crc32 u32 LE|
//! +----------+---------------+----------------+--------+-------------+
//! ```
//!
//! * `MAGIC` is `b"NAUTCKPT"` and `schema` is [`SCHEMA_VERSION`]; readers
//!   reject versions they do not understand rather than guess.
//! * The first body is the header: tag 0, the seed, the run label and the
//!   settings. A run whose seed, label or settings differ is refused
//!   (`eval_workers` is exempt: it never changes results).
//! * Every later body is a reply: tag 1, the genome's genes, the attempt
//!   number and the reply bytes.
//! * `crc32` covers everything before it, so header corruption is caught
//!   too.
//!
//! # Durability
//!
//! * The header is written with the atomic discipline of
//!   [`DurableIo::write_atomic`] (site `ckpt.create`), so the journal
//!   exists with a durable header and directory entry, or not at all.
//! * A scoring batch's records go out in one append (`ckpt.append`) when
//!   the batch ends, so killing the process loses at most the batch in
//!   flight.
//! * Each generation boundary that follows an append fsyncs the journal
//!   (`ckpt.sync`) on the run's writer thread while the next generation
//!   evaluates. The engine waits for that sync at the next boundary and
//!   before it returns, so a failed write ends the run with a checkpoint
//!   error at most one generation later.
//!
//! Reading stops at the first record that fails validation: a torn or
//! corrupt tail is dropped (and reported), every intact record before it
//! still answers, and the next append lands where the tail began.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use nautilus_obs::{Envelope, FrameError, WireError, WireReader, WireWriter};

use crate::durable::{DurableIo, ReservedWrite};
use crate::engine::GaSettings;
use crate::genome::Genome;

/// Fixed 8-byte tag opening every journal record.
pub const MAGIC: &[u8; 8] = b"NAUTCKPT";

/// Current journal schema version. Bump on any layout change; readers
/// reject unknown versions outright (schema evolution happens by explicit
/// migration, never by guessing).
pub const SCHEMA_VERSION: u32 = 2;

/// The journal's file name inside a checkpoint directory.
const JOURNAL_FILE: &str = "journal.nckpt";

const ENVELOPE: Envelope =
    Envelope { magic: MAGIC, version: SCHEMA_VERSION, max_body_len: u64::MAX };

const HEADER_TAG: u8 = 0;
const REPLY_TAG: u8 = 1;

/// The run a journal belongs to: its first record.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// Seed the run was started with.
    pub seed: u64,
    /// Strategy label from the engine.
    pub run_label: String,
    /// Scalar settings of the run.
    pub settings: GaSettings,
}

impl JournalHeader {
    /// Whether a run with `other` identity may replay this journal: the
    /// same seed, label and settings, except `eval_workers`, which never
    /// affects results.
    #[must_use]
    pub fn admits(&self, other: &JournalHeader) -> bool {
        let any_workers = |h: &JournalHeader| JournalHeader {
            settings: GaSettings { eval_workers: 0, ..h.settings },
            ..h.clone()
        };
        any_workers(self) == any_workers(other)
    }

    fn encode(&self) -> Vec<u8> {
        let mut body = WireWriter::new();
        body.u8(HEADER_TAG);
        body.u64(self.seed);
        body.str(&self.run_label);
        body.usize(self.settings.population);
        body.u32(self.settings.generations);
        body.f64(self.settings.crossover_rate);
        body.usize(self.settings.elitism);
        body.usize(self.settings.init_retries);
        body.usize(self.settings.eval_workers);
        ENVELOPE.seal(&body.into_bytes())
    }
}

/// One decoded journal record.
enum Record {
    Header(JournalHeader),
    Reply { genes: Vec<u32>, attempt: u32, reply: Vec<u8> },
}

impl Record {
    fn decode(body: &[u8]) -> Result<Record, WireError> {
        let mut r = WireReader::new(body);
        let record = match r.u8()? {
            HEADER_TAG => Record::Header(JournalHeader {
                seed: r.u64()?,
                run_label: r.str()?,
                settings: GaSettings {
                    population: r.len_prefix()?,
                    generations: r.u32()?,
                    crossover_rate: r.f64()?,
                    elitism: r.len_prefix()?,
                    init_retries: r.len_prefix()?,
                    eval_workers: r.len_prefix()?,
                },
            }),
            REPLY_TAG => {
                let n = r.len_prefix()?;
                if n > r.remaining() / 4 {
                    return Err(WireError(format!("genome length {n} exceeds record")));
                }
                let genes = (0..n).map(|_| r.u32()).collect::<Result<Vec<u32>, _>>()?;
                Record::Reply { genes, attempt: r.u32()?, reply: r.bytes()?.to_vec() }
            }
            tag => return Err(WireError(format!("unknown record tag {tag}"))),
        };
        r.finish()?;
        Ok(record)
    }
}

fn encode_reply(genes: &[u32], attempt: u32, reply: &[u8]) -> Vec<u8> {
    let mut body = WireWriter::new();
    body.u8(REPLY_TAG);
    body.usize(genes.len());
    for &gene in genes {
        body.u32(gene);
    }
    body.u32(attempt);
    body.bytes(reply);
    ENVELOPE.seal(&body.into_bytes())
}

/// The replies a run's tool wrappers answer from and record into.
///
/// [`Journal::reply`] serves only what an earlier incarnation made
/// durable; a live reply recorded in this run is never served back, so a
/// run over an empty journal calls its tool exactly as a run without one.
pub struct Journal {
    recovered: Replies,
    fresh: Mutex<BTreeMap<ReplyKey, Vec<u8>>>,
}

/// Replies by genes, each with its attempt number.
type Replies = HashMap<Vec<u32>, Vec<(u32, Vec<u8>)>>;

/// A reply's genes and attempt number.
type ReplyKey = (Vec<u32>, u32);

impl Journal {
    /// The reply an earlier incarnation recorded for `genome` at
    /// `attempt`, if the journal holds it.
    #[must_use]
    pub fn reply(&self, genome: &Genome, attempt: u32) -> Option<&[u8]> {
        let replies = self.recovered.get(genome.genes())?;
        replies.iter().find(|(a, _)| *a == attempt).map(|(_, reply)| reply.as_slice())
    }

    /// Records a live reply for `genome` at `attempt`. The engine appends
    /// it when the scoring batch ends; a second reply under the same key
    /// in one batch (a hedge, a lost race) is dropped.
    pub fn record(&self, genome: &Genome, attempt: u32, reply: Vec<u8>) {
        let mut fresh = self.fresh.lock().expect("journal lock poisoned");
        fresh.entry((genome.genes().to_vec(), attempt)).or_insert(reply);
    }

    /// How many replies the journal can answer.
    #[must_use]
    pub fn replies(&self) -> usize {
        self.recovered.values().map(Vec::len).sum()
    }

    /// Seals the replies recorded since the last call, in key order.
    fn take_fresh(&self) -> Vec<u8> {
        let fresh = std::mem::take(&mut *self.fresh.lock().expect("journal lock poisoned"));
        let mut bytes = Vec::new();
        for ((genes, attempt), reply) in fresh {
            bytes.extend(encode_reply(&genes, attempt, &reply));
        }
        bytes
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("replies", &self.replies()).finish_non_exhaustive()
    }
}

/// What reading a journal file found.
#[derive(Default)]
struct Contents {
    header: Option<JournalHeader>,
    replies: Replies,
    /// Length of the intact prefix.
    intact: u64,
    /// Why reading stopped before the end of the file, if it did.
    damage: Option<String>,
}

/// Opens the record at the front of `rest` and moves past it. The record
/// is as long as its header declares, or all of `rest` when that is
/// shorter; either way nothing is allocated.
fn next_body<'a>(rest: &mut &'a [u8]) -> Result<&'a [u8], FrameError> {
    let declared = rest.get(12..20).map(|n| u64::from_le_bytes(n.try_into().expect("8 bytes")));
    let len = declared
        .and_then(|n| usize::try_from(n).ok())
        .and_then(|n| n.checked_add(8 + 4 + 8 + 4))
        .filter(|&n| n <= rest.len())
        .unwrap_or(rest.len());
    let (record, tail) = rest.split_at(len);
    let body = ENVELOPE.open(record)?;
    *rest = tail;
    Ok(body)
}

/// Reads records up to the first one that fails validation. Without an
/// intact header nothing counts.
fn read_journal(bytes: &[u8]) -> Contents {
    let mut contents = Contents::default();
    let mut rest = bytes;
    while !rest.is_empty() {
        let record = next_body(&mut rest).and_then(|body| Ok(Record::decode(body)?));
        match (record, contents.header.is_some()) {
            (Ok(Record::Header(header)), false) => contents.header = Some(header),
            (Ok(Record::Reply { genes, attempt, reply }), true) => {
                contents.replies.entry(genes).or_default().push((attempt, reply));
            }
            (Ok(_), _) => {
                contents.damage = Some("record out of order".to_owned());
                break;
            }
            (Err(e), _) => {
                contents.damage = Some(e.to_string());
                break;
            }
        }
        contents.intact = (bytes.len() - rest.len()) as u64;
    }
    if contents.header.is_none() {
        contents.replies.clear();
    }
    contents
}

/// A checkpoint directory: the journal of one logical run.
///
/// Open one store per run: it reads the journal when it is created, and
/// the run appends to the same file.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    io: DurableIo,
    journal: Arc<Journal>,
    header: Option<JournalHeader>,
    intact: u64,
    damage: Option<String>,
}

impl CheckpointStore {
    /// Opens (creating if needed) `dir` as a checkpoint directory and
    /// reads the journal it holds, if any.
    ///
    /// # Errors
    ///
    /// Any filesystem error creating the directory or reading the
    /// journal. A damaged journal is not an error: its intact prefix
    /// answers, and a run reports the rest.
    pub fn create(dir: impl Into<PathBuf>) -> io::Result<CheckpointStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let bytes = match fs::read(dir.join(JOURNAL_FILE)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let contents = read_journal(&bytes);
        Ok(CheckpointStore {
            dir,
            io: DurableIo::real(),
            journal: Arc::new(Journal { recovered: contents.replies, fresh: Mutex::default() }),
            header: contents.header,
            intact: contents.intact,
            damage: contents.damage,
        })
    }

    /// Routes this store's durable writes through `io` — the fault
    /// injection / census handle of [`crate::durable`]. The default is
    /// the pass-through real-filesystem handle.
    #[must_use]
    pub fn with_io(mut self, io: DurableIo) -> CheckpointStore {
        self.io = io;
        self
    }

    /// The checkpoint directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The journal file.
    #[must_use]
    pub fn path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    /// The run the journal belongs to, if it holds an intact header.
    #[must_use]
    pub fn header(&self) -> Option<&JournalHeader> {
        self.header.as_ref()
    }

    /// The journal's replies, for the run's tool wrappers.
    #[must_use]
    pub fn journal(&self) -> Arc<Journal> {
        Arc::clone(&self.journal)
    }

    /// Why reading the journal stopped before its end, if it did.
    #[must_use]
    pub fn damage(&self) -> Option<&str> {
        self.damage.as_deref()
    }
}

/// A write the run's writer thread performs.
enum Job {
    /// Creates the journal holding `record`, its header.
    Create { point: ReservedWrite, record: Vec<u8> },
    /// Fsyncs the journal.
    Sync { point: ReservedWrite, file: Arc<fs::File> },
}

/// One run's writer thread, which runs [`Job`]s one at a time.
///
/// At most one job is in flight: [`WriteBehind::submit`] first waits for
/// the previous one, so a failure surfaces at the next boundary at the
/// latest, and [`WriteBehind::wait`] collects the last one. Dropping the
/// writer waits for the in-flight job and joins the thread, so no write
/// outlives the run that asked for it.
#[derive(Debug)]
struct WriteBehind {
    jobs: Option<mpsc::Sender<Job>>,
    landed: mpsc::Receiver<io::Result<()>>,
    in_flight: bool,
    thread: Option<JoinHandle<()>>,
}

impl WriteBehind {
    fn spawn(dir: PathBuf) -> io::Result<WriteBehind> {
        let (jobs, queue) = mpsc::channel::<Job>();
        let (report, landed) = mpsc::channel();
        let thread = std::thread::Builder::new().name("ckpt-writer".into()).spawn(move || {
            for job in queue {
                let done = match job {
                    Job::Create { point, record } => {
                        point.write_atomic(&dir, JOURNAL_FILE, &record)
                    }
                    Job::Sync { point, file } => point.sync(&file),
                };
                if report.send(done).is_err() {
                    break;
                }
            }
        })?;
        Ok(WriteBehind { jobs: Some(jobs), landed, in_flight: false, thread: Some(thread) })
    }

    fn submit(&mut self, job: Job) -> io::Result<()> {
        self.wait()?;
        self.jobs.as_ref().and_then(|jobs| jobs.send(job).ok()).ok_or_else(writer_gone)?;
        self.in_flight = true;
        Ok(())
    }

    fn wait(&mut self) -> io::Result<()> {
        if !std::mem::take(&mut self.in_flight) {
            return Ok(());
        }
        self.landed.recv().unwrap_or_else(|_| Err(writer_gone()))
    }
}

impl Drop for WriteBehind {
    fn drop(&mut self) {
        // Closing the queue ends the thread's loop once the in-flight
        // job, if any, has run.
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn writer_gone() -> io::Error {
    io::Error::other("checkpoint writer thread exited")
}

/// The engine's side of a journal: appends each scoring batch's replies
/// and syncs them at generation boundaries.
#[derive(Debug)]
pub(crate) struct JournalWriter {
    path: PathBuf,
    io: DurableIo,
    journal: Arc<Journal>,
    /// The journal opened for appending; `None` while its creation is in
    /// flight.
    file: Option<Arc<fs::File>>,
    writer: WriteBehind,
    /// Bytes written since the last boundary, the header included.
    written: u64,
    /// Whether an append has not been synced yet.
    unsynced: bool,
    /// The generation whose scoring first called the tool, once a run
    /// that replays an earlier incarnation's replies has gone live.
    live_from: Option<u32>,
}

impl JournalWriter {
    /// Opens `store`'s journal for the run `header` names: appends after
    /// the intact records of an earlier incarnation, cutting a damaged
    /// tail, or starts a new journal on the writer thread. The caller
    /// checks that the store's header admits the run.
    pub(crate) fn open(
        store: &CheckpointStore,
        header: &JournalHeader,
    ) -> io::Result<JournalWriter> {
        let mut writer = WriteBehind::spawn(store.dir.clone())?;
        let path = store.path();
        let (file, written) = if store.header.is_some() {
            let file = fs::OpenOptions::new().append(true).open(&path)?;
            if store.damage.is_some() {
                file.set_len(store.intact)?;
            }
            (Some(Arc::new(file)), 0)
        } else {
            // Whatever a torn creation left behind goes first.
            let _ = DurableIo::clean_stray_tmps(&store.dir);
            let record = header.encode();
            let written = record.len() as u64;
            writer.submit(Job::Create { point: store.io.reserve("ckpt.create"), record })?;
            (None, written)
        };
        Ok(JournalWriter {
            path,
            io: store.io.clone(),
            journal: Arc::clone(&store.journal),
            file,
            writer,
            written,
            unsynced: false,
            live_from: None,
        })
    }

    /// The journal file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends the replies recorded since the last flush, which the batch
    /// scored for `generation` made (initial-population rounds count as
    /// generation 0).
    pub(crate) fn flush(&mut self, generation: u32) -> io::Result<()> {
        let records = self.journal.take_fresh();
        if records.is_empty() {
            return Ok(());
        }
        let file = match &self.file {
            Some(file) => Arc::clone(file),
            None => {
                self.writer.wait()?;
                let file = Arc::new(fs::OpenOptions::new().append(true).open(&self.path)?);
                self.file = Some(Arc::clone(&file));
                file
            }
        };
        self.io.append(&file, &records, "ckpt.append")?;
        self.written += records.len() as u64;
        self.unsynced = true;
        if self.journal.replies() > 0 && self.live_from.is_none() {
            self.live_from = Some(generation);
        }
        Ok(())
    }

    /// A generation boundary: waits for the previous boundary's sync,
    /// hands this boundary's to the writer thread when something was
    /// appended, and returns the bytes written since the last boundary.
    pub(crate) fn boundary(&mut self) -> io::Result<u64> {
        self.writer.wait()?;
        if std::mem::take(&mut self.unsynced) {
            let file = Arc::clone(self.file.as_ref().expect("an append opened the journal"));
            self.writer.submit(Job::Sync { point: self.io.reserve("ckpt.sync"), file })?;
        }
        Ok(std::mem::take(&mut self.written))
    }

    /// Waits for the last write; the journal is durable when this
    /// returns `Ok`.
    pub(crate) fn finish(&mut self) -> io::Result<()> {
        self.writer.wait()
    }

    /// For a run that replayed an earlier incarnation's replies: the
    /// generation where it went live, or `next` when it never did.
    pub(crate) fn restored(&self, next: u32) -> Option<u32> {
        (self.journal.replies() > 0).then(|| self.live_from.unwrap_or(next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            seed: 42,
            run_label: "guided".into(),
            settings: GaSettings { population: 4, generations: 10, ..GaSettings::default() },
        }
    }

    /// A header and three replies, one carrying a NaN.
    fn sample_journal() -> Vec<u8> {
        let mut bytes = header().encode();
        bytes.extend(encode_reply(&[0, 1, 2], 0, &9.0f64.to_le_bytes()));
        bytes.extend(encode_reply(&[0, 1, 2], 2, &[]));
        bytes.extend(encode_reply(&[9, 9, 9], 0, &f64::NAN.to_le_bytes()));
        bytes
    }

    fn tempdir(tag: &str) -> PathBuf {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("nautilus-ckpt-{tag}-{pid}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn encode_decode_round_trips_including_nan() {
        let contents = read_journal(&sample_journal());
        assert_eq!(contents.header, Some(header()));
        assert_eq!(contents.damage, None);
        assert_eq!(contents.intact, sample_journal().len() as u64);
        let journal = Journal { recovered: contents.replies, fresh: Mutex::default() };
        assert_eq!(journal.replies(), 3);
        let g = Genome::from_genes(vec![0, 1, 2]);
        assert_eq!(journal.reply(&g, 0), Some(&9.0f64.to_le_bytes()[..]));
        assert_eq!(journal.reply(&g, 2), Some(&[][..]));
        assert_eq!(journal.reply(&g, 1), None);
        let nan = journal.reply(&Genome::from_genes(vec![9, 9, 9]), 0).unwrap();
        assert!(f64::from_le_bytes(nan.try_into().unwrap()).is_nan(), "NaN must survive");
        // Recorded replies come out sorted by key, the first of a key
        // winning, and only once.
        journal.record(&Genome::from_genes(vec![5]), 1, vec![1]);
        journal.record(&Genome::from_genes(vec![3]), 7, vec![2]);
        journal.record(&Genome::from_genes(vec![5]), 1, vec![3]);
        let mut expected = encode_reply(&[3], 7, &[2]);
        expected.extend(encode_reply(&[5], 1, &[1]));
        assert_eq!(journal.take_fresh(), expected);
        assert!(journal.take_fresh().is_empty());
    }

    #[test]
    fn golden_checkpoint_bytes_are_stable() {
        // A committed fixture: the next build must read the journals this
        // one wrote, so a change here needs a SCHEMA_VERSION bump and a
        // migration. The CRC covers every earlier byte, so the header and
        // trailer pin each whole record.
        let record = header().encode();
        assert_eq!(record.len(), 91);
        assert_eq!(&record[..8], b"NAUTCKPT");
        assert_eq!(&record[8..12], &2u32.to_le_bytes());
        assert_eq!(&record[12..20], &67u64.to_le_bytes());
        assert_eq!(&record[87..], &0xB2D0_FBBCu32.to_le_bytes());
        let reply = encode_reply(&[1, 2], 3, &[4, 5]);
        assert_eq!(reply.len(), 55);
        assert_eq!(&reply[51..], &0xB8F9_9AECu32.to_le_bytes());
    }

    #[test]
    fn every_prefix_truncation_is_detected() {
        let bytes = sample_journal();
        let first = header().encode().len();
        for cut in 0..bytes.len() {
            let contents = read_journal(&bytes[..cut]);
            if cut < first {
                assert_eq!(contents.header, None, "cut at {cut} kept a torn header");
                assert_eq!(contents.intact, 0);
            } else {
                assert_eq!(contents.header, Some(header()));
                assert!(contents.intact <= cut as u64);
            }
            let torn = contents.intact < cut as u64;
            assert_eq!(contents.damage.is_some(), torn, "cut at {cut}/{}", bytes.len());
            if torn {
                let reason = contents.damage.unwrap();
                assert!(reason.contains("truncated"), "cut at {cut}: {reason}");
            }
        }
        // A record of the wrong length is truncated whichever way it is
        // wrong: a length prefix no record can have.
        let mut huge = header().encode();
        huge[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        let reason = read_journal(&huge).damage.unwrap();
        assert!(reason.contains("exceeds cap"), "{reason}");
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Flipping any one bit anywhere must end the intact prefix at or
        // before the flipped record, never decode a different record. The
        // property variant in tests/proptests.rs sweeps generated
        // journals the same way.
        let bytes = sample_journal();
        let clean = read_journal(&bytes);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                let contents = read_journal(&corrupt);
                assert!(
                    contents.damage.is_some() && contents.intact <= byte as u64,
                    "bit {bit} of byte {byte}/{} flipped without detection",
                    bytes.len()
                );
                assert!(contents.replies.len() <= clean.replies.len());
            }
        }
    }

    #[test]
    fn bad_magic_and_bad_version_are_rejected() {
        let mut record = header().encode();
        record[0] ^= 0xFF;
        let contents = read_journal(&record);
        assert_eq!(contents.header, None);
        assert!(contents.damage.unwrap().contains("bad magic"));
        let mut record = header().encode();
        record[8] = 0xFF; // schema version byte
        let reason = read_journal(&record).damage.unwrap();
        assert!(reason.contains("unsupported protocol version 255"), "{reason}");
        // A reply before any header, and a second header, are out of
        // order: nothing after them counts.
        let orphan = encode_reply(&[1], 0, &[]);
        assert_eq!(read_journal(&orphan).damage.as_deref(), Some("record out of order"));
        let mut twice = header().encode();
        twice.extend(header().encode());
        let contents = read_journal(&twice);
        assert_eq!(contents.intact, header().encode().len() as u64);
        assert_eq!(contents.damage.as_deref(), Some("record out of order"));
    }

    #[test]
    fn recovery_skips_corrupt_newest_and_cleans_tmp_files() {
        let dir = tempdir("store-recovery");
        let mut bytes = sample_journal();
        let intact = bytes.len() - encode_reply(&[9, 9, 9], 0, &[0; 8]).len();
        let mid = intact + 30;
        bytes[mid] ^= 0x01; // inside the newest record's body
        std::fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();
        let stray = dir.join(format!(".{JOURNAL_FILE}.tmp"));
        std::fs::write(&stray, b"partial").unwrap();

        let store = CheckpointStore::create(&dir).unwrap();
        assert_eq!(store.header(), Some(&header()));
        assert_eq!(store.journal().replies(), 2, "the corrupt newest record is dropped");
        assert!(store.damage().unwrap().contains("checksum"), "{:?}", store.damage());
        // Opening it for a run cuts the damaged tail, so the next append
        // lands after the intact records.
        let writer = JournalWriter::open(&store, &header()).unwrap();
        drop(writer);
        assert_eq!(std::fs::metadata(store.path()).unwrap().len(), intact as u64);
        assert!(stray.exists(), "an existing journal is never recreated");

        // A journal with no intact header is recreated, and the writer
        // sweeps what a torn creation left behind first.
        std::fs::write(store.path(), b"NAUT").unwrap();
        let store = CheckpointStore::create(&dir).unwrap();
        assert_eq!(store.header(), None);
        let mut writer = JournalWriter::open(&store, &header()).unwrap();
        writer.finish().unwrap();
        assert!(!stray.exists(), "stray tmp cleaned");
        assert_eq!(std::fs::read(store.path()).unwrap(), header().encode());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_cleans_up_tmp_and_preserves_store() {
        let dir = tempdir("store-blocked-write");
        // Block the journal's final path with a non-empty directory:
        // `fs::rename` over it fails on every platform, even as root
        // (where permission bits alone would not stop a write).
        let blocked = dir.join(JOURNAL_FILE);
        std::fs::create_dir(&blocked).unwrap();
        std::fs::write(blocked.join("occupied"), b"x").unwrap();

        let store = CheckpointStore::create(&dir);
        store.expect_err("a journal that is a directory cannot be read");
        std::fs::remove_file(blocked.join("occupied")).unwrap();
        std::fs::remove_dir(&blocked).unwrap();

        // The creation itself fails cleanly: no temporary survives, and
        // what was there before stays as it was.
        let store = CheckpointStore::create(&dir).unwrap();
        std::fs::create_dir(&blocked).unwrap();
        std::fs::write(blocked.join("occupied"), b"x").unwrap();
        let mut writer = JournalWriter::open(&store, &header()).unwrap();
        writer.finish().expect_err("blocked rename must surface");
        assert!(!dir.join(format!(".{JOURNAL_FILE}.tmp")).exists(), "a stray .tmp survived");
        assert!(blocked.join("occupied").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_faults_surface_typed_and_leave_the_store_recoverable() {
        use crate::durable::{IoFaultKind, IoFaultPlan};
        let g = Genome::from_genes(vec![1, 2, 3]);
        // Write points: 0 creates the journal, 1 appends the first batch,
        // 2 syncs it at the boundary, 3 appends the second batch.
        for (point, kind) in [
            (0, IoFaultKind::Torn),
            (0, IoFaultKind::DirSyncFail),
            (1, IoFaultKind::WriteEnospc),
            (1, IoFaultKind::Torn),
            (2, IoFaultKind::SyncFail),
            (3, IoFaultKind::Torn),
        ] {
            let dir = tempdir(&format!("store-injected-{point}-{}", kind.label()));
            let io = DurableIo::with_plan(IoFaultPlan::new().fail_at(point, kind));
            let store = CheckpointStore::create(&dir).unwrap().with_io(io.clone());
            let journal = store.journal();
            let mut writer = JournalWriter::open(&store, &header()).unwrap();
            let run = (|| -> io::Result<()> {
                journal.record(&g, 0, vec![1]);
                writer.flush(0)?;
                writer.boundary()?;
                journal.record(&g, 1, vec![2]);
                writer.flush(1)?;
                writer.boundary()?;
                writer.finish()
            })();
            let err = run.expect_err("injected fault must surface");
            assert!(err.to_string().contains(kind.label()), "{err}");
            assert_eq!(io.injected_faults(), 1);
            drop(writer);

            // Whatever the fault broke, the store reopens on an intact
            // prefix: the header, and the first reply once it was
            // appended whole.
            let reopened = CheckpointStore::create(&dir).unwrap();
            let created = !(point == 0 && kind == IoFaultKind::Torn);
            assert_eq!(reopened.header().is_some(), created, "{kind:?} at {point}");
            assert_eq!(reopened.journal().reply(&g, 0).is_some(), point >= 2, "{kind:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn failed_tmp_create_is_a_clean_error() {
        let dir = tempdir("store-blocked-tmp");
        // Occupy the dot-tmp path itself, with a directory the writer's
        // sweep of stray temporaries cannot remove, so `File::create`
        // fails before any bytes are staged.
        let tmp = dir.join(format!(".{JOURNAL_FILE}.tmp"));
        std::fs::create_dir(&tmp).unwrap();
        std::fs::write(tmp.join("occupied"), b"x").unwrap();
        let store = CheckpointStore::create(&dir).unwrap();
        let mut writer = JournalWriter::open(&store, &header()).unwrap();
        writer.finish().expect_err("blocked tmp create must surface");
        assert!(!store.path().exists(), "no journal without its header");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_only_directory_fails_cleanly_without_corrupting_store() {
        use std::os::unix::fs::PermissionsExt;
        let dir = tempdir("store-readonly");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut perms = std::fs::metadata(&dir).unwrap().permissions();
        perms.set_mode(0o555);
        std::fs::set_permissions(&dir, perms).unwrap();
        // Root ignores permission bits; probe before asserting anything.
        let probe = dir.join(".perm-probe");
        if std::fs::write(&probe, b"x").is_ok() {
            std::fs::remove_file(&probe).ok();
        } else {
            let mut writer = JournalWriter::open(&store, &header()).unwrap();
            writer.finish().expect_err("read-only dir must surface");
            assert!(!dir.join(format!(".{JOURNAL_FILE}.tmp")).exists());
        }
        let mut perms = std::fs::metadata(&dir).unwrap().permissions();
        perms.set_mode(0o755);
        std::fs::set_permissions(&dir, perms).unwrap();
        // Either way the store reopens cleanly and a run can start it.
        let store = CheckpointStore::create(&dir).unwrap();
        assert_eq!(store.damage(), None);
        JournalWriter::open(&store, &header()).unwrap().finish().unwrap();
        assert_eq!(CheckpointStore::create(&dir).unwrap().header(), Some(&header()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_directory_recovers_to_nothing() {
        let dir = tempdir("store-empty");
        let store = CheckpointStore::create(&dir).unwrap();
        assert!(store.header().is_none());
        assert_eq!(store.journal().replies(), 0);
        assert!(store.damage().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
