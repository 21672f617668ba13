//! Durable checkpoint/resume for the generational GA.
//!
//! A [`SearchState`] captures everything the engine needs to continue a
//! run deterministically from a generation boundary: the RNG stream
//! position, the breeding population, the full evaluation cache (with the
//! quarantine set), fault counters, per-generation history, and a set of
//! opaque auxiliary blobs for higher layers (the `nautilus` crate stores
//! its report snapshot and synthesis-job offsets there). Resuming from a
//! checkpoint and running to completion produces *byte-identical* results
//! to an uninterrupted run at any worker count.
//!
//! # On-disk record layout
//!
//! A checkpoint is one record of the workspace's one record format,
//! sealed and opened by [`nautilus_obs::wire::Envelope`]:
//!
//! ```text
//! +----------+---------------+----------------+--------+-------------+
//! | MAGIC(8) | schema u32 LE | body_len u64 LE| body   | crc32 u32 LE|
//! +----------+---------------+----------------+--------+-------------+
//! ```
//!
//! * `MAGIC` is the fixed tag `b"NAUTCKPT"`.
//! * `schema` is [`SCHEMA_VERSION`]; readers reject versions they do not
//!   understand rather than guessing at field layouts.
//! * `body` is the wire-encoded [`SearchState`] (little-endian, length-
//!   prefixed; see `nautilus_obs::wire`). Its length is not capped: a
//!   checkpoint is already in memory when it is decoded.
//! * `crc32` is the CRC-32 (IEEE) of *everything before it* (magic,
//!   schema, length, body), so header corruption is caught too.
//!
//! Writes are crash-safe: the record is written to a dot-prefixed
//! temporary in the same directory, `fsync`ed, atomically renamed into
//! place, and the directory is `fsync`ed. A crash at any instant leaves
//! either the old file set or the new one — never a half-written record
//! under a final name.
//!
//! The engine writes behind the search. At each generation boundary it
//! encodes the record and reserves its write points on its own thread
//! (`CheckpointStore::prepare`), then hands the record to one writer
//! thread per run, which does the I/O (`CheckpointStore::commit`) while
//! the next generation evaluates.
//!
//! # Retention
//!
//! [`CheckpointStore`] keeps the newest `keep_last` generation files
//! (`ckpt-XXXXXXXX.nckpt`, default 3) plus a pinned `best.nckpt` holding
//! the checkpoint whose best-so-far value was strongest. Recovery scans
//! generation files newest-first, falling back across corrupt or
//! truncated files (each reported, never silently skipped) and finally to
//! `best.nckpt`.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Instant;

use nautilus_obs::{
    Envelope, FrameError, SearchEvent, SearchObserver, WireError, WireReader, WireWriter,
};

use crate::cache::CacheSnapshot;
use crate::durable::{DurableIo, ReservedWrite};
use crate::engine::{GaSettings, GenStats};
use crate::fallible::FaultStats;
use crate::genome::Genome;

/// Fixed 8-byte tag opening every checkpoint record.
pub const MAGIC: &[u8; 8] = b"NAUTCKPT";

/// Current checkpoint schema version. Bump on any layout change; readers
/// reject unknown versions outright (schema evolution happens by explicit
/// migration, never by guessing).
pub const SCHEMA_VERSION: u32 = 1;

/// File extension for checkpoint records.
pub const EXTENSION: &str = "nckpt";

const ENVELOPE: Envelope =
    Envelope { magic: MAGIC, version: SCHEMA_VERSION, max_body_len: u64::MAX };

/// Errors from checkpoint encoding, decoding, or storage.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Filesystem failure while reading or writing.
    Io(std::io::Error),
    /// The record does not start with [`MAGIC`].
    BadMagic,
    /// The record's schema version is not one this build understands.
    UnsupportedVersion(u32),
    /// The record's length does not match its declared length.
    Truncated,
    /// The CRC-32 over the record does not match its trailer.
    BadCrc {
        /// Checksum recomputed from the record contents.
        computed: u32,
        /// Checksum stored in the record trailer.
        stored: u32,
    },
    /// The body failed structural decoding despite a valid checksum.
    Malformed(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o failure: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint schema version {v}")
            }
            CheckpointError::Truncated => write!(f, "truncated checkpoint record"),
            CheckpointError::BadCrc { computed, stored } => {
                write!(f, "checksum mismatch: computed {computed:#010x}, stored {stored:#010x}")
            }
            CheckpointError::Malformed(reason) => write!(f, "malformed checkpoint body: {reason}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A record of the wrong length (short, oversized length prefix, bytes
/// after the trailer) is [`CheckpointError::Truncated`].
impl From<FrameError> for CheckpointError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => CheckpointError::Io(e),
            FrameError::BadMagic => CheckpointError::BadMagic,
            FrameError::UnsupportedVersion(v) => CheckpointError::UnsupportedVersion(v),
            FrameError::BadCrc { computed, stored } => CheckpointError::BadCrc { computed, stored },
            _ => CheckpointError::Truncated,
        }
    }
}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Malformed(e.0)
    }
}

/// The complete deterministic state of a GA run at a generation boundary.
///
/// `generation` is the *next* generation to score: a state checkpointed
/// after breeding generation `g`'s offspring carries `generation == g + 1`
/// and the freshly bred population. Resuming scores that population and
/// continues exactly as the uninterrupted run would have.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchState {
    /// Seed the run was started with (identifies the logical run).
    pub seed: u64,
    /// Strategy label from the engine.
    pub run_label: String,
    /// Scalar settings of the run (validated for compatibility on resume).
    pub settings: GaSettings,
    /// Next generation to score (always ≥ 1: the earliest boundary is
    /// after generation 0 has been scored and bred).
    pub generation: u32,
    /// RNG stream position (xoshiro256** state words).
    pub rng: [u64; 4],
    /// The population awaiting scoring.
    pub population: Vec<Genome>,
    /// Per-generation history accumulated so far.
    pub history: Vec<GenStats>,
    /// Best genome found so far, if any generation had a feasible member.
    pub best_genome: Option<Genome>,
    /// Raw metric value of `best_genome` (direction's worst value if none).
    pub best_value: f64,
    /// Sampling attempts consumed building the initial population.
    pub init_attempts: usize,
    /// Full evaluation-cache dump (entries, quarantine set, counters).
    pub cache: CacheSnapshot,
    /// Failure/retry/quarantine counters.
    pub faults: FaultStats,
    /// Opaque auxiliary blobs for higher layers, keyed by name (e.g.
    /// `"obs.report"`, `"synth.jobs"`). Preserved byte-for-byte.
    pub aux: Vec<(String, Vec<u8>)>,
}

impl SearchState {
    /// The auxiliary blob stored under `key`, if any.
    #[must_use]
    pub fn aux_blob(&self, key: &str) -> Option<&[u8]> {
        self.aux.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_slice())
    }

    /// Encodes the state as a complete checkpoint record (header, body,
    /// CRC trailer) ready to be written to disk.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut body = WireWriter::new();
        body.u64(self.seed);
        body.str(&self.run_label);
        body.usize(self.settings.population);
        body.u32(self.settings.generations);
        body.f64(self.settings.crossover_rate);
        body.usize(self.settings.elitism);
        body.usize(self.settings.init_retries);
        body.usize(self.settings.eval_workers);
        body.u32(self.generation);
        for word in &self.rng {
            body.u64(*word);
        }
        encode_genomes(&mut body, &self.population);
        body.usize(self.history.len());
        for h in &self.history {
            body.u32(h.generation);
            body.u64(h.distinct_evals);
            body.f64(h.best_value);
            body.f64(h.mean_value);
            body.f64(h.best_so_far);
        }
        match &self.best_genome {
            Some(g) => {
                body.bool(true);
                encode_genome(&mut body, g);
            }
            None => body.bool(false),
        }
        body.f64(self.best_value);
        body.usize(self.init_attempts);
        body.usize(self.cache.entries.len());
        for (g, v) in &self.cache.entries {
            encode_genome(&mut body, g);
            match v {
                Some(x) => {
                    body.bool(true);
                    body.f64(*x);
                }
                None => body.bool(false),
            }
        }
        encode_genomes(&mut body, &self.cache.quarantined);
        body.u64(self.cache.hits);
        body.u64(self.cache.feasible_misses);
        body.u64(self.cache.infeasible_misses);
        body.u64(self.faults.evals_failed);
        body.u64(self.faults.retries);
        body.u64(self.faults.retries_recovered);
        body.u64(self.faults.quarantined);
        for n in &self.faults.failed_attempts {
            body.u64(*n);
        }
        body.usize(self.aux.len());
        for (key, blob) in &self.aux {
            body.str(key);
            body.bytes(blob);
        }
        ENVELOPE.seal(&body.into_bytes())
    }

    /// Decodes and validates a checkpoint record produced by
    /// [`SearchState::encode`].
    ///
    /// # Errors
    ///
    /// Any deviation — wrong magic, unknown schema, truncation, checksum
    /// mismatch, structural garbage — is an error; corruption is never
    /// silently accepted.
    pub fn decode(record: &[u8]) -> Result<SearchState, CheckpointError> {
        let mut r = WireReader::new(ENVELOPE.open(record)?);
        let seed = r.u64()?;
        let run_label = r.str()?;
        let settings = GaSettings {
            population: r.len_prefix()?,
            generations: r.u32()?,
            crossover_rate: r.f64()?,
            elitism: r.len_prefix()?,
            init_retries: r.len_prefix()?,
            eval_workers: r.len_prefix()?,
        };
        let generation = r.u32()?;
        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = r.u64()?;
        }
        let population = decode_genomes(&mut r)?;
        let n_history = r.len_prefix()?;
        let mut history = Vec::with_capacity(n_history.min(4096));
        for _ in 0..n_history {
            history.push(GenStats {
                generation: r.u32()?,
                distinct_evals: r.u64()?,
                best_value: r.f64()?,
                mean_value: r.f64()?,
                best_so_far: r.f64()?,
            });
        }
        let best_genome = if r.bool()? { Some(decode_genome(&mut r)?) } else { None };
        let best_value = r.f64()?;
        let init_attempts = r.len_prefix()?;
        let n_entries = r.len_prefix()?;
        let mut entries = Vec::with_capacity(n_entries.min(4096));
        for _ in 0..n_entries {
            let g = decode_genome(&mut r)?;
            let v = if r.bool()? { Some(r.f64()?) } else { None };
            entries.push((g, v));
        }
        let quarantined = decode_genomes(&mut r)?;
        let cache = CacheSnapshot {
            entries,
            quarantined,
            hits: r.u64()?,
            feasible_misses: r.u64()?,
            infeasible_misses: r.u64()?,
        };
        let mut faults = FaultStats {
            evals_failed: r.u64()?,
            retries: r.u64()?,
            retries_recovered: r.u64()?,
            quarantined: r.u64()?,
            ..FaultStats::default()
        };
        for slot in &mut faults.failed_attempts {
            *slot = r.u64()?;
        }
        let n_aux = r.len_prefix()?;
        let mut aux = Vec::with_capacity(n_aux.min(64));
        for _ in 0..n_aux {
            let key = r.str()?;
            let blob = r.bytes()?.to_vec();
            aux.push((key, blob));
        }
        r.finish()?;
        Ok(SearchState {
            seed,
            run_label,
            settings,
            generation,
            rng,
            population,
            history,
            best_genome,
            best_value,
            init_attempts,
            cache,
            faults,
            aux,
        })
    }
}

fn encode_genome(w: &mut WireWriter, g: &Genome) {
    w.usize(g.len());
    for &gene in g.genes() {
        w.u32(gene);
    }
}

fn decode_genome(r: &mut WireReader<'_>) -> Result<Genome, WireError> {
    let n = r.len_prefix()?;
    if n > r.remaining() / 4 {
        return Err(WireError(format!("genome length {n} exceeds record")));
    }
    let mut genes = Vec::with_capacity(n);
    for _ in 0..n {
        genes.push(r.u32()?);
    }
    Ok(Genome::from_genes(genes))
}

fn encode_genomes(w: &mut WireWriter, gs: &[Genome]) {
    w.usize(gs.len());
    for g in gs {
        encode_genome(w, g);
    }
}

fn decode_genomes(r: &mut WireReader<'_>) -> Result<Vec<Genome>, WireError> {
    let n = r.len_prefix()?;
    let mut gs = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        gs.push(decode_genome(r)?);
    }
    Ok(gs)
}

/// Receipt returned by a successful [`CheckpointStore::write`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReceipt {
    /// Final path of the durable checkpoint file.
    pub path: PathBuf,
    /// Size of the record in bytes.
    pub bytes: u64,
    /// Wall-clock nanoseconds spent encoding, writing, syncing, renaming.
    pub write_nanos: u64,
}

/// A checkpoint record encoded by `CheckpointStore::prepare`, with its
/// write points reserved, awaiting `CheckpointStore::commit`.
#[derive(Debug)]
#[must_use = "a prepared checkpoint is not durable until it is committed"]
pub(crate) struct PreparedWrite {
    path: PathBuf,
    record: Vec<u8>,
    generation_point: ReservedWrite,
    best_point: Option<ReservedWrite>,
}

/// Outcome of scanning a checkpoint directory for the newest intact state.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The newest state that decoded and validated, if any.
    pub state: Option<SearchState>,
    /// Path the state was loaded from.
    pub path: Option<PathBuf>,
    /// Files that failed validation, newest-first, with the reason each
    /// was skipped.
    pub skipped: Vec<(PathBuf, String)>,
}

impl Recovery {
    /// Replays this recovery's telemetry onto `obs`: one
    /// [`SearchEvent::CheckpointCorruptSkipped`] per rejected file, then a
    /// [`SearchEvent::CheckpointRestored`] if a state was loaded.
    ///
    /// Useful when the observer is assembled *after* recovery — e.g. a
    /// report builder restored from the recovered state's own aux blob.
    pub fn replay(&self, obs: &dyn SearchObserver) {
        if !obs.enabled() {
            return;
        }
        for (path, reason) in &self.skipped {
            obs.on_event(&SearchEvent::CheckpointCorruptSkipped {
                path: path.display().to_string(),
                reason: reason.clone(),
            });
        }
        if let (Some(state), Some(path)) = (&self.state, &self.path) {
            obs.on_event(&SearchEvent::CheckpointRestored {
                generation: state.generation,
                path: path.display().to_string(),
            });
        }
    }
}

/// A directory of durable, versioned, checksummed checkpoint records with
/// keep-last-K retention and a pinned best-so-far record.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep_last: usize,
    io: DurableIo,
}

impl CheckpointStore {
    /// Opens (creating if needed) `dir` as a checkpoint directory with the
    /// default retention of 3 generation files.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the directory cannot be created.
    pub fn create(dir: impl Into<PathBuf>) -> Result<CheckpointStore, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir, keep_last: 3, io: DurableIo::real() })
    }

    /// Routes this store's durable writes through `io` — the fault
    /// injection / census handle of [`crate::durable`]. The default is
    /// the pass-through real-filesystem handle.
    #[must_use]
    pub fn with_io(mut self, io: DurableIo) -> CheckpointStore {
        self.io = io;
        self
    }

    /// Sets how many generation checkpoints to retain (minimum 1). The
    /// pinned `best.nckpt` is kept in addition to this budget.
    #[must_use]
    pub fn with_keep_last(mut self, keep_last: usize) -> CheckpointStore {
        self.keep_last = keep_last.max(1);
        self
    }

    /// The checkpoint directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn generation_path(&self, generation: u32) -> PathBuf {
        self.dir.join(format!("ckpt-{generation:08}.{EXTENSION}"))
    }

    fn best_path(&self) -> PathBuf {
        self.dir.join(format!("best.{EXTENSION}"))
    }

    /// Durably writes `state` as `ckpt-GGGGGGGG.nckpt`, applies retention,
    /// and — when `pin_best` — also refreshes `best.nckpt` with the same
    /// record. The engine does the same in two steps, `prepare` on its
    /// own thread and `commit` on its writer thread; this runs both here.
    ///
    /// Crash-safety: record bytes go to a dot-prefixed temporary, which is
    /// `fsync`ed, renamed over the final name, after which the directory
    /// entry is `fsync`ed. A crash mid-write leaves a stray `.tmp` (cleaned
    /// by the next recovery scan), never a corrupt final file from this
    /// code path.
    ///
    /// A *failed* write (disk full, permission error, blocked rename)
    /// removes its temporary before returning, so repeated failures
    /// cannot litter the directory, and never touches the finished
    /// checkpoints already present: the store stays fully recoverable to
    /// its pre-failure state.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on any filesystem failure.
    pub fn write(
        &self,
        state: &SearchState,
        pin_best: bool,
    ) -> Result<WriteReceipt, CheckpointError> {
        let started = Instant::now();
        let prepared = self.prepare(state, pin_best);
        let (path, bytes) = (prepared.path.clone(), prepared.record.len() as u64);
        self.commit(prepared)?;
        Ok(WriteReceipt { path, bytes, write_nanos: nanos_since(started) })
    }

    /// The engine-side half of a write: encodes `state` and reserves the
    /// `ckpt.gen` write point, plus `ckpt.best` when `pin_best`, in the
    /// handle's sequence. Reserving here keeps the write-point order the
    /// caller's, whichever thread later commits.
    pub(crate) fn prepare(&self, state: &SearchState, pin_best: bool) -> PreparedWrite {
        let record = state.encode();
        let generation_point = self.io.reserve("ckpt.gen");
        let best_point = pin_best.then(|| self.io.reserve("ckpt.best"));
        PreparedWrite {
            path: self.generation_path(state.generation),
            record,
            generation_point,
            best_point,
        }
    }

    /// The I/O half of a write: runs the tmp→fsync→rename→dir-fsync
    /// discipline for the generation file and, if reserved, `best.nckpt`,
    /// then applies retention. Safe to call from any thread; the record
    /// is durable when this returns `Ok`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on any filesystem failure, with
    /// the same cleanup guarantees as [`CheckpointStore::write`].
    pub(crate) fn commit(&self, prepared: PreparedWrite) -> Result<(), CheckpointError> {
        let PreparedWrite { path, record, generation_point, best_point } = prepared;
        self.write_atomic(&path, &record, generation_point)?;
        if let Some(point) = best_point {
            self.write_atomic(&self.best_path(), &record, point)?;
        }
        self.apply_retention()
    }

    fn write_atomic(
        &self,
        final_path: &Path,
        record: &[u8],
        point: ReservedWrite,
    ) -> Result<(), CheckpointError> {
        let file_name = final_path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| CheckpointError::Malformed("non-utf8 checkpoint name".into()))?;
        // The tmp/fsync/rename/dir-fsync discipline (and its cleanup on
        // failure) lives in [`DurableIo`], shared with every other
        // durable writer in the workspace and fault-injectable there.
        point.write_atomic(&self.dir, file_name, record)?;
        Ok(())
    }

    fn apply_retention(&self) -> Result<(), CheckpointError> {
        let mut files = self.checkpoint_files()?;
        while files.len() > self.keep_last {
            let (path, _) = files.remove(0); // oldest first
            fs::remove_file(path)?;
        }
        Ok(())
    }

    /// Generation checkpoint files present, sorted oldest-first by
    /// generation number (ignores `best.nckpt` and temporaries).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the directory cannot be read.
    pub fn checkpoint_files(&self) -> Result<Vec<(PathBuf, u32)>, CheckpointError> {
        let mut files = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let Some(stem) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(&format!(".{EXTENSION}")))
            else {
                continue;
            };
            if let Ok(generation) = stem.parse::<u32>() {
                files.push((path, generation));
            }
        }
        files.sort_by_key(|&(_, generation)| generation);
        Ok(files)
    }

    /// Loads and validates one specific checkpoint file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and every validation error from
    /// [`SearchState::decode`].
    pub fn load(&self, path: &Path) -> Result<SearchState, CheckpointError> {
        let record = fs::read(path)?;
        SearchState::decode(&record)
    }

    /// Scans for the newest intact checkpoint: generation files
    /// newest-first, then `best.nckpt`. Corrupt or truncated files are
    /// recorded in [`Recovery::skipped`] (never silently accepted) and the
    /// scan falls back to the next candidate. Stray `.tmp` files from
    /// interrupted writes are removed.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] only for directory-level failures;
    /// per-file problems become `skipped` entries.
    pub fn recover(&self) -> Result<Recovery, CheckpointError> {
        // Clean up interrupted writes first: a `.tmp` never counts as a
        // checkpoint (the rename that publishes it did not happen).
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with('.') && n.ends_with(".tmp"))
            {
                let _ = fs::remove_file(&path);
            }
        }
        let mut recovery = Recovery::default();
        let mut candidates: Vec<PathBuf> =
            self.checkpoint_files()?.into_iter().rev().map(|(p, _)| p).collect();
        let best = self.best_path();
        if best.exists() {
            candidates.push(best);
        }
        for path in candidates {
            match self.load(&path) {
                Ok(state) => {
                    recovery.state = Some(state);
                    recovery.path = Some(path);
                    break;
                }
                Err(err) => recovery.skipped.push((path, err.to_string())),
            }
        }
        Ok(recovery)
    }

    /// Like [`CheckpointStore::recover`], additionally reporting progress
    /// on `obs`: one [`SearchEvent::CheckpointCorruptSkipped`] per rejected
    /// file and a [`SearchEvent::CheckpointRestored`] for the state loaded.
    ///
    /// # Errors
    ///
    /// Same as [`CheckpointStore::recover`].
    pub fn recover_observed(&self, obs: &dyn SearchObserver) -> Result<Recovery, CheckpointError> {
        let recovery = self.recover()?;
        recovery.replay(obs);
        Ok(recovery)
    }
}

fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One run's write-behind checkpoint writer: a thread that commits the
/// records the engine prepares, one at a time.
///
/// At most one write is in flight. [`WriteBehind::submit`] first waits
/// for the previous one, so a failed write surfaces at the next boundary
/// at the latest, and [`WriteBehind::wait`] collects the last one.
/// Dropping the writer waits for the in-flight write and joins the
/// thread, so no write outlives the run that prepared it — a requeued
/// job's next incarnation writes into the same directory.
#[derive(Debug)]
pub(crate) struct WriteBehind {
    store: CheckpointStore,
    records: Option<mpsc::Sender<PreparedWrite>>,
    landed: mpsc::Receiver<Result<(), CheckpointError>>,
    in_flight: bool,
    thread: Option<JoinHandle<()>>,
}

impl WriteBehind {
    /// Starts the writer thread for `store`.
    pub(crate) fn spawn(store: &CheckpointStore) -> Result<WriteBehind, CheckpointError> {
        let (records, queue) = mpsc::channel::<PreparedWrite>();
        let (report, landed) = mpsc::channel();
        let committer = store.clone();
        let thread = std::thread::Builder::new().name("ckpt-writer".into()).spawn(move || {
            for prepared in queue {
                if report.send(committer.commit(prepared)).is_err() {
                    break;
                }
            }
        })?;
        Ok(WriteBehind {
            store: store.clone(),
            records: Some(records),
            landed,
            in_flight: false,
            thread: Some(thread),
        })
    }

    /// Waits for the previous write, then prepares `state` on this
    /// thread and hands it to the writer. The receipt names the file the
    /// record becomes once it lands; its `write_nanos` is this call's
    /// time (the wait plus encoding), not the write's.
    ///
    /// # Errors
    ///
    /// The previous write's failure, or a writer thread that is gone.
    pub(crate) fn submit(
        &mut self,
        state: &SearchState,
        pin_best: bool,
    ) -> Result<WriteReceipt, CheckpointError> {
        let started = Instant::now();
        self.wait()?;
        let prepared = self.store.prepare(state, pin_best);
        let (path, bytes) = (prepared.path.clone(), prepared.record.len() as u64);
        self.records
            .as_ref()
            .and_then(|records| records.send(prepared).ok())
            .ok_or_else(writer_gone)?;
        self.in_flight = true;
        Ok(WriteReceipt { path, bytes, write_nanos: nanos_since(started) })
    }

    /// Blocks until the in-flight write, if any, has landed.
    ///
    /// # Errors
    ///
    /// That write's failure, or a writer thread that is gone.
    pub(crate) fn wait(&mut self) -> Result<(), CheckpointError> {
        if !std::mem::take(&mut self.in_flight) {
            return Ok(());
        }
        self.landed.recv().unwrap_or_else(|_| Err(writer_gone()))
    }
}

impl Drop for WriteBehind {
    fn drop(&mut self) {
        // Closing the queue ends the thread's loop once the in-flight
        // write, if any, has run.
        self.records = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn writer_gone() -> CheckpointError {
    CheckpointError::Io(std::io::Error::other("checkpoint writer thread exited"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> SearchState {
        SearchState {
            seed: 42,
            run_label: "guided".into(),
            settings: GaSettings { population: 4, generations: 10, ..GaSettings::default() },
            generation: 3,
            rng: [1, 2, 3, 4],
            population: vec![Genome::from_genes(vec![0, 1, 2]), Genome::from_genes(vec![3, 4, 5])],
            history: vec![
                GenStats {
                    generation: 0,
                    distinct_evals: 4,
                    best_value: 9.0,
                    mean_value: 12.0,
                    best_so_far: 9.0,
                },
                GenStats {
                    generation: 1,
                    distinct_evals: 6,
                    best_value: f64::NAN,
                    mean_value: f64::NAN,
                    best_so_far: 9.0,
                },
            ],
            best_genome: Some(Genome::from_genes(vec![0, 1, 2])),
            best_value: 9.0,
            init_attempts: 7,
            cache: CacheSnapshot {
                entries: vec![
                    (Genome::from_genes(vec![0, 1, 2]), Some(9.0)),
                    (Genome::from_genes(vec![9, 9, 9]), None),
                ],
                quarantined: vec![Genome::from_genes(vec![9, 9, 9])],
                hits: 11,
                feasible_misses: 5,
                infeasible_misses: 2,
            },
            faults: FaultStats {
                evals_failed: 1,
                retries: 2,
                retries_recovered: 0,
                quarantined: 1,
                failed_attempts: [1, 0, 0, 2],
            },
            aux: vec![("obs.report".into(), vec![1, 2, 3]), ("synth.jobs".into(), vec![])],
        }
    }

    fn states_equal(a: &SearchState, b: &SearchState) -> bool {
        // PartialEq on SearchState is false for NaN history entries;
        // compare via the encoded bytes, which are canonical.
        a.encode() == b.encode()
    }

    #[test]
    fn encode_decode_round_trips_including_nan() {
        let state = sample_state();
        let record = state.encode();
        let decoded = SearchState::decode(&record).expect("round trip");
        assert!(states_equal(&state, &decoded));
        assert!(decoded.history[1].best_value.is_nan(), "NaN must survive");
        assert_eq!(decoded.aux_blob("obs.report"), Some(&[1u8, 2, 3][..]));
        assert_eq!(decoded.aux_blob("synth.jobs"), Some(&[][..]));
        assert_eq!(decoded.aux_blob("missing"), None);
    }

    #[test]
    fn golden_checkpoint_bytes_are_stable() {
        // A committed fixture: the next build must read the checkpoints
        // this one wrote, so a change here needs a SCHEMA_VERSION bump and
        // a migration. The CRC covers every earlier byte, so the header
        // and trailer pin the whole record.
        let record = sample_state().encode();
        assert_eq!(record.len(), 528);
        assert_eq!(&record[..8], b"NAUTCKPT");
        assert_eq!(&record[8..12], &1u32.to_le_bytes());
        assert_eq!(&record[12..20], &504u64.to_le_bytes());
        assert_eq!(&record[524..], &0xC664_3E8Eu32.to_le_bytes());
    }

    #[test]
    fn every_prefix_truncation_is_detected() {
        let record = sample_state().encode();
        for cut in 0..record.len() {
            assert!(
                matches!(SearchState::decode(&record[..cut]), Err(CheckpointError::Truncated)),
                "truncation at {cut}/{} not reported as truncated",
                record.len()
            );
        }
        // A record of the wrong length is truncated whichever way it is
        // wrong: a trailing byte, or a length prefix no record can have.
        let mut long = record.clone();
        long.push(0);
        assert!(matches!(SearchState::decode(&long), Err(CheckpointError::Truncated)));
        let mut huge = record;
        huge[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(SearchState::decode(&huge), Err(CheckpointError::Truncated)));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Deterministic sweep: flipping any one bit anywhere in the record
        // must fail validation (magic / version / length / CRC), never decode
        // to a different state. The property variant in tests/proptests.rs
        // sweeps generated states the same way.
        let record = sample_state().encode();
        for byte in 0..record.len() {
            for bit in 0..8 {
                let mut corrupt = record.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    SearchState::decode(&corrupt).is_err(),
                    "bit {bit} of byte {byte}/{} flipped without detection",
                    record.len()
                );
            }
        }
    }

    #[test]
    fn bad_magic_and_bad_version_are_rejected() {
        let mut record = sample_state().encode();
        record[0] ^= 0xFF;
        assert!(matches!(SearchState::decode(&record), Err(CheckpointError::BadMagic)));
        let mut record = sample_state().encode();
        record[8] = 0xFF; // schema version byte
        assert!(matches!(
            SearchState::decode(&record),
            Err(CheckpointError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn store_writes_loads_and_applies_retention() {
        let dir = tempdir("store-retention");
        let store = CheckpointStore::create(&dir).unwrap().with_keep_last(2);
        let mut state = sample_state();
        for generation in 1..=5 {
            state.generation = generation;
            let receipt = store.write(&state, generation == 3).unwrap();
            assert!(receipt.path.exists());
            assert_eq!(receipt.bytes, state.encode().len() as u64);
        }
        let files = store.checkpoint_files().unwrap();
        let gens: Vec<u32> = files.iter().map(|&(_, generation)| generation).collect();
        assert_eq!(gens, vec![4, 5], "keep-last-2 retention");
        assert!(store.dir().join("best.nckpt").exists(), "pinned best survives retention");
        let best = store.load(&store.dir().join("best.nckpt")).unwrap();
        assert_eq!(best.generation, 3);
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.state.unwrap().generation, 5);
        assert!(recovered.skipped.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_skips_corrupt_newest_and_cleans_tmp_files() {
        let dir = tempdir("store-recovery");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut state = sample_state();
        state.generation = 1;
        store.write(&state, false).unwrap();
        state.generation = 2;
        store.write(&state, false).unwrap();
        // Corrupt the newest file's body and strand a fake tmp write.
        let newest = store.dir().join("ckpt-00000002.nckpt");
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();
        let stray = store.dir().join(".ckpt-00000003.nckpt.tmp");
        std::fs::write(&stray, b"partial").unwrap();

        let recovery = store.recover().unwrap();
        assert_eq!(recovery.state.as_ref().unwrap().generation, 1, "fell back past corruption");
        assert_eq!(recovery.skipped.len(), 1);
        assert!(recovery.skipped[0].1.contains("checksum"), "{:?}", recovery.skipped);
        assert!(!stray.exists(), "stray tmp cleaned");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_cleans_up_tmp_and_preserves_store() {
        let dir = tempdir("store-blocked-write");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut state = sample_state();
        state.generation = 1;
        store.write(&state, false).unwrap();

        // Block the next generation's final path with a non-empty directory:
        // `fs::rename` over it fails on every platform, even as root (where
        // permission bits alone would not stop a write).
        let blocked = store.dir().join("ckpt-00000002.nckpt");
        std::fs::create_dir(&blocked).unwrap();
        std::fs::write(blocked.join("occupied"), b"x").unwrap();

        state.generation = 2;
        let err = store.write(&state, false).expect_err("blocked rename must surface");
        assert!(matches!(err, CheckpointError::Io(_)), "unexpected error: {err}");
        // No half-written temporary may survive the failure...
        assert!(
            !store.dir().join(".ckpt-00000002.nckpt.tmp").exists(),
            "failed write left a stray .tmp behind"
        );
        // ...and the checkpoints that already existed stay fully readable.
        std::fs::remove_file(blocked.join("occupied")).unwrap();
        std::fs::remove_dir(&blocked).unwrap();
        let recovery = store.recover().unwrap();
        let recovered = recovery.state.expect("earlier checkpoint intact");
        assert_eq!(recovered.generation, 1);
        state.generation = 1;
        assert!(states_equal(&recovered, &state));
        assert!(recovery.skipped.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_faults_surface_typed_and_leave_the_store_recoverable() {
        use crate::durable::{DurableIo, IoFaultKind, IoFaultPlan};
        for (i, kind) in IoFaultKind::ALL.into_iter().enumerate() {
            let dir = tempdir(&format!("store-injected-{i}"));
            let io = DurableIo::with_plan(IoFaultPlan::new().fail_at(1, kind));
            let store = CheckpointStore::create(&dir).unwrap().with_io(io.clone());
            let mut state = sample_state();
            state.generation = 1;
            store.write(&state, false).unwrap(); // write point 0: clean

            state.generation = 2;
            let err = store.write(&state, false).expect_err("injected fault must surface");
            assert!(matches!(err, CheckpointError::Io(_)), "unexpected error: {err}");
            assert!(err.to_string().contains(kind.label()), "{err}");
            assert_eq!(io.injected_faults(), 1);

            // Whatever the fault broke, recovery lands on an intact state:
            // generation 1 for data-path faults, generation 2 when only
            // the directory-entry fsync failed (the rename itself landed).
            let recovery = store.recover().unwrap();
            let recovered = recovery.state.expect("store recoverable after fault");
            match kind {
                IoFaultKind::DirSyncFail => assert_eq!(recovered.generation, 2),
                _ => assert_eq!(recovered.generation, 1),
            }
            assert!(recovery.skipped.is_empty(), "no corrupt record: {:?}", recovery.skipped);
            // The recovery scan swept any torn-write residue.
            assert!(
                !store.dir().join(".ckpt-00000002.nckpt.tmp").exists(),
                "{kind:?} residue survived recovery"
            );
            // And the store keeps working with the plan spent.
            state.generation = 3;
            store.write(&state, false).unwrap();
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn failed_tmp_create_is_a_clean_error() {
        let dir = tempdir("store-blocked-tmp");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut state = sample_state();
        state.generation = 1;
        store.write(&state, false).unwrap();

        // Occupy the dot-tmp path itself so `File::create` fails before any
        // bytes are staged.
        let tmp = store.dir().join(".ckpt-00000002.nckpt.tmp");
        std::fs::create_dir(&tmp).unwrap();

        state.generation = 2;
        let err = store.write(&state, false).expect_err("blocked tmp create must surface");
        assert!(matches!(err, CheckpointError::Io(_)), "unexpected error: {err}");
        std::fs::remove_dir(&tmp).unwrap();
        let recovery = store.recover().unwrap();
        assert_eq!(recovery.state.expect("earlier checkpoint intact").generation, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_only_directory_fails_cleanly_without_corrupting_store() {
        use std::os::unix::fs::PermissionsExt;
        let dir = tempdir("store-readonly");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut state = sample_state();
        state.generation = 1;
        store.write(&state, false).unwrap();

        let mut perms = std::fs::metadata(&dir).unwrap().permissions();
        perms.set_mode(0o555);
        std::fs::set_permissions(&dir, perms).unwrap();
        // Root ignores permission bits; probe before asserting anything.
        let probe = dir.join(".perm-probe");
        if std::fs::write(&probe, b"x").is_ok() {
            std::fs::remove_file(&probe).ok();
        } else {
            state.generation = 2;
            let err = store.write(&state, false).expect_err("read-only dir must surface");
            assert!(matches!(err, CheckpointError::Io(_)), "unexpected error: {err}");
            assert!(!store.dir().join(".ckpt-00000002.nckpt.tmp").exists());
        }
        let mut perms = std::fs::metadata(&dir).unwrap().permissions();
        perms.set_mode(0o755);
        std::fs::set_permissions(&dir, perms).unwrap();
        let recovery = store.recover().unwrap();
        assert_eq!(recovery.state.expect("earlier checkpoint intact").generation, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_directory_recovers_to_nothing() {
        let dir = tempdir("store-empty");
        let store = CheckpointStore::create(&dir).unwrap();
        let recovery = store.recover().unwrap();
        assert!(recovery.state.is_none());
        assert!(recovery.skipped.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("nautilus-ckpt-{tag}-{pid}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
