//! Deterministic I/O fault injection for every durable write point.
//!
//! All of Nautilus' crash-recovery guarantees (checkpoints, job specs,
//! result records, event logs, cancel markers, the daemon endpoint file)
//! rest on a single discipline: write to a dot-prefixed temporary, fsync
//! it, rename it over the final name, fsync the directory entry. This
//! module owns that discipline behind a [`DurableIo`] handle so that a
//! test harness can make any individual step fail — deterministically,
//! by write-point index — and prove the system either surfaces a typed
//! error or recovers byte-identically in its next incarnation.
//!
//! Design points:
//!
//! * **Zero-cost when uninjected.** The default handle holds no state at
//!   all (`inner: None`); every operation is a direct call into `std::fs`
//!   with one branch on an `Option`.
//! * **Deterministic indices.** Each logical durable operation (one
//!   atomic write, one log append, one explicit sync, one file create)
//!   consumes exactly one index from a shared counter. With a single
//!   writer the sequence is reproducible run-over-run, which is what lets
//!   the fault battery enumerate write points from a census run and then
//!   replay the same workload failing each point in turn. An atomic write
//!   may take its index now and run later on another thread
//!   (`DurableIo::reserve`), so moving the I/O off a thread never moves
//!   the index.
//! * **Site labels.** Callers tag every operation with a stable site
//!   string (`ckpt.gen`, `job.spec`, `job.events`, ...) so a census can
//!   group indices by what the write protects, and injected errors name
//!   the site they hit.
//!
//! Faults model the hostile environments of DESIGN §5k: `ENOSPC` on
//! write, fsync failure, rename failure, a torn (short) write that leaves
//! a partial temporary behind — exactly what a crash mid-write leaves —
//! and directory-fsync failure.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::rng::splitmix64;

/// Which step of a durable operation an injected fault breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The data write itself fails as if the disk were full.
    WriteEnospc,
    /// The file-content `fsync` fails after a successful write.
    SyncFail,
    /// The rename of the temporary over the final name fails.
    RenameFail,
    /// Only a prefix of the bytes reaches the file, then the operation
    /// errors — the on-disk shape of a crash mid-write. The partial
    /// temporary is deliberately left behind for recovery to clean.
    Torn,
    /// The directory-entry `fsync` after a successful rename fails.
    DirSyncFail,
}

impl IoFaultKind {
    /// All kinds, in a stable order (used to cycle kinds across sites).
    pub const ALL: [IoFaultKind; 5] = [
        IoFaultKind::WriteEnospc,
        IoFaultKind::SyncFail,
        IoFaultKind::RenameFail,
        IoFaultKind::Torn,
        IoFaultKind::DirSyncFail,
    ];

    /// Stable lowercase label, used in error messages and telemetry.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            IoFaultKind::WriteEnospc => "enospc",
            IoFaultKind::SyncFail => "sync_fail",
            IoFaultKind::RenameFail => "rename_fail",
            IoFaultKind::Torn => "torn_write",
            IoFaultKind::DirSyncFail => "dir_sync_fail",
        }
    }
}

/// A deterministic schedule of injected faults, keyed by write-point
/// index.
#[derive(Debug, Clone, Default)]
pub struct IoFaultPlan {
    explicit: BTreeMap<u64, IoFaultKind>,
    storm: Option<(u64, u64)>, // (seed, period)
}

impl IoFaultPlan {
    /// An empty plan: no faults.
    #[must_use]
    pub fn new() -> IoFaultPlan {
        IoFaultPlan::default()
    }

    /// Fails the durable operation at write-point `index` with `kind`.
    #[must_use]
    pub fn fail_at(mut self, index: u64, kind: IoFaultKind) -> IoFaultPlan {
        self.explicit.insert(index, kind);
        self
    }

    /// A seeded storm: roughly one in `period` operations fails, with
    /// the fault kind drawn deterministically from the same hash. The
    /// schedule is a pure function of `(seed, index)`, so two runs over
    /// the same write sequence see identical faults.
    #[must_use]
    pub fn storm(mut self, seed: u64, period: u64) -> IoFaultPlan {
        self.storm = Some((seed, period.max(1)));
        self
    }

    /// The fault planned for `index`, if any. Explicit entries win over
    /// the storm schedule.
    #[must_use]
    pub fn fault_at(&self, index: u64) -> Option<IoFaultKind> {
        if let Some(kind) = self.explicit.get(&index) {
            return Some(*kind);
        }
        let (seed, period) = self.storm?;
        let h = splitmix64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if h.is_multiple_of(period) {
            let pick = (h >> 32) as usize % IoFaultKind::ALL.len();
            Some(IoFaultKind::ALL[pick])
        } else {
            None
        }
    }

    /// True when the plan can never fire.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.explicit.is_empty() && self.storm.is_none()
    }
}

/// Extracts the injected-fault label (`enospc`, `sync_fail`, ...) from an
/// error message produced by this module, or `"io"` for a genuine OS
/// error. Telemetry uses this so event payloads stay deterministic —
/// never raw OS error text.
#[must_use]
pub fn fault_label(message: &str) -> &'static str {
    IoFaultKind::ALL
        .iter()
        .find(|k| message.contains(&format!("injected {} at", k.label())))
        .map_or("io", |k| k.label())
}

/// One durable operation observed by a census handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritePoint {
    /// The operation's index in the shared counter sequence.
    pub index: u64,
    /// The caller-supplied site label (`ckpt.gen`, `job.spec`, ...).
    pub site: String,
}

#[derive(Debug)]
struct IoState {
    counter: AtomicU64,
    plan: IoFaultPlan,
    injected: AtomicU64,
    census: Option<Mutex<Vec<WritePoint>>>,
}

/// A handle over the durable-write discipline: real filesystem by
/// default, deterministic fault injection when armed with a plan,
/// write-point recording when opened in census mode.
///
/// Clones share the same counter, plan, and census, so one handle can be
/// threaded through every layer of a process (checkpoint store, job
/// dirs, event logs, endpoint file) and observe a single global
/// write-point sequence.
#[derive(Debug, Clone, Default)]
pub struct DurableIo {
    inner: Option<Arc<IoState>>,
}

impl DurableIo {
    /// The pass-through handle: plain `std::fs`, no counting, no faults.
    #[must_use]
    pub fn real() -> DurableIo {
        DurableIo { inner: None }
    }

    /// A handle armed with `plan`; operations consume indices and fail
    /// where the plan says so.
    #[must_use]
    pub fn with_plan(plan: IoFaultPlan) -> DurableIo {
        DurableIo {
            inner: Some(Arc::new(IoState {
                counter: AtomicU64::new(0),
                plan,
                injected: AtomicU64::new(0),
                census: None,
            })),
        }
    }

    /// A recording handle: no faults, but every operation's index and
    /// site label is captured for [`DurableIo::write_points`].
    #[must_use]
    pub fn census() -> DurableIo {
        DurableIo {
            inner: Some(Arc::new(IoState {
                counter: AtomicU64::new(0),
                plan: IoFaultPlan::new(),
                injected: AtomicU64::new(0),
                census: Some(Mutex::new(Vec::new())),
            })),
        }
    }

    /// True when this handle counts write points (census or plan).
    #[must_use]
    pub fn is_instrumented(&self) -> bool {
        self.inner.is_some()
    }

    /// How many faults this handle has injected so far.
    #[must_use]
    pub fn injected_faults(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.injected.load(Ordering::Relaxed))
    }

    /// The write points recorded so far (census handles only).
    #[must_use]
    pub fn write_points(&self) -> Vec<WritePoint> {
        self.inner
            .as_ref()
            .and_then(|s| s.census.as_ref())
            .map_or_else(Vec::new, |c| c.lock().expect("census poisoned").clone())
    }

    /// Consumes the next write-point index for `site` and returns the
    /// fault planned there, if any.
    fn next(&self, site: &str) -> Option<(u64, IoFaultKind)> {
        let state = self.inner.as_ref()?;
        let index = state.counter.fetch_add(1, Ordering::Relaxed);
        if let Some(census) = &state.census {
            census
                .lock()
                .expect("census poisoned")
                .push(WritePoint { index, site: site.to_string() });
        }
        let kind = state.plan.fault_at(index)?;
        state.injected.fetch_add(1, Ordering::Relaxed);
        Some((index, kind))
    }

    fn fault(site: &str, index: u64, kind: IoFaultKind) -> io::Error {
        io::Error::other(format!("injected {} at {site}[{index}]", kind.label()))
    }

    /// The full atomic-replace discipline for `dir/final_name`: write
    /// `bytes` to a dot-prefixed temporary, fsync, rename over the final
    /// name, fsync the directory entry. Consumes one write point.
    ///
    /// On failure the temporary is removed — except for an injected torn
    /// write, which deliberately leaves its partial temporary behind, the
    /// way a real crash would, so recovery scans can prove they clean it.
    ///
    /// # Errors
    ///
    /// Any real filesystem error, or the injected fault planned for this
    /// write point. Directory-fsync failures are surfaced, not swallowed:
    /// until the directory entry is durable the rename itself may not
    /// survive a power cut, so callers must treat the write as failed.
    pub fn write_atomic(
        &self,
        dir: &Path,
        final_name: &str,
        bytes: &[u8],
        site: &str,
    ) -> io::Result<()> {
        Self::replace(dir, final_name, bytes, site, self.next(site))
    }

    /// Takes the next write point for an atomic write at `site` now —
    /// its index, its census entry and any fault the plan holds for it —
    /// and leaves the I/O for [`ReservedWrite::write_atomic`], which may
    /// run later and on another thread.
    pub(crate) fn reserve(&self, site: &str) -> ReservedWrite {
        ReservedWrite { site: site.to_owned(), injected: self.next(site) }
    }

    /// [`DurableIo::write_atomic`] at a write point already taken, with
    /// the fault planned there (if any).
    fn replace(
        dir: &Path,
        final_name: &str,
        bytes: &[u8],
        site: &str,
        injected: Option<(u64, IoFaultKind)>,
    ) -> io::Result<()> {
        let tmp_path = dir.join(format!(".{final_name}.tmp"));
        let final_path = dir.join(final_name);
        let attempt = (|| -> io::Result<()> {
            let mut tmp = fs::File::create(&tmp_path)?;
            if let Some((index, kind)) = injected {
                match kind {
                    IoFaultKind::WriteEnospc => return Err(Self::fault(site, index, kind)),
                    IoFaultKind::Torn => {
                        tmp.write_all(&bytes[..bytes.len() / 2])?;
                        let _ = tmp.sync_all();
                        return Err(Self::fault(site, index, kind));
                    }
                    IoFaultKind::SyncFail => {
                        tmp.write_all(bytes)?;
                        return Err(Self::fault(site, index, kind));
                    }
                    IoFaultKind::RenameFail => {
                        tmp.write_all(bytes)?;
                        tmp.sync_all()?;
                        return Err(Self::fault(site, index, kind));
                    }
                    IoFaultKind::DirSyncFail => {}
                }
            }
            tmp.write_all(bytes)?;
            tmp.sync_all()?;
            drop(tmp);
            fs::rename(&tmp_path, &final_path)?;
            if let Some((index, kind @ IoFaultKind::DirSyncFail)) = injected {
                return Err(Self::fault(site, index, kind));
            }
            // Make the rename itself durable: fsync the directory entry.
            fs::File::open(dir).and_then(|d| d.sync_all())?;
            Ok(())
        })();
        if let Err(e) = attempt {
            // A torn write *is* the crash shape: leave the partial
            // temporary for the recovery scan. Everything else cleans up
            // so repeated failures cannot litter the directory.
            if !matches!(injected, Some((_, IoFaultKind::Torn))) {
                let _ = fs::remove_file(&tmp_path);
            }
            return Err(e);
        }
        Ok(())
    }

    /// Creates (truncating) a plain file, e.g. an append-only log.
    /// Consumes one write point; `WriteEnospc` is the only kind that can
    /// fire here (creation is a data write against a full disk).
    ///
    /// # Errors
    ///
    /// Any real filesystem error, or the injected fault for this point.
    pub fn create(&self, path: &Path, site: &str) -> io::Result<fs::File> {
        if let Some((index, kind)) = self.next(site) {
            if matches!(kind, IoFaultKind::WriteEnospc) {
                return Err(Self::fault(site, index, kind));
            }
        }
        fs::File::create(path)
    }

    /// Appends `bytes` to an open log file. Consumes one write point.
    /// `WriteEnospc` fails before any byte lands; `Torn` lands a prefix
    /// and then fails — the shape of a crash mid-append.
    ///
    /// # Errors
    ///
    /// Any real filesystem error, or the injected fault for this point.
    pub fn append(&self, file: &mut fs::File, bytes: &[u8], site: &str) -> io::Result<()> {
        if let Some((index, kind)) = self.next(site) {
            match kind {
                IoFaultKind::WriteEnospc => return Err(Self::fault(site, index, kind)),
                IoFaultKind::Torn => {
                    file.write_all(&bytes[..bytes.len() / 2])?;
                    return Err(Self::fault(site, index, kind));
                }
                _ => {}
            }
        }
        file.write_all(bytes)
    }

    /// Fsyncs an open file. Consumes one write point; `SyncFail` and
    /// `DirSyncFail` both fire here (an explicit sync is an explicit
    /// sync, whatever it protects).
    ///
    /// # Errors
    ///
    /// Any real filesystem error, or the injected fault for this point.
    pub fn sync(&self, file: &fs::File, site: &str) -> io::Result<()> {
        if let Some((index, kind)) = self.next(site) {
            if matches!(kind, IoFaultKind::SyncFail | IoFaultKind::DirSyncFail) {
                return Err(Self::fault(site, index, kind));
            }
        }
        file.sync_all()
    }

    /// Removes stray dot-prefixed `.tmp` files under `dir` — the residue
    /// of interrupted or torn atomic writes. Returns the paths removed.
    /// Never touches finished files; ignores unreadable entries.
    #[must_use]
    pub fn clean_stray_tmps(dir: &Path) -> Vec<PathBuf> {
        let mut removed = Vec::new();
        let Ok(entries) = fs::read_dir(dir) else { return removed };
        for entry in entries.flatten() {
            let path = entry.path();
            let is_tmp = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with('.') && n.ends_with(".tmp"));
            if is_tmp && fs::remove_file(&path).is_ok() {
                removed.push(path);
            }
        }
        removed
    }
}

/// A write point taken by [`DurableIo::reserve`] and not yet written.
#[derive(Debug)]
#[must_use = "a reserved write point writes nothing until `write_atomic` runs"]
pub(crate) struct ReservedWrite {
    site: String,
    injected: Option<(u64, IoFaultKind)>,
}

impl ReservedWrite {
    /// [`DurableIo::write_atomic`] at this write point.
    pub(crate) fn write_atomic(self, dir: &Path, final_name: &str, bytes: &[u8]) -> io::Result<()> {
        DurableIo::replace(dir, final_name, bytes, &self.site, self.injected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nautilus-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_handle_is_pass_through_and_counts_nothing() {
        let dir = tempdir("real");
        let io = DurableIo::real();
        assert!(!io.is_instrumented());
        io.write_atomic(&dir, "a.bin", b"hello", "t.site").unwrap();
        assert_eq!(fs::read(dir.join("a.bin")).unwrap(), b"hello");
        assert_eq!(io.injected_faults(), 0);
        assert!(io.write_points().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn census_records_every_operation_in_order() {
        let dir = tempdir("census");
        let io = DurableIo::census();
        io.write_atomic(&dir, "a.bin", b"one", "site.a").unwrap();
        let mut log = io.create(&dir.join("log"), "site.log").unwrap();
        io.append(&mut log, b"line\n", "site.log").unwrap();
        io.sync(&log, "site.log").unwrap();
        let points = io.write_points();
        let sites: Vec<&str> = points.iter().map(|p| p.site.as_str()).collect();
        assert_eq!(sites, ["site.a", "site.log", "site.log", "site.log"]);
        assert_eq!(points[0].index, 0);
        assert_eq!(points[3].index, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_fault_kind_fires_at_its_planned_index() {
        for (i, kind) in IoFaultKind::ALL.into_iter().enumerate() {
            let dir = tempdir(&format!("kind-{i}"));
            let io = DurableIo::with_plan(IoFaultPlan::new().fail_at(0, kind));
            let err = io.write_atomic(&dir, "x.bin", b"0123456789", "t").unwrap_err();
            assert!(err.to_string().contains(kind.label()), "{err}");
            assert_eq!(io.injected_faults(), 1);
            match kind {
                IoFaultKind::Torn => {
                    // Torn writes leave the crash residue behind...
                    let tmp = dir.join(".x.bin.tmp");
                    assert_eq!(fs::read(&tmp).unwrap(), b"01234");
                    // ...and the recovery sweep removes it.
                    assert_eq!(DurableIo::clean_stray_tmps(&dir), vec![tmp.clone()]);
                    assert!(!tmp.exists());
                }
                IoFaultKind::DirSyncFail => {
                    // The rename happened; the entry just isn't durable.
                    assert!(dir.join("x.bin").exists());
                    assert!(!dir.join(".x.bin.tmp").exists());
                }
                _ => {
                    assert!(!dir.join("x.bin").exists());
                    assert!(!dir.join(".x.bin.tmp").exists(), "{kind:?} left a tmp");
                }
            }
            // The fault is one-shot: the next write point succeeds.
            io.write_atomic(&dir, "x.bin", b"0123456789", "t").unwrap();
            assert_eq!(fs::read(dir.join("x.bin")).unwrap(), b"0123456789");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_append_lands_a_prefix_then_fails() {
        let dir = tempdir("torn-append");
        let io = DurableIo::with_plan(IoFaultPlan::new().fail_at(1, IoFaultKind::Torn));
        let mut log = io.create(&dir.join("log"), "t").unwrap();
        let err = io.append(&mut log, b"abcdefgh", "t").unwrap_err();
        assert!(err.to_string().contains("torn_write"), "{err}");
        assert_eq!(fs::read(dir.join("log")).unwrap(), b"abcd");
        // Subsequent appends keep working: the log is torn, not dead.
        io.append(&mut log, b"-rest", "t").unwrap();
        assert_eq!(fs::read(dir.join("log")).unwrap(), b"abcd-rest");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn storm_schedule_is_deterministic_and_seed_sensitive() {
        let plan_a = IoFaultPlan::new().storm(7, 3);
        let plan_b = IoFaultPlan::new().storm(7, 3);
        let plan_c = IoFaultPlan::new().storm(8, 3);
        let fire_a: Vec<_> = (0..256).filter_map(|i| plan_a.fault_at(i)).collect();
        let fire_b: Vec<_> = (0..256).filter_map(|i| plan_b.fault_at(i)).collect();
        assert_eq!(fire_a, fire_b);
        assert!(!fire_a.is_empty(), "a period-3 storm over 256 points must fire");
        let hits_a: Vec<u64> = (0..256).filter(|i| plan_a.fault_at(*i).is_some()).collect();
        let hits_c: Vec<u64> = (0..256).filter(|i| plan_c.fault_at(*i).is_some()).collect();
        assert_ne!(hits_a, hits_c, "different seeds should fire at different points");
    }

    #[test]
    fn explicit_entries_override_the_storm() {
        let plan = IoFaultPlan::new().storm(1, 2).fail_at(4, IoFaultKind::RenameFail);
        assert_eq!(plan.fault_at(4), Some(IoFaultKind::RenameFail));
    }

    #[test]
    fn a_reserved_write_keeps_its_index_and_fault_when_run_elsewhere() {
        let dir = tempdir("reserve");
        let io = DurableIo::with_plan(IoFaultPlan::new().fail_at(0, IoFaultKind::RenameFail));
        let census = DurableIo::census();
        let (faulted, clean) = (io.reserve("s.late"), census.reserve("s.late"));
        // Later operations take later indices, whenever the reserved
        // writes actually run.
        census.write_atomic(&dir, "b", b"y", "s.now").unwrap();
        let faulted_dir = dir.clone();
        let err = std::thread::spawn(move || faulted.write_atomic(&faulted_dir, "a", b"x"))
            .join()
            .unwrap()
            .unwrap_err();
        assert!(err.to_string().contains("injected rename_fail at s.late[0]"), "{err}");
        assert!(!dir.join("a").exists());
        clean.write_atomic(&dir, "a", b"x").unwrap();
        assert_eq!(fs::read(dir.join("a")).unwrap(), b"x");
        let sites: Vec<(u64, String)> =
            census.write_points().into_iter().map(|p| (p.index, p.site)).collect();
        assert_eq!(sites, [(0, "s.late".to_owned()), (1, "s.now".to_owned())]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_counter_spans_clones() {
        let dir = tempdir("clones");
        let io = DurableIo::census();
        let io2 = io.clone();
        io.write_atomic(&dir, "a", b"x", "s1").unwrap();
        io2.write_atomic(&dir, "b", b"y", "s2").unwrap();
        let points = io.write_points();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1], WritePoint { index: 1, site: "s2".into() });
        let _ = fs::remove_dir_all(&dir);
    }
}
