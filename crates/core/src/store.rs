//! Content-addressed result store: the one record log. Matrix runs
//! resumed with `figures --resume`, soak runs and the daemon all keep
//! their cell results in a [`Store`].
//!
//! A [`Store`] is a *directory* of append-only JSONL segments. Every
//! writer — a thread holding its own `Store` handle, or a whole separate
//! process — owns a private segment created with `O_EXCL`
//! (`create_new`) on its first appending [`Store::put`], so concurrent
//! writers can never interleave bytes no matter how they are scheduled
//! or killed, and a handle that only reads creates no file at all.
//! Reads merge every segment in the directory through one
//! first-write-wins / conflict-quarantine index, so the merged view of N
//! concurrent writers is bit-identical to a serial run (and any true
//! fingerprint conflict is detected and refused, never arbitrated).
//!
//! # Layout
//!
//! ```text
//! store/
//!   seg-00012345-0000.jsonl   # one segment per writer (pid + counter)
//!   seg-00012345-0001.jsonl
//!   seg-00098765-0000.jsonl   # another process
//!   compact.lock              # present only while a compaction runs
//!   tmp-compact-00012345      # compaction scratch; never read as a segment
//!   quarantine/               # written only by `hyperpredc fsck --repair`
//! ```
//!
//! Each segment holds [record lines](crate::journal) (meta line first,
//! one checksummed `cell` record per line), and every reader — loading,
//! [`Store::compact`] and `fsck` — classifies them with the one
//! `parse_cell_line`: a torn trailing line is expected damage,
//! mid-file garbage or a checksum-failing line is counted as corruption
//! and never served. An old single-file run journal loads unchanged as
//! a segment (`seg-0.jsonl`).
//!
//! # Durability
//!
//! All file I/O flows through an injectable [`Vfs`], which is how the
//! crash-point sweeps in `crates/core/tests/crash.rs` prove the claims
//! below. Appends are flushed on every [`Store::put`] and fsynced per
//! the configured [`SyncPolicy`]; [`Store::sync`] forces an fsync (the
//! daemon calls it on drain, and compaction always fsyncs both the
//! compacted file and the directory). Against `kill -9` every `put`
//! that returned `Ok` survives; against power loss the survivors are
//! the records covered by the last successful fsync — see the
//! durability table in DESIGN.md §10.
//!
//! # Compaction
//!
//! [`Store::compact`] merges every segment into a single fresh segment,
//! dropping exact-duplicate lines and corrupt lines but *keeping both
//! sides of every conflicted fingerprint* — a conflict is evidence of a
//! fingerprint-scheme bug or a damaged writer and must survive rewrites
//! so a plain re-open still detects it. Compactors serialize on
//! `compact.lock`; a lock left behind by a crashed compactor is detected
//! via pid-liveness and age and stolen instead of wedging forever. The
//! merge is published crash-safely: scratch goes to a `tmp-` name the
//! segment globber never matches, the scratch file is fsynced before the
//! rename, the handle drops its segment writer *before* any old segment
//! is deleted (its next `put` claims a fresh segment), and the directory
//! is fsynced after the rename and after the deletes — at every crash
//! point a reopen serves either the old segments, or the new one, or
//! both (duplicates merge), never a partial state. Compaction snapshots
//! the segment list at start and deletes only those files, so a segment
//! created *by a new writer* mid-compaction survives; an append racing
//! into a snapshotted segment of a *live foreign writer* can be lost,
//! which is why compaction is specified to run only when other writers
//! are quiescent (the daemon compacts from its own maintenance path).

use hyperpred_sim::SimStats;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::journal::{
    cell_line, meta_line, parse_cell_line, CellIndex, JournalConflict, JournalEntry, Line,
    RecordOutcome,
};
use crate::vfs::{Vfs, VfsFile};

/// When segment appends are fsynced. Flushing (userspace → kernel)
/// happens on every [`Store::put`] regardless, so `kill -9` never loses
/// an acked record under any policy; the policy decides what survives
/// power loss / kernel panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never fsync from `put` — only [`Store::sync`] and compaction
    /// make records durable.
    Never,
    /// Fsync once every `n` appended records (`0` behaves like
    /// [`SyncPolicy::Never`]).
    EveryN(u32),
    /// Fsync on every `put` before it returns: `Ok` means durable.
    Always,
}

impl Default for SyncPolicy {
    /// Every 32 appends: bounded power-loss exposure at append speed.
    fn default() -> SyncPolicy {
        SyncPolicy::EveryN(32)
    }
}

/// How long a `compact.lock` may sit before it is considered abandoned
/// even when its recorded pid appears alive (pid recycling, or an
/// unreadable lock file). Real compactions finish in well under this.
pub const DEFAULT_LOCK_STALE_AFTER: Duration = Duration::from_secs(300);

/// Configuration for [`Store::open_with`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// The I/O layer; [`Vfs::real`] outside fault-injection tests.
    pub vfs: Vfs,
    /// Append fsync policy.
    pub sync: SyncPolicy,
    /// Age past which a `compact.lock` is stealable regardless of pid.
    pub lock_stale_after: Duration,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            vfs: Vfs::real(),
            sync: SyncPolicy::default(),
            lock_stale_after: DEFAULT_LOCK_STALE_AFTER,
        }
    }
}

/// What a [`Store::compact`] run did, for logs and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Segments merged (and deleted) by this compaction.
    pub segments_merged: usize,
    /// Cell lines read across all merged segments.
    pub lines_in: usize,
    /// Cell lines written to the compacted segment.
    pub lines_out: usize,
    /// Exact-duplicate cell lines dropped.
    pub duplicates_dropped: usize,
    /// Corrupt (unparseable, non-torn-tail) lines dropped.
    pub corrupt_dropped: usize,
    /// Conflicted fingerprints whose competing lines were all preserved.
    pub conflicts_kept: usize,
}

/// The active segment a `Store` handle appends to.
struct SegmentWriter {
    path: PathBuf,
    file: VfsFile,
    /// Appends since the last successful fsync (drives `EveryN`).
    unsynced: u32,
}

/// A multi-writer content-addressed store of cell results keyed by the
/// journal fingerprint. See the module docs for layout and semantics.
pub struct Store {
    dir: PathBuf,
    cfg: StoreConfig,
    index: Mutex<CellIndex>,
    /// This handle's segment; `None` until the first appending `put`,
    /// and again after a compaction.
    writer: Mutex<Option<SegmentWriter>>,
    corrupt: AtomicUsize,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("cells", &self.len())
            .field("conflicts", &self.conflicts())
            .finish()
    }
}

/// Name of the compaction mutex file inside the store directory.
pub(crate) const COMPACT_LOCK: &str = "compact.lock";

/// Prefix of compaction/fsck scratch files. Never matched by
/// [`is_segment_name`], so a crash can leave one behind without it ever
/// being served; `fsck` removes orphans.
pub(crate) const TMP_PREFIX: &str = "tmp-";

/// True for file names the segment globber serves.
pub(crate) fn is_segment_name(name: &str) -> bool {
    name.starts_with("seg-") && name.ends_with(".jsonl")
}

/// Returns the sorted list of segment files in `dir`. Sorted by file
/// name so every reader merges in the same deterministic order (which
/// fixes the `kept`/`rejected` roles of a conflict).
fn segment_paths(vfs: &Vfs, dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut segs = Vec::new();
    for path in vfs.read_dir_paths(dir)? {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        if is_segment_name(&name) {
            segs.push(path);
        }
    }
    segs.sort();
    Ok(segs)
}

/// Classifies every non-blank line of one segment with
/// [`parse_cell_line`]: the one rule set store loading, compaction and
/// `fsck` share.
pub(crate) fn scan_segment<'c>(content: &'c str, mut on_line: impl FnMut(&'c str, Line)) {
    let mut lines = content.lines().peekable();
    while let Some(line) = lines.next() {
        if !line.trim().is_empty() {
            on_line(line, parse_cell_line(line, lines.peek().is_none()));
        }
    }
}

/// Reads every segment into a fresh index. Returns the rebuilt index and
/// the total corrupt-line count across segments.
fn load_dir(vfs: &Vfs, dir: &Path) -> io::Result<(CellIndex, usize)> {
    let mut index = CellIndex::default();
    let mut corrupt = 0usize;
    for seg in segment_paths(vfs, dir)? {
        let content = match vfs.read_to_string(&seg) {
            Ok(s) => s,
            // A compactor may delete a segment between listing and read.
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        scan_segment(&content, |_, line| match line {
            Line::Cell(fp, stats) => {
                index.insert(&fp, stats);
            }
            Line::Corrupt => corrupt += 1,
            Line::Skip | Line::Torn => {}
        });
    }
    Ok((index, corrupt))
}

/// Creates a brand-new segment file owned exclusively by this writer.
/// `create_new` (`O_EXCL`) makes the claim atomic across processes.
fn create_segment(vfs: &Vfs, dir: &Path) -> io::Result<SegmentWriter> {
    let pid = std::process::id();
    for n in 0u32..10_000 {
        let path = dir.join(format!("seg-{pid:08}-{n:04}.jsonl"));
        match vfs.create_new(&path) {
            Ok(mut file) => {
                file.write_all(meta_line().as_bytes())?;
                file.flush()?;
                return Ok(SegmentWriter {
                    path,
                    file,
                    unsynced: 0,
                });
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    Err(io::Error::other(
        "store: exhausted segment names for this pid",
    ))
}

/// Best-effort pid liveness: `Some(alive)` where the platform exposes
/// `/proc`, `None` where it does not (callers fall back to lock age).
fn pid_alive(pid: u32) -> Option<bool> {
    let proc_dir = Path::new("/proc");
    if proc_dir.is_dir() {
        Some(proc_dir.join(pid.to_string()).is_dir())
    } else {
        None
    }
}

/// True when the `compact.lock` at `path` is abandoned: its recorded
/// owner is provably dead, or the file is older than `stale_after`
/// (which covers pid recycling, an unreadable/torn lock file, and
/// platforms without `/proc`). A live foreign pid with a fresh lock is
/// an active compaction and is respected.
pub(crate) fn lock_is_stale(vfs: &Vfs, path: &Path, stale_after: Duration) -> bool {
    let owner = vfs
        .read_to_string(path)
        .ok()
        .and_then(|s| s.trim().parse::<u32>().ok());
    if let Some(pid) = owner {
        // Our own pid proves nothing: we may be the process that crashed
        // a previous compaction mid-flight and left the lock behind.
        if pid != std::process::id() && pid_alive(pid) == Some(false) {
            return true;
        }
    }
    let age = std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| std::time::SystemTime::now().duration_since(t).ok());
    match age {
        Some(age) => age >= stale_after,
        // Lock vanished mid-check or the clock is skewed: treat as live;
        // the next attempt re-evaluates.
        None => false,
    }
}

/// Holds `compact.lock` for the duration of a compaction; removing the
/// file on drop releases the lock even on an error path. A crash skips
/// the drop — which is exactly what the staleness check recovers from.
struct CompactLock {
    vfs: Vfs,
    path: PathBuf,
}

impl CompactLock {
    fn acquire(vfs: &Vfs, dir: &Path, stale_after: Duration) -> io::Result<CompactLock> {
        let path = dir.join(COMPACT_LOCK);
        for steal_attempted in [false, true] {
            match vfs.create_new(&path) {
                Ok(mut f) => {
                    // The pid is advisory (drives staleness detection);
                    // failing to record it degrades detection, not
                    // correctness, so errors are not fatal here.
                    let _ = f.write_all(format!("{}\n", std::process::id()).as_bytes());
                    return Ok(CompactLock {
                        vfs: vfs.clone(),
                        path,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if !steal_attempted && lock_is_stale(vfs, &path, stale_after) {
                        match vfs.remove_file(&path) {
                            // Stolen (or a racer beat us to the steal);
                            // retry the exclusive create once.
                            Ok(()) => continue,
                            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                            Err(e) => return Err(e),
                        }
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "store: compaction already in progress (compact.lock held by a live owner)",
                    ));
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("second acquire attempt always returns");
    }
}

impl Drop for CompactLock {
    fn drop(&mut self) {
        let _ = self.vfs.remove_file(&self.path);
    }
}

impl Store {
    /// Opens the store at `dir` with the default configuration (real
    /// I/O, `EveryN(32)` fsync policy).
    ///
    /// # Errors
    /// Fails only on I/O errors; damaged segment *contents* are tolerated
    /// and counted (see [`Store::corrupt`]), exactly like the journal.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Store> {
        Store::open_with(dir, StoreConfig::default())
    }

    /// Opens the store at `dir` (creating the directory if absent) with
    /// an explicit [`StoreConfig`] and loads every segment into the
    /// index. The handle's private segment is created by its first
    /// appending [`Store::put`], so opening an unchanged store adds no
    /// file to it.
    pub fn open_with(dir: impl AsRef<Path>, cfg: StoreConfig) -> io::Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        cfg.vfs.create_dir_all(&dir)?;
        let (index, corrupt) = load_dir(&cfg.vfs, &dir)?;
        Ok(Store {
            dir,
            cfg,
            index: Mutex::new(index),
            writer: Mutex::new(None),
            corrupt: AtomicUsize::new(corrupt),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The segment file this handle appends to, once a `put` has
    /// created it.
    pub fn segment_path(&self) -> Option<PathBuf> {
        self.writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|w| w.path.clone())
    }

    /// Number of keys served by [`Store::get`] (conflicted keys excluded).
    pub fn len(&self) -> usize {
        self.index
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Corrupt lines skipped across all segments at the last full scan
    /// ([`Store::open`] or [`Store::refresh`]).
    pub fn corrupt(&self) -> usize {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Number of conflicted fingerprints (see [`JournalConflict`]).
    pub fn conflicts(&self) -> usize {
        self.index
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .conflicts()
    }

    /// Every detected conflict, sorted by fingerprint.
    pub fn conflict_report(&self) -> Vec<JournalConflict> {
        self.index
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .conflict_report()
    }

    /// True when `fingerprint` has been quarantined by a conflict.
    pub fn is_conflicted(&self, fingerprint: &str) -> bool {
        self.index
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_conflicted(fingerprint)
    }

    /// The stored stats for `fingerprint`, if any. A conflicted key is
    /// never served.
    pub fn get(&self, fingerprint: &str) -> Option<SimStats> {
        self.index
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .lookup(fingerprint)
    }

    /// Stores one completed cell. An entry identical to one already
    /// indexed is a no-op ([`RecordOutcome::Duplicate`]). An entry whose
    /// fingerprint is indexed with *different* stats quarantines the key
    /// ([`RecordOutcome::Conflict`]): lookups stop serving it, and the
    /// conflicting line is still appended so a reload re-detects the
    /// conflict from the files alone. Anything appended goes to this
    /// handle's private segment (created on the first append), flushed,
    /// and fsynced per the configured [`SyncPolicy`].
    ///
    /// # Errors
    /// Fails on I/O errors; the index is updated regardless, so a full
    /// disk degrades durability, not correctness, of the current process.
    pub fn put(&self, entry: &JournalEntry<'_>) -> io::Result<RecordOutcome> {
        let line = cell_line(entry);
        let outcome = self
            .index
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(entry.fingerprint, entry.stats.clone());
        if outcome == RecordOutcome::Duplicate {
            return Ok(outcome);
        }
        let mut slot = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let writer = match slot.take() {
            Some(writer) => writer,
            None => create_segment(&self.cfg.vfs, &self.dir)?,
        };
        let writer = slot.insert(writer);
        writer.file.write_all(line.as_bytes())?;
        writer.file.flush()?;
        writer.unsynced += 1;
        let due = match self.cfg.sync {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => n > 0 && writer.unsynced >= n,
            SyncPolicy::Never => false,
        };
        if due {
            writer.file.sync_all()?;
            writer.unsynced = 0;
        }
        Ok(outcome)
    }

    /// Fsyncs this handle's segment, making every acked append durable
    /// regardless of policy. The daemon calls this when draining; batch
    /// drivers should call it at checkpoint boundaries under
    /// [`SyncPolicy::Never`]/`EveryN`.
    pub fn sync(&self) -> io::Result<()> {
        if let Some(writer) = self
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_mut()
        {
            writer.file.sync_all()?;
            writer.unsynced = 0;
        }
        Ok(())
    }

    /// Rescans every segment in the directory, rebuilding the index from
    /// scratch. This is how one handle observes the appends of *other*
    /// writers (threads with their own handle, or other processes) and
    /// the result of a foreign compaction. The handle's own appends are
    /// always flushed before `put` returns, so they are never lost to a
    /// refresh.
    pub fn refresh(&self) -> io::Result<()> {
        let (index, corrupt) = load_dir(&self.cfg.vfs, &self.dir)?;
        *self.index.lock().unwrap_or_else(PoisonError::into_inner) = index;
        self.corrupt.store(corrupt, Ordering::Relaxed);
        Ok(())
    }

    /// Merges every segment into one fresh segment, dropping duplicate
    /// and corrupt lines but preserving *all* competing lines of every
    /// conflicted fingerprint (conflicts must survive compaction — see
    /// module docs). On success the merged segments are deleted, this
    /// handle's next `put` claims a new private segment, and the index
    /// is rebuilt from the compacted state.
    ///
    /// Compactors serialize on `compact.lock`; a second concurrent call
    /// fails fast with `ErrorKind::AlreadyExists` unless the lock is
    /// stale (dead owner or past `lock_stale_after`), in which case it
    /// is stolen. Run only while other *writers* are quiescent (see
    /// module docs).
    ///
    /// # Errors
    /// Fails on I/O errors or when a live compaction holds the lock. The
    /// publication order (scratch under a `tmp-` name → fsync → drop
    /// the writer → rename → fsync dir → delete → fsync dir) means a
    /// crash at any point leaves the old segments, the new one, or both
    /// — never a half-written merge being served.
    pub fn compact(&self) -> io::Result<CompactStats> {
        let vfs = &self.cfg.vfs;
        let _lock = CompactLock::acquire(vfs, &self.dir, self.cfg.lock_stale_after)?;
        // Hold the writer lock across the whole merge: our own appends
        // pause until the writer below is dropped.
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);

        let segs = segment_paths(vfs, &self.dir)?;
        let mut kept_lines: Vec<String> = Vec::new();
        // Every distinct payload seen per fingerprint, in merge order.
        // One entry → live cell; several → a conflict whose every side
        // is preserved verbatim.
        let mut seen: HashMap<String, Vec<SimStats>> = HashMap::new();
        let mut stats = CompactStats {
            segments_merged: segs.len(),
            lines_in: 0,
            lines_out: 0,
            duplicates_dropped: 0,
            corrupt_dropped: 0,
            conflicts_kept: 0,
        };
        for seg in &segs {
            let content = vfs.read_to_string(seg)?;
            scan_segment(&content, |line, class| match class {
                Line::Cell(fp, cell_stats) => {
                    stats.lines_in += 1;
                    let payloads = seen.entry(fp).or_default();
                    if payloads.contains(&cell_stats) {
                        stats.duplicates_dropped += 1;
                    } else {
                        payloads.push(cell_stats);
                        kept_lines.push(format!("{line}\n"));
                    }
                }
                Line::Corrupt => stats.corrupt_dropped += 1,
                Line::Skip | Line::Torn => {}
            });
        }
        stats.lines_out = kept_lines.len();
        stats.conflicts_kept = seen.values().filter(|p| p.len() > 1).count();

        // Write the merge to a scratch name the segment globber never
        // matches, and fsync it before it can be renamed into service.
        let tmp = self
            .dir
            .join(format!("{TMP_PREFIX}compact-{:08}", std::process::id()));
        {
            let mut buf = meta_line();
            for line in &kept_lines {
                buf.push_str(line);
            }
            let mut f = vfs.create(&tmp)?;
            f.write_all(buf.as_bytes())?;
            f.sync_all()?;
        }
        // Drop this handle's writer *before* any rename or delete: its
        // next put claims a fresh segment, so no failure from here on can
        // leave the handle appending into a deleted file.
        *writer = None;
        // Claim a fresh segment name and atomically replace its meta
        // line with the merged content (same meta line first).
        let compacted = create_segment(vfs, &self.dir)?;
        vfs.rename(&tmp, &compacted.path)?;
        vfs.sync_dir(&self.dir)?;
        for seg in &segs {
            if *seg == compacted.path {
                continue;
            }
            match vfs.remove_file(seg) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        vfs.sync_dir(&self.dir)?;
        drop(writer);

        self.refresh()?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Model;
    use std::fs::{self, OpenOptions};
    use std::io::Write;

    fn stats(seed: u64) -> SimStats {
        SimStats {
            cycles: seed,
            insts: seed + 1,
            nullified: seed + 2,
            branches: seed + 3,
            mispredicts: seed + 4,
            loads: seed + 5,
            stores: seed + 6,
            icache_misses: seed + 7,
            dcache_misses: seed + 8,
            ret: -(seed as i64),
        }
    }

    fn entry<'a>(fp: &'a str, s: &'a SimStats) -> JournalEntry<'a> {
        JournalEntry {
            fingerprint: fp,
            workload: "w",
            experiment: "baseline",
            model: Some(Model::FullPred),
            stats: s,
        }
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hyperpred-store-{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_and_reload() {
        let dir = fresh_dir("basic");
        let s1 = stats(10);
        {
            let store = Store::open(&dir).unwrap();
            assert!(store.is_empty());
            assert_eq!(
                store.put(&entry("aa", &s1)).unwrap(),
                RecordOutcome::Appended
            );
            assert_eq!(
                store.put(&entry("aa", &s1)).unwrap(),
                RecordOutcome::Duplicate
            );
            assert_eq!(store.get("aa"), Some(s1.clone()));
        }
        let files = || fs::read_dir(&dir).unwrap().count();
        assert_eq!(files(), 1, "one writer, one segment");
        // A handle that only reads creates nothing: resumed runs and
        // daemon restarts leave the directory as they found it.
        for _ in 0..15 {
            let store = Store::open(&dir).unwrap();
            assert_eq!(store.len(), 1);
            assert_eq!(store.get("aa"), Some(s1.clone()));
            assert_eq!(store.corrupt(), 0);
            store.sync().unwrap();
        }
        assert_eq!(files(), 1, "15 opens of an unchanged store add no files");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_handles_never_interleave_and_merge_on_refresh() {
        let dir = fresh_dir("two-handles");
        let a = Store::open(&dir).unwrap();
        let b = Store::open(&dir).unwrap();
        assert_eq!(a.segment_path(), None, "no segment before the first put");
        let s1 = stats(1);
        let s2 = stats(2);
        a.put(&entry("aa", &s1)).unwrap();
        b.put(&entry("bb", &s2)).unwrap();
        assert_ne!(a.segment_path(), b.segment_path(), "private segments");
        assert_eq!(a.get("bb"), None, "b's append not yet visible to a");
        a.refresh().unwrap();
        assert_eq!(a.get("bb"), Some(s2));
        assert_eq!(a.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn conflicts_quarantine_and_survive_compaction() {
        let dir = fresh_dir("conflict-compact");
        let s1 = stats(1);
        let s2 = stats(2);
        let store = Store::open(&dir).unwrap();
        store.put(&entry("aa", &s1)).unwrap();
        assert_eq!(
            store.put(&entry("aa", &s2)).unwrap(),
            RecordOutcome::Conflict
        );
        assert_eq!(store.get("aa"), None, "conflicted key refused");
        assert_eq!(store.conflicts(), 1);
        let report = store.conflict_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].kept, s1);
        assert_eq!(report[0].rejected, s2);

        let cstats = store.compact().unwrap();
        assert_eq!(cstats.conflicts_kept, 1);
        assert_eq!(cstats.lines_out, 2, "both sides of the conflict kept");
        assert_eq!(store.conflicts(), 1, "conflict survives compaction");
        assert_eq!(store.get("aa"), None);

        // A brand-new open of the compacted directory re-detects it too.
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.conflicts(), 1);
        assert_eq!(reopened.get("aa"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_merges_segments_and_drops_duplicates() {
        let dir = fresh_dir("compact-merge");
        let s1 = stats(1);
        let s2 = stats(2);
        {
            // Both handles open before either writes: neither sees the
            // other's append, so `aa` genuinely lands in two segments
            // (a handle opened later would dedup it in memory).
            let a = Store::open(&dir).unwrap();
            let b = Store::open(&dir).unwrap();
            a.put(&entry("aa", &s1)).unwrap();
            assert_eq!(b.put(&entry("aa", &s1)).unwrap(), RecordOutcome::Appended);
            b.put(&entry("bb", &s2)).unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        let vfs = Vfs::real();
        let before = segment_paths(&vfs, &dir).unwrap().len();
        assert_eq!(
            before, 2,
            "two writers → two segments; the reader adds none"
        );
        let cstats = store.compact().unwrap();
        assert_eq!(cstats.duplicates_dropped, 1);
        assert_eq!(cstats.lines_out, 2);
        // Just the compacted segment: the handle's next put makes its own.
        assert_eq!(segment_paths(&vfs, &dir).unwrap().len(), 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("aa"), Some(s1));
        assert_eq!(store.get("bb"), Some(s2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_lock_is_exclusive_while_owner_lives() {
        let dir = fresh_dir("compact-lock");
        let store = Store::open(&dir).unwrap();
        let vfs = Vfs::real();
        // A fresh lock naming a live pid (ours) must be respected: the
        // age guard alone cannot steal it.
        let lock = CompactLock::acquire(&vfs, &dir, DEFAULT_LOCK_STALE_AFTER).unwrap();
        let err = store.compact().expect_err("lock held");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        drop(lock);
        store.compact().expect("lock released on drop");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_from_dead_pid_is_stolen() {
        let dir = fresh_dir("stale-lock-pid");
        let store = Store::open(&dir).unwrap();
        store.put(&entry("aa", &stats(1))).unwrap();
        // A lock naming a pid that cannot exist (far beyond pid_max):
        // the owner is provably dead, so compaction steals it even
        // though the file is brand new.
        fs::write(dir.join(COMPACT_LOCK), "999999999\n").unwrap();
        store.compact().expect("dead owner's lock is stolen");
        assert!(!dir.join(COMPACT_LOCK).exists(), "stolen lock released");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_lock_is_stolen_by_age() {
        let dir = fresh_dir("stale-lock-age");
        let cfg = StoreConfig {
            lock_stale_after: Duration::ZERO,
            ..StoreConfig::default()
        };
        let store = Store::open_with(&dir, cfg).unwrap();
        store.put(&entry("aa", &stats(1))).unwrap();
        // Garbage contents: no pid to check, so only age applies — and
        // with a zero threshold the lock is immediately stealable.
        fs::write(dir.join(COMPACT_LOCK), "not a pid").unwrap();
        store.compact().expect("aged-out lock is stolen");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_tolerated_per_segment() {
        let dir = fresh_dir("torn");
        let s1 = stats(1);
        let seg_path = {
            let store = Store::open(&dir).unwrap();
            store.put(&entry("aa", &s1)).unwrap();
            store.segment_path().expect("the put created a segment")
        };
        // Simulate a crash mid-append in that segment.
        let mut f = OpenOptions::new().append(true).open(&seg_path).unwrap();
        write!(f, "{{\"kind\":\"cell\",\"version\":2,\"fp\":\"bb\",\"cyc").unwrap();
        drop(f);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.corrupt(), 0, "torn tail is expected, not corrupt");
        assert_eq!(store.get("aa"), Some(s1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_policies_fsync_as_specified() {
        // No crash here (that's tests/crash.rs); this pins the op
        // accounting: Always syncs per put, EveryN(2) every second put.
        // The first put also creates the segment: create + meta line.
        let dir = fresh_dir("sync-policy");
        let vfs = Vfs::real();
        let cfg = StoreConfig {
            vfs: vfs.clone(),
            sync: SyncPolicy::Always,
            ..StoreConfig::default()
        };
        let store = Store::open_with(&dir, cfg).unwrap();
        let base = vfs.ops();
        store.put(&entry("aa", &stats(1))).unwrap();
        assert_eq!(vfs.ops() - base, 4, "Always: create + meta + write + fsync");
        store.put(&entry("bb", &stats(2))).unwrap();
        assert_eq!(vfs.ops() - base, 6, "Always: write + fsync");

        let dir2 = fresh_dir("sync-policy-n");
        let vfs2 = Vfs::real();
        let cfg2 = StoreConfig {
            vfs: vfs2.clone(),
            sync: SyncPolicy::EveryN(2),
            ..StoreConfig::default()
        };
        let store2 = Store::open_with(&dir2, cfg2).unwrap();
        let base2 = vfs2.ops();
        store2.put(&entry("aa", &stats(1))).unwrap();
        store2.put(&entry("bb", &stats(2))).unwrap();
        assert_eq!(
            vfs2.ops() - base2,
            5,
            "EveryN(2): create + meta + write, write + fsync"
        );
        store2.sync().unwrap();
        assert_eq!(vfs2.ops() - base2, 6, "explicit sync is one fsync");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }
}
