//! Store integrity checking and repair: the library behind
//! `hyperpredc fsck <store>`.
//!
//! [`fsck`] walks every segment of a [`Store`]
//! directory — a daemon's store, or the `--resume` directory of a
//! `figures` or `soak` run — and classifies each line with the store's
//! own scanner (valid checksummed cell / meta / foreign-version / torn
//! tail / corrupt), then reports what it found. With
//! [`FsckOptions::repair`] it also fixes what can be fixed without
//! guessing:
//!
//! - **torn tails** (a crash mid-append) are dropped — the record was
//!   never acked complete, so dropping it is the truthful repair;
//! - **corrupt lines** (checksum failures, mid-file garbage) are moved
//!   into `quarantine/<segment-name>` — never deleted, so a bad batch
//!   can be inspected or hand-recovered later;
//! - **stale `compact.lock`s** (dead owner, or past the staleness age)
//!   are reclaimed so compaction un-wedges;
//! - **orphan `tmp-` scratch files** from crashed compactions are
//!   removed (they are never read, only wasted space).
//!
//! Segment rewrites are crash-safe themselves: the surviving lines go
//! to a `tmp-` scratch name, get fsynced, and are renamed over the
//! original — so an fsck interrupted by another crash never makes a
//! store worse. Conflicted fingerprints are *reported but untouched*:
//! a conflict means neither payload can be trusted and both sides must
//! survive for reopen to re-detect it.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::journal::{CellIndex, Line};
use crate::store::{
    is_segment_name, lock_is_stale, scan_segment, CompactStats, Store, StoreConfig, COMPACT_LOCK,
    DEFAULT_LOCK_STALE_AFTER, TMP_PREFIX,
};
use crate::vfs::Vfs;

/// Subdirectory corrupt lines are quarantined into by `--repair`.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Options for one [`fsck`] run.
#[derive(Debug, Clone)]
pub struct FsckOptions {
    /// Fix what can be fixed (see module docs). Without this, fsck only
    /// scans and reports.
    pub repair: bool,
    /// After a successful repair, also run a compaction.
    pub compact: bool,
    /// Staleness threshold for `compact.lock` reclamation.
    pub lock_stale_after: Duration,
    /// The I/O layer; [`Vfs::real`] outside fault-injection tests.
    pub vfs: Vfs,
}

impl Default for FsckOptions {
    fn default() -> FsckOptions {
        FsckOptions {
            repair: false,
            compact: false,
            lock_stale_after: DEFAULT_LOCK_STALE_AFTER,
            vfs: Vfs::real(),
        }
    }
}

/// What one [`fsck`] run found (and, under `repair`, did).
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Segment files scanned.
    pub segments: usize,
    /// Distinct servable fingerprints across all segments.
    pub cells: usize,
    /// Conflicted fingerprints (reported, never touched).
    pub conflicts: usize,
    /// Torn trailing lines found (crash mid-append).
    pub torn_tails: usize,
    /// Corrupt lines found (checksum failure or mid-file garbage).
    pub corrupt_lines: usize,
    /// Segments rewritten by repair.
    pub repaired_segments: usize,
    /// Corrupt lines moved into `quarantine/` by repair.
    pub quarantined: usize,
    /// A stale `compact.lock` was found.
    pub stale_lock: bool,
    /// The stale lock was reclaimed (repair only).
    pub lock_reclaimed: bool,
    /// A `compact.lock` held by a live owner was found (not a defect —
    /// a compaction appears to be running — but worth reporting).
    pub live_lock: bool,
    /// Orphan `tmp-` scratch files found.
    pub orphan_tmp: usize,
    /// Orphan scratch files removed (repair only).
    pub orphan_tmp_removed: usize,
    /// Stats of the optional post-repair compaction.
    pub compacted: Option<CompactStats>,
}

impl FsckReport {
    /// Findings that make the store not-clean. Conflicts count: they
    /// are not repairable, but a clean bill of health must not hide
    /// them.
    pub fn issues(&self) -> usize {
        self.torn_tails
            + self.corrupt_lines
            + self.conflicts
            + usize::from(self.stale_lock)
            + self.orphan_tmp
    }

    /// True when the store needed (and needs) nothing.
    pub fn clean(&self) -> bool {
        self.issues() == 0
    }

    /// True when repair fixed every repairable finding (conflicts and a
    /// live lock are not repairable and do not count against this).
    pub fn fully_repaired(&self) -> bool {
        self.quarantined == self.corrupt_lines
            && (!self.stale_lock || self.lock_reclaimed)
            && self.orphan_tmp_removed == self.orphan_tmp
    }
}

impl std::fmt::Display for FsckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fsck: {} segments, {} cells, {} conflicts",
            self.segments, self.cells, self.conflicts
        )?;
        writeln!(
            f,
            "  torn tails: {} | corrupt lines: {} | orphan tmp files: {}",
            self.torn_tails, self.corrupt_lines, self.orphan_tmp
        )?;
        if self.live_lock {
            writeln!(
                f,
                "  compact.lock held by a live owner (compaction running?)"
            )?;
        }
        if self.stale_lock {
            writeln!(
                f,
                "  stale compact.lock{}",
                if self.lock_reclaimed {
                    " (reclaimed)"
                } else {
                    ""
                }
            )?;
        }
        if self.repaired_segments > 0 || self.quarantined > 0 || self.orphan_tmp_removed > 0 {
            writeln!(
                f,
                "  repaired: {} segments rewritten, {} lines quarantined, {} tmp files removed",
                self.repaired_segments, self.quarantined, self.orphan_tmp_removed
            )?;
        }
        if let Some(c) = &self.compacted {
            writeln!(
                f,
                "  compacted: {} segments -> {} lines ({} duplicates dropped)",
                c.segments_merged, c.lines_out, c.duplicates_dropped
            )?;
        }
        match (self.clean(), self.issues()) {
            (true, _) => write!(f, "  status: clean"),
            (false, n) => write!(f, "  status: {n} finding(s)"),
        }
    }
}

/// One scanned segment, split into surviving lines and damage.
struct SegmentScan {
    path: PathBuf,
    /// Lines to keep on rewrite: valid cells, meta, foreign versions.
    kept: Vec<String>,
    /// Corrupt lines destined for quarantine.
    bad: Vec<String>,
    /// A torn trailing line (dropped on rewrite, never quarantined —
    /// it is an expected crash artifact, not suspicious data).
    torn: Option<String>,
}

impl SegmentScan {
    fn damaged(&self) -> bool {
        !self.bad.is_empty() || self.torn.is_some()
    }
}

fn scan_one(vfs: &Vfs, path: &Path, index: &mut CellIndex) -> io::Result<SegmentScan> {
    let content = vfs.read_to_string(path)?;
    let (mut kept, mut bad, mut torn) = (Vec::new(), Vec::new(), None);
    // Meta and foreign-version lines survive a rewrite; a torn tail
    // does not.
    scan_segment(&content, |line, class| match class {
        Line::Cell(fp, stats) => {
            index.insert(&fp, stats);
            kept.push(line.to_string());
        }
        Line::Skip => kept.push(line.to_string()),
        Line::Torn => torn = Some(line.to_string()),
        Line::Corrupt => bad.push(line.to_string()),
    });
    Ok(SegmentScan {
        path: path.to_path_buf(),
        kept,
        bad,
        torn,
    })
}

/// Rewrites one damaged segment crash-safely (scratch + fsync + rename
/// + directory fsync) and quarantines its corrupt lines.
fn repair_segment(
    vfs: &Vfs,
    dir: &Path,
    scan: &SegmentScan,
    report: &mut FsckReport,
) -> io::Result<()> {
    if !scan.bad.is_empty() {
        let qdir = dir.join(QUARANTINE_DIR);
        vfs.create_dir_all(&qdir)?;
        let name = scan
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "segment".to_string());
        let mut q = vfs.append(&qdir.join(name))?;
        for line in &scan.bad {
            q.write_all(format!("{line}\n").as_bytes())?;
        }
        q.sync_all()?;
        report.quarantined += scan.bad.len();
    }
    let tmp = dir.join(format!("{TMP_PREFIX}fsck-{:08}", std::process::id()));
    let mut buf = String::new();
    for line in &scan.kept {
        buf.push_str(line);
        buf.push('\n');
    }
    let mut f = vfs.create(&tmp)?;
    f.write_all(buf.as_bytes())?;
    f.sync_all()?;
    vfs.rename(&tmp, &scan.path)?;
    vfs.sync_dir(dir)?;
    report.repaired_segments += 1;
    Ok(())
}

/// Scans (and with [`FsckOptions::repair`], repairs) the store at `dir`.
///
/// # Errors
/// Fails on I/O errors — an unreadable directory or a failed rewrite.
/// Damaged *contents* are findings, not errors.
pub fn fsck(dir: impl AsRef<Path>, opts: &FsckOptions) -> io::Result<FsckReport> {
    let dir = dir.as_ref();
    let vfs = &opts.vfs;
    let mut report = FsckReport::default();
    let mut index = CellIndex::default();

    let mut segments: Vec<PathBuf> = Vec::new();
    let mut orphans: Vec<PathBuf> = Vec::new();
    let mut lock: Option<PathBuf> = None;
    for path in vfs.read_dir_paths(dir)? {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        if is_segment_name(&name) {
            segments.push(path);
        } else if name.starts_with(TMP_PREFIX) {
            orphans.push(path);
        } else if name == COMPACT_LOCK {
            lock = Some(path);
        }
    }
    // Deterministic order: same as the store's merge order, so the
    // conflict report matches what a reopen would say.
    segments.sort();
    report.segments = segments.len();

    for seg in &segments {
        let scan = match scan_one(vfs, seg, &mut index) {
            Ok(s) => s,
            // Lost a race with a live compactor; nothing to repair here.
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        report.torn_tails += usize::from(scan.torn.is_some());
        report.corrupt_lines += scan.bad.len();
        if opts.repair && scan.damaged() {
            repair_segment(vfs, dir, &scan, &mut report)?;
        }
    }
    report.cells = index.len();
    report.conflicts = index.conflicts();

    if let Some(lock_path) = lock {
        if lock_is_stale(vfs, &lock_path, opts.lock_stale_after) {
            report.stale_lock = true;
            if opts.repair {
                match vfs.remove_file(&lock_path) {
                    Ok(()) => report.lock_reclaimed = true,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {
                        report.lock_reclaimed = true;
                    }
                    Err(e) => return Err(e),
                }
            }
        } else {
            report.live_lock = true;
        }
    }

    report.orphan_tmp = orphans.len();
    if opts.repair {
        for orphan in &orphans {
            match vfs.remove_file(orphan) {
                Ok(()) => report.orphan_tmp_removed += 1,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    report.orphan_tmp_removed += 1;
                }
                Err(e) => return Err(e),
            }
        }
        if opts.compact && report.segments > 0 {
            let store = Store::open_with(
                dir,
                StoreConfig {
                    vfs: vfs.clone(),
                    lock_stale_after: opts.lock_stale_after,
                    ..StoreConfig::default()
                },
            )?;
            report.compacted = Some(store.compact()?);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{cell_line, JournalEntry};
    use crate::pipeline::Model;
    use crate::store::Store;
    use hyperpred_sim::SimStats;
    use std::fs;

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
        let dir = std::env::temp_dir().join(format!("hyperpred-fsck-{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn clean_store_reports_clean() {
        let dir = fresh_dir("clean");
        let store = Store::open(&dir).unwrap();
        store.put(&entry("aa", &stats(1))).unwrap();
        store.put(&entry("bb", &stats(2))).unwrap();
        let report = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(report.clean(), "{report}");
        assert_eq!(report.cells, 2);
        assert_eq!(report.segments, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repair_drops_torn_tail_and_quarantines_corrupt_lines() {
        let dir = fresh_dir("repair");
        let s1 = stats(1);
        let seg = {
            let store = Store::open(&dir).unwrap();
            store.put(&entry("aa", &s1)).unwrap();
            store.put(&entry("bb", &stats(2))).unwrap();
            store.segment_path().expect("the puts created a segment")
        };
        // Damage the segment: a checksum-failing line mid-file (flip a
        // digit of a valid record) and a torn tail.
        let good = cell_line(&entry("cc", &stats(3)));
        let flipped = good.replace("\"cycles\":3", "\"cycles\":4");
        assert_ne!(flipped, good);
        let mut content = fs::read_to_string(&seg).unwrap();
        content.push_str(&flipped);
        content.push_str("{\"kind\":\"cell\",\"version\":2,\"fp\":\"dd\",\"cyc");
        fs::write(&seg, &content).unwrap();
        // Plus an orphan compaction scratch file.
        fs::write(dir.join("tmp-compact-00000001"), "junk").unwrap();

        // Scan only: findings reported, nothing touched.
        let scan = fsck(&dir, &FsckOptions::default()).unwrap();
        assert_eq!(scan.torn_tails, 1);
        assert_eq!(scan.corrupt_lines, 1);
        assert_eq!(scan.orphan_tmp, 1);
        assert!(!scan.clean());
        assert!(fs::read_to_string(&seg).unwrap().contains("\"fp\":\"dd\""));

        // Repair: torn tail dropped, corrupt line quarantined, orphan
        // removed — and the surviving records still load.
        let repair = fsck(
            &dir,
            &FsckOptions {
                repair: true,
                ..FsckOptions::default()
            },
        )
        .unwrap();
        assert_eq!(repair.repaired_segments, 1);
        assert_eq!(repair.quarantined, 1);
        assert_eq!(repair.orphan_tmp_removed, 1);
        assert!(repair.fully_repaired(), "{repair}");
        let rewritten = fs::read_to_string(&seg).unwrap();
        assert!(!rewritten.contains("\"fp\":\"dd\""), "torn tail dropped");
        assert!(!rewritten.contains(flipped.trim_end()), "corrupt line gone");
        let qfile = dir
            .join(QUARANTINE_DIR)
            .join(seg.file_name().unwrap().to_string_lossy().into_owned());
        assert!(
            fs::read_to_string(&qfile)
                .unwrap()
                .contains(flipped.trim_end()),
            "corrupt line preserved in quarantine"
        );

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.corrupt(), 0, "repaired store scans clean");
        assert_eq!(store.get("aa"), Some(s1));
        assert!(store.get("bb").is_some());
        let clean = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(clean.clean(), "{clean}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_is_reported_and_reclaimed() {
        let dir = fresh_dir("lock");
        {
            let store = Store::open(&dir).unwrap();
            store.put(&entry("aa", &stats(1))).unwrap();
        }
        fs::write(dir.join(COMPACT_LOCK), "999999999\n").unwrap();
        let scan = fsck(&dir, &FsckOptions::default()).unwrap();
        assert!(scan.stale_lock);
        assert!(!scan.lock_reclaimed);
        assert!(dir.join(COMPACT_LOCK).exists());
        let repair = fsck(
            &dir,
            &FsckOptions {
                repair: true,
                compact: true,
                ..FsckOptions::default()
            },
        )
        .unwrap();
        assert!(repair.lock_reclaimed);
        assert!(repair.compacted.is_some(), "post-repair compact ran");
        assert!(!dir.join(COMPACT_LOCK).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
