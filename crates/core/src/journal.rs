//! Record lines: the format every [`Store`](crate::store::Store)
//! segment holds — the exact [`SimStats`] of one completed cell per line
//! — and the *config fingerprints* they are keyed by.
//!
//! # Fingerprints
//!
//! The fingerprint is an FNV-1a 64-bit hash over a canonical string of
//! everything that determines a cell's stats: the crate version, a hash
//! of the full pipeline configuration, the workload name, a hash of its
//! *source text* (which also covers the scale — test and full inputs are
//! different sources), its arguments, the experiment title, the model,
//! and the machine/simulation parameters (issue width, branch slots,
//! memory model, cycle budget). Any change to any of these produces a
//! different fingerprint, so stale entries are ignored — never silently
//! reused. The cost of a false mismatch is only a recompute; the cost of
//! a false match would be wrong numbers, so the key is deliberately
//! conservative.
//!
//! # Line format
//!
//! One JSON object per line, written and read through [`crate::json`].
//! A segment opens with a `meta` record; every stored cell appends a
//! `cell` record:
//!
//! ```text
//! {"kind":"meta","version":2,"crate_version":"0.1.0"}
//! {"kind":"cell","version":2,"fp":"92ab...","workload":"wc","experiment":"Figure 8: ...","model":"fullpred","cycles":123,...,"ret":42,"ck":"a1b2c3d4e5f60718"}
//! ```
//!
//! Every version-2 cell line ends with a `ck` suffix: the [`fnv64`] hash
//! (hex, 16 digits) of every byte of the line before the `,"ck"` marker.
//! A record whose checksum does not verify is *corruption*, counted and
//! never served — a flipped bit can no longer masquerade as truth.
//! Version-1 lines (written before checksums existed) carry no `ck` and
//! are still accepted, so old journals and stores load unchanged.
//!
//! Only successful cells are recorded — failures re-run on resume.
//! [`parse_cell_line`] is the one classifier of a line, shared by store
//! loading, compaction and `fsck`: a servable cell; an expected skip (a
//! meta record, or a cell of a version that is neither
//! [`JOURNAL_VERSION`] nor [`LEGACY_JOURNAL_VERSION`]); a torn final line
//! from a crash mid-append; or corruption. Skips and torn lines just
//! mean "re-run that cell"; corruption is also counted.

use hyperpred_sim::SimStats;
use std::collections::HashMap;

use crate::json::{self, Object, Value};
use crate::pipeline::Model;

/// Schema version stamped into every record so future shape changes are
/// detected (and skipped) instead of silently mis-parsed. Version 2
/// added the per-line `ck` checksum suffix.
pub const JOURNAL_VERSION: u64 = 2;

/// The pre-checksum schema version. Lines at this version carry no `ck`
/// suffix and are accepted as-is so stores written before the checksum
/// change still load.
pub const LEGACY_JOURNAL_VERSION: u64 = 1;

/// FNV-1a 64-bit hash — small, dependency-free, and stable across runs
/// and platforms (unlike `DefaultHasher`, which is randomly seeded).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One completed cell, ready to append.
#[derive(Debug, Clone)]
pub struct JournalEntry<'a> {
    /// Config fingerprint the stats are keyed by.
    pub fingerprint: &'a str,
    /// Workload name (human context; the fingerprint is the key).
    pub workload: &'a str,
    /// Figure title, or `"baseline"` for the shared denominator cell.
    pub experiment: &'a str,
    /// Model simulated (`None` for the baseline cell).
    pub model: Option<Model>,
    /// The cell's exact simulation statistics.
    pub stats: &'a SimStats,
}

/// What happened to one [`Store::put`](crate::store::Store::put) call.
///
/// The fingerprint is a content address: two entries sharing one must
/// carry identical stats. A mismatch is *never* resolved by overwriting —
/// it is surfaced as a counted conflict and the key stops being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordOutcome {
    /// The fingerprint was new; the entry was indexed and appended.
    Appended,
    /// An identical entry was already indexed; nothing was written.
    Duplicate,
    /// The fingerprint was already indexed with *different* stats. The
    /// key is now conflicted: it will no longer be served by lookups,
    /// and the conflicting entry was appended so a reload re-detects the
    /// conflict from the file alone.
    Conflict,
}

/// One detected fingerprint conflict: the same content address observed
/// with two different stat payloads. Either the fingerprint scheme missed
/// an input that matters (a false match — the dangerous case the journal
/// docs call out) or a writer is damaged; both mean neither payload can
/// be trusted, so the key is refused, not arbitrated.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalConflict {
    /// The doubly-claimed fingerprint.
    pub fingerprint: String,
    /// The stats indexed first.
    pub kept: SimStats,
    /// The first differing stats observed for the same fingerprint.
    pub rejected: SimStats,
}

/// The fingerprint → stats index behind every [`Store`](crate::store::Store):
/// first-write-wins with conflict quarantine instead of the historical
/// silent last-write-wins.
#[derive(Debug, Default)]
pub(crate) struct CellIndex {
    cells: HashMap<String, SimStats>,
    conflicted: HashMap<String, JournalConflict>,
}

impl CellIndex {
    /// Indexes one entry, classifying it against what is already held.
    pub(crate) fn insert(&mut self, fp: &str, stats: SimStats) -> RecordOutcome {
        if self.conflicted.contains_key(fp) {
            return RecordOutcome::Conflict;
        }
        match self.cells.get(fp) {
            None => {
                self.cells.insert(fp.to_string(), stats);
                RecordOutcome::Appended
            }
            Some(existing) if *existing == stats => RecordOutcome::Duplicate,
            Some(_) => {
                let kept = self
                    .cells
                    .remove(fp)
                    .expect("just matched Some; no other borrow can remove it");
                self.conflicted.insert(
                    fp.to_string(),
                    JournalConflict {
                        fingerprint: fp.to_string(),
                        kept,
                        rejected: stats,
                    },
                );
                RecordOutcome::Conflict
            }
        }
    }

    pub(crate) fn lookup(&self, fp: &str) -> Option<SimStats> {
        self.cells.get(fp).cloned()
    }

    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    pub(crate) fn conflicts(&self) -> usize {
        self.conflicted.len()
    }

    pub(crate) fn is_conflicted(&self, fp: &str) -> bool {
        self.conflicted.contains_key(fp)
    }

    pub(crate) fn conflict_report(&self) -> Vec<JournalConflict> {
        let mut v: Vec<JournalConflict> = self.conflicted.values().cloned().collect();
        v.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        v
    }
}

/// The journal slug for a model slot (`"baseline"` when `None`).
pub fn model_slug(model: Option<Model>) -> &'static str {
    match model {
        None => "baseline",
        Some(Model::Superblock) => "superblock",
        Some(Model::CondMove) => "condmove",
        Some(Model::FullPred) => "fullpred",
    }
}

/// The model a [`model_slug`] names (`None` for `"baseline"` and
/// unknown slugs).
pub(crate) fn model_from_slug(slug: &str) -> Option<Model> {
    Model::ALL
        .into_iter()
        .find(|&m| model_slug(Some(m)) == slug)
}

/// Appends the ten [`SimStats`] fields, in the order record lines and
/// wire responses carry them.
pub(crate) fn push_stats(o: &mut Object, s: &SimStats) {
    o.u64("cycles", s.cycles)
        .u64("insts", s.insts)
        .u64("nullified", s.nullified)
        .u64("branches", s.branches)
        .u64("mispredicts", s.mispredicts)
        .u64("loads", s.loads)
        .u64("stores", s.stores)
        .u64("icache_misses", s.icache_misses)
        .u64("dcache_misses", s.dcache_misses)
        .i64("ret", s.ret);
}

/// Reads the fields [`push_stats`] writes; the error names the first
/// missing or mistyped one.
pub(crate) fn read_stats(v: &Value<'_>) -> Result<SimStats, String> {
    let need = |key: &str| {
        v.field(key, Value::num::<u64>)?
            .ok_or_else(|| format!("missing field `{key}`"))
    };
    Ok(SimStats {
        cycles: need("cycles")?,
        insts: need("insts")?,
        nullified: need("nullified")?,
        branches: need("branches")?,
        mispredicts: need("mispredicts")?,
        loads: need("loads")?,
        stores: need("stores")?,
        icache_misses: need("icache_misses")?,
        dcache_misses: need("dcache_misses")?,
        ret: v.field("ret", Value::num)?.ok_or("missing field `ret`")?,
    })
}

/// The meta line opening every segment (trailing newline included).
pub(crate) fn meta_line() -> String {
    Object::default()
        .str("kind", "meta")
        .u64("version", JOURNAL_VERSION)
        .str("crate_version", env!("CARGO_PKG_VERSION"))
        .finish()
        + "\n"
}

/// Serializes one cell record as a JSONL line (trailing newline
/// included), ending in the `ck` checksum suffix: `fnv64` over every
/// byte before the `,"ck"` marker.
pub(crate) fn cell_line(entry: &JournalEntry<'_>) -> String {
    let mut o = Object::default();
    o.str("kind", "cell")
        .u64("version", JOURNAL_VERSION)
        .str("fp", entry.fingerprint)
        .str("workload", entry.workload)
        .str("experiment", entry.experiment)
        .str("model", model_slug(entry.model));
    push_stats(&mut o, entry.stats);
    let ck = fnv64(o.as_str().as_bytes());
    o.str("ck", &format!("{ck:016x}")).finish() + "\n"
}

/// The `,"ck":"` marker that opens the checksum suffix. Safe to locate
/// with `rfind`: the writer turns every `"` inside a value into `\"`,
/// so this exact byte sequence cannot occur inside field data.
const CK_MARKER: &str = ",\"ck\":\"";

/// True when the checksum suffix of a current-version line is present,
/// well-formed, and matches the bytes before it.
fn checksum_verifies(trimmed: &str) -> bool {
    let Some(at) = trimmed.rfind(CK_MARKER) else {
        return false;
    };
    trimmed[at + CK_MARKER.len()..]
        .strip_suffix("\"}")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .is_some_and(|ck| ck == fnv64(&trimmed.as_bytes()[..at]))
}

/// What one line of a segment is (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Line {
    /// A cell record to serve: its fingerprint and stats.
    Cell(String, SimStats),
    /// A meta record or a cell of a foreign schema version: kept by
    /// rewrites, never served, not damage.
    Skip,
    /// The last line of a segment, cut short by a crash mid-append.
    Torn,
    /// Anything else, including a line whose checksum fails: counted,
    /// never served.
    Corrupt,
}

/// Classifies one line; `is_last` says whether it ends its segment
/// (only a final line can be a torn tail).
pub(crate) fn parse_cell_line(line: &str, is_last: bool) -> Line {
    let trimmed = line.trim_end();
    if !trimmed.ends_with('}') {
        return if is_last { Line::Torn } else { Line::Corrupt };
    }
    let Ok(v) = json::parse(trimmed) else {
        return Line::Corrupt;
    };
    let cell = || match (v.field("fp", Value::as_str), read_stats(&v)) {
        (Ok(Some(fp)), Ok(stats)) => Line::Cell(fp.to_string(), stats),
        _ => Line::Corrupt,
    };
    match (
        v.field("kind", Value::as_str),
        v.field("version", Value::num),
    ) {
        (Ok(Some("meta")), _) => Line::Skip,
        // Pre-checksum records are trusted as-is (nothing better exists).
        (Ok(Some("cell")), Ok(Some(LEGACY_JOURNAL_VERSION))) => cell(),
        // A current-version record must checksum: a line claiming v2
        // with a missing or wrong `ck` is damage, not a foreign schema.
        (Ok(Some("cell")), Ok(Some(JOURNAL_VERSION))) if checksum_verifies(trimmed) => cell(),
        (Ok(Some("cell")), Ok(Some(JOURNAL_VERSION))) => Line::Corrupt,
        (Ok(Some("cell")), Ok(Some(_))) => Line::Skip,
        _ => Line::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;

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

    /// The cell of a line that must parse as one.
    fn cell_of(line: &str) -> (String, SimStats) {
        match parse_cell_line(line, false) {
            Line::Cell(fp, s) => (fp, s),
            other => panic!("{line:?} parsed as {other:?}"),
        }
    }

    /// Stats of the pinned lines below.
    fn pinned_stats() -> SimStats {
        SimStats {
            cycles: 3_222_036,
            insts: 4_741_516,
            nullified: 12,
            branches: 400_001,
            mispredicts: 9_876,
            loads: 77,
            stores: 66,
            icache_misses: 5,
            dcache_misses: 4,
            ret: -42,
        }
    }

    /// A v2 line and a v2 line with escapes, both as the hand-rolled
    /// writer produced them.
    const PINNED_V2: &str = "{\"kind\":\"cell\",\"version\":2,\"fp\":\"deadbeef00112233\",\
        \"workload\":\"wc\",\"experiment\":\"Figure 8: 8-issue, 1-branch, perfect caches\",\
        \"model\":\"fullpred\",\"cycles\":3222036,\"insts\":4741516,\"nullified\":12,\
        \"branches\":400001,\"mispredicts\":9876,\"loads\":77,\"stores\":66,\
        \"icache_misses\":5,\"dcache_misses\":4,\"ret\":-42,\"ck\":\"a3400cd52d98ecab\"}\n";
    const PINNED_V2_ESCAPED: &str = "{\"kind\":\"cell\",\"version\":2,\
        \"fp\":\"v1|quote\\\"back\\\\slash\",\"workload\":\"line\\nbreak\",\
        \"experiment\":\"baseline\",\"model\":\"baseline\",\"cycles\":3222036,\
        \"insts\":4741516,\"nullified\":12,\"branches\":400001,\"mispredicts\":9876,\
        \"loads\":77,\"stores\":66,\"icache_misses\":5,\"dcache_misses\":4,\"ret\":-42,\
        \"ck\":\"9897ea175e91ef7d\"}\n";

    #[test]
    fn fnv64_is_stable() {
        // Pinned reference values: the fingerprint scheme depends on this
        // hash never changing across versions or platforms.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }

    #[test]
    fn cell_lines_round_trip_exactly() {
        let s = stats(1000);
        let line = cell_line(&JournalEntry {
            fingerprint: "deadbeef00112233",
            workload: "wc",
            experiment: "Figure 8: 8-issue, 1-branch, perfect caches",
            model: Some(Model::FullPred),
            stats: &s,
        });
        let (fp, parsed) = cell_of(&line);
        assert_eq!(fp, "deadbeef00112233");
        assert_eq!(parsed, s, "stats must round-trip bit-identically");
        // Control characters other than newline are escaped now; the
        // line still round-trips and checksums.
        let line = cell_line(&entry("tab\there\r\u{1}", &s));
        assert!(!line.trim_end().contains('\t'), "{line:?}");
        assert_eq!(cell_of(&line).0, "tab\there\r\u{1}");
    }

    #[test]
    fn lines_keep_the_bytes_written_before_the_json_module() {
        let s = pinned_stats();
        let line = cell_line(&JournalEntry {
            fingerprint: "deadbeef00112233",
            workload: "wc",
            experiment: "Figure 8: 8-issue, 1-branch, perfect caches",
            model: Some(Model::FullPred),
            stats: &s,
        });
        assert_eq!(line, PINNED_V2);
        let line = cell_line(&JournalEntry {
            fingerprint: "v1|quote\"back\\slash",
            workload: "line\nbreak",
            experiment: "baseline",
            model: None,
            stats: &s,
        });
        assert_eq!(line, PINNED_V2_ESCAPED);
        assert_eq!(
            cell_of(PINNED_V2),
            ("deadbeef00112233".to_string(), s.clone())
        );
        assert_eq!(
            cell_of(PINNED_V2_ESCAPED),
            ("v1|quote\"back\\slash".to_string(), s)
        );
        assert_eq!(
            meta_line(),
            format!(
                "{{\"kind\":\"meta\",\"version\":2,\"crate_version\":\"{}\"}}\n",
                env!("CARGO_PKG_VERSION")
            )
        );
    }

    #[test]
    fn torn_and_foreign_lines_are_skipped() {
        // Torn line: a crash mid-append leaves no closing brace.
        let torn = "{\"kind\":\"cell\",\"version\":1,\"fp\":\"ab\",\"cycles\":4";
        assert_eq!(parse_cell_line(torn, true), Line::Torn);
        assert_eq!(
            parse_cell_line(torn, false),
            Line::Corrupt,
            "only a tail is torn"
        );
        // Meta records and foreign schema versions are not cells.
        assert_eq!(
            parse_cell_line("{\"kind\":\"meta\",\"version\":1}", false),
            Line::Skip
        );
        let s = stats(5);
        let line = cell_line(&entry("ff", &s));
        let foreign = line.replace(&format!("\"version\":{JOURNAL_VERSION}"), "\"version\":99");
        assert_eq!(parse_cell_line(&foreign, false), Line::Skip);
        assert_eq!(cell_of(&line), ("ff".to_string(), s));
        assert_eq!(parse_cell_line("not json at all", true), Line::Torn);
        assert_eq!(
            parse_cell_line("{\"kind\":\"other\"}", false),
            Line::Corrupt
        );
    }

    /// Rewrites a current-version line as its version-1 (pre-checksum)
    /// equivalent: `ck` suffix stripped, version field downgraded.
    fn legacy_line(line: &str) -> String {
        let trimmed = line.trim_end();
        let at = trimmed.rfind(",\"ck\":\"").expect("v2 line has a ck");
        format!("{}}}\n", &trimmed[..at]).replace(
            &format!("\"version\":{JOURNAL_VERSION}"),
            &format!("\"version\":{LEGACY_JOURNAL_VERSION}"),
        )
    }

    /// Opens a store whose only segment holds `content`: a journal file
    /// from before journals were store directories, moved in as
    /// `seg-0.jsonl`.
    fn open_with(name: &str, content: &[u8]) -> Store {
        let dir = std::env::temp_dir().join(format!("hyperpred-journal-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("seg-0.jsonl"), content).unwrap();
        Store::open(&dir).unwrap()
    }

    #[test]
    fn a_single_file_journal_moved_into_a_store_loads() {
        let v1 = legacy_line(PINNED_V2);
        let content = format!(
            "{{\"kind\":\"meta\",\"version\":2,\"crate_version\":\"0.1.0\"}}\n\
             {PINNED_V2}{PINNED_V2_ESCAPED}{}",
            v1.replace("deadbeef00112233", "old-v1")
        );
        let store = open_with("moved", content.as_bytes());
        assert_eq!(store.corrupt(), 0);
        assert_eq!(store.len(), 3);
        for fp in ["deadbeef00112233", "v1|quote\"back\\slash", "old-v1"] {
            assert_eq!(store.get(fp), Some(pinned_stats()), "{fp}");
        }
    }

    #[test]
    fn checksum_catches_a_flipped_bit() {
        let s = stats(7);
        let line = cell_line(&entry("aa", &s));
        // Flip one digit of the cycles field: still perfectly
        // well-formed JSON, but the checksum no longer verifies.
        let flipped = line.replace("\"cycles\":7", "\"cycles\":8");
        assert_ne!(flipped, line);
        assert_eq!(
            parse_cell_line(&flipped, false),
            Line::Corrupt,
            "a silent payload flip must not be served"
        );
        // And a flipped line mid-file is counted as corruption.
        let store = open_with("bitflip", format!("{line}{flipped}").as_bytes());
        assert_eq!(store.len(), 1);
        assert_eq!(store.get("aa"), Some(s));
        assert_eq!(store.corrupt(), 1);
    }

    #[test]
    fn legacy_v1_lines_without_checksum_still_load() {
        let s = stats(11);
        let line = cell_line(&entry("old", &s));
        let v1 = legacy_line(&line);
        assert!(!v1.contains("\"ck\""));
        assert_eq!(cell_of(&v1), ("old".to_string(), s));
        // A v2 line with the checksum chopped off is damage, not legacy.
        let chopped = format!(
            "{}}}\n",
            line.trim_end()
                .split(",\"ck\":\"")
                .next()
                .expect("has a ck suffix")
        );
        assert_eq!(parse_cell_line(&chopped, false), Line::Corrupt);
        let store = open_with("legacy", format!("{v1}{chopped}").as_bytes());
        assert_eq!(store.len(), 1, "v1 loads; chopped v2 does not");
        assert_eq!(store.corrupt(), 1, "the chopped v2 line is corruption");
    }

    #[test]
    fn mid_file_garbage_is_skipped_and_counted() {
        let s = stats(3);
        let good = cell_line(&entry("aa", &s));
        let good2 = cell_line(&entry("bb", &s));
        let content = format!(
            "{{\"kind\":\"meta\",\"version\":1,\"crate_version\":\"0.0.0\"}}\n\
             {good}\
             not json at all\n\
             {{\"kind\":\"cell\",\"version\":1,\"fp\":\"tr\",\"cycles\":9\n\
             {{\"kind\":\"cell\",\"version\":99,\"fp\":\"zz\",\"cycles\":1}}\n\
             {good2}"
        );
        let store = open_with("garbage", content.as_bytes());
        assert_eq!(store.len(), 2, "both intact cells survive");
        assert_eq!(store.get("aa"), Some(s.clone()));
        assert!(store.get("bb").is_some());
        // "not json at all" and the *mid-file* truncated cell are corrupt;
        // the meta record and the foreign-version cell are expected skips.
        assert_eq!(store.corrupt(), 2);
    }

    #[test]
    fn fuzzed_corruption_never_errors_and_keeps_intact_records() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut r = StdRng::seed_from_u64(0x10ad_f00d);
        for case in 0..64u32 {
            // Build a valid segment of a few cells...
            let n = r.gen_range(1..6usize);
            let mut lines: Vec<String> = vec![meta_line()];
            let mut fps = Vec::new();
            for i in 0..n {
                let s = stats(r.gen_range(0..1000));
                let fp = format!("fp{case}-{i}");
                lines.push(cell_line(&entry(&fp, &s)));
                fps.push(fp);
            }
            // ...then smash it: mutate, truncate, or inject garbage lines.
            let mut damaged: Vec<String> = Vec::new();
            let mut intact: Vec<usize> = Vec::new();
            for (idx, line) in lines.iter().enumerate() {
                match r.gen_range(0..4u32) {
                    // Keep the line intact.
                    0 | 1 => {
                        if idx > 0 {
                            intact.push(idx - 1);
                        }
                        damaged.push(line.clone());
                    }
                    // Truncate it mid-record.
                    2 => {
                        let mut cut_at = r.gen_range(1..line.len());
                        while !line.is_char_boundary(cut_at) {
                            cut_at -= 1;
                        }
                        damaged.push(format!("{}\n", &line[..cut_at].trim_end()));
                    }
                    // Replace it with random bytes (printable, so the
                    // line structure survives; binary junk is covered by
                    // the truncation arm losing the closing brace).
                    _ => {
                        let len = r.gen_range(1..40usize);
                        let junk: String =
                            (0..len).map(|_| r.gen_range(b'#'..b'z') as char).collect();
                        damaged.push(format!("{junk}\n"));
                    }
                }
            }
            // Opening must never error, and every intact cell must load.
            let store = open_with(&format!("fuzz-{case}"), damaged.concat().as_bytes());
            for &i in &intact {
                if i < fps.len() {
                    assert!(
                        store.get(&fps[i]).is_some(),
                        "case {case}: intact cell {} must survive corruption",
                        fps[i]
                    );
                }
            }
            assert!(store.len() <= n, "case {case}: no phantom cells");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 512, ..proptest::ProptestConfig::default() })]

        #[test]
        fn arbitrary_lines_classify_without_panicking(seed in proptest::prelude::any::<u64>()) {
            let bytes = crate::json::tests::jsonish_bytes(seed, 320);
            let line = String::from_utf8_lossy(&bytes);
            parse_cell_line(&line, false);
            parse_cell_line(&line, true);
            // A real line with one arbitrary byte spliced in is never
            // served with different stats.
            let s = stats(seed % 1000);
            let good = cell_line(&entry("fz", &s));
            let at = (seed as usize / 7) % good.len();
            let mut smashed = good.clone().into_bytes();
            smashed[at] = bytes.first().copied().unwrap_or(b'x');
            let smashed = String::from_utf8_lossy(&smashed);
            if let Line::Cell(_, got) = parse_cell_line(&smashed, false) {
                proptest::prop_assert_eq!(got, s);
            }
        }
    }
}
