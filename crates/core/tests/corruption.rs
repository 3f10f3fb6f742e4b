//! Property fuzz over damaged stores (run journals are stores too):
//! random byte corruption and truncation injected into segment files.
//! The reader must never panic, must count corrupt lines exactly, must
//! keep serving every undamaged record bit-identically — and must never
//! serve a damaged one (the checksum suffix catches what JSON-shape
//! validation alone cannot).

use hyperpred::{JournalEntry, Store};
use hyperpred_sim::SimStats;
use proptest::prelude::*;
use std::path::PathBuf;

const CELLS: u64 = 6;

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn stats_for(i: u64) -> SimStats {
    SimStats {
        cycles: 5_000 + i * 17,
        insts: 9_000 + i * 11,
        nullified: i % 4,
        branches: 200 + i,
        mispredicts: i % 2,
        loads: 60 + i * 3,
        stores: 30 + i,
        icache_misses: 0,
        dcache_misses: 0,
        ret: i as i64 * 2,
    }
}

fn fp_for(i: u64) -> String {
    format!("v1|fuzz{:016x}|wl-{}|fuzztest", i * 0x6c62272e, i)
}

fn entry<'a>(fp: &'a str, stats: &'a SimStats) -> JournalEntry<'a> {
    JournalEntry {
        fingerprint: fp,
        workload: "wl",
        experiment: "fuzz-test",
        model: None,
        stats,
    }
}

/// Writes a fresh single-segment store with [`CELLS`] records; returns
/// (dir, segment file, its content). Line 0 is the meta line; cell `i`
/// is line `i + 1`.
fn build_segment(name: &str) -> (PathBuf, PathBuf, String) {
    let dir = tmpdir(name);
    let seg = {
        let store = Store::open(&dir).expect("open store");
        for i in 0..CELLS {
            let fp = fp_for(i);
            store.put(&entry(&fp, &stats_for(i))).expect("put");
        }
        store.sync().expect("sync");
        store.segment_path().expect("the puts created a segment")
    };
    let content = std::fs::read_to_string(&seg).expect("read segment");
    (dir, seg, content)
}

/// Flips one ASCII digit of cell line `victim` to a different digit,
/// skipping the schema-version digit (changing the version makes the
/// line a *foreign* cell, which is an expected skip, not corruption).
/// Returns the damaged whole-file content.
fn flip_digit(content: &str, victim: u64, pos_seed: u64, delta: u64) -> String {
    let mut lines: Vec<String> = content.lines().map(str::to_string).collect();
    let line = &lines[victim as usize + 1];
    let version_at = line.find("\"version\":").expect("version field") + "\"version\":".len();
    let digits: Vec<usize> = line
        .char_indices()
        .filter(|&(i, c)| c.is_ascii_digit() && i != version_at)
        .map(|(i, _)| i)
        .collect();
    let pos = digits[pos_seed as usize % digits.len()];
    let old = line.as_bytes()[pos] - b'0';
    let new = (u64::from(old) + delta) % 10;
    let mut bytes = line.clone().into_bytes();
    bytes[pos] = new as u8 + b'0';
    lines[victim as usize + 1] = String::from_utf8(bytes).expect("still utf-8");
    format!("{}\n", lines.join("\n"))
}

/// Byte offset one past the end (including newline) of each line.
fn line_ends(content: &str) -> Vec<usize> {
    content
        .char_indices()
        .filter(|&(_, c)| c == '\n')
        .map(|(i, _)| i + 1)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn segment_digit_flip_is_caught_exactly(
        victim in 0u64..CELLS,
        pos_seed in any::<u64>(),
        delta in 1u64..10,
    ) {
        let (dir, seg, content) = build_segment("fuzz-seg-flip");
        std::fs::write(&seg, flip_digit(&content, victim, pos_seed, delta))
            .expect("write damage");

        let store = Store::open(&dir).expect("open never fails on damage");
        prop_assert_eq!(store.corrupt(), 1, "exactly the flipped line is corrupt");
        prop_assert!(
            store.get(&fp_for(victim)).is_none(),
            "a checksum-failing record must never be served"
        );
        for i in (0..CELLS).filter(|&i| i != victim) {
            prop_assert_eq!(store.get(&fp_for(i)), Some(stats_for(i)));
        }
    }

    #[test]
    fn segment_truncation_loses_only_the_tail(cut_seed in any::<u64>()) {
        let (dir, seg, content) = build_segment("fuzz-seg-trunc");
        let cut = cut_seed as usize % (content.len() + 1);
        std::fs::write(&seg, &content.as_bytes()[..cut]).expect("truncate");

        let ends = line_ends(&content);
        let store = Store::open(&dir).expect("open never fails on truncation");
        prop_assert_eq!(store.corrupt(), 0, "a torn tail is expected, not corruption");
        for i in 0..CELLS {
            let intact = ends[i as usize + 1] <= cut;
            prop_assert_eq!(
                store.get(&fp_for(i)),
                intact.then(|| stats_for(i)),
                "cell {} must survive iff its line is fully on disk (cut {})",
                i,
                cut
            );
        }
    }

    #[test]
    fn segment_random_damage_never_panics_or_lies(
        pos_seed in any::<u64>(),
        value in any::<u8>(),
    ) {
        let (dir, seg, content) = build_segment("fuzz-seg-byte");
        let pos = pos_seed as usize % content.len();
        let mut bytes = content.clone().into_bytes();
        bytes[pos] = value;
        std::fs::write(&seg, &bytes).expect("write damage");

        let store = Store::open(&dir).expect("open never fails on damage");
        prop_assert!(store.len() as u64 <= CELLS, "damage can never invent records");
        // Safety: anything served is bit-identical to what was written.
        for i in 0..CELLS {
            if let Some(served) = store.get(&fp_for(i)) {
                prop_assert_eq!(served, stats_for(i));
            }
        }
        // Liveness: a line whose bytes (and the newline guarding its
        // start) are untouched is still served.
        let ends = line_ends(&content);
        for i in 0..CELLS {
            let start = ends[i as usize];
            let end = ends[i as usize + 1];
            if !(start..end).contains(&pos) && pos != start.wrapping_sub(1) {
                prop_assert_eq!(store.get(&fp_for(i)), Some(stats_for(i)));
            }
        }
    }
}
