//! Output checks. Every run compares what the program produced with an
//! answer it did not produce itself: the committed tables, the committed
//! `SimStats` goldens, or an independent in-process computation.

use crate::wire::Stats;
use std::collections::HashMap;

/// `figures` stdout must equal the committed tables byte for byte.
pub fn tables(actual: &str, expected: &str) -> Result<(), String> {
    if actual == expected {
        return Ok(());
    }
    let (n, a, e) = actual
        .lines()
        .zip(expected.lines())
        .enumerate()
        .find(|(_, (a, e))| a != e)
        .map(|(i, (a, e))| (i + 1, a, e))
        .unwrap_or((
            actual.lines().count().min(expected.lines().count()) + 1,
            "<end or trailing bytes>",
            "<end or trailing bytes>",
        ));
    Err(format!(
        "figures tables differ from the expected file at line {n}:\n  got:  {a}\n  want: {e}"
    ))
}

/// The committed `SimStats` of the paper matrix, keyed by
/// `(figure title, workload, baseline|model slug)`, in the line format
/// `tests/simstats_golden.rs` writes.
pub struct Golden(HashMap<(String, String, String), String>);

impl Golden {
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut map = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            let mut parts = line.splitn(4, '|');
            let (Some(exp), Some(wl), Some(who), Some(fields)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("golden line {} is malformed: {line:?}", i + 1));
            };
            map.insert((exp.into(), wl.into(), who.into()), fields.to_string());
        }
        Ok(Golden(map))
    }

    /// `stats` must equal the golden line of `(exp, workload, who)`.
    pub fn check(&self, exp: &str, workload: &str, who: &str, stats: &Stats) -> Result<(), String> {
        let key = (exp.to_string(), workload.to_string(), who.to_string());
        let got = stats.golden_fields();
        match self.0.get(&key) {
            Some(want) if *want == got => Ok(()),
            Some(want) => Err(format!(
                "{exp}|{workload}|{who}: replayed {got}, golden {want}"
            )),
            None => Err(format!("{exp}|{workload}|{who}: no golden line")),
        }
    }
}

/// Every `hit` or `computed` answer for one fingerprint must carry the
/// same stats, across prefill, warm-up and measured traffic.
#[derive(Default)]
pub struct Consistency(HashMap<String, Stats>);

impl Consistency {
    pub fn observe(&mut self, fingerprint: &str, stats: &Stats) -> Result<(), String> {
        match self.0.get(fingerprint) {
            Some(seen) if seen == stats => Ok(()),
            Some(seen) => Err(format!(
                "fingerprint {fingerprint}: answered {} after {}",
                stats.golden_fields(),
                seen.golden_fields()
            )),
            None => {
                self.0.insert(fingerprint.to_string(), *stats);
                Ok(())
            }
        }
    }
}

/// The seeded 1-in-50 sample of cells whose answers are recomputed in
/// process. Cell 0 is always in it, so short runs check at least one.
pub fn sampled(seed: u64, index: usize) -> bool {
    // splitmix64 finalizer over the seed and the cell index.
    let mut z = seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    index == 0 || z.is_multiple_of(50)
}

/// Served stats must equal the in-process answer for the same request.
pub fn same_answer(what: &str, served: &Stats, in_process: &Stats) -> Result<(), String> {
    if served == in_process {
        Ok(())
    } else {
        Err(format!(
            "{what}: daemon answered {}, in-process run_request gives {}",
            served.golden_fields(),
            in_process.golden_fields()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Changes the first digit of `s` to another digit.
    fn bump_digit(s: &str) -> String {
        let i = s.find(|c: char| c.is_ascii_digit()).expect("has a digit");
        let d = s.as_bytes()[i] - b'0';
        format!("{}{}{}", &s[..i], (d + 1) % 10, &s[i + 1..])
    }

    fn stats() -> Stats {
        Stats {
            cycles: 1579153,
            insts: 1260137,
            branches: 414479,
            mispredicts: 55083,
            loads: 52121,
            ret: 12720,
            ..Stats::default()
        }
    }

    #[test]
    fn tables_check_fails_on_a_one_digit_change() {
        let expected = include_str!("../expected/figures_full.txt");
        assert!(tables(expected, expected).is_ok());
        // A digit inside the first speedup table.
        let at = expected.find("1.").expect("a speedup");
        let perturbed = format!("{}{}", &expected[..at], bump_digit(&expected[at..]));
        let err = tables(&perturbed, expected).unwrap_err();
        assert!(err.contains("line"), "{err}");
        assert!(tables(&format!("{expected}\n"), expected).is_err());
    }

    #[test]
    fn golden_check_fails_on_a_one_digit_change() {
        let exp = "Figure 8: 8-issue, 1-branch, perfect caches";
        let line = format!("{exp}|espresso|baseline|{}", stats().golden_fields());
        let golden = Golden::parse(&line).unwrap();
        assert!(golden.check(exp, "espresso", "baseline", &stats()).is_ok());
        let bumped = Golden::parse(&format!(
            "{exp}|espresso|baseline|{}",
            bump_digit(&stats().golden_fields())
        ))
        .unwrap();
        assert!(bumped.check(exp, "espresso", "baseline", &stats()).is_err());
        assert!(golden.check(exp, "espresso", "fullpred", &stats()).is_err());
        assert!(Golden::parse("no separators").is_err());
    }

    #[test]
    fn committed_golden_files_parse_in_place() {
        for text in [
            include_str!("../../tests/golden/simstats_full_scale.txt"),
            include_str!("../../tests/golden/simstats_test_scale.txt"),
        ] {
            assert_eq!(Golden::parse(text).unwrap().0.len(), 240);
        }
    }

    #[test]
    fn sample_is_seeded_and_about_one_in_fifty() {
        let picked = |seed| {
            (0..10_000)
                .filter(|&i| sampled(seed, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(picked(1), picked(1));
        assert_ne!(picked(1), picked(2));
        assert!(picked(1).contains(&0));
        assert!(
            (150..=250).contains(&picked(1).len()),
            "{}",
            picked(1).len()
        );
    }

    #[test]
    fn service_checks_fail_on_a_one_digit_change() {
        let mut c = Consistency::default();
        assert!(c.observe("fp", &stats()).is_ok());
        assert!(c.observe("fp", &stats()).is_ok());
        let mut off = stats();
        off.cycles += 1;
        assert!(c.observe("fp", &off).is_err());
        assert!(c.observe("other", &off).is_ok());
        assert!(same_answer("cell 3", &stats(), &stats()).is_ok());
        assert!(same_answer("cell 3", &off, &stats()).is_err());
    }
}
