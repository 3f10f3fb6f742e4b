//! Direct-mapped caches.
//!
//! The paper's memory system: 64K direct-mapped instruction and data
//! caches with 64-byte blocks; the data cache is write-through with no
//! write-allocate; miss penalty 12 cycles.

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Miss penalty in cycles.
    pub miss_penalty: u32,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            size: 64 * 1024,
            line: 64,
            miss_penalty: 12,
        }
    }
}

/// A direct-mapped cache with per-line valid+tag state.
///
/// Counter discipline: `hits`/`misses` classify *demand reads* only
/// (loads and instruction fetches — the accesses that can stall the
/// pipeline). Write-through writes that find their line present are
/// tallied separately in `write_hits`; mixing them into `hits` would
/// dilute [`Cache::miss_rate`] with accesses that never miss by
/// construction (write-no-allocate writes to absent lines are not
/// demand misses — they retire through the write buffer).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    tags: Vec<Option<u64>>,
    /// Demand reads that hit.
    hits: u64,
    /// Demand reads that missed (and filled the line).
    misses: u64,
    /// Write-through writes that found their line present (updated in
    /// place). Not part of the demand-read miss rate.
    write_hits: u64,
}

impl Cache {
    /// Creates a cold cache.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.size.is_multiple_of(config.line),
            "size must be a multiple of line"
        );
        let lines = (config.size / config.line) as usize;
        assert!(lines.is_power_of_two(), "line count must be 2^k");
        Cache {
            config,
            tags: vec![None; lines],
            hits: 0,
            misses: 0,
            write_hits: 0,
        }
    }

    #[inline]
    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line;
        let idx = (line as usize) & (self.tags.len() - 1);
        (idx, line)
    }

    /// Read access (load or instruction fetch): returns `true` on a miss,
    /// filling the line.
    pub fn read(&mut self, addr: u64) -> bool {
        let (idx, tag) = self.index_tag(addr);
        if self.tags[idx] == Some(tag) {
            self.hits += 1;
            false
        } else {
            self.misses += 1;
            self.tags[idx] = Some(tag);
            true
        }
    }

    /// Counts a demand read its caller knows hits: one from the line the
    /// previous read filled or found, with nothing touching the cache in
    /// between. Same effect as [`Cache::read`] there, without the lookup.
    pub(crate) fn hit(&mut self) {
        self.hits += 1;
    }

    /// Write access: write-through, no write-allocate. Never stalls
    /// (writes retire through a buffer), never fills.
    pub fn write(&mut self, addr: u64) {
        let (idx, tag) = self.index_tag(addr);
        // Write-through keeps a present line up to date; an absent line is
        // not allocated.
        if self.tags[idx] == Some(tag) {
            self.write_hits += 1;
        }
    }

    /// The configured miss penalty.
    pub fn miss_penalty(&self) -> u32 {
        self.config.miss_penalty
    }

    /// Demand reads that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand reads that missed (and filled the line).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Write-through writes that found their line present.
    pub fn write_hits(&self) -> u64 {
        self.write_hits
    }

    /// Miss rate over demand reads (write traffic excluded).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size: 256,
            line: 64,
            miss_penalty: 12,
        })
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = small();
        assert!(c.read(0));
        assert!(!c.read(8));
        assert!(!c.read(63));
        assert!(c.read(64));
        assert_eq!(c.misses, 2);
        assert_eq!(c.hits, 2);
    }

    #[test]
    fn conflict_eviction() {
        let mut c = small(); // 4 lines
        assert!(c.read(0));
        assert!(c.read(256)); // same index as 0
        assert!(c.read(0)); // evicted
    }

    #[test]
    fn writes_do_not_allocate() {
        let mut c = small();
        c.write(0);
        assert!(c.read(0), "write-no-allocate: line still cold");
    }

    #[test]
    fn write_hits_do_not_dilute_read_miss_rate() {
        let mut c = small();
        assert!(c.read(0)); // miss, fills the line
        assert!(!c.read(8)); // hit
                             // A storm of write hits to the cached line must not change the
                             // demand-read miss rate (historically each one bumped `hits`,
                             // shrinking miss_rate toward 0).
        for _ in 0..1000 {
            c.write(16);
        }
        c.write(512); // absent line: no allocate, no counter
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.write_hits(), 1000);
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn whole_working_set_fits() {
        let mut c = Cache::new(CacheConfig::default());
        for addr in (0..64 * 1024).step_by(64) {
            c.read(addr);
        }
        for addr in (0..64 * 1024).step_by(64) {
            assert!(!c.read(addr), "second sweep must hit");
        }
    }
}
