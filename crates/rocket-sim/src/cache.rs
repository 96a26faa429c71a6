//! Set-associative L1 cache model with random replacement.
//!
//! The paper notes that "due to cache random replacement policy, Rocket chip
//! computes the number of cycles nondeterministically" and argues that
//! averaging over many samples still yields statistically meaningful
//! results. This model reproduces that property deterministically: the
//! random victim choice comes from a seeded xorshift generator, so a given
//! seed replays exactly while different seeds exhibit the same spread the
//! paper describes.

use riscv_sim::snapshot::{ByteReader, ByteWriter};
use riscv_sim::SnapshotError;

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Rocket's default 16 KiB, 4-way, 64-byte-line L1.
    #[must_use]
    pub fn rocket_l1() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    fn sets(&self) -> u64 {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::rocket_l1()
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in [0, 1]; 1 for an untouched cache.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// Tag value of an invalid way, and line number of no access. Lines are at
/// least two bytes, so line numbers and tags (addresses shifted right by
/// at least one bit) never reach it.
const INVALID: u64 = u64::MAX;

/// A tag-only set-associative cache with random replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    line_shift: u32,
    /// `line_shift` plus the set-index width: `addr >> tag_shift` is the tag.
    tag_shift: u32,
    set_mask: u64,
    /// `tags[set * ways + way]`, [`INVALID`] for an empty way.
    tags: Vec<u64>,
    /// Line number of the previous access ([`INVALID`] if none since the
    /// last reset or load). That line is resident: the access either hit
    /// it or filled it, and only a miss evicts. Not part of snapshots.
    last_line: u64,
    rng: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two split, or lines are
    /// one byte.
    #[must_use]
    pub fn new(config: CacheConfig, seed: u64) -> Self {
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(config.line_bytes.is_power_of_two(), "line size must be a power of two");
        // Keeps every line number and tag below `INVALID`.
        assert!(config.line_bytes > 1, "a line must hold at least two bytes");
        let line_shift = config.line_bytes.trailing_zeros();
        Cache {
            config,
            line_shift,
            tag_shift: line_shift + sets.trailing_zeros(),
            set_mask: sets - 1,
            tags: vec![INVALID; (sets * config.ways) as usize],
            last_line: INVALID,
            rng: seed | 1, // xorshift must not start at zero
            stats: CacheStats::default(),
        }
    }

    fn next_random(&mut self) -> u64 {
        // xorshift64: deterministic, cheap, well-distributed enough for
        // victim selection.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Performs one access; returns true on hit. Misses fill the line
    /// (allocate-on-miss for both reads and writes).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        if line == self.last_line {
            self.stats.hits += 1;
            return true;
        }
        self.last_line = line;
        self.access_set(addr, line)
    }

    /// Looks `addr` up in its set, filling it on a miss.
    fn access_set(&mut self, addr: u64, line: u64) -> bool {
        let tag = addr >> self.tag_shift;
        let ways = self.config.ways as usize;
        let base = (line & self.set_mask) as usize * ways;
        let set = &self.tags[base..base + ways];
        if set.contains(&tag) {
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // Prefer an invalid way; otherwise evict a random victim.
        let victim = match set.iter().position(|&t| t == INVALID) {
            Some(way) => way,
            None => (self.next_random() % ways as u64) as usize,
        };
        self.tags[base + victim] = tag;
        false
    }

    /// The counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidates all lines and clears statistics (seed preserved).
    pub fn reset(&mut self) {
        self.tags.fill(INVALID);
        self.last_line = INVALID;
        self.stats = CacheStats::default();
    }

    /// Appends tag array, generator state, and counters to a snapshot
    /// body. Restoring them reproduces the exact future victim sequence,
    /// so a resumed run's `rdcycle` values match the uninterrupted run
    /// bit-for-bit. The geometry is not saved.
    pub fn save(&self, w: &mut ByteWriter) {
        w.u64(self.tags.len() as u64);
        for &tag in &self.tags {
            w.bool(tag != INVALID);
            if tag != INVALID {
                w.u64(tag);
            }
        }
        w.u64(self.rng);
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
    }

    /// Reads back state written by [`Cache::save`] from a cache of the
    /// same geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation, a tag array that does not
    /// fit this cache's geometry, or a valid way holding the all-ones tag
    /// (no address produces it).
    pub fn load(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapshotError> {
        if r.u64()? != self.tags.len() as u64 {
            return Err(SnapshotError::Malformed(
                "cache snapshot geometry does not match",
            ));
        }
        for tag in &mut self.tags {
            *tag = INVALID;
            if r.bool()? {
                *tag = r.u64()?;
                if *tag == INVALID {
                    return Err(SnapshotError::Malformed("cache tag out of range"));
                }
            }
        }
        self.last_line = INVALID;
        self.rng = r.u64()?;
        self.stats = CacheStats {
            hits: r.u64()?,
            misses: r.u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = Cache::new(CacheConfig::rocket_l1(), 1);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1038), "same 64-byte line");
        assert!(!c.access(0x1040), "next line");
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn associativity_holds_conflicting_lines() {
        let mut c = Cache::new(CacheConfig::rocket_l1(), 1);
        // 64 sets * 64-byte lines => same set every 4096 bytes.
        for i in 0..4u64 {
            assert!(!c.access(0x1000 + i * 4096));
        }
        for i in 0..4u64 {
            assert!(c.access(0x1000 + i * 4096), "all four ways resident");
        }
        // A fifth conflicting line must evict someone.
        assert!(!c.access(0x1000 + 4 * 4096));
        let survivors = (0..5u64)
            .filter(|i| {
                let mut probe = c.clone();
                probe.access(0x1000 + i * 4096)
            })
            .count();
        assert_eq!(survivors, 4);
    }

    #[test]
    fn replacement_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut c = Cache::new(CacheConfig::rocket_l1(), seed);
            // Thrash one set, then record the exact hit pattern.
            let pattern: Vec<bool> = (0..64u64)
                .map(|i| c.access(0x1000 + (i % 8) * 4096))
                .collect();
            pattern
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(1), run(99), "different seeds shuffle victims");
    }

    #[test]
    fn stats_hit_rate() {
        let mut c = Cache::new(CacheConfig::rocket_l1(), 7);
        assert_eq!(c.stats().hit_rate(), 1.0);
        c.access(0);
        c.access(0);
        assert_eq!(c.stats().hit_rate(), 0.5);
        c.reset();
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Cache::new(
            CacheConfig {
                size_bytes: 3000,
                ways: 3,
                line_bytes: 60,
            },
            1,
        );
    }
}
