//! Differential test of [`Cache`] against the straightforward model it
//! replaced: tags as `Option<u64>`, the tag split recomputed on every
//! access, and no shortcut for repeated lines.
//!
//! Random access streams run on both from the same seed and geometry.
//! Addresses cluster in a few sets with more distinct tags than ways, so
//! random eviction runs often, and many accesses repeat the previous line,
//! the case the cache answers without a set lookup. Every access must hit
//! or miss alike, the counters must agree after every step, `save` must
//! write the same bytes, and a cache restored mid-stream (from either
//! side's bytes, also over a cache that has run on since) must carry on
//! exactly like the original.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use riscv_sim::snapshot::{ByteReader, ByteWriter};
use riscv_sim::SnapshotError;
use rocket_sim::{Cache, CacheConfig, CacheStats};

/// The reference: the cache as it was written before the flat tag array.
#[derive(Clone)]
struct Model {
    config: CacheConfig,
    line_shift: u32,
    set_mask: u64,
    tags: Vec<Option<u64>>,
    rng: u64,
    stats: CacheStats,
}

impl Model {
    fn new(config: CacheConfig, seed: u64) -> Self {
        let sets = config.size_bytes / (config.ways * config.line_bytes);
        Model {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            tags: vec![None; (sets * config.ways) as usize],
            rng: seed | 1,
            stats: CacheStats::default(),
        }
    }

    fn next_random(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let ways = self.config.ways as usize;
        let base = set * ways;
        for way in 0..ways {
            if self.tags[base + way] == Some(tag) {
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        let victim = (0..ways)
            .find(|&w| self.tags[base + w].is_none())
            .unwrap_or_else(|| (self.next_random() % ways as u64) as usize);
        self.tags[base + victim] = Some(tag);
        false
    }

    fn reset(&mut self) {
        self.tags.fill(None);
        self.stats = CacheStats::default();
    }

    fn save(&self, w: &mut ByteWriter) {
        w.u64(self.tags.len() as u64);
        for tag in &self.tags {
            match tag {
                None => w.bool(false),
                Some(tag) => {
                    w.bool(true);
                    w.u64(*tag);
                }
            }
        }
        w.u64(self.rng);
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
    }

    fn load(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapshotError> {
        if r.u64()? != self.tags.len() as u64 {
            return Err(SnapshotError::Malformed(
                "cache snapshot geometry does not match",
            ));
        }
        for tag in &mut self.tags {
            *tag = if r.bool()? { Some(r.u64()?) } else { None };
        }
        self.rng = r.u64()?;
        self.stats = CacheStats {
            hits: r.u64()?,
            misses: r.u64()?,
        };
        Ok(())
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// An access to `tag` in set `set` at byte `offset` of the line.
    Clustered {
        set: u64,
        tag: u64,
        offset: u64,
    },
    /// Another access to the previous access's line.
    SameLine {
        offset: u64,
    },
    /// An access anywhere in the address space.
    Anywhere {
        addr: u64,
    },
    /// Compare `save` bytes and keep them as the checkpoint.
    Save,
    /// Rewind both to the checkpoint, loaded crosswise: the cache from the
    /// model's bytes, the model from the cache's.
    Reload,
    Reset,
}

/// Geometries: Rocket's L1, and two small ones whose few sets and ways
/// evict constantly.
const GEOMETRIES: [CacheConfig; 3] = [
    CacheConfig {
        size_bytes: 16 * 1024,
        ways: 4,
        line_bytes: 64,
    },
    CacheConfig {
        size_bytes: 256,
        ways: 2,
        line_bytes: 32,
    },
    CacheConfig {
        size_bytes: 64,
        ways: 4,
        line_bytes: 16,
    },
];

fn op() -> impl Strategy<Value = Op> {
    // Accesses are listed twice to draw them more often than the rest.
    prop_oneof![
        (0u64..3, 0u64..7, any::<u64>()).prop_map(|(set, tag, offset)| Op::Clustered {
            set,
            tag,
            offset
        }),
        (0u64..3, 0u64..7, any::<u64>()).prop_map(|(set, tag, offset)| Op::Clustered {
            set,
            tag,
            offset
        }),
        any::<u64>().prop_map(|offset| Op::SameLine { offset }),
        any::<u64>().prop_map(|offset| Op::SameLine { offset }),
        prop_oneof![any::<u64>(), u64::MAX - 256..u64::MAX].prop_map(|addr| Op::Anywhere { addr }),
        Just(Op::Save),
        Just(Op::Reload),
        Just(Op::Reset),
    ]
}

fn saved(save: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    save(&mut w);
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    #[test]
    fn cache_matches_the_option_tag_model(
        config in select(GEOMETRIES.to_vec()),
        seed in any::<u64>(),
        ops in vec(op(), 1..400),
    ) {
        let sets = config.size_bytes / (config.ways * config.line_bytes);
        let mut cache = Cache::new(config, seed);
        let mut model = Model::new(config, seed);
        let mut previous = 0u64;
        let mut checkpoint = (saved(|w| cache.save(w)), saved(|w| model.save(w)));
        for (step, op) in ops.into_iter().enumerate() {
            let addr = match op {
                Op::Clustered { set, tag, offset } => Some(
                    (tag * sets + set % sets) * config.line_bytes + offset % config.line_bytes,
                ),
                Op::SameLine { offset } => {
                    Some((previous & !(config.line_bytes - 1)) | (offset % config.line_bytes))
                }
                Op::Anywhere { addr } => Some(addr),
                Op::Save => {
                    checkpoint = (saved(|w| cache.save(w)), saved(|w| model.save(w)));
                    prop_assert_eq!(&checkpoint.0, &checkpoint.1);
                    None
                }
                Op::Reload => {
                    let (from_cache, from_model) = &checkpoint;
                    cache.load(&mut ByteReader::new(from_model)).unwrap();
                    model.load(&mut ByteReader::new(from_cache)).unwrap();
                    None
                }
                Op::Reset => {
                    cache.reset();
                    model.reset();
                    None
                }
            };
            if let Some(addr) = addr {
                let (hit, expected) = (cache.access(addr), model.access(addr));
                prop_assert_eq!(hit, expected, "step {} at {:#x}", step, addr);
                previous = addr;
            }
            prop_assert_eq!(cache.stats(), model.stats, "after step {}", step);
        }
        prop_assert_eq!(saved(|w| cache.save(w)), saved(|w| model.save(w)));
    }
}

#[test]
fn a_valid_all_ones_tag_is_rejected() {
    let config = CacheConfig::rocket_l1();
    let mut model = Model::new(config, 1);
    model.tags[0] = Some(u64::MAX);
    let bytes = saved(|w| model.save(w));
    let mut cache = Cache::new(config, 1);
    assert_eq!(
        cache.load(&mut ByteReader::new(&bytes)),
        Err(SnapshotError::Malformed("cache tag out of range"))
    );
}
