//! Timing-only cache hierarchy with snoop write-invalidate coherence.
//!
//! Values live in the shared functional memory; caches track only tags
//! and LRU state to compute access latencies. This "timing-directed,
//! functional-first" split is sound here because every program the
//! simulator runs is properly synchronized by construction (MTCG
//! inserts synchronization for every inter-thread memory dependence),
//! so data values never depend on cache timing.
//!
//! # Sized to the memory image
//!
//! A [`Hierarchy`] is built for one program's memory image of `bytes`
//! bytes, and each [`Cache`] stores only the sets that image can reach:
//! `min(num_sets, ceil(bytes / line_bytes))`. The geometry (set count,
//! set index, tag, LRU order) stays the configured one; only storage
//! shrinks, and exactly so. Both engines check every load and store
//! against the functional [`Memory`](gmt_ir::interp::Memory) before it
//! reaches the hierarchy, so every address is below `bytes` and every
//! line number below `ceil(bytes / line_bytes)`. A line's set index
//! (its line number masked by, or taken modulo, `num_sets`) is never
//! larger than the line number, so no access touches a set that is not
//! stored, and no latency, hit level or counter differs from the
//! full-size cache. A generated program's image is under 1 KB, so its
//! simulations allocate and zero a few hundred entries, not the ≈ 17k
//! of the two-core Figure 6(a) hierarchy.

use crate::config::CacheConfig;

/// One set-associative, LRU, tag-only cache.
///
/// Storage is a flat `set * ways + way` array and the addr→(set, tag)
/// split is precomputed as shift/mask when the geometry is a power of
/// two (the common case), so the per-access cost is a masked shift and
/// one short linear scan — no divisions on the hot path.
#[derive(Clone, Debug)]
pub struct Cache {
    latency: u64,
    ways: usize,
    num_sets: u64,
    line_bytes: u64,
    /// `Some(shift)` when `line_bytes` is a power of two.
    line_shift: Option<u32>,
    /// `Some(mask)` when `num_sets` is a power of two.
    set_mask: Option<u64>,
    /// `tags[set * ways + way]`, holding `tag + 1` (0 = empty way), for
    /// the sets the memory image can reach (see the module doc).
    tags: Vec<u64>,
    lru: Vec<u64>,
    tick: u64,
    /// Statistics.
    pub hits: u64,
    /// Statistics.
    pub misses: u64,
}

fn pow2_log(v: u64) -> Option<u32> {
    (v > 0 && v.is_power_of_two()).then(|| v.trailing_zeros())
}

impl Cache {
    /// An empty cache with the given geometry that stores only the sets
    /// an address below `bytes` can map to (see the module doc). Pass
    /// `u64::MAX` for the full geometry.
    pub fn new(config: CacheConfig, bytes: u64) -> Cache {
        let ways = config.assoc as usize;
        let line_bytes = config.line_bytes.max(1);
        let sets = config.num_sets().min(bytes.div_ceil(line_bytes)) as usize;
        Cache {
            latency: config.latency,
            ways,
            num_sets: config.num_sets(),
            line_bytes,
            line_shift: pow2_log(line_bytes),
            set_mask: pow2_log(config.num_sets()).map(|s| (1u64 << s) - 1),
            tags: vec![0; sets * ways],
            lru: vec![0; sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = match self.line_shift {
            Some(s) => addr >> s,
            None => addr / self.line_bytes,
        };
        match self.set_mask {
            Some(m) => ((line & m) as usize, line >> m.count_ones()),
            None => ((line % self.num_sets) as usize, line / self.num_sets),
        }
    }

    /// Probes for `addr`; returns whether it hit, and touches LRU.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.ways;
        for way in base..base + self.ways {
            if self.tags[way] == tag + 1 {
                self.lru[way] = self.tick;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Fills the line containing `addr`, evicting the LRU way.
    pub fn fill(&mut self, addr: u64) {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.ways;
        // Already present (racing fill)?
        if self.tags[base..base + self.ways].contains(&(tag + 1)) {
            return;
        }
        // A zero-way cache (assoc 0 — rejected by `validate`, but this
        // type stays total anyway) simply never holds lines.
        let Some(victim) = (base..base + self.ways)
            .min_by_key(|&w| ((self.tags[w] != 0) as u64, self.lru[w]))
        else {
            return;
        };
        self.tags[victim] = tag + 1;
        self.lru[victim] = self.tick;
    }

    /// Invalidates the line containing `addr` (snoop hit from the other
    /// core's write). Returns whether a line was present.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.ways;
        for way in base..base + self.ways {
            if self.tags[way] == tag + 1 {
                self.tags[way] = 0;
                return true;
            }
        }
        false
    }

    /// The hit latency.
    pub fn latency(&self) -> u64 {
        self.latency
    }
}

/// The memory hierarchy of one machine: per-core private L1D/L2, a
/// shared L3, and main memory.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// Private (L1, L2) per core.
    pub private: Vec<(Cache, Cache)>,
    /// Shared L3.
    pub l3: Cache,
    mem_latency: u64,
}

/// Per-access outcome for statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitLevel {
    /// Served by the L1 data cache.
    L1,
    /// Served by the private L2.
    L2,
    /// Served by the shared L3.
    L3,
    /// Served by main memory.
    Memory,
}

impl Hierarchy {
    /// Builds the hierarchy for `cores` cores running a program whose
    /// memory image is `bytes` bytes; every access must be below it.
    pub fn new(cores: usize, config: &crate::config::MachineConfig, bytes: u64) -> Hierarchy {
        Hierarchy {
            private: (0..cores)
                .map(|_| (Cache::new(config.l1d, bytes), Cache::new(config.l2, bytes)))
                .collect(),
            l3: Cache::new(config.l3, bytes),
            mem_latency: config.mem_latency,
        }
    }

    /// A load by `core` at byte address `addr`: returns (latency, level).
    pub fn load(&mut self, core: usize, addr: u64) -> (u64, HitLevel) {
        let (l1, l2) = &mut self.private[core];
        if l1.access(addr) {
            return (l1.latency(), HitLevel::L1);
        }
        if l2.access(addr) {
            let lat = l1.latency() + l2.latency();
            self.private[core].0.fill(addr);
            return (lat, HitLevel::L2);
        }
        let (lat, level) = if self.l3.access(addr) {
            (self.l3.latency(), HitLevel::L3)
        } else {
            self.l3.fill(addr);
            (self.mem_latency, HitLevel::Memory)
        };
        let (l1, l2) = &mut self.private[core];
        l1.fill(addr);
        l2.fill(addr);
        (lat, level)
    }

    /// A store by `core`: write-through L1 with write-allocate in L2;
    /// snoop-invalidates the line in every other core's private caches.
    /// Stores retire through a store buffer, so the returned latency is
    /// the L1 latency regardless of where the line lives.
    pub fn store(&mut self, core: usize, addr: u64) -> u64 {
        for (other, (l1, l2)) in self.private.iter_mut().enumerate() {
            if other != core {
                l1.invalidate(addr);
                l2.invalidate(addr);
            }
        }
        let (l1, l2) = &mut self.private[core];
        if !l1.access(addr) {
            l1.fill(addr);
        }
        if !l2.access(addr) {
            l2.fill(addr);
        }
        if !self.l3.access(addr) {
            self.l3.fill(addr);
        }
        self.private[core].0.latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use gmt_testkit::{full_u64, prop_assert_eq, vec_of, Checker, Gen};

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(
            CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 64, latency: 1 },
            u64::MAX,
        );
        assert!(!c.access(0));
        c.fill(0);
        assert!(c.access(0));
        assert!(c.access(8), "same line");
        assert!(!c.access(64), "next line");
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn lru_eviction() {
        // 2-way set: fill three conflicting lines, first one evicted.
        let cfg = CacheConfig { size_bytes: 128, assoc: 2, line_bytes: 64, latency: 1 };
        assert_eq!(cfg.num_sets(), 1);
        let mut c = Cache::new(cfg, u64::MAX);
        c.fill(0);
        c.fill(64);
        assert!(c.access(0)); // touch 0 so 64 is LRU
        c.fill(128);
        assert!(c.access(0));
        assert!(!c.access(64), "LRU way evicted");
    }

    #[test]
    fn hierarchy_miss_then_hit() {
        let cfg = MachineConfig::default();
        let mut h = Hierarchy::new(2, &cfg, u64::MAX);
        let (lat, level) = h.load(0, 0x1000);
        assert_eq!(level, HitLevel::Memory);
        assert_eq!(lat, cfg.mem_latency);
        let (lat2, level2) = h.load(0, 0x1000);
        assert_eq!(level2, HitLevel::L1);
        assert_eq!(lat2, cfg.l1d.latency);
        // Other core misses its private caches but hits shared L3.
        let (_, level3) = h.load(1, 0x1000);
        assert_eq!(level3, HitLevel::L3);
    }

    #[test]
    fn store_invalidates_other_core() {
        let cfg = MachineConfig::default();
        let mut h = Hierarchy::new(2, &cfg, u64::MAX);
        let _ = h.load(0, 0x40);
        assert_eq!(h.load(0, 0x40).1, HitLevel::L1);
        h.store(1, 0x40);
        // Core 0's copy was invalidated; next load refetches below L1.
        assert_ne!(h.load(0, 0x40).1, HitLevel::L1);
    }

    #[test]
    fn zero_way_cache_never_holds_lines() {
        let mut c = Cache::new(
            CacheConfig { size_bytes: 0, assoc: 0, line_bytes: 0, latency: 1 },
            u64::MAX,
        );
        c.fill(0);
        assert!(!c.access(0));
        assert!(!c.invalidate(0));
    }

    #[test]
    fn invalidate_reports_presence() {
        let mut c = Cache::new(
            CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 64, latency: 1 },
            u64::MAX,
        );
        c.fill(0);
        assert!(c.invalidate(0));
        assert!(!c.invalidate(0));
    }

    fn tag_entries(h: &Hierarchy) -> usize {
        h.private.iter().map(|(l1, l2)| l1.tags.len() + l2.tags.len()).sum::<usize>()
            + h.l3.tags.len()
    }

    /// The Figure 6(a) machine for a 64-cell program: each level keeps
    /// the four or eight lines 512 bytes can reach, not its full array.
    #[test]
    fn a_small_image_stores_only_its_reachable_sets() {
        let cfg = MachineConfig::default();
        // L1 8 sets × 4 ways, L2 4 × 8, per core; L3 4 × 12.
        assert_eq!(tag_entries(&Hierarchy::new(2, &cfg, 64 * 8)), 2 * (32 + 32) + 48);
        // L1 64 × 4, L2 256 × 8, per core; L3 1024 × 12.
        assert_eq!(tag_entries(&Hierarchy::new(2, &cfg, u64::MAX)), 16_896);
        assert_eq!(tag_entries(&Hierarchy::new(2, &cfg, 0)), 0);
    }

    /// A cache level as three raw draws (sets, ways, line size).
    type Level = (u64, u64, u64);

    /// One cache level from its draws: 1–24 sets (powers of two and
    /// not), 1–4 ways and 1–96-byte lines.
    fn level((sets, ways, line): Level, latency: u64) -> CacheConfig {
        let (sets, assoc, line_bytes) = (1 + sets % 24, 1 + ways % 4, 1 + line % 96);
        CacheConfig { size_bytes: sets * assoc * line_bytes, assoc, line_bytes, latency }
    }

    /// The sizing is exact: a hierarchy built for `bytes` answers every
    /// access below `bytes` — latency, hit level, and each cache's hit
    /// and miss counters — exactly as the full-size one does, on random
    /// geometries with 1–4 cores and an image smaller than, equal to or
    /// larger than a cache.
    #[test]
    fn sized_hierarchy_matches_the_full_geometry() {
        let geometry: Gen<(Level, Level, Level)> = Gen::new(|rng| {
            let mut level = || (rng.next_u64(), rng.next_u64(), rng.next_u64());
            (level(), level(), level())
        });
        // (cores, which size, offset): the image size is drawn below,
        // at or above one of the three cache sizes.
        let image = Gen::new(|rng| (rng.next_u64(), rng.next_u64(), rng.next_u64()));
        let stream = vec_of(full_u64().zip(full_u64()), 1, 400);
        let input = geometry.zip(image).zip(stream);
        Checker::new("cache::sized_hierarchy_matches_the_full_geometry").cases(300).run(
            &input,
            |((levels, (cores, pick, offset)), accesses)| {
                let cfg = MachineConfig {
                    l1d: level(levels.0, 1),
                    l2: level(levels.1, 7),
                    l3: level(levels.2, 12),
                    ..MachineConfig::default()
                };
                let cores = 1 + (*cores % 4) as usize;
                let size = [cfg.l1d, cfg.l2, cfg.l3][(*pick % 3) as usize].size_bytes;
                let bytes = match (*pick / 3) % 3 {
                    0 => 1 + offset % size,
                    1 => size,
                    _ => size + 1 + offset % (2 * size),
                };
                let mut sized = Hierarchy::new(cores, &cfg, bytes);
                let mut full = Hierarchy::new(cores, &cfg, u64::MAX);
                for &(op, addr) in accesses {
                    let (core, addr) = (((op >> 1) % cores as u64) as usize, addr % bytes);
                    if op & 1 == 0 {
                        prop_assert_eq!(sized.load(core, addr), full.load(core, addr));
                    } else {
                        prop_assert_eq!(sized.store(core, addr), full.store(core, addr));
                    }
                }
                let counters = |h: &Hierarchy| {
                    let mut c: Vec<(u64, u64)> = h
                        .private
                        .iter()
                        .flat_map(|(l1, l2)| [(l1.hits, l1.misses), (l2.hits, l2.misses)])
                        .collect();
                    c.push((h.l3.hits, h.l3.misses));
                    c
                };
                prop_assert_eq!(counters(&sized), counters(&full));
                Ok(())
            },
        );
    }
}
