//! Randomized tests for the microarchitecture simulators, driven by the
//! repo's deterministic [`SmallRng`] rather than an external
//! property-testing framework.

use strata_arch::{ArchProfile, Btb, CacheConfig, CacheSim, CondPredictor, Ras};
use strata_stats::rng::SmallRng;

#[test]
fn cache_access_immediately_after_access_hits() {
    let mut rng = SmallRng::seed_from_u64(0xCAC4_0001);
    for _ in 0..50 {
        let mut c = CacheSim::new(CacheConfig {
            sets: 16,
            ways: 2,
            line_bytes: 32,
        });
        for _ in 0..rng.gen_range(1usize..200) {
            let a = rng.next_u32();
            c.access(a);
            assert!(
                c.access(a),
                "address {a:#x} must hit right after being brought in"
            );
        }
    }
}

/// Textbook LRU for the fast-path property: each set keeps its lines
/// ordered from most to least recently used.
struct RefLru {
    cfg: CacheConfig,
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl RefLru {
    fn new(cfg: CacheConfig) -> RefLru {
        RefLru {
            cfg,
            sets: vec![Vec::new(); cfg.sets as usize],
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u32) -> bool {
        let line = (addr / self.cfg.line_bytes) as u64;
        let set = &mut self.sets[(line % self.cfg.sets as u64) as usize];
        let hit = match set.iter().position(|&l| l == line) {
            Some(i) => {
                set.remove(i);
                true
            }
            None => {
                set.truncate(self.cfg.ways as usize - 1);
                false
            }
        };
        set.insert(0, line);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }
}

/// An address stream mixing repeated-line runs, set conflicts (more
/// lines than ways in one set), sequential fetch and random jumps.
fn cache_stream(rng: &mut SmallRng, cfg: CacheConfig, n: usize) -> Vec<u32> {
    let span = cfg.capacity() * 4;
    let stride = cfg.sets * cfg.line_bytes;
    let mut out = Vec::with_capacity(n + 64);
    let mut cur = rng.next_u32() % span;
    while out.len() < n {
        match rng.gen_range(0u32..5) {
            0 => {
                let line = cur & !(cfg.line_bytes - 1);
                for _ in 0..rng.gen_range(1u32..8) {
                    out.push(line + rng.gen_range(0..cfg.line_bytes));
                }
            }
            1 => {
                let base = rng.next_u32() % span;
                let lines = cfg.ways + 2;
                for _ in 0..rng.gen_range(1..3 * lines) {
                    out.push(base.wrapping_add(rng.gen_range(0..lines) * stride));
                }
            }
            2 => {
                cur = rng.next_u32() % span;
                out.push(cur);
            }
            3 => out.push(rng.next_u32()),
            _ => {
                cur = cur.wrapping_add(4);
                out.push(cur);
            }
        }
    }
    out
}

#[test]
fn cache_fast_path_matches_reference_lru() {
    let small = |ways| CacheConfig {
        sets: 8,
        ways,
        line_bytes: 16,
    };
    let mut geometries = vec![small(1), small(2), small(4)];
    for p in ArchProfile::all().into_iter().chain([ArchProfile::ideal()]) {
        geometries.extend([p.icache, p.dcache]);
    }
    let mut rng = SmallRng::seed_from_u64(0xCAC4_0003);
    for cfg in geometries {
        for _ in 0..20 {
            let mut fast = CacheSim::new(cfg);
            let mut naive = RefLru::new(cfg);
            let stream = cache_stream(&mut rng, cfg, 2000);
            for (i, &a) in stream.iter().enumerate() {
                assert_eq!(
                    fast.access(a),
                    naive.access(a),
                    "{cfg:?} access {i} at {a:#x}"
                );
            }
            assert_eq!((fast.hits(), fast.misses()), (naive.hits, naive.misses));
        }
        // The first access after construction is a miss, and a repeat of
        // it (the fast path's first chance) a hit.
        for a in [0, u32::MAX, rng.next_u32()] {
            let mut fast = CacheSim::new(cfg);
            assert!(!fast.access(a));
            assert!(fast.access(a));
            assert_eq!((fast.hits(), fast.misses()), (1, 1));
        }
    }
}

#[test]
fn cache_counters_are_consistent() {
    let mut rng = SmallRng::seed_from_u64(0xCAC4_0002);
    for _ in 0..50 {
        let mut c = CacheSim::new(CacheConfig {
            sets: 8,
            ways: 4,
            line_bytes: 16,
        });
        let n = rng.gen_range(0usize..500);
        for _ in 0..n {
            c.access(rng.next_u32());
        }
        assert_eq!(c.hits() + c.misses(), n as u64);
        let r = c.miss_ratio();
        assert!((0.0..=1.0).contains(&r));
    }
}

#[test]
fn working_set_within_one_set_capacity_never_thrashes() {
    for ways in 1u32..8 {
        // `ways` distinct lines in the same set: after the cold pass, every
        // subsequent access hits (LRU keeps the whole working set).
        let cfg = CacheConfig {
            sets: 4,
            ways,
            line_bytes: 32,
        };
        let mut c = CacheSim::new(cfg);
        let set_stride = cfg.sets * cfg.line_bytes;
        let lines: Vec<u32> = (0..ways).map(|i| i * set_stride).collect();
        for &l in &lines {
            c.access(l);
        }
        let misses_after_warmup = c.misses();
        for _ in 0..5 {
            for &l in &lines {
                c.access(l);
            }
        }
        assert_eq!(c.misses(), misses_after_warmup);
    }
}

#[test]
fn btb_predicts_stable_targets_after_one_miss() {
    let mut rng = SmallRng::seed_from_u64(0xCAC4_0003);
    for _ in 0..50 {
        // Few distinct pcs, fixed targets, big BTB: at most one miss per pc.
        let pcs: Vec<u32> = (0..rng.gen_range(1usize..20))
            .map(|_| rng.gen_range(0u32..64) * 4)
            .collect();
        let mut btb = Btb::new(256);
        let target = |pc: u32| pc.wrapping_mul(13) & !3;
        for _ in 0..4 {
            for &pc in &pcs {
                btb.predict_and_update(pc, target(pc));
            }
        }
        let mut distinct = pcs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(btb.mispredicts() <= distinct.len() as u64);
    }
}

#[test]
fn ras_is_perfect_on_balanced_nesting() {
    let mut rng = SmallRng::seed_from_u64(0xCAC4_0004);
    for _ in 0..50 {
        // Nested call/return sequences within the RAS depth never mispredict.
        let depths: Vec<usize> = (0..rng.gen_range(1usize..20))
            .map(|_| rng.gen_range(1usize..8))
            .collect();
        let mut ras = Ras::new(16);
        for (i, &d) in depths.iter().enumerate() {
            let base = (i as u32 + 1) * 0x1000;
            let frames: Vec<u32> = (0..d as u32).map(|j| base + j * 8).collect();
            for &f in &frames {
                ras.push(f);
            }
            for &f in frames.iter().rev() {
                assert!(ras.pop_and_check(f));
            }
        }
        assert_eq!(ras.mispredicts(), 0);
    }
}

#[test]
fn gshare_total_counts_match() {
    let mut rng = SmallRng::seed_from_u64(0xCAC4_0005);
    for _ in 0..50 {
        let n = rng.gen_range(0usize..300);
        let mut p = CondPredictor::new(8);
        for i in 0..n {
            p.predict_and_update((i as u32 % 16) * 4, rng.gen_bool(0.5));
        }
        assert_eq!(p.correct() + p.mispredicts(), n as u64);
    }
}
