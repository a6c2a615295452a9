//! Property-based tests: the pinned-LRU cache against a reference model,
//! the L2P cache's per-granularity bookkeeping, and mapping-table
//! aggregation invariants.

use std::collections::HashMap;

use proptest::prelude::*;

use crate::{InsertOutcome, L2pCache, LookupResult, LruCache, MapBitmap, MappingTable};
use conzone_types::{Lpn, MapGranularity, Ppa};

#[derive(Debug, Clone)]
enum LruOp {
    Insert(u64, bool),
    Get(u64),
    Remove(u64),
    /// Remove every key `k` with `k % m == r`.
    RetainNot(u64, u64),
}

fn lru_ops() -> impl Strategy<Value = Vec<LruOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (any::<u16>(), any::<u8>()).prop_map(|(k, p)| LruOp::Insert(u64::from(k % 64), p % 4 == 0)),
            2 => any::<u16>().prop_map(|k| LruOp::Get(u64::from(k % 64))),
            1 => any::<u16>().prop_map(|k| LruOp::Remove(u64::from(k % 64))),
            1 => (2u64..8, any::<u64>()).prop_map(|(m, r)| LruOp::RetainNot(m, r % m)),
        ],
        1..200,
    )
}

/// A straightforward reference pinned LRU: a Vec of `(key, pinned)`
/// ordered most-recent-first. The victim is the least-recent unpinned
/// entry; with every resident pinned, an unpinned insert is rejected and a
/// pinned one stored over capacity.
#[derive(Default)]
struct RefLru {
    entries: Vec<(u64, bool)>, // MRU at index 0
    capacity: usize,
}

impl RefLru {
    fn position(&self, k: u64) -> Option<usize> {
        self.entries.iter().position(|(ek, _)| *ek == k)
    }
    fn insert(&mut self, k: u64, pinned: bool) -> (InsertOutcome, Option<u64>) {
        if let Some(pos) = self.position(k) {
            let (_, was) = self.entries.remove(pos);
            self.entries.insert(0, (k, was || pinned));
            return (InsertOutcome::Updated, None);
        }
        let mut result = (InsertOutcome::Stored, None);
        if self.entries.len() >= self.capacity {
            match self.entries.iter().rposition(|(_, p)| !p) {
                Some(pos) => {
                    let (victim, _) = self.entries.remove(pos);
                    result = (InsertOutcome::Evicted, Some(victim));
                }
                None if pinned => result = (InsertOutcome::OverCapacity, None),
                None => return (InsertOutcome::Rejected, None),
            }
        }
        self.entries.insert(0, (k, pinned));
        result
    }
    fn get(&mut self, k: u64) -> bool {
        let Some(pos) = self.position(k) else {
            return false;
        };
        let e = self.entries.remove(pos);
        self.entries.insert(0, e);
        true
    }
    fn remove(&mut self, k: u64) -> bool {
        self.position(k)
            .map(|pos| self.entries.remove(pos))
            .is_some()
    }
    fn retain_not(&mut self, m: u64, r: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(k, _)| k % m != r);
        before - self.entries.len()
    }
}

/// Ops on the L2P cache: inserts at any granularity (pinned or not),
/// lookups and both invalidations.
#[derive(Debug, Clone)]
enum CacheOp {
    Insert(u64, MapGranularity, bool),
    Lookup(u64),
    InvalidatePage(u64),
    InvalidateZone(u64),
}

fn granularity() -> impl Strategy<Value = MapGranularity> {
    prop_oneof![
        3 => Just(MapGranularity::Page),
        1 => Just(MapGranularity::Chunk),
        1 => Just(MapGranularity::Zone),
    ]
}

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0u64..256, granularity(), any::<bool>()).prop_map(|(l, g, p)| CacheOp::Insert(l, g, p)),
            4 => (0u64..256).prop_map(CacheOp::Lookup),
            1 => (0u64..256).prop_map(CacheOp::InvalidatePage),
            1 => (0u64..256).prop_map(CacheOp::InvalidateZone),
        ],
        1..250,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// `LruCache` behaves exactly like the reference pinned LRU, step by
    /// step: insert outcome and evicted key, hits, removals, length, and
    /// final residency.
    #[test]
    fn lru_matches_reference(ops in lru_ops(), cap in 1usize..16) {
        let mut real = LruCache::new(cap);
        let mut reference = RefLru { capacity: cap, ..Default::default() };
        for op in ops {
            match op {
                LruOp::Insert(k, pinned) => {
                    prop_assert_eq!(real.insert(k, pinned), reference.insert(k, pinned), "insert {}", k);
                }
                LruOp::Get(k) => {
                    prop_assert_eq!(real.get(k), reference.get(k), "get {}", k);
                }
                LruOp::Remove(k) => {
                    prop_assert_eq!(real.remove(k), reference.remove(k), "remove {}", k);
                }
                LruOp::RetainNot(m, r) => {
                    prop_assert_eq!(real.retain_not(|k| k % m == r), reference.retain_not(m, r));
                }
            }
            prop_assert_eq!(real.len(), reference.entries.len());
        }
        // Final residency agrees exactly.
        for (k, _) in &reference.entries {
            prop_assert!(real.contains(*k), "{} resident", k);
        }
    }

    /// Pinned entries are never evicted, whatever the churn.
    #[test]
    fn pinned_entries_survive(churn in prop::collection::vec(any::<u16>(), 1..300), cap in 2usize..16) {
        let mut cache = LruCache::new(cap);
        cache.insert(u64::MAX, true);
        for k in churn {
            cache.insert(u64::from(k % 1000), false);
            prop_assert!(cache.contains(u64::MAX));
        }
    }

    /// The L2P cache's per-granularity resident counts always equal a
    /// recount of its entries, and `lookup` equals a naive lookup that
    /// probes all three levels.
    #[test]
    fn resident_counts_and_lookup_match_naive(ops in cache_ops(), cap in 1usize..24) {
        const CHUNK: u64 = 4;
        const ZONE: u64 = 16;
        let mut cache = L2pCache::new(cap, CHUNK, ZONE);
        for op in ops {
            match op {
                CacheOp::Insert(l, g, pinned) => {
                    cache.insert(Lpn(l), g, pinned && g > MapGranularity::Page);
                }
                CacheOp::Lookup(l) => {
                    let resident: Vec<_> = cache.entries().collect();
                    let naive = [
                        (MapGranularity::Zone, l / ZONE),
                        (MapGranularity::Chunk, l / CHUNK),
                        (MapGranularity::Page, l),
                    ]
                    .into_iter()
                    .find(|e| resident.contains(e))
                    .map_or(LookupResult::Miss, |(g, _)| LookupResult::Hit(g));
                    prop_assert_eq!(cache.covers(Lpn(l)), naive != LookupResult::Miss);
                    prop_assert_eq!(cache.lookup(Lpn(l)), naive, "lookup {}", l);
                }
                CacheOp::InvalidatePage(l) => cache.invalidate_page(Lpn(l)),
                CacheOp::InvalidateZone(l) => cache.invalidate_zone(Lpn(l / ZONE * ZONE)),
            }
            for g in [MapGranularity::Page, MapGranularity::Chunk, MapGranularity::Zone] {
                let recount = cache.entries().filter(|(eg, _)| *eg == g).count();
                prop_assert_eq!(cache.resident(g), recount, "{} count", g);
            }
            prop_assert_eq!(cache.entries().count(), cache.len());
        }
    }

    /// The mapping table's aggregation bits always describe reality:
    /// a chunk entry implies every page of the chunk is mapped and
    /// canonical; unmapping any page breaks future aggregation.
    #[test]
    fn aggregation_soundness(
        mapped in prop::collection::vec((0u64..64, any::<bool>()), 1..80)
    ) {
        let mut table = MappingTable::new(64, 8, 32);
        for &(lpn, canonical) in &mapped {
            table.set(Lpn(lpn), Ppa(1000 + lpn), canonical);
        }
        for chunk in 0..8u64 {
            let start = chunk * 8;
            let complete = (start..start + 8).all(|l| {
                table.get(Lpn(l)).map(|e| e.canonical).unwrap_or(false)
            });
            let aggregated = table.try_aggregate_chunk(Lpn(start));
            prop_assert_eq!(aggregated, complete, "chunk {}", chunk);
            if aggregated {
                for l in start..start + 8 {
                    prop_assert!(
                        table.granularity_of(Lpn(l)) >= Some(MapGranularity::Chunk)
                    );
                }
            }
        }
    }

    /// The L2P cache and the map-bit bitmap agree with the table after an
    /// arbitrary interleaving of inserts and invalidations.
    #[test]
    fn cache_and_bitmap_track_table(
        ops in prop::collection::vec((0u64..64, any::<bool>()), 1..120)
    ) {
        let mut table = MappingTable::new(64, 8, 32);
        let mut cache = L2pCache::new(128, 8, 32);
        let mut bitmap = MapBitmap::new(64);
        let mut shadow: HashMap<u64, bool> = HashMap::new(); // lpn -> mapped

        for (lpn, write) in ops {
            if write {
                // A write into an aggregated range demotes the whole range
                // (MappingTable::set documents this); a correct client
                // mirrors that in its bitmap before recording the page.
                if table.granularity_of(Lpn(lpn)) > Some(MapGranularity::Page) {
                    let start = lpn / 8 * 8;
                    bitmap.set_range(Lpn(start), 8, MapGranularity::Page);
                }
                table.set(Lpn(lpn), Ppa(lpn), true);
                bitmap.set(Lpn(lpn), MapGranularity::Page);
                cache.insert(Lpn(lpn), MapGranularity::Page, false);
                shadow.insert(lpn, true);
                if table.try_aggregate_chunk(Lpn(lpn)) {
                    let start = lpn / 8 * 8;
                    bitmap.set_range(Lpn(start), 8, MapGranularity::Chunk);
                }
            } else {
                // Unmap demotes covering aggregations too.
                if table.granularity_of(Lpn(lpn)) > Some(MapGranularity::Page) {
                    let start = lpn / 8 * 8;
                    bitmap.set_range(Lpn(start), 8, MapGranularity::Page);
                }
                table.unmap(Lpn(lpn));
                cache.invalidate_page(Lpn(lpn));
                bitmap.set(Lpn(lpn), MapGranularity::Page);
                shadow.insert(lpn, false);
            }
        }
        for (lpn, mapped) in shadow {
            if mapped {
                let g = table.granularity_of(Lpn(lpn)).expect("mapped");
                prop_assert_eq!(bitmap.get(Lpn(lpn)), g, "bitmap mirrors table at {}", lpn);
            } else {
                prop_assert!(table.get(Lpn(lpn)).is_none());
                // The cache may not claim coverage of an unmapped page at
                // page granularity (chunk/zone coverage would have been
                // torn down by invalidate_page too).
                prop_assert_eq!(cache.lookup(Lpn(lpn)) == LookupResult::Miss, true);
            }
        }
    }
}
