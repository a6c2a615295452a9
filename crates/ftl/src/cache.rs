//! The volatile L2P cache (paper §III-C).
//!
//! Cache entries carry three domains — logical address, mapping granularity
//! and physical address — and lookups translate the logical address into
//! LZA, LCA and LPA, matching each in turn. Eviction is LRU; the pinned
//! configuration of §IV-D keeps aggregated entries resident and evicts the
//! entries they cover.
//!
//! Each entry is one packed `u64` key in an [`LruCache`]: the two map bits
//! of its granularity above the aligned index at that level. A resident
//! count per granularity lets lookups skip levels that hold no entry, so a
//! page-only device pays one probe per lookup, not three.

use conzone_types::{Lpn, MapGranularity};

use crate::lru::{InsertOutcome, LruCache};

/// Bit position of the granularity tag in a packed key; indices below it
/// are page, chunk or zone numbers, far below 2⁶².
const TAG_SHIFT: u32 = 62;

/// Lookup order of paper Fig. 4 Ⅰ: LZA, then LCA, then LPA.
const PROBE_ORDER: [MapGranularity; 3] = [
    MapGranularity::Zone,
    MapGranularity::Chunk,
    MapGranularity::Page,
];

/// Index of `g` in the per-granularity resident counts.
#[inline]
fn level(g: MapGranularity) -> usize {
    usize::from(g.to_bits())
}

/// Granularity and aligned index of a packed key.
#[inline]
fn unpack(key: u64) -> (MapGranularity, u64) {
    let g = match key >> TAG_SHIFT {
        0 => MapGranularity::Page,
        1 => MapGranularity::Chunk,
        _ => MapGranularity::Zone,
    };
    (g, key & ((1 << TAG_SHIFT) - 1))
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Hit at the given granularity.
    Hit(MapGranularity),
    /// No entry covers the page.
    Miss,
}

/// The L2P cache.
///
/// ```
/// use conzone_ftl::{L2pCache, LookupResult};
/// use conzone_types::{Lpn, MapGranularity};
///
/// let mut cache = L2pCache::new(64, 4, 16);
/// cache.insert(Lpn(5), MapGranularity::Chunk, false);
/// // Any page of chunk 1 now hits at chunk granularity.
/// assert_eq!(cache.lookup(Lpn(7)), LookupResult::Hit(MapGranularity::Chunk));
/// assert_eq!(cache.lookup(Lpn(9)), LookupResult::Miss);
/// ```
#[derive(Debug)]
pub struct L2pCache {
    lru: LruCache,
    /// Resident entries per granularity, indexed by [`level`].
    resident: [usize; 3],
    chunk_slices: u64,
    zone_slices: u64,
}

impl L2pCache {
    /// Creates a cache of `capacity` entries over the given chunk/zone
    /// tiling.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or either tile size is zero.
    pub fn new(capacity: usize, chunk_slices: u64, zone_slices: u64) -> L2pCache {
        assert!(chunk_slices > 0 && zone_slices > 0);
        L2pCache {
            lru: LruCache::new(capacity),
            resident: [0; 3],
            chunk_slices,
            zone_slices,
        }
    }

    /// Capacity in entries.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    /// Resident entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Resident entries at `granularity`.
    #[inline]
    pub(crate) fn resident(&self, granularity: MapGranularity) -> usize {
        self.resident[level(granularity)]
    }

    /// Total LRU evictions so far.
    #[inline]
    pub fn evictions(&self) -> u64 {
        self.lru.evictions()
    }

    /// Resident entries over capacity — the cache-pressure figure the
    /// heatmap snapshot reports. At most 1 except under the pinned
    /// strategy, whose aggregated entries are stored even when every
    /// resident is pinned: a value above 1 is that pinned overflow.
    pub fn occupancy(&self) -> f64 {
        if self.capacity() == 0 {
            0.0
        } else {
            self.len() as f64 / self.capacity() as f64
        }
    }

    #[inline]
    fn key_for(&self, lpn: Lpn, granularity: MapGranularity) -> u64 {
        let index = match granularity {
            MapGranularity::Page => lpn.raw(),
            MapGranularity::Chunk => lpn.raw() / self.chunk_slices,
            MapGranularity::Zone => lpn.raw() / self.zone_slices,
        };
        u64::from(granularity.to_bits()) << TAG_SHIFT | index
    }

    /// Looks up a logical page, trying LZA, then LCA, then LPA (paper
    /// Fig. 4 Ⅰ), skipping levels with no resident entry. A hit promotes
    /// the entry to most-recently-used.
    // xtask-effect: hot_path
    pub fn lookup(&mut self, lpn: Lpn) -> LookupResult {
        for granularity in PROBE_ORDER {
            if self.resident[level(granularity)] > 0 && self.lru.get(self.key_for(lpn, granularity))
            {
                return LookupResult::Hit(granularity);
            }
        }
        LookupResult::Miss
    }

    /// Whether any entry covers `lpn`, without touching recency.
    pub fn covers(&self, lpn: Lpn) -> bool {
        PROBE_ORDER
            .into_iter()
            .any(|g| self.resident[level(g)] > 0 && self.lru.contains(self.key_for(lpn, g)))
    }

    /// Inserts the entry covering `lpn` at `granularity`. When `pinned` is
    /// set (the §IV-D design), aggregated entries stay resident and the
    /// entries they cover are removed.
    // xtask-effect: hot_path
    pub fn insert(&mut self, lpn: Lpn, granularity: MapGranularity, pinned: bool) -> InsertOutcome {
        if granularity > MapGranularity::Page {
            self.evict_covered(lpn, granularity);
        }
        let (outcome, evicted) = self.lru.insert(self.key_for(lpn, granularity), pinned);
        match outcome {
            InsertOutcome::Stored | InsertOutcome::Evicted | InsertOutcome::OverCapacity => {
                self.resident[level(granularity)] += 1;
            }
            InsertOutcome::Updated | InsertOutcome::Rejected => {}
        }
        if let Some(key) = evicted {
            self.resident[level(unpack(key).0)] -= 1;
        }
        outcome
    }

    /// Removes entries strictly below `granularity` that the new aggregated
    /// entry covers ("the covered L2P mapping entries are evicted",
    /// §IV-D).
    fn evict_covered(&mut self, lpn: Lpn, granularity: MapGranularity) {
        let (lo, hi, below) = match granularity {
            MapGranularity::Zone => {
                let z = lpn.raw() / self.zone_slices;
                let below =
                    self.resident(MapGranularity::Page) + self.resident(MapGranularity::Chunk);
                (z * self.zone_slices, (z + 1) * self.zone_slices, below)
            }
            MapGranularity::Chunk => {
                let c = lpn.raw() / self.chunk_slices;
                let below = self.resident(MapGranularity::Page);
                (c * self.chunk_slices, (c + 1) * self.chunk_slices, below)
            }
            MapGranularity::Page => return,
        };
        if below == 0 {
            return;
        }
        let chunk_slices = self.chunk_slices;
        self.remove_where(|g, index| match g {
            MapGranularity::Page => index >= lo && index < hi,
            MapGranularity::Chunk if granularity == MapGranularity::Zone => {
                let start = index * chunk_slices;
                start >= lo && start < hi
            }
            MapGranularity::Chunk | MapGranularity::Zone => false,
        });
    }

    /// Invalidates any entry covering `lpn` (mapping changed: overwrite, GC
    /// migration or zone reset).
    pub fn invalidate_page(&mut self, lpn: Lpn) {
        for granularity in PROBE_ORDER {
            let l = level(granularity);
            if self.resident[l] > 0 && self.lru.remove(self.key_for(lpn, granularity)) {
                self.resident[l] -= 1;
            }
        }
    }

    /// Invalidates every entry of the zone containing `lpn`.
    pub fn invalidate_zone(&mut self, zone_start: Lpn) {
        let z = zone_start.raw() / self.zone_slices;
        let lo = z * self.zone_slices;
        let hi = lo + self.zone_slices;
        let chunk_slices = self.chunk_slices;
        let zone_slices = self.zone_slices;
        self.remove_where(|g, index| match g {
            MapGranularity::Page => index >= lo && index < hi,
            MapGranularity::Chunk => {
                let start = index * chunk_slices;
                start >= lo && start < hi
            }
            MapGranularity::Zone => index * zone_slices == lo,
        });
    }

    /// Removes every entry for which `doomed(granularity, index)` holds,
    /// keeping the resident counts in step.
    fn remove_where(&mut self, mut doomed: impl FnMut(MapGranularity, u64) -> bool) {
        let resident = &mut self.resident;
        self.lru.retain_not(|key| {
            let (g, index) = unpack(key);
            let hit = doomed(g, index);
            if hit {
                resident[level(g)] -= 1;
            }
            hit
        });
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.lru.clear();
        self.resident = [0; 3];
    }

    /// Resident entries as `(granularity, index)`, in slab order.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> impl Iterator<Item = (MapGranularity, u64)> + '_ {
        self.lru.keys().map(unpack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> L2pCache {
        L2pCache::new(8, 4, 16)
    }

    #[test]
    fn lookup_priority_zone_chunk_page() {
        let mut c = cache();
        c.insert(Lpn(0), MapGranularity::Page, false);
        c.insert(Lpn(0), MapGranularity::Chunk, false);
        c.insert(Lpn(0), MapGranularity::Zone, false);
        assert_eq!(c.lookup(Lpn(0)), LookupResult::Hit(MapGranularity::Zone));
    }

    #[test]
    fn chunk_hit_covers_whole_chunk_only() {
        let mut c = cache();
        c.insert(Lpn(4), MapGranularity::Chunk, false);
        assert_eq!(c.lookup(Lpn(6)), LookupResult::Hit(MapGranularity::Chunk));
        assert_eq!(c.lookup(Lpn(3)), LookupResult::Miss);
        assert_eq!(c.lookup(Lpn(8)), LookupResult::Miss);
    }

    #[test]
    fn aggregated_insert_evicts_covered() {
        let mut c = cache();
        for i in 0..4 {
            c.insert(Lpn(i), MapGranularity::Page, false);
        }
        assert_eq!(c.len(), 4);
        c.insert(Lpn(0), MapGranularity::Chunk, false);
        // The four page entries are gone; only the chunk entry remains.
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(Lpn(2)), LookupResult::Hit(MapGranularity::Chunk));
    }

    #[test]
    fn zone_insert_evicts_covered_chunks_and_pages() {
        let mut c = cache();
        c.insert(Lpn(0), MapGranularity::Chunk, false);
        c.insert(Lpn(5), MapGranularity::Page, false);
        c.insert(Lpn(17), MapGranularity::Page, false); // other zone
        c.insert(Lpn(0), MapGranularity::Zone, false);
        assert_eq!(c.len(), 2); // zone entry + other-zone page
        assert_eq!(c.lookup(Lpn(17)), LookupResult::Hit(MapGranularity::Page));
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let mut c = cache(); // capacity 8
        for i in 0..9 {
            c.insert(Lpn(i * 16), MapGranularity::Page, false);
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.lookup(Lpn(0)), LookupResult::Miss, "oldest evicted");
    }

    #[test]
    fn pinned_aggregates_survive_pressure() {
        let mut c = cache();
        c.insert(Lpn(0), MapGranularity::Zone, true);
        for i in 0..20 {
            c.insert(Lpn(100 + i), MapGranularity::Page, false);
        }
        assert_eq!(c.lookup(Lpn(5)), LookupResult::Hit(MapGranularity::Zone));
    }

    #[test]
    fn invalidate_page_and_zone() {
        let mut c = cache();
        c.insert(Lpn(0), MapGranularity::Chunk, false);
        c.invalidate_page(Lpn(2));
        assert_eq!(c.lookup(Lpn(0)), LookupResult::Miss);

        c.insert(Lpn(16), MapGranularity::Zone, false);
        c.insert(Lpn(20), MapGranularity::Page, false);
        c.insert(Lpn(0), MapGranularity::Page, false);
        c.invalidate_zone(Lpn(16));
        assert_eq!(c.lookup(Lpn(20)), LookupResult::Miss);
        assert_eq!(c.lookup(Lpn(0)), LookupResult::Hit(MapGranularity::Page));
    }

    #[test]
    fn occupancy_exceeds_one_under_pinned_overflow() {
        let mut c = L2pCache::new(2, 4, 16);
        c.insert(Lpn(0), MapGranularity::Zone, true);
        c.insert(Lpn(16), MapGranularity::Zone, true);
        assert_eq!(c.occupancy(), 1.0);
        assert_eq!(
            c.insert(Lpn(32), MapGranularity::Chunk, true),
            InsertOutcome::OverCapacity
        );
        assert_eq!(c.len(), 3);
        assert_eq!(c.occupancy(), 1.5);
        // Unpinned inserts are rejected while every resident is pinned.
        assert_eq!(
            c.insert(Lpn(40), MapGranularity::Page, false),
            InsertOutcome::Rejected
        );
        assert_eq!(c.occupancy(), 1.5);
    }

    #[test]
    fn page_only_cache_counts_pages_only() {
        let mut c = cache();
        for i in 0..12 {
            c.insert(Lpn(i * 3), MapGranularity::Page, false);
        }
        assert_eq!(c.resident(MapGranularity::Page), 8);
        assert_eq!(c.resident(MapGranularity::Chunk), 0);
        assert_eq!(c.resident(MapGranularity::Zone), 0);
        c.invalidate_zone(Lpn(0));
        assert_eq!(c.resident(MapGranularity::Page), c.len());
        c.clear();
        assert_eq!(c.resident(MapGranularity::Page), 0);
    }

    #[test]
    fn covers_does_not_touch_recency() {
        let mut c = L2pCache::new(2, 4, 16);
        c.insert(Lpn(0), MapGranularity::Page, false);
        c.insert(Lpn(1), MapGranularity::Page, false);
        assert!(c.covers(Lpn(0)));
        // Insert a third entry: LRU victim must still be Lpn(0) because
        // covers() did not promote it.
        c.insert(Lpn(2), MapGranularity::Page, false);
        assert!(!c.covers(Lpn(0)));
        assert!(c.covers(Lpn(1)));
    }
}
