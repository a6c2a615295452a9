//! A flat, fixed-capacity LRU cache with entry pinning.
//!
//! The L2P cache evicts by LRU (paper §III-C); the pinned-aggregate design
//! of §IV-D additionally keeps chunk/zone entries resident. This cache
//! implements both over `u64` keys, in three parts allocated once at
//! construction:
//!
//! * **nodes** — a dense `Vec` of `(key, prev, next)` with `u32` links. The
//!   resident entries occupy `nodes[..len]`; a removal moves the last node
//!   into the hole.
//! * **index** — an open-addressed table (linear probing, backward-shift
//!   deletion) from key to node, at most half full, hashed by a fixed
//!   multiplicative constant: no per-process random seed.
//! * **recency list** — a doubly linked list through the *unpinned* nodes,
//!   most recent first. Pinned entries are never victims, so they leave the
//!   list, and the eviction victim is always its tail: O(1).
//!
//! Storage grows only when pinned inserts push the cache over capacity.

/// "No node": an empty index slot or the end of the recency list.
const NIL: u32 = u32::MAX;
/// Link value of a pinned node, which sits outside the recency list.
const PINNED: u32 = u32::MAX - 1;
/// Fibonacci-hashing multiplier, ⌊2⁶⁴/φ⌋ (odd).
const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    prev: u32,
    next: u32,
}

impl Node {
    const EMPTY: Node = Node {
        key: 0,
        prev: NIL,
        next: NIL,
    };

    #[inline]
    fn pinned(&self) -> bool {
        self.prev == PINNED
    }
}

/// One index slot; `node == NIL` marks it empty.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    node: u32,
}

impl Slot {
    const EMPTY: Slot = Slot { key: 0, node: NIL };
}

/// Outcome of an insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Entry stored without displacing anything.
    Stored,
    /// Entry stored after evicting one LRU victim.
    Evicted,
    /// Entry replaced an existing entry with the same key.
    Updated,
    /// Cache full of pinned entries; a non-pinned insert was dropped.
    Rejected,
    /// A pinned insert exceeded capacity (all residents pinned); it was
    /// stored anyway and the cache is over budget.
    OverCapacity,
}

/// LRU cache of `u64` keys with per-entry pinning.
///
/// ```
/// use conzone_ftl::{InsertOutcome, LruCache};
///
/// let mut c = LruCache::new(2);
/// c.insert(1, false);
/// c.insert(2, false);
/// c.get(1); // 1 becomes most recent
/// assert_eq!(c.insert(3, false), (InsertOutcome::Evicted, Some(2)));
/// assert!(c.contains(1) && c.contains(3) && !c.contains(2));
/// ```
#[derive(Debug)]
pub struct LruCache {
    /// Resident entries live in `nodes[..len]`.
    nodes: Vec<Node>,
    len: u32,
    /// Open-addressed key → node index; its length is a power of two.
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: a key's home slot is the top bits of its
    /// multiplicative hash.
    shift: u32,
    /// Most recently used unpinned entry.
    head: u32,
    /// Least recently used unpinned entry: the next victim.
    tail: u32,
    capacity: u32,
    evictions: u64,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit the `u32` links.
    pub fn new(capacity: usize) -> LruCache {
        let cap = match u32::try_from(capacity) {
            Ok(c) if c > 0 && c < PINNED => c,
            _ => panic!("cache capacity must be in 1..{PINNED}, got {capacity}"),
        };
        let mut cache = LruCache {
            nodes: vec![Node::EMPTY; capacity],
            len: 0,
            slots: Vec::new(),
            shift: 0,
            head: NIL,
            tail: NIL,
            capacity: cap,
            evictions: 0,
        };
        cache.rehash((2 * capacity).next_power_of_two());
        cache
    }

    /// Number of resident entries, pinned ones included.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the cache is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Configured capacity in entries.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// LRU evictions performed so far.
    #[inline]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether `key` is resident (does not touch recency).
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Looks up `key`, promoting it to most-recently-used on hit; returns
    /// whether it was resident.
    #[inline]
    pub fn get(&mut self, key: u64) -> bool {
        let Some(pos) = self.find(key) else {
            return false;
        };
        let i = self.slots[pos].node;
        if i != self.head && !self.nodes[i as usize].pinned() {
            self.unlink(i);
            self.push_front(i);
        }
        true
    }

    /// Removes `key`; returns whether it was resident.
    pub fn remove(&mut self, key: u64) -> bool {
        match self.find(key) {
            Some(pos) => {
                self.remove_slot(pos);
                true
            }
            None => false,
        }
    }

    /// Inserts `key`. An existing entry is updated in place (retaining the
    /// stronger of the two pin flags). When the cache is full, the LRU
    /// non-pinned entry is evicted and returned; if every resident is
    /// pinned, a non-pinned insert is rejected while a pinned insert is
    /// stored over capacity.
    pub fn insert(&mut self, key: u64, pinned: bool) -> (InsertOutcome, Option<u64>) {
        if let Some(pos) = self.find(key) {
            let i = self.slots[pos].node;
            if !self.nodes[i as usize].pinned() {
                self.unlink(i);
                self.attach(i, pinned);
            }
            return (InsertOutcome::Updated, None);
        }
        let (i, outcome, evicted) = if self.len < self.capacity {
            (self.append(), InsertOutcome::Stored, None)
        } else if self.tail != NIL {
            // Reuse the victim's node for the new entry.
            let victim = self.tail;
            let vkey = self.nodes[victim as usize].key;
            self.unlink(victim);
            if let Some(pos) = self.find(vkey) {
                self.index_remove(pos);
            }
            self.evictions += 1;
            (victim, InsertOutcome::Evicted, Some(vkey))
        } else if pinned {
            self.grow_over_capacity();
            (self.append(), InsertOutcome::OverCapacity, None)
        } else {
            return (InsertOutcome::Rejected, None);
        };
        self.nodes[i as usize].key = key;
        self.index_insert(key, i);
        self.attach(i, pinned);
        (outcome, evicted)
    }

    /// Removes every key for which `pred` returns true; returns how many
    /// were removed. Visits the nodes in slab order, so the calls to `pred`
    /// are deterministic, and allocates nothing.
    pub fn retain_not<F: FnMut(u64) -> bool>(&mut self, mut pred: F) -> usize {
        let mut removed = 0;
        let mut i = 0;
        while i < self.len {
            let key = self.nodes[i as usize].key;
            if pred(key) {
                if let Some(pos) = self.find(key) {
                    // The last node moves into slot `i`: look at it next.
                    self.remove_slot(pos);
                    removed += 1;
                    continue;
                }
            }
            i += 1;
        }
        removed
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.len = 0;
        self.head = NIL;
        self.tail = NIL;
        self.slots.fill(Slot::EMPTY);
    }

    /// Resident keys in slab order.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.nodes[..self.len()].iter().map(|n| n.key)
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// Index slot holding `key`, if resident.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut pos = self.home(key);
        loop {
            let s = self.slots[pos];
            if s.node == NIL {
                return None;
            }
            if s.key == key {
                return Some(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Records `key → node` in the first free slot of its probe run; the
    /// caller guarantees `key` is absent.
    fn index_insert(&mut self, key: u64, node: u32) {
        let mask = self.slots.len() - 1;
        let mut pos = self.home(key);
        while self.slots[pos].node != NIL {
            pos = (pos + 1) & mask;
        }
        self.slots[pos] = Slot { key, node };
    }

    /// Empties slot `pos`, shifting later members of its probe run back so
    /// every key stays reachable from its home slot (no tombstones).
    fn index_remove(&mut self, pos: usize) {
        let mask = self.slots.len() - 1;
        let mut hole = pos;
        let mut j = pos;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s.node == NIL {
                break;
            }
            // `s` may fill the hole unless its home lies cyclically in
            // (hole, j].
            if (j.wrapping_sub(self.home(s.key)) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = s;
                hole = j;
            }
        }
        self.slots[hole] = Slot::EMPTY;
    }

    /// Removes the entry at index slot `pos` and compacts the slab.
    fn remove_slot(&mut self, pos: usize) {
        let i = self.slots[pos].node;
        self.index_remove(pos);
        if !self.nodes[i as usize].pinned() {
            self.unlink(i);
        }
        self.len -= 1;
        let last = self.len;
        if i == last {
            return;
        }
        let moved = self.nodes[last as usize];
        self.nodes[i as usize] = moved;
        if !moved.pinned() {
            match moved.prev {
                NIL => self.head = i,
                p => self.nodes[p as usize].next = i,
            }
            match moved.next {
                NIL => self.tail = i,
                n => self.nodes[n as usize].prev = i,
            }
        }
        if let Some(p) = self.find(moved.key) {
            self.slots[p].node = i;
        }
    }

    /// Claims the next free node of the slab.
    #[inline]
    fn append(&mut self) -> u32 {
        let i = self.len;
        self.len += 1;
        i
    }

    /// Places a detached node: pinned nodes stay off the recency list,
    /// others become most recent.
    #[inline]
    fn attach(&mut self, i: u32, pinned: bool) {
        if pinned {
            let n = &mut self.nodes[i as usize];
            n.prev = PINNED;
            n.next = PINNED;
        } else {
            self.push_front(i);
        }
    }

    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        let n = &mut self.nodes[i as usize];
        n.prev = NIL;
        n.next = old_head;
        match old_head {
            NIL => self.tail = i,
            h => self.nodes[h as usize].prev = i,
        }
        self.head = i;
    }

    /// Makes room for one more node than the slab holds and keeps the
    /// index at most half full.
    // xtask-effect: cold — pinned overflow: runs only when every resident is
    // pinned and a pinned insert must still be stored (InsertOutcome::OverCapacity)
    fn grow_over_capacity(&mut self) {
        assert!(
            self.len < PINNED - 1,
            "pinned overflow exhausted the u32 links"
        );
        if self.len() == self.nodes.len() {
            self.nodes.push(Node::EMPTY);
        }
        if 2 * (self.len() + 1) > self.slots.len() {
            self.rehash(2 * self.slots.len());
        }
    }

    /// Rebuilds the index with `size` (a power of two) slots.
    fn rehash(&mut self, size: usize) {
        self.slots = vec![Slot::EMPTY; size];
        self.shift = 64 - size.trailing_zeros();
        for i in 0..self.len {
            self.index_insert(self.nodes[i as usize].key, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_order_eviction() {
        let mut c = LruCache::new(3);
        for k in [1, 2, 3] {
            assert_eq!(c.insert(k, false), (InsertOutcome::Stored, None));
        }
        c.get(1);
        assert_eq!(c.insert(4, false), (InsertOutcome::Evicted, Some(2)));
        // 2 was LRU after 1 was touched.
        assert!(!c.contains(2));
        assert!(c.contains(1) && c.contains(3) && c.contains(4));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn update_in_place_keeps_len() {
        let mut c = LruCache::new(2);
        c.insert(1, false);
        assert_eq!(c.insert(1, false), (InsertOutcome::Updated, None));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn pinned_entries_survive_eviction() {
        let mut c = LruCache::new(2);
        c.insert(9, true);
        c.insert(1, false);
        assert_eq!(c.insert(2, false), (InsertOutcome::Evicted, Some(1)));
        assert!(c.contains(9) && c.contains(2));
    }

    #[test]
    fn upgrading_to_pinned_leaves_the_recency_list() {
        let mut c = LruCache::new(2);
        c.insert(1, false);
        c.insert(2, false);
        assert_eq!(c.insert(1, true), (InsertOutcome::Updated, None));
        // A later unpinned update cannot unpin it.
        assert_eq!(c.insert(1, false), (InsertOutcome::Updated, None));
        assert_eq!(c.insert(3, false), (InsertOutcome::Evicted, Some(2)));
        assert_eq!(c.insert(4, false), (InsertOutcome::Evicted, Some(3)));
        assert!(c.contains(1));
    }

    #[test]
    fn all_pinned_rejects_unpinned_but_accepts_pinned() {
        let mut c = LruCache::new(2);
        c.insert(1, true);
        c.insert(2, true);
        assert_eq!(c.insert(3, false), (InsertOutcome::Rejected, None));
        assert!(!c.contains(3));
        assert_eq!(c.insert(4, true), (InsertOutcome::OverCapacity, None));
        assert!(c.contains(4));
        assert_eq!(c.len(), 3); // over budget by one, visible to callers
    }

    #[test]
    fn overflow_grows_storage_and_keeps_every_key() {
        let mut c = LruCache::new(2);
        for k in 0..100 {
            c.insert(k, true);
        }
        assert_eq!(c.len(), 100);
        assert!((0..100).all(|k| c.contains(k)));
        assert_eq!(c.retain_not(|k| k % 3 == 0), 34);
        assert!((0..100).all(|k| c.contains(k) == (k % 3 != 0)));
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut c = LruCache::new(2);
        c.insert(1, false);
        assert!(c.remove(1));
        assert!(!c.remove(1));
        c.insert(2, false);
        c.insert(3, false);
        assert_eq!(c.len(), 2);
        assert_eq!(c.insert(4, false), (InsertOutcome::Evicted, Some(2)));
    }

    #[test]
    fn retain_not_removes_matching() {
        let mut c = LruCache::new(10);
        for i in 0..10 {
            c.insert(i, false);
        }
        let removed = c.retain_not(|k| k % 2 == 0);
        assert_eq!(removed, 5);
        assert_eq!(c.len(), 5);
        assert!(c.contains(1) && !c.contains(2));
        // Recency survives compaction: 1 is still the LRU entry.
        for k in 10..15 {
            c.insert(k, false);
        }
        assert_eq!(c.insert(15, false), (InsertOutcome::Evicted, Some(1)));
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(4);
        c.insert(1, true);
        c.clear();
        assert!(c.is_empty() && !c.contains(1));
        c.insert(2, false);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn colliding_keys_stay_reachable_after_removals() {
        // Multiples of 2^60 share their low bits; removing from the middle
        // of probe runs must keep the rest findable.
        let mut c = LruCache::new(16);
        let keys: Vec<u64> = (0..16).map(|k| k << 60 | 7).collect();
        for &k in &keys {
            c.insert(k, false);
        }
        for &k in keys.iter().step_by(3) {
            assert!(c.remove(k));
        }
        for (n, &k) in keys.iter().enumerate() {
            assert_eq!(c.contains(k), n % 3 != 0, "key {k:#x}");
        }
    }

    #[test]
    fn heavy_churn_consistency() {
        let mut c = LruCache::new(64);
        for i in 0..10_000u64 {
            c.insert(i % 257, false);
            assert!(c.len() <= 64);
        }
        // The most recent keys must be resident.
        assert!(c.contains(9_999u64 % 257));
    }
}
