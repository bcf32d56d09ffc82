//! Shared machinery: the pair-completion watcher and sampling configuration.

use std::collections::HashMap;
use std::io::{self, Read, Write};

use adjstream_graph::VertexId;
use adjstream_stream::checkpoint::{
    corrupt, read_u32, read_u64, read_usize, write_u32, write_u64, write_usize, Checkpoint,
};
use adjstream_stream::hashing::{FastMap, FastSet};
use adjstream_stream::meter::{hashmap_bytes, vec_bytes, SpaceUsage};
use adjstream_stream::obs::ObsCounters;

/// How the first-pass edge sample `S` is drawn (DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeSampling {
    /// Hash-threshold (Bernoulli) sampling: every edge independently with
    /// probability `p`. `|S| ~ Binomial(m, p)`; no evictions, so downstream
    /// reservoirs are exactly uniform.
    Threshold {
        /// Inclusion probability.
        p: f64,
    },
    /// Bottom-k hashing: `S` is exactly the `k` smallest-hashed edges — the
    /// paper's fixed-size uniform subset. Evictions mid-pass purge dependent
    /// state.
    BottomK {
        /// Sample size `m′`.
        k: usize,
    },
}

/// Push `val` onto `map[key]`, returning the byte-accounting delta of the
/// map's inner vectors: a 24-byte `Vec` header when the entry is new plus
/// `elem_bytes` per unit of capacity growth. Callers accumulate the deltas
/// (and subtract `capacity · elem_bytes + 24` on entry removal) so
/// [`SpaceUsage::space_bytes`] stays O(1) instead of rescanning every value
/// — the rescan was the dominant cost of peak metering on large budgets.
/// The vacant arm reproduces `entry(k).or_default().push(v)` exactly, so
/// capacities (and hence reported bytes) are identical to the old scan.
pub(crate) fn push_map_vec<K, T, S>(
    map: &mut HashMap<K, Vec<T>, S>,
    key: K,
    val: T,
    elem_bytes: usize,
) -> usize
where
    K: Eq + std::hash::Hash,
    S: std::hash::BuildHasher,
{
    use std::collections::hash_map::Entry;
    match map.entry(key) {
        Entry::Occupied(mut e) => {
            let v = e.get_mut();
            let before = v.capacity();
            v.push(val);
            (v.capacity() - before) * elem_bytes
        }
        Entry::Vacant(e) => {
            let v = e.insert(Vec::new());
            v.push(val);
            24 + v.capacity() * elem_bytes
        }
    }
}

/// Watches vertex pairs for *completion*: a watched pair `{a, b}` completes
/// in the adjacency list of `z` when both `a` and `b` occur in that list
/// (equivalently, `z` is adjacent to both — so `z` closes a triangle over an
/// edge `{a,b}`, or a 4-cycle over a wedge with leaves `{a,b}`).
///
/// This is the "two extra bits per edge" flagging technique of Section 3.3.1
/// generalized to arbitrary vertex pairs (Section 4 watches wedge leaf pairs
/// that need not be edges). Pairs are refcounted so several consumers can
/// watch the same pair; completion is reported once per (pair, list).
///
/// Each watched pair owns one 16-byte `WatchSlot` in a dense slab, and the
/// per-vertex `incident` lists hold slot ids, so the hot path
/// ([`PairWatcher::on_item`]) does one `incident` probe per item and then
/// only indexed slab reads — no hashing per watched pair. The `key → id`
/// map is touched only by `watch`/`unwatch`.
#[derive(Debug, Default)]
pub struct PairWatcher {
    /// vertex → ids of the slots whose pair contains it (a self-pair
    /// `{a, a}` is listed twice under `a`).
    incident: FastMap<u32, Vec<u32>>,
    /// Bytes held by `incident`'s inner vectors, maintained incrementally.
    incident_vec_bytes: usize,
    /// packed pair → slot id, for every watched pair.
    ids: FastMap<u64, u32>,
    /// Slot slab indexed by id; freed slots are listed in `free`.
    slots: Vec<WatchSlot>,
    free: Vec<u32>,
    epoch: u32,
    /// Lifetime watch registrations (refcount acquisitions).
    watches_started: u64,
    /// Lifetime watch releases (refcount drops).
    watches_retired: u64,
}

/// One watched pair: its packed key, watcher count, and the epoch of its
/// last single hit (see [`PairWatcher::on_item`]).
#[derive(Debug)]
struct WatchSlot {
    key: u64,
    rc: u32,
    hit: u32,
}

/// Pack an unordered vertex pair (canonical ascending).
#[inline]
pub fn pack_pair(a: VertexId, b: VertexId) -> u64 {
    let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
    ((lo.0 as u64) << 32) | hi.0 as u64
}

/// Unpack a canonical vertex pair.
#[inline]
pub fn unpack_pair(p: u64) -> (VertexId, VertexId) {
    (VertexId((p >> 32) as u32), VertexId(p as u32))
}

impl PairWatcher {
    /// An empty watcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin watching the pair `{a, b}` (increments its refcount).
    pub fn watch(&mut self, a: VertexId, b: VertexId) {
        use std::collections::hash_map::Entry;
        self.watches_started += 1;
        let key = pack_pair(a, b);
        let vacant = match self.ids.entry(key) {
            Entry::Occupied(e) => {
                self.slots[*e.get() as usize].rc += 1;
                return;
            }
            Entry::Vacant(e) => e,
        };
        // A fresh slot's hit is one epoch behind, which no list before the
        // epoch counter wraps can match — the same as having no hit at all.
        let slot = WatchSlot {
            key,
            rc: 1,
            hit: self.epoch.wrapping_sub(1),
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = slot;
                id
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        vacant.insert(id);
        let (lo, hi) = unpack_pair(key);
        self.incident_vec_bytes += push_map_vec(&mut self.incident, lo.0, id, 4);
        self.incident_vec_bytes += push_map_vec(&mut self.incident, hi.0, id, 4);
    }

    /// Stop one watch of `{a, b}`; fully unregisters at refcount zero.
    pub fn unwatch(&mut self, a: VertexId, b: VertexId) {
        self.watches_retired += 1;
        let key = pack_pair(a, b);
        let id = *self.ids.get(&key).expect("unwatch of unwatched pair");
        let slot = &mut self.slots[id as usize];
        slot.rc -= 1;
        if slot.rc == 0 {
            self.ids.remove(&key);
            self.free.push(id);
            let (lo, hi) = unpack_pair(key);
            for v in [lo.0, hi.0] {
                let list = self.incident.get_mut(&v).expect("incident list exists");
                let pos = list.iter().position(|&p| p == id).expect("pair in list");
                list.swap_remove(pos);
                if list.is_empty() {
                    let dead = self.incident.remove(&v).expect("just seen");
                    self.incident_vec_bytes -= dead.capacity() * 4 + 24;
                }
            }
        }
    }

    /// Whether `{a, b}` is currently watched.
    pub fn is_watched(&self, a: VertexId, b: VertexId) -> bool {
        self.ids.contains_key(&pack_pair(a, b))
    }

    /// Number of distinct watched pairs.
    pub fn watched_pairs(&self) -> usize {
        self.ids.len()
    }

    /// Lifetime watch/unwatch counters, in [`ObsCounters`] shape (only the
    /// watcher fields are populated; callers merge in their own).
    pub fn obs_counters(&self) -> ObsCounters {
        ObsCounters {
            watches_started: self.watches_started,
            watches_retired: self.watches_retired,
            ..ObsCounters::default()
        }
    }

    /// A new adjacency list is starting: reset per-list hit state.
    pub fn begin_list(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Process one item `src → x` of the current list; invoke `completed`
    /// for every watched pair whose second endpoint this is (i.e. both
    /// endpoints now seen in the current list).
    #[inline]
    pub fn on_item<F: FnMut(u64)>(&mut self, x: VertexId, mut completed: F) {
        let Some(ids) = self.incident.get(&x.0) else {
            return;
        };
        for &id in ids {
            let slot = &mut self.slots[id as usize];
            if slot.hit == self.epoch {
                // Second endpoint within the same list: completion. Bump
                // past the epoch so a (malformed) triple hit wouldn't
                // re-report; valid streams never do this.
                slot.hit = self.epoch.wrapping_add(u32::MAX / 2);
                completed(slot.key);
            } else {
                slot.hit = self.epoch;
            }
        }
    }
}

/// Count elements shared by two neighbor sets, probing the smaller list
/// against a hash set of the larger — the common-neighbor step of the
/// local sampling estimators (TRIÈST-style and random-order). Extracted so
/// the callers share one scratch-set idiom instead of rebuilding it ad hoc.
pub(crate) fn count_common_neighbors(a: &[u32], b: &[u32]) -> u64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let large: FastSet<u32> = large.iter().copied().collect();
    small.iter().filter(|x| large.contains(x)).count() as u64
}

impl SpaceUsage for PairWatcher {
    fn space_bytes(&self) -> usize {
        hashmap_bytes(&self.incident)
            + self.incident_vec_bytes
            + hashmap_bytes(&self.ids)
            + vec_bytes(&self.slots)
            + vec_bytes(&self.free)
    }
}

/// Pass-boundary serialization. The per-list hit state (each slot's `hit`,
/// `epoch`) is deliberately *not* saved: at an adjacency-list boundary a
/// stale hit is behaviorally identical to an absent one (the next
/// `begin_list` bumps the epoch, so both paths record the current epoch on
/// the first sighting), and dropping it keeps the checkpoint free of
/// mid-list state. The `incident` lists are saved in order, as packed
/// pairs — completion callbacks fire in that order, which downstream
/// reservoirs observe. Slot ids are not saved; restore assigns them in the
/// order the pairs are listed.
impl Checkpoint for PairWatcher {
    fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        write_usize(w, self.ids.len())?;
        for &id in self.ids.values() {
            let slot = &self.slots[id as usize];
            write_u64(w, slot.key)?;
            write_u32(w, slot.rc)?;
        }
        write_usize(w, self.incident.len())?;
        for (&v, ids) in &self.incident {
            write_u32(w, v)?;
            write_usize(w, ids.len())?;
            for &id in ids {
                write_u64(w, self.slots[id as usize].key)?;
            }
        }
        write_u64(w, self.watches_started)?;
        write_u64(w, self.watches_retired)?;
        Ok(())
    }

    /// Rejects (typed `InvalidData`) any payload whose incident index is
    /// not exactly the one `watch` would have built: every watched pair
    /// listed once under each endpoint (twice under its vertex for a
    /// self-pair), nothing else listed, and no empty or repeated vertex
    /// list. Anything looser would panic in a later `unwatch` or skew the
    /// byte accounting.
    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        let n = read_usize(r)?;
        let mut ids = FastMap::default();
        ids.reserve(n.min(1 << 16));
        let mut slots = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let key = read_u64(r)?;
            let rc = read_u32(r)?;
            if rc == 0 {
                return Err(corrupt("watched pair with zero refcount"));
            }
            if ids.insert(key, slots.len() as u32).is_some() {
                return Err(corrupt("watched pair listed twice"));
            }
            slots.push(WatchSlot {
                key,
                rc,
                hit: u32::MAX,
            });
        }
        // Listings seen per slot under its low and its high endpoint.
        let mut listed = vec![[0u32; 2]; slots.len()];
        let n = read_usize(r)?;
        let mut incident: FastMap<u32, Vec<u32>> = FastMap::default();
        incident.reserve(n.min(1 << 16));
        let mut incident_vec_bytes = 0usize;
        for _ in 0..n {
            let v = read_u32(r)?;
            let len = read_usize(r)?;
            if len == 0 {
                return Err(corrupt("empty incident list"));
            }
            let mut list = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                let key = read_u64(r)?;
                let Some(&id) = ids.get(&key) else {
                    return Err(corrupt("incident pair is not watched"));
                };
                let (lo, hi) = unpack_pair(key);
                let end = if v == lo.0 {
                    0
                } else if v == hi.0 {
                    1
                } else {
                    return Err(corrupt("incident pair listed under a non-endpoint"));
                };
                listed[id as usize][end] += 1;
                list.push(id);
            }
            incident_vec_bytes += list.capacity() * 4 + 24;
            if incident.insert(v, list).is_some() {
                return Err(corrupt("incident list repeated for one vertex"));
            }
        }
        for (slot, seen) in slots.iter().zip(&listed) {
            let (lo, hi) = unpack_pair(slot.key);
            let want = if lo == hi { [2, 0] } else { [1, 1] };
            if *seen != want {
                return Err(corrupt(
                    "incident index does not list each pair once per endpoint",
                ));
            }
        }
        let watches_started = read_u64(r)?;
        let watches_retired = read_u64(r)?;
        Ok(PairWatcher {
            incident,
            incident_vec_bytes,
            ids,
            slots,
            free: Vec::new(),
            epoch: 0,
            watches_started,
            watches_retired,
        })
    }
}

/// The watcher as it was before slot ids: `refcount` and `hit_epoch` hash
/// maps keyed by packed pair, `incident` lists of packed pairs. Kept as the
/// oracle the slab watcher is checked against.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Default)]
    pub(super) struct HashWatcher {
        incident: FastMap<u32, Vec<u64>>,
        refcount: FastMap<u64, u32>,
        hit_epoch: FastMap<u64, u32>,
        epoch: u32,
        watches_started: u64,
        watches_retired: u64,
    }

    impl HashWatcher {
        pub(super) fn watch(&mut self, a: VertexId, b: VertexId) {
            self.watches_started += 1;
            let key = pack_pair(a, b);
            let rc = self.refcount.entry(key).or_insert(0);
            *rc += 1;
            if *rc == 1 {
                let (lo, hi) = unpack_pair(key);
                self.incident.entry(lo.0).or_default().push(key);
                self.incident.entry(hi.0).or_default().push(key);
            }
        }

        pub(super) fn unwatch(&mut self, a: VertexId, b: VertexId) {
            self.watches_retired += 1;
            let key = pack_pair(a, b);
            let rc = self.refcount.get_mut(&key).expect("watched");
            *rc -= 1;
            if *rc == 0 {
                self.refcount.remove(&key);
                self.hit_epoch.remove(&key);
                let (lo, hi) = unpack_pair(key);
                for v in [lo.0, hi.0] {
                    let list = self.incident.get_mut(&v).expect("listed");
                    let pos = list.iter().position(|&p| p == key).expect("in list");
                    list.swap_remove(pos);
                    if list.is_empty() {
                        self.incident.remove(&v);
                    }
                }
            }
        }

        pub(super) fn watched_pairs(&self) -> usize {
            self.refcount.len()
        }

        pub(super) fn begin_list(&mut self) {
            self.epoch = self.epoch.wrapping_add(1);
        }

        pub(super) fn on_item<F: FnMut(u64)>(&mut self, x: VertexId, mut completed: F) {
            let Some(pairs) = self.incident.get(&x.0) else {
                return;
            };
            for &key in pairs {
                match self.hit_epoch.get_mut(&key) {
                    Some(e) if *e == self.epoch => {
                        *e = self.epoch.wrapping_add(u32::MAX / 2);
                        completed(key);
                    }
                    _ => {
                        self.hit_epoch.insert(key, self.epoch);
                    }
                }
            }
        }

        /// The checkpoint payload, in the format [`PairWatcher`] reads.
        pub(super) fn save(&self) -> Vec<u8> {
            let mut w = Vec::new();
            write_usize(&mut w, self.refcount.len()).unwrap();
            for (&key, &rc) in &self.refcount {
                write_u64(&mut w, key).unwrap();
                write_u32(&mut w, rc).unwrap();
            }
            write_usize(&mut w, self.incident.len()).unwrap();
            for (&v, keys) in &self.incident {
                write_u32(&mut w, v).unwrap();
                write_usize(&mut w, keys.len()).unwrap();
                for &key in keys {
                    write_u64(&mut w, key).unwrap();
                }
            }
            write_u64(&mut w, self.watches_started).unwrap();
            write_u64(&mut w, self.watches_retired).unwrap();
            w
        }

        /// Rebuild from a payload, replaying map insertions in payload
        /// order as the old restore did (no validation: oracle input is
        /// always well formed).
        pub(super) fn restore(mut r: &[u8]) -> Self {
            let r = &mut r;
            let n = read_usize(r).unwrap();
            let mut refcount = FastMap::default();
            refcount.reserve(n.min(1 << 16));
            for _ in 0..n {
                let key = read_u64(r).unwrap();
                refcount.insert(key, read_u32(r).unwrap());
            }
            let n = read_usize(r).unwrap();
            let mut incident = FastMap::default();
            incident.reserve(n.min(1 << 16));
            for _ in 0..n {
                let v = read_u32(r).unwrap();
                let len = read_usize(r).unwrap();
                let keys: Vec<u64> = (0..len).map(|_| read_u64(r).unwrap()).collect();
                incident.insert(v, keys);
            }
            HashWatcher {
                incident,
                refcount,
                hit_epoch: FastMap::default(),
                epoch: 0,
                watches_started: read_u64(r).unwrap(),
                watches_retired: read_u64(r).unwrap(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::HashWatcher;
    use super::*;
    use proptest::prelude::*;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    fn completions(w: &mut PairWatcher, list: &[u32]) -> Vec<u64> {
        let mut out = Vec::new();
        w.begin_list();
        for &x in list {
            w.on_item(v(x), |k| out.push(k));
        }
        out
    }

    #[test]
    fn detects_completion_when_both_endpoints_in_list() {
        let mut w = PairWatcher::new();
        w.watch(v(1), v(2));
        assert_eq!(
            completions(&mut w, &[3, 1, 4, 2, 5]),
            vec![pack_pair(v(1), v(2))]
        );
    }

    #[test]
    fn no_completion_with_single_endpoint() {
        let mut w = PairWatcher::new();
        w.watch(v(1), v(2));
        assert!(completions(&mut w, &[1, 3, 4]).is_empty());
        // State resets between lists: endpoint in a *different* list does
        // not pair with the earlier one.
        assert!(completions(&mut w, &[2, 5]).is_empty());
    }

    #[test]
    fn reports_once_per_list_and_pair() {
        let mut w = PairWatcher::new();
        w.watch(v(1), v(2));
        w.watch(v(1), v(2)); // refcount 2, still one report
        assert_eq!(completions(&mut w, &[1, 2]).len(), 1);
        // And again in a later list.
        assert_eq!(completions(&mut w, &[2, 1]).len(), 1);
    }

    #[test]
    fn multiple_pairs_on_shared_vertex() {
        let mut w = PairWatcher::new();
        w.watch(v(1), v(2));
        w.watch(v(1), v(3));
        let got = completions(&mut w, &[2, 3, 1]);
        assert_eq!(got.len(), 2);
        assert!(got.contains(&pack_pair(v(1), v(2))));
        assert!(got.contains(&pack_pair(v(1), v(3))));
    }

    #[test]
    fn unwatch_respects_refcounts() {
        let mut w = PairWatcher::new();
        w.watch(v(1), v(2));
        w.watch(v(1), v(2));
        w.unwatch(v(1), v(2));
        assert!(w.is_watched(v(1), v(2)));
        assert_eq!(completions(&mut w, &[1, 2]).len(), 1);
        w.unwatch(v(1), v(2));
        assert!(!w.is_watched(v(1), v(2)));
        assert!(completions(&mut w, &[1, 2]).is_empty());
        assert_eq!(w.watched_pairs(), 0);
    }

    #[test]
    #[should_panic(expected = "unwatch of unwatched")]
    fn unwatch_unknown_pair_panics() {
        let mut w = PairWatcher::new();
        w.unwatch(v(8), v(9));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let k = pack_pair(v(7), v(3));
        assert_eq!(unpack_pair(k), (v(3), v(7)));
        assert_eq!(k, pack_pair(v(3), v(7)));
    }

    #[test]
    fn space_reporting_grows_and_shrinks() {
        let mut w = PairWatcher::new();
        let empty = w.space_bytes();
        for i in 0..100 {
            w.watch(v(i), v(i + 1000));
        }
        assert!(w.space_bytes() > empty);
    }

    /// The incremental inner-vec accounting must equal a full rescan at
    /// every point of a churny watch/unwatch history.
    #[test]
    fn incremental_accounting_matches_rescan() {
        let rescan =
            |w: &PairWatcher| -> usize { w.incident.values().map(|v| v.capacity() * 4 + 24).sum() };
        let mut w = PairWatcher::new();
        // Shared vertices force inner vecs to grow past their first
        // allocation; refcounted duplicates exercise the no-op paths.
        for i in 0..200u32 {
            w.watch(v(i % 7), v(100 + i));
            w.watch(v(i % 7), v(100 + i));
            assert_eq!(w.incident_vec_bytes, rescan(&w), "after watch {i}");
        }
        for i in (0..200u32).rev() {
            w.unwatch(v(i % 7), v(100 + i));
            w.unwatch(v(i % 7), v(100 + i));
            assert_eq!(w.incident_vec_bytes, rescan(&w), "after unwatch {i}");
        }
        assert_eq!(w.incident_vec_bytes, 0);
        assert!(w.incident.is_empty());
    }

    fn save(w: &PairWatcher) -> Vec<u8> {
        let mut buf = Vec::new();
        w.save(&mut buf).unwrap();
        buf
    }

    /// One step of a watcher script, `(op, a, b)`: `0..3` watch `{a, b}`
    /// (a self-pair when `a == b`), `3..5` unwatch the `a`-th live watch,
    /// `5..10` feed item `a` to the open list, `10` start a new list, `11`
    /// checkpoint and restore, then start a new list (restores only ever
    /// happen at list boundaries). Watches and unwatches land mid-list, as
    /// they do inside the estimators, and a list may repeat a vertex.
    fn script() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
        prop::collection::vec((0u8..12, 0u32..8, 0u32..8), 0..80)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The slab watcher reports exactly the completions, in exactly the
        /// order, of the hash-map watcher it replaced, and writes the same
        /// checkpoint bytes, under refcounts above one, self-pairs, repeated
        /// vertices within a list, and restores partway through.
        #[test]
        fn slab_watcher_matches_hash_watcher_oracle(ops in script()) {
            let mut new = PairWatcher::new();
            let mut old = HashWatcher::default();
            let mut live: Vec<(u32, u32)> = Vec::new();
            for (op, a, b) in ops {
                match op {
                    0..=2 => {
                        new.watch(v(a), v(b));
                        old.watch(v(a), v(b));
                        live.push((a, b));
                    }
                    3..=4 => {
                        if !live.is_empty() {
                            let (a, b) = live.swap_remove(a as usize % live.len());
                            new.unwatch(v(a), v(b));
                            old.unwatch(v(a), v(b));
                        }
                    }
                    5..=9 => {
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        new.on_item(v(a), |k| got.push(k));
                        old.on_item(v(a), |k| want.push(k));
                        prop_assert_eq!(got, want);
                    }
                    10 => {
                        new.begin_list();
                        old.begin_list();
                    }
                    _ => {
                        let bytes = save(&new);
                        prop_assert_eq!(&bytes, &old.save());
                        new = PairWatcher::restore(&mut &bytes[..]).unwrap();
                        old = HashWatcher::restore(&bytes);
                        new.begin_list();
                        old.begin_list();
                    }
                }
                prop_assert_eq!(new.watched_pairs(), old.watched_pairs());
            }
        }
    }

    #[test]
    fn self_pair_completes_on_a_single_sighting() {
        let mut w = PairWatcher::new();
        w.watch(v(4), v(4));
        assert_eq!(completions(&mut w, &[4]), vec![pack_pair(v(4), v(4))]);
        w.unwatch(v(4), v(4));
        assert_eq!(w.watched_pairs(), 0);
        assert!(w.incident.is_empty());
    }

    /// A payload with the given watched pairs and incident lists.
    fn payload(pairs: &[(u64, u32)], lists: &[(u32, &[u64])]) -> Vec<u8> {
        let mut w = Vec::new();
        write_usize(&mut w, pairs.len()).unwrap();
        for &(key, rc) in pairs {
            write_u64(&mut w, key).unwrap();
            write_u32(&mut w, rc).unwrap();
        }
        write_usize(&mut w, lists.len()).unwrap();
        for &(vx, keys) in lists {
            write_u32(&mut w, vx).unwrap();
            write_usize(&mut w, keys.len()).unwrap();
            for &key in keys {
                write_u64(&mut w, key).unwrap();
            }
        }
        write_u64(&mut w, 0).unwrap();
        write_u64(&mut w, 0).unwrap();
        w
    }

    #[test]
    fn restore_accepts_a_consistent_index() {
        let p12 = pack_pair(v(1), v(2));
        let p33 = pack_pair(v(3), v(3));
        let bytes = payload(
            &[(p12, 2), (p33, 1)],
            &[(1, &[p12]), (2, &[p12]), (3, &[p33, p33])],
        );
        let mut w = PairWatcher::restore(&mut &bytes[..]).unwrap();
        assert_eq!(w.watched_pairs(), 2);
        assert_eq!(completions(&mut w, &[2, 1, 3]), vec![p12, p33]);
        w.unwatch(v(1), v(2));
        w.unwatch(v(2), v(1));
        w.unwatch(v(3), v(3));
        assert!(w.incident.is_empty());
        assert_eq!(w.incident_vec_bytes, 0);
    }

    #[test]
    fn restore_rejects_an_inconsistent_index() {
        let p12 = pack_pair(v(1), v(2));
        let p33 = pack_pair(v(3), v(3));
        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "listed twice under one endpoint, never under the other",
                payload(&[(p12, 1)], &[(1, &[p12, p12])]),
            ),
            (
                "missing under one endpoint",
                payload(&[(p12, 1)], &[(1, &[p12])]),
            ),
            (
                "listed under a non-endpoint",
                payload(&[(p12, 1)], &[(1, &[p12]), (2, &[p12]), (5, &[p12])]),
            ),
            (
                "self-pair listed once",
                payload(&[(p33, 1)], &[(3, &[p33])]),
            ),
            (
                "empty list",
                payload(&[(p12, 1)], &[(1, &[p12]), (2, &[p12]), (7, &[])]),
            ),
            (
                "vertex list repeated",
                payload(&[(p12, 1)], &[(1, &[p12]), (2, &[p12]), (1, &[p12])]),
            ),
            (
                "unwatched pair listed",
                payload(&[], &[(1, &[p12]), (2, &[p12])]),
            ),
            (
                "pair watched twice",
                payload(&[(p12, 1), (p12, 1)], &[(1, &[p12]), (2, &[p12])]),
            ),
            (
                "zero refcount",
                payload(&[(p12, 0)], &[(1, &[p12]), (2, &[p12])]),
            ),
        ];
        for (what, bytes) in cases {
            let err = PairWatcher::restore(&mut &bytes[..])
                .err()
                .unwrap_or_else(|| panic!("{what}: accepted"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }
}
