//! [`ShardSet`]: N independent [`TemporalIndex`] stores behind one router —
//! the single sharded epoch store under both lattice hierarchies.
//!
//! The cube store ([`crate::ShardedIndex`], country shards) and the spatial
//! bank ([`crate::SpatialBank`], longitude bands) differ only in *what*
//! they store and *how a key maps to a shard*. Everything else lives here,
//! once:
//!
//! * **Routing.** A [`Router`] maps a hierarchy key (a country, a grid
//!   cell) to its shard through the placement functions in
//!   [`crate::routing`], and names where each day's marker commits.
//! * **Epochs and publish hooks.** Each data shard has its own epoch
//!   stream; [`ShardSet::epochs`] is the composite response-cache stamp and
//!   [`ShardSet::set_publish_hook`] reports `(shard, epoch)` after any
//!   shard publishes.
//! * **The day-commit protocol.** [`ShardSet::commit_day`] writes the data
//!   units of the shards that have data, in shard order, then the day
//!   marker *last* at the store the router names: the round-robin
//!   [`crate::marker_shard`] for cubes, a dedicated registry store for the
//!   bank (so marker commits never move a band epoch). A day is committed
//!   exactly when its marker is; a crash before it loses the whole day to
//!   resume, never part of it.
//! * **Snapshot pinning.** [`Pinned`] holds one catalog snapshot per shard
//!   a query reads, plus each shard's I/O counters at pin time, so one
//!   query sees one consistent state per shard and is charged exactly the
//!   page reads made since it pinned.
//! * **Recovery and durability.** Every store recovers its own WAL on open
//!   (a torn tail in one shard never blocks another); [`ShardSet::sync`]
//!   checkpoints them all.

use crate::store::{CatalogVersion, CubeKey, IndexError, TemporalIndex};
use rased_storage::IoSnapshot;
use rased_temporal::{Date, Period};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Where a hierarchy's data and day markers live.
pub trait Router: Send + Sync {
    /// The hierarchy key a shard is chosen by.
    type Key: Copy;
    /// Whether day markers live in a registry store after the data shards
    /// rather than on a data shard.
    const REGISTRY: bool;
    /// The data shard owning `key` when the set is split `shards` ways.
    fn shard(&self, key: Self::Key, shards: usize) -> usize;
    /// The store slot `day`'s marker commits to: a data shard, or
    /// `shards` — the registry — when [`Router::REGISTRY`] is set.
    fn marker(&self, day: Date, shards: usize) -> usize;
    /// The catalog key of `day`'s marker.
    fn marker_key(&self, day: Date) -> CubeKey;
    /// Directory of store `slot` under `root` (`slot == shards` is the
    /// registry).
    fn dir(&self, root: &Path, shards: usize, slot: usize) -> PathBuf;
}

/// N data shards (and, per the router, one marker registry) with one
/// commit protocol, one epoch vector and one pinning scheme. See the
/// module docs.
pub struct ShardSet<R: Router> {
    router: R,
    /// The data shards in shard order, then the registry if the router
    /// keeps one.
    stores: Vec<TemporalIndex>,
    shards: usize,
}

impl<R: Router> ShardSet<R> {
    /// Create or open every store under `dir` with `mk`, data shards in
    /// order and the registry last. Each store recovers independently.
    pub(crate) fn build(
        dir: &Path,
        shards: usize,
        router: R,
        mk: impl Fn(&Path) -> Result<TemporalIndex, IndexError>,
    ) -> Result<ShardSet<R>, IndexError> {
        let n = shards.max(1);
        let stores = (0..n + usize::from(R::REGISTRY))
            .map(|slot| mk(&router.dir(dir, n, slot)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardSet { router, stores, shards: n })
    }

    /// The router.
    pub(crate) fn router(&self) -> &R {
        &self.router
    }

    /// Number of data shards.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The data shards, in shard order.
    pub(crate) fn stores(&self) -> &[TemporalIndex] {
        self.stores.get(..self.shards).unwrap_or(&[])
    }

    /// Data shard `i`.
    pub(crate) fn store(&self, i: usize) -> Option<&TemporalIndex> {
        self.stores().get(i)
    }

    /// The marker registry, when the router keeps one.
    pub(crate) fn registry(&self) -> Option<&TemporalIndex> {
        if R::REGISTRY {
            self.stores.get(self.shards)
        } else {
            None
        }
    }

    /// The data shard owning `key`.
    pub(crate) fn shard_of(&self, key: R::Key) -> usize {
        self.router.shard(key, self.shards)
    }

    /// The data shards owning `keys`, sorted and deduplicated.
    pub fn route(&self, keys: impl IntoIterator<Item = R::Key>) -> Vec<usize> {
        let set: BTreeSet<usize> = keys.into_iter().map(|k| self.shard_of(k)).collect();
        set.into_iter().collect()
    }

    /// The per-shard epoch vector — the response-cache stamp: a publish on
    /// shard `i` moves only entry `i`.
    pub fn epochs(&self) -> Vec<u64> {
        self.stores().iter().map(|s| s.epoch()).collect()
    }

    /// Register a hook invoked as `(shard, epoch)` after any data shard
    /// publishes, replacing earlier hooks. The registry has none: marker
    /// commits invalidate nothing.
    pub(crate) fn set_publish_hook(&self, hook: Arc<dyn Fn(usize, u64) + Send + Sync>) {
        for (i, store) in self.stores().iter().enumerate() {
            let hook = Arc::clone(&hook);
            store.set_publish_hook(Arc::new(move |epoch| hook(i, epoch)));
        }
    }

    /// Fsync and checkpoint every store, registry included.
    pub(crate) fn sync(&self) -> Result<(), IndexError> {
        self.stores.iter().try_for_each(|s| s.sync())
    }

    /// True when `day` is committed: its marker is present.
    pub(crate) fn is_marked(&self, day: Date) -> bool {
        let marker = self.stores.get(self.router.marker(day, self.shards));
        marker.is_some_and(|s| s.has_key(self.router.marker_key(day)))
    }

    /// Every committed day, read from one snapshot of each store that
    /// holds markers.
    pub fn marked_days(&self) -> BTreeSet<Date> {
        let mut days = BTreeSet::new();
        let first = if R::REGISTRY { self.shards } else { 0 };
        for (slot, store) in self.stores.iter().enumerate().skip(first) {
            for key in store.snapshot().keys() {
                if let Period::Day(d) = key.period {
                    if key == self.router.marker_key(d)
                        && self.router.marker(d, self.shards) == slot
                    {
                        days.insert(d);
                    }
                }
            }
        }
        days
    }

    /// Write each shard's unit (`units[i]` to shard `i`, in shard order),
    /// skipping shards with none. Returns the number of shards written.
    pub(crate) fn write_units<U>(
        &self,
        units: impl IntoIterator<Item = Option<U>>,
        mut write: impl FnMut(&TemporalIndex, U) -> Result<(), IndexError>,
    ) -> Result<usize, IndexError> {
        let mut touched = 0;
        for (store, unit) in self.stores().iter().zip(units) {
            if let Some(unit) = unit {
                write(store, unit)?;
                touched += 1;
            }
        }
        Ok(touched)
    }

    /// The day-commit protocol: every data unit first, then the marker
    /// unit last at the store the router names for `day`. When the marker
    /// lands on a data shard, that shard's own unit is held back and handed
    /// to `marker`, which returns what commits there (`None` commits
    /// nothing — the day stays unmarked). `write` is told whether it is
    /// writing the marker. Returns the data shards written before the
    /// marker.
    pub(crate) fn commit_day<U>(
        &self,
        day: Date,
        mut units: Vec<Option<U>>,
        marker: impl FnOnce(Option<U>) -> Option<U>,
        mut write: impl FnMut(&TemporalIndex, U, bool) -> Result<(), IndexError>,
    ) -> Result<usize, IndexError> {
        let slot = self.router.marker(day, self.shards);
        let held = units.get_mut(slot).and_then(Option::take);
        let touched = self.write_units(units, |store, unit| write(store, unit, false))?;
        if let (Some(store), Some(unit)) = (self.stores.get(slot), marker(held)) {
            write(store, unit, true)?;
        }
        Ok(touched)
    }

    /// Pin the catalog snapshots of data shards `shards`.
    pub fn pin(&self, shards: impl IntoIterator<Item = usize>) -> Pinned<'_> {
        Pinned::pin(shards.into_iter().filter_map(|i| self.store(i).map(|s| (i, s))))
    }
}

/// One pinned shard: its store, the catalog snapshot a query reads, and
/// the page-file I/O counters at pin time.
pub struct Pin<'a> {
    pub store: &'a TemporalIndex,
    pub snap: Arc<CatalogVersion>,
    io: IoSnapshot,
}

/// The shards one query reads, each pinned once for the whole plan and
/// fetch: concurrent publishes swap in new catalog versions but never
/// touch a pinned one. Indexed by shard.
pub struct Pinned<'a> {
    pins: Vec<Option<Pin<'a>>>,
}

impl<'a> Pinned<'a> {
    /// Pin each `(shard, store)`.
    pub fn pin(stores: impl IntoIterator<Item = (usize, &'a TemporalIndex)>) -> Pinned<'a> {
        let mut pins: Vec<Option<Pin<'a>>> = Vec::new();
        for (i, store) in stores {
            if pins.len() <= i {
                pins.resize_with(i + 1, || None);
            }
            if let Some(slot) = pins.get_mut(i) {
                let snap = store.snapshot();
                *slot = Some(Pin { store, snap, io: store.file().stats().snapshot() });
            }
        }
        Pinned { pins }
    }

    /// Shard `i`'s pin, if it was pinned.
    pub fn get(&self, i: usize) -> Option<&Pin<'a>> {
        self.pins.get(i).and_then(Option::as_ref)
    }

    /// `(shard, pin)` in shard order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Pin<'a>)> {
        self.pins.iter().enumerate().filter_map(|(i, p)| p.as_ref().map(|p| (i, p)))
    }

    /// The composite epoch of everything pinned (sum of snapshot epochs).
    pub fn epoch(&self) -> u64 {
        self.iter().map(|(_, p)| p.snap.epoch()).sum()
    }

    /// Page-file I/O on the pinned shards since they were pinned. Counters
    /// are per store, so concurrent queries' reads can be co-attributed.
    pub fn io_since(&self) -> IoSnapshot {
        let mut total = IoSnapshot::default();
        for (_, p) in self.iter() {
            total += p.store.file().stats().snapshot().since(&p.io);
        }
        total
    }

    /// The modeled cost of one page read on the pinned stores (shards
    /// share one cost model and page size).
    pub fn page_cost(&self) -> Duration {
        self.iter()
            .next()
            .map(|(_, p)| p.store.file().cost_model().cost(p.store.file().page_size() as u64))
            .unwrap_or(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::routing::{BandRouter, CountryRouter};
    use dettest::TempDir;
    use rased_cube::CubeSchema;
    use rased_storage::IoCostModel;

    fn set<R: Router>(dir: &Path, n: usize, router: R) -> ShardSet<R> {
        ShardSet::build(dir, n, router, |d| {
            TemporalIndex::create(
                d,
                CubeSchema::tiny(),
                4,
                CacheConfig::disabled(),
                IoCostModel::free(),
            )
        })
        .expect("build")
    }

    /// Commit `units` (shard `i` holds `Some(i)` for even `i`) for `day`
    /// with marker unit 99 when the marker store has none; returns the
    /// `(unit, is_marker)` write order and the data shards written.
    fn commit_order<R: Router>(s: &ShardSet<R>, day: Date) -> (Vec<(usize, bool)>, usize) {
        let units = (0..s.shard_count()).map(|i| i.is_multiple_of(2).then_some(i)).collect();
        let mut order = Vec::new();
        let marker = |held: Option<usize>| Some(held.unwrap_or(99));
        let touched = s
            .commit_day(day, units, marker, |_, u, m| {
                order.push((u, m));
                Ok(())
            })
            .expect("commit");
        (order, touched)
    }

    #[test]
    fn marker_commits_last_where_the_router_says() {
        let day = Date::new(2021, 6, 2).expect("date");
        let marker = crate::routing::marker_shard(day, 4);

        // Cubes: the marker shard's own unit is held back and commits last.
        let dir = TempDir::new("shardset-order");
        let (mut order, _) = commit_order(&set(dir.path(), 4, CountryRouter), day);
        assert_eq!(order.pop(), Some((if marker.is_multiple_of(2) { marker } else { 99 }, true)));
        assert!(order.iter().all(|&(u, m)| !m && u != marker));

        // Bank: every data unit goes out, then the registry marker.
        let dir = TempDir::new("shardset-order-bank");
        let (mut order, touched) = commit_order(&set(dir.path(), 4, BandRouter::new(8)), day);
        assert_eq!(order.pop(), Some((99, true)));
        assert_eq!(order, vec![(0, false), (2, false)]);
        assert_eq!(touched, 2);
    }

    #[test]
    fn pinned_io_counts_only_the_pinned_shards() {
        let dir = TempDir::new("shardset-pin");
        let s = set(dir.path(), 3, CountryRouter);
        let day = Date::new(2021, 1, 4).expect("date");
        for store in s.stores() {
            store
                .put(Period::Day(day), &rased_cube::DataCube::zeroed(CubeSchema::tiny()))
                .expect("put");
        }
        let pinned = s.pin([2]);
        assert!(pinned.get(0).is_none() && pinned.get(2).is_some());
        assert_eq!(pinned.epoch(), 1);
        s.store(0).expect("shard 0").fetch_uncached(Period::Day(day)).expect("read");
        assert_eq!(pinned.io_since().reads, 0, "shard 0 was not pinned");
        s.store(2).expect("shard 2").fetch_uncached(Period::Day(day)).expect("read");
        assert_eq!(pinned.io_since().reads, 1);
        assert_eq!(s.marked_days().len(), 1, "day {day} is marked on its marker shard");
    }
}
