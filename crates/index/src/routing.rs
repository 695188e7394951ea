//! Shard routing: the single home of every placement function.
//!
//! Three subsystems must agree, byte for byte, on where data lives — the
//! ingest splitter ([`crate::ShardSet`] under both hierarchies), the query router
//! (`rased-query` predicate pushdown), and the dashboard's response-cache
//! stamper (`rased-dashboard` event loop). A disagreement is silent
//! corruption: a query scattered to the wrong shard returns zeros, and a
//! cache stamp covering the wrong shard serves stale tiles after a
//! publish. Every assignment function therefore lives *here* and nowhere
//! else; callers re-export rather than re-derive.
//!
//! This module is the lock-rank table's `index:shard_router` slot (rank 17
//! in `lint.toml`): routing is pure arithmetic and takes no locks, so it
//! can be called from any rank, including inside the dashboard event loop.

use crate::shardset::Router;
use crate::store::CubeKey;
use rased_geo::CellId;
use rased_osm_model::CountryId;
use rased_temporal::{Date, Period};
use std::path::{Path, PathBuf};

/// The shard owning `country`'s cells when the store is split `shards`
/// ways. This is *the* assignment function: ingest splitting, query
/// routing, and response-cache stamping must all agree on it.
pub fn shard_for(country: CountryId, shards: usize) -> usize {
    country.index() % shards.max(1)
}

/// The shard that always commits `day` (possibly with an all-zero cube)
/// and commits it last, carrying the durable row watermark. Round-robin by
/// day ordinal so no single shard accumulates every bookkeeping cube.
pub fn marker_shard(day: Date, shards: usize) -> usize {
    day.days().rem_euclid(shards.max(1) as i32) as usize
}

/// The spatial-bank shard owning grid cell `cell` when the bank is split
/// `shards` ways over a grid `cols` columns wide: contiguous longitude
/// bands, so a viewport (an axis-aligned box, hence a contiguous column
/// range) touches a contiguous — and minimal — run of shards. A publish
/// of cells in one band bumps only that band's epoch; viewport tiles over
/// other bands stay cached.
pub fn spatial_shard_for(cell: CellId, cols: u32, shards: usize) -> usize {
    let shards = shards.max(1);
    let cols = cols.max(1) as usize;
    ((cell.col as usize).min(cols - 1) * shards) / cols
}

/// Region code of day markers in the spatial bank's registry store. The
/// registry holds only markers, so the code just needs to be stable;
/// `u32::MAX` also maps to no grid cell (cell codes are offset by one), so
/// a marker key can never be mistaken for a block.
const MARKER_REGION: u32 = u32::MAX;

/// The cube hierarchy's router: countries to [`shard_for`] shards, each
/// day's marker on its round-robin [`marker_shard`]. A single-shard store
/// lives at the root itself (the pre-sharding layout); more shards nest
/// under `shard-NNN`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountryRouter;

impl Router for CountryRouter {
    type Key = CountryId;
    const REGISTRY: bool = false;

    fn shard(&self, key: CountryId, shards: usize) -> usize {
        shard_for(key, shards)
    }

    fn marker(&self, day: Date, shards: usize) -> usize {
        marker_shard(day, shards)
    }

    fn marker_key(&self, day: Date) -> CubeKey {
        CubeKey::world(Period::Day(day))
    }

    fn dir(&self, root: &Path, shards: usize, slot: usize) -> PathBuf {
        if shards <= 1 {
            root.to_path_buf()
        } else {
            root.join(format!("shard-{slot:03}"))
        }
    }
}

/// The spatial hierarchy's router: grid cells to [`spatial_shard_for`]
/// longitude bands of a grid `cols` columns wide, day markers in a
/// `marker` registry store beside the `spatial-NNN` bands.
#[derive(Debug, Clone, Copy)]
pub struct BandRouter {
    cols: u32,
}

impl BandRouter {
    /// Bands over a grid `cols` columns wide.
    pub fn new(cols: u32) -> BandRouter {
        BandRouter { cols }
    }
}

impl Router for BandRouter {
    type Key = CellId;
    const REGISTRY: bool = true;

    fn shard(&self, key: CellId, shards: usize) -> usize {
        spatial_shard_for(key, self.cols, shards)
    }

    fn marker(&self, _day: Date, shards: usize) -> usize {
        shards
    }

    fn marker_key(&self, day: Date) -> CubeKey {
        CubeKey::regional(Period::Day(day), MARKER_REGION)
    }

    fn dir(&self, root: &Path, shards: usize, slot: usize) -> PathBuf {
        if slot >= shards {
            root.join("marker")
        } else {
            root.join(format!("spatial-{slot:03}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn country_routing_is_total_and_in_range() {
        for shards in [1usize, 2, 3, 8] {
            for c in 0..600u16 {
                let s = shard_for(CountryId(c), shards);
                assert!(s < shards);
            }
        }
        // Zero shards is clamped, never a division by zero.
        assert_eq!(shard_for(CountryId(5), 0), 0);
        assert_eq!(marker_shard(Date::new(2021, 1, 1).unwrap(), 0), 0);
    }

    #[test]
    fn spatial_bands_are_contiguous_and_cover_all_shards() {
        let cols = 16u32;
        for shards in [1usize, 2, 4, 7] {
            let mut last = 0usize;
            let mut seen = vec![false; shards];
            for col in 0..cols as u16 {
                let s = spatial_shard_for(CellId { row: 3, col }, cols, shards);
                assert!(s < shards);
                assert!(s >= last, "bands must be monotone in column");
                last = s;
                if let Some(slot) = seen.get_mut(s) {
                    *slot = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "every shard owns some band at n={shards}");
        }
        // Row never matters: a band is a full column strip.
        for row in 0..40u16 {
            assert_eq!(
                spatial_shard_for(CellId { row, col: 9 }, cols, 4),
                spatial_shard_for(CellId { row: 0, col: 9 }, cols, 4)
            );
        }
        // An out-of-grid column clamps instead of indexing past the bands.
        assert_eq!(spatial_shard_for(CellId { row: 0, col: 999 }, cols, 4), 3);
    }
}
