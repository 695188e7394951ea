//! Paged storage engine for RASED (§VI).
//!
//! The paper stores every data cube in "one disk page" of ~4 MB and reasons
//! about query cost in *number of cubes retrieved from disk* (§VII). This
//! crate provides that abstraction:
//!
//! * [`PageFile`] — a file of fixed-size pages with explicit allocation,
//!   positioned reads/writes, and a persistent header;
//! * [`IoStats`] — exact physical-I/O counters (reads, writes, bytes);
//! * [`IoCostModel`] — a deterministic latency model (seek + transfer)
//!   accumulated alongside the counters. On a modern dev box the OS page
//!   cache hides the disk/memory asymmetry that Figures 7, 9 and 10 of the
//!   paper measure; the model restores it reproducibly. Raw counters are
//!   always reported too, so no result depends on trusting the model.
//! * [`BufferPool`] — a sharded LRU page cache with hit/miss accounting and
//!   single-flight miss coalescing, used by the warehouse and the row-scan
//!   baseline (the cube index has its own level-aware cache per §VII-A);
//! * [`LruCache`] / [`FlightGroup`] — the concurrency-grade building
//!   blocks behind both caches: an O(1) recency list and a
//!   leader/follower in-flight-miss coalescer, reused by `rased-index`;
//! * [`DiskHashIndex`] — a persistent extendible hash index (the
//!   warehouse's ChangesetID index, §VI-B).

#![forbid(unsafe_code)]

mod buffer;
pub mod bytes;
mod flight;
mod hash_index;
mod lru;
mod pagefile;
mod stats;
pub mod sync;

pub use buffer::{BufferPool, PoolStats};
pub use flight::FlightGroup;
pub use hash_index::DiskHashIndex;
pub use lru::LruCache;
pub use pagefile::{PageFile, PageId, StorageError};
pub use stats::{IoCostModel, IoStats, IoSnapshot};
