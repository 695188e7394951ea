//! Synthetic OSM world and edit-stream generation.
//!
//! The paper evaluates RASED on the real OSM planet: 3 TB of full history,
//! daily diffs, and changeset dumps. Those inputs are not redistributable
//! (and not downloadable here), so this crate *simulates* them — the
//! documented substitution of DESIGN.md §1. It produces the same three file
//! families the crawlers of §V consume, over a synthetic world whose
//! statistics echo OSM's:
//!
//! * a **world atlas** of country polygons laid out on the globe, each with
//!   a Zipf-distributed editing-activity weight (OSM editing is heavily
//!   skewed toward a few countries — cf. Fig. 3 of the paper);
//! * per-country **road networks** (nodes, highway-tagged ways, route
//!   relations) with full version history;
//! * a day-by-day **edit stream**: user sessions become changesets with
//!   bounding boxes; creates / geometry edits / tag edits / deletes follow
//!   a configurable mix; daily `osmChange` diffs carry after-images only.
//!
//! Everything is driven by a seeded xoshiro256++ generator
//! ([`rng::Rng`]), so a `(seed, config)` pair reproduces a dataset bit for
//! bit. The simulator also emits the **ground truth** `UpdateList` (with
//! exact update-type classification), which integration tests compare
//! against the collector's output.

#![forbid(unsafe_code)]

pub mod rng;

mod sim;
mod world;

pub use sim::{DayOutput, EditSimulator, SimConfig};
pub use world::{CountryZone, WorldAtlas, WorldConfig};

mod dataset;
pub use dataset::{Dataset, DatasetConfig, DatasetError, DatasetPaths};
