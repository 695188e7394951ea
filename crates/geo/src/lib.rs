//! Spatial primitives and indexes for RASED.
//!
//! Pure geometry — this crate knows nothing about OSM. It provides:
//!
//! * [`Point`] / [`BBox`] in OSM's 1e-7° fixed-point coordinates,
//! * [`Polygon`] with ray-cast point-in-polygon,
//! * [`PolygonIndex`] — "which region contains this point?" lookups, used
//!   for changeset-bbox → country resolution (§V),
//! * [`GridIndex`] — a uniform grid over points, the warehouse's spatial
//!   index for sample-update queries (§VI-B),
//! * [`RTree`] — an STR bulk-loaded R-tree over rectangles, used by the
//!   polygon index to avoid scanning every country polygon per lookup.

#![forbid(unsafe_code)]

mod bbox;
mod grid;
mod gridspec;
mod polygon;
mod rtree;

pub use bbox::{BBox, Point};
pub use grid::GridIndex;
pub use gridspec::{CellCover, CellId, GridSpec};
pub use polygon::{Polygon, PolygonIndex};
pub use rtree::RTree;
