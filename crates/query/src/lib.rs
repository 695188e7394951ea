//! The Query Execution module (§IV-A, §VII).
//!
//! RASED analysis queries are aggregates over the *UpdateList* with the SQL
//! signature of §IV-A: `IN`-list filters and a `GROUP BY` over any subset of
//! {ElementType, Date, Country, RoadType, UpdateType}, counting matches (or
//! reporting them as a percentage of the country's road-network size).
//!
//! [`QueryEngine`] executes them in the paper's two phases: a (mostly
//! disk-bound) first phase that retrieves the data cubes chosen by the
//! level optimizer, and an in-memory second phase that aggregates within
//! the cubes. Per-query [`QueryStats`] expose exactly what §VIII measures —
//! cubes from cache vs. disk, physical I/O, modeled I/O time, wall time.
//!
//! [`naive_execute`] is the semantics oracle: the same query evaluated by a
//! direct scan over an in-memory `UpdateList`. Tests compare engine output
//! against it record for record.

#![forbid(unsafe_code)]

mod engine;
mod model;
mod naive;

pub use engine::{QueryEngine, QueryError, SpatialExec};
pub use model::{
    AnalysisQuery, GroupDim, GroupKey, NetworkSizes, QueryResult, QueryStats, ResultRow, ValueMode,
};
pub use naive::{naive_execute, RecordAggregator};
