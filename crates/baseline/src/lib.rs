//! Comparison systems for the evaluation (§VIII).
//!
//! * [`DbmsBaseline`] — the "PostgreSQL" stand-in of Fig. 10: a sequential
//!   scan over the UpdateList heap file with hash aggregation. Multi-
//!   attribute `GROUP BY` defeats any single-column index, so a row store
//!   must scan the whole relation; its cost is therefore (nearly) constant
//!   in the query window — exactly the behaviour the paper measures.
//! * [`RasedVariant`] — the ablation configurations of Fig. 9: RASED-F
//!   (flat daily index, no caching, no level optimization), RASED-O
//!   (hierarchy + level optimizer, no caching), and full RASED.

#![forbid(unsafe_code)]

mod dbms;
mod variants;

pub use dbms::DbmsBaseline;
pub use variants::RasedVariant;
