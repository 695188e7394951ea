//! RASED — a reproduction of "A Demonstration of RASED: A Scalable Dashboard
//! for Monitoring Road Network Updates in OSM" (ICDE 2022).
//!
//! This is the workspace's umbrella crate: it re-exports the public API of
//! every subsystem and hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`).
//!
//! Start with [`core`] ([`rased_core::Rased`]) for the assembled system, or
//! see `examples/quickstart.rs`.

#![forbid(unsafe_code)]

pub use rased_core as core;
pub use rased_dashboard as dashboard;
pub use rased_osm_gen as gen;

pub mod demo;
