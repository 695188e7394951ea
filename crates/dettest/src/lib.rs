//! # dettest — deterministic, std-only property testing
//!
//! A small replacement for the subset of `proptest` this workspace uses,
//! with zero dependencies so the tier-1 gate builds offline. See the crate
//! README for the full story; the short version:
//!
//! * [`Rng`] — seeded SplitMix-style PRNG; equal seeds give equal streams.
//! * [`Strategy`] — composable generators: integer ranges (`0i32..100`),
//!   [`bools`], [`just`], [`one_of`], [`weighted`], [`option_of`],
//!   [`vec_of`], [`string_from`], tuples up to arity 8, and
//!   [`Strategy::prop_map`].
//! * Shrinking — every strategy carries a lazy shrink tree; failures are
//!   greedily reduced to a minimal counterexample.
//! * Reproduction — runs are deterministic (fixed base seed). A failure
//!   report prints `DETTEST_SEED=…`; exporting that variable replays the
//!   exact failing case. `DETTEST_CASES` overrides the case count.
//! * [`det_proptest!`] — the `proptest! {}`-shaped macro; bodies use plain
//!   `assert!` / `assert_eq!`.
//! * [`TempDir`] — an RAII temporary directory so unit tests stop leaking
//!   `$TMPDIR` entries (integration tests have their own in
//!   `tests/common`).

#![forbid(unsafe_code)]

mod macros;
mod rng;
mod runner;
mod shrink;
mod strategy;
mod tempdir;

pub use rng::Rng;
pub use tempdir::TempDir;
pub use runner::{check, Config};
pub use shrink::Shrink;
pub use strategy::{
    bools, just, one_of, option_of, string_from, vec_of, weighted, BoxedStrategy, Bools, Just,
    LenRange, Map, OneOf, OptionOf, Strategy, VecOf, Weighted,
};
