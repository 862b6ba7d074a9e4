//! perfbench — the repository's one benchmark, end to end and layer by
//! layer, declared in `BENCHMARK.json` at the repository root.
//!
//! One load-generator process with two client threads drives the real
//! `msketch-serve` binary, built from the checkout and spawned as a
//! child, through four seeded workloads; checks every answer against an
//! exact oracle it computes itself; and prints every metric by name with
//! its unit. See `README.md` in this directory.

#![warn(missing_docs)]

pub mod check;
pub mod daemon;
pub mod declared;
pub mod gen;
pub mod load;
pub mod plan;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
