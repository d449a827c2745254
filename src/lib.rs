//! # wafer-md
//!
//! A Rust reproduction of *Breaking the Molecular Dynamics Timescale
//! Barrier Using a Wafer-Scale System* (Santos et al., SC 2024,
//! arXiv:2405.07898): EAM molecular dynamics strong-scaled to one atom
//! per processor core on an architectural simulation of the Cerebras
//! Wafer-Scale Engine, with the paper's complete evaluation — linear
//! performance model, FLOP/utilization accounting, strong/weak scaling,
//! energy efficiency, atom-swap remapping, and multi-wafer projections —
//! regenerable from the `wafer-md-bench` binaries.
//!
//! This crate is a facade re-exporting the workspace's five libraries:
//!
//! | crate | role |
//! |---|---|
//! | [`fabric`] | WSE architectural simulator (tiles, routers, marching multicast, cost model) |
//! | [`md`] | MD substrate (EAM splines, Cu/W/Ta materials, lattices, integrators, neighbor lists) |
//! | [`wse`] | the paper's contribution: one-atom-per-core MD on the fabric |
//! | [`baseline`] | LAMMPS-style reference engine + calibrated GPU/CPU cluster models |
//! | [`model`] | analytic models: Tables II–VI and Fig. 1 |
//!
//! On top of the re-exports, the [`scenario`] module is the unified
//! entry point: a serializable [`scenario::ScenarioSpec`] (pure data
//! with a canonical JSON form and a stable content hash), the
//! declarative [`scenario::Scenario`] builder that materializes it, the
//! [`scenario::Engine`] trait both backends implement, and a named
//! registry of every workload (`wafer-md run <name>` / `wafer-md list`
//! on the command line). The [`shard`] module runs any
//! registered MD workload as K spatial shards with ghost-region
//! exchange — bit-identical to the single-engine run — and [`traj`]
//! dumps XYZ trajectories for end-to-end byte comparison.
//!
//! The [`serve`] module turns the byte-determinism guarantee into a
//! service: `wafer-md serve` accepts [`scenario::ScenarioSpec`]
//! requests over HTTP/JSON ([`json`] is the dependency-free JSON
//! layer), runs each distinct spec exactly once, and answers repeats
//! from a content-addressed on-disk result cache keyed by
//! [`scenario::ScenarioSpec::canonical_hash`].
//!
//! See docs/ARCHITECTURE.md for the crate map and how a scenario flows
//! through an engine.

#![warn(missing_docs)]

pub use md_baseline as baseline;
pub use md_core as md;
pub use perf_model as model;
pub use wse_fabric as fabric;
pub use wse_md as wse;

pub mod json;
pub mod scenario;
pub mod serve;
pub mod shard;
pub mod traj;

/// The workspace version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
