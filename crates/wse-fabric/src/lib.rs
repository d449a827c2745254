//! # wse-fabric — Wafer-Scale Engine architectural simulator
//!
//! A behavioural model of the Cerebras WSE-2 fabric as used by the MD
//! algorithm of *Breaking the Molecular Dynamics Timescale Barrier Using
//! a Wafer-Scale System* (SC 2024): a Cartesian grid of tiles, each with
//! a general-purpose core, 48 kB of SRAM, and a router connected to its
//! four mesh neighbors (paper Sec. IV-A, Fig. 6).
//!
//! Two execution fidelities are provided (see the crate map in
//! docs/ARCHITECTURE.md):
//!
//! * **Cycle mode** ([`multicast`]): a router-level simulation of the
//!   systolic marching multicast with explicit per-cycle link occupancy,
//!   used to validate that the communication schedule is contention-free
//!   and that its cost matches the closed-form cycle count.
//! * **Functional mode** ([`cost`]): the MD driver (`wse_md::WseMdSim`)
//!   keeps its per-core state in flat vectors indexed by [`Extent`]
//!   and moves neighborhood data directly, charging cycles from the
//!   calibrated linear cost model (Table II / Table V); used for the
//!   10⁵–10⁶-core experiments.
//!
//! The physical machine executes asynchronously with hardware dataflow;
//! this simulator reproduces its *schedule* and *cost*, which is what the
//! paper's evaluation measures.

pub mod cost;
pub mod geometry;
pub mod multicast;
pub mod router;
pub mod tile;

pub use cost::{CostModel, WSE2_CLOCK_GHZ};
pub use geometry::{Coord, Extent, WSE2_CORES, WSE2_EXTENT};
pub use tile::{SramBudget, TILE_SRAM_BYTES};
