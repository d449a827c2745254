//! The wafer-scale MD engine: one atom per core, five-phase timestep.
//!
//! From the viewpoint of a core `c = g(i)` (paper Sec. III-A), a timestep
//! proceeds as:
//!
//! 1. **Candidate exchange** — multicast the atom's identity and position
//!    to the `(2b+1)`-square of neighboring cores and receive theirs.
//! 2. **Neighbor list** — compute `r²` against every candidate and keep
//!    those under `r²_cut` (no square root taken).
//! 3. **Embedding calculation and exchange** — compute the host density
//!    and embedding derivative `F′`, and exchange `F′` with neighbors.
//! 4. **Force calculation and integration** — evaluate `∂U/∂r_i` and
//!    advance the Verlet leap-frog state.
//! 5. **Atom swap** — occasionally remap atoms to preserve locality
//!    ([`crate::swap`]).
//!
//! Data movement is performed functionally (the schedule validated at
//! router level in `wse_fabric::multicast`), and every core is charged
//! cycles from the calibrated [`CostModel`]; per-step cycle samples are
//! recorded exactly like the paper's hardware-counter scratch buffer.
//! All tile arithmetic is f32, as on the WSE; energy reductions use f64.
//!
//! Phases 1–2 run as a **row-contiguous scan** over per-core f32
//! position columns (`x/y/z`, refilled on every list rebuild): each core
//! clips its `(2b+1)` square to the fabric once, then walks each clipped
//! row as one contiguous core range, in pieces of up to 64 cores. Per
//! piece, r² goes into a stack buffer in a loop without branches,
//! occupied cores are counted from the occupancy slice, and the accepted
//! cores are pushed in ascending core index — the same lists as a
//! dy-major, dx-ascending per-candidate walk. Empty cores are
//! **sentinels** holding +∞, so their r² (+∞, or NaN under the minimum
//! image) fails the acceptance test like the core's own r² = 0 does. The
//! per-candidate walk is kept only as the `#[cfg(test)]` oracle.
//!
//! Each accepted pair's r² is computed once per rebuild step: the scan
//! hands it from its buffer straight to the core's density sum, so the
//! density pass never recomputes a displacement the scan has just
//! taken. The pair energy φ moves to the force pass, where one spline
//! segment lookup serves both the φ and ρ tables (they share one knot
//! grid, checked at construction).
//!
//! The per-core phase loops fan out over rayon's worker pool (sized by
//! `WAFER_MD_THREADS`); per-core results land in per-core buffers and
//! every statistic is assembled by a sequential **atom-id-order** fold,
//! so a trajectory is bit-identical at any thread count — and across
//! spatial shard decompositions (the timestep splits into
//! [`HaloEngine::refresh_forces`] / [`HaloEngine::advance_positions`]
//! around the ghost-exchange point, and a prescribed-assignment
//! constructor carves one global mapping into per-shard fabric strips;
//! see `wafer_md::shard`).

use md_core::eam::EamPotential;
use md_core::engine::{Engine, HaloEngine, Observables, StepSplit};
use md_core::materials::{Material, Species};
use md_core::soa::AtomsView;
use md_core::spline::LANES;
use md_core::units::FORCE_TO_ACCEL;
use md_core::vec3::{V3d, V3f, Vec3};
use rayon::prelude::*;
use wse_fabric::cost::CostModel;
use wse_fabric::geometry::Extent;

use crate::mapping::Mapping;
use crate::pbc::FoldSpec;

/// Configuration for a wafer MD run.
#[derive(Clone, Debug)]
pub struct WseMdConfig {
    /// Fabric extent (cores). Must have at least as many cores as atoms.
    pub extent: Extent,
    /// Timestep (ps). The paper uses 2 fs.
    pub dt: f64,
    /// Per-phase cycle cost model.
    pub cost_model: CostModel,
    /// Periodicity of the x and y dimensions (folded onto the fabric per
    /// Sec. III-E) and of z (free: the column projection keeps z-locality).
    pub periodic: [bool; 3],
    /// Simulation box lengths (Å); required for periodic dimensions.
    pub box_lengths: V3d,
    /// Force the neighborhood radius instead of deriving it from the
    /// assignment cost — the "neighborhood-size parameter" of the paper's
    /// controlled performance sweeps (Sec. IV-B, condition 2).
    pub b_override: Option<(i32, i32)>,
    /// Compute each (·)ᵢⱼ term once (for the lower core index) and return
    /// the partner's share through a neighborhood reduction — the
    /// Sec. VI-A-3 "force symmetry" optimization, which halves the
    /// per-interaction datapath cost (Table V row 4).
    pub symmetric_forces: bool,
    /// Re-examine candidates every k-th timestep instead of every step —
    /// the Sec. VI-A-2 "neighbor list" optimization (Table V row 3).
    /// 1 = the paper's measured baseline (rebuild every step).
    pub neighbor_reuse_interval: usize,
    /// Extra list reach (Å) beyond the cutoff when reuse is enabled, so
    /// atoms drifting between rebuilds stay covered.
    pub neighbor_skin: f64,
}

impl WseMdConfig {
    /// Open-boundary config with a fabric just large enough for `n` atoms
    /// plus `spare` fraction of empty tiles, shaped near-square.
    pub fn open_for(n_atoms: usize, spare: f64, dt: f64) -> Self {
        let cores = ((n_atoms as f64) * (1.0 + spare)).ceil() as usize;
        let w = (cores as f64).sqrt().ceil() as usize;
        let h = cores.div_ceil(w);
        Self {
            extent: Extent::new(w, h),
            dt,
            cost_model: CostModel::paper_baseline(),
            periodic: [false; 3],
            box_lengths: V3d::zero(),
            b_override: None,
            symmetric_forces: false,
            neighbor_reuse_interval: 1,
            neighbor_skin: 0.0,
        }
    }

    /// The paper's controlled performance configuration (Sec. IV-B,
    /// condition 2): a `side × side` fabric with the neighborhood
    /// radius forced to `b`, no integration (dt = 0, "atoms hold their
    /// position throughout performance measurement"), open boundaries,
    /// and no list reuse — the fixture behind the Table II fit. The
    /// single source for this config: `Scenario::controlled_grid` in
    /// the facade builds it here for the CLI and the paper tables.
    pub fn controlled_grid(side: usize, b: i32) -> Self {
        Self {
            extent: Extent::new(side, side),
            dt: 0.0,
            cost_model: CostModel::paper_baseline(),
            periodic: [false; 3],
            box_lengths: V3d::zero(),
            b_override: Some((b, b)),
            symmetric_forces: false,
            neighbor_reuse_interval: 1,
            neighbor_skin: 0.0,
        }
    }
}

/// Positions for the controlled performance grid: a frozen `side ×
/// side` 2-D lattice at `spacing` Å, one atom per core of the matching
/// [`WseMdConfig::controlled_grid`] fabric. Single source for the
/// fixture's layout (used by the facade's `Scenario::controlled_grid`).
pub fn controlled_grid_positions(side: usize, spacing: f64) -> Vec<V3d> {
    (0..side * side)
        .map(|k| {
            V3d::new(
                (k % side) as f64 * spacing,
                (k / side) as f64 * spacing,
                0.0,
            )
        })
        .collect()
}

/// Per-step measurement record (one entry per timestep).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// Mean candidates received per occupied core.
    pub mean_candidates: f64,
    /// Mean accepted interactions per occupied core.
    pub mean_interactions: f64,
    /// Array-level cycles charged for this step (mean over occupied
    /// cores — local synchronization lets per-tile slack average out).
    pub cycles: f64,
    /// Worst per-core cycles (the interior-tile bound).
    pub max_cycles: f64,
    /// Total potential energy (eV).
    pub potential_energy: f64,
    /// Total kinetic energy (eV).
    pub kinetic_energy: f64,
}

/// The wafer-scale MD simulator.
pub struct WseMdSim {
    pub material: Material,
    pub config: WseMdConfig,
    pub mapping: Mapping,
    /// Neighborhood radius per fabric axis (cores).
    pub b: (i32, i32),
    /// Assignment cost at construction (Å).
    pub initial_cost: f64,
    potential: EamPotential<f32>,
    fold: FoldSpec,
    // ---- per-core SoA state (flat core index) ----
    occ: Vec<bool>,
    pos: Vec<V3f>,
    /// Per-core x/y/z position columns read by the candidate scan, +∞
    /// on empty cores; refilled from `pos` on every list rebuild (the
    /// only refreshes that scan).
    cols: [Vec<f32>; 3],
    vel: Vec<V3f>,
    force: Vec<V3f>,
    rho: Vec<f32>,
    fprime: Vec<f32>,
    ncand: Vec<u32>,
    ninter: Vec<u32>,
    nlist: Vec<Vec<u32>>,
    pair_e: Vec<f32>,
    /// Per-core embedding energy (f64) from the last force refresh.
    embed_e: Vec<f64>,
    /// Per-core modeled cycle charge from the last force refresh.
    core_cycles: Vec<f64>,
    steps_since_rebuild: usize,
    lists_dirty: bool,
    /// Per-core positions at the last halo reference (ghost exchange),
    /// for the drift tracking of the halo contract.
    halo_ref: Vec<V3f>,
    // ---- atom-id-ordered f64 mirror columns behind the zero-copy
    // Engine views. Values are exactly the per-core f32 state cast to
    // f64 (resp. the per-atom accounting terms), refreshed whenever the
    // corresponding per-core state changes, so views always agree
    // bit-for-bit with the old gather-and-clone accessors.
    apx: Vec<f64>,
    apy: Vec<f64>,
    apz: Vec<f64>,
    avx: Vec<f64>,
    avy: Vec<f64>,
    avz: Vec<f64>,
    afx: Vec<f64>,
    afy: Vec<f64>,
    afz: Vec<f64>,
    /// Per-atom potential terms (pair + embedding) from the last refresh.
    atom_pot: Vec<f64>,
    /// Per-atom squared speeds (f32 norm² widened to f64).
    atom_v2: Vec<f64>,
    /// Per-atom modeled cycle charges from the last refresh.
    atom_cycles: Vec<f64>,
    /// Per-step cycle trace (array level), like the paper's scratch
    /// buffer of hardware clock samples.
    pub cycle_trace: Vec<f64>,
    pub step_count: u64,
    pub last_stats: StepStats,
}

impl WseMdSim {
    /// Build a simulator for `species` with the given positions (Å) and
    /// velocities (Å/ps).
    pub fn new(
        species: Species,
        positions: &[V3d],
        velocities: &[V3d],
        config: WseMdConfig,
    ) -> Self {
        // Map atoms by their *folded* projections so periodic dimensions
        // interleave on the wafer (Sec. III-E, Fig. 5).
        let fold = FoldSpec::new(config.periodic, config.box_lengths);
        let folded: Vec<V3d> = positions.iter().map(|p| fold.fold(*p)).collect();
        let mapping = Mapping::greedy(&folded, config.extent);
        Self::with_assignment(species, positions, velocities, config, mapping)
    }

    /// Build a simulator on a **prescribed** atom → core assignment
    /// instead of the greedy mapping — how a sharded driver carves one
    /// global mapping into per-shard fabric strips whose local
    /// neighborhoods (and therefore candidate counts, forces, and
    /// modeled cycles) reproduce the global run's bits exactly.
    /// Callers that prescribe a mapping normally also prescribe the
    /// neighborhood radius through [`WseMdConfig::b_override`].
    pub fn with_assignment(
        species: Species,
        positions: &[V3d],
        velocities: &[V3d],
        config: WseMdConfig,
        mapping: Mapping,
    ) -> Self {
        assert_eq!(positions.len(), velocities.len());
        assert_eq!(mapping.core_of_atom.len(), positions.len());
        assert_eq!(
            mapping.extent, config.extent,
            "mapping/config extent mismatch"
        );
        let material = Material::new(species);
        let potential: EamPotential<f32> = material.potential().cast();
        // The force pass locates each pair's segment once for both tables.
        assert!(
            potential.phi.same_grid(&potential.rho),
            "the φ and ρ tables must share one knot grid"
        );
        let fold = FoldSpec::new(config.periodic, config.box_lengths);
        let folded: Vec<V3d> = positions.iter().map(|p| fold.fold(*p)).collect();
        let cost = mapping.assignment_cost_angstroms(&folded);
        let (bx, by) = config.b_override.unwrap_or_else(|| {
            // "At runtime we set b so that every (2b+1)-wide square
            // neighborhood of fabric contains all interactions for the
            // atom at the neighborhood's center" (Sec. III-A): measure
            // the max per-axis fabric distance over actual interacting
            // pairs, plus a 2-core margin for thermal drift between swap
            // rounds (Fig. 9 holds the exchange distance near this level).
            let bbox = fold.as_box();
            let mut vl = md_core::neighbor::VerletList::new(material.cutoff, 0.0);
            vl.rebuild(positions, &bbox);
            let (mut need_x, mut need_y) = (1i32, 1i32);
            for (i, list) in vl.neighbors.iter().enumerate() {
                let ci = config.extent.coord(mapping.core_of_atom[i]);
                for &j in list {
                    let cj = config.extent.coord(mapping.core_of_atom[j]);
                    need_x = need_x.max((ci.x - cj.x).abs());
                    need_y = need_y.max((ci.y - cj.y).abs());
                }
            }
            (need_x + 2, need_y + 2)
        });

        let n_cores = config.extent.count();
        let n_atoms = positions.len();
        let mut sim = WseMdSim {
            material,
            mapping,
            b: (bx, by),
            initial_cost: cost,
            potential,
            fold,
            occ: vec![false; n_cores],
            pos: vec![V3f::new(0.0, 0.0, 0.0); n_cores],
            cols: Default::default(),
            vel: vec![V3f::new(0.0, 0.0, 0.0); n_cores],
            force: vec![V3f::new(0.0, 0.0, 0.0); n_cores],
            rho: vec![0.0; n_cores],
            fprime: vec![0.0; n_cores],
            ncand: vec![0; n_cores],
            ninter: vec![0; n_cores],
            nlist: vec![Vec::new(); n_cores],
            pair_e: vec![0.0; n_cores],
            embed_e: vec![0.0; n_cores],
            core_cycles: vec![0.0; n_cores],
            steps_since_rebuild: 0,
            lists_dirty: true,
            halo_ref: vec![V3f::new(0.0, 0.0, 0.0); n_cores],
            apx: vec![0.0; n_atoms],
            apy: vec![0.0; n_atoms],
            apz: vec![0.0; n_atoms],
            avx: vec![0.0; n_atoms],
            avy: vec![0.0; n_atoms],
            avz: vec![0.0; n_atoms],
            afx: vec![0.0; n_atoms],
            afy: vec![0.0; n_atoms],
            afz: vec![0.0; n_atoms],
            atom_pot: vec![0.0; n_atoms],
            atom_v2: vec![0.0; n_atoms],
            atom_cycles: vec![0.0; n_atoms],
            cycle_trace: Vec::new(),
            step_count: 0,
            last_stats: StepStats::default(),
            config,
        };
        for (i, &core) in sim.mapping.core_of_atom.iter().enumerate() {
            sim.occ[core] = true;
            sim.pos[core] = positions[i].cast();
            sim.vel[core] = velocities[i].cast();
        }
        sim.halo_ref.clone_from(&sim.pos);
        sim.sync_motion_mirrors();
        sim
    }

    /// Refresh the atom-id-ordered position/velocity mirror columns (and
    /// the squared-speed cache) from the per-core f32 state. Each mirror
    /// entry is the exact widening the old gather accessors produced, so
    /// the borrowed views are bit-identical to the Vecs they replace.
    fn sync_motion_mirrors(&mut self) {
        for (i, &c) in self.mapping.core_of_atom.iter().enumerate() {
            let p: V3d = self.pos[c].cast();
            let v: V3d = self.vel[c].cast();
            self.apx[i] = p.x;
            self.apy[i] = p.y;
            self.apz[i] = p.z;
            self.avx[i] = v.x;
            self.avy[i] = v.y;
            self.avz[i] = v.z;
            self.atom_v2[i] = self.vel[c].norm_sq() as f64;
        }
    }

    /// Refresh the atom-id-ordered force, potential-term, and modeled
    /// cycle mirror columns from the per-core records of the last force
    /// refresh.
    fn sync_force_mirrors(&mut self) {
        for (i, &c) in self.mapping.core_of_atom.iter().enumerate() {
            let f: V3d = self.force[c].cast();
            self.afx[i] = f.x;
            self.afy[i] = f.y;
            self.afz[i] = f.z;
            self.atom_pot[i] = self.pair_e[c] as f64 + self.embed_e[c];
            self.atom_cycles[i] = self.core_cycles[c];
        }
    }

    pub fn n_atoms(&self) -> usize {
        self.mapping.occupied()
    }

    pub fn extent(&self) -> Extent {
        self.config.extent
    }

    /// Candidate count of a full interior neighborhood
    /// `(2bx+1)(2by+1) − 1`, the paper's n_candidate.
    pub fn interior_candidates(&self) -> usize {
        ((2 * self.b.0 + 1) * (2 * self.b.1 + 1) - 1) as usize
    }

    /// Advance one timestep; returns the step's statistics.
    ///
    /// Exactly equivalent to [`HaloEngine::refresh_forces`] followed by
    /// [`HaloEngine::advance_positions`] — the
    /// [`StepSplit::ForceThenMove`] halves a sharded driver interleaves
    /// with its ghost exchange.
    pub fn step(&mut self) -> StepStats {
        self.refresh_forces_impl();
        self.advance_positions_impl()
    }

    /// Phases 1–4a: candidate exchange and neighbor list with the
    /// densities summed during the scan, embedding, force evaluation
    /// (with the pair energy), and per-core cycle charging — all at the
    /// current positions, no motion.
    fn refresh_forces_impl(&mut self) {
        self.refresh_forces_with(|scan, c, list, density| scan.rows(c, list, |r2| density.add(r2)));
    }

    /// [`Self::refresh_forces_impl`] with the phase-1/2 candidate scan
    /// (and the way it feeds each accepted r² to the core's [`Density`])
    /// passed in, so tests can run the per-candidate oracle through the
    /// same phases.
    fn refresh_forces_with<S>(&mut self, scan: S)
    where
        S: Fn(&CandidateScan<'_>, usize, &mut Vec<u32>, &mut Density<'_>) -> u32 + Sync,
    {
        let rc2 = self.potential.cutoff_sq();

        let reuse = self.config.neighbor_reuse_interval.max(1);
        let rebuild = self.lists_dirty || self.steps_since_rebuild >= reuse;
        if rebuild {
            self.steps_since_rebuild = 0;
            self.lists_dirty = false;
        }
        self.steps_since_rebuild += 1;
        let skin = if reuse > 1 {
            self.config.neighbor_skin as f32
        } else {
            0.0
        };
        let reach = self.potential.cutoff + skin;
        let reach2 = reach * reach;

        // ---- Phases 1–3a: candidate exchange, neighbor list, density.
        // On rebuild steps, candidates are scanned and the list rebuilt
        // with the skin reach, and the scan hands each accepted core's r²
        // to the density sum as it pushes it; on reuse steps the retained
        // list is re-filtered against the true cutoff (positions are
        // still exchanged every step — only reject processing is
        // skipped). The density sum keeps the cutoff test, so skin
        // entries count as misses either way. Under force symmetry the
        // pair energy φ is summed here too; otherwise phase 4a sums it.
        if rebuild {
            // Refilled in place: only the first rebuild allocates.
            for (k, col) in self.cols.iter_mut().enumerate() {
                col.clear();
                col.extend(self.pos.iter().zip(&self.occ).map(|(p, &o)| {
                    if o {
                        p.to_array()[k]
                    } else {
                        f32::INFINITY
                    }
                }));
            }
        }
        let symmetric = self.config.symmetric_forces;
        // Split disjoint output borrows before the parallel loop.
        let occ = &self.occ;
        let pos = &self.pos;
        let potential = &self.potential;
        let fold = &self.fold;
        let candidates = CandidateScan {
            extent: self.config.extent,
            b: self.b,
            fold,
            occ,
            pos,
            cols: [&self.cols[0], &self.cols[1], &self.cols[2]],
            reach2,
        };
        (
            &mut self.ncand,
            &mut self.ninter,
            &mut self.rho,
            &mut self.pair_e,
            &mut self.nlist,
        )
            .into_par_iter()
            .enumerate()
            .for_each(|(c, (ncand_c, ninter_c, rho_c, pair_c, list))| {
                let mut density = Density {
                    potential,
                    rc2,
                    with_pair: symmetric,
                    ninter: 0,
                    rho: 0.0,
                    pair: 0.0,
                };
                if !occ[c] {
                    *ncand_c = 0;
                    list.clear();
                } else if rebuild {
                    let first = list.capacity() == 0;
                    list.clear();
                    *ncand_c = scan(&candidates, c, list, &mut density);
                    if first {
                        // Headroom for thermal motion, so that a warm step
                        // does not regrow the list when a neighbor arrives.
                        list.reserve_exact(list.len() / 2 + 2);
                    }
                } else {
                    let my = pos[c];
                    for &n in list.iter() {
                        density.add(fold.disp_f32(my, pos[n as usize]).norm_sq());
                    }
                }
                *ninter_c = density.ninter;
                *rho_c = density.rho;
                *pair_c = density.pair;
            });

        // ---- Phase 3b: embedding energy and derivative, then the F'
        // exchange (functionally: F' is published in the fprime array).
        // The spline evaluations fan out over the pool in `LANES`-wide
        // batches of `embedding4` (each lane is the scalar expression on
        // its own input, so lane values equal per-core scalar calls
        // bit-for-bit); the per-core embedding energies are stored and
        // folded into the potential in **atom-id order** by
        // `advance_positions_impl`, so the energy is bit-identical at any
        // thread count and under spatial sharding.
        let occ = &self.occ;
        let rho = &self.rho;
        let potential = &self.potential;
        self.fprime
            .par_chunks_mut(LANES)
            .zip(self.embed_e.par_chunks_mut(LANES))
            .enumerate()
            .for_each(|(chunk, (fp_chunk, fe_chunk))| {
                let base = chunk * LANES;
                if fp_chunk.len() == LANES {
                    let mut rho4 = [0.0f32; LANES];
                    for (l, r) in rho4.iter_mut().enumerate() {
                        // Unoccupied cores hold rho = 0.0; their lanes
                        // are evaluated and discarded below.
                        *r = rho[base + l];
                    }
                    let (f4, fp4) = potential.embedding4(rho4);
                    for l in 0..LANES {
                        if occ[base + l] {
                            fp_chunk[l] = fp4[l];
                            fe_chunk[l] = f4[l] as f64;
                        } else {
                            fp_chunk[l] = 0.0;
                            fe_chunk[l] = 0.0;
                        }
                    }
                } else {
                    // Fabric-size tail (< LANES cores): scalar fallback.
                    for (l, (fp_c, fe_c)) in
                        fp_chunk.iter_mut().zip(fe_chunk.iter_mut()).enumerate()
                    {
                        if occ[base + l] {
                            let (f, fp) = potential.embedding(rho[base + l]);
                            *fp_c = fp;
                            *fe_c = f as f64;
                        } else {
                            *fp_c = 0.0;
                            *fe_c = 0.0;
                        }
                    }
                }
            });

        // ---- Phase 4a: force evaluation from the gathered neighbor list
        // (skin entries are re-filtered against the true cutoff).
        let occ = &self.occ;
        let pos = &self.pos;
        let fprime = &self.fprime;
        let nlist = &self.nlist;
        let potential = &self.potential;
        let fold = &self.fold;
        if symmetric {
            // Sec. VI-A-3: each (i, j) term is computed once by the
            // lower-index core and the partner's share (−f) returns via a
            // neighborhood reduction over the fabric. The functional
            // equivalent accumulates both sides directly.
            for f in self.force.iter_mut() {
                *f = V3f::new(0.0, 0.0, 0.0);
            }
            for c in 0..self.force.len() {
                if !occ[c] {
                    continue;
                }
                let my = pos[c];
                let my_fp = fprime[c];
                for &n in &nlist[c] {
                    let n = n as usize;
                    if n <= c {
                        continue;
                    }
                    let d = fold.disp_f32(my, pos[n]);
                    let r2 = d.norm_sq();
                    if r2 >= rc2 || r2 == 0.0 {
                        continue;
                    }
                    let r = r2.sqrt();
                    let (_, dphi) = potential.pair(r);
                    let (_, drho) = potential.density(r);
                    let scalar = (my_fp + fprime[n]) * drho + dphi;
                    let f = d.scale(scalar / r);
                    self.force[c] += f;
                    self.force[n] -= f;
                }
            }
        } else {
            // Each pair's one segment lookup serves φ, φ' and ρ', and
            // the pair energy is summed here, in list order.
            (&mut self.force, &mut self.pair_e)
                .into_par_iter()
                .enumerate()
                .for_each(|(c, (out, pair_c))| {
                    *out = V3f::new(0.0, 0.0, 0.0);
                    if !occ[c] {
                        return;
                    }
                    let my = pos[c];
                    let my_fp = fprime[c];
                    let mut acc = Vec3::new(0.0f32, 0.0, 0.0);
                    let mut pair = 0.0f32;
                    for &n in &nlist[c] {
                        let n = n as usize;
                        let d = fold.disp_f32(my, pos[n]);
                        let r2 = d.norm_sq();
                        if r2 >= rc2 || r2 == 0.0 {
                            continue;
                        }
                        let r = r2.sqrt();
                        let segment = potential.phi.segment(r);
                        let (phi, dphi) = potential.phi.eval_both_in(segment);
                        let (_, drho) = potential.rho.eval_both_in(segment);
                        pair += 0.5 * phi;
                        let scalar = (my_fp + fprime[n]) * drho + dphi;
                        acc += d.scale(scalar / r);
                    }
                    *out = acc;
                    *pair_c = pair;
                });
        }

        // ---- Measurement, part 1: charge cycles per core from the cost
        // model. Positions are multicast every step (mcast · ncand);
        // reject processing applies to scanned candidates on rebuild
        // steps and only to skin entries on reuse steps; the interaction
        // term halves under force symmetry (the partner's share arrives
        // via the reduction instead of being recomputed).
        let model = self.config.cost_model;
        let inter_scale = if self.config.symmetric_forces {
            0.5
        } else {
            1.0
        };
        let clock = wse_fabric::cost::WSE2_CLOCK_GHZ;
        let occ = &self.occ;
        let ncand = &self.ncand;
        let ninter = &self.ninter;
        let nlist = &self.nlist;
        self.core_cycles
            .par_iter_mut()
            .enumerate()
            .for_each(|(c, out)| {
                if !occ[c] {
                    *out = 0.0;
                    return;
                }
                let nc = ncand[c] as f64;
                let ni = ninter[c] as f64;
                let misses = if rebuild {
                    nc - ni
                } else {
                    (nlist[c].len() as f64 - ni).max(0.0)
                };
                let ns = model.mcast_ns * nc
                    + model.miss_ns * misses
                    + model.interaction_ns * ni * inter_scale
                    + model.fixed_ns;
                *out = ns * clock;
            });

        self.sync_force_mirrors();
    }

    /// Phase 4b plus measurement: Verlet leap-frog integration, then the
    /// canonical **atom-id-order** folds that assemble [`StepStats`].
    /// Every scalar here is a left-to-right fold of per-atom terms, so a
    /// sharded driver that gathers the same terms from shard owners and
    /// folds them in global atom-id order reproduces these bits exactly.
    fn advance_positions_impl(&mut self) -> StepStats {
        // ---- Phase 4b: Verlet leap-frog integration.
        let f2a = (FORCE_TO_ACCEL / self.material.mass) as f32;
        let dt = self.config.dt as f32;
        let occ = &self.occ;
        let force = &self.force;
        let fold = &self.fold;
        (&mut self.pos, &mut self.vel)
            .into_par_iter()
            .enumerate()
            .for_each(|(c, (p, v))| {
                if !occ[c] {
                    return;
                }
                *v += force[c].scale(f2a * dt);
                *p += v.scale(dt);
                *p = fold.wrap_f32(*p);
            });
        self.sync_motion_mirrors();

        // ---- Measurement, part 2: fold the per-core records into step
        // statistics in **atom-id order**. The integer counters are
        // order-free; the f64 sums (cycles, kinetic, potential) take
        // their bits from this canonical fold, which is what makes the
        // statistics reproducible bit-for-bit across thread counts *and*
        // across spatial shard decompositions (a sharded driver gathers
        // the same per-atom terms from shard owners and folds them in
        // the same global order).
        let n = self.n_atoms() as f64;
        let mut sum_cand = 0u64;
        let mut sum_inter = 0u64;
        let mut sum_cycles = 0.0f64;
        let mut max_cycles = 0.0f64;
        let mut kin = 0.0f64;
        let mut pot = 0.0f64;
        for &c in &self.mapping.core_of_atom {
            sum_cand += self.ncand[c] as u64;
            sum_inter += self.ninter[c] as u64;
            sum_cycles += self.core_cycles[c];
            max_cycles = max_cycles.max(self.core_cycles[c]);
            kin += self.vel[c].norm_sq() as f64;
            pot += self.pair_e[c] as f64 + self.embed_e[c];
        }
        let stats = StepStats {
            mean_candidates: sum_cand as f64 / n,
            mean_interactions: sum_inter as f64 / n,
            cycles: sum_cycles / n,
            max_cycles,
            potential_energy: pot,
            kinetic_energy: 0.5 * self.material.mass * md_core::units::MVV_TO_ENERGY * kin,
        };
        self.cycle_trace.push(stats.cycles);
        self.step_count += 1;
        self.last_stats = stats;
        stats
    }

    /// Run `n` timesteps, returning the mean array-level cycles per step.
    pub fn run(&mut self, n: usize) -> f64 {
        let mut total = 0.0;
        for _ in 0..n {
            total += self.step().cycles;
        }
        total / n as f64
    }

    /// Simulation rate implied by the last `n` steps' cycle trace,
    /// in timesteps per second at the WSE-2 clock.
    pub fn timesteps_per_second(&self, last_n: usize) -> f64 {
        let t = &self.cycle_trace;
        assert!(!t.is_empty());
        let n = last_n.min(t.len());
        let mean_cycles: f64 = t[t.len() - n..].iter().sum::<f64>() / n as f64;
        wse_fabric::cost::WSE2_CLOCK_GHZ * 1e9 / mean_cycles
    }

    /// Trailing-window length (steps) of the cycle trace behind the
    /// reported [`Observables::modeled_rate`]. Shared with the sharded
    /// driver so both report the same rate from the same trace.
    pub const RATE_WINDOW: usize = 100;

    /// The [`Observables::modeled_rate`] a cycle trace implies: the
    /// [`Self::RATE_WINDOW`]-step trailing mean, `None` when no step
    /// has run. Single source for the wafer engine and the sharded
    /// driver, whose reports must agree bit-for-bit.
    pub fn rate_from_cycle_trace(trace: &[f64]) -> Option<f64> {
        if trace.is_empty() {
            return None;
        }
        let n = Self::RATE_WINDOW.min(trace.len());
        let mean_cycles: f64 = trace[trace.len() - n..].iter().sum::<f64>() / n as f64;
        Some(wse_fabric::cost::WSE2_CLOCK_GHZ * 1e9 / mean_cycles)
    }

    /// Total energy (eV) from the last step's statistics.
    pub fn total_energy(&self) -> f64 {
        self.last_stats.potential_energy + self.last_stats.kinetic_energy
    }

    /// Extract positions indexed by atom id (f64).
    pub fn positions_by_atom(&self) -> Vec<V3d> {
        self.mapping
            .core_of_atom
            .iter()
            .map(|&c| self.pos[c].cast())
            .collect()
    }

    /// Extract velocities indexed by atom id (f64).
    pub fn velocities_by_atom(&self) -> Vec<V3d> {
        self.mapping
            .core_of_atom
            .iter()
            .map(|&c| self.vel[c].cast())
            .collect()
    }

    /// Extract per-atom forces from the last step (eV/Å, f64).
    pub fn forces_by_atom(&self) -> Vec<V3d> {
        self.mapping
            .core_of_atom
            .iter()
            .map(|&c| self.force[c].cast())
            .collect()
    }

    /// Current assignment cost (Å) of the evolving configuration — the
    /// Fig. 9 observable.
    pub fn assignment_cost(&self) -> f64 {
        let folded: Vec<V3d> = self
            .mapping
            .core_of_atom
            .iter()
            .map(|&c| self.fold.fold(self.pos[c].cast()))
            .collect();
        self.mapping
            .core_of_atom
            .iter()
            .zip(&folded)
            .map(|(&c, p)| {
                self.mapping
                    .displacement_angstroms(self.config.extent.coord(c), *p)
            })
            .fold(0.0, f64::max)
    }

    /// Position (f64) of whatever is stored on core `c` (meaningful only
    /// for occupied cores).
    pub(crate) fn position_at_core(&self, c: usize) -> V3d {
        self.pos[c].cast()
    }

    /// Invalidate retained neighbor lists (atoms moved between cores).
    pub(crate) fn mark_lists_dirty(&mut self) {
        self.lists_dirty = true;
    }

    // ---- crate-internal accessors for the swap module ----
    pub(crate) fn core_state(&mut self) -> CoreState<'_> {
        CoreState {
            occ: &mut self.occ,
            pos: &mut self.pos,
            vel: &mut self.vel,
            mapping: &mut self.mapping,
        }
    }

    pub(crate) fn fold_spec(&self) -> &FoldSpec {
        &self.fold
    }
}

impl Engine for WseMdSim {
    fn backend(&self) -> &'static str {
        "wse"
    }

    fn n_atoms(&self) -> usize {
        WseMdSim::n_atoms(self)
    }

    fn step(&mut self) {
        WseMdSim::step(self);
    }

    fn run_counters(&self) -> md_core::engine::RunCounters {
        md_core::engine::RunCounters {
            steps: self.step_count,
            ..Default::default()
        }
    }

    fn positions_view(&self) -> AtomsView<'_> {
        AtomsView::new(&self.apx, &self.apy, &self.apz)
    }

    fn velocities_view(&self) -> AtomsView<'_> {
        AtomsView::new(&self.avx, &self.avy, &self.avz)
    }

    fn forces_view(&self) -> AtomsView<'_> {
        AtomsView::new(&self.afx, &self.afy, &self.afz)
    }

    fn set_velocities(&mut self, velocities: &[V3d]) {
        assert_eq!(velocities.len(), self.mapping.core_of_atom.len());
        for (i, &core) in self.mapping.core_of_atom.iter().enumerate() {
            self.vel[core] = velocities[i].cast();
        }
        self.sync_motion_mirrors();
        // Keep the observables snapshot consistent with the state it
        // claims to describe: the baseline engine computes kinetic
        // energy live, so a stale last-step value here would make the
        // two backends disagree through the trait until the next step.
        let kin: f64 = self
            .mapping
            .core_of_atom
            .iter()
            .map(|&c| self.vel[c].norm_sq() as f64)
            .sum();
        self.last_stats.kinetic_energy =
            0.5 * self.material.mass * md_core::units::MVV_TO_ENERGY * kin;
    }

    fn observables(&self) -> Observables {
        let s = self.last_stats;
        Observables {
            potential_energy: s.potential_energy,
            mean_interactions: s.mean_interactions,
            mean_candidates: s.mean_candidates,
            modeled_cycles: Some(s.cycles),
            modeled_rate: Self::rate_from_cycle_trace(&self.cycle_trace),
            ..Default::default()
        }
        .with_temperature_from(s.kinetic_energy, WseMdSim::n_atoms(self))
    }
}

impl HaloEngine for WseMdSim {
    fn step_split(&self) -> StepSplit {
        StepSplit::ForceThenMove
    }

    fn advance_positions(&mut self) {
        self.advance_positions_impl();
    }

    fn refresh_forces(&mut self) {
        self.refresh_forces_impl();
    }

    fn overwrite_atom(&mut self, atom: usize, position: V3d, velocity: V3d) {
        let c = self.mapping.core_of_atom[atom];
        self.pos[c] = position.cast();
        self.vel[c] = velocity.cast();
        let p: V3d = self.pos[c].cast();
        let v: V3d = self.vel[c].cast();
        self.apx[atom] = p.x;
        self.apy[atom] = p.y;
        self.apz[atom] = p.z;
        self.avx[atom] = v.x;
        self.avy[atom] = v.y;
        self.avz[atom] = v.z;
        self.atom_v2[atom] = self.vel[c].norm_sq() as f64;
    }

    fn per_atom_potential_energies(&self) -> &[f64] {
        &self.atom_pot
    }

    fn per_atom_squared_speeds(&self) -> &[f64] {
        &self.atom_v2
    }

    fn per_atom_counts(&self) -> Vec<(u32, u32)> {
        self.mapping
            .core_of_atom
            .iter()
            .map(|&c| (self.ncand[c], self.ninter[c]))
            .collect()
    }

    fn per_atom_modeled_cycles(&self) -> Option<&[f64]> {
        Some(&self.atom_cycles)
    }

    fn halo_drift_limit_sq(&self) -> f64 {
        // Candidate sets are core-geometric and the atom → core mapping
        // is static under sharding, so ghost membership never decays
        // with drift — only the period (strip width) bounds reuse.
        f64::INFINITY
    }

    fn mark_halo_reference(&mut self) {
        self.halo_ref.clone_from(&self.pos);
    }

    fn halo_drift_sq(&self) -> f64 {
        self.mapping
            .core_of_atom
            .iter()
            .map(|&c| self.fold.disp_f32(self.halo_ref[c], self.pos[c]).norm_sq() as f64)
            .fold(0.0, f64::max)
    }
}

/// Cores per piece of a clipped row in the candidate scan: one bit of a
/// `u64` acceptance mask per core. A wider row (2b+1 > 64) is scanned in
/// several pieces.
const SCAN_CHUNK: usize = u64::BITS as usize;

/// Read-only inputs of the phase-1/2 candidate scan for one force
/// refresh, shared by every core's scan.
struct CandidateScan<'a> {
    extent: Extent,
    b: (i32, i32),
    fold: &'a FoldSpec,
    occ: &'a [bool],
    pos: &'a [V3f],
    /// Per-core x/y/z positions, +∞ on empty cores.
    cols: [&'a [f32]; 3],
    /// Acceptance radius² (cutoff plus skin).
    reach2: f32,
}

impl CandidateScan<'_> {
    /// Scan occupied core `c`'s `(2b+1)` square, clipped to the fabric,
    /// one contiguous row of cores at a time: r² of every core in a row
    /// piece goes into a stack buffer in a loop without branches, the
    /// occupied cores are counted from `occ`, and the cores with
    /// `0 < r² < reach²` are pushed onto `list` in ascending core index
    /// (the dy-major, dx-ascending order of a per-candidate walk), each
    /// one's r² handed to `visit` as it is pushed. Empty cores hold +∞,
    /// so their r² is +∞ (NaN under the minimum image) and fails both
    /// tests; `c` itself has r² = 0. Returns the number of occupied
    /// candidates, `c` excluded.
    fn rows(&self, c: usize, list: &mut Vec<u32>, mut visit: impl FnMut(f32)) -> u32 {
        let width = self.extent.width;
        let (cx, cy) = ((c % width) as i32, (c / width) as i32);
        let (bx, by) = self.b;
        let (x0, x1) = (
            cx.saturating_sub(bx).max(0),
            cx.saturating_add(bx).min(width as i32 - 1),
        );
        let (y0, y1) = (
            cy.saturating_sub(by).max(0),
            cy.saturating_add(by).min(self.extent.height as i32 - 1),
        );
        if x0 > x1 || y0 > y1 {
            // A negative radius: the square is empty.
            return 0;
        }
        let (x0, x1, y0, y1) = (x0 as usize, x1 as usize, y0 as usize, y1 as usize);
        let my = self.pos[c].to_array();
        let periodic = self.fold.periodic.contains(&true);
        let mut r2 = [0.0f32; SCAN_CHUNK];
        let mut occupied = 0;
        for ny in y0..=y1 {
            let row_end = ny * width + x1 + 1;
            let mut start = ny * width + x0;
            while start < row_end {
                let cores = start..row_end.min(start + SCAN_CHUNK);
                occupied += self.occ[cores.clone()].iter().filter(|&&o| o).count();
                let r2 = &mut r2[..cores.len()];
                if periodic {
                    self.row_r2(cores.clone(), my, r2, |d| self.fold.min_image_f32(d));
                } else {
                    self.row_r2(cores.clone(), my, r2, |d| d);
                }
                let mut accepted = 0u64;
                for (i, &r) in r2.iter().enumerate() {
                    accepted |= ((r < self.reach2 && r > 0.0) as u64) << i;
                }
                while accepted != 0 {
                    let i = accepted.trailing_zeros() as usize;
                    list.push((start + i) as u32);
                    visit(r2[i]);
                    accepted &= accepted - 1;
                }
                start = cores.end;
            }
        }
        // A non-empty square holds `c`, which is occupied.
        (occupied - 1) as u32
    }

    /// r² from `my` to each core of the row piece `cores`, every
    /// displacement passed through `image` first. Written once and
    /// instantiated per boundary kind, so the open instantiation (the
    /// identity) compiles to a vectorized loop.
    #[inline(always)]
    fn row_r2(
        &self,
        cores: std::ops::Range<usize>,
        my: [f32; 3],
        r2: &mut [f32],
        image: impl Fn([f32; 3]) -> [f32; 3],
    ) {
        let [xs, ys, zs] = self.cols.map(|col| &col[cores.clone()]);
        for (((r, &x), &y), &z) in r2.iter_mut().zip(xs).zip(ys).zip(zs) {
            let [dx, dy, dz] = image([x - my[0], y - my[1], z - my[2]]);
            *r = dx * dx + dy * dy + dz * dz;
        }
    }

    /// The per-candidate scan [`Self::rows`] replaced, kept as its test
    /// oracle: every fabric neighbor in dy-major, dx-ascending order,
    /// skipping empty cores by branch, each accepted core's r² (from
    /// `disp_f32`) handed to `visit`.
    #[cfg(test)]
    fn per_candidate(&self, c: usize, list: &mut Vec<u32>, mut visit: impl FnMut(f32)) -> u32 {
        let (w, h) = (self.extent.width as i32, self.extent.height as i32);
        let (bx, by) = self.b;
        let cx = (c % self.extent.width) as i32;
        let cy = (c / self.extent.width) as i32;
        let my = self.pos[c];
        let mut ncand = 0;
        for dy in -by..=by {
            let ny = cy + dy;
            if ny < 0 || ny >= h {
                continue;
            }
            let row = (ny as usize) * self.extent.width;
            for dx in -bx..=bx {
                let nx = cx + dx;
                if nx < 0 || nx >= w || (dx == 0 && dy == 0) {
                    continue;
                }
                let n = row + nx as usize;
                if !self.occ[n] {
                    continue;
                }
                ncand += 1;
                let r2 = self.fold.disp_f32(my, self.pos[n]).norm_sq();
                if r2 < self.reach2 && r2 > 0.0 {
                    list.push(n as u32);
                    visit(r2);
                }
            }
        }
        ncand
    }
}

/// One core's phase-3a sums over its list, fed one r² at a time in list
/// order: by the candidate scan on rebuild steps, by the re-filter loop
/// on reuse steps.
struct Density<'a> {
    potential: &'a EamPotential<f32>,
    /// True cutoff² (the list may reach further, by the skin).
    rc2: f32,
    /// Whether the pair energy φ is summed here too (the serial
    /// force-symmetry path); otherwise the force pass sums it.
    with_pair: bool,
    ninter: u32,
    rho: f32,
    pair: f32,
}

impl Density<'_> {
    #[inline]
    fn add(&mut self, r2: f32) {
        if r2 < self.rc2 && r2 > 0.0 {
            self.ninter += 1;
            let r = r2.sqrt();
            self.rho += self.potential.density(r).0;
            if self.with_pair {
                self.pair += 0.5 * self.potential.pair(r).0;
            }
        }
    }
}

/// Mutable view over the per-core atom state used by the swap protocol.
pub(crate) struct CoreState<'a> {
    pub occ: &'a mut Vec<bool>,
    pub pos: &'a mut Vec<V3f>,
    pub vel: &'a mut Vec<V3f>,
    pub mapping: &'a mut Mapping,
}

impl CoreState<'_> {
    /// Swap the full atom state between cores `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.occ.swap(a, b);
        self.pos.swap(a, b);
        self.vel.swap(a, b);
        self.mapping.swap_cores(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    const BOUNDARIES: [[bool; 3]; 3] = [[false; 3], [true, true, false], [true, false, false]];

    /// Build the same run twice, step one copy with the row scan and the
    /// other with the per-candidate oracle, and require bit-identical
    /// lists, counts, forces, cycle charges, densities, embedding
    /// derivatives, pair energies and per-atom potential energies after
    /// every refresh, at pool widths 1 and 4. Returns the accepted pairs
    /// seen, so callers can check the comparison was not vacuous.
    fn assert_scans_agree(
        positions: &[V3d],
        velocities: &[V3d],
        config: &WseMdConfig,
        steps: usize,
    ) -> Result<u64, TestCaseError> {
        let mut pairs = 0;
        for threads in [1, 4] {
            rayon::with_num_threads(threads, || {
                let build = || WseMdSim::new(Species::Ta, positions, velocities, config.clone());
                let (mut rows, mut oracle) = (build(), build());
                for step in 0..steps {
                    rows.refresh_forces_impl();
                    oracle.refresh_forces_with(|scan, c, list, density| {
                        scan.per_candidate(c, list, |r2| density.add(r2))
                    });
                    prop_assert_eq!(&rows.nlist, &oracle.nlist, "lists, step {}", step);
                    prop_assert_eq!(&rows.ncand, &oracle.ncand, "ncand, step {}", step);
                    prop_assert_eq!(&rows.ninter, &oracle.ninter, "ninter, step {}", step);
                    let bits = |s: &WseMdSim| -> Vec<[u32; 3]> {
                        s.force
                            .iter()
                            .map(|f| [f.x.to_bits(), f.y.to_bits(), f.z.to_bits()])
                            .collect()
                    };
                    prop_assert_eq!(bits(&rows), bits(&oracle), "forces, step {}", step);
                    let cycles = |s: &WseMdSim| -> Vec<u64> {
                        s.core_cycles.iter().map(|c| c.to_bits()).collect()
                    };
                    prop_assert_eq!(cycles(&rows), cycles(&oracle), "cycles, step {}", step);
                    let sums = |s: &WseMdSim| -> [Vec<u64>; 4] {
                        let f32_bits = |v: &[f32]| v.iter().map(|x| x.to_bits() as u64).collect();
                        [
                            f32_bits(&s.rho),
                            f32_bits(&s.fprime),
                            f32_bits(&s.pair_e),
                            s.per_atom_potential_energies()
                                .iter()
                                .map(|e| e.to_bits())
                                .collect(),
                        ]
                    };
                    prop_assert_eq!(
                        sums(&rows),
                        sums(&oracle),
                        "rho, F', pair and atom energies, step {}",
                        step
                    );
                    pairs += rows.ninter.iter().map(|&n| n as u64).sum::<u64>();
                    rows.advance_positions_impl();
                    oracle.advance_positions_impl();
                }
                Ok(())
            })?;
        }
        Ok(pairs)
    }

    /// A jittered simple-cubic cloud at `spacing` Å with its box,
    /// wrapped into the box on periodic axes.
    fn jittered_cloud(
        cells: [usize; 3],
        spacing: f64,
        jitter: &[f64],
        periodic: [bool; 3],
    ) -> (Vec<V3d>, V3d) {
        let lengths = V3d::new(
            cells[0] as f64 * spacing,
            cells[1] as f64 * spacing,
            cells[2] as f64 * spacing,
        );
        let l = lengths.to_array();
        let n = cells.iter().product::<usize>();
        let positions = (0..n)
            .map(|i| {
                let ijk = [
                    i % cells[0],
                    i / cells[0] % cells[1],
                    i / (cells[0] * cells[1]),
                ];
                V3d::from_array(std::array::from_fn(|k| {
                    let x = ijk[k] as f64 * spacing + jitter[3 * i + k];
                    if periodic[k] {
                        x.rem_euclid(l[k])
                    } else {
                        x
                    }
                }))
            })
            .collect();
        (positions, lengths)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The row scan reproduces the per-candidate scan bit for bit on
        /// open and periodic boundaries, with spare and edge cores and
        /// derived or forced `b` — each case with force symmetry on and
        /// off, and with lists rebuilt every step or reused for 3 steps
        /// with a 0.6 Å skin.
        #[test]
        fn row_scan_matches_per_candidate_oracle(
            nx in 3usize..8,
            ny in 3usize..8,
            nz in 1usize..3,
            spacing in 2.6f64..3.2,
            jitter in proptest::collection::vec(-0.4f64..0.4, 3 * 7 * 7 * 2..3 * 7 * 7 * 2 + 1),
            speeds in proptest::collection::vec(-15.0f64..15.0, 3 * 7 * 7 * 2..3 * 7 * 7 * 2 + 1),
            boundary in 0usize..3,
            spare in 0.0f64..0.8,
            b_pick in -1i32..6,
        ) {
            let periodic = BOUNDARIES[boundary];
            let (positions, lengths) = jittered_cloud([nx, ny, nz], spacing, &jitter, periodic);
            let velocities: Vec<V3d> = (0..positions.len())
                .map(|i| V3d::new(speeds[3 * i], speeds[3 * i + 1], speeds[3 * i + 2]))
                .collect();
            let mut config = WseMdConfig::open_for(positions.len(), spare, 0.002);
            config.periodic = periodic;
            config.box_lengths = lengths;
            // 0 derives b; the rest force (−1, 5) … (5, −1), so an
            // empty row range and a negative radius are covered too.
            config.b_override = (b_pick != 0).then_some((b_pick, 4 - b_pick));
            for symmetric in [false, true] {
                for (reuse, skin) in [(1, 0.0), (3, 0.6)] {
                    config.symmetric_forces = symmetric;
                    config.neighbor_reuse_interval = reuse;
                    config.neighbor_skin = skin;
                    assert_scans_agree(&positions, &velocities, &config, 7)?;
                }
            }
        }
    }

    /// Rows wider than the scan buffer are scanned in pieces with the
    /// same result, on an open and on a periodic fabric.
    #[test]
    fn rows_wider_than_the_buffer_match_the_oracle() {
        let width = SCAN_CHUNK + 36;
        let cells = [width, 2, 1];
        let jitter: Vec<f64> = (0..3 * 2 * width)
            .map(|i| 0.3 * ((i * 7919 % 101) as f64 / 50.0 - 1.0))
            .collect();
        for periodic in BOUNDARIES {
            let (positions, lengths) = jittered_cloud(cells, 2.9, &jitter, periodic);
            let velocities = vec![V3d::new(3.0, -2.0, 1.0); positions.len()];
            let mut config = WseMdConfig::open_for(positions.len(), 0.0, 0.002);
            config.extent = Extent::new(width, 3);
            config.periodic = periodic;
            config.box_lengths = lengths;
            config.b_override = Some((SCAN_CHUNK as i32 + 5, 1));
            let pairs = assert_scans_agree(&positions, &velocities, &config, 3)
                .unwrap_or_else(|e| panic!("{periodic:?}: {e:?}"));
            assert!(pairs > 0, "{periodic:?}: no accepted pairs");
        }
    }
}
