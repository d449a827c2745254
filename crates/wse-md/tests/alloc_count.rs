//! A warm wafer step allocates nothing: every per-core buffer, neighbor
//! list and position column is refilled in place, and the pool's
//! parallel regions hand out index ranges instead of gathering items.
//! The one growth allowed is the per-step cycle trace, which records a
//! sample every step by design.
//!
//! The counting allocator sees every thread, so this file holds a
//! single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use md_core::lattice::SlabSpec;
use md_core::materials::{Material, Species};
use md_core::thermostat;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wse_md::{WseMdConfig, WseMdSim};

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The benchmark's `wse-ta` engine: a 32 × 32 × 2-cell bcc Ta slab
/// (4,096 atoms) at 290 K on an open fabric with 5 % spare cores.
fn wse_ta() -> WseMdSim {
    let m = Material::new(Species::Ta);
    let positions = SlabSpec {
        crystal: m.crystal,
        lattice_a: m.lattice_a,
        nx: 32,
        ny: 32,
        nz: 2,
    }
    .generate();
    let mut rng = StdRng::seed_from_u64(14);
    let velocities = thermostat::maxwell_boltzmann(&mut rng, positions.len(), m.mass, 290.0);
    let config = WseMdConfig::open_for(positions.len(), 0.05, 2e-3);
    WseMdSim::new(Species::Ta, &positions, &velocities, config)
}

#[test]
fn a_warm_wafer_step_allocates_only_when_the_cycle_trace_grows() {
    for threads in [1, 3] {
        rayon::with_num_threads(threads, || {
            let mut sim = wse_ta();
            for _ in 0..10 {
                sim.step();
            }
            let mut trace_growths = 0;
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            for _ in 0..50 {
                let capacity = sim.cycle_trace.capacity();
                sim.step();
                trace_growths += (sim.cycle_trace.capacity() != capacity) as usize;
            }
            let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
            assert!(
                allocations <= trace_growths,
                "{threads} threads: {allocations} allocations in 50 warm steps, \
                 {trace_growths} of them allowed for the cycle trace"
            );
        });
    }
}
