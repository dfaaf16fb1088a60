//! Heap traffic on the write / GC service path — counts, not timings, so
//! they read the same on any host. In steady state a worker serves reads,
//! hedges them behind GC stalls, programs write copies through the FTL and
//! settles all of it without going to the allocator, in either direction:
//! it hands each batch back to the sealing thread that allocated it, and
//! drops only clones of the write sinks the seal keeps. A `Vec` per hedge
//! or per erase, or a batch freed by the worker, shows here long before it
//! shows on a clock.
//!
//! The allocator keeps its tallies per thread, so the submitting side,
//! which seals and so allocates on the worker's behalf, does not drown
//! the workers' figures.

use fqos_core::{OverloadPolicy, QosConfig};
use fqos_flashsim::PageMappedFtl;
use fqos_server::{FtlGeometry, GcConfig, QosServer, ServerConfig, SubmitterHandle};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const THREADS: usize = 64;

/// One thread's heap traffic.
struct Tally {
    allocations: AtomicU64,
    frees: AtomicU64,
    /// Allocations the size of a `Vec` header: a batch's box. The submitting
    /// thread makes no other allocation of that size per window.
    vec_boxes: AtomicU64,
}

/// Per thread, in the order the threads first allocated.
static TALLIES: [Tally; THREADS] = [const {
    Tally {
        allocations: AtomicU64::new(0),
        frees: AtomicU64::new(0),
        vec_boxes: AtomicU64::new(0),
    }
}; THREADS];
static THREADS_SEEN: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's index into `TALLIES`; no destructor and no lazy
    /// initializer, so the allocator may touch it at any point of a
    /// thread's life.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn my_slot() -> usize {
    SLOT.try_with(|slot| {
        if slot.get() == usize::MAX {
            slot.set(THREADS_SEEN.fetch_add(1, Ordering::Relaxed));
        }
        slot.get()
    })
    .unwrap_or(THREADS - 1)
    .min(THREADS - 1)
}

fn tally_allocation(layout: Layout) {
    let tally = &TALLIES[my_slot()];
    tally.allocations.fetch_add(1, Ordering::Relaxed);
    if layout == Layout::new::<Vec<u8>>() {
        tally.vec_boxes.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the tallies are statistics and publish nothing.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally_allocation(layout);
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        TALLIES[my_slot()].frees.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally_allocation(layout);
        // SAFETY: as for `alloc` and `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `mixed_rw_gc`'s device and block space (`benchmark/src/workloads.rs`).
const GEOMETRY: FtlGeometry = FtlGeometry {
    dies: 1,
    blocks_per_die: 64,
    pages_per_block: 8,
    overprovision: 0.1,
};
const LBN_SPACE: u64 = 36 * 24;
/// Replicas of a block in the `(9, 3, 1)` design.
const COPIES: u64 = 3;

/// Four writes a window for this long write every block once, so every
/// device's page map holds its working set (a third of the blocks) and
/// has stopped growing; the scorer's rings and the tenant views fill on
/// the way.
const WARM_UP: u64 = LBN_SPACE / 4;
const WINDOWS: u64 = 2_000;
/// Idle windows that flush every delayed admission (the default delay
/// horizon is 64) out of the ring and through the workers.
const FLUSH: u64 = 80;

/// Heap traffic so far of the threads that first allocated after `seen`
/// threads had: the ones the server spawned.
fn of_threads_after(seen: usize, field: fn(&Tally) -> &AtomicU64) -> u64 {
    TALLIES[seen..]
        .iter()
        .map(|t| field(t).load(Ordering::Relaxed))
        .sum()
}

/// Seal everything admitted so far, wait for the workers to settle it and
/// return the items they have served: reads, and one per replica of a
/// write.
fn drain(server: &QosServer, handle: &mut SubmitterHandle, through_window: u64) -> u64 {
    handle.advance_to(through_window * server.config().qos.interval_ns);
    // Bounded, so that a lost item fails the test instead of hanging it.
    for _ in 0..5_000_000 {
        let m = server.metrics();
        if m.settled() == m.admitted_total() {
            return m.completed() + (m.write_settled + m.write_lost) * COPIES;
        }
        std::thread::yield_now();
    }
    panic!("the workers never caught up: {:#?}", server.metrics());
}

fn ftl_write_allocates_nothing_once_the_map_is_full() {
    let mine = &TALLIES[my_slot()].allocations;
    let mut rng = StdRng::seed_from_u64(22);
    let mut ftl = PageMappedFtl::new(GEOMETRY);
    // Three quarters of the 512 pages live, so that victims hold valid
    // pages and a collection relocates as well as erases.
    let pages = 384;
    for lp in 0..pages {
        ftl.write(lp).unwrap();
    }
    let before = mine.load(Ordering::Relaxed);
    for _ in 0..100_000 {
        ftl.write(rng.gen_range(0..pages)).unwrap();
    }
    let allocations = mine.load(Ordering::Relaxed) - before;
    println!(
        "{allocations} allocations over 100000 FTL writes ({} erases, {} relocations)",
        ftl.total_erases(),
        ftl.gc_writes()
    );
    assert!(ftl.total_erases() > 1_000 && ftl.gc_writes() > 0, "GC ran");
    assert_eq!(
        allocations, 0,
        "over 100 000 writes of a mapped working set"
    );
}

fn workers_neither_allocate_nor_free_in_steady_state() {
    let spawned_before = THREADS_SEEN.load(Ordering::Relaxed);
    let cfg = ServerConfig::new(QosConfig::paper_9_3_1().with_accesses(2))
        .with_workers(2)
        .with_gc_model(GcConfig::new(GEOMETRY));
    // `Engine`'s sizing of a worker's queue (`channel_messages`).
    let messages = (cfg.queue_depth * cfg.workers / cfg.qos.request_limit()).max(1) as u64;
    let server = QosServer::new(cfg).unwrap();
    let interval = server.config().qos.interval_ns;
    for (tenant, reserved) in [(1, 4), (2, 4), (3, 3), (4, 3)] {
        server
            .register(tenant, reserved, OverloadPolicy::Delay)
            .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(22);
    let mut handle = server.handle();
    let vec_boxes = &TALLIES[my_slot()].vec_boxes;
    let vec_boxes_before = vec_boxes.load(Ordering::Relaxed);
    for w in 0..WARM_UP {
        for i in 0..6 {
            let (tenant, at) = (1 + i % 4, w * interval + i);
            if i < 4 {
                handle.submit_write(tenant, w * 4 + i, at);
            } else {
                handle.submit(tenant, rng.gen_range(0..LBN_SPACE), at);
            }
        }
    }
    let start = WARM_UP + FLUSH;
    let warm_items = drain(&server, &mut handle, start);
    let workers = |field| of_threads_after(spawned_before, field);
    let allocations_before = workers(|t| &t.allocations);
    let frees_before = workers(|t| &t.frees);
    // Eight requests a window of which a quarter write: six reads and two
    // writes of three copies, as `mixed_rw_gc` offers.
    for w in start..start + WINDOWS {
        for i in 0..8 {
            let (tenant, lbn) = (1 + i % 4, rng.gen_range(0..LBN_SPACE));
            if rng.gen_range(0..4u32) == 0 {
                handle.submit_write(tenant, lbn, w * interval + i);
            } else {
                handle.submit(tenant, lbn, w * interval + i);
            }
        }
    }
    let items = drain(&server, &mut handle, start + WINDOWS + FLUSH) - warm_items;
    let allocations = workers(|t| &t.allocations) - allocations_before;
    let frees = workers(|t| &t.frees) - frees_before;
    let batches = vec_boxes.load(Ordering::Relaxed) - vec_boxes_before;
    drop(handle);
    let m = server.finish();
    println!(
        "{allocations} worker allocations and {frees} frees over {items} served items \
         in {WINDOWS} windows ({} hedges, {} erases in all); {batches} batches \
         allocated for {} windows sealed",
        m.hedges_issued, m.gc_erases, m.windows_sealed,
    );
    assert!(m.conserved());
    assert!(m.hedges_issued > 1_000 && m.gc_erases > 1_000, "{m:#?}");
    assert!(items > 15_000, "{items} items");
    assert_eq!(
        (allocations, frees),
        (0, 0),
        "over {items} items after {WARM_UP} windows of warm-up"
    );
    // A worker's batches are queued, in service or being filled whenever
    // the seal allocates one: `messages + 2` each, over the whole run.
    assert!(
        batches <= 2 * (messages + 2),
        "{batches} batches for two workers with {messages}-message queues"
    );
}

// One test, two parts: threads are told apart by when they first allocate,
// and a second test's thread would pass for one of the server's.
#[test]
fn the_write_and_gc_service_path_allocates_nothing_in_steady_state() {
    ftl_write_allocates_nothing_once_the_map_is_full();
    workers_neither_allocate_nor_free_in_steady_state();
}
