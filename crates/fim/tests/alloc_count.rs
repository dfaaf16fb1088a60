//! Heap allocations of the mining kernel per interval — a count, not a
//! timing, so it reads the same on any host. A database refilled in place,
//! a bucket column built into a reused `Vec` and a matcher mined into again
//! allocate nothing once their buffers are as large as an interval needs.

use fqos_fim::{BlockMatcher, TransactionDb};
use fqos_flashsim::time::BASE_INTERVAL_NS;
use fqos_traces::models::exchange::{exchange, ExchangeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes nothing.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Interval by interval, the allocations of refilling the database, building
/// the interval's bucket column and mining it, over `passes` passes of the
/// `offline_trace` trace (the Exchange model, 384 intervals, seed 1) with
/// one database, one column and one matcher.
fn allocations_per_interval(passes: usize) -> Vec<u64> {
    let trace = exchange(ExchangeConfig {
        intervals: 384,
        seed: 1,
        ..ExchangeConfig::default()
    })
    .generate();
    let mut db = TransactionDb::default();
    let mut matcher = BlockMatcher::empty(36);
    let mut column = Vec::new();
    let mut allocations = Vec::new();
    for records in (0..passes).flat_map(|_| trace.intervals()) {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        db.refill(
            records.iter().map(|r| (r.arrival_ns, r.lbn)),
            BASE_INTERVAL_NS,
        );
        let matched = matcher.buckets_into(&db, &mut column);
        let mined = matcher.mine(&db, 1);
        allocations.push(ALLOCATIONS.load(Ordering::Relaxed) - before);
        assert!(matched <= records.len() && mined.pairs_found > 0);
    }
    allocations
}

// The only test in this binary: a second one would allocate concurrently.
#[test]
fn a_warm_interval_allocates_nothing() {
    let allocations = allocations_per_interval(2);
    let (first, second) = allocations.split_at(allocations.len() / 2);
    let grew: Vec<(usize, u64)> = (first.iter().copied().enumerate())
        .filter(|&(i, n)| i > 1 && n > 0)
        .collect();
    println!(
        "first pass: {} and {} allocations in intervals 0 and 1, then {grew:?} (interval, allocations) as buffers grew; second pass: {}",
        first[0],
        first[1],
        second.iter().sum::<u64>()
    );
    // Past the first two intervals a buffer only grows when an interval
    // outgrows it, which amortized doubling keeps rare.
    assert!(grew.len() <= 4, "{grew:?}");
    // Once every buffer is as large as an interval needs, no interval
    // allocates at all.
    assert!(second.iter().all(|&n| n == 0), "{second:?}");
}
