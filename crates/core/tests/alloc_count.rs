//! Heap allocations per record of one paper-faithful pass — a count, not a
//! timing, so it reads the same on any host. The offline pass is built from
//! flat buffers sized once per interval; a `Vec` per transaction, vertex or
//! arrival group coming back shows here long before it shows on a clock.

use fqos_core::{QosConfig, QosPipeline};
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

/// About twice the figure measured once closed QoS windows went to a
/// callback: 946 allocations over 15 365 records, 0.062 per record (a
/// `Vec` per closed window made it 9 072 and 0.590; the hashed structures
/// before them 54 595 and 3.553). What is left is some sixty buffers per
/// mined interval; a `Vec` per window, group or record breaks the bound.
const BOUND_PER_RECORD: f64 = 0.15;

// The only test in this binary: a second one would allocate concurrently.
#[test]
fn one_online_pass_allocates_a_bounded_number_of_times_per_record() {
    let trace = exchange(ExchangeConfig {
        intervals: 16,
        seed: 1,
        ..ExchangeConfig::default()
    })
    .generate();
    let pipeline = QosPipeline::new(QosConfig::paper_9_3_1());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = pipeline.run_online(&trace);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(report.completed(), trace.len() as u64);
    let per_record = allocations as f64 / trace.len() as f64;
    println!(
        "{allocations} allocations over {} records = {per_record:.4} per record",
        trace.len()
    );
    assert!(
        per_record < BOUND_PER_RECORD,
        "{per_record:.4} allocations per record, bound {BOUND_PER_RECORD}"
    );
}
