//! Heap allocations of a `QosConfig` — a count, not a timing. The paper's
//! bucket tables are built once per process and shared, so a config costs
//! a reference count: a rebuild per call or a deep copy per clone shows
//! here as a hundred allocations where 0 belong. The same holds for a
//! layout's `P_k` table once sampled: resampling shows as allocations.

use fqos_core::QosConfig;
use fqos_decluster::AllocationScheme;
use fqos_designs::DesignCatalog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Heap allocations made while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// A custom design's table: the shared handle, the flat bucket table and
/// the name. Its `P_k` memo starts empty and allocates nothing.
const PER_TABLE: u64 = 3;

// The only test in this binary: a second one would allocate concurrently.
#[test]
fn paper_configs_allocate_once_per_process_and_custom_tables_a_constant() {
    let warm = (QosConfig::paper_9_3_1(), QosConfig::paper_13_3_1());
    let (n, limit) = allocations(|| {
        drop(QosConfig::paper_9_3_1());
        QosConfig::paper_13_3_1().with_accesses(3).request_limit()
    });
    assert_eq!(limit, 27);
    assert_eq!(n, 0, "paper configs after the first");
    let (n, copy) = allocations(|| warm.1.clone());
    assert_eq!(n, 0, "QosConfig::clone");
    drop((warm, copy));

    // A `P_k` table is sampled once per layout and sampling: a second
    // request, from any clone, is a reference count.
    let scheme = AllocationScheme::paper_9_3_1();
    let first = scheme.retrieval_probabilities(12, 200, 7);
    let (n, again) = allocations(|| scheme.clone().retrieval_probabilities(12, 200, 7));
    assert_eq!(n, 0, "a P_k memo hit");
    assert!(Arc::ptr_eq(&first, &again));

    let mut counts = Vec::new();
    for (devices, buckets) in [(7, 21), (13, 78), (27, 351)] {
        let design = DesignCatalog.find(devices, 3).expect("catalog design");
        let (n, scheme) = allocations(|| AllocationScheme::design(&design));
        assert_eq!(scheme.num_buckets(), buckets);
        println!("AllocationScheme::design on {buckets} buckets: {n} allocations");
        counts.push(n);
    }
    assert_eq!(counts, [PER_TABLE; 3]);
}
