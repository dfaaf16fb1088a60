//! The page-mapped FTL against the copy of itself taken before its write
//! path stopped allocating: every write lands on the same physical page
//! with the same GC work, on geometries that reach every branch of a
//! collection.

mod oracle;

use fqos_flashsim::{FtlGeometry, PageMappedFtl};
use oracle::ReferenceFtl;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// `mixed_rw_gc`'s device (`benchmark/src/workloads.rs`).
const BENCHMARK: FtlGeometry = FtlGeometry {
    dies: 1,
    blocks_per_die: 64,
    pages_per_block: 8,
    overprovision: 0.1,
};

/// The unit tests' `small_geometry()`: two dies, so striping is in play.
const SMALL: FtlGeometry = FtlGeometry {
    dies: 2,
    blocks_per_die: 8,
    pages_per_block: 4,
    overprovision: 0.25,
};

/// `over_capacity_working_set_terminates`'s: 32 pages, and a span of 30
/// or more fills them — one collection aborts half-way for want of a page
/// to relocate into, and from then on writes fail with `DeviceFull`.
const OVER_CAPACITY: FtlGeometry = FtlGeometry { dies: 1, ..SMALL };

const WRITES: usize = 100_000;

/// What a history met on its way, for the tests to check they reached
/// the paths they are named after.
struct Met {
    /// Writes refused with `DeviceFull`.
    full: u64,
    /// Writes whose GC relocated pages and erased nothing: a collection
    /// that aborted (a completed one always erases). A lower bound — one
    /// that aborts on its first page, or after a completed one, hides.
    aborted: u64,
    erases: u64,
}

/// `WRITES` writes (one in 16 a `read`, which materializes a cold page),
/// three quarters of them to the first `hot` pages of `span`.
fn same_history(g: FtlGeometry, seed: u64, span: u64, hot: u64) -> Result<Met, TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hot = hot.min(span);
    let (mut new, mut old) = (PageMappedFtl::new(g), ReferenceFtl::new(g));
    let (mut full, mut aborted) = (0u64, 0u64);
    for step in 0..WRITES {
        let lp = if rng.gen_range(0..4u32) > 0 {
            rng.gen_range(0..hot)
        } else {
            rng.gen_range(0..span)
        };
        if rng.gen_range(0..16u32) == 0 {
            prop_assert_eq!(new.read(lp), old.read(lp), "step {}: read {}", step, lp);
        } else {
            let (n, o) = (new.write(lp), old.write(lp));
            match o {
                Ok((_, gc)) => aborted += u64::from(gc.erases == 0 && gc.pages_relocated > 0),
                Err(_) => full += 1,
            }
            prop_assert_eq!(n, o, "step {}: write {}", step, lp);
        }
        if step % 4096 == 0 || step == WRITES - 1 {
            for lp in 0..span {
                prop_assert_eq!(
                    new.lookup(lp),
                    old.lookup(lp),
                    "step {}: lookup {}",
                    step,
                    lp
                );
            }
        }
    }
    prop_assert_eq!(new.total_erases(), old.total_erases());
    prop_assert_eq!(
        new.write_amplification().to_bits(),
        old.write_amplification().to_bits()
    );
    prop_assert_eq!(
        (new.host_writes(), new.gc_writes()),
        (old.host_writes(), old.gc_writes())
    );
    Ok(Met {
        full,
        aborted,
        erases: old.total_erases(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn benchmark_geometry_writes_land_where_they_did(
        seed in any::<u64>(), span in 1u64..=512, hot in 1u64..=64,
    ) {
        let met = same_history(BENCHMARK, seed, span, hot)?;
        prop_assert!(span > 460 || (met.erases > 0 && met.full == 0), "span {}", span);
    }

    #[test]
    fn two_die_geometry_writes_land_where_they_did(
        seed in any::<u64>(), span in 1u64..=64, hot in 1u64..=16,
    ) {
        same_history(SMALL, seed, span, hot)?;
    }

    #[test]
    fn over_capacity_writes_fail_and_abort_where_they_did(
        seed in any::<u64>(), span in 30u64..=32, hot in 1u64..=32,
    ) {
        let met = same_history(OVER_CAPACITY, seed, span, hot)?;
        prop_assert!(met.full > 0, "span {}: never full", span);
    }
}

/// The relocation buffer changes hands on the abort path too; this history
/// is known to take it.
#[test]
fn a_collection_that_aborts_half_way_leaves_the_same_device() {
    let met = same_history(OVER_CAPACITY, 7, 30, 4).unwrap();
    assert!(met.aborted > 0 && met.full > 0);
}
