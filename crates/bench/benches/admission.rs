//! Admission-control micro-benchmarks: the §III-A claim that admission is
//! "quite simple" (O(1)) and the statistical `Q < ε` test, plus the
//! incremental feasibility probe used online.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fqos_core::{AppAdmission, StatisticalCounters};
use fqos_decluster::sampling::optimal_retrieval_probabilities;
use fqos_decluster::{AllocationScheme, DesignTheoretic};
use fqos_maxflow::IncrementalRetrieval;
use std::hint::black_box;

fn bench_admission(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission");

    group.bench_function("deterministic_register", |b| {
        b.iter(|| {
            let mut ac = AppAdmission::new(5);
            for app in 0..5u64 {
                black_box(ac.register(app, 1));
            }
            black_box(ac.register(99, 1))
        });
    });

    // Statistical Q with a populated history.
    let scheme = DesignTheoretic::paper_9_3_1();
    let p = optimal_retrieval_probabilities(&scheme, 20, 2_000, 1);
    let mut counters = StatisticalCounters::new();
    let mut state = 1u64;
    for _ in 0..10_000 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        counters.record_interval(((state >> 33) % 12) as usize);
    }
    group.bench_function("statistical_would_admit", |b| {
        b.iter(|| black_box(counters.would_admit(black_box(9), &p, 0.01)));
    });

    // Online feasibility probe via the incremental matching kernel. The
    // kernel is built once and `reset()` per iteration, as a window slot
    // does, so the ids time `try_add` and not the allocator.
    for &m in &[1usize, 2] {
        let mut inc = IncrementalRetrieval::new(9, m);
        group.bench_with_input(BenchmarkId::new("incremental_try_add", m), &m, |b, &m| {
            b.iter(|| {
                inc.reset(m, 0);
                let mut admitted = 0;
                for bucket in 0..36usize {
                    if inc.try_add(scheme.replicas(bucket)) {
                        admitted += 1;
                    }
                }
                black_box(admitted)
            });
        });
        // The delay-horizon scan's case: probes into a window that is
        // already full. A refusal leaves the kernel untouched, so the same
        // saturated state serves every iteration.
        assert_eq!(inc.len(), 9 * m, "all 36 buckets saturate the window");
        group.bench_with_input(
            BenchmarkId::new("incremental_try_add_refused", m),
            &m,
            |b, _| {
                b.iter(|| {
                    let mut refused = 0;
                    for bucket in 0..36usize {
                        if !inc.try_add(scheme.replicas(bucket)) {
                            refused += 1;
                        }
                    }
                    black_box(refused)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_admission);
criterion_main!(benches);
