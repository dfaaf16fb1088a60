//! Serve a synthetic multi-tenant workload through the concurrent engine.
//!
//! Three tenants share the paper's (9,3,1) array at `M = 2`
//! (S(2) = 14 block reads per 0.266 ms interval). Each tenant gets its own
//! submitter thread replaying a timestamped synthetic trace — tenant 3
//! deliberately bursts past its reservation to show the Delay policy — and
//! a four-worker pool drives the calibrated device models.
//!
//! Run with: `cargo run --release --example serve_trace`

use flash_qos::prelude::*;
use flash_qos::server::WINDOW_RING;

fn main() {
    let qos = QosConfig::paper_9_3_1().with_accesses(2);
    let limit = qos.request_limit(); // S(2) = 14
    let interval_ns = qos.interval_ns;
    let pool = qos.scheme.num_buckets() as u64;
    let server = QosServer::new(ServerConfig::new(qos).with_workers(4).with_queue_depth(32))
        .expect("valid config");

    // Reservations 7 + 4 + 3 = 14 = S(2): the admission controller is full.
    let plan: &[(u64, usize, usize)] = &[
        (1, 7, 7), // tenant, reservation, actual blocks per interval
        (2, 4, 4),
        (3, 3, 5), // bursts two past its reservation every interval
    ];
    for &(tenant, reserved, _) in plan {
        server
            .register(tenant, reserved, OverloadPolicy::Delay)
            .expect("within S(M)");
    }
    assert_eq!(server.headroom(), 0);

    let windows = 400usize;
    let threads: Vec<_> = plan
        .iter()
        .map(|&(tenant, _, rate)| {
            let mut handle = server.handle();
            let trace = SyntheticConfig {
                blocks_per_interval: rate,
                interval_ns,
                total_requests: rate * windows,
                block_pool: pool,
                seed: 0x5EED ^ tenant,
            }
            .generate();
            std::thread::spawn(move || {
                let mut delayed = 0u64;
                for r in &trace.records {
                    if let SubmitOutcome::Delayed { .. } =
                        handle.submit(tenant, r.lbn, r.arrival_ns)
                    {
                        delayed += 1;
                    }
                }
                (tenant, delayed)
            })
        })
        .collect();
    for t in threads {
        let (tenant, delayed) = t.join().unwrap();
        println!("tenant {tenant}: {delayed} requests pushed to a later interval");
    }

    let m = server.finish();
    println!(
        "\nserved {} requests over {} sealed windows (ring of {WINDOW_RING} slots)",
        m.served, m.windows_sealed
    );
    println!(
        "busiest window carried {} guaranteed requests (S(M) = {limit})",
        m.max_window_guaranteed
    );
    println!(
        "simulated response time: p50 ≤ {:.4} ms, p99 ≤ {:.4} ms, max {:.4} ms",
        m.p50_latency_ns as f64 / 1e6,
        m.p99_latency_ns as f64 / 1e6,
        m.max_latency_ns as f64 / 1e6,
    );
    for t in &m.tenants {
        println!(
            "tenant {}: reserved {}, admitted {}, delayed {}, served {}, violations {}",
            t.tenant, t.reserved, t.admitted, t.delayed, t.served, t.violations
        );
    }

    // The engine's contract: deterministic admissions never miss deadlines.
    assert_eq!(m.guaranteed_violations, 0);
    assert_eq!(m.deadline_violations, 0);
    assert!(m.max_window_guaranteed <= limit as u64);
    assert_eq!(m.served, m.admitted_total());
    println!("\ndeadline audit: zero violations among guaranteed admissions ✓");
}
