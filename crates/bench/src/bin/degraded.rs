//! Extension experiment — degraded-mode behaviour under device failures.
//!
//! Replication buys fault tolerance along with QoS: an `(N,3,1)` array
//! serves every bucket through any 2 device failures. This experiment
//! sweeps the number of failed devices and reports, per allocation scheme:
//! data availability (fraction of buckets still readable) and the exact
//! retrieval cost of a full-array scan (all 36 buckets).

use fqos_bench::{banner, pct, TableBuilder};
use fqos_decluster::retrieval::{degraded_retrieval, fault_tolerance};
use fqos_decluster::AllocationScheme;

fn main() {
    banner(
        "degraded",
        "extension (replication fault tolerance)",
        "Availability and full-scan retrieval cost vs failed devices (worst failure pattern of each size)",
    );
    let schemes = [
        AllocationScheme::paper_9_3_1(),
        AllocationScheme::chained(9, 3, 36),
        AllocationScheme::mirrored(9, 3, 36),
    ];

    let mut table = TableBuilder::new(&[
        "scheme",
        "tolerance",
        "failures",
        "worst availability",
        "worst scan accesses",
    ]);
    for s in &schemes {
        let reqs: Vec<&[usize]> = (0..s.num_buckets()).map(|b| s.replicas(b)).collect();
        let n = s.devices();
        for f in 0..=3usize {
            // Enumerate all failure patterns of size f, track the worst.
            let mut worst_avail = 1.0f64;
            let mut worst_cost = 0usize;
            for mask in (0u64..1 << n).filter(|m| m.count_ones() as usize == f) {
                let failed: Vec<bool> = (0..n).map(|d| mask >> d & 1 == 1).collect();
                let out = degraded_retrieval(&reqs, n, &failed);
                let avail = 1.0 - out.lost.len() as f64 / reqs.len() as f64;
                worst_avail = worst_avail.min(avail);
                worst_cost = worst_cost.max(out.schedule.accesses);
            }
            table.row(&[
                if f == 0 {
                    s.name().to_string()
                } else {
                    String::new()
                },
                if f == 0 {
                    fault_tolerance(s).to_string()
                } else {
                    String::new()
                },
                f.to_string(),
                pct(100.0 * worst_avail),
                worst_cost.to_string(),
            ]);
        }
    }
    table.print();
    println!("\nAll three 3-copy layouts tolerate 2 arbitrary failures. The difference is the");
    println!("third failure: mirrored loses a whole group's 12 buckets when one mirror trio");
    println!("dies, the design loses only the 3 rotations of the one block on those devices.");
}
