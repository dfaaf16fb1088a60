//! Fig. 2 and Fig. 7 — the design block table and the three allocation
//! layouts, printed for visual verification against the paper.

use fqos_bench::banner;
use fqos_decluster::AllocationScheme;
use fqos_designs::known;

fn print_scheme(s: &AllocationScheme, base_only: usize) {
    println!("--- {} ---", s.name());
    println!("blocks (bucket → device tuple):");
    for b in 0..base_only {
        let r = s.replicas(b);
        let tuple: Vec<String> = r.iter().map(|d| format!("d{d}")).collect();
        println!("  b{b:<3} {}", tuple.join(" "));
    }
    // Per-device content.
    let mut per_device: Vec<Vec<usize>> = vec![Vec::new(); s.devices()];
    for b in 0..base_only {
        for &d in s.replicas(b) {
            per_device[d].push(b);
        }
    }
    println!("devices (device → blocks):");
    for (d, blocks) in per_device.iter().enumerate() {
        let list: Vec<String> = blocks.iter().map(|b| format!("b{b}")).collect();
        println!("  d{d}: {}", list.join(" "));
    }
    println!();
}

fn main() {
    banner(
        "layouts",
        "Fig. 2 / Fig. 7",
        "Design table and allocation layouts",
    );

    println!("--- (9,3,1) design (Fig. 2) ---");
    let d = known::design_9_3_1();
    for (i, block) in d.blocks().iter().enumerate() {
        let cells: Vec<String> = block.iter().map(std::string::ToString::to_string).collect();
        println!("  block {i:<2} ({})", cells.join(","));
    }
    println!("  verification: {:?}\n", d.verify());

    print_scheme(&AllocationScheme::paper_9_3_1(), 12);
    print_scheme(&AllocationScheme::mirrored(9, 3, 36), 12);
    print_scheme(&AllocationScheme::chained(9, 3, 36), 12);
}
