//! Deterministic QoS for a mail-server workload (the paper's Exchange
//! scenario, §V-D): FIM block matching, online retrieval, delay policy —
//! compared against the trace's original device layout.
//!
//! Run with: `cargo run --release --example exchange_qos`

use flash_qos::prelude::*;
use flash_qos::traces::models::exchange::ExchangeConfig;

fn main() {
    // A scaled Exchange-like workload: 24 diurnal intervals, nine volumes,
    // bursty arrivals (DESIGN.md §2, the SNIA-trace substitution).
    let model = models::exchange(ExchangeConfig {
        intervals: 24,
        ..Default::default()
    });
    let trace = model.generate();
    println!(
        "workload: {} read requests over {} intervals on {} volumes",
        trace.len(),
        trace.num_intervals(),
        trace.num_devices
    );

    let pipeline = QosPipeline::new(QosConfig::paper_9_3_1());

    // The original layout: requests go to the volume the trace names.
    let original = pipeline.run_original(&trace);
    // The QoS system: FIM-matched design-theoretic placement + online
    // retrieval + deterministic admission (overload → delayed).
    let qos = pipeline.run_online(&trace);

    println!("\nper-interval response times (ms):");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "interval", "qos avg", "qos max", "orig avg", "orig max", "% delayed"
    );
    for i in 0..trace.num_intervals() {
        println!(
            "{:<10} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>9.1}%",
            i,
            qos.intervals.response[i].mean_ms(),
            qos.intervals.response[i].max_ms(),
            original.intervals.response[i].mean_ms(),
            original.intervals.response[i].max_ms(),
            qos.intervals.delayed_pct(i),
        );
    }

    println!(
        "\nQoS kept every served request at {:.6} ms (the guarantee), delaying {:.1}% of requests by {:.3} ms on average.",
        qos.total_response.max_ms(),
        qos.delayed_pct(),
        qos.avg_delay_ms()
    );
    println!(
        "The original layout averaged {:.3} ms with a worst case of {:.3} ms — no guarantee at all.",
        original.total_response.mean_ms(),
        original.total_response.max_ms()
    );
    println!(
        "FIM matched {:.0}% of each interval's blocks from the previous interval's mining on average.",
        100.0 * qos.avg_matched_fraction()
    );
}
