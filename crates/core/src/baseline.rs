//! The "original stand" baseline (§V-D): every block request is retrieved
//! from the device it is stated in the trace, with no QoS machinery — the
//! top lines of Fig. 8 and Fig. 9.

use crate::report::QosReport;
use fqos_flashsim::{CalibratedSsd, Duration, FlashArray, IoRequest};
use fqos_traces::Trace;

/// Replay a trace against its original device layout. Requests queue FCFS
/// per device; the response time includes all queueing (which is what blows
/// past the guarantee whenever a burst hits a hot volume).
pub fn run_original(trace: &Trace, service_ns: Duration) -> QosReport {
    let mut array = FlashArray::new(
        (0..trace.num_devices)
            .map(|_| CalibratedSsd::with_latencies(service_ns, service_ns))
            .collect::<Vec<_>>(),
    );
    let mut report = QosReport::new("original", trace.num_intervals());
    for (interval_idx, records) in trace.intervals().enumerate() {
        for r in records {
            let req = IoRequest::read_block(r.lbn, r.arrival_ns, usize::from(r.device), r.lbn);
            let c = array.submit(&req, r.arrival_ns);
            report.record(interval_idx, c.response_time(), 0);
        }
    }
    report
}

/// Replay a trace against an arbitrary replicated allocation with the
/// greedy per-request replica policy a real RAID controller uses: each
/// read goes to the replica with the shortest queue (earliest finish) at
/// arrival. No admission control, no batching — this is how the Table III
/// RAID-1 baselines are driven.
pub fn run_scheme_greedy(
    trace: &Trace,
    scheme: &fqos_decluster::AllocationScheme,
    mapping: &mut crate::mapping::BlockMapping,
    service_ns: Duration,
) -> QosReport {
    let mut array = FlashArray::new(
        (0..scheme.devices())
            .map(|_| CalibratedSsd::with_latencies(service_ns, service_ns))
            .collect::<Vec<_>>(),
    );
    let mut report = QosReport::new(format!("greedy {}", scheme.name()), trace.num_intervals());
    let mut free = vec![0u64; scheme.devices()];
    mapping.drive(trace, &mut report, |interval, records, column, report| {
        for (r, &bucket) in records.iter().zip(column) {
            let replicas = scheme.replicas(bucket);
            let d = fqos_decluster::retrieval::pick_online_device(replicas, &free, r.arrival_ns);
            let c = array.submit(
                &IoRequest::read_block(r.lbn, r.arrival_ns, d, r.lbn),
                r.arrival_ns,
            );
            free[d] = c.finish;
            report.record(interval, c.response_time(), 0);
        }
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqos_flashsim::{IoOp, BLOCK_READ_NS, BLOCK_SIZE_BYTES};
    use fqos_traces::TraceRecord;

    fn rec(t: u64, device: u16) -> TraceRecord {
        TraceRecord {
            arrival_ns: t,
            device,
            lbn: 0,
            size_bytes: BLOCK_SIZE_BYTES,
            op: IoOp::Read,
        }
    }

    #[test]
    fn spread_requests_meet_service_time() {
        let trace = Trace::new("t", (0..4).map(|d| rec(0, d)).collect(), 4, 1_000_000);
        let r = run_original(&trace, BLOCK_READ_NS);
        assert_eq!(r.completed(), 4);
        assert_eq!(r.total_response.max_ns(), BLOCK_READ_NS);
    }

    #[test]
    fn hot_device_bursts_queue_up() {
        // 10 simultaneous requests on one device: the last waits 9 services.
        let trace = Trace::new("t", (0..10).map(|_| rec(0, 2)).collect(), 4, 1_000_000);
        let r = run_original(&trace, BLOCK_READ_NS);
        assert_eq!(r.total_response.max_ns(), 10 * BLOCK_READ_NS);
        assert!(r.total_response.mean_ns() > 5.0 * BLOCK_READ_NS as f64);
    }
}
