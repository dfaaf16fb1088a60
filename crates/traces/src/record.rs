//! Trace records and the trace container.

use fqos_flashsim::{IoOp, SimTime};

/// One block request of a workload trace.
///
/// `device` is the *original* placement stated by the trace (the paper's
/// "original stand" baseline retrieves from exactly this device); the QoS
/// framework ignores it and places blocks by design-theoretic allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival time, nanoseconds since trace start.
    pub arrival_ns: SimTime,
    /// Device (volume) the original trace directs this request to. Sixteen
    /// bits keep the record at 24 bytes; a trace is millions of them.
    pub device: u16,
    /// Logical block number (already aligned to 8 KiB blocks).
    pub lbn: u64,
    /// Request size in bytes.
    pub size_bytes: u32,
    /// Operation (the paper's experiments replay the read stream).
    pub op: IoOp,
}

/// A workload trace: records sorted by arrival time plus metadata.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Human-readable name ("exchange", "tpce", "synthetic-5").
    pub name: String,
    /// Records sorted by `arrival_ns`.
    pub records: Vec<TraceRecord>,
    /// Number of devices (volumes) named by the original trace.
    pub num_devices: usize,
    /// Reporting interval length (15 min for Exchange, one part for TPC-E,
    /// scaled in the models).
    pub interval_ns: SimTime,
}

impl Trace {
    /// Create a trace, sorting records by arrival.
    pub fn new(
        name: impl Into<String>,
        mut records: Vec<TraceRecord>,
        num_devices: usize,
        interval_ns: SimTime,
    ) -> Self {
        assert!(interval_ns > 0);
        records.sort_by_key(|r| r.arrival_ns);
        Trace {
            name: name.into(),
            records,
            num_devices,
            interval_ns,
        }
    }

    /// Number of reporting intervals covered by the trace.
    pub fn num_intervals(&self) -> usize {
        match self.records.last() {
            None => 0,
            Some(last) => (last.arrival_ns / self.interval_ns) as usize + 1,
        }
    }

    /// Reporting interval a record falls into.
    pub fn interval_of(&self, r: &TraceRecord) -> usize {
        (r.arrival_ns / self.interval_ns) as usize
    }

    /// Iterate over per-interval slices of the (sorted) record array.
    /// Empty intervals yield empty slices.
    pub fn intervals(&self) -> impl Iterator<Item = &[TraceRecord]> {
        let n = self.num_intervals();
        let mut bounds = Vec::with_capacity(n + 1);
        bounds.push(0usize);
        for i in 1..=n {
            let t = i as u64 * self.interval_ns;
            let start = bounds[i - 1];
            let off = self.records[start..].partition_point(|r| r.arrival_ns < t);
            bounds.push(start + off);
        }
        (0..n).map(move |i| &self.records[bounds[i]..bounds[i + 1]])
    }

    /// Total number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Merge two traces into one time-ordered stream (e.g. multiple
    /// applications sharing an array). Device/interval metadata comes from
    /// `self`; the other trace must use compatible device numbering.
    pub fn merge(&self, other: &Trace) -> Trace {
        assert_eq!(self.interval_ns, other.interval_ns, "interval mismatch");
        let mut records = self.records.clone();
        records.extend(other.records.iter().copied());
        Trace::new(
            format!("{}+{}", self.name, other.name),
            records,
            self.num_devices.max(other.num_devices),
            self.interval_ns,
        )
    }

    /// Extract reporting intervals `[from, to)` as a new trace re-based to
    /// time zero.
    pub fn slice_intervals(&self, from: usize, to: usize) -> Trace {
        assert!(from <= to);
        let base = from as u64 * self.interval_ns;
        let records: Vec<TraceRecord> = self
            .records
            .iter()
            .filter(|r| {
                let i = (r.arrival_ns / self.interval_ns) as usize;
                (from..to).contains(&i)
            })
            .map(|r| TraceRecord {
                arrival_ns: r.arrival_ns - base,
                ..*r
            })
            .collect();
        Trace::new(
            format!("{}[{from}..{to}]", self.name),
            records,
            self.num_devices,
            self.interval_ns,
        )
    }

    /// Uniformly scale all arrival times (and the interval length) by
    /// `numer / denom` — e.g. compress a trace 10× to stress-test a
    /// configuration.
    pub fn scale_time(&self, numer: u64, denom: u64) -> Trace {
        assert!(numer > 0 && denom > 0);
        let records: Vec<TraceRecord> = self
            .records
            .iter()
            .map(|r| TraceRecord {
                arrival_ns: r.arrival_ns * numer / denom,
                ..*r
            })
            .collect();
        Trace::new(
            format!("{}x{numer}/{denom}", self.name),
            records,
            self.num_devices,
            (self.interval_ns * numer / denom).max(1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, lbn: u64) -> TraceRecord {
        TraceRecord {
            arrival_ns: t,
            device: 0,
            lbn,
            size_bytes: 8192,
            op: IoOp::Read,
        }
    }

    #[test]
    fn records_are_sorted_on_construction() {
        let t = Trace::new("t", vec![rec(30, 0), rec(10, 1), rec(20, 2)], 1, 100);
        let arrivals: Vec<u64> = t.records.iter().map(|r| r.arrival_ns).collect();
        assert_eq!(arrivals, vec![10, 20, 30]);
    }

    #[test]
    fn interval_partitioning() {
        let t = Trace::new(
            "t",
            vec![rec(0, 0), rec(99, 1), rec(100, 2), rec(350, 3)],
            1,
            100,
        );
        assert_eq!(t.num_intervals(), 4);
        let sizes: Vec<usize> = t.intervals().map(<[TraceRecord]>::len).collect();
        assert_eq!(sizes, vec![2, 1, 0, 1]);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new("t", vec![], 1, 100);
        assert_eq!(t.num_intervals(), 0);
        assert_eq!(t.intervals().count(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn interval_of_matches_partition() {
        let t = Trace::new("t", vec![rec(0, 0), rec(99, 1), rec(100, 2)], 1, 100);
        assert_eq!(t.interval_of(&t.records[0]), 0);
        assert_eq!(t.interval_of(&t.records[1]), 0);
        assert_eq!(t.interval_of(&t.records[2]), 1);
    }

    #[test]
    fn merge_interleaves_by_time() {
        let a = Trace::new("a", vec![rec(10, 1), rec(30, 2)], 2, 100);
        let b = Trace::new("b", vec![rec(20, 3)], 3, 100);
        let m = a.merge(&b);
        let lbns: Vec<u64> = m.records.iter().map(|r| r.lbn).collect();
        assert_eq!(lbns, vec![1, 3, 2]);
        assert_eq!(m.num_devices, 3);
    }

    #[test]
    fn slice_rebases_time() {
        let t = Trace::new("t", vec![rec(50, 0), rec(150, 1), rec(250, 2)], 1, 100);
        let s = t.slice_intervals(1, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.records[0].arrival_ns, 50);
        assert_eq!(s.records[1].arrival_ns, 150);
    }

    #[test]
    fn scale_time_compresses_and_dilates() {
        let t = Trace::new("t", vec![rec(100, 0), rec(200, 1)], 1, 100);
        let fast = t.scale_time(1, 2);
        assert_eq!(fast.records[0].arrival_ns, 50);
        assert_eq!(fast.interval_ns, 50);
        let slow = t.scale_time(3, 1);
        assert_eq!(slow.records[1].arrival_ns, 600);
    }
}
