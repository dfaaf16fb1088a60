//! DiskSim-style ASCII trace format.
//!
//! The paper feeds DiskSim its default ASCII input: one request per line,
//! five whitespace-separated fields —
//!
//! ```text
//! <arrival-time-ms> <device-number> <block-number> <request-size-blocks> <flags>
//! ```
//!
//! with flag bit `0x1` marking a read. Request size is in 512-byte sectors
//! in stock DiskSim; like the paper we align everything to 8 KiB blocks, so
//! here the size field counts 8 KiB blocks.

use crate::record::{Trace, TraceRecord};
use fqos_flashsim::{time, IoOp, BLOCK_SIZE_BYTES};
use std::fmt::Write as _;

/// Error from parsing an ASCII trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse an ASCII trace. Lines that are empty or start with `#` are skipped.
pub fn parse(
    input: &str,
    name: impl Into<String>,
    num_devices: usize,
    interval_ns: u64,
) -> Result<Trace, ParseError> {
    let mut records = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 5 {
            return Err(ParseError {
                line: line_no,
                message: format!("expected 5 fields, found {}", fields.len()),
            });
        }
        let arrival_ms: f64 = fields[0].parse().map_err(|e| ParseError {
            line: line_no,
            message: format!("arrival: {e}"),
        })?;
        let device: u16 = fields[1].parse().map_err(|e| ParseError {
            line: line_no,
            message: format!("device: {e}"),
        })?;
        let lbn: u64 = fields[2].parse().map_err(|e| ParseError {
            line: line_no,
            message: format!("block: {e}"),
        })?;
        let blocks: u32 = fields[3].parse().map_err(|e| ParseError {
            line: line_no,
            message: format!("size: {e}"),
        })?;
        let flags: u32 = fields[4].parse().map_err(|e| ParseError {
            line: line_no,
            message: format!("flags: {e}"),
        })?;
        if arrival_ms < 0.0 {
            return Err(ParseError {
                line: line_no,
                message: "negative arrival time".into(),
            });
        }
        records.push(TraceRecord {
            arrival_ns: time::ms_to_ns(arrival_ms),
            device,
            lbn,
            size_bytes: blocks.max(1) * BLOCK_SIZE_BYTES,
            op: if flags & 1 == 1 {
                IoOp::Read
            } else {
                IoOp::Write
            },
        });
    }
    Ok(Trace::new(name, records, num_devices, interval_ns))
}

/// Emit a trace in the ASCII format accepted by [`parse`].
pub fn emit(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.records.len() * 32);
    let _ = writeln!(
        out,
        "# trace: {} ({} records)",
        trace.name,
        trace.records.len()
    );
    for r in &trace.records {
        let flags = if r.op == IoOp::Read { 1 } else { 0 };
        let _ = writeln!(
            out,
            "{:.6} {} {} {} {}",
            time::ns_to_ms(r.arrival_ns),
            r.device,
            r.lbn,
            r.size_bytes.div_ceil(BLOCK_SIZE_BYTES),
            flags
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_trace() {
        let input = "# comment\n0.0 0 100 1 1\n0.133 2 200 2 0\n\n";
        let t = parse(input, "t", 3, 133_000).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records[0].lbn, 100);
        assert_eq!(t.records[0].op, IoOp::Read);
        assert_eq!(t.records[1].op, IoOp::Write);
        assert_eq!(t.records[1].size_bytes, 2 * BLOCK_SIZE_BYTES);
        assert_eq!(t.records[1].arrival_ns, 133_000);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("0.0 0 1", "t", 1, 100).is_err());
        assert!(parse("x 0 1 1 1", "t", 1, 100).is_err());
        assert!(parse("-1.0 0 1 1 1", "t", 1, 100).is_err());
        let err = parse("0.0 0 1 1 1\nbroken line here", "t", 1, 100).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn a_device_that_does_not_fit_is_an_error_on_its_line() {
        let err = parse("0.0 8 1 1 1\n0.1 70000 1 1 1\n", "t", 9, 100).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.starts_with("device: "), "{}", err.message);
        assert_eq!(
            parse("0.0 65535 1 1 1", "t", 9, 100).unwrap().records[0].device,
            65_535
        );
    }

    #[test]
    fn roundtrip() {
        let input = "0.000000 0 100 1 1\n0.133000 2 200 2 0\n";
        let t = parse(input, "t", 3, 133_000).unwrap();
        let emitted = emit(&t);
        let t2 = parse(&emitted, "t", 3, 133_000).unwrap();
        assert_eq!(t.records, t2.records);
    }
}
