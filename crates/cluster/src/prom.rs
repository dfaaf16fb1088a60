//! Prometheus text-format metrics endpoint.
//!
//! A background thread serves the latest rendered exposition page over
//! plain HTTP/1.1 (no HTTP dependency — the protocol subset a scraper
//! needs is a request head to discard and a `Content-Length` response).
//! The page lives behind a shared cell the driver refreshes at window
//! cadence via [`render`], so scrapes see live per-window gauges without
//! the exporter ever touching engine locks.

use crate::health::ArrayHealth;
use crate::metrics::ClusterMetrics;
use fqos_sync::{Class, Mutex};
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The shared exposition page: the driver writes, the exporter serves.
pub type MetricsPage = Arc<Mutex<String>>;

/// A per-array counter read out of one array's metrics snapshot.
type SnapshotRead = fn(&fqos_server::MetricsSnapshot) -> u64;

/// A fresh, empty [`MetricsPage`].
pub fn new_page() -> MetricsPage {
    Arc::new(Mutex::new(Class::ClusterPage, String::new()))
}

/// A bound, serving metrics endpoint. Dropping it stops the thread.
pub struct MetricsExporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    worker: Option<JoinHandle<()>>,
}

impl MetricsExporter {
    /// Bind `addr` (e.g. `127.0.0.1:9090`; port 0 picks a free port) and
    /// serve `page` to every connection from a background thread.
    pub fn bind(addr: &str, page: MetricsPage) -> Result<Self, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("metrics bind {addr}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("metrics listener: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("metrics listener: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let worker = std::thread::Builder::new()
            .name("fqos-metrics".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((mut conn, _)) => {
                            let _ = conn.set_nonblocking(false);
                            // A stalled or malicious client must not wedge
                            // the accept loop: bound both directions and
                            // cap how much request head we will consume.
                            let _ = conn.set_read_timeout(Some(Duration::from_millis(200)));
                            let _ = conn.set_write_timeout(Some(Duration::from_millis(200)));
                            drain_head(&mut conn);
                            let body = page.lock().clone();
                            let response = format!(
                                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; \
                                 version=0.0.4; charset=utf-8\r\nContent-Length: \
                                 {}\r\nConnection: close\r\n\r\n{}",
                                body.len(),
                                body
                            );
                            let _ = conn.write_all(response.as_bytes());
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            #[expect(
                                clippy::disallowed_methods,
                                reason = "the accept poll interval of a non-blocking listener"
                            )]
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
            .map_err(|e| format!("metrics thread: {e}"))?;
        Ok(MetricsExporter {
            addr: local,
            stop,
            worker: Some(worker),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Hard cap on how much request head one connection may send before
/// the exporter gives up on finding the terminator and responds anyway.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Read and discard the request head: stops at `\r\n\r\n`, EOF, the
/// per-connection read timeout, or [`MAX_HEAD_BYTES`] — whichever
/// comes first. Every path serves the same page, like most
/// single-purpose exporters, so only the head's end matters, and the
/// exporter never buffers a client-controlled amount of data.
fn drain_head(conn: &mut TcpStream) {
    let mut chunk = [0u8; 1024];
    // Carry the last 3 bytes across chunk boundaries so a terminator
    // split between reads is still seen.
    let mut window = [0u8; 3 + 1024];
    let mut total = 0usize;
    loop {
        match conn.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => {
                window[3..3 + n].copy_from_slice(&chunk[..n]);
                if window[..3 + n].windows(4).any(|w| w == b"\r\n\r\n") {
                    return;
                }
                total += n;
                if total >= MAX_HEAD_BYTES {
                    return;
                }
                window.copy_within(n..n + 3, 0);
            }
        }
    }
}

fn counter(out: &mut String, name: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
}

fn gauge(out: &mut String, name: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
}

/// Render a [`ClusterMetrics`] snapshot as a Prometheus text-format
/// exposition page, one label set per array plus cluster-level series.
pub fn render(m: &ClusterMetrics) -> String {
    let mut out = String::with_capacity(4096);
    let per_array: &[(&str, &str, SnapshotRead)] = &[
        (
            "fqos_admitted_total",
            "Requests admitted (guaranteed + overflow)",
            |s| s.admitted_total(),
        ),
        (
            "fqos_served_total",
            "Requests served by their primary dispatch",
            |s| s.served,
        ),
        (
            "fqos_hedge_wins_total",
            "Requests completed by a winning hedge",
            |s| s.hedges_won,
        ),
        (
            "fqos_rejected_total",
            "Requests refused at admission",
            |s| s.rejected,
        ),
        (
            "fqos_delayed_total",
            "Requests pushed past their arrival window",
            |s| s.delayed,
        ),
        (
            "fqos_overflow_total",
            "Statistical (epsilon) admissions",
            |s| s.overflow,
        ),
        (
            "fqos_fault_lost_total",
            "Admissions unservable with all replicas down",
            |s| s.fault_lost,
        ),
        (
            "fqos_write_settled_total",
            "Logical writes settled on every replica",
            |s| s.write_settled,
        ),
        (
            "fqos_write_lost_total",
            "Logical writes that lost a replica past retries",
            |s| s.write_lost,
        ),
        (
            "fqos_gc_host_pages_total",
            "Host pages programmed by the FTL model",
            |s| s.gc_host_pages,
        ),
        (
            "fqos_gc_pages_total",
            "GC relocation pages programmed by the FTL model",
            |s| s.gc_pages,
        ),
        (
            "fqos_gc_erases_total",
            "Blocks erased by the FTL garbage collector",
            |s| s.gc_erases,
        ),
        (
            "fqos_deadline_violations_total",
            "Served requests past their deadline",
            |s| s.deadline_violations,
        ),
        (
            "fqos_windows_sealed_total",
            "Interval windows sealed",
            |s| s.windows_sealed,
        ),
    ];
    for &(name, help, read) in per_array {
        counter(&mut out, name, help);
        for (i, s) in m.arrays.iter().enumerate() {
            let _ = writeln!(out, "{name}{{array=\"{i}\"}} {}", read(s));
        }
    }

    gauge(
        &mut out,
        "fqos_in_flight",
        "Admissions awaiting settlement this window",
    );
    for (i, s) in m.arrays.iter().enumerate() {
        let in_flight = s.ledger().in_flight();
        let _ = writeln!(out, "fqos_in_flight{{array=\"{i}\"}} {in_flight}");
    }
    gauge(
        &mut out,
        "fqos_write_amplification",
        "FTL write amplification (host + gc pages) / host pages",
    );
    for (i, s) in m.arrays.iter().enumerate() {
        let _ = writeln!(
            out,
            "fqos_write_amplification{{array=\"{i}\"}} {:.4}",
            s.write_amplification()
        );
    }
    gauge(
        &mut out,
        "fqos_p99_latency_ns",
        "Served-request latency p99 (bucket upper bound)",
    );
    for (i, s) in m.arrays.iter().enumerate() {
        let _ = writeln!(
            out,
            "fqos_p99_latency_ns{{array=\"{i}\"}} {}",
            s.p99_latency_ns
        );
    }
    counter(
        &mut out,
        "fqos_routed_total",
        "Submissions routed to the array by the cluster tier",
    );
    for (i, &r) in m.routed.iter().enumerate() {
        let _ = writeln!(out, "fqos_routed_total{{array=\"{i}\"}} {r}");
    }

    counter(
        &mut out,
        "fqos_cluster_rebalances_total",
        "Tenant migrations executed by the control loop",
    );
    let _ = writeln!(out, "fqos_cluster_rebalances_total {}", m.rebalances);
    counter(
        &mut out,
        "fqos_cluster_unrouted_total",
        "Submissions refused at the router (no assignment)",
    );
    let _ = writeln!(out, "fqos_cluster_unrouted_total {}", m.unrouted);
    gauge(
        &mut out,
        "fqos_cluster_router_epoch",
        "Current router epoch",
    );
    let _ = writeln!(out, "fqos_cluster_router_epoch {}", m.router_epoch);
    gauge(
        &mut out,
        "fqos_cluster_migrated_in_flight",
        "Unsettled admissions of drained tenants",
    );
    let _ = writeln!(
        out,
        "fqos_cluster_migrated_in_flight {}",
        m.migrated_in_flight
    );
    gauge(
        &mut out,
        "fqos_cluster_law_conserved",
        "1 while the cluster conservation law holds",
    );
    let _ = writeln!(
        out,
        "fqos_cluster_law_conserved {}",
        u64::from(m.conserved())
    );

    // Failure plane: per-array health verdicts plus the evacuation ledger.
    gauge(
        &mut out,
        "fqos_array_health",
        "Health verdict (0=healthy 1=suspect 2=slow 3=dead)",
    );
    for (i, h) in m.health.iter().enumerate() {
        let code = match h {
            ArrayHealth::Healthy => 0,
            ArrayHealth::Suspect => 1,
            ArrayHealth::Slow => 2,
            ArrayHealth::Dead => 3,
        };
        let _ = writeln!(out, "fqos_array_health{{array=\"{i}\"}} {code}");
    }
    gauge(
        &mut out,
        "fqos_cluster_arrays_dead",
        "Arrays currently dead (frozen slots)",
    );
    let dead = m.frozen.iter().filter(|&&f| f).count();
    let _ = writeln!(out, "fqos_cluster_arrays_dead {dead}");
    gauge(
        &mut out,
        "fqos_cluster_evacuation_lost",
        "Unsettled admissions charged to dead arrays (reversed on WAL restore)",
    );
    let _ = writeln!(out, "fqos_cluster_evacuation_lost {}", m.evacuation_lost);
    counter(
        &mut out,
        "fqos_cluster_evacuated_tenants_total",
        "Tenants re-registered on survivors by emergency evacuation",
    );
    let _ = writeln!(
        out,
        "fqos_cluster_evacuated_tenants_total {}",
        m.evacuated_tenants
    );
    counter(
        &mut out,
        "fqos_cluster_refused_unavailable_total",
        "Submissions refused because the routed array was unavailable",
    );
    let _ = writeln!(
        out,
        "fqos_cluster_refused_unavailable_total {}",
        m.refused_unavailable
    );
    counter(
        &mut out,
        "fqos_cluster_health_suspects_total",
        "Healthy-to-suspect promotions observed by the health plane",
    );
    let _ = writeln!(
        out,
        "fqos_cluster_health_suspects_total {}",
        m.health_suspects
    );
    counter(
        &mut out,
        "fqos_cluster_dead_verdicts_total",
        "Suspect-to-dead promotions (each triggers an evacuation)",
    );
    let _ = writeln!(
        out,
        "fqos_cluster_dead_verdicts_total {}",
        m.health_verdicts_dead
    );
    counter(
        &mut out,
        "fqos_cluster_slow_verdicts_total",
        "Suspect-to-slow promotions (fail-slow detection)",
    );
    let _ = writeln!(
        out,
        "fqos_cluster_slow_verdicts_total {}",
        m.health_verdicts_slow
    );
    counter(
        &mut out,
        "fqos_cluster_health_recoveries_total",
        "Suspect/slow arrays demoted back to healthy",
    );
    let _ = writeln!(
        out,
        "fqos_cluster_health_recoveries_total {}",
        m.health_recoveries
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    #[test]
    fn serves_the_current_page_over_http() {
        let page = new_page();
        *page.lock() = "fqos_cluster_rebalances_total 3\n".to_string();
        let exporter = MetricsExporter::bind("127.0.0.1:0", Arc::clone(&page)).unwrap();
        let mut conn = TcpStream::connect(exporter.local_addr()).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("text/plain"), "{response}");
        assert!(
            response.contains("fqos_cluster_rebalances_total 3"),
            "{response}"
        );
        // A refreshed page is served to the next scrape.
        *page.lock() = "fqos_cluster_rebalances_total 4\n".to_string();
        let mut conn = TcpStream::connect(exporter.local_addr()).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(
            response.contains("fqos_cluster_rebalances_total 4"),
            "{response}"
        );
    }

    #[test]
    fn a_stalled_client_cannot_wedge_the_exporter() {
        let page = new_page();
        *page.lock() = "fqos_cluster_unrouted_total 0\n".to_string();
        let exporter = MetricsExporter::bind("127.0.0.1:0", Arc::clone(&page)).unwrap();
        // A client that connects and never sends a byte: the read timeout
        // must fire and the loop must move on to the next connection.
        let stalled = TcpStream::connect(exporter.local_addr()).unwrap();
        // A well-behaved scrape right behind it still gets the page.
        let mut conn = TcpStream::connect(exporter.local_addr()).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(
            response.contains("fqos_cluster_unrouted_total 0"),
            "{response}"
        );
        // The stalled connection is answered (after the timeout) rather
        // than held open forever: reading to EOF terminates.
        let mut stalled = stalled;
        let _ = stalled.set_read_timeout(Some(Duration::from_secs(5)));
        let mut leftovers = String::new();
        let _ = stalled.read_to_string(&mut leftovers);
        assert!(leftovers.contains("HTTP/1.1 200 OK"), "{leftovers}");
    }

    #[test]
    fn an_oversized_request_head_is_truncated_not_buffered() {
        let page = new_page();
        *page.lock() = "fqos_cluster_router_epoch 7\n".to_string();
        let exporter = MetricsExporter::bind("127.0.0.1:0", Arc::clone(&page)).unwrap();
        let mut conn = TcpStream::connect(exporter.local_addr()).unwrap();
        // A cap-sized junk head with no terminator: the exporter stops
        // draining at MAX_HEAD_BYTES and responds anyway instead of
        // buffering a client-controlled amount of data.
        let junk = vec![b'A'; MAX_HEAD_BYTES];
        let _ = conn.write_all(&junk);
        let mut response = String::new();
        let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = conn.read_to_string(&mut response);
        assert!(
            response.contains("fqos_cluster_router_epoch 7"),
            "{response}"
        );
    }
}
