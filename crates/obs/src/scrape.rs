//! Prometheus text-exposition rendering of the registry, served over a
//! plain TCP listener (`--metrics-addr` on `fda_node`). One background
//! thread, nonblocking accept loop, one response per connection — enough
//! for a scraper, with zero dependencies.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::{bucket_upper_bound, MetricSnapshot, HIST_BUCKETS};

/// Render every registered metric in Prometheus text exposition format
/// (version 0.0.4). Histogram buckets are emitted cumulatively with
/// power-of-two `le` bounds.
pub(crate) fn render_prometheus() -> String {
    let mut out = String::new();
    for m in crate::registry().snapshot() {
        match m {
            MetricSnapshot::Counter { name, value } => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
            }
            MetricSnapshot::Gauge { name, value } => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
            }
            MetricSnapshot::Histogram {
                name,
                buckets,
                sum,
                count,
            } => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let mut cumulative = 0u64;
                for (i, c) in buckets.iter().enumerate() {
                    cumulative += c;
                    // Skip interior empty buckets to keep scrapes small;
                    // always emit the first and last for shape.
                    if *c == 0 && i != 0 && i != HIST_BUCKETS - 1 {
                        continue;
                    }
                    let le = if i == HIST_BUCKETS - 1 {
                        "+Inf".to_string()
                    } else {
                        bucket_upper_bound(i).to_string()
                    };
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
                out.push_str(&format!("{name}_sum {sum}\n{name}_count {count}\n"));
            }
        }
    }
    out
}

/// Background scrape endpoint. Binds immediately; serves until dropped.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving scrapes on a background thread.
    pub fn bind(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("fda-obs-scrape".into())
            .spawn(move || serve(listener, stop_flag))
            .expect("spawn scrape thread");
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve(listener: TcpListener, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut conn, _)) => {
                let _ = conn.set_read_timeout(Some(Duration::from_millis(500)));
                let _ = conn.set_write_timeout(Some(Duration::from_millis(500)));
                // Drain whatever request line arrives; respond regardless
                // of path so `curl addr` and Prometheus both work.
                let mut buf = [0u8; 1024];
                let _ = conn.read(&mut buf);
                let body = render_prometheus();
                let response = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
                let _ = conn.write_all(response.as_bytes());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}
