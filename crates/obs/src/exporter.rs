//! The embeddable metrics exporter: one background thread, plain HTTP
//! over a `std::net::TcpListener` — no external dependencies.
//!
//! Two endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition format 0.0.4
//! * `GET /metrics.json` — the same registry (plus the event ring) as JSON
//!
//! Requests are answered sequentially on the exporter thread; a scrape is
//! a few kilobytes, and per-connection read/write timeouts keep a stalled
//! client from wedging the exporter.  Dropping the handle (or calling
//! [`MetricsExporter::shutdown`]) stops the thread.

use crate::registry::Telemetry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection socket timeout: a scrape either completes quickly or is
/// abandoned.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

/// Upper bound on an accepted request head; anything longer is rejected.
const MAX_REQUEST_BYTES: usize = 4096;

/// A running metrics endpoint serving a [`Telemetry`] registry.
#[derive(Debug)]
pub struct MetricsExporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsExporter {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `telemetry` on a background thread.
    pub fn serve<A: ToSocketAddrs>(addr: A, telemetry: Telemetry) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("mswj-metrics".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Errors on one connection (timeout, disconnect) never
                    // take the exporter down.
                    let _ = handle_connection(stream, &telemetry);
                }
            })?;
        Ok(MetricsExporter {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the exporter thread and waits for it to exit.
    pub(crate) fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, CLIENT_TIMEOUT);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(mut stream: TcpStream, telemetry: &Telemetry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 512];
    // Read until the end of the request head (we ignore any body).
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                telemetry.render_prometheus(),
            ),
            "/metrics.json" => (
                "200 OK",
                "application/json; charset=utf-8",
                telemetry.render_json(),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "try /metrics or /metrics.json\n".to_string(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").expect("full response");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_prometheus_and_json_and_404() {
        let telemetry = Telemetry::new();
        telemetry.session().k_ms.set(321.0);
        let mut exporter = MetricsExporter::serve("127.0.0.1:0", telemetry.clone()).expect("bind");
        let addr = exporter.local_addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("mswj_k_ms 321"));
        crate::check_prometheus_text(&body).expect("scrape must lint clean");

        let (head, body) = http_get(addr, "/metrics.json");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.contains("\"mswj_k_ms\":321"));

        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        exporter.shutdown();
        // After shutdown the port stops answering (connect may succeed
        // briefly on some stacks, but a second shutdown must be a no-op).
        exporter.shutdown();
    }
}
