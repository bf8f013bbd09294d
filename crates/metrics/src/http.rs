//! The JSON-over-HTTP endpoint: a std-only HTTP/1.0 responder.
//!
//! One accept thread serves every request inline — requests are a few
//! bytes and responses one snapshot, so there is no per-connection thread
//! churn and nothing to backpressure. The server is deliberately minimal:
//! any `GET` gets the snapshot, anything else a 405; malformed or slow
//! clients are cut off by short socket timeouts so a stuck scraper can
//! never wedge the endpoint.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::registry::MetricsRegistry;

/// Accept-loop poll interval (shutdown latency bound).
const POLL: Duration = Duration::from_millis(25);
/// Per-connection read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_millis(500);
/// Upper bound on the request head we read before answering.
const MAX_REQUEST: usize = 4096;

/// A running metrics endpoint. Dropping the handle (or calling
/// [`MetricsServer::shutdown`]) stops the thread.
#[derive(Debug)]
pub struct MetricsServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (port 0 picks an ephemeral port — read the result
    /// back via [`MetricsServer::local_addr`]) and serves
    /// `registry.snapshot_json()` to every HTTP `GET`.
    ///
    /// The server counts its own traffic into the registry: the
    /// `metrics_http_requests` counter increments per answered request —
    /// a liveness signal that is itself part of the exported field set.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind error.
    pub fn serve(registry: Arc<MetricsRegistry>, addr: SocketAddr) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let requests = registry.counter("metrics_http_requests");
        let thread = {
            let shutdown = shutdown.clone();
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if answer(stream, &registry).is_ok() {
                                requests.inc();
                            }
                        }
                        Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL);
                        }
                        Err(_) => std::thread::sleep(POLL),
                    }
                }
            })
        };
        Ok(MetricsServer {
            local_addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the server thread and waits for it.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The thread observes the flag within one poll interval;
        // detaching on drop is acceptable (shutdown() joins).
    }
}

/// Reads the request head and writes one HTTP/1.0 response.
fn answer(mut stream: TcpStream, registry: &MetricsRegistry) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    // Read until the blank line ending the request head (HTTP/1.0 GETs
    // have no body) or the size cap.
    loop {
        let read = stream.read(&mut buf)?;
        if read == 0 {
            break;
        }
        head.extend_from_slice(&buf[..read]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head);
    let (status, body) = if request.starts_with("GET ") {
        ("200 OK", registry.snapshot_json())
    } else {
        ("405 Method Not Allowed", String::from("{}"))
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Scrapes a metrics endpoint: one blocking `GET /metrics`, returning the
/// response body (the snapshot JSON). The client half of
/// [`MetricsServer`], shared by this crate's and the transport's tests.
///
/// # Errors
///
/// Connect/IO errors, or [`io::ErrorKind::InvalidData`] when the response
/// is not a 200 with a body.
pub fn scrape(addr: SocketAddr) -> io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let invalid = |reason: &str| io::Error::new(io::ErrorKind::InvalidData, reason.to_owned());
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| invalid("no header/body separator"))?;
    if !head.starts_with("HTTP/1.0 200") {
        return Err(invalid(&format!("non-200 response: {head}")));
    }
    Ok(body.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ephemeral() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    #[test]
    fn serves_snapshot_over_http() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.set_counter("gossip_blocks_validated", 42);
        let server = MetricsServer::serve(registry.clone(), ephemeral()).unwrap();
        let body = scrape(server.local_addr()).expect("scrape succeeds");
        let schema = format!("\"schema_version\":{}", crate::SCHEMA_VERSION);
        assert!(body.contains(&schema), "{body}");
        assert!(body.contains("\"gossip_blocks_validated\":42"), "{body}");
        // The endpoint counts its own requests; a second scrape sees the
        // first one recorded.
        let body = scrape(server.local_addr()).expect("second scrape");
        assert!(body.contains("\"metrics_http_requests\":1"), "{body}");
        server.shutdown();
    }

    #[test]
    fn live_updates_are_visible_between_scrapes() {
        let registry = Arc::new(MetricsRegistry::new());
        let counter = registry.counter("blocks");
        let server = MetricsServer::serve(registry, ephemeral()).unwrap();
        counter.set(1);
        assert!(scrape(server.local_addr())
            .unwrap()
            .contains("\"blocks\":1"));
        counter.set(2);
        assert!(scrape(server.local_addr())
            .unwrap()
            .contains("\"blocks\":2"));
        server.shutdown();
    }

    #[test]
    fn non_get_is_rejected() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = MetricsServer::serve(registry, ephemeral()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 405"), "{response}");
        server.shutdown();
    }
}
