//! Offline stand-in for a minimal HTTP crate: a hand-rolled HTTP/1.1
//! server with a thread-pool acceptor, plus a small blocking client —
//! all over `std::net` TCP (the build image has no tokio and no
//! registry access).
//!
//! Server model: one acceptor thread pushes accepted connections onto a
//! channel drained by `threads` worker threads. Each worker serves a
//! connection's requests in a keep-alive loop, calling one shared
//! `Fn(&Request) -> Response` handler. Blocking I/O with short read
//! timeouts keeps workers responsive to [`Server::shutdown`], which
//! stops the acceptor, drains the pool, and joins every thread — no
//! leaked threads on exit.
//!
//! Supported surface (exactly what the serving layer needs): request
//! line + headers + `Content-Length` bodies, percent-decoded query
//! strings, `Expect: 100-continue`, keep-alive and `Connection: close`.
//! Keep-alive connections idle for ~10 s are closed so a handful of
//! silent clients cannot pin the whole worker pool. Not supported:
//! chunked transfer encoding (rejected with 411), TLS, and HTTP/2.

pub mod client;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Request line + headers may not exceed this.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Bodies may not exceed this.
const MAX_BODY_BYTES: usize = 32 * 1024 * 1024;
/// Idle-poll granularity: how quickly a parked worker notices shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(200);
/// An in-flight request must complete within this many read timeouts.
const MAX_STALLED_READS: u32 = 150; // 30 s
/// A keep-alive connection with no next request for this many idle
/// polls is closed. Workers come from a fixed pool, so without this cap
/// a handful of idle (or slowloris) connections would pin every worker
/// and starve new clients.
const MAX_IDLE_POLLS: u32 = 50; // 10 s

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Decoded path without the query string, e.g. `/quantile`.
    pub path: String,
    /// Percent-decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// An HTTP response to be written back to the client.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (e.g. `Retry-After`), written verbatim
    /// after the standard ones.
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `application/json` response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// Attach an extra response header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    fn write_to(&self, stream: &mut TcpStream, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Canonical reason phrase for the status codes this workspace emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// A running HTTP server: acceptor thread + worker pool.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
    /// requests on `threads` pool workers with the given handler, with
    /// an unbounded admission queue.
    ///
    /// The handler runs on worker threads; a panicking handler is caught
    /// and answered with a 500, and the worker keeps serving.
    pub fn bind<H>(addr: &str, threads: usize, handler: H) -> std::io::Result<Server>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        Self::bind_with_queue(addr, threads, 0, 1, handler)
    }

    /// Like [`Self::bind`], but with a *bounded* admission queue of
    /// `queue_cap` waiting connections (0 = unbounded).
    ///
    /// When every pool worker is busy and the queue is full, the
    /// acceptor sheds the connection immediately: it answers
    /// `429 Too Many Requests` with a `Retry-After: {retry_after_secs}`
    /// header and closes, rather than letting the backlog (and every
    /// client's latency) grow without bound. Shedding happens on the
    /// acceptor thread with a short write timeout, so a slow client
    /// cannot stall admission for everyone else.
    pub fn bind_with_queue<H>(
        addr: &str,
        threads: usize,
        queue_cap: usize,
        retry_after_secs: u64,
        handler: H,
    ) -> std::io::Result<Server>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handler: Arc<dyn Fn(&Request) -> Response + Send + Sync> = Arc::new(handler);
        let (conn_tx, conn_rx) = if queue_cap == 0 {
            crossbeam::channel::unbounded::<TcpStream>()
        } else {
            crossbeam::channel::bounded::<TcpStream>(queue_cap)
        };
        let workers = (0..threads.max(1))
            .map(|i| {
                let rx = conn_rx.clone();
                let handler = Arc::clone(&handler);
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("http-worker-{i}"))
                    .spawn(move || {
                        while let Ok(stream) = rx.recv() {
                            serve_connection(stream, &handler, &stop);
                        }
                    })
                    .expect("spawn http worker")
            })
            .collect();
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("http-acceptor".to_string())
                .spawn(move || {
                    // conn_tx moves in here; dropping it on exit
                    // disconnects the pool, so workers drain and stop.
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        match conn_tx.try_send(stream) {
                            Ok(()) => {}
                            Err(crossbeam::channel::TrySendError::Full(stream)) => {
                                shed_connection(stream, retry_after_secs);
                            }
                            Err(crossbeam::channel::TrySendError::Disconnected(_)) => break,
                        }
                    }
                })
                .expect("spawn http acceptor")
        };
        Ok(Server {
            local_addr,
            stop,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, finish in-flight requests, and join every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor parked in accept(2).
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

enum ReadOutcome {
    Request(Request),
    /// Connection idle (no bytes of a next request yet) at timeout.
    Idle,
    /// Peer closed, or the request was unrecoverably malformed.
    Close,
    /// Malformed input that deserves an error response before closing.
    Bad(u16, &'static str),
}

fn serve_connection(
    mut stream: TcpStream,
    handler: &Arc<dyn Fn(&Request) -> Response + Send + Sync>,
    stop: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    // Bytes read past the previous request (pipelining / keep-alive).
    let mut leftover: Vec<u8> = Vec::new();
    let mut idle_polls = 0u32;
    loop {
        match read_request(&mut stream, &mut leftover, stop) {
            ReadOutcome::Request(request) => {
                idle_polls = 0;
                let keep_alive = wants_keep_alive(&request) && !stop.load(Ordering::SeqCst);
                let response = std::panic::catch_unwind(AssertUnwindSafe(|| handler(&request)))
                    .unwrap_or_else(|_| {
                        Response::json(500, "{\"error\":\"handler panicked\"}".to_string())
                    });
                if response.write_to(&mut stream, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            ReadOutcome::Idle => {
                idle_polls += 1;
                if idle_polls > MAX_IDLE_POLLS || stop.load(Ordering::SeqCst) {
                    // Idle keep-alive deadline: free the worker for
                    // queued connections.
                    return;
                }
            }
            ReadOutcome::Close => return,
            ReadOutcome::Bad(status, message) => {
                let body = format!("{{\"error\":{:?}}}", message);
                let _ = Response::json(status, body).write_to(&mut stream, false);
                return;
            }
        }
    }
}

/// Load-shed one connection: best-effort `429` + `Retry-After`, then
/// close. Runs on the acceptor thread — the short write timeout bounds
/// how long a slow (or hostile) client can hold admission hostage.
fn shed_connection(mut stream: TcpStream, retry_after_secs: u64) {
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    let body = format!("{{\"error\":\"server overloaded\",\"retry_after\":{retry_after_secs}}}");
    let head = format!(
        "HTTP/1.1 429 {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         Retry-After: {retry_after_secs}\r\nConnection: close\r\n\r\n",
        reason(429),
        body.len(),
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .and_then(|()| stream.flush());
}

fn wants_keep_alive(request: &Request) -> bool {
    match request.header("connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        // HTTP/1.1 default is keep-alive; this server never speaks 1.0
        // semantics beyond honoring an explicit header.
        _ => true,
    }
}

/// Read one request: head until `\r\n\r\n`, then a `Content-Length`
/// body. `buf` carries bytes already read past the previous request.
fn read_request(stream: &mut TcpStream, buf: &mut Vec<u8>, stop: &AtomicBool) -> ReadOutcome {
    let mut chunk = [0u8; 8192];
    let mut stalled_reads = 0u32;
    let head_end = loop {
        if let Some(end) = find_head_end(buf) {
            break end;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return ReadOutcome::Bad(400, "request head too large");
        }
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Close,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                if buf.is_empty() {
                    return ReadOutcome::Idle;
                }
                stalled_reads += 1;
                if stalled_reads > MAX_STALLED_READS || stop.load(Ordering::SeqCst) {
                    return ReadOutcome::Bad(408, "timed out reading request head");
                }
            }
            Err(_) => return ReadOutcome::Close,
        }
    };
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(head) => head.to_string(),
        Err(_) => return ReadOutcome::Bad(400, "request head is not UTF-8"),
    };
    let body_start = head_end + 4;
    let mut request = match parse_head(&head) {
        Ok(request) => request,
        Err((status, message)) => return ReadOutcome::Bad(status, message),
    };
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return ReadOutcome::Bad(411, "chunked transfer encoding is not supported");
    }
    let content_length = match request.header("content-length") {
        None => 0usize,
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) => n,
            Err(_) => return ReadOutcome::Bad(400, "invalid Content-Length"),
        },
    };
    if content_length > MAX_BODY_BYTES {
        return ReadOutcome::Bad(413, "body exceeds the 32 MiB limit");
    }
    if content_length > 0
        && request
            .header("expect")
            .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
        && stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n").is_err()
    {
        return ReadOutcome::Close;
    }
    while buf.len() < body_start + content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Close,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                stalled_reads += 1;
                if stalled_reads > MAX_STALLED_READS || stop.load(Ordering::SeqCst) {
                    return ReadOutcome::Bad(408, "timed out reading request body");
                }
            }
            Err(_) => return ReadOutcome::Close,
        }
    }
    request.body = buf[body_start..body_start + content_length].to_vec();
    // Keep any pipelined bytes for the next request on this connection.
    buf.drain(..body_start + content_length);
    ReadOutcome::Request(request)
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &str) -> Result<Request, (u16, &'static str)> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or((400, "empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or((400, "missing method"))?.to_string();
    let target = parts.next().ok_or((400, "missing request target"))?;
    let version = parts.next().ok_or((400, "missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err((400, "unsupported HTTP version"));
    }
    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(path_raw, false).ok_or((400, "malformed path encoding"))?;
    let mut query = Vec::new();
    if let Some(query_raw) = query_raw {
        for pair in query_raw.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k, true).ok_or((400, "malformed query encoding"))?;
            let v = percent_decode(v, true).ok_or((400, "malformed query encoding"))?;
            query.push((k, v));
        }
    }
    let mut headers = Vec::new();
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line.split_once(':').ok_or((400, "malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    })
}

/// Decode `%XX` sequences (and `+` as space inside query strings).
/// Returns `None` on truncated/invalid escapes or invalid UTF-8.
pub fn percent_decode(s: &str, plus_is_space: bool) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex_digit(*bytes.get(i + 1)?)?;
                let lo = hex_digit(*bytes.get(i + 2)?)?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> Server {
        Server::bind("127.0.0.1:0", 2, |req: &Request| {
            if req.path == "/panic" {
                panic!("boom");
            }
            let body = format!(
                "{} {} q={:?} body={}",
                req.method,
                req.path,
                req.query,
                req.body_str().unwrap_or("<binary>"),
            );
            Response::text(200, &body)
        })
        .unwrap()
    }

    #[test]
    fn get_and_post_round_trip() {
        let server = echo_server();
        let addr = server.local_addr();
        let (status, body) = client::get(addr, "/hello?a=1&b=two%20words&c=x+y").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("GET /hello"), "{body}");
        assert!(body.contains(r#"("a", "1")"#), "{body}");
        assert!(body.contains(r#"("b", "two words")"#), "{body}");
        assert!(body.contains(r#"("c", "x y")"#), "{body}");
        let (status, body) = client::post(addr, "/ingest", "{\"rows\":3}").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("POST /ingest"), "{body}");
        assert!(body.contains("body={\"rows\":3}"), "{body}");
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = echo_server();
        let mut conn = client::Conn::connect(server.local_addr()).unwrap();
        for i in 0..20 {
            let (status, body) = conn.get(&format!("/r{i}")).unwrap();
            assert_eq!(status, 200);
            assert!(body.contains(&format!("/r{i}")), "{body}");
        }
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = echo_server();
        let addr = server.local_addr();
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for i in 0..10 {
                        let (status, _) = client::get(addr, &format!("/t{t}/{i}")).unwrap();
                        assert_eq!(status, 200);
                    }
                });
            }
        });
    }

    #[test]
    fn handler_panics_answer_500_and_pool_survives() {
        let server = echo_server();
        let addr = server.local_addr();
        let (status, _) = client::get(addr, "/panic").unwrap();
        assert_eq!(status, 500);
        let (status, _) = client::get(addr, "/after").unwrap();
        assert_eq!(status, 200);
    }

    #[test]
    fn malformed_requests_get_400_not_a_hang() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    }

    #[test]
    fn shutdown_joins_all_threads() {
        let mut server = echo_server();
        let addr = server.local_addr();
        // Park one idle keep-alive connection to prove workers still exit.
        let conn = client::Conn::connect(addr).unwrap();
        server.shutdown();
        server.shutdown(); // idempotent
        drop(conn);
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept briefly on a dead listener's backlog;
                // what matters is that no thread remains to answer.
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_millis(300)))
                    .unwrap();
                let _ = s.write_all(b"GET / HTTP/1.1\r\n\r\n");
                let mut out = Vec::new();
                s.read_to_end(&mut out).unwrap_or(0) == 0
            }
        );
    }

    #[test]
    fn extra_headers_reach_the_client() {
        let server = Server::bind("127.0.0.1:0", 1, |_req: &Request| {
            Response::json(503, "{\"error\":\"warming up\"}".to_string())
                .with_header("Retry-After", "3")
        })
        .unwrap();
        let (status, headers, _body) = client::get_full(server.local_addr(), "/x").unwrap();
        assert_eq!(status, 503);
        let retry = headers.iter().find(|(k, _)| k == "retry-after");
        assert_eq!(retry.map(|(_, v)| v.as_str()), Some("3"));
    }

    #[test]
    fn full_admission_queue_sheds_with_429_and_retry_after() {
        // One worker, one queue slot: pin the worker on a slow request,
        // park a second connection in the queue, and the third must be
        // shed at accept time with 429 + Retry-After.
        let server = Server::bind_with_queue("127.0.0.1:0", 1, 1, 7, |req: &Request| {
            if req.path == "/slow" {
                std::thread::sleep(Duration::from_millis(800));
            }
            Response::text(200, "ok")
        })
        .unwrap();
        let addr = server.local_addr();
        let mut pin = client::Conn::connect(addr).unwrap();
        let pinner = std::thread::spawn(move || pin.get("/slow"));
        // Let the worker dequeue the pinned connection, then fill the
        // one queue slot with an idle connection.
        std::thread::sleep(Duration::from_millis(200));
        let _queued = client::Conn::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let (status, headers, body) = client::get_full(addr, "/shed-me").unwrap();
        assert_eq!(status, 429, "{body}");
        let retry = headers.iter().find(|(k, _)| k == "retry-after");
        assert_eq!(retry.map(|(_, v)| v.as_str()), Some("7"));
        assert!(body.contains("overloaded"), "{body}");
        // The pinned request still completes: shedding affected only
        // the overflow connection.
        let (status, _) = pinner.join().unwrap().unwrap();
        assert_eq!(status, 200);
    }

    #[test]
    fn percent_decoding_rejects_truncated_escapes() {
        assert_eq!(percent_decode("a%2", false), None);
        assert_eq!(percent_decode("a%zz", false), None);
        assert_eq!(percent_decode("a%20b", false), Some("a b".to_string()));
        assert_eq!(percent_decode("a+b", false), Some("a+b".to_string()));
        assert_eq!(percent_decode("a+b", true), Some("a b".to_string()));
    }
}
