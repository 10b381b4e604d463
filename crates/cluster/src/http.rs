//! The workspace's one dependency-free HTTP/1.1 server, and the client
//! the cluster workers use.
//!
//! `regcluster serve` and the cluster coordinator both run a handler
//! `Fn(&Request) -> Response` on [`HttpServer`]; an [`HttpConfig`]
//! carries the few values they set differently. Every connection is one
//! request/response exchange (`Connection: close`), so a worker never
//! has to reason about a half-dead keep-alive socket across coordinator
//! restarts.
//!
//! # Threads and shedding
//!
//! One acceptor feeds a fixed pool over a bounded queue; a pool rather
//! than a thread per connection, which raised `serve-mixed`'s median
//! latency by 25–36 % (`EXPERIMENTS.md`). With the pool busy and the
//! queue full, the acceptor answers `503` + `Retry-After: 1` before
//! reading anything, so a client that sends nothing is shed at once;
//! clients feed the hint into their [`Backoff`](crate::Backoff). Shed
//! and rejected connections are half-closed and drained by one drain
//! thread, so a client half-way through an upload body reads the answer
//! instead of a reset. [`HttpServer::shutdown`] lets the pool answer
//! every queued connection, then joins every thread.
//!
//! # Limits
//!
//! The request line plus headers may take 8 KiB (`431`), a body
//! [`HttpConfig::max_body`] (`413`), and a client silent for
//! [`HttpConfig::io_timeout`] is answered `408`. The server's own errors
//! carry a JSON body `{"error":"<message>"}`.
//!
//! # Fault injection
//!
//! The client consults `cluster::http_request` before sending; the
//! server consults [`HttpConfig::response_site`] before answering, then
//! the response's own [`Response::fault_site`] (the coordinator's upload
//! acknowledgment names `cluster::upload_response`). A `drop` closes the
//! connection unanswered; a `garble` sends a truncated, corrupted
//! payload — the peer sees an I/O error and retries.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use regcluster_failpoint::NetFault;
use regcluster_obs::Counter;

/// Largest message head (first line plus headers) either end buffers.
const MAX_HEAD: usize = 8 << 10;

/// Largest control-plane request body (a shard upload), 256 MiB; also
/// the largest response body the client reads.
const MAX_BODY: usize = 256 << 20;

/// Control-plane per-socket read/write timeout, so a hung peer cannot
/// wedge a connection forever.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Control-plane pool threads and queue slots: together the 64
/// connections past which a handful of heartbeating workers is a storm
/// worth pushing back on. Four threads, not more: each thread that
/// handles an upload keeps a glibc arena of freed shard memory, and 8
/// raised `cluster-2w` peak RSS by ~9 % (`EXPERIMENTS.md`).
const CONTROL_THREADS: usize = 4;
const CONTROL_QUEUE: usize = 60;

/// Answered connections waiting for the drain thread; past it they close
/// at once.
const DRAIN_QUEUE: usize = 64;

/// `Retry-After` seconds sent with a shed 503.
const SHED_RETRY_AFTER_SECS: u64 = 1;

/// One parsed inbound request.
#[derive(Debug)]
pub struct Request {
    /// `GET` or `POST` (anything else is rejected with 405).
    pub method: String,
    /// Request target, e.g. `/lease/acquire` or `/clusters?gene=g1`.
    pub path: String,
    /// Raw body bytes (empty for GET).
    pub body: Vec<u8>,
}

/// One outbound response.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// When set, a `Retry-After: <secs>` header telling the client how
    /// long to back off (shed 503s set this).
    pub retry_after: Option<u64>,
    /// A failpoint site evaluated for this response once the server's
    /// [`HttpConfig::response_site`] passes.
    pub fault_site: Option<&'static str>,
}

impl Response {
    /// A JSON response from an already-encoded document.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
            fault_site: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            content_type: "text/plain; charset=utf-8",
            ..Response::json(status, body.into())
        }
    }

    /// A `200` Prometheus text-exposition (0.0.4) page.
    pub fn prometheus(page: String) -> Self {
        Response {
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            ..Response::json(200, page)
        }
    }

    /// A JSON error document, `{"error":"<message>"}`.
    pub fn error(status: u16, message: &str) -> Self {
        let message = serde_json::to_string(message).unwrap_or_else(|_| "\"internal\"".into());
        Response::json(status, format!("{{\"error\":{message}}}"))
    }

    /// A shed response: `503` carrying `Retry-After: retry_after_secs`.
    pub fn unavailable(retry_after_secs: u64) -> Self {
        Response {
            retry_after: Some(retry_after_secs),
            ..Response::error(503, "server overloaded; retry shortly")
        }
    }
}

/// One parsed client-side response: what [`http_request`] returns.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Parsed `Retry-After` header, when the server sent one — feed it
    /// to [`Backoff::sleep_hinted`](crate::Backoff::sleep_hinted).
    pub retry_after: Option<Duration>,
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The values that differ between the servers run on [`HttpServer`].
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Port to bind on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
    /// Pool threads running the handler (≥ 1 enforced).
    pub threads: usize,
    /// Accepted connections waiting for the pool (≥ 1 enforced); past
    /// it the acceptor sheds.
    pub queue: usize,
    /// Per-socket read/write timeout; a client silent this long gets 408.
    pub io_timeout: Duration,
    /// Largest request body; a larger `Content-Length` gets 413.
    pub max_body: usize,
    /// Counts the connections shed with 503.
    pub shed_counter: Option<Counter>,
    /// Failpoint site evaluated before every response the pool writes.
    pub response_site: &'static str,
}

impl HttpConfig {
    /// The cluster control plane's settings, listening on `port`.
    pub fn control_plane(port: u16) -> Self {
        HttpConfig {
            port,
            threads: CONTROL_THREADS,
            queue: CONTROL_QUEUE,
            io_timeout: IO_TIMEOUT,
            max_body: MAX_BODY,
            shed_counter: None,
            response_site: "cluster::http_response",
        }
    }
}

/// A running HTTP server. Dropping the handle does **not** stop it; call
/// [`shutdown`](HttpServer::shutdown).
pub struct HttpServer {
    port: u16,
    stop: Arc<AtomicBool>,
    /// Acceptor, pool, drain thread: the join order, in which each exits
    /// once those before it have dropped their channel senders.
    threads: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// [`start_with`](HttpServer::start_with) with the control plane's
    /// settings, [`HttpConfig::control_plane`]`(port)`.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the port cannot be bound.
    pub fn start<F>(port: u16, handler: F) -> std::io::Result<Self>
    where
        F: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        Self::start_with(HttpConfig::control_plane(port), handler)
    }

    /// Binds `127.0.0.1:config.port` and answers every connection with
    /// `handler` on a pool of `config.threads`.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the port cannot be bound.
    pub fn start_with<F>(config: HttpConfig, handler: F) -> std::io::Result<Self>
    where
        F: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let port = listener.local_addr()?.port();
        let stop = Arc::new(AtomicBool::new(false));
        let (config, handler) = (Arc::new(config), Arc::new(handler));
        let (queue, pending) = sync_channel::<TcpStream>(config.queue.max(1));
        let pending = Arc::new(Mutex::new(pending));
        let (drain, draining) = sync_channel::<TcpStream>(DRAIN_QUEUE);
        let mut threads = Vec::new();
        threads.push({
            let (stop, config, drain) = (Arc::clone(&stop), Arc::clone(&config), drain.clone());
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break; // the wake-up connection, or late traffic
                    }
                    let Ok(stream) = conn else { continue };
                    if let Err(TrySendError::Full(stream)) = queue.try_send(stream) {
                        if let Some(counter) = &config.shed_counter {
                            counter.inc();
                        }
                        let shed = Response::unavailable(SHED_RETRY_AFTER_SECS);
                        if set_timeouts(&stream, config.io_timeout)
                            .and_then(|()| write_response(&stream, &shed, false))
                            .is_ok()
                        {
                            linger(stream, &drain);
                        }
                    }
                }
            })
        });
        for _ in 0..config.threads.max(1) {
            let (config, handler) = (Arc::clone(&config), Arc::clone(&handler));
            let (pending, drain) = (Arc::clone(&pending), drain.clone());
            threads.push(std::thread::spawn(move || loop {
                // Held only across `recv`, which cannot panic.
                let next = pending
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .recv();
                let Ok(stream) = next else {
                    break; // queue closed and drained
                };
                // A panicking handler loses its connection, not the thread.
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    serve_connection(stream, &config, &*handler, &drain)
                }));
            }));
        }
        drop(drain);
        let drain_limit = (MAX_HEAD + config.max_body) as u64;
        let stop_drain = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            for stream in draining {
                // Once stopping, close at once rather than wait out a
                // socket timeout per lingering client.
                if !stop_drain.load(Ordering::SeqCst) {
                    let _ = std::io::copy(&mut (&stream).take(drain_limit), &mut std::io::sink());
                }
            }
        }));
        Ok(HttpServer {
            port,
            stop,
            threads,
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Stops accepting, lets the pool answer every connection already
    /// accepted — so a response still being written (e.g. the ack to the
    /// very request that triggered the shutdown, possibly crawling
    /// through an injected network delay) reaches its client — then
    /// joins every thread.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Half-closes `stream` after an answer that may have left request bytes
/// unread and hands it to the drain thread: closing with unread input
/// resets the connection, which can destroy the answer before the client
/// reads it. A full drain queue closes it at once.
fn linger(stream: TcpStream, drain: &SyncSender<TcpStream>) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = drain.try_send(stream);
}

fn set_timeouts(stream: &TcpStream, timeout: Duration) -> std::io::Result<()> {
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))
}

/// Reads, handles and answers one connection on a pool thread.
fn serve_connection<F>(
    stream: TcpStream,
    config: &HttpConfig,
    handler: &F,
    drain: &SyncSender<TcpStream>,
) -> std::io::Result<()>
where
    F: Fn(&Request) -> Response,
{
    set_timeouts(&stream, config.io_timeout)?;
    let parsed = read_request(&mut BufReader::new(&stream), config.max_body);
    let response = match &parsed {
        Ok(request) => handler(request),
        // Nothing to answer: the wake-up connection, or a client gone.
        Err(Reject::Closed) => return Ok(()),
        Err(Reject::Status(status, message)) => Response::error(*status, message),
    };
    let mut fault = regcluster_failpoint::net(config.response_site);
    if let (NetFault::Pass, Some(site)) = (fault, response.fault_site) {
        fault = regcluster_failpoint::net(site);
    }
    match fault {
        NetFault::Pass => write_response(&stream, &response, false)?,
        // Accept-then-close: the peer sees an unanswered connection.
        NetFault::Drop => return Ok(()),
        NetFault::Garble => write_response(&stream, &response, true)?,
    }
    if parsed.is_err() {
        linger(stream, drain);
    }
    Ok(())
}

/// Writes `response` in one `write_all`. A `torn` response is the garble
/// fault: the head promises the full `Content-Length`, but only half the
/// body follows — with its first byte flipped — before the connection
/// closes, so the client's bounded read fails cleanly.
fn write_response(mut stream: &TcpStream, response: &Response, torn: bool) -> std::io::Result<()> {
    let retry_after = match response.retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        retry_after
    )
    .into_bytes();
    let body_at = out.len();
    if torn {
        out.extend_from_slice(&response.body[..response.body.len() / 2]);
        if let Some(b) = out.get_mut(body_at) {
            *b ^= 0xff;
        }
    } else {
        out.extend_from_slice(&response.body);
    }
    stream.write_all(&out)
}

/// Why no message came off a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reject {
    /// The peer closed, or the connection failed, before anything could
    /// be answered.
    Closed,
    /// Answer with this status and error message.
    Status(u16, &'static str),
}

const MALFORMED: Reject = Reject::Status(400, "malformed request");
const TIMED_OUT: Reject = Reject::Status(408, "request timed out");
const HEAD_TOO_LARGE: Reject = Reject::Status(431, "request head too large");

/// Maps a failed read: a read timeout (`WouldBlock` on Unix, `TimedOut`
/// on Windows) means the peer went quiet.
fn read_failure(e: &std::io::Error) -> Reject {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => TIMED_OUT,
        std::io::ErrorKind::UnexpectedEof => MALFORMED,
        _ => Reject::Closed,
    }
}

/// A message head: its first line and the headers either end acts on.
struct Head {
    first_line: String,
    content_length: Option<usize>,
    retry_after: Option<u64>,
}

/// Reads one message head, buffering at most [`MAX_HEAD`] bytes of it.
fn read_head(reader: &mut impl BufRead) -> Result<Head, Reject> {
    let mut reader = reader.take(MAX_HEAD as u64);
    let mut lines = Vec::new();
    let mut line = Vec::new();
    loop {
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            // The peer closed before sending a byte.
            Ok(0) if lines.is_empty() && reader.limit() > 0 => return Err(Reject::Closed),
            Ok(_) => {}
            Err(e) => return Err(read_failure(&e)),
        }
        if line.pop() != Some(b'\n') {
            // Short of a line ending: the cap ran out, or the peer closed.
            return Err(if reader.limit() == 0 {
                HEAD_TOO_LARGE
            } else {
                MALFORMED
            });
        }
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        if line.is_empty() && !lines.is_empty() {
            break;
        }
        lines.push(std::mem::take(&mut line));
    }
    let mut head = Head {
        first_line: text(&lines[0])?.to_string(),
        content_length: None,
        retry_after: None,
    };
    for header in &lines[1..] {
        let Some(colon) = header.iter().position(|&b| b == b':') else {
            continue;
        };
        let (name, value) = (header[..colon].trim_ascii(), &header[colon + 1..]);
        if name.eq_ignore_ascii_case(b"content-length") {
            head.content_length = Some(text(value)?.parse().map_err(|_| MALFORMED)?);
        } else if name.eq_ignore_ascii_case(b"retry-after") {
            head.retry_after = text(value).ok().and_then(|v| v.parse().ok());
        }
    }
    Ok(head)
}

fn text(bytes: &[u8]) -> Result<&str, Reject> {
    std::str::from_utf8(bytes.trim_ascii()).map_err(|_| MALFORMED)
}

/// Parses one request off `reader`, buffering at most `max_body` bytes
/// of body.
fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, Reject> {
    let head = read_head(reader)?;
    let mut parts = head.first_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(MALFORMED);
    };
    if method != "GET" && method != "POST" {
        return Err(Reject::Status(405, "method not allowed"));
    }
    let length = head.content_length.unwrap_or(0);
    if length > max_body {
        return Err(Reject::Status(413, "request body too large"));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).map_err(|e| read_failure(&e))?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
    })
}

/// Performs one blocking request against `addr` (`host:port`), returning
/// the parsed [`HttpReply`]. Bodies are sent as
/// `application/octet-stream`; the peer's declared `Content-Length`
/// bounds the read.
///
/// # Errors
///
/// [`std::io::Error`] for connect/read/write failures, a malformed
/// response, or an injected `cluster::http_request` network fault.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<HttpReply> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/octet-stream\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    match regcluster_failpoint::net("cluster::http_request") {
        NetFault::Pass => {}
        // Connect-then-vanish: the peer sees an accepted connection that
        // never carries a request.
        NetFault::Drop => {
            let _ = TcpStream::connect(addr)?;
            return Err(std::io::Error::other("injected request drop"));
        }
        // Torn request: half the head, then the socket closes. The peer
        // answers 400 into the void.
        NetFault::Garble => {
            let mut stream = TcpStream::connect(addr)?;
            let _ = stream.write_all(&head.as_bytes()[..head.len() / 2]);
            return Err(std::io::Error::other("injected request garble"));
        }
    }
    let stream = TcpStream::connect(addr)?;
    set_timeouts(&stream, IO_TIMEOUT)?;
    let mut writer = stream.try_clone()?;
    writer.write_all(head.as_bytes())?;
    writer.write_all(body)?;
    writer.flush()?;

    let mut reader = BufReader::new(stream);
    let head = read_head(&mut reader)
        .map_err(|why| std::io::Error::other(format!("unreadable response head: {why:?}")))?;
    let status: u16 = head
        .first_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::other(format!("malformed status line {:?}", head.first_line))
        })?;
    let body = match head.content_length {
        Some(n) if n <= MAX_BODY => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            buf
        }
        Some(n) => {
            return Err(std::io::Error::other(format!(
                "response body {n} too large"
            )));
        }
        // Connection-close framing: read to EOF.
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };
    Ok(HttpReply {
        status,
        body,
        retry_after: head.retry_after.map(Duration::from_secs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::mpsc;

    // Failpoints are process-global: the fault-injection test below arms
    // response drops that would hit any concurrently-running HTTP test,
    // so every test in this module serializes on this.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn round_trips_get_and_post() {
        let _guard = serial();
        let server = HttpServer::start(0, |req| match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/ping") => Response::text(200, "pong"),
            ("POST", "/echo") => Response {
                content_type: "application/octet-stream",
                body: req.body.clone(),
                ..Response::text(200, "")
            },
            _ => Response::text(404, "nope"),
        })
        .unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let reply = http_request(&addr, "GET", "/ping", &[]).unwrap();
        assert_eq!(
            (reply.status, reply.body.as_slice()),
            (200, b"pong".as_slice())
        );
        assert_eq!(reply.retry_after, None);
        let payload = vec![7u8; 100_000];
        let reply = http_request(&addr, "POST", "/echo", &payload).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, payload);
        let reply = http_request(&addr, "GET", "/missing", &[]).unwrap();
        assert_eq!(reply.status, 404);
        server.shutdown();
    }

    #[test]
    fn rejects_unknown_methods() {
        let _guard = serial();
        let server = HttpServer::start(0, |_| Response::text(200, "ok")).unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let reply = http_request(&addr, "DELETE", "/x", &[]).unwrap();
        assert_eq!(reply.status, 405);
        server.shutdown();
    }

    #[test]
    fn retry_after_round_trips_on_a_shed_style_response() {
        let _guard = serial();
        let server = HttpServer::start(0, |_| Response::unavailable(7)).unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let reply = http_request(&addr, "GET", "/x", &[]).unwrap();
        assert_eq!(reply.status, 503);
        assert_eq!(reply.retry_after, Some(Duration::from_secs(7)));
        server.shutdown();
    }

    #[test]
    fn overloaded_server_sheds_with_retry_after() {
        let _guard = serial();
        // One pool thread parked in the handler and one queue slot held by
        // a connection that sends nothing: every further connection must
        // be shed, not queued.
        let (parked_tx, parked) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let released = Mutex::new(released);
        let config = HttpConfig {
            threads: 1,
            queue: 1,
            ..HttpConfig::control_plane(0)
        };
        let server = HttpServer::start_with(config, move |_| {
            let _ = parked_tx.send(());
            let _ = released.lock().unwrap().recv();
            Response::text(200, "slow ok")
        })
        .unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let addr2 = addr.clone();
        let slow = std::thread::spawn(move || http_request(&addr2, "GET", "/slow", &[]));
        parked.recv().unwrap();
        let queued = TcpStream::connect(&addr).unwrap();

        let reply = http_request(&addr, "GET", "/shed-me", &[]).unwrap();
        assert_eq!(reply.status, 503);
        assert!(
            reply.retry_after.is_some(),
            "shed 503 must carry Retry-After"
        );
        // A client mid-way through a large upload still reads the 503,
        // not a connection reset.
        let upload = vec![7u8; 1 << 20];
        let reply = http_request(&addr, "POST", "/shard/0/1", &upload).unwrap();
        assert_eq!(reply.status, 503);
        assert!(reply.retry_after.is_some());

        release.send(()).unwrap();
        assert_eq!(slow.join().unwrap().unwrap().status, 200);
        drop(queued);
        server.shutdown();
    }

    #[test]
    fn a_panicking_handler_costs_its_connection_not_the_pool() {
        let _guard = serial();
        let config = HttpConfig {
            threads: 1,
            ..HttpConfig::control_plane(0)
        };
        let server = HttpServer::start_with(config, |req| match req.path.as_str() {
            "/boom" => panic!("handler bug"),
            _ => Response::text(200, "ok"),
        })
        .unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        assert!(http_request(&addr, "GET", "/boom", &[]).is_err());
        let reply = http_request(&addr, "GET", "/ok", &[]).unwrap();
        assert_eq!(reply.status, 200, "the only pool thread survived");
        server.shutdown();
    }

    #[test]
    fn oversized_head_gets_431_and_the_server_keeps_serving() {
        let _guard = serial();
        let config = HttpConfig {
            max_body: 0,
            ..HttpConfig::control_plane(0)
        };
        let server = HttpServer::start_with(config, |req| match req.path.as_str() {
            "/health" => Response::text(200, "ok"),
            _ => Response::text(404, "nope"),
        })
        .unwrap();
        let addr = format!("127.0.0.1:{}", server.port());

        // One 1 MiB header line. The server stops reading at the head cap,
        // so the write may fail; the answer arrives before it does.
        let mut stream = TcpStream::connect(&addr).unwrap();
        let mut request = b"GET /health HTTP/1.1\r\nX-Big: ".to_vec();
        request.resize(request.len() + (1 << 20), b'a');
        let _ = stream.write_all(&request);
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        while let Ok(n @ 1..) = stream.read(&mut chunk) {
            raw.extend_from_slice(&chunk[..n]);
        }
        let raw = String::from_utf8(raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 431 "), "{raw:?}");
        assert!(
            raw.ends_with("{\"error\":\"request head too large\"}"),
            "{raw:?}"
        );

        let reply = http_request(&addr, "GET", "/health", &[]).unwrap();
        assert_eq!(
            (reply.status, reply.body.as_slice()),
            (200, b"ok".as_slice())
        );
        server.shutdown();
    }

    #[test]
    fn injected_response_faults_surface_as_client_errors() {
        let _guard = serial();
        let server = HttpServer::start(0, |req| match req.path.as_str() {
            p if p.starts_with("/shard/") => Response {
                fault_site: Some("cluster::upload_response"),
                ..Response::text(200, "staged")
            },
            _ => Response::text(200, "ok"),
        })
        .unwrap();
        let addr = format!("127.0.0.1:{}", server.port());

        regcluster_failpoint::configure("cluster::http_response=drop@1").unwrap();
        assert!(
            http_request(&addr, "GET", "/x", &[]).is_err(),
            "dropped response"
        );
        assert_eq!(http_request(&addr, "GET", "/x", &[]).unwrap().status, 200);

        // Garble only the response naming the upload site: plain
        // requests pass.
        regcluster_failpoint::configure("cluster::upload_response=garble@1").unwrap();
        assert_eq!(http_request(&addr, "GET", "/x", &[]).unwrap().status, 200);
        assert!(
            http_request(&addr, "POST", "/shard/0/1", b"x").is_err(),
            "garbled upload ack"
        );
        assert_eq!(
            http_request(&addr, "POST", "/shard/0/1", b"x")
                .unwrap()
                .status,
            200
        );

        regcluster_failpoint::configure("cluster::http_request=drop@1").unwrap();
        assert!(
            http_request(&addr, "GET", "/x", &[]).is_err(),
            "dropped request"
        );

        regcluster_failpoint::clear();
        server.shutdown();
    }

    /// Body cap of the parser tests.
    const TEST_MAX_BODY: usize = 64;

    fn parse(bytes: &[u8]) -> Result<Request, Reject> {
        read_request(&mut &bytes[..], TEST_MAX_BODY)
    }

    fn status(bytes: &[u8]) -> Option<u16> {
        match parse(bytes) {
            Ok(_) => None,
            Err(Reject::Status(status, _)) => Some(status),
            Err(Reject::Closed) => Some(0),
        }
    }

    #[test]
    fn parser_rejects_with_the_matching_status() {
        let big_header = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(MAX_HEAD));
        let cases: [(&[u8], Option<u16>); 10] = [
            (b"GET /x HTTP/1.1\r\n\r\n", None),
            (b"POST /x HTTP/1.1\ncontent-length: 2\n\nhi", None),
            (b"", Some(0)),
            (b"GET /x HTTP/1.1\r\nHost: a\r\n", Some(400)),
            (b"GET\r\n\r\n", Some(400)),
            (b"POST /x HTTP/1.1\r\nContent-Length: x\r\n\r\n", Some(400)),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhi",
                Some(400),
            ),
            (b"DELETE /x HTTP/1.1\r\n\r\n", Some(405)),
            (b"POST /x HTTP/1.1\r\nContent-Length: 65\r\n\r\n", Some(413)),
            (big_header.as_bytes(), Some(431)),
        ];
        for (bytes, want) in cases {
            assert_eq!(status(bytes), want, "{:?}", String::from_utf8_lossy(bytes));
        }
    }

    /// A request as [`http_request`] writes it, plus `padding` bytes of an
    /// extra header to reach the head cap.
    fn render(method: &str, path: &str, body: &[u8], padding: usize) -> Vec<u8> {
        let mut out = format!(
            "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Pad: {}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            "p".repeat(padding),
            body.len()
        )
        .into_bytes();
        out.extend_from_slice(body);
        out
    }

    fn well_formed() -> impl Strategy<Value = (String, String, Vec<u8>, usize)> {
        (
            prop::sample::select(vec!["GET".to_string(), "POST".to_string()]),
            "/[a-zA-Z0-9_.-]{0,12}(/[0-9]{1,4})?(\\?[a-z]{1,5}=[a-zA-Z0-9,%]{0,12})?",
            prop::collection::vec(any::<u8>(), 0..=TEST_MAX_BODY),
            prop_oneof![Just(0usize), 0usize..64, 8100usize..8300],
        )
    }

    /// Whether a failed parse is an answerable 4xx: a byte slice never
    /// times out, and only an empty one is a closed connection.
    fn rejected_cleanly(bytes: &[u8], reject: Reject) -> bool {
        match reject {
            Reject::Closed => bytes.is_empty(),
            Reject::Status(status, _) => (400..500).contains(&status) && status != 408,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes never panic the parser: they parse, or they get
        /// a 4xx.
        #[test]
        fn arbitrary_bytes_parse_or_get_a_4xx(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
            prefix in prop::sample::select(vec!["", "GET / HTTP/1.1\r\n", "POST /p HTTP/1.1\r\n"]),
        ) {
            let bytes = [prefix.as_bytes(), &bytes].concat();
            if let Err(reject) = parse(&bytes) {
                prop_assert!(rejected_cleanly(&bytes, reject), "{:?}", reject);
            }
        }

        /// Mutated valid requests (overwritten, deleted or inserted bytes)
        /// never panic the parser either.
        #[test]
        fn mutated_requests_parse_or_get_a_4xx(
            (method, path, body, padding) in well_formed(),
            edits in prop::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 1..6),
        ) {
            let mut bytes = render(&method, &path, &body, padding);
            for (at, byte, kind) in edits {
                let at = at % (bytes.len() + 1);
                match kind {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, byte),
                }
            }
            if let Err(reject) = parse(&bytes) {
                prop_assert!(rejected_cleanly(&bytes, reject), "{:?}", reject);
            }
        }

        /// A well-formed GET or POST parses back to its method, path and
        /// body, unless its head passes the cap.
        #[test]
        fn well_formed_requests_round_trip((method, path, body, padding) in well_formed()) {
            let bytes = render(&method, &path, &body, padding);
            let head_len = bytes.len() - body.len();
            match parse(&bytes) {
                Ok(req) => {
                    prop_assert!(head_len <= MAX_HEAD);
                    prop_assert_eq!(req.method, method);
                    prop_assert_eq!(req.path, path);
                    prop_assert_eq!(req.body, body);
                }
                Err(reject) => {
                    prop_assert!(head_len > MAX_HEAD, "{:?}", reject);
                    prop_assert_eq!(reject, HEAD_TOO_LARGE);
                }
            }
        }
    }
}
