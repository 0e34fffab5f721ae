//! Minimal HTTP/1.1 support for the sweep service — hand-rolled over
//! [`std::net::TcpStream`], because the build environment cannot vendor an
//! HTTP crate (the registry mirror is unreachable; everything in this repo
//! is std-only).
//!
//! Scope is deliberately small: one request per connection, `Content-Length`
//! bodies on the way in, fixed-length or `chunked` transfer-encoding on the
//! way out. That covers the whole protocol in `docs/PROTOCOL.md` without
//! keep-alive or pipelining edge cases; clients that send
//! `Connection: keep-alive` simply get a closed socket after the response,
//! which HTTP/1.1 permits (`Connection: close` is always advertised).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest accepted request head (request line + headers), in bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted request body, in bytes.
const MAX_BODY: usize = 4 * 1024 * 1024;
/// Per-call socket I/O timeout applied to every accepted connection: a peer
/// that goes fully silent (or never drains a response) is cut off after this
/// long, instead of pinning an acceptor forever.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Hard ceiling on reading one complete request. The per-call timeout alone
/// does not stop a slow-loris client that drips one byte per poll — each
/// `read` succeeds, so no call ever times out. The deadline is checked
/// before every socket read, bounding the whole parse regardless of how the
/// bytes trickle in.
pub const MAX_REQUEST_DURATION: Duration = Duration::from_secs(30);

/// Apply the service's socket timeouts ([`IO_TIMEOUT`] in both directions)
/// to a freshly accepted connection.
pub fn configure_stream(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))
}

/// A [`Read`] adapter that enforces an absolute deadline across every read
/// of one request: before each socket read the remaining window is checked
/// (and the socket read timeout shrunk to it), so neither silence nor a
/// byte-at-a-time drip can hold the parse open past the deadline.
struct DeadlineStream<'a> {
    inner: &'a mut TcpStream,
    deadline: Instant,
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        if now >= self.deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request deadline exceeded",
            ));
        }
        let remaining = (self.deadline - now).min(IO_TIMEOUT).max(Duration::from_millis(1));
        let _ = self.inner.set_read_timeout(Some(remaining));
        self.inner.read(buf)
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// Body decoded as UTF-8.
    pub fn body_str(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "body is not valid UTF-8".to_string())
    }
}

/// Read and parse one request from `stream`.
///
/// Returns `Ok(None)` when the peer closed the connection before sending a
/// request line (a common health-probe pattern), and `Err` with a short
/// diagnostic for malformed or oversized requests.
pub fn read_request(stream: &mut TcpStream) -> Result<Option<Request>, String> {
    read_request_deadline(stream, MAX_REQUEST_DURATION)
}

/// [`read_request`] with an explicit overall deadline (the production entry
/// point always uses [`MAX_REQUEST_DURATION`]; tests use shorter windows).
pub fn read_request_deadline(
    stream: &mut TcpStream,
    max_duration: Duration,
) -> Result<Option<Request>, String> {
    let deadline = Instant::now() + max_duration;
    let mut reader = BufReader::new(DeadlineStream { inner: stream, deadline });
    // Every head line is read through the head's remaining budget plus one
    // byte, so a line that never ends stops at the cap instead of buffering
    // until the deadline.
    let mut head_bytes = 0usize;
    let mut head_line = |line: &mut String, what: &str| {
        let budget = (MAX_HEAD - head_bytes + 1) as u64;
        let n = reader.by_ref().take(budget).read_line(line).map_err(|e| format!("{what}: {e}"))?;
        head_bytes += n;
        if head_bytes > MAX_HEAD {
            return Err("request head too large".to_string());
        }
        Ok(n)
    };
    let mut line = String::new();
    if head_line(&mut line, "read request line")? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_ascii_uppercase();
    let target = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || target.is_empty() {
        return Err("malformed request line".to_string());
    }
    let path = target.split('?').next().unwrap_or("").to_string();

    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if head_line(&mut header, "read header")? == 0 {
            return Err("connection closed mid-headers".to_string());
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| "bad Content-Length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err("request body too large".to_string());
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| format!("read body: {e}"))?;
    Ok(Some(Request { method, path, body }))
}

/// Reason phrase for the handful of status codes the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A connection's write side that remembers whether any response byte was
/// sent, so a handler that fails midway knows whether an error status can
/// still go out.
pub struct Reply<'a> {
    /// The connection itself; the request is read from it directly.
    pub stream: &'a mut TcpStream,
    started: bool,
}

impl<'a> Reply<'a> {
    /// Wrap an accepted connection; nothing is sent yet.
    pub fn new(stream: &'a mut TcpStream) -> Reply<'a> {
        Reply { stream, started: false }
    }

    /// Whether a response has begun: a write was attempted.
    pub fn started(&self) -> bool {
        self.started
    }
}

impl Write for Reply<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.started |= !buf.is_empty();
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Write a complete fixed-length response, head and body in one write, and
/// flush it.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    );
    out.reserve_exact(body.len());
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// Shorthand for an `application/json` response.
pub fn write_json(stream: &mut impl Write, status: u16, body: &str) -> std::io::Result<()> {
    write_response(stream, status, "application/json", body)
}

/// Shorthand for a JSON error payload `{"error": "..."}`.
pub fn write_error(stream: &mut impl Write, status: u16, message: &str) -> std::io::Result<()> {
    let mut body = String::from("{");
    crate::telemetry::json_str(&mut body, "error", message);
    body.push('}');
    write_json(stream, status, &body)
}

/// Incremental `Transfer-Encoding: chunked` response writer, used by the
/// progress-stream endpoint so clients see updates while the sweep runs.
pub struct ChunkedWriter<'a, W: Write> {
    stream: &'a mut W,
    open: bool,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Send the response head and switch the connection to chunked mode.
    pub fn begin(
        stream: &'a mut W,
        status: u16,
        content_type: &str,
    ) -> std::io::Result<ChunkedWriter<'a, W>> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            reason(status),
            content_type
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream, open: true })
    }

    /// Send one chunk (empty input is skipped — a zero-length chunk would
    /// terminate the stream).
    pub fn chunk(&mut self, data: &str) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data.as_bytes())?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Send the terminating zero-length chunk.
    pub fn end(mut self) -> std::io::Result<()> {
        self.open = false;
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

impl<W: Write> Drop for ChunkedWriter<'_, W> {
    fn drop(&mut self) {
        if self.open {
            // Best effort: terminate the stream so well-behaved clients do
            // not hang waiting for more chunks after a handler error.
            let _ = self.stream.write_all(b"0\r\n\r\n");
            let _ = self.stream.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn parses_post_with_body() {
        let (mut client, mut server) = pair();
        client
            .write_all(
                b"POST /sweeps?wait=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n",
            )
            .unwrap();
        let req = read_request(&mut server).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sweeps");
        assert_eq!(req.body_str().unwrap(), "{\"a\": 1}\n");
    }

    #[test]
    fn get_without_body() {
        let (mut client, mut server) = pair();
        client.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let req = read_request(&mut server).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn closed_connection_yields_none() {
        let (client, mut server) = pair();
        drop(client);
        assert!(read_request(&mut server).unwrap().is_none());
    }

    #[test]
    fn oversized_content_length_rejected() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
            .unwrap();
        assert!(read_request(&mut server).is_err());
    }

    /// A request line with no newline is refused once it passes the head
    /// cap, while the client is still connected: it does not buffer until
    /// the deadline.
    #[test]
    fn endless_request_line_is_refused_at_the_head_cap() {
        let (mut client, mut server) = pair();
        // The writer may block once the socket buffers fill; it ends when
        // the server side closes.
        let writer = std::thread::spawn(move || {
            let _ = client.write_all(&vec![b'a'; 64 * 1024]);
            client
        });
        let t = std::time::Instant::now();
        let result = read_request_deadline(&mut server, Duration::from_secs(20));
        assert_eq!(result.unwrap_err(), "request head too large");
        assert!(t.elapsed() < Duration::from_secs(5), "took {:?}", t.elapsed());
        drop(server);
        drop(writer.join().unwrap());
        // Headers count against the same cap.
        let (mut client, mut server) = pair();
        let header = format!("X: {}\r\n", "b".repeat(1024));
        let head = format!("GET / HTTP/1.1\r\n{}\r\n", header.repeat(16));
        client.write_all(head.as_bytes()).unwrap();
        assert_eq!(read_request(&mut server).unwrap_err(), "request head too large");
        drop(client);
    }

    /// A client that opens a connection, sends half a request, and then goes
    /// silent must not pin the handler: the per-request deadline cuts the
    /// parse off with an error in bounded time.
    #[test]
    fn stalling_client_is_cut_off_by_the_deadline() {
        let (mut client, mut server) = pair();
        client.write_all(b"POST /sweeps HTTP/1.1\r\nContent-Le").unwrap();
        // No more bytes — the client stalls with the head incomplete.
        let t = std::time::Instant::now();
        let result = read_request_deadline(&mut server, Duration::from_millis(200));
        assert!(result.is_err(), "a stalled request must not parse");
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "the deadline must fire in bounded time, took {:?}",
            t.elapsed()
        );
        drop(client);
    }

    /// A slow-loris client that drips bytes fast enough to keep every
    /// individual read alive is still bounded by the absolute deadline.
    #[test]
    fn dripping_client_is_bounded_by_the_deadline() {
        let (mut client, mut server) = pair();
        let feeder = std::thread::spawn(move || {
            // One byte every 20 ms, forever (until the peer closes).
            for b in b"GET /healthz-but-very-slowly HTTP/1.1\r\nX: y\r\n".iter().cycle() {
                if client.write_all(&[*b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let t = std::time::Instant::now();
        let result = read_request_deadline(&mut server, Duration::from_millis(300));
        assert!(result.is_err(), "a dripped request must not parse past the deadline");
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "the deadline must bound a dripping client, took {:?}",
            t.elapsed()
        );
        drop(server);
        feeder.join().unwrap();
    }

    #[test]
    fn chunked_stream_is_well_formed() {
        let (mut client, mut server) = pair();
        let writer_thread = std::thread::spawn(move || {
            let mut w = ChunkedWriter::begin(&mut server, 200, "application/json").unwrap();
            w.chunk("{\"n\":1}\n").unwrap();
            w.chunk("{\"n\":2}\n").unwrap();
            w.end().unwrap();
        });
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        writer_thread.join().unwrap();
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(raw.contains("Transfer-Encoding: chunked"));
        assert!(raw.contains("8\r\n{\"n\":1}\n\r\n"));
        assert!(raw.ends_with("0\r\n\r\n"));
    }
}
