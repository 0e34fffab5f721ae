//! The one HTTP/1.1 exchange the daemon speaks: one request per connection,
//! `Content-Length`-framed, server closes. Clocked at the three points a
//! client can see: connected, first response byte, last response byte.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// A response plus where the client's time went.
pub struct Exchange {
    pub status: u16,
    pub body: String,
    /// TCP connect.
    pub connect_s: f64,
    /// Request written → first response byte (accept wait + server work).
    pub ttfb_s: f64,
    /// First response byte → EOF.
    pub body_s: f64,
    /// Response bytes on the wire, headers included.
    pub bytes: usize,
}

impl Exchange {
    pub fn total_s(&self) -> f64 {
        self.connect_s + self.ttfb_s + self.body_s
    }
}

/// A cold sweep may run for seconds; anything beyond this is a hung daemon.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

pub fn exchange(
    tr: &mut Tracer,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<Exchange, String> {
    let span = tr.begin("http.connect");
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let connect_s = t0.elapsed().as_secs_f64();
    tr.end(span);

    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let span = tr.begin("http.ttfb");
    let t1 = Instant::now();
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::with_capacity(16 * 1024);
    let mut first = [0u8; 1];
    stream
        .read_exact(&mut first)
        .map_err(|e| format!("receive: {e}"))?;
    let ttfb_s = t1.elapsed().as_secs_f64();
    tr.end(span);
    raw.push(first[0]);
    let span = tr.begin("http.body");
    let t2 = Instant::now();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let body_s = t2.elapsed().as_secs_f64();
    tr.end(span);

    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: {text:.60}"))?;
    let payload = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or_else(|| "response has no body separator".to_string())?;
    Ok(Exchange {
        status,
        body: payload,
        connect_s,
        ttfb_s,
        body_s,
        bytes: text.len(),
    })
}
