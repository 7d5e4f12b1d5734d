//! A minimal keep-alive HTTP/1.1 client: one request in flight per
//! connection, `Content-Length` framing, reconnect when the server says
//! `Connection: close`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long one exchange may take before it counts as a timeout.
pub const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(60);

/// One parsed response.
#[derive(Debug, Clone, Default)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `ETag` header, if any.
    pub etag: Option<String>,
    /// Whether the response carried `X-Pipefail-Partial`.
    pub partial: bool,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as text (lossy).
    pub fn text(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// A GET request frame.
pub fn get(target: &str, if_none_match: Option<&str>) -> Vec<u8> {
    let mut req = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n");
    if let Some(tag) = if_none_match {
        req.push_str("If-None-Match: ");
        req.push_str(tag);
        req.push_str("\r\n");
    }
    req.push_str("\r\n");
    req.into_bytes()
}

/// A POST request frame with a body.
pub fn post(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A keep-alive connection that reconnects on demand.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    /// A connection to `addr`; the socket opens on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
        }
    }

    fn stream(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, EXCHANGE_TIMEOUT)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(EXCHANGE_TIMEOUT))?;
            s.set_write_timeout(Some(EXCHANGE_TIMEOUT))?;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Send `request` and read the whole response. The duration runs from
    /// the first byte written to the last byte read; connecting is not
    /// part of it. Any error drops the socket.
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<(Response, Duration)> {
        let result = self.send(request).and_then(|start| {
            let resp = self.read_response()?;
            Ok((resp, start.elapsed()))
        });
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    /// Write every request in one go, then read one response per request
    /// (HTTP/1.1 pipelining). Any error drops the socket; so does a
    /// `Connection: close` before the last response, which fails the call.
    pub fn pipeline(&mut self, requests: &[Vec<u8>]) -> std::io::Result<Vec<Response>> {
        let result = self
            .send(&requests.concat())
            .and_then(|_| (0..requests.len()).map(|_| self.read_response()).collect());
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn send(&mut self, bytes: &[u8]) -> std::io::Result<Instant> {
        self.stream()?;
        self.buf.clear();
        let start = Instant::now();
        self.stream.as_mut().expect("connected").write_all(bytes)?;
        Ok(start)
    }

    /// Read one more byte chunk into the buffer.
    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let stream = self
            .stream
            .as_mut()
            .ok_or(std::io::ErrorKind::NotConnected)?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Parse one response off the front of the buffer, reading as needed,
    /// and drain exactly its bytes.
    fn read_response(&mut self) -> std::io::Result<Response> {
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| std::io::Error::other("non-UTF-8 response head"))?;
        let mut resp = Response::default();
        let mut lines = head.split("\r\n");
        resp.status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other("bad status line"))?;
        let mut len = 0usize;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value
                    .parse()
                    .map_err(|_| std::io::Error::other("bad length"))?;
            } else if name.eq_ignore_ascii_case("etag") {
                resp.etag = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("x-pipefail-partial") {
                resp.partial = true;
            }
        }
        if resp.status == 304 {
            len = 0;
        }
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        resp.body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        if close {
            self.stream = None;
        }
        Ok(resp)
    }
}

/// Poll `GET /healthz` on fresh connections until it answers 200.
pub fn wait_healthy(addr: SocketAddr, deadline: Duration) -> Result<(), String> {
    let start = Instant::now();
    loop {
        let mut conn = Conn::new(addr);
        if let Ok((resp, _)) = conn.exchange(&get("/healthz", None)) {
            if resp.status == 200 {
                return Ok(());
            }
        }
        if start.elapsed() > deadline {
            return Err(format!("{addr} not healthy after {deadline:?}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}
