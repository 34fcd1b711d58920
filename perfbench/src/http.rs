//! The HTTP/1.1 client side the benchmark needs: pre-rendered requests,
//! an incremental response parser for keep-alive connections,
//! and a one-shot GET for `/healthz` and `/metrics`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A keep-alive `POST` carrying `body`.
pub fn render_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server announced `Connection: close`.
    pub close: bool,
}

/// Incremental parser: feed it whatever `read` returned, take complete
/// responses out in order.
#[derive(Debug, Default)]
pub struct Parser {
    buf: Vec<u8>,
    start: usize,
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

impl Parser {
    pub fn feed(&mut self, data: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// The next complete response, `None` while one is still partial.
    pub fn next_response(&mut self) -> Result<Option<Response>, String> {
        let pending = &self.buf[self.start..];
        let Some(head_len) = find(pending, b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&pending[..head_len])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|s| s.get(..3))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let (mut length, mut close) = (None, false);
        for line in lines {
            let Some((k, v)) = line.split_once(':') else {
                continue;
            };
            let (k, v) = (k.trim(), v.trim());
            if k.eq_ignore_ascii_case("content-length") {
                length = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("content-length: {e}"))?,
                );
            } else if k.eq_ignore_ascii_case("connection") {
                close = v.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or("response without content-length")?;
        let body_start = head_len + 4;
        if pending.len() < body_start + length {
            return Ok(None);
        }
        let body = pending[body_start..body_start + length].to_vec();
        self.start += body_start + length;
        if self.start > (1 << 20) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(Response {
            status,
            body,
            close,
        }))
    }
}

/// One `GET` on a fresh connection (`Connection: close`).
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut parser = Parser::default();
    let mut buf = [0u8; 16 << 10];
    loop {
        if let Some(r) = parser
            .next_response()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        {
            return Ok(r);
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("connection closed before a full response to GET {path}"),
            ));
        }
        parser.feed(&buf[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_responses_parse_in_order_across_splits() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}\
HTTP/1.1 429 Too Many Requests\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello";
        for split in 0..wire.len() {
            let mut p = Parser::default();
            let mut got = Vec::new();
            for part in [&wire[..split], &wire[split..]] {
                p.feed(part);
                while let Some(r) = p.next_response().unwrap() {
                    got.push(r);
                }
            }
            assert_eq!(got.len(), 2, "split at {split}");
            assert_eq!(
                (got[0].status, got[0].body.as_slice(), got[0].close),
                (200, &b"{}"[..], false)
            );
            assert_eq!(
                (got[1].status, got[1].body.as_slice(), got[1].close),
                (429, &b"hello"[..], true)
            );
        }
    }

    #[test]
    fn malformed_heads_are_errors() {
        let mut p = Parser::default();
        p.feed(b"HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n");
        assert!(p.next_response().is_err());
        let mut p = Parser::default();
        p.feed(b"HTTP/1.1 200 OK\r\n\r\n");
        assert!(p.next_response().is_err());
    }

    #[test]
    fn post_is_keep_alive_with_length() {
        let r = String::from_utf8(render_post("/infer", "data mining")).unwrap();
        assert!(r.starts_with("POST /infer HTTP/1.1\r\n"));
        assert!(r.contains("Content-Length: 11\r\n") && r.ends_with("\r\n\r\ndata mining"));
        assert!(!r.contains("Connection: close"));
    }
}
