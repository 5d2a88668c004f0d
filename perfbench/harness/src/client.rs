//! The benchmark's keep-alive HTTP/1.1 client.
//!
//! Responses are framed by `Content-Length`; a response carrying
//! `Connection: close` (the event loop sends one after
//! `--max-requests-per-conn` requests) makes the next request reconnect.
//! The serving tier of each response is read from `X-Elinda-Served-By`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Response {
    pub status: u16,
    pub served_by: Option<String>,
    pub body: Vec<u8>,
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            buf: Vec::with_capacity(64 * 1024),
        }
    }

    /// The bytes of a `GET /sparql` request for `query`.
    pub fn get_request(query: &str) -> Vec<u8> {
        format!(
            "GET /sparql?query={} HTTP/1.1\r\nHost: perfbench\r\n\r\n",
            percent_encode(query)
        )
        .into_bytes()
    }

    /// The bytes of a `POST /update` request carrying `update`.
    pub fn update_request(update: &str) -> Vec<u8> {
        format!(
            "POST /update HTTP/1.1\r\nHost: perfbench\r\n\
             Content-Type: application/sparql-update\r\nContent-Length: {}\r\n\r\n{update}",
            update.len()
        )
        .into_bytes()
    }

    pub fn query(&mut self, query: &str) -> Result<Response, String> {
        self.send(&Client::get_request(query))
    }

    pub fn get(&mut self, path: &str) -> Result<Response, String> {
        self.send(format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").as_bytes())
    }

    pub fn update(&mut self, update: &str) -> Result<Response, String> {
        self.send(&Client::update_request(update))
    }

    /// Send one request and read its response.
    pub fn send(&mut self, request: &[u8]) -> Result<Response, String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))
                .map_err(|e| format!("connect: {e}"))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| e.to_string())?;
            let _ = stream.set_nodelay(true);
            self.conn = Some(stream);
            self.buf.clear();
        }
        let result = self.exchange(request);
        match &result {
            Ok((_, true)) | Err(_) => {
                self.conn = None;
                self.buf.clear();
            }
            _ => {}
        }
        result.map(|(response, _)| response)
    }

    fn exchange(&mut self, request: &[u8]) -> Result<(Response, bool), String> {
        let conn = self.conn.as_mut().expect("connected above");
        conn.write_all(request).map_err(|e| format!("write: {e}"))?;
        // Read until the header block is complete.
        let header_end = loop {
            if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                break at + 4;
            }
            read_more(conn, &mut self.buf)?;
        };
        let head = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|_| "non-UTF-8 response head".to_string())?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut length = None;
        let mut close = false;
        let mut served_by = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| format!("bad Content-Length {value:?}"))?,
                    )
                }
                "connection" => close = value.eq_ignore_ascii_case("close"),
                "x-elinda-served-by" => served_by = Some(value.to_string()),
                _ => {}
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        while self.buf.len() < header_end + length {
            read_more(conn, &mut self.buf)?;
        }
        let body = self.buf[header_end..header_end + length].to_vec();
        self.buf.drain(..header_end + length);
        Ok((
            Response {
                status,
                served_by,
                body,
            },
            close,
        ))
    }
}

fn read_more(conn: &mut TcpStream, buf: &mut Vec<u8>) -> Result<(), String> {
    let mut chunk = [0u8; 64 * 1024];
    let n = conn.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
    if n == 0 {
        return Err("connection closed mid-response".into());
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Percent-encode everything but RFC 3986 unreserved characters.
pub fn percent_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len() * 3);
    for &b in text.as_bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}
