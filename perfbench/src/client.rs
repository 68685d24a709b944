//! A minimal HTTP/1.1 client over loopback `TcpStream`s.
//!
//! Measured traffic runs on keep-alive connections, never more than the
//! server has workers. Side requests (`/readyz`, `/flush`) each open
//! their own connection and send `Connection: close`, so no idle socket
//! is ever left holding a server worker.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use nucdb_obs::json::{self, Value};

/// Longest the client waits on one response before counting it failed.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 << 10),
        })
    }

    /// `POST path` with `body`, keeping the connection open. Returns the
    /// status and the response body.
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        send(&mut self.stream, "POST", path, body, "keep-alive")?;
        read_response(&mut self.stream, &mut self.buf)
    }
}

/// A side request on its own connection with `Connection: close`.
pub fn request_close(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    send(&mut stream, method, path, body, "close")?;
    let mut buf = Vec::new();
    read_response(&mut stream, &mut buf)
}

fn send(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
    connection: &str,
) -> io::Result<()> {
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: text/plain\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<(u16, Vec<u8>)> {
    buf.clear();
    let mut chunk = [0u8; 16 << 10];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed before the response head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let length: usize = head
        .lines()
        .find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())
                .flatten()
        })
        .ok_or_else(|| bad("no Content-Length"))?;
    while buf.len() < head_end + length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok((status, buf[head_end..head_end + length].to_vec()))
}

/// One ranked answer as the bit-identity check compares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Global record id.
    pub record: u32,
    /// Fine alignment score.
    pub score: i32,
    /// `+` or `-`.
    pub strand: u8,
}

/// A 64-bit FNV-1a fingerprint of a ranked answer list. Timed searches
/// keep only this, so the client's own memory stays small and constant
/// and peak RSS reflects the server.
pub fn fingerprint(answers: &[Answer]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for a in answers {
        let bytes = a.record.to_le_bytes().into_iter();
        for b in bytes.chain(a.score.to_le_bytes()).chain([a.strand]) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Parse a one-query `/search` response into its ranked answers.
pub fn parse_answers(body: &[u8]) -> Result<Vec<Answer>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let doc = json::parse(text)?;
    let Some(Value::Arr(results)) = doc.get("results") else {
        return Err("no results array".to_string());
    };
    let [query] = results.as_slice() else {
        return Err(format!("{} result documents for one query", results.len()));
    };
    let Some(Value::Arr(answers)) = query.get("answers") else {
        return Err("no answers array".to_string());
    };
    answers
        .iter()
        .map(|a| {
            let record = a.get("record").and_then(Value::as_f64);
            let score = a.get("score").and_then(Value::as_f64);
            let strand = a.get("strand").and_then(Value::as_str);
            match (record, score, strand) {
                (Some(record), Some(score), Some(strand)) if strand.len() == 1 => Ok(Answer {
                    record: record as u32,
                    score: score as i32,
                    strand: strand.as_bytes()[0],
                }),
                _ => Err("malformed answer".to_string()),
            }
        })
        .collect()
}

/// Parse an `/insert` response: the number of records it acknowledged.
pub fn parse_inserted(body: &[u8]) -> Result<usize, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    json::parse(text)?
        .get("inserted")
        .and_then(Value::as_f64)
        .map(|n| n as usize)
        .ok_or_else(|| "no inserted count".to_string())
}
