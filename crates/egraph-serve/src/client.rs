//! A minimal blocking client for the serving dialect.
//!
//! Exists so tests, benches and examples exercise the server over real
//! sockets with the same wire format a `curl` user would see — not through
//! in-process shortcuts that would let the HTTP layer rot untested.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use egraph_query::codec::descriptor_to_json;
use egraph_query::QueryDescriptor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::http::{self, Response};

/// How [`Client::post_with_retry`] paces itself when the server sheds load
/// (`503`) or the transport fails. Backoff is exponential with
/// deterministic jitter (seeded, so tests replay exactly); a `Retry-After`
/// header from the server overrides the computed backoff for that round.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts, the first included. `1` means no retries.
    pub attempts: u32,
    /// Base backoff before the first retry; doubles each round.
    pub backoff: Duration,
    /// Ceiling on the (pre-jitter) backoff.
    pub max_backoff: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            seed: 0x5EED_0FF5,
        }
    }
}

/// A client bound to one server address. Cheap to clone; each request opens
/// its own connection (the dialect is one request per connection).
#[derive(Clone, Debug)]
pub struct Client {
    addr: SocketAddr,
    timeout: Option<Duration>,
}

impl Client {
    /// A client for the server at `addr` with a 10-second I/O timeout.
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            timeout: Some(Duration::from_secs(10)),
        }
    }

    /// Overrides the per-connection I/O timeout (`None` disables).
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    fn connect(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        Ok(stream)
    }

    fn send_request(&self, method: &str, path: &str, body: &str) -> std::io::Result<TcpStream> {
        let mut stream = self.connect()?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.addr,
            body.len(),
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        Ok(stream)
    }

    /// Sends one request and reads the complete response.
    pub fn request(&self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        let stream = self.send_request(method, path, body)?;
        http::read_response(&mut BufReader::new(stream))
    }

    /// `POST path` with a JSON body.
    pub fn post(&self, path: &str, body: &str) -> std::io::Result<Response> {
        self.request("POST", path, body)
    }

    /// `POST path`, retrying on `503` responses and transport failures
    /// under `policy`. A `503` carrying `Retry-After: h` sleeps a jittered
    /// `1.0–1.5 × h` seconds; otherwise the sleep is a jittered
    /// `0.5–1.0 ×` of the exponential backoff. Returns the first non-`503`
    /// response together with how many retries it took; when every attempt
    /// sheds, the final `503` is returned (the caller sees the server's
    /// answer, not a synthesized error), and when every attempt fails at
    /// the transport, the last error is.
    pub fn post_with_retry(
        &self,
        path: &str,
        body: &str,
        policy: &RetryPolicy,
    ) -> std::io::Result<(Response, u32)> {
        assert!(policy.attempts >= 1, "a retry policy needs >= 1 attempt");
        let mut rng = SmallRng::seed_from_u64(policy.seed);
        let mut backoff = policy.backoff;
        let mut retries = 0u32;
        loop {
            let outcome = self.post(path, body);
            let retryable = match &outcome {
                Ok(response) => response.status == 503,
                Err(_) => true,
            };
            if !retryable || retries + 1 >= policy.attempts {
                return outcome.map(|response| (response, retries));
            }
            let sleep = match outcome.as_ref().ok().and_then(|r| r.retry_after) {
                Some(secs) => Duration::from_secs(secs).mul_f64(rng.gen_range(1.0f64..1.5)),
                None => backoff.mul_f64(rng.gen_range(0.5f64..1.0)),
            };
            if !sleep.is_zero() {
                std::thread::sleep(sleep);
            }
            backoff = (backoff * 2).min(policy.max_backoff);
            retries += 1;
        }
    }

    /// `GET path`.
    pub fn get(&self, path: &str) -> std::io::Result<Response> {
        self.request("GET", path, "")
    }

    /// `POST /query` with `descriptor`, encoded through the canonical codec.
    pub fn query(&self, descriptor: &QueryDescriptor) -> std::io::Result<Response> {
        self.post("/query", &descriptor_to_json(descriptor))
    }

    /// `POST /subscribe` with `descriptor`. On a `200` the returned
    /// [`Subscription`] yields the initial frame first, then one frame per
    /// snapshot the server seals; a non-`200` is returned as `Err` with the
    /// server's error body in the message.
    pub fn subscribe(&self, descriptor: &QueryDescriptor) -> std::io::Result<Subscription> {
        let body = descriptor_to_json(descriptor);
        let reader = self.open_stream("POST", "/subscribe", &body, "subscribe")?;
        Ok(Subscription { reader })
    }

    /// `GET /log/tail?from=<from>` against a durable leader. Returns the
    /// stream's init frame (the graph's birth parameters plus the leader's
    /// current seal count) and a [`LogTail`] yielding one sealed segment
    /// at a time — first the catch-up backlog from `from`, then live
    /// pushes as the leader seals. This is the whole replication wire:
    /// [`crate::Server::start_follower`] is built on it, and external
    /// tools can use it to mirror a log.
    pub fn tail_log(&self, from: u64) -> std::io::Result<(TailInit, LogTail)> {
        let path = format!("/log/tail?from={from}");
        let mut reader = self.open_stream("GET", &path, "", "tail")?;
        let init_frame = http::read_chunk(&mut reader)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "tail stream closed before its init frame",
            )
        })?;
        let value = egraph_io::parse_value(init_frame.trim()).map_err(invalid)?;
        let object = value.as_object("tail init frame").map_err(invalid)?;
        let init = object
            .get("init")
            .and_then(|v| v.as_object("init"))
            .map_err(invalid)?;
        let init = TailInit {
            num_nodes: count(&init, "num_nodes")?,
            directed: init
                .get("directed")
                .and_then(|v| v.as_bool("directed"))
                .map_err(invalid)?,
            latest: count(&object, "latest")? as u64,
        };
        Ok((init, LogTail { reader }))
    }

    /// Sends a request whose `200` answer is a chunked stream and returns
    /// the stream positioned at its first chunk. Any other status comes
    /// back as `Err` carrying `"{what} rejected with {status}: {body}"`.
    fn open_stream(
        &self,
        method: &str,
        path: &str,
        body: &str,
        what: &str,
    ) -> std::io::Result<BufReader<TcpStream>> {
        let stream = self.send_request(method, path, body)?;
        let mut reader = BufReader::new(stream);
        let head = http::read_response_head(&mut reader)?;
        if head.status != 200 {
            let body = match head.framing {
                http::BodyFraming::Sized(n) => {
                    String::from_utf8_lossy(&http::read_body(&mut reader, n)?).into_owned()
                }
                http::BodyFraming::Chunked => String::new(),
            };
            return Err(std::io::Error::other(format!(
                "{what} rejected with {}: {body}",
                head.status
            )));
        }
        if !matches!(head.framing, http::BodyFraming::Chunked) {
            return Err(invalid(format!("{what} responses must be chunked")));
        }
        Ok(reader)
    }

    /// `GET /checkpoint/latest` against a durable leader: the newest
    /// installed checkpoint, already unframed and CRC-checked. Returns the
    /// checkpoint's sequence number (the last log segment it absorbs) and
    /// its payload bytes — decode with [`egraph_io::decode_checkpoint`].
    /// `Ok(None)` means the leader has no checkpoint yet; bootstrap by
    /// tailing from 0 instead.
    pub fn fetch_checkpoint(&self) -> std::io::Result<Option<(u64, Vec<u8>)>> {
        let stream = self.send_request("GET", "/checkpoint/latest", "")?;
        let mut reader = BufReader::new(stream);
        let head = http::read_response_head(&mut reader)?;
        let raw = match head.framing {
            http::BodyFraming::Sized(n) => http::read_body(&mut reader, n)?,
            http::BodyFraming::Chunked => {
                return Err(invalid("checkpoint responses must be sized"))
            }
        };
        match head.status {
            200 => {}
            404 => return Ok(None),
            status => {
                return Err(std::io::Error::other(format!(
                    "checkpoint fetch rejected with {status}: {}",
                    String::from_utf8_lossy(&raw)
                )))
            }
        }
        let (last_seq, payload) = egraph_log::decode_checkpoint_file(&raw).map_err(invalid)?;
        Ok(Some((last_seq, payload.to_vec())))
    }
}

/// The first frame of a tail stream: how to construct the follower's graph
/// and how far the leader's log currently reaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TailInit {
    /// The leader graph's initial node-universe size (growth events are in
    /// the segments themselves).
    pub num_nodes: usize,
    /// Whether the leader's graph is directed.
    pub directed: bool,
    /// The leader's sealed-segment count when the stream opened.
    pub latest: u64,
}

/// One sealed segment received off a tail stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TailSegment {
    /// The segment's sequence number.
    pub seq: u64,
    /// The leader's sealed-segment count when this segment was shipped —
    /// `latest - (seq + 1)` is the follower's lag after applying it.
    pub latest: u64,
    /// The segment's exact bytes, as sealed on the leader's disk; decode
    /// with [`egraph_log::decode_segment`].
    pub bytes: Vec<u8>,
}

fn invalid(message: impl ToString) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_string())
}

/// The unsigned field `key` of a tail frame's JSON object.
fn count(object: &egraph_io::json::Object<'_>, key: &str) -> std::io::Result<usize> {
    object
        .get(key)
        .and_then(|v| v.as_usize(key))
        .map_err(invalid)
}

/// A replication stream: yields sealed segments as the leader ships them.
pub struct LogTail {
    reader: BufReader<TcpStream>,
}

impl LogTail {
    /// Blocks for the next segment. `Ok(None)` means the leader closed the
    /// stream (shutdown); `Err` a transport failure, read timeout, or a
    /// malformed frame.
    pub fn next_segment(&mut self) -> std::io::Result<Option<TailSegment>> {
        let Some(header) = http::read_chunk(&mut self.reader)? else {
            return Ok(None);
        };
        let value = egraph_io::parse_value(header.trim()).map_err(invalid)?;
        let object = value.as_object("tail segment header").map_err(invalid)?;
        let seq = count(&object, "seq")? as u64;
        let len = count(&object, "len")?;
        let latest = count(&object, "latest")? as u64;
        let bytes = http::read_chunk_bytes(&mut self.reader)?
            .ok_or_else(|| invalid("tail stream ended between a segment header and its bytes"))?;
        if bytes.len() != len {
            return Err(invalid(format!(
                "segment header declared {len} bytes but the chunk carries {}",
                bytes.len()
            )));
        }
        Ok(Some(TailSegment { seq, latest, bytes }))
    }

    /// Overrides the read timeout on the underlying stream (`None` lets
    /// the tail block indefinitely between seals).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// A second handle to the underlying socket — `shutdown` on it wakes a
    /// read blocked in [`LogTail::next_segment`] (how a follower stops its
    /// tail thread).
    pub fn try_clone_stream(&self) -> std::io::Result<TcpStream> {
        self.reader.get_ref().try_clone()
    }
}

/// A standing-query stream: reads push frames as the server seals
/// snapshots. Dropping it closes the connection, which the server notices
/// at its next push and unregisters the subscription.
pub struct Subscription {
    reader: BufReader<TcpStream>,
}

impl Subscription {
    /// Blocks for the next frame. `Ok(None)` means the server closed the
    /// stream (shutdown); `Err` a transport failure or read timeout.
    pub fn next_frame(&mut self) -> std::io::Result<Option<String>> {
        match http::read_chunk(&mut self.reader)? {
            Some(payload) => Ok(Some(payload.trim_end_matches('\n').to_string())),
            None => Ok(None),
        }
    }
}
