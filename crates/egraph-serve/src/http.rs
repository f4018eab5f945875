//! A deliberately small HTTP/1.1 codec over blocking sockets.
//!
//! The build environment has no registry access, so rather than pulling in a
//! server framework this module implements exactly the slice of HTTP/1.1 the
//! serving layer speaks: one request per connection (`Connection: close` on
//! every response), `Content-Length` bodies on requests, and either
//! `Content-Length` or `Transfer-Encoding: chunked` on responses — chunked
//! is what keeps a subscription connection open while the server pushes one
//! frame per sealed snapshot.
//!
//! Both sides of the dialect live here (request parsing + response writing
//! for the server, response parsing + chunk reading for [`crate::Client`]),
//! so the two cannot drift apart.

use std::io::{self, BufRead, Read, Write};

/// Upper bound on the request line plus headers. Requests are tiny JSON
/// documents; anything past this is hostile or broken.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// The most a body read reserves before the body's bytes arrive. A length
/// comes from the peer, so reserving all of it up front would let one
/// header (`Content-Length: 18446744073709551615`) abort the reader with a
/// capacity overflow before any body byte is sent.
const MAX_BODY_RESERVE: usize = 1 << 20;

/// A parsed request: method, path, and the (possibly empty) UTF-8 body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The request method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// The request target, e.g. `/query`.
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
}

/// Why a request could not be read. The server maps each variant to a
/// status code without killing the accept loop.
#[derive(Debug)]
pub enum RequestError {
    /// The connection failed or closed before a full request arrived; there
    /// is nobody to answer, so the handler just drops the socket.
    Io(io::Error),
    /// The request was syntactically broken — answered with `400` and a
    /// structured JSON error body.
    Malformed(String),
    /// The declared body exceeds the server's bound — answered with `413`
    /// *without reading the body*, so an oversized request costs the server
    /// only its header bytes.
    BodyTooLarge {
        /// What the request declared.
        declared: usize,
        /// The server's configured bound.
        limit: usize,
    },
}

impl From<io::Error> for RequestError {
    fn from(err: io::Error) -> Self {
        RequestError::Io(err)
    }
}

/// Reads one request (head + body) from `reader`, enforcing
/// [`MAX_HEAD_BYTES`] and the caller's `max_body` bound.
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, RequestError> {
    let mut head_bytes = 0;
    let request_line = read_head_line(reader, &mut head_bytes)?;
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("request line has no path".into()))?
        .to_string();
    match parts.next() {
        Some(version) if version.starts_with("HTTP/1.") => {}
        Some(other) => {
            return Err(RequestError::Malformed(format!(
                "unsupported protocol version {other:?}"
            )))
        }
        None => {
            return Err(RequestError::Malformed(
                "request line has no version".into(),
            ))
        }
    }

    let mut content_length: Option<usize> = None;
    read_headers(reader, &mut head_bytes, true, |name, value| match name {
        "content-length" => match content_length.replace(parse_content_length(value)?) {
            Some(_) => Err(RequestError::Malformed(
                "duplicate content-length header".into(),
            )),
            None => Ok(()),
        },
        // Chunked *requests* are not part of the dialect; rejecting the
        // header beats silently misreading the framing.
        "transfer-encoding" => Err(RequestError::Malformed(
            "chunked request bodies are not supported".into(),
        )),
        _ => Ok(()),
    })?;

    let declared = content_length.unwrap_or(0);
    if declared > max_body {
        return Err(RequestError::BodyTooLarge {
            declared,
            limit: max_body,
        });
    }
    let body = String::from_utf8(read_body(reader, declared)?)
        .map_err(|_| RequestError::Malformed("request body is not UTF-8".into()))?;
    Ok(Request { method, path, body })
}

/// Reads a body of `n` bytes, where `n` is a length the peer declared. The
/// buffer grows as bytes arrive, from at most [`MAX_BODY_RESERVE`] reserved
/// up front; a body shorter than `n` is [`io::ErrorKind::UnexpectedEof`].
pub(crate) fn read_body<R: Read>(reader: &mut R, n: usize) -> io::Result<Vec<u8>> {
    let mut raw = Vec::with_capacity(n.min(MAX_BODY_RESERVE));
    reader.take(n as u64).read_to_end(&mut raw)?;
    if raw.len() < n {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("body ended after {} of {n} declared bytes", raw.len()),
        ));
    }
    Ok(raw)
}

/// Reads one CRLF-terminated head line, terminator included, charging it
/// against the [`MAX_HEAD_BYTES`] the head has left. At most one byte past
/// that budget is read, so an over-long line costs the reader no more than
/// the bound. A bare `\n` terminator is tolerated (curl always sends
/// `\r\n`; hand-rolled test clients may not).
fn read_head_line<R: BufRead>(
    reader: &mut R,
    head_bytes: &mut usize,
) -> Result<String, RequestError> {
    let budget = MAX_HEAD_BYTES.saturating_sub(*head_bytes) as u64;
    let mut line = String::new();
    let n = reader.take(budget + 1).read_line(&mut line)?;
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(RequestError::Malformed(format!(
            "request head exceeds {MAX_HEAD_BYTES} bytes"
        )));
    }
    if n == 0 || !line.ends_with('\n') {
        // Zero bytes, or bytes with no terminator before EOF: the peer
        // closed mid-request; there is no request to answer.
        return Err(RequestError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-request",
        )));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Reads the header lines of a head up to the blank line that ends it,
/// charging each against the head's budget, and hands every `(name,
/// value)` to `header`: the name lowercased, both trimmed. A line without a
/// colon is refused as malformed when `strict`, and skipped otherwise.
fn read_headers<R: BufRead>(
    reader: &mut R,
    head_bytes: &mut usize,
    strict: bool,
    mut header: impl FnMut(&str, &str) -> Result<(), RequestError>,
) -> Result<(), RequestError> {
    loop {
        let line = read_head_line(reader, head_bytes)?;
        if line.is_empty() {
            return Ok(());
        }
        match line.split_once(':') {
            Some((name, value)) => header(&name.trim().to_ascii_lowercase(), value.trim())?,
            None if strict => {
                return Err(RequestError::Malformed(format!(
                    "header line without a colon: {line:?}"
                )))
            }
            None => {}
        }
    }
}

/// Parses a `Content-Length` value.
fn parse_content_length(value: &str) -> Result<usize, RequestError> {
    value
        .parse()
        .map_err(|_| RequestError::Malformed(format!("unparseable content-length {value:?}")))
}

/// Human-readable reason phrase for the status codes the server emits.
pub(crate) fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The content type of every response except a checkpoint file's.
pub(crate) const JSON: &str = "application/json";

/// Writes a `Connection: close` response head; `headers` carries the body
/// framing and any other header, each line CRLF-terminated.
fn write_head(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    headers: &str,
) -> io::Result<()> {
    let reason = status_reason(status);
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n{headers}Connection: close\r\n\r\n"
    );
    stream.write_all(head.as_bytes())
}

/// Writes a complete `Connection: close` response carrying `body` as
/// `content_type`, optionally with a `Retry-After: <secs>` header — how a
/// load-shedding `503` tells clients when to come back. Raw bytes
/// (`application/octet-stream`) are how `GET /checkpoint/latest` ships a
/// checkpoint file verbatim, CRC framing included.
pub(crate) fn write_sized_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    retry_after: Option<u64>,
) -> io::Result<()> {
    let mut headers = format!("Content-Length: {}\r\n", body.len());
    if let Some(secs) = retry_after {
        headers += &format!("Retry-After: {secs}\r\n");
    }
    write_head(stream, status, content_type, &headers)?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a complete `Connection: close` response with a JSON body.
pub fn write_response(stream: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    write_sized_response(stream, status, JSON, body.as_bytes(), None)
}

/// Starts a streaming (chunked) `200` response; the body follows as
/// [`write_chunk`] calls, terminated by [`write_final_chunk`].
pub fn write_chunked_head(stream: &mut impl Write) -> io::Result<()> {
    write_head(stream, 200, JSON, "Transfer-Encoding: chunked\r\n")?;
    stream.flush()
}

/// Writes one chunk: its size line, `payload`, then `tail`, which ends in
/// the chunk's CRLF; the size counts what precedes that CRLF.
fn write_chunk_with(stream: &mut impl Write, payload: &[u8], tail: &[u8]) -> io::Result<()> {
    write!(stream, "{:x}\r\n", payload.len() + tail.len() - 2)?;
    stream.write_all(payload)?;
    stream.write_all(tail)?;
    stream.flush()
}

/// Writes one chunk carrying `payload` plus a trailing newline (the newline
/// gives subscribers line-delimited frames regardless of chunk boundaries).
pub fn write_chunk(stream: &mut impl Write, payload: &str) -> io::Result<()> {
    write_chunk_with(stream, payload.as_bytes(), b"\n\r\n")
}

/// Writes one chunk carrying raw bytes, with no trailing newline — the
/// framing the replication stream uses to ship sealed segment files
/// verbatim (segments are binary; a text terminator would corrupt them).
pub fn write_chunk_bytes(stream: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_chunk_with(stream, payload, b"\r\n")
}

/// Terminates a chunked response.
pub fn write_final_chunk(stream: &mut impl Write) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// A client-side view of a response: status code and the full body.
/// Chunked responses are read frame-by-frame instead, via `read_chunk`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The response body.
    pub body: String,
    /// The `Retry-After` header's value in seconds, if the server sent one
    /// (a load-shedding `503` does).
    pub retry_after: Option<u64>,
}

/// What a response head declared about its body framing.
pub(crate) enum BodyFraming {
    /// `Content-Length: n`.
    Sized(usize),
    /// `Transfer-Encoding: chunked` — read frames with [`read_chunk`].
    Chunked,
}

/// A parsed response head: the status, how the body is framed, and the
/// retry hint (if any) before the body has been read.
pub(crate) struct ResponseHead {
    /// The status code.
    pub status: u16,
    /// How the body is framed.
    pub framing: BodyFraming,
    /// The `Retry-After` header's value in seconds, if present.
    pub retry_after: Option<u64>,
}

/// Reads a response head, returning the status and how the body is framed.
pub(crate) fn read_response_head<R: BufRead>(reader: &mut R) -> io::Result<ResponseHead> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut head_bytes = 0;
    let status_line = read_head_line(reader, &mut head_bytes).map_err(request_error_to_io)?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("unparseable status line {status_line:?}")))?;
    let mut framing = BodyFraming::Sized(0);
    let mut retry_after = None;
    let headers = read_headers(reader, &mut head_bytes, false, |name, value| {
        match name {
            "content-length" => framing = BodyFraming::Sized(parse_content_length(value)?),
            "transfer-encoding" if value.eq_ignore_ascii_case("chunked") => {
                framing = BodyFraming::Chunked;
            }
            // Only the delta-seconds form is part of the dialect (the
            // HTTP-date form never is emitted by this server).
            "retry-after" => retry_after = value.parse().ok(),
            _ => {}
        }
        Ok(())
    });
    headers.map_err(request_error_to_io)?;
    Ok(ResponseHead {
        status,
        framing,
        retry_after,
    })
}

/// Reads a complete non-chunked response.
pub(crate) fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let head = read_response_head(reader)?;
    let body = match head.framing {
        BodyFraming::Sized(n) => String::from_utf8(read_body(reader, n)?)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?,
        BodyFraming::Chunked => {
            let mut body = String::new();
            while let Some(chunk) = read_chunk(reader)? {
                body.push_str(&chunk);
            }
            body
        }
    };
    Ok(Response {
        status: head.status,
        body,
        retry_after: head.retry_after,
    })
}

/// Reads one chunk of a chunked response; `None` means the final chunk
/// arrived and the stream is done.
pub(crate) fn read_chunk<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    match read_chunk_bytes(reader)? {
        Some(raw) => {
            let payload = String::from_utf8(raw)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "chunk is not UTF-8"))?;
            Ok(Some(payload))
        }
        None => Ok(None),
    }
}

/// Reads one chunk as raw bytes (no UTF-8 requirement) — the counterpart
/// of [`write_chunk_bytes`], used for segment payloads on the replication
/// stream. `None` means the final chunk arrived.
pub(crate) fn read_chunk_bytes<R: BufRead>(reader: &mut R) -> io::Result<Option<Vec<u8>>> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let size_line = read_head_line(reader, &mut 0).map_err(request_error_to_io)?;
    let size = usize::from_str_radix(size_line.trim(), 16)
        .map_err(|_| bad(format!("unparseable chunk size {size_line:?}")))?;
    if size == 0 {
        // Trailer section: skip to the blank line.
        loop {
            let line = read_head_line(reader, &mut 0).map_err(request_error_to_io)?;
            if line.is_empty() {
                break;
            }
        }
        return Ok(None);
    }
    let raw = read_body(reader, size)?;
    let mut crlf = [0u8; 2];
    reader.read_exact(&mut crlf)?;
    if &crlf != b"\r\n" {
        return Err(bad("chunk not CRLF-terminated".into()));
    }
    Ok(Some(raw))
}

fn request_error_to_io(err: RequestError) -> io::Error {
    match err {
        RequestError::Io(err) => err,
        RequestError::Malformed(msg) => io::Error::new(io::ErrorKind::InvalidData, msg),
        RequestError::BodyTooLarge { declared, limit } => io::Error::new(
            io::ErrorKind::InvalidData,
            format!("body of {declared} bytes exceeds {limit}"),
        ),
    }
}

/// Serializes `message` as the server's structured JSON error body.
pub fn error_body(message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 12);
    out.push_str("{\"error\": ");
    egraph_io::write_json_string(&mut out, message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str, max_body: usize) -> Result<Request, RequestError> {
        read_request(&mut BufReader::new(raw.as_bytes()), max_body)
    }

    #[test]
    fn parses_a_post_with_a_body() {
        let raw = "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let req = parse(raw, 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.body, "{\"a\":1}");
    }

    #[test]
    fn parses_a_bodyless_get_with_bare_newlines() {
        let req = parse("GET /stats HTTP/1.1\nHost: x\n\n", 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert_eq!(req.body, "");
    }

    #[test]
    fn oversized_declared_bodies_are_rejected_before_reading_them() {
        // Only the head is present: the rejection must come from the
        // declaration alone, not from draining a body we refuse to read.
        let raw = "POST /query HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        match parse(raw, 1024) {
            Err(RequestError::BodyTooLarge { declared, limit }) => {
                assert_eq!((declared, limit), (999_999, 1024));
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn malformed_heads_are_malformed_not_io() {
        for raw in [
            "POST\r\n\r\n",
            "POST /query\r\n\r\n",
            "POST /query SPDY/3\r\n\r\n",
            "POST /query HTTP/1.1\r\nContent-Length: seven\r\n\r\n",
            "POST /query HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nz",
            "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "POST /query HTTP/1.1\r\nno colon here\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw, 1024), Err(RequestError::Malformed(_))),
                "{raw:?} must be Malformed"
            );
        }
    }

    #[test]
    fn a_colon_less_header_line_is_refused_in_requests_and_skipped_in_responses() {
        let raw = "GET /stats HTTP/1.1\r\nHost: x\r\nno colon here\r\n\r\n";
        assert!(matches!(
            parse(raw, 1024),
            Err(RequestError::Malformed(m)) if m.contains("without a colon")
        ));
        let wire = "HTTP/1.1 200 OK\r\nno colon here\r\nContent-Length: 2\r\n\
                    Retry-After: 3\r\n\r\nok";
        let response = read_response(&mut BufReader::new(wire.as_bytes())).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "ok");
        assert_eq!(response.retry_after, Some(3));
    }

    #[test]
    fn an_endless_head_line_is_refused_after_the_head_budget() {
        let mut reader = std::io::Cursor::new(vec![b'a'; 4 << 20]);
        assert!(matches!(
            read_request(&mut reader, 1024),
            Err(RequestError::Malformed(_))
        ));
        assert!(reader.position() <= MAX_HEAD_BYTES as u64 + 1);

        // Terminators count: a head of exactly the budget passes, one
        // byte more does not.
        let head = |path_len: usize| format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(path_len));
        assert_eq!(head(MAX_HEAD_BYTES - 18).len(), MAX_HEAD_BYTES);
        assert!(parse(&head(MAX_HEAD_BYTES - 18), 0).is_ok());
        assert!(matches!(
            parse(&head(MAX_HEAD_BYTES - 17), 0),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn a_response_head_shares_one_budget_across_its_lines() {
        let header = format!("x: {}\r\n", "a".repeat(1000));
        let wire = format!("HTTP/1.1 200 OK\r\n{}\r\n", header.repeat(9));
        let err = read_response_head(&mut BufReader::new(wire.as_bytes())).err();
        assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::InvalidData));
        let wire = format!("HTTP/1.1 200 OK\r\n{}\r\n", header.repeat(7));
        assert!(read_response_head(&mut BufReader::new(wire.as_bytes())).is_ok());
    }

    #[test]
    fn truncated_requests_are_io_errors() {
        for raw in [
            "",
            "POST /query HT",
            "POST /query HTTP/1.1\r\nContent-Length: 9\r\n\r\n{}",
        ] {
            assert!(
                matches!(parse(raw, 1024), Err(RequestError::Io(_))),
                "{raw:?} must be Io"
            );
        }
    }

    #[test]
    fn response_round_trips() {
        let mut wire = Vec::new();
        write_response(&mut wire, 422, "{\"error\": \"nope\"}").unwrap();
        let response = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(response.status, 422);
        assert_eq!(response.body, "{\"error\": \"nope\"}");
        assert_eq!(response.retry_after, None);
    }

    #[test]
    fn retry_after_round_trips_on_a_shed_response() {
        let mut wire = Vec::new();
        write_sized_response(
            &mut wire,
            503,
            JSON,
            b"{\"error\": \"overloaded\"}",
            Some(2),
        )
        .unwrap();
        let response = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(response.status, 503);
        assert_eq!(response.retry_after, Some(2));
        assert_eq!(response.body, "{\"error\": \"overloaded\"}");
    }

    #[test]
    fn chunked_frames_round_trip_in_order() {
        let mut wire = Vec::new();
        write_chunked_head(&mut wire).unwrap();
        write_chunk(&mut wire, "{\"seq\":0}").unwrap();
        write_chunk(&mut wire, "{\"seq\":1}").unwrap();
        write_final_chunk(&mut wire).unwrap();

        let mut reader = BufReader::new(wire.as_slice());
        let head = read_response_head(&mut reader).unwrap();
        assert_eq!(head.status, 200);
        assert!(matches!(head.framing, BodyFraming::Chunked));
        assert_eq!(read_chunk(&mut reader).unwrap().unwrap(), "{\"seq\":0}\n");
        assert_eq!(read_chunk(&mut reader).unwrap().unwrap(), "{\"seq\":1}\n");
        assert_eq!(read_chunk(&mut reader).unwrap(), None);
    }

    #[test]
    fn binary_chunks_round_trip_untouched_between_text_frames() {
        // The replication stream interleaves JSON header chunks with raw
        // binary segment chunks; both framings must coexist on one stream.
        let segment: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        let mut wire = Vec::new();
        write_chunked_head(&mut wire).unwrap();
        write_chunk(&mut wire, "{\"seq\": 0}").unwrap();
        write_chunk_bytes(&mut wire, &segment).unwrap();
        write_final_chunk(&mut wire).unwrap();

        let mut reader = BufReader::new(wire.as_slice());
        let head = read_response_head(&mut reader).unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(read_chunk(&mut reader).unwrap().unwrap(), "{\"seq\": 0}\n");
        assert_eq!(read_chunk_bytes(&mut reader).unwrap().unwrap(), segment);
        assert_eq!(read_chunk_bytes(&mut reader).unwrap(), None);
    }

    #[test]
    fn binary_responses_round_trip_every_byte() {
        let body: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        let mut wire = Vec::new();
        write_sized_response(&mut wire, 200, "application/octet-stream", &body, None).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        let head = read_response_head(&mut reader).unwrap();
        assert_eq!(head.status, 200);
        match head.framing {
            BodyFraming::Sized(n) => {
                let mut raw = vec![0u8; n];
                std::io::Read::read_exact(&mut reader, &mut raw).unwrap();
                assert_eq!(raw, body);
            }
            BodyFraming::Chunked => panic!("binary responses are sized, not chunked"),
        }
    }

    #[test]
    fn an_oversized_content_length_is_an_error_not_a_panic() {
        let wire = "HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n";
        let err = read_response(&mut BufReader::new(wire.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn an_oversized_chunk_size_is_an_error_not_a_panic() {
        let wire = "ffffffffffffffff\r\n";
        let err = read_chunk_bytes(&mut BufReader::new(wire.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn error_bodies_escape_their_message() {
        assert_eq!(
            error_body("bad \"window\"\n"),
            "{\"error\": \"bad \\\"window\\\"\\n\"}"
        );
    }
}
