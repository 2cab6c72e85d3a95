//! The `eole-store/v2` wire protocol: length-prefixed frames over TCP,
//! hand-rolled binary (de)serialization (the workspace has no crates.io
//! access, so framing and encoding follow the same discipline as
//! `eole_stats::json` — small, explicit, fully tested).
//!
//! ## Framing
//!
//! Every message is one *frame*: a 4-byte big-endian body length followed
//! by the body. Bodies longer than [`MAX_FRAME`] are rejected before any
//! allocation — a malicious or corrupted peer cannot make either side
//! reserve gigabytes. The body is one tag byte plus the message's fields;
//! integers are big-endian, strings and byte blobs are `u32` length +
//! raw bytes. A decoder must consume the body *exactly* — trailing bytes
//! are a protocol error, so a frame can never smuggle a second message.
//!
//! ## Messages
//!
//! | Request                  | Response(s)                               |
//! |--------------------------|-------------------------------------------|
//! | `Ping { proto }`         | `Pong { proto }` (version handshake)      |
//! | `Get { key, wait_ms }`   | `Hit { payload }` · `Lease` · `Busy`      |
//! | `Put { key, payload }`   | `Ok` (publishes; wakes lease waiters)     |
//! | `Abandon { key }`        | `Ok` (releases a lease without publishing)|
//! | `Stats`                  | `Stats(ServiceStats)`                     |
//!
//! Any request may instead draw `Err { code, msg }`. The single-flight
//! contract lives in `Get`: a cold key *grants the connection a lease*
//! (`Lease` — "you simulate, then `Put`"); concurrent `Get`s for the same
//! key block server-side up to `wait_ms` and return `Hit` as soon as the
//! lease holder publishes, or `Busy { retry_ms }` so the client polls.

use std::io::{Read, Write};

use crate::StoreError;

/// Protocol identifier exchanged in the `Ping`/`Pong` handshake; servers
/// reject clients speaking anything else. v2 added `leases_expired` to
/// the `Stats` response (the lease-TTL reclaim counter).
pub const PROTO_VERSION: &str = "eole-store/v2";

/// Hard ceiling on one frame's body (16 MiB), bounding what a broken peer
/// can make us allocate. Result payloads are ~2 KiB; warm checkpoints
/// travel in the same frames, and the largest measured entry (every
/// preset and value-predictor kind, `checkpoint_bytes_are_pinned`) is
/// 1,478,174 bytes, so one checkpoint uses under a tenth of a frame.
pub const MAX_FRAME: usize = 16 << 20;

/// Error code accompanying [`Response::Err`]: a generic/protocol failure.
pub const ERR_GENERIC: u8 = 0;
/// Error code accompanying [`Response::Err`]: the payload cannot be
/// admitted under the store's byte budget (maps to
/// [`StoreError::Evicted`] client-side).
pub const ERR_EVICTED: u8 = 1;

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Version handshake; first request on every connection.
    Ping {
        /// The protocol the client speaks ([`PROTO_VERSION`]).
        proto: String,
    },
    /// Single-flight lookup of `key`.
    Get {
        /// Store key (the `RunKey` file stem on the bench side).
        key: String,
        /// How long the server may hold the response waiting for another
        /// connection's lease to publish (0 = answer immediately).
        wait_ms: u32,
    },
    /// Publishes `payload` under `key` (and releases any lease on it).
    Put {
        /// Store key.
        key: String,
        /// Opaque payload bytes (the service never interprets them).
        payload: Vec<u8>,
    },
    /// Releases this connection's lease on `key` without publishing —
    /// the lease holder failed to produce the payload.
    Abandon {
        /// Store key.
        key: String,
    },
    /// Service counters snapshot.
    Stats,
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Handshake reply.
    Pong {
        /// The protocol the server speaks.
        proto: String,
    },
    /// The stored payload for the requested key.
    Hit {
        /// Opaque payload bytes as published.
        payload: Vec<u8>,
    },
    /// The key is cold and *this connection* now holds its single-flight
    /// lease: simulate, then `Put` (or `Abandon` on failure).
    Lease,
    /// Another connection holds the lease and it did not publish within
    /// the request's `wait_ms`; poll again after `retry_ms`.
    Busy {
        /// Suggested client-side delay before the next `Get`.
        retry_ms: u32,
    },
    /// The request succeeded with nothing to return (`Put`, `Abandon`).
    Ok,
    /// The request failed.
    Err {
        /// [`ERR_GENERIC`] or [`ERR_EVICTED`].
        code: u8,
        /// Human-readable cause.
        msg: String,
    },
    /// Service counters snapshot.
    Stats(ServiceStats),
}

/// Counters the service exposes over the wire (`Stats` request); the
/// bench layer surfaces `evictions` as the report header's
/// `evictions_observed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Entries currently stored.
    pub entries: u64,
    /// Total stored payload bytes.
    pub bytes: u64,
    /// `Get`s served from the store.
    pub hits: u64,
    /// `Get`s that found no entry (each grants or queues on a lease).
    pub misses: u64,
    /// Payloads published.
    pub puts: u64,
    /// Entries evicted by the byte/entry budget sweep.
    pub evictions: u64,
    /// Single-flight leases granted.
    pub leases_granted: u64,
    /// `Get`s that waited on another connection's lease (served `Hit`
    /// after a wait or `Busy` on expiry).
    pub lease_waits: u64,
    /// Leases reclaimed because the holder exceeded the TTL without
    /// publishing or abandoning (crashed/wedged holder; the key is
    /// re-granted to the next requester).
    pub leases_expired: u64,
}

// ---- frame I/O -----------------------------------------------------------

fn io_error(context: &str, e: &std::io::Error) -> StoreError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            StoreError::Timeout(format!("{context}: {e}"))
        }
        _ => StoreError::Io(format!("{context}: {e}")),
    }
}

/// Writes one frame (length prefix + body).
///
/// # Errors
///
/// [`StoreError::Protocol`] if `body` exceeds [`MAX_FRAME`];
/// [`StoreError::Io`]/[`StoreError::Timeout`] on transport failure.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), StoreError> {
    if body.len() > MAX_FRAME {
        return Err(StoreError::Protocol(format!(
            "outgoing frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
            body.len()
        )));
    }
    let len = (body.len() as u32).to_be_bytes();
    w.write_all(&len).map_err(|e| io_error("write frame length", &e))?;
    w.write_all(body).map_err(|e| io_error("write frame body", &e))?;
    w.flush().map_err(|e| io_error("flush frame", &e))
}

/// Reads one frame body.
///
/// # Errors
///
/// [`StoreError::Protocol`] on an oversized length prefix;
/// [`StoreError::Io`] on EOF (including mid-frame truncation) and
/// [`StoreError::Timeout`] when the peer's read deadline passes.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, StoreError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len).map_err(|e| io_error("read frame length", &e))?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(StoreError::Protocol(format!(
            "incoming frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| io_error("read frame body", &e))?;
    Ok(body)
}

// ---- body encoding -------------------------------------------------------

const TAG_PING: u8 = 0x01;
const TAG_GET: u8 = 0x02;
const TAG_PUT: u8 = 0x03;
const TAG_ABANDON: u8 = 0x04;
const TAG_STATS: u8 = 0x05;

const TAG_PONG: u8 = 0x81;
const TAG_HIT: u8 = 0x82;
const TAG_LEASE: u8 = 0x83;
const TAG_BUSY: u8 = 0x84;
const TAG_OK: u8 = 0x85;
const TAG_ERR: u8 = 0x86;
const TAG_STATS_RESP: u8 = 0x87;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Sequential reader over a frame body; every accessor fails with a
/// [`StoreError::Protocol`] instead of panicking on truncated input.
struct BodyReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn new(body: &'a [u8]) -> Self {
        BodyReader { body, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.body.len()).ok_or_else(|| {
            StoreError::Protocol(format!("truncated frame: {what} needs {n} more bytes"))
        })?;
        let s = &self.body[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, StoreError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        let b = self.take(4, what)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let b = self.take(8, what)?;
        Ok(u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn bytes(&mut self, what: &str) -> Result<Vec<u8>, StoreError> {
        let len = self.u32(what)? as usize;
        Ok(self.take(len, what)?.to_vec())
    }

    fn str(&mut self, what: &str) -> Result<String, StoreError> {
        String::from_utf8(self.bytes(what)?)
            .map_err(|_| StoreError::Protocol(format!("{what} is not valid UTF-8")))
    }

    fn finish(self, what: &str) -> Result<(), StoreError> {
        if self.pos != self.body.len() {
            return Err(StoreError::Protocol(format!(
                "{what}: {} trailing byte(s) after the message",
                self.body.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Encodes a request into a frame body.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match req {
        Request::Ping { proto } => {
            out.push(TAG_PING);
            put_str(&mut out, proto);
        }
        Request::Get { key, wait_ms } => {
            out.push(TAG_GET);
            put_str(&mut out, key);
            put_u32(&mut out, *wait_ms);
        }
        Request::Put { key, payload } => {
            out.push(TAG_PUT);
            put_str(&mut out, key);
            put_bytes(&mut out, payload);
        }
        Request::Abandon { key } => {
            out.push(TAG_ABANDON);
            put_str(&mut out, key);
        }
        Request::Stats => out.push(TAG_STATS),
    }
    out
}

/// Decodes a request frame body.
///
/// # Errors
///
/// [`StoreError::Protocol`] on an unknown tag, truncated fields, invalid
/// UTF-8, or trailing bytes.
pub fn decode_request(body: &[u8]) -> Result<Request, StoreError> {
    let mut r = BodyReader::new(body);
    let req = match r.u8("request tag")? {
        TAG_PING => Request::Ping { proto: r.str("ping proto")? },
        TAG_GET => Request::Get { key: r.str("get key")?, wait_ms: r.u32("get wait_ms")? },
        TAG_PUT => Request::Put { key: r.str("put key")?, payload: r.bytes("put payload")? },
        TAG_ABANDON => Request::Abandon { key: r.str("abandon key")? },
        TAG_STATS => Request::Stats,
        tag => return Err(StoreError::Protocol(format!("unknown request tag 0x{tag:02x}"))),
    };
    r.finish("request")?;
    Ok(req)
}

/// Encodes a response into a frame body.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match resp {
        Response::Pong { proto } => {
            out.push(TAG_PONG);
            put_str(&mut out, proto);
        }
        Response::Hit { payload } => {
            out.push(TAG_HIT);
            put_bytes(&mut out, payload);
        }
        Response::Lease => out.push(TAG_LEASE),
        Response::Busy { retry_ms } => {
            out.push(TAG_BUSY);
            put_u32(&mut out, *retry_ms);
        }
        Response::Ok => out.push(TAG_OK),
        Response::Err { code, msg } => {
            out.push(TAG_ERR);
            out.push(*code);
            put_str(&mut out, msg);
        }
        Response::Stats(s) => {
            out.push(TAG_STATS_RESP);
            for v in [
                s.entries,
                s.bytes,
                s.hits,
                s.misses,
                s.puts,
                s.evictions,
                s.leases_granted,
                s.lease_waits,
                s.leases_expired,
            ] {
                put_u64(&mut out, v);
            }
        }
    }
    out
}

/// Decodes a response frame body.
///
/// # Errors
///
/// As [`decode_request`].
pub fn decode_response(body: &[u8]) -> Result<Response, StoreError> {
    let mut r = BodyReader::new(body);
    let resp = match r.u8("response tag")? {
        TAG_PONG => Response::Pong { proto: r.str("pong proto")? },
        TAG_HIT => Response::Hit { payload: r.bytes("hit payload")? },
        TAG_LEASE => Response::Lease,
        TAG_BUSY => Response::Busy { retry_ms: r.u32("busy retry_ms")? },
        TAG_OK => Response::Ok,
        TAG_ERR => Response::Err { code: r.u8("err code")?, msg: r.str("err msg")? },
        TAG_STATS_RESP => Response::Stats(ServiceStats {
            entries: r.u64("stats entries")?,
            bytes: r.u64("stats bytes")?,
            hits: r.u64("stats hits")?,
            misses: r.u64("stats misses")?,
            puts: r.u64("stats puts")?,
            evictions: r.u64("stats evictions")?,
            leases_granted: r.u64("stats leases_granted")?,
            lease_waits: r.u64("stats lease_waits")?,
            leases_expired: r.u64("stats leases_expired")?,
        }),
        tag => return Err(StoreError::Protocol(format!("unknown response tag 0x{tag:02x}"))),
    };
    r.finish("response")?;
    Ok(resp)
}

/// True iff `key` is safe to use verbatim as a store file stem: non-empty,
/// bounded, and drawn from the same alphabet `RunKey::file_stem` emits
/// (ASCII alphanumerics, `_`, `-`). The server enforces this on every
/// keyed request, so a hostile key can never escape the store directory.
pub fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key.len() <= 512
        && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_message_round_trips() {
        let requests = [
            Request::Ping { proto: PROTO_VERSION.to_string() },
            Request::Get { key: "a-key_0".into(), wait_ms: 250 },
            Request::Put { key: "k".into(), payload: vec![0, 1, 2, 255] },
            Request::Abandon { key: "k".into() },
            Request::Stats,
        ];
        for req in &requests {
            assert_eq!(&decode_request(&encode_request(req)).unwrap(), req);
        }
        let responses = [
            Response::Pong { proto: PROTO_VERSION.to_string() },
            Response::Hit { payload: b"{}".to_vec() },
            Response::Lease,
            Response::Busy { retry_ms: 50 },
            Response::Ok,
            Response::Err { code: ERR_EVICTED, msg: "too big".into() },
            Response::Stats(ServiceStats {
                entries: 1,
                bytes: 2,
                hits: 3,
                misses: 4,
                puts: 5,
                evictions: 6,
                leases_granted: 7,
                lease_waits: 8,
                leases_expired: 9,
            }),
        ];
        for resp in &responses {
            assert_eq!(&decode_response(&encode_response(resp)).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_bodies_are_protocol_errors_not_panics() {
        let full = encode_request(&Request::Put { key: "abc".into(), payload: vec![1, 2, 3] });
        for cut in 0..full.len() {
            match decode_request(&full[..cut]) {
                Err(StoreError::Protocol(_)) => {}
                other => panic!("cut at {cut}: expected a protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = encode_request(&Request::Stats);
        body.push(0);
        assert!(matches!(decode_request(&body), Err(StoreError::Protocol(_))));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(decode_request(&[0x7f]), Err(StoreError::Protocol(_))));
        assert!(matches!(decode_response(&[0x10]), Err(StoreError::Protocol(_))));
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_sides() {
        // Write side: refuse to emit.
        let huge = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        assert!(matches!(write_frame(&mut sink, &huge), Err(StoreError::Protocol(_))));
        // Read side: refuse the length prefix before allocating.
        let mut wire = Vec::new();
        wire.extend_from_slice(&((MAX_FRAME as u32) + 1).to_be_bytes());
        let mut r = wire.as_slice();
        assert!(matches!(read_frame(&mut r), Err(StoreError::Protocol(_))));
    }

    #[test]
    fn frames_round_trip_over_a_byte_pipe() {
        let body = encode_request(&Request::Get { key: "k".into(), wait_ms: 7 });
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), body);
        assert!(r.is_empty(), "frame consumed exactly");
    }

    #[test]
    fn truncated_frame_on_the_wire_is_an_io_error() {
        let body = encode_request(&Request::Stats);
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        wire.pop();
        let mut r = wire.as_slice();
        assert!(matches!(read_frame(&mut r), Err(StoreError::Io(_))));
    }

    #[test]
    fn key_validation_blocks_path_escapes() {
        assert!(valid_key("gzip__EOLE_4_64__v1_w10000_m25000_s0__0123-abcd"));
        assert!(!valid_key(""));
        assert!(!valid_key("../escape"));
        assert!(!valid_key("a/b"));
        assert!(!valid_key("a.json"));
        assert!(!valid_key(&"x".repeat(513)));
    }
}
