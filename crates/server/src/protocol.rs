//! The wire protocol: length-prefixed binary frames over any byte stream.
//!
//! Every frame is an 8-byte header followed by a payload:
//!
//! ```text
//!   +------+------+---------+--------+----------------+---------------+
//!   | 'X'  | 'J'  | version | opcode | length (u32 BE)| payload bytes |
//!   +------+------+---------+--------+----------------+---------------+
//! ```
//!
//! Integers are big-endian throughout. Strings are UTF-8, length-prefixed
//! (`u16` for column names, `u32` for value payloads and free text). The
//! payload length is capped at [`MAX_PAYLOAD`]; a peer announcing more is
//! malformed and the connection is dropped after an `ERR` reply.
//!
//! Request opcodes: [`op::QUERY`] (one-shot: options + request knobs + MMQL
//! text), [`op::PREPARE`] (options + MMQL text → statement id),
//! [`op::EXEC`] (statement id + request knobs), [`op::STATS`] (format
//! byte), [`op::SHUTDOWN`]. Response opcodes: [`op::ROWS`],
//! [`op::PREPARED`], [`op::STATS_REPLY`], [`op::BYE`], [`op::ERR`],
//! [`op::OVERLOAD`].
//!
//! [`ExecOptions`] travel as a compact self-delimiting encoding
//! ([`encode_options`] / [`decode_options`]); the same bytes double as the
//! server's prepared-statement cache key, so two requests hit the same
//! cached statement exactly when their options encode identically. The
//! [`xjoin_core::OrderStrategy::Given`] variant is not representable on the
//! wire (clients name strategies, not attribute lists).
//!
//! Version 2 dropped two fields version 1 carried: a 5-byte parallelism
//! tail after the limit, and an arrival-order flag bit. A request can no
//! longer ask the server to spawn threads on its behalf; version-1 frames
//! are rejected as malformed at the header.

use relational::Value;
use std::io::{self, Read, Write};
use xjoin_core::{EngineKind, ExecOptions, Ladder, OrderStrategy};

/// Protocol magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"XJ";
/// Protocol version carried in every frame header.
pub const VERSION: u8 = 2;
/// Upper bound on a frame payload (16 MiB): anything larger is malformed.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Frame opcodes.
pub mod op {
    /// One-shot query: `[options][deadline_ms u32][row_budget u64][MMQL]`.
    pub const QUERY: u8 = 0x01;
    /// Prepare a statement: `[options][MMQL]` → [`PREPARED`].
    pub const PREPARE: u8 = 0x02;
    /// Execute a prepared statement:
    /// `[stmt_id u64][deadline_ms u32][row_budget u64]` → [`ROWS`].
    pub const EXEC: u8 = 0x03;
    /// Metrics scrape: `[format u8]` (0 = aligned text, 1 = JSON).
    pub const STATS: u8 = 0x04;
    /// Graceful shutdown: drain in-flight work, then stop.
    pub const SHUTDOWN: u8 = 0x05;

    /// Result rows: `[flags u8][ncols u32][names][nrows u64][cells]`.
    pub const ROWS: u8 = 0x81;
    /// Prepared ack: `[stmt_id u64][log2_bound f64][cached u8]`.
    pub const PREPARED: u8 = 0x82;
    /// Metrics reply: `[format u8][body]`.
    pub const STATS_REPLY: u8 = 0x83;
    /// Shutdown ack (the last frame the server sends on that connection).
    pub const BYE: u8 = 0x84;
    /// Request failed: `[code u8][message]`.
    pub const ERR: u8 = 0xE0;
    /// Admission refused the request:
    /// `[log2_bound f64][queue_depth u32][inflight_cost f64][message]`.
    pub const OVERLOAD: u8 = 0xE1;
}

/// Bit set in a [`op::ROWS`] flags byte when the result was cut short by
/// the request's row budget.
pub const ROWS_FLAG_TRUNCATED: u8 = 0x01;

/// Error codes carried by [`op::ERR`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request frame could not be decoded.
    Malformed = 0,
    /// The MMQL text did not parse.
    Parse = 1,
    /// The statement could not be prepared (unknown relation, bad output
    /// list, ...).
    Prepare = 2,
    /// `EXEC` named a statement id this server does not hold (never issued,
    /// or evicted from the statement cache).
    UnknownStmt = 3,
    /// Execution failed.
    Exec = 4,
    /// The request's deadline expired before a result was produced.
    Deadline = 5,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown = 6,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            0 => ErrorCode::Malformed,
            1 => ErrorCode::Parse,
            2 => ErrorCode::Prepare,
            3 => ErrorCode::UnknownStmt,
            4 => ErrorCode::Exec,
            5 => ErrorCode::Deadline,
            6 => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

/// Per-request knobs riding on `QUERY` and `EXEC` frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestOpts {
    /// Relative deadline in milliseconds; `0` means no deadline.
    pub deadline_ms: u32,
    /// Maximum result rows to produce; `0` means no budget.
    pub row_budget: u64,
}

/// A decoded result set.
#[derive(Debug, Clone, PartialEq)]
pub struct RowSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Decoded rows (dictionary values, not ids — the wire carries values).
    pub rows: Vec<Vec<Value>>,
    /// Whether the row budget cut the result short.
    pub truncated: bool,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A result set.
    Rows(RowSet),
    /// A statement was prepared (or found cached).
    Prepared {
        /// Server-issued statement id for `EXEC`.
        stmt_id: u64,
        /// `log2` of the statement's AGM bound on the snapshot it was
        /// priced against (`-inf` when some atom is empty).
        log2_bound: f64,
        /// Whether the statement was already in the server's cache.
        cached: bool,
    },
    /// A metrics snapshot.
    Stats {
        /// `0` = aligned text, `1` = JSON.
        format: u8,
        /// The rendered snapshot.
        body: String,
    },
    /// Shutdown acknowledged.
    Bye,
    /// The request failed.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Admission control refused the request.
    Overload {
        /// `log2` of the offending query's AGM bound.
        log2_bound: f64,
        /// Service queue depth at decision time.
        queue_depth: u32,
        /// Admitted-but-unfinished cost units at decision time.
        inflight_cost: f64,
        /// Human-readable detail.
        message: String,
    },
}

/// A protocol error: transport failure or an undecodable frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The bytes on the wire do not form a valid frame/payload.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Result alias for protocol operations.
pub type WireResult<T> = Result<T, WireError>;

fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    let mut header = [0u8; 8];
    header[..2].copy_from_slice(&MAGIC);
    header[2] = VERSION;
    header[3] = opcode;
    header[4..].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, validating magic, version, and payload cap. Returns
/// `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> WireResult<Option<(u8, Vec<u8>)>> {
    let mut header = [0u8; 8];
    match read_exact_or_eof(r, &mut header)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Partial(n) => {
            return Err(malformed(format!("truncated header: {n} of 8 bytes")))
        }
        ReadOutcome::Full => {}
    }
    if header[..2] != MAGIC {
        return Err(malformed("bad magic"));
    }
    if header[2] != VERSION {
        return Err(malformed(format!(
            "unsupported protocol version {}",
            header[2]
        )));
    }
    let len = u32::from_be_bytes(header[4..].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(malformed(format!("payload of {len} bytes exceeds cap")));
    }
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(r, &mut payload)? {
        ReadOutcome::Full => Ok(Some((header[3], payload))),
        ReadOutcome::Eof | ReadOutcome::Partial(_) => Err(malformed(format!(
            "truncated payload: expected {len} bytes"
        ))),
    }
}

enum ReadOutcome {
    Full,
    Eof,
    Partial(usize),
}

/// Like `read_exact`, but distinguishes EOF-before-any-byte (a clean close)
/// from EOF mid-buffer (a truncated frame).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial(filled)
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

// ---------------------------------------------------------------------------
// Primitive cursor

/// A read cursor over a payload, with length/UTF-8 validation on every step.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(malformed(format!(
                "payload underrun: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a big-endian `i64`.
    pub fn i64(&mut self) -> WireResult<i64> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` (IEEE bits, big-endian).
    pub fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    pub fn str16(&mut self) -> WireResult<String> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid UTF-8"))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str32(&mut self) -> WireResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid UTF-8"))
    }

    /// Consumes the rest of the payload as UTF-8 text.
    pub fn rest_str(&mut self) -> WireResult<String> {
        let bytes = &self.buf[self.pos..];
        self.pos = self.buf.len();
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid UTF-8"))
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the whole payload was consumed.
    pub fn finish(self) -> WireResult<()> {
        if self.pos != self.buf.len() {
            return Err(malformed(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_str16(out: &mut Vec<u8>, s: &str) {
    let n = s.len().min(u16::MAX as usize) as u16;
    out.extend_from_slice(&n.to_be_bytes());
    out.extend_from_slice(&s.as_bytes()[..n as usize]);
}

fn put_str32(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// ExecOptions encoding (doubles as the statement-cache key)

const ENGINE_XJOIN: u8 = 0;
const ENGINE_XJOIN_STREAM: u8 = 1;
const ENGINE_LFTJ: u8 = 2;
const ENGINE_GENERIC: u8 = 3;

/// Appends the self-delimiting encoding of `opts` to `out`.
///
/// The encoding is canonical — equal options always produce equal bytes —
/// so the server keys its statement cache directly on these bytes.
pub fn encode_options(out: &mut Vec<u8>, opts: &ExecOptions) {
    match opts.engine {
        EngineKind::XJoin => out.push(ENGINE_XJOIN),
        EngineKind::XJoinStream => out.push(ENGINE_XJOIN_STREAM),
        EngineKind::Lftj => out.push(ENGINE_LFTJ),
        EngineKind::Generic => out.push(ENGINE_GENERIC),
    }
    match &opts.order {
        OrderStrategy::Appearance => out.push(0),
        OrderStrategy::Cardinality => out.push(1),
        // Adaptive carries its ladder rung in a sub-byte so options differing
        // only by rung key distinct statement-cache entries.
        OrderStrategy::Adaptive { ladder } => {
            out.push(2);
            out.push(match ladder {
                Ladder::RowCount => 0,
                Ladder::Distinct => 1,
                Ladder::Refined => 2,
            });
        }
        // `Given` carries attribute lists the wire does not name; callers
        // must pick a named strategy. Servers never see this byte — it is
        // rejected client-side in `Client` and decodes to an error anyway.
        OrderStrategy::Given(_) => out.push(0xFF),
    }
    let mut flags = 0u8;
    if opts.partial_validation {
        flags |= 1;
    }
    if opts.ad_filter {
        flags |= 2;
    }
    out.push(flags);
    out.extend_from_slice(&(opts.limit.map_or(u64::MAX, |l| l as u64)).to_be_bytes());
}

/// Decodes an [`encode_options`] prefix from the cursor.
pub fn decode_options(c: &mut Cursor<'_>) -> WireResult<ExecOptions> {
    let engine = match c.u8()? {
        ENGINE_XJOIN => EngineKind::XJoin,
        ENGINE_XJOIN_STREAM => EngineKind::XJoinStream,
        ENGINE_LFTJ => EngineKind::Lftj,
        ENGINE_GENERIC => EngineKind::Generic,
        b => return Err(malformed(format!("unknown engine tag {b}"))),
    };
    let order = match c.u8()? {
        0 => OrderStrategy::Appearance,
        1 => OrderStrategy::Cardinality,
        2 => {
            let ladder = match c.u8()? {
                0 => Ladder::RowCount,
                1 => Ladder::Distinct,
                2 => Ladder::Refined,
                b => return Err(malformed(format!("unknown ladder rung {b}"))),
            };
            OrderStrategy::Adaptive { ladder }
        }
        b => return Err(malformed(format!("unknown order strategy {b}"))),
    };
    let flags = c.u8()?;
    if flags & !0b11 != 0 {
        return Err(malformed(format!("unknown option flags {flags:#x}")));
    }
    let limit = match c.u64()? {
        u64::MAX => None,
        l => Some(l as usize),
    };
    Ok(ExecOptions {
        engine,
        order,
        partial_validation: flags & 1 != 0,
        ad_filter: flags & 2 != 0,
        limit,
    })
}

/// The canonical cache-key bytes for `opts` (an [`encode_options`] run).
pub fn options_key(opts: &ExecOptions) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    encode_options(&mut out, opts);
    out
}

// ---------------------------------------------------------------------------
// Request payloads

/// Encodes a `QUERY` payload.
pub fn encode_query(opts: &ExecOptions, req: RequestOpts, text: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + text.len());
    encode_options(&mut out, opts);
    out.extend_from_slice(&req.deadline_ms.to_be_bytes());
    out.extend_from_slice(&req.row_budget.to_be_bytes());
    out.extend_from_slice(text.as_bytes());
    out
}

/// Decodes a `QUERY` payload into `(options, request knobs, MMQL text)`.
pub fn decode_query(payload: &[u8]) -> WireResult<(ExecOptions, RequestOpts, String)> {
    let mut c = Cursor::new(payload);
    let opts = decode_options(&mut c)?;
    let req = RequestOpts {
        deadline_ms: c.u32()?,
        row_budget: c.u64()?,
    };
    let text = c.rest_str()?;
    Ok((opts, req, text))
}

/// Encodes a `PREPARE` payload.
pub fn encode_prepare(opts: &ExecOptions, text: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + text.len());
    encode_options(&mut out, opts);
    out.extend_from_slice(text.as_bytes());
    out
}

/// Decodes a `PREPARE` payload into `(options, MMQL text)`.
pub fn decode_prepare(payload: &[u8]) -> WireResult<(ExecOptions, String)> {
    let mut c = Cursor::new(payload);
    let opts = decode_options(&mut c)?;
    let text = c.rest_str()?;
    Ok((opts, text))
}

/// Encodes an `EXEC` payload.
pub fn encode_exec(stmt_id: u64, req: RequestOpts) -> Vec<u8> {
    let mut out = Vec::with_capacity(20);
    out.extend_from_slice(&stmt_id.to_be_bytes());
    out.extend_from_slice(&req.deadline_ms.to_be_bytes());
    out.extend_from_slice(&req.row_budget.to_be_bytes());
    out
}

/// Decodes an `EXEC` payload into `(stmt_id, request knobs)`.
pub fn decode_exec(payload: &[u8]) -> WireResult<(u64, RequestOpts)> {
    let mut c = Cursor::new(payload);
    let stmt_id = c.u64()?;
    let req = RequestOpts {
        deadline_ms: c.u32()?,
        row_budget: c.u64()?,
    };
    c.finish()?;
    Ok((stmt_id, req))
}

// ---------------------------------------------------------------------------
// Response payloads

const VALUE_INT: u8 = 0;
const VALUE_STR: u8 = 1;

/// Encodes a `ROWS` payload from decoded values.
pub fn encode_rows(columns: &[String], rows: &[Vec<Value>], truncated: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + rows.len() * 16);
    out.push(if truncated { ROWS_FLAG_TRUNCATED } else { 0 });
    out.extend_from_slice(&(columns.len() as u32).to_be_bytes());
    for name in columns {
        put_str16(&mut out, name);
    }
    out.extend_from_slice(&(rows.len() as u64).to_be_bytes());
    for row in rows {
        debug_assert_eq!(row.len(), columns.len());
        for v in row {
            match v {
                Value::Int(i) => {
                    out.push(VALUE_INT);
                    out.extend_from_slice(&i.to_be_bytes());
                }
                Value::Str(s) => {
                    out.push(VALUE_STR);
                    put_str32(&mut out, s);
                }
            }
        }
    }
    out
}

fn decode_rows(payload: &[u8]) -> WireResult<RowSet> {
    let mut c = Cursor::new(payload);
    let flags = c.u8()?;
    // Both counts come off the wire: check each against what the rest of
    // the payload can back before allocating for it. A column name is at
    // least its 2-byte length, a cell at least 5 bytes (tag + empty string).
    let ncols = c.u32()? as usize;
    if ncols > c.remaining() / 2 {
        return Err(malformed("column count exceeds payload size"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(c.str16()?);
    }
    let nrows = usize::try_from(c.u64()?).unwrap_or(usize::MAX);
    // A zero-column result is a set over no attributes: empty or one row.
    let max_rows = if ncols == 0 {
        1
    } else {
        c.remaining() / (5 * ncols)
    };
    if nrows > max_rows {
        return Err(malformed("row count exceeds payload size"));
    }
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(match c.u8()? {
                VALUE_INT => Value::Int(c.i64()?),
                VALUE_STR => Value::Str(c.str32()?),
                b => return Err(malformed(format!("unknown value tag {b}"))),
            });
        }
        rows.push(row);
    }
    c.finish()?;
    Ok(RowSet {
        columns,
        rows,
        truncated: flags & ROWS_FLAG_TRUNCATED != 0,
    })
}

/// Encodes a `PREPARED` payload.
pub fn encode_prepared(stmt_id: u64, log2_bound: f64, cached: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    out.extend_from_slice(&stmt_id.to_be_bytes());
    out.extend_from_slice(&log2_bound.to_bits().to_be_bytes());
    out.push(cached as u8);
    out
}

/// Encodes a `STATS_REPLY` payload.
pub fn encode_stats_reply(format: u8, body: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(format);
    out.extend_from_slice(body.as_bytes());
    out
}

/// Encodes an `ERR` payload.
pub fn encode_err(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + message.len());
    out.push(code as u8);
    out.extend_from_slice(message.as_bytes());
    out
}

/// Encodes an `OVERLOAD` payload.
pub fn encode_overload(
    log2_bound: f64,
    queue_depth: u32,
    inflight_cost: f64,
    message: &str,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(20 + message.len());
    out.extend_from_slice(&log2_bound.to_bits().to_be_bytes());
    out.extend_from_slice(&queue_depth.to_be_bytes());
    out.extend_from_slice(&inflight_cost.to_bits().to_be_bytes());
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decodes any response frame into a [`Response`].
pub fn decode_response(opcode: u8, payload: &[u8]) -> WireResult<Response> {
    match opcode {
        op::ROWS => Ok(Response::Rows(decode_rows(payload)?)),
        op::PREPARED => {
            let mut c = Cursor::new(payload);
            let stmt_id = c.u64()?;
            let log2_bound = c.f64()?;
            let cached = c.u8()? != 0;
            c.finish()?;
            Ok(Response::Prepared {
                stmt_id,
                log2_bound,
                cached,
            })
        }
        op::STATS_REPLY => {
            let mut c = Cursor::new(payload);
            let format = c.u8()?;
            let body = c.rest_str()?;
            Ok(Response::Stats { format, body })
        }
        op::BYE => Ok(Response::Bye),
        op::ERR => {
            let mut c = Cursor::new(payload);
            let code =
                ErrorCode::from_u8(c.u8()?).ok_or_else(|| malformed("unknown error code"))?;
            let message = c.rest_str()?;
            Ok(Response::Error { code, message })
        }
        op::OVERLOAD => {
            let mut c = Cursor::new(payload);
            let log2_bound = c.f64()?;
            let queue_depth = c.u32()?;
            let inflight_cost = c.f64()?;
            let message = c.rest_str()?;
            Ok(Response::Overload {
                log2_bound,
                queue_depth,
                inflight_cost,
                message,
            })
        }
        b => Err(malformed(format!("unknown response opcode {b:#x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_option_variants() -> Vec<ExecOptions> {
        let mut v = Vec::new();
        for kind in EngineKind::all() {
            v.push(ExecOptions::for_engine(kind));
        }
        v.push(ExecOptions {
            engine: EngineKind::XJoinStream,
            order: OrderStrategy::Cardinality,
            partial_validation: true,
            ad_filter: true,
            limit: Some(7),
        });
        for ladder in [Ladder::RowCount, Ladder::Distinct, Ladder::Refined] {
            v.push(ExecOptions {
                order: OrderStrategy::Adaptive { ladder },
                ..Default::default()
            });
        }
        v
    }

    #[test]
    fn options_round_trip_every_variant() {
        for opts in all_option_variants() {
            let bytes = options_key(&opts);
            let mut c = Cursor::new(&bytes);
            let back = decode_options(&mut c).unwrap();
            c.finish().unwrap();
            // ExecOptions lacks Eq; compare the canonical encodings.
            assert_eq!(bytes, options_key(&back), "{opts:?}");
        }
    }

    #[test]
    fn adaptive_rungs_key_distinct_cache_entries() {
        let key = |ladder| {
            options_key(&ExecOptions {
                order: OrderStrategy::Adaptive { ladder },
                ..Default::default()
            })
        };
        let (a, b, c) = (
            key(Ladder::RowCount),
            key(Ladder::Distinct),
            key(Ladder::Refined),
        );
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
        let static_key = options_key(&ExecOptions::default());
        assert_ne!(c, static_key);
    }

    #[test]
    fn unknown_flag_bits_and_retired_engine_tags_are_rejected() {
        let mut bytes = options_key(&ExecOptions::default());
        // Layout: engine, order, flags, limit.
        bytes[2] |= 4;
        assert!(decode_options(&mut Cursor::new(&bytes)).is_err());
        for tag in [4u8, 5] {
            let mut bytes = options_key(&ExecOptions::default());
            bytes[0] = tag;
            assert!(decode_options(&mut Cursor::new(&bytes)).is_err());
        }
    }

    #[test]
    fn given_order_is_not_encodable() {
        let opts = ExecOptions {
            order: OrderStrategy::Given(vec![]),
            ..Default::default()
        };
        let bytes = options_key(&opts);
        let mut c = Cursor::new(&bytes);
        assert!(decode_options(&mut c).is_err());
    }

    #[test]
    fn query_payload_round_trip() {
        let opts = ExecOptions::default();
        let req = RequestOpts {
            deadline_ms: 250,
            row_budget: 10,
        };
        let payload = encode_query(&opts, req, "Q(a) :- R(a)");
        let (opts2, req2, text) = decode_query(&payload).unwrap();
        assert_eq!(options_key(&opts), options_key(&opts2));
        assert_eq!(req2, req);
        assert_eq!(text, "Q(a) :- R(a)");
    }

    #[test]
    fn exec_payload_round_trip_and_trailing_bytes_rejected() {
        let payload = encode_exec(42, RequestOpts::default());
        assert_eq!(decode_exec(&payload).unwrap().0, 42);
        let mut long = payload.clone();
        long.push(9);
        assert!(decode_exec(&long).is_err());
        assert!(decode_exec(&payload[..payload.len() - 1]).is_err());
    }

    #[test]
    fn rows_round_trip() {
        let columns = vec!["a".to_string(), "b".to_string()];
        let rows = vec![
            vec![Value::Int(-5), Value::str("x")],
            vec![Value::Int(7), Value::str("")],
        ];
        let payload = encode_rows(&columns, &rows, true);
        let set = decode_rows(&payload).unwrap();
        assert_eq!(set.columns, columns);
        assert_eq!(set.rows, rows);
        assert!(set.truncated);
    }

    #[test]
    fn frame_round_trip_and_bad_magic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, op::STATS, &[1]).unwrap();
        let mut r = &buf[..];
        let (opcode, payload) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(opcode, op::STATS);
        assert_eq!(payload, vec![1]);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        let mut bad = buf.clone();
        bad[0] = b'Z';
        assert!(read_frame(&mut &bad[..]).is_err());
        let mut wrong_version = buf.clone();
        wrong_version[2] = 9;
        assert!(read_frame(&mut &wrong_version[..]).is_err());
        // Truncated payload: header promises more than the stream holds.
        let truncated = &buf[..buf.len() - 1];
        assert!(read_frame(&mut &truncated[..]).is_err());
        // Oversized announced length.
        let mut huge = buf.clone();
        huge[4..8].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_be_bytes());
        assert!(read_frame(&mut &huge[..]).is_err());
    }

    #[test]
    fn response_decoding_covers_every_opcode() {
        let r = decode_response(op::PREPARED, &encode_prepared(3, 12.5, true)).unwrap();
        assert_eq!(
            r,
            Response::Prepared {
                stmt_id: 3,
                log2_bound: 12.5,
                cached: true
            }
        );
        let r = decode_response(op::STATS_REPLY, &encode_stats_reply(1, "{}")).unwrap();
        assert_eq!(
            r,
            Response::Stats {
                format: 1,
                body: "{}".into()
            }
        );
        assert_eq!(decode_response(op::BYE, &[]).unwrap(), Response::Bye);
        let r = decode_response(op::ERR, &encode_err(ErrorCode::Parse, "nope")).unwrap();
        assert_eq!(
            r,
            Response::Error {
                code: ErrorCode::Parse,
                message: "nope".into()
            }
        );
        let r = decode_response(op::OVERLOAD, &encode_overload(40.0, 2, 64.0, "busy")).unwrap();
        match r {
            Response::Overload {
                log2_bound,
                queue_depth,
                ..
            } => {
                assert_eq!(log2_bound, 40.0);
                assert_eq!(queue_depth, 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(decode_response(0x7F, &[]).is_err());
    }
}
