//! A minimal blocking client for the wire protocol.
//!
//! One [`Client`] wraps one TCP connection; requests are strictly
//! sequential (send one frame, read one reply). Every method returns the
//! decoded [`Response`], including error and overload replies — transport
//! and framing failures surface as [`WireError`].

use crate::protocol::{self as proto, op, RequestOpts, Response, RowSet, WireError, WireResult};
use std::net::{TcpStream, ToSocketAddrs};
use xjoin_core::{ExecOptions, OrderStrategy};

/// A blocking protocol client.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    fn round_trip(&mut self, opcode: u8, payload: &[u8]) -> WireResult<Response> {
        proto::write_frame(&mut self.stream, opcode, payload)?;
        match proto::read_frame(&mut self.stream)? {
            Some((op, payload)) => proto::decode_response(op, &payload),
            None => Err(WireError::Malformed(
                "server closed the connection without replying".to_string(),
            )),
        }
    }

    fn check_options(opts: &ExecOptions) -> WireResult<()> {
        if matches!(opts.order, OrderStrategy::Given(_)) {
            return Err(WireError::Malformed(
                "OrderStrategy::Given is not representable on the wire".to_string(),
            ));
        }
        Ok(())
    }

    /// One-shot query: options + request knobs + MMQL text.
    pub fn query(
        &mut self,
        text: &str,
        opts: &ExecOptions,
        req: RequestOpts,
    ) -> WireResult<Response> {
        Self::check_options(opts)?;
        self.round_trip(op::QUERY, &proto::encode_query(opts, req, text))
    }

    /// Prepares a statement; on success the response carries its id and
    /// `log2` AGM bound.
    pub fn prepare(&mut self, text: &str, opts: &ExecOptions) -> WireResult<Response> {
        Self::check_options(opts)?;
        self.round_trip(op::PREPARE, &proto::encode_prepare(opts, text))
    }

    /// Executes a prepared statement.
    pub fn exec(&mut self, stmt_id: u64, req: RequestOpts) -> WireResult<Response> {
        self.round_trip(op::EXEC, &proto::encode_exec(stmt_id, req))
    }

    /// Scrapes the server's metrics (`format` 0 = aligned text, 1 = JSON).
    pub fn stats(&mut self, format: u8) -> WireResult<Response> {
        self.round_trip(op::STATS, &[format])
    }

    /// Requests a graceful shutdown; the server drains in-flight work.
    pub fn shutdown(&mut self) -> WireResult<Response> {
        self.round_trip(op::SHUTDOWN, &[])
    }

    /// Sends raw bytes down the connection (test hook for malformed-input
    /// coverage) and tries to read one reply.
    pub fn send_raw(&mut self, bytes: &[u8]) -> WireResult<Option<Response>> {
        use std::io::Write;
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        match proto::read_frame(&mut self.stream)? {
            Some((op, payload)) => Ok(Some(proto::decode_response(op, &payload)?)),
            None => Ok(None),
        }
    }
}

/// Unwraps a [`Response::Rows`], panicking with the actual reply otherwise.
/// Test/demo helper for call sites that require success.
pub fn expect_rows(resp: Response) -> RowSet {
    match resp {
        Response::Rows(rows) => rows,
        other => panic!("expected rows, got {other:?}"),
    }
}
