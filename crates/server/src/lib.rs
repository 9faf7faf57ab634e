//! A networked serving front end for the multi-model join engine.
//!
//! This crate turns the in-process serving stack
//! ([`xjoin_store::VersionedStore`] + [`xjoin_store::QueryService`]) into a
//! TCP server speaking a length-prefixed binary protocol:
//!
//! * [`protocol`] — the wire format: versioned frames
//!   (`QUERY`/`PREPARE`/`EXEC`/`STATS`/`SHUTDOWN` and their replies),
//!   canonical [`xjoin_core::ExecOptions`] encoding (which doubles as the
//!   statement-cache key), and value-level row serialisation;
//! * [`admission`] — AGM-based admission control: each request is priced at
//!   `log2` of its AGM bound (computed from the resolved hypergraph before
//!   any trie is built) and accepted, queued, or rejected against an
//!   in-flight cost budget plus a queue-depth backstop;
//! * [`server`] — the accept loop, per-connection framing, the server-side
//!   prepared-statement cache, and end-to-end deadline / row-budget
//!   enforcement through the worker pool;
//! * [`client`] — a minimal blocking client (used by the example, the
//!   loopback tests, and the benchmark's closed-loop clients).
//!
//! Everything is std-only, like the rest of the workspace.

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod protocol;
pub mod server;

pub use admission::{AdmissionController, AdmissionPolicy, Decision, Permit};
pub use client::{expect_rows, Client};
pub use protocol::{ErrorCode, RequestOpts, Response, RowSet, WireError, WireResult};
pub use server::{Server, ServerConfig, ServerHandle};
