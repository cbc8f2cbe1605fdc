#![warn(missing_docs)]

//! # pqe-serve — the query evaluation service
//!
//! A long-lived, zero-dependency server wrapping the workspace's
//! estimators: bind once over a probabilistic database, then answer
//! `estimate` / `reliability` / `classify` / `stats` / `metrics` requests
//! over a newline-delimited JSON protocol on `std::net::TcpListener`
//! ([`protocol`] documents the wire format).
//!
//! The service exists because of the compilation/execution split
//! formalized in `pqe_core::plan`: for a fixed `(Q, H)` the expensive
//! reduction chain (decomposition → classification → NFTA construction →
//! multiplier translation) is independent of `(ε, seed, threads)`, so the
//! server memoizes it across requests. Since execution is a pure function
//! of plan + config and the seed travels with each request, a served
//! estimate is bit-identical to the same CLI invocation — cache hit,
//! miss, or coalesced.
//!
//! Execution is **sharded**: a single connection-multiplexing I/O loop
//! feeds a bounded MPMC work [`queue`], drained by a fixed pool of worker
//! shards that each own a private compiled-plan cache ([`cache`]) — the
//! hot path takes no cache lock. With a CPU per worker available, each
//! worker is pinned to its own. Concurrent identical requests are
//! deduplicated by a single-[`flight`] table: one evaluation runs, and
//! its response fans out verbatim to every coalesced request.
//!
//! Overload policy is *rejection, not queueing*: a heavy request arriving
//! at a full work queue gets an immediate structured `overloaded` error
//! (the queue depth is the backpressure signal); per-request deadlines
//! turn runaway work into `timeout` errors ([`server`]).

mod affinity;
pub mod cache;
pub mod flight;
pub mod json;
mod poll;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{CacheCounters, ShardCache};
pub use flight::{Flight, FlightTable};
pub use json::Json;
pub use protocol::{ErrorKind, Request};
pub use queue::Queue;
pub use server::{ServeConfig, ServedPlan, Server};
