//! # cartcomm-comm — a threads-as-ranks message-passing substrate
//!
//! The Cartesian collective algorithms of Träff & Hunold (ICPP 2019) are
//! specified on top of MPI point-to-point primitives: matched, tagged,
//! non-overtaking sends and receives, non-blocking operation batches
//! completed with `Waitall` (Listing 5), and a handful of collectives used
//! for setup-time checks. This crate is that substrate, built from scratch:
//!
//! * [`Universe::builder`] — SPMD launcher: spawns `p` OS threads, each
//!   running the same rank program with its own [`Comm`] handle; one
//!   [`RunConfig`] composes transport, fault plane, profiling, and stack
//!   size. [`universe::ResidentUniverse`] keeps the rank threads warm
//!   across many job submissions for serving workloads.
//! * [`Comm`] — per-rank communicator: `send`/`recv` (blocking, eager
//!   buffered), [`Comm::sendrecv_bytes`], and [`Comm::exchange`] — the
//!   Listing-5 phase primitive posting a batch of receives and sends and
//!   completing them together, with MPI-conforming FIFO matching.
//! * MPI-style matching semantics: messages between a (sender, context,
//!   tag) triple are **non-overtaking**; receives match the earliest
//!   arriving message; `AnySource`/`AnyTag` wildcards are supported.
//! * [`collectives`] — barrier (dissemination), broadcast (binomial tree),
//!   reduce/allreduce, gather, allgather (Bruck), used by topology setup
//!   (§2.2 isomorphism check) and by tests/benchmarks.
//!
//! Sends are *eager and buffered*: the payload is captured at post time and
//! the send completes locally, which is a conforming MPI implementation
//! choice and makes every schedule in this workspace trivially
//! deadlock-free to execute. Data moves as exactly one gather on the send
//! side and one scatter on the receive side (see `cartcomm-types`), the
//! in-process analogue of the paper's zero-copy datatype execution.

//!
//! Wire messages travel in pooled buffers ([`pool::WirePool`] /
//! [`PooledBuf`]): each rank owns a size-classed free list, send-side
//! packing acquires from it via [`Comm::wire_buf`], and the fabric
//! retargets every payload to the *receiver's* pool at deposit time so
//! unpacked messages recycle where the next receive happens. Persistent
//! collectives pre-warm the pool at init and reach a 100% hit rate in
//! steady state ([`Comm::pool_telemetry`]).

//! # Fault injection and reliable delivery
//!
//! The fabric can host a deterministic, seeded fault plane
//! ([`FaultSpec`]/[`fault::FaultPlane`], installed via
//! [`RunConfig::faults`] or `Fabric::install_faults`) that drops,
//! duplicates, delays, or reorders data envelopes per declarative rules.
//! [`Comm::exchange`] counters it with sequence-numbered envelopes,
//! receiver-side dedup windows, and retransmission on an exponential
//! backoff ([`RetryPolicy`]); a dead link surfaces
//! [`CommError::PeerUnreachable`] instead of a hang. See `reliable.rs`
//! and DESIGN.md §10.
//!
//! # Transport backends
//!
//! Envelope delivery is pluggable ([`transport::Transport`], DESIGN.md
//! §12): the default in-process inbox fabric, a shared-memory ring
//! fabric spanning processes on one host
//! ([`Universe::spawn_processes`]), and Unix-domain/TCP socket meshes.
//! [`RunConfig::on`] picks the backend per run; everything
//! above the fabric — matching, collectives, reliability, faults,
//! observability — is backend-agnostic, pinned by the
//! `transport_conformance` suite.

pub mod collectives;
pub mod comm;
mod deprecated_shims;
pub mod envelope;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod inbox;
pub mod pool;
pub mod reliable;
pub mod transport;
pub mod universe;

pub use comm::{BufferPolicy, Comm, ExchangeBatch, ExchangeOpts, RecvSpec, Status};
pub use envelope::{EnvKind, RelHeader, SrcSel, Tag, TagSel, ANY_SOURCE, ANY_TAG};
pub use error::{CommError, CommResult};
pub use fault::{FaultAction, FaultPlane, FaultRng, FaultRule, FaultSpec, FaultStats, LinkSel};
pub use pool::{PoolStats, PooledBuf, WirePool};
pub use reliable::{Reliability, RetryPolicy};
pub use transport::{Transport, TransportError, TransportKind, TransportResult};
pub use universe::{
    ProfiledRun, ProfiledRunConfig, RankJob, ResidentUniverse, RunConfig, SpawnRole, Universe,
};

/// Structured observability (re-export of `cartcomm-obs`): every rank's
/// [`Comm`] carries an [`cartcomm_obs::Obs`] handle reachable via
/// [`Comm::obs`].
pub use cartcomm_obs as obs;
