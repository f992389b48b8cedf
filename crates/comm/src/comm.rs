//! The per-rank communicator: point-to-point operations and phase exchanges.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use cartcomm_obs::{MetricsSnapshot, Obs, TraceEvent};
use parking_lot::Mutex;

use cartcomm_types::{cast_slice, cast_slice_mut, gather, scatter_prefix, FlatType, Pod};

use crate::envelope::{Envelope, SrcSel, Tag, TagSel};
use crate::error::{CommError, CommResult};
use crate::fabric::Fabric;
use crate::inbox::Inbox;
use crate::pool::{PoolStats, PooledBuf, WirePool};
use crate::reliable::{RelState, Reliability, RetryPolicy, RELIABLE_TICK};

/// Completion information of a receive (`MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Rank the message came from.
    pub src: usize,
    /// Tag the message carried.
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// A receive slot of an [`Comm::exchange`] batch.
#[derive(Debug, Clone, Copy)]
pub struct RecvSpec {
    /// Source selector.
    pub src: SrcSel,
    /// Tag selector.
    pub tag: TagSel,
}

impl RecvSpec {
    /// Receive from a specific rank with a specific tag — the common case in
    /// schedule execution.
    pub fn from_rank(src: usize, tag: Tag) -> Self {
        RecvSpec {
            src: SrcSel::Rank(src),
            tag: TagSel::Is(tag),
        }
    }
}

/// What happens to the buffers a phase exchange returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BufferPolicy {
    /// Received payloads stay attached to this rank's wire pool and
    /// recycle on drop — the schedule hot path. Default.
    #[default]
    Pooled,
    /// Received payloads are detached from the pool: the caller takes
    /// plain ownership and the backing stores are not recycled (the
    /// semantics of the pre-pool `exchange` API).
    Detached,
}

/// Options of a [`Comm::exchange`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExchangeOpts {
    /// Buffer policy for received payloads.
    pub buffers: BufferPolicy,
    /// Delivery guarantee: raw, reliable, or (default) whatever the rank's
    /// [`Comm::set_default_reliability`] says. Executors pass the default
    /// through unchanged — schedules are transport-oblivious.
    pub reliability: Reliability,
}

impl ExchangeOpts {
    /// Pooled receive buffers (the default).
    pub fn pooled() -> Self {
        ExchangeOpts {
            buffers: BufferPolicy::Pooled,
            reliability: Reliability::Inherit,
        }
    }

    /// Detached receive buffers.
    pub fn detached() -> Self {
        ExchangeOpts {
            buffers: BufferPolicy::Detached,
            reliability: Reliability::Inherit,
        }
    }

    /// Force the raw (unsequenced) exchange path.
    pub fn raw(mut self) -> Self {
        self.reliability = Reliability::Raw;
        self
    }

    /// Force reliable delivery with `policy`.
    pub fn reliable(mut self, policy: RetryPolicy) -> Self {
        self.reliability = Reliability::Reliable(policy);
        self
    }
}

/// The reusable send/result storage of a phase exchange.
///
/// Queue sends with [`ExchangeBatch::send`], run the phase with
/// [`Comm::exchange`], then consume completions with
/// [`ExchangeBatch::take_result`] or [`ExchangeBatch::drain_results`].
/// Both internal vectors keep their capacity across phases, so reusing
/// one batch across executes makes a warm exchange allocation-free.
#[derive(Debug, Default)]
pub struct ExchangeBatch {
    pub(crate) sends: Vec<(usize, Tag, PooledBuf)>,
    pub(crate) results: Vec<Option<(PooledBuf, Status)>>,
}

impl ExchangeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        ExchangeBatch::default()
    }

    /// An empty batch with room for `n` sends without reallocation.
    pub fn with_capacity(n: usize) -> Self {
        ExchangeBatch {
            sends: Vec::with_capacity(n),
            results: Vec::with_capacity(n),
        }
    }

    /// Queue one send. Payloads convert from `Vec<u8>` or travel as
    /// [`PooledBuf`]s from [`Comm::wire_buf`].
    pub fn send(&mut self, dst: usize, tag: Tag, data: impl Into<PooledBuf>) {
        self.sends.push((dst, tag, data.into()));
    }

    /// Number of queued (not yet exchanged) sends.
    pub fn pending_sends(&self) -> usize {
        self.sends.len()
    }

    /// Take the completion of receive slot `slot` from the last exchange:
    /// `None` if the slot was already taken (or out of range).
    pub fn take_result(&mut self, slot: usize) -> Option<(PooledBuf, Status)> {
        self.results.get_mut(slot).and_then(Option::take)
    }

    /// Drain all remaining completions of the last exchange in slot
    /// order, skipping already-taken slots.
    pub fn drain_results(&mut self) -> impl Iterator<Item = (PooledBuf, Status)> + '_ {
        self.results.drain(..).flatten()
    }

    /// Drop queued sends and pending results (capacity is kept).
    pub fn clear(&mut self) {
        self.sends.clear();
        self.results.clear();
    }
}

/// Per-rank state shared between a communicator and its duplicates.
pub(crate) struct RankCore {
    pub(crate) rx: Inbox,
    /// Unexpected-message queue, in arrival order.
    pub(crate) pending: Mutex<VecDeque<Envelope>>,
    /// Next context id for `dup` (kept identical across ranks because dup is
    /// collective and deterministic).
    next_ctx: AtomicU32,
    /// Per-rank collective sequence counter (see `collectives`).
    coll_seq: AtomicU32,
    /// Reliable-delivery state (stream sequences, dedup windows, retained
    /// unacked sends); shared across duplicated contexts.
    pub(crate) rel: Mutex<RelState>,
    /// Rank-level default for [`Reliability::Inherit`] exchanges.
    pub(crate) default_reliability: Mutex<Option<RetryPolicy>>,
}

/// A communicator handle owned by one rank's thread.
///
/// Cheap to clone contexts from via [`Comm::dup`]; all duplicates of one rank
/// share the underlying inbox but match messages in disjoint contexts.
pub struct Comm {
    pub(crate) rank: usize,
    size: usize,
    pub(crate) ctx: u32,
    pub(crate) fabric: Arc<Fabric>,
    /// This rank's wire-buffer pool (shared with the fabric, which
    /// retargets inbound payloads to it).
    pool: Arc<WirePool>,
    /// This rank's observability handle (shared with the fabric and all
    /// duplicated contexts).
    pub(crate) obs: Arc<Obs>,
    pub(crate) core: Arc<RankCore>,
}

impl Comm {
    pub(crate) fn new(rank: usize, fabric: Arc<Fabric>, rx: Inbox) -> Self {
        let size = fabric.size();
        let pool = Arc::clone(fabric.pool(rank));
        let obs = Arc::clone(fabric.obs(rank));
        Comm {
            rank,
            size,
            ctx: 0,
            fabric,
            pool,
            obs,
            core: Arc::new(RankCore {
                rx,
                pending: Mutex::new(VecDeque::new()),
                next_ctx: AtomicU32::new(2), // 0 = user p2p, 1 = internal collectives
                coll_seq: AtomicU32::new(0),
                rel: Mutex::new(RelState::default()),
                default_reliability: Mutex::new(None),
            }),
        }
    }

    /// Advance and return this rank's collective sequence number.
    pub(crate) fn next_coll_seq(&self) -> u32 {
        self.core.coll_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// This rank's id, `0 <= rank < size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the universe.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The context id of this communicator handle.
    #[inline]
    pub fn context(&self) -> u32 {
        self.ctx
    }

    /// Duplicate the communicator into a fresh context (like `MPI_Comm_dup`).
    /// Must be called collectively (in the same order on all ranks) so the
    /// resulting context ids agree.
    pub fn dup(&self) -> Comm {
        let ctx = self.core.next_ctx.fetch_add(1, Ordering::Relaxed);
        Comm {
            rank: self.rank,
            size: self.size,
            ctx,
            fabric: Arc::clone(&self.fabric),
            pool: Arc::clone(&self.pool),
            obs: Arc::clone(&self.obs),
            core: Arc::clone(&self.core),
        }
    }

    /// Handle on the same rank in the reserved internal-collectives context.
    pub(crate) fn internal(&self) -> Comm {
        Comm {
            rank: self.rank,
            size: self.size,
            ctx: 1,
            fabric: Arc::clone(&self.fabric),
            pool: Arc::clone(&self.pool),
            obs: Arc::clone(&self.obs),
            core: Arc::clone(&self.core),
        }
    }

    /// Wall-clock seconds since an unspecified epoch (`MPI_Wtime`).
    pub fn wtime() -> f64 {
        use std::time::{SystemTime, UNIX_EPOCH};
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_secs_f64()
    }

    /// Interconnect telemetry: `(messages, payload bytes)` deposited by all
    /// ranks so far.
    pub fn fabric_telemetry(&self) -> (u64, u64) {
        (self.fabric.message_count(), self.fabric.byte_volume())
    }

    // ----- observability ---------------------------------------------------

    /// This rank's observability handle: metrics registry, trace sink
    /// attachment, and clock selection. Shared across duplicated contexts
    /// of the rank.
    #[inline]
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Snapshot of this rank's metrics registry — the consolidated view
    /// of rounds, wire bytes, matches, pack spans, and pool/plan-cache
    /// traffic.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    // ----- wire-buffer pool ------------------------------------------------

    /// Acquire an empty wire buffer with capacity at least `cap` from this
    /// rank's pool. Dropping it (here or, after a send, on the receiving
    /// rank) recycles the backing store.
    pub fn wire_buf(&self, cap: usize) -> PooledBuf {
        let (buf, hit) = WirePool::take_tracked(&self.pool, cap);
        if hit {
            self.obs.metrics().pool_hit();
            self.obs
                .emit_with(self.rank, || TraceEvent::PoolHit { bytes: cap });
        } else {
            self.obs.metrics().pool_miss();
            self.obs
                .emit_with(self.rank, || TraceEvent::PoolMiss { bytes: cap });
        }
        buf
    }

    /// This rank's wire-buffer pool handle (for pre-warming by persistent
    /// collectives and for tests).
    pub fn wire_pool(&self) -> &Arc<WirePool> {
        &self.pool
    }

    /// Buffer-pool telemetry for this rank: hits, misses, recycled bytes,
    /// and current residency. Sits next to [`Comm::fabric_telemetry`].
    pub fn pool_telemetry(&self) -> PoolStats {
        self.pool.stats()
    }

    pub(crate) fn check_rank(&self, rank: usize) -> CommResult<()> {
        if rank >= self.size {
            Err(CommError::InvalidRank {
                rank,
                size: self.size,
            })
        } else {
            Ok(())
        }
    }

    // ----- raw byte operations --------------------------------------------

    /// Eager buffered send of a byte payload. Completes locally; never
    /// blocks or deadlocks.
    pub fn send_bytes(&self, dst: usize, tag: Tag, data: Vec<u8>) -> CommResult<()> {
        self.check_rank(dst)?;
        self.fabric
            .deposit(dst, Envelope::new(self.ctx, self.rank, tag, data))?;
        Ok(())
    }

    /// Blocking receive of a byte payload matching the selectors. Returns
    /// the payload and its [`Status`]. The returned bytes are detached from
    /// the wire pool (the caller keeps them); pooled receives happen through
    /// [`Comm::exchange_pooled`].
    pub fn recv_bytes(
        &self,
        src: impl Into<SrcSel>,
        tag: impl Into<TagSel>,
    ) -> CommResult<(Vec<u8>, Status)> {
        let env = self.match_one(self.ctx, src.into(), tag.into())?;
        let status = Status {
            src: env.src,
            tag: env.tag,
            bytes: env.data.len(),
        };
        Ok((env.data.into_vec(), status))
    }

    /// Simultaneous send and receive (`MPI_Sendrecv`) — the primitive of the
    /// paper's trivial algorithm (Listing 4). Deadlock-free because the send
    /// is eager.
    pub fn sendrecv_bytes(
        &self,
        dst: usize,
        send_tag: Tag,
        data: Vec<u8>,
        src: impl Into<SrcSel>,
        recv_tag: impl Into<TagSel>,
    ) -> CommResult<(Vec<u8>, Status)> {
        self.send_bytes(dst, send_tag, data)?;
        self.recv_bytes(src, recv_tag)
    }

    /// Pull one envelope matching (ctx, src, tag): first from the
    /// unexpected queue in arrival order, then from the inbox. All
    /// arrivals pass through the reliable intake (`reliable.rs`), so
    /// duplicates and out-of-order sequenced traffic never reach matching.
    fn match_one(&self, ctx: u32, src: SrcSel, tag: TagSel) -> CommResult<Envelope> {
        let mut pending = self.core.pending.lock();
        loop {
            if let Some(pos) = pending
                .iter()
                .position(|e| e.ctx == ctx && src.matches(e.src) && tag.matches(e.tag))
            {
                return Ok(pending.remove(pos).expect("position just found"));
            }
            let env = self.recv_one(&mut pending)?;
            self.intake(env, &mut pending);
        }
    }

    /// One blocking inbox receive. On a lossy fabric this pumps the
    /// fault plane between short waits so delayed/reordered envelopes keep
    /// draining even while this rank only ever blocks in receives.
    fn recv_one(&self, _pending: &mut VecDeque<Envelope>) -> CommResult<Envelope> {
        if !self.fabric.lossy() {
            return Ok(self.core.rx.recv()?);
        }
        loop {
            self.fabric.poll(self.rank)?;
            if let Some(env) = self.core.rx.recv_timeout(RELIABLE_TICK)? {
                return Ok(env);
            }
        }
    }

    /// Blocking probe (`MPI_Probe`): wait until a message matching the
    /// selectors is available and return its status without consuming it.
    /// A subsequent matching receive returns (at least) this message.
    pub fn probe(&self, src: impl Into<SrcSel>, tag: impl Into<TagSel>) -> CommResult<Status> {
        let src = src.into();
        let tag = tag.into();
        let mut pending = self.core.pending.lock();
        loop {
            if let Some(env) = pending
                .iter()
                .find(|e| e.ctx == self.ctx && src.matches(e.src) && tag.matches(e.tag))
            {
                return Ok(Status {
                    src: env.src,
                    tag: env.tag,
                    bytes: env.data.len(),
                });
            }
            let env = self.recv_one(&mut pending)?;
            self.intake(env, &mut pending);
        }
    }

    /// Non-blocking probe (`MPI_Iprobe`): `Some(status)` if a matching
    /// message has already arrived, `None` otherwise.
    pub fn iprobe(
        &self,
        src: impl Into<SrcSel>,
        tag: impl Into<TagSel>,
    ) -> CommResult<Option<Status>> {
        let src = src.into();
        let tag = tag.into();
        self.fabric.poll(self.rank)?;
        let mut pending = self.core.pending.lock();
        // drain whatever has arrived so far
        while let Some(env) = self.core.rx.try_recv() {
            self.intake(env, &mut pending);
        }
        Ok(pending
            .iter()
            .find(|e| e.ctx == self.ctx && src.matches(e.src) && tag.matches(e.tag))
            .map(|env| Status {
                src: env.src,
                tag: env.tag,
                bytes: env.data.len(),
            }))
    }

    // ----- datatype operations --------------------------------------------

    /// Send the bytes described by `(disp, ty)` gathered out of `buf`.
    pub fn send_typed(
        &self,
        dst: usize,
        tag: Tag,
        buf: &[u8],
        disp: i64,
        ty: &FlatType,
    ) -> CommResult<()> {
        let wire = gather(buf, disp, ty)?;
        self.send_bytes(dst, tag, wire)
    }

    /// Receive into the layout `(disp, ty)` of `buf`. A message longer than
    /// the layout is a [`CommError::Truncation`] error; a shorter one fills a
    /// prefix, as in MPI.
    pub fn recv_typed(
        &self,
        src: impl Into<SrcSel>,
        tag: impl Into<TagSel>,
        buf: &mut [u8],
        disp: i64,
        ty: &FlatType,
    ) -> CommResult<Status> {
        // Work on the envelope directly so the wire buffer recycles into
        // this rank's pool once the payload has been scattered out.
        let env = self.match_one(self.ctx, src.into(), tag.into())?;
        let status = Status {
            src: env.src,
            tag: env.tag,
            bytes: env.data.len(),
        };
        if env.data.len() > ty.size() {
            return Err(CommError::Truncation {
                received: env.data.len(),
                capacity: ty.size(),
            });
        }
        scatter_prefix(&env.data, buf, disp, ty)?;
        Ok(status)
    }

    /// Typed convenience send of a whole slice of plain-old-data elements.
    pub fn send_slice<T: Pod>(&self, dst: usize, tag: Tag, data: &[T]) -> CommResult<()> {
        self.send_bytes(dst, tag, cast_slice(data).to_vec())
    }

    /// Typed convenience receive filling an entire slice. The message must
    /// be exactly `data.len()` elements.
    pub fn recv_slice<T: Pod>(
        &self,
        src: impl Into<SrcSel>,
        tag: impl Into<TagSel>,
        data: &mut [T],
    ) -> CommResult<Status> {
        // As in `recv_typed`: copy out of the envelope, then let the wire
        // buffer recycle.
        let env = self.match_one(self.ctx, src.into(), tag.into())?;
        let status = Status {
            src: env.src,
            tag: env.tag,
            bytes: env.data.len(),
        };
        let dst = cast_slice_mut(data);
        if env.data.len() != dst.len() {
            return Err(CommError::Truncation {
                received: env.data.len(),
                capacity: dst.len(),
            });
        }
        dst.copy_from_slice(&env.data);
        Ok(status)
    }

    // ----- phase exchange (Listing 5) ---------------------------------------

    /// Execute one *phase* of a communication schedule: post all receives,
    /// issue all sends, and complete everything (the
    /// `Irecv`/`Isend`/`Waitall` pattern of Listing 5).
    ///
    /// Matching follows MPI semantics: each incoming message is delivered to
    /// the **earliest-posted** still-open receive slot it matches, so
    /// several slots with the same `(src, tag)` complete in posting order
    /// against the sender's posting order (non-overtaking).
    ///
    /// Sends are queued on the [`ExchangeBatch`] beforehand; on return the
    /// batch holds one completion per [`RecvSpec`], in slot order, consumed
    /// with [`ExchangeBatch::take_result`]/[`ExchangeBatch::drain_results`].
    /// The batch's internal vectors keep their capacity, so reusing one
    /// batch across phases makes a warm exchange allocation-free — wire
    /// payloads already travel as pooled buffers.
    ///
    /// [`ExchangeOpts::buffers`] selects what the received payloads are
    /// attached to: [`BufferPolicy::Pooled`] (default — buffers recycle
    /// into this rank's pool on drop) or [`BufferPolicy::Detached`] (plain
    /// ownership, nothing recycled).
    pub fn exchange(
        &self,
        batch: &mut ExchangeBatch,
        recvs: &[RecvSpec],
        opts: ExchangeOpts,
    ) -> CommResult<()> {
        let policy = match opts.reliability {
            Reliability::Raw => None,
            Reliability::Reliable(p) => Some(p),
            Reliability::Inherit => *self.core.default_reliability.lock(),
        };
        match policy {
            Some(p) => self.exchange_reliable(batch, recvs, opts, p),
            None => self.exchange_raw(batch, recvs, opts),
        }
    }

    /// The unsequenced exchange path: eager sends, FIFO slot matching.
    fn exchange_raw(
        &self,
        batch: &mut ExchangeBatch,
        recvs: &[RecvSpec],
        opts: ExchangeOpts,
    ) -> CommResult<()> {
        for &(dst, _, _) in batch.sends.iter() {
            self.check_rank(dst)?;
        }
        self.obs.metrics().exchange_started();
        // Issue all sends eagerly (Isend with buffered completion).
        for (dst, tag, data) in batch.sends.drain(..) {
            self.fabric
                .deposit(dst, Envelope::new(self.ctx, self.rank, tag, data))?;
        }
        // Complete receives with FIFO slot matching: an incoming message
        // goes to the earliest-posted open slot it satisfies.
        let results = &mut batch.results;
        results.clear();
        results.resize_with(recvs.len(), || None);
        let mut open = recvs.len();

        let mut pending = self.core.pending.lock();
        loop {
            // Match delivered messages in arrival order (the intake keeps
            // sequenced streams in order, so arrival order is safe).
            let mut i = 0;
            while i < pending.len() && open > 0 {
                if let Some(slot) = find_slot(self.ctx, &pending[i], recvs, results) {
                    let env = pending.remove(i).expect("index in range");
                    self.complete_slot(results, slot, env);
                    open -= 1;
                } else {
                    i += 1;
                }
            }
            if open == 0 {
                break;
            }
            let env = self.recv_one(&mut pending)?;
            self.intake(env, &mut pending);
        }
        drop(pending);
        self.finish_exchange(results, opts);
        Ok(())
    }

    /// Apply the buffer policy to a completed exchange's results.
    pub(crate) fn finish_exchange(
        &self,
        results: &mut [Option<(PooledBuf, Status)>],
        opts: ExchangeOpts,
    ) {
        if opts.buffers == BufferPolicy::Detached {
            for (buf, _) in results.iter_mut().flatten() {
                buf.detach();
            }
        }
    }

    /// Fill receive slot `slot` from `env`, recording the match.
    pub(crate) fn complete_slot(
        &self,
        results: &mut [Option<(PooledBuf, Status)>],
        slot: usize,
        env: Envelope,
    ) {
        let status = Status {
            src: env.src,
            tag: env.tag,
            bytes: env.data.len(),
        };
        self.obs.metrics().message_matched(status.bytes);
        self.obs
            .emit_with(self.rank, || TraceEvent::ExchangeMatched {
                src: status.src,
                tag: status.tag,
                bytes: status.bytes,
                slot,
            });
        results[slot] = Some((env.data, status));
    }

    /// Pre-batch compatibility form of [`Comm::exchange`] over plain
    /// `Vec<u8>` payloads (the original `exchange` signature, renamed when
    /// `exchange` took over the unified batch form).
    #[deprecated(
        since = "0.2.0",
        note = "queue sends on an `ExchangeBatch` and call `Comm::exchange` \
                with `ExchangeOpts::detached()`"
    )]
    pub fn exchange_vecs(
        &self,
        sends: Vec<(usize, Tag, Vec<u8>)>,
        recvs: &[RecvSpec],
    ) -> CommResult<Vec<(Vec<u8>, Status)>> {
        let mut batch = ExchangeBatch::with_capacity(sends.len());
        for (dst, tag, data) in sends {
            batch.send(dst, tag, data);
        }
        self.exchange(&mut batch, recvs, ExchangeOpts::detached())?;
        Ok(batch
            .drain_results()
            .map(|(buf, status)| (buf.into_vec(), status))
            .collect())
    }

    /// Pre-batch form of [`Comm::exchange`] over pooled wire buffers.
    #[deprecated(
        since = "0.2.0",
        note = "queue sends on an `ExchangeBatch` and call `Comm::exchange` \
                (pooled buffers are the default policy)"
    )]
    pub fn exchange_pooled(
        &self,
        sends: Vec<(usize, Tag, PooledBuf)>,
        recvs: &[RecvSpec],
    ) -> CommResult<Vec<(PooledBuf, Status)>> {
        let mut batch = ExchangeBatch {
            sends,
            results: Vec::with_capacity(recvs.len()),
        };
        self.exchange(&mut batch, recvs, ExchangeOpts::pooled())?;
        Ok(batch.drain_results().collect())
    }

    /// Pre-batch allocation-free form of [`Comm::exchange`] over caller-
    /// owned send/result vectors.
    #[deprecated(
        since = "0.2.0",
        note = "keep a reusable `ExchangeBatch` and call `Comm::exchange`"
    )]
    pub fn exchange_into(
        &self,
        sends: &mut Vec<(usize, Tag, PooledBuf)>,
        recvs: &[RecvSpec],
        results: &mut Vec<Option<(PooledBuf, Status)>>,
    ) -> CommResult<()> {
        let mut batch = ExchangeBatch {
            sends: std::mem::take(sends),
            results: std::mem::take(results),
        };
        let outcome = self.exchange(&mut batch, recvs, ExchangeOpts::pooled());
        *sends = std::mem::take(&mut batch.sends);
        *results = std::mem::take(&mut batch.results);
        outcome
    }
}

/// The earliest-posted still-open receive slot `env` satisfies, if any —
/// the FIFO matching rule of MPI (shared by the raw and reliable exchange
/// paths).
pub(crate) fn find_slot(
    ctx: u32,
    env: &Envelope,
    recvs: &[RecvSpec],
    results: &[Option<(PooledBuf, Status)>],
) -> Option<usize> {
    if env.ctx != ctx {
        return None;
    }
    recvs.iter().enumerate().position(|(i, spec)| {
        results[i].is_none() && spec.src.matches(env.src) && spec.tag.matches(env.tag)
    })
}
