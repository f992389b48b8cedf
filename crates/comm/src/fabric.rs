//! The shared interconnect: fault injection, pooling, and telemetry
//! layered over a pluggable [`Transport`].
//!
//! The fabric is the stand-in for the cluster network. Each rank owns
//! one [`Inbox`]; any rank may deposit an
//! [`Envelope`] toward any other rank, and the backend ([`Transport`])
//! guarantees per-link FIFO delivery — the MPI *non-overtaking*
//! guarantee per (source, context, tag) the matching engine builds on.
//!
//! What the fabric adds above the raw transport:
//!
//! * the **fault plane** (deterministic drop/duplicate/delay/reorder,
//!   see [`crate::fault`]) — injected here, *above* the transport, so
//!   every backend exercises the reliable layer identically;
//! * per-rank **wire pools** and **observability** handles;
//! * message/byte **telemetry** counters.
//!
//! Deposits are fallible: a backend whose peer endpoint is gone (rank
//! terminated, socket broken, ring stalled) reports a
//! [`TransportError`], which the communication layer maps to
//! [`CommError::PeerUnreachable`](crate::error::CommError::PeerUnreachable).

use std::io;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use cartcomm_obs::{Obs, TraceEvent};
use parking_lot::RwLock;

use crate::envelope::Envelope;
use crate::fault::{FaultPlane, FaultSpec, FaultStats};
use crate::inbox::Inbox;
use crate::pool::WirePool;
use crate::transport::inproc::InProcTransport;
use crate::transport::shm::ShmTransport;
use crate::transport::socket::SocketTransport;
use crate::transport::{Transport, TransportKind, TransportResult};

fn make_pools(p: usize) -> Vec<Arc<WirePool>> {
    (0..p).map(|_| Arc::new(WirePool::new())).collect()
}

fn make_obs(p: usize) -> Vec<Arc<Obs>> {
    (0..p).map(|_| Arc::new(Obs::new())).collect()
}

/// Shared interconnect state for a universe of `p` ranks.
pub struct Fabric {
    transport: Box<dyn Transport>,
    /// Per-rank wire-buffer pools. On an in-process transport `deposit`
    /// retargets each payload to the destination's pool; serializing
    /// backends instead decode into the receiving rank's pool.
    pools: Vec<Arc<WirePool>>,
    /// Per-rank observability handles; `deposit` credits the sender's
    /// wire-byte counters here, each rank's inbox its wait counters.
    obs: Vec<Arc<Obs>>,
    /// Installed fault plane, if any. `None` means the fabric is the
    /// perfect transport it always was.
    faults: RwLock<Option<Arc<FaultPlane>>>,
    /// Fast-path flag mirroring `faults.is_some()` so `deposit` pays one
    /// relaxed load, not a lock, when no plane is installed.
    lossy: AtomicBool,
    /// Total messages deposited (telemetry for benchmarks).
    msg_count: std::sync::atomic::AtomicU64,
    /// Total payload bytes deposited (telemetry for benchmarks).
    byte_count: std::sync::atomic::AtomicU64,
}

impl Fabric {
    fn wrap(
        transport: Box<dyn Transport>,
        pools: Vec<Arc<WirePool>>,
        obs: Vec<Arc<Obs>>,
    ) -> Fabric {
        Fabric {
            transport,
            pools,
            obs,
            faults: RwLock::new(None),
            lossy: AtomicBool::new(false),
            msg_count: std::sync::atomic::AtomicU64::new(0),
            byte_count: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Create an in-process fabric and hand back the per-rank inboxes.
    /// This is the default, infallible fast path.
    pub fn new(p: usize) -> (Fabric, Vec<Inbox>) {
        let obs = make_obs(p);
        let (t, rxs) = InProcTransport::new(&obs);
        (Fabric::wrap(Box::new(t), make_pools(p), obs), rxs)
    }

    /// Create a fabric on the named backend, all ranks local to this
    /// process. Only the in-process constructor is infallible; the
    /// others touch the filesystem or the network stack.
    pub fn for_backend(kind: TransportKind, p: usize) -> io::Result<(Fabric, Vec<Inbox>)> {
        let pools = make_pools(p);
        let obs = make_obs(p);
        let (transport, rxs): (Box<dyn Transport>, _) = match kind {
            TransportKind::InProcess => {
                let (t, rxs) = InProcTransport::new(&obs);
                (Box::new(t), rxs)
            }
            TransportKind::SharedMem => {
                let (t, rxs) = ShmTransport::for_threads(p, &pools, &obs)?;
                (Box::new(t), rxs)
            }
            TransportKind::Uds => {
                let (t, rxs) = SocketTransport::uds(p, &pools, &obs)?;
                (Box::new(t), rxs)
            }
            TransportKind::Tcp => {
                let (t, rxs) = SocketTransport::tcp(p, &pools, &obs)?;
                (Box::new(t), rxs)
            }
        };
        Ok((Fabric::wrap(transport, pools, obs), rxs))
    }

    /// Attach to an existing shared-memory fabric file as one rank of a
    /// multi-process universe (see `Universe::spawn_processes`). Returns
    /// the fabric and the local rank's inbox.
    pub fn attach_shm(path: &Path, p: usize, rank: usize) -> io::Result<(Fabric, Inbox)> {
        let pools = make_pools(p);
        let obs = make_obs(p);
        let (t, mut endpoints) = ShmTransport::attach(path, p, &[rank], &pools, &obs, false)?;
        let (_, rx) = endpoints.pop().expect("one local endpoint");
        Ok((Fabric::wrap(Box::new(t), pools, obs), rx))
    }

    /// Which backend carries this fabric's envelopes.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport.kind()
    }

    /// The wire-buffer pool owned by `rank`.
    #[inline]
    pub fn pool(&self, rank: usize) -> &Arc<WirePool> {
        &self.pools[rank]
    }

    /// The observability handle owned by `rank`.
    #[inline]
    pub fn obs(&self, rank: usize) -> &Arc<Obs> {
        &self.obs[rank]
    }

    /// Number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// Deposit an envelope toward `dst`. Panics on an invalid
    /// destination (callers validate ranks at the API boundary); returns
    /// an error when the backend cannot reach `dst` — endpoint closed,
    /// stream broken, ring stalled.
    ///
    /// With a fault plane installed, data envelopes route through it and
    /// may be dropped, duplicated, delayed, or reordered; acknowledgement
    /// envelopes bypass the plane (they are the reliable layer's control
    /// plane — see `fault.rs`).
    #[inline]
    pub fn deposit(&self, dst: usize, mut env: Envelope) -> TransportResult<()> {
        use std::sync::atomic::Ordering;
        self.msg_count.fetch_add(1, Ordering::Relaxed);
        self.byte_count
            .fetch_add(env.data.len() as u64, Ordering::Relaxed);
        self.obs[env.src].metrics().add_wire_sent(env.data.len());
        if self.transport.in_process() {
            // From here the buffer belongs to the receiving side: when the
            // receiver drops it after unpacking, the bytes land in *its*
            // pool. Serializing backends skip this — their payload buffer
            // recycles into the sender's pool after encoding, and the
            // receive side decodes into its own pool.
            env.data.retarget(&self.pools[dst]);
        }
        if !self.lossy.load(Ordering::Relaxed) || env.is_ack() {
            return self.transport.deposit(dst, env);
        }
        let Some(plane) = self.fault_plane() else {
            return self.transport.deposit(dst, env);
        };
        let (src, tag) = (env.src, env.tag);
        let (out, action) = plane.route(dst, env);
        if let Some(kind) = action {
            self.obs[src].metrics().fault_injected();
            self.obs[src].emit_with(src, || TraceEvent::FaultInjected {
                src,
                dst,
                tag,
                action: kind,
            });
        }
        let mut result = Ok(());
        for e in out {
            let r = self.transport.deposit(dst, e);
            if result.is_ok() {
                result = r;
            }
        }
        result
    }

    // ----- fault plane ------------------------------------------------------

    /// Install a fault plane compiled from `spec`. All subsequent data
    /// deposits route through it.
    pub fn install_faults(&self, spec: FaultSpec) {
        use std::sync::atomic::Ordering;
        let p = self.size();
        *self.faults.write() = Some(Arc::new(FaultPlane::new(spec, p)));
        self.lossy.store(true, Ordering::Release);
    }

    /// The installed fault plane, if any.
    pub fn fault_plane(&self) -> Option<Arc<FaultPlane>> {
        self.faults.read().clone()
    }

    /// True when a fault plane is installed (the transport may misbehave).
    #[inline]
    pub fn lossy(&self) -> bool {
        self.lossy.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Injected-fault counters of the installed plane, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault_plane().map(|p| p.stats())
    }

    /// One receiver poll on `rank`: gives the backend a progress
    /// opportunity and releases due delayed/reordered envelopes from the
    /// fault plane onto `rank`'s inbox.
    pub fn poll(&self, rank: usize) -> TransportResult<()> {
        self.transport.poll(rank)?;
        if let Some(plane) = self.fault_plane() {
            for env in plane.poll(rank) {
                self.transport.deposit(rank, env)?;
            }
        }
        Ok(())
    }

    /// Block until everything `rank` has deposited is on the wire.
    pub fn flush(&self, rank: usize) -> TransportResult<()> {
        self.transport.flush(rank)
    }

    /// Declare `rank`'s program finished: the backend may stop that
    /// rank's progress machinery. Idempotent.
    pub fn rank_done(&self, rank: usize) {
        self.transport.shutdown(rank);
    }

    /// Total messages deposited since creation.
    pub fn message_count(&self) -> u64 {
        self.msg_count.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total payload bytes deposited since creation.
    pub fn byte_volume(&self) -> u64 {
        self.byte_count.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportError;

    #[test]
    fn fabric_routes_to_correct_rank() {
        let (fabric, rxs) = Fabric::new(3);
        assert_eq!(fabric.size(), 3);
        assert_eq!(fabric.transport_kind(), TransportKind::InProcess);
        fabric
            .deposit(
                2,
                Envelope {
                    ctx: 0,
                    src: 0,
                    tag: 7,
                    rel: Default::default(),
                    data: vec![1, 2, 3].into(),
                },
            )
            .unwrap();
        let env = rxs[2].try_recv().unwrap();
        assert_eq!(env.src, 0);
        assert_eq!(env.tag, 7);
        assert_eq!(env.data, vec![1, 2, 3]);
        assert!(rxs[0].try_recv().is_none());
        assert!(rxs[1].try_recv().is_none());
    }

    #[test]
    fn fabric_preserves_fifo_per_sender() {
        let (fabric, rxs) = Fabric::new(2);
        for i in 0..10u8 {
            fabric
                .deposit(
                    1,
                    Envelope {
                        ctx: 0,
                        src: 0,
                        tag: 0,
                        rel: Default::default(),
                        data: vec![i].into(),
                    },
                )
                .unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(rxs[1].try_recv().unwrap().data, vec![i]);
        }
    }

    #[test]
    fn telemetry_counts_messages_and_bytes() {
        let (fabric, _rxs) = Fabric::new(2);
        fabric
            .deposit(
                0,
                Envelope {
                    ctx: 0,
                    src: 1,
                    tag: 0,
                    rel: Default::default(),
                    data: vec![0; 100].into(),
                },
            )
            .unwrap();
        fabric
            .deposit(
                1,
                Envelope {
                    ctx: 0,
                    src: 0,
                    tag: 0,
                    rel: Default::default(),
                    data: vec![0; 28].into(),
                },
            )
            .unwrap();
        assert_eq!(fabric.message_count(), 2);
        assert_eq!(fabric.byte_volume(), 128);
    }

    #[test]
    fn self_deposit_works() {
        let (fabric, rxs) = Fabric::new(1);
        fabric
            .deposit(
                0,
                Envelope {
                    ctx: 0,
                    src: 0,
                    tag: 1,
                    rel: Default::default(),
                    data: vec![42].into(),
                },
            )
            .unwrap();
        assert_eq!(rxs[0].try_recv().unwrap().data, vec![42]);
    }

    #[test]
    fn deposit_to_terminated_rank_errors_instead_of_panicking() {
        let (fabric, rxs) = Fabric::new(2);
        drop(rxs);
        let err = fabric
            .deposit(1, Envelope::new(0, 0, 0, vec![1u8]))
            .unwrap_err();
        assert_eq!(err, TransportError::Closed { peer: 1 });
        assert_eq!(err.peer(), 1);
    }

    #[test]
    fn installed_plane_drops_but_acks_bypass() {
        use crate::fault::{FaultSpec, LinkSel};
        let (fabric, rxs) = Fabric::new(2);
        fabric.install_faults(FaultSpec::new(11).drop_rate(LinkSel::any(), 1.0));
        assert!(fabric.lossy());
        fabric
            .deposit(1, Envelope::sequenced(0, 0, 5, 1, vec![9u8]))
            .unwrap();
        assert!(rxs[1].try_recv().is_none(), "data envelope dropped");
        assert_eq!(fabric.fault_stats().unwrap().drops, 1);
        fabric.deposit(1, Envelope::ack(0, 0, 5, 1)).unwrap();
        let env = rxs[1].try_recv().expect("ack must bypass the plane");
        assert!(env.is_ack());
    }

    #[test]
    fn poll_releases_delayed_envelopes() {
        use crate::fault::{FaultSpec, LinkSel};
        let (fabric, rxs) = Fabric::new(2);
        fabric.install_faults(FaultSpec::new(11).delay_rate(LinkSel::any(), 1.0, 2));
        fabric
            .deposit(1, Envelope::new(0, 0, 5, vec![1u8]))
            .unwrap();
        assert!(rxs[1].try_recv().is_none());
        fabric.poll(1).unwrap();
        assert!(rxs[1].try_recv().is_none());
        fabric.poll(1).unwrap();
        assert_eq!(rxs[1].try_recv().unwrap().data, vec![1u8]);
    }

    #[test]
    fn deposit_retargets_payload_to_destination_pool() {
        let (fabric, rxs) = Fabric::new(2);
        fabric
            .deposit(1, Envelope::new(0, 0, 3, vec![0u8; 100]))
            .unwrap();
        let env = rxs[1].try_recv().unwrap();
        drop(env); // payload returns to rank 1's pool
        assert_eq!(fabric.pool(0).stats().retained_bytes, 0);
        // vec![0; 100] has capacity 100: binned round-down into the 64-byte
        // class, retained at its true capacity.
        assert_eq!(fabric.pool(1).stats().retained_bytes, 100);
    }

    #[test]
    fn in_process_inboxes_spin_only_when_every_rank_has_a_core() {
        use crate::inbox::{host_cores, WaitMode};
        let cores = host_cores();
        let (_fabric, rxs) = Fabric::new(cores);
        assert!(rxs.iter().all(|rx| rx.mode() == WaitMode::Spin));
        let (_fabric, rxs) = Fabric::new(cores + 1);
        assert!(rxs.iter().all(|rx| rx.mode() == WaitMode::Park));
    }

    #[test]
    fn remote_backend_fabric_round_trips_envelopes() {
        let (fabric, rxs) = Fabric::for_backend(TransportKind::SharedMem, 2).unwrap();
        assert_eq!(fabric.transport_kind(), TransportKind::SharedMem);
        assert!(
            rxs.iter()
                .all(|rx| rx.mode() == crate::inbox::WaitMode::Park),
            "remote backends park at once"
        );
        fabric
            .deposit(1, Envelope::new(3, 0, 9, vec![7u8; 300]))
            .unwrap();
        let env = rxs[1].recv().unwrap();
        assert_eq!((env.ctx, env.src, env.tag), (3, 0, 9));
        assert_eq!(env.data, vec![7u8; 300]);
        for rank in 0..2 {
            fabric.rank_done(rank);
        }
    }

    #[test]
    fn fault_plane_works_on_remote_backend() {
        use crate::fault::{FaultSpec, LinkSel};
        let (fabric, rxs) = Fabric::for_backend(TransportKind::Uds, 2).unwrap();
        fabric.install_faults(FaultSpec::new(11).drop_rate(LinkSel::any(), 1.0));
        fabric
            .deposit(1, Envelope::sequenced(0, 0, 5, 1, vec![9u8]))
            .unwrap();
        assert!(
            rxs[1]
                .recv_timeout(std::time::Duration::from_millis(50))
                .unwrap()
                .is_none(),
            "data envelope dropped before the wire"
        );
        assert_eq!(fabric.fault_stats().unwrap().drops, 1);
        fabric.deposit(1, Envelope::ack(0, 0, 5, 1)).unwrap();
        assert!(rxs[1].recv().expect("ack crosses the wire").is_ack());
    }
}
