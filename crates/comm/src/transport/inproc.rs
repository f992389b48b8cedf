//! The in-process backend: one [`Inbox`] per rank.
//!
//! This is the original fabric interconnect, now behind the
//! [`Transport`] trait. It is the zero-regression fast path: a deposit
//! is a single inbox push, payloads travel as
//! [`PooledBuf`](crate::pool::PooledBuf)s (no serialization), and the
//! inbox's FIFO order provides the per-link non-overtaking guarantee
//! directly. Inboxes spin before they park when every rank has a core
//! ([`WaitMode::for_ranks`]).
//!
//! The one behavioral change from the pre-trait fabric: a deposit to a
//! terminated rank returns [`TransportError::Closed`] instead of
//! panicking, so peer death surfaces as
//! [`CommError::PeerUnreachable`](crate::error::CommError::PeerUnreachable)
//! exactly like it does on the remote backends.

use std::sync::Arc;

use cartcomm_obs::Obs;

use super::{Transport, TransportError, TransportKind, TransportResult};
use crate::envelope::Envelope;
use crate::inbox::{inbox, Inbox, InboxSender, WaitMode};

/// Inbox-per-rank transport; all ranks share the process.
pub struct InProcTransport {
    senders: Vec<InboxSender>,
}

impl InProcTransport {
    /// Build one inbox per rank (`obs[r]` counts rank `r`'s waits) and
    /// hand back the receiving ends.
    pub fn new(obs: &[Arc<Obs>]) -> (InProcTransport, Vec<Inbox>) {
        let mode = WaitMode::for_ranks(obs.len());
        let (senders, receivers) = obs.iter().map(|o| inbox(mode, Arc::clone(o))).unzip();
        (InProcTransport { senders }, receivers)
    }
}

impl Transport for InProcTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::InProcess
    }

    fn size(&self) -> usize {
        self.senders.len()
    }

    #[inline]
    fn deposit(&self, dst: usize, env: Envelope) -> TransportResult<()> {
        self.senders[dst]
            .deposit(env)
            .map_err(|_| TransportError::Closed { peer: dst })
    }

    #[inline]
    fn poll(&self, _rank: usize) -> TransportResult<()> {
        Ok(()) // a deposit is delivery; nothing to progress
    }

    #[inline]
    fn flush(&self, _rank: usize) -> TransportResult<()> {
        Ok(()) // eager: deposited means on the wire
    }

    fn shutdown(&self, _rank: usize) {
        // Endpoint lifetime is the inbox's lifetime; dropping the
        // rank's `Comm` (and with it the inbox) is the shutdown.
    }

    fn in_process(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(p: usize) -> Vec<Arc<Obs>> {
        (0..p).map(|_| Arc::new(Obs::new())).collect()
    }

    #[test]
    fn deposits_route_and_preserve_fifo() {
        let (t, rxs) = InProcTransport::new(&obs(2));
        assert_eq!(t.size(), 2);
        assert_eq!(t.kind(), TransportKind::InProcess);
        assert!(t.in_process());
        for i in 0..10u8 {
            t.deposit(1, Envelope::new(0, 0, 0, vec![i])).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(rxs[1].try_recv().unwrap().data, vec![i]);
        }
        assert!(rxs[0].try_recv().is_none());
    }

    #[test]
    fn deposit_to_dropped_endpoint_errors() {
        let (t, rxs) = InProcTransport::new(&obs(2));
        drop(rxs);
        let err = t.deposit(1, Envelope::new(0, 0, 0, vec![1u8])).unwrap_err();
        assert_eq!(err, TransportError::Closed { peer: 1 });
    }
}
