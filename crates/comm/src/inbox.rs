//! The per-rank inbox: where every backend delivers envelopes, and where
//! a rank waits for them.
//!
//! One [`Inbox`] per rank, fed by any number of [`InboxSender`]s (the
//! in-process transport's deposit, or a remote backend's progress
//! thread). The queue itself is a `Mutex<VecDeque>`; what makes it cheap
//! is the waiting protocol around it:
//!
//! * **Spin, then park.** An empty receive first spins on an atomic
//!   queue length for an adaptive budget (at most 20 µs): a wait that
//!   finishes inside the budget restores it to the maximum, one that runs
//!   it out halves it (down to 625 ns). Only then does the receiver park
//!   on a condition variable.
//! * **Wake only the parked.** The receiver raises a `parked` flag under
//!   the queue lock before it waits; a deposit pays for the OS wake-up
//!   only if it finds that flag set, and clears it, so each park costs at
//!   most one wake no matter how many senders arrive. A deposit to a
//!   spinning (or busy) receiver is a lock, a push, and a store.
//!
//! Because `parked` is read and written under the same lock the waiter
//! releases atomically in `Condvar::wait`, a deposit either lands before
//! the receiver's last emptiness check or finds the flag set: no wake-up
//! is lost. Closing follows the same rule — the last sender to drop
//! marks the inbox closed and notifies under the lock.
//!
//! Spinning only pays when every rank has a core to spin on, so
//! [`WaitMode::for_ranks`] picks [`WaitMode::Spin`] only for `p ≤`
//! [`host_cores`]; oversubscribed universes (and remote backends, whose
//! progress threads already occupy the cores) park at once.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use cartcomm_obs::Obs;

use crate::envelope::Envelope;

/// Upper bound of the adaptive spin budget, nanoseconds.
const MAX_SPIN: u32 = 20_000;
/// Lower bound the spin budget halves down to, nanoseconds.
const MIN_SPIN: u32 = MAX_SPIN >> 5;
/// Spin iterations between two clock reads.
const SPINS_PER_CLOCK_READ: u32 = 16;

/// Cores this process may run on, read once: `available_parallelism`
/// reads cgroup files on Linux, too slow to repeat per universe.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How an empty receive waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitMode {
    /// Spin within the adaptive budget, then park.
    Spin,
    /// Park at once.
    Park,
}

impl WaitMode {
    /// [`WaitMode::Spin`] when all `p` ranks fit on this host's cores,
    /// [`WaitMode::Park`] otherwise.
    pub fn for_ranks(p: usize) -> WaitMode {
        if p <= host_cores() {
            WaitMode::Spin
        } else {
            WaitMode::Park
        }
    }
}

/// The inbox is closed: its receiver is gone (on deposit), or every
/// sender is gone and the queue is drained (on receive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

impl fmt::Display for Closed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("inbox closed")
    }
}

impl std::error::Error for Closed {}

struct Queue {
    items: VecDeque<Envelope>,
    /// The receiver is (about to be) blocked in `Condvar::wait`.
    parked: bool,
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    avail: Condvar,
    /// Mirror of `items.len()`, stored (`Release`) under the lock; the
    /// receiver spins on it (`Acquire`) without taking the lock, then
    /// pops under the lock.
    len: AtomicUsize,
    senders: AtomicUsize,
    /// The receiving rank's counters (spin hits, parks, wakes).
    obs: Arc<Obs>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // No critical section leaves `Queue` half-updated (a push or pop
        // plus flag writes), so a panicking holder leaves it usable.
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Mark closed and wake a parked receiver, under the lock so the
    /// receiver cannot miss it between its check and its wait.
    fn close(&self) -> MutexGuard<'_, Queue> {
        let mut q = self.lock();
        q.closed = true;
        q.parked = false;
        self.avail.notify_all();
        q
    }
}

/// The receiving end of a rank's inbox. Single consumer.
pub struct Inbox {
    shared: Arc<Shared>,
    mode: WaitMode,
    /// Current spin budget, nanoseconds (receiver-private; atomic only so
    /// the inbox can sit in shared per-rank state).
    budget_ns: AtomicU32,
}

/// A depositing handle on a rank's inbox; cloneable. When the last one
/// drops the inbox closes, and a receive on the drained inbox fails.
pub struct InboxSender {
    shared: Arc<Shared>,
}

/// A new inbox whose spin/park counters land in `obs`'s metrics.
pub fn inbox(mode: WaitMode, obs: Arc<Obs>) -> (InboxSender, Inbox) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(Queue {
            items: VecDeque::new(),
            parked: false,
            closed: false,
        }),
        avail: Condvar::new(),
        len: AtomicUsize::new(0),
        senders: AtomicUsize::new(1),
        obs,
    });
    (
        InboxSender {
            shared: Arc::clone(&shared),
        },
        Inbox {
            shared,
            mode,
            budget_ns: AtomicU32::new(MAX_SPIN),
        },
    )
}

impl InboxSender {
    /// Enqueue `env`, waking the receiver if it is parked. Fails when the
    /// receiver is gone (the envelope is dropped).
    #[inline]
    pub fn deposit(&self, env: Envelope) -> Result<(), Closed> {
        let s = &*self.shared;
        let mut q = s.lock();
        if q.closed {
            drop(q);
            drop(env);
            return Err(Closed);
        }
        q.items.push_back(env);
        s.len.store(q.items.len(), Ordering::Release);
        let wake = std::mem::replace(&mut q.parked, false);
        drop(q);
        if wake {
            s.avail.notify_one();
            s.obs.metrics().inbox_wake();
        }
        Ok(())
    }
}

impl Clone for InboxSender {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::Relaxed);
        InboxSender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for InboxSender {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Queued envelopes stay receivable until the inbox drains.
            drop(self.shared.close());
        }
    }
}

impl fmt::Debug for InboxSender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("InboxSender { .. }")
    }
}

impl Inbox {
    /// How this inbox waits when empty.
    pub fn mode(&self) -> WaitMode {
        self.mode
    }

    /// Take the oldest envelope if one is queued. Costs one atomic load
    /// when the inbox is empty.
    #[inline]
    pub fn try_recv(&self) -> Option<Envelope> {
        if self.shared.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.pop(&mut self.shared.lock())
    }

    /// Block until an envelope arrives. Fails once the inbox is empty
    /// and every sender is gone.
    pub fn recv(&self) -> Result<Envelope, Closed> {
        self.wait(None)
            .map(|env| env.expect("an untimed wait returns an envelope"))
    }

    /// Block until an envelope arrives or `timeout` passes (`Ok(None)`).
    /// Fails once the inbox is empty and every sender is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope>, Closed> {
        self.wait(Some(Instant::now() + timeout))
    }

    fn pop(&self, q: &mut Queue) -> Option<Envelope> {
        let env = q.items.pop_front()?;
        self.shared.len.store(q.items.len(), Ordering::Release);
        Some(env)
    }

    fn wait(&self, deadline: Option<Instant>) -> Result<Option<Envelope>, Closed> {
        if let Some(env) = self.try_recv() {
            return Ok(Some(env));
        }
        if self.mode == WaitMode::Spin && self.spin(deadline) {
            self.shared.obs.metrics().inbox_spin_hit();
        }
        let s = &*self.shared;
        let mut q = s.lock();
        let mut parked = false;
        loop {
            if let Some(env) = self.pop(&mut q) {
                return Ok(Some(env));
            }
            if q.closed {
                return Err(Closed);
            }
            if !parked {
                parked = true;
                s.obs.metrics().inbox_park();
            }
            q.parked = true;
            q = match deadline {
                None => s.avail.wait(q).unwrap_or_else(|p| p.into_inner()),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        q.parked = false;
                        return Ok(None);
                    }
                    s.avail
                        .wait_timeout(q, left)
                        .unwrap_or_else(|p| p.into_inner())
                        .0
                }
            };
        }
    }

    /// Spin on the queue length for the current budget (and never past
    /// `deadline`). True if an envelope showed up; adapts the budget.
    fn spin(&self, deadline: Option<Instant>) -> bool {
        let budget = self.budget_ns.load(Ordering::Relaxed);
        let start = Instant::now();
        let mut end = start + Duration::from_nanos(u64::from(budget));
        if let Some(deadline) = deadline {
            end = end.min(deadline);
        }
        loop {
            for _ in 0..SPINS_PER_CLOCK_READ {
                if self.shared.len.load(Ordering::Acquire) != 0 {
                    self.budget_ns.store(MAX_SPIN, Ordering::Relaxed);
                    return true;
                }
                std::hint::spin_loop();
            }
            if Instant::now() >= end {
                self.budget_ns
                    .store((budget / 2).max(MIN_SPIN), Ordering::Relaxed);
                return false;
            }
        }
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        // Refuse further deposits. The queued envelopes drop after the
        // lock is released (their buffers go back to a pool).
        let orphans = std::mem::take(&mut self.shared.close().items);
        drop(orphans);
    }
}

impl fmt::Debug for Inbox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inbox")
            .field("mode", &self.mode)
            .field("len", &self.shared.len.load(Ordering::Relaxed))
            .finish()
    }
}
