//! Offline stand-in for `crossbeam-channel`.
//!
//! Implements the unbounded MPMC channel subset the runtime uses
//! (`unbounded`, `Sender::send`, `Receiver::recv` / `try_recv`,
//! disconnect-on-drop semantics) over a `Mutex<VecDeque>` + `Condvar`.
//! Throughput is lower than real crossbeam but semantics are identical,
//! including FIFO ordering per channel — the property the fabric's
//! non-overtaking guarantee rests on.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Error returned by [`Sender::send`] when every receiver is gone; carries
/// the unsent message back.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

/// Error returned by [`Receiver::recv`]: channel empty and all senders gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Channel currently has no message.
    Empty,
    /// Channel is empty and every sender has been dropped.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("receiving on an empty channel"),
            TryRecvError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// Channel is empty and every sender has been dropped.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
            RecvTimeoutError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    avail: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

/// Sending half of the channel; cloneable.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half of the channel; cloneable.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create an unbounded FIFO channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        avail: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueue a message; fails only when every receiver is dropped.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        if self.shared.receivers.load(Ordering::Acquire) == 0 {
            return Err(SendError(msg));
        }
        let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        q.push_back(msg);
        drop(q);
        self.shared.avail.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::AcqRel);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender: wake blocked receivers so they observe disconnect.
            // Notify under the queue lock: `recv`/`recv_timeout` read
            // `senders` and start waiting under that lock, so a receiver
            // either sees the count at zero or is already waiting when the
            // notification fires — never in between.
            let _q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            self.shared.avail.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> Receiver<T> {
    /// Block until a message arrives; fails when the channel is empty and
    /// every sender is dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(msg) = q.pop_front() {
                return Ok(msg);
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                return Err(RecvError);
            }
            q = self.shared.avail.wait(q).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Block until a message arrives or `timeout` elapses.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(msg) = q.pop_front() {
                return Ok(msg);
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = std::time::Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return Err(RecvTimeoutError::Timeout);
            };
            let (guard, _res) = self
                .shared
                .avail
                .wait_timeout(q, remaining)
                .unwrap_or_else(|p| p.into_inner());
            q = guard;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(msg) = q.pop_front() {
            return Ok(msg);
        }
        if self.shared.senders.load(Ordering::Acquire) == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }

    /// True if no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::AcqRel);
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn try_recv_empty_then_value() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(9).unwrap();
        assert_eq!(rx.try_recv(), Ok(9));
    }

    #[test]
    fn recv_fails_after_senders_drop() {
        let (tx, rx) = unbounded::<u8>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_after_receivers_drop() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = unbounded::<u8>();
        let h = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.send(42).unwrap();
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        use std::time::Duration;
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(3).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(3));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn recv_timeout_wakes_on_send() {
        use std::time::Duration;
        let (tx, rx) = unbounded::<u8>();
        let h = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)).unwrap());
        std::thread::sleep(Duration::from_millis(10));
        tx.send(42).unwrap();
        assert_eq!(h.join().unwrap(), 42);
    }

    /// Runs `wait` on a fresh channel in a thread while the only sender
    /// drops, many times over; every wait must end with a disconnect
    /// within the join timeout (a lost wake-up leaves it blocked).
    fn last_sender_drop_always_wakes<R: Send + 'static>(
        wait: fn(&Receiver<u8>) -> R,
        disconnected: fn(&R) -> bool,
    ) {
        use std::time::Duration;
        for round in 0..2_000 {
            let (tx, rx) = unbounded::<u8>();
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let _ = done_tx.send(disconnected(&wait(&rx)));
            });
            if round % 2 == 0 {
                std::thread::yield_now();
            }
            drop(tx);
            match done_rx.recv_timeout(Duration::from_secs(10)) {
                Ok(true) => {}
                Ok(false) => panic!("round {round}: receive did not report a disconnect"),
                Err(_) => panic!("round {round}: receiver missed the last sender's drop"),
            }
        }
    }

    #[test]
    fn recv_wakes_when_last_sender_drops() {
        last_sender_drop_always_wakes(|rx| rx.recv(), |r| *r == Err(RecvError));
    }

    #[test]
    fn recv_timeout_wakes_when_last_sender_drops() {
        last_sender_drop_always_wakes(
            |rx| rx.recv_timeout(std::time::Duration::from_secs(60)),
            |r| *r == Err(RecvTimeoutError::Disconnected),
        );
    }

    #[test]
    fn mpmc_all_messages_delivered_once() {
        let (tx, rx) = unbounded::<u64>();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..4)
            .flat_map(|p| (0..250).map(move |i| p * 1000 + i))
            .collect();
        assert_eq!(all, expected);
    }
}
