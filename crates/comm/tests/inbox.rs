//! The per-rank inbox in both wait modes: per-sender FIFO and
//! exactly-once delivery under concurrent senders, no lost wake-up in
//! deposit/park races, close semantics, timeouts, and the spin/park/wake
//! counters. Every blocking wait here is bounded, so a lost wake-up
//! fails the test instead of hanging it.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use cartcomm_comm::envelope::Envelope;
use cartcomm_comm::inbox::{inbox, Closed, Inbox, InboxSender, WaitMode};
use cartcomm_comm::obs::Obs;

const MODES: [WaitMode; 2] = [WaitMode::Spin, WaitMode::Park];
/// Upper bound on any single wait in these tests.
const BOUND: Duration = Duration::from_secs(10);

fn fresh(mode: WaitMode) -> (InboxSender, Inbox, Arc<Obs>) {
    let obs = Arc::new(Obs::new());
    let (tx, rx) = inbox(mode, Arc::clone(&obs));
    (tx, rx, obs)
}

fn env(src: usize, seq: u32) -> Envelope {
    Envelope::new(0, src, seq, seq.to_le_bytes().to_vec())
}

/// `recv` with a deadline: a receive still blocked after [`BOUND`] is a
/// lost wake-up.
fn recv_bounded(rx: &Inbox) -> Result<Envelope, Closed> {
    match rx.recv_timeout(BOUND) {
        Ok(Some(env)) => Ok(env),
        Ok(None) => panic!("receive still blocked after {BOUND:?}: lost wake-up"),
        Err(e) => Err(e),
    }
}

/// Wait until the receiver counted by `obs` has parked: it bumps the
/// counter under the queue lock it releases only by waiting, so the next
/// deposit or close is ordered after its last emptiness check.
fn until_parked(obs: &Obs) {
    let t0 = Instant::now();
    while obs.snapshot().inbox_parks == 0 {
        assert!(t0.elapsed() < BOUND, "receiver never parked");
        thread::yield_now();
    }
}

/// Run `f` on a thread and wait for it at most [`BOUND`].
fn bounded<R: Send + 'static>(what: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = done_tx.send(f());
    });
    done_rx
        .recv_timeout(BOUND)
        .unwrap_or_else(|_| panic!("{what}: did not finish within {BOUND:?}"))
}

#[test]
fn concurrent_senders_keep_per_sender_fifo_and_deliver_once() {
    const SENDERS: usize = 4;
    const PER_SENDER: u32 = 5_000;
    for mode in MODES {
        let (tx, rx, _obs) = fresh(mode);
        let producers: Vec<_> = (0..SENDERS)
            .map(|src| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for seq in 0..PER_SENDER {
                        tx.deposit(env(src, seq)).unwrap();
                        if seq % 64 == 0 {
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = [0u32; SENDERS];
        let mut total = 0;
        // Ends with `Closed` once every producer's sender is gone.
        while let Ok(e) = recv_bounded(&rx) {
            assert_eq!(e.tag, next[e.src], "{mode:?}: sender {} overtaken", e.src);
            assert_eq!(*e.data, e.tag.to_le_bytes());
            next[e.src] += 1;
            total += 1;
        }
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(total, SENDERS * PER_SENDER as usize, "{mode:?}");
        assert!(next.iter().all(|&n| n == PER_SENDER), "{mode:?}: {next:?}");
        assert!(rx.try_recv().is_none());
    }
}

#[test]
fn deposit_park_races_never_lose_a_wake_up() {
    // Ping-pong through two inboxes: each side blocks on an empty inbox
    // while the other deposits, so every exchange races a deposit against
    // a park. The pauses vary who wins (spin hit, park before the
    // deposit, deposit between check and wait).
    const ROUNDS: u32 = 20_000;
    for mode in MODES {
        let (to_b, b_rx, b_obs) = fresh(mode);
        let (to_a, a_rx, a_obs) = fresh(mode);
        let b = thread::spawn(move || {
            for seq in 0..ROUNDS {
                let e = recv_bounded(&b_rx).unwrap();
                assert_eq!(e.tag, seq);
                if seq % 7 == 0 {
                    thread::sleep(Duration::from_micros(30));
                }
                to_a.deposit(env(1, seq)).unwrap();
            }
        });
        for seq in 0..ROUNDS {
            if seq % 5 == 0 {
                thread::sleep(Duration::from_micros(30));
            }
            to_b.deposit(env(0, seq)).unwrap();
            assert_eq!(recv_bounded(&a_rx).unwrap().tag, seq);
        }
        b.join().unwrap();
        for obs in [a_obs, b_obs] {
            let m = obs.snapshot();
            assert!(
                m.inbox_wakes <= m.inbox_parks,
                "{mode:?}: {} wakes for {} parks",
                m.inbox_wakes,
                m.inbox_parks
            );
            if mode == WaitMode::Park {
                assert_eq!(m.inbox_spin_hits, 0, "park-only inbox spun");
            }
        }
    }
}

#[test]
fn close_wakes_a_parked_receiver() {
    for mode in MODES {
        for round in 0..500 {
            let (tx, rx, obs) = fresh(mode);
            let receiver = {
                let obs = Arc::clone(&obs);
                thread::spawn(move || (rx.recv(), obs))
            };
            // Even rounds close a parked receiver; odd rounds race the
            // close against the receiver's spin and park.
            if round % 2 == 0 {
                until_parked(&obs);
            }
            drop(tx);
            let (got, _) = bounded("parked receive after close", move || {
                receiver.join().unwrap()
            });
            assert_eq!(got.unwrap_err(), Closed, "{mode:?} round {round}");
            assert_eq!(obs.snapshot().inbox_wakes, 0, "close is not a deposit");
        }
    }
}

#[test]
fn queued_envelopes_outlive_the_last_sender() {
    for mode in MODES {
        let (tx, rx, _obs) = fresh(mode);
        tx.deposit(env(0, 1)).unwrap();
        tx.deposit(env(0, 2)).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap().tag, 1);
        assert_eq!(rx.try_recv().unwrap().tag, 2);
        assert_eq!(rx.recv().unwrap_err(), Closed);
        assert_eq!(rx.recv_timeout(BOUND).unwrap_err(), Closed);
    }
}

#[test]
fn deposit_after_close_returns_closed() {
    for mode in MODES {
        let (tx, rx, _obs) = fresh(mode);
        let other = tx.clone();
        tx.deposit(env(0, 0)).unwrap();
        drop(rx);
        assert_eq!(tx.deposit(env(0, 1)), Err(Closed));
        assert_eq!(other.deposit(env(1, 0)), Err(Closed));
    }
}

#[test]
fn recv_timeout_expires_on_an_empty_inbox() {
    for mode in MODES {
        let (tx, rx, obs) = fresh(mode);
        let wait = Duration::from_millis(20);
        let t0 = Instant::now();
        assert!(rx.recv_timeout(wait).unwrap().is_none(), "{mode:?}");
        assert!(t0.elapsed() >= wait, "{mode:?}: returned early");
        assert!(rx.try_recv().is_none());
        // A timed-out park must not leave a stale flag that charges the
        // next deposit a wake-up.
        tx.deposit(env(0, 9)).unwrap();
        assert_eq!(obs.snapshot().inbox_wakes, 0, "{mode:?}");
        assert_eq!(rx.recv_timeout(wait).unwrap().unwrap().tag, 9);
    }
}

#[test]
fn parked_receiver_costs_one_wake_per_park() {
    for mode in MODES {
        let (tx, rx, obs) = fresh(mode);
        let receiver = thread::spawn(move || {
            let mut tags = Vec::new();
            for _ in 0..3 {
                tags.push(recv_bounded(&rx).unwrap().tag);
            }
            tags
        });
        // Once the receiver has parked, three deposits in a burst.
        until_parked(&obs);
        for seq in 0..3 {
            tx.deposit(env(0, seq)).unwrap();
        }
        let tags = bounded("burst receive", move || receiver.join().unwrap());
        assert_eq!(tags, vec![0, 1, 2]);
        let m = obs.snapshot();
        assert!(m.inbox_parks >= 1, "{mode:?}: receiver never parked");
        assert!(m.inbox_wakes <= m.inbox_parks, "{mode:?}: {m:?}");
    }
}

#[test]
fn spin_mode_catches_a_prompt_deposit_without_parking() {
    const STOP: u32 = u32::MAX;
    let (tx, rx, obs) = fresh(WaitMode::Spin);
    // The receiver announces each receive on an atomic the sender spins
    // on (no futex on either side), so the deposit lands a few µs into
    // the receive, well inside the spin budget. A loaded host can
    // deschedule either side past any one budget, so rounds repeat until
    // one receive is caught spinning.
    let entered = Arc::new(AtomicU32::new(0));
    let receiver = {
        let entered = Arc::clone(&entered);
        thread::spawn(move || {
            for seq in 0.. {
                entered.store(seq + 1, Ordering::Release);
                match recv_bounded(&rx).unwrap().tag {
                    STOP => return,
                    tag => assert_eq!(tag, seq),
                }
            }
        })
    };
    let t0 = Instant::now();
    let mut seq = 0;
    loop {
        while entered.load(Ordering::Acquire) != seq + 1 {
            assert!(t0.elapsed() < BOUND, "receiver stalled");
            std::hint::spin_loop();
        }
        if obs.snapshot().inbox_spin_hits > 0 {
            break;
        }
        assert!(
            t0.elapsed() < BOUND,
            "no receive caught spinning: {:?}",
            obs.snapshot()
        );
        let t1 = Instant::now();
        while t1.elapsed() < Duration::from_micros(3) {
            std::hint::spin_loop();
        }
        tx.deposit(env(0, seq)).unwrap();
        seq += 1;
    }
    tx.deposit(env(0, STOP)).unwrap();
    bounded("spin receives", move || receiver.join().unwrap());
}

#[test]
fn wait_mode_follows_the_core_count() {
    let cores = cartcomm_comm::inbox::host_cores();
    assert!(cores >= 1);
    assert_eq!(WaitMode::for_ranks(1), WaitMode::Spin);
    assert_eq!(WaitMode::for_ranks(cores), WaitMode::Spin);
    assert_eq!(WaitMode::for_ranks(cores + 1), WaitMode::Park);
}
