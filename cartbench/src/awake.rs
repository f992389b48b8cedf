//! Idle-priority spinners that keep every vCPU of the machine awake while
//! the benchmark runs.
//!
//! On a virtual machine an idle vCPU halts, and waking it — each time a
//! rank blocks on its peer and the peer's message arrives — waits until
//! the hypervisor schedules that vCPU again. While other guests load the
//! host, that wait outgrows the collective itself: on the reference host
//! halo-reduce fell from about 38 000 to 15 000 ops/s in such episodes,
//! for whole minutes, and no window of the run was spared. One spinner per
//! core under the `SCHED_IDLE` policy keeps each vCPU running; the kernel
//! preempts it as soon as any other thread becomes runnable, so it takes
//! no time from the measured threads. The effect is that of booting with
//! `idle=poll`, limited to the benchmark's own run. With the spinners the
//! same episodes left halo-reduce at about 39 000 ops/s.
//!
//! Set-up is timed with the spinners paused ([`paused`]): while they spin,
//! the many short-lived threads and large buffers of a set-up take twice
//! as long in some set-ups and not in others (halo-bulk: 5 or 10 ms), so
//! `setup_s` would flip between the two from run to run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Set while [`paused`] runs; spinners sleep instead of spinning.
static PAUSED: AtomicBool = AtomicBool::new(false);

/// How long a paused spinner sleeps between looks at [`PAUSED`].
const PAUSE_POLL: Duration = Duration::from_millis(1);

/// Run `f` with the spinners paused, so the vCPUs may halt meanwhile.
pub fn paused<R>(f: impl FnOnce() -> R) -> R {
    PAUSED.store(true, Ordering::Relaxed);
    let r = f();
    PAUSED.store(false, Ordering::Relaxed);
    r
}

/// Running spinners; [`Spinners::stop`] ends and joins them.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    /// Spinners that run under the idle policy. A thread that could not
    /// switch to it ends at once rather than compete with the ranks.
    pub active: usize,
}

impl Spinners {
    /// Start one spinner per core.
    pub fn start(cores: usize) -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let handles: Vec<JoinHandle<()>> = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let tx = tx.clone();
                std::thread::Builder::new()
                    .name("cartbench-awake".into())
                    .spawn(move || {
                        let idle = set_idle_policy();
                        let _ = tx.send(idle);
                        if idle {
                            while !stop.load(Ordering::Relaxed) {
                                if PAUSED.load(Ordering::Relaxed) {
                                    std::thread::sleep(PAUSE_POLL);
                                } else {
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    })
                    .expect("spawn spinner")
            })
            .collect();
        let active = rx.iter().take(cores).filter(|&idle| idle).count();
        Spinners {
            stop,
            handles,
            active,
        }
    }

    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles {
            h.join().expect("spinner panicked");
        }
    }
}

/// Put the calling thread under `SCHED_IDLE`; false where that fails or
/// the platform has no such policy.
#[cfg(target_os = "linux")]
fn set_idle_policy() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` only reads `param`, a live, properly
    // laid out `struct sched_param`; pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_idle_policy() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_start_and_stop() {
        let s = Spinners::start(2);
        assert!(s.active <= 2);
        assert_eq!(paused(|| 7), 7);
        s.stop();
    }
}
