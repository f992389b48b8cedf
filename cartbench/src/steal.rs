//! CPU time the hypervisor ran other guests while this machine's vCPUs
//! wanted to run ("steal", the eighth field of the `cpu` line of
//! `/proc/stat`), sampled in the background during a measured phase.
//!
//! On a shared virtual machine steal comes and goes with the neighbours'
//! load, and an operation that loses its core for a few milliseconds
//! reads many times slower. Windows measured under steal are left out of
//! the window statistics (see [`crate::stats::WindowSet::stats`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sampling period of the background reader.
const PERIOD: Duration = Duration::from_millis(50);

/// One reading of the `cpu` line: cumulative steal ticks and all ticks
/// (every state, so its growth is the machine's CPU capacity).
#[derive(Debug, Clone, Copy, Default)]
struct Ticks {
    steal: u64,
    total: u64,
}

/// The machine's cumulative ticks, if the kernel reports steal.
fn read_ticks() -> Option<Ticks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let fields: Vec<u64> = cpu
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some(Ticks {
        steal: *fields.get(7)?,
        // user..steal; guest time is already counted in user.
        total: fields.iter().take(8).sum(),
    })
}

/// A running sampler; [`StealSampler::finish`] stops and joins it.
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(Instant, Ticks)>>,
}

impl StealSampler {
    pub fn start() -> StealSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cartbench-steal".into())
            .spawn(move || {
                let mut samples = Vec::new();
                loop {
                    if let Some(s) = read_ticks() {
                        samples.push((Instant::now(), s));
                    }
                    if flag.load(Ordering::SeqCst) {
                        return samples;
                    }
                    std::thread::sleep(PERIOD);
                }
            })
            .expect("spawn steal sampler");
        StealSampler { stop, handle }
    }

    pub fn finish(self) -> StealTrace {
        self.stop.store(true, Ordering::SeqCst);
        StealTrace(self.handle.join().expect("steal sampler panicked"))
    }
}

/// The samples of one phase, oldest first.
pub struct StealTrace(Vec<(Instant, Ticks)>);

impl StealTrace {
    /// Steal between `a` and `b` as a share of the machine's CPU time
    /// over the same samples: the last taken at or before each instant
    /// (0 without samples or without time between them).
    pub fn share_between(&self, a: Instant, b: Instant) -> f64 {
        let (x, y) = (self.at(a), self.at(b));
        let total = y.total.saturating_sub(x.total);
        if total == 0 {
            return 0.0;
        }
        y.steal.saturating_sub(x.steal) as f64 / total as f64
    }

    fn at(&self, t: Instant) -> Ticks {
        let i = self.0.partition_point(|&(s, _)| s <= t);
        self.0
            .get(i.saturating_sub(1))
            .map_or(Ticks::default(), |&(_, v)| v)
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A trace of `(instant, steal, total)` readings.
    pub fn trace(samples: &[(Instant, u64, u64)]) -> StealTrace {
        StealTrace(
            samples
                .iter()
                .map(|&(t, steal, total)| (t, Ticks { steal, total }))
                .collect(),
        )
    }

    #[test]
    fn share_uses_the_last_samples_at_or_before() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let tr = trace(&[(at(0), 10, 100), (at(100), 15, 120), (at(200), 30, 170)]);
        assert_eq!(tr.share_between(at(0), at(150)), 0.25);
        assert_eq!(tr.share_between(at(100), at(250)), 0.3);
        assert_eq!(tr.share_between(at(120), at(150)), 0.0);
        assert_eq!(trace(&[]).share_between(at(0), at(10)), 0.0);
    }

    #[test]
    fn sampler_stops_and_joins() {
        let tr = StealSampler::start().finish();
        if read_ticks().is_some() {
            assert!(!tr.0.is_empty());
        }
    }
}
