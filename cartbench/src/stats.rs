//! Order statistics over measured samples, and the per-window statistics
//! every end-to-end metric is computed from.

use std::time::{Duration, Instant};

use crate::steal::StealTrace;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks. Sorts `samples` in place. Empty input gives 0.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    samples[lo] + (samples[hi] - samples[lo]) * frac
}

/// The median of `samples` (sorts in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean of the middle half of `samples` (the interquartile mean):
/// robust to outliers like the median, but it moves smoothly when the
/// share of slow samples changes. Sorts in place; empty input gives 0.
pub fn mid_mean(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    let (lo, hi) = (n / 4, n - n / 4);
    samples[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Repeat `body` until at least `min_ns` nanoseconds have passed, in
/// `rounds` separately timed rounds; returns the median per-call time in
/// nanoseconds. Each round's call count is fixed by a calibration pass so
/// every round measures at least `min_ns / rounds`.
pub fn time_per_call_ns(min_ns: u64, rounds: usize, mut body: impl FnMut()) -> f64 {
    let per_round = (min_ns / rounds.max(1) as u64).max(1);
    let mut calls = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            body();
        }
        if t.elapsed().as_nanos() as u64 >= per_round / 4 || calls >= 1 << 30 {
            break;
        }
        calls *= 2;
    }
    calls *= 4;
    let mut per_call: Vec<f64> = (0..rounds.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                body();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&mut per_call)
}

/// Samples a window keeps for its percentiles; past this, a uniform
/// sample (reservoir sampling). The buffers are allocated and touched up
/// front, so the resident set does not grow with throughput.
const WINDOW_SAMPLES: usize = 8192;

/// Per-window statistics of a measured phase. Operations are added in
/// completion order; each window of at least `len_s` seconds yields its
/// throughput, latency p50/p90 and skew p50.
pub struct Windowed {
    origin: Instant,
    len_s: f64,
    start_s: f64,
    start_ops: u64,
    /// Operations offered to the current window.
    seen: u64,
    rng: u64,
    lat: Vec<f64>,
    skew: Vec<f64>,
    done: WindowSet,
}

/// One closed window.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: Instant,
    end: Instant,
    rate: f64,
    p50: f64,
    p90: f64,
    skew50: f64,
    /// Steal while the window ran, as a share of the machine's CPU time.
    steal: f64,
}

/// The closed windows of one or more phases.
#[derive(Debug, Clone, Default)]
pub struct WindowSet(Vec<Window>);

/// Steal share up to which a window counts as left alone by the host.
const STEAL_OK: f64 = 0.02;

/// Interquartile means over the windows the host left alone — robust to
/// the stalls a shared host inflicts on some windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    pub ops_per_s: f64,
    pub p50: f64,
    pub p90: f64,
    pub skew_p50: f64,
    /// Windows kept, and all windows.
    pub kept: usize,
    pub windows: usize,
    /// Mean steal share over all windows: how much the host interfered.
    pub steal: f64,
}

impl WindowSet {
    pub fn extend(&mut self, other: WindowSet) {
        self.0.extend(other.0);
    }

    /// Charge each window with the steal `trace` saw while it ran.
    pub fn charge_steal(&mut self, trace: &StealTrace) {
        for w in &mut self.0 {
            w.steal = trace.share_between(w.start, w.end);
        }
    }

    /// Interquartile means over the windows with at most [`STEAL_OK`]
    /// steal or, when fewer than a quarter of them are, over the quarter
    /// with the least steal.
    pub fn stats(&self) -> PhaseStats {
        let mut kept: Vec<&Window> = self.0.iter().collect();
        kept.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        let calm = kept.iter().filter(|w| w.steal <= STEAL_OK).count();
        kept.truncate(calm.max(self.0.len().div_ceil(4)));
        let mean_of =
            |f: fn(&Window) -> f64| mid_mean(&mut kept.iter().map(|w| f(w)).collect::<Vec<_>>());
        PhaseStats {
            ops_per_s: mean_of(|w| w.rate),
            p50: mean_of(|w| w.p50),
            p90: mean_of(|w| w.p90),
            skew_p50: mean_of(|w| w.skew50),
            kept: kept.len(),
            windows: self.0.len(),
            steal: ratio(self.0.iter().map(|w| w.steal).sum(), self.0.len() as f64),
        }
    }
}

impl Windowed {
    /// Windows of `len_s` seconds, timed from `origin`.
    pub fn new(origin: Instant, len_s: f64) -> Self {
        let touched = || {
            let mut v = vec![1.0f64; WINDOW_SAMPLES];
            v.clear();
            v
        };
        Windowed {
            origin,
            len_s,
            start_s: 0.0,
            start_ops: 0,
            seen: 0,
            rng: 0x5EED,
            lat: touched(),
            skew: touched(),
            done: WindowSet::default(),
        }
    }

    /// One completed operation's latency and skew (any unit).
    pub fn add(&mut self, lat: f64, skew: f64) {
        self.seen += 1;
        if self.lat.len() < WINDOW_SAMPLES {
            self.lat.push(lat);
            self.skew.push(skew);
            return;
        }
        self.rng = crate::splitmix(self.rng);
        let j = (self.rng % self.seen) as usize;
        if j < WINDOW_SAMPLES {
            self.lat[j] = lat;
            self.skew[j] = skew;
        }
    }

    /// `ops` operations had completed `at_s` seconds after the origin;
    /// closes the current window once it is long enough.
    pub fn note(&mut self, at_s: f64, ops: u64) {
        if at_s - self.start_s >= self.len_s && !self.lat.is_empty() {
            self.close(at_s, ops);
        }
    }

    fn close(&mut self, at_s: f64, ops: u64) {
        let dt = at_s - self.start_s;
        self.done.0.push(Window {
            start: self.origin + Duration::from_secs_f64(self.start_s),
            end: self.origin + Duration::from_secs_f64(at_s),
            rate: (ops - self.start_ops) as f64 / dt,
            p50: quantile(&mut self.lat, 0.5),
            p90: quantile(&mut self.lat, 0.9),
            skew50: median(&mut self.skew),
            steal: 0.0,
        });
        self.lat.clear();
        self.skew.clear();
        self.seen = 0;
        self.start_s = at_s;
        self.start_ops = ops;
    }

    /// The phase's windows; a phase too short to close a window counts
    /// as one window.
    pub fn finish(mut self, at_s: f64, ops: u64) -> WindowSet {
        if self.done.0.is_empty() && !self.lat.is_empty() {
            self.close(at_s, ops);
        }
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_windows_keep_a_uniform_sample() {
        let mut w = Windowed::new(Instant::now(), 1.0);
        let n = 10 * WINDOW_SAMPLES;
        for i in 0..n {
            w.add(i as f64, 0.0);
        }
        assert_eq!(w.lat.len(), WINDOW_SAMPLES);
        let p50 = w.finish(1.0, n as u64).stats().p50;
        let rel = p50 / (n as f64 / 2.0);
        assert!((0.95..1.05).contains(&rel), "p50 {p50}");
    }

    #[test]
    fn windows_report_mid_means() {
        let mut w = Windowed::new(Instant::now(), 1.0);
        for (i, at) in [(1u64, 0.5), (2, 1.0), (3, 2.0), (4, 2.5), (5, 3.0)] {
            w.add(i as f64, 0.0);
            w.note(at, i);
        }
        let s = w.finish(3.0, 5).stats();
        // Windows: {1,2} in 1 s, {3} in 1 s, {4,5} in 1 s; with three
        // windows the middle half is all of them.
        assert_eq!(s.ops_per_s, 5.0 / 3.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!((s.kept, s.windows), (3, 3));
        let mut short = Windowed::new(Instant::now(), 10.0);
        short.add(4.0, 1.0);
        let mut set = short.finish(2.0, 1);
        set.extend(WindowSet::default());
        let s = set.stats();
        assert_eq!((s.ops_per_s, s.p50, s.skew_p50), (0.5, 4.0, 1.0));
    }

    #[test]
    fn windows_under_steal_are_left_out() {
        let t0 = Instant::now();
        let mut w = Windowed::new(t0, 1.0);
        for (i, lat) in [10.0, 11.0, 99.0, 12.0, 98.0].into_iter().enumerate() {
            w.add(lat, 0.0);
            w.note(i as f64 + 1.0, i as u64 + 1);
        }
        let mut set = w.finish(5.0, 5);
        // Steal lands in the third and fifth windows, the slow ones.
        let at = |s: u64| t0 + Duration::from_secs(s);
        set.charge_steal(&crate::steal::tests::trace(&[
            (at(0), 0, 0),
            (at(2), 0, 400),
            (at(3), 40, 600),
            (at(4), 40, 800),
            (at(5), 50, 1000),
        ]));
        let s = set.stats();
        assert_eq!((s.kept, s.windows), (3, 5));
        assert_eq!(s.p50, 11.0);
        // When every window ran under steal, the least-stolen quarter.
        set.charge_steal(&crate::steal::tests::trace(&[
            (at(0), 0, 0),
            (at(1), 9, 200),
            (at(2), 19, 400),
            (at(3), 59, 600),
            (at(4), 64, 800),
            (at(5), 74, 1000),
        ]));
        let s = set.stats();
        assert_eq!((s.kept, s.windows), (2, 5));
        assert_eq!(s.p50, 11.0);
    }

    #[test]
    fn mid_mean_drops_the_outer_quarters() {
        let mut v = vec![100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(mid_mean(&mut v), 3.5);
        assert_eq!(mid_mean(&mut [7.0]), 7.0);
        assert_eq!(mid_mean(&mut []), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
