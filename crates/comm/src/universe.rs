//! SPMD launcher: run the same rank program on `p` threads — or, with
//! [`Universe::spawn_processes`], on `p` processes sharing a
//! memory-mapped fabric.
//!
//! Since 0.3.0 every thread-mode launch goes through one configurable
//! entry point, [`Universe::builder`]: transport backend, fault plane,
//! profiling, and per-rank stack size all compose freely instead of
//! living in a matrix of `run_*` variants (the nine pre-0.3.0 names
//! survive as deprecated forwarders in `deprecated_shims`).
//!
//! Long-running services that execute many independent jobs on the same
//! warm fabric use [`ResidentUniverse`]: the rank threads stay parked on
//! a job queue between submissions, so pools, plan stores, and
//! communicators persist across jobs.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use cartcomm_obs::{MonotonicClock, RingBufferSink, TraceRecord};

use crate::comm::Comm;
use crate::fabric::Fabric;
use crate::fault::FaultSpec;
use crate::inbox::Inbox;
use crate::transport::shm::ShmTransport;
use crate::transport::TransportKind;

/// Entry point of the runtime: builds the fabric and runs rank programs.
pub struct Universe;

/// The output of a profiled run: per-rank results plus every rank's
/// drained trace, timestamped against **one shared clock** so the records
/// are cross-rank comparable (feed them to
/// `cartcomm_obs::profile::TraceCollector`).
pub struct ProfiledRun<R> {
    /// Rank program results, in rank order.
    pub results: Vec<R>,
    /// Drained trace records, in rank order.
    pub traces: Vec<Vec<TraceRecord>>,
    /// Records each rank's ring sink dropped on overflow, in rank order —
    /// non-zero entries mean `traces` is an honest truncation (feed them
    /// to `TraceCollector::note_dropped`).
    pub dropped: Vec<u64>,
}

/// Which side of a [`Universe::spawn_processes`] call this process is.
pub enum SpawnRole<R> {
    /// This process is one rank of the universe; the rank program ran and
    /// produced this result.
    Child(R),
    /// This process is the launcher; all child processes have exited with
    /// these statuses (in rank order).
    Parent(Vec<std::process::ExitStatus>),
}

/// Environment protocol between the spawning parent and its rank
/// processes.
const ENV_SHM_FILE: &str = "CARTCOMM_SHM_FILE";
const ENV_RANK: &str = "CARTCOMM_RANK";
const ENV_SIZE: &str = "CARTCOMM_SIZE";

fn spawn_scratch_path() -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cartcomm-spawn-{}-{n}.fabric", std::process::id()))
}

/// A fully described thread-mode launch: `p` ranks on `transport`, an
/// optional seeded fault plane, optional profiling (shared clock + one
/// ring sink per rank), and an optional per-rank stack size. Obtained
/// from [`Universe::builder`]; every knob composes with every other —
/// in particular `stack_bytes` now works with faults, profiling, and
/// non-default transports (the pre-0.3.0 `run_with_stack` composed with
/// nothing).
///
/// ```
/// use cartcomm_comm::Universe;
/// let sums = Universe::builder(4).run(|comm| {
///     let mut x = [comm.rank() as u64];
///     comm.allreduce(&mut x, |a, b| a + b).unwrap();
///     x[0]
/// });
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// ```
#[derive(Debug, Clone)]
pub struct RunConfig {
    p: usize,
    transport: TransportKind,
    faults: Option<FaultSpec>,
    stack_bytes: Option<usize>,
}

/// A [`RunConfig`] with profiling enabled ([`RunConfig::profiled`]):
/// `run` returns a [`ProfiledRun`] carrying per-rank traces on one
/// shared clock instead of bare results.
#[derive(Debug, Clone)]
pub struct ProfiledRunConfig {
    inner: RunConfig,
    capacity: usize,
}

impl RunConfig {
    /// Select the transport backend (default: in-process inboxes). The
    /// in-process backend never fails to construct; the shared-memory and
    /// socket backends touch the filesystem or network stack and may —
    /// use [`RunConfig::try_run`] to observe the error.
    pub fn on(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Install a seeded fault plane on the fabric before any rank starts:
    /// every data deposit is subject to `spec`'s drop/duplicate/delay/
    /// reorder rules. The plane sits above the transport, so seeded
    /// adversity is byte-for-byte the same schedule on every backend.
    /// Rank programs that exercise fault-scoped traffic should opt
    /// exchanges into reliable delivery
    /// ([`Comm::set_default_reliability`]) or expect to handle the
    /// adversity themselves.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Give every rank thread `bytes` of stack, for rank programs with
    /// large on-stack state.
    pub fn stack_bytes(mut self, bytes: usize) -> Self {
        self.stack_bytes = Some(bytes);
        self
    }

    /// Enable profiling: before any rank starts, every rank's `Obs` gets
    /// **one shared monotonic clock** (per-rank clocks have independent
    /// origins, making timestamps cross-rank garbage) and its own
    /// [`RingBufferSink`] holding up to `capacity` records; after the
    /// join, the sinks are drained into [`ProfiledRun::traces`].
    pub fn profiled(self, capacity: usize) -> ProfiledRunConfig {
        ProfiledRunConfig {
            inner: self,
            capacity,
        }
    }

    /// Launch and join, returning per-rank results in rank order.
    ///
    /// `f` receives each rank's [`Comm`] handle. Panics in any rank
    /// program propagate (the launcher re-panics after joining), so test
    /// assertions inside rank programs work naturally. Panics if the
    /// backend fails to construct — the in-process default cannot.
    pub fn run<F, R>(self, f: F) -> Vec<R>
    where
        F: Fn(&mut Comm) -> R + Send + Sync,
        R: Send,
    {
        let kind = self.transport;
        self.try_run(f)
            .unwrap_or_else(|e| panic!("cannot bring up {kind} fabric: {e}"))
    }

    /// [`RunConfig::run`] surfacing backend construction failure instead
    /// of panicking.
    pub fn try_run<F, R>(self, f: F) -> io::Result<Vec<R>>
    where
        F: Fn(&mut Comm) -> R + Send + Sync,
        R: Send,
    {
        let (fabric, _sinks) = self.bring_up(None)?;
        Ok(launch(self.p, fabric, self.stack_bytes, f))
    }

    /// Construct the fabric, install faults and (optionally) profiling.
    fn bring_up(
        &self,
        profile_capacity: Option<usize>,
    ) -> io::Result<(Arc<FabricWithReceivers>, Vec<Arc<RingBufferSink>>)> {
        assert!(self.p > 0, "universe needs at least one rank");
        let (fabric, receivers) = Fabric::for_backend(self.transport, self.p)?;
        if let Some(spec) = &self.faults {
            fabric.install_faults(spec.clone());
        }
        let sinks = match profile_capacity {
            Some(capacity) => install_profiling(&fabric, self.p, capacity),
            None => Vec::new(),
        };
        Ok((
            Arc::new(FabricWithReceivers::bundle(fabric, receivers)),
            sinks,
        ))
    }
}

impl ProfiledRunConfig {
    /// Select the transport backend (see [`RunConfig::on`]).
    pub fn on(mut self, kind: TransportKind) -> Self {
        self.inner = self.inner.on(kind);
        self
    }

    /// Install a seeded fault plane (see [`RunConfig::faults`]) — profile
    /// a run *under* seeded adversity (retransmit overlays and fault
    /// events land in the traces).
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.inner = self.inner.faults(spec);
        self
    }

    /// Per-rank stack size (see [`RunConfig::stack_bytes`]).
    pub fn stack_bytes(mut self, bytes: usize) -> Self {
        self.inner = self.inner.stack_bytes(bytes);
        self
    }

    /// Launch, join, and drain the per-rank trace sinks. Panics if the
    /// backend fails to construct — the in-process default cannot.
    pub fn run<F, R>(self, f: F) -> ProfiledRun<R>
    where
        F: Fn(&mut Comm) -> R + Send + Sync,
        R: Send,
    {
        let kind = self.inner.transport;
        self.try_run(f)
            .unwrap_or_else(|e| panic!("cannot bring up {kind} fabric: {e}"))
    }

    /// [`ProfiledRunConfig::run`] surfacing backend construction failure
    /// instead of panicking.
    pub fn try_run<F, R>(self, f: F) -> io::Result<ProfiledRun<R>>
    where
        F: Fn(&mut Comm) -> R + Send + Sync,
        R: Send,
    {
        let (fabric, sinks) = self.inner.bring_up(Some(self.capacity))?;
        let results = launch(self.inner.p, fabric, self.inner.stack_bytes, f);
        Ok(ProfiledRun {
            traces: sinks.iter().map(|s| s.take()).collect(),
            dropped: sinks.iter().map(|s| s.dropped()).collect(),
            results,
        })
    }
}

/// Carrier pairing a constructed fabric with its unclaimed per-rank
/// inboxes, so the launch core can hand each spawned thread its inbox
/// regardless of which configuration path built the fabric.
struct FabricWithReceivers {
    fabric: Arc<Fabric>,
    receivers: std::sync::Mutex<Vec<Option<Inbox>>>,
}

impl FabricWithReceivers {
    fn bundle(fabric: Fabric, receivers: Vec<Inbox>) -> Self {
        FabricWithReceivers {
            fabric: Arc::new(fabric),
            receivers: std::sync::Mutex::new(receivers.into_iter().map(Some).collect()),
        }
    }

    fn claim(&self, rank: usize) -> Inbox {
        self.receivers.lock().expect("receiver registry poisoned")[rank]
            .take()
            .expect("rank endpoint claimed twice")
    }
}

/// Shared launch core: spawn one thread per rank (named, with the
/// configured stack size), join in rank order, re-panic the first rank
/// panic. After a rank program returns, its `Comm` (and receive endpoint)
/// drops and the fabric is told the rank is done so backend progress
/// machinery can stop.
fn launch<F, R>(
    p: usize,
    bundle: Arc<FabricWithReceivers>,
    stack_bytes: Option<usize>,
    f: F,
) -> Vec<R>
where
    F: Fn(&mut Comm) -> R + Send + Sync,
    R: Send,
{
    let f = &f;
    let bundle = &bundle;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for rank in 0..p {
            let rx = bundle.claim(rank);
            let fabric = Arc::clone(&bundle.fabric);
            let mut builder = std::thread::Builder::new().name(format!("rank-{rank}"));
            if let Some(bytes) = stack_bytes {
                builder = builder.stack_size(bytes);
            }
            let h = builder
                .spawn_scoped(scope, move || {
                    let mut comm = Comm::new(rank, Arc::clone(&fabric), rx);
                    let out = f(&mut comm);
                    drop(comm);
                    fabric.rank_done(rank);
                    out
                })
                .expect("failed to spawn rank thread");
            handles.push(h);
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect()
    })
}

/// Install a shared clock and one ring sink per rank on the fabric's
/// `Obs` handles, returning the sinks for post-run draining.
fn install_profiling(fabric: &Fabric, p: usize, capacity: usize) -> Vec<Arc<RingBufferSink>> {
    let clock = Arc::new(MonotonicClock::new());
    (0..p)
        .map(|rank| {
            let sink = Arc::new(RingBufferSink::new(capacity));
            let obs = fabric.obs(rank);
            obs.set_clock(clock.clone());
            obs.attach_sink(sink.clone() as Arc<_>);
            sink
        })
        .collect()
}

impl Universe {
    /// Configure a thread-mode launch: `p` ranks, in-process transport,
    /// no faults, no profiling, default stacks. Chain
    /// [`RunConfig::on`]/[`RunConfig::faults`]/[`RunConfig::profiled`]/
    /// [`RunConfig::stack_bytes`] in any combination, then
    /// [`RunConfig::run`] (or [`RunConfig::try_run`] for fallible
    /// backends).
    pub fn builder(p: usize) -> RunConfig {
        RunConfig {
            p,
            transport: TransportKind::InProcess,
            faults: None,
            stack_bytes: None,
        }
    }

    /// Run `f` as a universe of `p` **processes** on one host, over the
    /// shared-memory transport.
    ///
    /// Called in the launching process, this creates the fabric file,
    /// re-executes the current binary `p` times with `rerun_args` (plus
    /// rank/fabric environment variables), waits for all children, and
    /// returns [`SpawnRole::Parent`] with their exit statuses. Each child
    /// re-enters this same function, detects the environment, attaches to
    /// the fabric as its rank, runs `f`, and returns
    /// [`SpawnRole::Child`] with the rank program's result.
    ///
    /// In a test, pass the test's own name as the rerun filter so the
    /// child harness runs exactly this function again:
    ///
    /// ```ignore
    /// match Universe::spawn_processes(4, &["my_test_name", "--exact"], |comm| {
    ///     comm.barrier().unwrap();
    /// })? {
    ///     SpawnRole::Parent(statuses) => assert!(statuses.iter().all(|s| s.success())),
    ///     SpawnRole::Child(()) => {} // the child's work happened in the closure
    /// }
    /// ```
    ///
    /// Fault planes are per-process state and are **not** supported
    /// across process boundaries; chaos coverage runs all backends in
    /// thread mode instead.
    pub fn spawn_processes<F, R>(p: usize, rerun_args: &[&str], f: F) -> io::Result<SpawnRole<R>>
    where
        F: FnOnce(&mut Comm) -> R,
    {
        assert!(p > 0, "universe needs at least one rank");
        if let (Ok(path), Ok(rank), Ok(size)) = (
            std::env::var(ENV_SHM_FILE),
            std::env::var(ENV_RANK),
            std::env::var(ENV_SIZE),
        ) {
            let rank: usize = rank
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad CARTCOMM_RANK"))?;
            let size: usize = size
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad CARTCOMM_SIZE"))?;
            if size != p {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("spawned universe has {size} ranks, caller expected {p}"),
                ));
            }
            let (fabric, rx) = Fabric::attach_shm(std::path::Path::new(&path), size, rank)?;
            let fabric = Arc::new(fabric);
            let mut comm = Comm::new(rank, Arc::clone(&fabric), rx);
            let out = f(&mut comm);
            drop(comm);
            fabric.rank_done(rank);
            return Ok(SpawnRole::Child(out));
        }

        let path = spawn_scratch_path();
        ShmTransport::create_file(&path, p)?;
        let exe = std::env::current_exe()?;
        let mut children = Vec::with_capacity(p);
        for rank in 0..p {
            let child = std::process::Command::new(&exe)
                .args(rerun_args)
                .env(ENV_SHM_FILE, &path)
                .env(ENV_RANK, rank.to_string())
                .env(ENV_SIZE, p.to_string())
                .spawn();
            match child {
                Ok(c) => children.push(c),
                Err(e) => {
                    // Launch failed partway: reap what started, clean up.
                    for mut c in children {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    let _ = std::fs::remove_file(&path);
                    return Err(e);
                }
            }
        }
        let mut statuses = Vec::with_capacity(p);
        for mut c in children {
            statuses.push(c.wait()?);
        }
        let _ = std::fs::remove_file(&path);
        Ok(SpawnRole::Parent(statuses))
    }
}

// ----- resident universes ----------------------------------------------------

/// One unit of work for a resident universe: a boxed closure per rank.
pub type RankJob = Box<dyn FnOnce(&mut Comm) + Send>;

enum RankCmd {
    Job(RankJob),
    Stop,
}

/// A warm, long-lived universe: `p` rank threads parked on per-rank job
/// queues over an in-process fabric. Unlike [`RunConfig::run`], which
/// builds a fabric, runs one closure, and tears everything down, a
/// resident universe keeps its fabric, wire pools, and any state the
/// rank programs accumulate (communicators, compiled plans) alive across
/// an arbitrary number of submissions — the execution substrate of the
/// `cartserve` daemon.
///
/// [`ResidentUniverse::submit`] enqueues one closure per rank; closures
/// of one submission run collectively (they may call collectives on
/// their `Comm`) and submissions are executed in order on each rank.
/// Results travel through whatever channel the closures capture. Job
/// closures must not panic — a panicking job poisons its rank thread
/// and [`ResidentUniverse::shutdown`] will report it; service layers
/// should catch and convert errors to data instead.
pub struct ResidentUniverse {
    size: usize,
    senders: Vec<crossbeam_channel::Sender<RankCmd>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    fabric: Arc<Fabric>,
}

impl ResidentUniverse {
    /// Bring up `p` resident ranks on an in-process fabric.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "universe needs at least one rank");
        let (fabric, receivers) = Fabric::new(p);
        let fabric = Arc::new(fabric);
        let mut senders = Vec::with_capacity(p);
        let mut handles = Vec::with_capacity(p);
        for (rank, rx) in receivers.into_iter().enumerate() {
            let (tx, jobs) = crossbeam_channel::unbounded::<RankCmd>();
            let fabric = Arc::clone(&fabric);
            let h = std::thread::Builder::new()
                .name(format!("resident-rank-{rank}"))
                .spawn(move || {
                    let mut comm = Comm::new(rank, Arc::clone(&fabric), rx);
                    while let Ok(RankCmd::Job(job)) = jobs.recv() {
                        job(&mut comm);
                    }
                    drop(comm);
                    fabric.rank_done(rank);
                })
                .expect("failed to spawn resident rank thread");
            senders.push(tx);
            handles.push(h);
        }
        ResidentUniverse {
            size: p,
            senders,
            handles,
            fabric,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The per-rank observability handle (live metrics of the resident
    /// fabric).
    pub fn obs(&self, rank: usize) -> &Arc<cartcomm_obs::Obs> {
        self.fabric.obs(rank)
    }

    /// Enqueue one closure per rank (index = rank). The closures of one
    /// submission execute collectively; this call does not wait for
    /// completion — capture a channel to collect results.
    ///
    /// Panics if `jobs.len() != self.size()` or if the universe is
    /// already shut down.
    pub fn submit(&self, jobs: Vec<RankJob>) {
        assert_eq!(jobs.len(), self.size, "one job per rank required");
        for (tx, job) in self.senders.iter().zip(jobs) {
            tx.send(RankCmd::Job(job))
                .expect("resident rank thread gone");
        }
    }

    /// Convenience: run the same closure on every rank.
    pub fn submit_all<F>(&self, f: F)
    where
        F: Fn(&mut Comm) + Send + Sync + Clone + 'static,
    {
        let jobs = (0..self.size)
            .map(|_| {
                let f = f.clone();
                Box::new(move |comm: &mut Comm| f(comm)) as RankJob
            })
            .collect();
        self.submit(jobs);
    }

    /// Drain: stop accepting, let every queued job finish, join the rank
    /// threads. Returns `Err(rank)` on the first rank whose thread
    /// panicked (after joining all of them).
    pub fn shutdown(mut self) -> Result<(), usize> {
        for tx in &self.senders {
            let _ = tx.send(RankCmd::Stop);
        }
        self.senders.clear();
        let mut first_panic = None;
        for (rank, h) in self.handles.drain(..).enumerate() {
            if h.join().is_err() && first_panic.is_none() {
                first_panic = Some(rank);
            }
        }
        match first_panic {
            Some(rank) => Err(rank),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cartcomm_obs::TraceEvent;

    #[test]
    fn single_rank_universe() {
        let out = Universe::builder(1).run(|comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            comm.barrier().unwrap();
            "done"
        });
        assert_eq!(out, vec!["done"]);
    }

    #[test]
    fn ranks_are_distinct_and_ordered() {
        let out = Universe::builder(8).run(|comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn stack_bytes_composes_with_everything() {
        // The pre-0.3.0 `run_with_stack` had no faulty/profiled/transport
        // variant; the builder composes all four knobs in one launch.
        let spec = FaultSpec::new(7);
        let run = Universe::builder(3)
            .stack_bytes(4 << 20)
            .faults(spec)
            .profiled(256)
            .on(TransportKind::InProcess)
            .run(|comm| {
                let big = [0u8; 1 << 20]; // needs the larger stack
                comm.obs()
                    .emit(comm.rank(), TraceEvent::PoolHit { bytes: 3 });
                comm.rank() + big[0] as usize
            });
        assert_eq!(run.results, vec![0, 1, 2]);
        assert_eq!(run.traces.len(), 3);
        assert!(run.traces.iter().all(|t| !t.is_empty()));
    }

    #[test]
    fn run_on_every_backend_allreduces() {
        for kind in [
            TransportKind::InProcess,
            TransportKind::SharedMem,
            TransportKind::Uds,
            TransportKind::Tcp,
        ] {
            let sums = Universe::builder(4)
                .on(kind)
                .try_run(|comm| {
                    let mut x = [comm.rank() as u64 + 1];
                    comm.allreduce(&mut x, |a, b| a + b).unwrap();
                    x[0]
                })
                .unwrap_or_else(|e| panic!("{kind} backend failed to launch: {e}"));
            assert_eq!(sums, vec![10, 10, 10, 10], "backend {kind}");
        }
    }

    #[test]
    fn run_profiled_drains_per_rank_traces() {
        let run = Universe::builder(4).profiled(1024).run(|comm| {
            // Emit one marker event per rank through its own Obs.
            comm.obs()
                .emit(comm.rank(), TraceEvent::PoolHit { bytes: comm.rank() });
            comm.barrier().unwrap();
            comm.rank()
        });
        assert_eq!(run.results, vec![0, 1, 2, 3]);
        assert_eq!(run.traces.len(), 4);
        for (rank, trace) in run.traces.iter().enumerate() {
            assert!(
                trace
                    .iter()
                    .any(|r| r.event == TraceEvent::PoolHit { bytes: rank }),
                "rank {rank} marker missing"
            );
        }
    }

    #[test]
    fn profiled_run_reports_ring_overflow_honestly() {
        // Capacity 2 with 5 events per rank: each rank keeps the newest 2
        // and reports 3 dropped, so truncated captures are detectable.
        let run = Universe::builder(2).profiled(2).run(|comm| {
            for i in 0..5 {
                comm.obs()
                    .emit(comm.rank(), TraceEvent::PoolHit { bytes: i });
            }
        });
        assert_eq!(run.dropped, vec![3, 3]);
        assert!(run.traces.iter().all(|t| t.len() == 2));

        let roomy = Universe::builder(2).profiled(64).run(|comm| {
            comm.obs()
                .emit(comm.rank(), TraceEvent::PoolHit { bytes: 0 });
        });
        assert_eq!(roomy.dropped, vec![0, 0]);
    }

    #[test]
    fn profiled_timestamps_share_one_clock() {
        // Rank 1 emits strictly after rank 0 (enforced by a barrier in
        // between); with the shared clock its timestamp must not precede
        // rank 0's. With per-rank clock origins this would be flaky.
        let run = Universe::builder(2).profiled(64).run(|comm| {
            if comm.rank() == 0 {
                comm.obs().emit(0, TraceEvent::PoolHit { bytes: 1 });
            }
            comm.barrier().unwrap();
            if comm.rank() == 1 {
                comm.obs().emit(1, TraceEvent::PoolHit { bytes: 2 });
            }
        });
        let t0 = run.traces[0]
            .iter()
            .find(|r| r.event == TraceEvent::PoolHit { bytes: 1 })
            .unwrap()
            .t_ns;
        let t1 = run.traces[1]
            .iter()
            .find(|r| r.event == TraceEvent::PoolHit { bytes: 2 })
            .unwrap()
            .t_ns;
        assert!(
            t1 >= t0,
            "barrier-ordered events must not reorder: {t0} vs {t1}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Universe::builder(0).run(|_| ());
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn rank_panics_propagate() {
        Universe::builder(2).run(|comm| {
            if comm.rank() == 1 {
                panic!("deliberate");
            }
        });
    }

    #[test]
    fn resident_universe_runs_jobs_collectively_and_in_order() {
        let uni = ResidentUniverse::new(4);
        let (tx, rx) = crossbeam_channel::unbounded::<(usize, usize, u64)>();
        for round in 0..3usize {
            let tx = tx.clone();
            uni.submit_all(move |comm| {
                let mut x = [comm.rank() as u64 + 1];
                comm.allreduce(&mut x, |a, b| a + b).unwrap();
                tx.send((round, comm.rank(), x[0])).unwrap();
            });
        }
        let mut got = Vec::new();
        for _ in 0..12 {
            got.push(rx.recv().unwrap());
        }
        assert!(got.iter().all(|&(_, _, sum)| sum == 10));
        // Per rank, rounds arrive in submission order.
        for rank in 0..4 {
            let rounds: Vec<usize> = got
                .iter()
                .filter(|&&(_, r, _)| r == rank)
                .map(|&(round, ..)| round)
                .collect();
            assert_eq!(rounds, vec![0, 1, 2], "rank {rank} order");
        }
        uni.shutdown().unwrap();
    }

    #[test]
    fn resident_universe_state_survives_across_jobs() {
        // Rank-local state captured by the service layer persists between
        // submissions — the property the plan-store-warm daemon relies on.
        let uni = ResidentUniverse::new(2);
        let counters: Vec<_> = (0..2)
            .map(|_| Arc::new(std::sync::atomic::AtomicUsize::new(0)))
            .collect();
        let (tx, rx) = crossbeam_channel::unbounded::<usize>();
        for _ in 0..5 {
            let jobs = counters
                .iter()
                .map(|c| {
                    let c = Arc::clone(c);
                    let tx = tx.clone();
                    Box::new(move |comm: &mut Comm| {
                        let n = c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        comm.barrier().unwrap();
                        tx.send(n).unwrap();
                    }) as RankJob
                })
                .collect();
            uni.submit(jobs);
        }
        let mut seen = Vec::new();
        for _ in 0..10 {
            seen.push(rx.recv().unwrap());
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
        uni.shutdown().unwrap();
    }
}
