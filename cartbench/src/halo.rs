//! The three halo workloads: persistent neighborhood collectives on a
//! 2-rank periodic 2×1×1 torus with the 3-D Moore r=1 neighborhood
//! (t = 26, C = 6, V = 54), one rank thread per core.
//!
//! Every rank runs the same schedule as an interior rank of a 3×3×3
//! torus (same C, V and wire bytes); the only difference is that many
//! peers are the rank itself.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use cartcomm::exec::{BlockLayout, ExecLayouts};
use cartcomm::ops::{Algo, PersistentCollective, PersistentReduction};
use cartcomm::{CartComm, PlanKind, PlanStore};
use cartcomm_comm::obs::{MetricsSnapshot, TraceEvent, TraceRecord};
use cartcomm_comm::{Comm, Tag, Universe};
use cartcomm_topo::RelNeighborhood;
use cartcomm_types::{
    accumulate_spans, cast_slice, cast_slice_mut, gather_spans, scatter_spans, PackSpan, RedOp,
    Reducer,
};

use crate::spans::{SpanLog, SpanReport};
use crate::stats::{median, time_per_call_ns, WindowSet, Windowed};
use crate::steal::StealSampler;
use crate::{awake, progress, splitmix, Layers, Outcome};

/// Ranks of the halo universes: one per core of the reference host.
pub const P: usize = 2;
const DIMS: [usize; 3] = [2, 1, 1];
const PERIODS: [bool; 3] = [true; 3];
/// Set-up-only universes before each measured segment, timed with the
/// spinners paused; `setup_s` is their median. Spreading them over the
/// run keeps a short burst of host noise from setting it.
const SETUPS_PER_SEGMENT: usize = 12;
/// One in this many calls is poisoned beforehand and byte-compared in
/// full afterwards (call 0 always is).
const FULL_CHECK_EVERY: u64 = 32;
/// Tag of the benchmark's own point-to-point probes; outside every tag
/// range the collectives use.
const PROBE_TAG: Tag = 0x00BE_0001;
/// Ring-sink records per rank in the traced run.
const RING_CAPACITY: usize = 1 << 17;
/// Throughput windows per measured segment (about a quarter of a second
/// each at the default run length, so steal can be charged to a window).
const WINDOWS: usize = 12;
/// Measured segments of the untraced phase: each a fresh universe with
/// fresh buffers, so a run averages over thread placement and physical
/// page layout.
const SEGMENTS: usize = 8;
/// Value written into receive buffers before a fully checked call.
const POISON: i32 = 0x5A5A_5A5A;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halo {
    /// Combining alltoall, 4 B blocks.
    Latency,
    /// Trivial alltoall, 32 KiB blocks.
    Bulk,
    /// Combining allreduce (Sum over i32), 4 KiB blocks.
    Reduce,
}

impl Halo {
    /// i32 elements per block.
    fn m(self) -> usize {
        match self {
            Halo::Latency => 1,
            Halo::Bulk => 8192,
            Halo::Reduce => 1024,
        }
    }

    fn block_bytes(self) -> usize {
        self.m() * 4
    }

    fn algo(self) -> Algo {
        match self {
            Halo::Bulk => Algo::Trivial,
            Halo::Latency | Halo::Reduce => Algo::Combining,
        }
    }

    fn kind(self) -> PlanKind {
        match self {
            Halo::Reduce => PlanKind::Allreduce,
            Halo::Latency | Halo::Bulk => PlanKind::Alltoall,
        }
    }

    /// Calls between two stop decisions (about a millisecond of work).
    fn batch(self) -> u64 {
        match self {
            Halo::Latency => 64,
            Halo::Bulk => 4,
            Halo::Reduce => 32,
        }
    }

    /// Untimed calls before the measured phase.
    fn warmup(self) -> u64 {
        match self {
            Halo::Latency => 2000,
            Halo::Bulk => 100,
            Halo::Reduce => 1000,
        }
    }

    fn send_len(self, t: usize) -> usize {
        match self {
            Halo::Reduce => self.m(),
            _ => t * self.m(),
        }
    }

    fn recv_len(self, t: usize) -> usize {
        self.send_len(t)
    }
}

fn neighborhood() -> RelNeighborhood {
    RelNeighborhood::moore(3, 1).expect("3-D Moore neighborhood")
}

/// Row-major rank of the source `rank - offset` on the periodic torus
/// (computed here, not by the library, so it can serve as a reference).
fn source_of(rank: usize, offset: &[i64]) -> usize {
    let mut coords = [0usize; 3];
    let mut rest = rank;
    for k in (0..3).rev() {
        coords[k] = rest % DIMS[k];
        rest /= DIMS[k];
    }
    let mut src = 0usize;
    for k in 0..3 {
        let c = (coords[k] as i64 - offset[k]).rem_euclid(DIMS[k] as i64) as usize;
        src = src * DIMS[k] + c;
    }
    src
}

/// Props. 3.2/3.3 from the offsets alone: rounds `C = Σ_k C_k` (distinct
/// non-zero coordinates per dimension), alltoall volume `V = Σ_i nnz(o_i)`
/// and the allgather/reduction tree's edge count (distinct non-zero
/// dimension-prefix partial offsets).
pub fn props(offsets: &[Vec<i64>]) -> (u64, u64, u64) {
    let d = offsets.first().map_or(0, |o| o.len());
    let c: usize = (0..d)
        .map(|k| {
            let mut v: Vec<i64> = offsets.iter().map(|o| o[k]).filter(|&x| x != 0).collect();
            v.sort_unstable();
            v.dedup();
            v.len()
        })
        .sum();
    let v: usize = offsets
        .iter()
        .map(|o| o.iter().filter(|&&x| x != 0).count())
        .sum();
    let mut partials: Vec<Vec<i64>> = Vec::new();
    for o in offsets {
        for k in 1..=d {
            let mut p = o.clone();
            p[k..].iter_mut().for_each(|x| *x = 0);
            if p.iter().any(|&x| x != 0) {
                partials.push(p);
            }
        }
    }
    partials.sort();
    partials.dedup();
    (c as u64, v as u64, partials.len() as u64)
}

/// The stamp word of block `block` sent by `rank` on call `call`.
fn stamp(call: u64, rank: usize, block: usize) -> i32 {
    splitmix(call ^ ((rank as u64) << 40) ^ ((block as u64) << 48)) as i32
}

fn full_check(seed: u64, call: u64) -> bool {
    call == 0
        || splitmix(seed ^ call.wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .is_multiple_of(FULL_CHECK_EVERY)
}

enum Handle {
    Coll(PersistentCollective),
    Red(PersistentReduction),
}

impl Handle {
    fn init(cart: &CartComm, halo: Halo) -> cartcomm::CartResult<Handle> {
        Ok(match halo {
            Halo::Reduce => {
                Handle::Red(cart.allreduce_init::<i32>(RedOp::Sum, halo.m(), halo.algo())?)
            }
            _ => Handle::Coll(cart.alltoall_init::<i32>(halo.m(), halo.algo())?),
        })
    }

    fn execute(
        &mut self,
        cart: &CartComm,
        send: &[i32],
        recv: &mut [i32],
    ) -> cartcomm::CartResult<()> {
        match self {
            Handle::Coll(h) => h.execute(cart, cast_slice(send), cast_slice_mut(recv)),
            Handle::Red(h) => h.execute(cart, cast_slice(send), cast_slice_mut(recv)),
        }
    }

    fn compiled_spans(&self) -> Option<usize> {
        match self {
            Handle::Coll(h) => h.compiled().map(|c| c.span_count()),
            Handle::Red(h) => h.compiled().map(|c| c.span_count()),
        }
    }
}

/// Inputs every rank thread shares.
struct Shared {
    halo: Halo,
    seed: u64,
    offsets: Vec<Vec<i64>>,
    /// Per-rank send contents before stamping.
    base: Vec<Vec<i32>>,
    barrier: Barrier,
    go: AtomicBool,
    /// Each rank's call durations of the current batch (ns), read by
    /// rank 0 between batches.
    batch_ns: Vec<Mutex<Vec<u64>>>,
    t0: Instant,
    inject: Duration,
}

/// What one phase asks of the rank program.
#[derive(Clone, Copy)]
struct Phase {
    /// Measure for this long; `None` stops after set-up.
    measure: Option<Duration>,
    traced: bool,
}

struct RankOut {
    setup_ns: u64,
    /// Timed calls this rank made.
    timed: u64,
    /// Rank 0 only: windows of throughput, of each call's slowest-rank
    /// duration and of its slowest-minus-fastest skew (µs).
    windows: WindowSet,
    failed_ops: Vec<u64>,
    attempted: u64,
    first_failure: Option<String>,
    delta: MetricsSnapshot,
    compiled_spans: Option<usize>,
    layers: Option<RankLayers>,
    spans: Option<SpanLog>,
}

struct RankLayers {
    create_us: f64,
    schedule_us: f64,
    compile_us: f64,
}

fn create(comm: &Comm) -> CartComm {
    CartComm::create(comm, &DIMS, &PERIODS, neighborhood()).expect("torus communicator")
}

/// The ranks whose blocks an allreduce combines at `rank`: its own block
/// once, plus one block per source neighbor `rank − N[j]`.
fn reduce_contributors(sh: &Shared, rank: usize) -> Vec<usize> {
    std::iter::once(rank)
        .chain(sh.offsets.iter().map(|o| source_of(rank, o)))
        .collect()
}

/// Expected receive contents of `rank` on `call`.
fn expected(sh: &Shared, rank: usize, call: u64) -> Vec<i32> {
    let m = sh.halo.m();
    let t = sh.offsets.len();
    match sh.halo {
        Halo::Reduce => {
            let mut out = vec![0i32; m];
            for src in reduce_contributors(sh, rank) {
                for (e, x) in out.iter_mut().enumerate() {
                    let v = if e == 0 {
                        stamp(call, src, 0)
                    } else {
                        sh.base[src][e]
                    };
                    *x = x.wrapping_add(v);
                }
            }
            out
        }
        _ => {
            let mut out = vec![0i32; t * m];
            for (i, o) in sh.offsets.iter().enumerate() {
                let src = source_of(rank, o);
                out[i * m..(i + 1) * m].copy_from_slice(&sh.base[src][i * m..(i + 1) * m]);
                out[i * m] = stamp(call, src, i);
            }
            out
        }
    }
}

fn rank_main(comm: &mut Comm, sh: &Shared, phase: Phase) -> RankOut {
    let rank = comm.rank();
    let halo = sh.halo;
    let mut log = SpanLog::new(sh.t0, phase.traced);
    let mut out = RankOut {
        setup_ns: 0,
        timed: 0,
        windows: WindowSet::default(),
        failed_ops: Vec::new(),
        attempted: 0,
        first_failure: None,
        delta: MetricsSnapshot::default(),
        compiled_spans: None,
        layers: None,
        spans: None,
    };

    log.begin("halo.setup", 0);
    let cart = log.scope("topo.create", 0, || {
        create(comm).with_plan_store(PlanStore::new(1, 16))
    });
    let mut handle = log.scope("cartcomm.init", 0, || {
        Handle::init(&cart, halo).expect("persistent init")
    });
    log.end();
    out.setup_ns = sh.t0.elapsed().as_nanos() as u64;
    out.compiled_spans = handle.compiled_spans();
    progress::beat();
    let Some(measure) = phase.measure else {
        return out;
    };

    let t = sh.offsets.len();
    let m = halo.m();
    let mut send = sh.base[rank].clone();
    let mut recv = vec![0i32; halo.recv_len(t)];
    let sources: Vec<usize> = sh.offsets.iter().map(|o| source_of(rank, o)).collect();
    let contributors = reduce_contributors(sh, rank);
    // Everything but the stamp word is the same on every call.
    let steady = expected(sh, rank, 0);
    let stamps_per_call = if halo == Halo::Reduce { 1 } else { t };

    let mut call: u64 = 0;
    let mut batch: Vec<u64> = Vec::with_capacity(halo.batch() as usize);
    let mut run_call =
        |call: u64, batch: Option<&mut Vec<u64>>, out: &mut RankOut, log: &mut SpanLog| {
            for b in 0..stamps_per_call {
                send[b * m] = stamp(call, rank, b);
            }
            let full = full_check(sh.seed, call);
            if full {
                recv.fill(POISON);
            }
            if rank == 0 {
                progress::start_op();
            }
            log.begin("exec.op", call);
            let t_a = Instant::now();
            if !sh.inject.is_zero() {
                while t_a.elapsed() < sh.inject {
                    std::hint::spin_loop();
                }
            }
            let res = handle.execute(&cart, &send, &mut recv);
            let dt = t_a.elapsed().as_nanos() as u64;
            log.end();
            if rank == 0 {
                progress::finish_op();
            }
            out.attempted += 1;
            if let Some(batch) = batch {
                batch.push(dt);
            }
            log.begin("bench.verify", call);
            let failure = match res {
                Err(e) => Some(format!("call {call}: {e:?}")),
                Ok(()) => {
                    let word0 = |b: usize| -> i32 {
                        match halo {
                            Halo::Reduce => contributors
                                .iter()
                                .fold(0i32, |acc, &s| acc.wrapping_add(stamp(call, s, 0))),
                            _ => stamp(call, sources[b], b),
                        }
                    };
                    let stale = (0..stamps_per_call).find(|&b| recv[b * m] != word0(b));
                    if let Some(b) = stale {
                        Some(format!("call {call}: block {b} stamp mismatch"))
                    } else if full {
                        let mut want = steady.clone();
                        for b in 0..stamps_per_call {
                            want[b * m] = word0(b);
                        }
                        (want != recv).then(|| format!("call {call}: full compare mismatch"))
                    } else {
                        None
                    }
                }
            };
            log.end();
            if let Some(f) = failure {
                out.failed_ops.push(call);
                out.first_failure.get_or_insert(f);
            }
        };

    log.begin("halo.warmup", 0);
    for _ in 0..halo.warmup() {
        run_call(call, None, &mut out, &mut log);
        call += 1;
    }
    log.end();

    let before = comm.metrics();
    sh.barrier.wait();
    log.begin("halo.measure", 0);
    let start = Instant::now();
    let mut windows = Windowed::new(start, measure.as_secs_f64() / WINDOWS as f64);
    loop {
        batch.clear();
        for _ in 0..halo.batch() {
            run_call(call, Some(&mut batch), &mut out, &mut log);
            call += 1;
        }
        out.timed += batch.len() as u64;
        sh.batch_ns[rank]
            .lock()
            .expect("batch slot")
            .clone_from(&batch);
        sh.barrier.wait();
        if rank == 0 {
            let slots: Vec<_> = sh
                .batch_ns
                .iter()
                .map(|s| s.lock().expect("batch slot"))
                .collect();
            for i in 0..batch.len() {
                let (lo, hi) = slots
                    .iter()
                    .fold((u64::MAX, 0), |(lo, hi), s| (lo.min(s[i]), hi.max(s[i])));
                windows.add(hi as f64 / 1e3, (hi - lo) as f64 / 1e3);
            }
            let at = start.elapsed();
            windows.note(at.as_secs_f64(), out.timed);
            sh.go.store(at < measure, Ordering::SeqCst);
        }
        sh.barrier.wait();
        if !sh.go.load(Ordering::SeqCst) {
            break;
        }
    }
    out.windows = windows.finish(start.elapsed().as_secs_f64(), out.timed);
    log.end();
    out.delta = comm.metrics().since(&before);

    if phase.traced {
        out.layers = Some(rank_layers(comm, halo, &handle, &mut log));
    }
    out.spans = Some(log);
    out
}

/// Cold set-up costs on this rank: communicator creation, a schedule
/// built through a fresh plan store, and (when the workload's handle
/// holds a compiled plan) its compilation. Medians over repetitions, µs.
fn rank_layers(comm: &Comm, halo: Halo, handle: &Handle, log: &mut SpanLog) -> RankLayers {
    const REPS: usize = 15;
    let mut create_us = Vec::new();
    let mut schedule_us = Vec::new();
    let mut compile_us = Vec::new();
    let t = neighborhood().len();
    let lay = regular_layouts(t, halo.block_bytes(), halo.kind());
    for _ in 0..REPS {
        let t_c = Instant::now();
        let cart = log.scope("topo.create", 0, || create(comm));
        create_us.push(t_c.elapsed().as_nanos() as f64 / 1e3);
        let cart = cart.with_plan_store(PlanStore::new(1, 16));
        let t_s = Instant::now();
        log.scope("schedule.build", 0, || cart.plans().schedule(halo.kind()));
        schedule_us.push(t_s.elapsed().as_nanos() as f64 / 1e3);
        if handle.compiled_spans().is_some() {
            let t_p = Instant::now();
            log.scope("compile.plan", 0, || {
                cart.plans().compiled(halo.kind(), lay.clone())
            })
            .expect("compile");
            compile_us.push(t_p.elapsed().as_nanos() as f64 / 1e3);
        }
        progress::beat();
    }
    RankLayers {
        create_us: median(&mut create_us),
        schedule_us: median(&mut schedule_us),
        compile_us: median(&mut compile_us),
    }
}

/// Regular contiguous layouts, as the `_init` calls build them.
fn regular_layouts(t: usize, bb: usize, kind: PlanKind) -> ExecLayouts {
    let blocks: Vec<BlockLayout> = (0..t)
        .map(|i| BlockLayout::contiguous((i * bb) as i64, bb))
        .collect();
    let single = vec![BlockLayout::contiguous(0, bb)];
    let (send, recv) = match kind {
        PlanKind::Allreduce => (single.clone(), single),
        _ => (blocks.clone(), blocks),
    };
    ExecLayouts {
        send,
        recv,
        block_bytes: vec![bb; t],
        temp_offsets: Vec::new(),
        temp_sizes: Vec::new(),
    }
}

/// Kernel and transport probes shared by every workload's traced run.
pub struct Probes {
    gather_ns_per_byte: f64,
    scatter_ns_per_byte: f64,
    accumulate_ns_per_byte: f64,
    pingpong_us: f64,
    copy_ns_per_byte: f64,
}

impl Probes {
    /// α: one-way latency, half the 4 B round trip (µs).
    pub fn alpha_us(&self) -> f64 {
        self.pingpong_us / 2.0
    }

    /// β: one-way time per byte of the bulk transfer beyond α (ns/B).
    pub fn beta_ns(&self) -> f64 {
        let bulk = BULK_BYTES as f64;
        ((self.copy_ns_per_byte * bulk - self.alpha_us() * 1e3) / bulk).max(0.0)
    }

    pub fn set_into(&self, l: &mut Layers) {
        l.set("kernel.gather_ns_per_byte", self.gather_ns_per_byte);
        l.set("kernel.scatter_ns_per_byte", self.scatter_ns_per_byte);
        l.set("kernel.accumulate_ns_per_byte", self.accumulate_ns_per_byte);
        l.set("comm.pingpong_us", self.pingpong_us);
        l.set("comm.copy_ns_per_byte", self.copy_ns_per_byte);
        l.set("model.alpha_us", self.alpha_us());
        l.set("model.beta_ns_per_byte", self.beta_ns());
    }
}

/// Bytes of the bulk transport probe: one halo-bulk call's payload
/// (26 blocks of 32 KiB).
const BULK_BYTES: usize = 26 * 32768;

/// Time the pack kernels on a workload's span shape — `spans_per_op`
/// spans of mean length `bytes_per_op / spans_per_op`, laid out with gaps
/// so they stay distinct — and probe the transport on a fresh 2-rank
/// universe.
pub fn layer_probes(spans_per_op: f64, bytes_per_op: f64, log: &mut SpanLog) -> Probes {
    const KERNEL_NS: u64 = 40_000_000;
    let n = (spans_per_op.round() as usize).max(1);
    let len = ((bytes_per_op / n as f64) as usize).max(4);
    let len4 = len / 4 * 4;
    let stride = len4 + 64;
    let spans: Vec<PackSpan> = (0..n).map(|i| (i * stride, len)).collect();
    let spans4: Vec<PackSpan> = (0..n).map(|i| (i * stride, len4)).collect();
    let src: Vec<u8> = (0..n * stride).map(|i| i as u8).collect();
    let mut dst = vec![0u8; n * stride];
    let mut wire = Vec::with_capacity(n * len);
    let red = Reducer::for_elem::<i32>(RedOp::Sum);
    let gather = log.scope("kernel.gather", 0, || {
        time_per_call_ns(KERNEL_NS, 5, || {
            wire.clear();
            gather_spans(&src, &spans, &mut wire);
        })
    });
    wire.clear();
    gather_spans(&src, &spans, &mut wire);
    let scatter = log.scope("kernel.scatter", 0, || {
        time_per_call_ns(KERNEL_NS, 5, || {
            scatter_spans(&mut dst, &spans, &wire);
        })
    });
    let accumulate = log.scope("kernel.accumulate", 0, || {
        time_per_call_ns(KERNEL_NS, 5, || {
            accumulate_spans(&mut dst, &spans4, &wire, red);
        })
    });
    std::hint::black_box(&dst);
    progress::beat();

    let (pingpong_us, copy_ns_per_byte) = log.scope("comm.probe", 0, || {
        Universe::builder(P).run(|comm| comm_probe(comm))[0]
    });
    Probes {
        gather_ns_per_byte: gather / (n * len) as f64,
        scatter_ns_per_byte: scatter / (n * len) as f64,
        accumulate_ns_per_byte: accumulate / (n * len4) as f64,
        pingpong_us,
        copy_ns_per_byte,
    }
}

/// 2-rank probes through the point-to-point API: the median round trip
/// of a 4 B message (µs), and the median one-way time per byte of moving
/// a [`BULK_BYTES`] buffer into the peer's buffer with `sendrecv_bytes`
/// (copy in, deposit, match, copy out) while the peer does the same.
fn comm_probe(comm: &Comm) -> (f64, f64) {
    let peer = 1 - comm.rank();
    let mut rtt = Vec::with_capacity(4000);
    let mut msg = vec![0u8; 4];
    for _ in 0..4000 {
        let t = Instant::now();
        if comm.rank() == 0 {
            comm.send_bytes(peer, PROBE_TAG, std::mem::take(&mut msg))
                .expect("send");
            msg = comm.recv_bytes(peer, PROBE_TAG).expect("recv").0;
        } else {
            msg = comm.recv_bytes(peer, PROBE_TAG).expect("recv").0;
            comm.send_bytes(peer, PROBE_TAG, std::mem::take(&mut msg))
                .expect("send");
        }
        rtt.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    progress::beat();
    let src = vec![7u8; BULK_BYTES];
    let mut dst = vec![0u8; BULK_BYTES];
    let mut per_byte = Vec::with_capacity(300);
    for _ in 0..300 {
        let t = Instant::now();
        let (got, _) = comm
            .sendrecv_bytes(peer, PROBE_TAG, src.clone(), peer, PROBE_TAG)
            .expect("sendrecv");
        dst.copy_from_slice(&got);
        per_byte.push(t.elapsed().as_nanos() as f64 / BULK_BYTES as f64);
    }
    std::hint::black_box(&dst);
    progress::beat();
    (median(&mut rtt), median(&mut per_byte))
}

/// Median round duration (µs) from the ring sinks' round events.
fn round_us_p50(traces: &[Vec<TraceRecord>]) -> f64 {
    let mut durs = Vec::new();
    for records in traces {
        let mut open: HashMap<usize, u64> = HashMap::new();
        for r in records {
            match r.event {
                TraceEvent::RoundStart {
                    round, attempt: 0, ..
                } => {
                    open.insert(round, r.t_ns);
                }
                TraceEvent::RoundEnd {
                    round, attempt: 0, ..
                } => {
                    if let Some(s) = open.remove(&round) {
                        durs.push(r.t_ns.saturating_sub(s) as f64 / 1e3);
                    }
                }
                _ => {}
            }
        }
    }
    median(&mut durs)
}

struct PhaseResult {
    outs: Vec<RankOut>,
    traces: Vec<Vec<TraceRecord>>,
}

fn run_phase(sh: &Arc<Shared>, phase: Phase) -> PhaseResult {
    let f = |comm: &mut Comm| rank_main(comm, sh, phase);
    if phase.traced {
        let run = Universe::builder(P).profiled(RING_CAPACITY).run(f);
        PhaseResult {
            outs: run.results,
            traces: run.traces,
        }
    } else {
        PhaseResult {
            outs: Universe::builder(P).run(f),
            traces: Vec::new(),
        }
    }
}

fn new_shared(halo: Halo, seed: u64, inject: Duration) -> Arc<Shared> {
    let offsets: Vec<Vec<i64>> = neighborhood().offsets().to_vec();
    let t = offsets.len();
    let base = (0..P)
        .map(|r| {
            (0..halo.send_len(t))
                .map(|e| splitmix(seed ^ ((r as u64) << 56) ^ e as u64) as i32)
                .collect()
        })
        .collect();
    shared(halo, seed, offsets, base, inject)
}

fn shared(
    halo: Halo,
    seed: u64,
    offsets: Vec<Vec<i64>>,
    base: Vec<Vec<i32>>,
    inject: Duration,
) -> Arc<Shared> {
    Arc::new(Shared {
        halo,
        seed,
        offsets,
        base,
        barrier: Barrier::new(P),
        go: AtomicBool::new(true),
        batch_ns: (0..P).map(|_| Mutex::new(Vec::new())).collect(),
        t0: Instant::now(),
        inject,
    })
}

/// Fresh shared state with the origin reset (set-up is timed from it).
fn restart(sh: &Shared) -> Arc<Shared> {
    shared(
        sh.halo,
        sh.seed,
        sh.offsets.clone(),
        sh.base.clone(),
        sh.inject,
    )
}

/// A phase's set-up time: the slowest rank's, in seconds.
fn setup_s(res: &PhaseResult) -> f64 {
    res.outs.iter().map(|r| r.setup_ns).max().unwrap_or(0) as f64 / 1e9
}

/// Rounds and wire bytes one call must move per rank (Props. 3.2/3.3;
/// the trivial algorithm sends every block directly in `t` rounds).
fn predicted_counts(sh: &Shared) -> (u64, u64) {
    let (c, v, tree) = props(&sh.offsets);
    let t = sh.offsets.len() as u64;
    let bb = sh.halo.block_bytes() as u64;
    match (sh.halo.algo(), sh.halo.kind()) {
        (Algo::Trivial, _) => (t, t * bb),
        (_, PlanKind::Allreduce) => (c, tree * bb),
        _ => (c, v * bb),
    }
}

/// Fold one measured phase into `o`: failures and the exact
/// Props. 3.2/3.3 count check. Returns the phase's windows.
fn fold_phase(o: &mut Outcome, sh: &Shared, res: &PhaseResult) -> WindowSet {
    let mut failed: Vec<u64> = res
        .outs
        .iter()
        .flat_map(|r| r.failed_ops.iter().copied())
        .collect();
    failed.sort_unstable();
    failed.dedup();
    o.attempted += res.outs.iter().map(|r| r.attempted).max().unwrap_or(0);
    o.failed += failed.len() as u64;
    for r in &res.outs {
        if let Some(f) = &r.first_failure {
            o.fail(f.clone());
        }
    }

    // Props. 3.2/3.3: exact rounds and wire bytes per call on every rank.
    let (want_rounds, want_bytes) = predicted_counts(sh);
    for (rank, r) in res.outs.iter().enumerate() {
        let n = r.timed.max(1);
        let rounds = r.delta.rounds_completed;
        let bytes = r.delta.wire_bytes_sent;
        if rounds != want_rounds * n || bytes != want_bytes * n {
            o.failed += 1;
            o.fail(format!(
                "rank {rank}: {rounds} rounds / {bytes} wire bytes over {n} calls, want {want_rounds} / {want_bytes} per call"
            ));
        }
    }
    res.outs[0].windows.clone()
}

/// Run one halo workload.
pub fn run(halo: Halo, seed: u64, seconds: f64, traced: bool, inject: Duration) -> Outcome {
    let sh = new_shared(halo, seed, inject);
    let t = sh.offsets.len();
    let mut o = Outcome::new(P);
    o.working_set_bytes = ((halo.send_len(t) + halo.recv_len(t)) * 4) as u64;

    let mut setups = Vec::with_capacity(SETUPS_PER_SEGMENT * SEGMENTS);
    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    let mut windows = WindowSet::default();
    let sampler = StealSampler::start();
    for _ in 0..SEGMENTS {
        awake::paused(|| {
            for _ in 0..SETUPS_PER_SEGMENT {
                let s = restart(&sh);
                let res = run_phase(
                    &s,
                    Phase {
                        measure: None,
                        traced: false,
                    },
                );
                setups.push(setup_s(&res));
            }
        });
        let s = restart(&sh);
        let res = run_phase(
            &s,
            Phase {
                measure: Some(Duration::from_secs_f64(untraced_s / SEGMENTS as f64)),
                traced: false,
            },
        );
        windows.extend(fold_phase(&mut o, &s, &res));
    }
    windows.charge_steal(&sampler.finish());
    let untraced = windows.stats();
    o.stats = untraced;
    o.setup_s = median(&mut setups);
    if !traced {
        return o;
    }

    let s = restart(&sh);
    let sampler = StealSampler::start();
    let mut res = run_phase(
        &s,
        Phase {
            measure: Some(Duration::from_secs_f64(seconds / 2.0)),
            traced: true,
        },
    );
    let mut traced_windows = fold_phase(&mut o, &s, &res);
    traced_windows.charge_steal(&sampler.finish());
    let traced_stats = traced_windows.stats();
    let r0 = &res.outs[0];
    let n = r0.timed.max(1) as f64;
    let d = r0.delta;
    let lay = r0.layers.as_ref().expect("traced run measures layers");
    let mut l = Layers::default();
    l.set("topo.create_us", lay.create_us);
    l.set("schedule.build_us", lay.schedule_us);
    l.set("compile.plan_us", lay.compile_us);
    l.set("compile.spans", r0.compiled_spans.unwrap_or(0) as f64);
    l.set("kernel.pack_bytes_per_op", d.pack_bytes as f64 / n);
    l.set("kernel.pack_spans_per_op", d.pack_spans as f64 / n);
    l.set("comm.rounds_per_op", d.rounds_completed as f64 / n);
    l.set("comm.wire_bytes_per_op", d.wire_bytes_sent as f64 / n);
    l.set("comm.msgs_matched_per_op", d.msgs_matched as f64 / n);
    l.set(
        "comm.pool_hit_ratio",
        crate::stats::ratio(d.pool_hits as f64, (d.pool_hits + d.pool_misses) as f64),
    );
    l.set("exec.skew_us_p50", untraced.skew_p50);
    l.set("exec.round_us_p50", round_us_p50(&res.traces));

    // Kernels on this workload's span shape (the counted pack spans per
    // call; the trivial path packs whole blocks), then the transport.
    let mut log = res.outs[0]
        .spans
        .take()
        .unwrap_or_else(|| SpanLog::new(s.t0, true));
    let (spans_per_op, bytes_per_op) = if d.pack_spans > 0 {
        (d.pack_spans as f64 / n, d.pack_bytes as f64 / n)
    } else {
        (t as f64, (t * halo.block_bytes()) as f64)
    };
    let probes = layer_probes(spans_per_op, bytes_per_op, &mut log);
    res.outs[0].spans = Some(log);
    probes.set_into(&mut l);
    let (rounds, bytes) = predicted_counts(&s);
    let predicted_us = rounds as f64 * probes.alpha_us() + bytes as f64 * probes.beta_ns() / 1e3;
    l.set(
        "model.residual",
        crate::stats::ratio(untraced.p50, predicted_us),
    );
    l.set(
        "obs.trace_overhead_ratio",
        crate::stats::ratio(traced_stats.p50, untraced.p50),
    );
    o.layers = Some(l);

    let mut report = SpanReport::new();
    for (rank, r) in res.outs.iter_mut().enumerate() {
        if let Some(log) = r.spans.take() {
            report.add(format!("rank{rank}"), log);
        }
    }
    o.spans = Some(report);
    o
}
