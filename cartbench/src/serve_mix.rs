//! The serve-mix workload: an in-process cartserve daemon with the
//! settings it ships (`ServeConfig::default()`), driven over a Unix
//! socket by 2 closed-loop clients, one tenant each.
//!
//! Jobs are drawn by a seeded Zipf over a population of shapes — four
//! operations, both algorithms, 2- and 4-rank tori, varied per-neighbor
//! counts — with more distinct compiled programs than the process-wide
//! plan store holds, so cold shapes put schedule construction and
//! compilation on the timed path.

use std::time::{Duration, Instant};

use cartcomm::exec::{BlockLayout, ExecLayouts};
use cartcomm::{CartComm, PlanKind, PlanStore};
use cartcomm_comm::obs::MetricsSnapshot;
use cartcomm_comm::Universe;
use cartcomm_serve::{AlgoSpec, Client, JobSpec, OpSpec, ServeConfig, Server, Submission};
use cartcomm_topo::RelNeighborhood;
use cartcomm_types::{RedOp, Reducer};

use crate::spans::{SpanLog, SpanReport};
use crate::stats::{median, ratio, WindowSet, Windowed};
use crate::steal::StealSampler;
use crate::{awake, progress, splitmix, Layers, Outcome, RUN_DIR};

/// Client connections (and load-generator threads).
const CLIENTS: usize = 2;
/// Distinct job shapes in the population.
const SHAPES: usize = 320;
/// Zipf exponent of shape popularity.
const ZIPF_S: f64 = 1.0;
/// Set-up-only daemons before each measured segment, timed with the
/// spinners paused; `setup_s` is their median.
const SETUPS_PER_SEGMENT: usize = 2;
/// Measured segments, each on a fresh daemon, so a run averages over
/// the placement of the daemon's threads.
const SEGMENTS: usize = 10;
/// BUSY replies a job may collect before it counts as failed.
const BUSY_BUDGET: u32 = 200;
/// Throughput windows per measured segment.
const WINDOWS: usize = 2;
/// Shapes whose schedule and compilation the traced run times cold.
const LAYER_SHAPES: usize = 24;

/// One periodic torus with an isomorphic neighborhood.
struct Torus {
    dims: &'static [usize],
    offsets: &'static [&'static [i64]],
}

/// The tori jobs run on: 2 and 4 ranks, within the daemon's
/// `max_universes`. The first, third, fourth and fifth have all peers
/// distinct; the others reach some peer through several offsets.
const TORI: [Torus; 7] = [
    Torus {
        dims: &[2],
        offsets: &[&[1]],
    },
    Torus {
        dims: &[2],
        offsets: &[&[1], &[-1]],
    },
    Torus {
        dims: &[4],
        offsets: &[&[1], &[2], &[3]],
    },
    Torus {
        dims: &[4],
        offsets: &[&[1], &[-1]],
    },
    Torus {
        dims: &[2, 2],
        offsets: &[&[1, 0], &[0, 1], &[1, 1]],
    },
    Torus {
        dims: &[2, 2],
        offsets: &[&[1, 0], &[-1, 0], &[0, 1], &[0, -1]],
    },
    Torus {
        dims: &[2, 2],
        offsets: &[
            &[-1, -1],
            &[-1, 0],
            &[-1, 1],
            &[0, -1],
            &[0, 1],
            &[1, -1],
            &[1, 0],
            &[1, 1],
        ],
    },
];

/// A SplitMix64 stream over a counter: the same seed, the same draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn prefix(counts: &[usize]) -> Vec<usize> {
    counts
        .iter()
        .scan(0, |acc, &c| {
            let d = *acc;
            *acc += c;
            Some(d)
        })
        .collect()
}

/// Shape classes: every torus × operation × algorithm.
const CLASSES: usize = TORI.len() * 4 * 2;
/// Stride through the classes, coprime with [`CLASSES`].
const CLASS_STRIDE: usize = 23;

/// The class of the shape at Zipf rank `i`: a fixed stride through the
/// classes, so the popular end of the ranking has the same mix of tori,
/// operations and algorithms under every seed. The seed draws counts and
/// payloads.
fn class_of(i: usize) -> (&'static Torus, usize, AlgoSpec) {
    let c = i * CLASS_STRIDE % CLASSES;
    let algo = if c / (CLASSES / 2) == 0 {
        AlgoSpec::Combining
    } else {
        AlgoSpec::Trivial
    };
    (&TORI[c % TORI.len()], c / TORI.len() % 4, algo)
}

fn draw_spec(rng: &mut Rng, (torus, op, algo): (&Torus, usize, AlgoSpec)) -> JobSpec {
    let t = torus.offsets.len();
    let red = Reducer::for_elem::<i32>(RedOp::Sum);
    let op = match op {
        0 => {
            let counts: Vec<usize> = (0..t).map(|_| 1 + rng.below(8)).collect();
            OpSpec::Alltoallv {
                elem_size: 4,
                senddispls: prefix(&counts),
                recvdispls: prefix(&counts),
                sendcounts: counts.clone(),
                recvcounts: counts,
            }
        }
        1 => {
            let sendcount = 1 + rng.below(8);
            OpSpec::Allgatherv {
                elem_size: 4,
                sendcount,
                recvdispls: (0..t).map(|i| i * sendcount).collect(),
            }
        }
        2 => OpSpec::Allreduce {
            red,
            count: 1 + rng.below(32),
        },
        _ => OpSpec::ReduceScatter {
            red,
            count: 1 + rng.below(16),
        },
    };
    JobSpec {
        dims: torus.dims.to_vec(),
        periods: vec![true; torus.dims.len()],
        offsets: torus.offsets.iter().map(|o| o.to_vec()).collect(),
        op,
        algo,
    }
}

/// One job shape with its payload and its reference result.
struct Shape {
    spec: JobSpec,
    payload: Vec<u8>,
    expect: Vec<u8>,
}

/// The population, most popular first, with references computed by
/// `cartcomm_serve::reference::execute` (no daemon involved).
fn population(seed: u64) -> Vec<Shape> {
    let mut rng = Rng(seed ^ 0x5E4E_u64 << 32);
    // Every class holds at least 8 distinct shapes and needs at most
    // ceil(SHAPES / CLASSES) = 6, so the redraws end.
    let mut specs: Vec<JobSpec> = Vec::with_capacity(SHAPES);
    for i in 0..SHAPES {
        loop {
            let s = draw_spec(&mut rng, class_of(i));
            if !specs.contains(&s) {
                specs.push(s);
                break;
            }
        }
    }
    specs
        .into_iter()
        .map(|spec| {
            let n = spec.ranks() * spec.send_bytes_per_rank();
            let payload: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
            let expect = cartcomm_serve::reference::execute(&spec, &payload)
                .unwrap_or_else(|e| panic!("reference failed on {spec:?}: {e}"));
            progress::beat();
            Shape {
                spec,
                payload,
                expect,
            }
        })
        .collect()
}

/// Cumulative Zipf weights over shape indices.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|i| {
            acc += 1.0 / ((i + 1) as f64).powf(ZIPF_S);
            acc
        })
        .collect();
    let total = acc;
    cdf.iter_mut().for_each(|c| *c /= total);
    cdf
}

fn draw_shape(rng: &mut Rng, cdf: &[f64]) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// A running daemon with its connected clients.
struct Daemon {
    server: Server,
    clients: Vec<Client>,
}

fn socket_path(seed: u64) -> String {
    format!("{RUN_DIR}/serve-{}-{seed}.sock", std::process::id())
}

/// Bind, connect and HELLO every client, and run one warm-up job per
/// rank count. Returns the daemon and the set-up time in seconds.
fn set_up(seed: u64, shapes: &[Shape], o: &mut Outcome) -> (Daemon, f64) {
    let t0 = Instant::now();
    let path = socket_path(seed);
    let server = Server::bind_uds(&path, ServeConfig::default()).expect("bind cartserve socket");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| Client::connect_uds(&path, &format!("tenant{c}")).expect("connect"))
        .collect();
    for p in [2usize, 4] {
        let s = shapes
            .iter()
            .find(|s| s.spec.ranks() == p)
            .expect("population covers both rank counts");
        match clients[0].submit_retrying(&s.spec, &s.payload, BUSY_BUDGET as usize) {
            Ok(out) if out == s.expect => {}
            Ok(_) => {
                o.failed += 1;
                o.fail(format!(
                    "warm-up job on {p} ranks: result differs from reference"
                ));
            }
            Err(e) => {
                o.failed += 1;
                o.fail(format!("warm-up job on {p} ranks: {e}"));
            }
        }
        o.attempted += 1;
    }
    progress::beat();
    let s = t0.elapsed().as_secs_f64();
    (Daemon { server, clients }, s)
}

impl Daemon {
    fn shut_down(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// What one client thread measured.
#[derive(Default)]
struct ClientOut {
    lat_us: Vec<f64>,
    /// Completion times, s since the phase began.
    done_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    spans: Option<SpanLog>,
}

/// One client's closed loop: draw a shape, submit it (sleeping out BUSY
/// replies), time it and byte-compare the result, until `dur` has passed.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    client: &mut Client,
    shapes: &[Shape],
    cdf: &[f64],
    mut rng: Rng,
    origin: Instant,
    dur: Duration,
    traced: bool,
    inject: Duration,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut log = SpanLog::new(origin, traced);
    let mut op = 0u64;
    while origin.elapsed() < dur {
        let shape = &shapes[draw_shape(&mut rng, cdf)];
        progress::start_op();
        log.begin("serve.submit", op);
        let t = Instant::now();
        while t.elapsed() < inject {
            std::hint::spin_loop();
        }
        let mut busy = 0u32;
        let res = loop {
            match client.submit(&shape.spec, &shape.payload) {
                Ok(Submission::Busy { retry_after_ms }) if busy < BUSY_BUDGET => {
                    busy += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1) as u64));
                }
                Ok(Submission::Busy { .. }) => break Err("BUSY past the retry budget".to_string()),
                Ok(Submission::Done(bytes)) => break Ok(bytes),
                Err(e) => break Err(e.to_string()),
            }
        };
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        log.end();
        progress::finish_op();
        out.attempted += 1;
        out.lat_us.push(us);
        out.done_s.push(origin.elapsed().as_secs_f64());
        let failure = match res {
            Ok(bytes) if bytes == shape.expect => None,
            Ok(_) => Some(format!(
                "{:?}: result differs from reference",
                shape.spec.op
            )),
            Err(e) => Some(format!("{:?}: {e}", shape.spec.op)),
        };
        if let Some(f) = failure {
            out.failed += 1;
            if out.failures.len() < 4 {
                out.failures.push(f);
            }
        }
        op += 1;
    }
    out.spans = Some(log);
    out
}

/// Run every client closed-loop for `dur`, one thread each; returns the
/// clients, their measurements and the phase's windows.
fn drive(
    clients: Vec<Client>,
    shapes: &[Shape],
    seed: u64,
    phase: u64,
    dur: Duration,
    traced: bool,
    inject: Duration,
) -> (Vec<Client>, Vec<ClientOut>, WindowSet) {
    let cdf = zipf_cdf(shapes.len());
    let origin = Instant::now();
    let (clients, outs): (Vec<Client>, Vec<ClientOut>) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(ci, mut client)| {
                let rng = Rng(seed ^ (ci as u64 + 1) << 48 ^ phase << 40);
                let cdf = &cdf;
                scope.spawn(move || {
                    let out =
                        client_loop(&mut client, shapes, cdf, rng, origin, dur, traced, inject);
                    (client, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .unzip()
    });
    let wall = origin.elapsed().as_secs_f64();
    let mut done: Vec<(f64, f64)> = outs
        .iter()
        .flat_map(|c| c.done_s.iter().copied().zip(c.lat_us.iter().copied()))
        .collect();
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut windows = Windowed::new(origin, dur.as_secs_f64() / WINDOWS as f64);
    for (i, &(at, us)) in done.iter().enumerate() {
        windows.add(us, 0.0);
        windows.note(at, i as u64 + 1);
    }
    let windows = windows.finish(wall, done.len() as u64);
    (clients, outs, windows)
}

fn fold(o: &mut Outcome, outs: &[ClientOut]) {
    for c in outs {
        o.attempted += c.attempted;
        o.failed += c.failed;
        for f in &c.failures {
            o.fail(f.clone());
        }
    }
}

/// Daemon-side counters at one instant.
struct Snapshot {
    counters: cartcomm_serve::ServerCounters,
    store: cartcomm::PlanStoreStats,
    /// Per stage: (count, sum ns), summed over tenants.
    stages: [(u64, u64); 4],
    /// Tenant counter totals, predictions and rank-job count.
    totals: MetricsSnapshot,
    predicted: (u64, u64),
    rank_jobs: u64,
}

fn snapshot(server: &Server) -> Snapshot {
    let mut stages = [(0u64, 0u64); 4];
    let mut totals = MetricsSnapshot::default();
    let (mut pr, mut pb, mut jobs) = (0, 0, 0);
    for (tenant, st) in server.tenants().all() {
        if let Some(dists) = server.tenants().stages(&tenant) {
            for (acc, d) in stages.iter_mut().zip(dists.iter()) {
                acc.0 += d.hist.total() as u64;
                acc.1 += d.sum_ns;
            }
        }
        totals += st.totals;
        pr += st.predicted_rounds;
        pb += st.predicted_wire_bytes;
        jobs += st.jobs;
    }
    Snapshot {
        counters: server.counters(),
        store: server.plan_store().stats(),
        stages,
        totals,
        predicted: (pr, pb),
        rank_jobs: jobs,
    }
}

/// Props. 3.2/3.3 through the daemon's own accounting: over a phase, the
/// rounds and wire bytes the rank-jobs moved must equal the schedules'
/// predictions exactly.
fn check_counts(o: &mut Outcome, before: &Snapshot, after: &Snapshot) {
    let moved = after.totals - before.totals;
    let (rounds, bytes) = (moved.rounds_completed, moved.wire_bytes_sent);
    let want = (
        after.predicted.0 - before.predicted.0,
        after.predicted.1 - before.predicted.1,
    );
    if (rounds, bytes) != want {
        o.failed += 1;
        o.fail(format!(
            "daemon moved {rounds} rounds / {bytes} wire bytes, schedules predict {} / {}",
            want.0, want.1
        ));
    }
}

/// One measured segment on a fresh daemon.
struct Segment {
    windows: WindowSet,
    outs: Vec<ClientOut>,
    before: Snapshot,
    after: Snapshot,
}

/// Set up a daemon, drive it for `dur`, check its counts and shut it
/// down.
fn segment(
    seed: u64,
    shapes: &[Shape],
    phase: u64,
    dur: Duration,
    traced: bool,
    inject: Duration,
    o: &mut Outcome,
) -> Segment {
    let (d, _) = set_up(seed, shapes, o);
    let before = snapshot(&d.server);
    let (clients, outs, windows) = drive(d.clients, shapes, seed, phase, dur, traced, inject);
    let after = snapshot(&d.server);
    check_counts(o, &before, &after);
    fold(o, &outs);
    Daemon {
        server: d.server,
        clients,
    }
    .shut_down();
    Segment {
        windows,
        outs,
        before,
        after,
    }
}

/// Run serve-mix.
pub fn run(seed: u64, seconds: f64, traced: bool, inject: Duration) -> Outcome {
    let mut o = Outcome::new(CLIENTS);
    let shapes = population(seed);
    o.working_set_bytes = shapes
        .iter()
        .map(|s| (s.payload.len() + s.expect.len()) as u64)
        .sum();

    let mut setups = Vec::with_capacity(SETUPS_PER_SEGMENT * SEGMENTS);
    let untraced = if traced { seconds / 2.0 } else { seconds };
    let mut windows = WindowSet::default();
    let sampler = StealSampler::start();
    for seg in 0..SEGMENTS {
        for _ in 0..SETUPS_PER_SEGMENT {
            let (d, s) = awake::paused(|| set_up(seed, &shapes, &mut o));
            setups.push(s);
            d.shut_down();
        }
        let dur = Duration::from_secs_f64(untraced / SEGMENTS as f64);
        let s = segment(seed, &shapes, seg as u64, dur, false, inject, &mut o);
        windows.extend(s.windows);
    }
    windows.charge_steal(&sampler.finish());
    o.setup_s = median(&mut setups);
    let untraced_stats = windows.stats();
    o.stats = untraced_stats;
    if !traced {
        return o;
    }

    let dur = Duration::from_secs_f64(seconds / 2.0);
    let sampler = StealSampler::start();
    let mut t = segment(seed, &shapes, SEGMENTS as u64, dur, true, inject, &mut o);
    t.windows.charge_steal(&sampler.finish());
    let (mid, after, mut outs) = (t.before, t.after, t.outs);
    let traced_stats = t.windows.stats();
    let lat: Vec<f64> = outs.iter().flat_map(|c| c.lat_us.iter().copied()).collect();
    let client_mean = ratio(lat.iter().sum(), lat.len() as f64);

    let mut l = Layers::default();
    let stage_names = [
        "serve.queue_us",
        "serve.coalesce_us",
        "serve.execute_us",
        "serve.reply_us",
    ];
    let mut stage_sum = 0.0;
    for (i, name) in stage_names.iter().enumerate() {
        let n = after.stages[i].0 - mid.stages[i].0;
        let ns = after.stages[i].1 - mid.stages[i].1;
        let mean = ratio(ns as f64, n as f64) / 1e3;
        stage_sum += mean;
        l.set(name, mean);
    }
    l.set("serve.unattributed_us", client_mean - stage_sum);
    let dc = |f: fn(&cartcomm_serve::ServerCounters) -> u64| {
        (f(&after.counters) - f(&mid.counters)) as f64
    };
    l.set(
        "serve.coalesced_ratio",
        ratio(dc(|c| c.jobs_coalesced), dc(|c| c.jobs_completed)),
    );
    l.set(
        "serve.busy_ratio",
        ratio(
            dc(|c| c.jobs_rejected),
            dc(|c| c.jobs_submitted) + dc(|c| c.jobs_rejected),
        ),
    );
    let hits = (after.store.hits - mid.store.hits) as f64;
    let misses = (after.store.misses - mid.store.misses) as f64;
    l.set("plan_store.hit_ratio", ratio(hits, hits + misses));
    l.set(
        "plan_store.evictions",
        (after.store.evictions - mid.store.evictions) as f64,
    );

    // Counter deltas per rank-job (one collective on one rank).
    let jobs = (after.rank_jobs - mid.rank_jobs) as f64;
    let m = after.totals - mid.totals;
    let per_job = |x: u64| ratio(x as f64, jobs);
    l.set("comm.rounds_per_op", per_job(m.rounds_completed));
    l.set("comm.wire_bytes_per_op", per_job(m.wire_bytes_sent));
    l.set("comm.msgs_matched_per_op", per_job(m.msgs_matched));
    l.set("kernel.pack_bytes_per_op", per_job(m.pack_bytes));
    l.set("kernel.pack_spans_per_op", per_job(m.pack_spans));
    l.set(
        "comm.pool_hit_ratio",
        ratio(m.pool_hits as f64, (m.pool_hits + m.pool_misses) as f64),
    );

    let mut log = SpanLog::new(Instant::now(), true);
    cold_plan_layers(&shapes, &mut l, &mut log);
    let probe = crate::halo::layer_probes(per_job(m.pack_spans), per_job(m.pack_bytes), &mut log);
    probe.set_into(&mut l);

    // Model residual of the execute stage: its mean over the α-β
    // prediction of the rounds and bytes one job's ranks moved.
    let pred_us = ratio(
        (after.predicted.0 - mid.predicted.0) as f64 * probe.alpha_us()
            + (after.predicted.1 - mid.predicted.1) as f64 * probe.beta_ns() / 1e3,
        jobs,
    );
    let exec_mean = ratio(
        (after.stages[2].1 - mid.stages[2].1) as f64,
        (after.stages[2].0 - mid.stages[2].0) as f64,
    ) / 1e3;
    l.set("model.residual", ratio(exec_mean, pred_us));
    l.set(
        "obs.trace_overhead_ratio",
        ratio(traced_stats.p50, untraced_stats.p50),
    );
    o.layers = Some(l);

    let mut report = SpanReport::new();
    for (ci, c) in outs.iter_mut().enumerate() {
        if let Some(log) = c.spans.take() {
            report.add(format!("client{ci}"), log);
        }
    }
    report.add("layers", log);
    o.spans = Some(report);
    o
}

/// The layouts a job's collective executes over, in bytes.
fn layouts(spec: &JobSpec) -> (PlanKind, ExecLayouts) {
    let t = spec.neighbor_count();
    let blocks = |displs: &[usize], counts: &[usize], es: usize| -> Vec<BlockLayout> {
        displs
            .iter()
            .zip(counts)
            .map(|(&d, &c)| BlockLayout::contiguous((d * es) as i64, c * es))
            .collect()
    };
    let (kind, send, recv) = match &spec.op {
        OpSpec::Alltoallv {
            elem_size,
            sendcounts,
            senddispls,
            recvcounts,
            recvdispls,
        } => (
            PlanKind::Alltoall,
            blocks(senddispls, sendcounts, *elem_size),
            blocks(recvdispls, recvcounts, *elem_size),
        ),
        OpSpec::Allgatherv {
            elem_size,
            sendcount,
            recvdispls,
        } => (
            PlanKind::Allgather,
            vec![BlockLayout::contiguous(0, sendcount * elem_size)],
            blocks(recvdispls, &vec![*sendcount; t], *elem_size),
        ),
        OpSpec::ReduceScatter { red, count } => {
            let bb = count * red.width();
            (
                PlanKind::ReduceScatter,
                (0..t)
                    .map(|i| BlockLayout::contiguous((i * bb) as i64, bb))
                    .collect(),
                vec![BlockLayout::contiguous(0, bb)],
            )
        }
        OpSpec::Allreduce { red, count } => {
            let bb = count * red.width();
            (
                PlanKind::Allreduce,
                vec![BlockLayout::contiguous(0, bb)],
                vec![BlockLayout::contiguous(0, bb)],
            )
        }
        OpSpec::Alltoallw { .. } | OpSpec::Allgatherw { .. } => {
            unreachable!("the population has no w-variants")
        }
    };
    let lay = ExecLayouts {
        send,
        recv,
        block_bytes: spec.recv_block_bytes(),
        temp_offsets: Vec::new(),
        temp_sizes: Vec::new(),
    };
    (kind, lay)
}

/// Cold topology, schedule and compile costs over the most popular
/// combining shapes: each shape's ranks create a communicator on a fresh
/// plan store, build the schedule, then compile their program.
fn cold_plan_layers(shapes: &[Shape], l: &mut Layers, log: &mut SpanLog) {
    let (mut create, mut schedule, mut compile, mut spans) = (vec![], vec![], vec![], vec![]);
    for shape in shapes
        .iter()
        .filter(|s| s.spec.algo == AlgoSpec::Combining)
        .take(LAYER_SHAPES)
    {
        let spec = &shape.spec;
        let (kind, lay) = layouts(spec);
        log.begin("layers.cold_shape", 0);
        let per_rank = Universe::builder(spec.ranks()).run(|comm| {
            let nb =
                RelNeighborhood::new(spec.dims.len(), spec.offsets.clone()).expect("neighborhood");
            let t = Instant::now();
            let cart = CartComm::create(comm, &spec.dims, &spec.periods, nb).expect("communicator");
            let c = t.elapsed().as_nanos() as f64 / 1e3;
            let cart = cart.with_plan_store(PlanStore::new(1, 16));
            let t = Instant::now();
            cart.plans().schedule(kind);
            let s = t.elapsed().as_nanos() as f64 / 1e3;
            let t = Instant::now();
            let cp = cart.plans().compiled(kind, lay.clone()).expect("compile");
            let p = t.elapsed().as_nanos() as f64 / 1e3;
            (c, s, p, cp.span_count() as f64)
        });
        log.end();
        let (c, s, p, n) = per_rank[0];
        create.push(c);
        schedule.push(s);
        compile.push(p);
        spans.push(n);
        progress::beat();
    }
    l.set("topo.create_us", median(&mut create));
    l.set("schedule.build_us", median(&mut schedule));
    l.set("compile.plan_us", median(&mut compile));
    l.set("compile.spans", median(&mut spans));
}
