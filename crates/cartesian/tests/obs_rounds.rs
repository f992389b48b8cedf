//! Observability pins the paper's accounting: with a trace sink attached,
//! the round events a combining collective emits must match the schedule's
//! analytical round count `C = Σ_k C_k` (Prop. 3.2) exactly, and the wire
//! bytes they carry must sum to the analytical volume `V·m` (Prop. 3.3) —
//! for every neighborhood family the paper evaluates.

use std::sync::Arc;

use cartcomm::ops::Algo;
use cartcomm::CartComm;
use cartcomm_comm::obs::{RingBufferSink, TraceEvent};
use cartcomm_comm::Universe;
use cartcomm_topo::RelNeighborhood;

/// Per-rank observation of one traced collective run: `(rounds_started,
/// rounds_ended, start_wire_bytes, end_wire_bytes)` from this rank's own
/// trace ring.
type Observed = (usize, usize, usize, usize);

/// Run one combining collective on a `dims` torus with tracing enabled and
/// return each rank's observed rounds/bytes plus the plan's `(C, V)`.
fn observe_combining(
    dims: &[usize],
    nb: &RelNeighborhood,
    m: usize,
    allgather: bool,
) -> (Vec<Observed>, usize, usize) {
    let p: usize = dims.iter().product();
    let periods = vec![true; dims.len()];
    let t = nb.len();
    let nb = nb.clone();
    let dims = dims.to_vec();
    let mut cv = (0usize, 0usize);
    let outs = Universe::builder(p).run(|comm| {
        let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
        let rank = cart.rank();
        let plan = if allgather {
            cart.plans().allgather()
        } else {
            cart.plans().alltoall()
        };
        let (c, v) = (plan.rounds, plan.volume_blocks);

        let sink = Arc::new(RingBufferSink::new(4 * (c + v) + 64));
        cart.comm().obs().attach_sink(sink.clone());

        if allgather {
            let send: Vec<i32> = (0..m).map(|e| (rank * 10 + e) as i32).collect();
            let mut recv = vec![0i32; t * m];
            cart.allgather(&send, &mut recv, Algo::Combining).unwrap();
        } else {
            let send: Vec<i32> = (0..t * m).map(|x| (rank * 100 + x) as i32).collect();
            let mut recv = vec![0i32; t * m];
            cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        }
        cart.comm().obs().detach_sink();

        let mut obs: Observed = (0, 0, 0, 0);
        for rec in sink.snapshot() {
            assert_eq!(rec.rank, rank, "sink only sees its own rank's events");
            match rec.event {
                TraceEvent::RoundStart { wire_bytes, .. } => {
                    obs.0 += 1;
                    obs.2 += wire_bytes;
                }
                TraceEvent::RoundEnd { wire_bytes, .. } => {
                    obs.1 += 1;
                    obs.3 += wire_bytes;
                }
                _ => {}
            }
        }
        (obs, c, v)
    });
    let mut per_rank = Vec::with_capacity(p);
    for (obs, c, v) in outs {
        cv = (c, v);
        per_rank.push(obs);
    }
    (per_rank, cv.0, cv.1)
}

/// The shared assertion: every rank observed exactly `C` rounds and `V·m`
/// wire bytes, in both directions.
fn assert_matches_cv(dims: &[usize], nb: &RelNeighborhood, m: usize, allgather: bool) {
    let (per_rank, c, v) = observe_combining(dims, nb, m, allgather);
    let m_bytes = m * std::mem::size_of::<i32>();
    for (rank, (starts, ends, sent, recvd)) in per_rank.into_iter().enumerate() {
        assert_eq!(starts, c, "rank {rank}: observed rounds != C");
        assert_eq!(ends, c, "rank {rank}: completed rounds != C");
        assert_eq!(sent, v * m_bytes, "rank {rank}: sent wire bytes != V*m");
        assert_eq!(recvd, v * m_bytes, "rank {rank}: recv wire bytes != V*m");
    }
}

#[test]
fn moore_2d_rounds_match_c_and_volume() {
    // 9-point stencil on a 3x3 torus: t = 8, C = 4 (Table 1).
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    assert_matches_cv(&[3, 3], &nb, 3, false);
    assert_matches_cv(&[3, 3], &nb, 2, true);
}

#[test]
fn moore_3d_rounds_match_c_and_volume() {
    // 27-point stencil on a 3x3x3 torus: t = 26, C = 13.
    let nb = RelNeighborhood::moore(3, 1).unwrap();
    assert_matches_cv(&[3, 3, 3], &nb, 2, false);
    assert_matches_cv(&[3, 3, 3], &nb, 1, true);
}

#[test]
fn von_neumann_3d_rounds_match_c_and_volume() {
    // 7-point stencil (minus self) on a 3x3x4 torus: t = 6, C = 6, V = 6.
    let nb = RelNeighborhood::von_neumann(3, 1).unwrap();
    assert_matches_cv(&[3, 3, 4], &nb, 4, false);
    assert_matches_cv(&[3, 3, 4], &nb, 2, true);
}

#[test]
fn asymmetric_stencil_rounds_match_c_and_volume() {
    // An irregular (but isomorphic) neighborhood: upwind-biased offsets.
    let nb = RelNeighborhood::new(
        2,
        vec![vec![1, 0], vec![2, 0], vec![0, 1], vec![1, 1], vec![-1, 0]],
    )
    .unwrap();
    assert_matches_cv(&[4, 4], &nb, 3, false);
}

#[test]
fn trivial_rounds_match_t_and_direct_volume() {
    // The trivial algorithm's accounting: t rounds, t·m bytes each way.
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let m = 3usize;
    let outs = Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        let sink = Arc::new(RingBufferSink::new(256));
        cart.comm().obs().attach_sink(sink.clone());
        let send: Vec<i32> = (0..t * m).map(|x| x as i32).collect();
        let mut recv = vec![0i32; t * m];
        cart.alltoall(&send, &mut recv, Algo::Trivial).unwrap();
        cart.comm().obs().detach_sink();
        let mut starts = 0usize;
        let mut bytes = 0usize;
        for rec in sink.snapshot() {
            if let TraceEvent::RoundStart { wire_bytes, .. } = rec.event {
                starts += 1;
                bytes += wire_bytes;
            }
        }
        (starts, bytes)
    });
    for (rank, (starts, bytes)) in outs.into_iter().enumerate() {
        assert_eq!(starts, t, "rank {rank}: trivial rounds != t");
        assert_eq!(bytes, t * m * 4, "rank {rank}: trivial volume != t*m");
    }
}

#[test]
fn combining_beats_trivial_round_count() {
    // The point of the paper, observed: C < t for the Moore family.
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let (per_rank, c, _) = observe_combining(&[3, 3], &nb, 1, false);
    assert!(c < nb.len(), "C = {c} must beat t = {}", nb.len());
    assert!(per_rank.iter().all(|&(s, ..)| s == c));
}

#[test]
fn plan_cache_events_fire_on_hit_and_miss() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    // Isolated store: concurrent tests in this binary share the global
    // PlanStore and would turn this test's pinned miss into a hit.
    let store = cartcomm::PlanStore::new(4, 8);
    let outs = Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone())
            .unwrap()
            .with_plan_store(store.clone());
        let sink = Arc::new(RingBufferSink::new(1024));
        cart.comm().obs().attach_sink(sink.clone());
        let send: Vec<i32> = (0..t).map(|x| x as i32).collect();
        let mut recv = vec![0i32; t];
        // First call compiles (miss), second reuses (hit).
        cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        cart.comm().obs().detach_sink();
        let mut hits = 0usize;
        let mut misses = 0usize;
        for rec in sink.snapshot() {
            match rec.event {
                TraceEvent::PlanCacheHit { .. } => hits += 1,
                TraceEvent::PlanCacheMiss { .. } => misses += 1,
                _ => {}
            }
        }
        let stats = cart.plans().cache_stats();
        (hits, misses, stats.hits, stats.misses)
    });
    for (rank, (hits, misses, chits, cmisses)) in outs.into_iter().enumerate() {
        assert_eq!(misses, 1, "rank {rank}: one compile expected");
        assert_eq!(hits, 1, "rank {rank}: one cache hit expected");
        assert_eq!((chits, cmisses), (1, 1), "rank {rank}: counter mismatch");
    }
}

#[test]
fn metrics_counters_match_trace() {
    // The always-on counters and the trace agree on the same run; the
    // window is expressed as a MetricsDelta rather than hand-subtracted
    // counter fields.
    let nb = RelNeighborhood::von_neumann(2, 1).unwrap();
    let t = nb.len();
    let outs = Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        let before = cart.comm().obs().snapshot();
        let sink = Arc::new(RingBufferSink::new(256));
        cart.comm().obs().attach_sink(sink.clone());
        let send: Vec<i32> = (0..t).map(|x| x as i32).collect();
        let mut recv = vec![0i32; t];
        cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        cart.comm().obs().detach_sink();
        let delta = cart.comm().obs().metrics().delta_since(&before);
        let traced_rounds = sink
            .snapshot()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::RoundStart { .. }))
            .count() as u64;
        (delta.rounds_started, delta.rounds_completed, traced_rounds)
    });
    for (rank, (started, completed, traced)) in outs.into_iter().enumerate() {
        assert_eq!(started, traced, "rank {rank}: counter vs trace mismatch");
        assert_eq!(completed, traced, "rank {rank}: completions mismatch");
    }
}

#[test]
fn compiled_alltoall_wakes_each_rank_at_most_once_per_round() {
    // A persistent (compiled) combining alltoall on 3-D Moore at p=2:
    // whether the inboxes spin or park, a rank pays at most one OS
    // wake-up per round — at most C per operation (Prop. 3.2's C) — and
    // never more wakes than parks.
    const OPS: u64 = 300;
    let nb = RelNeighborhood::moore(3, 1).unwrap();
    let t = nb.len();
    let outs = Universe::builder(2).run(|comm| {
        let cart = CartComm::create(comm, &[2, 1, 1], &[true; 3], nb.clone()).unwrap();
        let c = cart.plans().alltoall().rounds as u64;
        let mut h = cart.alltoall_init::<i32>(1, Algo::Combining).unwrap();
        assert!(h.compiled().is_some(), "combining alltoall runs compiled");
        let send: Vec<i32> = (0..t as i32).collect();
        let mut recv = vec![0i32; t];
        h.execute_typed(&cart, &send, &mut recv).unwrap();
        let before = cart.comm().metrics();
        for _ in 0..OPS {
            h.execute_typed(&cart, &send, &mut recv).unwrap();
        }
        (cart.comm().obs().metrics().delta_since(&before), c)
    });
    for (rank, (d, c)) in outs.into_iter().enumerate() {
        assert_eq!(d.rounds_completed, c * OPS, "rank {rank}");
        assert!(
            d.inbox_wakes <= c * OPS,
            "rank {rank}: {} wakes over {OPS} ops of C = {c}",
            d.inbox_wakes
        );
        assert!(d.inbox_wakes <= d.inbox_parks, "rank {rank}: {d}");
    }
}
