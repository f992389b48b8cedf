//! Criterion bench: shared-memory ring frame throughput.
//!
//! Pins the byte-ring path of the shm transport — encode, ring write
//! (including the wrap-around double copy, now routed through the
//! wide-copy kernel), progress-thread sweep, decode, delivery. The
//! monotone cursors make the ring wrap continuously as bytes accumulate,
//! so a steady bench loop exercises the wrap path at every offset, not
//! just the aligned start of the ring.

use std::sync::Arc;

use cartcomm_comm::envelope::Envelope;
use cartcomm_comm::obs::Obs;
use cartcomm_comm::transport::shm::ShmTransport;
use cartcomm_comm::transport::Transport;
use cartcomm_comm::WirePool;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_shm_frames(c: &mut Criterion) {
    let pools: Vec<Arc<WirePool>> = (0..2).map(|_| Arc::new(WirePool::new())).collect();
    let obs: Vec<Arc<Obs>> = (0..2).map(|_| Arc::new(Obs::new())).collect();
    let (t, mut rxs) = ShmTransport::for_threads(2, &pools, &obs).expect("shm scratch universe");
    let rx = rxs.remove(1);

    let mut g = c.benchmark_group("shm_frame");
    for frame_bytes in [64usize, 1024, 16 * 1024] {
        g.throughput(Throughput::Bytes(frame_bytes as u64));
        let payload = vec![0xC3u8; frame_bytes];
        g.bench_with_input(
            BenchmarkId::from_parameter(frame_bytes),
            &payload,
            |b, payload| {
                b.iter(|| {
                    t.deposit(1, Envelope::new(0, 0, 9, payload.clone()))
                        .expect("ring write");
                    let env = rx.recv().expect("frame delivered");
                    black_box(env.data.len())
                })
            },
        );
    }
    g.finish();
    t.shutdown(0);
    t.shutdown(1);
}

criterion_group!(benches, bench_shm_frames);
criterion_main!(benches);
