//! Criterion microbenchmarks of the emulator's hot paths.
//!
//! These measure *emulator* (host wall-clock) performance, not simulated
//! device performance: how fast the L2P cache, mapping table, flash timing
//! model and full device paths execute per operation.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use conzone_core::ConZone;
use conzone_flash::FlashArray;
use conzone_ftl::{L2pCache, LookupResult, MapBitmap, MappingTable};
use conzone_host::{run_job, AccessPattern, FioJob};
use conzone_types::{
    CellType, ChipId, DeviceConfig, IoRequest, Lpn, MapGranularity, Ppa, SimTime, StorageDevice,
    ZonedDevice,
};

fn bench_l2p_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("l2p_cache");
    group.throughput(Throughput::Elements(1));

    group.bench_function("lookup_hit_page", |b| {
        let mut cache = L2pCache::new(3072, 1024, 4096);
        for i in 0..3000u64 {
            cache.insert(Lpn(i * 4096), MapGranularity::Page, false);
        }
        let mut i = 0u64;
        b.iter(|| {
            let lpn = Lpn((i % 3000) * 4096);
            i += 1;
            black_box(cache.lookup(lpn))
        });
    });

    group.bench_function("lookup_miss", |b| {
        let mut cache = L2pCache::new(3072, 1024, 4096);
        let mut i = 0u64;
        b.iter(|| {
            let lpn = Lpn(i % 1_000_000);
            i += 1;
            black_box(cache.lookup(lpn))
        });
    });

    group.bench_function("insert_evict_churn", |b| {
        let mut cache = L2pCache::new(3072, 1024, 4096);
        let mut i = 0u64;
        b.iter(|| {
            cache.insert(Lpn(i), MapGranularity::Page, false);
            i += 4096;
        });
    });

    // The randread-page pattern: uniform 4 KiB reads over 1 GiB on a full
    // page-only cache, so nearly every lookup misses and inserts with an
    // eviction.
    group.bench_function("miss_insert_full_page_only", |b| {
        let mut cache = L2pCache::new(3072, 1024, 4096);
        for i in 0..3072u64 {
            cache.insert(Lpn(i * 85), MapGranularity::Page, false);
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        b.iter(|| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let lpn = Lpn(x % (1 << 18));
            if cache.lookup(lpn) == LookupResult::Miss {
                black_box(cache.insert(lpn, MapGranularity::Page, false));
            }
        });
    });

    // 2 000 pinned chunk entries older than every unpinned page entry, on
    // a full cache: each insert evicts, and the victim lies past them.
    group.bench_function("evict_past_pinned", |b| {
        let mut cache = L2pCache::new(3072, 1024, 4096);
        for c in 0..2000u64 {
            cache.insert(Lpn(c * 1024), MapGranularity::Chunk, true);
        }
        let mut i = 1u64 << 30;
        while cache.len() < cache.capacity() {
            cache.insert(Lpn(i), MapGranularity::Page, false);
            i += 1;
        }
        b.iter(|| {
            black_box(cache.insert(Lpn(i), MapGranularity::Page, false));
            i += 1;
        });
    });
    group.finish();
}

fn bench_mapping_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapping_table");
    group.throughput(Throughput::Elements(1));

    group.bench_function("set_page_entry", |b| {
        let mut table = MappingTable::new(1 << 20, 1024, 4096);
        let mut i = 0u64;
        b.iter(|| {
            table.set(Lpn(i % (1 << 20)), Ppa(i), true);
            i += 1;
        });
    });

    group.bench_function("aggregate_chunk_1024", |b| {
        b.iter_with_setup(
            || {
                let mut table = MappingTable::new(4096, 1024, 4096);
                for i in 0..1024u64 {
                    table.set(Lpn(i), Ppa(i), true);
                }
                table
            },
            |mut table| black_box(table.try_aggregate_chunk(Lpn(0))),
        );
    });

    group.bench_function("bitmap_set_get", |b| {
        let mut bitmap = MapBitmap::new(1 << 20);
        let mut i = 0u64;
        b.iter(|| {
            let lpn = Lpn(i % (1 << 20));
            bitmap.set(lpn, MapGranularity::Chunk);
            i += 1;
            black_box(bitmap.get(lpn))
        });
    });
    group.finish();
}

fn bench_flash_timing(c: &mut Criterion) {
    let mut group = c.benchmark_group("flash_timing");
    group.throughput(Throughput::Elements(1));

    group.bench_function("timed_page_read", |b| {
        let mut array = FlashArray::new(&DeviceConfig::paper_evaluation());
        let mut t = SimTime::ZERO;
        b.iter(|| {
            let r = array.timed_page_read(t, ChipId(0), CellType::Slc, 16 * 1024);
            t = r.end;
            black_box(r.end)
        });
    });
    group.finish();
}

fn bench_device_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("device_paths");

    // Emulated 512 KiB sequential writes per second of host wall time.
    group.throughput(Throughput::Bytes(512 * 1024));
    group.bench_function("conzone_seq_write_512k", |b| {
        b.iter_with_setup(
            || (ConZone::new(DeviceConfig::paper_evaluation()), 0u64),
            |(mut dev, _)| {
                let mut t = SimTime::ZERO;
                for i in 0..8u64 {
                    let req = IoRequest::write(i * 512 * 1024, 512 * 1024);
                    t = dev.submit(t, &req).expect("write").finished;
                }
                black_box(t)
            },
        );
    });

    // Emulated 4 KiB random reads per second of host wall time.
    group.throughput(Throughput::Elements(256));
    group.bench_function("conzone_rand_read_4k_x256", |b| {
        let mut dev = ConZone::new(DeviceConfig::paper_evaluation());
        let fill = FioJob::new(AccessPattern::SeqWrite, 512 * 1024)
            .zone_bytes(16 << 20)
            .region(0, 64 << 20)
            .bytes_per_thread(64 << 20);
        let t0 = run_job(&mut dev, &fill).expect("fill").finished;
        let mut seed = 0u64;
        b.iter(|| {
            let job = FioJob::new(AccessPattern::RandRead, 4096)
                .region(0, 64 << 20)
                .ops_per_thread(256)
                .bytes_per_thread(u64::MAX)
                .seed(seed)
                .start_at(t0);
            seed += 1;
            black_box(run_job(&mut dev, &job).expect("read").kiops())
        });
    });
    group.finish();
}

/// The tracing tax on the hot write path: a detached [`Probe`] must cost
/// nothing (the `null_probe` case is the regression gate — it should stay
/// within ±2 % of `device_paths/conzone_seq_write_512k`, which has no
/// probe calls at all in the seed), and an attached ring sink should stay
/// cheap enough to leave on during figure runs.
fn bench_probe_overhead(c: &mut Criterion) {
    use conzone_sim::RingBufferSink;
    use conzone_types::Probe;
    use std::sync::Arc;

    let mut group = c.benchmark_group("probe_overhead");
    group.throughput(Throughput::Bytes(8 * 512 * 1024));

    let seq_burst = |mut dev: ConZone| {
        let mut t = SimTime::ZERO;
        for i in 0..8u64 {
            let req = IoRequest::write(i * 512 * 1024, 512 * 1024);
            t = dev.submit(t, &req).expect("write").finished;
        }
        t
    };

    group.bench_function("seq_write_null_probe", |b| {
        b.iter_with_setup(
            || {
                let mut dev = ConZone::new(DeviceConfig::paper_evaluation());
                dev.set_probe(Probe::disabled());
                dev
            },
            |dev| black_box(seq_burst(dev)),
        );
    });

    group.bench_function("seq_write_ring_sink", |b| {
        let sink = Arc::new(RingBufferSink::with_capacity(64 * 1024));
        b.iter_with_setup(
            || {
                let mut dev = ConZone::new(DeviceConfig::paper_evaluation());
                dev.set_probe(Probe::attached(sink.clone()));
                dev
            },
            |dev| black_box(seq_burst(dev)),
        );
    });
    group.finish();
}

fn bench_conflict_and_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("stress_paths");

    // The Fig. 6(b) conflict path: two zones fighting over one buffer.
    group.throughput(Throughput::Bytes(2 * 48 * 1024));
    group.bench_function("conflict_write_pair_48k", |b| {
        b.iter_with_setup(
            || {
                let mut dev = ConZone::new(DeviceConfig::paper_evaluation());
                // Prime both zones so the steady-state conflict cycle runs.
                let mut t = SimTime::ZERO;
                for &(zone, off) in &[(0u64, 0u64), (2, 0)] {
                    let req = IoRequest::write(zone * (16 << 20) + off, 48 * 1024);
                    t = dev.submit(t, &req).expect("prime").finished;
                }
                (dev, t, 48 * 1024u64)
            },
            |(mut dev, mut t, off)| {
                for &zone in &[0u64, 2] {
                    let req = IoRequest::write(zone * (16 << 20) + off, 48 * 1024);
                    t = dev.submit(t, &req).expect("conflict write").finished;
                }
                black_box(t)
            },
        );
    });

    // One full SLC GC pass (victim selection + migration + erase).
    group.bench_function("slc_gc_cycle", |b| {
        b.iter_with_setup(
            || {
                // Fill the SLC region with conflict churn so GC has work.
                let mut dev = ConZone::new(DeviceConfig::tiny_for_tests());
                let mut t = SimTime::ZERO;
                let zone = 1024 * 1024u64;
                'fill: for round in 0..128u64 {
                    for &z in &[0u64, 2] {
                        let off = z * zone + round * 4096;
                        if round * 4096 >= zone {
                            break 'fill;
                        }
                        let req = IoRequest::write(off, 4096);
                        t = dev.submit(t, &req).expect("fill").finished;
                    }
                }
                (dev, t)
            },
            |(mut dev, t)| {
                // Resets invalidate SLC data; the next allocation GCs.
                let c = dev.reset_zone(t, conzone_types::ZoneId(0)).expect("reset");
                black_box(c.finished)
            },
        );
    });

    // Legacy random-write path with device GC amortised in.
    group.throughput(Throughput::Bytes(4096));
    group.bench_function("legacy_rand_write_4k", |b| {
        let mut dev = conzone_legacy::LegacyDevice::new(DeviceConfig::tiny_for_tests());
        let cap = {
            use conzone_types::StorageDevice;
            dev.capacity_bytes()
        };
        let mut rng = conzone_sim::SimRng::new(3);
        let mut t = SimTime::ZERO;
        b.iter(|| {
            let off = rng.below(cap / 4096) * 4096;
            let req = IoRequest::write(off, 4096);
            t = dev.submit(t, &req).expect("write").finished;
            black_box(t)
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_l2p_cache, bench_mapping_table, bench_flash_timing, bench_device_paths,
        bench_probe_overhead, bench_conflict_and_gc
}
criterion_main!(benches);
