//! Golden L2P counters across every cache path.
//!
//! One seeded mixed workload — writes that fill zones so chunk and zone
//! aggregation fire, reads over everything written, host flushes and zone
//! resets — runs on a small geometry for every search strategy × maximum
//! aggregation level, and once on the Legacy baseline. The L2P counters and
//! the final simulated time must equal constants recorded before the cache
//! was rewritten, so any change in hit, miss, eviction or pinning behaviour
//! of the L2P cache (or the Legacy prefetching cache) shows up here.
//!
//! The cache holds 8 entries, so the pinned strategy keeps more aggregated
//! entries resident than fit: its chunk- and zone-aggregating runs go over
//! capacity (checked below), a path the benchmark never takes.

use conzone_core::ConZone;
use conzone_legacy::LegacyDevice;
use conzone_sim::SimRng;
use conzone_types::{
    Counters, DeviceConfig, Geometry, IoRequest, MapGranularity, SearchStrategy, SimTime,
    StorageDevice, ZoneId, ZonedDevice, SLICE_BYTES,
};

const STEPS: u64 = 3_000;
const SEED: u64 = 0x12c0_2025;

/// The counters this test pins, plus the final simulated time in ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    hits_zone: u64,
    hits_chunk: u64,
    hits_page: u64,
    misses: u64,
    evictions: u64,
    mapping_reads: u64,
    finished_ns: u64,
}

impl Golden {
    fn new(c: &Counters, finished: SimTime) -> Golden {
        Golden {
            hits_zone: c.l2p_hits_zone,
            hits_chunk: c.l2p_hits_chunk,
            hits_page: c.l2p_hits_page,
            misses: c.l2p_misses,
            evictions: c.l2p_evictions,
            mapping_reads: c.flash_mapping_reads,
            finished_ns: finished.as_nanos(),
        }
    }
}

fn config(l2p_entries: u64) -> conzone_types::DeviceConfigBuilder {
    DeviceConfig::builder(Geometry::tiny())
        .chunk_bytes(256 * 1024)
        .l2p_cache_bytes(4 * l2p_entries)
        .seed(7)
}

/// Runs the zoned workload; returns the golden figures and the largest
/// cache occupancy seen after any step.
fn run_zoned(dev: &mut ConZone) -> (Golden, f64) {
    let zs = dev.zone_size() / SLICE_BYTES;
    let nz = dev.zone_count() as u64;
    let mut wp = vec![0u64; nz as usize];
    let mut rng = SimRng::new(SEED);
    let mut t = SimTime::ZERO;
    let mut peak = 0.0f64;
    let mut recent: Vec<u64> = Vec::new();
    for step in 0..STEPS {
        let z = rng.below(nz);
        let zi = z as usize;
        let base = z * zs;
        let req = match rng.below(100) {
            // Sequential writes at the write pointer, 1..=32 slices.
            0..=44 => {
                let open = wp.iter().filter(|&&w| w > 0 && w < zs).count();
                if wp[zi] == zs || (wp[zi] == 0 && open >= 4) {
                    continue;
                }
                let n = (1 + rng.below(32)).min(zs - wp[zi]);
                let off = base + wp[zi];
                wp[zi] += n;
                IoRequest::write(off * SLICE_BYTES, n * SLICE_BYTES)
            }
            // Reads of 1..=8 slices anywhere below the write pointer.
            45..=79 => {
                if wp[zi] == 0 {
                    continue;
                }
                let off = rng.below(wp[zi]);
                let n = (1 + rng.below(8)).min(wp[zi] - off);
                recent.push(base + off);
                IoRequest::read((base + off) * SLICE_BYTES, n * SLICE_BYTES)
            }
            // Re-reads of a recently read slice, so page entries hit too.
            80..=91 => {
                let Some(&lpn) = recent.iter().rev().nth(rng.below(8) as usize) else {
                    continue;
                };
                if lpn / zs != z && rng.below(2) == 0 {
                    continue;
                }
                IoRequest::read(lpn * SLICE_BYTES, SLICE_BYTES)
            }
            92..=95 => {
                t = dev.flush(t).expect("flush").finished;
                continue;
            }
            // Resets recycle full zones, but only while most are full, so
            // many aggregated entries stay resident at once.
            _ => {
                let full = wp.iter().filter(|&&w| w == zs).count();
                if wp[zi] != zs || full < 10 {
                    continue;
                }
                wp[zi] = 0;
                recent.retain(|&l| l / zs != z);
                t = dev
                    .reset_zone(t, ZoneId(z))
                    .unwrap_or_else(|e| panic!("step {step}: reset {z}: {e}"))
                    .finished;
                continue;
            }
        };
        t = dev
            .submit(t, &req)
            .unwrap_or_else(|e| panic!("step {step}: {req:?}: {e}"))
            .finished;
        peak = peak.max(dev.l2p_cache().occupancy());
    }
    (Golden::new(&dev.counters(), t), peak)
}

/// Runs the flat workload on the Legacy baseline: random overwrites and
/// reads over the first 4 MiB.
fn run_flat(dev: &mut LegacyDevice) -> Golden {
    let region = 1024u64;
    let mut written = vec![false; region as usize];
    let mut rng = SimRng::new(SEED);
    let mut t = SimTime::ZERO;
    for step in 0..STEPS {
        let off = rng.below(region);
        let n = (1 + rng.below(16)).min(region - off);
        let req = match rng.below(100) {
            0..=39 => {
                written[off as usize..(off + n) as usize].fill(true);
                IoRequest::write(off * SLICE_BYTES, n * SLICE_BYTES)
            }
            40..=95 => {
                if !written[off as usize..(off + n) as usize].iter().all(|&w| w) {
                    continue;
                }
                IoRequest::read(off * SLICE_BYTES, n * SLICE_BYTES)
            }
            _ => {
                t = dev.flush(t).expect("flush").finished;
                continue;
            }
        };
        t = dev
            .submit(t, &req)
            .unwrap_or_else(|e| panic!("step {step}: {req:?}: {e}"))
            .finished;
    }
    Golden::new(&dev.counters(), t)
}

fn conzone_case(strategy: SearchStrategy, agg: MapGranularity) -> (Golden, f64) {
    let cfg = config(8)
        .search_strategy(strategy)
        .max_aggregation(agg)
        .build()
        .expect("golden config");
    run_zoned(&mut ConZone::new(cfg))
}

#[test]
fn conzone_l2p_counters_match_golden() {
    let mut failures = Vec::new();
    for (strategy, agg, want) in GOLDEN_CONZONE {
        let (got, peak) = conzone_case(strategy, agg);
        if got != want {
            failures.push(format!("{strategy}/{agg}: got {got:?}, want {want:?}"));
        }
        if strategy == SearchStrategy::Pinned && agg != MapGranularity::Page {
            assert!(
                peak > 1.0,
                "{strategy}/{agg}: pinned aggregates never overflowed the cache (peak {peak})"
            );
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn legacy_l2p_counters_match_golden() {
    let cfg = config(128).build().expect("legacy config");
    assert_eq!(run_flat(&mut LegacyDevice::new(cfg)), GOLDEN_LEGACY);
}

const fn g(
    hits_zone: u64,
    hits_chunk: u64,
    hits_page: u64,
    misses: u64,
    evictions: u64,
    mapping_reads: u64,
    finished_ns: u64,
) -> Golden {
    Golden {
        hits_zone,
        hits_chunk,
        hits_page,
        misses,
        evictions,
        mapping_reads,
        finished_ns,
    }
}

// Recorded with the previous cache (a `HashMap`-indexed pinned LRU whose
// victim search walked past pinned entries); do not re-record them to make
// a cache change pass.
const GOLDEN_CONZONE: [(SearchStrategy, MapGranularity, Golden); 9] = {
    use MapGranularity::{Chunk, Page, Zone};
    use SearchStrategy::{Bitmap, Multiple, Pinned};
    [
        (Bitmap, Page, g(0, 0, 79, 2941, 2931, 2941, 367_645_841)),
        (Bitmap, Chunk, g(0, 2128, 33, 859, 826, 859, 309_734_233)),
        (Bitmap, Zone, g(1742, 559, 34, 685, 640, 685, 303_753_892)),
        (Multiple, Page, g(0, 0, 79, 2941, 2931, 8823, 516_448_137)),
        (Multiple, Chunk, g(0, 2128, 33, 859, 826, 2084, 346_741_547)),
        (
            Multiple,
            Zone,
            g(1742, 559, 34, 685, 640, 1534, 325_583_578),
        ),
        (Pinned, Page, g(0, 0, 79, 2941, 2931, 2941, 367_645_841)),
        (Pinned, Chunk, g(0, 2626, 8, 386, 87, 386, 293_297_374)),
        (Pinned, Zone, g(1949, 677, 8, 386, 103, 386, 293_297_374)),
    ]
};

const GOLDEN_LEGACY: Golden = g(0, 0, 9858, 1319, 80049, 1319, 679_133_975);
