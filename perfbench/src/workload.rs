//! The three workloads: device set-up, one measured round, and the checks
//! each round's outputs must pass. Every round is a fixed amount of
//! simulated work whose inputs derive from the run seed and the round
//! index, so a round's simulated results are exact for a given seed.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use conzone_core::{ArbiterKind, ConZone};
use conzone_host::{run_job, run_tenants, AccessPattern, FioJob, QdOptions, TenantSpec};
use conzone_sim::{export, LatencySummary, RingBufferSink, SimRng, SpanBuffer};
use conzone_types::{
    Counters, DeviceConfig, Geometry, MapGranularity, Probe, SimDuration, SimTime, SpanSink,
    ZoneId, ZonedDevice,
};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;
const GIB: u64 = 1024 * MIB;

/// syncwrite-gc: fio threads, request size, fsync cadence and the region
/// every pass covers.
const SYNC_THREADS: usize = 4;
const SYNC_BS: u64 = 16 * KIB;
const SYNC_FSYNC_EVERY: u64 = 4;
const SYNC_REGION: u64 = GIB;
/// Passes run during set-up so the SLC region is already cycling through
/// garbage collection when measurement starts.
const SYNC_WARMUP_PASSES: u64 = 3;

/// randread-page-1g: the preconditioned region, reads per round and the
/// L2P warm-up before measurement.
const READ_REGION: u64 = GIB;
const READ_OPS: u64 = 100_000;
const READ_WARMUP_OPS: u64 = 50_000;

/// flashcache-qd16-obs: reader and writer halves, reader depth and reads
/// per round, writer request size, fsync cadence and zones per round.
const CACHE_HALF: u64 = 512 * MIB;
const CACHE_QD: usize = 16;
const CACHE_READS: u64 = 40_000;
const CACHE_WRITE_BS: u64 = 64 * KIB;
const CACHE_FSYNC_EVERY: u64 = 8;
const CACHE_WRITER_ZONES: u64 = 16;
/// The queue-pair front end's per-command fetch cost.
const CACHE_FETCH_NS: u64 = 500;

/// Request size of the sequential fill that preconditions read regions.
const FILL_BS: u64 = 512 * KIB;

/// Capacity of the event ring (the `--trace-out` default) and of each span
/// buffer attached while observing.
const EVENT_RING: usize = 64 * 1024;
const SPAN_BUFFER: usize = 1 << 17;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four synchronous 16 KiB writers over a 1 GiB region, fsync every 4
    /// writes, zones reset after every pass.
    SyncWriteGc,
    /// QD1 uniform 4 KiB reads over 1 GiB with page-only mapping.
    RandReadPage1g,
    /// A QD16 hot reader beside an fsyncing sequential writer on the
    /// queue-pair driver, with the observability sinks attached.
    FlashCacheQd16Obs,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SyncWriteGc,
        Workload::RandReadPage1g,
        Workload::FlashCacheQd16Obs,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SyncWriteGc => "syncwrite-gc",
            Workload::RandReadPage1g => "randread-page-1g",
            Workload::FlashCacheQd16Obs => "flashcache-qd16-obs",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The paper's §IV-A configuration with this workload's mapping cap.
    pub fn config(self) -> DeviceConfig {
        let cap = match self {
            Workload::RandReadPage1g => MapGranularity::Page,
            Workload::SyncWriteGc | Workload::FlashCacheQd16Obs => MapGranularity::Zone,
        };
        DeviceConfig::builder(Geometry::consumer_1p5gb())
            .max_aggregation(cap)
            .build()
            .expect("the paper configuration is valid")
    }

    /// Whether the observability sinks are part of the measured workload.
    pub fn observed(self) -> bool {
        self == Workload::FlashCacheQd16Obs
    }

    /// Host I/O commands one round issues.
    pub fn ops_per_round(self, zone_bytes: u64) -> u64 {
        match self {
            Workload::SyncWriteGc => SYNC_REGION / SYNC_BS,
            Workload::RandReadPage1g => READ_OPS,
            Workload::FlashCacheQd16Obs => {
                CACHE_READS + CACHE_WRITER_ZONES * zone_bytes / CACHE_WRITE_BS
            }
        }
    }

    /// Queue-pair options for this workload's rounds, with `obs`'s sinks
    /// on the host side when given.
    pub fn qd_options(self, obs: Option<&Obs>) -> QdOptions {
        QdOptions {
            fetch_cost: SimDuration::from_nanos(CACHE_FETCH_NS),
            arbiter: ArbiterKind::RoundRobin,
            probe: obs.map_or_else(Probe::disabled, |o| Probe::attached(o.events.clone())),
            spans: obs.map(|o| o.host_spans.clone() as Arc<dyn SpanSink + Send + Sync>),
        }
    }
}

/// A well-mixed 64-bit hash (splitmix64's finaliser).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of stream `stream` under `seed`: rounds, warm-up passes and
/// tenants each get their own, all reproducible from the one run seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream))
}

/// Stream index of warm-up pass `i` (disjoint from every round index).
fn warmup_stream(i: u64) -> u64 {
    (1 << 63) | i
}

/// What one round produced on the simulated clock. Two runs of the same
/// seed must produce equal values round by round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Host commands completed.
    pub ops: u64,
    /// Host bytes moved.
    pub bytes: u64,
    /// First submission.
    pub started: SimTime,
    /// Last completion.
    pub finished: SimTime,
    /// Median command latency.
    pub p50: SimDuration,
    /// 99.9th-percentile command latency.
    pub p999: SimDuration,
    /// Device counter deltas over the round, its zone resets included.
    pub counters: Counters,
}

impl SimResult {
    /// A job's figures; the counters are filled in once the round is over.
    fn new(
        ops: u64,
        bytes: u64,
        started: SimTime,
        finished: SimTime,
        latency: &LatencySummary,
    ) -> SimResult {
        SimResult {
            ops,
            bytes,
            started,
            finished,
            p50: latency.p50,
            p999: latency.p999,
            counters: Counters::default(),
        }
    }
}

/// One completed round.
#[derive(Debug, Clone)]
pub struct Round {
    /// Simulated results.
    pub sim: SimResult,
    /// Simulated time after the round's zone resets.
    pub finished: SimTime,
    /// Wall nanoseconds spent inside the job driver (`run_job` or
    /// `run_tenants`), excluding the benchmark's own resets and checks.
    pub job_ns: u64,
    /// Output checks that failed: zones whose write pointer differs from
    /// what was written, inconsistent per-tenant counters, short runs.
    pub bad_checks: u64,
}

/// Runs round `round` of `w` at simulated time `now`.
///
/// # Errors
///
/// A device error inside the round, as text.
pub fn run_round<D: ZonedDevice + ?Sized>(
    w: Workload,
    dev: &mut D,
    seed: u64,
    round: u64,
    now: SimTime,
    qd: &QdOptions,
) -> Result<Round, String> {
    let zone_bytes = dev.zone_size();
    let rseed = derive(seed, round);
    let mut bad_checks = 0;
    let before = dev.counters();
    let t0 = Instant::now();
    let (mut sim, written) = match w {
        Workload::SyncWriteGc => {
            let zones = SYNC_REGION / zone_bytes;
            let mut order: Vec<u64> = (0..zones).collect();
            SimRng::new(rseed).shuffle(&mut order);
            let per_thread = order.len() / SYNC_THREADS;
            let thread_zones: Vec<Vec<u64>> =
                order.chunks(per_thread).map(<[u64]>::to_vec).collect();
            let job = FioJob::new(AccessPattern::SeqWrite, SYNC_BS)
                .threads(SYNC_THREADS)
                .zone_bytes(zone_bytes)
                .region(0, SYNC_REGION)
                .bytes_per_thread(per_thread as u64 * zone_bytes)
                .fsync_every(SYNC_FSYNC_EVERY)
                .with_thread_zones(thread_zones)
                .start_at(now);
            let r = run_job(dev, &job).map_err(|e| e.to_string())?;
            (
                SimResult::new(r.ops, r.bytes, r.started, r.finished, &r.latency),
                order,
            )
        }
        Workload::RandReadPage1g => {
            let job = FioJob::new(AccessPattern::RandRead, 4 * KIB)
                .region(0, READ_REGION)
                .ops_per_thread(READ_OPS)
                .bytes_per_thread(u64::MAX)
                .seed(rseed)
                .start_at(now);
            let r = run_job(dev, &job).map_err(|e| e.to_string())?;
            (
                SimResult::new(r.ops, r.bytes, r.started, r.finished, &r.latency),
                Vec::new(),
            )
        }
        Workload::FlashCacheQd16Obs => {
            let first = CACHE_HALF / zone_bytes;
            let mut order: Vec<u64> = (first..2 * first).collect();
            SimRng::new(derive(rseed, 1)).shuffle(&mut order);
            order.truncate(CACHE_WRITER_ZONES as usize);
            let reader = FioJob::new(AccessPattern::RandRead, 4 * KIB)
                .region(0, CACHE_HALF)
                .ops_per_thread(CACHE_READS)
                .bytes_per_thread(u64::MAX)
                .queue_depth(CACHE_QD)
                .seed(derive(rseed, 0))
                .start_at(now);
            let writer = FioJob::new(AccessPattern::SeqWrite, CACHE_WRITE_BS)
                .zone_bytes(zone_bytes)
                .region(CACHE_HALF, CACHE_HALF)
                .bytes_per_thread(CACHE_WRITER_ZONES * zone_bytes)
                .fsync_every(CACHE_FSYNC_EVERY)
                .with_thread_zones(vec![order.clone()])
                .start_at(now);
            let specs = [
                TenantSpec::new("hot-reads", reader),
                TenantSpec::new("writeback", writer),
            ];
            let m = run_tenants(dev, &specs, qd).map_err(|e| e.to_string())?;
            if !m.tenants_sum_consistent() {
                bad_checks += 1;
            }
            (
                SimResult::new(m.ops, m.bytes, m.started, m.finished, &m.latency),
                order,
            )
        }
    };
    let job_ns = t0.elapsed().as_nanos() as u64;
    if sim.ops != w.ops_per_round(zone_bytes) {
        bad_checks += 1;
    }
    // Every zone the round wrote must be exactly full, then goes back to
    // empty for the next round. The round's counters include the resets.
    let mut t = sim.finished;
    for &z in &written {
        let info = dev.zone_info(ZoneId(z)).map_err(|e| e.to_string())?;
        if info.write_pointer != zone_bytes {
            bad_checks += 1;
        }
        t = dev
            .reset_zone(t, ZoneId(z))
            .map_err(|e| e.to_string())?
            .finished;
    }
    sim.counters = dev.counters().since(&before);
    Ok(Round {
        sim,
        finished: t,
        job_ns,
        bad_checks,
    })
}

/// A constructed, preconditioned and warmed-up device.
#[derive(Debug)]
pub struct Setup {
    /// The device, ready for round 0.
    pub dev: ConZone,
    /// Simulated time at which round 0 starts.
    pub now: SimTime,
    /// What set-up cost.
    pub times: SetupTimes,
}

/// Wall time and memory one set-up took, and the state it reached.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Wall seconds of `ConZone::new`.
    pub construct_s: f64,
    /// Wall seconds of preconditioning and warm-up.
    pub precondition_s: f64,
    /// Peak resident set right after construction, in MiB.
    pub construct_rss_mb: f64,
    /// Device counters at the end of set-up (equal across set-ups of one
    /// seed).
    pub counters: Counters,
}

/// Builds `w`'s device and brings it to the state round 0 starts from.
///
/// # Errors
///
/// A device error during preconditioning, as text.
pub fn setup(w: Workload, seed: u64) -> Result<Setup, String> {
    let t0 = Instant::now();
    let mut dev = ConZone::new(w.config());
    let construct_s = t0.elapsed().as_secs_f64();
    let construct_rss_mb = crate::peak_rss_mb();
    let t1 = Instant::now();
    let zone_bytes = dev.zone_size();
    let fill = |dev: &mut ConZone, bytes: u64| {
        let job = FioJob::new(AccessPattern::SeqWrite, FILL_BS)
            .zone_bytes(zone_bytes)
            .region(0, bytes)
            .bytes_per_thread(bytes);
        run_job(dev, &job)
            .map(|r| r.finished)
            .map_err(|e| e.to_string())
    };
    let mut now = SimTime::ZERO;
    match w {
        Workload::SyncWriteGc => {
            let qd = w.qd_options(None);
            for i in 0..SYNC_WARMUP_PASSES {
                now = run_round(w, &mut dev, seed, warmup_stream(i), now, &qd)?.finished;
            }
        }
        Workload::RandReadPage1g => {
            now = fill(&mut dev, READ_REGION)?;
            let warm = FioJob::new(AccessPattern::RandRead, 4 * KIB)
                .region(0, READ_REGION)
                .ops_per_thread(READ_WARMUP_OPS)
                .bytes_per_thread(u64::MAX)
                .seed(derive(seed, warmup_stream(0)))
                .start_at(now);
            now = run_job(&mut dev, &warm)
                .map_err(|e| e.to_string())?
                .finished;
        }
        Workload::FlashCacheQd16Obs => {
            now = fill(&mut dev, CACHE_HALF)?;
            let qd = w.qd_options(None);
            now = run_round(w, &mut dev, seed, warmup_stream(0), now, &qd)?.finished;
        }
    }
    let precondition_s = t1.elapsed().as_secs_f64();
    let counters = conzone_types::StorageDevice::counters(&dev);
    Ok(Setup {
        dev,
        now,
        times: SetupTimes {
            construct_s,
            precondition_s,
            construct_rss_mb,
            counters,
        },
    })
}

/// The sinks `conzone run --trace-out … --span-out …` attaches: one event
/// ring shared by the device and the queue-pair driver, and one span buffer
/// each.
#[derive(Debug)]
pub struct Obs {
    events: Arc<RingBufferSink>,
    dev_spans: Arc<SpanBuffer>,
    host_spans: Arc<SpanBuffer>,
}

/// Records the sinks accepted and dropped.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsCounts {
    /// Events emitted.
    pub events: u64,
    /// Spans emitted (device and host).
    pub spans: u64,
    /// Events and spans not kept because a sink was full.
    pub dropped: u64,
}

/// One drain-and-serialise of the sinks.
#[derive(Debug, Clone, Copy)]
pub struct Export {
    /// Records serialised.
    pub records: u64,
    /// Wall seconds of the drain and the serialisation.
    pub seconds: f64,
}

impl Obs {
    /// Fresh, empty sinks.
    pub fn new() -> Obs {
        Obs {
            events: Arc::new(RingBufferSink::with_capacity(EVENT_RING)),
            dev_spans: Arc::new(SpanBuffer::with_capacity(SPAN_BUFFER)),
            host_spans: Arc::new(SpanBuffer::with_capacity(SPAN_BUFFER)),
        }
    }

    /// Attaches the device-side probe and span sink.
    pub fn attach(&self, dev: &mut ConZone) {
        dev.set_probe(Probe::attached(self.events.clone()));
        dev.set_span_sink(self.dev_spans.clone());
    }

    /// Detaches the device-side probe and span sink.
    pub fn detach(dev: &mut ConZone) {
        dev.set_probe(Probe::disabled());
        dev.clear_span_sink();
    }

    /// What the sinks have seen so far.
    pub fn counts(&self) -> ObsCounts {
        ObsCounts {
            events: self.events.recorded(),
            spans: self.dev_spans.recorded() + self.host_spans.recorded(),
            dropped: self.events.dropped() + self.dev_spans.dropped() + self.host_spans.dropped(),
        }
    }

    /// Drains the sinks and serialises them with `conzone_sim::export`:
    /// events as a Chrome trace, spans as JSON lines.
    pub fn export(&self) -> Export {
        let t0 = Instant::now();
        let events = self.events.drain();
        let dev_spans = self.dev_spans.drain();
        let host_spans = self.host_spans.drain();
        let bytes = export::chrome_trace(&events).to_string().len()
            + export::span_jsonl(&dev_spans).len()
            + export::span_jsonl(&host_spans).len();
        black_box(bytes);
        Export {
            records: (events.len() + dev_spans.len() + host_spans.len()) as u64,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        assert_eq!(derive(7, 0), derive(7, 0));
        assert_ne!(derive(7, 0), derive(7, 1));
        assert_ne!(derive(7, 0), derive(8, 0));
        assert_ne!(derive(7, 0), derive(7, warmup_stream(0)));
    }
}
