//! The traced run: a per-layer ledger of where one workload's wall time
//! goes, measured from outside the program.
//!
//! The run has five parts, all on the same seed:
//!
//! 1. an untraced pass — the reference for simulated results, the
//!    untraced speed and the exact `Counters` ratios;
//! 2. an observability pair — rounds alternately with and without the
//!    event and span sinks, whose wall difference is the sinks' cost;
//! 3. a traced pass on a fresh device wrapped in [`Timed`], which splits
//!    wall time into the host driver, each device entry point and an
//!    unattributed rest, and records the read LPN stream;
//! 4. the same rounds against a [`StubDevice`], which leaves only the host
//!    driver's cost;
//! 5. the recorded LPN stream replayed on a standalone `L2pCache` and
//!    `MappingTable` sized from the configuration.
//!
//! The ledger identity holds by construction:
//! `host.self + core + unattributed = trace.wall`, all per op.

use std::hint::black_box;
use std::time::Instant;

use conzone_core::ConZone;
use conzone_ftl::{pins_aggregates, L2pCache, LookupResult, MappingTable};
use conzone_types::{Counters, Lpn, MapGranularity, StorageDevice};

use crate::stats::{median, per_op};
use crate::timing::{clock_read_ns, Call, StubDevice, Timed};
use crate::workload::{Obs, SimResult, Workload};
use crate::{
    check_same, measure, measure_and_export, set_up, setup_median, Cursor, Outcome, Phase,
    Reference, RunArgs,
};

/// Shares of `--seconds` given to the untraced pass, the observability
/// pair, the traced pass and the stub pass.
const UNTRACED_SHARE: f64 = 0.3;
const PAIR_SHARE: f64 = 0.3;
const TRACED_SHARE: f64 = 0.3;
const STUB_SHARE: f64 = 0.1;
/// Replays of the read LPN stream per FTL structure.
const REPLAYS: usize = 5;

const GIB: f64 = (1u64 << 30) as f64;

/// Runs the traced run of `args.workload` and reports the ledger.
pub fn traced(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let w = args.workload;
    let seed = args.seed;
    let clock_ns = clock_read_ns();

    let mut times = Vec::with_capacity(2);

    // 1. Untraced pass, then the export of whatever the sinks caught.
    let Some(mut s) = set_up(w, seed, &mut times, &mut out) else {
        return out;
    };
    let (bare, capture, counts, export) =
        measure_and_export(w, &mut s, seed, args.seconds * UNTRACED_SHARE);
    out.absorb(&bare);
    if let Some(c) = &capture {
        out.absorb(c);
    }
    let observed = capture.as_ref().unwrap_or(&bare);
    let reference: Vec<SimResult> = bare.rounds.iter().map(|r| r.sim.clone()).collect();

    // 2. Observability pair on the same device.
    let (pair, obs_ns_per_op) = obs_pair(w, &mut s.dev, seed, observed, args.seconds * PAIR_SHARE);
    out.absorb(&pair);
    drop(s);

    // 3. Traced pass from a fresh set-up of the same seed.
    let Some(fresh) = set_up(w, seed, &mut times, &mut out) else {
        return out;
    };
    let from = Cursor::start(&fresh);
    let mut dev = fresh.dev;
    let traced_obs = Obs::new();
    if w.observed() {
        traced_obs.attach(&mut dev);
    }
    let mut timed = Timed::new(dev);
    let traced = measure(
        w,
        &mut timed,
        seed,
        from,
        &w.qd_options(w.observed().then_some(&traced_obs)),
        args.seconds * TRACED_SHARE,
        1,
    );
    out.absorb(&traced);
    check_same(&reference, &traced, "traced pass", &mut out);

    // 4. The host driver alone, against the stub.
    let mut stub = StubDevice::new(w.config());
    let stub_obs = Obs::new();
    let stubbed = measure(
        w,
        &mut stub,
        seed,
        Cursor::default(),
        &w.qd_options(w.observed().then_some(&stub_obs)),
        args.seconds * STUB_SHARE,
        1,
    );
    out.absorb(&stubbed);

    // 5. FTL replay of the traced pass's read stream.
    let (cache_ns, table_ns) = replay_ftl(timed.inner(), timed.read_lpns());

    // The ledger.
    let ops = traced.ops();
    let t = timed.times();
    let inner = [Call::Read, Call::Write, Call::Flush];
    let inner_calls: u64 = inner.iter().map(|&c| t.calls(c)).sum();
    let inner_raw: f64 = inner.iter().map(|&c| t.device_ns(c, 0.0)).sum::<f64>();
    let host_self = traced.job_ns() as f64 - inner_raw - inner_calls as f64 * clock_ns;
    let core: f64 = Call::ALL.iter().map(|&c| t.device_ns(c, clock_ns)).sum();
    let wall = traced.wall_ns() as f64;
    let per_call = |c: Call| per_op(t.device_ns(c, clock_ns), t.calls(c));

    out.metric("host.self_ns_per_op", per_op(host_self, ops), "ns/op");
    out.metric(
        "host.stub_ns_per_op",
        per_op(stubbed.job_ns() as f64, stubbed.ops()),
        "ns/op",
    );
    out.metric("core.read_ns_per_call", per_call(Call::Read), "ns/call");
    out.metric("core.write_ns_per_call", per_call(Call::Write), "ns/call");
    out.metric("core.flush_ns_per_call", per_call(Call::Flush), "ns/call");
    out.metric("core.reset_ns_per_call", per_call(Call::Reset), "ns/call");
    out.metric("core.ns_per_op", per_op(core, ops), "ns/op");
    out.metric(
        "unattributed_ns_per_op",
        per_op(wall - host_self - core, ops),
        "ns/op",
    );
    out.metric("trace.wall_ns_per_op", per_op(wall, ops), "ns/op");
    out.metric("trace.clock_ns", clock_ns, "ns");
    out.metric(
        "trace.overhead_pct",
        (bare.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0,
        "%",
    );

    out.metric("ftl.cache_ns_per_lookup", cache_ns, "ns/lookup");
    out.metric("ftl.table_ns_per_get", table_ns, "ns/get");
    if let Some(r) = Reference::of(&reference) {
        counter_metrics(&mut out, &r.counters, r.ops);
    }

    out.metric("obs.ns_per_op", obs_ns_per_op, "ns/op");
    let observed_ops = observed.ops();
    out.metric(
        "obs.events_per_op",
        per_op(counts.events as f64, observed_ops),
        "1/op",
    );
    out.metric(
        "obs.spans_per_op",
        per_op(counts.spans as f64, observed_ops),
        "1/op",
    );
    out.metric(
        "obs.dropped_share",
        per_op(counts.dropped as f64, counts.events + counts.spans),
        "ratio",
    );
    out.metric(
        "obs.export_ns_per_record",
        per_op(export.seconds * 1e9, export.records),
        "ns/record",
    );

    out.metric(
        "setup.construct_s",
        setup_median(&times, |t| t.construct_s),
        "s",
    );
    out.metric(
        "setup.precondition_s",
        setup_median(&times, |t| t.precondition_s),
        "s",
    );
    out.metric("mem.construct_rss_mb", times[0].construct_rss_mb, "MiB");
    out
}

/// The exact per-op ratios of the reference round's device counters.
fn counter_metrics(out: &mut Outcome, c: &Counters, ops: u64) {
    let lookups = c.l2p_hits() + c.l2p_misses;
    out.metric(
        "ftl.l2p_miss_ratio",
        per_op(c.l2p_misses as f64, lookups),
        "ratio",
    );
    let rate = |n: u64| per_op(n as f64, ops);
    out.metric(
        "ftl.mapping_reads_per_op",
        rate(c.flash_mapping_reads),
        "1/op",
    );
    out.metric(
        "core.premature_flushes_per_op",
        rate(c.premature_flushes),
        "1/op",
    );
    out.metric(
        "core.buffer_conflicts_per_op",
        rate(c.buffer_conflicts),
        "1/op",
    );
    out.metric(
        "core.gc_migrated_slices_per_op",
        rate(c.gc_migrated_slices),
        "1/op",
    );
    out.metric("flash.data_reads_per_op", rate(c.flash_data_reads), "1/op");
    let gib_written = c.host_write_bytes as f64 / GIB;
    let erases = (c.erases_slc + c.erases_normal) as f64;
    out.metric(
        "flash.erases_per_gib",
        if gib_written > 0.0 {
            erases / gib_written
        } else {
            0.0
        },
        "1/GiB",
    );
}

/// Rounds after `after`, alternately with fresh sinks attached (device and
/// queue-pair driver) and with none; returns the rounds and the median
/// ns/op difference, attached minus detached.
fn obs_pair(
    w: Workload,
    dev: &mut ConZone,
    seed: u64,
    after: &Phase,
    seconds: f64,
) -> (Phase, f64) {
    let mut all = Phase {
        end: after.end,
        ..Phase::default()
    };
    let mut on = Vec::new();
    let mut off = Vec::new();
    let start = Instant::now();
    while on.is_empty() || off.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let attach = on.len() <= off.len();
        let obs = Obs::new();
        if attach {
            obs.attach(dev);
        } else {
            Obs::detach(dev);
        }
        let qd = w.qd_options(attach.then_some(&obs));
        let one = measure(w, dev, seed, all.end, &qd, 0.0, 1);
        if let (Some(r), Some(&ns)) = (one.rounds.first(), one.walls_ns.first()) {
            let ns_per_op = per_op(ns as f64, r.sim.ops);
            if attach {
                on.push(ns_per_op);
            } else {
                off.push(ns_per_op);
            }
        }
        all.attempted += one.attempted;
        all.failed += one.failed;
        all.end = one.end;
        all.rounds.extend(one.rounds);
        all.walls_ns.extend(one.walls_ns);
        if one.error.is_some() {
            all.error = one.error;
            break;
        }
    }
    Obs::detach(dev);
    let diff = match (median(&on), median(&off)) {
        (Some(a), Some(b)) => a - b,
        _ => 0.0,
    };
    (all, diff)
}

/// Replays `lpns` through a standalone L2P cache (lookups, and inserts on
/// misses) and through a copy of `dev`'s mapping table (gets), returning
/// the median ns per lookup and per get; `(0, 0)` with no reads.
fn replay_ftl(dev: &ConZone, lpns: &[u64]) -> (f64, f64) {
    if lpns.is_empty() {
        return (0.0, 0.0);
    }
    let cfg = dev.config();
    let (chunk, zone) = (cfg.chunk_slices(), cfg.zone_size_slices());
    let src = dev.mapping_table();
    let mut table = MappingTable::new(cfg.capacity_slices(), chunk, zone);
    for (lpn, e) in src.iter_mapped() {
        table.set(lpn, e.ppa, e.canonical);
    }
    for (lpn, e) in src.iter_mapped() {
        match e.granularity {
            MapGranularity::Zone => table.try_aggregate_zone(lpn),
            MapGranularity::Chunk => table.try_aggregate_chunk(lpn),
            MapGranularity::Page => true,
        };
    }
    let granularity: Vec<MapGranularity> = lpns
        .iter()
        .map(|&l| table.granularity_of(Lpn(l)).unwrap_or(MapGranularity::Page))
        .collect();
    let pinned = pins_aggregates(cfg.search_strategy);
    let n = lpns.len() as f64;
    let cache_runs: Vec<f64> = (0..REPLAYS)
        .map(|_| {
            let mut cache = L2pCache::new(cfg.l2p_cache_entries(), chunk, zone);
            let t = Instant::now();
            for (&l, &g) in lpns.iter().zip(&granularity) {
                if cache.lookup(Lpn(l)) == LookupResult::Miss {
                    black_box(cache.insert(Lpn(l), g, pinned && g > MapGranularity::Page));
                }
            }
            t.elapsed().as_nanos() as f64 / n
        })
        .collect();
    let table_runs: Vec<f64> = (0..REPLAYS)
        .map(|_| {
            let t = Instant::now();
            for &l in lpns {
                black_box(table.get(Lpn(black_box(l))));
            }
            t.elapsed().as_nanos() as f64 / n
        })
        .collect();
    (
        median(&cache_runs).unwrap_or(0.0),
        median(&table_runs).unwrap_or(0.0),
    )
}
