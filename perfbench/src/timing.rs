//! Outside-in timing: a transparent wrapper that times every call the host
//! layer makes into a device, a fixed-latency stub device that isolates the
//! host driver's own cost, and calibration of the clock read itself.

use std::hint::black_box;
use std::time::Instant;

use conzone_types::{
    Completion, Counters, DeviceConfig, DeviceError, IoKind, IoRequest, SimDuration, SimTime,
    StorageDevice, ZoneId, ZoneInfo, ZoneState, ZonedDevice, SLICE_BYTES,
};

/// The device entry points the ledger attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `submit` of a read.
    Read,
    /// `submit` of a write or zone append.
    Write,
    /// `flush`.
    Flush,
    /// `reset_zone`.
    Reset,
}

impl Call {
    /// Every call kind, in ledger order.
    pub const ALL: [Call; 4] = [Call::Read, Call::Write, Call::Flush, Call::Reset];

    fn index(self) -> usize {
        match self {
            Call::Read => 0,
            Call::Write => 1,
            Call::Flush => 2,
            Call::Reset => 3,
        }
    }
}

/// Calls made and raw nanoseconds measured per [`Call`] kind. The raw
/// intervals include one clock read each; [`CallTimes::device_ns`]
/// subtracts it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTimes {
    calls: [u64; 4],
    raw_ns: [u64; 4],
}

impl CallTimes {
    fn add(&mut self, call: Call, ns: u64) {
        self.calls[call.index()] += 1;
        self.raw_ns[call.index()] += ns;
    }

    /// Calls of one kind.
    pub fn calls(&self, call: Call) -> u64 {
        self.calls[call.index()]
    }

    /// Nanoseconds spent inside calls of one kind, less one calibrated
    /// clock read per call.
    pub fn device_ns(&self, call: Call, clock_ns: f64) -> f64 {
        let i = call.index();
        self.raw_ns[i] as f64 - self.calls[i] as f64 * clock_ns
    }
}

/// Read LPNs a [`Timed`] wrapper keeps for the FTL replay (8 MiB).
const LPN_CAP: usize = 1 << 20;

/// Completion latency of the [`StubDevice`].
const STUB_LATENCY: SimDuration = SimDuration::from_micros(20);

/// Wraps a device and times each `submit`, `flush` and `reset_zone` with
/// two clock reads. Every other method delegates untimed. Keeps the
/// logical page numbers of the first reads it forwards so the FTL
/// structures can be replayed on the same stream.
#[derive(Debug)]
pub struct Timed<D> {
    inner: D,
    times: CallTimes,
    read_lpns: Vec<u64>,
}

impl<D> Timed<D> {
    /// Wraps `inner`.
    pub fn new(inner: D) -> Timed<D> {
        Timed {
            inner,
            times: CallTimes::default(),
            read_lpns: Vec::with_capacity(LPN_CAP),
        }
    }

    /// Time measured so far.
    pub fn times(&self) -> CallTimes {
        self.times
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The recorded read LPN stream.
    pub fn read_lpns(&self) -> &[u64] {
        &self.read_lpns
    }

    fn timed<T>(&mut self, call: Call, f: impl FnOnce(&mut D) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        self.times.add(call, ns);
        out
    }
}

impl<D: StorageDevice> StorageDevice for Timed<D> {
    fn config(&self) -> &DeviceConfig {
        self.inner.config()
    }

    fn submit(&mut self, now: SimTime, request: &IoRequest) -> Result<Completion, DeviceError> {
        let call = match request.kind {
            IoKind::Read => Call::Read,
            IoKind::Write | IoKind::Append => Call::Write,
        };
        let out = self.timed(call, |d| d.submit(now, request));
        if call == Call::Read {
            let first = request.offset / SLICE_BYTES;
            let room = LPN_CAP - self.read_lpns.len();
            let n = (request.len / SLICE_BYTES).min(room as u64);
            self.read_lpns.extend(first..first + n);
        }
        out
    }

    fn flush(&mut self, now: SimTime) -> Result<Completion, DeviceError> {
        self.timed(Call::Flush, |d| d.flush(now))
    }

    fn counters(&self) -> Counters {
        self.inner.counters()
    }

    fn model_name(&self) -> &'static str {
        self.inner.model_name()
    }
}

impl<D: ZonedDevice> ZonedDevice for Timed<D> {
    fn zone_count(&self) -> usize {
        self.inner.zone_count()
    }

    fn zone_size(&self) -> u64 {
        self.inner.zone_size()
    }

    fn zone_info(&self, zone: ZoneId) -> Result<ZoneInfo, DeviceError> {
        self.inner.zone_info(zone)
    }

    fn reset_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        self.timed(Call::Reset, |d| d.reset_zone(now, zone))
    }

    fn open_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        self.inner.open_zone(now, zone)
    }

    fn close_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        self.inner.close_zone(now, zone)
    }

    fn finish_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        self.inner.finish_zone(now, zone)
    }
}

/// A zoned device that does no modelling: every command completes
/// [`STUB_LATENCY`] after submission. Write pointers and host counters are kept so
/// the workloads' own checks (and the queue-pair driver's per-tenant
/// attribution) run unchanged. Running a job against it leaves only the
/// host driver's cost.
#[derive(Debug)]
pub struct StubDevice {
    cfg: DeviceConfig,
    counters: Counters,
    write_pointers: Vec<u64>,
}

impl StubDevice {
    /// A stub with `cfg`'s geometry.
    pub fn new(cfg: DeviceConfig) -> StubDevice {
        let zones = cfg.zone_count();
        StubDevice {
            cfg,
            counters: Counters::default(),
            write_pointers: vec![0; zones],
        }
    }

    fn done(&self, now: SimTime) -> Completion {
        Completion {
            submitted: now,
            finished: now + STUB_LATENCY,
            data: None,
            assigned_offset: None,
        }
    }

    fn zone_index(&self, zone: ZoneId) -> Result<usize, DeviceError> {
        let i = zone.raw() as usize;
        if i < self.write_pointers.len() {
            Ok(i)
        } else {
            Err(DeviceError::OutOfRange {
                offset: zone.raw() * self.zone_size(),
                capacity: self.cfg.capacity_bytes(),
            })
        }
    }
}

impl StorageDevice for StubDevice {
    fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    fn submit(&mut self, now: SimTime, request: &IoRequest) -> Result<Completion, DeviceError> {
        request.validate()?;
        match request.kind {
            IoKind::Read => {
                self.counters.host_read_ops += 1;
                self.counters.host_read_bytes += request.len;
            }
            IoKind::Write | IoKind::Append => {
                self.counters.host_write_ops += 1;
                self.counters.host_write_bytes += request.len;
                let zone_bytes = self.zone_size();
                let i = self.zone_index(ZoneId(request.offset / zone_bytes))?;
                let end = request.offset % zone_bytes + request.len;
                self.write_pointers[i] = self.write_pointers[i].max(end);
            }
        }
        Ok(self.done(now))
    }

    fn flush(&mut self, now: SimTime) -> Result<Completion, DeviceError> {
        Ok(self.done(now))
    }

    fn counters(&self) -> Counters {
        self.counters
    }

    fn model_name(&self) -> &'static str {
        "stub"
    }
}

impl ZonedDevice for StubDevice {
    fn zone_count(&self) -> usize {
        self.write_pointers.len()
    }

    fn zone_size(&self) -> u64 {
        self.cfg.zone_size_bytes()
    }

    fn zone_info(&self, zone: ZoneId) -> Result<ZoneInfo, DeviceError> {
        let wp = self.write_pointers[self.zone_index(zone)?];
        let size = self.zone_size();
        let state = match wp {
            0 => ZoneState::Empty,
            _ if wp >= size => ZoneState::Full,
            _ => ZoneState::Open,
        };
        Ok(ZoneInfo {
            id: zone,
            state,
            write_pointer: wp,
            capacity: size,
            size,
            start: zone.raw() * size,
        })
    }

    fn reset_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        let i = self.zone_index(zone)?;
        self.write_pointers[i] = 0;
        Ok(self.done(now))
    }

    fn open_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        self.zone_index(zone)?;
        Ok(self.done(now))
    }

    fn close_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        self.zone_index(zone)?;
        Ok(self.done(now))
    }

    fn finish_zone(&mut self, now: SimTime, zone: ZoneId) -> Result<Completion, DeviceError> {
        let i = self.zone_index(zone)?;
        self.write_pointers[i] = self.zone_size();
        Ok(self.done(now))
    }
}

/// Nanoseconds one `Instant::now()` costs on this machine: the median of
/// several batches of back-to-back reads.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..READS {
                black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    crate::stats::median(&batches).expect("seven batches")
}

#[cfg(test)]
mod tests {
    use super::*;
    use conzone_core::ConZone;
    use conzone_host::{run_job, AccessPattern, FioJob, JobReport};

    fn same_report(a: &JobReport, b: &JobReport) -> bool {
        a.ops == b.ops
            && a.bytes == b.bytes
            && a.started == b.started
            && a.finished == b.finished
            && a.latency == b.latency
            && a.read_latency == b.read_latency
            && a.write_latency == b.write_latency
            && a.thread_latency == b.thread_latency
            && a.counters == b.counters
    }

    fn write_then_read(dev: &mut dyn ZonedDevice) -> (JobReport, JobReport) {
        let zone_bytes = dev.zone_size();
        let w = FioJob::new(AccessPattern::SeqWrite, 16 * 1024)
            .threads(2)
            .zone_bytes(zone_bytes)
            .region(0, 4 * zone_bytes)
            .bytes_per_thread(2 * zone_bytes)
            .fsync_every(4);
        let w = run_job(dev, &w).expect("write job");
        let r = FioJob::new(AccessPattern::RandRead, 4096)
            .region(0, 4 * zone_bytes)
            .ops_per_thread(2_000)
            .bytes_per_thread(u64::MAX)
            .seed(11)
            .start_at(w.finished);
        let r = run_job(dev, &r).expect("read job");
        (w, r)
    }

    #[test]
    fn wrapper_is_transparent() {
        let cfg = DeviceConfig::tiny_for_tests();
        let mut bare = ConZone::new(cfg.clone());
        let mut timed = Timed::new(ConZone::new(cfg));
        let (bw, br) = write_then_read(&mut bare);
        let (tw, tr) = write_then_read(&mut timed);
        assert!(same_report(&bw, &tw));
        assert!(same_report(&br, &tr));
        let t = timed.times();
        assert_eq!(t.calls(Call::Write), tw.ops);
        assert_eq!(t.calls(Call::Flush), tw.ops / 4);
        assert_eq!(t.calls(Call::Read), br.ops);
        assert_eq!(timed.read_lpns().len(), 2_000);
    }

    #[test]
    fn stub_completes_every_op() {
        let mut stub = StubDevice::new(DeviceConfig::tiny_for_tests());
        let (w, r) = write_then_read(&mut stub);
        let zone_bytes = stub.zone_size();
        assert_eq!(w.ops, 4 * zone_bytes / (16 * 1024));
        assert_eq!(r.ops, 2_000);
        for z in 0..4 {
            let info = stub.zone_info(ZoneId(z)).expect("zone in range");
            assert_eq!(info.write_pointer, zone_bytes);
            assert_eq!(info.state, ZoneState::Full);
        }
        stub.reset_zone(r.finished, ZoneId(0)).expect("reset");
        assert_eq!(stub.zone_info(ZoneId(0)).expect("zone").write_pointer, 0);
    }

    #[test]
    fn clock_cost_is_positive() {
        assert!(clock_read_ns() > 0.0);
    }
}
