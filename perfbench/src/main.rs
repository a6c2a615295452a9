//! `conzone-perfbench`: the emulator's wall speed and simulated results on
//! three workloads, plus a per-layer ledger from a separate traced run.
//! See `README.md` in this directory for the metric → layer → workload map.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload syncwrite-gc --seed 7 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     compare A.jsonl B.jsonl
//! ```
//!
//! A run prints one JSON object as its last line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the ledger.

mod compare;
mod ledger;
mod stats;
mod timing;
mod workload;

use std::time::Instant;

use conzone_host::QdOptions;
use conzone_sim::json::Json;
use conzone_types::{Counters, SimTime};

use crate::stats::median;
use crate::workload::{
    run_round, setup, Export, Obs, ObsCounts, Round, Setup, SetupTimes, SimResult, Workload,
};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 7;
/// Rounds of a run's first set-up that the end-to-end simulated figures
/// summarise; every set-up measures at least this many.
const REFERENCE_ROUNDS: usize = 8;
/// Independent set-ups per untraced run; each measures an equal share of
/// the run's time, and `setup_s` and `export_s` are medians over them.
const EPOCHS: usize = 10;

/// Parsed command line of a run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set (VmHWM) of this process in MiB; 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A run's verdict and metrics, printed as the last line.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    problems: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name, value, unit));
        } else {
            self.problem(format!("{name} is not a number ({value})"));
            self.metrics.push((name, 0.0, unit));
        }
    }

    fn problem(&mut self, what: String) {
        eprintln!("perfbench: {what}");
        self.problems += 1;
    }

    /// Adds a phase's op accounting.
    fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        if let Some(e) = &phase.error {
            self.problem(format!("device error: {e}"));
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems == 0 && self.attempted > 0
    }

    fn json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::F64(value)), ("unit", Json::from(unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted.max(1))),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Where the next round starts: its index and its simulated start time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cursor {
    round: u64,
    now: SimTime,
}

impl Cursor {
    /// Round 0 of a fresh set-up.
    fn start(s: &Setup) -> Cursor {
        Cursor {
            round: 0,
            now: s.now,
        }
    }
}

/// Rounds run back to back, with their wall times and op accounting.
#[derive(Debug, Default)]
pub struct Phase {
    rounds: Vec<Round>,
    walls_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    error: Option<String>,
    end: Cursor,
}

impl Phase {
    /// Host commands per wall-second of each round.
    fn rates(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .zip(&self.walls_ns)
            .map(|(r, &ns)| r.sim.ops as f64 * 1e9 / ns as f64)
            .collect()
    }

    /// Median over rounds of host commands per wall-second.
    fn ops_per_s(&self) -> f64 {
        median(&self.rates()).unwrap_or(0.0)
    }

    fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.sim.ops).sum()
    }

    fn wall_ns(&self) -> u64 {
        self.walls_ns.iter().sum()
    }

    fn job_ns(&self) -> u64 {
        self.rounds.iter().map(|r| r.job_ns).sum()
    }
}

/// Runs rounds of `w` from `from` until at least `min_rounds` rounds
/// and `seconds` of wall time are done. A device error ends the phase and
/// counts the round's commands as failed; so does a failed output check.
pub fn measure<D: conzone_types::ZonedDevice + ?Sized>(
    w: Workload,
    dev: &mut D,
    seed: u64,
    from: Cursor,
    qd: &QdOptions,
    seconds: f64,
    min_rounds: usize,
) -> Phase {
    let mut phase = Phase {
        end: from,
        ..Phase::default()
    };
    let per_round = w.ops_per_round(dev.zone_size());
    let start = Instant::now();
    while phase.rounds.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let round = run_round(w, dev, seed, phase.end.round, phase.end.now, qd);
        let ns = t0.elapsed().as_nanos() as u64;
        phase.attempted += per_round;
        phase.end.round += 1;
        match round {
            Ok(r) => {
                if r.bad_checks > 0 {
                    phase.failed += r.sim.ops.max(1);
                }
                phase.end.now = r.finished;
                phase.walls_ns.push(ns);
                phase.rounds.push(r);
            }
            Err(e) => {
                phase.failed += per_round;
                phase.error = Some(e);
                break;
            }
        }
    }
    phase
}

/// Builds `w`'s device once more, recording the set-up's cost in
/// `times`. Set-up is deterministic: every set-up of one seed must reach
/// the same device counters as the first.
fn set_up(w: Workload, seed: u64, times: &mut Vec<SetupTimes>, out: &mut Outcome) -> Option<Setup> {
    match setup(w, seed) {
        Ok(s) => {
            if times
                .first()
                .is_some_and(|t| t.counters != s.times.counters)
            {
                out.problem("set-ups of one seed reached different device states".to_string());
            }
            times.push(s.times);
            Some(s)
        }
        Err(e) => {
            out.problem(format!("set-up failed: {e}"));
            None
        }
    }
}

/// Median of `f` over set-ups.
fn setup_median(times: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Counts every round of `phase` whose simulated results differ from the
/// same round of `reference` as failed; `what` names the second pass.
fn check_same(reference: &[SimResult], phase: &Phase, what: &str, out: &mut Outcome) {
    for (i, (a, b)) in reference.iter().zip(&phase.rounds).enumerate() {
        if *a != b.sim {
            out.failed += b.sim.ops;
            out.problem(format!("round {i}: simulated results differ in the {what}"));
        }
    }
}

/// The simulated figures of a run: its first `REFERENCE_ROUNDS` rounds.
#[derive(Debug, Clone)]
struct Reference {
    ops: u64,
    kiops: f64,
    p50_us: f64,
    p999_us: f64,
    counters: Counters,
}

impl Reference {
    /// Throughput and counters over the rounds together; latency
    /// percentiles as the median of the rounds' own.
    fn of(rounds: &[SimResult]) -> Option<Reference> {
        let rounds = &rounds[..rounds.len().min(REFERENCE_ROUNDS)];
        if rounds.is_empty() {
            return None;
        }
        let ops: u64 = rounds.iter().map(|r| r.ops).sum();
        let sim_ns: u64 = rounds
            .iter()
            .map(|r| (r.finished - r.started).as_nanos())
            .sum();
        let mut counters = Counters::default();
        for r in rounds {
            counters.merge(&r.counters);
        }
        let us = |f: fn(&SimResult) -> u64| {
            median(&rounds.iter().map(|r| f(r) as f64 / 1e3).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        Some(Reference {
            ops,
            kiops: ops as f64 * 1e6 / sim_ns as f64,
            p50_us: us(|r| r.p50.as_nanos()),
            p999_us: us(|r| r.p999.as_nanos()),
            counters,
        })
    }
}

/// Flash bytes programmed per host byte written: over the reference rounds
/// when they write, otherwise over set-up (the read-only workload's fill).
fn waf(reference: &Counters, setup: &Counters) -> f64 {
    if reference.host_write_bytes > 0 {
        reference.write_amplification()
    } else {
        setup.write_amplification()
    }
}

/// Runs the measured rounds of one set-up for `seconds`, then drains and
/// exports the observability sinks. A workload measured with the sinks
/// attached exports what they caught; the others observe one more round
/// with fresh sinks — the way `conzone run --trace-out/--span-out` would —
/// and export that. Returns the measured phase, the capture round (if
/// any), the sinks' counts and the export.
fn measure_and_export(
    w: Workload,
    s: &mut Setup,
    seed: u64,
    seconds: f64,
) -> (Phase, Option<Phase>, ObsCounts, Export) {
    let obs = Obs::new();
    let from = Cursor::start(s);
    if w.observed() {
        obs.attach(&mut s.dev);
        let qd = w.qd_options(Some(&obs));
        let phase = measure(w, &mut s.dev, seed, from, &qd, seconds, REFERENCE_ROUNDS);
        Obs::detach(&mut s.dev);
        return (phase, None, obs.counts(), obs.export());
    }
    let qd = w.qd_options(None);
    let phase = measure(w, &mut s.dev, seed, from, &qd, seconds, REFERENCE_ROUNDS);
    obs.attach(&mut s.dev);
    let qd = w.qd_options(Some(&obs));
    let capture = measure(w, &mut s.dev, seed, phase.end, &qd, 0.0, 1);
    Obs::detach(&mut s.dev);
    (phase, Some(capture), obs.counts(), obs.export())
}

/// The untraced run: every end-to-end metric. The measured time is split
/// across `EPOCHS` independent set-ups of the same seed, so set-up and
/// export are sampled several times across the run, and the rounds every
/// epoch shares must repeat exactly.
fn untraced(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let w = args.workload;
    let mut times = Vec::with_capacity(EPOCHS);
    let mut rates = Vec::new();
    let mut exports = Vec::with_capacity(EPOCHS);
    let mut reference: Vec<SimResult> = Vec::new();
    for epoch in 0..EPOCHS {
        let Some(mut s) = set_up(w, args.seed, &mut times, &mut out) else {
            return out;
        };
        let (phase, capture, _, export) =
            measure_and_export(w, &mut s, args.seed, args.seconds / EPOCHS as f64);
        out.absorb(&phase);
        if let Some(c) = &capture {
            out.absorb(c);
        }
        rates.extend(phase.rates());
        exports.push(export.seconds);
        if epoch == 0 {
            reference = phase.rounds.iter().map(|r| r.sim.clone()).collect();
        } else {
            check_same(&reference, &phase, "a later set-up", &mut out);
        }
    }

    out.metric("ops_per_s", median(&rates).unwrap_or(0.0), "ops/s");
    out.metric(
        "setup_s",
        setup_median(&times, |t| t.construct_s + t.precondition_s),
        "s",
    );
    out.metric("export_s", median(&exports).unwrap_or(0.0), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    if let Some(r) = Reference::of(&reference) {
        out.metric("sim_kiops", r.kiops, "KIOPS");
        out.metric("sim_p50_us", r.p50_us, "sim_us");
        out.metric("sim_p999_us", r.p999_us, "sim_us");
        out.metric("waf", waf(&r.counters, &times[0].counters), "ratio");
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&args[1..]));
    }
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: conzone-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
                 conzone-perfbench compare A.jsonl B.jsonl",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let out = if run.trace {
        ledger::traced(&run)
    } else {
        untraced(&run)
    };
    println!("{}", out.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_string()).collect()
    }

    #[test]
    fn parses_run_flags() {
        let a = parse_args(&strings(&[
            "--workload",
            "syncwrite-gc",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]))
        .expect("valid flags");
        assert_eq!(a.workload, Workload::SyncWriteGc);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
        let d = parse_args(&strings(&["--workload", "randread-page-1g"])).expect("defaults");
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "syncwrite-gc", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
    }
}
