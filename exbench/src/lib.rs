//! The exchange benchmark: two closed-loop workloads over inputs from the
//! `youtopia-workload` generators, each timed end to end and, call by call,
//! at the boundary of every layer it drives.
//!
//! * [`contended`]: eight logical clients on an inline engine — chase steps,
//!   violation detection, conflict checks and cascading aborts. Its first
//!   round is replayed on a durable engine, crashed and recovered
//!   ([`durable`]), for the WAL and recovery layers.
//! * [`replicas`]: three replicas on a full mesh — delta encode and decode,
//!   the canonical fold, and genesis-replay rebuilds after partitions.
//!
//! Nothing here reaches inside the program: the benchmark times its own calls
//! to public functions ([`meter`]) and reads the engines' public counters.

#![forbid(unsafe_code)]

pub mod contended;
pub mod durable;
pub mod meter;
pub mod replicas;
pub mod stats;
pub mod tgdcheck;

use std::path::PathBuf;
use std::time::Duration;

use youtopia_concurrency::{ExchangeEngine, RunMetrics};
use youtopia_mappings::{satisfies_all, MappingSet};
use youtopia_storage::wal::serialize_database;
use youtopia_storage::{Database, UpdateId};
use youtopia_workload::{build_fixture, ExperimentConfig, ExperimentFixture};

use crate::meter::Meter;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 2] = ["contended", "replicas"];

/// How many times each run sets up its inputs and first engine; `setup_s` is
/// the median.
pub const SETUP_REPEATS: usize = 3;

/// Options of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// Which workload.
    pub workload: String,
    /// Seed of the op streams and simulated users.
    pub seed: u64,
    /// Measured time: rounds start until this much update-processing time
    /// has accumulated.
    pub seconds: f64,
    /// Whether to record spans and print per-layer metrics.
    pub trace: bool,
}

impl Options {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                    if !(seconds > 0.0 && seconds.is_finite()) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        Ok(Options { workload, seed, seconds, trace })
    }
}

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What a run measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Updates submitted.
    pub attempted: u64,
    /// Updates that failed instead of terminating.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics.
    pub per_layer: Vec<Metric>,
    /// Updates per second of each round.
    pub round_rates: Vec<f64>,
}

impl Outcome {
    /// The result line: one JSON object with the end-to-end metrics, or the
    /// per-layer ones in a traced run.
    pub fn json(&self, trace: bool) -> String {
        let metrics = if trace { &self.per_layer } else { &self.end_to_end };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Everything a workload accumulates while it runs; [`Run::finish`] turns it
/// into an [`Outcome`].
pub struct Run {
    /// The run's options.
    pub opts: Options,
    /// Timer of the calls into the program.
    pub meter: Meter,
    /// Duration of each full set-up, seconds.
    pub setups: Vec<f64>,
    /// Update-processing time so far, seconds.
    pub busy_s: f64,
    /// Updates of the measured rounds.
    pub measured_updates: u64,
    /// Updates per second of each round.
    pub round_rates: Vec<f64>,
    /// Submit-to-terminal latency of every update, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Updates submitted.
    pub attempted: u64,
    /// Updates that failed.
    pub failed: u64,
    /// Frontier questions answered.
    pub questions: u64,
    /// Failed correctness checks.
    pub problems: Vec<String>,
    /// Per-event durations by name (seconds): recoveries, heals, checks.
    pub samples: Vec<(&'static str, f64)>,
    /// Work counters of the first round.
    pub counters: Counters,
    /// Peak resident set once the first round was checked, MiB.
    peak_rss_mb: f64,
}

/// Counters read from the program over the first round of a run — a fixed,
/// seed-determined amount of work, so they repeat exactly for a seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// Updates in the round.
    pub updates: u64,
    /// Aborts performed.
    pub aborts: u64,
    /// Abort requests from direct read-query conflicts.
    pub direct_conflicts: u64,
    /// Abort requests from the dependency cascade.
    pub cascading_requests: u64,
    /// Chase steps.
    pub steps: u64,
    /// Tuple changes written.
    pub changes: u64,
    /// Violations enqueued.
    pub violations_seen: u64,
    /// Frontier questions answered.
    pub questions: u64,
    /// Largest retained slot table.
    pub retained_slots: u64,
    /// Largest retained slot table of the long round (traced `contended`).
    pub long_retained_slots: u64,
    /// Largest violation delta backlog observed.
    pub delta_backlog_max: u64,
    /// Serialized size of the final database, bytes.
    pub db_bytes: u64,
    /// WAL records read at recovery.
    pub wal_records: u64,
    /// Bytes the durable replay wrote per update (its WAL).
    pub written_bytes_per_update: f64,
    /// Delta messages shipped.
    pub messages: u64,
    /// Bytes shipped.
    pub shipped_bytes: u64,
    /// Genesis-replay rebuilds.
    pub rebuilds: u64,
    /// Events replayed by those rebuilds.
    pub replayed_events: u64,
}

impl Counters {
    /// Adds an engine's run counters.
    pub fn add_engine(&mut self, m: &RunMetrics) {
        self.aborts += m.aborts as u64;
        self.direct_conflicts += m.direct_conflict_requests as u64;
        self.cascading_requests += m.cascading_abort_requests as u64;
        self.steps += m.steps as u64;
        self.changes += m.changes as u64;
    }

    /// Adds the per-update statistics of every update an engine retains.
    pub fn add_violations(&mut self, engine: &ExchangeEngine) {
        self.violations_seen +=
            engine.update_stats().iter().map(|(_, s)| s.violations_seen as u64).sum::<u64>();
    }
}

impl Run {
    /// A fresh run.
    pub fn new(opts: Options) -> Run {
        let meter = Meter::new(opts.trace);
        Run {
            opts,
            meter,
            setups: Vec::new(),
            busy_s: 0.0,
            measured_updates: 0,
            round_rates: Vec::new(),
            latencies_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            questions: 0,
            problems: Vec::new(),
            samples: Vec::new(),
            counters: Counters::default(),
            peak_rss_mb: 0.0,
        }
    }

    /// Called after each whole round, checks included: whether to run
    /// another. Stops once the measured time is used up or a check failed.
    pub fn next_round(&mut self) -> bool {
        self.busy_s < self.opts.seconds && self.problems.is_empty()
    }

    /// Takes the peak resident set; called once the first round's checks
    /// are done, before anything else runs. Every later round repeats the
    /// same work on a fresh engine, so what they add is allocator
    /// fragmentation across engines, which grows with the number of rounds
    /// a run fits in — that is, with its speed.
    pub fn take_peak_rss(&mut self) {
        self.peak_rss_mb = stats::peak_rss_mb();
    }

    /// Records one measured round of `updates` updates that took `elapsed`.
    pub fn round(&mut self, updates: usize, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        self.busy_s += secs;
        self.measured_updates += updates as u64;
        self.round_rates.push(updates as f64 / secs);
    }

    /// Records a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("check failed: {what}");
        self.problems.push(what);
    }

    /// Records a per-event duration.
    pub fn sample(&mut self, name: &'static str, secs: f64) {
        self.samples.push((name, secs));
    }

    /// Times one call through the meter and keeps its duration as a sample
    /// of `name`, whose per-layer metric is the median.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.meter.begin(name, None);
        let result = f();
        let elapsed = self.meter.end(open);
        self.sample(name, elapsed.as_secs_f64());
        result
    }

    fn median_of(&self, name: &str) -> f64 {
        let values: Vec<f64> =
            self.samples.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v).collect();
        stats::median(&values)
    }

    /// Seconds per update of the measured rounds spent in calls named `name`.
    fn per_update(&self, name: &str) -> f64 {
        self.meter.total_s(name) / self.measured_updates.max(1) as f64
    }

    /// Checks a final database with the benchmark's own evaluator. On the
    /// first round (`full`) it also asks the program's compiled violation
    /// queries, which must agree, and returns the serialized database.
    pub fn check_database(
        &mut self,
        what: &str,
        db: &Database,
        mappings: &MappingSet,
        full: bool,
    ) -> Option<Vec<u8>> {
        let own = self.meter.time("bench.check", None, || tgdcheck::unsatisfied(db, mappings));
        if let Some(first) = own.first() {
            self.problem(format!(
                "{what}: {} mapping(s) unsatisfied, first {} at {:?}",
                own.len(),
                first.mapping,
                first.bindings
            ));
        }
        if !full {
            return None;
        }
        let compiled = self.timed("mappings.check", || {
            satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), mappings)
        });
        if compiled != own.is_empty() {
            self.problem(format!(
                "{what}: satisfies_all says {compiled} but the own evaluator found {} violation(s)",
                own.len()
            ));
        }
        Some(self.timed("storage.serialize", || serialize_database(db)))
    }

    /// The run's metrics, and the meter with its spans.
    pub fn finish(self) -> (Outcome, Meter) {
        let c = &self.counters;
        let updates = c.updates.max(1) as f64;
        let metric = |name, unit, value| Metric { name, unit, value };
        let end_to_end = vec![
            metric("setup_s", "s", stats::median(&self.setups)),
            metric("peak_rss_mb", "MB", self.peak_rss_mb),
            metric("throughput_ups", "updates/s", stats::median(&self.round_rates)),
            metric("latency_p50_ms", "ms", stats::percentile(&self.latencies_ms, 50.0)),
        ];
        let replay_s = (self.median_of("concurrency.recover")
            - self.median_of("storage.read_wal")
            - self.median_of("storage.snapshot_decode"))
        .max(0.0);
        let per_layer = vec![
            metric("workload.fixture_s", "s", self.median_of("workload.fixture")),
            metric("workload.generate_s", "s", self.median_of("workload.generate")),
            metric("concurrency.build_s", "s", self.median_of("concurrency.build")),
            metric("concurrency.submit_s", "s/update", self.per_update("concurrency.submit")),
            metric("concurrency.drive_s", "s/update", self.per_update("concurrency.drive")),
            metric("concurrency.answer_s", "s/update", self.per_update("concurrency.answer")),
            metric("concurrency.pending_s", "s/update", self.per_update("concurrency.pending")),
            metric("concurrency.aborts", "count", c.aborts as f64),
            metric("concurrency.direct_conflicts", "count", c.direct_conflicts as f64),
            metric("concurrency.cascading_requests", "count", c.cascading_requests as f64),
            metric("concurrency.commit_ratio", "ratio", updates / (updates + c.aborts as f64)),
            metric("concurrency.retained_slots", "count", c.retained_slots as f64),
            metric(
                "concurrency.long_drive_s",
                "s/update",
                self.median_of("concurrency.long_drive"),
            ),
            metric("concurrency.long_retained_slots", "count", c.long_retained_slots as f64),
            metric("storage.delta_backlog_max", "count", c.delta_backlog_max as f64),
            metric("core.steps", "count", c.steps as f64),
            metric("core.steps_per_update", "steps/update", c.steps as f64 / updates),
            metric("core.changes", "count", c.changes as f64),
            metric("core.violations_seen", "count", c.violations_seen as f64),
            metric("core.questions", "count", c.questions as f64),
            metric(
                "questions_per_update",
                "questions/update",
                self.questions as f64 / self.measured_updates.max(1) as f64,
            ),
            metric("latency_p99_ms", "ms", stats::percentile(&self.latencies_ms, 99.0)),
            metric("mappings.check_s", "s", self.median_of("mappings.check")),
            metric("storage.serialize_s", "s", self.median_of("storage.serialize")),
            metric("storage.db_bytes", "bytes", c.db_bytes as f64),
            metric("storage.wal_records", "count", c.wal_records as f64),
            metric("storage.read_wal_s", "s", self.median_of("storage.read_wal")),
            metric("storage.snapshot_decode_s", "s", self.median_of("storage.snapshot_decode")),
            metric("concurrency.replay_s", "s", replay_s),
            metric("recover_s", "s", self.median_of("concurrency.recover")),
            metric("written_bytes_per_update", "bytes/update", c.written_bytes_per_update),
            metric("replication.encode_s", "s/update", self.per_update("replication.encode")),
            metric("replication.decode_s", "s/update", self.per_update("replication.decode")),
            metric("replication.apply_s", "s/update", self.per_update("replication.apply")),
            metric("replication.messages", "count", c.messages as f64),
            metric("replication.shipped_bytes", "bytes", c.shipped_bytes as f64),
            metric("replication.rebuilds", "count", c.rebuilds as f64),
            metric("replication.replayed_events", "count", c.replayed_events as f64),
            metric("heal_ms", "ms", self.median_of("replication.heal") * 1e3),
            metric("shipped_bytes_per_update", "bytes/update", c.shipped_bytes as f64 / updates),
        ];
        let outcome = Outcome {
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            end_to_end,
            per_layer,
            round_rates: self.round_rates,
        };
        (outcome, self.meter)
    }
}

/// The fixture every workload starts from: the paper's Section 6 scale (100
/// relations, 10,000 initial tuples, 100 mappings) under the paper preset's
/// fixed seed, so that `--seed` varies the op streams and simulated users
/// while the database and mappings stay the same.
pub fn paper_config(updates_per_round: usize) -> ExperimentConfig {
    ExperimentConfig { workload_updates: updates_per_round, ..ExperimentConfig::paper() }
}

/// Builds the fixture, timed as `workload.fixture`.
pub fn fixture(run: &mut Run, config: &ExperimentConfig) -> ExperimentFixture {
    run.timed("workload.fixture", || build_fixture(config))
        .expect("the paper preset is a valid configuration")
}

/// First update number for engines over the fixture: above every update
/// that built the initial database.
pub fn first_update_number(config: &ExperimentConfig) -> u64 {
    config.initial_tuples as u64 + 1_000
}

/// Where a run writes: `$CARGO_TARGET_DIR`, or `.bench_build` in the
/// working directory.
pub fn build_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
}

/// A derived seed: round `round` of a run seeded `seed`, for stream `stream`.
pub fn derive_seed(seed: u64, stream: u64, round: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(round);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the workload the options name.
pub fn run(opts: Options) -> (Outcome, Meter) {
    let mut run = Run::new(opts);
    match run.opts.workload.as_str() {
        "contended" => contended::run(&mut run),
        "replicas" => replicas::run(&mut run),
        other => unreachable!("workload {other} was validated at parse time"),
    }
    run.finish()
}
