//! The durability layers, measured on the first round of `contended`.
//!
//! After the first round is checked, its op stream is pushed a second time,
//! with the same clients and the same resolver seed, through a durable
//! inline engine in a directory on disk: every WAL record fsynced, no
//! snapshot but the initial one, so a crash leaves the whole round in the
//! log. The engine is then dropped without `shutdown()` (the crash) and
//! recovered. The inline engine is deterministic, so the durable run must
//! end on exactly the bytes of the round it repeats, and so must the
//! recovered engine.
//!
//! This replay sits outside the measured time and its calls are kept out of
//! the per-update call times: fsync and wake-up latencies on a shared host
//! drift by a quarter within minutes, which no end-to-end bound could hold.
//! It feeds the per-layer WAL and recovery metrics only.

use std::path::{Path, PathBuf};

use youtopia_concurrency::{DurabilityConfig, EngineBuilder, ResolverPump};
use youtopia_core::{
    FrontierDecision, FrontierRequest, FrontierResolver, InitialOp, RandomResolver,
};
use youtopia_storage::wal::{deserialize_database, read_wal, serialize_database};
use youtopia_storage::DataView;
use youtopia_workload::ExperimentFixture;

use crate::contended::closed_loop;
use crate::meter::Meter;
use crate::{build_dir, first_update_number, paper_config, stats, Run};

/// WAL records between snapshots: more than a round writes, so recovery
/// replays the whole round from the initial snapshot.
pub const SNAPSHOT_EVERY: u64 = 100_000;

/// The engine directory, removed again when the replay ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn builder(dir: &Path, first: u64) -> EngineBuilder {
    EngineBuilder::new()
        .inline()
        .first_update_number(first)
        .durable(DurabilityConfig::new(dir).with_snapshot_every(SNAPSHOT_EVERY))
}

/// A resolver that counts how often it is asked.
struct Asked(usize, RandomResolver);

impl FrontierResolver for Asked {
    fn resolve(&mut self, view: &dyn DataView, request: &FrontierRequest) -> FrontierDecision {
        self.0 += 1;
        self.1.resolve(view, request)
    }
}

/// Replays `ops` durably, crashes, recovers, and checks both databases
/// against `expected`, the serialized result of the round being repeated.
pub fn replay_first_round(
    run: &mut Run,
    fixture: &ExperimentFixture,
    ops: &[InitialOp],
    resolver_seed: u64,
    expected: &[u8],
) {
    let scratch = Scratch(build_dir().join(format!("exbench-durable-{}", std::process::id())));
    let dir = scratch.0.as_path();
    let _ = std::fs::remove_dir_all(dir);
    let first = first_update_number(&paper_config(ops.len()));
    let span = run.meter.begin("storage.durable_round", None);
    let engine =
        match builder(dir, first).build(fixture.initial_db.clone(), fixture.mappings.clone()) {
            Ok(engine) => engine,
            Err(e) => {
                run.meter.end(span);
                return run.problem(format!("durable engine failed to start: {e}"));
            }
        };
    // The replay's own calls go to a throwaway meter, so the per-update
    // call times stay those of the measured rounds.
    let meter = std::mem::replace(&mut run.meter, Meter::new(false));
    let written_before = stats::written_bytes();
    closed_loop(run, &engine, ops, &mut RandomResolver::seeded(resolver_seed));
    let written = stats::written_bytes() - written_before;
    run.meter = meter;
    run.meter.end(span);
    run.counters.written_bytes_per_update = written / ops.len() as f64;
    if engine.read(serialize_database) != expected {
        run.problem("the durable engine ended on other bytes than the round it repeats");
    }
    // The crash: drop without shutdown.
    drop(engine);

    let config = DurabilityConfig::new(dir);
    match run.timed("storage.read_wal", || read_wal(&config.wal_path())) {
        Ok(wal) => run.counters.wal_records = wal.records.len() as u64,
        Err(e) => return run.problem(format!("WAL unreadable after the crash: {e}")),
    }
    // Recovery decodes the snapshot file's database: the fixture's, since
    // the round wrote no later snapshot. The file ends with its bytes.
    let snapshot = match std::fs::read(config.snapshot_path()) {
        Ok(bytes) => bytes,
        Err(e) => return run.problem(format!("snapshot unreadable after the crash: {e}")),
    };
    let initial = serialize_database(&fixture.initial_db);
    if !snapshot.ends_with(&initial) {
        return run.problem("the snapshot does not hold the initial database");
    }
    let held = &snapshot[snapshot.len() - initial.len()..];
    if let Err(e) = run.timed("storage.snapshot_decode", || deserialize_database(held)) {
        return run.problem(format!("the snapshot's database does not decode: {e}"));
    }
    let recovered = match run
        .timed("concurrency.recover", || builder(dir, first).recover(fixture.mappings.clone()))
    {
        Ok(engine) => engine,
        Err(e) => return run.problem(format!("recovery failed: {e}")),
    };
    // Recovery replays the log up to its last record; chase work that
    // followed that record resumes on the recovered engine.
    let mut asked = Asked(0, RandomResolver::seeded(resolver_seed));
    if let Err(e) = ResolverPump::new(&recovered, &mut asked).run_until_quiescent() {
        return run.problem(format!("recovered engine failed to finish replayed work: {e}"));
    }
    if asked.0 > 0 {
        run.problem(format!("recovered engine asked {} question(s) already answered", asked.0));
    }
    if recovered.read(serialize_database) != expected {
        run.problem("the recovered database differs from the crashed engine's");
    }
}
