//! `contended`: eight logical clients, each keeping one update in flight, on
//! an inline engine driven by the benchmark's single thread.
//!
//! Inputs: the paper-scale fixture with all 100 mappings and the Mixed 80/20
//! insert/delete stream. Every frontier question is answered at once by a
//! seeded random resolver. There is no disk and no replication, so the work
//! is chase steps, violation detection, read-log conflict checks and COARSE
//! cascading aborts.
//!
//! A run is whole rounds: each round starts a fresh engine over the fixture
//! and pushes [`ROUND_UPDATES`] updates of a new op stream through the eight
//! clients, then checks the final database. The first round is also replayed
//! on a durable engine, outside the measured time ([`crate::durable`]).
//!
//! The engine never goes quiescent inside a round, so it keeps every slot
//! and log entry of the round. Short rounds keep the measured figures
//! steady; a traced run adds one [`LONG_ROUND_UPDATES`]-update round on one
//! engine, outside the measured rounds, whose drive time per update and
//! retained slots show what a longer stretch without quiescence costs.

use std::time::Instant;

use youtopia_concurrency::{
    AnswerOutcome, EngineBuilder, ExchangeEngine, UpdateHandle, UpdateStatus,
};
use youtopia_core::{FrontierResolver, InitialOp, RandomResolver};
use youtopia_workload::{generate_workload, ExperimentFixture, WorkloadKind};

use crate::meter::Meter;
use crate::{derive_seed, durable, first_update_number, fixture, paper_config, Run, SETUP_REPEATS};

/// Logical clients, each with one update in flight.
pub const CLIENTS: usize = 8;
/// Updates per round.
pub const ROUND_UPDATES: usize = 400;
/// Updates of the traced run's long round.
pub const LONG_ROUND_UPDATES: usize = 2_000;

fn engine(run: &mut Run, fixture: &ExperimentFixture, first: u64) -> ExchangeEngine {
    run.timed("concurrency.build", || {
        EngineBuilder::new()
            .inline()
            .first_update_number(first)
            .build(fixture.initial_db.clone(), fixture.mappings.clone())
            .expect("a non-durable build cannot fail")
    })
}

fn ops(run: &mut Run, fixture: &ExperimentFixture, updates: usize, variant: u64) -> Vec<InitialOp> {
    let config = paper_config(updates);
    run.timed("workload.generate", || {
        generate_workload(
            &config,
            &fixture.schema,
            &fixture.initial_db,
            &fixture.mappings,
            WorkloadKind::Mixed,
            variant,
        )
    })
}

/// Runs the workload.
pub fn run(run: &mut Run) {
    let config = paper_config(ROUND_UPDATES);
    let first = first_update_number(&config);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let started = Instant::now();
        let fixture = fixture(run, &config);
        let ops = ops(run, &fixture, ROUND_UPDATES, derive_seed(run.opts.seed, 1, 0));
        let engine = engine(run, &fixture, first);
        run.setups.push(started.elapsed().as_secs_f64());
        prepared = Some((fixture, ops, engine));
    }
    let (fixture, mut ops, mut engine) = prepared.expect("at least one set-up");
    let mut round = 0u64;
    loop {
        let resolver_seed = derive_seed(run.opts.seed, 2, round);
        let bytes =
            run_round(run, &engine, &ops, RandomResolver::seeded(resolver_seed), round == 0);
        drop(engine);
        if let Some(bytes) = bytes {
            run.take_peak_rss();
            durable::replay_first_round(run, &fixture, &ops, resolver_seed, &bytes);
        }
        round += 1;
        if !run.next_round() {
            break;
        }
        ops = self::ops(run, &fixture, ROUND_UPDATES, derive_seed(run.opts.seed, 1, round));
        engine = self::engine(run, &fixture, first);
    }
    if run.opts.trace && run.problems.is_empty() {
        long_round(run, &fixture, first);
    }
}

/// One [`LONG_ROUND_UPDATES`]-update round on one engine, outside the
/// measured rounds: its drive time per update and retained slots show the
/// cost of an engine that has not been quiescent for that many updates.
fn long_round(run: &mut Run, fixture: &ExperimentFixture, first: u64) {
    let span = run.meter.begin("bench.long_round", None);
    let ops = ops(run, fixture, LONG_ROUND_UPDATES, derive_seed(run.opts.seed, 3, 0));
    let engine = engine(run, fixture, first);
    // Its calls go to a meter of their own, so the per-update call times
    // stay those of the measured rounds.
    let meter = std::mem::replace(&mut run.meter, Meter::new(false));
    let mut resolver = RandomResolver::seeded(derive_seed(run.opts.seed, 4, 0));
    let out = closed_loop(run, &engine, &ops, &mut resolver);
    let own = std::mem::replace(&mut run.meter, meter);
    run.meter.end(span);
    run.attempted += ops.len() as u64;
    run.failed += out.handles.iter().filter(|h| h.status() == UpdateStatus::Failed).count() as u64;
    run.sample("concurrency.long_drive", own.total_s("concurrency.drive") / ops.len() as f64);
    run.counters.long_retained_slots = out.retained_max as u64;
    engine.read(|db| run.check_database("contended long round", db, engine.mappings(), false));
}

/// What one pass of the closed loop observed.
pub(crate) struct Loop {
    pub(crate) handles: Vec<UpdateHandle>,
    pub(crate) latencies_ms: Vec<f64>,
    pub(crate) questions: u64,
    pub(crate) backlog_max: usize,
    pub(crate) retained_max: usize,
}

/// Pushes `ops` through `engine` with [`CLIENTS`] clients, each keeping one
/// update in flight, answering every question with `resolver`, until every
/// update is terminal and the engine is quiescent.
pub(crate) fn closed_loop(
    run: &mut Run,
    engine: &ExchangeEngine,
    ops: &[InitialOp],
    resolver: &mut RandomResolver,
) -> Loop {
    let mut out = Loop {
        handles: Vec::with_capacity(ops.len()),
        latencies_ms: Vec::with_capacity(ops.len()),
        questions: 0,
        backlog_max: 0,
        retained_max: 0,
    };
    let mut clients: Vec<Option<(usize, Instant)>> = vec![None; CLIENTS];
    let mut next = 0usize;
    loop {
        for client in clients.iter_mut() {
            if let Some((i, submitted)) = *client {
                match out.handles[i].status() {
                    UpdateStatus::Terminated => {
                        out.latencies_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                        *client = None;
                    }
                    UpdateStatus::Failed => *client = None,
                    UpdateStatus::Running | UpdateStatus::AwaitingFrontier => {}
                }
            }
            if client.is_none() && next < ops.len() {
                let op = ops[next].clone();
                let submitted = Instant::now();
                match run.meter.time("concurrency.submit", None, || engine.submit(op)) {
                    Ok(handle) => {
                        out.handles.push(handle);
                        *client = Some((out.handles.len() - 1, submitted));
                    }
                    Err(e) => run.problem(format!("submit refused: {e}")),
                }
                next += 1;
            }
        }
        if clients.iter().all(Option::is_none) && next == ops.len() && engine.is_quiescent() {
            break;
        }
        if let Err(e) = run.meter.time("concurrency.drive", None, || engine.drive()) {
            run.problem(format!("engine failed: {e}"));
            break;
        }
        let pending = run.meter.time("concurrency.pending", None, || engine.pending_frontiers());
        for pf in pending {
            let answered = run.meter.time("concurrency.answer", Some(pf.update.0), || {
                let decision =
                    engine.read(|db| resolver.resolve(&db.snapshot(pf.update), &pf.request));
                engine.answer(pf.token, decision)
            });
            match answered {
                Ok(AnswerOutcome::Applied) => out.questions += 1,
                Ok(AnswerOutcome::Stale) => {}
                Err(e) => run.problem(format!("answer rejected: {e}")),
            }
        }
        out.backlog_max = out.backlog_max.max(engine.violation_index().backlog_len);
        out.retained_max = out.retained_max.max(engine.retained_slots());
        if !run.problems.is_empty() {
            break;
        }
    }
    let unfinished = out
        .handles
        .iter()
        .filter(|h| !matches!(h.status(), UpdateStatus::Terminated | UpdateStatus::Failed))
        .count();
    if unfinished > 0 || out.handles.len() != ops.len() {
        run.problem(format!(
            "{unfinished} of {} submitted updates not terminal ({} ops)",
            out.handles.len(),
            ops.len()
        ));
    }
    if !engine.pending_frontiers().is_empty() {
        run.problem("questions left pending at the end of a round");
    }
    out
}

fn run_round(
    run: &mut Run,
    engine: &ExchangeEngine,
    ops: &[InitialOp],
    mut resolver: RandomResolver,
    first_round: bool,
) -> Option<Vec<u8>> {
    let round_span = run.meter.begin("bench.round", None);
    let started = Instant::now();
    let out = closed_loop(run, engine, ops, &mut resolver);
    run.round(ops.len(), started.elapsed());
    run.meter.end(round_span);
    run.attempted += ops.len() as u64;
    run.failed += out.handles.iter().filter(|h| h.status() == UpdateStatus::Failed).count() as u64;
    run.questions += out.questions;
    run.latencies_ms.extend(out.latencies_ms);

    let bytes =
        engine.read(|db| run.check_database("contended round", db, engine.mappings(), first_round));
    let bytes = bytes?;
    let c = &mut run.counters;
    c.updates = ops.len() as u64;
    c.add_engine(&engine.metrics());
    c.add_violations(engine);
    c.questions = engine.metrics().frontier_ops as u64;
    c.retained_slots = out.retained_max as u64;
    c.delta_backlog_max = out.backlog_max as u64;
    c.db_bytes = bytes.len() as u64;
    Some(bytes)
}
