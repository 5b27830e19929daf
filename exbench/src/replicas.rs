//! `replicas`: three inline replicas on a full mesh build a long shared
//! history, then repeatedly one node is partitioned, both sides take
//! concurrent submits, and the partition heals until the replicas converge.
//!
//! Inputs: the paper-scale fixture with all 100 mappings as the genesis, and
//! the Mixed 80/20 stream. Each submit is answered at its own node by a
//! seeded random resolver (the local user), and after a heal any question a
//! fold raises is answered at the lowest-indexed asking node. The benchmark
//! ships the encoded delta batches itself, so the work is delta encode and
//! decode, the canonical fold, and the genesis-replay rebuilds that a heal
//! forces, which grow with the history.
//!
//! A run is whole rounds: each round starts a fresh replica set over the
//! genesis, builds [`HISTORY`] updates of shared history, runs [`CYCLES`]
//! partition/heal cycles and checks convergence.

use std::collections::BTreeSet;
use std::time::Instant;

use youtopia_core::replication::{decode_delta_batch, encode_delta_batch, NodeId};
use youtopia_core::{InitialOp, RandomResolver};
use youtopia_mappings::MappingSet;
use youtopia_replication::ReplicaNode;
use youtopia_storage::wal::{deserialize_database, serialize_database};
use youtopia_workload::{generate_workload, ExperimentFixture, WorkloadKind};

use crate::{derive_seed, fixture, paper_config, Counters, Run, SETUP_REPEATS};

/// Replicas on the full mesh.
pub const NODES: usize = 3;
/// Updates of shared history built before the first partition.
pub const HISTORY: usize = 60;
/// Partition/heal cycles per round.
pub const CYCLES: usize = 6;
/// Submits on each side of a partition per cycle.
pub const SIDE_SUBMITS: usize = 2;
/// Updates per round.
pub const ROUND_UPDATES: usize = HISTORY + CYCLES * 2 * SIDE_SUBMITS;
/// Gossip rounds a heal may take before the run fails.
const MAX_HEAL_ROUNDS: usize = 64;

struct Mesh {
    genesis: Vec<u8>,
    mappings: MappingSet,
    nodes: Vec<ReplicaNode>,
    cut: BTreeSet<usize>,
}

fn mesh(run: &mut Run, genesis: &[u8], mappings: &MappingSet) -> Mesh {
    let nodes = run.timed("concurrency.build", || {
        (0..NODES)
            .map(|i| {
                let db = deserialize_database(genesis).expect("genesis bytes decode");
                ReplicaNode::new(NodeId(i as u32), db, mappings.clone())
            })
            .collect()
    });
    Mesh { genesis: genesis.to_vec(), mappings: mappings.clone(), nodes, cut: BTreeSet::new() }
}

fn ops(run: &mut Run, fixture: &ExperimentFixture, round: u64) -> Vec<InitialOp> {
    let config = paper_config(ROUND_UPDATES);
    let variant = derive_seed(run.opts.seed, 1, round);
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
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let started = Instant::now();
        let fixture = fixture(run, &config);
        let ops = ops(run, &fixture, 0);
        let genesis = serialize_database(&fixture.initial_db);
        let mesh = mesh(run, &genesis, &fixture.mappings);
        run.setups.push(started.elapsed().as_secs_f64());
        prepared = Some((fixture, genesis, ops, mesh));
    }
    let (fixture, genesis, mut ops, mut mesh) = prepared.expect("at least one set-up");
    let mut round = 0u64;
    loop {
        let mut resolver = RandomResolver::seeded(derive_seed(run.opts.seed, 2, round));
        let mut counters = Counters::default();
        run_round(run, &mut mesh, &ops, &mut resolver, &mut counters);
        if round == 0 {
            counters.updates = ops.len() as u64;
            run.counters = counters;
            run.take_peak_rss();
        }
        round += 1;
        if !run.next_round() {
            break;
        }
        ops = self::ops(run, &fixture, round);
        mesh = self::mesh(run, &genesis, &fixture.mappings);
    }
}

fn run_round(
    run: &mut Run,
    mesh: &mut Mesh,
    ops: &[InitialOp],
    resolver: &mut RandomResolver,
    counters: &mut Counters,
) {
    let round_span = run.meter.begin("bench.round", None);
    let started = Instant::now();
    let mut ops = ops.iter().cloned();
    for i in 0..HISTORY {
        let op = ops.next().expect("round has its history ops");
        if submit(run, mesh, i % NODES, op, resolver, counters).is_err() {
            return;
        }
        if sync_round(run, mesh, counters).is_err() {
            return;
        }
    }
    for cycle in 0..CYCLES {
        let alone = cycle % NODES;
        let others: Vec<usize> = (0..NODES).filter(|&n| n != alone).collect();
        mesh.cut.insert(alone);
        for k in 0..SIDE_SUBMITS {
            for node in [alone, others[k % others.len()]] {
                let op = ops.next().expect("round has its cycle ops");
                if submit(run, mesh, node, op, resolver, counters).is_err() {
                    return;
                }
            }
            if sync_round(run, mesh, counters).is_err() {
                return;
            }
        }
        mesh.cut.clear();
        if heal(run, mesh, resolver, counters).is_err() {
            return;
        }
    }
    run.round(ROUND_UPDATES, started.elapsed());
    run.meter.end(round_span);
    run.attempted += ROUND_UPDATES as u64;
    check(run, mesh, counters);
}

/// Submits at `node` and answers the node's questions until its fold is
/// settled: the update's latency as its local user sees it.
fn submit(
    run: &mut Run,
    mesh: &mut Mesh,
    node: usize,
    op: InitialOp,
    resolver: &mut RandomResolver,
    counters: &mut Counters,
) -> Result<(), ()> {
    let submitted = Instant::now();
    let replica = &mut mesh.nodes[node];
    if let Err(e) = run.meter.time("concurrency.submit", None, || replica.submit(op)) {
        run.problem(format!("submit at node {node} failed: {e}"));
        return Err(());
    }
    settle(run, mesh, node, resolver)?;
    run.latencies_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
    let engine = mesh.nodes[node].engine();
    counters.delta_backlog_max =
        counters.delta_backlog_max.max(engine.violation_index().backlog_len as u64);
    counters.retained_slots = counters.retained_slots.max(engine.retained_slots() as u64);
    Ok(())
}

/// Answers `node`'s pending questions until its fold is settled.
fn settle(
    run: &mut Run,
    mesh: &mut Mesh,
    node: usize,
    resolver: &mut RandomResolver,
) -> Result<(), ()> {
    for _ in 0..MAX_HEAL_ROUNDS {
        let replica = &mut mesh.nodes[node];
        match run.meter.time("concurrency.pending", None, || replica.settled()) {
            Ok(true) => return Ok(()),
            Ok(false) => {}
            Err(e) => {
                run.problem(format!("node {node} fold failed: {e}"));
                return Err(());
            }
        }
        match run.meter.time("concurrency.answer", None, || replica.answer_pending(resolver)) {
            Ok(answered) => run.questions += answered as u64,
            Err(e) => {
                run.problem(format!("answer at node {node} failed: {e}"));
                return Err(());
            }
        }
    }
    run.problem(format!("node {node} did not settle"));
    Err(())
}

/// One gossip round: along every edge not cut, each side ships what the
/// other is missing as encoded bytes, and the receiver decodes and applies.
fn sync_round(run: &mut Run, mesh: &mut Mesh, counters: &mut Counters) -> Result<(), ()> {
    let span = run.meter.begin("replication.sync_round", None);
    let result = exchange(run, mesh, counters);
    run.meter.end(span);
    result
}

fn exchange(run: &mut Run, mesh: &mut Mesh, counters: &mut Counters) -> Result<(), ()> {
    for a in 0..NODES {
        for b in 0..NODES {
            if a == b || mesh.cut.contains(&a) || mesh.cut.contains(&b) {
                continue;
            }
            let (src, dst) = (&mesh.nodes[a], &mesh.nodes[b]);
            let encoded = run.meter.time("replication.encode", None, || {
                let want = dst.state_vector()?;
                let batch = src.deltas_since(&want)?;
                Ok::<_, youtopia_concurrency::SyncError>(
                    (!batch.is_empty()).then(|| encode_delta_batch(&batch)),
                )
            });
            let bytes = match encoded {
                Ok(Some(bytes)) => bytes,
                Ok(None) => continue,
                Err(e) => {
                    run.problem(format!("encoding deltas {a}->{b} failed: {e}"));
                    return Err(());
                }
            };
            let batch =
                match run.meter.time("replication.decode", None, || decode_delta_batch(&bytes)) {
                    Ok(batch) => batch,
                    Err(e) => {
                        run.problem(format!("delta batch {a}->{b} does not decode: {e}"));
                        return Err(());
                    }
                };
            let dst = &mut mesh.nodes[b];
            let before = dst.rebuilds();
            if let Err(e) = run.meter.time("replication.apply", None, || dst.apply(&batch)) {
                run.problem(format!("applying deltas {a}->{b} failed: {e}"));
                return Err(());
            }
            counters.messages += 1;
            counters.shipped_bytes += bytes.len() as u64;
            if dst.rebuilds() > before {
                counters.rebuilds += (dst.rebuilds() - before) as u64;
                counters.replayed_events += dst.state_vector().map_or(0, |sv| sv.total());
            }
        }
    }
    Ok(())
}

fn converged(mesh: &Mesh) -> Result<bool, String> {
    let first = mesh.nodes[0].state_vector().map_err(|e| e.to_string())?;
    for node in &mesh.nodes {
        if node.state_vector().map_err(|e| e.to_string())? != first
            || !node.settled().map_err(|e| e.to_string())?
        {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Gossips until every node holds the same event set and is settled,
/// answering any question at the lowest-indexed asking node.
fn heal(
    run: &mut Run,
    mesh: &mut Mesh,
    resolver: &mut RandomResolver,
    counters: &mut Counters,
) -> Result<(), ()> {
    let span = run.meter.begin("replication.heal", None);
    let mut result = Err(());
    for _ in 0..MAX_HEAL_ROUNDS {
        if sync_round(run, mesh, counters).is_err() {
            break;
        }
        if let Some(node) =
            mesh.nodes.iter_mut().find(|n| !n.engine().pending_frontiers().is_empty())
        {
            match run.meter.time("concurrency.answer", None, || node.answer_pending(resolver)) {
                Ok(answered) => run.questions += answered as u64,
                Err(e) => {
                    run.problem(format!("answer after heal failed: {e}"));
                    break;
                }
            }
        }
        match converged(mesh) {
            Ok(true) => {
                result = Ok(());
                break;
            }
            Ok(false) => {}
            Err(e) => {
                run.problem(format!("convergence check failed: {e}"));
                break;
            }
        }
    }
    let elapsed = run.meter.end(span);
    if result.is_ok() {
        run.sample("replication.heal", elapsed.as_secs_f64());
    } else if run.problems.is_empty() {
        run.problem(format!("no convergence within {MAX_HEAL_ROUNDS} gossip rounds"));
    }
    result
}

/// After a round: the nodes are byte-identical with equal state vectors,
/// they match a fresh replica that folds the union log in one batch, and the
/// database satisfies every mapping.
fn check(run: &mut Run, mesh: &Mesh, counters: &mut Counters) {
    let rendered: Vec<Vec<u8>> = mesh.nodes.iter().map(ReplicaNode::rendered).collect();
    if rendered.iter().any(|r| r != &rendered[0]) {
        run.problem("replicas render different databases after convergence");
    }
    let svs: Vec<_> = mesh.nodes.iter().map(|n| n.state_vector().ok()).collect();
    if svs.iter().any(|sv| sv.is_none() || sv != &svs[0]) {
        run.problem("replicas hold different state vectors after convergence");
    }
    let fresh = (|| {
        let log = mesh.nodes[0].engine().export_replication_log().map_err(|e| e.to_string())?;
        let db = deserialize_database(&mesh.genesis).map_err(|e| e.to_string())?;
        let mut fresh = ReplicaNode::new(NodeId(NODES as u32), db, mesh.mappings.clone());
        fresh.apply(&log).map_err(|e| e.to_string())?;
        if !fresh.settled().map_err(|e| e.to_string())? {
            return Err("a fresh replica folding the union log is left unsettled".to_string());
        }
        Ok(fresh.rendered())
    })();
    match fresh {
        Ok(bytes) if bytes == rendered[0] => {}
        Ok(bytes) => run.problem(format!(
            "a fresh one-batch fold renders {} bytes, the replicas {}",
            bytes.len(),
            rendered[0].len()
        )),
        Err(e) => run.problem(e),
    }
    let engine = mesh.nodes[0].engine();
    let full = run.round_rates.len() == 1;
    if let Some(bytes) =
        engine.read(|db| run.check_database("replicas round", db, &mesh.mappings, full))
    {
        counters.db_bytes = bytes.len() as u64;
    }
    for node in &mesh.nodes {
        counters.add_engine(&node.engine().metrics());
        counters.add_violations(node.engine());
    }
    counters.questions = run.questions;
}
