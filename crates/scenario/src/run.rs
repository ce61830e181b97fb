//! Drive a generated plan through the real fleet simulator and distill the
//! run into the facts the oracles judge.
//!
//! The harness mirrors the chaos-recovery integration tests: 1 s ticks,
//! 1-minute TDE windows, the RL backend (fixed 50 ms service time, so
//! request timing is exact), TDE-gated sample capture and the OnlineTune
//! rollback guard armed. The primary run drives the fleet on one shard. In
//! doublecheck mode the same plan runs twice more — once on four shards,
//! and once on one shard interrupted by a mid-plan save/restore — and the
//! extra event logs feed the sharded and snapshot identity oracles.

use crate::profile::Profile;
use autodbaas_cloudsim::{FleetConfig, FleetSim, InteractionPlan, ManagedDatabase, RollbackPolicy};
use autodbaas_core::{TdeConfig, TuningPolicy};
use autodbaas_ctrlplane::TunerKind;
use autodbaas_simdb::{AnyBackend, DbFlavor, DiskKind, InstanceType};
use autodbaas_telemetry::MILLIS_PER_MIN;
use autodbaas_tuner::{SampleQuality, WorkloadId};
use autodbaas_workload::{tpcc, ArrivalProcess};

/// Shards forced in doublecheck mode: real worker threads even on a
/// single-core machine, where auto resolution would pick one shard and the
/// identity oracle would compare the one-shard drive against itself.
const DOUBLECHECK_SHARDS: usize = 4;

/// Quiesce-then-audit settle phase appended after the profile's duration:
/// recommendation applies are frozen and the fleet runs on, long enough for
/// every armed rollback guard (3 observation windows), parked apply
/// (backoff ≤ 160 s) and crash recovery to resolve. Terminal oracles judge
/// the fleet *after* this drain, so "guard still armed" means stuck, not
/// merely recent.
const SETTLE_MS: u64 = 5 * MILLIS_PER_MIN;

/// Everything one simulated run tells the oracles.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Fleet availability over the run.
    pub availability: f64,
    /// Nodes with stalled control-plane work after the quiet tail.
    pub wedged: Vec<usize>,
    /// Nodes whose live config drifted from the persisted config of record.
    pub drifted: Vec<usize>,
    /// Nodes whose rollback guard is still armed after the quiet tail.
    pub guards_armed: Vec<usize>,
    /// Low-quality samples that reached the repository from *online*
    /// workloads (the run captures TDE-gated, so this must be zero).
    pub online_low_samples: usize,
    /// Event-log fingerprint of the primary (one-shard) run.
    pub fingerprint_serial: u64,
    /// Event-log fingerprint of the sharded run (doublecheck mode only).
    pub fingerprint_sharded: Option<u64>,
    /// Per-node submitted-query counters of the primary (one-shard) run.
    pub queries_serial: Vec<u64>,
    /// Sharded counterpart of [`RunOutcome::queries_serial`].
    pub queries_sharded: Option<Vec<u64>>,
    /// Event-log fingerprint of the save/restore twin — the same one-shard
    /// run interrupted mid-plan by a snapshot round trip (doublecheck mode
    /// only).
    pub fingerprint_resumed: Option<u64>,
    /// Save/restore counterpart of [`RunOutcome::queries_serial`].
    pub queries_resumed: Option<Vec<u64>>,
    /// Rollbacks the safety guard fired during the primary run.
    pub rollbacks: u64,
    /// Per-node write-stall exposure of every LSM master, as a fraction of
    /// the full run (duration + settle). Empty on all-page-heap fleets, so
    /// the compaction-stall oracle abstains there.
    pub lsm_stall_frac: Vec<(usize, f64)>,
}

/// Which engine serves node `i` of this profile's fleet: mixed-backend
/// profiles interleave the LSM adapter on odd indices.
fn node_flavor(profile: &Profile, i: usize) -> DbFlavor {
    if profile.mixed_backends && i % 2 == 1 {
        DbFlavor::Lsm
    } else {
        DbFlavor::Postgres
    }
}

/// One managed tenant shaped by the profile.
fn managed_node(profile: &Profile, i: usize, seed: u64) -> ManagedDatabase {
    let wl = tpcc(1.0);
    let catalog = wl.catalog().clone();
    let node = ManagedDatabase::new(
        node_flavor(profile, i),
        InstanceType::M4Large,
        DiskKind::Ssd,
        catalog,
        Box::new(wl),
        ArrivalProcess::Constant(profile.base_qps),
        TuningPolicy::TdeDriven,
        WorkloadId(0),
        TdeConfig::default(),
        seed,
    );
    node.with_slaves(profile.n_slaves)
}

/// The profile's fleet with `plan` armed and the clock at zero.
fn armed_fleet(profile: &Profile, plan: &InteractionPlan, seed: u64, sharded: bool) -> FleetSim {
    let mut sim = FleetSim::new(
        FleetConfig {
            tick_ms: 1_000,
            tde_period_ms: MILLIS_PER_MIN,
            tuner: TunerKind::Rl,
            seed,
            shards: if sharded { DOUBLECHECK_SHARDS } else { 1 },
            request_timeout_ms: 30_000,
            retry_base_ms: 5_000,
            rollback: Some(RollbackPolicy::default()),
            ..FleetConfig::default()
        },
        2,
    );
    for i in 0..profile.n_nodes {
        sim.add_node(
            managed_node(profile, i, seed ^ (i as u64 + 1).wrapping_mul(0x9e3779b9)),
            &format!("{}-db-{i}", profile.name),
        );
    }
    sim.enable_plan(plan.clone());
    sim
}

/// Freeze new applies and drain for [`SETTLE_MS`] before the caller
/// audits terminal state.
fn settle(sim: &mut FleetSim) {
    sim.set_apply_recommendations(false);
    sim.run_for(SETTLE_MS);
}

/// Build the profile's fleet, arm `plan`, run to the end of the profile's
/// duration (plan events stop at 75%, so the last quarter is already
/// quiet), then settle.
fn run_once(profile: &Profile, plan: &InteractionPlan, seed: u64, sharded: bool) -> FleetSim {
    let mut sim = armed_fleet(profile, plan, seed, sharded);
    sim.run_for(profile.duration_ms);
    settle(&mut sim);
    sim
}

/// The primary run again, but interrupted halfway through the plan by a
/// full snapshot round trip — serialize, drop the live fleet, restore
/// from bytes, continue. The plan generator places events up to 75% of
/// the duration, so the split lands with live plan state (a cursor into
/// pending events, often an in-flight burst or fault) on both sides of
/// the checkpoint. Bit-identity with the uninterrupted run is exactly
/// the ROADMAP item 5 contract, judged by the `snapshot_identity`
/// oracle.
fn run_resumed(profile: &Profile, plan: &InteractionPlan, seed: u64) -> FleetSim {
    let mut sim = armed_fleet(profile, plan, seed, false);
    let half = profile.duration_ms / 2;
    sim.run_for(half);
    let bytes = sim.snapshot_bytes();
    drop(sim);
    let mut sim = FleetSim::from_snapshot_bytes(&bytes).expect("restore mid-plan snapshot");
    sim.run_for(profile.duration_ms - half);
    settle(&mut sim);
    sim
}

/// Run `plan` under `profile` and distill the outcome. `doublecheck` adds
/// the sharded twin and the mid-plan save/restore twin feeding the two
/// identity oracles.
pub fn run_plan(
    profile: &Profile,
    plan: &InteractionPlan,
    seed: u64,
    doublecheck: bool,
) -> RunOutcome {
    let primary = run_once(profile, plan, seed, false);
    let (_, low_online) = primary.repo.online_quality_counts();
    let run_ms = (profile.duration_ms + SETTLE_MS) as f64;
    let lsm_stall_frac = primary
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(i, n)| match n.db() {
            AnyBackend::Lsm(db) => Some((i, db.write_stalled_ms() as f64 / run_ms)),
            AnyBackend::PageHeap(_) => None,
        })
        .collect();
    let mut outcome = RunOutcome {
        availability: primary.availability(),
        wedged: primary.wedged_nodes(),
        drifted: primary.drifted_nodes(),
        guards_armed: primary.guard_armed_nodes(),
        online_low_samples: low_online,
        fingerprint_serial: primary.events.fingerprint(),
        fingerprint_sharded: None,
        queries_serial: primary.nodes.iter().map(|n| n.queries_submitted).collect(),
        queries_sharded: None,
        rollbacks: primary.events.count("tune.rollback") as u64,
        lsm_stall_frac,
        fingerprint_resumed: None,
        queries_resumed: None,
    };
    if doublecheck {
        let sharded = run_once(profile, plan, seed, true);
        outcome.fingerprint_sharded = Some(sharded.events.fingerprint());
        outcome.queries_sharded = Some(sharded.nodes.iter().map(|n| n.queries_submitted).collect());
        let resumed = run_resumed(profile, plan, seed);
        outcome.fingerprint_resumed = Some(resumed.events.fingerprint());
        outcome.queries_resumed = Some(resumed.nodes.iter().map(|n| n.queries_submitted).collect());
    }
    outcome
}

/// Count low-quality online samples in a finished sim — exposed for tests
/// that build their own fleets.
pub fn online_low_samples(sim: &FleetSim) -> usize {
    sim.repo
        .iter()
        .filter(|w| !w.offline)
        .flat_map(|w| w.samples.iter())
        .filter(|s| s.quality == SampleQuality::Low)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::profile::profile;

    #[test]
    fn runs_are_bit_deterministic() {
        let p = profile("quiet").unwrap();
        let plan = generate(p, 3);
        let a = run_plan(p, &plan, 3, false);
        let b = run_plan(p, &plan, 3, false);
        assert_eq!(a.fingerprint_serial, b.fingerprint_serial);
        assert_eq!(a.queries_serial, b.queries_serial);
        assert_eq!(a.availability, b.availability);
    }

    #[test]
    fn mixed_profile_hosts_lsm_masters_and_reports_stall_exposure() {
        let p = profile("diurnal-heavy").unwrap();
        assert!(p.mixed_backends);
        let plan = generate(p, 11);
        let out = run_plan(p, &plan, 11, false);
        // Odd indices carry the LSM adapter (4-node fleet → nodes 1, 3)…
        assert_eq!(
            out.lsm_stall_frac
                .iter()
                .map(|&(i, _)| i)
                .collect::<Vec<_>>(),
            vec![1, 3]
        );
        // …and a generated plan stays well inside the write-stall budget.
        for &(i, frac) in &out.lsm_stall_frac {
            assert!(
                frac <= crate::oracle::MAX_LSM_STALL_FRAC,
                "node {i} stalled {frac:.3} of the run"
            );
        }
    }

    #[test]
    fn doublecheck_attaches_the_sharded_and_resumed_twins() {
        let p = profile("quiet").unwrap();
        let plan = generate(p, 5);
        let out = run_plan(p, &plan, 5, true);
        assert!(out.fingerprint_sharded.is_some());
        assert_eq!(out.queries_sharded.as_ref().map(Vec::len), Some(p.n_nodes),);
        // The save/restore twin is attached too — and on a healthy build
        // it reproduces the uninterrupted run bit for bit.
        assert_eq!(out.fingerprint_resumed, Some(out.fingerprint_serial));
        assert_eq!(out.queries_resumed.as_ref(), Some(&out.queries_serial));
    }
}
