//! The snapshot contract (ROADMAP item 5): for any split point `k`, any
//! backend mix, and any shard count, `run(0..T)` and
//! `run(0..k); save; restore; run(k..T)` produce bit-identical fleets —
//! same event-log fingerprint, same serialized state, same counters.

use autodbaas::cloudsim::{
    FaultKind, FaultPlan, FleetConfig, FleetSim, InteractionPlan, ManagedDatabase, PlanAction,
    PlanEvent,
};
use autodbaas::prelude::*;
use autodbaas::tde::TdeConfig;
use autodbaas::telemetry::MILLIS_PER_MIN;
use autodbaas::tuner::WorkloadId;

fn node(flavor: DbFlavor, adulterated: bool, seed: u64) -> ManagedDatabase {
    let base = tpcc(0.4);
    let catalog = base.catalog().clone();
    let workload: Box<dyn QuerySource + Send> = if adulterated {
        Box::new(AdulteratedWorkload::new(base, 0.3))
    } else {
        Box::new(base)
    };
    ManagedDatabase::new(
        flavor,
        InstanceType::M4Large,
        DiskKind::Ssd,
        catalog,
        workload,
        ArrivalProcess::Constant(120.0),
        TuningPolicy::TdeDriven,
        WorkloadId(0),
        TdeConfig::default(),
        seed,
    )
    .with_slaves(if seed.is_multiple_of(2) { 1 } else { 0 })
}

/// A mixed-backend chaos fleet: page-heap and LSM masters side by side,
/// rollback guard armed, standard fault rotation running.
fn fleet(shards: usize, seed: u64) -> FleetSim {
    let mut sim = FleetSim::new(
        FleetConfig {
            seed,
            shards,
            rollback: Some(Default::default()),
            ..FleetConfig::default()
        },
        2,
    );
    for i in 0..4u64 {
        let flavor = if i % 2 == 0 {
            DbFlavor::Postgres
        } else {
            DbFlavor::Lsm
        };
        sim.add_node(node(flavor, i == 2, seed ^ (i * 131)), &format!("db-{i}"));
    }
    sim.enable_chaos(FaultPlan::standard(4, 30 * MILLIS_PER_MIN));
    sim
}

const TOTAL: u64 = 30 * MILLIS_PER_MIN;

/// Drive `sim` from its current time up to absolute fleet time `until`.
fn run_until(sim: &mut FleetSim, until: u64) {
    let now = sim.now();
    assert!(until >= now);
    sim.run_for(until - now);
}

#[test]
fn save_restore_is_bit_identical_to_uninterrupted_run() {
    for shards in 1usize..=8 {
        // Reference: one uninterrupted run.
        let mut reference = fleet(shards, 42);
        run_until(&mut reference, TOTAL);

        // Interrupted: run to k, serialize, restore, continue to T.
        for &k in &[1u64, 7 * MILLIS_PER_MIN, 29 * MILLIS_PER_MIN] {
            let mut first = fleet(shards, 42);
            run_until(&mut first, k);
            let bytes = first.snapshot_bytes();
            drop(first);
            let mut resumed = FleetSim::from_snapshot_bytes(&bytes).expect("restore");
            run_until(&mut resumed, TOTAL);

            assert_eq!(
                reference.events.fingerprint(),
                resumed.events.fingerprint(),
                "event-log fingerprint diverged (shards={shards}, k={k})"
            );
            assert_eq!(
                reference.snapshot_bytes(),
                resumed.snapshot_bytes(),
                "serialized fleet state diverged (shards={shards}, k={k})"
            );
        }
    }
}

#[test]
fn restore_rebuilds_scratch_and_keeps_counters() {
    let mut sim = fleet(1, 7);
    run_until(&mut sim, 10 * MILLIS_PER_MIN);
    let submitted: u64 = sim.nodes.iter().map(|n| n.queries_submitted).sum();
    assert!(submitted > 0);
    let bytes = sim.snapshot_bytes();
    let restored = FleetSim::from_snapshot_bytes(&bytes).expect("restore");
    assert_eq!(restored.now(), sim.now());
    assert_eq!(
        restored
            .nodes
            .iter()
            .map(|n| n.queries_submitted)
            .sum::<u64>(),
        submitted
    );
    assert_eq!(restored.events.fingerprint(), sim.events.fingerprint());
}

#[test]
fn corruption_is_detected_never_garbage() {
    let mut sim = fleet(1, 3);
    run_until(&mut sim, 2 * MILLIS_PER_MIN);
    let bytes = sim.snapshot_bytes();
    // Flip one bit somewhere in the middle of the fleet frame payload.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    assert!(
        FleetSim::from_snapshot_bytes(&corrupt).is_err(),
        "flipped bit must surface as SnapError"
    );
    // Truncation too.
    assert!(FleetSim::from_snapshot_bytes(&bytes[..bytes.len() - 9]).is_err());
}

/// Bursts, knob pushes, maintenance, replica changes and a fault, spread
/// over the run — every [`PlanAction`] payload shape crosses the snapshot.
fn plan() -> InteractionPlan {
    InteractionPlan::new(vec![
        PlanEvent {
            at: 4 * MILLIS_PER_MIN,
            node: 0,
            action: PlanAction::Burst {
                rate_qps: 400.0,
                duration_ms: 3 * MILLIS_PER_MIN,
            },
        },
        PlanEvent {
            at: 9 * MILLIS_PER_MIN,
            node: 1,
            action: PlanAction::KnobPush { value: 0.95 },
        },
        PlanEvent {
            at: 15 * MILLIS_PER_MIN,
            node: 2,
            action: PlanAction::Maintenance,
        },
        PlanEvent {
            at: 18 * MILLIS_PER_MIN,
            node: 3,
            action: PlanAction::AddReplica,
        },
        PlanEvent {
            at: 22 * MILLIS_PER_MIN,
            node: 0,
            action: PlanAction::Fault(FaultKind::DiskStall {
                duration_ms: 2 * MILLIS_PER_MIN,
                factor: 4.0,
            }),
        },
        PlanEvent {
            at: 26 * MILLIS_PER_MIN,
            node: 3,
            action: PlanAction::RemoveReplica,
        },
    ])
}

#[test]
fn interaction_plan_cursor_survives_restore() {
    let mut sim = fleet(1, 11);
    sim.enable_plan(plan());
    let mut reference = fleet(1, 11);
    reference.enable_plan(plan());
    run_until(&mut reference, TOTAL);

    run_until(&mut sim, 13 * MILLIS_PER_MIN);
    let bytes = sim.snapshot_bytes();
    let mut resumed = FleetSim::from_snapshot_bytes(&bytes).expect("restore");
    run_until(&mut resumed, TOTAL);
    assert_eq!(reference.events.fingerprint(), resumed.events.fingerprint());
    assert_eq!(reference.snapshot_bytes(), resumed.snapshot_bytes());
}
