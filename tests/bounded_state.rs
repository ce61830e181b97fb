//! Per-service state stays bounded however long a run lasts.
//!
//! One page-heap TPC-C node at 250 qps, encoded component by component at
//! 5 and at 8 simulated hours. Both points are past the fleet's longest
//! ring buffers (16,384 one-second ticks, about 4.6 h), so any component
//! still growing between them grows with simulated time: a leak.

use autodbaas::cloudsim::{FleetConfig, FleetSim, ManagedDatabase};
use autodbaas::prelude::*;
use autodbaas::tde::TdeConfig;
use autodbaas::telemetry::MILLIS_PER_HOUR;
use autodbaas::tuner::WorkloadId;
use autodbaas_snapshot::encode_to_vec;

/// Encoded bytes of the node's TDE and its service.
fn component_bytes(sim: &FleetSim) -> [(&'static str, usize); 2] {
    let node = &sim.nodes[0];
    [
        ("tde", encode_to_vec(&node.tde).len()),
        ("service", encode_to_vec(&node.service).len()),
    ]
}

#[test]
fn node_state_is_flat_in_simulated_time() {
    let mut sim = FleetSim::new(
        FleetConfig {
            seed: 7,
            ..FleetConfig::default()
        },
        1,
    );
    let wl = tpcc(0.5);
    let catalog = wl.catalog().clone();
    let node = ManagedDatabase::new(
        DbFlavor::Postgres,
        InstanceType::M4Large,
        DiskKind::Ssd,
        catalog,
        Box::new(wl),
        ArrivalProcess::Constant(250.0),
        TuningPolicy::TdeDriven,
        WorkloadId(0),
        TdeConfig::default(),
        7,
    );
    sim.add_node(node, "tpcc-0");

    sim.run_for(5 * MILLIS_PER_HOUR);
    let early = component_bytes(&sim);
    sim.run_for(3 * MILLIS_PER_HOUR);
    let late = component_bytes(&sim);

    for ((name, at5), (_, at8)) in early.into_iter().zip(late) {
        assert!(
            at8 as f64 <= at5 as f64 * 1.01,
            "{name} state grew from {at5} B at 5 h to {at8} B at 8 h"
        );
    }
}
