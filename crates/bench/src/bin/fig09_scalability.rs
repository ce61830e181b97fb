//! Fig. 9 — "Requests per minute graph for 80 live connected databases".
//!
//! The same fleet is run under three tuning-request policies: TDE
//! event-driven, periodic 5-minute, and periodic 10-minute. Expectation:
//! the TDE curve sits well below both periodic curves and peaks when the
//! workload pattern shifts (the 8–11 AM microservice surge); the periodic
//! curves are flat at `fleet / period`. Fewer requests × the ~100–200 s
//! GPR service time is precisely what multiplies how many databases one
//! tuner deployment can serve.
//!
//! After the figure itself, a fleet-size sweep (48 → 10,000 services on
//! the sharded tick engine) reports drive throughput and tuning-request
//! load per size — how far past the paper's 80 databases one control
//! plane stretches.
//!
//! Flags: `--dbs 80 --hours 12 --tick 5` (defaults shown).

use autodbaas_bench::arg_value;
use autodbaas_bench::header;
use autodbaas_bench::longtail_fleet;
use autodbaas_bench::sparkline;
use autodbaas_bench::NodeSpec;
use autodbaas_cloudsim::{FleetConfig, FleetSim};
use autodbaas_core::{TdeConfig, TuningPolicy};
use autodbaas_ctrlplane::TunerKind;
use autodbaas_simdb::{DbFlavor, InstanceType};
use autodbaas_telemetry::outln;
use autodbaas_telemetry::{MILLIS_PER_HOUR, MILLIS_PER_MIN};
use autodbaas_tuner::WorkloadId;
use autodbaas_workload::{
    production, tpcc, twitter, wikipedia, ycsb, AdulteratedWorkload, ArrivalProcess,
    DiurnalProfile, QuerySource,
};

fn build_fleet(policy: TuningPolicy, n_dbs: usize, tick_ms: u64, seed: u64) -> FleetSim {
    let mut sim = FleetSim::new(
        FleetConfig {
            tick_ms,
            tde_period_ms: 5 * MILLIS_PER_MIN,
            gate_samples_with_tde: true,
            tuner: TunerKind::Bo,
            seed,
            ..FleetConfig::default()
        },
        12, // the paper's 12 tuner instances
    );
    let plans = [
        InstanceType::T2Small,
        InstanceType::T2Medium,
        InstanceType::M4Large,
        InstanceType::T2Large,
        InstanceType::M4XLarge,
    ];
    // Bootstrap like the paper: offline training on the standard mixes.
    sim.seed_offline_training(&tpcc(1.0), DbFlavor::Postgres, 16);
    sim.seed_offline_training(&ycsb(1.0), DbFlavor::Postgres, 12);

    for i in 0..n_dbs {
        // A realistic customer mix: some production-diurnal services, some
        // steady OLTP services, and every fifth one genuinely mis-tuned.
        let (workload, arrival, catalog): (Box<dyn QuerySource + Send>, ArrivalProcess, _) =
            match i % 5 {
                0 => {
                    let wl = AdulteratedWorkload::new(tpcc(1.0), 0.3);
                    let cat = wl.base().catalog().clone();
                    (Box::new(wl), ArrivalProcess::Constant(150.0), cat)
                }
                1 => {
                    // Diurnal production-like service (scaled per tenant).
                    let wl = production();
                    let cat = wl.catalog().clone();
                    let arr = ArrivalProcess::Diurnal(DiurnalProfile {
                        base_rps: 40.0,
                        peak_rps: 420.0,
                        ..DiurnalProfile::default()
                    });
                    (Box::new(wl), arr, cat)
                }
                2 => {
                    let wl = ycsb(1.0);
                    let cat = wl.catalog().clone();
                    (Box::new(wl), ArrivalProcess::Constant(250.0), cat)
                }
                3 => {
                    let wl = wikipedia(1.0);
                    let cat = wl.catalog().clone();
                    (Box::new(wl), ArrivalProcess::Constant(120.0), cat)
                }
                _ => {
                    let wl = twitter(1.0);
                    let cat = wl.catalog().clone();
                    (Box::new(wl), ArrivalProcess::Constant(300.0), cat)
                }
            };
        let node = NodeSpec::new(DbFlavor::Postgres, plans[i % plans.len()]).managed(
            catalog,
            workload,
            arrival,
            policy,
            WorkloadId(0),
            TdeConfig::default(),
            seed ^ (i as u64).wrapping_mul(0x45d9),
        );
        sim.add_node(node, &format!("db-{i}"));
    }
    sim
}

fn main() {
    let n_dbs: usize = arg_value("--dbs").map(|v| v.parse().unwrap()).unwrap_or(80);
    let hours: u64 = arg_value("--hours")
        .map(|v| v.parse().unwrap())
        .unwrap_or(12);
    let tick_s: u64 = arg_value("--tick").map(|v| v.parse().unwrap()).unwrap_or(5);
    header(
        "Fig. 9",
        &format!("tuning requests/min, {n_dbs} live databases over {hours} h"),
        "TDE-driven requests sit well below 5-/10-min periodic polling and \
         peak with the morning workload surge; periodic curves are flat",
    );

    let mut rows = Vec::new();
    for (name, policy) in [
        ("TDE-driven", TuningPolicy::TdeDriven),
        ("periodic 5 min", TuningPolicy::Periodic(5 * MILLIS_PER_MIN)),
        (
            "periodic 10 min",
            TuningPolicy::Periodic(10 * MILLIS_PER_MIN),
        ),
    ] {
        let mut sim = build_fleet(policy, n_dbs, tick_s * 1000, 42);
        sim.run_for(hours * MILLIS_PER_HOUR);
        let series = sim.director.requests_per_minute(0, hours * MILLIS_PER_HOUR);
        // 15-minute bins for readability.
        let binned: Vec<f64> = series
            .chunks(15)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        let total = sim.director.total_requests();
        let backlog = sim.director.backlog_ms(sim.now()) / 1000.0;
        let (_, _, dollars) = sim.meter.totals();
        let instances = sim.meter.instances_needed((hours * MILLIS_PER_HOUR) as f64);
        rows.push((name, binned, total, backlog, dollars, instances));
    }

    outln!("\nrequests/min (15-min bins across the run):");
    for (name, binned, ..) in &rows {
        sparkline(name, binned);
    }
    outln!(
        "\n{:<18} {:>11} {:>13} {:>15} {:>11} {:>9}",
        "policy",
        "total reqs",
        "reqs/min avg",
        "backlog (s)",
        "tuner $",
        "tuners"
    );
    for (name, _, total, backlog, dollars, instances) in &rows {
        outln!(
            "{:<18} {:>11} {:>13.2} {:>15.1} {:>11.2} {:>9}",
            name,
            total,
            *total as f64 / (hours * 60) as f64,
            backlog,
            dollars,
            instances
        );
    }
    let tde_total = rows[0].2;
    let p5_total = rows[1].2;
    assert!(
        tde_total < p5_total,
        "TDE-driven ({tde_total}) must undercut periodic 5-min ({p5_total})"
    );
    outln!("\nresult: the TDE breaks the periodic-polling floor — shape reproduced.");

    fleet_sweep();
}

/// Fleet-size sweep on the sharded tick engine: how far past the paper's
/// 80 connected databases one control plane stretches. A long-tail tenant
/// fleet (one hot tenant in 128) at each size runs ten simulated minutes;
/// the table reports drive throughput next to the tuning-request load the
/// director absorbed — the two axes that bound fleet capacity.
fn fleet_sweep() {
    let sim_min = 10u64;
    outln!("\nfleet-size sweep (sharded engine, {sim_min} sim-minutes each):");
    outln!(
        "{:>7} {:>10} {:>16} {:>7} {:>11} {:>13}",
        "nodes",
        "wall (s)",
        "node-ticks/s",
        "shards",
        "tune reqs",
        "reqs/min"
    );
    for n in [48usize, 512, 2048, 10_000] {
        let mut sim = longtail_fleet(n, 0, 42);
        let t = std::time::Instant::now();
        sim.run_for(sim_min * MILLIS_PER_MIN);
        let wall = t.elapsed().as_secs_f64();
        let node_ticks = (n as u64 * sim_min * 60) as f64;
        let reqs = sim.director.total_requests();
        outln!(
            "{n:>7} {wall:>10.2} {:>16.0} {:>7} {reqs:>11} {:>13.2}",
            node_ticks / wall,
            sim.shard_count(),
            reqs as f64 / sim_min as f64
        );
    }
}
