//! Shared plumbing for the figure-regeneration binaries.

use autodbaas_cloudsim::{FleetConfig, FleetSim};
use autodbaas_core::{TdeConfig, TuningPolicy};
use autodbaas_simdb::{AnyBackend, Catalog, DbFlavor, DiskKind, InstanceType, MetricId};
use autodbaas_telemetry::outln;
use autodbaas_tuner::{normalize_config, Sample, SampleQuality, WorkloadId, WorkloadRepository};
use autodbaas_workload::{tpcc, ArrivalProcess, MixWorkload, QuerySource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Print a figure header in a consistent style.
pub fn header(id: &str, title: &str, paper_expectation: &str) {
    outln!("==================================================================");
    outln!("{id}: {title}");
    outln!("paper expectation: {paper_expectation}");
    outln!("==================================================================");
}

/// Print an ASCII sparkline for a series (keeps the binaries dependency-
/// free while still showing shape at a glance).
pub fn sparkline(label: &str, series: &[f64]) {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = series.iter().cloned().fold(f64::MIN, f64::max);
    let min = series.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    let line: String = series
        .iter()
        .map(|v| GLYPHS[(((v - min) / span) * 7.0).round() as usize])
        .collect();
    outln!("{label:<28} {line}  [min {min:.1}, max {max:.1}]");
}

/// A standard single-database rig for figure experiments.
pub struct Rig {
    /// The database under test (any backend adapter).
    pub db: AnyBackend,
    /// RNG for workload sampling.
    pub rng: StdRng,
}

impl Rig {
    /// Build a rig on the given instance for a workload's catalog.
    pub fn new(flavor: DbFlavor, instance: InstanceType, catalog: Catalog, seed: u64) -> Self {
        Self::new_with_disk(flavor, instance, DiskKind::Ssd, catalog, seed)
    }

    /// Like [`Rig::new`] with an explicit disk technology.
    pub fn new_with_disk(
        flavor: DbFlavor,
        instance: InstanceType,
        disk: DiskKind,
        catalog: Catalog,
        seed: u64,
    ) -> Self {
        Self {
            db: crate::NodeSpec::new(flavor, instance)
                .with_disk(disk)
                .db(catalog, seed),
            rng: StdRng::seed_from_u64(seed ^ 0xbead),
        }
    }

    /// Drive `rate` queries/second of `workload` for `secs` seconds with
    /// `shapes` distinct statements per second.
    pub fn drive(&mut self, workload: &dyn QuerySource, rate: u64, secs: u64, shapes: u64) {
        let shapes = shapes.max(1);
        for _ in 0..secs {
            let per = (rate / shapes).max(1);
            for _ in 0..shapes {
                let q = workload.next_query(&mut self.rng);
                let _ = self.db.submit(&q, per);
            }
            self.db.tick(1_000);
        }
    }

    /// Completed-queries-per-second over the last `secs` window given a
    /// snapshot from the start of the window.
    pub fn qps_since(&self, snap: &autodbaas_simdb::MetricsSnapshot, secs: u64) -> f64 {
        let delta = self.db.metrics_snapshot().delta(snap);
        delta[MetricId::QueriesExecuted.index()] / secs.max(1) as f64
    }
}

/// Populate a repository with offline training samples for `workload` —
/// random reloadable configs, short intense runs (the §5 bootstrap).
pub fn seed_offline(
    repo: &mut WorkloadRepository,
    workload: &MixWorkload,
    flavor: DbFlavor,
    n_samples: usize,
    seed: u64,
) -> WorkloadId {
    let id = repo.register(format!("{}-offline", workload.name()), true);
    let profile = autodbaas_simdb::KnobProfile::for_flavor(flavor);
    let mut rng = StdRng::seed_from_u64(seed);
    for s in 0..n_samples {
        let mut db = crate::NodeSpec::new(flavor, InstanceType::M4XLarge).db(
            workload.catalog().clone(),
            seed ^ (s as u64).wrapping_mul(0x9e37),
        );
        let unit: Vec<f64> = (0..profile.len()).map(|_| rng.gen()).collect();
        let raw = autodbaas_tuner::denormalize_config(&profile, &unit);
        for (i, (kid, spec)) in profile.iter().enumerate() {
            if !spec.restart_required {
                db.set_knob_direct(kid, raw[i]);
            }
        }
        // Offline executions push the database hard — "TPCC … continuously
        // … with 3000 requests per second will generate a high quality
        // sample" (§1). Driving at 2x the nominal rate keeps the instance
        // near capacity so every knob class leaves a mark on the objective.
        let rate = 2 * match workload.default_arrival() {
            autodbaas_workload::ArrivalProcess::Constant(r) => *r as u64,
            _ => 1_000,
        };
        // 60 one-second ticks: the sample window matches the TDE's default
        // observation window, so repository baselines convert correctly.
        let before = db.metrics_snapshot();
        for _ in 0..60 {
            for _ in 0..8 {
                let q = workload.next_query(&mut rng);
                let _ = db.submit(&q, (rate / 8).max(1));
            }
            db.tick(1_000);
        }
        let delta = db.metrics_snapshot().delta(&before);
        let objective = delta[MetricId::QueriesExecuted.index()] / 60.0;
        repo.add_sample(
            id,
            Sample {
                config: normalize_config(&profile, db.knobs().as_vec()),
                metrics: delta,
                objective,
                quality: SampleQuality::High,
            },
        );
    }
    id
}

/// A long-tail tenant fleet for drive-engine scaling runs: `n` managed
/// Postgres services on one-second ticks, with one tenant in 128 actively
/// serving 2 rps of TPC-C traffic and the rest idle — the shape of a real
/// DBaaS fleet, where a thin head of hot tenants rides on a long idle
/// tail. `shards = 0` leaves the shard count to auto resolution; a
/// positive value pins it (the determinism smokes force it wide, the
/// races pin one shard as the reference). Deterministic for a given
/// `seed`, and bit-identical across shard counts.
pub fn longtail_fleet(n: usize, shards: usize, seed: u64) -> FleetSim {
    let mut sim = FleetSim::new(
        FleetConfig {
            seed,
            shards,
            ..FleetConfig::default()
        },
        2,
    );
    let proto = tpcc(0.5);
    let catalog = proto.catalog().clone();
    for i in 0..n {
        let arrival = if i % 128 == 0 {
            ArrivalProcess::Constant(2.0)
        } else {
            ArrivalProcess::Constant(0.0)
        };
        let node = crate::NodeSpec::new(DbFlavor::Postgres, InstanceType::M4Large).managed(
            catalog.clone(),
            Box::new(tpcc(0.5)),
            arrival,
            TuningPolicy::TdeDriven,
            WorkloadId(0),
            TdeConfig::default(),
            seed ^ (i as u64).wrapping_mul(0x45d9),
        );
        sim.add_node(node, &format!("db-{i}"));
    }
    sim
}

/// One interleaved one-shard-vs-sharded comparison over two lockstep sims.
///
/// Every shard count is bit-identical, so after every chunk the two sims
/// are in the same simulated state and each chunk measures the same work.
/// Chunks alternate which side runs first (a shared host's slow phases
/// cannot systematically tax one side) and each side reports its *fastest*
/// chunk — the least-interference estimate of its true cost. `serial` is
/// the one-shard reference. Returns `(serial_ms, sharded_ms)` per chunk;
/// panics if the two diverge.
pub fn race_engines(
    serial: &mut FleetSim,
    sharded: &mut FleetSim,
    chunk_ms: u64,
    reps: usize,
) -> (f64, f64) {
    let mut serial_best = f64::MAX;
    let mut sharded_best = f64::MAX;
    for rep in 0..reps {
        let serial_first = rep % 2 == 0;
        for leg in 0..2 {
            let serial_turn = (leg == 0) == serial_first;
            let sim: &mut FleetSim = if serial_turn { serial } else { sharded };
            let t = std::time::Instant::now();
            sim.run_for(chunk_ms);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if serial_turn {
                serial_best = serial_best.min(ms);
            } else {
                sharded_best = sharded_best.min(ms);
            }
        }
    }
    assert_eq!(
        serial.events.fingerprint(),
        sharded.events.fingerprint(),
        "sharded drive must be bit-identical to one shard"
    );
    let q = |sim: &FleetSim| -> u64 { sim.nodes.iter().map(|n| n.queries_submitted).sum() };
    assert_eq!(
        q(serial),
        q(sharded),
        "shard counts diverged on accepted queries"
    );
    (serial_best, sharded_best)
}

/// Parse a simple `--flag value` style argument.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}
