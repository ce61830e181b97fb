//! The two fleet-simulation workloads: `fleet_tpcc` and `prod_safetune`.
//!
//! One repetition builds the fleet from a seed, steps it over a fixed
//! simulated horizon timing every `FleetSim::step`, then checkpoints it
//! (`snapshot_bytes` + `from_snapshot_bytes`) and checks the restore.
//! `fleet_tpcc` repeats its workload seed until the run's wall-clock budget
//! is spent; repetitions of one seed are identical simulations, so their
//! event-log fingerprints and query totals must agree. `prod_safetune` runs
//! a fixed number of arms, each on a seed derived from the workload seed.
//! Wall timings are also reported host-normalised per repetition (see
//! `report::RefClock`).
//!
//! The traced repetition additionally classes every tick by what it did
//! and, at an early and a late point of the horizon, probes a restored copy
//! of the fleet layer by layer (engine drive, TDE run, reconcile, tuner
//! recommend, snapshot codec, per-component state bytes).

use crate::report::{median, percentile_sorted, RefClock};
use crate::trace::Tracer;
use crate::{Layers, Outcome};
use autodbaas_bench::NodeSpec;
use autodbaas_cloudsim::{FleetConfig, FleetSim};
use autodbaas_core::{TdeConfig, TuningPolicy};
use autodbaas_ctrlplane::ServiceId;
use autodbaas_simdb::{BackendKind, DbFlavor, InstanceType, MetricId};
use autodbaas_snapshot::encode_to_vec;
use autodbaas_telemetry::{MILLIS_PER_HOUR, MILLIS_PER_MIN};
use autodbaas_tuner::{BoTuner, Sample, SampleQuality, WorkloadId};
use autodbaas_workload::{tpcc, ArrivalProcess};
use std::time::{Duration, Instant};

/// A simulated-fleet workload.
pub struct SimWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Simulated time one repetition steps.
    pub horizon_ms: u64,
    /// Simulated time of the early probe point (traced run).
    pub early_ms: u64,
    /// Builds the fleet from a seed.
    pub build: fn(u64) -> FleetSim,
    /// `None`: every repetition builds from the workload seed and they
    /// repeat until the run's budget is spent. `Some(k)`: exactly `k`
    /// repetitions, each on its own seed derived from the workload seed —
    /// for a fleet too small to average out how its seed steers it.
    pub arms: Option<usize>,
}

/// Seed of arm `i` of a run with workload seed `seed`.
fn arm_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// 48 page-heap Postgres services (M4Large, SSD, `tpcc(0.5)`) at a
/// constant 250 qps, TDE-driven tuning, `FleetConfig` defaults and the
/// paper's 12 tuner instances; the default (unsharded) tick engine.
pub const FLEET_TPCC: SimWorkload = SimWorkload {
    name: "fleet_tpcc",
    horizon_ms: MILLIS_PER_HOUR,
    early_ms: 10 * MILLIS_PER_MIN,
    build: build_fleet_tpcc,
    arms: None,
};

/// The guarded arm of the safe-tuning rig: one page-heap and one LSM
/// service on the adulterated production trace, aggressive BO under the
/// `SafetyGovernor`, periodic 10-minute tuning.
///
/// How fast the TDE-gated BO training set fills depends strongly on the
/// seed (throttled-window share 0.11 to 0.53 over 24 h on seeds 101-110),
/// and with it how soon recommendations reach the 300-sample cap and get
/// expensive. One arm over four days varied 35% in node-hours per second
/// from seed to seed, three arms of 36 h each 10%; four arms of 24 h each,
/// seeded from the workload seed, average it out further.
pub const PROD_SAFETUNE: SimWorkload = SimWorkload {
    name: "prod_safetune",
    horizon_ms: 24 * MILLIS_PER_HOUR,
    early_ms: 4 * MILLIS_PER_HOUR,
    build: build_prod_safetune,
    arms: Some(4),
};

fn build_fleet_tpcc(seed: u64) -> FleetSim {
    let mut sim = FleetSim::new(
        FleetConfig {
            seed,
            ..FleetConfig::default()
        },
        12,
    );
    let spec = NodeSpec::new(DbFlavor::Postgres, InstanceType::M4Large);
    for i in 0..48u64 {
        let wl = tpcc(0.5);
        let catalog = wl.catalog().clone();
        let node = spec.managed(
            catalog,
            Box::new(wl),
            ArrivalProcess::Constant(250.0),
            TuningPolicy::TdeDriven,
            WorkloadId(0),
            TdeConfig::default(),
            seed ^ i.wrapping_mul(0x9e37_79b9),
        );
        sim.add_node(node, &format!("tpcc-{i}"));
    }
    sim
}

fn build_prod_safetune(seed: u64) -> FleetSim {
    autodbaas_bench::safetune::production_arm(true, 2, seed)
}

/// What one repetition measured and checked.
struct Rep {
    seed: u64,
    /// Host speed over this repetition's stepping (see `RefClock`).
    speed: f64,
    setup_s: f64,
    stepping_s: f64,
    tick_ns: Vec<u64>,
    checkpoint_s: f64,
    fingerprint: u64,
    total_queries: u64,
    offered: f64,
    dropped: f64,
    node_hours: f64,
    nodes: usize,
    state_bytes: usize,
    requests: usize,
    regret: Option<f64>,
    /// Failed checks, by description.
    failures: Vec<String>,
}

/// Tick classes of the traced run, by what the tick did.
const STEP_TRAFFIC: &str = "cloudsim.step.traffic";
const STEP_TDE: &str = "cloudsim.step.tde";
const STEP_REC: &str = "cloudsim.step.rec";

fn recommendations(sim: &FleetSim) -> usize {
    (0..sim.nodes.len())
        .map(|i| {
            sim.director
                .recommendation_history(ServiceId(i as u64))
                .len()
        })
        .sum()
}

/// Build, step the horizon, checkpoint and check. With a tracer, ticks are
/// recorded as classed spans and the fleet is probed at `early_ms` and at
/// the end of the horizon.
fn rep(
    w: &SimWorkload,
    seed: u64,
    refclock: &mut RefClock,
    mut traced: Option<(&mut Tracer, &mut Layers)>,
) -> Rep {
    let t = Instant::now();
    let mut sim = (w.build)(seed);
    let setup_s = t.elapsed().as_secs_f64();
    let tick_ms = sim.config().tick_ms;
    let n_ticks = w.horizon_ms / tick_ms;
    let mut tick_ns = Vec::with_capacity(n_ticks as usize);

    // Probes of the traced run happen between ticks; their time is taken
    // out of the stepping time.
    let mut probe_s = 0.0;
    let mut ref_ns = 0u64;
    let mark = refclock.len();
    let t_step = Instant::now();
    for _ in 0..n_ticks {
        match traced.as_mut() {
            None => {
                let t = Instant::now();
                sim.step();
                tick_ns.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                ref_ns += refclock.tick();
            }
            Some((tr, layers)) => {
                let windows = sim.director.windows_ingested();
                let recs = recommendations(&sim);
                let id = tr.enter(STEP_TRAFFIC);
                let t = Instant::now();
                sim.step();
                tick_ns.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                let class = if recommendations(&sim) > recs {
                    STEP_REC
                } else if sim.director.windows_ingested() > windows {
                    STEP_TDE
                } else {
                    STEP_TRAFFIC
                };
                tr.exit_as(id, class);
                ref_ns += refclock.tick();
                if sim.now() == w.early_ms {
                    let t = Instant::now();
                    probe(&sim, Point::Early, seed, tr, layers);
                    probe_s += t.elapsed().as_secs_f64();
                }
            }
        }
    }
    let stepping_s = t_step.elapsed().as_secs_f64() - probe_s - ref_ns as f64 / 1e9;
    let speed = refclock.speed_since(mark);
    if let Some((tr, layers)) = traced.as_mut() {
        probe(&sim, Point::Late, seed, tr, layers);
        fleet_layers(&sim, tr, layers);
    }

    let mut failures = Vec::new();
    let wedged = sim.wedged_nodes();
    if !wedged.is_empty() {
        failures.push(format!("wedged nodes at end of horizon: {wedged:?}"));
    }
    let availability = sim.availability();
    if availability != 1.0 {
        failures.push(format!("availability {availability} != 1.0"));
    }

    let nodes = sim.nodes.len();
    let fingerprint = sim.events.fingerprint();
    let total_queries = sim.nodes.iter().map(|n| n.queries_submitted).sum();
    let (mut offered, mut dropped) = (0.0, 0.0);
    for n in &sim.nodes {
        let m = n.db().metrics();
        let d = m.get(MetricId::QueriesDropped);
        offered += m.get(MetricId::QueriesExecuted) + d;
        dropped += d;
    }
    let requests = sim.director.total_requests();
    let regret = sim.safety().map(|g| g.cumulative_regret());

    // The end-of-horizon checkpoint: save + restore, timed together.
    let t = Instant::now();
    let bytes = sim.snapshot_bytes();
    let restored = FleetSim::from_snapshot_bytes(&bytes);
    let checkpoint_s = t.elapsed().as_secs_f64();
    match restored {
        Ok(r) => {
            if r.snapshot_bytes() != bytes {
                failures.push("restored checkpoint does not re-encode byte-identical".into());
            }
            if r.events.fingerprint() != fingerprint {
                failures.push("restored checkpoint changed the event-log fingerprint".into());
            }
        }
        Err(e) => failures.push(format!("checkpoint does not restore: {e}")),
    }

    Rep {
        seed,
        speed,
        setup_s,
        stepping_s,
        tick_ns,
        checkpoint_s,
        fingerprint,
        total_queries,
        offered,
        dropped,
        node_hours: nodes as f64 * (n_ticks * tick_ms) as f64 / MILLIS_PER_HOUR as f64,
        nodes,
        state_bytes: bytes.len(),
        requests,
        regret,
        failures,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Point {
    Early,
    Late,
}

impl Point {
    fn label(self) -> &'static str {
        match self {
            Point::Early => "early",
            Point::Late => "late",
        }
    }
}

/// Probe a restored copy of `sim` layer by layer. The copy is stepped and
/// tuned outside the real run, so the measured run is left untouched.
fn probe(sim: &FleetSim, point: Point, seed: u64, tr: &mut Tracer, layers: &mut Layers) {
    let (enc, dec, tde) = match point {
        Point::Early => (
            "snapshot.encode.early",
            "snapshot.decode.early",
            "core.tde_run.early",
        ),
        Point::Late => (
            "snapshot.encode.late",
            "snapshot.decode.late",
            "core.tde_run.late",
        ),
    };
    let bytes = tr.span(enc, || sim.snapshot_bytes());
    let mut copy = tr
        .span(dec, || FleetSim::from_snapshot_bytes(&bytes))
        .expect("a fresh snapshot restores");
    drop(bytes);

    // State bytes per node, by component.
    let n = copy.nodes.len() as f64;
    let per_node = |total: usize| total as f64 / n;
    let service: usize = copy
        .nodes
        .iter()
        .map(|d| encode_to_vec(&d.service).len())
        .sum();
    let tde_bytes: usize = copy.nodes.iter().map(|d| encode_to_vec(&d.tde).len()).sum();
    let label = point.label();
    for (component, total) in [
        ("service", service),
        ("tde", tde_bytes),
        ("repo", encode_to_vec(&copy.repo).len()),
        ("director", encode_to_vec(&copy.director).len()),
        ("events", encode_to_vec(&copy.events).len()),
    ] {
        layers.set(
            &format!("snapshot.bytes.{component}.{label}"),
            per_node(total),
        );
    }

    // One TDE window of engine traffic per node, then one TDE run each.
    let tick_ms = copy.config().tick_ms;
    let window_ticks = copy.config().tde_period_ms / tick_ms;
    for _ in 0..window_ticks {
        for node in &mut copy.nodes {
            let name = match node.db().kind() {
                BackendKind::Lsm => "simdb.drive.lsm",
                _ => "simdb.drive.pageheap",
            };
            let d = tr.span(name, || node.drive(tick_ms));
            layers.add("simdb.queries", d.submitted as f64);
            layers.add("simdb.drives", 1.0);
        }
    }
    for node in &mut copy.nodes {
        tr.span(tde, || {
            node.tde.run(node.service.master_mut(), Some(&copy.repo))
        });
    }
    tr.span("ctrlplane.reconcile_all", || copy.reconcile_all());

    if point == Point::Late {
        tuner_probe(&mut copy, seed, tr, layers);
    }
}

/// Recommend on the run's repository with the rig's `BoConfig`, then
/// replay recommend + `add_sample` rounds to see how often the surrogate
/// cache is extended rather than refitted.
fn tuner_probe(copy: &mut FleetSim, seed: u64, tr: &mut Tracer, layers: &mut Layers) {
    let cfg = copy.config().bo.clone();
    let mut bo = BoTuner::new(cfg.clone(), seed);
    let mut train_n = 0usize;
    for node in copy.nodes.iter().take(8) {
        let focus: Vec<usize> = node
            .last_report
            .throttles
            .iter()
            .map(|t| t.knob.0 as usize)
            .collect();
        let rec = tr.span("tuner.recommend", || {
            bo.recommend_focused(&copy.repo, node.workload_id, &focus)
        });
        if let Some(rec) = rec {
            train_n = train_n.max(rec.train_samples);
        }
    }
    layers.set("tuner.train_n", train_n as f64);

    let Some(target) = copy
        .nodes
        .iter()
        .map(|n| n.workload_id)
        .find(|&id| !copy.repo.workload(id).samples.is_empty())
    else {
        return;
    };
    let metrics = copy.repo.workload(target).samples[0].metrics.clone();
    let mut replay = BoTuner::new(cfg, seed ^ 0x5eed);
    for _ in 0..8 {
        let Some(rec) = replay.recommend(&copy.repo, target) else {
            break;
        };
        copy.repo.add_sample(
            target,
            Sample {
                config: rec.config,
                metrics: metrics.clone(),
                objective: rec.expected_objective,
                quality: SampleQuality::High,
            },
        );
    }
    let stats = replay.stats();
    let maintained = (stats.full_fits + stats.incremental_extends) as f64;
    if maintained > 0.0 {
        layers.set(
            "tuner.cache_reuse_frac",
            stats.incremental_extends as f64 / maintained,
        );
    }
}

/// Per-layer metrics derived from the traced run's spans and end state.
fn fleet_layers(sim: &FleetSim, tr: &Tracer, layers: &mut Layers) {
    let totals = tr.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let classes = [
        ("traffic", get(STEP_TRAFFIC)),
        ("tde", get(STEP_TDE)),
        ("rec", get(STEP_REC)),
    ];
    let all_ns: u64 = classes.iter().map(|(_, t)| t.total_ns).sum();
    for (class, t) in classes {
        layers.set(&format!("cloudsim.step_{class}_us"), t.mean_self_us());
        layers.set(
            &format!("cloudsim.share.{class}"),
            t.total_ns as f64 / all_ns.max(1) as f64,
        );
    }
    layers.set(
        "simdb.drive_us.pageheap",
        get("simdb.drive.pageheap").mean_self_us(),
    );
    layers.set("simdb.drive_us.lsm", get("simdb.drive.lsm").mean_self_us());
    let drives = layers.get("simdb.drives").max(1.0);
    layers.set(
        "simdb.queries_per_drive",
        layers.get("simdb.queries") / drives,
    );

    let sum = |id: MetricId| -> f64 { sim.nodes.iter().map(|n| n.db().metrics().get(id)).sum() };
    let (hit, read) = (sum(MetricId::BlksHit), sum(MetricId::BlksRead));
    layers.set("simdb.buffer_hit_ratio", hit / (hit + read).max(1.0));
    let (spills, in_mem) = (sum(MetricId::SortSpills), sum(MetricId::SortsInMemory));
    layers.set("simdb.spill_ratio", spills / (spills + in_mem).max(1.0));

    layers.set(
        "core.tde_run_us.early",
        get("core.tde_run.early").mean_self_us(),
    );
    layers.set(
        "core.tde_run_us.late",
        get("core.tde_run.late").mean_self_us(),
    );
    let raised: u64 = sim.nodes.iter().map(|n| n.tde.tuning_requests()).sum();
    layers.set(
        "core.throttle_frac",
        raised as f64 / sim.director.windows_ingested().max(1) as f64,
    );

    layers.set(
        "tuner.recommend_ms",
        get("tuner.recommend").mean_self_us() / 1e3,
    );
    layers.set(
        "ctrlplane.reconcile_all_us",
        get("ctrlplane.reconcile_all").mean_self_us(),
    );
    layers.set(
        "ctrlplane.director_requests",
        sim.director.total_requests() as f64,
    );
    layers.set(
        "snapshot.encode_ms",
        get("snapshot.encode.late").mean_self_us() / 1e3,
    );
    layers.set(
        "snapshot.decode_ms",
        get("snapshot.decode.late").mean_self_us() / 1e3,
    );
    for component in ["service", "tde", "repo", "director", "events"] {
        let early = layers.get(&format!("snapshot.bytes.{component}.early"));
        let late = layers.get(&format!("snapshot.bytes.{component}.late"));
        if early > 0.0 {
            layers.set(&format!("snapshot.growth.{component}"), late / early);
        }
    }
    layers.set("telemetry.events", sim.events.len() as f64);
}

/// Run `w` for about `seconds` of wall time (at least one repetition).
pub fn run(
    w: &SimWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
    refclock: &mut RefClock,
) -> Outcome {
    let mut out = Outcome::new(w.name);
    let started = Instant::now();

    // Set-up is cheap next to a repetition, so it is timed on its own,
    // first, in a fresh process: 101 builds, the median reported, the
    // reference kernel sampled right after for the host speed.
    let setup_mark = refclock.len();
    let setups: Vec<f64> = (0..101)
        .map(|_| {
            let t = Instant::now();
            let sim = (w.build)(arm_seed(seed, 0));
            let s = t.elapsed().as_secs_f64();
            drop(sim);
            s
        })
        .collect();
    refclock.sample(10);
    let setup_speed = refclock.speed_since(setup_mark);
    let budget = Duration::from_secs_f64(seconds);
    let mut reps: Vec<Rep> = Vec::new();

    if trace {
        // One untraced and one traced repetition of the same seed: the
        // work-rate difference between them is the tracing overhead.
        let seed = arm_seed(seed, 0);
        let plain = rep(w, seed, refclock, None);
        let mut tr = Tracer::new();
        let mut layers = Layers::default();
        let traced = rep(w, seed, refclock, Some((&mut tr, &mut layers)));
        let plain_rate = plain.node_hours / plain.stepping_s / plain.speed;
        let traced_rate = traced.node_hours / traced.stepping_s / traced.speed;
        layers.set(
            "trace.overhead_frac",
            (plain_rate - traced_rate) / plain_rate,
        );
        out.layers = Some(layers);
        out.tracer = Some(tr);
        reps.push(plain);
        reps.push(traced);
    } else if let Some(arms) = w.arms {
        for i in 0..arms {
            reps.push(rep(w, arm_seed(seed, i), refclock, None));
        }
    } else {
        loop {
            let t = Instant::now();
            reps.push(rep(w, seed, refclock, None));
            let last = t.elapsed();
            if started.elapsed() + last > budget {
                break;
            }
        }
    }

    for (i, r) in reps.iter().enumerate() {
        out.line(format!(
            "rep {i}: seed={} fingerprint={:#018x} total_queries={} setup_s={:.6} stepping_s={:.3} checkpoint_s={:.3}",
            r.seed, r.fingerprint, r.total_queries, r.setup_s, r.stepping_s, r.checkpoint_s
        ));
        if let Some(prev) = reps[..i].iter().position(|p| p.seed == r.seed) {
            let p = &reps[prev];
            if (r.fingerprint, r.total_queries) != (p.fingerprint, p.total_queries) {
                out.fail(format!(
                    "rep {i} diverged from rep {prev} of the same seed (fingerprint or total queries)"
                ));
            }
        }
        for f in &r.failures {
            out.fail(format!("rep {i}: {f}"));
        }
    }
    // One repetition per distinct seed stands for the run's simulated
    // outcome.
    let distinct: Vec<&Rep> = reps
        .iter()
        .enumerate()
        .filter(|(i, r)| !reps[..*i].iter().any(|p| p.seed == r.seed))
        .map(|(_, r)| r)
        .collect();
    let fingerprints: Vec<String> = distinct
        .iter()
        .map(|r| format!("{:#018x}", r.fingerprint))
        .collect();
    out.check("fingerprint", fingerprints.join(","));
    let total = |f: fn(&Rep) -> f64| distinct.iter().map(|r| f(r)).sum::<f64>();
    out.check(
        "total_queries",
        distinct
            .iter()
            .map(|r| r.total_queries)
            .sum::<u64>()
            .to_string(),
    );

    // Wall figures, and the same normalised by each repetition's own host
    // speed. The work rate pools every repetition: total node-hours over
    // total stepping time.
    let node_hours: f64 = reps.iter().map(|r| r.node_hours).sum();
    let rate = node_hours / reps.iter().map(|r| r.stepping_s).sum::<f64>();
    let rate_norm = node_hours / reps.iter().map(|r| r.stepping_s * r.speed).sum::<f64>();
    let mut ticks: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.tick_ns.iter().copied())
        .collect();
    let mut ticks_norm: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.tick_ns.iter().map(|&ns| (ns as f64 * r.speed) as u64))
        .collect();
    ticks.sort_unstable();
    ticks_norm.sort_unstable();
    let pct_us = |v: &[u64], p| percentile_sorted(v, p) as f64 / 1e3;
    let checkpoint_s = median(&reps.iter().map(|r| r.checkpoint_s).collect::<Vec<_>>());
    let distinct_hours = total(|r| r.node_hours);
    let distinct_nodes = total(|r| r.nodes as f64);

    let setup = median(&setups);
    out.e2e("setup_s", setup, setup * setup_speed, "s");
    out.e2e("work_per_s", rate, rate_norm, "1/s");
    out.e2e(
        "op_p50_us",
        pct_us(&ticks, 50.0),
        pct_us(&ticks_norm, 50.0),
        "us",
    );
    out.e2e(
        "op_p99_us",
        pct_us(&ticks, 99.0),
        pct_us(&ticks_norm, 99.0),
        "us",
    );

    out.detail("node_hours_per_s", rate, "1/s");
    out.detail("checkpoint_s", checkpoint_s, "s");
    out.detail(
        "state_mb_per_node",
        total(|r| r.state_bytes as f64) / distinct_nodes / 1e6,
        "MB",
    );
    out.detail(
        "tuning_requests_per_node_hour",
        total(|r| r.requests as f64) / distinct_hours,
        "1/h",
    );
    if distinct.iter().all(|r| r.regret.is_some()) {
        let regret = total(|r| r.regret.unwrap_or(0.0));
        out.detail(
            "regret_per_node_day",
            regret / (distinct_hours / 24.0),
            "1/d",
        );
    }
    out.detail(
        "failed_frac",
        total(|r| r.dropped) / total(|r| r.offered).max(1.0),
        "frac",
    );
    out.detail("tick_samples", ticks.len() as f64, "count");
    out.detail("reps", reps.len() as f64, "count");

    // Operations: every tick stepped and every checkpoint taken.
    out.attempted = reps.iter().map(|r| r.tick_ns.len() as u64 + 1).sum();
    out
}
