//! The fleet simulator: N managed databases, a config director, a tuner
//! backend and the shared workload repository, advanced in lockstep ticks
//! with an event queue for recommendation completions.
//!
//! This is the machinery behind the paper's §5 experiments: the 80-database
//! scalability run (Fig. 9), the throttle censuses (Figs. 10/11/14), and
//! the throughput-with/without-TDE comparisons (Figs. 12/13).

use crate::faults::{FaultEngine, FaultEvent, FaultKind, FaultPlan};
use crate::node::{DeferredApply, InFlightRequest, ManagedDatabase, RollbackGuard};
use crate::plan::{InteractionPlan, PlanAction, PlanEngine, PlanEvent};
use crate::safety::{SafetyConfig, SafetyGovernor};
use crate::shard::{DriveStats, HotState, ShardPool};

use autodbaas_ctrlplane::{
    ApplyError, ConfigDirector, RecommendationMeter, ReconcileOutcome, Reconciler, ServiceId,
    ServiceOrchestrator, TunerKind, WindowStat,
};
use autodbaas_simdb::{AnyBackend, ApplyMode, ConfigChange, MetricId};
use autodbaas_telemetry::{EventLog, SimTime};
use autodbaas_tuner::{
    assess_quality, denormalize_config, normalize_config, BoConfig, BoTuner, RlConfig, RlTuner,
    Sample, SampleQuality, Transition, WorkloadRepository,
};
use autodbaas_workload::{ArrivalProcess, MixWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Simulation tick.
    pub tick_ms: u64,
    /// TDE cadence = observation-window length.
    pub tde_period_ms: u64,
    /// When true, samples enter the repository only from windows in which
    /// the TDE raised a throttle — "Ottertune only captures high quality
    /// samples from TDE" (Fig. 12's gated mode).
    pub gate_samples_with_tde: bool,
    /// Tuner style behind the director.
    pub tuner: TunerKind,
    /// BO tuner settings.
    pub bo: BoConfig,
    /// RL tuner settings.
    pub rl: RlConfig,
    /// When false, recommendations are computed but never applied (the
    /// Fig. 10/11 throttle census runs without tuning sessions).
    pub apply_recommendations: bool,
    /// Master seed.
    pub seed: u64,
    /// Shard count of the tick engine: `0` resolves automatically to the
    /// machine's available parallelism, capped so no shard owns fewer than
    /// 8 nodes. An explicit count is taken as-is
    /// (clamped to `[1, nodes]`), cap skipped. Shard 0 runs on the stepping
    /// thread itself, so one shard is the plain serial loop. Node order and
    /// RNG streams are per-node, so every shard count produces bit-identical
    /// fleets (pinned by `any_shard_count_drives_the_same_fleet` and the
    /// `serial_and_sharded_fleets_are_bit_identical` property test).
    pub shards: usize,
    /// How long past its promised `ready_at` a tuning request may wait for
    /// its recommendation before the node gives up and retries. Counted
    /// from `ready_at` (not submission) so director backlog under
    /// saturation never triggers spurious retries.
    pub request_timeout_ms: u64,
    /// Base of the exponential retry backoff for timed-out requests.
    pub retry_base_ms: u64,
    /// Retries (of a timed-out request, or of a lag-refused apply) before
    /// the recommendation is abandoned cleanly.
    pub retry_max_attempts: u32,
    /// Reconciler watcher timeout (§4): drift older than this is forced
    /// back to the persisted config.
    pub watcher_timeout_ms: u64,
    /// Replica-lag guard for applies: a recommendation is deferred (with
    /// backoff) while any slave lags more than this many bytes.
    pub max_apply_lag_bytes: u64,
    /// Post-apply safety rollback; `None` disables the guard.
    pub rollback: Option<RollbackPolicy>,
}

/// Safe-tuning rollback guard settings (OnlineTune-style safety).
#[derive(Debug, Clone, Copy)]
pub struct RollbackPolicy {
    /// Roll back when a post-apply window's objective drops below
    /// `baseline × (1 − regression_frac)`.
    pub regression_frac: f64,
    /// Clean observation windows before the applied config is accepted and
    /// the guard disarms.
    pub observe_windows: u32,
}

impl Default for RollbackPolicy {
    fn default() -> Self {
        Self {
            regression_frac: 0.25,
            observe_windows: 3,
        }
    }
}

/// Minimum nodes per worker shard under automatic shard resolution — below
/// this the barrier costs more than the shard contributes.
const AUTO_MIN_NODES_PER_SHARD: usize = 8;

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            tick_ms: 1_000,
            tde_period_ms: 60_000,
            gate_samples_with_tde: true,
            tuner: TunerKind::Bo,
            bo: BoConfig::default(),
            rl: RlConfig::default(),
            apply_recommendations: true,
            seed: 0,
            shards: 0,
            request_timeout_ms: 5 * 60 * 1_000,
            retry_base_ms: 30_000,
            retry_max_attempts: 6,
            watcher_timeout_ms: 2 * 60 * 1_000,
            max_apply_lag_bytes: 64 * 1024 * 1024,
            rollback: None,
        }
    }
}

/// The tuner backend actually computing recommendations.
enum TunerBackend {
    Bo(Box<BoTuner>),
    Rl(Box<RlTuner>),
}

/// The fleet simulator.
///
/// # Examples
///
/// ```
/// use autodbaas_cloudsim::{FleetConfig, FleetSim, ManagedDatabase};
/// use autodbaas_core::{TdeConfig, TuningPolicy};
/// use autodbaas_simdb::{DbFlavor, DiskKind, InstanceType};
/// use autodbaas_tuner::WorkloadId;
/// use autodbaas_workload::{tpcc, ArrivalProcess};
///
/// let mut sim = FleetSim::new(FleetConfig::default(), 2);
/// let wl = tpcc(0.2);
/// let catalog = wl.catalog().clone();
/// let node = ManagedDatabase::new(
///     DbFlavor::Postgres, InstanceType::M4Large, DiskKind::Ssd, catalog,
///     Box::new(wl), ArrivalProcess::Constant(100.0),
///     TuningPolicy::TdeDriven, WorkloadId(0), TdeConfig::default(), 1,
/// );
/// sim.add_node(node, "db-0");
/// sim.run_for(120_000); // two minutes
/// assert!(sim.nodes[0].queries_submitted > 0);
/// ```
pub struct FleetSim {
    cfg: FleetConfig,
    /// Managed databases (public for experiment harnesses).
    pub nodes: Vec<ManagedDatabase>,
    /// The config director.
    pub director: ConfigDirector,
    /// Per-tenant recommendation-cost metering (§1's "recommendation-cost
    /// to service-provider").
    pub meter: RecommendationMeter,
    /// The central data repository.
    pub repo: WorkloadRepository,
    /// The service orchestrator's persistence storage: the config of record
    /// each service reconciles back to after a partial failure (§4).
    pub orch: ServiceOrchestrator,
    /// Every fault injected and every recovery action taken, in order. The
    /// log's fingerprint pins bit-for-bit reproducibility of chaos runs.
    pub events: EventLog,
    backend: TunerBackend,
    /// One §4 reconciler per node, watching live config against [`Self::orch`].
    reconcilers: Vec<Reconciler>,
    /// Scheduled fault injection, when armed via [`FleetSim::enable_chaos`].
    chaos: Option<FaultEngine>,
    /// Scheduled interaction plan, when armed via [`FleetSim::enable_plan`].
    plan: Option<PlanEngine>,
    /// Arrival processes to restore when running bursts end:
    /// `(revert_at, node, saved_arrival)`.
    burst_revert: Vec<(SimTime, usize, ArrivalProcess)>,
    /// Recommendation deliveries stall until this time (tuner outage fault).
    tuner_outage_until: SimTime,
    /// Crash recoveries in progress: (done_at, node, event to emit).
    recovery_due: Vec<(SimTime, usize, &'static str)>,
    /// Due tuning responses: (ready_at, node, request seq). The seq lets a
    /// late response for an already-retried request be dropped as stale.
    pending: BinaryHeap<Reverse<(SimTime, usize, u64)>>,
    /// Persistent sharded tick engine; built lazily on the first step and
    /// rebuilt when the fleet size or resolved shard count changes.
    pool: Option<ShardPool>,
    /// SoA per-node due times gating the control scan and recovery flush.
    hot: HotState,
    /// Cached machine thread budget for auto shard resolution. Querying
    /// `available_parallelism` reads procfs/cgroup state (~12µs a call) —
    /// per tick that dwarfs small fleets, so it is resolved exactly once.
    thread_budget: Option<usize>,
    /// Fleet drive totals merged from the shard outputs every tick.
    drive_stats: DriveStats,
    /// Reusable scratch for the per-tick chaos drain.
    fault_scratch: Vec<FaultEvent>,
    /// Reusable scratch for the per-tick plan drain.
    plan_scratch: Vec<PlanEvent>,
    /// Reusable scratch for the per-round batched window ingestion.
    window_scratch: Vec<WindowStat>,
    now: SimTime,
    last_tde_run: SimTime,
    rng: StdRng,
    /// Safe-tuning governor ([`FleetSim::enable_safety`]); `None` leaves
    /// every existing run's fingerprint untouched.
    safety: Option<SafetyGovernor>,
}

impl FleetSim {
    /// Build a fleet with `n_tuner_instances` tuner slots behind the
    /// director (the paper deploys 12).
    pub fn new(cfg: FleetConfig, n_tuner_instances: usize) -> Self {
        let kinds = vec![cfg.tuner; n_tuner_instances.max(1)];
        let backend = match cfg.tuner {
            TunerKind::Bo => {
                TunerBackend::Bo(Box::new(BoTuner::new(cfg.bo.clone(), cfg.seed ^ 0xb0)))
            }
            TunerKind::Rl => TunerBackend::Rl(Box::new(RlTuner::new(
                MetricId::ALL.len(),
                autodbaas_simdb::KnobProfile::postgres().len(),
                cfg.rl.clone(),
                cfg.seed ^ 0x71,
            ))),
        };
        Self {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xf1ee7),
            cfg,
            nodes: Vec::new(),
            director: ConfigDirector::new(&kinds),
            meter: RecommendationMeter::default(),
            repo: WorkloadRepository::new(),
            orch: ServiceOrchestrator::new(),
            events: EventLog::default(),
            backend,
            reconcilers: Vec::new(),
            chaos: None,
            plan: None,
            burst_revert: Vec::new(),
            tuner_outage_until: 0,
            recovery_due: Vec::new(),
            pending: BinaryHeap::new(),
            pool: None,
            hot: HotState::new(),
            thread_budget: None,
            drive_stats: DriveStats::default(),
            fault_scratch: Vec::new(),
            plan_scratch: Vec::new(),
            window_scratch: Vec::new(),
            now: 0,
            last_tde_run: 0,
            safety: None,
        }
    }

    /// Arm the chaos engine: `plan`'s faults inject themselves as simulated
    /// time passes them, and the reconcilers switch to continuous watching.
    pub fn enable_chaos(&mut self, plan: FaultPlan) {
        self.chaos = Some(FaultEngine::new(plan));
    }

    /// Scheduled faults not yet injected (0 when chaos is off).
    pub fn faults_remaining(&self) -> usize {
        self.chaos.as_ref().map_or(0, |e| e.remaining())
    }

    /// Arm an interaction plan (the scenario simulator's chaos superset):
    /// bursts, knob pushes, maintenance windows, replica churn and faults
    /// inject themselves as simulated time passes them, and the reconcilers
    /// switch to continuous watching, exactly as under
    /// [`FleetSim::enable_chaos`].
    pub fn enable_plan(&mut self, plan: InteractionPlan) {
        self.plan = Some(PlanEngine::new(plan));
    }

    /// Scheduled interactions not yet delivered (0 when no plan is armed).
    pub fn plan_remaining(&self) -> usize {
        self.plan.as_ref().map_or(0, |e| e.remaining())
    }

    /// Stop (or resume) landing new recommendations while the simulation
    /// keeps running. The scenario harness flips this off for its settle
    /// phase — "quiesce, then audit": in-flight guards, retries and parked
    /// applies drain to completion, but no *new* applies arm fresh guards,
    /// so the terminal oracles judge a fleet that had a fair chance to
    /// finish its work.
    pub fn set_apply_recommendations(&mut self, on: bool) {
        self.cfg.apply_recommendations = on;
    }

    /// Nodes whose post-apply rollback guard is still armed — i.e. an
    /// applied config not yet accepted or reverted. After a run's quiet
    /// tail every guard must have resolved one way or the other; the
    /// scenario simulator's rollback-correctness oracle asserts exactly
    /// that.
    pub fn guard_armed_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&idx| self.nodes[idx].guard.is_some())
            .collect()
    }

    /// Fleet-wide availability: fraction of driven node-ticks with the
    /// master serving.
    pub fn availability(&self) -> f64 {
        let (down, total) = self.nodes.iter().fold((0u64, 0u64), |(d, t), n| {
            (d + n.down_ticks, t + n.total_ticks)
        });
        if total == 0 {
            1.0
        } else {
            1.0 - down as f64 / total as f64
        }
    }

    /// Total reconciliations performed across the fleet.
    pub fn reconciliations(&self) -> u64 {
        self.reconcilers.iter().map(|r| r.reconciliations()).sum()
    }

    /// Nodes whose live reloadable config (master or any slave) currently
    /// differs from the persisted config of record.
    pub fn drifted_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&idx| {
                let Some(persisted) = self.orch.persisted_config(ServiceId(idx as u64)) else {
                    return false;
                };
                let rs = &self.nodes[idx].service;
                let profile = rs.master().profile();
                std::iter::once(rs.master())
                    .chain(rs.slaves().iter())
                    .any(|db| {
                        let live = db.knobs();
                        profile.iter().any(|(id, spec)| {
                            !spec.restart_required
                                && (live.get(id) - persisted.get(id)).abs() > 1e-9
                        })
                    })
            })
            .collect()
    }

    /// Nodes with stalled control-plane work: a master still in crash
    /// recovery, a request past its deadline, or a parked retry past its
    /// due time. Each of these clears on a subsequent [`FleetSim::step`],
    /// so after a run's quiet tail this must be empty — the no-wedge
    /// invariant the chaos tests pin.
    pub fn wedged_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&idx| {
                let n = &self.nodes[idx];
                n.db().is_down()
                    || n.in_flight.is_some_and(|r| self.now > r.deadline)
                    || n.retry_at.is_some_and(|at| self.now > at)
                    || n.deferred_apply
                        .as_ref()
                        .is_some_and(|d| self.now > d.next_try_at)
            })
            .collect()
    }

    /// Arm the OnlineTune-style safety layer: every tenant gets a safe
    /// region seeded at its current config, and every tuner candidate is
    /// clamped into it before the vetted apply. Late-joining nodes are
    /// seeded as they are added.
    pub fn enable_safety(&mut self, cfg: SafetyConfig) {
        let mut gov = SafetyGovernor::new(cfg);
        for node in &self.nodes {
            let profile = node.service.master().profile();
            gov.push_node(normalize_config(
                profile,
                node.service.master().knobs().as_vec(),
            ));
        }
        self.safety = Some(gov);
    }

    /// The safe-tuning governor, when armed.
    pub fn safety(&self) -> Option<&SafetyGovernor> {
        self.safety.as_ref()
    }

    /// Fleet drive totals (node-ticks, accepted queries, down node-ticks)
    /// accumulated by the tick engine.
    pub fn drive_stats(&self) -> DriveStats {
        self.drive_stats
    }

    /// Shard count of the live pool (1 before the first step builds it).
    /// Benchmarks report this next to wall-clock numbers so a figure
    /// regenerated on a different machine records how wide the drive
    /// actually ran.
    pub fn shard_count(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.shards())
    }

    /// Current sim time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Register a managed database built by the caller. Its workload gets a
    /// repository entry, its boot config becomes the first persisted config
    /// of record, and a reconciler starts watching it.
    pub fn add_node(&mut self, mut node: ManagedDatabase, name: &str) -> usize {
        node.workload_id = self.repo.register(name, false);
        let idx = self.nodes.len();
        self.orch
            .persist_config(ServiceId(idx as u64), node.db().knobs().clone());
        self.reconcilers.push(Reconciler::new(
            ServiceId(idx as u64),
            self.cfg.watcher_timeout_ms,
        ));
        self.meter
            .set_backend(ServiceId(idx as u64), node.db().kind());
        if let Some(gov) = &mut self.safety {
            let profile = node.service.master().profile();
            gov.push_node(normalize_config(
                profile,
                node.service.master().knobs().as_vec(),
            ));
        }
        self.nodes.push(node);
        self.hot.push_node();
        idx
    }

    /// Offline bootstrap (§5: "Before evaluating … we perform training of
    /// the tuners as per their standard ways"): execute `n_samples` random
    /// configurations of `workload` on a scratch instance and store the
    /// resulting high-quality samples as an offline workload.
    pub fn seed_offline_training(
        &mut self,
        workload: &MixWorkload,
        flavor: autodbaas_simdb::DbFlavor,
        n_samples: usize,
    ) -> autodbaas_tuner::WorkloadId {
        let id = self
            .repo
            .register(format!("{}-offline", workload.name()), true);
        let profile = autodbaas_simdb::KnobProfile::for_flavor(flavor);
        for s in 0..n_samples {
            let mut db = AnyBackend::new(
                flavor,
                autodbaas_simdb::InstanceType::M4XLarge,
                autodbaas_simdb::DiskKind::Ssd,
                workload.catalog().clone(),
                self.cfg.seed ^ (s as u64).wrapping_mul(0x9e3779b9),
            );
            // Random reloadable configuration.
            let unit: Vec<f64> = (0..profile.len()).map(|_| self.rng.gen::<f64>()).collect();
            let raw = denormalize_config(&profile, &unit);
            for (i, (kid, spec)) in profile.iter().enumerate() {
                if !spec.restart_required {
                    db.set_knob_direct(kid, raw[i]);
                }
            }
            // A 60 s benchmark run — the sample window matches the TDE's
            // default observation window so baselines convert correctly.
            let before = db.metrics_snapshot();
            let rate = match workload.default_arrival() {
                autodbaas_workload::ArrivalProcess::Constant(r) => *r,
                _ => 1_000.0,
            };
            for _ in 0..60 {
                let q = workload.next_query(&mut self.rng);
                db.submit(&q, (rate / 60.0).max(1.0) as u64);
                db.tick(1_000);
            }
            let after = db.metrics_snapshot();
            let delta = after.delta(&before);
            let objective = delta[MetricId::QueriesExecuted.index()] / 60.0;
            self.repo.add_sample(
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

    /// Advance one tick.
    pub fn step(&mut self) {
        self.now += self.cfg.tick_ms;

        // 0. Chaos: inject every scheduled fault that came due this tick,
        // drained through a reusable scratch buffer (the per-tick `to_vec`
        // this replaces allocated on every tick of every chaos run).
        if self.chaos.is_some() {
            let mut due = std::mem::take(&mut self.fault_scratch);
            self.chaos
                .as_mut()
                .expect("checked above")
                .take_due_into(self.now, &mut due);
            for &ev in &due {
                self.inject(ev);
            }
            self.fault_scratch = due;
        }

        // 0b. Interaction plan: revert ended bursts, then deliver every
        // scheduled interaction that came due this tick. Both run before
        // the traffic phase, so drives of the same plan at any shard count
        // see identical node state at every tick.
        if !self.burst_revert.is_empty() || self.plan.is_some() {
            self.plan_tick();
        }

        // 1. Traffic. Databases are independent within a tick; the shard
        // pool partitions them once over persistent worker shards (shard 0
        // is this thread).
        self.drive_traffic();

        // 2. Crash recoveries that completed this tick.
        self.flush_recoveries();

        // 3. Request timeouts, retries and parked applies.
        self.control_scan();

        // 4. Deliver due recommendations — unless the tuner service is in
        // an outage, in which case responses sit until it returns (and may
        // go stale if the node times out and retries meanwhile).
        if self.now >= self.tuner_outage_until {
            while let Some(&Reverse((ready, idx, seq))) = self.pending.peek() {
                if ready > self.now {
                    break;
                }
                self.pending.pop();
                self.deliver_recommendation(idx, seq);
            }
        }

        // 5. Reconcilers watch continuously while chaos or a plan is
        // active (faults create drift at arbitrary times); in quiet runs a
        // per-window check after the TDE round is equivalent and cheaper.
        let adversarial = self.chaos.is_some() || self.plan.is_some();
        if adversarial {
            self.reconcile_all();
        }

        // 6. TDE cadence.
        if self.now - self.last_tde_run >= self.cfg.tde_period_ms {
            let window_ms = self.now - self.last_tde_run;
            self.last_tde_run = self.now;
            self.run_tde_round(window_ms);
            if !adversarial {
                self.reconcile_all();
            }
        }
    }

    /// Shard count the tick engine should run with right now.
    fn resolve_shards(&mut self) -> usize {
        let n = self.nodes.len();
        if n == 0 {
            return 1;
        }
        if self.cfg.shards > 0 {
            // Explicit: trusted as-is (clamped to the fleet), no
            // nodes-per-shard cap — the determinism property tests sweep
            // shard counts far beyond what auto resolution would pick.
            return self.cfg.shards.min(n);
        }
        let budget = *self.thread_budget.get_or_insert_with(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        });
        budget.min(n.div_ceil(AUTO_MIN_NODES_PER_SHARD)).max(1)
    }

    /// Drive one tick of traffic on the shard pool, (re)building the pool
    /// when the fleet size or resolved shard count changed.
    fn drive_traffic(&mut self) {
        let want = self.resolve_shards();
        let stale = self
            .pool
            .as_ref()
            .is_none_or(|p| p.shards() != want || p.n_nodes() != self.nodes.len());
        if stale {
            self.pool = Some(ShardPool::new(want, self.nodes.len(), self.cfg.seed));
        }
        let tick = self
            .pool
            .as_mut()
            .expect("built above")
            .drive_tick(&mut self.nodes, self.cfg.tick_ms);
        self.drive_stats.accumulate(&tick);
    }

    /// Recompute node `idx`'s SoA control-due entry. Called after every
    /// mutation of its control fields so the entry is always a valid lower
    /// bound for the gated control scan.
    fn refresh_hot(&mut self, idx: usize) {
        let due = control_due_of(&self.nodes[idx]);
        self.hot.set_control_due(idx, due);
    }

    /// Inject one scheduled fault.
    fn inject(&mut self, ev: FaultEvent) {
        if ev.node >= self.nodes.len() {
            return; // plan generated for a bigger fleet: ignore
        }
        let idx = ev.node;
        let target = idx as u64;
        match ev.kind {
            FaultKind::VmCrash => {
                self.events.emit(self.now, "fault.vm_crash", target);
                self.handle_master_crash(idx);
            }
            FaultKind::MasterCrashMidApply => {
                self.events
                    .emit(self.now, "fault.master_crash_mid_apply", target);
                self.nodes[idx].service.inject_master_crash();
            }
            FaultKind::SlaveCrashMidApply => {
                if self.nodes[idx].service.n_slaves() > 0 {
                    self.events
                        .emit(self.now, "fault.slave_crash_mid_apply", target);
                    self.nodes[idx].service.inject_slave_crash(0);
                }
            }
            FaultKind::TunerOutage { duration_ms } => {
                self.events.emit(self.now, "fault.tuner_outage", u64::MAX);
                self.tuner_outage_until = self.tuner_outage_until.max(self.now + duration_ms);
            }
            FaultKind::TelemetryDrop { duration_ms } => {
                self.events.emit(self.now, "fault.telemetry_drop", target);
                let node = &mut self.nodes[idx];
                node.telemetry_blackout_until =
                    node.telemetry_blackout_until.max(self.now + duration_ms);
            }
            FaultKind::DiskStall {
                duration_ms,
                factor,
            } => {
                self.events.emit(self.now, "fault.disk_stall", target);
                let node = &mut self.nodes[idx];
                node.db_mut().degrade(duration_ms, factor);
                node.window_tainted = true;
            }
            FaultKind::ReplicaLagSpike { pause_ms } => {
                let node = &mut self.nodes[idx];
                if node.service.n_slaves() > 0 {
                    self.events
                        .emit(self.now, "fault.replica_lag_spike", target);
                    for i in 0..node.service.n_slaves() {
                        node.service.pause_slave_replay(i, pause_ms);
                    }
                }
            }
            FaultKind::RequestLoss => {
                let node = &mut self.nodes[idx];
                if let Some(req) = node.in_flight.as_mut() {
                    if !req.lost {
                        req.lost = true;
                        self.events.emit(self.now, "fault.request_loss", target);
                    }
                }
            }
        }
    }

    /// One tick of interaction-plan machinery: restore the arrival process
    /// of every burst that ended, then deliver the plan events that came
    /// due. Reverts run first so a burst ending exactly as another begins
    /// hands the new burst the *pre-burst* arrival to save.
    fn plan_tick(&mut self) {
        let now = self.now;
        let mut i = 0;
        while i < self.burst_revert.len() {
            if self.burst_revert[i].0 <= now {
                let (_, idx, arrival) = self.burst_revert.remove(i);
                self.nodes[idx].arrival = arrival;
                self.events.emit(now, "plan.burst_end", idx as u64);
            } else {
                i += 1;
            }
        }
        if self.plan.is_some() {
            let mut due = std::mem::take(&mut self.plan_scratch);
            self.plan
                .as_mut()
                .expect("checked above")
                .take_due_into(self.now, &mut due);
            for &ev in &due {
                self.apply_plan_event(ev);
            }
            self.plan_scratch = due;
        }
    }

    /// Deliver one scheduled interaction.
    fn apply_plan_event(&mut self, ev: PlanEvent) {
        if ev.node >= self.nodes.len() {
            return; // plan generated for a bigger fleet: ignore
        }
        let idx = ev.node;
        let target = idx as u64;
        match ev.action {
            PlanAction::Fault(kind) => self.inject(FaultEvent {
                at: ev.at,
                node: idx,
                kind,
            }),
            PlanAction::Burst {
                rate_qps,
                duration_ms,
            } => {
                let revert_at = self.now + duration_ms;
                if let Some(entry) = self.burst_revert.iter_mut().find(|e| e.1 == idx) {
                    // Overlapping burst: the first one already saved the
                    // pre-burst arrival; the new rate and later end win.
                    entry.0 = entry.0.max(revert_at);
                } else {
                    self.burst_revert
                        .push((revert_at, idx, self.nodes[idx].arrival.clone()));
                }
                self.nodes[idx].arrival = ArrivalProcess::Constant(rate_qps);
                self.events.emit(self.now, "plan.burst", target);
            }
            PlanAction::KnobPush { value } => {
                self.events.emit(self.now, "plan.knob_push", target);
                let dims = self.nodes[idx].service.master().profile().len();
                self.apply_unit(idx, vec![value; dims], 0);
            }
            PlanAction::Maintenance => {
                self.events.emit(self.now, "plan.maintenance", target);
                self.handle_master_crash(idx);
            }
            PlanAction::AddReplica => {
                self.events.emit(self.now, "plan.replica_add", target);
                let seed = self.cfg.seed ^ target.wrapping_mul(0x9e3779b97f4a7c15) ^ self.now;
                self.nodes[idx].service.add_slave(seed);
            }
            PlanAction::RemoveReplica => {
                let node = &mut self.nodes[idx];
                let n = node.service.n_slaves();
                if n > 0 {
                    node.service.remove_slave(n - 1);
                    self.events.emit(self.now, "plan.replica_remove", target);
                }
            }
        }
    }

    /// The master VM of node `idx` just died. With HA slaves the most
    /// caught-up one is promoted immediately (the service stays up, modulo
    /// the unreplayed WAL the report counts as lost) and the demoted master
    /// runs WAL crash recovery before rejoining as a replica. Without
    /// slaves the single node is down for its full recovery time.
    fn handle_master_crash(&mut self, idx: usize) {
        let node = &mut self.nodes[idx];
        node.window_tainted = true;
        if node.service.n_slaves() > 0 {
            if let Some(fo) = node.service.failover() {
                let report = node.service.slave_mut(fo.promoted).crash();
                self.events.emit(self.now, "recover.failover", idx as u64);
                self.recovery_due
                    .push((self.now + report.recovery_ms, idx, "recover.rejoined"));
                self.hot.note_recovery(self.now + report.recovery_ms);
                return;
            }
        }
        let report = node.service.master_mut().crash();
        self.recovery_due
            .push((self.now + report.recovery_ms, idx, "recover.restarted"));
        self.hot.note_recovery(self.now + report.recovery_ms);
    }

    /// Emit the recovery events whose crash-recovery intervals ended.
    /// Gated on the cached earliest completion time: with nothing due this
    /// is one scalar compare per tick (and `u64::MAX` — the empty list —
    /// reproduces the old is-empty early return exactly).
    fn flush_recoveries(&mut self) {
        if self.now < self.hot.next_recovery_at() {
            return;
        }
        let now = self.now;
        let mut done: Vec<(SimTime, usize, &'static str)> = Vec::new();
        self.recovery_due.retain(|&(at, idx, kind)| {
            if at <= now {
                done.push((at, idx, kind));
                false
            } else {
                true
            }
        });
        done.sort_by_key(|&(at, idx, _)| (at, idx));
        self.events.emit_batch(
            self.now,
            done.iter().map(|&(_, idx, kind)| (kind, idx as u64)),
        );
        self.hot.set_next_recovery(
            self.recovery_due
                .iter()
                .map(|&(at, _, _)| at)
                .min()
                .unwrap_or(u64::MAX),
        );
    }

    /// Per-node control-plane scan: expire timed-out requests into
    /// exponential-backoff retries, fire due retries, and re-attempt
    /// lag-deferred applies.
    ///
    /// Each node is gated behind its SoA due time — a node whose earliest
    /// possible action lies in the future is provably a no-op, so the scan
    /// walks one dense `u64` per node instead of the node structs. Debug
    /// builds check that lower-bound invariant for every node the gate
    /// skips.
    fn control_scan(&mut self) {
        for idx in 0..self.nodes.len() {
            if self.hot.control_due(idx) <= self.now {
                self.control_node(idx);
            } else {
                debug_assert!(
                    self.hot.control_due(idx) <= control_due_of(&self.nodes[idx]),
                    "hot state skipped node {idx} past its control due time"
                );
            }
        }
    }

    /// One node's control-plane scan (see [`FleetSim::control_scan`]).
    fn control_node(&mut self, idx: usize) {
        let retry_base = self.cfg.retry_base_ms.max(1);
        let max_attempts = self.cfg.retry_max_attempts;
        let node = &mut self.nodes[idx];
        if let Some(req) = node.in_flight {
            if self.now >= req.deadline {
                node.in_flight = None;
                node.retry_attempt += 1;
                if node.retry_attempt > max_attempts {
                    node.retry_attempt = 0;
                    self.events.emit(self.now, "request.abandoned", idx as u64);
                } else {
                    // Backoff doubles per consecutive timeout; jitter
                    // desynchronises a fleet retrying into the same
                    // recovering tuner. This path draws node RNG only
                    // under faults, so fault-free streams are unchanged.
                    let backoff = retry_base << (node.retry_attempt - 1).min(6);
                    let jitter = node.rng.gen_range(0..retry_base);
                    node.retry_at = Some(self.now + backoff + jitter);
                    self.events.emit(self.now, "request.timeout", idx as u64);
                }
            }
        }
        if self.nodes[idx].retry_at.is_some_and(|at| self.now >= at) {
            self.nodes[idx].retry_at = None;
            self.events.emit(self.now, "request.retry", idx as u64);
            self.submit_tuning_request(idx);
        }
        let node = &mut self.nodes[idx];
        if node
            .deferred_apply
            .as_ref()
            .is_some_and(|d| self.now >= d.next_try_at)
        {
            let d = node.deferred_apply.take().expect("checked above");
            self.apply_unit(idx, d.unit, d.attempts);
        }
        self.refresh_hot(idx);
    }

    /// Reconcile every service whose master is reachable.
    pub fn reconcile_all(&mut self) {
        for idx in 0..self.nodes.len() {
            let node = &mut self.nodes[idx];
            if node.service.master().is_down() {
                continue; // nothing to watch until recovery completes
            }
            let outcome = self.reconcilers[idx].check(&self.orch, &mut node.service, self.now);
            if outcome == ReconcileOutcome::Reconciled {
                self.events.emit(self.now, "recover.reconciled", idx as u64);
            }
        }
    }

    /// Submit a tuning request for node `idx` to the config director and
    /// start its in-flight deadline clock.
    fn submit_tuning_request(&mut self, idx: usize) {
        let service_ms = match self.cfg.tuner {
            TunerKind::Bo => BoTuner::train_cost_ms(self.repo.total_samples()),
            TunerKind::Rl => 50.0,
        };
        let assignment = self
            .director
            .submit_request(ServiceId(idx as u64), self.now, service_ms);
        self.meter.record(ServiceId(idx as u64), service_ms);
        let node = &mut self.nodes[idx];
        node.last_request_at = self.now;
        let seq = node.request_seq;
        node.request_seq += 1;
        // The deadline counts from the *promised* completion, not the
        // submission: director backlog under fleet saturation (Fig. 9) is
        // expected latency, not a fault.
        node.in_flight = Some(InFlightRequest {
            deadline: assignment.ready_at + self.cfg.request_timeout_ms,
            seq,
            lost: false,
        });
        self.pending.push(Reverse((assignment.ready_at, idx, seq)));
        self.refresh_hot(idx);
    }

    /// Run for `duration_ms` of simulated time.
    pub fn run_for(&mut self, duration_ms: u64) {
        let end = self.now + duration_ms;
        while self.now < end {
            self.step();
        }
    }

    fn rl_state(delta: &[f64]) -> Vec<f64> {
        delta.iter().map(|&x| (1.0 + x.abs()).ln() / 20.0).collect()
    }

    fn run_tde_round(&mut self, window_ms: u64) {
        let rollback = self.cfg.rollback;
        let mut windows = std::mem::take(&mut self.window_scratch);
        windows.clear();
        for idx in 0..self.nodes.len() {
            let node = &mut self.nodes[idx];
            // A monitoring-agent blackout or a master still in crash
            // recovery means no usable window: reset and move on — no
            // sample, no RL transition, no tuning request.
            if self.now < node.telemetry_blackout_until || node.service.master().is_down() {
                node.window_start_snapshot = node.service.master().metrics_snapshot();
                node.window_tainted = false;
                continue;
            }
            // Close the observation window: one snapshot and one delta
            // vector serve the objective, the RL transition and the
            // captured sample (which takes the vector by value below).
            let snap = node.service.master().metrics_snapshot();
            let objective = node.window_objective_from(&snap, window_ms);
            let delta = snap.delta(&node.window_start_snapshot);
            windows.push(WindowStat {
                service: ServiceId(idx as u64),
                objective,
            });
            if let Some(gov) = &mut self.safety {
                // The safety SLO is demand-normalized: the fraction of
                // offered queries the service actually executed this
                // window. Raw throughput would charge the tuner for every
                // diurnal/weekend demand swing; the completion ratio only
                // moves when the service fails offered load — which is
                // what a config can cause and an SLO is about.
                let executed = delta[MetricId::QueriesExecuted.index()];
                let dropped = delta[MetricId::QueriesDropped.index()];
                let offered = executed + dropped;
                let slo_objective = if offered > 0.0 {
                    executed / offered
                } else {
                    1.0
                };
                let verdict = gov.observe_window(idx, slo_objective, window_ms as f64 / 1_000.0);
                if verdict.breach {
                    self.events.emit(self.now, "safe.slo_breach", idx as u64);
                    self.meter.record_slo_breach(ServiceId(idx as u64));
                }
            }

            // TDE run. The TDE's MDP detector applies accepted planner-knob
            // probes directly to the live master; those local moves are
            // authoritative (the plugin owns them), so fold them into the
            // persisted config of record — otherwise the reconciler would
            // fight the TDE, rejecting each accepted probe as drift.
            let pre_tde = node.service.master().knobs().clone();
            let report = node.tde.run(node.service.master_mut(), Some(&self.repo));
            if report.plan_upgrade {
                node.plan_upgrades += 1;
            }
            if node.service.master().knobs() != &pre_tde {
                let live = node.service.master().knobs().clone();
                let profile = node.service.master().profile().clone();
                let mut persisted = self
                    .orch
                    .persisted_config(ServiceId(idx as u64))
                    .cloned()
                    .unwrap_or_else(|| live.clone());
                for (id, _) in profile.iter() {
                    if live.get(id) != pre_tde.get(id) {
                        persisted.set(&profile, id, live.get(id));
                        // Replicas take the accepted move too, so an HA set
                        // never drifts (and never fails over) away from it.
                        for s in 0..node.service.n_slaves() {
                            node.service.slave_mut(s).set_knob_direct(id, live.get(id));
                        }
                    }
                }
                self.orch.persist_config(ServiceId(idx as u64), persisted);
            }

            // Cooldown bookkeeping (a window must pass after an apply
            // before the TDE can indict the new config).
            let in_cooldown = node.cooldown_windows > 0;
            if in_cooldown {
                node.cooldown_windows -= 1;
            }

            // Safe-tuning guard: judge the window that just closed against
            // the pre-apply baseline. Fault-tainted windows are skipped —
            // a disk stall is not the config's fault.
            let mut quarantined = node.window_tainted;
            if let Some(policy) = rollback {
                if let Some(guard) = node.guard.take() {
                    if in_cooldown || node.window_tainted {
                        node.guard = Some(guard); // not judgeable; keep waiting
                    } else if objective < guard.baseline * (1.0 - policy.regression_frac) {
                        // Regression: restore the pre-apply config on every
                        // node and re-persist it as the config of record.
                        let profile = node.service.master().profile().clone();
                        let changes: Vec<ConfigChange> = profile
                            .iter()
                            .filter(|(_, spec)| !spec.restart_required)
                            .map(|(kid, _)| ConfigChange {
                                knob: kid,
                                value: guard.revert_to.get(kid),
                            })
                            .collect();
                        let _ = node.service.apply(&changes, ApplyMode::Reload);
                        self.orch.persist_config(
                            ServiceId(idx as u64),
                            node.service.master().knobs().clone(),
                        );
                        node.cooldown_windows = 1;
                        // The regressed window would poison the repository
                        // (and the RL reward) with the bad config's blame.
                        quarantined = true;
                        self.events.emit(self.now, "tune.rollback", idx as u64);
                    } else if guard.windows_left > 1 {
                        node.guard = Some(RollbackGuard {
                            windows_left: guard.windows_left - 1,
                            ..guard
                        });
                    } // else: enough clean windows — the config is accepted
                }
            }

            // Sample capture (gated or not); fault-tainted and rolled-back
            // windows never become samples.
            let throttled_window = report.tuning_request;
            let capture = (!self.cfg.gate_samples_with_tde || throttled_window) && !quarantined;

            // RL experience: reward is the relative throughput change since
            // the action was applied. Gated mode only feeds the agent
            // TDE-certified windows — the corruption shield Fig. 13 tests.
            if capture {
                if let (TunerBackend::Rl(rl), Some(action), Some(prev_state)) = (
                    &mut self.backend,
                    node.prev_action.clone(),
                    node.prev_rl_state.clone(),
                ) {
                    let reward = (objective - node.prev_objective) / node.prev_objective.max(1.0);
                    rl.observe(Transition {
                        state: prev_state,
                        action,
                        reward: reward.clamp(-2.0, 2.0),
                        next_state: Self::rl_state(&delta),
                    });
                }
            }

            if capture {
                let quality = if self.cfg.gate_samples_with_tde {
                    // TDE-certified windows are high quality by construction.
                    SampleQuality::High
                } else {
                    assess_quality(&delta, objective)
                };
                self.repo.add_sample(
                    node.workload_id,
                    Sample {
                        config: normalize_config(
                            node.service.master().profile(),
                            node.service.master().knobs().as_vec(),
                        ),
                        metrics: delta,
                        objective,
                        quality,
                    },
                );
            }

            // Policy decision. A node with an open request, a pending
            // retry, or a parked apply never stacks a second request.
            let should = node.in_flight.is_none()
                && node.retry_at.is_none()
                && node.deferred_apply.is_none()
                && !in_cooldown
                && node
                    .policy
                    .should_request(&report, self.now, node.last_request_at);
            node.last_report = report;
            node.prev_objective = objective;
            node.window_start_snapshot = snap;
            node.window_tainted = false;
            if should {
                self.submit_tuning_request(idx);
            }
        }
        // One batched metric-data report per round ("the config director
        // receives the metric data … from service instances") instead of a
        // per-node telemetry call; the buffer is kept and reused.
        self.director.ingest_windows(self.now, &windows);
        self.window_scratch = windows;
    }

    fn deliver_recommendation(&mut self, idx: usize, seq: u64) {
        let node = &mut self.nodes[idx];
        match node.in_flight {
            Some(req) if req.seq == seq => {
                if req.lost {
                    // The response vanished in transit; only the deadline
                    // machinery clears this request.
                    return;
                }
                node.in_flight = None;
                node.retry_attempt = 0;
            }
            _ => {
                // A late response to a request that already timed out and
                // was retried or abandoned: applying it now would race the
                // retry's own response, so drop it.
                self.events
                    .emit(self.now, "request.stale_dropped", idx as u64);
                return;
            }
        }
        self.refresh_hot(idx);
        let node = &mut self.nodes[idx];
        let profile = node.service.master().profile();
        let unit = match &mut self.backend {
            TunerBackend::Bo(bo) => {
                // The tuning request carries the indicted knobs (the TDE
                // sends metric data and query context with the request);
                // focus the acquisition on them.
                let focus: Vec<usize> = node
                    .last_report
                    .throttles
                    .iter()
                    .map(|t| t.knob.0 as usize)
                    .collect();
                match bo.recommend_focused(&self.repo, node.workload_id, &focus) {
                    Some(rec) => {
                        if std::env::var("AUTODBAAS_DEBUG_MAPPING").is_ok() {
                            eprintln!(
                                "map: node={} -> {:?} train={} ",
                                node.workload_id.0, rec.mapped_from, rec.train_samples
                            );
                        }
                        rec.config
                    }
                    None => return, // nothing learned yet
                }
            }
            TunerBackend::Rl(rl) => {
                let snap = node.service.master().metrics_snapshot();
                let delta = snap.delta(&node.window_start_snapshot);
                let state = Self::rl_state(&delta);
                node.prev_rl_state = Some(state.clone());
                let mut action = rl.recommend(&state);
                action.truncate(profile.len());
                while action.len() < profile.len() {
                    action.push(0.5);
                }
                action
            }
        };
        let mut unit = unit;
        if let Some(gov) = &mut self.safety {
            if gov.constrain(idx, &mut unit) {
                self.events.emit(self.now, "safe.clamped", idx as u64);
                self.meter.record_safety_clamp(ServiceId(idx as u64));
            }
        }
        self.director
            .record_recommendation(ServiceId(idx as u64), self.now, unit.clone());
        if !self.cfg.apply_recommendations {
            return;
        }
        self.apply_unit(idx, unit, 0);
    }

    /// Vet a unit-cube recommendation and land it on service `idx` through
    /// the slave-first protocol; `attempts` counts lag-guard refusals this
    /// recommendation already suffered.
    fn apply_unit(&mut self, idx: usize, unit: Vec<f64>, attempts: u32) {
        let node = &mut self.nodes[idx];
        // §4 budget vetting: the config director checks `A+B+C+D < X`
        // before shipping a recommendation — an oversubscribed config would
        // swap the instance to death, so memory knobs are rescaled to fit.
        // The vetted budget is the config *as it will run*: reloadable
        // knobs take the recommended values, restart-bound ones keep their
        // live values (they are deferred to the maintenance window).
        let profile = node.service.master().profile().clone();
        let raw = denormalize_config(&profile, &unit);
        let mut vetted = node.service.master().knobs().clone();
        for (i, (kid, spec)) in profile.iter().enumerate() {
            if !spec.restart_required {
                vetted.set(&profile, kid, raw[i]);
            }
        }
        autodbaas_simdb::instance::enforce_memory_cap(
            &profile,
            &mut vetted,
            node.service.master().instance(),
        );
        let raw: Vec<f64> = profile.iter().map(|(kid, _)| vetted.get(kid)).collect();
        let changes: Vec<ConfigChange> = profile
            .iter()
            .zip(&raw)
            .filter(|((_, spec), _)| !spec.restart_required)
            .map(|((kid, _), &value)| ConfigChange { knob: kid, value })
            .collect();
        let pre_apply = node.service.master().knobs().clone();
        match node.service.apply_with_lag_guard(
            &changes,
            ApplyMode::Reload,
            self.cfg.max_apply_lag_bytes,
        ) {
            Ok(_) => {
                // Persisting right after the master apply (§4) is what
                // keeps the reconciler quiet about *successful* tuning.
                self.orch
                    .persist_config(ServiceId(idx as u64), node.service.master().knobs().clone());
                if let Some(policy) = self.cfg.rollback {
                    node.guard = Some(RollbackGuard {
                        baseline: node.prev_objective,
                        revert_to: pre_apply,
                        windows_left: policy.observe_windows.max(1),
                    });
                }
                node.prev_action = Some(unit);
                node.cooldown_windows = 1;
                self.events.emit(self.now, "apply.ok", idx as u64);
            }
            Err(ApplyError::ReplicaLagging { .. }) => {
                if attempts + 1 >= self.cfg.retry_max_attempts {
                    self.events.emit(self.now, "apply.abandoned", idx as u64);
                } else {
                    let base = self.cfg.retry_base_ms.max(1);
                    let backoff = base << attempts.min(6);
                    let jitter = node.rng.gen_range(0..base);
                    node.deferred_apply = Some(DeferredApply {
                        unit,
                        next_try_at: self.now + backoff + jitter,
                        attempts: attempts + 1,
                    });
                    self.events.emit(self.now, "apply.lag_deferred", idx as u64);
                }
            }
            Err(ApplyError::SlaveCrashed { slave }) => {
                // §4: rejected slave-first — the master is untouched and
                // the recommendation is simply dropped. The crashed slave
                // runs WAL recovery and rejoins.
                self.events
                    .emit(self.now, "apply.rejected_slave_crash", idx as u64);
                let report = node.service.slave_mut(slave).crash();
                self.recovery_due.push((
                    self.now + report.recovery_ms,
                    idx,
                    "recover.slave_restarted",
                ));
                self.hot.note_recovery(self.now + report.recovery_ms);
            }
            Err(ApplyError::MasterCrashed) => {
                // Slaves applied, master didn't: drift the reconciler will
                // reject back to the persisted config, on top of the crash
                // recovery itself.
                self.events
                    .emit(self.now, "apply.master_crashed", idx as u64);
                self.handle_master_crash(idx);
            }
        }
        self.refresh_hot(idx);
    }
}

/// Node's true earliest control-due time: the earliest of its in-flight
/// deadline, retry time and parked-apply time (`u64::MAX` = nothing due).
fn control_due_of(node: &ManagedDatabase) -> u64 {
    let mut due = u64::MAX;
    if let Some(req) = node.in_flight {
        due = due.min(req.deadline);
    }
    if let Some(at) = node.retry_at {
        due = due.min(at);
    }
    if let Some(d) = &node.deferred_apply {
        due = due.min(d.next_try_at);
    }
    due
}

use autodbaas_snapshot::{
    snap_struct, FrameReader, FrameWriter, Snap, SnapError, SnapReader, SnapWriter,
};

snap_struct!(RollbackPolicy {
    regression_frac,
    observe_windows
});

snap_struct!(FleetConfig {
    tick_ms,
    tde_period_ms,
    gate_samples_with_tde,
    tuner,
    bo,
    rl,
    apply_recommendations,
    seed,
    shards,
    request_timeout_ms,
    retry_base_ms,
    retry_max_attempts,
    watcher_timeout_ms,
    max_apply_lag_bytes,
    rollback
});

impl Snap for TunerBackend {
    fn encode(&self, w: &mut SnapWriter) {
        match self {
            TunerBackend::Bo(t) => {
                0u16.encode(w);
                t.encode(w);
            }
            TunerBackend::Rl(t) => {
                1u16.encode(w);
                t.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(match u16::decode(r)? {
            0 => TunerBackend::Bo(Snap::decode(r)?),
            1 => TunerBackend::Rl(Snap::decode(r)?),
            t => {
                return Err(SnapError::UnknownTag {
                    what: "TunerBackend",
                    tag: t.into(),
                })
            }
        })
    }
}

// The fleet's complete deterministic state. Scratch that the next tick
// rebuilds (shard pool threads, thread-budget cache, drain buffers) is
// deliberately absent: a restored fleet re-resolves them lazily, exactly
// as a freshly built one does, so shard-count equivalence carries over.
// `recovery_due` holds `&'static str` labels and round-trips through the
// bounded telemetry interner.
impl Snap for FleetSim {
    fn encode(&self, w: &mut SnapWriter) {
        self.cfg.encode(w);
        self.nodes.encode(w);
        self.director.encode(w);
        self.meter.encode(w);
        self.repo.encode(w);
        self.orch.encode(w);
        self.events.encode(w);
        self.backend.encode(w);
        self.reconcilers.encode(w);
        self.chaos.encode(w);
        self.plan.encode(w);
        self.burst_revert.encode(w);
        self.tuner_outage_until.encode(w);
        w.put_u64(self.recovery_due.len() as u64);
        for (at, node, label) in &self.recovery_due {
            at.encode(w);
            node.encode(w);
            w.put_str(label);
        }
        self.pending.encode(w);
        self.drive_stats.encode(w);
        self.hot.encode(w);
        self.now.encode(w);
        self.last_tde_run.encode(w);
        self.rng.encode(w);
        self.safety.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let cfg = FleetConfig::decode(r)?;
        let nodes = Vec::<ManagedDatabase>::decode(r)?;
        let director = ConfigDirector::decode(r)?;
        let meter = RecommendationMeter::decode(r)?;
        let repo = WorkloadRepository::decode(r)?;
        let orch = ServiceOrchestrator::decode(r)?;
        let events = EventLog::decode(r)?;
        let backend = TunerBackend::decode(r)?;
        let reconcilers = Vec::<Reconciler>::decode(r)?;
        let chaos = Option::<FaultEngine>::decode(r)?;
        let plan = Option::<PlanEngine>::decode(r)?;
        let burst_revert = Vec::<(SimTime, usize, ArrivalProcess)>::decode(r)?;
        let tuner_outage_until = SimTime::decode(r)?;
        let n_recovery = r.get_len()?;
        let mut recovery_due = Vec::with_capacity(n_recovery);
        for _ in 0..n_recovery {
            let at = SimTime::decode(r)?;
            let node = usize::decode(r)?;
            let label = autodbaas_telemetry::intern_kind(r.get_str()?);
            recovery_due.push((at, node, label));
        }
        let pending = BinaryHeap::<Reverse<(SimTime, usize, u64)>>::decode(r)?;
        let drive_stats = DriveStats::decode(r)?;
        let hot = HotState::decode(r)?;
        let now = SimTime::decode(r)?;
        let last_tde_run = SimTime::decode(r)?;
        let rng = Snap::decode(r)?;
        let safety = Option::<SafetyGovernor>::decode(r)?;
        Ok(FleetSim {
            cfg,
            nodes,
            director,
            meter,
            repo,
            orch,
            events,
            backend,
            reconcilers,
            chaos,
            plan,
            burst_revert,
            tuner_outage_until,
            recovery_due,
            pending,
            pool: None,
            hot,
            thread_budget: None,
            drive_stats,
            fault_scratch: Vec::new(),
            plan_scratch: Vec::new(),
            window_scratch: Vec::new(),
            now,
            last_tde_run,
            rng,
            safety,
        })
    }
}

/// Frame tag for one serialized [`FleetSim`] inside a snapshot file.
pub const FRAME_FLEET: u16 = 0x0001;

impl FleetSim {
    /// Serialize the fleet into a sealed snapshot file image (magic,
    /// version, one [`FRAME_FLEET`] frame, trailer).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut fw = FrameWriter::new();
        fw.frame_snap(FRAME_FLEET, self);
        fw.finish()
    }

    /// Restore a fleet from a snapshot file image produced by
    /// [`FleetSim::snapshot_bytes`]. Every frame seal and the whole-file
    /// trailer are verified; any flipped bit surfaces as a [`SnapError`].
    pub fn from_snapshot_bytes(data: &[u8]) -> Result<Self, SnapError> {
        let mut fr = FrameReader::new(data)?;
        let mut fleet = None;
        while let Some((tag, payload)) = fr.next_frame()? {
            if tag == FRAME_FLEET && fleet.is_none() {
                fleet = Some(autodbaas_snapshot::decode_from_slice::<FleetSim>(payload)?);
            }
        }
        fleet.ok_or(SnapError::Malformed("no fleet frame"))
    }

    /// Write the fleet snapshot to `path` atomically (temp file + rename),
    /// so a crash mid-write never leaves a half-snapshot behind.
    pub fn save_snapshot(&self, path: &std::path::Path) -> std::io::Result<()> {
        let bytes = self.snapshot_bytes();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)
    }

    /// Read and restore a fleet snapshot from `path`.
    pub fn load_snapshot(path: &std::path::Path) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_snapshot_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ManagedDatabase;
    use autodbaas_core::{TdeConfig, TuningPolicy};
    use autodbaas_simdb::{DbFlavor, DiskKind, InstanceType};
    use autodbaas_telemetry::MILLIS_PER_MIN;
    use autodbaas_tuner::WorkloadId;
    use autodbaas_workload::{tpcc, ArrivalProcess};

    fn make_node(policy: TuningPolicy, seed: u64) -> ManagedDatabase {
        let wl = tpcc(0.5);
        let catalog = wl.catalog().clone();
        ManagedDatabase::new(
            DbFlavor::Postgres,
            InstanceType::M4Large,
            DiskKind::Ssd,
            catalog,
            Box::new(wl),
            ArrivalProcess::Constant(300.0),
            policy,
            WorkloadId(0),
            TdeConfig::default(),
            seed,
        )
    }

    #[test]
    fn fleet_runs_and_time_advances() {
        let mut sim = FleetSim::new(FleetConfig::default(), 2);
        sim.add_node(make_node(TuningPolicy::TdeDriven, 1), "db-0");
        sim.run_for(3 * MILLIS_PER_MIN);
        assert_eq!(sim.now(), 3 * MILLIS_PER_MIN);
        assert!(sim.nodes[0].queries_submitted > 10_000);
    }

    #[test]
    fn periodic_policy_fires_on_schedule() {
        let mut sim = FleetSim::new(
            FleetConfig {
                gate_samples_with_tde: false,
                ..FleetConfig::default()
            },
            2,
        );
        sim.add_node(
            make_node(TuningPolicy::Periodic(5 * MILLIS_PER_MIN), 2),
            "db-0",
        );
        sim.run_for(31 * MILLIS_PER_MIN);
        // ~6 requests over 31 min at a 5-min period.
        let total = sim.director.total_requests();
        assert!((4..=8).contains(&total), "requests {total}");
    }

    #[test]
    fn tde_policy_on_healthy_workload_requests_less_than_periodic() {
        // TPCC at defaults only throttles work_mem occasionally; a 5-min
        // periodic policy fires unconditionally.
        let mk = |policy| {
            let mut sim = FleetSim::new(FleetConfig::default(), 2);
            sim.add_node(make_node(policy, 3), "db");
            sim.run_for(40 * MILLIS_PER_MIN);
            sim.director.total_requests()
        };
        let tde = mk(TuningPolicy::TdeDriven);
        let periodic = mk(TuningPolicy::Periodic(5 * MILLIS_PER_MIN));
        assert!(
            tde <= periodic,
            "TDE-driven ({tde}) must not exceed periodic ({periodic})"
        );
    }

    #[test]
    fn offline_seeding_populates_repository() {
        let mut sim = FleetSim::new(FleetConfig::default(), 1);
        let wl = tpcc(0.5);
        let id = sim.seed_offline_training(&wl, DbFlavor::Postgres, 5);
        assert_eq!(sim.repo.workload(id).samples.len(), 5);
        assert!(sim.repo.workload(id).offline);
        assert!(sim
            .repo
            .workload(id)
            .samples
            .iter()
            .all(|s| s.objective > 0.0));
    }

    #[test]
    fn recommendations_eventually_get_applied() {
        let mut sim = FleetSim::new(
            FleetConfig {
                tde_period_ms: MILLIS_PER_MIN,
                gate_samples_with_tde: false,
                ..FleetConfig::default()
            },
            2,
        );
        let wl = tpcc(0.5);
        sim.seed_offline_training(&wl, DbFlavor::Postgres, 8);
        sim.add_node(
            make_node(TuningPolicy::Periodic(2 * MILLIS_PER_MIN), 4),
            "db",
        );
        let default_knobs = sim.nodes[0].db().knobs().clone();
        sim.run_for(20 * MILLIS_PER_MIN);
        assert!(
            sim.nodes[0].prev_action.is_some(),
            "a recommendation should have been applied"
        );
        assert_ne!(
            sim.nodes[0].db().knobs(),
            &default_knobs,
            "knobs should have moved off defaults"
        );
    }

    #[test]
    fn any_shard_count_drives_the_same_fleet() {
        // `shards: 4` forces real worker threads even on a single-core
        // machine, where auto resolution (`0`) would fall back to one shard.
        let build = |shards: usize| {
            let mut sim = FleetSim::new(
                FleetConfig {
                    gate_samples_with_tde: false,
                    shards,
                    ..FleetConfig::default()
                },
                2,
            );
            for i in 0..10 {
                sim.add_node(
                    make_node(TuningPolicy::TdeDriven, 100 + i),
                    &format!("db-{i}"),
                );
            }
            sim.run_for(5 * MILLIS_PER_MIN);
            (
                sim.nodes
                    .iter()
                    .map(|n| n.queries_submitted)
                    .collect::<Vec<_>>(),
                sim.events.fingerprint(),
                sim.drive_stats(),
            )
        };
        let one = build(1);
        assert_eq!(one.2.node_ticks, 10 * 5 * 60, "drives meter node-ticks");
        assert_eq!(
            one.2.submitted,
            one.0.iter().sum::<u64>(),
            "merged submit totals must equal the per-node counters"
        );
        for shards in [0, 4] {
            let sharded = build(shards);
            assert_eq!(one.0, sharded.0, "sharding must not change results");
            assert_eq!(one.1, sharded.1, "event logs must match");
            assert_eq!(one.2, sharded.2, "drive totals must match");
        }
    }

    #[test]
    fn interaction_plan_drives_fleet_and_is_shard_invariant() {
        use crate::plan::{InteractionPlan, PlanAction, PlanEvent};
        let plan_events = || {
            vec![
                PlanEvent {
                    at: 30_000,
                    node: 0,
                    action: PlanAction::Burst {
                        rate_qps: 900.0,
                        duration_ms: 60_000,
                    },
                },
                PlanEvent {
                    at: 45_000,
                    node: 1,
                    action: PlanAction::AddReplica,
                },
                PlanEvent {
                    at: 60_000,
                    node: 1,
                    action: PlanAction::Fault(FaultKind::VmCrash),
                },
                PlanEvent {
                    at: 90_000,
                    node: 2,
                    action: PlanAction::KnobPush { value: 1.0 },
                },
                PlanEvent {
                    at: 120_000,
                    node: 3,
                    action: PlanAction::Maintenance,
                },
                PlanEvent {
                    at: 150_000,
                    node: 1,
                    action: PlanAction::RemoveReplica,
                },
            ]
        };
        let build = |shards: usize| {
            let mut sim = FleetSim::new(
                FleetConfig {
                    gate_samples_with_tde: false,
                    shards,
                    rollback: Some(RollbackPolicy::default()),
                    ..FleetConfig::default()
                },
                2,
            );
            for i in 0..6 {
                sim.add_node(
                    make_node(TuningPolicy::TdeDriven, 200 + i),
                    &format!("db-{i}"),
                );
            }
            sim.enable_plan(InteractionPlan::new(plan_events()));
            sim.run_for(6 * MILLIS_PER_MIN);
            sim
        };
        let one = build(1);
        assert_eq!(one.plan_remaining(), 0);
        for label in [
            "plan.burst",
            "plan.burst_end",
            "plan.replica_add",
            "fault.vm_crash",
            "plan.knob_push",
            "plan.maintenance",
            "plan.replica_remove",
        ] {
            assert_eq!(one.events.count(label), 1, "{label}");
        }
        // The VmCrash at 60s hits a service that grew a replica at 45s, so
        // it fails over instead of going fully down; the replica-less
        // maintenance restart on node 3 must cost real downtime.
        assert_eq!(one.events.count("recover.failover"), 1);
        assert!(one.nodes[3].down_ticks > 0);
        assert_eq!(one.nodes[1].service.n_slaves(), 0, "removed at 150s");
        // The burst tripled node 0's arrivals for a minute.
        assert!(one.nodes[0].queries_submitted > one.nodes[4].queries_submitted);
        // Bit-identical on three shards.
        let sharded = build(3);
        assert_eq!(
            one.nodes
                .iter()
                .map(|n| n.queries_submitted)
                .collect::<Vec<_>>(),
            sharded
                .nodes
                .iter()
                .map(|n| n.queries_submitted)
                .collect::<Vec<_>>()
        );
        assert_eq!(one.events.fingerprint(), sharded.events.fingerprint());
    }

    #[test]
    fn rl_backend_runs_end_to_end() {
        let mut sim = FleetSim::new(
            FleetConfig {
                tuner: TunerKind::Rl,
                gate_samples_with_tde: false,
                ..FleetConfig::default()
            },
            1,
        );
        sim.add_node(
            make_node(TuningPolicy::Periodic(2 * MILLIS_PER_MIN), 5),
            "db",
        );
        sim.run_for(10 * MILLIS_PER_MIN);
        assert!(sim.director.total_requests() >= 3);
        assert!(sim.nodes[0].prev_action.is_some());
    }
}
