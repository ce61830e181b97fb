//! Discrete-event fleet simulator for the AutoDBaaS reproduction.
//!
//! The paper evaluates on an AWS fleet: 80 live databases across five VM
//! plans, 12 tuner instances, 5 config directors, one shared central data
//! repository (§5). This crate reproduces that topology in simulation:
//!
//! * [`node::ManagedDatabase`] — one replicated service + its TDE plugin +
//!   workload, with the in-flight/retry/rollback control state;
//! * [`sim::FleetSim`] — lockstep fleet advance with an event queue for
//!   recommendation completions, TDE-gated sample capture, both tuner
//!   backends, and the self-healing control plane (failover, crash
//!   recovery, retry/backoff, reconciliation, safe rollback);
//! * [`shard`] — the fleet's one tick engine: long-lived worker shards
//!   behind a generation barrier, bit-identical for any shard count (one
//!   shard is the plain serial loop);
//! * [`faults`] — the deterministic seeded chaos engine driving the
//!   robustness experiments (Fig. 16);
//! * [`plan`] — interaction plans: the scenario simulator's superset of
//!   fault plans (bursts, knob pushes, maintenance, replica churn);
//! * [`runner`] — single-database drive helpers for the figure harnesses.

pub mod faults;
pub mod node;
pub mod plan;
pub mod runner;
pub mod safety;
pub mod shard;
pub mod sim;

pub use faults::{FaultEngine, FaultEvent, FaultKind, FaultPlan};
pub use node::{DeferredApply, DriveTick, InFlightRequest, ManagedDatabase, RollbackGuard};
pub use plan::{InteractionPlan, PlanAction, PlanEngine, PlanEvent};
pub use runner::{drive_workload, drive_workload_with_faults, ChaosDriveResult, DriveResult};
pub use safety::{RegretLedger, SafeRegion, SafetyConfig, SafetyGovernor, WindowVerdict};
pub use shard::{derived_shard_seed, DriveStats, HotState, ShardPool};
pub use sim::{FleetConfig, FleetSim, RollbackPolicy, FRAME_FLEET};
