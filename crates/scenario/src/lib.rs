//! Interaction-plan scenario simulator for the AutoDBaaS fleet.
//!
//! The chaos engine (`autodbaas-cloudsim::faults`) can *replay* seeded
//! fault plans; this crate *searches* for the conditions that break the
//! fleet, in the style of Turso's deterministic simulator and the safety
//! framing of OnlineTune:
//!
//! * [`profile`] — weighted, reusable scenario shapes (`quiet`,
//!   `diurnal-heavy`, `failover-storm`);
//! * [`gen`] — seeded generation of interaction plans (bursts, knob
//!   pushes, faults, maintenance, replica churn) from a profile's dice;
//! * [`run`] — drive a plan through the real [`FleetSim`] — on one shard,
//!   again on several shards, and again interrupted by a mid-plan
//!   save/restore, as doublecheck twins;
//! * [`oracle`] — the named property catalog: availability floor, no
//!   wedged services, rollback-guard correctness, tuner-sample hygiene,
//!   one-shard-vs-sharded identity, snapshot identity;
//! * [`shrink`] — deterministic delta-debugging to a 1-minimal
//!   counterexample;
//! * [`bugbase`] — shrunk counterexamples persisted as TOML files that a
//!   tier-1 test replays forever;
//! * [`explore`] — the generate → run → judge → shrink → persist pipeline
//!   behind the `autodbaas-scenario` binary.
//!
//! Everything is deterministic given `(profile, seed)`: same inputs ⇒ same
//! plan fingerprint, same event-log fingerprint, same verdicts, on every
//! machine.
//!
//! [`FleetSim`]: autodbaas_cloudsim::FleetSim

pub mod bugbase;
pub mod explore;
pub mod gen;
pub mod oracle;
pub mod profile;
pub mod run;
pub mod shrink;

pub use bugbase::{format_event, load_dir, parse_event, BugEntry, BugStatus, ReplayVerdict};
pub use explore::{entry_from, explore_seed, shrink_violation, verdict_line, SeedVerdict};
pub use gen::generate;
pub use oracle::{check_all, Property, Violation};
pub use profile::{profile, ActionWeights, Profile, PROFILES};
pub use run::{run_plan, RunOutcome};
pub use shrink::{shrink, ShrinkStats};
