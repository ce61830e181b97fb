//! The explore pipeline: generate → run → judge → shrink → persist.
//!
//! One function per stage so the CLI, the verify smoke and the tests all
//! drive the same code path; the CLI binary is argument parsing and
//! printing only.

use crate::bugbase::{BugEntry, BugStatus};
use crate::gen::generate;
use crate::oracle::{check_all, Property, Violation};
use crate::profile::Profile;
use crate::run::{run_plan, RunOutcome};
use crate::shrink::{shrink, ShrinkStats};
use autodbaas_cloudsim::InteractionPlan;

/// Everything one explored seed produced.
#[derive(Debug)]
pub struct SeedVerdict {
    /// The explored seed.
    pub seed: u64,
    /// Fingerprint of the generated plan (bit-determinism witness).
    pub plan_fingerprint: u64,
    /// The generated plan itself.
    pub plan: InteractionPlan,
    /// Violated properties, in catalog order (empty = healthy).
    pub violations: Vec<Violation>,
    /// The distilled run.
    pub outcome: RunOutcome,
}

impl SeedVerdict {
    /// True when every property held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Explore one `(profile, seed)`: generate the plan, run it (with the
/// sharded doublecheck twin when asked), judge every oracle.
pub fn explore_seed(profile: &Profile, seed: u64, doublecheck: bool) -> SeedVerdict {
    let plan = generate(profile, seed);
    let outcome = run_plan(profile, &plan, seed, doublecheck);
    let violations = check_all(profile, &outcome);
    SeedVerdict {
        seed,
        plan_fingerprint: plan.fingerprint(),
        plan,
        violations,
        outcome,
    }
}

/// Shrink a failing plan against one recorded property: the predicate
/// re-runs the candidate plan under the same `(profile, seed)` and asks
/// whether that property still fails. The twins only run when the
/// property under shrink is one of the identity oracles — every other
/// property is observable on the primary run, and the twins would triple
/// the probe cost.
pub fn shrink_violation(
    profile: &Profile,
    plan: &InteractionPlan,
    seed: u64,
    property: Property,
) -> (InteractionPlan, ShrinkStats) {
    let doublecheck = matches!(
        property,
        Property::ShardedIdentity | Property::SnapshotIdentity
    );
    shrink(plan, |candidate| {
        let out = run_plan(profile, candidate, seed, doublecheck);
        property.check(profile, &out).is_some()
    })
}

/// Package a shrunk violation as a bug-base entry (open-bug status; flip
/// to `fixed` in the same commit as the fix).
pub fn entry_from(
    profile: &Profile,
    seed: u64,
    shrunk: InteractionPlan,
    violation: &Violation,
) -> BugEntry {
    BugEntry {
        seed,
        profile: profile.name.to_string(),
        property: violation.property,
        status: BugStatus::Fails,
        detail: violation.detail.clone(),
        plan_fingerprint: shrunk.fingerprint(),
        plan: shrunk,
    }
}

/// Re-judge one finished outcome (convenience for printing).
pub fn verdict_line(profile: &Profile, v: &SeedVerdict) -> String {
    if v.ok() {
        format!(
            "{} seed={} plan={:016x} ok availability={:.4}",
            profile.name, v.seed, v.plan_fingerprint, v.outcome.availability
        )
    } else {
        let names: Vec<&str> = v.violations.iter().map(|x| x.property.name()).collect();
        format!(
            "{} seed={} plan={:016x} FAIL {} — {}",
            profile.name,
            v.seed,
            v.plan_fingerprint,
            names.join(","),
            v.violations[0].detail
        )
    }
}
