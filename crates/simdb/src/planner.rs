//! Query planner cost model.
//!
//! The planner is where the three knob classes touch query execution:
//!
//! * **Memory knobs** size the work areas; a demand above the grant makes
//!   the plan spill to disk (the signal §3.1's memory detector reads from
//!   `EXPLAIN`-style plans of sampled templates).
//! * **Async/planner knobs** steer the access-path choice (index vs.
//!   sequential scan, parallel workers). Mis-set estimate knobs make the
//!   planner pick paths that are *estimated* cheap but *actually* slow —
//!   exactly the cost/benefit gap §3.3's MDP probes.
//! * Background-writer knobs do not appear here; they act through the disk
//!   model.
//!
//! Because knob names differ per flavor, [`KnobRoles`] resolves the profile
//! once into functional roles the planner/executor/TDE all share.

use crate::catalog::{Catalog, PAGE_BYTES};
use crate::knobs::{DbFlavor, KnobId, KnobProfile, KnobSet};
use crate::query::QueryProfile;

/// Which work-area category a spill exhausted. Maps 1:1 onto a memory knob
/// via [`KnobRoles::knob_for_spill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpillKind {
    /// Sort/hash/join work area (`work_mem` / `sort_buffer_size`).
    WorkMem,
    /// Maintenance operations (`maintenance_work_mem` / `key_buffer_size`).
    MaintenanceMem,
    /// Temp tables (`temp_buffers` / `tmp_table_size`).
    TempBuffers,
}

/// Access path chosen for the scan portion of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Full sequential scan of the table segment.
    SeqScan,
    /// Random-order index scan.
    IndexScan,
}

/// The planner's output for one query. All fields are plain scalars, so a
/// `Plan` is `Copy` — the executor stamps per-execution variants without
/// heap traffic.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Chosen scan path.
    pub path: AccessPath,
    /// Effective IO concurrency (prefetch depth) granted by the knobs;
    /// speeds up random reads at execution time.
    pub io_concurrency: f64,
    /// Planner's *estimated* cost (abstract units; knob-dependent).
    pub est_cost: f64,
    /// Parallel workers the plan wants (granted at execution time).
    pub workers_requested: u32,
    /// Pages the plan expects to touch.
    pub est_pages: u64,
    /// Work-area bytes granted.
    pub mem_grant: u64,
    /// Spill, if the demand exceeded its work-area knob.
    pub spill: Option<SpillKind>,
    /// Bytes that overflow to temp files when spilling.
    pub spill_bytes: u64,
}

/// Functional knob roles resolved from a [`KnobProfile`].
#[derive(Debug, Clone)]
pub struct KnobRoles {
    /// The restart-bound buffer-pool knob (§4's canonical non-tunable knob).
    pub buffer_pool: KnobId,
    /// Per-query sort/hash work area.
    pub work_area: KnobId,
    /// Maintenance work area.
    pub maintenance_area: KnobId,
    /// Temp-table area.
    pub temp_area: KnobId,
    /// Checkpoint cadence trigger (timeout or dirty-page threshold).
    pub checkpoint_interval: KnobId,
    /// Checkpoint spreading factor.
    pub checkpoint_spread: KnobId,
    /// Background-writer cleaning rate.
    pub bg_clean_rate: KnobId,
    /// WAL-volume checkpoint trigger.
    pub wal_trigger: KnobId,
    /// Parallel workers per query.
    pub parallel_workers: KnobId,
    /// Random-access cost estimate knob.
    pub random_cost: KnobId,
    /// Cache-size estimate knob.
    pub cache_estimate: KnobId,
    /// IO-concurrency / prefetch knob.
    pub io_concurrency: KnobId,
}

impl KnobRoles {
    /// Resolve roles for a profile. Panics if the profile lacks a role —
    /// built-in profiles always resolve, and a custom profile that doesn't
    /// is unusable, so failing fast is right.
    pub fn resolve(profile: &KnobProfile) -> Self {
        let get = |name: &str| {
            profile
                .lookup(name)
                // detlint-allow: R003 built-in profiles always resolve; a custom profile lacking a role knob is unusable, so failing at construction is the contract
                .unwrap_or_else(|| panic!("profile {} lacks knob {name}", profile.flavor()))
        };
        match profile.flavor() {
            DbFlavor::Postgres => Self {
                buffer_pool: get("shared_buffers"),
                work_area: get("work_mem"),
                maintenance_area: get("maintenance_work_mem"),
                temp_area: get("temp_buffers"),
                checkpoint_interval: get("checkpoint_timeout"),
                checkpoint_spread: get("checkpoint_completion_target"),
                bg_clean_rate: get("bgwriter_lru_maxpages"),
                wal_trigger: get("max_wal_size"),
                parallel_workers: get("max_parallel_workers_per_gather"),
                random_cost: get("random_page_cost"),
                cache_estimate: get("effective_cache_size"),
                io_concurrency: get("effective_io_concurrency"),
            },
            DbFlavor::MySql => Self {
                buffer_pool: get("innodb_buffer_pool_size"),
                work_area: get("sort_buffer_size"),
                maintenance_area: get("key_buffer_size"),
                temp_area: get("tmp_table_size"),
                checkpoint_interval: get("innodb_max_dirty_pages_pct"),
                checkpoint_spread: get("innodb_flush_neighbors"),
                bg_clean_rate: get("innodb_io_capacity"),
                wal_trigger: get("innodb_log_file_size"),
                parallel_workers: get("thread_concurrency"),
                random_cost: get("optimizer_search_depth"),
                cache_estimate: get("read_rnd_buffer_size"),
                io_concurrency: get("innodb_read_io_threads"),
            },
            DbFlavor::Lsm => Self {
                buffer_pool: get("block_cache_bytes"),
                work_area: get("scan_buffer_bytes"),
                maintenance_area: get("compaction_buffer_bytes"),
                temp_area: get("temp_buffer_bytes"),
                // A bigger memtable spaces out flushes the way a longer
                // checkpoint_timeout spaces out checkpoints, so bg-cadence
                // findings raise it.
                checkpoint_interval: get("memtable_bytes"),
                checkpoint_spread: get("compaction_spread"),
                bg_clean_rate: get("compaction_parallelism"),
                wal_trigger: get("l0_compaction_trigger"),
                parallel_workers: get("parallel_scan_workers"),
                random_cost: get("bloom_bits_per_key"),
                cache_estimate: get("cache_size_estimate_bytes"),
                io_concurrency: get("read_ahead_ios"),
            },
        }
    }

    /// The knob a spill of `kind` indicts.
    pub fn knob_for_spill(&self, kind: SpillKind) -> KnobId {
        match kind {
            SpillKind::WorkMem => self.work_area,
            SpillKind::MaintenanceMem => self.maintenance_area,
            SpillKind::TempBuffers => self.temp_area,
        }
    }
}

/// Cost-model constants. Sequential page cost is the unit.
const SEQ_PAGE_COST: f64 = 1.0;
const CPU_TUPLE_COST: f64 = 0.01;
const SPILL_PAGE_COST: f64 = 2.5;
const WORKER_OVERHEAD: f64 = 30.0;
/// Fraction of a random page fetch an uncorrelated index scan pays per row.
const RANDOM_FETCH_PER_ROW: f64 = 0.1;

/// The planner itself: stateless over `(profile, roles)`.
#[derive(Debug, Clone)]
pub struct Planner {
    profile: KnobProfile,
    roles: KnobRoles,
}

impl Planner {
    /// Build a planner for a knob profile.
    pub fn new(profile: KnobProfile) -> Self {
        let roles = KnobRoles::resolve(&profile);
        Self { profile, roles }
    }

    /// The resolved roles (shared with the executor and the TDE).
    pub fn roles(&self) -> &KnobRoles {
        &self.roles
    }

    /// The profile this planner interprets.
    pub fn profile(&self) -> &KnobProfile {
        &self.profile
    }

    /// Normalized random-access cost factor in `[1, 10]` regardless of the
    /// underlying knob's units, so the model is flavor-agnostic.
    fn random_cost_factor(&self, knobs: &KnobSet) -> f64 {
        let spec = self.profile.spec(self.roles.random_cost);
        let v = knobs.get(self.roles.random_cost);
        let t = ((v - spec.min) / (spec.max - spec.min)).clamp(0.0, 1.0);
        match self.profile.flavor() {
            // random_page_cost maps directly.
            DbFlavor::Postgres => v,
            // optimizer_search_depth: deeper search = better estimates =
            // effectively lower random-cost pessimism.
            DbFlavor::MySql => 1.0 + (1.0 - t) * 9.0,
            // bloom_bits_per_key: more bits = fewer wasted SSTable probes
            // per point read = lower effective random-access cost.
            DbFlavor::Lsm => 1.0 + (1.0 - t) * 9.0,
        }
    }

    /// The planner's *belief* about how much of a table is cached, from the
    /// cache-estimate knob (it cannot see the real buffer pool).
    fn cached_fraction_estimate(&self, knobs: &KnobSet, table_bytes: u64) -> f64 {
        let est_cache = knobs.get(self.roles.cache_estimate);
        // Even a table that "fits in cache" is never assumed more than 80%
        // resident — the planner hedges like real optimizers do.
        (est_cache / table_bytes.max(1) as f64).clamp(0.0, 0.8)
    }

    /// Plan a query under `knobs`.
    pub fn plan(&self, q: &QueryProfile, knobs: &KnobSet, catalog: &Catalog) -> Plan {
        let table = catalog.table(q.table);
        let table_pages = table.pages().max(1);
        let rows = q.rows_examined.max(1);
        let sel_pages = (rows * table.row_bytes as u64)
            .div_ceil(PAGE_BYTES)
            .min(table_pages);

        // --- Work-area grant and spill decision --------------------------
        let (spill, spill_bytes, mem_grant) = self.spill_decision(q, knobs);

        // --- Parallelism --------------------------------------------------
        let max_workers = knobs.get(self.roles.parallel_workers).max(0.0) as u64;
        let useful_workers = rows / 50_000; // below ~50k rows a worker costs more than it saves
        let workers_requested = if q.parallelizable {
            // The knob spec bounds max_workers to a small constant, so the
            // min always fits the Plan's u32 field; saturate regardless.
            u32::try_from(max_workers.min(useful_workers)).unwrap_or(u32::MAX)
        } else {
            0
        };

        // --- Access path --------------------------------------------------
        let rnd = self.random_cost_factor(knobs);
        let cached = self.cached_fraction_estimate(knobs, table.heap_bytes());
        let miss_est = 1.0 - cached;
        let has_index = table.indexes > 0;
        // An uncorrelated index scan pays a fraction of a random page fetch
        // per row (heap clustering amortises the rest) plus doubled per-row
        // CPU for the index probe.
        let index_cost = if has_index {
            rows as f64 * rnd * miss_est * RANDOM_FETCH_PER_ROW + rows as f64 * 2.0 * CPU_TUPLE_COST
        } else {
            f64::INFINITY
        };
        let par_div = 1.0 + 0.7 * workers_requested as f64;
        let seq_cost = table_pages as f64 * SEQ_PAGE_COST / par_div
            + rows as f64 * CPU_TUPLE_COST
            + WORKER_OVERHEAD * workers_requested as f64;

        let (path, mut est_cost, est_pages) = if index_cost < seq_cost {
            (AccessPath::IndexScan, index_cost, sel_pages)
        } else {
            (
                AccessPath::SeqScan,
                seq_cost,
                table_pages.min(sel_pages * 8).max(sel_pages),
            )
        };
        if spill.is_some() {
            est_cost += (spill_bytes / PAGE_BYTES) as f64 * SPILL_PAGE_COST;
        }

        Plan {
            path,
            io_concurrency: knobs.get(self.roles.io_concurrency).max(0.0),
            est_cost,
            workers_requested,
            est_pages,
            mem_grant,
            spill,
            spill_bytes,
        }
    }

    fn spill_decision(&self, q: &QueryProfile, knobs: &KnobSet) -> (Option<SpillKind>, u64, u64) {
        let checks = [
            (q.sort_bytes, self.roles.work_area, SpillKind::WorkMem),
            (
                q.maintenance_bytes,
                self.roles.maintenance_area,
                SpillKind::MaintenanceMem,
            ),
            (q.temp_bytes, self.roles.temp_area, SpillKind::TempBuffers),
        ];
        let mut grant = 0u64;
        let mut worst: Option<(SpillKind, u64)> = None;
        for (demand, knob, kind) in checks {
            if demand == 0 {
                continue;
            }
            let limit = knobs.get(knob) as u64;
            grant += demand.min(limit);
            if demand > limit {
                let overflow = demand - limit;
                if worst.is_none_or(|(_, w)| overflow > w) {
                    worst = Some((kind, overflow));
                }
            }
        }
        match worst {
            Some((kind, bytes)) => (Some(kind), bytes, grant),
            None => (None, 0, grant),
        }
    }

    /// The *true* cost of executing `plan` given the actually observed
    /// buffer hit ratio — the ground truth the MDP's cost/benefit analysis
    /// compares against the estimate. Same units as `est_cost`.
    pub fn true_cost(
        &self,
        q: &QueryProfile,
        plan: &Plan,
        actual_hit_ratio: f64,
        catalog: &Catalog,
    ) -> f64 {
        let table = catalog.table(q.table);
        let miss = (1.0 - actual_hit_ratio).clamp(0.0, 1.0);
        let rows = q.rows_examined.max(1);
        // On real hardware random reads genuinely cost ~2x sequential on SSD.
        const TRUE_RANDOM_FACTOR: f64 = 2.0;
        // Prefetch (effective_io_concurrency-style knobs) genuinely speeds
        // up multi-page random reads, but prefetching on single-row lookups
        // only pollutes the cache and IO queue. Neither effect is in the
        // *estimates* — exactly the kind of gap §3.3's MDP probes, and its
        // optimum moves with the workload mix (the reason re-tuning after a
        // workload switch pays, Fig. 14).
        let eic = (1.0 + plan.io_concurrency).ln();
        let prefetch = if plan.est_pages > 4 {
            1.0 + 0.15 * eic
        } else {
            1.0
        };
        let pollution = if plan.est_pages <= 4 {
            1.0 + 0.10 * eic
        } else {
            1.0
        };
        let scan = match plan.path {
            AccessPath::IndexScan => {
                plan.est_pages as f64 * TRUE_RANDOM_FACTOR * miss.max(0.02) * pollution / prefetch
            }
            AccessPath::SeqScan => {
                let par_div = 1.0 + 0.7 * plan.workers_requested as f64;
                table.pages().max(1) as f64 * (0.3 + 0.7 * miss) / par_div
                    + WORKER_OVERHEAD * plan.workers_requested as f64
            }
        };
        let cpu = rows as f64 * CPU_TUPLE_COST;
        let spill = (plan.spill_bytes / PAGE_BYTES) as f64 * SPILL_PAGE_COST;
        scan + cpu + spill
    }
}

autodbaas_snapshot::snap_enum!(SpillKind {
    WorkMem = 0,
    MaintenanceMem = 1,
    TempBuffers = 2
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::KnobProfile;
    use crate::query::QueryKind;

    const MIB: u64 = 1024 * 1024;

    fn setup() -> (Planner, KnobSet, Catalog) {
        let profile = KnobProfile::postgres();
        let knobs = profile.defaults();
        let mut cat = Catalog::new();
        cat.add_table("big", 10_000_000, 100, 2); // ~1 GB
        cat.add_table("small", 1_000, 100, 1);
        (Planner::new(profile), knobs, cat)
    }

    fn query(kind: QueryKind, table: u32, rows: u64) -> QueryProfile {
        let mut q = QueryProfile::new(kind, table);
        q.rows_examined = rows;
        q
    }

    #[test]
    fn roles_resolve_for_all_flavors() {
        let _ = KnobRoles::resolve(&KnobProfile::postgres());
        let _ = KnobRoles::resolve(&KnobProfile::mysql());
        let _ = KnobRoles::resolve(&KnobProfile::lsm());
    }

    #[test]
    fn point_lookup_prefers_index() {
        let (p, knobs, cat) = setup();
        let plan = p.plan(&query(QueryKind::PointSelect, 0, 1), &knobs, &cat);
        assert_eq!(plan.path, AccessPath::IndexScan);
    }

    #[test]
    fn full_scan_prefers_seqscan() {
        let (p, knobs, cat) = setup();
        let plan = p.plan(&query(QueryKind::Aggregate, 0, 10_000_000), &knobs, &cat);
        assert_eq!(plan.path, AccessPath::SeqScan);
    }

    #[test]
    fn high_random_cost_pushes_toward_seqscan() {
        let (p, mut knobs, cat) = setup();
        let profile = p.profile().clone();
        // A medium-selectivity query near the crossover.
        let q = query(QueryKind::RangeSelect, 0, 600_000);
        knobs.set_named(&profile, "random_page_cost", 1.0);
        let cheap_random = p.plan(&q, &knobs, &cat);
        knobs.set_named(&profile, "random_page_cost", 10.0);
        let dear_random = p.plan(&q, &knobs, &cat);
        assert_eq!(cheap_random.path, AccessPath::IndexScan);
        assert_eq!(dear_random.path, AccessPath::SeqScan);
    }

    #[test]
    fn spill_triggers_when_demand_exceeds_work_mem() {
        let (p, knobs, cat) = setup();
        let mut q = query(QueryKind::ComplexAggregate, 0, 100_000);
        q.sort_bytes = 350 * MIB; // paper's heavy-sort demand vs 4 MiB default
        let plan = p.plan(&q, &knobs, &cat);
        assert_eq!(plan.spill, Some(SpillKind::WorkMem));
        assert!(plan.spill_bytes > 300 * MIB);
    }

    #[test]
    fn no_spill_when_work_mem_suffices() {
        let (p, mut knobs, cat) = setup();
        let profile = p.profile().clone();
        knobs.set_named(&profile, "work_mem", (512 * MIB) as f64);
        let mut q = query(QueryKind::ComplexAggregate, 0, 100_000);
        q.sort_bytes = 350 * MIB;
        let plan = p.plan(&q, &knobs, &cat);
        assert_eq!(plan.spill, None);
    }

    #[test]
    fn maintenance_and_temp_spills_map_to_their_kinds() {
        let (p, knobs, cat) = setup();
        let mut q = query(QueryKind::CreateIndex, 0, 1_000_000);
        q.maintenance_bytes = 10_000 * MIB;
        assert_eq!(
            p.plan(&q, &knobs, &cat).spill,
            Some(SpillKind::MaintenanceMem)
        );

        let mut q = query(QueryKind::TempTable, 0, 10_000);
        q.temp_bytes = 1_000 * MIB;
        assert_eq!(p.plan(&q, &knobs, &cat).spill, Some(SpillKind::TempBuffers));
    }

    #[test]
    fn worst_overflow_wins_when_multiple_categories_spill() {
        let (p, knobs, cat) = setup();
        let mut q = query(QueryKind::TempTable, 0, 10_000);
        q.sort_bytes = 8 * MIB; // overflows 4 MiB work_mem by 4 MiB
        q.temp_bytes = 500 * MIB; // overflows 8 MiB temp_buffers by ~492 MiB
        let plan = p.plan(&q, &knobs, &cat);
        assert_eq!(plan.spill, Some(SpillKind::TempBuffers));
    }

    #[test]
    fn parallel_workers_require_knob_and_size() {
        let (p, mut knobs, cat) = setup();
        let profile = p.profile().clone();
        let mut big = query(QueryKind::Aggregate, 0, 2_000_000);
        big.parallelizable = true;
        // Default knob is 0 → no workers.
        assert_eq!(p.plan(&big, &knobs, &cat).workers_requested, 0);
        knobs.set_named(&profile, "max_parallel_workers_per_gather", 4.0);
        assert!(p.plan(&big, &knobs, &cat).workers_requested > 0);
        // A tiny query must not request workers even with the knob up.
        let mut tiny = query(QueryKind::Aggregate, 1, 100);
        tiny.parallelizable = true;
        assert_eq!(p.plan(&tiny, &knobs, &cat).workers_requested, 0);
    }

    #[test]
    fn true_cost_penalizes_cold_cache_index_scans() {
        let (p, knobs, cat) = setup();
        let q = query(QueryKind::RangeSelect, 0, 600_000);
        let plan = p.plan(&q, &knobs, &cat);
        let hot = p.true_cost(&q, &plan, 0.99, &cat);
        let cold = p.true_cost(&q, &plan, 0.05, &cat);
        assert!(cold > hot);
    }

    #[test]
    fn spill_inflates_both_estimated_and_true_cost() {
        let (p, mut knobs, cat) = setup();
        let profile = p.profile().clone();
        let mut q = query(QueryKind::OrderBy, 0, 100_000);
        q.sort_bytes = 64 * MIB;
        let spilled = p.plan(&q, &knobs, &cat);
        knobs.set_named(&profile, "work_mem", (128 * MIB) as f64);
        let in_mem = p.plan(&q, &knobs, &cat);
        assert!(spilled.est_cost > in_mem.est_cost);
        assert!(p.true_cost(&q, &spilled, 0.9, &cat) > p.true_cost(&q, &in_mem, 0.9, &cat));
    }

    #[test]
    fn mysql_planner_plans_without_panic() {
        let profile = KnobProfile::mysql();
        let knobs = profile.defaults();
        let p = Planner::new(profile);
        let mut cat = Catalog::new();
        cat.add_table("t", 1_000_000, 120, 1);
        let mut q = query(QueryKind::Join, 0, 50_000);
        q.sort_bytes = 10 * MIB;
        let plan = p.plan(&q, &knobs, &cat);
        // Default sort_buffer_size is 256 KiB → a 10 MiB join spills.
        assert_eq!(plan.spill, Some(SpillKind::WorkMem));
    }
}
