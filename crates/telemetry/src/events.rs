//! Countable, fingerprintable event log for fault-injection and recovery
//! telemetry.
//!
//! The chaos engine and the self-healing control plane both need the same
//! thing from telemetry: every fault injected and every recovery action
//! taken must be *countable* (so harnesses can report availability, MTTR
//! and convergence) and the whole log must be *comparable across runs* (so
//! a seeded chaos run can assert bit-for-bit reproducibility). This module
//! provides that as an append-only, deterministic event log.

use crate::SimTime;
use autodbaas_snapshot::{fnv1a, fnv1a_start};

/// Streaming FNV-1a hasher over arbitrary byte chunks, built on the
/// snapshot codec's [`fnv1a`] so the workspace has one 64-bit FNV-1a.
///
/// One fingerprint definition serves every bit-for-bit comparison in the
/// workspace: [`EventLog::fingerprint`] pins chaos-run reproducibility, and
/// the scenario simulator hashes interaction plans with the same function so
/// a bug-base entry's plan fingerprint and its replayed event log share a
/// vocabulary.
///
/// # Examples
///
/// ```
/// use autodbaas_telemetry::Fingerprint;
///
/// let mut a = Fingerprint::new();
/// a.mix(b"fault.vm_crash");
/// a.mix(&3u64.to_le_bytes());
/// let mut b = Fingerprint::new();
/// b.mix(b"fault.vm_crash");
/// b.mix(&3u64.to_le_bytes());
/// assert_eq!(a.finish(), b.finish());
/// assert_ne!(a.finish(), Fingerprint::new().finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    state: u64,
}

impl Fingerprint {
    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self {
            state: fnv1a_start(),
        }
    }

    /// Absorb a byte chunk.
    pub fn mix(&mut self, bytes: &[u8]) {
        self.state = fnv1a(self.state, bytes);
    }

    /// Absorb a `u64` in little-endian byte order.
    pub fn mix_u64(&mut self, v: u64) {
        self.mix(&v.to_le_bytes());
    }

    /// The digest so far (the hasher stays usable).
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// One fault or recovery event.
///
/// `kind` is a static dotted label (`"fault.vm_crash"`,
/// `"recover.failover"`, …) so logs stay allocation-free and greppable;
/// `target` identifies the affected entity (node index, service id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event happened.
    pub at: SimTime,
    /// Dotted event label, e.g. `"fault.vm_crash"`.
    pub kind: &'static str,
    /// Affected entity (node index / service id); `u64::MAX` = fleet-wide.
    pub target: u64,
}

/// Append-only event log.
///
/// # Examples
///
/// ```
/// use autodbaas_telemetry::EventLog;
///
/// let mut log = EventLog::new();
/// log.emit(1_000, "fault.vm_crash", 3);
/// log.emit(9_000, "recover.restarted", 3);
/// assert_eq!(log.count("fault.vm_crash"), 1);
/// assert_eq!(log.count_prefix("recover."), 1);
/// assert_eq!(log.mean_gap_ms("fault.vm_crash", "recover.restarted"), Some(8_000.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn emit(&mut self, at: SimTime, kind: &'static str, target: u64) {
        self.events.push(Event { at, kind, target });
    }

    /// Append a batch of same-timestamp events in iteration order. Exactly
    /// equivalent to calling [`EventLog::emit`] per item — same log, same
    /// [`EventLog::fingerprint`] — but reserves once, so producers that
    /// buffer events locally (e.g. the fleet's sharded tick engine) can
    /// flush a merged batch without per-event growth checks.
    pub fn emit_batch<I>(&mut self, at: SimTime, items: I)
    where
        I: IntoIterator<Item = (&'static str, u64)>,
    {
        let items = items.into_iter();
        self.events.reserve(items.size_hint().0);
        self.events
            .extend(items.map(|(kind, target)| Event { at, kind, target }));
    }

    /// All events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events logged.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events with exactly this kind.
    pub fn count(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Events whose kind starts with `prefix` (e.g. `"fault."`).
    pub fn count_prefix(&self, prefix: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind.starts_with(prefix))
            .count()
    }

    /// Mean time from each `from` event to the *next* `to` event on the
    /// same target — the MTTR measure when `from` is a fault and `to` its
    /// recovery. `None` when no matched pair exists.
    pub fn mean_gap_ms(&self, from: &str, to: &str) -> Option<f64> {
        let mut total = 0u64;
        let mut pairs = 0u64;
        for (i, e) in self.events.iter().enumerate() {
            if e.kind != from {
                continue;
            }
            if let Some(rec) = self.events[i + 1..]
                .iter()
                .find(|r| r.kind == to && r.target == e.target)
            {
                total += rec.at.saturating_sub(e.at);
                pairs += 1;
            }
        }
        (pairs > 0).then(|| total as f64 / pairs as f64)
    }

    /// FNV-1a fingerprint over the ordered log: two runs produced identical
    /// event sequences iff their fingerprints match. This is the bit-for-bit
    /// reproducibility check for seeded chaos runs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::new();
        for e in &self.events {
            h.mix_u64(e.at);
            h.mix(e.kind.as_bytes());
            h.mix_u64(e.target);
        }
        h.finish()
    }
}

// ------------------------------------------------------- snapshot support

/// Every static event-kind label the workspace emits. Snapshot decode
/// interns decoded kind strings against this table so restored logs keep
/// pointing at the same `&'static str` data (and `count`/`count_prefix`
/// comparisons stay allocation-free).
const KNOWN_KINDS: &[&str] = &[
    "apply.abandoned",
    "apply.lag_deferred",
    "apply.master_crashed",
    "apply.ok",
    "apply.rejected_slave_crash",
    "fault.disk_stall",
    "fault.master_crash_mid_apply",
    "fault.replica_lag_spike",
    "fault.request_loss",
    "fault.slave_crash_mid_apply",
    "fault.telemetry_drop",
    "fault.tuner_outage",
    "fault.vm_crash",
    "plan.burst",
    "plan.burst_end",
    "plan.knob_push",
    "plan.maintenance",
    "plan.replica_add",
    "plan.replica_remove",
    "recover.failover",
    "recover.reconciled",
    "recover.rejoined",
    "recover.restarted",
    "recover.slave_restarted",
    "request.abandoned",
    "request.retry",
    "request.stale_dropped",
    "request.timeout",
    "safe.clamped",
    "safe.slo_breach",
    "tune.rollback",
];

/// Map an event-kind string back to its `&'static str` identity. Known
/// labels resolve to the compiled-in literal; an unknown label (a snapshot
/// from a build with extra vocabulary) is leaked once — bounded by the
/// number of distinct unknown kinds, never per event.
pub fn intern_kind(kind: &str) -> &'static str {
    for k in KNOWN_KINDS {
        if *k == kind {
            return k;
        }
    }
    Box::leak(kind.to_owned().into_boxed_str())
}

impl autodbaas_snapshot::Snap for Fingerprint {
    fn encode(&self, w: &mut autodbaas_snapshot::SnapWriter) {
        w.put_u64(self.state);
    }
    fn decode(
        r: &mut autodbaas_snapshot::SnapReader<'_>,
    ) -> Result<Self, autodbaas_snapshot::SnapError> {
        Ok(Self {
            state: r.get_u64()?,
        })
    }
}

/// The log encodes as a string table of distinct kinds (first-appearance
/// order) plus `(at, kind_index, target)` triples, so multi-million-event
/// logs don't repeat label bytes per event.
impl autodbaas_snapshot::Snap for EventLog {
    fn encode(&self, w: &mut autodbaas_snapshot::SnapWriter) {
        let mut table: Vec<&'static str> = Vec::new();
        let mut index: std::collections::HashMap<&'static str, u32> =
            std::collections::HashMap::new();
        for e in &self.events {
            index.entry(e.kind).or_insert_with(|| {
                table.push(e.kind);
                (table.len() - 1) as u32
            });
        }
        w.put_u64(table.len() as u64);
        for kind in &table {
            w.put_str(kind);
        }
        w.put_u64(self.events.len() as u64);
        for e in &self.events {
            w.put_u64(e.at);
            w.put_u32(index[e.kind]);
            w.put_u64(e.target);
        }
    }
    fn decode(
        r: &mut autodbaas_snapshot::SnapReader<'_>,
    ) -> Result<Self, autodbaas_snapshot::SnapError> {
        let n_kinds = r.get_len()?;
        let mut table: Vec<&'static str> = Vec::with_capacity(n_kinds);
        for _ in 0..n_kinds {
            table.push(intern_kind(r.get_str()?));
        }
        let n_events = r.get_len()?;
        let mut events = Vec::with_capacity(n_events.min(r.remaining()));
        for _ in 0..n_events {
            let at = r.get_u64()?;
            let idx = r.get_u32()? as usize;
            let target = r.get_u64()?;
            let kind = *table
                .get(idx)
                .ok_or(autodbaas_snapshot::SnapError::Malformed("event kind index"))?;
            events.push(Event { at, kind, target });
        }
        Ok(Self { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_by_kind_and_prefix() {
        let mut log = EventLog::new();
        log.emit(0, "fault.vm_crash", 0);
        log.emit(5, "fault.disk_stall", 1);
        log.emit(9, "recover.restarted", 0);
        assert_eq!(log.len(), 3);
        assert_eq!(log.count("fault.vm_crash"), 1);
        assert_eq!(log.count_prefix("fault."), 2);
        assert_eq!(log.count_prefix("recover."), 1);
        assert_eq!(log.count("nope"), 0);
    }

    #[test]
    fn mean_gap_pairs_by_target() {
        let mut log = EventLog::new();
        log.emit(0, "fault.vm_crash", 0);
        log.emit(100, "fault.vm_crash", 1);
        log.emit(400, "recover.restarted", 1); // 300 for node 1
        log.emit(1_000, "recover.restarted", 0); // 1000 for node 0
        assert_eq!(
            log.mean_gap_ms("fault.vm_crash", "recover.restarted"),
            Some(650.0)
        );
        assert_eq!(log.mean_gap_ms("fault.vm_crash", "missing"), None);
    }

    #[test]
    fn unrecovered_faults_do_not_skew_the_mean() {
        let mut log = EventLog::new();
        log.emit(0, "fault.vm_crash", 0);
        log.emit(50, "recover.restarted", 0);
        log.emit(60, "fault.vm_crash", 2); // never recovers
        assert_eq!(
            log.mean_gap_ms("fault.vm_crash", "recover.restarted"),
            Some(50.0)
        );
    }

    #[test]
    fn emit_batch_matches_sequential_emits_exactly() {
        let mut seq = EventLog::new();
        seq.emit(7, "recover.restarted", 0);
        seq.emit(7, "recover.rejoined", 3);
        seq.emit(7, "recover.slave_restarted", 1);
        let mut batch = EventLog::new();
        batch.emit_batch(
            7,
            [
                ("recover.restarted", 0u64),
                ("recover.rejoined", 3),
                ("recover.slave_restarted", 1),
            ],
        );
        assert_eq!(seq.events(), batch.events());
        assert_eq!(seq.fingerprint(), batch.fingerprint());
        // An empty batch is a no-op.
        batch.emit_batch(8, []);
        assert_eq!(seq.fingerprint(), batch.fingerprint());
    }

    #[test]
    fn fingerprint_hasher_matches_the_inline_fnv_it_replaced() {
        // The event-log digest must be stable across the refactor onto
        // `Fingerprint` — bug-base fingerprints recorded before it would
        // otherwise silently stop matching.
        let mut log = EventLog::new();
        log.emit(1_000, "fault.vm_crash", 3);
        log.emit(9_000, "recover.restarted", 3);
        let mut h: u64 = 0xcbf29ce484222325;
        let mix = |h: &mut u64, bytes: &[u8]| {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x100000001b3);
            }
        };
        for e in log.events() {
            mix(&mut h, &e.at.to_le_bytes());
            mix(&mut h, e.kind.as_bytes());
            mix(&mut h, &e.target.to_le_bytes());
        }
        assert_eq!(log.fingerprint(), h);
        // Chunking must not matter: one mix of all bytes == many mixes.
        let mut one = Fingerprint::new();
        one.mix(b"abcdef");
        let mut many = Fingerprint::new();
        many.mix(b"ab");
        many.mix(b"cd");
        many.mix(b"ef");
        assert_eq!(one.finish(), many.finish());
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let mut a = EventLog::new();
        let mut b = EventLog::new();
        a.emit(1, "fault.vm_crash", 0);
        a.emit(2, "recover.restarted", 0);
        b.emit(1, "fault.vm_crash", 0);
        b.emit(2, "recover.restarted", 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.emit(3, "fault.vm_crash", 1);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = EventLog::new();
        c.emit(2, "recover.restarted", 0);
        c.emit(1, "fault.vm_crash", 0);
        assert_ne!(a.fingerprint(), c.fingerprint(), "order matters");
    }
}
