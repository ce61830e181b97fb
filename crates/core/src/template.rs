//! Query templating (§3.1, after Ma et al. \[6\]).
//!
//! Queries pulled from the streaming log are normalised into *templates* —
//! the SQL text with literal parameters stripped — so that the TDE reasons
//! about a few dozen shapes instead of millions of instances. The store
//! remembers, per template, its frequency and the most frequent literal
//! values; plan evaluation substitutes those back in ("substituting the
//! actual (most frequent) parameters to the template").
//!
//! The most frequent literals come from a deterministic *space-saving*
//! summary of at most `LITERAL_SLOTS` = 8 (literal pair, count) slots per
//! template, so a template's state is bounded however long the log runs.
//! The summary is exact while a template has seen at most `LITERAL_SLOTS`
//! distinct pairs, and any pair seen more than `n / LITERAL_SLOTS` times
//! out of `n` is always kept.

use autodbaas_simdb::{QueryKind, QueryProfile};
use std::collections::HashMap;

/// Identifier of a template within a [`TemplateStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemplateId(pub u32);

/// Strip numeric literals from SQL-ish text: every digit run becomes `?`.
///
/// This is exactly the text-level normalisation the paper describes —
/// "converted to generic templates (having no actual
/// parameters/arguments)".
pub fn normalize_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut in_number = false;
    for ch in sql.chars() {
        if ch.is_ascii_digit() {
            if !in_number {
                out.push('?');
                in_number = true;
            }
        } else {
            in_number = false;
            out.push(ch);
        }
    }
    out
}

/// Aggregate knowledge about one template.
#[derive(Debug, Clone)]
pub struct TemplateEntry {
    /// Stable id.
    pub id: TemplateId,
    /// Normalised text.
    pub text: String,
    /// How many instances were observed.
    pub frequency: u64,
    /// A representative query instance (kept with the template so plans can
    /// be re-evaluated later); updated to track the most frequent literals.
    pub representative: QueryProfile,
    /// Space-saving summary of the literal pairs seen: at most
    /// `LITERAL_SLOTS` `(pair, count)` slots. A kept pair's count
    /// over-estimates its true count by at most the count of the pair it
    /// evicted; an evicted pair counts 0.
    literal_slots: Vec<([i64; 2], u64)>,
}

/// Slots in a template's literal summary (see the module docs).
const LITERAL_SLOTS: usize = 8;

impl TemplateEntry {
    /// Count one more `lits` and return `(its new summary count, the
    /// representative's summary count after the update)`. An unseen pair
    /// takes a free slot, or else replaces the lowest-count slot (lowest
    /// index on ties) and inherits that count plus one; a representative
    /// whose slot was just taken counts 0.
    ///
    /// One pass over the ≤ `LITERAL_SLOTS` slots finds the pair, the
    /// representative's slot and the first minimum together.
    fn observe_literals(&mut self, lits: [i64; 2]) -> (u64, u64) {
        let rep_lits = self.representative.literals;
        let slots = &mut self.literal_slots;
        let (mut hit, mut rep, mut min, mut min_count) = (None, None, 0, u64::MAX);
        for (i, &(l, c)) in slots.iter().enumerate() {
            if l == lits {
                hit = Some(i);
            }
            if l == rep_lits {
                rep = Some(i);
            }
            if c < min_count {
                (min, min_count) = (i, c);
            }
        }
        let i = match hit {
            Some(i) => i,
            None if slots.len() < LITERAL_SLOTS => {
                slots.push((lits, 0));
                slots.len() - 1
            }
            None => {
                slots[min].0 = lits;
                if rep == Some(min) {
                    rep = None;
                }
                min
            }
        };
        slots[i].1 += 1;
        let count = slots[i].1;
        let rep_count = if lits == rep_lits {
            count
        } else {
            rep.map_or(0, |r| slots[r].1)
        };
        (count, rep_count)
    }
}

/// Memo key that fully determines a query's normalised template text.
///
/// [`QueryProfile::render_sql`] has a fixed shape — `"{verb} t{table}
/// WHERE k = {lit0} AND v < {lit1}"` — and [`normalize_sql`] collapses
/// every digit run to `?`, so only the verb (no digits in any verb) and the
/// literals' *signs* (the `-` of a negative literal survives stripping)
/// reach the normalised text. Looking this 3-tuple up replaces two string
/// allocations and a string-keyed lookup per ingested query.
type TemplateKey = (QueryKind, bool, bool);

/// The template dictionary built from the streaming log.
#[derive(Debug, Default)]
pub struct TemplateStore {
    by_text: HashMap<String, TemplateId>,
    /// Fast path: render/normalise-free lookup for profile-shaped queries.
    /// At most `4 × QueryKind` keys exist (a workload uses a handful), so a
    /// linear scan beats hashing the key.
    by_key: Vec<(TemplateKey, TemplateId)>,
    entries: Vec<TemplateEntry>,
}

impl TemplateStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one query instance; returns its template id.
    pub fn ingest(&mut self, q: &QueryProfile) -> TemplateId {
        let key: TemplateKey = (q.kind, q.literals[0] < 0, q.literals[1] < 0);
        let id = match self.by_key.iter().find(|(k, _)| *k == key) {
            Some(&(_, id)) => id,
            None => {
                let text = normalize_sql(&q.render_sql());
                let id = match self.by_text.get(&text) {
                    Some(&id) => id,
                    None => {
                        let id = TemplateId(self.entries.len() as u32);
                        self.entries.push(TemplateEntry {
                            id,
                            text: text.clone(),
                            frequency: 0,
                            representative: q.clone(),
                            literal_slots: Vec::with_capacity(LITERAL_SLOTS),
                        });
                        self.by_text.insert(text, id);
                        id
                    }
                };
                self.by_key.push((key, id));
                id
            }
        };
        let e = &mut self.entries[id.0 as usize];
        e.frequency += 1;
        // Keep the representative at the most frequent literal set.
        let (count, rep_count) = e.observe_literals(q.literals);
        if count >= rep_count {
            e.representative = q.clone();
        }
        id
    }

    /// Entry for a template id.
    pub fn entry(&self, id: TemplateId) -> &TemplateEntry {
        &self.entries[id.0 as usize]
    }

    /// Number of distinct templates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries.
    pub fn iter(&self) -> impl Iterator<Item = &TemplateEntry> {
        self.entries.iter()
    }

    /// Drop all state (workload switch).
    pub fn clear(&mut self) {
        self.by_text.clear();
        self.by_key.clear();
        self.entries.clear();
    }
}

use autodbaas_snapshot::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for TemplateId {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(TemplateId(u32::decode(r)?))
    }
}

autodbaas_snapshot::snap_struct!(TemplateEntry {
    id,
    text,
    frequency,
    representative,
    literal_slots
});

impl Snap for TemplateStore {
    fn encode(&self, w: &mut SnapWriter) {
        // Entries are the primary data; both lookup maps rebuild from them.
        self.entries.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let entries: Vec<TemplateEntry> = Snap::decode(r)?;
        let mut by_text = HashMap::new();
        let mut by_key = Vec::with_capacity(entries.len());
        for e in &entries {
            by_text.insert(e.text.clone(), e.id);
            let rep = &e.representative;
            by_key.push(((rep.kind, rep.literals[0] < 0, rep.literals[1] < 0), e.id));
        }
        Ok(Self {
            by_text,
            by_key,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autodbaas_simdb::QueryKind;

    fn q(kind: QueryKind, table: u32, lits: [i64; 2]) -> QueryProfile {
        let mut q = QueryProfile::new(kind, table);
        q.literals = lits;
        q
    }

    /// The two-scan summary update the one-pass `observe_literals`
    /// replaced, kept as its reference.
    impl TemplateEntry {
        /// Summary count of `lits` (0 when not kept).
        fn literal_count(&self, lits: [i64; 2]) -> u64 {
            self.literal_slots
                .iter()
                .find(|(l, _)| *l == lits)
                .map_or(0, |&(_, c)| c)
        }

        /// Count one more `lits`; return its new summary count.
        fn observe_literals_two_scan(&mut self, lits: [i64; 2]) -> u64 {
            let slots = &mut self.literal_slots;
            let i = match slots.iter().position(|(l, _)| *l == lits) {
                Some(i) => i,
                None if slots.len() < LITERAL_SLOTS => {
                    slots.push((lits, 0));
                    slots.len() - 1
                }
                None => {
                    // `min_by_key` keeps the first of equal minima.
                    let min = slots
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.1)
                        .map_or(0, |(i, _)| i);
                    slots[min].0 = lits;
                    min
                }
            };
            slots[i].1 += 1;
            slots[i].1
        }
    }

    #[test]
    fn one_pass_summary_matches_the_two_scan_reference() {
        let entry = |first: &QueryProfile| TemplateEntry {
            id: TemplateId(0),
            text: String::new(),
            frequency: 0,
            representative: first.clone(),
            literal_slots: Vec::new(),
        };
        // Seeded stream of blocks: either one fresh pair, or a rotated
        // round over the last 8 fresh pairs. A round evens the counts out,
        // so the representative often ends on the first minimum and the
        // next fresh pair evicts the representative's own slot.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut stream = Vec::new();
        let mut live: Vec<[i64; 2]> = Vec::new();
        let mut fresh = 0;
        while stream.len() < 200_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = state >> 33;
            if r.is_multiple_of(3) || live.len() < LITERAL_SLOTS {
                fresh += 1;
                let lits = [fresh, -((r % 5) as i64)];
                stream.push(lits);
                live.push(lits);
                if live.len() > LITERAL_SLOTS {
                    live.remove(0);
                }
            } else {
                let k = (r % LITERAL_SLOTS as u64) as usize;
                stream.extend_from_slice(&live[k..]);
                stream.extend_from_slice(&live[..k]);
            }
        }
        let first = q(QueryKind::Update, 0, [0, 0]);
        let (mut one, mut two) = (entry(&first), entry(&first));
        let mut rep_evictions = 0;
        for lits in stream {
            let rep_kept = one.literal_count(one.representative.literals) > 0;
            let (count, rep_count) = one.observe_literals(lits);
            let best = two.observe_literals_two_scan(lits);
            let rep_ref = two.literal_count(two.representative.literals);
            if rep_kept && one.literal_count(one.representative.literals) == 0 {
                rep_evictions += 1;
            }
            assert_eq!((count, rep_count), (best, rep_ref));
            if count >= rep_count {
                one.representative = q(QueryKind::Update, 0, lits);
            }
            if best >= rep_ref {
                two.representative = q(QueryKind::Update, 0, lits);
            }
            assert_eq!(one.literal_slots, two.literal_slots);
            assert_eq!(one.representative.literals, two.representative.literals);
        }
        assert!(rep_evictions > 100, "only {rep_evictions} evictions");
    }

    #[test]
    fn decoded_store_maps_every_key_to_the_same_template() {
        let mut store = TemplateStore::new();
        mixed_stream(&mut store);
        for (i, kind) in QueryKind::ALL.into_iter().enumerate() {
            let i = i as i64;
            store.ingest(&q(kind, 0, [i, -i - 1]));
            store.ingest(&q(kind, 0, [-i - 1, i]));
        }
        let mut back: TemplateStore =
            autodbaas_snapshot::decode_from_slice(&autodbaas_snapshot::encode_to_vec(&store))
                .expect("decode");
        for kind in QueryKind::ALL {
            for lits in [[1, 1], [-1, 1], [1, -1], [-1, -1]] {
                let next = q(kind, 3, lits);
                assert_eq!(back.ingest(&next), store.ingest(&next), "{kind:?} {lits:?}");
            }
        }
        assert_eq!(back.len(), store.len());
    }

    #[test]
    fn normalize_strips_digit_runs() {
        assert_eq!(
            normalize_sql("SELECT t12 WHERE k = 94321"),
            "SELECT t? WHERE k = ?"
        );
        assert_eq!(normalize_sql("no digits"), "no digits");
        assert_eq!(normalize_sql("a1b22c333"), "a?b?c?");
    }

    #[test]
    fn same_shape_different_literals_share_template() {
        let mut store = TemplateStore::new();
        let a = store.ingest(&q(QueryKind::PointSelect, 3, [1, 2]));
        let b = store.ingest(&q(QueryKind::PointSelect, 3, [99, 7]));
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        assert_eq!(store.entry(a).frequency, 2);
    }

    #[test]
    fn different_tables_are_different_templates() {
        // Table ids survive normalisation? No: digits in `t12` are also
        // stripped, so templates distinguish by shape, not table — matching
        // text-level templating on real SQL where the table *name* is not a
        // literal. Our rendering makes table ids digits, so same-kind
        // queries to different tables share a template. Distinguish by kind.
        let mut store = TemplateStore::new();
        let a = store.ingest(&q(QueryKind::PointSelect, 1, [1, 2]));
        let c = store.ingest(&q(QueryKind::Join, 1, [1, 2]));
        assert_ne!(a, c);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn representative_tracks_most_frequent_literals() {
        let mut store = TemplateStore::new();
        store.ingest(&q(QueryKind::Update, 0, [5, 5]));
        store.ingest(&q(QueryKind::Update, 0, [7, 7]));
        let id = store.ingest(&q(QueryKind::Update, 0, [7, 7]));
        assert_eq!(store.entry(id).representative.literals, [7, 7]);
    }

    #[test]
    fn heavy_literals_survive_a_stream_of_unique_ones() {
        // One pair in four is the heavy pair: 25% of the stream, above the
        // n / LITERAL_SLOTS = 12.5% the summary guarantees to keep.
        let heavy = [-3, 4];
        let mut store = TemplateStore::new();
        let mut id = store.ingest(&q(QueryKind::Update, 0, heavy));
        let mut heavy_seen = 1;
        for i in 0..100_000 {
            id = store.ingest(&q(QueryKind::Update, 0, [-(i + 10), i]));
            if i % 3 == 2 {
                id = store.ingest(&q(QueryKind::Update, 0, heavy));
                heavy_seen += 1;
            }
        }
        let e = store.entry(id);
        assert_eq!(store.len(), 1);
        assert!(e.literal_count(heavy) >= heavy_seen);
        assert_eq!(e.representative.literals, heavy);
    }

    #[test]
    fn literal_summary_never_exceeds_its_slots() {
        let mut store = TemplateStore::new();
        for i in 0..1_000 {
            let id = store.ingest(&q(QueryKind::PointSelect, 0, [i % 37, i % 11]));
            assert!(store.entry(id).literal_slots.len() <= LITERAL_SLOTS);
        }
        let e = store.iter().next().expect("one template");
        assert_eq!(e.literal_slots.len(), LITERAL_SLOTS);
        // Space-saving keeps every count: the slots sum to the stream length.
        assert_eq!(e.literal_slots.iter().map(|s| s.1).sum::<u64>(), 1_000);
    }

    /// A mixed stream over four templates with skewed literal pairs.
    fn mixed_stream(store: &mut TemplateStore) {
        let kinds = [
            QueryKind::PointSelect,
            QueryKind::RangeSelect,
            QueryKind::Update,
            QueryKind::Insert,
        ];
        for i in 0..5_000i64 {
            let lits = [(i * i) % 13, i % 29];
            store.ingest(&q(kinds[(i % 4) as usize], 0, lits));
        }
    }

    #[test]
    fn same_stream_encodes_byte_identically() {
        let (mut a, mut b) = (TemplateStore::new(), TemplateStore::new());
        mixed_stream(&mut a);
        mixed_stream(&mut b);
        let bytes = autodbaas_snapshot::encode_to_vec(&a);
        assert_eq!(bytes, autodbaas_snapshot::encode_to_vec(&b));
    }

    #[test]
    fn full_summary_round_trips_through_snap() {
        let mut store = TemplateStore::new();
        mixed_stream(&mut store);
        assert!(store.iter().all(|e| e.literal_slots.len() == LITERAL_SLOTS));
        let bytes = autodbaas_snapshot::encode_to_vec(&store);
        let mut back: TemplateStore =
            autodbaas_snapshot::decode_from_slice(&bytes).expect("decode");
        assert_eq!(autodbaas_snapshot::encode_to_vec(&back), bytes);
        // The restored store keeps counting where the original left off.
        let next = q(QueryKind::Update, 0, [5, 6]);
        let id = store.ingest(&next);
        assert_eq!(back.ingest(&next), id);
        assert_eq!(
            autodbaas_snapshot::encode_to_vec(&back),
            autodbaas_snapshot::encode_to_vec(&store)
        );
    }

    #[test]
    fn clear_resets() {
        let mut store = TemplateStore::new();
        store.ingest(&q(QueryKind::Insert, 0, [0, 0]));
        store.clear();
        assert!(store.is_empty());
        // The key memo must reset too, or re-ingestion would return a
        // dangling id into the cleared entry list.
        let id = store.ingest(&q(QueryKind::Insert, 0, [0, 0]));
        assert_eq!(id, TemplateId(0));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn memo_key_matches_text_normalisation_exactly() {
        // Only the kind and the literal signs survive normalisation:
        // magnitudes and table ids collapse to `?`, a negative literal
        // keeps its `-`. The fast-path key must draw the same boundaries.
        let mut store = TemplateStore::new();
        let a = store.ingest(&q(QueryKind::PointSelect, 1, [5, 7]));
        let same = store.ingest(&q(QueryKind::PointSelect, 42, [12345, 0]));
        assert_eq!(a, same);
        let neg = store.ingest(&q(QueryKind::PointSelect, 1, [-5, 7]));
        assert_ne!(a, neg);
        assert_eq!(
            store.entry(a).text,
            normalize_sql("SELECT t1 WHERE k = 5 AND v < 7")
        );
        assert_eq!(
            store.entry(neg).text,
            normalize_sql("SELECT t1 WHERE k = -5 AND v < 7")
        );
        assert_eq!(store.entry(a).frequency, 2);
    }
}
