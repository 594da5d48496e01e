//! Run metrics shared by every discovery algorithm.
//!
//! `items_read` is the quantity plotted in the paper's Figure 5 ("number of
//! items read"); candidate counters back Tables 1/2 and the Sec. 4.1
//! pruning experiment.

use ind_trace::json::Json;
use std::fmt;
use std::time::Duration;

/// Counters accumulated during candidate generation and testing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Ordered (dependent, referenced) pairs examined by the generator.
    pub pairs_considered: u64,
    /// Pairs rejected by the cardinality pretest (`|s(dep)| > |s(ref)|`).
    pub pruned_cardinality: u64,
    /// Pairs rejected by the max-value pretest (Sec. 4.1).
    pub pruned_max_value: u64,
    /// Composite candidates rejected by the levelwise projection pretest:
    /// an arity-`k` candidate joined from two arity-`k−1` INDs whose other
    /// sub-projections were not all satisfied (the MIND/apriori pruning of
    /// the n-ary pipeline). Zero for unary runs.
    pub pruned_projection: u64,
    /// Candidates whose value sets were actually compared.
    pub tested: u64,
    /// Satisfied INDs found.
    pub satisfied: u64,
    /// Values read from value-set cursors (the Figure 5 metric).
    pub items_read: u64,
    /// Bytes of value payload read while testing candidates (cursor reads
    /// for the external engines, materialized cells for the SQL baselines).
    /// The true I/O proxy behind Figure 5: `items_read` weighs every value
    /// equally, but variable-length values make the byte count the quantity
    /// that actually hits the disk.
    pub value_bytes_read: u64,
    /// Values the SPIDER merge read through parked cursors: cursors of
    /// attributes with no live candidate of their own, read forward with
    /// plain `advance` calls, without a tournament-tree replay, only when a
    /// live dependent that lists them meets a value. Counted in
    /// `items_read` too; `items_read - parked_reads` are the values that
    /// cost a replay.
    pub parked_reads: u64,
    /// Byte-string comparisons performed.
    pub comparisons: u64,
    /// Merge comparisons settled by the two values' normalized keys (first
    /// eight bytes and length) — integer compares that touch no value
    /// bytes. They are the matches of the tournament tree
    /// (`ind_valueset::TournamentTree`: the SPIDER merge, plus the sorter's
    /// spill merge on disk-backed runs) and the SPIDER merge's tests of a
    /// value against its group's. `key_compares / (key_compares +
    /// memcmp_compares)` is the share of that work the keys absorb.
    pub key_compares: u64,
    /// Merge comparisons between two values that share their first eight
    /// bytes and both run past them: a full `memcmp` of the values (then
    /// the slot id).
    pub memcmp_compares: u64,
    /// `pread`s of the disk-backed cursors, counted where each reaches the
    /// OS (a block fill is usually one). Zero for in-memory providers;
    /// populated by the disk-backed entry points that own the export (the
    /// cursors themselves are provider-agnostic). The I/O-side complement
    /// of `value_bytes_read`: bytes measure payload, fills measure how
    /// often a cursor went back to the file for more.
    pub read_calls: u64,
    /// Cursors opened (2 per brute-force test; one per role in single-pass).
    pub cursor_opens: u64,
    /// Classes of equal value sets among the attributes of the candidates
    /// the finder tested: the engine runs over one representative per
    /// class. Zero when an engine is called directly.
    pub value_set_classes: u64,
    /// Value-set comparisons (`ValueSetProvider::same_values` calls) that
    /// decided those classes.
    pub class_compares: u64,
    /// Transient I/O faults (`EINTR`, short reads) healed invisibly by the
    /// retrying read/write wrapper. A non-zero count with a successful run
    /// means the storage stack degraded gracefully, not that anything was
    /// lost.
    pub io_retries: u64,
    /// Value-file checksum mismatches detected (header, frame, or footer).
    /// Each one also surfaced as a `Corrupt` error — or quarantined its
    /// attribute under keep-going discovery.
    pub checksum_failures: u64,
    /// Attributes quarantined by a keep-going run (export failures plus
    /// unreadable/corrupt value files); their candidates were excluded.
    pub quarantined_attributes: u64,
    /// Attribute exports reused from a previous interrupted run by
    /// `--resume` (segment trailer entry matched and the value stream's
    /// footer validated). Zero on non-resume runs.
    pub exports_reused: u64,
    /// Attributes re-exported during a `--resume` run because their value
    /// stream was missing, torn, or stale against its trailer entry.
    pub exports_redone: u64,
    /// Files deleted by the resume sweep: `.tmp` stages of writes
    /// interrupted before their atomic rename, segments without a valid
    /// trailer or holding no reused stream, and the files of older layouts
    /// (per-attribute `attr-*.indv` files, `MANIFEST.json`).
    pub orphans_swept: u64,
    /// Wall-clock time of the measured phase.
    pub elapsed: Duration,
}

impl RunMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of candidates that survived generation (i.e. entered the
    /// testing phase).
    ///
    /// Saturating: a partially-populated struct (pruning counters merged
    /// in before `pairs_considered`, or hand-built in tests) reports 0
    /// instead of underflowing.
    pub fn candidates(&self) -> u64 {
        self.pairs_considered
            .saturating_sub(self.pruned_cardinality)
            .saturating_sub(self.pruned_max_value)
            .saturating_sub(self.pruned_projection)
    }

    /// Every counter as one flat JSON object — the machine-readable
    /// escape from the `Display` wall, embedded in `--report` run files.
    ///
    /// Stable vocabulary: one key per public field (plus the derived
    /// `candidates` and `elapsed` as exact integer nanoseconds), all
    /// values exact `u64` integers, so the report round-trips through
    /// any JSON parser losslessly.
    pub fn to_json(&self) -> Json {
        let fields: [(&str, u64); 24] = [
            ("pairs_considered", self.pairs_considered),
            ("pruned_cardinality", self.pruned_cardinality),
            ("pruned_max_value", self.pruned_max_value),
            ("pruned_projection", self.pruned_projection),
            ("candidates", self.candidates()),
            ("tested", self.tested),
            ("satisfied", self.satisfied),
            ("items_read", self.items_read),
            ("value_bytes_read", self.value_bytes_read),
            ("parked_reads", self.parked_reads),
            ("comparisons", self.comparisons),
            ("key_compares", self.key_compares),
            ("memcmp_compares", self.memcmp_compares),
            ("read_calls", self.read_calls),
            ("cursor_opens", self.cursor_opens),
            ("value_set_classes", self.value_set_classes),
            ("class_compares", self.class_compares),
            ("io_retries", self.io_retries),
            ("checksum_failures", self.checksum_failures),
            ("quarantined_attributes", self.quarantined_attributes),
            ("exports_reused", self.exports_reused),
            ("exports_redone", self.exports_redone),
            ("orphans_swept", self.orphans_swept),
            ("elapsed_ns", self.elapsed.as_nanos() as u64),
        ];
        Json::obj(fields.map(|(key, value)| (key, value.into())))
    }

    /// Merges `other` into `self` (summing counters and durations), used by
    /// the parallel brute-force runner and the block-wise algorithm.
    pub fn merge(&mut self, other: &RunMetrics) {
        self.pairs_considered += other.pairs_considered;
        self.pruned_cardinality += other.pruned_cardinality;
        self.pruned_max_value += other.pruned_max_value;
        self.pruned_projection += other.pruned_projection;
        self.tested += other.tested;
        self.satisfied += other.satisfied;
        self.items_read += other.items_read;
        self.value_bytes_read += other.value_bytes_read;
        self.parked_reads += other.parked_reads;
        self.comparisons += other.comparisons;
        self.key_compares += other.key_compares;
        self.memcmp_compares += other.memcmp_compares;
        self.read_calls += other.read_calls;
        self.cursor_opens += other.cursor_opens;
        self.value_set_classes += other.value_set_classes;
        self.class_compares += other.class_compares;
        self.io_retries += other.io_retries;
        self.checksum_failures += other.checksum_failures;
        self.quarantined_attributes += other.quarantined_attributes;
        self.exports_reused += other.exports_reused;
        self.exports_redone += other.exports_redone;
        self.orphans_swept += other.orphans_swept;
        self.elapsed += other.elapsed;
    }
}

impl fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "candidates={} (considered={}, pruned: card={}, max={}, proj={}), \
             tested={}, satisfied={}, items_read={}, \
             value_bytes_read={}, parked_reads={}, comparisons={} (key={}, memcmp={}), \
             read_calls={}, \
             cursor_opens={}, classes={} (compares={}), io_retries={}, checksum_failures={}, \
             quarantined={}, resume: reused={}, redone={}, orphans={}, elapsed={:?}",
            self.candidates(),
            self.pairs_considered,
            self.pruned_cardinality,
            self.pruned_max_value,
            self.pruned_projection,
            self.tested,
            self.satisfied,
            self.items_read,
            self.value_bytes_read,
            self.parked_reads,
            self.comparisons,
            self.key_compares,
            self.memcmp_compares,
            self.read_calls,
            self.cursor_opens,
            self.value_set_classes,
            self.class_compares,
            self.io_retries,
            self.checksum_failures,
            self.quarantined_attributes,
            self.exports_reused,
            self.exports_redone,
            self.orphans_swept,
            self.elapsed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters() {
        let mut a = RunMetrics {
            pairs_considered: 10,
            pruned_cardinality: 2,
            tested: 8,
            satisfied: 3,
            items_read: 100,
            value_bytes_read: 700,
            elapsed: Duration::from_millis(5),
            ..Default::default()
        };
        let b = RunMetrics {
            pairs_considered: 5,
            tested: 5,
            satisfied: 1,
            items_read: 50,
            value_bytes_read: 300,
            parked_reads: 20,
            read_calls: 9,
            io_retries: 6,
            checksum_failures: 2,
            quarantined_attributes: 1,
            exports_reused: 5,
            exports_redone: 2,
            orphans_swept: 3,
            value_set_classes: 4,
            class_compares: 6,
            elapsed: Duration::from_millis(7),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.pairs_considered, 15);
        assert_eq!(a.tested, 13);
        assert_eq!(a.satisfied, 4);
        assert_eq!(a.items_read, 150);
        assert_eq!(a.value_bytes_read, 1000);
        assert_eq!(a.parked_reads, 20);
        assert_eq!(a.read_calls, 9);
        assert_eq!(a.io_retries, 6);
        assert_eq!(a.checksum_failures, 2);
        assert_eq!(a.quarantined_attributes, 1);
        assert_eq!(a.exports_reused, 5);
        assert_eq!(a.exports_redone, 2);
        assert_eq!(a.orphans_swept, 3);
        assert_eq!(a.value_set_classes, 4);
        assert_eq!(a.class_compares, 6);
        assert_eq!(a.elapsed, Duration::from_millis(12));
        assert_eq!(a.candidates(), 13);
    }

    #[test]
    fn candidates_saturates_on_partial_metrics() {
        // Regression: a struct holding only pruning counters (e.g. a
        // worker's metrics merged before the generator's) used to
        // underflow and panic in debug builds.
        let partial = RunMetrics {
            pruned_cardinality: 4,
            pruned_max_value: 2,
            ..Default::default()
        };
        assert_eq!(partial.candidates(), 0);
        let mixed = RunMetrics {
            pairs_considered: 3,
            pruned_cardinality: 2,
            pruned_max_value: 2,
            ..Default::default()
        };
        assert_eq!(mixed.candidates(), 0);
        let normal = RunMetrics {
            pairs_considered: 10,
            pruned_cardinality: 2,
            pruned_projection: 1,
            ..Default::default()
        };
        assert_eq!(normal.candidates(), 7);
    }

    #[test]
    fn merge_sums_comparator_split() {
        let mut a = RunMetrics {
            key_compares: 10,
            memcmp_compares: 3,
            ..Default::default()
        };
        let b = RunMetrics {
            key_compares: 5,
            memcmp_compares: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.key_compares, 15);
        assert_eq!(a.memcmp_compares, 10);
    }

    #[test]
    fn to_json_lists_every_counter_exactly_once() {
        let m = RunMetrics {
            pairs_considered: 12,
            pruned_cardinality: 2,
            key_compares: 44,
            memcmp_compares: 11,
            elapsed: Duration::from_nanos(1_234_567),
            ..Default::default()
        };
        let json = m.to_json();
        for (key, value) in [
            ("pairs_considered", 12),
            ("candidates", 10),
            ("key_compares", 44),
            ("memcmp_compares", 11),
            ("elapsed_ns", 1_234_567),
        ] {
            assert_eq!(json.get(key).and_then(Json::as_u64), Some(value), "{key}");
        }
        let fields = json.as_obj().expect("an object");
        assert_eq!(fields.len(), 24, "22 fields, candidates and elapsed_ns");
        for (i, (key, _)) in fields.iter().enumerate() {
            assert!(fields[..i].iter().all(|(k, _)| k != key), "{key} twice");
        }
    }

    #[test]
    fn display_mentions_key_counters() {
        let m = RunMetrics {
            pairs_considered: 3,
            satisfied: 2,
            ..Default::default()
        };
        let s = m.to_string();
        assert!(s.contains("satisfied=2"));
        assert!(s.contains("considered=3"));
        assert!(s.contains("value_bytes_read=0, parked_reads=0, comparisons=0"));
        assert!(s.contains("read_calls=0, cursor_opens=0, classes=0 (compares=0)"));
        assert!(s.contains("io_retries=0"));
        assert!(s.contains("checksum_failures=0"));
        assert!(s.contains("quarantined=0"));
        assert!(s.contains("resume: reused=0, redone=0, orphans=0"));
    }
}
