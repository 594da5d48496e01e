//! Run metrics shared by every discovery algorithm.
//!
//! `items_read` is the quantity plotted in the paper's Figure 5 ("number of
//! items read"); candidate counters back Tables 1/2 and the Sec. 4.1
//! pruning experiment.

use ind_trace::json::Json;
use std::fmt;
use std::time::Duration;

/// Declares [`RunMetrics`] from one table of counters, one row each: its
/// doc comment and its name. The table generates the `u64` fields,
/// [`RunMetrics::merge`], [`RunMetrics::to_json`], `Display` and the
/// by-name views [`RunMetrics::counters`] / [`RunMetrics::counters_mut`].
/// `=> derived;` places a counter computed by the method of that name
/// among the report's keys; `elapsed` closes the report as `elapsed_ns`.
macro_rules! run_metrics {
    (
        $( $(#[$before_doc:meta])* $before:ident, )*
        => $derived:ident;
        $( $(#[$after_doc:meta])* $after:ident, )*
    ) => {
        /// Counters accumulated during candidate generation and testing.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct RunMetrics {
            $( $(#[$before_doc])* pub $before: u64, )*
            $( $(#[$after_doc])* pub $after: u64, )*
            /// Wall-clock time of the measured phase.
            pub elapsed: Duration,
        }

        /// How many rows the counter table has.
        const COUNTERS: usize = [$(stringify!($before),)* $(stringify!($after),)*].len();

        impl RunMetrics {
            /// Every counter with its value, in table order.
            pub fn counters(&self) -> [(&'static str, u64); COUNTERS] {
                [$((stringify!($before), self.$before),)* $((stringify!($after), self.$after),)*]
            }

            /// Every counter by name, writable, in table order.
            pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); COUNTERS] {
                [
                    $((stringify!($before), &mut self.$before),)*
                    $((stringify!($after), &mut self.$after),)*
                ]
            }

            /// The report's counters: the table with the derived counter
            /// in its place.
            fn reported(&self) -> [(&'static str, u64); COUNTERS + 1] {
                [
                    $((stringify!($before), self.$before),)*
                    (stringify!($derived), self.$derived()),
                    $((stringify!($after), self.$after),)*
                ]
            }

            /// Merges `other` into `self` (summing counters and durations),
            /// used by the parallel brute-force runner and the block-wise
            /// algorithm.
            pub fn merge(&mut self, other: &RunMetrics) {
                $( self.$before += other.$before; )*
                $( self.$after += other.$after; )*
                self.elapsed += other.elapsed;
            }
        }
    };
}

run_metrics! {
    /// Ordered (dependent, referenced) pairs examined by the generator.
    pairs_considered,
    /// Pairs rejected by the cardinality pretest (`|s(dep)| > |s(ref)|`).
    pruned_cardinality,
    /// Pairs rejected by the max-value pretest (Sec. 4.1).
    pruned_max_value,
    /// Composite candidates rejected by the levelwise projection pretest:
    /// an arity-`k` candidate joined from two arity-`k−1` INDs whose other
    /// sub-projections were not all satisfied (the MIND/apriori pruning of
    /// the n-ary pipeline). Zero for unary runs.
    pruned_projection,
    => candidates;
    /// Candidates whose value sets were actually compared.
    tested,
    /// Satisfied INDs found.
    satisfied,
    /// Values read from value-set cursors (the Figure 5 metric).
    items_read,
    /// Bytes of value payload read while testing candidates (cursor reads
    /// for the external engines, materialized cells for the SQL baselines).
    /// The true I/O proxy behind Figure 5: `items_read` weighs every value
    /// equally, but variable-length values make the byte count the quantity
    /// that actually hits the disk.
    value_bytes_read,
    /// Values the SPIDER merge read through parked cursors: cursors of
    /// attributes with no live candidate of their own, read forward with
    /// plain `advance` calls, without a tournament-tree replay, only when a
    /// live dependent that lists them meets a value. Counted in
    /// `items_read` too; `items_read - parked_reads` are the values that
    /// cost a replay.
    parked_reads,
    /// Byte-string comparisons performed.
    comparisons,
    /// Merge comparisons settled by the two values' normalized keys (first
    /// eight bytes and length) — integer compares that touch no value
    /// bytes. They are the matches of the tournament tree
    /// (`ind_valueset::TournamentTree`: the SPIDER merge, plus the sorter's
    /// spill merge on disk-backed runs) and the SPIDER merge's tests of a
    /// value against its group's. `key_compares / (key_compares +
    /// memcmp_compares)` is the share of that work the keys absorb.
    key_compares,
    /// Merge comparisons between two values that share their first eight
    /// bytes and both run past them: a full `memcmp` of the values (then
    /// the slot id).
    memcmp_compares,
    /// `pread`s of the disk-backed cursors, counted where each reaches the
    /// OS (a block fill is usually one). Zero for in-memory providers;
    /// populated by the disk-backed entry points that own the export (the
    /// cursors themselves are provider-agnostic). The I/O-side complement
    /// of `value_bytes_read`: bytes measure payload, fills measure how
    /// often a cursor went back to the file for more.
    read_calls,
    /// Cursors opened (2 per brute-force test; one per role in single-pass).
    cursor_opens,
    /// Classes of equal value sets among the attributes of the candidates
    /// the finder tested: the engine runs over one representative per
    /// class. Zero when an engine is called directly.
    value_set_classes,
    /// Value-set comparisons (`ValueSetProvider::same_values` calls) that
    /// decided those classes.
    class_compares,
    /// Transient I/O faults (`EINTR`, short reads) healed invisibly by the
    /// retrying read/write wrapper. A non-zero count with a successful run
    /// means the storage stack degraded gracefully, not that anything was
    /// lost.
    io_retries,
    /// Value-file checksum mismatches detected (header, frame, or footer).
    /// Each one also surfaced as a `Corrupt` error — or quarantined its
    /// attribute under keep-going discovery.
    checksum_failures,
    /// Attributes quarantined by a keep-going run (export failures plus
    /// unreadable/corrupt value files); their candidates were excluded.
    quarantined_attributes,
    /// Attribute exports reused from a previous interrupted run by
    /// `--resume` (segment trailer entry matched and the value stream's
    /// footer validated). Zero on non-resume runs.
    exports_reused,
    /// Attributes re-exported during a `--resume` run because their value
    /// stream was missing, torn, or stale against its trailer entry.
    exports_redone,
    /// Files deleted by the resume sweep: `.tmp` stages of writes
    /// interrupted before their atomic rename, segments without a valid
    /// trailer or holding no reused stream, and the files of older layouts
    /// (per-attribute `attr-*.indv` files, `MANIFEST.json`).
    orphans_swept,
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
    /// escape from the `Display` line, embedded in `--report` run files.
    ///
    /// Stable vocabulary: one key per counter in table order (with the
    /// derived `candidates` after the pruning counters, and `elapsed` last
    /// as exact integer nanoseconds), all values exact `u64` integers, so
    /// the report round-trips through any JSON parser losslessly.
    pub fn to_json(&self) -> Json {
        let elapsed = ("elapsed_ns", self.elapsed.as_nanos() as u64);
        Json::obj(
            self.reported()
                .into_iter()
                .chain([elapsed])
                .map(|(key, value)| (key, value.into())),
        )
    }
}

/// The report's `key=value` pairs in `to_json` order, then `elapsed` as a
/// `Duration`.
impl fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (key, value) in self.reported() {
            write!(f, "{key}={value}, ")?;
        }
        write!(f, "elapsed={:?}", self.elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics whose `i`-th counter holds `base + i`.
    fn numbered(base: u64) -> RunMetrics {
        let mut m = RunMetrics::new();
        for (i, (_, value)) in m.counters_mut().into_iter().enumerate() {
            *value = base + i as u64;
        }
        m
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut a = numbered(100);
        a.elapsed = Duration::from_millis(5);
        let mut b = numbered(1_000);
        b.elapsed = Duration::from_millis(7);
        a.merge(&b);
        for (i, (name, value)) in a.counters().into_iter().enumerate() {
            assert_eq!(value, 1_100 + 2 * i as u64, "{name}");
        }
        assert_eq!(a.elapsed, Duration::from_millis(12));
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
    fn to_json_lists_every_counter_exactly_once() {
        let mut m = numbered(1);
        m.pairs_considered = 1_000;
        m.elapsed = Duration::from_nanos(1_234_567);
        let json = m.to_json();
        let fields = json.as_obj().expect("an object");
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        let rows = m.counters();
        assert_eq!(keys.len(), rows.len() + 2, "{keys:?}");
        for (name, value) in rows {
            assert_eq!(keys.iter().filter(|k| **k == name).count(), 1, "{name}");
            assert_eq!(json.get(name).and_then(Json::as_u64), Some(value), "{name}");
        }
        for (key, value) in [("candidates", m.candidates()), ("elapsed_ns", 1_234_567)] {
            assert_eq!(keys.iter().filter(|k| **k == key).count(), 1, "{key}");
            assert_eq!(json.get(key).and_then(Json::as_u64), Some(value), "{key}");
        }
        assert_eq!(keys[4], "candidates", "after the pruning counters");
        assert_eq!(keys.last(), Some(&"elapsed_ns"));
    }

    #[test]
    fn display_is_the_report_in_report_order() {
        let mut m = numbered(10);
        m.elapsed = Duration::from_millis(3);
        let line = m.to_string();
        let json = m.to_json();
        let (_elapsed_ns, pairs) = json.as_obj().expect("an object").split_last().unwrap();
        let pairs: Vec<String> = pairs
            .iter()
            .map(|(key, value)| format!("{key}={}", value.as_u64().unwrap()))
            .collect();
        assert_eq!(line, format!("{}, elapsed=3ms", pairs.join(", ")));
        for (name, value) in m.counters() {
            assert!(line.contains(&format!("{name}={value},")), "{name}: {line}");
        }
    }
}
