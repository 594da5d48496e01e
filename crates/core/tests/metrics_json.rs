//! Report-stability property: `RunMetrics::to_json`, rendered as the
//! `--report` file renders it, must round-trip through a JSON parser with
//! every counter exact — the report is only useful if downstream tooling
//! reads back precisely what the run recorded.

use ind_core::RunMetrics;
use ind_trace::json::{self, Json};
use proptest::prelude::*;
use std::time::Duration;

fn arbitrary_metrics(values: &[u64; 24]) -> RunMetrics {
    RunMetrics {
        pairs_considered: values[0],
        pruned_cardinality: values[1],
        pruned_max_value: values[2],
        pruned_projection: values[3],
        tested: values[4],
        satisfied: values[5],
        items_read: values[6],
        value_bytes_read: values[7],
        parked_reads: values[8],
        comparisons: values[9],
        key_compares: values[10],
        memcmp_compares: values[11],
        read_calls: values[12],
        cursor_opens: values[13],
        value_set_classes: values[14],
        class_compares: values[15],
        io_retries: values[16],
        checksum_failures: values[17],
        quarantined_attributes: values[18],
        exports_reused: values[19],
        exports_redone: values[20],
        orphans_swept: values[21],
        elapsed: Duration::from_secs(values[22]) + Duration::from_nanos(values[23]),
    }
}

fn field(parsed: &Json, key: &str) -> u64 {
    parsed
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing or non-integer {key}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn to_json_round_trips_through_parsing(
        counters in proptest::collection::vec(0u64..=u64::MAX, 22),
        secs in 0u64..4_000_000_000,
        nanos in 0u64..1_000_000_000,
    ) {
        let mut values = [0u64; 24];
        values[..22].copy_from_slice(&counters);
        values[22] = secs;
        values[23] = nanos;
        let metrics = arbitrary_metrics(&values);

        let text = metrics.to_json().pretty();
        let parsed = match json::parse(&text) {
            Ok(parsed) => parsed,
            Err(e) => return Err(format!("to_json output unparseable ({e}): {text}")),
        };
        prop_assert_eq!(text.lines().count(), 1, "the report greps one line");

        prop_assert_eq!(field(&parsed, "pairs_considered"), metrics.pairs_considered);
        prop_assert_eq!(field(&parsed, "pruned_cardinality"), metrics.pruned_cardinality);
        prop_assert_eq!(field(&parsed, "pruned_max_value"), metrics.pruned_max_value);
        prop_assert_eq!(field(&parsed, "pruned_projection"), metrics.pruned_projection);
        prop_assert_eq!(field(&parsed, "candidates"), metrics.candidates());
        prop_assert_eq!(field(&parsed, "tested"), metrics.tested);
        prop_assert_eq!(field(&parsed, "satisfied"), metrics.satisfied);
        prop_assert_eq!(field(&parsed, "items_read"), metrics.items_read);
        prop_assert_eq!(field(&parsed, "value_bytes_read"), metrics.value_bytes_read);
        prop_assert_eq!(field(&parsed, "parked_reads"), metrics.parked_reads);
        prop_assert_eq!(field(&parsed, "comparisons"), metrics.comparisons);
        prop_assert_eq!(field(&parsed, "key_compares"), metrics.key_compares);
        prop_assert_eq!(field(&parsed, "memcmp_compares"), metrics.memcmp_compares);
        prop_assert_eq!(field(&parsed, "read_calls"), metrics.read_calls);
        prop_assert_eq!(field(&parsed, "cursor_opens"), metrics.cursor_opens);
        prop_assert_eq!(field(&parsed, "value_set_classes"), metrics.value_set_classes);
        prop_assert_eq!(field(&parsed, "class_compares"), metrics.class_compares);
        prop_assert_eq!(field(&parsed, "io_retries"), metrics.io_retries);
        prop_assert_eq!(field(&parsed, "checksum_failures"), metrics.checksum_failures);
        prop_assert_eq!(
            field(&parsed, "quarantined_attributes"),
            metrics.quarantined_attributes
        );
        prop_assert_eq!(field(&parsed, "exports_reused"), metrics.exports_reused);
        prop_assert_eq!(field(&parsed, "exports_redone"), metrics.exports_redone);
        prop_assert_eq!(field(&parsed, "orphans_swept"), metrics.orphans_swept);
        prop_assert_eq!(
            field(&parsed, "elapsed_ns"),
            metrics.elapsed.as_nanos() as u64
        );
    }
}
