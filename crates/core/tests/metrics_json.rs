//! Report-stability property: `RunMetrics::to_json`, rendered as the
//! `--report` file renders it, must round-trip through a JSON parser with
//! every counter exact — the report is only useful if downstream tooling
//! reads back precisely what the run recorded.

use ind_core::RunMetrics;
use ind_trace::json::{self, Json};
use proptest::prelude::*;
use std::time::Duration;

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
        counters in proptest::collection::vec(0u64..=u64::MAX, RunMetrics::new().counters().len()),
        secs in 0u64..4_000_000_000,
        nanos in 0u64..1_000_000_000,
    ) {
        let mut metrics = RunMetrics::new();
        for ((_, slot), value) in metrics.counters_mut().into_iter().zip(&counters) {
            *slot = *value;
        }
        metrics.elapsed = Duration::from_secs(secs) + Duration::from_nanos(nanos);

        let text = metrics.to_json().pretty();
        let parsed = match json::parse(&text) {
            Ok(parsed) => parsed,
            Err(e) => return Err(format!("to_json output unparseable ({e}): {text}")),
        };
        prop_assert_eq!(text.lines().count(), 1, "the report greps one line");

        for (name, value) in metrics.counters() {
            prop_assert_eq!(field(&parsed, name), value, "{}", name);
        }
        prop_assert_eq!(field(&parsed, "candidates"), metrics.candidates());
        prop_assert_eq!(
            field(&parsed, "elapsed_ns"),
            metrics.elapsed.as_nanos() as u64
        );
    }
}
