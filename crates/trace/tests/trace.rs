//! Behavioural tests for the span recorder, progress counters,
//! histograms, and the JSON reader and writer.
//!
//! Tracing state is process-global, so every test touching it serialises
//! on one lock and resets the rings/counters it uses.

use ind_trace::json::{self, Json};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    match TRACE_LOCK.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[test]
fn spans_nest_within_parents_across_threads() {
    let _lock = locked();
    ind_trace::enable();
    ind_trace::reset();

    {
        let _root = ind_trace::start(ind_trace::DISCOVER);
        {
            let _export = ind_trace::start(ind_trace::EXPORT);
            let parent = ind_trace::current_parent();
            let worker = std::thread::spawn(move || {
                let sort = ind_trace::start_under(ind_trace::SORT, 7, parent);
                ind_trace::add_counter(ind_trace::Counter::AttributesExported, 1);
                sort.finish();
            });
            worker.join().expect("worker");
        }
        let _merge = ind_trace::start(ind_trace::SPIDER_MERGE);
        ind_trace::add_counter(ind_trace::Counter::ItemsRead, 42);
    }

    let trace = ind_trace::collect();
    ind_trace::disable();

    assert_eq!(trace.dropped_events, 0);
    assert_eq!(trace.roots.len(), 1, "one discover root: {trace:?}");
    let root = &trace.roots[0];
    assert_eq!(root.name, "discover");
    assert_eq!(root.children.len(), 2, "{root:?}");
    let export = &root.children[0];
    assert_eq!(export.name, "export");
    assert_eq!(export.children.len(), 1);
    let sort = &export.children[0];
    assert_eq!((sort.name, sort.arg), ("sort", 7));
    assert_eq!(sort.counters[2], 1, "attributes_exported delta on sort");
    let merge = &root.children[1];
    assert_eq!(merge.name, "spider_merge");
    assert_eq!(merge.counters[0], 42, "items_read delta on merge");

    // Interval containment: every child starts no earlier and ends no
    // later than its parent.
    fn check(node: &ind_trace::SpanNode) {
        let end = node.start_ns + node.duration_ns;
        for child in &node.children {
            assert!(child.start_ns >= node.start_ns, "{node:?}");
            assert!(child.start_ns + child.duration_ns <= end, "{node:?}");
            check(child);
        }
    }
    check(root);

    // Root counter deltas include everything recorded inside it.
    assert_eq!(root.counters[0], 42);
    assert_eq!(root.counters[2], 1);
}

#[test]
fn a_span_counts_its_threads_work_and_its_descendants_on_other_threads() {
    let _lock = locked();
    ind_trace::enable();
    ind_trace::reset();

    {
        let _root = ind_trace::start(ind_trace::DISCOVER);
        let export = ind_trace::start(ind_trace::EXPORT);
        let parent = ind_trace::current_parent();
        // Both sorts stay open while both workers count, so a sort that
        // read the process-wide counters would see the other one's export.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for attr in 0..2u64 {
                let barrier = &barrier;
                scope.spawn(move || {
                    let _sort = ind_trace::start_under(ind_trace::SORT, attr, parent);
                    barrier.wait();
                    ind_trace::add_counter(ind_trace::Counter::AttributesExported, 1);
                    barrier.wait();
                });
            }
        });
        ind_trace::add_counter(ind_trace::Counter::SpillRuns, 3);
        export.finish();
        ind_trace::add_counter(ind_trace::Counter::ItemsRead, 5);
    }

    let trace = ind_trace::collect();
    ind_trace::disable();
    let root = &trace.roots[0];
    let export = &root.children[0];
    assert_eq!(export.children.len(), 2, "{export:?}");
    for sort in &export.children {
        assert_eq!(sort.counters, [0, 0, 1, 0], "sort/attr={}", sort.arg);
    }
    assert_eq!(
        export.counters,
        [0, 0, 2, 3],
        "its thread's plus its workers'"
    );
    assert_eq!(root.counters, [5, 0, 2, 3], "the run's totals");
    assert_eq!(ind_trace::progress().attributes_exported, 2);
}

#[test]
fn disabled_tracing_records_nothing_and_counts_nothing() {
    let _lock = locked();
    ind_trace::enable();
    ind_trace::reset();
    ind_trace::disable();

    {
        let _root = ind_trace::start(ind_trace::DISCOVER);
        ind_trace::add_counter(ind_trace::Counter::ItemsRead, 99);
        ind_trace::set_candidates_live(5);
        ind_trace::BLOCK_FILL_NANOS.record(1234);
    }
    let trace = ind_trace::collect();
    assert!(trace.roots.is_empty(), "{trace:?}");
    assert_eq!(ind_trace::progress().items_read, 0);
    assert_eq!(ind_trace::progress().candidates_live, 0);
    let total: u64 = ind_trace::BLOCK_FILL_NANOS.bucket_counts().iter().sum();
    assert_eq!(total, 0);
}

#[test]
fn folded_stacks_carry_labels_and_self_time() {
    let _lock = locked();
    ind_trace::enable();
    ind_trace::reset();
    {
        let _root = ind_trace::start(ind_trace::DISCOVER);
        {
            let _export = ind_trace::start(ind_trace::EXPORT);
            let _sort = ind_trace::start_arg(ind_trace::SORT, 3);
        }
        let _level = ind_trace::start_arg(ind_trace::LEVEL, 2);
    }
    let trace = ind_trace::collect();
    ind_trace::disable();
    let folded = ind_trace::folded(&trace);
    assert!(folded.contains("discover "), "{folded}");
    assert!(folded.contains("discover;export;sort/attr=3 "), "{folded}");
    assert!(folded.contains("discover;level=2 "), "{folded}");
    for line in folded.lines() {
        let (_, value) = line.rsplit_once(' ').expect("stack value");
        value.parse::<u64>().expect("numeric self time");
    }
}

#[test]
fn spans_json_is_parseable_and_well_formed() {
    let _lock = locked();
    ind_trace::enable();
    ind_trace::reset();
    {
        let _root = ind_trace::start(ind_trace::DISCOVER);
        let _export = ind_trace::start(ind_trace::EXPORT);
        ind_trace::add_counter(ind_trace::Counter::ValueBytesRead, 10);
    }
    let trace = ind_trace::collect();
    ind_trace::disable();
    let parsed = json::parse(&ind_trace::spans_json(&trace).pretty()).expect("valid JSON");
    let spans = parsed.as_arr().expect("array");
    assert_eq!(spans.len(), 1);
    let root = &spans[0];
    assert_eq!(root.get("name").and_then(Json::as_str), Some("discover"));
    let children = root
        .get("children")
        .and_then(Json::as_arr)
        .expect("children");
    assert_eq!(children.len(), 1);
    let counters = children[0].get("counters").expect("counters");
    assert_eq!(
        counters.get("value_bytes_read").and_then(Json::as_u64),
        Some(10)
    );
}

#[test]
fn histogram_buckets_are_power_of_two() {
    let _lock = locked();
    ind_trace::enable();
    ind_trace::reset();
    ind_trace::RECORD_LEN_BYTES.record(0);
    ind_trace::RECORD_LEN_BYTES.record(1);
    ind_trace::RECORD_LEN_BYTES.record(2);
    ind_trace::RECORD_LEN_BYTES.record(3);
    ind_trace::RECORD_LEN_BYTES.record(1024);
    ind_trace::RECORD_LEN_BYTES.record(u64::MAX);
    let counts = ind_trace::RECORD_LEN_BYTES.bucket_counts();
    ind_trace::disable();
    assert_eq!(counts[0], 1, "zero bucket");
    assert_eq!(counts[1], 1, "[1,2)");
    assert_eq!(counts[2], 2, "[2,4)");
    assert_eq!(counts[11], 1, "[1024,2048)");
    assert_eq!(counts[63], 1, "top bucket clamps");
}

#[test]
fn ring_overflow_counts_drops_instead_of_growing() {
    let _lock = locked();
    ind_trace::enable();
    ind_trace::reset();
    // Far more spans than one ring holds (each span = 2 events).
    for i in 0..20_000u64 {
        let _span = ind_trace::start_arg(ind_trace::SORT, i);
    }
    let trace = ind_trace::collect();
    ind_trace::disable();
    assert!(trace.dropped_events > 0, "ring must saturate, not grow");
    // Whatever survived still parses into finished root spans.
    assert!(!trace.roots.is_empty());
    ind_trace::reset();
}

#[test]
fn json_parser_handles_the_report_vocabulary() {
    let text = r#"{
        "report_version": 1,
        "ok": true,
        "none": null,
        "ratio": -2.5,
        "big": 18446744073709551615,
        "name": "pdb \"x\" A\n",
        "list": [1, 2, [], {}],
        "nested": {"a": {"b": 3}}
    }"#;
    let v = json::parse(text).expect("parses");
    assert_eq!(v.get("report_version").and_then(Json::as_u64), Some(1));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("none"), Some(&Json::Null));
    assert_eq!(v.get("ratio").and_then(Json::as_f64), Some(-2.5));
    assert_eq!(v.get("big").and_then(Json::as_u64), Some(u64::MAX));
    assert_eq!(v.get("name").and_then(Json::as_str), Some("pdb \"x\" A\n"));
    assert_eq!(
        v.get("list").and_then(Json::as_arr).map(<[Json]>::len),
        Some(4)
    );
    assert_eq!(
        v.get("nested")
            .and_then(|n| n.get("a"))
            .and_then(|a| a.get("b"))
            .and_then(Json::as_u64),
        Some(3)
    );

    for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
        assert!(json::parse(bad).is_err(), "{bad:?} must not parse");
    }
}

#[test]
fn json_writer_nulls_non_finite_numbers_and_parser_caps_nesting() {
    for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Json::Num(n).compact(), "null");
        assert_eq!(Json::Arr(vec![Json::Num(n)]).pretty(), "[null]\n");
    }
    // A hostile document is an error, not a stack overflow; the cap sits
    // far above any document the workspace writes.
    let err = json::parse(&"[".repeat(100_000)).unwrap_err();
    assert!(err.contains("at byte 128"), "{err}");
    let deepest = format!("{}{}", "[".repeat(128), "]".repeat(128));
    assert!(json::parse(&deepest).is_ok());
    assert!(json::parse(&format!("[{deepest}]")).is_err());
}

/// Arbitrary JSON values: strings mixing control characters, quotes,
/// backslashes and non-ASCII; edge-case integers; integral, huge, tiny and
/// negative floats; nested and empty containers.
struct AnyJson(u32);

impl Strategy for AnyJson {
    type Value = Json;

    fn new_value(&self, runner: &mut TestRunner) -> Json {
        let members = |runner: &mut TestRunner| 0..runner.usize_in(0, 4);
        match runner.next_u64() % if self.0 == 0 { 5 } else { 7 } {
            0 => Json::Null,
            1 => Json::Bool(runner.next_u64() & 1 == 1),
            2 => Json::UInt([u64::MAX, 0, runner.next_u64()][runner.usize_in(0, 3)]),
            3 => {
                let bits = f64::from_bits(runner.next_u64());
                let integral = (runner.next_u64() % 2001) as f64 - 1000.0;
                Json::Num(if bits.is_finite() && runner.next_u64() & 1 == 1 {
                    bits
                } else {
                    integral
                })
            }
            4 => Json::Str(any_string(runner)),
            5 => Json::Arr(
                members(runner)
                    .map(|_| AnyJson(self.0 - 1).new_value(runner))
                    .collect(),
            ),
            _ => Json::Obj(
                members(runner)
                    .map(|_| (any_string(runner), AnyJson(self.0 - 1).new_value(runner)))
                    .collect(),
            ),
        }
    }
}

fn any_string(runner: &mut TestRunner) -> String {
    const PICKS: &[char] = &[
        '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '€',
    ];
    (0..runner.usize_in(0, 8))
        .map(|_| match runner.next_u64() % 3 {
            0 => PICKS[runner.usize_in(0, PICKS.len())],
            1 => char::from(b' ' + (runner.next_u64() % 95) as u8),
            _ => char::from_u32((runner.next_u64() % 0x11_0000) as u32).unwrap_or('\u{fffd}'),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_writer_output_parses_back_to_the_value(value in AnyJson(4)) {
        let compact = value.compact();
        prop_assert!(!compact.contains('\n'), "{}", compact);
        prop_assert_eq!(json::parse(&compact), Ok(value.clone()));
        let pretty = value.pretty();
        prop_assert!(pretty.ends_with('\n'), "{}", pretty);
        prop_assert_eq!(json::parse(&pretty), Ok(value));
    }

    #[test]
    fn json_parser_never_panics_on_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u16>(), 0..300),
    ) {
        // Half the bytes come from JSON's own punctuation, so the input
        // reaches deep into the grammar instead of failing at byte 0.
        const GRAMMAR: &[u8] = b"[]{}\",:-+.eE0123456789truefalsn\\u ";
        let bytes: Vec<u8> = raw
            .iter()
            .map(|&r| match r >> 8 {
                0..=127 => GRAMMAR[usize::from(r as u8) % GRAMMAR.len()],
                _ => r as u8,
            })
            .collect();
        // Only termination and the absence of a panic are asserted.
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }
}
