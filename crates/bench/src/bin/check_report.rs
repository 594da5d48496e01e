//! CI assertion tool for `spider-ind discover --report` run files.
//!
//! ```text
//! cargo run --release -p ind-bench --bin check_report -- REPORT.json
//! ```
//!
//! Validates the observability contract end to end:
//!
//! * the report parses and carries the expected `report_version`;
//! * there are exactly two root spans: `load` (reading the TSV files),
//!   then `discover`;
//! * the span tree is well-formed — every child's interval lies inside
//!   its parent's interval, `load`'s per-table `load_table` spans (from
//!   the loader's worker threads) included;
//! * the run's phases — `load` and the direct children of `discover` —
//!   cover the run's wall time, from the start of `load` to the end of
//!   `discover`, to within `max(5%, 2 ms)` — measured as the union of their
//!   intervals, so spans of concurrent export workers are not
//!   double-counted;
//! * every `level` span of the n-ary path (`--max-arity`) is covered by its
//!   children (`generate`, `export`, `classes`, `spider_merge`) to the same
//!   tolerance, measured against the level's own duration;
//! * the `discover` span agrees with `metrics.elapsed_ns` to the same
//!   tolerance;
//! * span counters count a span's own work, not that of concurrent
//!   workers: no `sort` span reads more than one `attributes_exported`,
//!   and the `sort` children of each `export` span sum to its count;
//! * no events were dropped to ring overflow.
//!
//! Exits 0 when every assertion holds, 1 with a diagnostic otherwise.

use ind_trace::json::{parse, Json};
use std::process::ExitCode;

/// Expected `report_version` — bump together with the CLI writer.
const REPORT_VERSION: u64 = 5;

fn field_u64(node: &Json, key: &str) -> Result<u64, String> {
    node.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

/// Recursively asserts child-interval ⊆ parent-interval, returning the
/// number of spans visited.
fn check_nesting(node: &Json, path: &str) -> Result<usize, String> {
    let start = field_u64(node, "start_ns")?;
    let end = start + field_u64(node, "duration_ns")?;
    let children = node
        .get("children")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing `children` array"))?;
    let mut visited = 1;
    for child in children {
        let name = child
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: child without a name"))?;
        let c_start = field_u64(child, "start_ns")?;
        let c_end = c_start + field_u64(child, "duration_ns")?;
        if c_start < start || c_end > end {
            return Err(format!(
                "{path}/{name}: child interval [{c_start}, {c_end}] escapes parent \
                 [{start}, {end}]"
            ));
        }
        visited += check_nesting(child, &format!("{path}/{name}"))?;
    }
    Ok(visited)
}

/// A span's `[start, end)` interval.
fn interval(span: &Json) -> Result<(u64, u64), String> {
    let start = field_u64(span, "start_ns")?;
    Ok((start, start + field_u64(span, "duration_ns")?))
}

/// The time nobody accounts for: `max(5%, 2 ms)` of `reference`.
fn tolerance(reference: u64) -> u64 {
    (reference / 20).max(2_000_000)
}

/// Asserts that every `level` span at or below `node` is covered by the
/// union of its children's intervals to within [`tolerance`] of its own
/// duration, returning the number of levels checked.
fn check_levels(node: &Json, path: &str) -> Result<usize, String> {
    let name = node.get("name").and_then(Json::as_str).unwrap_or("?");
    let children = node
        .get("children")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing `children` array"))?;
    let mut checked = 0;
    if name == "level" {
        let (start, end) = interval(node)?;
        let covered = union_ns(children.iter().map(interval).collect::<Result<_, _>>()?);
        let uncovered = (end - start).saturating_sub(covered);
        if uncovered > tolerance(end - start) {
            return Err(format!(
                "{path}: children cover {covered} of {} ns — {uncovered} ns of the level \
                 is unaccounted for (tolerance {} ns)",
                end - start,
                tolerance(end - start)
            ));
        }
        checked += 1;
    }
    for child in children {
        let child_name = child.get("name").and_then(Json::as_str).unwrap_or("?");
        checked += check_levels(child, &format!("{path}/{child_name}"))?;
    }
    Ok(checked)
}

/// Asserts that no `sort` span at or below `node` counts more than one
/// exported attribute and that each `export` span's `sort` children sum to
/// its own count, returning the number of `export` spans checked.
fn check_exports(node: &Json, path: &str) -> Result<usize, String> {
    let exported = |span: &Json| {
        span.get("counters")
            .and_then(|c| c.get("attributes_exported"))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}: missing `counters.attributes_exported`"))
    };
    let name = node.get("name").and_then(Json::as_str).unwrap_or("?");
    let children = node
        .get("children")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing `children` array"))?;
    let count = exported(node)?;
    let mut checked = 0;
    if name == "sort" && count > 1 {
        return Err(format!(
            "{path}: one sort span counts {count} exported attributes — it counts \
             other workers' exports"
        ));
    }
    if name == "export" {
        let mut sorts = 0;
        for child in children {
            if child.get("name").and_then(Json::as_str) == Some("sort") {
                sorts += exported(child)?;
            }
        }
        if sorts != count {
            return Err(format!(
                "{path}: its sort spans count {sorts} exported attributes, the span {count}"
            ));
        }
        checked += 1;
    }
    for child in children {
        let child_name = child.get("name").and_then(Json::as_str).unwrap_or("?");
        checked += check_exports(child, &format!("{path}/{child_name}"))?;
    }
    Ok(checked)
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = 0u64;
    for (start, end) in intervals {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

fn run() -> Result<(), String> {
    let path = std::env::args()
        .nth(1)
        .ok_or("usage: check_report REPORT.json")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let report = parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;

    let version = field_u64(&report, "report_version")?;
    if version != REPORT_VERSION {
        return Err(format!(
            "report_version {version}, this checker understands {REPORT_VERSION}"
        ));
    }
    let dropped = field_u64(&report, "dropped_events")?;
    if dropped != 0 {
        return Err(format!(
            "{dropped} events were dropped to ring overflow — the span tree is incomplete"
        ));
    }

    let spans = report
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("missing `spans` array")?;
    let names: Vec<&str> = spans
        .iter()
        .map(|s| s.get("name").and_then(Json::as_str).unwrap_or("?"))
        .collect();
    let ([load, root], ["load", "discover"]) = (spans, &names[..]) else {
        return Err(format!(
            "expected root spans [load, discover], found {names:?}"
        ));
    };
    let span_count = check_nesting(load, "load")? + check_nesting(root, "discover")?;
    let levels = check_levels(root, "discover")?;
    let exports = check_exports(root, "discover")?;

    let (load_start, load_end) = interval(load)?;
    let (root_start, root_end) = interval(root)?;
    if load_end > root_start {
        return Err(format!(
            "load [{load_start}, {load_end}] does not end before discover starts at {root_start}"
        ));
    }
    let root_dur = root_end - root_start;
    let run_dur = root_end - load_start;

    // Phase coverage: `load` and the root's direct children, as an interval
    // union so spans of concurrent export workers are not double-counted,
    // must account for the run's wall time minus the tolerance.
    let children = root.get("children").and_then(Json::as_arr).unwrap();
    if children.is_empty() {
        return Err("the discover root has no phase children".into());
    }
    let intervals: Vec<(u64, u64)> = std::iter::once(load)
        .chain(children)
        .map(interval)
        .collect::<Result<_, String>>()?;
    let covered = union_ns(intervals);
    let uncovered = run_dur.saturating_sub(covered);
    if uncovered > tolerance(run_dur) {
        return Err(format!(
            "phases cover {covered} of {run_dur} ns — {uncovered} ns ({:.1}%) of the \
             run is unaccounted for (tolerance {} ns)",
            uncovered as f64 * 100.0 / run_dur.max(1) as f64,
            tolerance(run_dur)
        ));
    }

    // The root span and the engine's own `elapsed` clock must agree.
    let metrics = report.get("metrics").ok_or("missing `metrics` object")?;
    let elapsed = field_u64(metrics, "elapsed_ns")?;
    if root_dur.abs_diff(elapsed) > tolerance(elapsed) {
        return Err(format!(
            "root span lasted {root_dur} ns but metrics.elapsed_ns is {elapsed} ns \
             (tolerance {} ns)",
            tolerance(elapsed)
        ));
    }

    println!(
        "[report ok: {span_count} spans, load {:.2} ms then discover {:.2} ms, phases cover \
         {:.1}% of the run, {levels} levels covered, {exports} exports count their sorts, \
         elapsed agrees]",
        (load_end - load_start) as f64 / 1e6,
        root_dur as f64 / 1e6,
        covered as f64 * 100.0 / run_dur.max(1) as f64
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
