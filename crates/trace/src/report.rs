//! Report-time assembly: span tree, JSON rendering, folded stacks.
//!
//! Everything here runs after the measured work and may allocate freely.

use crate::json::Json;
use crate::progress::{COUNTER_COUNT, COUNTER_NAMES};
use crate::ring::{self, EventKind};
use crate::span::{ArgStyle, SPAN_TABLE};
use std::collections::HashMap;

/// One finished span with its children, ready for rendering.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Registered span name (see [`crate::SPAN_NAMES`]).
    pub name: &'static str,
    /// Span argument (attribute id, level, block pair…).
    pub arg: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Wall time from start to finish.
    pub duration_ns: u64,
    /// Progress-counter deltas over the span, in [`COUNTER_NAMES`] order:
    /// the work of the span's own thread plus that of its descendants on
    /// other threads.
    pub counters: [u64; COUNTER_COUNT],
    /// Child spans, in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Wall time of this span not covered by its children.
    pub fn self_ns(&self) -> u64 {
        let child_total: u64 = self.children.iter().map(|c| c.duration_ns).sum();
        self.duration_ns.saturating_sub(child_total)
    }
}

/// A collected run: root spans plus the ring-overflow count.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Top-level spans (usually one `discover` root).
    pub roots: Vec<SpanNode>,
    /// Events lost to full rings (0 on any normal run).
    pub dropped_events: u64,
}

/// The human label for a span (`sort/attr=3`, `level=2`, `export`…).
pub fn span_label(name: &str, arg: u64) -> String {
    for (registered, style) in SPAN_TABLE {
        if registered == name {
            return match style {
                ArgStyle::None => name.to_string(),
                ArgStyle::Attr => format!("{name}/attr={arg}"),
                ArgStyle::Index => format!("{name}={arg}"),
            };
        }
    }
    name.to_string()
}

struct Pending {
    thread: usize,
    span: u16,
    arg: u64,
    parent: u64,
    start_ns: u64,
    end_ns: Option<u64>,
    counters: [u64; COUNTER_COUNT],
    children: Vec<u64>,
}

/// Drains every thread's ring and folds the events into a span tree.
///
/// Spans still open at collection time are omitted (their finished
/// children are promoted to roots), so the tree always satisfies
/// child-interval ⊆ parent-interval.
pub fn collect() -> Trace {
    let events = ring::drain_sorted();
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for &(thread, event) in &events {
        match event.kind {
            EventKind::Start => {
                pending.insert(
                    event.token,
                    Pending {
                        thread,
                        span: event.span,
                        arg: event.arg,
                        parent: event.parent,
                        start_ns: event.t_ns,
                        end_ns: None,
                        counters: [0; COUNTER_COUNT],
                        children: Vec::new(),
                    },
                );
                order.push(event.token);
            }
            EventKind::End => {
                if let Some(p) = pending.get_mut(&event.token) {
                    p.end_ns = Some(event.t_ns);
                    p.counters = event.counters;
                }
            }
        }
    }
    // Attach children to parents (in start order, so sibling order is
    // stable); a finished span under an unfinished or unknown parent
    // becomes a root.
    let mut roots: Vec<u64> = Vec::new();
    for &token in &order {
        let parent = pending[&token].parent;
        let parent_finished =
            parent != 0 && pending.get(&parent).is_some_and(|p| p.end_ns.is_some());
        if parent_finished {
            if let Some(p) = pending.get_mut(&parent) {
                p.children.push(token);
            }
        } else if pending[&token].end_ns.is_some() {
            roots.push(token);
        }
    }
    /// Builds the subtree of `token`; also returns what its descendants on
    /// other threads than its own counted.
    fn build(
        token: u64,
        pending: &HashMap<u64, Pending>,
    ) -> Option<(SpanNode, [u64; COUNTER_COUNT])> {
        let p = pending.get(&token)?;
        let end_ns = p.end_ns?;
        let mut children = Vec::with_capacity(p.children.len());
        let mut elsewhere = [0u64; COUNTER_COUNT];
        for &child in &p.children {
            if let Some((node, child_elsewhere)) = build(child, pending) {
                // A child on this thread is in `p.counters` already, but
                // for its own descendants elsewhere.
                let extra = if pending[&child].thread == p.thread {
                    child_elsewhere
                } else {
                    node.counters
                };
                for (sum, n) in elsewhere.iter_mut().zip(extra) {
                    *sum += n;
                }
                children.push(node);
            }
        }
        let mut counters = p.counters;
        for (total, n) in counters.iter_mut().zip(elsewhere) {
            *total += n;
        }
        let node = SpanNode {
            name: SPAN_TABLE
                .get(p.span as usize)
                .map_or("unknown", |(name, _)| name),
            arg: p.arg,
            start_ns: p.start_ns,
            duration_ns: end_ns.saturating_sub(p.start_ns),
            counters,
            children,
        };
        Some((node, elsewhere))
    }
    Trace {
        roots: roots
            .into_iter()
            .filter_map(|t| build(t, &pending).map(|(node, _)| node))
            .collect(),
        dropped_events: ring::dropped_events(),
    }
}

fn span_json(node: &SpanNode) -> Json {
    Json::obj([
        ("name", node.name.into()),
        ("arg", node.arg.into()),
        ("start_ns", node.start_ns.into()),
        ("duration_ns", node.duration_ns.into()),
        (
            "counters",
            Json::obj(
                COUNTER_NAMES
                    .iter()
                    .zip(node.counters)
                    .map(|(&name, n)| (name, n.into())),
            ),
        ),
        (
            "children",
            Json::Arr(node.children.iter().map(span_json).collect()),
        ),
    ])
}

/// The span tree as a JSON array (the report's `"spans"` value).
pub fn spans_json(trace: &Trace) -> Json {
    Json::Arr(trace.roots.iter().map(span_json).collect())
}

fn fold_into(out: &mut String, node: &SpanNode, stack: &mut String) {
    let rollback = stack.len();
    if !stack.is_empty() {
        stack.push(';');
    }
    stack.push_str(&span_label(node.name, node.arg));
    let self_us = node.self_ns() / 1_000;
    out.push_str(&format!("{stack} {self_us}\n"));
    for child in &node.children {
        fold_into(out, child, stack);
    }
    stack.truncate(rollback);
}

/// Renders flamegraph-compatible folded stacks: one line per span,
/// `discover;export;sort/attr=3 <self-microseconds>`.
pub fn folded(trace: &Trace) -> String {
    let mut out = String::new();
    let mut stack = String::new();
    for root in &trace.roots {
        fold_into(&mut out, root, &mut stack);
    }
    out
}
