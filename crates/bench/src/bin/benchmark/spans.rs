//! Span aggregation for the traced pass.
//!
//! sb-trace keys spans by their full logical path. The per-layer metrics
//! want them by *name within a context*: the benchmark's own `bench:*`
//! span around the call (which model, cold or resumed grid) or the
//! `sched:tenant:*` span a scheduler batch ran under. Per-batch job
//! labels (`job:batch-17`, `job:sched-batch-17`) collapse to
//! `job:batch`, so reports drained many times during a run fold into one
//! table.

use sb_trace::{TraceNode, TraceReport};
use std::collections::BTreeMap;

/// Totals of every span closed under one (context, name) key.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// The span's attributed `flops` counter (MACs for infer kernels).
    pub flops: u64,
}

impl SpanStat {
    /// Mean wall time per close, µs (0 when the span never ran).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

#[derive(Debug, Default)]
pub struct Spans {
    stats: BTreeMap<(String, String), SpanStat>,
    /// Global counter totals (`epochs_trained`, `tasks_stolen`, ...)
    /// summed over every drained report.
    counters: BTreeMap<String, u64>,
}

impl Spans {
    /// Drains everything sb-trace collected so far into the table.
    pub fn drain(&mut self) {
        let report = sb_trace::take_report();
        self.absorb(&report);
    }

    fn absorb(&mut self, report: &TraceReport) {
        for (name, v) in report.counters.iter().chain(&report.scheduling_counters) {
            *self.counters.entry(name.clone()).or_default() += v;
        }
        visit(report, &mut |ctx, node| {
            let name = if node.name.starts_with("job:") && node.name.contains("batch-") {
                "job:batch"
            } else {
                node.name.as_str()
            };
            let s = self
                .stats
                .entry((ctx.to_string(), name.to_string()))
                .or_default();
            s.count += node.count;
            s.total_ns += node.total_ticks;
            s.self_ns += node.self_ticks;
            s.flops += node.counter("flops");
        });
    }

    /// The stat for `name` under context `ctx` (`""` = no context).
    pub fn get(&self, ctx: &str, name: &str) -> SpanStat {
        self.stats
            .get(&(ctx.to_string(), name.to_string()))
            .copied()
            .unwrap_or_default()
    }

    /// Every (context, name, stat) entry, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &SpanStat)> {
        self.stats
            .iter()
            .map(|((c, n), s)| (c.as_str(), n.as_str(), s))
    }

    /// Sum of `name` over every context.
    pub fn total(&self, name: &str) -> SpanStat {
        let mut out = SpanStat::default();
        for (_, n, s) in self.iter() {
            if n == name {
                out.count += s.count;
                out.total_ns += s.total_ns;
                out.self_ns += s.self_ns;
                out.flops += s.flops;
            }
        }
        out
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Calls `f(ctx, node)` for every node of the report, where `ctx` is the
/// name of the innermost *ancestor* that is a `bench:*` or
/// `sched:tenant:*` span (`""` when there is none).
fn visit(report: &TraceReport, f: &mut impl FnMut(&str, &TraceNode)) {
    fn walk(node: &TraceNode, ctx: &str, f: &mut impl FnMut(&str, &TraceNode)) {
        f(ctx, node);
        let inner = if node.name.starts_with("bench:") || node.name.starts_with("sched:tenant:") {
            node.name.as_str()
        } else {
            ctx
        };
        for child in &node.children {
            walk(child, inner, f);
        }
    }
    for root in &report.roots {
        walk(root, "", f);
    }
}
