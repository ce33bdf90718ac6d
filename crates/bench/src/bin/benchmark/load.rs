//! One wall-clock load driver for `Server` and `MultiServer`.
//!
//! Each tenant is either *open*, with requests arriving on a seeded
//! schedule whatever the server does, or *closed*, with a fixed number of
//! requests kept outstanding so that every resolution sends the next one.
//! Open requests are timed from their scheduled arrival, which charges
//! any stall of the driver to the requests it delays (coordinated
//! omission), and the driver records how late it submitted them. Between
//! submits it pumps the server and yields the core: on a small machine a
//! spinning driver holds the core the batch workers need.

use crate::report::rank_us;
use sb_sched::{merged_arrivals, MultiServer, TenantLoad};
use sb_serve::{ArrivalProcess, BatchEngine, Clock, Completion, Outcome, RejectReason, Server};
use std::time::Instant;

/// What the driver needs from a server: `Server` is the one-tenant case.
pub trait Target {
    fn submit(&mut self, tenant: usize, input: Vec<f32>, deadline_us: Option<u64>) -> u64;
    fn pump(&mut self);
    fn is_idle(&self) -> bool;
    fn take(&mut self, out: &mut Vec<(usize, Completion)>);
}

impl<E: BatchEngine + 'static> Target for Server<E> {
    fn submit(&mut self, _tenant: usize, input: Vec<f32>, deadline_us: Option<u64>) -> u64 {
        Server::submit(self, input, deadline_us)
    }
    fn pump(&mut self) {
        Server::pump(self)
    }
    fn is_idle(&self) -> bool {
        Server::is_idle(self)
    }
    fn take(&mut self, out: &mut Vec<(usize, Completion)>) {
        out.extend(self.take_completions().into_iter().map(|c| (0, c)));
    }
}

impl Target for MultiServer {
    fn submit(&mut self, tenant: usize, input: Vec<f32>, deadline_us: Option<u64>) -> u64 {
        MultiServer::submit(self, tenant, input, deadline_us)
    }
    fn pump(&mut self) {
        MultiServer::pump(self)
    }
    fn is_idle(&self) -> bool {
        MultiServer::is_idle(self)
    }
    fn take(&mut self, out: &mut Vec<(usize, Completion)>) {
        out.extend(
            self.take_completions()
                .into_iter()
                .map(|c| (c.tenant, c.completion)),
        );
    }
}

/// How one tenant's requests are sent in a window.
#[derive(Debug, Clone, Copy)]
pub enum Offer {
    /// Seeded uniform arrivals at `rate_rps`.
    Open { rate_rps: f64, deadline_us: u64 },
    /// `outstanding` requests in flight until the horizon.
    Closed {
        outstanding: usize,
        deadline_us: u64,
    },
}

impl Offer {
    fn deadline_us(&self) -> u64 {
        match *self {
            Offer::Open { deadline_us, .. } | Offer::Closed { deadline_us, .. } => deadline_us,
        }
    }
}

/// One tenant's outcomes in a window.
#[derive(Debug, Default, Clone)]
pub struct TenantStats {
    pub offered: usize,
    /// Latency of every completed request from its scheduled arrival
    /// (open) or its submit (closed), µs, ascending.
    pub latency_us: Vec<u64>,
    /// Requests completed before the horizon.
    pub completed_in_horizon: usize,
    pub queue_full: usize,
    pub deadline: usize,
    pub other_shed: usize,
    /// Batches the completed requests rode in: each member of an
    /// `n`-sample batch adds `1/n`.
    pub batches: f64,
}

impl TenantStats {
    pub fn shed(&self) -> usize {
        self.queue_full + self.deadline + self.other_shed
    }

    pub fn p(&self, q: f64) -> u64 {
        rank_us(&self.latency_us, q)
    }
}

/// Everything one window measured.
#[derive(Debug, Default)]
pub struct Window {
    pub tenants: Vec<TenantStats>,
    /// How late the driver submitted each open request, µs, ascending.
    pub lag_us: Vec<u64>,
    /// Wall time inside each `submit` call, ns (only when timing calls).
    pub submit_ns: Vec<u64>,
    /// Total ns inside `pump` and the number of calls (ditto).
    pub pump_ns: u64,
    pub pumps: u64,
    /// Exactly-once violations: ids never resolved, resolved twice, or
    /// unknown to the driver.
    pub ledger_errors: usize,
}

/// Drives `target` for `horizon_us` with the given per-tenant offers,
/// then pumps until idle. `inputs` are cycled as request samples;
/// `clock` must be the clock the target was built with.
pub fn run_window<T: Target>(
    target: &mut T,
    clock: &dyn Clock,
    offers: &[Offer],
    horizon_us: u64,
    seed: u64,
    inputs: &[Vec<f32>],
    time_calls: bool,
) -> Window {
    let open: Vec<usize> = (0..offers.len())
        .filter(|&t| matches!(offers[t], Offer::Open { .. }))
        .collect();
    let loads: Vec<TenantLoad> = open
        .iter()
        .map(|&t| match offers[t] {
            Offer::Open { rate_rps, .. } => TenantLoad {
                arrivals: ArrivalProcess::Uniform { rate_rps },
                seed: seed ^ ((t as u64 + 1) << 48),
                deadline_us: None,
            },
            Offer::Closed { .. } => unreachable!("filtered to open tenants"),
        })
        .collect();
    let schedule = merged_arrivals(&loads, horizon_us);
    let mut w = Window {
        tenants: vec![TenantStats::default(); offers.len()],
        lag_us: Vec::with_capacity(schedule.len()),
        ..Window::default()
    };
    // Server ids are sequential, so the id of the k-th submit in this
    // window is `first + k`; `due[k]` is when its latency clock started.
    let mut due: Vec<u64> = Vec::with_capacity(schedule.len());
    let mut first_id = None;
    let mut done: Vec<(usize, Completion)> = Vec::with_capacity(schedule.len());
    let mut seen = 0;
    let mut outstanding = vec![0usize; offers.len()];
    let mut sent = 0usize;
    let mut submit = |target: &mut T, w: &mut Window, tenant: usize, at: u64| {
        let sample = inputs[sent % inputs.len()].clone();
        sent += 1;
        let deadline = Some(at + offers[tenant].deadline_us());
        let id = if time_calls {
            let t = Instant::now();
            let id = target.submit(tenant, sample, deadline);
            w.submit_ns.push(t.elapsed().as_nanos() as u64);
            id
        } else {
            // `pump` gets no span: it runs every few hundred ns, and a
            // span there would cost more than the call it wraps.
            let _span = sb_trace::span("bench:submit");
            target.submit(tenant, sample, deadline)
        };
        w.tenants[tenant].offered += 1;
        let first = *first_id.get_or_insert(id);
        if id != first + due.len() as u64 {
            w.ledger_errors += 1;
        }
        due.push(at);
    };
    let pump = |target: &mut T, w: &mut Window| {
        if time_calls {
            let t = Instant::now();
            target.pump();
            w.pump_ns += t.elapsed().as_nanos() as u64;
            w.pumps += 1;
        } else {
            target.pump();
        }
    };

    let epoch = clock.now_us();
    let end = epoch + horizon_us;
    let mut next = 0;
    loop {
        target.take(&mut done);
        for (tenant, _) in &done[seen..] {
            outstanding[*tenant] = outstanding[*tenant].saturating_sub(1);
        }
        seen = done.len();
        let now = clock.now_us();
        if now < end {
            for (t, offer) in offers.iter().enumerate() {
                if let Offer::Closed { outstanding: n, .. } = *offer {
                    while outstanding[t] < n {
                        submit(target, &mut w, t, now);
                        outstanding[t] += 1;
                    }
                }
            }
        }
        match schedule.get(next) {
            Some(&(at, i, _)) if epoch + at <= now => {
                w.lag_us.push(now - (epoch + at));
                submit(target, &mut w, open[i], epoch + at);
                next += 1;
                continue;
            }
            None if now >= end => break,
            _ => {}
        }
        pump(target, &mut w);
        std::thread::yield_now();
    }
    while !target.is_idle() {
        pump(target, &mut w);
        std::thread::yield_now();
    }
    target.take(&mut done);

    let first = first_id.unwrap_or(0);
    let mut resolved = vec![false; due.len()];
    for (tenant, c) in &done {
        let k = c.id.wrapping_sub(first) as usize;
        if k >= due.len() || std::mem::replace(&mut resolved[k], true) {
            w.ledger_errors += 1;
            continue;
        }
        let t = &mut w.tenants[*tenant];
        match c.outcome {
            Outcome::Completed { batch_size, .. } => {
                t.latency_us.push(c.done_us.saturating_sub(due[k]));
                t.batches += 1.0 / batch_size as f64;
                if c.done_us <= end {
                    t.completed_in_horizon += 1;
                }
            }
            Outcome::Rejected { reason } => match reason {
                RejectReason::QueueFull => t.queue_full += 1,
                RejectReason::DeadlineExpired => t.deadline += 1,
                _ => t.other_shed += 1,
            },
        }
    }
    w.ledger_errors += resolved.iter().filter(|r| !**r).count();
    for t in &mut w.tenants {
        t.latency_us.sort_unstable();
    }
    w.lag_us.sort_unstable();
    w
}
