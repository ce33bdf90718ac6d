//! Load generation: seeded arrival processes plus open- and closed-loop
//! drivers for both clock modes.
//!
//! * **Open loop** — requests arrive on a schedule that ignores server
//!   state (the textbook way to measure a latency/throughput curve:
//!   offered load keeps coming whether or not the server keeps up, so
//!   saturation shows up as rejections and queueing delay rather than as
//!   a silently throttled client).
//! * **Closed loop** — a fixed population of clients, each submitting,
//!   waiting for its answer, thinking, and submitting again; offered
//!   load self-limits to server capacity.
//!
//! Both drivers obey the single-driver discipline from
//! [`crate::sched`]: one thread submits, pumps, and advances the clock.
//! Under a [`SimClock`] the driver advances time event-by-event —
//! `min(next arrival, next server event)` — so the full outcome stream
//! is a deterministic function of `(spec, seed)`.

use crate::clock::{Clock, SimClock};
use crate::engine::BatchEngine;
use crate::server::{Completion, Server};
use sb_rng::Rng;
use std::collections::HashMap;

/// A seeded request-arrival schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Jittered-uniform arrivals: inter-arrival gaps drawn uniformly
    /// from `[0.5, 1.5) ·` mean, holding the offered rate on average.
    Uniform {
        /// Offered load, requests per second.
        rate_rps: f64,
    },
    /// Arrivals in bursts of `burst` back-to-back requests (1 µs apart),
    /// with jittered gaps between bursts sized to hold `rate_rps` on
    /// average. Stresses the micro-batcher's coalescing path.
    Bursty {
        /// Offered load, requests per second.
        rate_rps: f64,
        /// Requests per burst.
        burst: usize,
    },
    /// Offered rate ramps linearly from `start_rps` to `end_rps` across
    /// the horizon. Sweeps through the saturation knee in one run.
    Ramp {
        /// Offered load at time zero, requests per second.
        start_rps: f64,
        /// Offered load at the horizon, requests per second.
        end_rps: f64,
    },
}

/// Uniform `f64` in `[0, 1)` from the generator's top 53 bits.
fn unit(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl ArrivalProcess {
    /// The arrival timestamps (µs, ascending) this process offers over
    /// `[0, horizon_us)` with the given seed. Purely a function of its
    /// arguments.
    pub fn arrivals(&self, horizon_us: u64, seed: u64) -> Vec<u64> {
        let mut rng = Rng::seed_from(seed);
        let mut out = Vec::new();
        match *self {
            ArrivalProcess::Uniform { rate_rps } => {
                assert!(rate_rps > 0.0, "rate must be positive");
                let mean_us = 1.0e6 / rate_rps;
                let mut t = 0.0f64;
                loop {
                    t += mean_us * (0.5 + unit(&mut rng));
                    if t >= horizon_us as f64 {
                        break;
                    }
                    out.push(t as u64);
                }
            }
            ArrivalProcess::Bursty { rate_rps, burst } => {
                assert!(rate_rps > 0.0, "rate must be positive");
                assert!(burst > 0, "burst must be positive");
                let gap_us = 1.0e6 * burst as f64 / rate_rps;
                let mut t = 0.0f64;
                loop {
                    t += gap_us * (0.5 + unit(&mut rng));
                    if t >= horizon_us as f64 {
                        break;
                    }
                    for k in 0..burst as u64 {
                        out.push(t as u64 + k);
                    }
                }
            }
            ArrivalProcess::Ramp { start_rps, end_rps } => {
                assert!(
                    start_rps > 0.0 && end_rps > 0.0,
                    "rates must be positive"
                );
                let mut t = 0.0f64;
                loop {
                    let frac = t / horizon_us as f64;
                    let rate = start_rps + (end_rps - start_rps) * frac;
                    t += (1.0e6 / rate) * (0.5 + unit(&mut rng));
                    if t >= horizon_us as f64 {
                        break;
                    }
                    out.push(t as u64);
                }
            }
        }
        out
    }
}

/// An open-loop workload: an arrival schedule plus the per-request
/// deadline policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// How requests arrive.
    pub arrivals: ArrivalProcess,
    /// Offered-load window, µs; requests arriving at or past it do not
    /// exist. The drain after the horizon still runs to completion.
    pub horizon_us: u64,
    /// Seed for the arrival schedule.
    pub seed: u64,
    /// Relative deadline applied to every request (absolute deadline =
    /// arrival + this); None serves every request eventually.
    pub deadline_us: Option<u64>,
}

/// Runs `spec` open-loop against a **virtual-clock** server:
/// deterministic at any worker count. `make_input` supplies the sample
/// for the `i`-th arrival. Drains fully; returns every completion in
/// resolution order.
pub fn run_open_loop_sim<E: BatchEngine + 'static>(
    server: &mut Server<E>,
    clock: &SimClock,
    spec: &LoadSpec,
    mut make_input: impl FnMut(usize) -> Vec<f32>,
) -> Vec<Completion> {
    let arrivals = spec.arrivals.arrivals(spec.horizon_us, spec.seed);
    let mut out = Vec::new();
    for (i, &at) in arrivals.iter().enumerate() {
        // Let the server react to everything scheduled before this
        // arrival (batch timeouts, completions, deadline expiries).
        while let Some(ev) = server.next_event_us() {
            if ev >= at {
                break;
            }
            clock.advance_to(ev);
            server.pump();
        }
        clock.advance_to(at);
        server.submit(make_input(i), spec.deadline_us.map(|d| at + d));
        out.append(&mut server.take_completions());
    }
    drain_sim(server, clock, &mut out);
    out
}

/// Runs `spec` open-loop against a **wall-clock** server, pumping and
/// yielding until each arrival time. Measures the real machine; not
/// deterministic. `clock` must be the same
/// [`WallClock`](crate::WallClock) the server was built with (arrival
/// times and deadlines are in its epoch), offset so that "time zero" for
/// the schedule is this call.
///
/// Latency is corrected for **coordinated omission**: every request is
/// accounted from its *scheduled* arrival, not from the moment the
/// driver actually managed to submit it. A single-threaded driver falls
/// behind schedule exactly when the server saturates, and measuring
/// from the late submit would silently erase the queueing delay that
/// the schedule says the client experienced. Concretely: deadlines are
/// `scheduled + deadline_us`, and each returned [`Completion`] has
/// `submitted_us` rewritten to the scheduled arrival, so
/// [`Completion::latency_us`] includes driver lag.
pub fn run_open_loop_wall<E: BatchEngine + 'static>(
    server: &mut Server<E>,
    clock: &dyn Clock,
    spec: &LoadSpec,
    mut make_input: impl FnMut(usize) -> Vec<f32>,
) -> Vec<Completion> {
    assert!(!clock.is_virtual(), "use run_open_loop_sim for SimClock");
    let arrivals = spec.arrivals.arrivals(spec.horizon_us, spec.seed);
    let epoch = clock.now_us();
    let mut scheduled: HashMap<u64, u64> = HashMap::new();
    let mut out = Vec::new();
    for (i, &at) in arrivals.iter().enumerate() {
        let due = epoch + at;
        while clock.now_us() < due {
            server.pump();
            // Yield rather than spin: on a small machine a spinning
            // driver holds the core the batch workers need.
            std::thread::yield_now();
        }
        let id = server.submit(make_input(i), spec.deadline_us.map(|d| due + d));
        scheduled.insert(id, due);
        out.append(&mut server.take_completions());
    }
    out.append(&mut server.drain_wall());
    for c in &mut out {
        if let Some(&due) = scheduled.get(&c.id) {
            // Rejections are stamped at the decision time, which can
            // precede a badly late submit's schedule; keep done >= submitted.
            c.submitted_us = due.min(c.done_us);
        }
    }
    out
}

/// Drives a virtual-clock server until idle, appending completions.
pub fn drain_sim<E: BatchEngine + 'static>(
    server: &mut Server<E>,
    clock: &SimClock,
    out: &mut Vec<Completion>,
) {
    server.begin_drain();
    out.append(&mut server.take_completions());
    while !server.is_idle() {
        let ev = server
            .next_event_us()
            .expect("a non-idle server always has a next event");
        clock.advance_to(ev);
        server.pump();
        out.append(&mut server.take_completions());
    }
}

/// Runs a **closed-loop** workload against a virtual-clock server:
/// `clients` virtual clients each submit, wait for their answer, think
/// for `think_us`, and repeat, `requests_per_client` times. Offered load
/// self-limits to capacity; deterministic at any worker count.
pub fn run_closed_loop_sim<E: BatchEngine + 'static>(
    server: &mut Server<E>,
    clock: &SimClock,
    clients: usize,
    think_us: u64,
    requests_per_client: usize,
    deadline_us: Option<u64>,
    mut make_input: impl FnMut(usize) -> Vec<f32>,
) -> Vec<Completion> {
    assert!(clients > 0, "need at least one client");
    // Per-client state: next submit time (None once out of credit) and
    // remaining submissions. `owner[id] = client` routes completions.
    let mut ready: Vec<Option<u64>> = vec![Some(0); clients];
    let mut credit: Vec<usize> = vec![requests_per_client; clients];
    let mut owner: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut out = Vec::new();
    let mut submitted = 0usize;
    loop {
        // Earliest client submit, ties broken by client index.
        let next_client = ready
            .iter()
            .enumerate()
            .filter_map(|(c, t)| t.map(|t| (t, c)))
            .min();
        let next_server = server.next_event_us();
        let take_client = match (next_client, next_server) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((tc, _)), Some(ts)) => tc <= ts,
        };
        if take_client {
            let (tc, c) = next_client.expect("chosen arm has a client");
            clock.advance_to(tc);
            server.pump();
            let now = clock.now_us();
            let id = server.submit(make_input(submitted), deadline_us.map(|d| now + d));
            owner.insert(id, c);
            submitted += 1;
            ready[c] = None;
            credit[c] -= 1;
        } else {
            let ts = next_server.expect("chosen arm has a server event");
            clock.advance_to(ts);
            server.pump();
        }
        for done in server.take_completions() {
            if let Some(&c) = owner.get(&done.id) {
                if credit[c] > 0 {
                    ready[c] = Some(done.done_us + think_us);
                }
            }
            out.push(done);
        }
    }
    drain_sim(server, clock, &mut out);
    out
}

/// Summarizes a completion stream as an [`sb_metrics::ServeProfile`]:
/// completed requests feed the latency/batch distributions, rejections
/// feed the shed-load ledger.
pub fn profile(completions: &[Completion], horizon_us: u64) -> sb_metrics::ServeProfile {
    use crate::server::{Outcome, RejectReason, ServedBy};
    let mut completed: Vec<(u64, usize)> = Vec::new();
    let mut fallback = 0usize;
    let mut rejected = sb_metrics::RejectCounts::default();
    for c in completions {
        match c.outcome {
            Outcome::Completed {
                batch_size,
                served_by,
                ..
            } => {
                completed.push((c.latency_us(), batch_size));
                if served_by == ServedBy::Fallback {
                    fallback += 1;
                }
            }
            Outcome::Rejected { reason } => match reason {
                RejectReason::QueueFull => rejected.queue_full += 1,
                RejectReason::DeadlineExpired => rejected.deadline_expired += 1,
                RejectReason::Cancelled => rejected.cancelled += 1,
                RejectReason::ShuttingDown => rejected.shutting_down += 1,
                RejectReason::QuotaExceeded => rejected.quota_exceeded += 1,
                RejectReason::EngineFailure => rejected.engine_failure += 1,
                RejectReason::CircuitOpen => rejected.circuit_open += 1,
            },
        }
    }
    sb_metrics::ServeProfile::measure(&completed, rejected, horizon_us)
        .with_fallback_count(fallback)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EchoEngine, ServiceModel};
    use crate::server::{Outcome, ServeConfig};
    use std::sync::Arc;

    fn sim_server(cfg: ServeConfig, service: ServiceModel) -> (Server<EchoEngine>, Arc<SimClock>) {
        let clock = Arc::new(SimClock::new());
        let server = Server::new(EchoEngine::new(1, 10, service), cfg, clock.clone());
        (server, clock)
    }

    #[test]
    fn arrival_processes_hold_their_offered_rate() {
        let horizon = 1_000_000; // 1 s
        for (proc_, expect) in [
            (ArrivalProcess::Uniform { rate_rps: 500.0 }, 500.0),
            (
                ArrivalProcess::Bursty {
                    rate_rps: 500.0,
                    burst: 8,
                },
                500.0,
            ),
            (
                ArrivalProcess::Ramp {
                    start_rps: 200.0,
                    end_rps: 800.0,
                },
                500.0,
            ),
        ] {
            let times = proc_.arrivals(horizon, 42);
            let rate = times.len() as f64;
            assert!(
                (rate - expect).abs() / expect < 0.25,
                "{proc_:?}: {rate} arrivals vs ~{expect}"
            );
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "ascending");
            assert!(*times.last().expect("nonempty") < horizon);
            assert_eq!(times, proc_.arrivals(horizon, 42), "seed-deterministic");
            assert_ne!(times, proc_.arrivals(horizon, 43), "seed-sensitive");
        }
    }

    #[test]
    fn open_loop_sim_answers_every_request_exactly_once() {
        let (mut server, clock) = sim_server(
            ServeConfig {
                max_batch: 8,
                max_wait_us: 2_000,
                queue_cap: 32,
                max_inflight: 2,
            },
            ServiceModel {
                base_us: 300,
                per_sample_us: 50,
            },
        );
        let spec = LoadSpec {
            arrivals: ArrivalProcess::Uniform { rate_rps: 2_000.0 },
            horizon_us: 100_000,
            seed: 7,
            deadline_us: Some(20_000),
        };
        let offered = spec.arrivals.arrivals(spec.horizon_us, spec.seed).len();
        let done = run_open_loop_sim(&mut server, &clock, &spec, |i| vec![i as f32]);
        assert_eq!(done.len(), offered, "every request resolves exactly once");
        let mut ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), offered, "no id resolves twice");
        let p = profile(&done, spec.horizon_us);
        assert_eq!(p.requests, offered);
        assert!(p.completed > 0, "some traffic must be served");
        assert!(server.is_idle());
    }

    #[test]
    fn closed_loop_sim_self_limits_and_completes_all() {
        let (mut server, clock) = sim_server(
            ServeConfig {
                max_batch: 4,
                max_wait_us: 500,
                queue_cap: 16,
                max_inflight: 1,
            },
            ServiceModel {
                base_us: 100,
                per_sample_us: 25,
            },
        );
        let done = run_closed_loop_sim(&mut server, &clock, 3, 200, 5, None, |i| vec![i as f32]);
        assert_eq!(done.len(), 15, "3 clients x 5 requests");
        assert!(
            done.iter()
                .all(|c| matches!(c.outcome, Outcome::Completed { .. })),
            "closed loop with no deadline completes everything"
        );
    }
}
