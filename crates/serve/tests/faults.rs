//! Fault-tolerance suite (seed `0x7E45_000E`): panic isolation through
//! the public API, the breaker → fallback → probe recovery arc under a
//! seeded outage burst, and exactly-once accountability plus
//! thread-count byte-invariance with faults, retries, breakers, and
//! fallbacks all enabled.
//!
//! The property half lives in one test function (not several) because it
//! flips the process-global thread override, and `#[test]`s in one
//! binary run concurrently.

use sb_check::{check, Config, Shrink};
use sb_runtime::set_thread_override;
use sb_serve::{
    drain_sim, BackoffPolicy, BatchEngine, BreakerConfig, BreakerState, Completion, EchoEngine,
    FaultPlan, FaultSpec, Outcome, RejectReason, RetryPolicy, ServeConfig, ServedBy, Server,
    ServiceModel, SimClock,
};
use std::sync::Arc;

const CLASSES: usize = 10;

/// An engine that always panics. The driver-survival regression needs a
/// failure that reaches the harvest path through the public API with no
/// fault-injection machinery involved.
struct PanicEngine {
    service: ServiceModel,
}

impl BatchEngine for PanicEngine {
    fn sample_len(&self) -> usize {
        1
    }

    fn classes(&self) -> usize {
        CLASSES
    }

    fn run_batch(&self, _inputs: &[f32], _n: usize) -> Vec<usize> {
        panic!("engine always fails")
    }

    fn service_us(&self, n: usize) -> u64 {
        self.service.batch_us(n)
    }
}

/// Regression for the old harvest path, which joined batch jobs with
/// `.expect("batch jobs do not fail, retry, or cancel")`: one panicking
/// batch unwound the *driver* thread and lost every member's
/// resolution. The batch job is now the containment boundary — the
/// server survives and resolves each member as `EngineFailure`.
#[test]
fn panicking_batch_resolves_members_instead_of_killing_the_server() {
    let clock = Arc::new(SimClock::new());
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait_us: 0,
        queue_cap: 16,
        max_inflight: 1,
    };
    let service = ServiceModel {
        base_us: 100,
        per_sample_us: 10,
    };
    let mut server = Server::new(PanicEngine { service }, cfg, clock.clone());
    let ids: Vec<u64> = (0..4).map(|i| server.submit(vec![i as f32], None)).collect();
    let mut out = Vec::new();
    drain_sim(&mut server, &clock, &mut out);
    assert_eq!(out.len(), 4, "every member resolves exactly once");
    for id in ids {
        let c = out.iter().find(|c| c.id == id).expect("id resolved");
        assert_eq!(
            c.outcome,
            Outcome::Rejected {
                reason: RejectReason::EngineFailure
            },
            "failed batch members resolve as EngineFailure"
        );
    }
    assert!(server.is_idle(), "the driver survives the panic");
}

/// The full degraded-mode arc under one seeded outage: a panic burst
/// confined to a batch-index window trips the breaker, traffic rides the
/// cheaper pruned-model stand-in (`served_by: Fallback`) with its tail
/// under the deadline, half-open probes keep finding the burst until it
/// ends, and the breaker recloses on clean probes.
#[test]
fn fault_burst_opens_breaker_fallback_holds_tail_and_probes_reclose() {
    let clock = Arc::new(SimClock::new());
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait_us: 300,
        queue_cap: 64,
        max_inflight: 2,
    };
    // Primary prices like a dense model; the fallback like a 16×-pruned
    // one (cheaper per batch and per sample).
    let primary = ServiceModel {
        base_us: 200,
        per_sample_us: 60,
    };
    let fallback = ServiceModel {
        base_us: 80,
        per_sample_us: 10,
    };
    let spec = FaultSpec {
        panic_per_mille: 1_000,
        window_from: Some(8),
        window_until: Some(16),
        ..FaultSpec::none(0xB0057)
    };
    let deadline_rel = 25_000u64;
    let mut server = Server::new(EchoEngine::new(1, CLASSES, primary), cfg, clock.clone())
        .with_faults(FaultPlan::new(spec))
        .with_breaker(BreakerConfig {
            window: 8,
            min_samples: 4,
            error_threshold_per_mille: 500,
            open_us: 3_000,
            probe_batches: 2,
        })
        .with_fallback(EchoEngine::new(1, CLASSES, fallback));
    let total = 400u64;
    let mut out = Vec::new();
    for i in 0..total {
        let at = i * 150;
        while let Some(ev) = server.next_event_us() {
            if ev >= at {
                break;
            }
            clock.advance_to(ev);
            server.pump();
        }
        clock.advance_to(at);
        server.submit(vec![i as f32], Some(at + deadline_rel));
        out.append(&mut server.take_completions());
    }
    drain_sim(&mut server, &clock, &mut out);

    // Exactly-once accountability across the outage.
    assert_eq!(out.len() as u64, total, "every request resolves");
    let mut ids: Vec<u64> = out.iter().map(|c| c.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, total, "no id resolves twice");

    // The burst produced real failures, and the breaker walked the full
    // arc: closed → open, open → half-open, and a final reclose.
    let failures = out
        .iter()
        .filter(|c| {
            c.outcome
                == Outcome::Rejected {
                    reason: RejectReason::EngineFailure,
                }
        })
        .count();
    assert!(failures > 0, "the burst failed at least one batch");
    let events = server.take_breaker_events();
    assert!(
        events
            .iter()
            .any(|e| e.from == BreakerState::Closed && e.to == BreakerState::Open),
        "breaker tripped during the burst: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.from == BreakerState::Open && e.to == BreakerState::HalfOpen),
        "cooldown moved the breaker to half-open: {events:?}"
    );
    assert_eq!(
        events.last().map(|e| e.to),
        Some(BreakerState::Closed),
        "clean probes reclosed the breaker: {events:?}"
    );
    assert_eq!(server.breaker_state(), Some(BreakerState::Closed));

    // Degraded-mode service: the fallback carried real traffic while the
    // primary was out, and its completed tail stayed under the deadline.
    let mut fallback_lat: Vec<u64> = out
        .iter()
        .filter(|c| {
            matches!(
                c.outcome,
                Outcome::Completed {
                    served_by: ServedBy::Fallback,
                    ..
                }
            )
        })
        .map(|c| c.latency_us())
        .collect();
    assert!(
        fallback_lat.len() >= 10,
        "fallback served the outage window, got {} completions",
        fallback_lat.len()
    );
    fallback_lat.sort_unstable();
    let p99 = sb_metrics::percentile_us(&fallback_lat, 0.99);
    assert!(
        p99 <= deadline_rel,
        "fallback p99 {p99}µs blew the {deadline_rel}µs deadline"
    );

    // After the reclose the primary serves again.
    let last_completed = out
        .iter()
        .rev()
        .find_map(|c| match c.outcome {
            Outcome::Completed { served_by, .. } => Some(served_by),
            _ => None,
        })
        .expect("tail traffic completed");
    assert_eq!(
        last_completed,
        ServedBy::Primary,
        "recovered primary carries the tail of the run"
    );
}

/// One client action at a virtual time (submit only: cancellation is
/// covered by the base serving suite; this suite randomizes failures).
#[derive(Debug, Clone)]
struct FaultWorkload {
    cfg: ServeConfig,
    service: ServiceModel,
    fallback: Option<ServiceModel>,
    breaker: Option<BreakerConfig>,
    retry: RetryPolicy,
    fault: FaultSpec,
    /// `(time_us, deadline_rel)` per submission, ascending in time.
    script: Vec<(u64, Option<u64>)>,
}

impl Shrink for FaultWorkload {}

fn gen_fault_workload(rng: &mut sb_rng::Rng) -> FaultWorkload {
    let cfg = ServeConfig {
        max_batch: 1 + rng.below(8),
        max_wait_us: rng.below(2_000) as u64,
        queue_cap: 1 + rng.below(16),
        max_inflight: 1 + rng.below(3),
    };
    let service = ServiceModel {
        base_us: rng.below(500) as u64,
        per_sample_us: rng.below(100) as u64,
    };
    let fallback = (rng.below(2) == 0).then(|| ServiceModel {
        base_us: rng.below(200) as u64,
        per_sample_us: rng.below(40) as u64,
    });
    let breaker = (rng.below(2) == 0).then(|| BreakerConfig {
        window: 4 + rng.below(12),
        min_samples: 1 + rng.below(4),
        error_threshold_per_mille: 250 + rng.below(700) as u32,
        open_us: rng.below(30_000) as u64,
        probe_batches: 1 + rng.below(3) as u32,
    });
    let retry = RetryPolicy {
        max_attempts: 1 + rng.below(3) as u32,
        backoff: BackoffPolicy {
            base_us: rng.below(500) as u64,
            multiplier: 1 + rng.below(3) as u32,
            max_delay_us: 10_000,
        },
    };
    let fault = FaultSpec {
        seed: rng.below(1_000_000) as u64,
        panic_per_mille: rng.below(300) as u32,
        transient_per_mille: rng.below(300) as u32,
        slow_per_mille: rng.below(200) as u32,
        transient_attempts: 1 + rng.below(3) as u32,
        slow_factor: 2 + rng.below(6) as u32,
        window_from: None,
        window_until: None,
    };
    let n = 1 + rng.below(60);
    let mut t = 0u64;
    let script = (0..n)
        .map(|_| {
            t += rng.below(800) as u64;
            let deadline_rel = (rng.below(3) == 0).then(|| rng.below(5_000) as u64);
            (t, deadline_rel)
        })
        .collect();
    FaultWorkload {
        cfg,
        service,
        fallback,
        breaker,
        retry,
        fault,
        script,
    }
}

/// Replays the workload on a fresh virtual-clock server with the full
/// fault stack armed. Built *inside* so the thread override is honored.
fn run_fault_scenario(w: &FaultWorkload) -> Vec<Completion> {
    let clock = Arc::new(SimClock::new());
    let mut server = Server::new(
        EchoEngine::new(1, CLASSES, w.service),
        w.cfg.clone(),
        clock.clone(),
    )
    .with_faults(FaultPlan::new(w.fault))
    .with_retry(w.retry);
    if let Some(cfg) = w.breaker {
        server = server.with_breaker(cfg);
    }
    if let Some(fb) = w.fallback {
        server = server.with_fallback(EchoEngine::new(1, CLASSES, fb));
    }
    let mut out = Vec::new();
    for (i, &(t, deadline_rel)) in w.script.iter().enumerate() {
        while let Some(ev) = server.next_event_us() {
            if ev >= t {
                break;
            }
            clock.advance_to(ev);
            server.pump();
        }
        clock.advance_to(t);
        server.submit(vec![i as f32], deadline_rel.map(|d| t + d));
        out.append(&mut server.take_completions());
    }
    drain_sim(&mut server, &clock, &mut out);
    out
}

fn fault_accountability(w: &FaultWorkload, done: &[Completion]) -> Result<(), String> {
    let submits = w.script.len();
    if done.len() != submits {
        return Err(format!("{submits} submits but {} resolutions", done.len()));
    }
    let mut seen = vec![false; submits];
    for c in done {
        let i = c.id as usize;
        if i >= seen.len() {
            return Err(format!("resolution for unknown id {i}"));
        }
        if seen[i] {
            return Err(format!("id {i} resolved twice"));
        }
        seen[i] = true;
        if c.done_us < c.submitted_us {
            return Err(format!("id {i} resolved before submission"));
        }
        match c.outcome {
            Outcome::Completed { predicted, .. } => {
                // Both routes are echo engines, so the prediction is
                // route-independent.
                if predicted != i % CLASSES {
                    return Err(format!(
                        "id {i}: predicted {predicted}, echo engine says {}",
                        i % CLASSES
                    ));
                }
            }
            Outcome::Rejected {
                reason: RejectReason::CircuitOpen,
            } => {
                if w.breaker.is_none() {
                    return Err(format!("id {i}: CircuitOpen without a breaker"));
                }
                if w.fallback.is_some() {
                    return Err(format!("id {i}: CircuitOpen despite a fallback engine"));
                }
            }
            Outcome::Rejected {
                reason: RejectReason::EngineFailure,
            } => {
                if w.fault.panic_per_mille == 0 && w.fault.transient_per_mille == 0 {
                    return Err(format!("id {i}: EngineFailure with no failure faults"));
                }
            }
            Outcome::Rejected { .. } => {}
        }
    }
    Ok(())
}

#[test]
fn faulted_serving_is_accountable_and_thread_count_invariant() {
    check(
        "fault_accountability_and_determinism",
        Config::new(0x7E45_000E).cases(40),
        gen_fault_workload,
        |w| {
            set_thread_override(Some(1));
            let at_one = run_fault_scenario(w);
            fault_accountability(w, &at_one)?;
            set_thread_override(Some(4));
            let at_four = run_fault_scenario(w);
            set_thread_override(None);
            let ser = |d: &[Completion]| sb_json::to_string(&d.to_vec()).expect("serialize");
            if ser(&at_one) != ser(&at_four) {
                return Err(
                    "fault-run completion bytes differ between 1 and 4 worker threads".to_string(),
                );
            }
            Ok(())
        },
    );
    set_thread_override(None);
}
