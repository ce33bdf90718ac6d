//! Multi-tenant fault-tolerance suite (seed `0x7E45_000F`): tenants are
//! independent failure domains (one tenant's engine panicking leaves its
//! neighbors' service untouched), per-tenant breakers shed or reroute
//! only their own tenant's traffic, and the full fault stack preserves
//! exactly-once accounting with byte-identical streams at 1 vs 4 worker
//! threads.
//!
//! The property half lives in one test function (not several) because it
//! flips the process-global thread override.

use sb_check::{check, Config, Shrink};
use sb_runtime::set_thread_override;
use sb_sched::{MultiServer, Priority, SchedCompletion, SchedConfig, TenantPolicy, TenantSpec};
use sb_serve::{
    BatchEngine, BreakerConfig, BreakerState, EchoEngine, FaultPlan, FaultSpec, Outcome,
    RejectReason, RetryPolicy, ServedBy, ServiceModel, SimClock,
};
use std::sync::Arc;

const SEED: u64 = 0x7E45_000F;
const CLASSES: usize = 10;

/// An engine that always panics — the sick tenant in the isolation
/// tests, with no fault-injection machinery involved.
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

const SERVICE: ServiceModel = ServiceModel {
    base_us: 100,
    per_sample_us: 10,
};

fn policy() -> TenantPolicy {
    TenantPolicy {
        max_batch: 4,
        max_wait_us: 0,
        queue_cap: 64,
        quota: None,
    }
}

fn drain(ms: &mut MultiServer, clock: &SimClock, out: &mut Vec<SchedCompletion>) {
    ms.begin_drain();
    out.append(&mut ms.take_completions());
    while !ms.is_idle() {
        let ev = ms.next_event_us().expect("non-idle has an event");
        clock.advance_to(ev);
        ms.pump();
        out.append(&mut ms.take_completions());
    }
}

/// One tenant's engine panicking on every batch must not disturb its
/// neighbor: the sick tenant's requests resolve as `EngineFailure`
/// (exactly once each), the healthy tenant completes everything, and
/// the driver thread survives.
#[test]
fn a_panicking_tenant_is_isolated_from_its_neighbors() {
    let clock = Arc::new(SimClock::new());
    let tenants = vec![
        TenantSpec::new(
            "sick",
            1,
            Priority::Interactive,
            policy(),
            Arc::new(PanicEngine { service: SERVICE }),
        ),
        TenantSpec::new(
            "healthy",
            1,
            Priority::Interactive,
            policy(),
            Arc::new(EchoEngine::new(1, CLASSES, SERVICE)),
        ),
    ];
    let mut ms = MultiServer::new(tenants, SchedConfig { max_inflight: 2 }, clock.clone());
    for i in 0..20 {
        ms.submit(i % 2, vec![i as f32], None);
    }
    let mut out = Vec::new();
    drain(&mut ms, &clock, &mut out);
    assert_eq!(out.len(), 20, "every request resolves exactly once");
    for c in &out {
        match c.tenant {
            0 => assert_eq!(
                c.completion.outcome,
                Outcome::Rejected {
                    reason: RejectReason::EngineFailure
                },
                "sick tenant's members resolve as EngineFailure"
            ),
            _ => assert!(
                c.completion.is_completed(),
                "healthy tenant unaffected by its neighbor's panics: {:?}",
                c.completion.outcome
            ),
        }
    }
    assert!(ms.is_idle(), "the driver survives the panics");
}

/// A breaker on the sick tenant stops feeding it batches: after the trip
/// its queued and newly submitted work is shed with `CircuitOpen` (no
/// fallback configured), while the healthy tenant's breaker stays
/// closed and its traffic completes.
#[test]
fn per_tenant_breaker_sheds_only_the_sick_tenant() {
    let clock = Arc::new(SimClock::new());
    let breaker = BreakerConfig {
        window: 4,
        min_samples: 2,
        error_threshold_per_mille: 500,
        open_us: 1_000_000,
        probe_batches: 1,
    };
    let tenants = vec![
        TenantSpec::new(
            "sick",
            1,
            Priority::Interactive,
            policy(),
            Arc::new(PanicEngine { service: SERVICE }),
        )
        .with_breaker(breaker),
        TenantSpec::new(
            "healthy",
            1,
            Priority::Interactive,
            policy(),
            Arc::new(EchoEngine::new(1, CLASSES, SERVICE)),
        )
        .with_breaker(breaker),
    ];
    let mut ms = MultiServer::new(tenants, SchedConfig { max_inflight: 2 }, clock.clone());
    let mut out = Vec::new();
    for i in 0..30u64 {
        clock.advance_to(i * 200);
        ms.pump();
        ms.submit((i % 2) as usize, vec![i as f32], None);
        out.append(&mut ms.take_completions());
    }
    drain(&mut ms, &clock, &mut out);
    assert_eq!(out.len(), 30, "every request resolves exactly once");
    assert_eq!(ms.breaker_state(0), Some(BreakerState::Open));
    assert_eq!(ms.breaker_state(1), Some(BreakerState::Closed));
    let shed = out
        .iter()
        .filter(|c| {
            c.completion.outcome
                == Outcome::Rejected {
                    reason: RejectReason::CircuitOpen,
                }
        })
        .count();
    assert!(shed > 0, "tripped tenant sheds with CircuitOpen");
    assert!(
        out.iter()
            .filter(|c| c.tenant == 1)
            .all(|c| c.completion.is_completed()),
        "healthy tenant's traffic all completed"
    );
    let events = ms.take_breaker_events();
    assert!(
        events
            .iter()
            .all(|e| e.tenant == 0),
        "only the sick tenant's breaker transitioned: {events:?}"
    );
}

/// With a fallback configured, a tripped tenant degrades instead of
/// shedding: its traffic completes on the fallback engine with
/// `served_by: Fallback` provenance in both the ledger and pick log.
#[test]
fn tripped_tenant_with_fallback_degrades_instead_of_shedding() {
    let clock = Arc::new(SimClock::new());
    let cheap = ServiceModel {
        base_us: 30,
        per_sample_us: 4,
    };
    let tenants = vec![TenantSpec::new(
        "flaky",
        1,
        Priority::Interactive,
        policy(),
        Arc::new(PanicEngine { service: SERVICE }),
    )
    .with_breaker(BreakerConfig {
        window: 4,
        min_samples: 2,
        error_threshold_per_mille: 500,
        open_us: 1_000_000,
        probe_batches: 1,
    })
    .with_fallback(Arc::new(EchoEngine::new(1, CLASSES, cheap)))];
    let mut ms = MultiServer::new(tenants, SchedConfig { max_inflight: 1 }, clock.clone());
    let mut out = Vec::new();
    for i in 0..20u64 {
        clock.advance_to(i * 200);
        ms.pump();
        ms.submit(0, vec![i as f32], None);
        out.append(&mut ms.take_completions());
    }
    drain(&mut ms, &clock, &mut out);
    assert_eq!(out.len(), 20, "every request resolves exactly once");
    let fallback_served = out
        .iter()
        .filter(|c| {
            matches!(
                c.completion.outcome,
                Outcome::Completed {
                    served_by: ServedBy::Fallback,
                    ..
                }
            )
        })
        .count();
    assert!(fallback_served > 0, "degraded traffic rode the fallback");
    assert!(
        !out.iter().any(|c| c.completion.outcome
            == Outcome::Rejected {
                reason: RejectReason::CircuitOpen,
            }),
        "nothing shed: the fallback absorbs the outage"
    );
    let picks = ms.take_picks();
    assert!(
        picks.iter().any(|p| p.served_by == ServedBy::Fallback),
        "pick log records fallback routing"
    );
    // The fallback's cheaper price is what WFQ charged.
    assert!(
        picks
            .iter()
            .filter(|p| p.served_by == ServedBy::Fallback)
            .all(|p| p.cost_us == cheap.batch_us(p.batch_size)),
        "fallback batches charged at the fallback engine's price"
    );
}

// ---------------------------------------------------------------------
// Randomized fault stacks: accounting and determinism
// ---------------------------------------------------------------------

/// `(weight, priority, policy, service, fallback, breaker)` of one
/// tenant.
type FaultTenant = (
    u64,
    Priority,
    TenantPolicy,
    ServiceModel,
    Option<ServiceModel>,
    Option<BreakerConfig>,
);

#[derive(Debug, Clone)]
struct FaultMultiWorkload {
    tenants: Vec<FaultTenant>,
    max_inflight: usize,
    retry: RetryPolicy,
    fault: FaultSpec,
    /// `(time_us, tenant, deadline_rel)` per submission, ascending.
    script: Vec<(u64, usize, Option<u64>)>,
}

impl Shrink for FaultMultiWorkload {}

fn gen_fault_multi(rng: &mut sb_rng::Rng) -> FaultMultiWorkload {
    let n = 2 + rng.below(2);
    let tenants = (0..n)
        .map(|_| {
            let weight = 1 + rng.below(4) as u64;
            let priority = if rng.below(2) == 0 {
                Priority::Interactive
            } else {
                Priority::Batch
            };
            let policy = TenantPolicy {
                max_batch: 1 + rng.below(8),
                max_wait_us: rng.below(2_000) as u64,
                queue_cap: 1 + rng.below(16),
                quota: None,
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
            (weight, priority, policy, service, fallback, breaker)
        })
        .collect();
    let retry = RetryPolicy {
        max_attempts: 1 + rng.below(3) as u32,
        backoff: sb_serve::BackoffPolicy {
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
    let ops = 1 + rng.below(80);
    let mut t = 0u64;
    let script = (0..ops)
        .map(|_| {
            t += rng.below(600) as u64;
            let tenant = rng.below(n);
            let deadline_rel = (rng.below(3) == 0).then(|| rng.below(3_000) as u64);
            (t, tenant, deadline_rel)
        })
        .collect();
    FaultMultiWorkload {
        tenants,
        max_inflight: 1 + rng.below(3),
        retry,
        fault,
        script,
    }
}

/// Replays the workload on a fresh virtual-clock scheduler with the
/// full fault stack armed. Built inside so the thread override is
/// honored. Returns everything byte-comparable: completions, picks,
/// and breaker events.
fn run_fault_multi(w: &FaultMultiWorkload) -> String {
    let clock = Arc::new(SimClock::new());
    let specs: Vec<TenantSpec> = w
        .tenants
        .iter()
        .enumerate()
        .map(|(i, &(weight, priority, policy, service, fallback, breaker))| {
            let mut spec = TenantSpec::new(
                format!("t{i}"),
                weight,
                priority,
                policy,
                Arc::new(EchoEngine::new(1, CLASSES, service)),
            );
            if let Some(fb) = fallback {
                spec = spec.with_fallback(Arc::new(EchoEngine::new(1, CLASSES, fb)));
            }
            if let Some(b) = breaker {
                spec = spec.with_breaker(b);
            }
            spec
        })
        .collect();
    let mut ms = MultiServer::new(
        specs,
        SchedConfig {
            max_inflight: w.max_inflight,
        },
        clock.clone(),
    )
    .with_faults(FaultPlan::new(w.fault))
    .with_retry(w.retry);
    let mut out = Vec::new();
    for &(t, tenant, deadline_rel) in &w.script {
        while let Some(ev) = ms.next_event_us() {
            if ev >= t {
                break;
            }
            clock.advance_to(ev);
            ms.pump();
        }
        clock.advance_to(t);
        ms.submit(tenant, vec![tenant as f32], deadline_rel.map(|d| t + d));
        out.append(&mut ms.take_completions());
    }
    drain(&mut ms, &clock, &mut out);
    let picks = ms.take_picks();
    let events = ms.take_breaker_events();
    format!(
        "{}\n{}\n{}",
        sb_json::to_string(&out).expect("completions serialize"),
        sb_json::to_string(&picks).expect("picks serialize"),
        sb_json::to_string(&events).expect("events serialize"),
    )
}

fn fault_multi_accountability(w: &FaultMultiWorkload, stream: &str) -> Result<(), String> {
    // Cheap structural checks over the serialized stream: every submit
    // resolves exactly once (ids are sequential), and CircuitOpen only
    // appears for breaker-armed tenants without fallbacks.
    let submits = w.script.len();
    for id in 0..submits {
        let needle = format!("\"id\":{id},");
        if stream.matches(&needle).count() != 1 {
            return Err(format!(
                "id {id} resolved {} times",
                stream.matches(&needle).count()
            ));
        }
    }
    let sheddable = w
        .tenants
        .iter()
        .any(|&(_, _, _, _, fallback, breaker)| breaker.is_some() && fallback.is_none());
    if !sheddable && stream.contains("CircuitOpen") {
        return Err("CircuitOpen shed without a fallback-less breaker tenant".to_string());
    }
    Ok(())
}

#[test]
fn faulted_scheduling_is_accountable_and_thread_count_invariant() {
    check(
        "sched_fault_accountability_and_determinism",
        Config::new(SEED).cases(30),
        gen_fault_multi,
        |w| {
            set_thread_override(Some(1));
            let at_one = run_fault_multi(w);
            fault_multi_accountability(w, &at_one)?;
            set_thread_override(Some(4));
            let at_four = run_fault_multi(w);
            set_thread_override(None);
            if at_one != at_four {
                return Err(
                    "fault-run streams (completions/picks/breaker events) differ between \
                     1 and 4 worker threads"
                        .to_string(),
                );
            }
            Ok(())
        },
    );
    set_thread_override(None);
}
