//! Pins the exact outcome bytes of a handful of fixed virtual-clock
//! multi-tenant scenarios.
//!
//! Each scenario drives a [`MultiServer`] under a [`SimClock`] and
//! digests, with FNV-1a 64, the JSON of every tagged completion, every
//! pick record and every tenant breaker transition it produced. The
//! property suites compare thread counts within one build and the
//! `--smoke` runs pin only counts; these constants pin the full streams,
//! so a refactor of the scheduling core that changes any id, time, batch,
//! pick, provenance or reject reason fails here. The scenarios cover
//! both priority classes, WFQ weights, per-tenant batching windows,
//! deadlines, quotas, cancellation, drain, injected faults with retry,
//! and breakers with and without a fallback engine. The constants hold
//! at any `SB_RUNTIME_THREADS`.

use sb_json::ToJson;
use sb_sched::{
    run_multi_open_loop_sim, MultiServer, Priority, SchedCompletion, SchedConfig, TenantLoad,
    TenantPolicy, TenantQuota, TenantSpec,
};
use sb_serve::{
    ArrivalProcess, BackoffPolicy, BatchEngine, BreakerConfig, EchoEngine, FaultPlan, FaultSpec,
    RetryPolicy, ServiceModel, SimClock,
};
use std::sync::Arc;

/// FNV-1a 64 over the JSON of each item, one item per line.
#[derive(Default)]
struct Digest(Option<u64>);

impl Digest {
    fn add<T: ToJson>(&mut self, items: &[T]) -> &mut Self {
        let hash = self.0.get_or_insert(0xcbf2_9ce4_8422_2325);
        for item in items {
            let line = sb_json::to_string(item).expect("serialize");
            for byte in line.bytes().chain(std::iter::once(b'\n')) {
                *hash ^= byte as u64;
                *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0.expect("digested something"))
    }
}

/// Digest of a run's completions, then its pick log, then its breaker
/// transitions.
fn run_digest(ms: &mut MultiServer, completions: &[SchedCompletion]) -> String {
    assert!(ms.is_idle(), "scenario left work behind");
    let picks = ms.take_picks();
    let events = ms.take_breaker_events();
    Digest::default()
        .add(completions)
        .add(&picks)
        .add(&events)
        .hex()
}

fn echo(base_us: u64, per_sample_us: u64) -> Arc<dyn BatchEngine> {
    Arc::new(EchoEngine::new(
        1,
        10,
        ServiceModel {
            base_us,
            per_sample_us,
        },
    ))
}

fn policy(max_batch: usize, max_wait_us: u64, queue_cap: usize) -> TenantPolicy {
    TenantPolicy {
        max_batch,
        max_wait_us,
        queue_cap,
        quota: None,
    }
}

fn input(tenant: usize, i: usize) -> Vec<f32> {
    vec![((tenant * 31 + i * 7) % 23) as f32]
}

fn uniform(rate_rps: f64, seed: u64, deadline_us: Option<u64>) -> TenantLoad {
    TenantLoad {
        arrivals: ArrivalProcess::Uniform { rate_rps },
        seed,
        deadline_us,
    }
}

/// Three tenants over one two-batch window: a cheap interactive tenant
/// with deadlines, a dense batch-class tenant that saturates, and a
/// bursty interactive canary held to a token-bucket quota.
#[test]
fn priorities_wfq_deadlines_and_quota() {
    let clock = Arc::new(SimClock::new());
    let canary = TenantPolicy {
        quota: Some(TenantQuota {
            rate_per_s: 1_500,
            burst: 6,
        }),
        ..policy(4, 300, 16)
    };
    let tenants = vec![
        TenantSpec::new(
            "pruned",
            2,
            Priority::Interactive,
            policy(8, 400, 32),
            echo(60, 8),
        ),
        TenantSpec::new(
            "dense",
            1,
            Priority::Batch,
            policy(8, 800, 24),
            echo(500, 120),
        ),
        TenantSpec::new("canary", 1, Priority::Interactive, canary, echo(150, 20)),
    ];
    let mut ms = MultiServer::new(tenants, SchedConfig { max_inflight: 2 }, clock.clone());
    let loads = [
        uniform(5_000.0, 1, Some(3_000)),
        uniform(12_000.0, 2, Some(20_000)),
        TenantLoad {
            arrivals: ArrivalProcess::Bursty {
                rate_rps: 3_000.0,
                burst: 4,
            },
            seed: 3,
            deadline_us: Some(4_000),
        },
    ];
    let out = run_multi_open_loop_sim(&mut ms, &clock, &loads, 60_000, input);
    assert_eq!(run_digest(&mut ms, &out), "63e0aa1b3079c592");
}

/// A scripted run across two tenants: cancellations in either queue,
/// dead-on-arrival and queued deadlines, quota sheds and refills, and a
/// drain that flushes both queues and refuses late work.
#[test]
fn cancellation_quota_and_drain_script() {
    let clock = Arc::new(SimClock::new());
    let limited = TenantPolicy {
        quota: Some(TenantQuota {
            rate_per_s: 2_000,
            burst: 3,
        }),
        ..policy(3, 500, 6)
    };
    let tenants = vec![
        TenantSpec::new(
            "a",
            1,
            Priority::Interactive,
            policy(3, 700, 4),
            echo(200, 25),
        ),
        TenantSpec::new("b", 3, Priority::Interactive, limited, echo(120, 15)),
    ];
    let mut ms = MultiServer::new(tenants, SchedConfig { max_inflight: 1 }, clock.clone());
    let mut out = Vec::new();
    let mut ids = Vec::new();
    for i in 0..10 {
        let deadline = (i % 3 != 0).then_some(200 + 70 * i as u64);
        ids.push(ms.submit(i % 2, input(i % 2, i), deadline));
    }
    ms.cancel(ids[6]);
    ms.cancel(ids[3]);
    ms.cancel(ids[0]);
    clock.advance_to(150);
    ms.submit(0, input(0, 10), Some(140));
    ms.submit(1, input(1, 11), Some(2_000));
    clock.advance_to(450);
    ms.pump();
    ms.cancel(ids[8]);
    out.append(&mut ms.take_completions());
    clock.advance_to(1_700);
    for i in 12..18 {
        ms.submit(i % 2, input(i % 2, i), Some(2_600));
    }
    while let Some(ev) = ms.next_event_us() {
        if ev > 2_400 {
            break;
        }
        clock.advance_to(ev);
        ms.pump();
    }
    ms.begin_drain();
    ms.submit(1, input(1, 99), None);
    while let Some(ev) = ms.next_event_us() {
        clock.advance_to(ev);
        ms.pump();
    }
    out.append(&mut ms.take_completions());
    assert_eq!(run_digest(&mut ms, &out), "5af999cee6c01b4a");
}

fn breaker() -> BreakerConfig {
    BreakerConfig {
        window: 6,
        min_samples: 3,
        error_threshold_per_mille: 500,
        open_us: 2_500,
        probe_batches: 2,
    }
}

/// Seeded panics, transient faults under retry with backoff, and slow
/// batches over three failure domains: a tenant whose breaker degrades
/// it onto a cheap fallback, a quota'd tenant whose breaker has no
/// fallback and sheds `CircuitOpen`, and a bare batch-class tenant.
#[test]
fn faults_retry_and_breakers() {
    let clock = Arc::new(SimClock::new());
    let quota = TenantPolicy {
        quota: Some(TenantQuota {
            rate_per_s: 2_500,
            burst: 8,
        }),
        ..policy(4, 300, 32)
    };
    let tenants = vec![
        TenantSpec::new(
            "dense",
            2,
            Priority::Interactive,
            policy(4, 300, 32),
            echo(300, 60),
        )
        .with_breaker(breaker())
        .with_fallback(echo(80, 10)),
        TenantSpec::new("pruned", 1, Priority::Interactive, quota, echo(120, 20))
            .with_breaker(breaker()),
        TenantSpec::new(
            "bare",
            1,
            Priority::Batch,
            policy(6, 600, 32),
            echo(200, 30),
        ),
    ];
    let mut ms = MultiServer::new(tenants, SchedConfig { max_inflight: 3 }, clock.clone())
        .with_faults(FaultPlan::new(FaultSpec {
            panic_per_mille: 450,
            transient_per_mille: 200,
            slow_per_mille: 100,
            transient_attempts: 2,
            slow_factor: 3,
            window_from: Some(5),
            window_until: Some(25),
            ..FaultSpec::none(0x5C4E)
        }))
        .with_retry(RetryPolicy {
            max_attempts: 3,
            backoff: BackoffPolicy {
                base_us: 40,
                multiplier: 2,
                max_delay_us: 300,
            },
        });
    let loads = [
        uniform(3_500.0, 11, Some(8_000)),
        uniform(3_500.0, 12, Some(8_000)),
        uniform(2_000.0, 13, None),
    ];
    let out = run_multi_open_loop_sim(&mut ms, &clock, &loads, 90_000, input);
    assert_eq!(run_digest(&mut ms, &out), "8e610e63e96e339d");
}
