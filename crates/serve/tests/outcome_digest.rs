//! Pins the exact outcome bytes of a handful of fixed virtual-clock
//! serving scenarios.
//!
//! Each scenario drives a [`Server`] under a [`SimClock`] and digests,
//! with FNV-1a 64, the JSON of every completion and every breaker
//! transition it produced. The property suites compare thread counts
//! within one build and the `--smoke` runs pin only counts; these
//! constants pin the full resolution stream, so a refactor of the serving
//! core that changes any id, time, batch size, provenance or reject
//! reason fails here. The scenarios cover the batching window,
//! deadlines, cancellation, drain, injected faults with retry, and a
//! circuit breaker with and without a fallback engine. The constants
//! hold at any `SB_RUNTIME_THREADS`.

use sb_json::ToJson;
use sb_serve::{
    run_closed_loop_sim, run_open_loop_sim, ArrivalProcess, BackoffPolicy, BreakerConfig,
    Completion, EchoEngine, FaultPlan, FaultSpec, LoadSpec, RetryPolicy, ServeConfig, Server,
    ServiceModel, SimClock,
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

/// Digest of a run's completions followed by its breaker transitions.
fn run_digest(server: &mut Server<EchoEngine>, completions: &[Completion]) -> String {
    assert!(server.is_idle(), "scenario left work behind");
    let events = server.take_breaker_events();
    Digest::default().add(completions).add(&events).hex()
}

fn echo(base_us: u64, per_sample_us: u64) -> EchoEngine {
    EchoEngine::new(
        1,
        10,
        ServiceModel {
            base_us,
            per_sample_us,
        },
    )
}

fn server(cfg: ServeConfig, engine: EchoEngine) -> (Server<EchoEngine>, Arc<SimClock>) {
    let clock = Arc::new(SimClock::new());
    (Server::new(engine, cfg, clock.clone()), clock)
}

fn input(i: usize) -> Vec<f32> {
    vec![(i * 7 % 23) as f32]
}

/// Open-loop traffic ramping through the batching window: head
/// timeouts at low rate, full batches and a saturated two-batch window
/// shedding `QueueFull` at high rate, and queued deadlines expiring.
#[test]
fn batching_window_and_deadlines() {
    let cfg = ServeConfig {
        max_batch: 6,
        max_wait_us: 400,
        queue_cap: 24,
        max_inflight: 2,
    };
    let (mut s, clock) = server(cfg, echo(600, 60));
    let spec = LoadSpec {
        arrivals: ArrivalProcess::Ramp {
            start_rps: 1_500.0,
            end_rps: 16_000.0,
        },
        horizon_us: 80_000,
        seed: 11,
        deadline_us: Some(1_500),
    };
    let out = run_open_loop_sim(&mut s, &clock, &spec, input);
    assert_eq!(run_digest(&mut s, &out), "2ac7d673e021fb0e");
}

/// Bursts of five requests at a steady rate, no deadlines: coalescing
/// and the batch-size mix under bursty arrivals.
#[test]
fn bursty_batching() {
    let cfg = ServeConfig {
        max_batch: 8,
        max_wait_us: 600,
        queue_cap: 64,
        max_inflight: 2,
    };
    let (mut s, clock) = server(cfg, echo(300, 40));
    let spec = LoadSpec {
        arrivals: ArrivalProcess::Bursty {
            rate_rps: 9_000.0,
            burst: 5,
        },
        horizon_us: 60_000,
        seed: 12,
        deadline_us: None,
    };
    let out = run_open_loop_sim(&mut s, &clock, &spec, input);
    assert_eq!(run_digest(&mut s, &out), "50a69029c1a767ff");
}

/// A scripted run of cancellations, dead-on-arrival and queued
/// deadlines, a stale full queue swept at admission, and a drain that
/// flushes partial batches and refuses late work; then closed-loop
/// clients on the same server.
#[test]
fn cancellation_and_drain_script() {
    let cfg = ServeConfig {
        max_batch: 3,
        max_wait_us: 1_000,
        queue_cap: 4,
        max_inflight: 1,
    };
    let (mut s, clock) = server(cfg, echo(200, 25));
    let mut out = Vec::new();
    let mut ids = Vec::new();
    for i in 0..6 {
        ids.push(s.submit(input(i), Some(150 + 90 * i as u64)));
    }
    s.cancel(ids[4]);
    s.cancel(ids[0]);
    clock.advance_to(120);
    s.submit(input(6), Some(100));
    s.submit(input(7), None);
    clock.advance_to(400);
    s.pump();
    s.cancel(ids[5]);
    out.append(&mut s.take_completions());
    for i in 8..12 {
        s.submit(input(i), Some(900));
    }
    clock.advance_to(1_500);
    for i in 12..14 {
        s.submit(input(i), None);
    }
    while let Some(ev) = s.next_event_us() {
        if ev > 4_000 {
            break;
        }
        clock.advance_to(ev);
        s.pump();
    }
    out.append(&mut s.take_completions());
    clock.advance_to(5_000);
    out.extend(run_closed_loop_sim(
        &mut s,
        &clock,
        3,
        150,
        4,
        Some(1_200),
        input,
    ));
    s.submit(input(99), None);
    out.append(&mut s.take_completions());
    assert_eq!(run_digest(&mut s, &out), "12cb89d1d1c6c4b4");
}

/// Seeded panics, transient faults under a three-attempt retry budget
/// with backoff, and slow batches; no breaker, so every failure resolves
/// its members as `EngineFailure`.
#[test]
fn faults_with_retry() {
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait_us: 250,
        queue_cap: 32,
        max_inflight: 3,
    };
    let (s, clock) = server(cfg, echo(150, 30));
    let mut s = s
        .with_faults(FaultPlan::new(FaultSpec {
            panic_per_mille: 120,
            transient_per_mille: 250,
            slow_per_mille: 150,
            transient_attempts: 2,
            slow_factor: 3,
            ..FaultSpec::none(0xD16E)
        }))
        .with_retry(RetryPolicy {
            max_attempts: 3,
            backoff: BackoffPolicy {
                base_us: 40,
                multiplier: 3,
                max_delay_us: 500,
            },
        });
    let spec = LoadSpec {
        arrivals: ArrivalProcess::Uniform { rate_rps: 7_000.0 },
        horizon_us: 80_000,
        seed: 21,
        deadline_us: Some(6_000),
    };
    let out = run_open_loop_sim(&mut s, &clock, &spec, input);
    assert_eq!(run_digest(&mut s, &out), "a87a3d2fa16085e1");
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

/// An outage burst trips the breaker; a cheaper fallback serves while it
/// is open, half-open probes test the primary, and the breaker recloses.
#[test]
fn breaker_with_fallback() {
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait_us: 300,
        queue_cap: 48,
        max_inflight: 2,
    };
    let (s, clock) = server(cfg, echo(250, 50));
    let mut s = s
        .with_faults(FaultPlan::new(FaultSpec {
            panic_per_mille: 900,
            transient_per_mille: 100,
            transient_attempts: 1,
            window_from: Some(10),
            window_until: Some(30),
            ..FaultSpec::none(0xFA11)
        }))
        .with_retry(RetryPolicy {
            max_attempts: 2,
            backoff: BackoffPolicy {
                base_us: 30,
                multiplier: 2,
                max_delay_us: 200,
            },
        })
        .with_breaker(breaker())
        .with_fallback(echo(80, 10));
    let spec = LoadSpec {
        arrivals: ArrivalProcess::Uniform { rate_rps: 6_000.0 },
        horizon_us: 90_000,
        seed: 31,
        deadline_us: Some(8_000),
    };
    let out = run_open_loop_sim(&mut s, &clock, &spec, input);
    assert_eq!(run_digest(&mut s, &out), "a4b21fa3f382f244");
}

/// The same outage with no fallback: the open breaker sheds at admission
/// and at launch as `CircuitOpen` until probes reclose it.
#[test]
fn breaker_without_fallback() {
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait_us: 300,
        queue_cap: 48,
        max_inflight: 2,
    };
    let (s, clock) = server(cfg, echo(250, 50));
    let mut s = s
        .with_faults(FaultPlan::new(FaultSpec {
            panic_per_mille: 800,
            slow_per_mille: 150,
            slow_factor: 2,
            window_from: Some(6),
            window_until: Some(22),
            ..FaultSpec::none(0x0B57)
        }))
        .with_breaker(breaker());
    let spec = LoadSpec {
        arrivals: ArrivalProcess::Bursty {
            rate_rps: 5_000.0,
            burst: 3,
        },
        horizon_us: 90_000,
        seed: 41,
        deadline_us: Some(8_000),
    };
    let out = run_open_loop_sim(&mut s, &clock, &spec, input);
    assert_eq!(run_digest(&mut s, &out), "de499626d54aa07a");
}
