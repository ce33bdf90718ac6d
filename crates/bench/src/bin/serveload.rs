//! `serveload` — drive the `sb-serve` micro-batcher with a synthetic
//! load and print the resulting `ServeProfile`.
//!
//! ```text
//! serveload                         # virtual clock, echo engine, 2k rps
//! serveload --engine lenet --rps 8000 --horizon-ms 250
//! serveload --burst 8               # bursty arrivals
//! serveload --ramp 20000            # ramp from --rps up to 20k rps
//! serveload --closed 4 --think-us 500 --requests 64
//! serveload --wall                  # measure the real machine instead
//! serveload --faults 64023          # seeded faults + retry/breaker/fallback
//! serveload --smoke                 # deterministic CI smoke (asserts)
//! ```
//!
//! Default mode is the virtual clock: outcomes are a pure function of
//! the flags and `--seed`, bit-identical at any `SB_RUNTIME_THREADS`.
//! `--smoke` runs a pinned workload and asserts its exact outcome
//! counts, which is what `scripts/ci.sh` calls.
//!
//! `--faults SEED` arms the canonical fault stack: a seeded outage
//! burst (panics, transient flakes, and slowdowns over a window of
//! primary batch indices), bounded retry with exponential backoff, a
//! circuit breaker, and a cheaper fallback engine (a 64x-pruned LeNet
//! under `--engine lenet`). The fault schedule is a pure function of
//! the seed, so `--smoke --faults SEED` pins the whole degraded-mode
//! arc — breaker opens, fallback holds, probes re-close — as exact
//! counts.

use sb_serve::{
    drain_sim, profile, run_closed_loop_sim, run_open_loop_sim, run_open_loop_wall,
    ArrivalProcess, BackoffPolicy, BatchEngine, BreakerConfig, BreakerState, Completion,
    EchoEngine, FaultPlan, FaultSpec, InferEngine, LoadSpec, Outcome, RejectReason, RetryPolicy,
    ServeConfig, Server, ServiceModel, SimClock, WallClock,
};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: serveload [--smoke] [--engine echo|lenet] [--rps R] [--burst N] [--ramp END_RPS]\n\
         \x20                [--horizon-ms M] [--deadline-us D] [--seed S] [--wall] [--faults SEED]\n\
         \x20                [--max-batch N] [--max-wait-us U] [--queue-cap N] [--inflight N]\n\
         \x20                [--closed CLIENTS] [--think-us U] [--requests N]"
    );
    std::process::exit(2);
}

struct Opts {
    smoke: bool,
    engine: String,
    rps: f64,
    burst: Option<usize>,
    ramp: Option<f64>,
    horizon_ms: u64,
    deadline_us: Option<u64>,
    seed: u64,
    wall: bool,
    faults: Option<u64>,
    cfg: ServeConfig,
    closed: Option<usize>,
    think_us: u64,
    requests: usize,
}

fn parse() -> Opts {
    let mut o = Opts {
        smoke: false,
        engine: "echo".to_string(),
        rps: 2_000.0,
        burst: None,
        ramp: None,
        horizon_ms: 500,
        deadline_us: Some(10_000),
        seed: 0x5E4E,
        wall: false,
        faults: None,
        cfg: ServeConfig {
            max_batch: 8,
            max_wait_us: 1_000,
            queue_cap: 64,
            max_inflight: 2,
        },
        closed: None,
        think_us: 500,
        requests: 32,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let next = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => o.smoke = true,
            "--engine" => o.engine = next(&args, &mut i),
            "--rps" => o.rps = next(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--burst" => o.burst = Some(next(&args, &mut i).parse().unwrap_or_else(|_| usage())),
            "--ramp" => o.ramp = Some(next(&args, &mut i).parse().unwrap_or_else(|_| usage())),
            "--horizon-ms" => {
                o.horizon_ms = next(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--deadline-us" => {
                let d: u64 = next(&args, &mut i).parse().unwrap_or_else(|_| usage());
                o.deadline_us = (d > 0).then_some(d);
            }
            "--seed" => o.seed = next(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--wall" => o.wall = true,
            "--faults" => {
                o.faults = Some(next(&args, &mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--max-batch" => {
                o.cfg.max_batch = next(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--max-wait-us" => {
                o.cfg.max_wait_us = next(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--queue-cap" => {
                o.cfg.queue_cap = next(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--inflight" => {
                o.cfg.max_inflight = next(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--closed" => o.closed = Some(next(&args, &mut i).parse().unwrap_or_else(|_| usage())),
            "--think-us" => o.think_us = next(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--requests" => o.requests = next(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
        i += 1;
    }
    // Out-of-range values exit here with the usage line, not on one of
    // the library's asserts (or, for `--rps inf`, never).
    let rate = |r: f64| r.is_finite() && r > 0.0;
    let in_range = rate(o.rps)
        && o.burst.is_none_or(|b| b > 0)
        && o.ramp.is_none_or(rate)
        && (1..=u64::MAX / 1_000).contains(&o.horizon_ms)
        && o.cfg.max_batch > 0
        && o.cfg.queue_cap > 0
        && o.cfg.max_inflight > 0
        && o.closed.is_none_or(|c| c > 0)
        && o.requests > 0;
    if !in_range {
        usage();
    }
    o
}

const ECHO_FEATURES: usize = 4;

/// The lenet engine at a given compression: global-magnitude
/// LeNet-300-100, auto-compiled, priced by [`sb_bench::mac_price`].
fn lenet_engine(ratio: f64) -> (InferEngine, usize) {
    use shrinkbench::{GlobalMagnitude, Pruner};
    let mut rng = sb_tensor::Rng::seed_from(0xBE7C);
    let mut net = sb_nn::models::lenet_300_100(256, 10, &mut rng);
    Pruner::default()
        .prune(&mut net, &GlobalMagnitude, ratio, &mut rng)
        .expect("pruning a fresh network succeeds");
    let compiled = sb_infer::CompiledModel::compile(&net, &sb_infer::CompileOptions::default());
    let service = sb_bench::mac_price(&compiled);
    (InferEngine::new(compiled, service), 256)
}

/// The cheap echo used as the degraded-mode stand-in for the echo
/// primary under `--faults`: same shape, a fraction of the service cost.
fn echo_fallback() -> EchoEngine {
    EchoEngine::new(
        ECHO_FEATURES,
        10,
        ServiceModel {
            base_us: 150,
            per_sample_us: 30,
        },
    )
}

/// The canonical `--faults` schedule: an outage burst over primary batch
/// indices 40..60 mixing hard panics, transient flakes (outlasted by the
/// retry budget), and slowdowns. A pure function of the seed.
fn fault_spec(seed: u64) -> FaultSpec {
    FaultSpec {
        panic_per_mille: 600,
        transient_per_mille: 250,
        slow_per_mille: 150,
        window_from: Some(40),
        window_until: Some(60),
        ..FaultSpec::none(seed)
    }
}

/// Arm a server with the canonical fault stack: the seeded fault plan,
/// bounded retry with exponential backoff, a circuit breaker, and the
/// given cheaper fallback engine.
fn fault_stack<E: BatchEngine + 'static>(
    server: Server<E>,
    seed: u64,
    fallback: impl BatchEngine + 'static,
) -> Server<E> {
    server
        .with_faults(FaultPlan::new(fault_spec(seed)))
        .with_retry(RetryPolicy {
            max_attempts: 3,
            backoff: BackoffPolicy {
                base_us: 100,
                multiplier: 2,
                max_delay_us: 2_000,
            },
        })
        .with_breaker(BreakerConfig {
            window: 8,
            min_samples: 4,
            error_threshold_per_mille: 500,
            open_us: 2_000,
            probe_batches: 2,
        })
        .with_fallback(fallback)
}

fn run<E: BatchEngine + 'static, F: BatchEngine + 'static>(
    o: &Opts,
    engine: E,
    sample_len: usize,
    make_fallback: impl Fn() -> F,
) -> Vec<Completion> {
    let horizon_us = o.horizon_ms * 1_000;
    let arrivals = match (o.burst, o.ramp) {
        (Some(burst), _) => ArrivalProcess::Bursty {
            rate_rps: o.rps,
            burst,
        },
        (None, Some(end)) => ArrivalProcess::Ramp {
            start_rps: o.rps,
            end_rps: end,
        },
        (None, None) => ArrivalProcess::Uniform { rate_rps: o.rps },
    };
    let spec = LoadSpec {
        arrivals,
        horizon_us,
        seed: o.seed,
        deadline_us: o.deadline_us,
    };
    let mut input_rng = sb_rng::Rng::seed_from(o.seed ^ 0xA11CE);
    let make_input = move |_i: usize| -> Vec<f32> {
        (0..sample_len)
            .map(|_| input_rng.uniform(-1.0, 1.0))
            .collect()
    };
    let arm = |server: Server<E>| match o.faults {
        Some(seed) => fault_stack(server, seed, make_fallback()),
        None => server,
    };
    if o.wall {
        let clock = Arc::new(WallClock::new());
        let mut server = arm(Server::new(engine, o.cfg.clone(), clock.clone()));
        run_open_loop_wall(&mut server, clock.as_ref(), &spec, make_input)
    } else {
        let clock = Arc::new(SimClock::new());
        let mut server = arm(Server::new(engine, o.cfg.clone(), clock.clone()));
        match o.closed {
            Some(clients) => run_closed_loop_sim(
                &mut server,
                &clock,
                clients,
                o.think_us,
                o.requests,
                o.deadline_us,
                make_input,
            ),
            None => run_open_loop_sim(&mut server, &clock, &spec, make_input),
        }
    }
}

fn report(done: &[Completion], horizon_us: u64) {
    let p = profile(done, horizon_us);
    println!("{}", sb_json::to_string_pretty(&p).expect("serialize"));
}

/// Pinned deterministic workload: echo engine, open-loop jittered
/// uniform 8000 rps for 200 virtual ms, batch<=8/500µs window/queue
/// 16/1 in flight, 2ms deadlines, seed 0x5E4E. The counts below are the
/// exact outcome of that pure function; any drift in the batcher,
/// queue, deadline checks, or rng stream changes them.
fn smoke() {
    let cfg = ServeConfig {
        max_batch: 8,
        max_wait_us: 500,
        queue_cap: 16,
        max_inflight: 1,
    };
    let clock = Arc::new(SimClock::new());
    let engine = EchoEngine::new(
        ECHO_FEATURES,
        10,
        ServiceModel {
            base_us: 400,
            per_sample_us: 120,
        },
    );
    let mut server = Server::new(engine, cfg, clock.clone());
    let spec = LoadSpec {
        arrivals: ArrivalProcess::Uniform { rate_rps: 8_000.0 },
        horizon_us: 200_000,
        seed: 0x5E4E,
        deadline_us: Some(2_000),
    };
    let done = run_open_loop_sim(&mut server, &clock, &spec, |i| {
        vec![i as f32; ECHO_FEATURES]
    });
    let mut cancelled_probe = Server::new(
        EchoEngine::new(
            ECHO_FEATURES,
            10,
            ServiceModel {
                base_us: 400,
                per_sample_us: 120,
            },
        ),
        ServeConfig {
            max_batch: 8,
            max_wait_us: 500,
            queue_cap: 16,
            max_inflight: 1,
        },
        clock.clone(),
    );
    // Exercise the cancellation path deterministically too.
    let a = cancelled_probe.submit(vec![0.0; ECHO_FEATURES], None);
    assert!(cancelled_probe.cancel(a), "queued request cancels");
    let mut probe_out = Vec::new();
    drain_sim(&mut cancelled_probe, &clock, &mut probe_out);
    assert_eq!(probe_out.len(), 1);
    assert!(matches!(
        probe_out[0].outcome,
        Outcome::Rejected {
            reason: RejectReason::Cancelled
        }
    ));

    let p = profile(&done, spec.horizon_us);
    let count = |r: RejectReason| {
        done.iter()
            .filter(|c| c.outcome == Outcome::Rejected { reason: r })
            .count()
    };
    println!(
        "smoke: {} offered = {} completed + {} queue_full + {} deadline_expired; \
         {} batches, p99 {}us",
        p.requests,
        p.completed,
        count(RejectReason::QueueFull),
        count(RejectReason::DeadlineExpired),
        p.batches,
        p.p99_us
    );
    // Pinned exact counts (see doc comment): the 1-deep pipeline tops
    // out near 5.9k rps (1360us per 8-batch), so an 8k rps offered load
    // forces both admission control and the deadline check to shed.
    let expect = (
        p.requests,
        p.completed,
        count(RejectReason::QueueFull),
        count(RejectReason::DeadlineExpired),
        p.batches,
        p.p50_us,
        p.p99_us,
    );
    println!("smoke signature: {expect:?}");
    assert_eq!(done.len(), p.requests, "every request resolves once");
    let ids: std::collections::BTreeSet<u64> = done.iter().map(|c| c.id).collect();
    assert_eq!(ids.len(), done.len(), "no duplicate resolutions");
    assert_eq!(
        expect, SMOKE_SIGNATURE,
        "deterministic serve smoke drifted — if the batching policy or \
         rng stream changed intentionally, re-pin SMOKE_SIGNATURE"
    );
    println!("serve smoke OK");
}

/// The exact outcome of the pinned [`smoke`] workload.
const SMOKE_SIGNATURE: (usize, usize, usize, usize, usize, u64, u64) =
    (1593, 1185, 81, 327, 149, 2770, 3349);

/// Pinned deterministic faulted workload: the [`smoke`] scenario armed
/// with the canonical fault stack. During the batch 40..60 outage
/// window the primary panics and flakes, the breaker opens, and the
/// cheaper fallback echo keeps serving; once probes find the primary
/// healthy again the breaker re-closes. A second no-fallback probe
/// server pins the `CircuitOpen` shed path. The counts are the exact
/// outcome for the canonical CI seed; other seeds still run the full
/// accountability checks.
fn fault_smoke(seed: u64) {
    let cfg = ServeConfig {
        max_batch: 8,
        max_wait_us: 500,
        queue_cap: 16,
        max_inflight: 1,
    };
    let clock = Arc::new(SimClock::new());
    let engine = EchoEngine::new(
        ECHO_FEATURES,
        10,
        ServiceModel {
            base_us: 400,
            per_sample_us: 120,
        },
    );
    let mut server = fault_stack(
        Server::new(engine, cfg, clock.clone()),
        seed,
        echo_fallback(),
    );
    let spec = LoadSpec {
        arrivals: ArrivalProcess::Uniform { rate_rps: 8_000.0 },
        horizon_us: 200_000,
        seed: 0x5E4E,
        deadline_us: Some(2_000),
    };
    let done = run_open_loop_sim(&mut server, &clock, &spec, |i| {
        vec![i as f32; ECHO_FEATURES]
    });
    let events = server.take_breaker_events();

    let p = profile(&done, spec.horizon_us);
    let count = |r: RejectReason| {
        done.iter()
            .filter(|c| c.outcome == Outcome::Rejected { reason: r })
            .count()
    };
    assert_eq!(done.len(), p.requests, "every request resolves once");
    let ids: std::collections::BTreeSet<u64> = done.iter().map(|c| c.id).collect();
    assert_eq!(ids.len(), done.len(), "no duplicate resolutions");
    // The degraded-mode arc: the burst must actually surface failures,
    // the breaker must trip on them, the fallback must absorb the open
    // window (so nothing sheds with CircuitOpen), and the probes must
    // re-close the breaker before the horizon ends.
    assert!(count(RejectReason::EngineFailure) > 0, "burst surfaced failures");
    assert!(p.completed_fallback > 0, "fallback served while open");
    assert_eq!(count(RejectReason::CircuitOpen), 0, "fallback absorbs the open breaker");
    assert_eq!(
        events.first().map(|e| (e.from, e.to)),
        Some((BreakerState::Closed, BreakerState::Open)),
        "breaker trips on the burst"
    );
    assert_eq!(
        events.last().map(|e| e.to),
        Some(BreakerState::Closed),
        "probes re-close the breaker after the burst"
    );
    assert_eq!(server.breaker_state(), Some(BreakerState::Closed));
    println!(
        "fault smoke: {} offered = {} completed ({} via fallback) + {} engine_failure \
         + {} queue_full + {} deadline_expired; {} batches, p99 {}us, {} breaker transitions",
        p.requests,
        p.completed,
        p.completed_fallback,
        count(RejectReason::EngineFailure),
        count(RejectReason::QueueFull),
        count(RejectReason::DeadlineExpired),
        p.batches,
        p.p99_us,
        events.len(),
    );
    let expect = (
        p.requests,
        p.completed,
        p.completed_fallback,
        count(RejectReason::EngineFailure),
        count(RejectReason::QueueFull),
        count(RejectReason::DeadlineExpired),
        p.batches,
        p.p99_us,
        events.len(),
    );
    println!("fault smoke signature: {expect:?}");
    if seed == FAULT_SMOKE_SEED {
        assert_eq!(
            expect, FAULT_SMOKE_SIGNATURE,
            "deterministic fault smoke drifted — if the fault schedule, retry \
             pricing, or breaker policy changed intentionally, re-pin \
             FAULT_SMOKE_SIGNATURE"
        );
    }

    // With no fallback wired, an open breaker must shed at the door:
    // all-panic faults fail the first min_samples batches, then every
    // later submit resolves CircuitOpen (open_us is far beyond the run).
    let mut shed = Server::new(
        echo_fallback(),
        ServeConfig {
            max_batch: 1,
            max_wait_us: 0,
            queue_cap: 16,
            max_inflight: 1,
        },
        clock.clone(),
    )
    .with_faults(FaultPlan::new(FaultSpec {
        panic_per_mille: 1_000,
        ..FaultSpec::none(seed)
    }))
    .with_breaker(BreakerConfig {
        window: 4,
        min_samples: 2,
        error_threshold_per_mille: 500,
        open_us: 1_000_000_000,
        probe_batches: 1,
    });
    let mut out = Vec::new();
    for i in 0..16 {
        clock.advance(1_000);
        shed.pump();
        shed.submit(vec![i as f32; ECHO_FEATURES], None);
        out.append(&mut shed.take_completions());
    }
    drain_sim(&mut shed, &clock, &mut out);
    let shed_count = |r: RejectReason| {
        out.iter()
            .filter(|c| c.outcome == Outcome::Rejected { reason: r })
            .count()
    };
    assert_eq!(out.len(), 16, "every probe request resolves once");
    assert_eq!(
        (
            shed_count(RejectReason::EngineFailure),
            shed_count(RejectReason::CircuitOpen)
        ),
        (2, 14),
        "breaker trips after min_samples failures, then sheds at the door"
    );
    assert_eq!(shed.breaker_state(), Some(BreakerState::Open));
    println!("serve fault smoke OK");
}

/// The canonical seed `scripts/ci.sh` passes to `--smoke --faults`.
const FAULT_SMOKE_SEED: u64 = 0xFA17;

/// The exact outcome of the pinned [`fault_smoke`] workload at
/// [`FAULT_SMOKE_SEED`]: (requests, completed, completed_fallback,
/// engine_failure, queue_full, deadline_expired, batches, p99_us,
/// breaker transitions).
const FAULT_SMOKE_SIGNATURE: (usize, usize, usize, usize, usize, usize, usize, u64, usize) =
    (1593, 1120, 212, 95, 67, 311, 153, 4160, 18);

fn main() {
    let o = parse();
    if o.faults.is_some() {
        sb_bench::silence_injected_panics();
    }
    if o.smoke {
        match o.faults {
            Some(seed) => fault_smoke(seed),
            None => smoke(),
        }
        return;
    }
    let done = match o.engine.as_str() {
        "echo" => run(
            &o,
            EchoEngine::new(
                ECHO_FEATURES,
                10,
                ServiceModel {
                    base_us: 400,
                    per_sample_us: 120,
                },
            ),
            ECHO_FEATURES,
            echo_fallback,
        ),
        "lenet" => {
            let (engine, sample_len) = lenet_engine(16.0);
            run(&o, engine, sample_len, || lenet_engine(64.0).0)
        }
        _ => usage(),
    };
    report(&done, o.horizon_ms * 1_000);
}
