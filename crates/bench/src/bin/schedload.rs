//! `schedload` — drive the `sb-sched` multi-model scheduler with a
//! synthetic multi-tenant load and print the resulting `SchedProfile`.
//!
//! ```text
//! schedload                    # 3-tenant virtual-clock scenario, JSON out
//! schedload --horizon-ms 400   # longer offered-load window
//! schedload --quota            # same scenario with admission quotas on
//! schedload --picks picks.json # also dump the dequeue-decision log
//! schedload --tune             # autotune per-tenant batching for p99
//! schedload --faults 64023     # seeded faults + per-tenant breakers
//! schedload --smoke            # deterministic CI smoke (asserts)
//! ```
//!
//! The stock scenario shares one pool between a 16x-pruned CSR
//! LeNet-300-100 (interactive, weight 2), its forced-dense counterpart
//! (batch class, weight 1), and a cheap interactive echo canary —
//! tenants priced by their compiled models' effective MACs, so the WFQ
//! charge per batch reflects what the batch actually costs. `--quota`
//! attaches token-bucket admission quotas to the two LeNet tenants
//! (pruned 6k admits/s, dense 2k admits/s), shedding their overload
//! with `QuotaExceeded` at the door instead of letting it pile into the
//! shared window. Everything runs on the virtual clock: outcomes are a
//! pure function of the flags and `--seed`, bit-identical at any
//! `SB_RUNTIME_THREADS`. `--smoke` pins one workload's exact outcome
//! counts for `scripts/ci.sh` — with and without `--quota`.
//!
//! `--faults SEED` arms the fault-tolerance stack: every tenant's
//! primary engine suffers a seeded outage burst (panics, transient
//! flakes, slowdowns over a window of per-tenant batch indices), retry
//! with backoff is shared, and the failure domains differ per tenant —
//! the pruned tenant gets a circuit breaker with *no* fallback (its
//! overload sheds `CircuitOpen` at the door while open), the dense
//! tenant gets a breaker plus the 16x-pruned model as its degraded-mode
//! fallback (it keeps serving, cheaper, while its primary is sick), and
//! the canary gets neither (raw `EngineFailure`s, proving isolation).
//! `--smoke --faults SEED` pins that whole arc as exact counts.

use sb_sched::{
    autotune, profile, run_multi_open_loop_sim, MultiServer, Priority, SchedConfig, TenantLoad,
    TenantPolicy, TenantQuota, TenantSpec, TuneSpec,
};
use sb_serve::{
    ArrivalProcess, BackoffPolicy, BreakerConfig, BreakerState, EchoEngine, FaultPlan, FaultSpec,
    InferEngine, RetryPolicy, ServiceModel, SimClock,
};
use std::sync::Arc;

const MACS_PER_US: u64 = 2_000;
const BASE_US: u64 = 200;
const ECHO_FEATURES: usize = 4;
const LENET_FEATURES: usize = 256;

fn usage() -> ! {
    eprintln!(
        "usage: schedload [--smoke] [--tune] [--quota] [--faults SEED] [--picks PATH] \
         [--horizon-ms M] [--seed S] [--target-p99-us T]"
    );
    std::process::exit(2);
}

struct Opts {
    smoke: bool,
    tune: bool,
    quota: bool,
    faults: Option<u64>,
    picks: Option<String>,
    horizon_ms: u64,
    seed: u64,
    target_p99_us: u64,
}

fn parse() -> Opts {
    let mut o = Opts {
        smoke: false,
        tune: false,
        quota: false,
        faults: None,
        picks: None,
        horizon_ms: 200,
        seed: 0x5C4E,
        target_p99_us: 5_000,
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
            "--tune" => o.tune = true,
            "--quota" => o.quota = true,
            "--faults" => {
                o.faults = Some(next(&args, &mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--picks" => o.picks = Some(next(&args, &mut i)),
            "--horizon-ms" => {
                o.horizon_ms = next(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--seed" => o.seed = next(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--target-p99-us" => {
                o.target_p99_us = next(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
        i += 1;
    }
    o
}

/// A LeNet-300-100 engine at the given compression, priced by effective
/// MACs (the sb-infer cost model) through the fixed machine constant.
fn lenet_engine(ratio: f64, format: Option<sb_infer::ExecFormat>) -> InferEngine {
    use shrinkbench::{GlobalMagnitude, Pruner};
    let mut rng = sb_tensor::Rng::seed_from(0xBE7C);
    let mut net = sb_nn::models::lenet_300_100(LENET_FEATURES, 10, &mut rng);
    if ratio > 1.0 {
        Pruner::default()
            .prune(&mut net, &GlobalMagnitude, ratio, &mut rng)
            .expect("pruning a fresh network succeeds");
    }
    let compiled = sb_infer::CompiledModel::compile(
        &net,
        &sb_infer::CompileOptions {
            force_format: format,
            ..sb_infer::CompileOptions::default()
        },
    );
    let per_sample_us = (compiled.effective_macs() / MACS_PER_US).max(1);
    InferEngine::new(
        compiled,
        ServiceModel {
            base_us: BASE_US,
            per_sample_us,
        },
    )
}

/// The `--faults` outage schedule: a burst over per-tenant primary
/// batch indices 10..25 mixing hard panics, transient flakes (outlasted
/// by the shared retry budget), and slowdowns. Every tenant's primary
/// is hit; what differs is each tenant's failure domain (breaker /
/// fallback wiring in [`scenario`]).
fn fault_spec(seed: u64) -> FaultSpec {
    FaultSpec {
        panic_per_mille: 700,
        transient_per_mille: 200,
        slow_per_mille: 100,
        window_from: Some(10),
        window_until: Some(25),
        ..FaultSpec::none(seed)
    }
}

/// The per-tenant breaker used under `--faults`: trips once half of a
/// short sliding window fails, backs off 2 virtual ms, then probes the
/// primary twice before re-closing.
fn breaker() -> BreakerConfig {
    BreakerConfig {
        window: 8,
        min_samples: 4,
        error_threshold_per_mille: 500,
        open_us: 2_000,
        probe_batches: 2,
    }
}

/// The stock 3-tenant scenario (see module docs). With `quota` set, the
/// two LeNet tenants get token-bucket admission quotas below their
/// offered rates, so part of their load is shed with `QuotaExceeded` at
/// the door. With `faults` set, the pruned tenant gets a breaker (no
/// fallback — sheds while open), the dense tenant gets a breaker plus
/// the 16x-pruned model as its cheaper fallback, and the canary gets
/// neither.
fn scenario(seed: u64, quota: bool, faults: bool) -> (Vec<TenantSpec>, Vec<TenantLoad>) {
    let mut pruned = TenantSpec::new(
        "pruned-16x",
        2,
        Priority::Interactive,
        TenantPolicy {
            max_batch: 16,
            max_wait_us: 500,
            queue_cap: 64,
            quota: quota.then_some(TenantQuota {
                rate_per_s: 6_000,
                burst: 16,
            }),
        },
        Arc::new(lenet_engine(16.0, None)),
    );
    let mut dense = TenantSpec::new(
        "dense",
        1,
        Priority::Batch,
        TenantPolicy {
            max_batch: 16,
            max_wait_us: 1_000,
            queue_cap: 64,
            quota: quota.then_some(TenantQuota {
                rate_per_s: 2_000,
                burst: 8,
            }),
        },
        Arc::new(lenet_engine(1.0, Some(sb_infer::ExecFormat::Dense))),
    );
    let canary = TenantSpec::new(
        "canary",
        1,
        Priority::Interactive,
        TenantPolicy {
            max_batch: 4,
            max_wait_us: 250,
            queue_cap: 32,
            quota: None,
        },
        Arc::new(EchoEngine::new(
            ECHO_FEATURES,
            10,
            ServiceModel {
                base_us: 100,
                per_sample_us: 20,
            },
        )),
    );
    if faults {
        // Distinct failure domains: the pruned tenant sheds while its
        // breaker is open, the dense tenant degrades to its own pruned
        // counterpart, the canary takes raw failures.
        pruned = pruned.with_breaker(breaker());
        dense = dense
            .with_breaker(breaker())
            .with_fallback(Arc::new(lenet_engine(16.0, None)));
    }
    let tenants = vec![pruned, dense, canary];
    let loads = vec![
        TenantLoad {
            arrivals: ArrivalProcess::Uniform { rate_rps: 8_000.0 },
            seed,
            deadline_us: Some(5_000),
        },
        TenantLoad {
            arrivals: ArrivalProcess::Uniform { rate_rps: 3_000.0 },
            seed: seed ^ 1,
            deadline_us: None,
        },
        TenantLoad {
            arrivals: ArrivalProcess::Bursty {
                rate_rps: 1_000.0,
                burst: 8,
            },
            seed: seed ^ 2,
            deadline_us: Some(2_000),
        },
    ];
    (tenants, loads)
}

/// Pure per-request input: tenant 0/1 are 256-feature LeNet samples,
/// tenant 2 the 4-feature echo. Re-derivable from `(tenant, i)` alone,
/// as the autotuner's replays require.
fn make_sample(seed: u64, tenant: usize, i: usize) -> Vec<f32> {
    let len = if tenant == 2 { ECHO_FEATURES } else { LENET_FEATURES };
    let mut rng = sb_rng::Rng::seed_from(seed ^ ((tenant as u64) << 40) ^ i as u64);
    (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// Drive the scenario and hand back the server (breaker events and
/// pick log still inside) alongside the completions.
fn run_raw(o: &Opts) -> (MultiServer, Vec<sb_sched::SchedCompletion>, u64) {
    let (tenants, loads) = scenario(o.seed, o.quota, o.faults.is_some());
    let horizon_us = o.horizon_ms * 1_000;
    let clock = Arc::new(SimClock::new());
    let mut ms = MultiServer::new(tenants, SchedConfig { max_inflight: 2 }, clock.clone());
    if let Some(seed) = o.faults {
        ms = ms
            .with_faults(FaultPlan::new(fault_spec(seed)))
            .with_retry(RetryPolicy {
                max_attempts: 3,
                backoff: BackoffPolicy {
                    base_us: 100,
                    multiplier: 2,
                    max_delay_us: 2_000,
                },
            });
    }
    let seed = o.seed;
    let done = run_multi_open_loop_sim(&mut ms, &clock, &loads, horizon_us, |t, i| {
        make_sample(seed, t, i)
    });
    (ms, done, horizon_us)
}

fn run(o: &Opts) -> sb_metrics::SchedProfile {
    let (mut ms, done, horizon_us) = run_raw(o);
    let picks = ms.take_picks();
    if let Some(path) = &o.picks {
        std::fs::write(path, sb_bench::picks::render_picks(&picks))
            .unwrap_or_else(|e| panic!("write pick log {path}: {e}"));
        eprintln!("wrote {} pick records to {path}", picks.len());
    }
    profile(&ms, &done, &picks, horizon_us)
}

fn tune(o: &Opts) {
    let (tenants, loads) = scenario(o.seed, o.quota, false);
    let horizon_us = o.horizon_ms * 1_000;
    let cfg = SchedConfig { max_inflight: 2 };
    let spec = TuneSpec {
        target_p99_us: o.target_p99_us,
        // With --quota, let the tuner weigh admission quotas against
        // unlimited admission per tenant.
        quota_candidates: if o.quota {
            vec![
                None,
                Some(TenantQuota {
                    rate_per_s: 2_000,
                    burst: 8,
                }),
                Some(TenantQuota {
                    rate_per_s: 6_000,
                    burst: 16,
                }),
            ]
        } else {
            Vec::new()
        },
        ..TuneSpec::default()
    };
    let seed = o.seed;
    let sample = move |t: usize, i: usize| make_sample(seed, t, i);
    let before = sb_sched::simulate(
        &tenants,
        cfg,
        &loads,
        horizon_us,
        &tenants.iter().map(|t| t.policy).collect::<Vec<_>>(),
        &sample,
    );
    let result = autotune(&tenants, cfg, &loads, horizon_us, &spec, &sample);
    println!(
        "autotune: target p99 {}us, {} simulator replays",
        spec.target_p99_us, result.sims
    );
    for (i, t) in tenants.iter().enumerate() {
        println!(
            "{:>12}: p99 {:>6}us -> {:>6}us   policy {:?} -> {:?}",
            t.name,
            before.tenants[i].serve.p99_us,
            result.profile.tenants[i].serve.p99_us,
            t.policy,
            result.policies[i]
        );
    }
}

/// Pinned deterministic workload: the stock scenario, 200 virtual ms,
/// seed 0x5C4E, with or without admission quotas. The counts below are
/// the exact outcome of that pure function; any drift in the WFQ
/// charging, EDF ordering, priority filter, per-tenant batching, quota
/// refills, deadline checks, or rng streams changes them.
fn smoke(quota: bool) {
    let o = Opts {
        smoke: true,
        tune: false,
        quota,
        faults: None,
        picks: None,
        horizon_ms: 200,
        seed: 0x5C4E,
        target_p99_us: 5_000,
    };
    let p = run(&o);
    let t = |name: &str| p.tenant(name).expect("stock tenant");
    for tp in &p.tenants {
        println!(
            "smoke: {:>12} [{}, w{}] {} completed + {} shed ({} quota); p99 {}us; cost share {:.3} (weight share {:.3})",
            tp.name,
            tp.priority,
            tp.weight,
            tp.serve.completed,
            tp.serve.rejected.total(),
            tp.serve.rejected.quota_exceeded,
            tp.serve.p99_us,
            tp.cost_share,
            tp.weight_share,
        );
    }
    let signature = (
        p.tenants.iter().map(|t| t.serve.requests).sum::<usize>(),
        t("pruned-16x").serve.completed,
        t("dense").serve.completed,
        t("canary").serve.completed,
        p.tenants.iter().map(|t| t.serve.rejected.total()).sum::<usize>(),
        p.total_served_cost_us,
        t("pruned-16x").serve.p99_us,
        t("canary").serve.p99_us,
    );
    println!("smoke signature: {signature:?}");
    if quota {
        let quota_sheds = (
            t("pruned-16x").serve.rejected.quota_exceeded,
            t("dense").serve.rejected.quota_exceeded,
            t("canary").serve.rejected.quota_exceeded,
        );
        println!("quota sheds: {quota_sheds:?}");
        assert_eq!(
            (signature, quota_sheds),
            QUOTA_SMOKE_SIGNATURE,
            "deterministic quota smoke drifted — if the scheduling policy \
             or rng stream changed intentionally, re-pin QUOTA_SMOKE_SIGNATURE"
        );
        // Both quota'd tenants must actually have shed at the door, and
        // the unquota'd canary must not have.
        assert!(quota_sheds.0 > 0 && quota_sheds.1 > 0);
        assert_eq!(quota_sheds.2, 0);
    } else {
        assert_eq!(
            signature, SMOKE_SIGNATURE,
            "deterministic sched smoke drifted — if the scheduling policy \
             or rng stream changed intentionally, re-pin SMOKE_SIGNATURE"
        );
    }
    // The interactive deadline tenants must be inside their deadlines
    // despite the dense batch tenant sharing the pool.
    assert!(t("pruned-16x").serve.p99_us <= 5_000);
    assert!(t("canary").serve.p99_us <= 2_000);
    println!("sched smoke OK");
}

/// The outcome counts a [`smoke`] run asserts.
type SmokeSignature = (usize, usize, usize, usize, usize, u64, u64, u64);

/// The exact outcome of the pinned [`smoke`] workload.
const SMOKE_SIGNATURE: SmokeSignature =
    (2368, 1580, 604, 184, 0, 149_032, 718, 518);

/// The exact outcome of the pinned [`smoke`] workload with `--quota`:
/// the stock signature shape plus per-tenant `QuotaExceeded` counts.
const QUOTA_SMOKE_SIGNATURE: (SmokeSignature, (usize, usize, usize)) =
    ((2368, 1214, 407, 184, 563, 132_093, 718, 446), (366, 197, 0));

/// Pinned deterministic faulted workload: the stock scenario armed with
/// [`fault_spec`] and per-tenant failure domains (see module docs).
/// Asserts the whole degraded-mode arc — the pruned tenant's breaker
/// opens and sheds `CircuitOpen` with no fallback, the dense tenant
/// degrades to its pruned fallback instead of shedding, the canary eats
/// raw `EngineFailure`s without a breaker, both breakers re-close once
/// probes find the primaries healthy — and, at the canonical CI seed,
/// the exact counts.
fn fault_smoke(seed: u64) {
    let o = Opts {
        smoke: true,
        tune: false,
        quota: false,
        faults: Some(seed),
        picks: None,
        horizon_ms: 200,
        seed: 0x5C4E,
        target_p99_us: 5_000,
    };
    let (mut ms, done, horizon_us) = run_raw(&o);
    let events = ms.take_breaker_events();
    let picks = ms.take_picks();
    let p = profile(&ms, &done, &picks, horizon_us);
    let t = |name: &str| p.tenant(name).expect("stock tenant");
    for tp in &p.tenants {
        println!(
            "fault smoke: {:>12} {} completed ({} via fallback) + {} engine_failure \
             + {} circuit_open + {} other shed; p99 {}us",
            tp.name,
            tp.serve.completed,
            tp.serve.completed_fallback,
            tp.serve.rejected.engine_failure,
            tp.serve.rejected.circuit_open,
            tp.serve.rejected.total()
                - tp.serve.rejected.engine_failure
                - tp.serve.rejected.circuit_open,
            tp.serve.p99_us,
        );
    }
    let (pruned, dense, canary) = (t("pruned-16x"), t("dense"), t("canary"));
    // Failure domains: the breakered-but-fallbackless pruned tenant
    // sheds at the door while open; the dense tenant rides out the
    // burst on its pruned fallback without shedding; the bare canary
    // takes raw failures and nothing else.
    assert!(pruned.serve.rejected.circuit_open > 0, "open breaker sheds");
    assert_eq!(pruned.serve.completed_fallback, 0);
    assert!(dense.serve.completed_fallback > 0, "dense degrades to pruned");
    assert_eq!(dense.serve.rejected.circuit_open, 0);
    assert!(canary.serve.rejected.engine_failure > 0, "canary hit raw");
    assert_eq!(canary.serve.rejected.circuit_open, 0);
    assert_eq!(canary.serve.completed_fallback, 0);
    // Transitions only for the two breakered tenants, and both recover.
    assert!(events.iter().all(|e| e.tenant < 2), "canary has no breaker");
    for tenant in 0..2 {
        let last = events.iter().rev().find(|e| e.tenant == tenant);
        assert_eq!(
            last.map(|e| e.to),
            Some(BreakerState::Closed),
            "tenant {tenant} breaker re-closes after the burst"
        );
        assert_eq!(ms.breaker_state(tenant), Some(BreakerState::Closed));
    }
    assert_eq!(ms.breaker_state(2), None, "canary has no breaker");
    let signature = (
        p.tenants.iter().map(|t| t.serve.requests).sum::<usize>(),
        (
            pruned.serve.completed,
            pruned.serve.rejected.engine_failure,
            pruned.serve.rejected.circuit_open,
            pruned.serve.p99_us,
        ),
        (
            dense.serve.completed,
            dense.serve.completed_fallback,
            dense.serve.rejected.engine_failure,
        ),
        (canary.serve.completed, canary.serve.rejected.engine_failure),
        events.len(),
    );
    println!("fault smoke signature: {signature:?}");
    if seed == FAULT_SMOKE_SEED {
        assert_eq!(
            signature, FAULT_SMOKE_SIGNATURE,
            "deterministic sched fault smoke drifted — if the fault schedule, \
             breaker policy, or WFQ charging changed intentionally, re-pin \
             FAULT_SMOKE_SIGNATURE"
        );
    }
    println!("sched fault smoke OK");
}

/// The canonical seed `scripts/ci.sh` passes to `--smoke --faults`.
const FAULT_SMOKE_SEED: u64 = 0xFA17;

/// The outcome counts a [`fault_smoke`] run asserts: (requests, pruned
/// (completed, engine_failure, circuit_open, p99_us), dense (completed,
/// completed_fallback, engine_failure), canary (completed,
/// engine_failure), transitions).
type FaultSmokeSignature = (
    usize,
    (usize, usize, usize, u64),
    (usize, usize, usize),
    (usize, usize),
    usize,
);

/// The exact outcome of the pinned [`fault_smoke`] workload at
/// [`FAULT_SMOKE_SEED`].
const FAULT_SMOKE_SIGNATURE: FaultSmokeSignature =
    (2368, (1365, 56, 159, 949), (565, 40, 39), (140, 44), 36);

fn main() {
    let o = parse();
    if o.faults.is_some() {
        sb_bench::silence_injected_panics();
    }
    if o.smoke {
        match o.faults {
            Some(seed) => fault_smoke(seed),
            None => smoke(o.quota),
        }
        return;
    }
    if o.tune {
        tune(&o);
        return;
    }
    let p = run(&o);
    println!("{}", sb_json::to_string_pretty(&p).expect("serialize"));
}
