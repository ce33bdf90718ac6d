//! Two deterministic demos of the multi-model scheduler, pinned as exact
//! virtual-clock outcomes. A 16x-pruned CSR LeNet-300-100 (interactive,
//! weight 2) shares one pool with its forced-dense counterpart (batch
//! class, weight 1), each priced by [`sb_bench::mac_price`]:
//!
//! 1. **Autotune** — a bursty two-tenant workload against a 5 ms p99
//!    target: the naive shared policy (batch 1, no window) misses it and
//!    the autotuned per-tenant policies meet it.
//! 2. **Quota** — the dense tenant is offered 10x its admission quota in
//!    128-request bursts. With the quota off, its queue pins at the cap,
//!    every dense launch is a full 128-sample batch (about 7 virtual ms)
//!    and the interactive tenant's p99 blows through the target waiting
//!    them out; with the quota on, the same interactive load lands inside
//!    it.
//!
//! Both are pure functions of the workload, so the outcomes are asserted
//! exactly, at any `SB_RUNTIME_THREADS`. The engines echo instead of
//! running the compiled models: under a virtual clock only the service
//! price moves time, so the outcome is the same and the replays are
//! cheap.

use sb_metrics::SchedProfile;
use sb_sched::{
    autotune, simulate, Priority, SchedConfig, TenantLoad, TenantPolicy, TenantQuota, TenantSpec,
    TuneSpec,
};
use sb_serve::{ArrivalProcess, EchoEngine};
use std::sync::Arc;

const FEATURES: usize = 256;
const MAX_BATCH: usize = 16;
const TARGET_P99_US: u64 = 5_000;
const HORIZON_US: u64 = 300_000;
const CFG: SchedConfig = SchedConfig { max_inflight: 2 };

/// An engine priced like LeNet-300-100 at `ratio`, compiled in `format`.
fn lenet_engine(ratio: f64, format: sb_infer::ExecFormat) -> Arc<EchoEngine> {
    use shrinkbench::{GlobalMagnitude, Pruner};
    let mut rng = sb_tensor::Rng::seed_from(0xBE7C);
    let mut net = sb_nn::models::lenet_300_100(FEATURES, 10, &mut rng);
    if ratio > 1.0 {
        Pruner::default()
            .prune(&mut net, &GlobalMagnitude, ratio, &mut rng)
            .expect("pruning a fresh network succeeds");
    }
    let compiled = sb_infer::CompiledModel::compile(
        &net,
        &sb_infer::CompileOptions {
            force_format: Some(format),
            ..sb_infer::CompileOptions::default()
        },
    );
    Arc::new(EchoEngine::new(FEATURES, 10, sb_bench::mac_price(&compiled)))
}

/// The pruned interactive tenant and the dense batch tenant, with the
/// given dense batching policy.
fn tenants(dense: TenantPolicy) -> Vec<TenantSpec> {
    let pruned = TenantPolicy {
        max_batch: MAX_BATCH,
        max_wait_us: 200,
        queue_cap: 128,
        quota: None,
    };
    vec![
        TenantSpec::new(
            "csr-16x",
            2,
            Priority::Interactive,
            pruned,
            lenet_engine(16.0, sb_infer::ExecFormat::Csr),
        ),
        TenantSpec::new(
            "dense",
            1,
            Priority::Batch,
            dense,
            lenet_engine(1.0, sb_infer::ExecFormat::Dense),
        ),
    ]
}

fn sample(tenant: usize, i: usize) -> Vec<f32> {
    let mut rng = sb_rng::Rng::seed_from(0xA11CE ^ ((tenant as u64) << 40) ^ i as u64);
    (0..FEATURES).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// `(completed, p99_us)` per tenant.
fn outcomes(p: &SchedProfile) -> Vec<(usize, u64)> {
    p.tenants
        .iter()
        .map(|t| (t.serve.completed, t.serve.p99_us))
        .collect()
}

#[test]
fn autotune_meets_the_p99_target_that_the_naive_policy_misses() {
    let naive = TenantPolicy {
        max_batch: 1,
        max_wait_us: 0,
        queue_cap: 256,
        quota: None,
    };
    let mut base = tenants(naive);
    base[0].policy = naive;
    let loads = [
        TenantLoad {
            arrivals: ArrivalProcess::Bursty {
                rate_rps: 6_000.0,
                burst: 16,
            },
            seed: 0xB0057,
            deadline_us: None,
        },
        TenantLoad {
            arrivals: ArrivalProcess::Bursty {
                rate_rps: 1_500.0,
                burst: 8,
            },
            seed: 0xB0058,
            deadline_us: None,
        },
    ];
    let naive_profile = simulate(&base, CFG, &loads, HORIZON_US, &[naive, naive], &sample);
    let spec = TuneSpec {
        target_p99_us: TARGET_P99_US,
        ..TuneSpec::default()
    };
    let tuned = autotune(&base, CFG, &loads, HORIZON_US, &spec, &sample);

    // The burst arrives faster than single-sample launches, each paying
    // the per-batch price, can drain it, so the shared no-batching policy
    // must blow the target; the tuner must recover it.
    assert!(
        naive_profile
            .tenants
            .iter()
            .any(|t| t.serve.completed == 0 || t.serve.p99_us > TARGET_P99_US),
        "naive shared policy unexpectedly meets the {TARGET_P99_US}us target"
    );
    assert!(
        tuned
            .profile
            .tenants
            .iter()
            .all(|t| t.serve.completed > 0 && t.serve.p99_us <= TARGET_P99_US),
        "tuned policies miss the {TARGET_P99_US}us target: {:?}",
        outcomes(&tuned.profile)
    );
    let p99s = |p: &SchedProfile| outcomes(p).iter().map(|o| o.1).collect::<Vec<_>>();
    assert_eq!(p99s(&naive_profile), [1_771, 5_337]);
    assert_eq!(p99s(&tuned.profile), [523, 529]);
    let policy = |max_batch| TenantPolicy {
        max_batch,
        max_wait_us: 100,
        queue_cap: 256,
        quota: None,
    };
    assert_eq!(tuned.policies, [policy(8), policy(4)]);
    assert_eq!(tuned.sims, 141);
}

/// Dense batch size for the quota demo: one full batch costs about
/// 7 virtual ms, past the 5 ms target, so an interactive request
/// stranded behind one misses.
const QUOTA_DENSE_BATCH: usize = 128;
/// The admission quota under test: 2k rps sustained with a 16-request
/// burst allowance, an order of magnitude below the offered load.
const QUOTA_DENSE: TenantQuota = TenantQuota {
    rate_per_s: 2_000,
    burst: 16,
};

#[test]
fn dense_admission_quota_brings_the_interactive_p99_inside_the_target() {
    let specs = tenants(TenantPolicy {
        max_batch: QUOTA_DENSE_BATCH,
        max_wait_us: 500,
        queue_cap: 256,
        quota: None,
    });
    let loads = [
        // Deliberately deadline-free: a deadline would shed the stranded
        // requests and flatter the quota-off p99. The point is to
        // measure the latency the interactive tenant actually eats.
        TenantLoad {
            arrivals: ArrivalProcess::Uniform { rate_rps: 2_000.0 },
            seed: 0x0D0A,
            deadline_us: None,
        },
        TenantLoad {
            arrivals: ArrivalProcess::Bursty {
                rate_rps: 10.0 * QUOTA_DENSE.rate_per_s as f64,
                burst: QUOTA_DENSE_BATCH,
            },
            seed: 0x0D0B,
            deadline_us: None,
        },
    ];
    let off = [specs[0].policy, specs[1].policy];
    let on = [
        off[0],
        TenantPolicy {
            quota: Some(QUOTA_DENSE),
            ..off[1]
        },
    ];
    let without = simulate(&specs, CFG, &loads, HORIZON_US, &off, &sample);
    let with_quota = simulate(&specs, CFG, &loads, HORIZON_US, &on, &sample);

    let miss = &without.tenants[0].serve;
    assert!(
        miss.completed > 0 && miss.p99_us > TARGET_P99_US,
        "interactive p99 {}us meets the {TARGET_P99_US}us target with quotas off",
        miss.p99_us
    );
    let hit = &with_quota.tenants[0].serve;
    assert!(
        hit.completed > 0 && hit.p99_us <= TARGET_P99_US,
        "interactive p99 {}us misses the {TARGET_P99_US}us target with the quota on",
        hit.p99_us
    );
    assert_eq!(outcomes(&without), [(603, 6_737), (5_888, 13_697)]);
    assert_eq!(outcomes(&with_quota), [(603, 736), (583, 1_548)]);
    let quota_shed = |p: &SchedProfile| {
        p.tenants
            .iter()
            .map(|t| t.serve.rejected.quota_exceeded)
            .collect::<Vec<_>>()
    };
    assert_eq!(quota_shed(&without), [0, 0]);
    assert_eq!(quota_shed(&with_quota), [0, 5_305]);
}
