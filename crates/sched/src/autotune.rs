//! Deadline-aware batch autotuning: pick each tenant's
//! `max_batch`/`max_wait_us` for a target p99 by sweeping the
//! deterministic virtual-clock simulator.
//!
//! The tuner is a pure function of `(tenants, shared config, workload,
//! candidates)`: every trial replays the same merged arrival schedule
//! under a fresh [`SimClock`](sb_serve::SimClock), so the chosen
//! policies — and every intermediate score — are byte-identical at any
//! `SB_RUNTIME_THREADS`. There is no gradient and no wall clock in the
//! loop; the simulator *is* the objective.
//!
//! Search is per-tenant coordinate descent: holding every other
//! tenant's policy fixed, try each `(max_batch, max_wait_us)` candidate
//! for one tenant — crossed with each admission-quota candidate when
//! [`TuneSpec::quota_candidates`] is nonempty — keep the best, move to
//! the next tenant, and repeat for a fixed number of passes. Scores
//! compare lexicographically: fewer tenants missing the p99 target,
//! then less shed load, then a lower worst-tenant p99, then more
//! completions. Because misses dominate shed load, the tuner will adopt
//! a quota that sheds a sustained overload whenever that is the only way
//! to pull a tenant's tail under the target. Ties keep the earlier
//! candidate, so candidate order is part of the function's definition.

use crate::load::{run_multi_open_loop_sim, TenantLoad};
use crate::sched::{MultiServer, SchedConfig};
use crate::tenant::{TenantPolicy, TenantQuota, TenantSpec};
use sb_metrics::SchedProfile;
use sb_serve::SimClock;
use std::sync::Arc;

/// What the tuner optimizes and over which grid.
#[derive(Debug, Clone)]
pub struct TuneSpec {
    /// Every tenant's completed-request p99 must land at or under this.
    pub target_p99_us: u64,
    /// Candidate `max_batch` values, tried in order.
    pub batch_candidates: Vec<usize>,
    /// Candidate `max_wait_us` values, tried in order.
    pub wait_candidates: Vec<u64>,
    /// Candidate admission quotas, tried in order (`None` = unlimited).
    /// Empty keeps every tenant's configured quota untouched — like
    /// `queue_cap`, shedding policy is opted into explicitly.
    pub quota_candidates: Vec<Option<TenantQuota>>,
    /// Coordinate-descent passes over all tenants (≥1).
    pub passes: usize,
}

impl Default for TuneSpec {
    fn default() -> Self {
        TuneSpec {
            target_p99_us: 5_000,
            batch_candidates: vec![1, 2, 4, 8, 16, 32],
            wait_candidates: vec![0, 100, 250, 500, 1_000, 2_000],
            quota_candidates: Vec::new(),
            passes: 2,
        }
    }
}

/// Outcome of one tuning run.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The chosen per-tenant policies, tenant order preserved.
    pub policies: Vec<TenantPolicy>,
    /// Full profile of the final policies on the tuning workload.
    pub profile: SchedProfile,
    /// Simulator replays spent.
    pub sims: usize,
}

/// Lexicographic score: smaller is better.
/// `(tenants missing target, shed requests, worst p99, -completed)`.
type Score = (usize, usize, u64, i64);

fn score(profile: &SchedProfile, target_p99_us: u64) -> Score {
    let mut misses = 0usize;
    let mut shed = 0usize;
    let mut worst_p99 = 0u64;
    let mut completed = 0i64;
    for t in &profile.tenants {
        // A tenant that completed nothing has no tail to measure; it
        // counts as a miss so "shed everything" can never win.
        if t.serve.completed == 0 || t.serve.p99_us > target_p99_us {
            misses += 1;
        }
        shed += t.serve.rejected.total();
        worst_p99 = worst_p99.max(t.serve.p99_us);
        completed += t.serve.completed as i64;
    }
    (misses, shed, worst_p99, -completed)
}

/// Replays the tuning workload once with `policies` substituted in and
/// returns the resulting profile. `sample(tenant, i)` must be a pure
/// function — it is re-invoked for every trial and any statefulness
/// would leak between trials.
pub fn simulate(
    base: &[TenantSpec],
    cfg: SchedConfig,
    loads: &[TenantLoad],
    horizon_us: u64,
    policies: &[TenantPolicy],
    sample: &dyn Fn(usize, usize) -> Vec<f32>,
) -> SchedProfile {
    assert_eq!(base.len(), policies.len(), "one policy per tenant");
    let tenants: Vec<TenantSpec> = base
        .iter()
        .zip(policies)
        .map(|(spec, &policy)| {
            let mut spec = spec.clone();
            spec.policy = policy;
            spec
        })
        .collect();
    let clock = Arc::new(SimClock::new());
    let mut ms = MultiServer::new(tenants, cfg, clock.clone());
    let done = run_multi_open_loop_sim(&mut ms, &clock, loads, horizon_us, sample);
    let picks = ms.take_picks();
    crate::load::profile(&ms, &done, &picks, horizon_us)
}

/// Tunes every tenant's `max_batch`/`max_wait_us` — and, when
/// `spec.quota_candidates` is nonempty, its admission quota — for
/// `spec.target_p99_us` on the given workload. Starts from the policies
/// already in `base` (their `queue_cap` is kept — admission bounds are
/// capacity planning, not batching). Deterministic; see the module docs.
pub fn autotune(
    base: &[TenantSpec],
    cfg: SchedConfig,
    loads: &[TenantLoad],
    horizon_us: u64,
    spec: &TuneSpec,
    sample: &dyn Fn(usize, usize) -> Vec<f32>,
) -> TuneResult {
    assert!(spec.passes >= 1, "need at least one pass");
    assert!(
        !spec.batch_candidates.is_empty() && !spec.wait_candidates.is_empty(),
        "candidate grids must be nonempty"
    );
    let mut policies: Vec<TenantPolicy> = base.iter().map(|t| t.policy).collect();
    let mut sims = 0usize;
    let mut best_profile = simulate(base, cfg, loads, horizon_us, &policies, sample);
    sims += 1;
    let mut best_score = score(&best_profile, spec.target_p99_us);
    for _pass in 0..spec.passes {
        for tenant in 0..base.len() {
            let quota_grid: Vec<Option<TenantQuota>> = if spec.quota_candidates.is_empty() {
                vec![policies[tenant].quota]
            } else {
                spec.quota_candidates.clone()
            };
            for &quota in &quota_grid {
                for &max_batch in &spec.batch_candidates {
                    for &max_wait_us in &spec.wait_candidates {
                        let candidate = TenantPolicy {
                            max_batch,
                            max_wait_us,
                            queue_cap: policies[tenant].queue_cap,
                            quota,
                        };
                        if candidate == policies[tenant] {
                            continue;
                        }
                        let mut trial = policies.clone();
                        trial[tenant] = candidate;
                        let profile = simulate(base, cfg, loads, horizon_us, &trial, sample);
                        sims += 1;
                        let s = score(&profile, spec.target_p99_us);
                        // Strict improvement only: ties keep the
                        // incumbent, making candidate order part of the
                        // pure function.
                        if s < best_score {
                            best_score = s;
                            best_profile = profile;
                            policies = trial;
                        }
                    }
                }
            }
        }
    }
    TuneResult {
        policies,
        profile: best_profile,
        sims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::Priority;
    use sb_serve::{ArrivalProcess, EchoEngine, ServiceModel};

    /// A bursty echo workload where batching policy decides the tail: a
    /// burst of 16 under `max_batch: 2` needs 8 serialized launches
    /// (base cost dominates), while `max_batch: 16` absorbs it in one.
    fn bursty_fixture() -> (Vec<TenantSpec>, Vec<TenantLoad>, u64) {
        let service = ServiceModel {
            base_us: 300,
            per_sample_us: 20,
        };
        let bad_start = TenantPolicy {
            max_batch: 2,
            max_wait_us: 2_000,
            queue_cap: 64,
            quota: None,
        };
        let tenants = vec![TenantSpec::new(
            "bursty",
            1,
            Priority::Interactive,
            bad_start,
            Arc::new(EchoEngine::new(1, 10, service)),
        )];
        let loads = vec![TenantLoad {
            arrivals: ArrivalProcess::Bursty {
                rate_rps: 4_000.0,
                burst: 16,
            },
            seed: 0xA7,
            deadline_us: None,
        }];
        (tenants, loads, 200_000)
    }

    #[test]
    fn tuner_beats_a_bad_starting_policy_and_is_deterministic() {
        let (tenants, loads, horizon) = bursty_fixture();
        let cfg = SchedConfig { max_inflight: 1 };
        let spec = TuneSpec {
            target_p99_us: 2_000,
            batch_candidates: vec![2, 4, 8, 16],
            wait_candidates: vec![0, 250, 1_000, 2_000],
            quota_candidates: vec![],
            passes: 2,
        };
        let sample = |_t: usize, _i: usize| vec![0.0];
        let before = simulate(
            &tenants,
            cfg,
            &loads,
            horizon,
            &[tenants[0].policy],
            &sample,
        );
        let tuned = autotune(&tenants, cfg, &loads, horizon, &spec, &sample);
        assert!(
            before.tenants[0].serve.p99_us > spec.target_p99_us,
            "fixture must start out of budget (p99 {}us)",
            before.tenants[0].serve.p99_us
        );
        assert!(
            tuned.profile.tenants[0].serve.p99_us <= spec.target_p99_us,
            "tuned policy meets the target (p99 {}us, policy {:?})",
            tuned.profile.tenants[0].serve.p99_us,
            tuned.policies[0]
        );
        assert!(tuned.policies[0].max_batch >= 8, "burst absorbed by batch");
        assert_eq!(
            tuned.policies[0].queue_cap, tenants[0].policy.queue_cap,
            "queue_cap is not tuned"
        );
        // Pure function: a second run returns the identical result.
        let again = autotune(&tenants, cfg, &loads, horizon, &spec, &sample);
        assert_eq!(again.policies, tuned.policies);
        assert_eq!(again.sims, tuned.sims);
        assert_eq!(
            sb_json::to_string(&again.profile).expect("serialize"),
            sb_json::to_string(&tuned.profile).expect("serialize")
        );
        assert_eq!(
            tuned.policies[0].quota, None,
            "empty quota grid leaves the configured quota untouched"
        );
    }

    #[test]
    fn tuner_adopts_a_quota_when_only_shedding_meets_the_target() {
        // Sustained absolute overload: even the largest batch cannot keep
        // up (batch of 16 costs 300 + 16·300 = 5100µs for 16 requests ≈
        // 3.1k rps < 4k rps offered), so every quota-free policy pins the
        // queue at its cap and the tail lands tens of ms over target. A
        // rate quota below capacity keeps the queue shallow instead.
        let service = ServiceModel {
            base_us: 300,
            per_sample_us: 300,
        };
        let tenants = vec![TenantSpec::new(
            "overloaded",
            1,
            Priority::Interactive,
            TenantPolicy {
                max_batch: 8,
                max_wait_us: 250,
                queue_cap: 64,
                quota: None,
            },
            Arc::new(EchoEngine::new(1, 10, service)),
        )];
        let loads = vec![TenantLoad {
            arrivals: ArrivalProcess::Uniform { rate_rps: 4_000.0 },
            seed: 0xB3,
            deadline_us: None,
        }];
        let horizon = 200_000;
        let cfg = SchedConfig { max_inflight: 1 };
        let spec = TuneSpec {
            target_p99_us: 5_000,
            batch_candidates: vec![2, 4, 8, 16],
            wait_candidates: vec![0, 250, 1_000],
            quota_candidates: vec![
                None,
                Some(TenantQuota {
                    rate_per_s: 2_000,
                    burst: 8,
                }),
            ],
            passes: 2,
        };
        let sample = |_t: usize, _i: usize| vec![0.0];
        let before = simulate(
            &tenants,
            cfg,
            &loads,
            horizon,
            &[tenants[0].policy],
            &sample,
        );
        assert!(
            before.tenants[0].serve.p99_us > spec.target_p99_us,
            "fixture must start out of budget (p99 {}us)",
            before.tenants[0].serve.p99_us
        );
        let tuned = autotune(&tenants, cfg, &loads, horizon, &spec, &sample);
        assert!(
            tuned.policies[0].quota.is_some(),
            "only a quota can meet the target here, got {:?}",
            tuned.policies[0]
        );
        assert!(
            tuned.profile.tenants[0].serve.p99_us <= spec.target_p99_us,
            "quota'd policy meets the target (p99 {}us)",
            tuned.profile.tenants[0].serve.p99_us
        );
        assert!(
            tuned.profile.tenants[0].serve.rejected.quota_exceeded > 0,
            "the overload was shed at admission"
        );
    }
}
