//! Quota and EDF properties under randomized multi-tenant workloads
//! (suite seed `0x7E45_000D`): exact token-bucket conformance per
//! tenant, EDF non-inversion within a priority class on contested
//! picks, and byte-identical outcome streams at 1 vs 4 worker threads
//! with quotas enabled.
//!
//! One test function (not several) because the determinism half flips
//! the process-global thread override, and `#[test]`s in one binary run
//! concurrently.

use sb_check::{check, Config, Shrink};
use sb_runtime::set_thread_override;
use sb_sched::{
    MultiServer, PickRecord, Priority, SchedCompletion, SchedConfig, TenantPolicy, TenantQuota,
    TenantSpec,
};
use sb_serve::{EchoEngine, Outcome, RejectReason, ServiceModel, SimClock};
use std::sync::Arc;

const SEED: u64 = 0x7E45_000D;
const CLASSES: usize = 10;

#[derive(Debug, Clone)]
struct QuotaWorkload {
    /// `(weight, priority, policy, service)` per tenant; at least one
    /// tenant always carries a quota.
    tenants: Vec<(u64, Priority, TenantPolicy, ServiceModel)>,
    max_inflight: usize,
    /// `(time_us, tenant, deadline_rel)`, ascending in time. Relative
    /// deadlines are always ≥ 1 so no request is dead on arrival — that
    /// keeps "admitted" exactly equal to "not quota-rejected" (the
    /// queue cap of 512 is unreachable at this script length).
    script: Vec<(u64, usize, Option<u64>)>,
}

impl Shrink for QuotaWorkload {}

fn gen_quota(rng: &mut sb_rng::Rng) -> QuotaWorkload {
    let n = 2 + rng.below(2);
    let tenants: Vec<(u64, Priority, TenantPolicy, ServiceModel)> = (0..n)
        .map(|i| {
            let weight = 1 + rng.below(4) as u64;
            let priority = if rng.below(2) == 0 {
                Priority::Interactive
            } else {
                Priority::Batch
            };
            // Tenant 0 is always quota'd so every case exercises the
            // bucket; the rest are quota'd three times out of four.
            let quota = if i == 0 || rng.below(4) > 0 {
                Some(TenantQuota {
                    rate_per_s: 500 + rng.below(4_000) as u64,
                    burst: 1 + rng.below(8) as u64,
                })
            } else {
                None
            };
            let policy = TenantPolicy {
                max_batch: 1 + rng.below(8),
                max_wait_us: rng.below(2_000) as u64,
                queue_cap: 512,
                quota,
            };
            let service = ServiceModel {
                base_us: rng.below(500) as u64,
                per_sample_us: rng.below(100) as u64,
            };
            (weight, priority, policy, service)
        })
        .collect();
    let ops = 1 + rng.below(100);
    let mut script = Vec::with_capacity(ops);
    let mut t = 0u64;
    for _ in 0..ops {
        t += rng.below(400) as u64;
        let tenant = rng.below(n);
        let deadline_rel = match rng.below(3) {
            0 => Some(1 + rng.below(3_000) as u64),
            _ => None,
        };
        script.push((t, tenant, deadline_rel));
    }
    QuotaWorkload {
        tenants,
        max_inflight: 1 + rng.below(3),
        script,
    }
}

/// Replays the workload on a fresh virtual-clock scheduler. Built
/// inside so the current thread override is honored. Returns the tagged
/// completion stream and the pick log.
fn run_quota(w: &QuotaWorkload) -> (Vec<SchedCompletion>, Vec<PickRecord>) {
    let clock = Arc::new(SimClock::new());
    let specs: Vec<TenantSpec> = w
        .tenants
        .iter()
        .enumerate()
        .map(|(i, &(weight, priority, policy, service))| {
            TenantSpec::new(
                format!("t{i}"),
                weight,
                priority,
                policy,
                Arc::new(EchoEngine::new(1, CLASSES, service)),
            )
        })
        .collect();
    let mut ms = MultiServer::new(
        specs,
        SchedConfig {
            max_inflight: w.max_inflight,
        },
        clock.clone(),
    );
    let mut out = Vec::new();
    for (submitted, &(t, tenant, deadline_rel)) in w.script.iter().enumerate() {
        while let Some(ev) = ms.next_event_us() {
            if ev >= t {
                break;
            }
            clock.advance_to(ev);
            ms.pump();
        }
        clock.advance_to(t);
        ms.submit(tenant, vec![submitted as f32], deadline_rel.map(|d| t + d));
    }
    ms.begin_drain();
    out.append(&mut ms.take_completions());
    while !ms.is_idle() {
        let ev = ms.next_event_us().expect("non-idle has an event");
        clock.advance_to(ev);
        ms.pump();
        out.append(&mut ms.take_completions());
    }
    let picks = ms.take_picks();
    (out, picks)
}

/// Exact token-bucket conformance: for every tenant, at its k-th
/// admission (time `T`, counting from the start of the run),
/// `k · 1e6 ≤ burst · 1e6 + rate_per_s · T` — integer arithmetic, no
/// tolerance. Tokens start at `burst` and refill `rate_per_s`
/// micro-tokens per µs, so any prefix that admitted more than that has
/// minted quota out of thin air.
fn quota_conformance(w: &QuotaWorkload, done: &[SchedCompletion]) -> Result<(), String> {
    // Ids are assigned in submission order, so script index == id.
    let quota_rejected: Vec<bool> = {
        let mut v = vec![false; w.script.len()];
        for c in done {
            if c.completion.outcome
                == (Outcome::Rejected {
                    reason: RejectReason::QuotaExceeded,
                })
            {
                v[c.completion.id as usize] = true;
            }
        }
        v
    };
    let mut admits = vec![0u64; w.tenants.len()];
    for (i, &(t, tenant, _)) in w.script.iter().enumerate() {
        if quota_rejected[i] {
            continue;
        }
        admits[tenant] += 1;
        if let Some(q) = w.tenants[tenant].2.quota {
            let spent = admits[tenant].saturating_mul(1_000_000);
            let available = q
                .burst
                .saturating_mul(1_000_000)
                .saturating_add(q.rate_per_s.saturating_mul(t));
            if spent > available {
                return Err(format!(
                    "tenant {tenant}: admission #{} at {t}us overdraws its bucket \
                     ({spent} micro-tokens spent, {available} available; quota {q:?})",
                    admits[tenant]
                ));
            }
        }
    }
    // A quota-rejection charged to a quota-free tenant is a bug, too.
    for (i, &(_, tenant, _)) in w.script.iter().enumerate() {
        if quota_rejected[i] && w.tenants[tenant].2.quota.is_none() {
            return Err(format!(
                "tenant {tenant} has no quota but request {i} was quota-rejected"
            ));
        }
    }
    Ok(())
}

/// EDF non-inversion: on every pick, the winner's `(priority rank, head
/// deadline)` must be lexicographically minimal over the eligible set as
/// recorded in the pick itself (deadline-free heads rank last within
/// their class). WFQ only arbitrates behind that prefix.
fn edf_non_inversion(w: &QuotaWorkload, picks: &[PickRecord]) -> Result<(), String> {
    for p in picks {
        let pos = p
            .eligible
            .iter()
            .position(|&t| t == p.tenant)
            .ok_or_else(|| format!("pick of tenant {} not in eligible set", p.tenant))?;
        if p.head_deadlines.len() != p.eligible.len() {
            return Err("head_deadlines not parallel to eligible".to_string());
        }
        let key = |i: usize| {
            (
                w.tenants[p.eligible[i]].1.rank(),
                p.head_deadlines[i].unwrap_or(u64::MAX),
            )
        };
        let winner_key = key(pos);
        for i in 0..p.eligible.len() {
            if key(i) < winner_key {
                return Err(format!(
                    "at {}us tenant {} (rank {}, head deadline {:?}) launched over \
                     tenant {} (rank {}, head deadline {:?})",
                    p.at_us,
                    p.tenant,
                    winner_key.0,
                    p.head_deadlines[pos],
                    p.eligible[i],
                    key(i).0,
                    p.head_deadlines[i],
                ));
            }
        }
    }
    Ok(())
}

fn serialize(done: &[SchedCompletion]) -> String {
    sb_json::to_string(&done.to_vec()).expect("completions serialize")
}

#[test]
fn quotas_conform_edf_holds_and_streams_are_thread_count_invariant() {
    check(
        "sched_quota_conformance_edf_and_determinism",
        Config::new(SEED).cases(40),
        gen_quota,
        |w| {
            set_thread_override(Some(1));
            let (at_one, picks) = run_quota(w);
            if at_one.len() != w.script.len() {
                return Err(format!(
                    "{} submits but {} resolutions",
                    w.script.len(),
                    at_one.len()
                ));
            }
            quota_conformance(w, &at_one)?;
            edf_non_inversion(w, &picks)?;
            set_thread_override(Some(4));
            let (at_four, picks_four) = run_quota(w);
            set_thread_override(None);
            if serialize(&at_one) != serialize(&at_four) {
                return Err(
                    "completion stream bytes differ between 1 and 4 worker threads".to_string(),
                );
            }
            if picks != picks_four {
                return Err("pick log differs between 1 and 4 worker threads".to_string());
            }
            Ok(())
        },
    );
    set_thread_override(None);
}
