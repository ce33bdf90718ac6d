//! Tenant description: who is served, at what priority, with what
//! batching policy, and how much of the pool it is entitled to.

use crate::engine::BatchEngine;
use sb_fault::BreakerConfig;
use sb_json::{json_enum, json_struct};
use std::sync::Arc;

/// Strict priority class, checked at every dequeue.
///
/// Whenever any [`Priority::Interactive`] tenant has a formable batch,
/// no [`Priority::Batch`] tenant is picked — weighted fair queueing only
/// arbitrates *within* a class. The pick log
/// ([`PickRecord`](crate::PickRecord)) makes this property externally
/// checkable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive traffic; always dequeued before `Batch`.
    Interactive,
    /// Throughput traffic; runs only when no interactive batch is due.
    Batch,
}

json_enum!(Priority { Interactive, Batch });

impl Priority {
    /// Dequeue rank: lower wins. `Interactive` strictly precedes `Batch`.
    pub fn rank(self) -> u8 {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
        }
    }

    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

/// Token-bucket admission quota: a sustained admit *rate*, not just a
/// queue cap.
///
/// The bucket holds up to `burst` tokens and refills continuously at
/// `rate_per_s` tokens per second, read off the scheduler's
/// [`Clock`](crate::Clock) — under a
/// [`SimClock`](crate::SimClock) the refill is a pure function of
/// virtual time, so quota decisions stay bit-deterministic. Each
/// admitted request spends one token; a submit that finds the bucket
/// empty is shed with
/// [`RejectReason::QuotaExceeded`](crate::RejectReason::QuotaExceeded)
/// *before* the queue cap is consulted, so one tenant's burst cannot
/// consume the shared window faster than its provisioned rate no matter
/// how deep its queue is allowed to grow.
///
/// Over any interval `[0, t]` the quota guarantees
/// `admits ≤ burst + rate_per_s · t / 1e6µs` — the conformance bound the
/// property suite (seed `0x7E45_000D`) checks exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Sustained admissions per second.
    pub rate_per_s: u64,
    /// Bucket capacity: admissions that may land back-to-back after an
    /// idle spell. Must be positive (a zero-burst bucket admits nothing).
    pub burst: u64,
}

json_struct!(TenantQuota { rate_per_s, burst });

/// Per-tenant batching policy — the same knobs as
/// [`ServeConfig`](crate::ServeConfig) minus the inflight window, which
/// the scheduler owns globally, plus the admission quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Largest batch coalesced for this tenant.
    pub max_batch: usize,
    /// Longest the tenant's queue head may wait before an under-filled
    /// batch becomes eligible anyway (0 = eligible immediately).
    pub max_wait_us: u64,
    /// Admission bound on the tenant's own queue; arrivals beyond it are
    /// shed with `QueueFull`.
    pub queue_cap: usize,
    /// Token-bucket admission quota; `None` leaves admission bounded by
    /// `queue_cap` alone.
    pub quota: Option<TenantQuota>,
}

json_struct!(TenantPolicy {
    max_batch,
    max_wait_us,
    queue_cap;
    quota
});

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            max_batch: 8,
            max_wait_us: 1_000,
            queue_cap: 64,
            quota: None,
        }
    }
}

/// One tenant of the multi-model scheduler: a named engine with a WFQ
/// weight, a priority class, and its own batching policy.
#[derive(Clone)]
pub struct TenantSpec {
    /// Display/trace name (`sched:tenant:{name}` spans).
    pub name: String,
    /// WFQ weight in batch-cost units: over any saturated interval a
    /// backlogged tenant is served virtual-microsecond cost in
    /// proportion to its weight. Must be positive.
    pub weight: u64,
    /// Strict dequeue class.
    pub priority: Priority,
    /// This tenant's batching policy.
    pub policy: TenantPolicy,
    /// The engine executing this tenant's batches. The engine's
    /// [`BatchEngine::service_us`] prices both virtual completion times
    /// and WFQ charges, so a cheap pruned model is charged less per
    /// batch than a dense one and cannot be starved by it.
    pub engine: Arc<dyn BatchEngine>,
    /// Degraded-mode engine (typically a heavily pruned variant of
    /// `engine`) serving this tenant while its circuit breaker is open.
    /// `None` means the tenant sheds with
    /// [`RejectReason::CircuitOpen`](crate::RejectReason::CircuitOpen)
    /// instead of degrading.
    pub fallback: Option<Arc<dyn BatchEngine>>,
    /// Circuit-breaker thresholds guarding this tenant's primary engine;
    /// `None` disables the breaker (failures still resolve as
    /// `EngineFailure`, but nothing trips).
    pub breaker: Option<BreakerConfig>,
}

impl TenantSpec {
    /// A tenant over `engine` with the given name, weight, class, and
    /// policy.
    pub fn new(
        name: impl Into<String>,
        weight: u64,
        priority: Priority,
        policy: TenantPolicy,
        engine: Arc<dyn BatchEngine>,
    ) -> Self {
        TenantSpec {
            name: name.into(),
            weight,
            priority,
            policy,
            engine,
            fallback: None,
            breaker: None,
        }
    }

    /// Attaches a degraded-mode fallback engine. Its sample shape must
    /// match the primary's so queued inputs route to either unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `fallback`'s `sample_len` or `classes` differ from the
    /// primary engine's.
    pub fn with_fallback(mut self, fallback: Arc<dyn BatchEngine>) -> Self {
        self.set_fallback(fallback);
        self
    }

    /// [`TenantSpec::with_fallback`] in place.
    pub(crate) fn set_fallback(&mut self, fallback: Arc<dyn BatchEngine>) {
        assert_eq!(
            fallback.sample_len(),
            self.engine.sample_len(),
            "fallback engine must accept the primary's sample shape"
        );
        assert_eq!(
            fallback.classes(),
            self.engine.classes(),
            "fallback engine must emit the primary's class count"
        );
        self.fallback = Some(fallback);
    }

    /// Attaches a circuit breaker with the given thresholds.
    pub fn with_breaker(mut self, cfg: BreakerConfig) -> Self {
        self.breaker = Some(cfg);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interactive_outranks_batch() {
        assert!(Priority::Interactive.rank() < Priority::Batch.rank());
        assert_eq!(Priority::Interactive.name(), "interactive");
        assert_eq!(
            sb_json::to_string(&Priority::Batch).expect("serialize"),
            "\"Batch\""
        );
    }

    #[test]
    fn policy_round_trips_with_and_without_quota() {
        let plain = TenantPolicy::default();
        let text = sb_json::to_string(&plain).expect("serialize");
        assert!(text.contains("\"quota\":null"));
        assert_eq!(
            sb_json::from_str::<TenantPolicy>(&text).expect("parse"),
            plain
        );
        // Pre-quota policies (no `quota` key at all) still deserialize.
        let legacy: TenantPolicy =
            sb_json::from_str(r#"{"max_batch":4,"max_wait_us":100,"queue_cap":8}"#)
                .expect("legacy policy parses");
        assert_eq!(legacy.quota, None);
        let quotad = TenantPolicy {
            quota: Some(TenantQuota {
                rate_per_s: 1_500,
                burst: 8,
            }),
            ..TenantPolicy::default()
        };
        let text = sb_json::to_string(&quotad).expect("serialize");
        assert!(text.contains("\"rate_per_s\":1500"));
        assert_eq!(
            sb_json::from_str::<TenantPolicy>(&text).expect("parse"),
            quotad
        );
    }
}
