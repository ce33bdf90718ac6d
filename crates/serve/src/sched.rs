//! The serving core: per-tenant bounded queues and batching policies,
//! weighted fair queueing across tenants, strict priority classes at
//! dequeue, and one shared execution window over a `JobQueue`.
//!
//! [`MultiServer`] is the one implementation of admission, expiry,
//! batching, launch, harvest, retry, breaker and fallback routing.
//! [`Server`](crate::Server) is its one-tenant case: a facade over a
//! `MultiServer` with a single weight-1 [`Priority::Interactive`] tenant,
//! whose picks decide nothing.
//!
//! # Scheduling model
//!
//! ```text
//!            ┌─ tenant A queue ─┐
//! submit ───▶│ (own cap/policy) │──┐  sched:pick   ┌──────────┐
//!            └──────────────────┘  ├──────────────▶│ inflight │──▶ JobQueue
//!            ┌─ tenant B queue ─┐  │  priority,    │ (shared  │      │
//! submit ───▶│                  │──┘  then WFQ     │  window) │   completions
//!            └──────────────────┘                  └──────────┘
//! ```
//!
//! The core is **driver-pumped**: one thread (the load generator, a
//! test, a CLI) submits, pumps, cancels and advances the clock, and every
//! queueing decision happens on that thread at a time it reads from the
//! [`Clock`]. Batch execution is the only concurrent part and is
//! harvested strictly in launch order, so under a
//! [`SimClock`](crate::SimClock) the batch's completion time comes from
//! the engine's service model and the full tagged outcome stream is a
//! pure function of the submitted workload at any `SB_RUNTIME_THREADS`.
//!
//! # Admission policy
//!
//! Admission happens in a fixed order at [`MultiServer::submit`] time:
//! the queues are first swept of dead occupants (expired deadlines,
//! cancellations) so a live request is never shed against a stale
//! "full" queue, then the request passes the drain check, its tenant's
//! token-bucket quota ([`TenantQuota`](crate::TenantQuota), refilled from
//! the [`Clock`] so SimClock runs stay deterministic), the breaker check,
//! the queue cap, and the dead-on-arrival deadline check. The drain
//! check comes before the breaker is polled, so a request refused as
//! `ShuttingDown` never moves a breaker. Quota precedes the cap: a
//! rate-limited tenant is shed with [`RejectReason::QuotaExceeded`]
//! before its burst can pile work into the shared window.
//!
//! # Batching and dequeue policy
//!
//! A tenant is **eligible** when its queue holds a formable batch (its
//! `max_batch` requests, a head that has waited `max_wait_us`, or a
//! drain) and the shared inflight window has a free slot; a full window
//! lets the queues fill until admission sheds with `QueueFull`, which is
//! the backpressure. Among eligible tenants the pick is:
//!
//! 1. **Strict priority** — any eligible [`Priority::Interactive`]
//!    tenant beats every [`Priority::Batch`] tenant;
//! 2. **Earliest deadline first** within the class — when a formable
//!    batch's head carries a deadline, tenants are ordered by earliest
//!    head deadline; deadline-free heads sort after every
//!    deadline-carrying one. Latency targets outrank weight shares
//!    inside a class;
//! 3. **Weighted fair queueing** as the remaining arbiter — each tenant
//!    carries a virtual time that advances by `batch cost / weight` per
//!    launch, where the cost is the engine's [`service_us`] price (for
//!    compiled models, derived from the sb-infer cost model's effective
//!    MACs). The eligible tenant with the smallest virtual time wins;
//!    ties break by tenant index. A tenant waking from idle is floored
//!    to the scheduler's virtual clock so it cannot replay its idle
//!    time as a monopoly burst (start-time fair queueing).
//!
//! Every launch appends a [`PickRecord`] with the eligible set *before*
//! the priority filter and each eligible tenant's head deadline, so
//! fairness, EDF ordering, and non-inversion are externally checkable
//! properties, not implementation trivia.
//!
//! # Failure domains
//!
//! Each tenant is its own failure domain. The batch job is the panic
//! containment boundary: a panicking batch, one whose transient errors
//! outlast the retry budget ([`MultiServer::with_retry`], backoff priced
//! into the virtual completion time), or one whose engine returns the
//! wrong number of predictions resolves every member to
//! [`RejectReason::EngineFailure`] without touching the driver thread or
//! any other tenant's queue. A per-tenant circuit breaker
//! ([`TenantSpec::with_breaker`]) trips on the tenant's own primary
//! error rate. While it is open the tenant's traffic routes to its
//! pruned fallback engine ([`TenantSpec::with_fallback`]) — charged at
//! the *fallback's* WFQ price, so degraded tenants get cheaper batches,
//! not starved ones — or, with no fallback, is shed as
//! [`RejectReason::CircuitOpen`]; half-open probe batches test the
//! primary and re-close the breaker. Injected faults
//! ([`MultiServer::with_faults`]) key off `(tenant, primary batch
//! index)`, so a fault run replays bit-identically at any thread count.
//!
//! [`service_us`]: crate::BatchEngine::service_us

use crate::clock::Clock;
use crate::engine::BatchEngine;
use crate::server::{Completion, Outcome, RejectReason, ServedBy};
use crate::tenant::{Priority, TenantSpec};
use sb_fault::{BreakerState, CircuitBreaker, Fault, FaultPlan, RetryPolicy};
use sb_json::{json_struct, Json, ToJson};
use sb_runtime::{Backoff, JobHandle, JobQueue, JobSpec};
use sb_trace::CounterId;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Fixed-point scale for tenant virtual time (`cost << SHIFT / weight`).
const VTIME_SHIFT: u32 = 16;

/// Micro-tokens per admission. Quota buckets count in millionths of a
/// token so that a refill of `rate_per_s` tokens/second is exactly
/// `rate_per_s` micro-tokens per microsecond — integer-exact under a
/// [`SimClock`](crate::SimClock), no drift, no rounding residue.
const QUOTA_TOKEN: u64 = 1_000_000;

/// The span names one front of the core opens, fixed at construction:
/// the benchmark's per-layer metrics read them, and [`Server`]'s pump
/// path opens none.
///
/// [`Server`]: crate::Server
pub(crate) struct SpanNames {
    /// Around each submit.
    pub(crate) admit: &'static str,
    /// Around each dequeue decision, launching or not.
    pub(crate) pick: Option<&'static str>,
    /// Whether a launch opens `sched:tenant:{name}` around its batch.
    pub(crate) tenant: bool,
    /// Around each batch formation and launch.
    pub(crate) batch: &'static str,
    /// Inside each batch job.
    pub(crate) exec: &'static str,
}

const SCHED_SPANS: SpanNames = SpanNames {
    admit: "sched:admit",
    pick: Some("sched:pick"),
    tenant: true,
    batch: "sched:batch",
    exec: "sched:exec",
};

/// Shared scheduler knobs (per-tenant knobs live in
/// [`TenantPolicy`](crate::TenantPolicy)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Batches allowed to execute concurrently across *all* tenants.
    pub max_inflight: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig { max_inflight: 2 }
    }
}

/// One resolved request, tagged with the tenant it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedCompletion {
    /// Index of the tenant in the order given to [`MultiServer::new`].
    pub tenant: usize,
    /// The underlying resolution (globally unique id, times, outcome).
    pub completion: Completion,
}

impl ToJson for SchedCompletion {
    fn to_json(&self) -> Json {
        let Json::Obj(mut fields) = self.completion.to_json() else {
            unreachable!("Completion serializes to an object");
        };
        fields.insert(0, ("tenant".to_string(), Json::Int(self.tenant as i128)));
        Json::Obj(fields)
    }
}

/// One dequeue decision: which tenant launched, at what priority and
/// cost, and which tenants were eligible at that instant (recorded
/// *before* the priority filter, so inversions would be visible here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PickRecord {
    /// Clock time of the launch.
    pub at_us: u64,
    /// Launched tenant index.
    pub tenant: usize,
    /// Launched tenant's class.
    pub priority: Priority,
    /// All tenants with a formable batch at this instant, ascending.
    pub eligible: Vec<usize>,
    /// Each eligible tenant's queue-head deadline (absolute µs), parallel
    /// to `eligible`. Within a priority class the scheduler serves the
    /// earliest head deadline first, so EDF non-inversion is checkable
    /// from this record alone: the winner's `(rank, deadline)` must be
    /// lexicographically minimal over the eligible set.
    pub head_deadlines: Vec<Option<u64>>,
    /// Samples in the launched batch.
    pub batch_size: usize,
    /// WFQ charge: the virtual price of this batch, µs — the *routed*
    /// engine's price, so a breaker-open tenant on its pruned fallback
    /// is charged the fallback's cheaper rate.
    pub cost_us: u64,
    /// Which engine the batch routed to (fallback while the tenant's
    /// breaker is open or its half-open probe budget is spent).
    pub served_by: ServedBy,
}

json_struct!(serialize_only PickRecord {
    at_us,
    tenant,
    priority,
    eligible,
    head_deadlines,
    batch_size,
    cost_us,
    served_by
});

/// One circuit-breaker state change, tagged with the tenant whose
/// breaker moved (the multi-tenant analogue of
/// [`sb_fault::BreakerTransition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantBreakerEvent {
    /// Index of the tenant whose breaker transitioned.
    pub tenant: usize,
    /// Clock time of the transition, µs.
    pub at_us: u64,
    /// State left.
    pub from: BreakerState,
    /// State entered.
    pub to: BreakerState,
}

json_struct!(serialize_only TenantBreakerEvent {
    tenant,
    at_us,
    from,
    to
});

struct Pending {
    id: u64,
    input: Vec<f32>,
    deadline_us: Option<u64>,
    submitted_us: u64,
    cancelled: bool,
}

struct TenantState {
    spec: TenantSpec,
    queue: VecDeque<Pending>,
    /// WFQ virtual time: served cost / weight, fixed-point.
    vtime: u128,
    /// Total virtual cost launched for this tenant, µs.
    served_cost_us: u64,
    /// Admission-quota bucket level, micro-tokens ([`QUOTA_TOKEN`] per
    /// admit). Starts full; meaningless without a configured quota.
    quota_tokens: u64,
    /// Clock time the bucket was last refilled to.
    quota_refill_us: u64,
    /// Circuit breaker over this tenant's primary-engine outcomes.
    breaker: Option<CircuitBreaker>,
    /// Primary batches launched for this tenant — the fault-plan key,
    /// so fault schedules are per-tenant streams.
    primary_batches: u64,
}

impl TenantState {
    /// Advances the token bucket to `now`. The refill is a pure integer
    /// function of elapsed clock time (`rate_per_s` micro-tokens per
    /// elapsed µs, capped at `burst` whole tokens), so under a virtual
    /// clock quota decisions replay bit-identically.
    fn refill_quota(&mut self, now: u64) {
        let Some(q) = self.spec.policy.quota else {
            return;
        };
        let dt = now.saturating_sub(self.quota_refill_us);
        self.quota_refill_us = now;
        self.quota_tokens = self
            .quota_tokens
            .saturating_add(q.rate_per_s.saturating_mul(dt))
            .min(q.burst.saturating_mul(QUOTA_TOKEN));
    }
}

struct Inflight {
    tenant: usize,
    /// `(id, submitted_us)` per member, batch order.
    members: Vec<(u64, u64)>,
    /// Virtual completion time; authoritative under a virtual clock.
    done_us: u64,
    /// Which engine ran the batch (fallback outcomes never feed the
    /// tenant's breaker).
    served_by: ServedBy,
    /// True when this is a half-open probe of the tenant's primary.
    probe: bool,
    handle: JobHandle<(Vec<usize>, u64)>,
}

/// The multi-model scheduler. See the module docs for the model.
pub struct MultiServer {
    cfg: SchedConfig,
    clock: Arc<dyn Clock>,
    jobs: JobQueue,
    spans: &'static SpanNames,
    tenants: Vec<TenantState>,
    inflight: VecDeque<Inflight>,
    completions: Vec<SchedCompletion>,
    picks: Vec<PickRecord>,
    /// Scheduler virtual clock: floor for tenants waking from idle.
    vnow: u128,
    next_id: u64,
    next_batch: u64,
    draining: bool,
    /// Deterministic fault injection over `(tenant, primary batch)`.
    faults: Option<FaultPlan>,
    /// Retry budget and backoff for transient engine faults.
    retry: RetryPolicy,
}

impl MultiServer {
    /// A scheduler over `tenants` with the given shared window and time
    /// source. Tenant indices in every API are positions in `tenants`.
    ///
    /// # Panics
    ///
    /// Panics on an empty tenant list, a zero weight, a degenerate
    /// policy (zero `max_batch`/`queue_cap`), or a zero-burst quota — a
    /// misconfigured tenant would otherwise silently starve or spin.
    pub fn new(tenants: Vec<TenantSpec>, cfg: SchedConfig, clock: Arc<dyn Clock>) -> Self {
        // Under a virtual clock the runtime's default resolution is
        // exactly right: at 1-thread resolution batches run inline and
        // resolve instantly, which is what makes simulation a pure
        // function of the inputs. Under a wall clock, inline execution
        // would block the *driver* thread for the batch's full wall
        // time — on a small machine that silently turns every open-loop
        // driver into a closed loop and starves admission. Wall-clock
        // schedulers therefore always execute on a dedicated pool, even
        // at 1-thread resolution.
        let jobs = if clock.is_virtual() {
            JobQueue::new()
        } else {
            JobQueue::on(Arc::new(sb_runtime::Pool::new(
                sb_runtime::effective_parallelism().max(2),
            )))
        };
        Self::build(tenants, cfg, clock, jobs, &SCHED_SPANS)
    }

    /// The constructor behind both fronts: `jobs` is where batches run
    /// and `spans` names the spans this front opens.
    pub(crate) fn build(
        tenants: Vec<TenantSpec>,
        cfg: SchedConfig,
        clock: Arc<dyn Clock>,
        jobs: JobQueue,
        spans: &'static SpanNames,
    ) -> Self {
        assert!(!tenants.is_empty(), "need at least one tenant");
        assert!(cfg.max_inflight > 0, "max_inflight must be positive");
        for t in &tenants {
            assert!(t.weight > 0, "tenant {:?}: weight must be positive", t.name);
            assert!(
                t.policy.max_batch > 0,
                "tenant {:?}: max_batch must be positive",
                t.name
            );
            assert!(
                t.policy.queue_cap > 0,
                "tenant {:?}: queue_cap must be positive",
                t.name
            );
            assert!(
                t.policy.quota.is_none_or(|q| q.burst > 0),
                "tenant {:?}: quota burst must be positive",
                t.name
            );
        }
        MultiServer {
            cfg,
            clock,
            jobs,
            spans,
            tenants: tenants
                .into_iter()
                .map(|spec| TenantState {
                    // Quota buckets start full: a fresh tenant may burst.
                    quota_tokens: spec
                        .policy
                        .quota
                        .map_or(0, |q| q.burst.saturating_mul(QUOTA_TOKEN)),
                    breaker: spec.breaker.map(CircuitBreaker::new),
                    spec,
                    queue: VecDeque::new(),
                    vtime: 0,
                    served_cost_us: 0,
                    quota_refill_us: 0,
                    primary_batches: 0,
                })
                .collect(),
            inflight: VecDeque::new(),
            completions: Vec::new(),
            picks: Vec::new(),
            vnow: 0,
            next_id: 0,
            next_batch: 0,
            draining: false,
            faults: None,
            retry: RetryPolicy::none(),
        }
    }

    /// Injects deterministic faults into primary batch execution: the
    /// plan is keyed by `(tenant index, tenant's primary batch index)`,
    /// so each tenant sees its own reproducible fault stream and
    /// fallback batches are never faulted.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Bounded retry for transient engine faults, shared by all
    /// tenants. Backoff is charged into the batch's virtual completion
    /// time, so retries stay deterministic under a virtual clock.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        assert!(retry.max_attempts >= 1, "retry needs at least one attempt");
        self.retry = retry;
        self
    }

    /// Edits a tenant's spec before any traffic and re-arms its breaker
    /// from it ([`Server`](crate::Server)'s builders).
    pub(crate) fn respec(&mut self, tenant: usize, edit: impl FnOnce(&mut TenantSpec)) {
        let t = &mut self.tenants[tenant];
        edit(&mut t.spec);
        t.breaker = t.spec.breaker.map(CircuitBreaker::new);
    }

    /// A tenant's breaker state; `None` when the tenant has no breaker.
    pub fn breaker_state(&self, tenant: usize) -> Option<BreakerState> {
        self.tenants[tenant].breaker.as_ref().map(|b| b.state())
    }

    /// Drains every tenant's recorded breaker transitions as one
    /// tenant-tagged stream, ordered by time (ties by tenant index).
    pub fn take_breaker_events(&mut self) -> Vec<TenantBreakerEvent> {
        let mut out: Vec<TenantBreakerEvent> = Vec::new();
        for (ti, t) in self.tenants.iter_mut().enumerate() {
            if let Some(b) = t.breaker.as_mut() {
                out.extend(b.take_transitions().into_iter().map(|tr| {
                    TenantBreakerEvent {
                        tenant: ti,
                        at_us: tr.at_us,
                        from: tr.from,
                        to: tr.to,
                    }
                }));
            }
        }
        out.sort_by_key(|e| (e.at_us, e.tenant));
        out
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The spec a tenant was created with.
    pub fn tenant(&self, tenant: usize) -> &TenantSpec {
        &self.tenants[tenant].spec
    }

    /// Total virtual cost (µs) launched for a tenant so far.
    pub fn served_cost_us(&self, tenant: usize) -> u64 {
        self.tenants[tenant].served_cost_us
    }

    /// Admits (or rejects) one single-sample request for `tenant`.
    /// Returns a globally unique id; the resolution arrives later via
    /// [`MultiServer::take_completions`]. `deadline_us` is the absolute
    /// clock time by which execution must have started.
    ///
    /// # Panics
    ///
    /// Panics on an unknown tenant or an input that is not exactly one
    /// engine sample long.
    pub fn submit(&mut self, tenant: usize, input: Vec<f32>, deadline_us: Option<u64>) -> u64 {
        assert!(tenant < self.tenants.len(), "unknown tenant {tenant}");
        assert_eq!(
            input.len(),
            self.tenants[tenant].spec.engine.sample_len(),
            "request sample length for tenant {:?}",
            self.tenants[tenant].spec.name
        );
        let _admit = sb_trace::span(self.spans.admit);
        let now = self.clock.now_us();
        // Sweep dead occupants *before* the admission decision: entries
        // whose deadline has passed (or that were cancelled) since the
        // last pump are not load, and counting them against `queue_cap`
        // would shed a live request while every occupant of the "full"
        // queue is already dead.
        self.expire(now);
        let id = self.next_id;
        self.next_id += 1;
        let t = &mut self.tenants[tenant];
        t.refill_quota(now);
        let has_quota = t.spec.policy.quota.is_some();
        let reject = if self.draining {
            Some(RejectReason::ShuttingDown)
        } else {
            // Admission-time breaker check: with the tenant's breaker
            // open and no fallback to degrade onto, new work is shed at
            // the door rather than queued toward a known-failing engine.
            // It is polled only past the drain check, so a `ShuttingDown`
            // refusal never moves the breaker.
            let shed_open = t.spec.fallback.is_none()
                && t.breaker
                    .as_mut()
                    .is_some_and(|b| b.poll(now) == BreakerState::Open);
            if has_quota && t.quota_tokens < QUOTA_TOKEN {
                Some(RejectReason::QuotaExceeded)
            } else if shed_open {
                Some(RejectReason::CircuitOpen)
            } else if t.queue.len() >= t.spec.policy.queue_cap {
                Some(RejectReason::QueueFull)
            } else if deadline_us.is_some_and(|d| d <= now) {
                Some(RejectReason::DeadlineExpired)
            } else {
                None
            }
        };
        match reject {
            Some(reason) => {
                sb_trace::add(CounterId::RequestsRejected, 1);
                self.completions.push(SchedCompletion {
                    tenant,
                    completion: Completion {
                        id,
                        submitted_us: now,
                        done_us: now,
                        outcome: Outcome::Rejected { reason },
                    },
                });
            }
            None => {
                sb_trace::add(CounterId::RequestsAdmitted, 1);
                // Tokens are spent on *admissions* only; a shed request
                // never burns quota, so the conformance bound
                // `admits ≤ burst + rate·t` is exact.
                if has_quota {
                    t.quota_tokens -= QUOTA_TOKEN;
                }
                let was_idle = t.queue.is_empty();
                t.queue.push_back(Pending {
                    id,
                    input,
                    deadline_us,
                    submitted_us: now,
                    cancelled: false,
                });
                if was_idle {
                    // Start-time fair queueing: a waking tenant resumes
                    // at the scheduler's virtual clock, not at the stale
                    // vtime it parked with — idle time is not credit.
                    t.vtime = t.vtime.max(self.vnow);
                }
            }
        }
        self.advance();
        id
    }

    /// Cancels a request that is still queued in any tenant. Returns
    /// true if it was found (it then resolves
    /// [`RejectReason::Cancelled`]); false if it already left its queue,
    /// in which case its original resolution stands.
    pub fn cancel(&mut self, id: u64) -> bool {
        let found = self
            .tenants
            .iter_mut()
            .flat_map(|t| t.queue.iter_mut())
            .find(|p| p.id == id);
        let Some(p) = found else {
            return false;
        };
        p.cancelled = true;
        self.advance();
        true
    }

    /// Drives the scheduler one step at the current clock time.
    pub fn pump(&mut self) {
        self.advance();
    }

    /// Stops admitting new work and flushes every tenant queue as the
    /// shared window frees up.
    pub fn begin_drain(&mut self) {
        self.draining = true;
        self.advance();
    }

    /// True when every queue is empty and nothing is executing.
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty() && self.tenants.iter().all(|t| t.queue.is_empty())
    }

    /// Requests waiting in one tenant's queue.
    pub fn queue_len(&self, tenant: usize) -> usize {
        self.tenants[tenant].queue.len()
    }

    /// Batches currently executing across all tenants.
    pub fn inflight_batches(&self) -> usize {
        self.inflight.len()
    }

    /// Drains accumulated resolutions, in resolution order.
    pub fn take_completions(&mut self) -> Vec<SchedCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Drains the dequeue-decision log, in launch order.
    pub fn take_picks(&mut self) -> Vec<PickRecord> {
        std::mem::take(&mut self.picks)
    }

    /// The next virtual time at which [`MultiServer::pump`] could make
    /// progress (None when idle): the front in-flight batch's completion,
    /// a queue head's batch timeout while the window has room, or the
    /// earliest queued deadline. Virtual-clock drivers advance the
    /// `SimClock` to this and pump; wall-clock drivers can ignore it.
    pub fn next_event_us(&self) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            next = Some(next.map_or(t, |n| n.min(t)));
        };
        if let Some(front) = self.inflight.front() {
            consider(front.done_us);
        }
        let window_free = self.inflight.len() < self.cfg.max_inflight;
        for t in &self.tenants {
            if let Some(head) = t.queue.front() {
                if window_free {
                    consider(head.submitted_us.saturating_add(t.spec.policy.max_wait_us));
                }
            }
            for p in &t.queue {
                if let Some(d) = p.deadline_us {
                    consider(d);
                }
            }
        }
        next
    }

    /// Drains and blocks until idle under a wall clock, returning every
    /// accumulated resolution.
    ///
    /// # Panics
    ///
    /// Panics under a virtual clock — sim drivers must advance time
    /// themselves (see `sb_sched::drain_multi_sim`).
    pub fn drain_wall(&mut self) -> Vec<SchedCompletion> {
        assert!(
            !self.clock.is_virtual(),
            "drain_wall requires a wall clock; drive virtual schedulers to idle explicitly"
        );
        self.begin_drain();
        while !self.is_idle() {
            self.advance();
            if let Some(batch) = self.inflight.pop_front() {
                self.harvest_one(batch);
            }
        }
        self.take_completions()
    }

    // --- internals ----------------------------------------------------

    fn advance(&mut self) {
        let now = self.clock.now_us();
        self.harvest(now);
        self.expire(now);
        while self.inflight.len() < self.cfg.max_inflight {
            if !self.pick_and_launch(now) {
                break;
            }
            self.harvest(now); // inline jobs (1 thread) finish instantly
        }
    }

    /// Resolves finished batches, strictly in launch order.
    fn harvest(&mut self, now: u64) {
        loop {
            let done = match self.inflight.front() {
                None => break,
                Some(front) => {
                    if self.clock.is_virtual() {
                        front.done_us <= now
                    } else {
                        front.handle.is_finished()
                    }
                }
            };
            if !done {
                break;
            }
            let batch = self.inflight.pop_front().expect("front exists");
            self.harvest_one(batch);
        }
    }

    /// Resolves one finished batch. The batch job is the panic
    /// containment boundary: the `JobQueue` catches panics and surfaces
    /// them as errors here, and a failed batch resolves every member to
    /// [`RejectReason::EngineFailure`] — the driver thread, the other
    /// tenants, and the exactly-once ledger survive any engine fault.
    fn harvest_one(&mut self, batch: Inflight) {
        let virtual_done = batch.done_us;
        let size = batch.members.len();
        let result = batch.handle.join();
        let done_us = match &result {
            _ if self.clock.is_virtual() => virtual_done,
            Ok((_, finished_us)) => *finished_us,
            Err(_) => self.clock.now_us(),
        };
        // Only primary outcomes feed the tenant's breaker: the fallback
        // serving well says nothing about primary recovery.
        if batch.served_by == ServedBy::Primary {
            if let Some(b) = self.tenants[batch.tenant].breaker.as_mut() {
                if batch.probe {
                    b.record_probe(done_us, result.is_ok());
                } else {
                    b.record(done_us, result.is_ok());
                }
            }
        }
        match result {
            Ok((preds, _)) => {
                for ((id, submitted_us), predicted) in batch.members.into_iter().zip(preds) {
                    self.completions.push(SchedCompletion {
                        tenant: batch.tenant,
                        completion: Completion {
                            id,
                            submitted_us,
                            done_us,
                            outcome: Outcome::Completed {
                                predicted,
                                batch_size: size,
                                served_by: batch.served_by,
                            },
                        },
                    });
                }
            }
            Err(_) => {
                sb_trace::add(CounterId::RequestsRejected, size as u64);
                for (id, submitted_us) in batch.members {
                    self.completions.push(SchedCompletion {
                        tenant: batch.tenant,
                        completion: Completion {
                            id,
                            submitted_us,
                            done_us,
                            outcome: Outcome::Rejected {
                                reason: RejectReason::EngineFailure,
                            },
                        },
                    });
                }
            }
        }
    }

    /// Dequeue-time policy: drops cancelled and deadline-expired
    /// requests from every tenant queue.
    fn expire(&mut self, now: u64) {
        for (ti, t) in self.tenants.iter_mut().enumerate() {
            if t.queue
                .iter()
                .all(|p| !p.cancelled && p.deadline_us.is_none_or(|d| d > now))
            {
                continue;
            }
            let mut kept = VecDeque::with_capacity(t.queue.len());
            for p in t.queue.drain(..) {
                let reason = if p.cancelled {
                    Some(RejectReason::Cancelled)
                } else if p.deadline_us.is_some_and(|d| d <= now) {
                    Some(RejectReason::DeadlineExpired)
                } else {
                    None
                };
                match reason {
                    None => kept.push_back(p),
                    Some(reason) => {
                        sb_trace::add(CounterId::RequestsRejected, 1);
                        self.completions.push(SchedCompletion {
                            tenant: ti,
                            completion: Completion {
                                id: p.id,
                                submitted_us: p.submitted_us,
                                done_us: now,
                                outcome: Outcome::Rejected { reason },
                            },
                        });
                    }
                }
            }
            t.queue = kept;
        }
    }

    fn is_eligible(&self, t: &TenantState, now: u64) -> bool {
        if t.queue.is_empty() {
            return false;
        }
        self.draining
            || t.queue.len() >= t.spec.policy.max_batch
            || now.saturating_sub(t.queue[0].submitted_us) >= t.spec.policy.max_wait_us
    }

    /// One dequeue decision: strict priority, then earliest head
    /// deadline within the class (deadline-free heads last), then min
    /// virtual time, then lowest index. Returns false when no tenant is
    /// eligible.
    fn pick_and_launch(&mut self, now: u64) -> bool {
        let _pick = self.spans.pick.map(sb_trace::span);
        let eligible: Vec<usize> = (0..self.tenants.len())
            .filter(|&i| self.is_eligible(&self.tenants[i], now))
            .collect();
        let head_deadlines: Vec<Option<u64>> = eligible
            .iter()
            .map(|&i| self.tenants[i].queue.front().and_then(|p| p.deadline_us))
            .collect();
        let Some(winner) = eligible
            .iter()
            .zip(&head_deadlines)
            .min_by_key(|&(&i, head)| {
                let t = &self.tenants[i];
                (
                    t.spec.priority.rank(),
                    head.unwrap_or(u64::MAX),
                    t.vtime,
                    i,
                )
            })
            .map(|(&i, _)| i)
        else {
            return false;
        };
        self.launch(winner, eligible, head_deadlines, now);
        true
    }

    /// Closes one batch off `tenant`'s queue head, charges its virtual
    /// time, and submits the batch to the shared pool.
    fn launch(
        &mut self,
        tenant: usize,
        eligible: Vec<usize>,
        head_deadlines: Vec<Option<u64>>,
        now: u64,
    ) {
        let name = &self.tenants[tenant].spec.name;
        let _tenant_span =
            (self.spans.tenant).then(|| sb_trace::span_with(|| format!("sched:tenant:{name}")));
        let _batch_span = sb_trace::span(self.spans.batch);
        let (members, inputs) = {
            let t = &mut self.tenants[tenant];
            let take = t.queue.len().min(t.spec.policy.max_batch);
            let mut members = Vec::with_capacity(take);
            let mut inputs = Vec::with_capacity(take * t.spec.engine.sample_len());
            let mut shed: Vec<(u64, u64, RejectReason)> = Vec::new();
            for _ in 0..take {
                let p = t.queue.pop_front().expect("len checked");
                // Execution-time re-check: a request can expire or be
                // cancelled between the sweep and batch formation.
                let reason = if p.cancelled {
                    Some(RejectReason::Cancelled)
                } else if p.deadline_us.is_some_and(|d| d <= now) {
                    Some(RejectReason::DeadlineExpired)
                } else {
                    None
                };
                if let Some(reason) = reason {
                    shed.push((p.id, p.submitted_us, reason));
                    continue;
                }
                members.push((p.id, p.submitted_us));
                inputs.extend_from_slice(&p.input);
            }
            for (id, submitted_us, reason) in shed {
                sb_trace::add(CounterId::RequestsRejected, 1);
                self.completions.push(SchedCompletion {
                    tenant,
                    completion: Completion {
                        id,
                        submitted_us,
                        done_us: now,
                        outcome: Outcome::Rejected { reason },
                    },
                });
            }
            (members, inputs)
        };
        if members.is_empty() {
            return;
        }

        // Route through the tenant's breaker: closed → primary, open →
        // fallback (or shed), half-open → a bounded number of primary
        // probes with the rest on the fallback path.
        let state = match self.tenants[tenant].breaker.as_mut() {
            Some(b) => b.poll(now),
            None => BreakerState::Closed,
        };
        let has_fallback = self.tenants[tenant].spec.fallback.is_some();
        let (served_by, probe) = match state {
            BreakerState::Closed => (ServedBy::Primary, false),
            BreakerState::HalfOpen => {
                let probing = self.tenants[tenant]
                    .breaker
                    .as_mut()
                    .expect("state implies breaker")
                    .try_probe();
                if probing {
                    (ServedBy::Primary, true)
                } else if has_fallback {
                    (ServedBy::Fallback, false)
                } else {
                    self.shed_members(tenant, members, now, RejectReason::CircuitOpen);
                    return;
                }
            }
            BreakerState::Open => {
                if has_fallback {
                    (ServedBy::Fallback, false)
                } else {
                    self.shed_members(tenant, members, now, RejectReason::CircuitOpen);
                    return;
                }
            }
        };
        let t = &mut self.tenants[tenant];
        let engine: Arc<dyn BatchEngine> = match served_by {
            ServedBy::Primary => Arc::clone(&t.spec.engine),
            ServedBy::Fallback => {
                Arc::clone(t.spec.fallback.as_ref().expect("fallback routing checked"))
            }
        };
        // Faults hit primary batches only, keyed per tenant.
        let fault = match served_by {
            ServedBy::Primary => {
                let idx = t.primary_batches;
                t.primary_batches += 1;
                self.faults
                    .map_or(Fault::None, |plan| plan.fault_for(tenant as u64, idx))
            }
            ServedBy::Fallback => Fault::None,
        };
        let n = members.len();
        let cost_us = engine.service_us(n);
        // WFQ accounting: the scheduler's virtual clock is the winner's
        // start tag; the winner is then charged cost/weight — at the
        // routed engine's price, so degraded traffic on a cheap pruned
        // fallback is charged the fallback rate.
        self.vnow = self.vnow.max(t.vtime);
        t.vtime += ((cost_us as u128) << VTIME_SHIFT) / t.spec.weight as u128;
        t.served_cost_us += cost_us;
        self.picks.push(PickRecord {
            at_us: now,
            tenant,
            priority: t.spec.priority,
            eligible,
            head_deadlines,
            batch_size: n,
            cost_us,
            served_by,
        });
        sb_trace::add(CounterId::BatchesExecuted, 1);
        sb_trace::add(CounterId::BatchOccupancy, n as u64);
        let clock = Arc::clone(&self.clock);
        let seq = self.next_batch;
        self.next_batch += 1;
        // Virtual completion prices the fault in: a slow batch takes
        // factor× the service time; a transient failure pays one service
        // time per attempt plus the backoff waits between them.
        let done_us = match fault {
            Fault::None | Fault::Panic => now.saturating_add(cost_us),
            Fault::Slow { factor } => now.saturating_add(cost_us.saturating_mul(factor as u64)),
            Fault::Transient { failing_attempts } => {
                let attempts = (failing_attempts + 1).min(self.retry.max_attempts);
                now.saturating_add(cost_us.saturating_mul(attempts as u64))
                    .saturating_add(self.retry.backoff.total_delay_us(attempts - 1))
            }
        };
        // One label for every batch job, so traces aggregate them on
        // one path; the sequence number stays in the fault messages.
        let mut spec = JobSpec::new().label("batch");
        if matches!(fault, Fault::Transient { .. }) && self.retry.max_attempts > 1 {
            spec = spec.retries(self.retry.max_attempts - 1);
            // Real inter-attempt sleeps only make sense on a wall
            // clock; under a virtual clock the backoff is already
            // charged into `done_us` and sleeping would just stall the
            // pool worker at wall speed.
            if !self.clock.is_virtual() {
                let b = self.retry.backoff;
                spec = spec.backoff(Backoff {
                    base: Duration::from_micros(b.base_us),
                    multiplier: b.multiplier,
                    max_delay: Duration::from_micros(b.max_delay_us),
                });
            }
        }
        let exec = self.spans.exec;
        let handle = self.jobs.submit(spec, move |ctx| {
            let _exec = sb_trace::span(exec);
            match fault {
                Fault::Panic => panic!("injected engine panic (batch {seq})"),
                Fault::Transient { failing_attempts } if ctx.attempt() <= failing_attempts => {
                    Err(format!("injected transient engine fault (batch {seq})"))
                }
                _ => {
                    let preds = engine.run_batch(&inputs, n);
                    if preds.len() != n {
                        // Checked here, so that every member resolves
                        // as a failure and the breaker sees one.
                        return Err(format!(
                            "engine returned {} predictions for {n} samples (batch {seq})",
                            preds.len()
                        ));
                    }
                    Ok((preds, clock.now_us()))
                }
            }
        });
        self.inflight.push_back(Inflight {
            tenant,
            members,
            done_us,
            served_by,
            probe,
            handle,
        });
    }

    /// Resolves a formed-but-unlaunchable batch's members (breaker open
    /// with no fallback and no probe budget).
    fn shed_members(
        &mut self,
        tenant: usize,
        members: Vec<(u64, u64)>,
        now: u64,
        reason: RejectReason,
    ) {
        sb_trace::add(CounterId::RequestsRejected, members.len() as u64);
        for (id, submitted_us) in members {
            self.completions.push(SchedCompletion {
                tenant,
                completion: Completion {
                    id,
                    submitted_us,
                    done_us: now,
                    outcome: Outcome::Rejected { reason },
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{TenantPolicy, TenantQuota};
    use crate::{EchoEngine, ServiceModel, SimClock};
    use sb_fault::{BreakerConfig, FaultSpec};

    fn echo(service: ServiceModel) -> Arc<dyn BatchEngine> {
        Arc::new(EchoEngine::new(1, 10, service))
    }

    fn two_tenant_server(
        weights: (u64, u64),
        prios: (Priority, Priority),
        max_inflight: usize,
    ) -> (MultiServer, Arc<SimClock>) {
        let clock = Arc::new(SimClock::new());
        let service = ServiceModel {
            base_us: 100,
            per_sample_us: 10,
        };
        let policy = TenantPolicy {
            max_batch: 4,
            max_wait_us: 0,
            queue_cap: 64,
            quota: None,
        };
        let tenants = vec![
            TenantSpec::new("a", weights.0, prios.0, policy, echo(service)),
            TenantSpec::new("b", weights.1, prios.1, policy, echo(service)),
        ];
        let ms = MultiServer::new(tenants, SchedConfig { max_inflight }, clock.clone());
        (ms, clock)
    }

    fn run_to_idle(ms: &mut MultiServer, clock: &SimClock) -> Vec<SchedCompletion> {
        let mut out = ms.take_completions();
        ms.begin_drain();
        out.append(&mut ms.take_completions());
        while !ms.is_idle() {
            let ev = ms.next_event_us().expect("non-idle has an event");
            clock.advance_to(ev);
            ms.pump();
            out.append(&mut ms.take_completions());
        }
        out
    }

    #[test]
    fn every_submit_resolves_exactly_once_with_tenant_tag() {
        let (mut ms, clock) = two_tenant_server(
            (1, 1),
            (Priority::Interactive, Priority::Interactive),
            1,
        );
        for i in 0..10 {
            ms.submit(i % 2, vec![i as f32], None);
        }
        let done = run_to_idle(&mut ms, &clock);
        assert_eq!(done.len(), 10);
        let mut ids: Vec<u64> = done.iter().map(|c| c.completion.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10, "globally unique ids");
        for c in &done {
            assert_eq!(c.tenant, (c.completion.id % 2) as usize, "tenant tag");
        }
    }

    #[test]
    fn wfq_shares_track_weights_on_a_saturated_window() {
        // Tenant a has weight 3, b weight 1; both permanently backlogged
        // with identical costs → a should launch ~3x the cost of b.
        let (mut ms, clock) = two_tenant_server(
            (3, 1),
            (Priority::Interactive, Priority::Interactive),
            1,
        );
        for i in 0..400 {
            ms.submit(i % 2, vec![i as f32], None);
            if i % 8 == 7 {
                // Let some service happen so the queues stay inside cap.
                let ev = ms.next_event_us().expect("busy");
                clock.advance_to(ev);
                ms.pump();
            }
        }
        run_to_idle(&mut ms, &clock);
        let picks = ms.take_picks();
        // Ignore the drain tail (everything left is flushed regardless
        // of weights); count only picks where both tenants were eligible.
        let contested: Vec<&PickRecord> =
            picks.iter().filter(|p| p.eligible.len() == 2).collect();
        assert!(contested.len() >= 20, "saturation produced contested picks");
        let cost: [u64; 2] = contested.iter().fold([0, 0], |mut acc, p| {
            acc[p.tenant] += p.cost_us;
            acc
        });
        let share = cost[0] as f64 / (cost[0] + cost[1]) as f64;
        assert!(
            (share - 0.75).abs() < 0.10,
            "weight-3 tenant served {share:.3} of contested cost, want ~0.75"
        );
    }

    #[test]
    fn cost_charging_protects_the_cheap_tenant() {
        // Equal weights, tenant b 8x cheaper per sample: b must win ~8x
        // the launches even though every batch is the same size.
        let clock = Arc::new(SimClock::new());
        let policy = TenantPolicy {
            max_batch: 4,
            max_wait_us: 0,
            queue_cap: 64,
            quota: None,
        };
        let expensive = ServiceModel {
            base_us: 0,
            per_sample_us: 80,
        };
        let cheap = ServiceModel {
            base_us: 0,
            per_sample_us: 10,
        };
        let tenants = vec![
            TenantSpec::new("dense", 1, Priority::Interactive, policy, echo(expensive)),
            TenantSpec::new("csr16", 1, Priority::Interactive, policy, echo(cheap)),
        ];
        let mut ms = MultiServer::new(tenants, SchedConfig { max_inflight: 1 }, clock.clone());
        for i in 0..320 {
            ms.submit(i % 2, vec![i as f32], None);
            if i % 8 == 7 {
                let ev = ms.next_event_us().expect("busy");
                clock.advance_to(ev);
                ms.pump();
            }
        }
        run_to_idle(&mut ms, &clock);
        let picks = ms.take_picks();
        let contested: Vec<&PickRecord> =
            picks.iter().filter(|p| p.eligible.len() == 2).collect();
        let batches: [u64; 2] = contested.iter().fold([0, 0], |mut acc, p| {
            acc[p.tenant] += 1;
            acc
        });
        assert!(
            batches[1] >= 4 * batches[0],
            "cheap tenant won {} contested launches vs dense {}, want >=4x",
            batches[1],
            batches[0]
        );
        let cost: [u64; 2] = contested.iter().fold([0, 0], |mut acc, p| {
            acc[p.tenant] += p.cost_us;
            acc
        });
        let share = cost[0] as f64 / (cost[0] + cost[1]) as f64;
        assert!(
            (share - 0.5).abs() < 0.10,
            "equal weights split contested cost evenly, got {share:.3}"
        );
    }

    #[test]
    fn interactive_strictly_preempts_batch_at_dequeue() {
        let (mut ms, clock) =
            two_tenant_server((1, 1), (Priority::Batch, Priority::Interactive), 1);
        for i in 0..40 {
            ms.submit(i % 2, vec![i as f32], None);
        }
        run_to_idle(&mut ms, &clock);
        let picks = ms.take_picks();
        for p in &picks {
            let best = p
                .eligible
                .iter()
                .map(|&i| ms.tenant(i).priority.rank())
                .min()
                .expect("eligible set includes the winner");
            assert_eq!(
                p.priority.rank(),
                best,
                "launched {:?} while a stricter class was eligible",
                p.priority
            );
        }
        // The interactive tenant must actually have been contested.
        assert!(picks
            .iter()
            .any(|p| p.eligible.len() == 2 && p.priority == Priority::Interactive));
    }

    #[test]
    fn waking_tenant_is_floored_to_the_virtual_clock() {
        // Tenant b idles while a is served heavily; when b wakes it must
        // not monopolize the pool to "catch up" its idle time.
        let (mut ms, clock) = two_tenant_server(
            (1, 1),
            (Priority::Interactive, Priority::Interactive),
            1,
        );
        for i in 0..80 {
            ms.submit(0, vec![i as f32], None);
            // Pump rarely enough that a stays backlogged while its
            // served cost (and so the virtual clock) keeps advancing.
            if i % 8 == 7 {
                let ev = ms.next_event_us().expect("busy");
                clock.advance_to(ev);
                ms.pump();
            }
        }
        // b wakes with a still backlogged.
        for i in 0..40 {
            ms.submit(1, vec![i as f32], None);
        }
        run_to_idle(&mut ms, &clock);
        let picks = ms.take_picks();
        // After b's wake-up, contested picks should alternate rather
        // than run a long all-b burst: no window of 8 consecutive
        // contested picks is all-b.
        let contested: Vec<usize> = picks
            .iter()
            .filter(|p| p.eligible.len() == 2)
            .map(|p| p.tenant)
            .collect();
        assert!(contested.len() >= 8, "wake-up produced contested picks");
        assert!(
            !contested.windows(8).any(|w| w.iter().all(|&t| t == 1)),
            "waking tenant monopolized the pool: {contested:?}"
        );
    }

    #[test]
    fn per_tenant_policies_apply_independently() {
        let clock = Arc::new(SimClock::new());
        let service = ServiceModel {
            base_us: 100,
            per_sample_us: 10,
        };
        let tenants = vec![
            TenantSpec::new(
                "small-queue",
                1,
                Priority::Interactive,
                TenantPolicy {
                    max_batch: 2,
                    max_wait_us: 10_000,
                    queue_cap: 2,
                    quota: None,
                },
                echo(service),
            ),
            TenantSpec::new(
                "wide",
                1,
                Priority::Interactive,
                TenantPolicy {
                    max_batch: 8,
                    max_wait_us: 10_000,
                    queue_cap: 64,
                    quota: None,
                },
                echo(service),
            ),
        ];
        let mut ms = MultiServer::new(tenants, SchedConfig { max_inflight: 1 }, clock.clone());
        // Tenant 0: fill the 2-slot queue past its cap while a batch of
        // its own occupies the window.
        ms.submit(0, vec![0.0], None);
        ms.submit(0, vec![1.0], None); // full batch -> inflight
        ms.submit(0, vec![2.0], None);
        ms.submit(0, vec![3.0], None); // queue at cap
        let shed = ms.submit(0, vec![4.0], None);
        // Tenant 1 still admits freely.
        let ok = ms.submit(1, vec![5.0], None);
        let done = ms.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].completion.id, shed);
        assert_eq!(
            done[0].completion.outcome,
            Outcome::Rejected {
                reason: RejectReason::QueueFull
            }
        );
        let rest = run_to_idle(&mut ms, &clock);
        assert!(rest
            .iter()
            .any(|c| c.completion.id == ok && c.completion.is_completed()));
        // Tenant 1's lone request rode a batch of 1 (its own policy
        // window, not tenant 0's).
        let c = rest
            .iter()
            .find(|c| c.completion.id == ok)
            .expect("resolved");
        assert_eq!(
            c.completion.outcome,
            Outcome::Completed {
                predicted: 5,
                batch_size: 1,
                served_by: ServedBy::Primary
            }
        );
    }

    #[test]
    fn quota_sheds_at_the_configured_rate_and_refills_with_the_clock() {
        let clock = Arc::new(SimClock::new());
        let service = ServiceModel {
            base_us: 100,
            per_sample_us: 10,
        };
        let tenants = vec![TenantSpec::new(
            "limited",
            1,
            Priority::Interactive,
            TenantPolicy {
                max_batch: 8,
                max_wait_us: 100_000,
                queue_cap: 64,
                quota: Some(TenantQuota {
                    rate_per_s: 1_000,
                    burst: 2,
                }),
            },
            echo(service),
        )];
        let mut ms = MultiServer::new(tenants, SchedConfig { max_inflight: 1 }, clock.clone());
        // Bucket starts full at `burst`: two admits, then sheds.
        ms.submit(0, vec![0.0], None);
        ms.submit(0, vec![1.0], None);
        let shed = ms.submit(0, vec![2.0], None);
        assert_eq!(ms.queue_len(0), 2, "quota shed never reaches the queue");
        // 1000 admits/s refills exactly one token per 1000 µs.
        clock.advance_to(1_000);
        ms.submit(0, vec![3.0], None);
        let shed_again = ms.submit(0, vec![4.0], None);
        let done = ms.take_completions();
        let rejected: Vec<u64> = done
            .iter()
            .filter(|c| {
                c.completion.outcome
                    == Outcome::Rejected {
                        reason: RejectReason::QuotaExceeded,
                    }
            })
            .map(|c| c.completion.id)
            .collect();
        assert_eq!(rejected, vec![shed, shed_again]);
        assert_eq!(ms.queue_len(0), 3, "refilled token admitted one more");
    }

    #[test]
    fn edf_outranks_vtime_within_a_class() {
        // Tenant 0 already carries served cost (high vtime); tenant 1 is
        // fresh (vtime 0). WFQ alone would pick 1, but 0's queue head has
        // the earlier deadline, so EDF must pick 0 first.
        let (mut ms, clock) = two_tenant_server(
            (1, 1),
            (Priority::Interactive, Priority::Interactive),
            1,
        );
        ms.submit(0, vec![0.0], None); // launches, charges tenant 0's vtime
        ms.submit(0, vec![1.0], Some(2_000)); // queued: window is full
        ms.submit(1, vec![2.0], Some(9_000));
        let ev = ms.next_event_us().expect("batch inflight");
        clock.advance_to(ev);
        ms.pump();
        run_to_idle(&mut ms, &clock);
        let picks = ms.take_picks();
        assert_eq!(picks.len(), 3);
        let contested = &picks[1];
        assert_eq!(contested.eligible, vec![0, 1]);
        assert_eq!(contested.head_deadlines, vec![Some(2_000), Some(9_000)]);
        assert_eq!(
            contested.tenant, 0,
            "earlier head deadline must beat lower vtime"
        );
        assert_eq!(picks[2].tenant, 1);
    }

    #[test]
    fn deadline_free_heads_sort_after_deadline_carrying_ones() {
        // Same shape, but tenant 1's request has no deadline at all: a
        // deadline-carrying head beats a deadline-free one regardless of
        // virtual times.
        let (mut ms, clock) = two_tenant_server(
            (1, 1),
            (Priority::Interactive, Priority::Interactive),
            1,
        );
        ms.submit(0, vec![0.0], None);
        ms.submit(0, vec![1.0], Some(5_000));
        ms.submit(1, vec![2.0], None);
        let ev = ms.next_event_us().expect("batch inflight");
        clock.advance_to(ev);
        ms.pump();
        run_to_idle(&mut ms, &clock);
        let picks = ms.take_picks();
        let contested = picks
            .iter()
            .find(|p| p.eligible.len() == 2)
            .expect("contested pick");
        assert_eq!(contested.head_deadlines, vec![Some(5_000), None]);
        assert_eq!(contested.tenant, 0);
    }

    #[test]
    fn submit_sweeps_expired_entries_before_the_cap_check() {
        // Regression: fill the queue with short-deadline requests, let
        // them all expire without pumping, then submit a live one — it
        // must be admitted, not shed against a queue of dead entries.
        let clock = Arc::new(SimClock::new());
        let service = ServiceModel {
            base_us: 100,
            per_sample_us: 10,
        };
        let tenants = vec![TenantSpec::new(
            "t",
            1,
            Priority::Interactive,
            TenantPolicy {
                max_batch: 8,
                max_wait_us: 100_000,
                queue_cap: 4,
                quota: None,
            },
            echo(service),
        )];
        let mut ms = MultiServer::new(tenants, SchedConfig { max_inflight: 1 }, clock.clone());
        for i in 0..4 {
            ms.submit(0, vec![i as f32], Some(500));
        }
        assert_eq!(ms.queue_len(0), 4, "queue at cap");
        clock.advance_to(1_000); // every queued deadline passes
        let live = ms.submit(0, vec![9.0], Some(50_000));
        let done = ms.take_completions();
        assert!(
            !done.iter().any(|c| c.completion.id == live
                && !c.completion.is_completed()),
            "live submit was shed against a stale queue"
        );
        assert_eq!(
            done.iter()
                .filter(|c| c.completion.outcome
                    == Outcome::Rejected {
                        reason: RejectReason::DeadlineExpired,
                    })
                .count(),
            4,
            "the stale occupants were swept as expired"
        );
    }

    /// Admission checks drain before it polls the breaker: a submit
    /// refused as `ShuttingDown` after the cooldown must not record an
    /// open → half-open transition.
    #[test]
    fn submit_refused_during_drain_never_moves_the_breaker() {
        let clock = Arc::new(SimClock::new());
        let tenants = vec![TenantSpec::new(
            "t",
            1,
            Priority::Interactive,
            TenantPolicy {
                max_batch: 1,
                max_wait_us: 0,
                queue_cap: 8,
                quota: None,
            },
            echo(ServiceModel {
                base_us: 100,
                per_sample_us: 10,
            }),
        )
        .with_breaker(BreakerConfig {
            window: 2,
            min_samples: 1,
            error_threshold_per_mille: 500,
            open_us: 1_000,
            probe_batches: 1,
        })];
        let mut ms = MultiServer::new(tenants, SchedConfig { max_inflight: 1 }, clock.clone())
            .with_faults(FaultPlan::new(FaultSpec {
                panic_per_mille: 1_000,
                ..FaultSpec::none(1)
            }));
        ms.submit(0, vec![0.0], None);
        clock.advance_to(ms.next_event_us().expect("batch in flight"));
        ms.pump();
        assert_eq!(ms.breaker_state(0), Some(BreakerState::Open));
        ms.begin_drain();
        clock.advance_to(10_000);
        ms.submit(0, vec![1.0], None);
        assert_eq!(
            ms.take_completions().last().map(|c| &c.completion.outcome),
            Some(&Outcome::Rejected {
                reason: RejectReason::ShuttingDown
            })
        );
        assert_eq!(ms.breaker_state(0), Some(BreakerState::Open));
        let moves: Vec<_> = ms.take_breaker_events().iter().map(|e| e.to).collect();
        assert_eq!(moves, vec![BreakerState::Open], "only the trip is recorded");
    }

    #[test]
    fn pick_record_serializes_head_deadlines() {
        let p = PickRecord {
            at_us: 5,
            tenant: 1,
            priority: Priority::Interactive,
            eligible: vec![0, 1],
            head_deadlines: vec![None, Some(700)],
            batch_size: 2,
            cost_us: 120,
            served_by: ServedBy::Primary,
        };
        assert_eq!(
            sb_json::to_string(&p).expect("serialize"),
            r#"{"at_us":5,"tenant":1,"priority":"Interactive","eligible":[0,1],"head_deadlines":[null,700],"batch_size":2,"cost_us":120,"served_by":"Primary"}"#
        );
    }

    #[test]
    fn sched_completion_serializes_with_tenant_tag() {
        let c = SchedCompletion {
            tenant: 2,
            completion: Completion {
                id: 7,
                submitted_us: 10,
                done_us: 150,
                outcome: Outcome::Completed {
                    predicted: 3,
                    batch_size: 4,
                    served_by: ServedBy::Primary,
                },
            },
        };
        assert_eq!(
            sb_json::to_string(&c).expect("serialize"),
            r#"{"tenant":2,"id":7,"submitted_us":10,"done_us":150,"outcome":{"status":"completed","predicted":3,"batch_size":4,"served_by":"Primary"}}"#
        );
    }
}
