#![warn(missing_docs)]

//! Multi-model scheduling for shrinkbench-rs.
//!
//! `sb-serve` answers "does *one* pruned model serve more traffic?".
//! Production serving rarely runs one model: a 16×-pruned variant, its
//! dense baseline, and an A/B candidate share the same pool, and the
//! paper's complaint about incomparable single-model results has a
//! serving-side analogue — capacity numbers measured in isolation say
//! nothing about what a tenant gets *under contention*. This crate is
//! the fair-comparison harness for that question: a deterministic
//! multi-tenant scheduler in which every allocation decision is an
//! explicit, externally checkable policy.
//!
//! The scheduler itself, [`MultiServer`], lives in `sb-serve`, where it
//! is the one serving core and `sb_serve::Server` is its one-tenant
//! case; this crate re-exports it and its tenant types at their old
//! paths. The pieces:
//!
//! * [`MultiServer`] — several [`BatchEngine`](sb_serve::BatchEngine)s
//!   behind one `sb-runtime` pool, each tenant with its own bounded
//!   queue and [`TenantPolicy`] (batch size, wait window, queue cap,
//!   admission quota), sharing one inflight window;
//! * [`TenantQuota`] **admission quotas** — a token bucket per tenant
//!   (`rate_per_s`/`burst`, refilled from the clock) shedding with
//!   `QuotaExceeded` *before* the queue cap, so one tenant's burst
//!   cannot outrun its provisioned rate;
//! * **Weighted fair queueing** — virtual-time WFQ over per-tenant
//!   queues, charged in batch-cost units from the engines' service
//!   models, so a cheap pruned tenant cannot be starved by a dense one;
//! * [`Priority`] **classes with EDF** — `Interactive` strictly
//!   preempts `Batch` at dequeue, and within a class the earliest head
//!   deadline is served before WFQ order; every decision lands in a
//!   [`PickRecord`] log that makes non-inversion, EDF ordering, and
//!   fairness testable properties;
//! * **per-tenant fault tolerance** — panics and exhausted retries
//!   resolve as `EngineFailure` inside the tenant, and a per-tenant
//!   circuit breaker reroutes to a pruned fallback or sheds with
//!   `CircuitOpen` ([`TenantBreakerEvent`]s log every transition);
//! * [`autotune`](fn@autotune) — picks each tenant's `max_batch`/`max_wait_us` (and
//!   optionally its admission quota) for a target p99 by sweeping the
//!   deterministic [`SimClock`](sb_serve::SimClock) simulator: a pure
//!   function of `(config, workload, seed)`, byte-identical at any
//!   `SB_RUNTIME_THREADS`;
//! * [`load`] — merged per-tenant arrival schedules, an open-loop sim
//!   driver, and the [`sb_metrics::SchedProfile`] glue (per-tenant
//!   throughput/p99/occupancy and fairness error vs ideal WFQ shares).
//!
//! Spans: `sched:admit`, `sched:pick`, `sched:tenant:{name}`,
//! `sched:batch`, `sched:exec`; counters reuse the serving set
//! (`RequestsAdmitted`, `RequestsRejected`, `BatchesExecuted`,
//! `BatchOccupancy`).

pub mod autotune;
pub mod load;
pub use sb_serve::{sched, tenant};

pub use autotune::{autotune, simulate, TuneResult, TuneSpec};
pub use load::{drain_multi_sim, merged_arrivals, profile, run_multi_open_loop_sim, TenantLoad};
pub use sb_serve::{
    MultiServer, PickRecord, Priority, SchedCompletion, SchedConfig, TenantBreakerEvent,
    TenantPolicy, TenantQuota, TenantSpec,
};
