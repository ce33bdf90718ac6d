#![warn(missing_docs)]

//! Forward-only model serving for shrinkbench-rs.
//!
//! The paper's efficiency story is usually told in offline terms —
//! compression ratio, theoretical speedup, realized per-batch latency
//! (`sb-infer`). This crate asks the production question instead: **does
//! a pruned model serve more traffic?** Serving cost is not a single
//! batch's latency; it is queueing, batching policy, deadlines, and load
//! shedding, and a model that is 2× faster per batch can be far more
//! than 2× better at a fixed tail-latency target because it spends less
//! of every second saturated.
//!
//! The pieces:
//!
//! * [`MultiServer`] — the one serving core ([`sched`] module docs):
//!   several [`BatchEngine`] tenants, each with a bounded admission
//!   queue and [`TenantPolicy`], sharing one inflight window, with
//!   per-request absolute deadlines, cancellation, graceful drain,
//!   token-bucket quotas, priority classes, weighted fair queueing, and
//!   per-tenant retry, circuit breakers and fallback engines;
//! * [`Server`] — the single-model front: a [`MultiServer`] with one
//!   tenant, configured by a [`ServeConfig`];
//! * [`Clock`] / [`WallClock`] / [`SimClock`] — every serving decision
//!   reads time through a trait, so the same server measures the real
//!   machine or replays bit-reproducibly under a virtual clock at any
//!   `SB_RUNTIME_THREADS`;
//! * [`InferEngine`] / [`EchoEngine`] — the real compiled-model backend
//!   and a compute-free one for queueing tests;
//! * [`load`] — seeded arrival processes (uniform / bursty / ramp) and
//!   open-/closed-loop drivers for [`Server`].
//!
//! Batches execute as `sb-runtime` `JobQueue` jobs labelled `batch`, so
//! serving composes with the same scheduler, tracing, and determinism
//! contract as the rest of the workspace. Spans: `serve:admit`,
//! `serve:batch`, `serve:exec` for [`Server`]; `sched:admit`,
//! `sched:pick`, `sched:tenant:{name}`, `sched:batch`, `sched:exec` for
//! [`MultiServer`]. Counters: `RequestsAdmitted`, `RequestsRejected`,
//! `BatchesExecuted`, `BatchOccupancy`.

pub mod clock;
pub mod engine;
pub mod load;
pub mod sched;
pub mod server;
pub mod tenant;

pub use clock::{Clock, SimClock, WallClock};
pub use engine::{BatchEngine, EchoEngine, InferEngine, ServiceModel};
pub use load::{
    drain_sim, profile, run_closed_loop_sim, run_open_loop_sim, run_open_loop_wall,
    ArrivalProcess, LoadSpec,
};
pub use sb_fault::{
    BackoffPolicy, BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker, Fault,
    FaultPlan, FaultSpec, RetryPolicy,
};
pub use sched::{MultiServer, PickRecord, SchedCompletion, SchedConfig, TenantBreakerEvent};
pub use server::{Completion, Outcome, RejectReason, ServeConfig, ServedBy, Server};
pub use tenant::{Priority, TenantPolicy, TenantQuota, TenantSpec};
