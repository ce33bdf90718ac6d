//! The single-model server: dynamic micro-batching with admission
//! control, deadlines, cancellation and drain over one engine.
//!
//! [`Server`] is the one-tenant case of the serving core in
//! [`crate::sched`]: it builds a [`MultiServer`] with a single weight-1
//! interactive tenant whose policy is the [`ServeConfig`], and every
//! method forwards to it. The [`crate::sched`] module docs describe the
//! queueing model, the batching policy and the failure domains.
//!
//! ```text
//! submit ──▶ [bounded queue] ──▶ micro-batcher ──▶ JobQueue ──▶ pool
//!    │            │  │                │
//!    │ QueueFull  │  │ DeadlineExpired│ (checked at dequeue AND
//!    ▼            ▼  ▼  / Cancelled   ▼  again before execution)
//!  reject      reject              batch job → completions
//! ```
//!
//! Two things differ from a [`MultiServer`] built with
//! [`MultiServer::new`]. Batches run on `JobQueue::new()`: inline on the
//! driver thread at one runtime thread, on the global pool otherwise.
//! And the spans are `serve:admit`, `serve:batch` and `serve:exec`, with
//! none on the pump path. The pick log, which records nothing a single
//! tenant could lose, is discarded wherever completions are handed out.

use crate::clock::Clock;
use crate::engine::BatchEngine;
use crate::sched::{MultiServer, SchedConfig, SpanNames};
use crate::tenant::{Priority, TenantPolicy, TenantSpec};
use sb_fault::{BreakerConfig, BreakerState, BreakerTransition, FaultPlan, RetryPolicy};
use sb_json::{json_enum, json_struct, Json, ToJson};
use sb_runtime::JobQueue;
use std::sync::Arc;

/// Serving policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest batch the micro-batcher will coalesce.
    pub max_batch: usize,
    /// Longest the queue head may wait before an under-filled batch is
    /// closed anyway (0 = batch whatever is queued, immediately).
    pub max_wait_us: u64,
    /// Admission bound: requests arriving while this many are queued are
    /// rejected with [`RejectReason::QueueFull`].
    pub queue_cap: usize,
    /// Batches allowed to execute concurrently; further batches wait in
    /// the queue (and eventually shed load through the admission bound).
    pub max_inflight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_wait_us: 1_000,
            queue_cap: 64,
            max_inflight: 2,
        }
    }
}

/// Why a request was refused instead of answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue was full at admission (backpressure).
    QueueFull,
    /// The request's deadline passed before execution started.
    DeadlineExpired,
    /// The client cancelled the request while it was still queued.
    Cancelled,
    /// The server was draining and no longer admits work.
    ShuttingDown,
    /// The submitter's token-bucket admission quota was exhausted
    /// (multi-tenant rate limiting — see `sb-sched`'s `TenantQuota`).
    QuotaExceeded,
    /// The batch carrying this request failed — the engine panicked, or
    /// a transient error survived the retry budget. The ledger resolves
    /// the members instead of orphaning them.
    EngineFailure,
    /// The engine's circuit breaker was open and no fallback engine was
    /// configured, so the request was shed fast rather than queued
    /// toward a known-failing engine.
    CircuitOpen,
}

json_enum!(RejectReason {
    QueueFull,
    DeadlineExpired,
    Cancelled,
    ShuttingDown,
    QuotaExceeded,
    EngineFailure,
    CircuitOpen
});

/// Which engine produced a completion: the primary model, or the
/// cheaper (typically pruned) fallback that serves while the primary's
/// circuit breaker is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The configured primary engine.
    Primary,
    /// The degraded-mode fallback engine.
    Fallback,
}

json_enum!(ServedBy { Primary, Fallback });

/// How a request resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The request executed in a batch of `batch_size`.
    Completed {
        /// Predicted class for the request's sample.
        predicted: usize,
        /// Size of the batch the request rode in.
        batch_size: usize,
        /// Which engine executed the batch (degraded-mode provenance).
        served_by: ServedBy,
    },
    /// The request never executed.
    Rejected {
        /// Why it was refused.
        reason: RejectReason,
    },
}

impl ToJson for Outcome {
    fn to_json(&self) -> Json {
        match self {
            Outcome::Completed {
                predicted,
                batch_size,
                served_by,
            } => Json::Obj(vec![
                ("status".to_string(), Json::Str("completed".to_string())),
                ("predicted".to_string(), Json::Int(*predicted as i128)),
                ("batch_size".to_string(), Json::Int(*batch_size as i128)),
                ("served_by".to_string(), served_by.to_json()),
            ]),
            Outcome::Rejected { reason } => Json::Obj(vec![
                ("status".to_string(), Json::Str("rejected".to_string())),
                ("reason".to_string(), reason.to_json()),
            ]),
        }
    }
}

/// One resolved request: every submitted request produces exactly one of
/// these, in a deterministic order under a virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The id [`Server::submit`] returned.
    pub id: u64,
    /// Clock time at submission.
    pub submitted_us: u64,
    /// Clock time at resolution (harvest for completions, the rejecting
    /// decision for rejections).
    pub done_us: u64,
    /// How the request resolved.
    pub outcome: Outcome,
}

json_struct!(serialize_only Completion {
    id,
    submitted_us,
    done_us,
    outcome
});

impl Completion {
    /// End-to-end latency: resolution minus submission.
    pub fn latency_us(&self) -> u64 {
        self.done_us.saturating_sub(self.submitted_us)
    }

    /// True for [`Outcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self.outcome, Outcome::Completed { .. })
    }
}

const SERVE_SPANS: SpanNames = SpanNames {
    admit: "serve:admit",
    pick: None,
    tenant: false,
    batch: "serve:batch",
    exec: "serve:exec",
};

/// The dynamic-batching server. See the module docs for the model.
pub struct Server<E: BatchEngine + 'static> {
    engine: Arc<E>,
    core: MultiServer,
}

impl<E: BatchEngine + 'static> Server<E> {
    /// A server over `engine` with the given policy and time source.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch`, `queue_cap` or `max_inflight` is zero.
    pub fn new(engine: E, cfg: ServeConfig, clock: Arc<dyn Clock>) -> Self {
        let engine = Arc::new(engine);
        let policy = TenantPolicy {
            max_batch: cfg.max_batch,
            max_wait_us: cfg.max_wait_us,
            queue_cap: cfg.queue_cap,
            quota: None,
        };
        let tenant = TenantSpec::new("serve", 1, Priority::Interactive, policy, engine.clone());
        let sched = SchedConfig {
            max_inflight: cfg.max_inflight,
        };
        let core = MultiServer::build(vec![tenant], sched, clock, JobQueue::new(), &SERVE_SPANS);
        Server { engine, core }
    }

    /// Injects deterministic faults into primary batch execution: fault
    /// `k` of the plan hits the `k`-th primary batch, so the whole fault
    /// run is a pure function of the plan's seed and the workload.
    /// Fallback batches are never faulted.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.core = self.core.with_faults(faults);
        self
    }

    /// Bounded retry for transient engine errors. Backoff between
    /// attempts is charged into the batch's virtual completion time, so
    /// retries are deterministic under `SimClock`; under a wall clock
    /// the pool worker really sleeps.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.core = self.core.with_retry(retry);
        self
    }

    /// Arms a circuit breaker over primary batch outcomes (see the
    /// [`crate::sched`] failure-domain docs for the state machine).
    pub fn with_breaker(mut self, cfg: BreakerConfig) -> Self {
        self.core.respec(0, |t| t.breaker = Some(cfg));
        self
    }

    /// Routes traffic to `fallback` (typically a heavily pruned variant
    /// of the primary model) while the primary's breaker is open.
    /// Completions carry [`ServedBy`] provenance.
    ///
    /// # Panics
    ///
    /// Panics if the fallback's sample length or class count differs
    /// from the primary's.
    pub fn with_fallback(mut self, fallback: impl BatchEngine + 'static) -> Self {
        self.core.respec(0, |t| t.set_fallback(Arc::new(fallback)));
        self
    }

    /// The engine being served.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The breaker's current state; `None` when no breaker is armed.
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.core.breaker_state(0)
    }

    /// Drains recorded breaker state transitions, in occurrence order.
    pub fn take_breaker_events(&mut self) -> Vec<BreakerTransition> {
        let events = self.core.take_breaker_events().into_iter();
        events
            .map(|e| BreakerTransition {
                at_us: e.at_us,
                from: e.from,
                to: e.to,
            })
            .collect()
    }

    /// Admits (or rejects) one single-sample request. Returns its id;
    /// the resolution arrives later via [`Server::take_completions`].
    /// `deadline_us`, when set, is the **absolute** clock time by which
    /// execution must have started.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not exactly one engine sample long.
    pub fn submit(&mut self, input: Vec<f32>, deadline_us: Option<u64>) -> u64 {
        self.core.submit(0, input, deadline_us)
    }

    /// Cancels a request that is still queued. Returns true if the
    /// request was found (it then resolves
    /// [`RejectReason::Cancelled`]); false if it already left the queue
    /// — started executing, or already resolved — in which case its
    /// original resolution stands.
    pub fn cancel(&mut self, id: u64) -> bool {
        self.core.cancel(id)
    }

    /// Drives the server one step at the current clock time: harvests
    /// finished batches, expires deadlines, and forms/launches due
    /// batches. Call after advancing a virtual clock; under wall time,
    /// call in the driver loop.
    pub fn pump(&mut self) {
        self.core.pump();
    }

    /// Stops admitting new work and flushes everything queued into
    /// batches as capacity frees up. Subsequent [`Server::submit`] calls
    /// resolve [`RejectReason::ShuttingDown`].
    pub fn begin_drain(&mut self) {
        self.core.begin_drain();
    }

    /// True when nothing is queued or executing.
    pub fn is_idle(&self) -> bool {
        self.core.is_idle()
    }

    /// Requests waiting in the admission queue.
    pub fn queue_len(&self) -> usize {
        self.core.queue_len(0)
    }

    /// Batches currently executing.
    pub fn inflight_batches(&self) -> usize {
        self.core.inflight_batches()
    }

    /// Drains accumulated resolutions, in resolution order.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        self.core.take_picks();
        let done = self.core.take_completions().into_iter();
        done.map(|c| c.completion).collect()
    }

    /// The next virtual time at which [`Server::pump`] could make
    /// progress (None when idle and nothing is due): the front in-flight
    /// batch's completion, the head-of-queue batch timeout, or the
    /// earliest queued deadline. Virtual-clock drivers advance the
    /// `SimClock` to this and pump; wall-clock drivers can ignore it.
    pub fn next_event_us(&self) -> Option<u64> {
        self.core.next_event_us()
    }

    /// Drains and blocks until idle, returning every accumulated
    /// resolution. Only valid under a wall clock — virtual-clock drivers
    /// must advance time themselves (see
    /// [`drain_sim`](crate::load::drain_sim)).
    ///
    /// # Panics
    ///
    /// Panics under a virtual clock.
    pub fn drain_wall(&mut self) -> Vec<Completion> {
        let done = self.core.drain_wall().into_iter();
        self.core.take_picks();
        done.map(|c| c.completion).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::engine::{EchoEngine, ServiceModel};

    // Echo engine: 1 feature, 10 classes, batch price 100 + 10·n µs.
    fn echo_server(cfg: ServeConfig) -> (Server<EchoEngine>, Arc<SimClock>) {
        let clock = Arc::new(SimClock::new());
        let engine = EchoEngine::new(
            1,
            10,
            ServiceModel {
                base_us: 100,
                per_sample_us: 10,
            },
        );
        let server = Server::new(engine, cfg, clock.clone());
        (server, clock)
    }

    #[test]
    fn full_batch_launches_immediately_and_prices_by_service_model() {
        let (mut s, clock) = echo_server(ServeConfig {
            max_batch: 4,
            max_wait_us: 1_000,
            queue_cap: 8,
            max_inflight: 1,
        });
        for i in 0..4 {
            s.submit(vec![i as f32], None);
        }
        assert_eq!(s.inflight_batches(), 1, "full batch launches at once");
        assert_eq!(s.next_event_us(), Some(140)); // 100 + 4·10
        clock.advance_to(140);
        s.pump();
        let done = s.take_completions();
        assert_eq!(done.len(), 4);
        for (i, c) in done.iter().enumerate() {
            assert_eq!(c.done_us, 140);
            assert_eq!(
                c.outcome,
                Outcome::Completed {
                    predicted: i,
                    batch_size: 4,
                    served_by: ServedBy::Primary,
                }
            );
        }
        assert!(s.is_idle());
    }

    #[test]
    fn underfull_batch_flushes_on_head_timeout() {
        let (mut s, clock) = echo_server(ServeConfig {
            max_batch: 8,
            max_wait_us: 1_000,
            queue_cap: 8,
            max_inflight: 1,
        });
        s.submit(vec![3.0], None);
        clock.advance_to(200);
        s.submit(vec![7.0], None);
        assert_eq!(s.inflight_batches(), 0, "batch still open");
        assert_eq!(s.next_event_us(), Some(1_000), "head arrived at 0");
        clock.advance_to(1_000);
        s.pump();
        assert_eq!(s.inflight_batches(), 1);
        clock.advance_to(1_000 + 120);
        s.pump();
        let done = s.take_completions();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].latency_us(), 1_120);
        assert_eq!(done[1].latency_us(), 920);
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        let (mut s, _clock) = echo_server(ServeConfig {
            max_batch: 2,
            max_wait_us: 1_000,
            queue_cap: 2,
            max_inflight: 1,
        });
        s.submit(vec![0.0], None);
        s.submit(vec![1.0], None); // full batch -> inflight
        s.submit(vec![2.0], None);
        s.submit(vec![3.0], None); // queue now at cap
        let id = s.submit(vec![4.0], None);
        let done = s.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(
            done[0].outcome,
            Outcome::Rejected {
                reason: RejectReason::QueueFull
            }
        );
    }

    #[test]
    fn queued_deadline_expires_while_inflight_is_busy() {
        let (mut s, clock) = echo_server(ServeConfig {
            max_batch: 2,
            max_wait_us: 10_000,
            queue_cap: 8,
            max_inflight: 1,
        });
        s.submit(vec![0.0], None);
        s.submit(vec![1.0], None); // busy until 120
        let id = s.submit(vec![2.0], Some(50));
        assert_eq!(s.next_event_us(), Some(50), "deadline is the next event");
        clock.advance_to(50);
        s.pump();
        let done = s.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].done_us, 50);
        assert_eq!(
            done[0].outcome,
            Outcome::Rejected {
                reason: RejectReason::DeadlineExpired
            }
        );
    }

    #[test]
    fn cancel_hits_queued_requests_only() {
        let (mut s, clock) = echo_server(ServeConfig {
            max_batch: 2,
            max_wait_us: 10_000,
            queue_cap: 8,
            max_inflight: 1,
        });
        let a = s.submit(vec![0.0], None);
        s.submit(vec![1.0], None); // [a, b] inflight
        let c = s.submit(vec![2.0], None);
        assert!(!s.cancel(a), "already executing");
        assert!(s.cancel(c), "still queued");
        assert!(!s.cancel(999), "unknown id");
        let done = s.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, c);
        assert_eq!(
            done[0].outcome,
            Outcome::Rejected {
                reason: RejectReason::Cancelled
            }
        );
        clock.advance_to(120);
        s.pump();
        assert_eq!(s.take_completions().len(), 2);
        assert!(s.is_idle());
    }

    #[test]
    fn drain_flushes_partials_and_refuses_new_work() {
        let (mut s, clock) = echo_server(ServeConfig {
            max_batch: 8,
            max_wait_us: 10_000,
            queue_cap: 8,
            max_inflight: 1,
        });
        s.submit(vec![1.0], None);
        s.begin_drain();
        assert_eq!(s.inflight_batches(), 1, "drain flushes the open batch");
        let late = s.submit(vec![2.0], None);
        let done = s.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, late);
        assert_eq!(
            done[0].outcome,
            Outcome::Rejected {
                reason: RejectReason::ShuttingDown
            }
        );
        clock.advance_to(s.next_event_us().expect("batch completion pending"));
        s.pump();
        assert_eq!(s.take_completions().len(), 1);
        assert!(s.is_idle());
    }

    /// An engine that answers only the first half of each batch.
    struct ShortEngine;

    impl BatchEngine for ShortEngine {
        fn sample_len(&self) -> usize {
            1
        }

        fn classes(&self) -> usize {
            10
        }

        fn run_batch(&self, _inputs: &[f32], n: usize) -> Vec<usize> {
            vec![0; n / 2]
        }

        fn service_us(&self, _n: usize) -> u64 {
            100
        }
    }

    /// A batch whose engine returns fewer predictions than members fails
    /// as a whole: every member resolves, none is dropped by a short zip.
    #[test]
    fn short_prediction_vector_fails_every_member_and_the_breaker() {
        let clock = Arc::new(SimClock::new());
        let cfg = ServeConfig {
            max_batch: 4,
            max_wait_us: 1_000,
            queue_cap: 8,
            max_inflight: 1,
        };
        let mut s = Server::new(ShortEngine, cfg, clock.clone()).with_breaker(BreakerConfig {
            window: 4,
            min_samples: 1,
            error_threshold_per_mille: 500,
            open_us: 10_000,
            probe_batches: 1,
        });
        for i in 0..4 {
            s.submit(vec![i as f32], None);
        }
        clock.advance_to(s.next_event_us().expect("batch in flight"));
        s.pump();
        let done = s.take_completions();
        assert_eq!(done.len(), 4, "every member resolves");
        for c in &done {
            assert_eq!(
                c.outcome,
                Outcome::Rejected {
                    reason: RejectReason::EngineFailure
                }
            );
        }
        assert_eq!(s.breaker_state(), Some(BreakerState::Open));
    }

    /// `max_wait_us` and a service price of `u64::MAX` mean "never"; the
    /// sums saturate instead of wrapping into the past.
    #[test]
    fn unbounded_wait_and_service_times_saturate() {
        let (mut s, clock) = echo_server(ServeConfig {
            max_batch: 2,
            max_wait_us: u64::MAX,
            queue_cap: 8,
            max_inflight: 1,
        });
        clock.advance_to(5);
        s.submit(vec![1.0], None);
        assert_eq!(s.next_event_us(), Some(u64::MAX), "head never times out");
        let engine = EchoEngine::new(
            1,
            10,
            ServiceModel {
                base_us: u64::MAX,
                per_sample_us: 0,
            },
        );
        let mut slow = Server::new(
            engine,
            ServeConfig {
                max_batch: 1,
                max_wait_us: 0,
                queue_cap: 8,
                max_inflight: 1,
            },
            clock.clone(),
        );
        slow.submit(vec![2.0], None);
        assert_eq!(slow.next_event_us(), Some(u64::MAX), "done at time's end");
        clock.advance_to(u64::MAX);
        slow.pump();
        let done = slow.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].done_us, u64::MAX);
        assert!(done[0].is_completed());
    }

    #[test]
    fn completion_serializes_stably() {
        let c = Completion {
            id: 7,
            submitted_us: 10,
            done_us: 150,
            outcome: Outcome::Completed {
                predicted: 3,
                batch_size: 4,
                served_by: ServedBy::Primary,
            },
        };
        assert_eq!(
            sb_json::to_string(&c).expect("serialize"),
            r#"{"id":7,"submitted_us":10,"done_us":150,"outcome":{"status":"completed","predicted":3,"batch_size":4,"served_by":"Primary"}}"#
        );
        let r = Completion {
            id: 8,
            submitted_us: 10,
            done_us: 10,
            outcome: Outcome::Rejected {
                reason: RejectReason::QueueFull,
            },
        };
        assert_eq!(
            sb_json::to_string(&r).expect("serialize"),
            r#"{"id":8,"submitted_us":10,"done_us":10,"outcome":{"status":"rejected","reason":"QueueFull"}}"#
        );
    }
}
