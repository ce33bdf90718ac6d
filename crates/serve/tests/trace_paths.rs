//! Every batch job of the serving core runs under one trace label,
//! `job:batch`, so sb-trace aggregates a run's batches on one path per
//! parent span instead of growing one subtree per batch.
//!
//! Its own test binary, and one test function, because tracing is
//! process-global.

use sb_serve::{
    run_open_loop_sim, ArrivalProcess, EchoEngine, LoadSpec, MultiServer, Priority, SchedConfig,
    ServeConfig, Server, ServiceModel, SimClock, TenantPolicy, TenantSpec,
};
use sb_trace::TraceNode;
use std::sync::Arc;

fn echo() -> EchoEngine {
    EchoEngine::new(
        1,
        10,
        ServiceModel {
            base_us: 100,
            per_sample_us: 10,
        },
    )
}

/// Checks that under every parent the job children are exactly one
/// `job:batch` node, and returns how many batch jobs closed in total.
fn batch_jobs(nodes: &[TraceNode]) -> u64 {
    let mut total = 0;
    for node in nodes {
        let jobs: Vec<&str> = node
            .children
            .iter()
            .map(|c| c.name.as_str())
            .filter(|name| name.starts_with("job"))
            .collect();
        assert!(
            jobs.is_empty() || jobs == ["job:batch"],
            "{} has job children {jobs:?}",
            node.name
        );
        if node.name == "job:batch" {
            total += node.count;
        }
        total += batch_jobs(&node.children);
    }
    total
}

fn traced(run: impl FnOnce()) -> u64 {
    sb_trace::take_report();
    run();
    batch_jobs(&sb_trace::take_report().roots)
}

#[test]
fn batch_jobs_share_one_trace_path() {
    sb_trace::set_override(Some(true));
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait_us: 200,
        queue_cap: 64,
        max_inflight: 2,
    };
    let served = traced(|| {
        let clock = Arc::new(SimClock::new());
        let mut server = Server::new(echo(), cfg, clock.clone());
        let spec = LoadSpec {
            arrivals: ArrivalProcess::Uniform { rate_rps: 8_000.0 },
            horizon_us: 50_000,
            seed: 5,
            deadline_us: None,
        };
        run_open_loop_sim(&mut server, &clock, &spec, |i| vec![i as f32]);
    });
    assert!(served >= 50, "only {served} traced Server batches");

    let scheduled = traced(|| {
        let clock = Arc::new(SimClock::new());
        let policy = TenantPolicy {
            max_batch: 4,
            max_wait_us: 200,
            queue_cap: 64,
            quota: None,
        };
        let tenants = vec![
            TenantSpec::new("a", 1, Priority::Interactive, policy, Arc::new(echo())),
            TenantSpec::new("b", 1, Priority::Batch, policy, Arc::new(echo())),
        ];
        let mut ms = MultiServer::new(tenants, SchedConfig { max_inflight: 2 }, clock.clone());
        // 8k rps in total, alternating between the tenants.
        for i in 0..400u64 {
            let at = i * 125;
            while let Some(ev) = ms.next_event_us().filter(|&ev| ev < at) {
                clock.advance_to(ev);
                ms.pump();
            }
            clock.advance_to(at);
            ms.submit(i as usize % 2, vec![i as f32], None);
        }
        ms.begin_drain();
        while let Some(ev) = ms.next_event_us() {
            clock.advance_to(ev);
            ms.pump();
        }
        assert!(ms.is_idle());
    });
    assert!(
        scheduled >= 50,
        "only {scheduled} traced MultiServer batches"
    );
    sb_trace::set_override(None);
}
