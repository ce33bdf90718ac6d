//! `sched`: two tenants behind `sb_sched::MultiServer`. The interactive
//! tenant serves LeNet-300-100 pruned 16× (CSR; weight 2, 100 ms
//! deadline) open-loop at 4k rps. The batch-class tenant serves the same
//! network forced dense (weight 1, 1 s deadline). It is the serving core of
//! `serve` with several queues and WFQ/priority picks, and the dense
//! batches, not the interactive ones, set the interactive tail.
//!
//! Measured: both tenants open-loop at a nominal 4k rps each, with
//! wall-clock latencies, then the batch tenant's capacity with 32 requests
//! kept outstanding while the interactive tenant keeps its 4k rps. The
//! capacity is set by the forwards on every core, so it is given in
//! reference units, with the reference mix run on as many threads as there
//! are cores (see `calib.rs`).

use crate::calib::Calibrator;
use crate::load::{run_window, Offer, Window};
use crate::report::{rank_us, Metric, Report};
use crate::serve::{forward_us, lenet300, samples, DEADLINE_US, QUEUE_CAP};
use crate::spans::Spans;
use crate::Ctx;
use sb_infer::ExecFormat;
use sb_sched::{MultiServer, Priority, SchedConfig, TenantPolicy, TenantSpec};
use sb_serve::{BatchEngine, WallClock};
use std::sync::Arc;

const INTERACTIVE: Offer = Offer::Open {
    rate_rps: 4_000.0,
    deadline_us: DEADLINE_US,
};
/// Ten times the interactive deadline, as in `serve` far beyond what a
/// quiet run needs.
const BATCH_DEADLINE_US: u64 = 10 * DEADLINE_US;
const BATCH_NOMINAL: Offer = Offer::Open {
    rate_rps: 4_000.0,
    deadline_us: BATCH_DEADLINE_US,
};
/// Two full batches, enough to fill the shared two-batch window. Keeping
/// 64 outstanding gave the same capacity and within-run spread.
const BATCH_CLOSED: Offer = Offer::Closed {
    outstanding: 32,
    deadline_us: BATCH_DEADLINE_US,
};
const TENANTS: [&str; 2] = ["interactive", "batch"];

pub const LAYERS: &[(&str, &str)] = &[
    ("sched.submit_us_p50", "us"),
    ("sched.admit_us", "us"),
    ("sched.pick_us", "us"),
    ("sched.interactive.exec_us", "us"),
    ("sched.batch.exec_us", "us"),
    ("sched.interactive.mean_batch", "count"),
    ("sched.batch.mean_batch", "count"),
    ("sched.interactive.shed", "count"),
    ("sched.batch.shed", "count"),
    ("sched.batch.forward16_us", "us"),
];

struct Setup {
    server: MultiServer,
    clock: Arc<WallClock>,
    inputs: Vec<Vec<f32>>,
    dense: Arc<dyn BatchEngine>,
}

fn setup(ctx: &Ctx) -> Setup {
    let policy = TenantPolicy {
        max_batch: 16,
        max_wait_us: 200,
        queue_cap: QUEUE_CAP,
        quota: None,
    };
    let pruned: Arc<dyn BatchEngine> = Arc::new(lenet300(16.0, None));
    let dense: Arc<dyn BatchEngine> = Arc::new(lenet300(16.0, Some(ExecFormat::Dense)));
    let tenants = vec![
        TenantSpec::new(TENANTS[0], 2, Priority::Interactive, policy, pruned),
        TenantSpec::new(TENANTS[1], 1, Priority::Batch, policy, dense.clone()),
    ];
    let clock = Arc::new(WallClock::new());
    Setup {
        server: MultiServer::new(tenants, SchedConfig { max_inflight: 2 }, clock.clone()),
        clock,
        inputs: samples(ctx.seed, ctx.quick),
        dense,
    }
}

fn window(s: &mut Setup, batch: Offer, secs: f64, seed: u64, timed: bool) -> Window {
    let w = run_window(
        &mut s.server,
        s.clock.as_ref(),
        &[INTERACTIVE, batch],
        (secs * 1e6) as u64,
        seed,
        &s.inputs,
        timed,
    );
    // The pick log grows with every launch, and nothing here reads it.
    s.server.take_picks();
    w
}

/// Counts a window's requests (shed ones as failed) and checks that each
/// resolved exactly once.
fn account(report: &mut Report, w: &Window) {
    for t in &w.tenants {
        report.attempted += t.offered as u64;
        report.failed += t.shed() as u64;
    }
    report.check(w.ledger_errors == 0, || {
        format!(
            "sched: {} requests did not resolve exactly once",
            w.ledger_errors
        )
    });
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (mut s, setup_s) = ctx.set_up(|| setup(ctx));
    let win_s = if ctx.quick { 0.05 } else { 0.25 };
    let mut seed = ctx.seed.wrapping_mul(0xD134_2543_DE82_EF95);
    let mut next_seed = || {
        seed = seed.wrapping_add(1);
        seed
    };
    window(&mut s, BATCH_NOMINAL, win_s / 2.0, next_seed(), false);

    if !ctx.trace {
        // Nominal and capacity windows take turns, so a burst from another
        // tenant of the host lands on a few windows of each kind. Per
        // window: interactive (p50, p90) and batch-tenant p50, or the
        // batch tenant's completions per reference second.
        let (mut nominal, mut capacity) = (Vec::new(), Vec::new());
        let mut cal = Calibrator::new(crate::nproc());
        crate::repeat(ctx.seconds, 2, |i| {
            if i.is_multiple_of(2) {
                let w = window(&mut s, BATCH_NOMINAL, win_s, next_seed(), false);
                account(&mut report, &w);
                let p = |t: usize, q| w.tenants[t].p(q) as f64 / 1e3;
                nominal.push((p(0, 0.5), p(0, 0.9), p(1, 0.5)));
            } else {
                let seed = next_seed();
                let (w, mix_ms) = cal.around(|| window(&mut s, BATCH_CLOSED, win_s, seed, false));
                account(&mut report, &w);
                capacity.push(w.tenants[1].completed_in_horizon as f64 / win_s * mix_ms);
            }
        });
        report.reference_ms = cal.median_ms();
        report.metrics = vec![
            crate::setup_metric(setup_s),
            Metric::median("p50_ms", "ms", nominal.iter().map(|n| n.0).collect()),
            Metric::median("p90_ms", "ms", nominal.iter().map(|n| n.1).collect()),
            Metric::median("throughput", "1/s", capacity),
            Metric::median("ref_p50_ms", "ms", nominal.iter().map(|n| n.2).collect()),
        ];
    } else {
        let mut spans = Spans::default();
        let (mut traced_p50, mut plain_p50) = (Vec::new(), Vec::new());
        let (mut submit_ns, mut lag_us) = (Vec::new(), Vec::new());
        let mut traced_requests = 0;
        let mut shed = [0usize; 2];
        let mut batches = [(0usize, 0.0f64); 2];
        crate::repeat(ctx.seconds, 2, |i| {
            let on = i.is_multiple_of(2);
            sb_trace::set_override(Some(on));
            let w = window(&mut s, BATCH_NOMINAL, win_s / 2.0, next_seed(), !on);
            sb_trace::set_override(Some(false));
            account(&mut report, &w);
            for (t, stats) in w.tenants.iter().enumerate() {
                shed[t] += stats.shed();
                batches[t].0 += stats.latency_us.len();
                batches[t].1 += stats.batches;
            }
            let p50 = w.tenants[0].p(0.5) as f64 / 1e3;
            if on {
                spans.drain();
                traced_p50.push(p50);
                traced_requests += w.tenants.iter().map(|t| t.offered).sum::<usize>();
            } else {
                plain_p50.push(p50);
                submit_ns.extend_from_slice(&w.submit_ns);
                lag_us.extend_from_slice(&w.lag_us);
            }
        });
        submit_ns.sort_unstable();
        lag_us.sort_unstable();
        let exec_us = |t: usize| {
            spans
                .get(&format!("sched:tenant:{}", TENANTS[t]), "sched:exec")
                .mean_us()
        };
        let mean_batch = |t: usize| batches[t].0 as f64 / batches[t].1.max(1e-9);
        let mut m = vec![
            Metric::one(
                "sched.submit_us_p50",
                "us",
                rank_us(&submit_ns, 0.5) as f64 / 1e3,
            ),
            Metric::one("sched.admit_us", "us", spans.total("sched:admit").mean_us()),
            Metric::one("sched.pick_us", "us", spans.total("sched:pick").mean_us()),
            Metric::one("sched.interactive.exec_us", "us", exec_us(0)),
            Metric::one("sched.batch.exec_us", "us", exec_us(1)),
            Metric::one("sched.interactive.mean_batch", "count", mean_batch(0)),
            Metric::one("sched.batch.mean_batch", "count", mean_batch(1)),
            Metric::one("sched.interactive.shed", "count", shed[0] as f64),
            Metric::one("sched.batch.shed", "count", shed[1] as f64),
            Metric::one(
                "sched.batch.forward16_us",
                "us",
                forward_us(s.dense.as_ref(), &s.inputs, 200),
            ),
            Metric::one("loadgen.lag_us_p99", "us", rank_us(&lag_us, 0.99) as f64),
            crate::overhead_pct(&traced_p50, &plain_p50),
        ];
        m.extend(crate::runtime_metrics(&spans, traced_requests as f64));
        report.metrics = m;
    }
    report
}
