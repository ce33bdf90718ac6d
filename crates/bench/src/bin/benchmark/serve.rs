//! `serve`: one tenant behind `sb_serve::Server`. The model is
//! LeNet-300-100 pruned 16× (CSR), `max_batch` 16, a 200 µs batching
//! window, `queue_cap` 4096 and a 100 ms deadline. A 16-sample batch takes
//! about 0.1 ms, so the per-request admit, batch and harvest work of the
//! serving core, not the kernel, sets the latency and the capacity.
//!
//! Measured: wall-clock latency at a fixed open-loop rate of 16k rps, and
//! the capacity and latency of one core with 64 requests kept
//! outstanding. The core's work sets the last two, so they are given in
//! reference units (see `calib.rs`); the open-loop latency is mostly the
//! batching window and wake-ups, which do not scale with the host's speed.

use crate::calib::Calibrator;
use crate::load::{run_window, Offer, Window};
use crate::report::{median, ms, rank_us, Metric, Report};
use crate::spans::Spans;
use crate::Ctx;
use sb_infer::{CompileOptions, CompiledModel, ExecFormat};
use sb_serve::{BatchEngine, InferEngine, ServeConfig, Server, ServiceModel, WallClock};
use std::sync::Arc;
use std::time::Instant;

const NOMINAL_RPS: f64 = 16_000.0;
/// Every request is meant to complete, so a shed request counts as a
/// failed operation. The deadline and the queue are therefore far larger
/// than a quiet run needs (p99 stays under 1 ms): a stall of a shared host
/// that lasts tens of milliseconds sheds nothing. The queue holds 256 ms
/// of requests at the open-loop rate.
pub const DEADLINE_US: u64 = 100_000;
pub const QUEUE_CAP: usize = 4096;
/// Requests kept in flight by the closed-loop capacity windows: two full
/// batches executing and two queued behind them.
const OUTSTANDING: usize = 64;
const MAX_BATCH: usize = 16;

pub const LAYERS: &[(&str, &str)] = &[
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.pump_us_mean", "us"),
    ("serve.admit_us", "us"),
    ("serve.batch_us", "us"),
    ("serve.exec_us", "us"),
    ("serve.forward16_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.shed_queue_full", "count"),
    ("serve.shed_deadline", "count"),
];

/// LeNet-300-100 with fixed weights, like a shipped model, pruned by
/// global magnitude when `ratio > 1` and compiled with `format` (`None`:
/// the cost model picks; CSR at 16×).
pub fn lenet300(ratio: f64, format: Option<ExecFormat>) -> InferEngine {
    let mut rng = sb_tensor::Rng::seed_from(0xBE7C);
    let mut net = sb_nn::models::lenet_300_100(256, 10, &mut rng);
    if ratio > 1.0 {
        shrinkbench::Pruner::default()
            .prune(&mut net, &shrinkbench::GlobalMagnitude, ratio, &mut rng)
            .expect("pruning a fresh network succeeds");
    }
    let options = CompileOptions {
        force_format: format,
        ..CompileOptions::default()
    };
    // The service price is only read under a virtual clock.
    InferEngine::new(
        CompiledModel::compile(&net, &options),
        ServiceModel {
            base_us: 0,
            per_sample_us: 1,
        },
    )
}

/// Request samples: flattened MNIST-like validation images.
pub fn samples(seed: u64, quick: bool) -> Vec<Vec<f32>> {
    let data = sb_data::SyntheticVision::new(sb_data::DatasetSpec::mnist_like(seed));
    let n = if quick { 16 } else { 256 };
    (0..n)
        .map(|i| data.sample(sb_data::Split::Val, i).0.data().to_vec())
        .collect()
}

/// Median µs of `engine.run_batch` on a full batch, called directly.
pub fn forward_us(engine: &dyn BatchEngine, inputs: &[Vec<f32>], calls: usize) -> f64 {
    let batch: Vec<f32> = inputs
        .iter()
        .cycle()
        .take(MAX_BATCH)
        .flatten()
        .copied()
        .collect();
    let mut t = Vec::with_capacity(calls);
    for _ in 0..calls {
        let s = Instant::now();
        std::hint::black_box(engine.run_batch(&batch, MAX_BATCH));
        t.push(ms(s.elapsed()) * 1e3);
    }
    median(&t)
}

struct Setup {
    server: Server<InferEngine>,
    /// The same server built at one runtime thread, where `Server` runs
    /// each batch inline on the driver thread.
    one_core: Server<InferEngine>,
    clock: Arc<WallClock>,
    inputs: Vec<Vec<f32>>,
}

fn setup(ctx: &Ctx) -> Setup {
    let clock = Arc::new(WallClock::new());
    let cfg = ServeConfig {
        max_batch: MAX_BATCH,
        max_wait_us: 200,
        queue_cap: QUEUE_CAP,
        max_inflight: 2,
    };
    let one_core = on_one_core(|| Server::new(lenet300(16.0, None), cfg.clone(), clock.clone()));
    Setup {
        server: Server::new(lenet300(16.0, None), cfg, clock.clone()),
        one_core,
        clock,
        inputs: samples(ctx.seed, ctx.quick),
    }
}

/// Runs `f` with the runtime pinned to one thread.
fn on_one_core<T>(f: impl FnOnce() -> T) -> T {
    sb_runtime::set_thread_override(Some(1));
    let out = f();
    sb_runtime::set_thread_override(Some(crate::nproc()));
    out
}

fn window(s: &mut Setup, offer: Offer, secs: f64, seed: u64, timed: bool) -> Window {
    run_window(
        &mut s.server,
        s.clock.as_ref(),
        &[offer],
        (secs * 1e6) as u64,
        seed,
        &s.inputs,
        timed,
    )
}

const fn open(rate_rps: f64) -> Offer {
    Offer::Open {
        rate_rps,
        deadline_us: DEADLINE_US,
    }
}

/// Counts a window's requests (shed ones as failed) and checks that each
/// resolved exactly once.
fn account(report: &mut Report, w: &Window) {
    let t = &w.tenants[0];
    report.attempted += t.offered as u64;
    report.failed += t.shed() as u64;
    report.check(w.ledger_errors == 0, || {
        format!(
            "serve: {} requests did not resolve exactly once",
            w.ledger_errors
        )
    });
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (mut s, setup_s) = ctx.set_up(|| setup(ctx));
    let win_s = if ctx.quick { 0.05 } else { 0.25 };
    let mut seed = ctx.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next_seed = || {
        seed = seed.wrapping_add(1);
        seed
    };
    window(&mut s, open(NOMINAL_RPS), win_s, next_seed(), false);

    if !ctx.trace {
        // The two kinds of window take turns, so a burst from another
        // tenant of the host lands on a few windows of each kind. Per
        // window: wall-clock (p50, p90) at the nominal rate, or the
        // one-core server's completions per reference second and its p50
        // in reference ms. Capacity is taken on one core: with the driver
        // and two workers sharing two cores, it also measured which core
        // the host slowed.
        let (mut nominal, mut capacity) = (Vec::new(), Vec::new());
        let mut cal = Calibrator::new(1);
        let closed = Offer::Closed {
            outstanding: OUTSTANDING,
            deadline_us: DEADLINE_US,
        };
        crate::repeat(ctx.seconds, 2, |i| {
            if i.is_multiple_of(2) {
                let w = window(&mut s, open(NOMINAL_RPS), win_s, next_seed(), false);
                account(&mut report, &w);
                let p = |q| w.tenants[0].p(q) as f64 / 1e3;
                nominal.push((p(0.5), p(0.9)));
            } else {
                let seed = next_seed();
                let (w, mix_ms) = cal.around(|| {
                    on_one_core(|| {
                        run_window(
                            &mut s.one_core,
                            s.clock.as_ref(),
                            &[closed],
                            (win_s * 1e6) as u64,
                            seed,
                            &s.inputs,
                            false,
                        )
                    })
                });
                account(&mut report, &w);
                let t = &w.tenants[0];
                capacity.push((
                    t.completed_in_horizon as f64 / win_s * mix_ms,
                    t.p(0.5) as f64 / 1e3 / mix_ms,
                ));
            }
        });
        report.reference_ms = cal.median_ms();
        report.metrics = vec![
            crate::setup_metric(setup_s),
            Metric::median("p50_ms", "ms", nominal.iter().map(|p| p.0).collect()),
            Metric::median("p90_ms", "ms", nominal.iter().map(|p| p.1).collect()),
            Metric::median("throughput", "1/s", capacity.iter().map(|c| c.0).collect()),
            Metric::median("ref_p50_ms", "ms", capacity.iter().map(|c| c.1).collect()),
        ];
    } else {
        let mut spans = Spans::default();
        let (mut traced_p50, mut plain_p50) = (Vec::new(), Vec::new());
        let mut plain = Window::default();
        let mut traced_requests = 0;
        let (mut queue_full, mut deadline) = (0, 0);
        crate::repeat(ctx.seconds, 2, |i| {
            let on = i.is_multiple_of(2);
            sb_trace::set_override(Some(on));
            let w = window(&mut s, open(NOMINAL_RPS), win_s / 2.0, next_seed(), !on);
            sb_trace::set_override(Some(false));
            account(&mut report, &w);
            let t = &w.tenants[0];
            queue_full += t.queue_full;
            deadline += t.deadline;
            let p50 = t.p(0.5) as f64 / 1e3;
            if on {
                spans.drain();
                traced_p50.push(p50);
                traced_requests += t.offered;
            } else {
                plain_p50.push(p50);
                plain.submit_ns.extend_from_slice(&w.submit_ns);
                plain.pump_ns += w.pump_ns;
                plain.pumps += w.pumps;
                plain.lag_us.extend_from_slice(&w.lag_us);
            }
        });
        plain.submit_ns.sort_unstable();
        plain.lag_us.sort_unstable();
        let batches = spans.counter("batches_executed").max(1) as f64;
        let mut m = vec![
            Metric::one(
                "serve.submit_us_p50",
                "us",
                rank_us(&plain.submit_ns, 0.5) as f64 / 1e3,
            ),
            Metric::one(
                "serve.submit_us_p99",
                "us",
                rank_us(&plain.submit_ns, 0.99) as f64 / 1e3,
            ),
            Metric::one(
                "serve.pump_us_mean",
                "us",
                plain.pump_ns as f64 / plain.pumps.max(1) as f64 / 1e3,
            ),
            Metric::one("serve.admit_us", "us", spans.total("serve:admit").mean_us()),
            Metric::one("serve.batch_us", "us", spans.total("serve:batch").mean_us()),
            Metric::one("serve.exec_us", "us", spans.total("serve:exec").mean_us()),
            Metric::one(
                "serve.forward16_us",
                "us",
                forward_us(s.server.engine(), &s.inputs, 200),
            ),
            Metric::one(
                "serve.mean_batch",
                "count",
                spans.counter("batch_occupancy") as f64 / batches,
            ),
            Metric::one("serve.shed_queue_full", "count", queue_full as f64),
            Metric::one("serve.shed_deadline", "count", deadline as f64),
            Metric::one(
                "loadgen.lag_us_p99",
                "us",
                rank_us(&plain.lag_us, 0.99) as f64,
            ),
            crate::overhead_pct(&traced_p50, &plain_p50),
        ];
        m.extend(crate::runtime_metrics(&spans, traced_requests as f64));
        report.metrics = m;
    }
    report
}
