//! Benchmarks for the sb-runtime executor: pool lifecycle cost, spawn
//! throughput, `parallel_for` matmul scaling at 1/2/4 workers, and the
//! overhead the runtime adds to the sequential path at 1 worker (the
//! inline path must stay within 10% of raw sequential code, since the
//! single-core CI box runs everything through it).

use sb_bench::timer::Timer;
use sb_runtime::{set_thread_override, Pool};
use sb_tensor::{matmul_rows, Rng, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

fn bench_pool_lifecycle(c: &mut Timer) {
    let mut group = c.benchmark_group("pool-lifecycle");
    for &threads in &[1usize, 4] {
        group.bench_function(format!("spawn-teardown-{threads}t"), |bench| {
            bench.iter(|| {
                let pool = Pool::new(threads);
                std::hint::black_box(pool.threads());
                drop(pool);
            })
        });
    }
    group.finish();
}

fn bench_spawn_throughput(c: &mut Timer) {
    let pool = Pool::new(4);
    c.bench_function("scope-spawn-1000-tasks", |bench| {
        bench.iter(|| {
            let counter = AtomicUsize::new(0);
            pool.scope(|s| {
                for _ in 0..1000 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            std::hint::black_box(counter.load(Ordering::Relaxed))
        })
    });
}

fn bench_parallel_matmul_scaling(c: &mut Timer) {
    let mut rng = Rng::seed_from(0);
    let n = 128usize;
    let a = Tensor::rand_normal(&[n, n], 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal(&[n, n], 0.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("parallel-matmul-128");
    for &threads in &[1usize, 2, 4] {
        set_thread_override(Some(threads));
        group.bench_function(format!("{threads}-workers"), |bench| {
            bench.iter(|| std::hint::black_box(a.matmul(&b)))
        });
    }
    set_thread_override(None);
    group.finish();
}

/// Compares the runtime's 1-worker inline path (`Tensor::matmul`)
/// against its kernel, `sb_tensor::matmul_rows`, called directly on the
/// same workload. Reported (not asserted — this is a bench binary) with
/// the <10% budget the design doc commits to.
fn report_sequential_overhead() {
    let mut rng = Rng::seed_from(1);
    let n = 96usize;
    let a = Tensor::rand_normal(&[n, n], 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal(&[n, n], 0.0, 1.0, &mut rng);
    let reps = 200;

    // Raw sequential reference: the same tiled kernel on the calling
    // thread, without any runtime involvement (no chunk bookkeeping).
    let sequential = |a: &Tensor, b: &Tensor| {
        let mut out = vec![0.0f32; a.dim(0) * b.dim(1)];
        matmul_rows(a.data(), b.data(), b.dim(1), &mut out);
        out
    };

    // Warm both paths once.
    std::hint::black_box(sequential(&a, &b));
    set_thread_override(Some(1));
    std::hint::black_box(a.matmul(&b));

    // Best-of-N interleaved passes: a single pass is easily skewed by a
    // scheduler preemption landing in one arm, so take each arm's minimum
    // across alternating passes before comparing.
    let passes = 5;
    let mut raw = std::time::Duration::MAX;
    let mut inline = std::time::Duration::MAX;
    for _ in 0..passes {
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(sequential(&a, &b));
        }
        raw = raw.min(t0.elapsed());

        let t1 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(a.matmul(&b));
        }
        inline = inline.min(t1.elapsed());
    }
    set_thread_override(None);

    let overhead = inline.as_secs_f64() / raw.as_secs_f64() - 1.0;
    println!(
        "sequential-overhead-1-worker   raw {:>10.3?}  runtime {:>10.3?}  overhead {:+.2}% (budget <10%)",
        raw / reps,
        inline / reps,
        overhead * 100.0
    );
}

/// Scheduling-health gate: runs a fixed spawn-heavy workload on a
/// 4-worker pool with tracing forced on and **asserts** (this one is a
/// gate, not a report) that the executor is not thrashing. A worker
/// parks when it finds no work after a steal sweep, so park events
/// scale with idleness, not with load; a healthy pool under a saturating
/// workload parks far less than once per task. A regression in the
/// wake/steal loop (lost wakeups, over-eager parking) shows up here as
/// parks exploding past the per-task budget.
fn check_scheduling_health() {
    sb_trace::set_override(Some(true));
    let _ = sb_trace::take_report(); // drop counts the benches above left

    let tasks = 2_000usize;
    let rounds = 4;
    let pool = Pool::new(4);
    let counter = AtomicUsize::new(0);
    for _ in 0..rounds {
        pool.scope(|s| {
            for _ in 0..tasks {
                s.spawn(|| {
                    // Enough work that workers overlap rather than one
                    // worker draining its own deque before the others wake.
                    std::hint::black_box((0..256u64).sum::<u64>());
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    }
    drop(pool);
    assert_eq!(counter.load(Ordering::Relaxed), tasks * rounds);

    let report = sb_trace::take_report();
    sb_trace::set_override(None);
    let total = |name: &str| {
        report
            .scheduling_counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    let spawned = total("tasks_spawned");
    let stolen = total("tasks_stolen");
    let parks = total("park_events");
    println!(
        "scheduling-health-4-workers    spawned {spawned}  stolen {stolen}  parks {parks}  \
         (budget: parks <= 2x spawned + 64)"
    );
    assert_eq!(spawned as usize, tasks * rounds, "every task is counted");
    // Budget: one park per task would already mean workers sleep between
    // every two tasks; 2x plus slack for startup/teardown races is the
    // loudest we accept before calling the wake path broken.
    let budget = 2 * spawned + 64;
    assert!(
        parks <= budget,
        "scheduling health: {parks} park events for {spawned} tasks \
         (budget {budget}) — the pool is thrashing its park/wake path"
    );
}

fn main() {
    let mut timer = Timer::new();
    bench_pool_lifecycle(&mut timer);
    bench_spawn_throughput(&mut timer);
    bench_parallel_matmul_scaling(&mut timer);
    timer.finish();
    report_sequential_overhead();
    check_scheduling_health();
}
