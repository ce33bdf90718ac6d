//! Property-based tests for the runtime's execution guarantees, on the
//! in-repo `sb-check` harness. Every failure message carries an
//! `SB_CHECK_SEED` that replays the exact case.

use sb_check::{check, prop_assert, prop_assert_eq, Config};
use sb_runtime::{
    parallel_for, set_thread_override, JobError, JobQueue, JobSpec, Pool,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Pinned suite seed: every property below derives its per-case seeds
/// from this value, so failures reproduce across machines.
const SUITE: u64 = 0x7E45_0008;

fn cfg() -> Config {
    Config::new(SUITE)
}

/// Restores the process-wide thread override when dropped, so a failing
/// property cannot leave other tests pinned to a stale thread count.
struct OverrideGuard;

impl OverrideGuard {
    fn set(n: usize) -> Self {
        set_thread_override(Some(n));
        OverrideGuard
    }
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        set_thread_override(None);
    }
}

#[test]
fn every_spawned_task_runs_exactly_once() {
    check(
        "runtime::every_spawned_task_runs_exactly_once",
        cfg().cases(30),
        |rng| (1 + rng.below(150), 1 + rng.below(4)),
        |&(n_tasks, threads)| {
            let pool = Pool::new(threads);
            let runs: Vec<AtomicUsize> = (0..n_tasks).map(|_| AtomicUsize::new(0)).collect();
            pool.scope(|s| {
                for counter in &runs {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            for (i, counter) in runs.iter().enumerate() {
                let count = counter.load(Ordering::Relaxed);
                prop_assert!(count == 1, "task {i} ran {count} times on {threads} threads");
            }
            Ok(())
        },
    );
}

#[test]
fn parallel_for_reduction_equals_sequential_fold() {
    check(
        "runtime::parallel_for_reduction_equals_sequential_fold",
        cfg().cases(40),
        |rng| {
            let len = rng.below(400);
            let chunk = 1 + rng.below(50);
            let xs: Vec<f32> = (0..len).map(|_| rng.uniform(-1e6, 1e6)).collect();
            (xs, chunk)
        },
        |(xs, chunk)| {
            // The reference result: fold the same chunk decomposition
            // inline, in order — f32 addition is non-associative, so this
            // only matches if the runtime commits chunks in order too.
            let mut expected = 0.0f32;
            for block in xs.chunks(*chunk) {
                let mut part = 0.0f32;
                for &v in block {
                    part += v;
                }
                expected += part;
            }
            let sum = |r: std::ops::Range<usize>| {
                let mut part = 0.0f32;
                for &v in &xs[r] {
                    part += v;
                }
                part
            };
            for threads in [1usize, 4] {
                let _guard = OverrideGuard::set(threads);
                let got = parallel_for(xs.len(), *chunk, sum, 0.0f32, |acc, p| acc + p);
                prop_assert!(
                    got.to_bits() == expected.to_bits(),
                    "thread count {threads} changed the reduction: {got} vs {expected}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn worker_panics_surface_as_scope_errors() {
    check(
        "runtime::worker_panics_surface_as_scope_errors",
        cfg().cases(15),
        |rng| (1 + rng.below(3), rng.below(20)),
        |&(threads, quiet_tasks)| {
            let pool = Pool::new(threads);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.scope(|s| {
                    for _ in 0..quiet_tasks {
                        s.spawn(|| std::hint::black_box(()));
                    }
                    s.spawn(|| panic!("injected worker panic"));
                });
            }));
            let payload = match result {
                Ok(()) => return Err("scope swallowed the worker panic".to_string()),
                Err(p) => p,
            };
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            prop_assert!(msg.contains("injected worker panic"), "payload lost: {msg:?}");
            Ok(())
        },
    );
}

#[test]
fn job_panics_surface_as_job_errors() {
    let queue = JobQueue::on(Arc::new(Pool::new(2)));
    let handle = queue.submit(JobSpec::new().label("exploder"), |_| -> Result<(), String> {
        panic!("job blew up");
    });
    match handle.join() {
        Err(JobError::Panicked(msg)) => assert!(msg.contains("job blew up"), "{msg}"),
        other => panic!("expected Panicked, got {other:?}"),
    }
}

#[test]
fn cancellation_leaves_no_queued_job_running() {
    check(
        "runtime::cancellation_leaves_no_queued_job_running",
        cfg().cases(15),
        |rng| 1 + rng.below(30),
        |&n_jobs| {
            // A one-worker pool whose only worker is pinned by a blocker
            // job: everything submitted behind it stays queued until we
            // open the gate, so cancelling the queued jobs must win.
            let pool = Arc::new(Pool::new(1));
            let queue = JobQueue::on(Arc::clone(&pool));
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            let gate_in = Arc::clone(&gate);
            let blocker = queue.submit(JobSpec::new().label("blocker"), move |_| {
                let (lock, cv) = &*gate_in;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                Ok(())
            });

            let ran = Arc::new((0..n_jobs).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
            let handles: Vec<_> = (0..n_jobs)
                .map(|i| {
                    let ran = Arc::clone(&ran);
                    queue.submit(JobSpec::new(), move |_| {
                        ran[i].fetch_add(1, Ordering::SeqCst);
                        Ok(i)
                    })
                })
                .collect();
            for handle in &handles {
                handle.cancel();
            }
            // Open the gate only after cancelling: the worker then drains
            // the queue, and every cancelled job must resolve without
            // having run.
            {
                let (lock, cv) = &*gate;
                *lock.lock().unwrap() = true;
                cv.notify_all();
            }
            blocker.join().expect("blocker completes once the gate opens");
            for (i, handle) in handles.into_iter().enumerate() {
                prop_assert!(handle.join() == Err(JobError::Cancelled), "job {i} not cancelled");
                let runs = ran[i].load(Ordering::SeqCst);
                prop_assert!(runs == 0, "cancelled job {i} still ran {runs} times");
            }
            Ok(())
        },
    );
}

#[test]
fn retries_eventually_succeed_and_are_bounded() {
    check(
        "runtime::retries_eventually_succeed_and_are_bounded",
        cfg().cases(20),
        |rng| (1 + rng.below(4) as u32, rng.below(8) as u32),
        |&(fail_times, retries)| {
            let queue = JobQueue::on(Arc::new(Pool::new(1)));
            let attempts = Arc::new(AtomicUsize::new(0));
            let attempts_in = Arc::clone(&attempts);
            let handle = queue.submit(JobSpec::new().retries(retries), move |ctx| {
                attempts_in.fetch_add(1, Ordering::SeqCst);
                if ctx.attempt() <= fail_times {
                    Err(format!("failure {}", ctx.attempt()))
                } else {
                    Ok(ctx.attempt())
                }
            });
            let result = handle.join();
            let ran = attempts.load(Ordering::SeqCst) as u32;
            if fail_times <= retries {
                prop_assert_eq!(result, Ok(fail_times + 1));
                prop_assert_eq!(ran, fail_times + 1);
            } else {
                prop_assert_eq!(
                    result,
                    Err(JobError::Failed {
                        attempts: retries + 1,
                        message: format!("failure {}", retries + 1),
                    })
                );
                prop_assert!(ran == retries + 1, "retry budget exceeded");
            }
            Ok(())
        },
    );
}
