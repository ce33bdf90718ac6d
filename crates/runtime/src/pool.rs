//! The work-stealing thread pool: per-worker deques, a global injector,
//! parker-based idle workers, and scoped spawning with panic propagation.
//!
//! Deques are `Mutex<VecDeque>` rather than lock-free Chase–Lev buffers —
//! the workspace's stated design goal is auditability over peak speed, and
//! the tasks this pool runs (matmul row blocks, experiment cells) are
//! microseconds to minutes long, so queue overhead is never the
//! bottleneck. Workers pop their own deque LIFO (cache-warm), drain the
//! injector FIFO, and steal from other workers FIFO (oldest first), which
//! is the standard work-stealing discipline.
//!
//! Idle workers park on a generation-counted condvar (an eventcount):
//! every push bumps the generation under the lock and notifies, and a
//! worker only sleeps if the generation has not moved since it last found
//! the queues empty — so wakeups cannot be lost. A bounded `wait_timeout`
//! backstops the protocol.
//!
//! **Scheduling is intentionally nondeterministic; results are not.**
//! Callers that need determinism commit results by task index (see
//! [`crate::parallel`]), so which worker runs which task never matters.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its workers.
pub(crate) struct Shared {
    injector: Mutex<VecDeque<Task>>,
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Eventcount generation: bumped under the lock on every push.
    signal: Mutex<u64>,
    signal_cv: Condvar,
    shutdown: AtomicBool,
    /// Panic messages from detached [`Pool::spawn`] tasks (scoped tasks
    /// propagate through the scope instead).
    detached_panics: Mutex<Vec<String>>,
}

thread_local! {
    /// Set for the lifetime of a worker thread: which pool it belongs to
    /// and its deque index, so spawns from inside a task go to the local
    /// deque instead of the shared injector.
    static WORKER: std::cell::RefCell<Option<(Weak<Shared>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// A work-stealing thread pool.
///
/// Dropping the pool shuts it down: workers finish their current task,
/// remaining *detached* tasks are discarded, and threads are joined.
/// Scoped tasks can never be discarded because [`Pool::scope`] does not
/// return until all of them have run.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("threads", &self.handles.len()).finish()
    }
}

impl Pool {
    /// Creates a pool with `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a pool needs at least one worker");
        // Scheduling-class: whether a pool exists at all depends on the
        // thread count, so normalized traces drop this span.
        let _lifecycle = sb_trace::sched_span("pool-start");
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            signal: Mutex::new(0),
            signal_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            detached_panics: Mutex::new(Vec::new()),
        });
        let handles = (0..threads)
            .map(|idx| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sb-runtime-{idx}"))
                    .spawn(move || worker_main(shared, idx))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Submits a detached (fire-and-forget) task.
    ///
    /// A panic inside the task is captured, not propagated; retrieve
    /// captured messages with [`Pool::take_panics`]. For tasks whose
    /// completion or panics matter, use [`Pool::scope`] or a
    /// [`crate::JobQueue`] instead.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        let shared = self.shared.clone();
        push(
            &self.shared,
            Box::new(move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                    shared
                        .detached_panics
                        .lock()
                        .unwrap()
                        .push(panic_message(payload.as_ref()));
                }
            }),
        );
    }

    /// Drains panic messages captured from detached tasks.
    pub fn take_panics(&self) -> Vec<String> {
        std::mem::take(&mut self.shared.detached_panics.lock().unwrap())
    }

    /// Runs `f` with a [`Scope`] that can spawn tasks borrowing from the
    /// enclosing environment, and does not return until every spawned
    /// task has finished.
    ///
    /// While waiting, the calling thread *helps*: it executes pending
    /// pool tasks instead of blocking, so nested scopes (a task that
    /// itself calls `scope`) cannot deadlock even on a one-worker pool.
    ///
    /// # Panics
    ///
    /// If `f` or any spawned task panics, the panic is re-raised here —
    /// after all spawned tasks have completed, so borrowed data is never
    /// left aliased. When several tasks panic, the first captured payload
    /// wins.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'env>) -> R) -> R {
        let state = Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let scope = Scope {
            shared: self.shared.clone(),
            state: state.clone(),
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));

        // Drain: help execute tasks rather than blocking, falling back to
        // a short parked wait when nothing is runnable (our tasks may be
        // in flight on other workers).
        let me = current_worker_index(&self.shared);
        while state.pending.load(Ordering::Acquire) > 0 {
            if let Some(task) = find_task(&self.shared, me) {
                task();
            } else {
                let guard = state.done.lock().unwrap();
                if state.pending.load(Ordering::Acquire) > 0 {
                    let _ = state
                        .done_cv
                        .wait_timeout(guard, Duration::from_millis(1))
                        .unwrap();
                }
            }
        }

        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = state.panic.lock().unwrap().take() {
                    resume_unwind(payload);
                }
                value
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let _lifecycle = sb_trace::sched_span("pool-shutdown");
        self.shared.shutdown.store(true, Ordering::Release);
        notify(&self.shared);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done: Mutex<()>,
    done_cv: Condvar,
}

/// Spawns tasks tied to an enclosing [`Pool::scope`] call; tasks may
/// borrow anything that outlives `'env`.
pub struct Scope<'env> {
    shared: Arc<Shared>,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Spawns a task on the pool. The task may borrow from the
    /// environment; [`Pool::scope`] joins it before returning.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = self.state.clone();
        let wrapper: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if state.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _guard = state.done.lock().unwrap();
                state.done_cv.notify_all();
            }
        });
        // SAFETY: only the lifetime is erased. `Pool::scope` blocks until
        // `pending` reaches zero, and `pending` is decremented strictly
        // after the closure has returned, so the task (and everything it
        // borrows from `'env`) is done before `'env` can end.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(wrapper)
        };
        push(&self.shared, task);
    }
}

fn worker_main(shared: Arc<Shared>, idx: usize) {
    WORKER.with(|w| *w.borrow_mut() = Some((Arc::downgrade(&shared), idx)));
    loop {
        // Snapshot the generation *before* scanning, so a push racing
        // with the scan is visible either in the queues or in the
        // generation check below.
        let gen = *shared.signal.lock().unwrap();
        if let Some(task) = find_task(&shared, Some(idx)) {
            task();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let guard = shared.signal.lock().unwrap();
        if *guard == gen && !shared.shutdown.load(Ordering::Acquire) {
            sb_trace::count(sb_trace::CounterId::ParkEvents, 1);
            // Timeout is a backstop only; pushes notify the condvar.
            let _ = shared
                .signal_cv
                .wait_timeout(guard, Duration::from_millis(50))
                .unwrap();
        }
    }
}

/// Pops the next runnable task: own deque (LIFO), injector (FIFO), then
/// steal from other workers (FIFO). `me` is the caller's worker index in
/// this pool, if it is one of its workers.
pub(crate) fn find_task(shared: &Shared, me: Option<usize>) -> Option<Task> {
    if let Some(i) = me {
        if let Some(task) = shared.deques[i].lock().unwrap().pop_back() {
            return Some(task);
        }
    }
    if let Some(task) = shared.injector.lock().unwrap().pop_front() {
        return Some(task);
    }
    let n = shared.deques.len();
    let start = me.map_or(0, |i| i + 1);
    for off in 0..n {
        let j = (start + off) % n;
        if me == Some(j) {
            continue;
        }
        if let Some(task) = shared.deques[j].lock().unwrap().pop_front() {
            sb_trace::count(sb_trace::CounterId::TasksStolen, 1);
            return Some(task);
        }
    }
    None
}

/// The calling thread's worker index, if it is a worker of this pool.
pub(crate) fn current_worker_index(shared: &Arc<Shared>) -> Option<usize> {
    WORKER.with(|w| {
        let borrow = w.borrow();
        let (weak, idx) = borrow.as_ref()?;
        let owner = weak.upgrade()?;
        Arc::ptr_eq(&owner, shared).then_some(*idx)
    })
}

/// Enqueues a task: onto the local deque when called from one of this
/// pool's workers, onto the injector otherwise; then wakes a sleeper.
pub(crate) fn push(shared: &Arc<Shared>, task: Task) {
    sb_trace::count(sb_trace::CounterId::TasksSpawned, 1);
    match current_worker_index(shared) {
        Some(idx) => shared.deques[idx].lock().unwrap().push_back(task),
        None => shared.injector.lock().unwrap().push_back(task),
    }
    notify(shared);
}

fn notify(shared: &Shared) {
    *shared.signal.lock().unwrap() += 1;
    shared.signal_cv.notify_all();
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_all_tasks() {
        let pool = Pool::new(3);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scope_tasks_can_borrow_locals() {
        let pool = Pool::new(2);
        let mut slots = vec![0usize; 8];
        pool.scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || *slot = i * 2);
            }
        });
        assert_eq!(slots, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn scope_propagates_task_panic() {
        let pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task exploded"));
            });
        }));
        let message = panic_message(result.unwrap_err().as_ref());
        assert!(message.contains("task exploded"), "{message}");
    }

    #[test]
    fn panicking_task_does_not_leak_pending_work() {
        // Other tasks in the same scope still run to completion.
        let pool = Pool::new(2);
        let counter = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
                for _ in 0..50 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn nested_scopes_do_not_deadlock_on_one_worker() {
        let pool = Pool::new(1);
        let pool_ref = &pool;
        let counter = AtomicUsize::new(0);
        pool.scope(|outer| {
            outer.spawn(|| {
                // This runs *on the single worker*, which must help-run
                // the inner scope's tasks while waiting for them.
                pool_ref.scope(|inner| {
                    for _ in 0..4 {
                        inner.spawn(|| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn detached_spawn_captures_panics() {
        // Event-driven synchronization: the panic record is pushed before
        // the panicking task's wrapper returns, and on a 1-worker pool the
        // injector is drained FIFO, so a second detached task signalling a
        // channel proves the first (and its record) completed. No sleeps,
        // no polling.
        let pool = Pool::new(1);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        pool.spawn(|| panic!("detached boom"));
        pool.spawn(move || tx.send(()).unwrap());
        rx.recv().expect("sentinel task ran");
        let panics = pool.take_panics();
        assert_eq!(panics.len(), 1);
        assert!(panics[0].contains("detached boom"));
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Pool::new(4);
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn(std::thread::yield_now);
            }
        });
        drop(pool); // must not hang
    }
}
