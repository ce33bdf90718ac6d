//! Minimal wall-clock benchmark harness.
//!
//! The workspace builds hermetically — no registry access — so the
//! benches cannot depend on Criterion. This module provides the small
//! slice of its API the benches actually use: named benchmarks, groups,
//! `iter`/`iter_batched`, and a per-benchmark report of wall-clock time
//! per iteration. Each bench target keeps `harness = false` and drives a
//! [`Timer`] from its own `main`.
//!
//! Methodology: a short warm-up, then timing batches until the
//! measurement budget is spent. Every batch's mean per iteration is kept
//! as one sample; the report gives the *minimum* (scheduler noise only
//! ever adds time) beside the median and the 10th and 90th percentiles,
//! so a reader sees how far one run's samples spread. Budgets are
//! tunable via `SB_BENCH_WARMUP_MS` and `SB_BENCH_BUDGET_MS` so CI can
//! run the benches as smoke tests in milliseconds.

use std::time::{Duration, Instant};

/// Mirror of Criterion's batch-size hint. The harness sizes batches by
/// measured cost, so the hint only selects how many setup calls are
/// amortized per timing batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Setup is cheap relative to the routine; batch freely.
    SmallInput,
    /// Setup is comparable to the routine; keep batches small.
    LargeInput,
    /// Time one routine call per setup call.
    PerIteration,
}

fn env_ms(name: &str, default_ms: u64) -> Duration {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map_or(Duration::from_millis(default_ms), Duration::from_millis)
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Full benchmark id, `group/name` for grouped benchmarks.
    pub id: String,
    /// Mean nanoseconds per iteration of every timing batch, ascending
    /// and never empty.
    samples_ns: Vec<f64>,
    /// Total iterations timed.
    pub iterations: u64,
}

impl Measurement {
    /// The best (minimum) sample, ns per iteration.
    pub fn min_ns(&self) -> f64 {
        self.samples_ns[0]
    }

    /// The `q`-quantile of the samples (`0 ≤ q ≤ 1`), interpolated
    /// linearly between the two nearest ranks.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let pos = q.clamp(0.0, 1.0) * (self.samples_ns.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        let (a, b) = (self.samples_ns[lo], self.samples_ns[hi]);
        a + (b - a) * (pos - lo as f64)
    }

    /// The median sample, ns per iteration.
    pub fn median_ns(&self) -> f64 {
        self.quantile_ns(0.5)
    }

    /// `min  median [p10, p90]`, each in a readable unit.
    fn spread(&self) -> String {
        format!(
            "{:>10}  median {:>10} [{}, {}]",
            human_time(self.min_ns()),
            human_time(self.median_ns()),
            human_time(self.quantile_ns(0.1)),
            human_time(self.quantile_ns(0.9))
        )
    }
}

/// `ns` in the largest unit that keeps it at or above 1.
fn human_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// The benchmark driver: registers measurements and prints the report.
#[derive(Debug)]
pub struct Timer {
    warmup: Duration,
    budget: Duration,
    results: Vec<Measurement>,
}

impl Default for Timer {
    fn default() -> Self {
        Timer::new()
    }
}

impl Timer {
    /// A driver with budgets from `SB_BENCH_WARMUP_MS` /
    /// `SB_BENCH_BUDGET_MS` (defaults: 100 ms warm-up, 400 ms
    /// measurement per benchmark).
    pub fn new() -> Self {
        Timer {
            warmup: env_ms("SB_BENCH_WARMUP_MS", 100),
            budget: env_ms("SB_BENCH_BUDGET_MS", 400),
            results: Vec::new(),
        }
    }

    /// Runs one named benchmark.
    pub fn bench_function(&mut self, name: impl Into<String>, mut f: impl FnMut(&mut Bencher)) {
        let id = name.into();
        let mut bencher = Bencher {
            warmup: self.warmup,
            budget: self.budget,
            samples_ns: Vec::new(),
            iterations: 0,
        };
        f(&mut bencher);
        let mut samples_ns = bencher.samples_ns;
        assert!(!samples_ns.is_empty(), "benchmark {id} timed nothing");
        samples_ns.sort_by(f64::total_cmp);
        let m = Measurement {
            id,
            samples_ns,
            iterations: bencher.iterations,
        };
        eprintln!(
            "{:<44} {}  ({} iters, {} samples)",
            m.id,
            m.spread(),
            m.iterations,
            m.samples_ns.len()
        );
        self.results.push(m);
    }

    /// Starts a named group; benchmarks run inside it get `group/name`
    /// ids.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            timer: self,
            prefix: name.into(),
        }
    }

    /// All measurements registered so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Prints the final summary table.
    pub fn finish(&self) {
        eprintln!(
            "\n{} benchmarks, mean per iteration: min  median [p10, p90]",
            self.results.len()
        );
        for m in &self.results {
            eprintln!("  {:<44} {}", m.id, m.spread());
        }
    }
}

/// A named benchmark group (prefixes ids; Criterion-compatible shape).
#[derive(Debug)]
pub struct Group<'a> {
    timer: &'a mut Timer,
    prefix: String,
}

impl Group<'_> {
    /// Accepted for source compatibility; the harness sizes batches by
    /// wall-clock budget, not sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark under the group prefix.
    pub fn bench_function(&mut self, name: impl std::fmt::Display, f: impl FnMut(&mut Bencher)) {
        let id = format!("{}/{}", self.prefix, name);
        self.timer.bench_function(id, f);
    }

    /// Ends the group (no-op; exists to mirror Criterion).
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; times the routine.
#[derive(Debug)]
pub struct Bencher {
    warmup: Duration,
    budget: Duration,
    samples_ns: Vec<f64>,
    iterations: u64,
}

impl Bencher {
    /// Times `routine` repeatedly.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        // Warm up while estimating per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            std::hint::black_box(routine());
            warm_iters += 1;
        }
        let est_ns = (warm_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);

        // Aim for ~10 timing batches within the budget.
        let batch = ((self.budget.as_nanos() as f64 / 10.0 / est_ns).ceil() as u64).max(1);
        let deadline = Instant::now() + self.budget;
        let mut batches = 0u32;
        while Instant::now() < deadline || batches == 0 {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            self.samples_ns.push(t.elapsed().as_nanos() as f64 / batch as f64);
            self.iterations += batch;
            batches += 1;
        }
    }

    /// Times `routine` over values produced by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
        _size: BatchSize,
    ) {
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        let mut warm_ns: u128 = 0;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            let input = setup();
            let t = Instant::now();
            std::hint::black_box(routine(input));
            warm_ns += t.elapsed().as_nanos();
            warm_iters += 1;
        }
        let est_ns = (warm_ns as f64 / warm_iters as f64).max(1.0);

        let target_iters = ((self.budget.as_nanos() as f64 / est_ns).ceil() as u64).clamp(1, 1_000_000);
        for _ in 0..target_iters {
            let input = setup();
            let t = Instant::now();
            std::hint::black_box(routine(input));
            self.samples_ns.push(t.elapsed().as_nanos() as f64);
            self.iterations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_timer() -> Timer {
        Timer {
            warmup: Duration::from_millis(1),
            budget: Duration::from_millis(5),
            results: Vec::new(),
        }
    }

    #[test]
    fn iter_produces_positive_estimate() {
        let mut timer = fast_timer();
        timer.bench_function("spin", |b| {
            b.iter(|| (0..100u64).sum::<u64>())
        });
        let m = &timer.results()[0];
        assert!(m.min_ns().is_finite() && m.min_ns() > 0.0);
        assert!(m.iterations > 0);
    }

    #[test]
    fn iter_batched_excludes_setup_cost() {
        let mut timer = fast_timer();
        timer.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u8; 1024],
                |v| v.iter().map(|&x| x as u64).sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        let m = &timer.results()[0];
        assert!(m.min_ns().is_finite() && m.min_ns() > 0.0);
    }

    #[test]
    fn groups_prefix_ids() {
        let mut timer = fast_timer();
        {
            let mut group = timer.benchmark_group("g");
            group.sample_size(10);
            group.bench_function("inner", |b| b.iter(|| 1 + 1));
            group.finish();
        }
        assert_eq!(timer.results()[0].id, "g/inner");
    }

    #[test]
    fn human_times_cover_magnitudes() {
        assert!(human_time(5.0).ends_with("ns"));
        assert!(human_time(5_000.0).ends_with("µs"));
        assert!(human_time(5_000_000.0).ends_with("ms"));
        assert!(human_time(5_000_000_000.0).ends_with(" s"));
    }

    #[test]
    fn every_sample_is_kept_and_the_spread_is_ordered() {
        let mut timer = fast_timer();
        timer.bench_function("spin", |b| b.iter(|| (0..100u64).sum::<u64>()));
        timer.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::PerIteration)
        });
        for m in timer.results() {
            assert!(m.samples_ns.len() > 1, "{}: one sample per batch", m.id);
            assert!(m.samples_ns.windows(2).all(|w| w[0] <= w[1]), "ascending");
            let (p10, median, p90) = (m.quantile_ns(0.1), m.median_ns(), m.quantile_ns(0.9));
            assert!(m.min_ns() <= p10 && p10 <= median && median <= p90, "{}", m.id);
            assert!(p90 <= m.quantile_ns(1.0));
        }
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let m = Measurement {
            id: String::new(),
            samples_ns: vec![10.0, 20.0, 30.0, 40.0, 50.0],
            iterations: 5,
        };
        let near = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert_eq!(m.min_ns(), 10.0);
        assert_eq!(m.median_ns(), 30.0);
        assert!(near(m.quantile_ns(0.1), 14.0));
        assert!(near(m.quantile_ns(0.9), 46.0));
        assert_eq!(m.quantile_ns(1.0), 50.0);
        let even = Measurement {
            samples_ns: vec![1.0, 3.0],
            ..m
        };
        assert_eq!(even.median_ns(), 2.0);
    }
}
