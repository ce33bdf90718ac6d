//! Metric samples, their summaries, and what one workload run reports.

/// One named metric and every sample a run took of it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
    /// The quantile of the samples that is reported.
    pub q: f64,
}

impl Metric {
    /// Reported as the median of `samples`.
    pub fn median(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            samples,
            q: 0.5,
        }
    }

    /// Reported as the 90th percentile of `samples`.
    pub fn p90(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            q: 0.9,
            ..Metric::median(name, unit, samples)
        }
    }

    pub fn one(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::median(name, unit, vec![value])
    }

    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }

    /// The reported value.
    pub fn value(&self) -> f64 {
        quantile_of(&self.samples, self.q)
    }
}

/// Median and quartiles of a sample set, interpolated between closest
/// ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

impl Summary {
    /// All-zero for an empty set, so a layer a workload never calls
    /// reads 0 rather than failing the run.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&sorted, 0.5),
            p25: quantile(&sorted, 0.25),
            p75: quantile(&sorted, 0.75),
            n: sorted.len(),
        }
    }
}

/// Linearly interpolated quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// `quantile` of an unsorted sample set.
pub fn quantile_of(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, q)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile_of(samples, 0.5)
}

/// Nearest-rank percentile of an ascending slice of microsecond
/// latencies: the smallest value with at least `q·n` values at or below
/// it (0 when empty).
pub fn rank_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Runtime worker threads the workload ran with.
    pub threads: usize,
    /// Median wall time of the reference mix while the workload measured,
    /// ms: multiply a time in reference ms by it for the wall time.
    pub reference_ms: f64,
    /// The end-to-end metrics, or with `--trace 1` the per-layer ones.
    pub metrics: Vec<Metric>,
    /// Operations the workload attempted (cells, forwards, requests).
    pub attempted: u64,
    /// Of those, how many failed or were shed.
    pub failed: u64,
    /// One line per failed correctness check; empty when all passed.
    pub failures: Vec<String>,
}

impl Report {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Milliseconds in a duration, as the float every timing metric uses.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_and_reported_quantiles() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.p25, s.median, s.p75, s.n), (2.0, 3.0, 4.0, 5));
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.p25, s.median, s.p75), (1.25, 1.5, 1.75));
        assert_eq!(Summary::of(&[]).median, 0.0);
        assert_eq!(rank_us(&[10, 20, 30, 40], 0.5), 20);
        assert_eq!(rank_us(&[10, 20, 30, 40], 0.99), 40);
        let m = Metric::p90("t", "ms", vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert!((m.value() - 4.6).abs() < 1e-12);
        assert_eq!(Metric::median("t", "ms", m.samples.clone()).value(), 3.0);
    }
}
