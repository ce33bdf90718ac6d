//! Realized (wall-clock) performance profiling.
//!
//! [`crate::ModelProfile::theoretical_speedup`] counts MACs; this module
//! measures what a pruned model actually buys on the machine it runs on.
//! The paper (Section 6) stresses that the two routinely disagree —
//! unstructured sparsity that looks like 16× on paper may realize barely
//! 2× through a CSR kernel, while structured shrinking tracks theory
//! closely. [`RealizedProfile`] captures that gap as data.
//!
//! Measurement is closure-based so this crate stays independent of any
//! particular execution engine: callers (the experiment runner, the
//! `expfig` inference figures and sb-infer's speed suite) pass "run the
//! candidate once" / "run the dense baseline once" thunks. Latency is
//! the **median of k runs** after one untimed warmup. The median shrugs off a single slow run, but not a slow
//! stretch of a shared host: timed back to back, k baseline runs and then
//! k candidate runs put any drift between the two stretches into the
//! ratio. [`RealizedProfile::measure`] therefore times k *pairs* and
//! alternates which thunk of a pair runs first, so drift and position
//! effects hit both alike. Even so, a ratio is only steady enough to
//! assert on with many pairs, so the wall-clock floors in
//! `crates/infer/tests/speed.rs` use k = 101.

use sb_json::json_struct;
use std::time::Instant;

/// Microseconds one call of `f` takes.
fn time_us<F: FnMut()>(f: &mut F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = times.len() / 2;
    if times.len() % 2 == 1 {
        times[mid]
    } else {
        (times[mid - 1] + times[mid]) / 2.0
    }
}

/// Measured wall-clock profile of a compiled model against its dense
/// baseline: the realized counterpart of theoretical speedup.
#[derive(Debug, Clone, PartialEq)]
pub struct RealizedProfile {
    /// Median candidate latency per invocation, microseconds.
    pub latency_us: f64,
    /// Median dense-baseline latency per invocation, microseconds.
    pub baseline_latency_us: f64,
    /// `baseline_latency_us / latency_us` — wall-clock speedup actually
    /// delivered (1.0 means pruning bought nothing at runtime).
    pub realized_speedup: f64,
    /// Bytes the candidate's compiled parameters occupy.
    pub storage_bytes: usize,
    /// Timed runs per median (`k`).
    pub samples: usize,
}

json_struct!(RealizedProfile {
    latency_us,
    baseline_latency_us,
    realized_speedup,
    storage_bytes,
    samples
});

impl RealizedProfile {
    /// Times `candidate` and `baseline` and derives the realized speedup
    /// from their median latencies. After one untimed warmup of each, it
    /// times `k` pairs: pair `i` runs the baseline first when `i` is even
    /// and the candidate first when it is odd.
    ///
    /// Both thunks should perform the *same logical work* (e.g. one
    /// forward pass over the same batch) for the ratio to mean anything.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn measure<C, B>(k: usize, storage_bytes: usize, candidate: C, baseline: B) -> Self
    where
        C: FnMut(),
        B: FnMut(),
    {
        assert!(k > 0, "need at least one timed run");
        let mut candidate = candidate;
        let mut baseline = baseline;
        baseline();
        candidate();
        let mut baseline_us = Vec::with_capacity(k);
        let mut candidate_us = Vec::with_capacity(k);
        for i in 0..k {
            if i % 2 == 0 {
                baseline_us.push(time_us(&mut baseline));
                candidate_us.push(time_us(&mut candidate));
            } else {
                candidate_us.push(time_us(&mut candidate));
                baseline_us.push(time_us(&mut baseline));
            }
        }
        let baseline_latency_us = median(baseline_us);
        let latency_us = median(candidate_us);
        RealizedProfile {
            latency_us,
            baseline_latency_us,
            realized_speedup: baseline_latency_us / latency_us.max(f64::MIN_POSITIVE),
            storage_bytes,
            samples: k,
        }
    }
}

/// One labeled point of a [`RealizedSweep`]: a candidate (usually an
/// execution format) measured against the sweep's shared baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RealizedPoint {
    /// Candidate label (e.g. the format name: `"csr"`, `"bsr"`).
    pub label: String,
    /// The candidate's profile against the shared baseline.
    pub profile: RealizedProfile,
}

json_struct!(RealizedPoint { label, profile });

/// Several candidates measured against **one** shared baseline — the
/// shape of a format-crossover experiment. Measuring the baseline once
/// (instead of once per candidate) keeps the points comparable: every
/// realized-speedup ratio has the same denominator, so candidate A
/// beating candidate B on `realized_speedup` means A beat B on
/// wall-clock, not that the baseline was remeasured on a noisier
/// scheduler slice.
#[derive(Debug, Clone, PartialEq)]
pub struct RealizedSweep {
    /// Median shared-baseline latency per invocation, microseconds.
    pub baseline_latency_us: f64,
    /// Labeled candidate measurements, in insertion order.
    pub points: Vec<RealizedPoint>,
    /// Timed runs per median (`k`).
    pub samples: usize,
}

json_struct!(RealizedSweep {
    baseline_latency_us,
    points,
    samples
});

impl RealizedSweep {
    /// Times the shared `baseline` and each labeled candidate (median of
    /// `k` runs each, after one untimed warmup apiece) in `k` rounds that
    /// run every thunk once. Round `i` starts at thunk `i` (mod the thunk
    /// count, the baseline being thunk 0), so drift over the sweep and
    /// position effects hit every point alike, as in
    /// [`RealizedProfile::measure`]. `candidates` supplies
    /// `(label, storage_bytes, thunk)` triples.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn measure<B, C>(k: usize, baseline: B, candidates: Vec<(String, usize, C)>) -> Self
    where
        B: FnMut(),
        C: FnMut(),
    {
        assert!(k > 0, "need at least one timed run");
        let mut baseline = baseline;
        let (labels, mut thunks): (Vec<(String, usize)>, Vec<C>) = candidates
            .into_iter()
            .map(|(label, storage_bytes, thunk)| ((label, storage_bytes), thunk))
            .unzip();
        baseline();
        thunks.iter_mut().for_each(|t| t());
        let n = thunks.len() + 1;
        let mut times = vec![Vec::with_capacity(k); n];
        for i in 0..k {
            for slot in (i..i + n).map(|j| j % n) {
                let us = match slot {
                    0 => time_us(&mut baseline),
                    _ => time_us(&mut thunks[slot - 1]),
                };
                times[slot].push(us);
            }
        }
        let mut medians = times.into_iter().map(median);
        let baseline_latency_us = medians.next().expect("baseline timings");
        let points = labels
            .into_iter()
            .zip(medians)
            .map(|((label, storage_bytes), latency_us)| RealizedPoint {
                label,
                profile: RealizedProfile {
                    latency_us,
                    baseline_latency_us,
                    realized_speedup: baseline_latency_us / latency_us.max(f64::MIN_POSITIVE),
                    storage_bytes,
                    samples: k,
                },
            })
            .collect();
        RealizedSweep {
            baseline_latency_us,
            points,
            samples: k,
        }
    }

    /// The point with the highest realized speedup (None when empty).
    pub fn best(&self) -> Option<&RealizedPoint> {
        self.points.iter().max_by(|a, b| {
            a.profile
                .realized_speedup
                .partial_cmp(&b.profile.realized_speedup)
                .expect("finite speedups")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_speedup_of_slower_baseline() {
        let profile = RealizedProfile::measure(
            3,
            1234,
            || {
                std::hint::black_box((0..100).sum::<u64>());
            },
            || {
                std::thread::sleep(std::time::Duration::from_millis(2));
            },
        );
        assert!(profile.realized_speedup > 1.0);
        assert_eq!(profile.storage_bytes, 1234);
        assert_eq!(profile.samples, 3);
        let json = sb_json::to_string(&profile).unwrap();
        let back: RealizedProfile = sb_json::from_str(&json).unwrap();
        assert_eq!(back, profile);
    }

    #[test]
    fn measure_warms_up_both_then_alternates_pairs() {
        let calls = std::cell::RefCell::new(String::new());
        let profile = RealizedProfile::measure(
            3,
            0,
            || calls.borrow_mut().push('c'),
            || calls.borrow_mut().push('b'),
        );
        // The warmups, then pairs 0, 1 and 2.
        assert_eq!(calls.into_inner(), "bc".to_owned() + "bc" + "cb" + "bc");
        assert_eq!(profile.samples, 3);
    }

    #[test]
    fn sweep_warms_up_every_thunk_then_rotates_rounds() {
        let calls = std::cell::RefCell::new(String::new());
        let calls = &calls;
        let thunk = |c: char| Box::new(move || calls.borrow_mut().push(c)) as Box<dyn FnMut()>;
        RealizedSweep::measure(
            3,
            || calls.borrow_mut().push('b'),
            vec![
                ("x".to_string(), 0, thunk('x')),
                ("y".to_string(), 0, thunk('y')),
            ],
        );
        // The warmups, then rounds 0, 1 and 2.
        assert_eq!(*calls.borrow(), "bxy".to_owned() + "bxy" + "xyb" + "ybx");
    }

    #[test]
    fn sweep_shares_one_baseline_across_points() {
        let sweep = RealizedSweep::measure(
            3,
            || {
                std::thread::sleep(std::time::Duration::from_millis(2));
            },
            vec![
                (
                    "fast".to_string(),
                    10,
                    Box::new(|| {
                        std::hint::black_box((0..100).sum::<u64>());
                    }) as Box<dyn FnMut()>,
                ),
                (
                    "slow".to_string(),
                    20,
                    Box::new(|| {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }),
                ),
            ],
        );
        assert_eq!(sweep.points.len(), 2);
        for p in &sweep.points {
            assert_eq!(
                p.profile.baseline_latency_us, sweep.baseline_latency_us,
                "every point shares the sweep baseline"
            );
        }
        assert_eq!(sweep.best().expect("points").label, "fast");
        let json = sb_json::to_string(&sweep).unwrap();
        let back: RealizedSweep = sb_json::from_str(&json).unwrap();
        assert_eq!(back, sweep);
    }
}
