//! The reference mix: a fixed piece of work owned by the benchmark, timed
//! right before and right after every CPU-bound measurement so that the
//! measurement can be given in reference milliseconds.
//!
//! The benchmark runs on a few cores of a shared host. When other tenants
//! are busy, the same code runs up to 1.7 times slower, for seconds to
//! minutes at a time, without being descheduled: the host takes cycles
//! and cache from the running thread. No statistic of one run removes a
//! slowdown that lasts the whole run, so two runs of the same code could
//! differ by more than any useful bound. The mix slows down with the
//! code it brackets. A wall time divided by the mix's wall time in ms
//! keeps what the program's code changed and drops most of what the host
//! changed.
//!
//! The mix resembles the program's hot loops: a small dense matrix
//! product (training and dense inference), a sparse row gather (CSR
//! inference) and allocation with a queue (per-request serving work).
//! It takes about 1 ms on a quiet host, so a time in reference ms reads
//! close to the wall time there. It never calls the program, so a change
//! to the program leaves it alone.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

const M: usize = 64;
const K: usize = 256;
const N: usize = 64;
const ROWS: usize = 256;
const COLS: usize = 784;
const ROW_NNZ: usize = 49;
const SAMPLES: usize = 16;
const QUEUED: usize = 1200;

/// One thread's buffers for the mix.
struct Mix {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    cols: Vec<u32>,
    vals: Vec<f32>,
    x: Vec<f32>,
    y: Vec<f32>,
}

impl Mix {
    fn new() -> Mix {
        let mut state: u32 = 0x2545_F491;
        let cols = (0..ROWS * ROW_NNZ)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 8) % COLS as u32
            })
            .collect();
        Mix {
            a: (0..M * K).map(|i| (i % 17) as f32 * 0.01).collect(),
            b: (0..K * N).map(|i| (i % 13) as f32 * 0.02).collect(),
            c: vec![0.0; M * N],
            cols,
            vals: (0..ROWS * ROW_NNZ).map(|i| (i % 7) as f32 * 0.1).collect(),
            x: (0..SAMPLES * COLS)
                .map(|i| (i % 11) as f32 * 0.05)
                .collect(),
            y: vec![0.0; SAMPLES * ROWS],
        }
    }

    /// Runs the mix once; returns its wall time in ms.
    fn run_ms(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..4 {
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            self.c.fill(0.0);
            for i in 0..M {
                let out = &mut self.c[i * N..(i + 1) * N];
                for k in 0..K {
                    let aik = a[i * K + k];
                    for (o, &bkj) in out.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                        *o += aik * bkj;
                    }
                }
            }
            black_box(&self.c);
        }
        for _ in 0..3 {
            let x = black_box(&self.x);
            for s in 0..SAMPLES {
                let xs = &x[s * COLS..(s + 1) * COLS];
                for r in 0..ROWS {
                    let span = r * ROW_NNZ..(r + 1) * ROW_NNZ;
                    self.y[s * ROWS + r] = self.cols[span.clone()]
                        .iter()
                        .zip(&self.vals[span])
                        .map(|(&c, &v)| v * xs[c as usize])
                        .sum();
                }
            }
            black_box(&self.y);
        }
        let mut queue: VecDeque<Vec<f32>> = VecDeque::new();
        let mut sum = 0.0f32;
        let src = black_box(&self.x[..COLS]);
        for i in 0..QUEUED {
            queue.push_back(src.to_vec());
            if queue.len() > SAMPLES {
                sum += queue.pop_front().map_or(0.0, |v| v[i % COLS]);
            }
        }
        black_box(sum);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Times the mix on as many threads as the measurement it brackets uses.
pub struct Calibrator {
    mixes: Vec<Mix>,
    /// Every sample taken, ms.
    samples: Vec<f64>,
}

impl Calibrator {
    /// A calibrator running the mix on `threads` threads at once. The mix
    /// runs once untimed, so its buffers are warm.
    pub fn new(threads: usize) -> Calibrator {
        let mut c = Calibrator {
            mixes: (0..threads.max(1)).map(|_| Mix::new()).collect(),
            samples: Vec::new(),
        };
        c.sample_ms();
        c.samples.clear();
        c
    }

    /// Runs the mix on every thread at once; returns the mean wall time,
    /// ms.
    fn sample_ms(&mut self) -> f64 {
        let threads = self.mixes.len() as f64;
        let ms = match self.mixes.as_mut_slice() {
            [only] => only.run_ms(),
            [first, rest @ ..] => std::thread::scope(|s| {
                let others: Vec<_> = rest.iter_mut().map(|m| s.spawn(|| m.run_ms())).collect();
                let mine = first.run_ms();
                let total: f64 = others
                    .into_iter()
                    .map(|h| h.join().expect("the mix does not panic"))
                    .sum();
                (mine + total) / threads
            }),
            [] => unreachable!("a calibrator has at least one thread"),
        };
        self.samples.push(ms);
        ms
    }

    /// Runs `f` between two samples of the mix. Returns `f`'s output and
    /// the mean of the two samples, ms: divide a wall time in ms by it to
    /// get reference ms.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.sample_ms();
        let out = f();
        let after = self.sample_ms();
        (out, (before + after) / 2.0)
    }

    /// Median of every sample taken since [`Calibrator::new`], ms.
    pub fn median_ms(&self) -> f64 {
        crate::report::median(&self.samples)
    }
}
