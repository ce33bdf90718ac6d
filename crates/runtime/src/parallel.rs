//! Deterministic data-parallel helpers: `parallel_for` and friends.
//!
//! # The determinism contract
//!
//! Every helper here decomposes its work into **chunks whose boundaries
//! depend only on the arguments** — never on the worker count or on
//! scheduling — and **commits results in submission (chunk) order**.
//! Each chunk is computed by a pure, single-threaded closure. The output
//! is therefore bit-identical for any `SB_RUNTIME_THREADS`, including 1:
//! the sequential path iterates the *same* chunk decomposition inline and
//! folds in the *same* order, so even non-associative `f32` reductions
//! reproduce exactly.
//!
//! Callers must pick chunk sizes as a function of the problem shape only
//! (e.g. "64 rows" or "one sample"), which every call site in the
//! workspace does.

use crate::{effective_parallelism, global_pool};
use std::ops::Range;

fn chunk_count(n: usize, chunk: usize) -> usize {
    assert!(chunk > 0, "chunk size must be positive");
    n.div_ceil(chunk)
}

fn chunk_range(ci: usize, chunk: usize, n: usize) -> Range<usize> {
    let lo = ci * chunk;
    lo..((lo + chunk).min(n))
}

/// Maps fixed-size index chunks of `0..n` in parallel, returning the
/// per-chunk results **in chunk order**.
///
/// `f` receives each chunk's index range and must be pure (same range →
/// same value). With one effective thread (or a single chunk) the chunks
/// run inline in order — the exact fold any parallel run reproduces.
pub fn map_chunks<T, F>(n: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let nchunks = chunk_count(n, chunk);
    if effective_parallelism() == 1 || nchunks <= 1 {
        return (0..nchunks).map(|ci| f(chunk_range(ci, chunk, n))).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::with_capacity(nchunks);
    slots.resize_with(nchunks, || None);
    // Chunk tasks keep the caller's logical span path, so spans opened
    // inside a chunk aggregate identically whether the chunk ran inline
    // (1 thread) or on a stolen worker.
    let parent = sb_trace::current_path();
    global_pool().scope(|s| {
        for (ci, slot) in slots.iter_mut().enumerate() {
            let f = &f;
            let parent = &parent;
            s.spawn(move || {
                *slot = Some(sb_trace::with_path(parent, || f(chunk_range(ci, chunk, n))));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("scope joined every chunk task"))
        .collect()
}

/// `parallel_for` with deterministic ordered reduction: maps index chunks
/// of `0..n` in parallel, then folds the per-chunk results **in chunk
/// order** on the calling thread.
///
/// Because the decomposition is fixed by `(n, chunk)` and the fold order
/// is fixed by chunk index, the result is bit-identical for any worker
/// count — even for non-associative accumulators like `f32` sums.
pub fn parallel_for<T, A, M, F>(n: usize, chunk: usize, map: M, init: A, fold: F) -> A
where
    T: Send,
    M: Fn(Range<usize>) -> T + Sync,
    F: FnMut(A, T) -> A,
{
    map_chunks(n, chunk, map).into_iter().fold(init, fold)
}

/// Splits `data` into consecutive `chunk_len`-element blocks (the last
/// may be shorter), hands each block to `f` together with its chunk
/// index, and returns the per-chunk results in chunk order.
///
/// The blocks are disjoint `&mut` slices, so tasks can write their part
/// of a shared output buffer without locks; because every element is
/// written by exactly one chunk and `f` is single-threaded per chunk, the
/// buffer contents are identical for any worker count.
pub fn map_chunks_mut<T, R, F>(data: &mut [T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    let nchunks = chunk_count(data.len(), chunk_len);
    if effective_parallelism() == 1 || nchunks <= 1 {
        return data
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(ci, block)| f(ci, block))
            .collect();
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(nchunks);
    slots.resize_with(nchunks, || None);
    let parent = sb_trace::current_path();
    global_pool().scope(|s| {
        for ((ci, block), slot) in data.chunks_mut(chunk_len).enumerate().zip(slots.iter_mut()) {
            let f = &f;
            let parent = &parent;
            s.spawn(move || *slot = Some(sb_trace::with_path(parent, || f(ci, block))));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("scope joined every chunk task"))
        .collect()
}

/// [`map_chunks_mut`] without per-chunk results: runs `f` over disjoint
/// mutable blocks of `data`.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let _: Vec<()> = map_chunks_mut(data, chunk_len, |ci, block| f(ci, block));
}

/// Maps owned items in parallel (one task per item), returning results
/// **in item order**.
///
/// Suited to coarse-grained fan-out — experiment cells, per-paper
/// analyses — where each item is substantial enough to amortize a task.
pub fn map_items<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    if effective_parallelism() == 1 || items.len() <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let n = items.len();
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let parent = sb_trace::current_path();
    global_pool().scope(|s| {
        for ((i, item), slot) in items.into_iter().enumerate().zip(slots.iter_mut()) {
            let f = &f;
            let parent = &parent;
            s.spawn(move || *slot = Some(sb_trace::with_path(parent, || f(i, item))));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("scope joined every item task"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_chunks_covers_ranges_in_order() {
        let ranges = map_chunks(10, 3, |r| r);
        assert_eq!(ranges, vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(map_chunks(0, 4, |r| r), Vec::<Range<usize>>::new());
    }

    #[test]
    fn parallel_for_matches_sequential_fold_exactly() {
        // Pathologically ill-conditioned f32 sum: any reordering changes
        // the bits, so equality here is the determinism contract.
        let xs: Vec<f32> = (0..1000)
            .map(|i| if i % 2 == 0 { 1e7 } else { -0.001 * i as f32 })
            .collect();
        let expected = {
            let mut acc = 0.0f32;
            for ci in 0..xs.len().div_ceil(63) {
                let lo = ci * 63;
                let hi = (lo + 63).min(xs.len());
                let mut part = 0.0f32;
                for &v in &xs[lo..hi] {
                    part += v;
                }
                acc += part;
            }
            acc
        };
        let got = parallel_for(
            xs.len(),
            63,
            |r| {
                let mut part = 0.0f32;
                for &v in &xs[r] {
                    part += v;
                }
                part
            },
            0.0f32,
            |acc, part| acc + part,
        );
        assert_eq!(got.to_bits(), expected.to_bits());
    }

    #[test]
    fn map_chunks_mut_writes_every_element_once() {
        let mut data = vec![0u32; 100];
        for_each_chunk_mut(&mut data, 7, |ci, block| {
            for v in block.iter_mut() {
                assert_eq!(*v, 0, "element written twice");
                *v = ci as u32 + 1;
            }
        });
        assert!(data.iter().all(|&v| v != 0));
        // First chunk is chunk 0, last element belongs to chunk 14.
        assert_eq!(data[0], 1);
        assert_eq!(data[99], 15);
    }

    #[test]
    fn map_items_preserves_order() {
        let items: Vec<usize> = (0..50).collect();
        let out = map_items(items, |i, item| {
            assert_eq!(i, item);
            item * 3
        });
        assert_eq!(out, (0..50).map(|i| i * 3).collect::<Vec<_>>());
    }
}
