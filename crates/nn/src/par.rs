//! Data-parallel primitives for the training and inference hot paths.
//!
//! The build environment cannot fetch rayon, so this module provides the
//! small slice the workspace needs on top of `std::thread::scope`: an
//! order-preserving [`par_map`] with work stealing via an atomic cursor.
//!
//! Determinism contract: `par_map` returns results in *item order*, and every
//! item's computation reads only shared immutable state (`&ParamSet`, inputs)
//! plus its own index. Per-item float arithmetic is therefore independent of
//! the thread interleaving, so any reduction the caller performs over the
//! returned `Vec` in index order is bit-identical for every thread count —
//! including the `threads == 1` case, which takes an exact serial path with
//! no thread spawned at all.

use std::sync::atomic::{AtomicUsize, Ordering};

// The parallel layer shares `&ParamSet` across worker threads and sends
// `Gradients`/`Matrix` values back; these compile-time checks document (and
// enforce) that the nn substrate stays free of interior mutability.
const _: () = {
    const fn sync<T: Sync>() {}
    const fn send<T: Send>() {}
    sync::<crate::params::ParamSet>();
    sync::<crate::matrix::Matrix>();
    send::<crate::params::Gradients>();
    send::<crate::matrix::Matrix>();
};

/// Number of worker threads a `num_threads` knob resolves to:
/// `0` means all available cores, any other value is taken literally.
pub fn resolve_threads(num_threads: usize) -> usize {
    if num_threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        num_threads
    }
}

/// Maps `f` over `items` on up to `resolve_threads(num_threads)` scoped
/// threads and returns the results **in item order**.
///
/// `f` receives `(index, &item)`. With an effective thread count of one (or
/// one item) no thread is spawned and the map runs serially — this is the
/// exact `num_threads = 1` path the determinism tests pin against.
///
/// # Panics
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn par_map<T, R, F>(num_threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(num_threads, items, || (), |(), i, t| f(i, t))
}

/// [`par_map`] with per-worker state: every worker (the caller itself on
/// the serial path) builds one state with `init` and hands it to `f` for
/// each item it maps, so items can reuse buffers. The determinism contract
/// is the caller's to keep: an item's result must not depend on what
/// earlier items left in the state.
///
/// # Panics
/// Propagates a panic from `f` (the scope joins all workers first).
#[expect(
    clippy::expect_used,
    reason = "structural invariant: the index partition covers 0..n exactly once"
)]
pub fn par_map_with<T, S, R, I, F>(num_threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = resolve_threads(num_threads).min(n);
    if workers <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let (init, f) = (&init, &f);
                scope.spawn(move || {
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(&mut state, i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            let produced = match handle.join() {
                Ok(p) => p,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            for (i, r) in produced {
                slots[i] = Some(r);
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("par_map: every index visited exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn par_map_preserves_order_and_matches_serial() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            let got = par_map(threads, &items, |_, &x| x * x + 1);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[9u32], |i, &x| x + i as u32), vec![9]);
    }

    #[test]
    fn par_map_index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = par_map(3, &items, |i, s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c", "3d", "4e"]);
    }

    #[test]
    fn par_map_float_results_bitwise_equal_across_thread_counts() {
        let items: Vec<f32> = (0..100).map(|i| i as f32 * 0.37 - 5.0).collect();
        let reference: Vec<u32> = par_map(1, &items, |_, &x| {
            ((x.sin() * (x * 0.01).exp()).tanh()).to_bits()
        });
        for threads in [2, 4] {
            let got: Vec<u32> = par_map(threads, &items, |_, &x| {
                ((x.sin() * (x * 0.01).exp()).tanh()).to_bits()
            });
            assert_eq!(got, reference, "threads={threads}");
        }
    }
}
