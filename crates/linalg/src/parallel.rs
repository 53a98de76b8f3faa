//! Data-parallel helpers for the blocked BLAS routines and kernel-matrix
//! assembly, backed by the [`ep2_runtime`] persistent worker pool.
//!
//! Every entry point sizes itself from the runtime's thread-budget handle
//! ([`ep2_runtime::current_threads`]): a call made under
//! `ep2_runtime::with_budget(k, ..)` — e.g. inside a stream-producer stage
//! task — fans out across at most `k` threads, so nested parallelism stays
//! within the budget its caller was assigned instead of oversubscribing
//! the machine.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;

/// Number of worker threads the current context may use: the runtime's
/// active budget handle, resolved from `EP2_THREADS` or the available
/// CPUs when no handle is set.
pub fn num_threads() -> usize {
    ep2_runtime::current_threads()
}

thread_local! {
    /// Per-thread packing arena for the blocked GEMM (`crate::gemm`): one
    /// `(Vec<A-panel>, Vec<B-panel>)` pair per element type, grown on demand
    /// and reused across calls so steady-state GEMMs allocate nothing. The
    /// pool's workers are persistent, so the arenas now survive across GEMM
    /// calls on every thread, not just the caller's.
    static PACK_ARENA: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());

    /// Separate arena for the *shared* packed-B slab of the cooperative
    /// GEMM: the slab is borrowed for the whole block loop while the
    /// per-chunk tasks borrow [`PACK_ARENA`] for their A panels, so the two
    /// must not share a `RefCell`.
    static SLAB_ARENA: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
}

fn with_arena<T, R, F>(
    cell: &RefCell<HashMap<TypeId, Box<dyn Any>>>,
    a_len: usize,
    b_len: usize,
    f: F,
) -> R
where
    T: Copy + Default + 'static,
    F: FnOnce(&mut [T], &mut [T]) -> R,
{
    let mut map = cell.borrow_mut();
    let entry = map
        .entry(TypeId::of::<T>())
        .or_insert_with(|| Box::new((Vec::<T>::new(), Vec::<T>::new())));
    let (a, b) = entry
        .downcast_mut::<(Vec<T>, Vec<T>)>()
        .expect("arena entry type keyed by TypeId");
    if a.len() < a_len {
        a.resize(a_len, T::default());
    }
    if b.len() < b_len {
        b.resize(b_len, T::default());
    }
    f(&mut a[..a_len], &mut b[..b_len])
}

/// Borrows this thread's two reusable packing buffers, sized to at least
/// `a_len` / `b_len` elements, and runs `f` on them. The buffer contents are
/// unspecified on entry (packing overwrites every element it reads back).
///
/// # Panics
///
/// Panics if called re-entrantly from inside `f` on the same thread (the
/// arena is a single `RefCell` per thread).
pub fn with_pack_buffers<T, R, F>(a_len: usize, b_len: usize, f: F) -> R
where
    T: Copy + Default + 'static,
    F: FnOnce(&mut [T], &mut [T]) -> R,
{
    PACK_ARENA.with(|cell| with_arena(cell, a_len, b_len, f))
}

/// Borrows this thread's reusable shared-slab buffer (the cooperative
/// GEMM's packed-B block), sized to at least `len` elements. Distinct from
/// [`with_pack_buffers`] so a worker packing its A panel inside the slab's
/// borrow never re-enters the same `RefCell`.
///
/// # Panics
///
/// Panics if called re-entrantly from inside `f` on the same thread.
pub fn with_shared_slab<T, R, F>(len: usize, f: F) -> R
where
    T: Copy + Default + 'static,
    F: FnOnce(&mut [T]) -> R,
{
    SLAB_ARENA.with(|cell| with_arena(cell, len, 0, |slab, _| f(slab)))
}

/// `*mut T` that may be shared across the pool's workers; soundness comes
/// from the chunk math handing every worker a disjoint slice. (Accessed
/// through a method so closures capture the wrapper, not the raw field.)
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Splits `data` into contiguous chunks of at most `chunk_len` elements and
/// processes them on the worker pool, up to [`num_threads`] participants
/// (the caller included).
///
/// The closure receives `(start_index, chunk)` where `start_index` is the
/// offset of the chunk within `data`.
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let len = data.len();
    let threads = num_threads();
    if threads == 1 || len <= chunk_len {
        for (c, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(c * chunk_len, chunk);
        }
        return;
    }
    let total_chunks = len.div_ceil(chunk_len);
    let base = SendPtr(data.as_mut_ptr());
    ep2_runtime::parallel_for(total_chunks, threads, |ci| {
        let start = ci * chunk_len;
        let take = chunk_len.min(len - start);
        // SAFETY: chunk `ci` covers exactly `[start, start + take)`; chunks
        // are disjoint and within `data`, and `parallel_for` joins before
        // `data`'s borrow ends.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), take) };
        f(start, chunk);
    });
}

/// Runs `f(i)` for every `i in 0..n` across up to [`num_threads`] pool
/// participants, claiming indices through the job's atomic cursor.
pub fn for_each_index<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    ep2_runtime::parallel_for(n, num_threads(), f);
}

/// Maps `f` over `0..n` in parallel and collects the results in order.
pub fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send + Default + Clone,
    F: Fn(usize) -> R + Sync,
{
    let mut out = vec![R::default(); n];
    {
        let slots: Vec<std::sync::Mutex<&mut R>> =
            out.iter_mut().map(std::sync::Mutex::new).collect();
        for_each_index(n, |i| {
            let mut slot = slots[i].lock().unwrap();
            **slot = f(i);
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn chunks_cover_everything() {
        let mut v = vec![0_usize; 1003];
        for_each_chunk_mut(&mut v, 64, |off, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = off + i;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i);
        }
    }

    #[test]
    fn chunks_single_thread_path() {
        ep2_runtime::with_budget(1, || {
            let mut v = vec![0_u8; 10];
            for_each_chunk_mut(&mut v, 3, |_, c| {
                for x in c {
                    *x = 1;
                }
            });
            assert!(v.iter().all(|&x| x == 1));
        });
    }

    #[test]
    fn chunks_under_explicit_budget() {
        ep2_runtime::with_budget(3, || {
            let mut v = vec![0_u32; 501];
            for_each_chunk_mut(&mut v, 16, |off, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = (off + i) as u32;
                }
            });
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(x, i as u32);
            }
        });
    }

    #[test]
    fn for_each_index_counts() {
        let sum = AtomicU64::new(0);
        for_each_index(100, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn par_map_ordered() {
        let v = par_map(17, |i| i * i);
        assert_eq!(v[4], 16);
        assert_eq!(v.len(), 17);
    }

    #[test]
    fn num_threads_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn num_threads_follows_budget_handle() {
        ep2_runtime::with_budget(2, || assert_eq!(num_threads(), 2));
    }

    #[test]
    fn pack_buffers_sized_and_reused() {
        let ptr0 = with_pack_buffers::<f32, _, _>(100, 200, |a, b| {
            assert_eq!(a.len(), 100);
            assert_eq!(b.len(), 200);
            a[0] = 1.0;
            a.as_ptr() as usize
        });
        // A smaller request on the same thread reuses the same allocation.
        let ptr1 = with_pack_buffers::<f32, _, _>(50, 10, |a, b| {
            assert_eq!(a.len(), 50);
            assert_eq!(b.len(), 10);
            a.as_ptr() as usize
        });
        assert_eq!(ptr0, ptr1);
        // A different element type gets its own pair.
        with_pack_buffers::<f64, _, _>(8, 8, |a, b| {
            assert_eq!(a.len(), 8);
            assert_eq!(b.len(), 8);
        });
    }

    #[test]
    fn shared_slab_is_independent_of_pack_arena() {
        // The slab may be held while a pack-buffer borrow happens on the
        // same thread — this nesting is exactly the cooperative GEMM's
        // caller-runs-a-chunk case.
        with_shared_slab::<f64, _, _>(64, |slab| {
            assert_eq!(slab.len(), 64);
            with_pack_buffers::<f64, _, _>(16, 0, |a, _| {
                assert_eq!(a.len(), 16);
            });
        });
    }
}
