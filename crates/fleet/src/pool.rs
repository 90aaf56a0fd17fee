//! A persistent barrier-synchronized worker pool.
//!
//! The engine's sharded synchronous executor runs three parallel phases
//! per *step* (resolve, write, re-evaluate); at tens of thousands of
//! steps per second, spawning threads per phase would dominate the phase
//! cost. [`WorkerPool`] keeps `threads - 1` long-lived workers parked on
//! a condvar; each phase is published to them as an epoch bump, the
//! caller itself participates in the claim loop (so `threads = 1`
//! degenerates to a fully inline run with no workers at all), and the
//! caller blocks on a barrier until every worker has retired the epoch
//! before the phase's borrows go out of scope.
//!
//! # Safety story
//!
//! This is the one module in the crate allowed to use `unsafe`, and it
//! uses it for exactly two things:
//!
//! 1. **Lifetime erasure of the phase closure.** `run_mut` builds the
//!    worker body on its own stack frame and publishes a raw pointer to
//!    it. The pointer is only dereferenced by workers between the epoch
//!    publication and the barrier below it, and `run_mut` does not
//!    return (or unwind) past the barrier until `remaining == 0`, so
//!    the closure strictly outlives every dereference. A phase-wide
//!    mutex serializes concurrent `run_mut` callers, so no second epoch
//!    can be published while one is in flight.
//! 2. **Exclusive `&mut` hand-out from a shared slice pointer.** Work
//!    items are claimed from an atomic cursor; `fetch_add` hands each
//!    index to exactly one claimant, so the `&mut` references
//!    materialized from `base.add(i)` are disjoint. `T: Send` is
//!    required by the public signature.
//!
//! # Panic handling
//!
//! Worker panics are caught **per item** and parked in a failure slot;
//! a poisoned flag stops further claims. Crucially every worker still
//! reports its epoch as finished — a panic never strands the barrier —
//! and the first captured panic is re-raised on the *caller's* thread
//! after the barrier, labeled by the caller's item-label closure. The
//! pool stays usable afterwards (see the panic-injection tests).

#![allow(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::{note_spawn, reraise, CapturedPanic};

/// The phase body as seen by a worker: claim-loop over items, taking
/// the worker's slot index (unused today, reserved for per-worker
/// scratch). Published by raw pointer; see the module docs for why the
/// erased lifetime is sound.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are
// fine) and the pointer is only dereferenced while the publishing
// `run_mut` frame is blocked on the phase barrier, so no use-after-free
// is possible. Sending the pointer value itself to workers is safe.
unsafe impl Send for Job {}

struct PoolState {
    /// Bumped once per published phase; workers run one phase per bump.
    epoch: u64,
    job: Option<Job>,
    /// Workers that have not yet retired the current epoch.
    remaining: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here between phases.
    work: Condvar,
    /// The caller parks here until `remaining == 0`.
    done: Condvar,
}

/// A persistent pool of `threads - 1` parked workers plus the calling
/// thread, driving [`WorkerPool::run_mut`] phases with zero thread
/// spawns after warmup.
///
/// Cloning an `Arc<WorkerPool>` shares the workers; concurrent callers
/// (e.g. lab cells running on the same pool) serialize whole phases on
/// an internal mutex, which is deadlock-free because workers never take
/// that lock. A phase body must not start a phase on its *own* pool,
/// though: the nested call would wait for the phase lock that the outer
/// call holds across its barrier, and the barrier waits for the body.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Parked worker threads (`threads - 1`; the caller is the last
    /// participant). Spawned lazily on the first phase so short-lived
    /// serial simulations never pay for threads.
    workers: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes concurrent `run_mut` callers: one phase in flight.
    phase: Mutex<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .field("spawns", &self.spawns())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool that will run phases on `threads` participants:
    /// the caller plus `threads - 1` lazily spawned workers. `threads`
    /// is clamped to at least 1 (a pure inline pool).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    remaining: 0,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            workers: threads.max(1) - 1,
            handles: Mutex::new(Vec::new()),
            phase: Mutex::new(()),
        }
    }

    /// The number of phase participants (caller + parked workers).
    pub fn threads(&self) -> usize {
        self.workers + 1
    }

    /// The number of OS threads this pool has started: `threads - 1`
    /// once a non-empty phase has run, 0 before (and always 0 for the
    /// inline pool). Workers are never respawned, so the count is final
    /// after the first phase — and, unlike the process-wide
    /// [`thread_spawns`](crate::thread_spawns), no other pool can move it.
    pub fn spawns(&self) -> u64 {
        self.handles
            .lock()
            .expect("pool handle store poisoned")
            .len() as u64
    }

    /// Spawns the parked workers if they are not running yet. Called on
    /// the first phase; a no-op (and spawn-free) afterwards.
    fn ensure_spawned(&self) {
        if self.workers == 0 {
            return;
        }
        let mut handles = self.handles.lock().expect("pool handle store poisoned");
        if !handles.is_empty() {
            return;
        }
        for _ in 0..self.workers {
            note_spawn();
            let shared = Arc::clone(&self.shared);
            handles.push(std::thread::spawn(move || worker_loop(&shared)));
        }
    }

    /// Runs `f` over every item with exclusive `&mut` hand-out, on the
    /// caller plus the parked workers, and returns once **all**
    /// participants have retired the phase — the barrier is the point
    /// where the `&mut` borrows are known to be dead again.
    ///
    /// Items are claimed from a shared cursor so skewed item costs
    /// balance; with one participant the phase runs fully inline.
    /// Results belong in the items themselves (a result slot per item),
    /// which keeps them in input order whatever the schedule.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic on the caller's thread, *after*
    /// the barrier, naming the failing item `shard {index}` — a panic
    /// never strands the pool, which stays usable for further phases.
    /// [`WorkerPool::run_mut_labeled`] names items in domain terms.
    pub fn run_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        self.run_mut_labeled(items, f, |i, _| format!("shard {i}"));
    }

    /// [`WorkerPool::run_mut`] with a caller-provided item label: a
    /// panic is re-raised with `label(index, item)` of the failing item
    /// attached. `label` runs only on a panic.
    pub fn run_mut_labeled<T, F, L>(&self, items: &mut [T], f: F, label: L)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
        L: Fn(usize, &T) -> String + Sync,
    {
        if items.is_empty() {
            return;
        }
        let n = items.len();
        // Wrap the pointer so the closure below is `Sync` without
        // capturing a bare `*mut` (raw pointers are not `Sync`; the
        // method keeps 2021 closure capture on the whole wrapper).
        struct SlicePtr<T>(*mut T);
        // SAFETY: shared access to the pointer *value*; element access
        // is made exclusive by the claim cursor below.
        unsafe impl<T: Send> Sync for SlicePtr<T> {}
        impl<T> SlicePtr<T> {
            fn at(&self, i: usize) -> *mut T {
                // SAFETY: callers pass `i < n` for the wrapped slice.
                unsafe { self.0.add(i) }
            }
        }
        let base = SlicePtr(items.as_mut_ptr());

        let next = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let failure: Mutex<Option<CapturedPanic>> = Mutex::new(None);
        let body = |_worker: usize| loop {
            if poisoned.load(Ordering::Relaxed) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // SAFETY: `fetch_add` yields each index to exactly one
            // participant, so this is the only `&mut` to item `i`; the
            // borrow dies before the phase barrier releases the slice.
            let item = unsafe { &mut *base.at(i) };
            match catch_unwind(AssertUnwindSafe(|| f(i, &mut *item))) {
                Ok(()) => {}
                Err(payload) => {
                    poisoned.store(true, Ordering::Relaxed);
                    let mut slot = failure.lock().expect("pool failure store poisoned");
                    if slot.is_none() {
                        // Guarded too: nothing may unwind past the
                        // phase barrier, not even a panicking label.
                        let label = catch_unwind(AssertUnwindSafe(|| label(i, item)))
                            .unwrap_or_else(|_| format!("item {i}"));
                        *slot = Some(CapturedPanic {
                            index: i,
                            label,
                            payload,
                        });
                    }
                    break;
                }
            }
        };

        if self.workers == 0 {
            // Inline pool: no publication, no barrier, same panic
            // labeling as the parallel path.
            body(0);
        } else {
            self.ensure_spawned();
            // One phase in flight at a time; workers never take this
            // lock, so holding it across the barrier cannot deadlock.
            let _phase = self.phase.lock().expect("pool phase lock poisoned");
            {
                let local: &(dyn Fn(usize) + Sync) = &body;
                // SAFETY: erases the stack lifetime of `body` in the
                // pointer type only — the pointer is dereferenced
                // strictly before the phase barrier below releases this
                // frame (module docs, point 1).
                let erased = unsafe {
                    std::mem::transmute::<
                        *const (dyn Fn(usize) + Sync + '_),
                        *const (dyn Fn(usize) + Sync + 'static),
                    >(local as *const _)
                };
                let mut st = self.shared.state.lock().expect("pool state poisoned");
                st.job = Some(Job(erased));
                st.epoch += 1;
                st.remaining = self.workers;
                drop(st);
                self.shared.work.notify_all();
            }
            // The caller is participant number `workers` in the claim
            // loop — with skewed shards it does real work instead of
            // blocking early. `body` catches its own panics, so this
            // cannot unwind past the barrier below.
            body(self.workers);
            // Phase barrier: no return (and no drop of `body` or the
            // item borrows) until every worker has retired the epoch.
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            while st.remaining != 0 {
                st = self.shared.done.wait(st).expect("pool state poisoned");
            }
            st.job = None;
        }

        if let Some(captured) = failure.into_inner().expect("pool failure store poisoned") {
            reraise(captured);
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.expect("published epoch carries a job");
                }
                st = shared.work.wait(st).expect("pool state poisoned");
            }
        };
        // The body catches item panics itself; the extra guard here is
        // belt-and-braces so an unexpected unwind can never skip the
        // barrier report and strand the caller.
        // SAFETY: the publishing `run_mut` frame is blocked on the
        // barrier until we report below, so the closure is alive.
        let _ = catch_unwind(AssertUnwindSafe(|| (unsafe { &*job.0 })(0)));
        let mut st = shared.state.lock().expect("pool state poisoned");
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        let handles =
            std::mem::take(&mut *self.handles.lock().expect("pool handle store poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload_message;

    #[test]
    fn pool_matches_scoped_map_and_spawns_once() {
        let pool = WorkerPool::new(4);
        let mut items: Vec<Vec<u32>> = (0..33).map(|i| vec![i]).collect();
        pool.run_mut(&mut items, |i, v| v.push(i as u32 + 100));
        for (i, v) in items.iter().enumerate() {
            assert_eq!(v, &[i as u32, i as u32 + 100]);
        }
        assert_eq!(pool.spawns(), 3, "caller + 3 workers");
        // Warmed: further phases spawn nothing.
        for round in 0..50u32 {
            pool.run_mut(&mut items, |_, v| v.push(round));
        }
        assert_eq!(pool.spawns(), 3, "warmed pool must not spawn");
        assert_eq!(items[7].len(), 2 + 50);
    }

    #[test]
    fn inline_pool_runs_on_the_caller() {
        let pool = WorkerPool::new(1);
        let mut items: Vec<u64> = (0..16).collect();
        pool.run_mut(&mut items, |_, x| *x *= 3);
        assert_eq!(pool.spawns(), 0, "threads=1 never spawns");
        assert_eq!(items[5], 15);
    }

    #[test]
    fn worker_panic_reraises_with_shard_label_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let mut items: Vec<u32> = (0..8).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run_mut(&mut items, |_, x| {
                if *x == 5 {
                    panic!("bad shard state");
                }
            })
        }))
        .unwrap_err();
        let msg = payload_message(err.as_ref());
        assert!(msg.contains("shard 5"), "{msg}");
        assert!(msg.contains("bad shard state"), "{msg}");
        // The barrier was not stranded: the pool still runs phases.
        let mut again: Vec<u32> = (0..32).collect();
        pool.run_mut(&mut again, |i, x| *x += i as u32);
        for (i, x) in again.iter().enumerate() {
            assert_eq!(*x, 2 * i as u32);
        }
    }

    #[test]
    fn panic_on_every_item_does_not_deadlock() {
        let pool = WorkerPool::new(8);
        for _ in 0..4 {
            let mut items: Vec<u32> = (0..64).collect();
            let err = catch_unwind(AssertUnwindSafe(|| {
                pool.run_mut_labeled(
                    &mut items,
                    |_, _| panic!("all fall down"),
                    |_, _| panic!("the label panics too"),
                )
            }))
            .unwrap_err();
            assert!(payload_message(err.as_ref()).contains("all fall down"));
        }
    }

    #[test]
    fn shared_pool_serializes_concurrent_phases() {
        let pool = std::sync::Arc::new(WorkerPool::new(3));
        let total = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = std::sync::Arc::clone(&pool);
                let total = &total;
                scope.spawn(move || {
                    let mut items: Vec<usize> = (0..40).collect();
                    for _ in 0..25 {
                        pool.run_mut(&mut items, |_, x| {
                            total.fetch_add(*x, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 25 * (39 * 40 / 2));
        assert_eq!(pool.spawns(), 2);
    }

    #[test]
    fn empty_phase_is_free() {
        let pool = WorkerPool::new(4);
        pool.run_mut(&mut [] as &mut [u8], |_, _| {});
        assert_eq!(pool.spawns(), 0, "empty phases never spawn");
    }
}
