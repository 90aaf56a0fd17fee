//! # sno-fleet
//!
//! The workspace's one parallel primitive: [`WorkerPool`], a persistent
//! barrier-synchronized pool of `std::thread` workers — the stand-in for
//! `rayon` (this build environment cannot pull crates from a registry;
//! see ROADMAP's dependency-shims item).
//!
//! Three consumers share it:
//!
//! * `sno-lab`'s campaign runner fans seed chunks of scenario cells out
//!   over one pool per campaign;
//! * `sno-engine`'s sharded executor runs the per-shard phases of a
//!   dense synchronous round — guard resolution, delta-staged writes, dirty
//!   re-evaluation — on a pool that stays warm across steps;
//! * `sno-check` drives its sharded breadth-first search levels.
//!
//! [`WorkerPool::run_mut`] hands each work item to exactly one
//! participant by `&mut`, so items carry exclusive state (configuration
//! chunks, scratch arenas, result slots) without locks. Items are
//! claimed from a shared cursor, so threads stay busy when item costs
//! are skewed; callers that want results write them into their own
//! item, which keeps them **in input order** by construction — the
//! parallel schedule can never leak into a report or a simulation trace.
//!
//! # Panic handling
//!
//! A worker panic is caught per item, the phase drains (no stranded
//! barrier), and the panic is re-raised on the caller's thread with the
//! failing item's identity attached: `shard {index}` by default, or a
//! domain name through [`WorkerPool::run_mut_labeled`] (the lab names the
//! scenario cell and seed range), so a failure points at the cell that
//! died instead of a bare `Any { .. }` join error.
//!
//! # Spawn accounting
//!
//! Workers start lazily on a pool's first non-empty phase and are never
//! respawned. [`WorkerPool::spawns`] counts the threads one pool has
//! started, so a test can pin it exactly while other tests run
//! concurrently; [`thread_spawns`] counts every OS thread the crate has
//! ever started, for benches that time a whole process window.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};

mod pool;

pub use pool::WorkerPool;

/// Every OS thread this crate has ever spawned (the workers of every
/// pool). Monotonic; benches read the delta across a timed window to
/// prove a hot loop spawns nothing.
static THREAD_SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Total OS threads spawned by this crate since process start.
///
/// The pooled executor gate reads this before and after a timed bench
/// window: a warmed [`WorkerPool`] must leave the delta at exactly zero.
pub fn thread_spawns() -> u64 {
    THREAD_SPAWNS.load(Ordering::Relaxed)
}

pub(crate) fn note_spawn() {
    THREAD_SPAWNS.fetch_add(1, Ordering::Relaxed);
}

/// The number of worker threads to use by default: the machine's
/// available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Renders a caught panic payload (the `&str` / `String` payloads
/// `panic!` produces; anything else becomes a placeholder).
///
/// Public so fleet *callers* can enrich a payload before re-raising it —
/// the lab's campaign driver catches a per-seed panic, appends the
/// failing cell's telemetry counter snapshot, and re-panics with the
/// combined message, which then flows through
/// [`WorkerPool::run_mut_labeled`]'s own labeling unchanged.
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A worker panic captured with the identity of the item it was
/// processing.
pub(crate) struct CapturedPanic {
    pub(crate) index: usize,
    pub(crate) label: String,
    pub(crate) payload: Box<dyn std::any::Any + Send>,
}

/// Re-raises a captured panic with the item identity prepended, so the
/// failure is diagnosable from the backtrace-less test output alone.
pub(crate) fn reraise(captured: CapturedPanic) -> ! {
    let msg = payload_message(captured.payload.as_ref());
    resume_unwind(Box::new(format!(
        "fleet worker panicked on {} (item {}): {msg}",
        captured.label, captured.index
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    /// The lab's result-slot pattern: each item owns its output.
    fn doubled(pool: &WorkerPool, items: &[usize]) -> Vec<usize> {
        let mut slots: Vec<(usize, usize)> = items.iter().map(|&x| (x, 0)).collect();
        pool.run_mut(&mut slots, |i, (x, out)| {
            assert_eq!(i, *x);
            *out = *x * 2;
        });
        slots.into_iter().map(|(_, out)| out).collect()
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = doubled(&WorkerPool::new(8), &items);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_threaded_fallback_matches() {
        let items: Vec<usize> = (0..40).collect();
        assert_eq!(
            doubled(&WorkerPool::new(1), &items),
            doubled(&WorkerPool::new(4), &items)
        );
    }

    #[test]
    fn empty_input_is_fine() {
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            pool.run_mut_labeled(
                &mut [] as &mut [u8],
                |_, _| unreachable!(),
                |_, _| unreachable!(),
            );
            assert_eq!(pool.spawns(), 0, "an empty phase starts no workers");
        }
    }

    #[test]
    fn skewed_work_is_shared() {
        let pool = WorkerPool::new(4);
        let mut items: Vec<u64> = (0..64).collect();
        pool.run_mut(&mut items, |_, x| {
            if *x == 0 {
                *x = (0..100_000u64).sum::<u64>() % 7;
            }
        });
        assert_eq!(items[0], 4_999_950_000 % 7);
        assert!(items[1..].iter().copied().eq(1..64));
    }

    #[test]
    fn worker_panics_carry_the_item_label() {
        let pool = WorkerPool::new(4);
        let mut items: Vec<u32> = (0..16).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run_mut_labeled(
                &mut items,
                |_, x| {
                    if *x == 7 {
                        panic!("run diverged");
                    }
                },
                |_, x| format!("cell seed={x}"),
            )
        }))
        .unwrap_err();
        let msg = payload_message(err.as_ref());
        assert!(msg.contains("cell seed=7"), "{msg}");
        assert!(msg.contains("run diverged"), "{msg}");
    }

    #[test]
    fn inline_fallback_panics_propagate_plainly() {
        // The inline pool re-raises on the caller's thread with the same
        // label as the parallel path, and never starts a worker.
        let pool = WorkerPool::new(1);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run_mut(&mut [1u8], |_, _| panic!("inline"))
        }))
        .unwrap_err();
        let msg = payload_message(err.as_ref());
        assert!(msg.contains("inline") && msg.contains("shard 0"), "{msg}");
        assert_eq!(pool.spawns(), 0);
    }
}
