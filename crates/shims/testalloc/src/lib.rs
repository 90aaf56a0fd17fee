//! A counting wrapper around the system allocator — the test hook behind
//! the workspace's *zero-allocation hot path* assertions.
//!
//! The engine's step loop and the layered protocols' guard evaluations
//! claim to be allocation-free after warm-up (reusable scratch, the
//! [`Scratch`](../sno_engine/protocol/struct.Scratch.html) arena). Claims
//! rot; this crate lets an integration test *measure* them:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: testalloc::CountingAlloc = testalloc::CountingAlloc::new();
//!
//! let before = testalloc::thread_heap_activity();
//! // ... run the supposedly allocation-free hot path ...
//! assert_eq!(testalloc::thread_heap_activity() - before, 0);
//! ```
//!
//! Two views of the same events:
//!
//! * [`thread_heap_activity`] counts only the **calling thread's**
//!   allocations, so a zero pin measures exactly the code it runs —
//!   other tests of the same binary, the test harness, and pool workers
//!   allocating concurrently cannot land in its window;
//! * the process-wide counters ([`heap_activity`] and friends) see every
//!   thread, for benches that deliberately count worker allocations.
//!
//! Like the sibling shims (`rand`, `proptest`) this is a deliberate
//! offline stand-in — for a registry build one would reach for an
//! off-the-shelf counting allocator; the API surface here is exactly
//! what the workspace's allocation pins and `engine_bench` use.
//!
//! Counting uses relaxed atomics: the counters are monotone diagnostics,
//! not synchronization.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static REALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's allocations + reallocations. `const`-initialized
    /// with a destructor-free type, so touching it from inside the
    /// allocator never allocates or registers a destructor.
    static THREAD_ACTIVITY: Cell<u64> = const { Cell::new(0) };
}

/// Counts one heap operation against the current thread. `try_with`
/// skips threads whose thread-locals are already torn down.
fn note_thread_activity() {
    let _ = THREAD_ACTIVITY.try_with(|c| c.set(c.get() + 1));
}

/// A [`GlobalAlloc`] forwarding to [`System`] while counting every
/// allocation, deallocation, and reallocation.
pub struct CountingAlloc;

impl CountingAlloc {
    /// The allocator value to install with `#[global_allocator]`.
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: pure delegation to `System`; the counters do not affect the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        note_thread_activity();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        note_thread_activity();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        note_thread_activity();
        System.realloc(ptr, layout, new_size)
    }
}

/// Total heap allocations (`alloc` + `alloc_zeroed`) since process start.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total deallocations since process start.
pub fn deallocation_count() -> u64 {
    DEALLOCATIONS.load(Ordering::Relaxed)
}

/// Total reallocations (`Vec` growth in place counts here) since process
/// start.
pub fn reallocation_count() -> u64 {
    REALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations + reallocations on every thread since process start.
pub fn heap_activity() -> u64 {
    allocation_count() + reallocation_count()
}

/// Allocations + reallocations performed by the calling thread — the
/// quantity a "zero allocations per step" assertion must see unchanged.
pub fn thread_heap_activity() -> u64 {
    THREAD_ACTIVITY.try_with(Cell::get).unwrap_or(0)
}
