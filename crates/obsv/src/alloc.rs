//! An opt-in counting global allocator — the steady-state allocation
//! audit technique, packaged.
//!
//! Install it per binary (typically an integration-test binary) and
//! measure a section through a thread-scoped [`AllocWindow`]:
//!
//! ```ignore
//! use fgbd_obsv::alloc::AllocGauge;
//!
//! #[global_allocator]
//! static GLOBAL: AllocGauge = AllocGauge::new();
//!
//! let window = GLOBAL.window();
//! // ... hot section ...
//! let during = window.allocs();
//! ```
//!
//! Two things are tracked per thread:
//!
//! * allocation *events* (alloc, realloc, alloc_zeroed) — the
//!   steady-state "does this loop allocate?" audit;
//! * *live bytes* and their high-water mark — the bounded-memory audit
//!   the online monitor's flat-memory test uses ([`AllocWindow::peak_bytes`]
//!   approximates VmHWM without reading `/proc`, and works on any
//!   platform).
//!
//! Counting per thread is what keeps a bound exact under a parallel test
//! harness: a window sees only the calling thread's allocations and
//! frees, never a sibling test's. The counters live in a const-initialised
//! `thread_local!` without a destructor, so touching them from inside the
//! allocator never allocates.
//!
//! The gauge is always live once installed; it does not consult
//! [`crate::enabled`] because the counting itself is the opt-in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;

/// The calling thread's allocator traffic. Live bytes are signed: a block
/// freed on another thread than the one that allocated it moves both
/// threads' figures.
struct ThreadCounts {
    allocs: Cell<u64>,
    live: Cell<i64>,
    peak: Cell<i64>,
}

thread_local! {
    static THREAD: ThreadCounts = const {
        ThreadCounts {
            allocs: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

/// Applies `f` to the calling thread's counters (skipped if the thread's
/// storage is already gone).
#[inline]
fn on_thread(f: impl FnOnce(&ThreadCounts)) {
    let _ = THREAD.try_with(f);
}

#[inline]
fn count() {
    on_thread(|t| t.allocs.set(t.allocs.get() + 1));
}

#[inline]
fn grow(bytes: usize) {
    on_thread(|t| {
        let live = t.live.get() + bytes as i64;
        t.live.set(live);
        t.peak.set(t.peak.get().max(live));
    });
}

#[inline]
fn shrink(bytes: usize) {
    on_thread(|t| t.live.set(t.live.get() - bytes as i64));
}

/// Counting wrapper around the [`System`] allocator.
#[derive(Debug)]
pub struct AllocGauge(());

impl AllocGauge {
    /// A gauge usable in `#[global_allocator]` position.
    #[allow(clippy::new_without_default)]
    pub const fn new() -> AllocGauge {
        AllocGauge(())
    }

    /// Opens a measurement window on the calling thread: from here on,
    /// [`AllocWindow::allocs`] and [`AllocWindow::peak_bytes`] report only
    /// this thread's traffic, unaffected by any other thread.
    pub fn window(&self) -> AllocWindow {
        let mut window = AllocWindow {
            allocs: 0,
            live: 0,
            _thread: PhantomData,
        };
        on_thread(|t| {
            t.peak.set(t.live.get());
            window.allocs = t.allocs.get();
            window.live = t.live.get();
        });
        window
    }
}

/// A thread-scoped measurement window, opened by [`AllocGauge::window`].
/// It reads the opening thread's counters, so it cannot be sent to
/// another thread.
#[derive(Debug)]
pub struct AllocWindow {
    allocs: u64,
    live: i64,
    _thread: PhantomData<*const ()>,
}

impl AllocWindow {
    /// Allocation events on this thread since the window opened.
    pub fn allocs(&self) -> u64 {
        let mut now = self.allocs;
        on_thread(|t| now = t.allocs.get());
        now - self.allocs
    }

    /// High-water mark of this thread's live bytes since the window
    /// opened, relative to its live size at the opening.
    pub fn peak_bytes(&self) -> u64 {
        let mut peak = self.live;
        on_thread(|t| peak = t.peak.get());
        (peak - self.live).max(0) as u64
    }
}

// SAFETY: defers to `System` for every operation; only adds counters.
unsafe impl GlobalAlloc for AllocGauge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Success moves the block: the old size is gone, the new size
            // is live. (On failure the original block stays untouched.)
            shrink(layout.size());
            grow(new_size);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_counts_through_the_global_alloc_interface() {
        // Not installed as the global allocator here; exercise the trait
        // directly so the test stays hermetic.
        let gauge = AllocGauge::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        let window = gauge.window();
        unsafe {
            let p = gauge.alloc(layout);
            assert!(!p.is_null());
            let p = gauge.realloc(p, layout, 128);
            assert!(!p.is_null());
            gauge.dealloc(p, Layout::from_size_align(128, 8).unwrap());
            let q = gauge.alloc_zeroed(layout);
            assert!(!q.is_null());
            gauge.dealloc(q, layout);
        }
        assert_eq!(window.allocs(), 3);
        // Peak saw the 128-byte realloc high point and survives the frees…
        assert_eq!(window.peak_bytes(), 128);
        // …until a new window re-anchors it at the (now unchanged) live size.
        assert_eq!(gauge.window().peak_bytes(), 0);
    }

    #[test]
    fn window_counts_only_its_own_thread() {
        let gauge = AllocGauge::new();
        let layout = Layout::from_size_align(256, 8).unwrap();
        let window = gauge.window();
        std::thread::scope(|s| {
            s.spawn(|| unsafe {
                let other = gauge.window();
                let p = gauge.alloc(layout);
                gauge.dealloc(p, layout);
                assert_eq!(other.allocs(), 1);
                assert_eq!(other.peak_bytes(), 256);
            });
        });
        assert_eq!(window.allocs(), 0);
        assert_eq!(window.peak_bytes(), 0);
    }
}
