//! What the root fuzz tests share: an allocator that counts the bytes a
//! call asks for, so "never over-allocates" is an assertion with a
//! number in it, and the characters a hostile name is made of.

// The counting allocator needs `unsafe impl GlobalAlloc`; the workspace
// denies unsafe_code, so opt this module out explicitly.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Every character class a name could smuggle in: the JSON
/// metacharacters, the text formats' separators, control characters with
/// and without a short escape, multi-byte UTF-8.
pub const HOSTILE: &[char] = &[
    'a', 'Z', '0', '_', '.', '/', '"', '\\', ',', '{', '}', '[', ']', ':', '\n', '\r', '\t',
    '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'é', '\u{2028}', '😀', ' ',
];

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts the bytes requested by threads that opted in via [`COUNTING`]
/// (the harness runs tests on parallel threads). `try_with` keeps the
/// hook safe during thread teardown.
struct CountingAlloc;

fn note(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOC_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the bytes it asked the allocator
/// for (every `alloc` and the new size of every `realloc`, summed).
pub fn bytes_requested<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOC_BYTES.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOC_BYTES.with(Cell::get))
}
