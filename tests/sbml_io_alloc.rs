//! Mechanism check for the streaming SBML reader and writer: they allocate
//! little more than the `Model` they produce or consume. Allocation counts
//! are deterministic, so the bounds are exact: reading a Fig. 8 document
//! may allocate at most twice what cloning the resulting model allocates,
//! and writing it at most a quarter of that. (An owned-DOM round trip
//! allocated 8–9x and 7–8x.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sbmlcompose::corpus::corpus_187;
use sbmlcompose::model::{parse_sbml, write_sbml};

/// Counts allocations (and reallocations) made by the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn reading_and_writing_allocate_in_proportion_to_the_model() {
    let corpus = corpus_187();
    // Ten documents spread over the larger half of the size ramp.
    for i in (96..corpus.len()).step_by(9).take(10) {
        let text = write_sbml(&corpus[i]);
        let (parse, model) = allocations(|| parse_sbml(&text).expect("corpus parses"));
        let (clone, copy) = allocations(|| model.clone());
        let (write, written) = allocations(|| write_sbml(&model));
        assert_eq!(written, text);
        drop(copy);
        println!("corpus_187[{i}] ({} B): parse {parse}, clone {clone}, write {write}", text.len());
        assert!(parse <= 2 * clone, "corpus_187[{i}]: parse {parse} > 2 x clone {clone}");
        assert!(4 * write <= clone, "corpus_187[{i}]: write {write} > clone {clone} / 4");
    }
}
