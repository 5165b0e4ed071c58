//! Mechanism check for exact-hit refinement: an exact hit costs O(1)
//! allocations — the node map and the reaction index pairs of its
//! witness — however many ids the witness names, because a hit carries
//! indices into the target's shared preparation and into the query's
//! shared id table, not id strings. Allocation counts are
//! deterministic on a one-thread index (everything runs on the calling
//! thread), so the bound is exact: refining and rendering a
//! shared-motif query allocates at most 3 times per exact hit. (Cloning
//! each witness id into owned strings allocated about 20 times per hit.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sbmlcompose::compose::{BatchComposer, ComposeOptions, Composer};
use sbmlcompose::corpus::{corpus_scale, query_fragment, SCALE_MOTIF_FAMILIES};
use sbmlcompose::matching::MatchIndex;
use sbmlcompose::serve::format_matches;

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
fn exact_hits_allocate_a_constant_per_hit() {
    let options = ComposeOptions::default();
    let corpus = corpus_scale(40 * SCALE_MOTIF_FAMILIES);
    let batch = BatchComposer::new(Composer::new(options.clone())).with_threads(1);
    let index = MatchIndex::build_with_threads(&batch.prepare_corpus(&corpus), &options, 1);
    let ids: Vec<String> = corpus.iter().map(|m| m.id.clone()).collect();
    for family in [0, 17, 41] {
        // Radius 1 around the motif chain's second species: the family's
        // shared 3-step chain, which every model of the family carries.
        let query = query_fragment(&corpus[family], 1, 1);
        let prepared = index.prepare_query(&query);
        let _warm = index.query_corpus_prepared(&prepared);
        let (count, (hits, text)) = allocations(|| {
            let result = index.query_corpus_prepared(&prepared);
            let (_, text) = format_matches(&result, &ids, &ids);
            (result.exact.len(), text)
        });
        assert!(hits >= 40, "family {family}: a shared-motif query hits the family");
        assert_eq!(text.lines().filter(|l| l.starts_with("exact ")).count(), hits);
        println!(
            "family {family}: {hits} exact hits, {} species, {count} allocations",
            query.species.len()
        );
        assert!(count <= 3 * hits, "family {family}: {count} allocations for {hits} hits");
    }
}
