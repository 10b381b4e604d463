//! Allocation bound of the JSON writer on the serve path.
//!
//! `Serialize` writes text straight into the output `String`, so printing
//! a document allocates only when that `String` grows: its capacity at
//! least doubles on each growth, so a body of `n` bytes takes at most
//! `⌊log₂ n⌋ + 1` allocator calls, whatever the number of fields, ids
//! and names in it. A counting global allocator checks that bound on a
//! 20-document `/clusters` answer, which has over a thousand fields, ids
//! and names.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use regcluster_cli::serve::{ClusterDoc, ClustersResponse};

thread_local! {
    /// Allocator calls (alloc / realloc / alloc_zeroed) made by the
    /// current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counter update cannot
// allocate (Cell<u64> in a const-initialized thread local) and tolerates
// TLS teardown via `try_with`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A `/clusters` answer of 20 yeast-sized clusters: 6–9 conditions,
/// 5–12 members, every id with its name.
fn response() -> ClustersResponse {
    let clusters: Vec<ClusterDoc> = (0..20u32)
        .map(|id| {
            let i = id as usize;
            let chain: Vec<usize> = (0..6 + i % 4).map(|k| (i * 7 + k * 3) % 30).collect();
            let p_members: Vec<usize> = (0..5 + i % 6).map(|k| i * 40 + k * 11).collect();
            let n_members: Vec<usize> = (0..i % 3).map(|k| i * 40 + k * 13 + 5).collect();
            ClusterDoc {
                id,
                n_genes: (p_members.len() + n_members.len()) as u32,
                n_conds: chain.len() as u32,
                chain_names: chain.iter().map(|c| format!("alpha{c}")).collect(),
                p_names: p_members.iter().map(|g| format!("YAL{g:03}W")).collect(),
                n_names: n_members.iter().map(|g| format!("YBR{g:03}C")).collect(),
                chain,
                p_members,
                n_members,
            }
        })
        .collect();
    ClustersResponse {
        total: 57,
        ids: (0..57).map(|k| k * 5).collect(),
        clusters,
    }
}

#[test]
fn serializing_a_clusters_page_allocates_only_for_output_growth() {
    let doc = response();
    let before = ALLOCS.with(Cell::get);
    let text = serde_json::to_string(&doc).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    let bound = u64::from(usize::BITS - text.len().leading_zeros());
    assert!(text.len() > 4000, "a realistic page: {} bytes", text.len());
    assert!(
        allocs <= bound,
        "{allocs} allocator calls to print {} bytes; output growth needs at most {bound}",
        text.len()
    );
}
