//! Pins what a plan-cache miss costs besides its solve, by the one
//! thing a noisy host cannot blur: allocation counts. A miss reads
//! every member's model where it lives (one shared reference each,
//! never a copy of its points and splines), so answering it allocates
//! the same number of times for 8, 64 and 256 members — what the
//! numerical solve, the plan and the response take, plus a constant.
//!
//! One test per file: the counter is per thread, but nothing else
//! should run in this process while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fupermod_core::Point;
use fupermod_store::protocol::{handle, parse_request};
use fupermod_store::{ModelStore, StoreConfig, StoreKey};

struct Counting;

thread_local! {
    // `const` and `Cell<usize>`: no lazy initialiser and no destructor,
    // so touching it from inside the allocator cannot recurse.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, with the caller's size obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls (`alloc` + `realloc`) `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Everything a miss may allocate: the lookup key (member list +
/// algorithm name), the shard index list, the partitioner box, the
/// member references and their `&dyn Model` view, the numerical
/// solve's own scratch (`crates/core/tests/numerical_allocs.rs`), the
/// distribution, the plan, its cache entry and rendered tail, and the
/// response line and its growth: 28 in all. Cloning the member models
/// instead costs six allocations per member (points plus five spline
/// vectors): 77, 413 and 1 565 at 8, 64 and 256 members.
const MISS_BUDGET: usize = 30;

#[test]
fn a_partition_miss_allocates_per_request_not_per_member() {
    let mut miss_counts = Vec::new();
    for members in [8usize, 64, 256] {
        // A store per size, so each measured miss is the second plan
        // its cache ever holds: no map growth lands in the count.
        let store = ModelStore::new(StoreConfig::default());
        let keys: Vec<StoreKey> = (0..members)
            .map(|m| StoreKey::new(format!("dev-{m:04}"), "gemm", "default"))
            .collect();
        for (m, key) in keys.iter().enumerate() {
            for d in [100u64, 1000, 10_000] {
                let t = d as f64 * 1e-6 * (1 + m % 5) as f64 * (1.0 + d as f64 / 5e4);
                store.ingest_point(key, Point::single(d, t)).unwrap();
            }
        }
        let quoted: Vec<String> = keys
            .iter()
            .map(|k| format!("\"{}\"", k.fingerprint()))
            .collect();
        let line = format!(
            "{{\"op\":\"partition\",\"fingerprints\":[{}],\"kernel\":\"gemm\",\"config\":\"default\",\"total\":100000,\"algorithm\":\"numerical\"}}",
            quoted.join(",")
        );
        let request = parse_request(&line).unwrap();

        // Warm-up: whatever a process or a cache allocates once.
        let warm = handle(&store, &request);
        assert!(warm.starts_with("{\"ok\":true,\"cached\":false,"), "{warm}");
        // One more observation of a known size: the plan is stale.
        store
            .ingest_point(&keys[members / 2], Point::single(1000, 2e-3))
            .unwrap();
        let (miss, response) = allocations(|| handle(&store, &request));
        assert!(
            response.starts_with("{\"ok\":true,\"cached\":false,"),
            "{response}"
        );
        assert!(
            miss <= MISS_BUDGET,
            "a {members}-member partition miss allocated {miss} times"
        );
        miss_counts.push(miss);
    }
    assert!(
        miss_counts.windows(2).all(|w| w[0] == w[1]),
        "miss-path allocations depend on the member count: {miss_counts:?}"
    );
}
