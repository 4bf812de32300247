//! Pins the *property* the cached-partition path was rebuilt for, not
//! its timing (a noisy host can hide a timing regression, never an
//! allocation count): parsing a `partition` line allocates at most
//! twice per member (the reader's string, then its shared copy in the
//! key), and answering it from the plan cache allocates a constant
//! number of times whatever the member count.
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

/// What a request may allocate besides its members: the reader's
/// object, field names and the growth steps of its `fingerprints`
/// array, the shared `kernel`/`config`, the algorithm name, and the
/// key list, sized once from that array: 17, 20 and 22 at 8, 64 and
/// 256 members.
const PARSE_CONSTANT: usize = 22;
/// Everything a cache hit may allocate: the members' epoch list, the
/// partitioner box, the response line and its two growth steps. The
/// plan is found by a digest of the keys' stored hashes and checked
/// against the request in place, so no key is built or cloned.
const HIT_BUDGET: usize = 5;

#[test]
fn a_cached_partition_allocates_per_request_not_per_member() {
    let store = ModelStore::new(StoreConfig::default());
    let mut hit_counts = Vec::new();
    for members in [8usize, 64, 256] {
        let fingerprints: Vec<String> = (0..members).map(|m| format!("dev-{m:04}")).collect();
        for (m, fp) in fingerprints.iter().enumerate() {
            for d in [100u64, 1000, 10_000] {
                let t = d as f64 * 1e-6 * (1 + m % 5) as f64 * (1.0 + d as f64 / 5e4);
                store
                    .ingest_point(&StoreKey::new(fp.as_str(), "gemm", "default"), Point::single(d, t))
                    .unwrap();
            }
        }
        let quoted: Vec<String> = fingerprints.iter().map(|f| format!("\"{f}\"")).collect();
        let line = format!(
            "{{\"op\":\"partition\",\"fingerprints\":[{}],\"kernel\":\"gemm\",\"config\":\"default\",\"total\":100000,\"algorithm\":\"numerical\"}}",
            quoted.join(",")
        );

        let (parse, request) = allocations(|| parse_request(&line).unwrap());
        assert!(
            parse <= 2 * members + PARSE_CONSTANT,
            "parsing {members} members allocated {parse} times"
        );

        let miss = handle(&store, &request);
        assert!(miss.starts_with("{\"ok\":true,\"cached\":false,"), "{miss}");
        let (hit, response) = allocations(|| handle(&store, &request));
        assert!(response.starts_with("{\"ok\":true,\"cached\":true,"), "{response}");
        let tail = |line: &str| line.split_once("\"ds\":").map(|(_, tail)| tail.to_owned());
        assert_eq!(tail(&response), tail(&miss), "a hit repeats the miss's answer");
        assert!(
            hit <= HIT_BUDGET,
            "a cached {members}-member partition allocated {hit} times"
        );
        hit_counts.push(hit);
    }
    assert!(
        hit_counts.windows(2).all(|w| w[0] == w[1]),
        "hit-path allocations depend on the member count: {hit_counts:?}"
    );
}
