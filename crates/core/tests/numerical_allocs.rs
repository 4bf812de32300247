//! Pins the *property* the numerical partitioner's Newton loop was
//! rebuilt for, not its timing (a noisy host can hide a timing
//! regression, never an allocation count): one partition on warm Akima
//! models allocates the same number of times whatever the process
//! count and however many Newton iterations the total needs — the
//! loop's scratch is allocated once per solve, and a structured step
//! allocates nothing.
//!
//! One test per file: the counter is per thread, but nothing else
//! should run in this process while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fupermod_core::model::{AkimaModel, Model};
use fupermod_core::partition::{NumericalPartitioner, Partitioner};
use fupermod_core::{CoreError, Point};

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

/// Forwards to an Akima model, counting time-derivative evaluations:
/// the partitioner takes one per process and Newton step, so the count
/// tells totals that need different iteration counts apart.
struct Counted<'a> {
    inner: &'a AkimaModel,
    derivatives: &'a Cell<usize>,
}

impl Model for Counted<'_> {
    fn points(&self) -> &[Point] {
        self.inner.points()
    }
    fn update(&mut self, _: Point) -> Result<(), CoreError> {
        unreachable!("the partitioner only reads")
    }
    fn time(&self, x: f64) -> Option<f64> {
        self.inner.time(x)
    }
    fn time_derivative(&self, x: f64) -> Option<f64> {
        self.derivatives.set(self.derivatives.get() + 1);
        self.inner.time_derivative(x)
    }
    fn speed(&self, x: f64) -> Option<f64> {
        self.inner.speed(x)
    }
}

/// `p` monotone Akima models: speeds 20…80 units/s falling off past
/// 1e4…4e4 units, sampled at 32 · 2^j, j < 13.
fn models(p: usize) -> Vec<AkimaModel> {
    (0..p)
        .map(|i| {
            let speed = 20.0 + (i * 37 % 61) as f64;
            let knee = 1e4 * (1.0 + (i * 13 % 4) as f64);
            let mut m = AkimaModel::new();
            for j in 0..13 {
                let d = 32u64 << j;
                m.update(Point::single(d, d as f64 / speed * (1.0 + d as f64 / knee)))
                    .unwrap();
            }
            m
        })
        .collect()
}

#[test]
fn a_numerical_partition_allocates_per_solve_not_per_process_or_iteration() {
    let numerical = NumericalPartitioner::default();
    let mut counts = Vec::new();
    let mut steps = Vec::new();
    for p in [8usize, 64, 256] {
        let built = models(p);
        let derivatives = Cell::new(0);
        let counted: Vec<Counted<'_>> = built
            .iter()
            .map(|inner| Counted {
                inner,
                derivatives: &derivatives,
            })
            .collect();
        let refs: Vec<&dyn Model> = counted.iter().map(|m| m as &dyn Model).collect();
        // Warm: first-use statics and lazy registrations are not the
        // solve's.
        numerical.partition(1000 * p as u64, &refs).unwrap();
        for per_process in [40u64, 2_000, 30_000, 400_000] {
            let total = per_process * p as u64;
            derivatives.set(0);
            let (n, dist) = allocations(|| numerical.partition(total, &refs));
            assert_eq!(dist.unwrap().total_assigned(), total);
            counts.push(n);
            steps.push(derivatives.get() / p);
        }
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "allocations per partition: {counts:?} (Newton steps: {steps:?})"
    );
    assert!(
        steps[..4].windows(2).any(|w| w[0] != w[1]),
        "the totals all need {} Newton steps",
        steps[0]
    );
}
