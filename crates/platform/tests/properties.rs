//! Property-based tests for the platform substrate: virtual-clock
//! algebra, redistribution conservation, and device-model sanity.

use fupermod_platform::comm::{LinkModel, SimComm};
use fupermod_platform::{cluster, WorkloadProfile};
use proptest::prelude::*;

fn link_strategy() -> impl Strategy<Value = LinkModel> {
    (1e-7f64..1e-3, 1e6f64..1e10).prop_map(|(latency_sec, bytes_per_sec)| LinkModel {
        latency_sec,
        bytes_per_sec,
    })
}

proptest! {
    #[test]
    fn clocks_never_go_backwards(
        link in link_strategy(),
        ops in proptest::collection::vec((0usize..4, 0usize..4, 0.0f64..10.0), 1..50),
    ) {
        let mut comm = SimComm::new(4, link);
        let mut last_max = 0.0;
        for (a, b, amount) in ops {
            match (a + b) % 4 {
                0 | 2 => comm.advance(a, amount),
                1 => comm.barrier(),
                _ => {
                    let ready = comm.post_send(a, b, amount * 1e6);
                    comm.arrive(b, ready);
                }
            }
            let now = comm.max_time();
            prop_assert!(now >= last_max - 1e-12, "clock regressed");
            last_max = now;
        }
    }

    #[test]
    fn barrier_equalises_all_clocks(
        link in link_strategy(),
        advances in proptest::collection::vec(0.0f64..100.0, 4),
    ) {
        let mut comm = SimComm::new(4, link);
        for (rank, dt) in advances.iter().enumerate() {
            comm.advance(rank, *dt);
        }
        comm.barrier();
        let expected = advances.iter().cloned().fold(0.0, f64::max);
        for rank in 0..4 {
            prop_assert_eq!(comm.time(rank), expected);
        }
    }

    #[test]
    fn redistribute_moves_exactly_the_difference(
        link in link_strategy(),
        old in proptest::collection::vec(0u64..1000, 2..8),
        perm_seed in 0u64..1000,
    ) {
        // Build `new` as a permutation-ish reshuffle conserving the sum.
        let total: u64 = old.iter().sum();
        let n = old.len();
        let mut new = vec![0u64; n];
        let mut remaining = total;
        for (i, slot) in new.iter_mut().enumerate().take(n - 1) {
            let share = (perm_seed.wrapping_mul(31).wrapping_add(i as u64 * 17)) % (remaining + 1);
            *slot = share;
            remaining -= share;
        }
        new[n - 1] = remaining;

        let mut comm = SimComm::new(n, link);
        let moved = comm.redistribute(&old, &new, 8.0).unwrap();
        let expected: u64 = old
            .iter()
            .zip(&new)
            .map(|(&o, &nw)| o.saturating_sub(nw))
            .sum();
        prop_assert_eq!(moved, expected);
        // Non-trivial moves cost time.
        prop_assert!(moved == 0 || comm.max_time() > 0.0);
    }

    #[test]
    fn cpu_time_is_monotone_in_units(
        d1 in 1u64..100_000,
        d2 in 1u64..100_000,
    ) {
        let profile = WorkloadProfile::matrix_update(16);
        let dev = cluster::fast_cpu("c", 1);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(dev.ideal_time(lo, &profile) <= dev.ideal_time(hi, &profile) + 1e-12);
    }

    #[test]
    fn gpu_time_is_monotone_in_units(
        d1 in 1u64..100_000,
        d2 in 1u64..100_000,
    ) {
        let profile = WorkloadProfile::matrix_update(16);
        let dev = cluster::gpu("g", 1, true);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(dev.ideal_time(lo, &profile) <= dev.ideal_time(hi, &profile) + 1e-12);
    }

    #[test]
    fn measured_time_is_positive_and_bounded(
        d in 1u64..200_000,
        run in 0u64..100,
        seed in 0u64..100,
    ) {
        let profile = WorkloadProfile::matrix_update(16);
        let dev = cluster::slow_cpu("s", seed);
        let t = dev.measured_time(d, &profile, run);
        let ideal = dev.ideal_time(d, &profile);
        prop_assert!(t > 0.0);
        // Noise is 2%; the clamp guarantees at worst 5% of ideal and the
        // two-uniform sum is within ±2 sigma-equivalents.
        prop_assert!(t > 0.04 * ideal && t < 2.0 * ideal, "t={t} ideal={ideal}");
    }

    #[test]
    fn link_cost_is_monotone_in_bytes(
        link in link_strategy(),
        b1 in 0.0f64..1e9,
        b2 in 0.0f64..1e9,
    ) {
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(link.cost(lo) <= link.cost(hi));
    }
}
