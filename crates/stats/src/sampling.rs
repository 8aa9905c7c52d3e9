//! Seeded subset sampling (per-round client cohorts).
//!
//! Production federated rounds don't poll every client: the server samples a
//! cohort of `⌈q·n⌉` clients per round. The draw must be a pure function of
//! the round's dedicated RNG stream — cohort membership is part of the
//! simulation's determinism contract, so the sampler below is a plain
//! partial Fisher–Yates shuffle with a fixed draw order (one `gen_range`
//! per selected slot), never anything rejection-based whose draw count
//! could depend on floating-point comparisons.

use rand::Rng;
use std::collections::HashMap;

/// Draws `m` distinct indices from `0..n` uniformly without replacement and
/// returns them **sorted ascending**.
///
/// The draw sequence is a partial Fisher–Yates shuffle: slot `i` swaps with
/// a uniform position in `i..n`, consuming exactly `m` RNG draws regardless
/// of which indices win. Sorting the result decouples downstream iteration
/// order from the shuffle order, so callers can fold over the cohort in
/// index order (the merge-order contract of the streaming defense).
///
/// The pool `0..n` is never built: only the positions a swap displaced are
/// stored, so time and memory are `O(m)` — a cohort of 512 from 10⁶ clients
/// costs no 8 MB pool per round.
///
/// Panics if `m > n`.
pub fn sample_without_replacement<R: Rng + ?Sized>(rng: &mut R, n: usize, m: usize) -> Vec<usize> {
    assert!(m <= n, "cannot draw {m} distinct indices from a population of {n}");
    // `displaced[k]` is the value at pool position `k` once a swap moved it;
    // an absent key still holds `k`. Position `i` is final after step `i`.
    let mut displaced: HashMap<usize, usize> = HashMap::new();
    let mut drawn = Vec::with_capacity(m);
    for i in 0..m {
        let j = rng.gen_range(i..n);
        let at_i = displaced.get(&i).copied().unwrap_or(i);
        drawn.push(displaced.insert(j, at_i).unwrap_or(j));
    }
    drawn.sort_unstable();
    drawn
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The materialized partial Fisher–Yates shuffle: the oracle for the
    /// sparse sampler.
    fn pool_sample(rng: &mut StdRng, n: usize, m: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..m {
            let j = rng.gen_range(i..n);
            pool.swap(i, j);
        }
        pool.truncate(m);
        pool.sort_unstable();
        pool
    }

    #[test]
    fn sparse_draws_match_the_materialized_shuffle() {
        for (n, m) in [(1, 1), (2, 1), (17, 17), (100, 10), (1000, 64), (50_000, 512)] {
            for seed in 0..8 {
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let got = sample_without_replacement(&mut a, n, m);
                assert_eq!(got, pool_sample(&mut b, n, m), "n {n}, m {m}, seed {seed}");
                assert_eq!(a.next_u64(), b.next_u64(), "stream state, n {n}, m {m}");
            }
        }
    }

    #[test]
    fn a_draw_from_a_huge_population_builds_no_pool() {
        let s = sample_without_replacement(&mut StdRng::seed_from_u64(5), 1 << 40, 8);
        assert_eq!(s.len(), 8);
        assert!(s.windows(2).all(|w| w[0] < w[1]) && s[7] < 1 << 40);
    }

    #[test]
    fn draws_are_distinct_sorted_and_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = sample_without_replacement(&mut rng, 100, 10);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted + distinct: {s:?}");
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn same_seed_same_cohort() {
        let a = sample_without_replacement(&mut StdRng::seed_from_u64(42), 1000, 64);
        let b = sample_without_replacement(&mut StdRng::seed_from_u64(42), 1000, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn full_draw_is_the_identity_cohort() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = sample_without_replacement(&mut rng, 17, 17);
        assert_eq!(s, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn consumes_exactly_m_draws() {
        // Two samplers on the same stream, different populations: after m
        // draws the streams must be in the same state (the fixed-draw-count
        // property the determinism contract relies on).
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let _ = sample_without_replacement(&mut a, 50, 5);
        for _ in 0..5 {
            let _ = b.gen_range(0usize..10);
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn roughly_uniform_membership() {
        // Each index should appear with probability m/n; a loose band is
        // enough to catch an off-by-one in the shuffle range.
        let (n, m, trials) = (20, 5, 4000);
        let mut counts = vec![0usize; n];
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..trials {
            for i in sample_without_replacement(&mut rng, n, m) {
                counts[i] += 1;
            }
        }
        let expected = trials * m / n; // 1000
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected as f64).abs() < 0.15 * expected as f64,
                "index {i} drawn {c} times (expected ≈ {expected})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn rejects_oversized_draw() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = sample_without_replacement(&mut rng, 3, 4);
    }
}
