//! Seeded input generation. Every workload draws its job mix by blocked
//! randomization: each block of consecutive jobs holds every value once,
//! in seeded order. Two seeds then give different job orders and
//! pairings but the same total work and no long bursts of heavy jobs, so
//! the run-to-run spread measures the host, not the draw.

use crate::trace::Tracer;
use detrng::DetRng;
use fdm::pde::{PdeKind, StencilProblem};
use fdm::workload::benchmark_problem;

pub const KINDS: [PdeKind; 4] = [
    PdeKind::Laplace,
    PdeKind::Poisson,
    PdeKind::Heat,
    PdeKind::Wave,
];

/// In-place Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut DetRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0, i + 1));
    }
}

/// `n` draws in blocks of `values.len()`: each block is a seeded
/// permutation of `values`.
pub fn blocked<T: Copy>(values: &[T], n: usize, rng: &mut DetRng) -> Vec<T> {
    let mut out = Vec::with_capacity(n + values.len());
    while out.len() < n {
        let mut block = values.to_vec();
        shuffle(&mut block, rng);
        out.extend(block);
    }
    out.truncate(n);
    out
}

/// Builds input `job`'s benchmark problem inside a
/// `setup.problem_build` span.
pub fn build_problem(
    tracer: &mut Tracer,
    job: usize,
    kind: PdeKind,
    n: usize,
    steps: usize,
) -> StencilProblem<f32> {
    tracer.span("setup.problem_build", Some(job as u64), || {
        benchmark_problem::<f32>(kind, n, steps).expect("benchmark problem")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_draws_are_seeded_block_permutations() {
        let a = blocked(&[1, 2, 3], 9, &mut DetRng::seed_from_u64(1));
        let b = blocked(&[1, 2, 3], 9, &mut DetRng::seed_from_u64(1));
        let c = blocked(&[1, 2, 3], 9, &mut DetRng::seed_from_u64(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        for block in a.chunks(3) {
            let mut s = block.to_vec();
            s.sort_unstable();
            assert_eq!(s, vec![1, 2, 3]);
        }
    }
}
