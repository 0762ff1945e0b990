//! Grid-state initialisation for the Ocean case study.
//!
//! Ocean's main data structures are "twenty-five double precision floating
//! point grids", each a 2-D array of a state variable. We initialise the
//! grids with smooth, seeded pseudo-random fields so the stencil updates do
//! real arithmetic with verifiable results.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Ocean problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct OceanParams {
    /// Grid edge length (grids are `n × n`).
    pub n: usize,
    /// Number of state grids (25 in SPLASH Ocean).
    pub num_grids: usize,
    /// Number of regions each grid is partitioned into (the paper
    /// partitions each grid into a single array of regions — contiguous
    /// row blocks).
    pub regions: usize,
    /// Relaxation sweeps per phase.
    pub sweeps: usize,
    /// Seed of the initial fields.
    pub seed: u64,
}

impl Default for OceanParams {
    fn default() -> Self {
        OceanParams {
            n: 64,
            num_grids: 25,
            regions: 16,
            sweeps: 4,
            seed: 1,
        }
    }
}

/// Initial grid values: `num_grids` grids of `n × n` values, row-major.
pub fn initial_grids(p: &OceanParams) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(p.seed);
    (0..p.num_grids)
        .map(|g| {
            let phase: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let amp: f64 = rng.gen_range(0.5..2.0);
            (0..p.n * p.n)
                .map(|i| {
                    let (r, c) = (i / p.n, i % p.n);
                    amp * ((r as f64 * 0.3 + phase).sin() + (c as f64 * 0.2 + g as f64).cos())
                })
                .collect()
        })
        .collect()
}

/// Row range of region `r` when an `n × n` grid is split into `regions`
/// contiguous row blocks (the last block absorbs the remainder).
pub fn region_rows(n: usize, regions: usize, r: usize) -> std::ops::Range<usize> {
    assert!(r < regions);
    let per = n / regions;
    let start = r * per;
    let end = if r + 1 == regions { n } else { start + per };
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_deterministic_and_sized() {
        let p = OceanParams {
            n: 16,
            num_grids: 5,
            ..Default::default()
        };
        let a = initial_grids(&p);
        let b = initial_grids(&p);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|g| g.len() == 256));
    }

    #[test]
    fn regions_partition_all_rows() {
        let (n, regions) = (19, 4);
        let mut covered = vec![false; n];
        for r in 0..regions {
            for row in region_rows(n, regions, r) {
                assert!(!covered[row], "row {row} covered twice");
                covered[row] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn last_region_absorbs_remainder() {
        assert_eq!(region_rows(10, 4, 3), 6..10);
        assert_eq!(region_rows(10, 4, 0), 0..2);
    }
}
