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
            // Cell (r, c) is `amp * (row(r) + col(c))`, so each term is
            // evaluated once per row or column instead of once per cell.
            let cols: Vec<f64> = (0..p.n)
                .map(|c| (c as f64 * 0.2 + g as f64).cos())
                .collect();
            let mut grid = Vec::with_capacity(p.n * p.n);
            for r in 0..p.n {
                let row = (r as f64 * 0.3 + phase).sin();
                grid.extend(cols.iter().map(|&col| amp * (row + col)));
            }
            grid
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

    /// The per-cell formula the generator evaluated before it hoisted the
    /// row and column terms.
    fn per_cell_grids(p: &OceanParams) -> Vec<Vec<f64>> {
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

    #[test]
    fn grids_match_the_per_cell_formula_bit_for_bit() {
        for (n, num_grids, seed) in [(1, 1, 0), (7, 3, 1), (24, 4, 3), (64, 8, 3), (33, 25, 99)] {
            let p = OceanParams {
                n,
                num_grids,
                seed,
                ..Default::default()
            };
            let bits = |grids: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
                grids
                    .into_iter()
                    .map(|g| g.into_iter().map(f64::to_bits).collect())
                    .collect()
            };
            assert_eq!(
                bits(initial_grids(&p)),
                bits(per_cell_grids(&p)),
                "n={n} grids={num_grids} seed={seed}"
            );
        }
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
