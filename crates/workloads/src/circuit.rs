//! Synthetic standard-cell circuits for the LocusRoute case study.
//!
//! The paper (Section 6.2): "Since we had only small input circuits
//! available to us, we demonstrate our technique using a synthetically
//! constructed input consisting of a dense network of wires within regions
//! of the circuit." We generate exactly that: a `width × height` grid of
//! routing cells, divided into `regions` vertical strips, and wires whose
//! pin pairs mostly fall inside a single strip (with a configurable fraction
//! of strip-crossing wires).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A two-pin wire to be routed between routing cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wire {
    /// First pin (x, y) in routing-cell coordinates.
    pub from: (usize, usize),
    /// Second pin.
    pub to: (usize, usize),
}

impl Wire {
    /// Geometric midpoint (used by the `Region()` affinity function of
    /// Figure 9).
    pub fn midpoint(&self) -> (usize, usize) {
        (
            (self.from.0 + self.to.0) / 2,
            (self.from.1 + self.to.1) / 2,
        )
    }

    /// Half-perimeter wirelength (lower bound on route length).
    pub fn hpwl(&self) -> usize {
        self.from.0.abs_diff(self.to.0) + self.from.1.abs_diff(self.to.1)
    }
}

/// A multi-pin net: the paper's wire object "contains the list of pin
/// locations to be joined". Routed as a chain of two-pin segments between
/// x-sorted consecutive pins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Net {
    /// Pin locations (2 or more), sorted by x at generation.
    pub pins: Vec<(usize, usize)>,
}

impl Net {
    /// A two-pin net.
    pub fn two_pin(from: (usize, usize), to: (usize, usize)) -> Self {
        let mut pins = vec![from, to];
        pins.sort_unstable();
        Net { pins }
    }

    /// Midpoint of the bounding box (the `Region()` anchor).
    pub fn midpoint(&self) -> (usize, usize) {
        let (mut x0, mut y0, mut x1, mut y1) = (usize::MAX, usize::MAX, 0, 0);
        for &(x, y) in &self.pins {
            x0 = x0.min(x);
            y0 = y0.min(y);
            x1 = x1.max(x);
            y1 = y1.max(y);
        }
        ((x0 + x1) / 2, (y0 + y1) / 2)
    }

    /// The two-pin segments a chain router joins.
    pub fn segments(&self) -> impl Iterator<Item = Wire> + '_ {
        self.pins.windows(2).map(|w| Wire {
            from: w[0],
            to: w[1],
        })
    }
}

/// A synthetic circuit: cost-array geometry plus the wire list.
#[derive(Clone, Debug)]
pub struct Circuit {
    /// Routing-cell grid width (x dimension).
    pub width: usize,
    /// Routing-cell grid height (y dimension).
    pub height: usize,
    /// Number of geographic regions (vertical strips of the cost array).
    pub regions: usize,
    /// Wires to route.
    pub wires: Vec<Wire>,
    /// Multi-pin nets (includes every wire as a 2-pin net, plus extra pins
    /// on a fraction of them).
    pub nets: Vec<Net>,
}

/// Generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct CircuitParams {
    /// Routing-cell grid width (x dimension).
    pub width: usize,
    /// Routing-cell grid height (y dimension).
    pub height: usize,
    /// Number of geographic regions (vertical strips of the cost array).
    pub regions: usize,
    /// Wires per region.
    pub wires_per_region: usize,
    /// Fraction (0..=1) of wires whose second pin lands in a neighbouring
    /// region, producing cross-region communication.
    pub crossing_fraction: f64,
    /// Fraction (0..=1) of nets that get a third pin (multi-pin nets, as in
    /// real standard-cell netlists).
    pub multi_pin_fraction: f64,
    /// Generator seed (equal seeds give equal circuits).
    pub seed: u64,
}

impl Default for CircuitParams {
    fn default() -> Self {
        CircuitParams {
            width: 256,
            height: 64,
            regions: 8,
            wires_per_region: 64,
            crossing_fraction: 0.1,
            multi_pin_fraction: 0.15,
            seed: 1,
        }
    }
}

impl Circuit {
    /// Generate a synthetic circuit.
    pub fn generate(p: CircuitParams) -> Self {
        assert!(p.regions >= 1 && p.width >= p.regions && p.height >= 2);
        assert!((0.0..=1.0).contains(&p.crossing_fraction));
        let mut rng = SmallRng::seed_from_u64(p.seed);
        let strip = p.width / p.regions;
        let mut wires = Vec::with_capacity(p.regions * p.wires_per_region);
        let mut nets = Vec::with_capacity(p.regions * p.wires_per_region);
        for r in 0..p.regions {
            let x0 = r * strip;
            let x1 = if r + 1 == p.regions {
                p.width
            } else {
                (r + 1) * strip
            };
            for _ in 0..p.wires_per_region {
                let from = (rng.gen_range(x0..x1), rng.gen_range(0..p.height));
                let crossing = rng.gen_bool(p.crossing_fraction) && p.regions > 1;
                let to = if crossing {
                    // Pin in a neighbouring strip.
                    let rn = if r + 1 < p.regions { r + 1 } else { r - 1 };
                    let nx0 = rn * strip;
                    let nx1 = if rn + 1 == p.regions {
                        p.width
                    } else {
                        (rn + 1) * strip
                    };
                    (rng.gen_range(nx0..nx1), rng.gen_range(0..p.height))
                } else {
                    (rng.gen_range(x0..x1), rng.gen_range(0..p.height))
                };
                wires.push(Wire { from, to });
                let mut net = Net::two_pin(from, to);
                if rng.gen_bool(p.multi_pin_fraction) {
                    // Third pin within the same strip: short nets, as in the
                    // paper's synthetic circuit.
                    net.pins
                        .push((rng.gen_range(x0..x1), rng.gen_range(0..p.height)));
                    net.pins.sort_unstable();
                }
                nets.push(net);
            }
        }
        Circuit {
            width: p.width,
            height: p.height,
            regions: p.regions,
            wires,
            nets,
        }
    }

    /// The `Region(wire)` function of Figure 9: which vertical strip of the
    /// cost array the wire's midpoint falls in.
    pub fn region_of(&self, w: &Wire) -> usize {
        let strip = self.width / self.regions;
        (w.midpoint().0 / strip).min(self.regions - 1)
    }

    /// `Region()` for a multi-pin net (bounding-box midpoint).
    pub fn region_of_net(&self, n: &Net) -> usize {
        let strip = self.width / self.regions;
        (n.midpoint().0 / strip).min(self.regions - 1)
    }

    /// Number of routing cells.
    pub fn cells(&self) -> usize {
        self.width * self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = CircuitParams::default();
        let a = Circuit::generate(p);
        let b = Circuit::generate(p);
        assert_eq!(a.wires, b.wires);
    }

    #[test]
    fn wires_stay_in_bounds() {
        let c = Circuit::generate(CircuitParams {
            width: 64,
            height: 16,
            regions: 4,
            wires_per_region: 32,
            crossing_fraction: 0.3,
            multi_pin_fraction: 0.2,
            seed: 9,
        });
        for w in &c.wires {
            assert!(w.from.0 < c.width && w.from.1 < c.height);
            assert!(w.to.0 < c.width && w.to.1 < c.height);
        }
        assert_eq!(c.wires.len(), 4 * 32);
    }

    #[test]
    fn most_wires_are_local_to_their_region() {
        let c = Circuit::generate(CircuitParams {
            crossing_fraction: 0.1,
            ..Default::default()
        });
        let strip = c.width / c.regions;
        let local = c
            .wires
            .iter()
            .filter(|w| w.from.0 / strip == w.to.0 / strip)
            .count();
        assert!(
            local as f64 / c.wires.len() as f64 > 0.8,
            "only {local}/{} wires local",
            c.wires.len()
        );
    }

    #[test]
    fn region_of_matches_midpoint_strip() {
        let c = Circuit::generate(CircuitParams::default());
        let strip = c.width / c.regions;
        for w in &c.wires {
            let r = c.region_of(w);
            assert!(r < c.regions);
            assert_eq!(r, (w.midpoint().0 / strip).min(c.regions - 1));
        }
    }

    #[test]
    fn nets_cover_wires_and_multi_pin_fraction() {
        let c = Circuit::generate(CircuitParams {
            multi_pin_fraction: 0.5,
            ..Default::default()
        });
        assert_eq!(c.nets.len(), c.wires.len());
        let multi = c.nets.iter().filter(|n| n.pins.len() > 2).count();
        let frac = multi as f64 / c.nets.len() as f64;
        assert!((0.3..0.7).contains(&frac), "multi-pin fraction {frac}");
        for n in &c.nets {
            assert!(n.pins.len() >= 2);
            assert!(n.pins.windows(2).all(|w| w[0] <= w[1]), "pins sorted");
            assert_eq!(n.segments().count(), n.pins.len() - 1);
        }
    }

    #[test]
    fn net_midpoint_is_bounding_box_centre() {
        let n = Net {
            pins: vec![(0, 0), (4, 8), (10, 2)],
        };
        assert_eq!(n.midpoint(), (5, 4));
    }

    #[test]
    fn hpwl_and_midpoint() {
        let w = Wire {
            from: (2, 3),
            to: (6, 1),
        };
        assert_eq!(w.hpwl(), 4 + 2);
        assert_eq!(w.midpoint(), (4, 2));
    }
}
