//! Plummer-model particle generation for the Barnes-Hut case study — the
//! standard initialisation used by SPLASH's Barnes-Hut code.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A point mass in 3-D.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Body {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Mass (the bodies of one model sum to 1).
    pub mass: f64,
}

/// Generate `n` bodies from the Plummer density profile (Aarseth, Hénon &
/// Wielen's rejection-free sampling, as in SPLASH), seeded for determinism.
/// Velocities use the standard isotropic rejection sampling.
pub fn plummer(n: usize, seed: u64) -> Vec<Body> {
    assert!(n > 0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mass = 1.0 / n as f64;
    let mut bodies = Vec::with_capacity(n);
    for _ in 0..n {
        // Radius from the inverse CDF of the Plummer profile, with the
        // customary cutoff at r = 22.8 * scale to avoid outliers.
        let r = loop {
            let x: f64 = rng.gen_range(1e-10..1.0);
            let r = (x.powf(-2.0 / 3.0) - 1.0).powf(-0.5);
            if r < 22.8 {
                break r;
            }
        };
        let pos = sphere_point(&mut rng, r);
        // Speed via von Neumann rejection on q²(1-q²)^3.5.
        let q = loop {
            let q: f64 = rng.gen_range(0.0..1.0);
            let y: f64 = rng.gen_range(0.0..0.1);
            if y < q * q * (1.0 - q * q).powf(3.5) {
                break q;
            }
        };
        let speed = q * std::f64::consts::SQRT_2 * (1.0 + r * r).powf(-0.25);
        let vel = sphere_point(&mut rng, speed);
        bodies.push(Body { pos, vel, mass });
    }
    center_of_mass_frame(&mut bodies);
    bodies
}

/// A uniformly-random point on the sphere of radius `r`.
fn sphere_point(rng: &mut SmallRng, r: f64) -> [f64; 3] {
    loop {
        let v = [
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        ];
        let s: f64 = v.iter().map(|x| x * x).sum();
        if s > 1e-12 && s <= 1.0 {
            let k = r / s.sqrt();
            return [v[0] * k, v[1] * k, v[2] * k];
        }
    }
}

/// Shift to the centre-of-mass frame (zero net momentum and centroid).
fn center_of_mass_frame(bodies: &mut [Body]) {
    let total: f64 = bodies.iter().map(|b| b.mass).sum();
    let mut cp = [0.0; 3];
    let mut cv = [0.0; 3];
    for b in bodies.iter() {
        for d in 0..3 {
            cp[d] += b.mass * b.pos[d];
            cv[d] += b.mass * b.vel[d];
        }
    }
    for d in 0..3 {
        cp[d] /= total;
        cv[d] /= total;
    }
    for b in bodies.iter_mut() {
        for d in 0..3 {
            b.pos[d] -= cp[d];
            b.vel[d] -= cv[d];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        assert_eq!(plummer(100, 5), plummer(100, 5));
        assert_ne!(plummer(100, 5), plummer(100, 6));
    }

    #[test]
    fn total_mass_is_one_and_com_centred() {
        let bodies = plummer(500, 1);
        let m: f64 = bodies.iter().map(|b| b.mass).sum();
        assert!((m - 1.0).abs() < 1e-12);
        for d in 0..3 {
            let com: f64 = bodies.iter().map(|b| b.mass * b.pos[d]).sum();
            let mom: f64 = bodies.iter().map(|b| b.mass * b.vel[d]).sum();
            assert!(com.abs() < 1e-9, "COM[{d}] = {com}");
            assert!(mom.abs() < 1e-9, "momentum[{d}] = {mom}");
        }
    }

    #[test]
    fn radii_respect_cutoff() {
        let bodies = plummer(300, 2);
        for b in &bodies {
            let r: f64 = b.pos.iter().map(|x| x * x).sum::<f64>().sqrt();
            // Cutoff 22.8 plus a little slack for the COM shift.
            assert!(r < 25.0, "body at radius {r}");
        }
    }

    #[test]
    fn distribution_is_centrally_concentrated() {
        // Plummer: half-mass radius ≈ 1.3 scale radii; most bodies well
        // inside the cutoff.
        let bodies = plummer(1000, 3);
        let inner = bodies
            .iter()
            .filter(|b| b.pos.iter().map(|x| x * x).sum::<f64>().sqrt() < 2.0)
            .count();
        assert!(inner > 500, "only {inner}/1000 bodies within r=2");
    }
}
