//! Analytic solutions for verification.
//!
//! The paper's initial condition is "a Gaussian wave at the center of the
//! cube"; Equation 1 moves the wave in the direction of the velocity
//! without changing its shape, so the analytic solution at time `t` is the
//! initial Gaussian translated by `c·t` with periodic wrap-around.

use crate::coeffs::Velocity;
use crate::field::{Field3, ZSlabMut};

/// Anything that can be evaluated as the exact solution `u(x, y, z, t)`.
pub trait AnalyticSolution {
    /// Exact solution value at physical position `(x, y, z)` and time `t`.
    fn eval(&self, x: f64, y: f64, z: f64, t: f64) -> f64;
}

/// A periodic Gaussian pulse advected with constant velocity.
#[derive(Debug, Clone, Copy)]
pub struct GaussianPulse {
    /// Initial center of the pulse.
    pub center: [f64; 3],
    /// Standard deviation of the Gaussian.
    pub sigma: f64,
    /// Periodic domain lengths in each dimension.
    pub domain: [f64; 3],
    /// Advection velocity.
    pub velocity: Velocity,
}

impl GaussianPulse {
    /// The paper's configuration: pulse centered in a cube of the given
    /// side length, with σ one tenth of the side.
    pub fn centered_in_cube(side: f64, velocity: Velocity) -> Self {
        Self {
            center: [side / 2.0; 3],
            sigma: side / 10.0,
            domain: [side; 3],
            velocity,
        }
    }

    /// Minimum-image (periodic) displacement `a - b` in dimension `d`.
    fn periodic_delta(&self, a: f64, b: f64, d: usize) -> f64 {
        let l = self.domain[d];
        let mut dx = (a - b) % l;
        if dx > l / 2.0 {
            dx -= l;
        } else if dx < -l / 2.0 {
            dx += l;
        }
        dx
    }

    /// The pulse center at time `t`.
    fn center_at(&self, t: f64) -> [f64; 3] {
        let v = [self.velocity.cx, self.velocity.cy, self.velocity.cz];
        std::array::from_fn(|d| self.center[d] + v[d] * t)
    }

    /// Sample the pulse at time `t` into the interior of `f`, whose
    /// interior point `(0, 0, 0)` is grid point `origin` of a grid with
    /// spacing `spacing` (halos untouched). Bit-identical to
    /// [`AnalyticSolution::eval`] at `(origin + i) · spacing` for every
    /// interior point `i`.
    pub fn fill(&self, f: &mut Field3, origin: [i64; 3], spacing: f64, t: f64) {
        let (nx, ny, _) = f.interior();
        for mut slab in f.z_slabs_mut(&[]) {
            self.fill_slab(&mut slab, (nx, ny), origin, spacing, t);
        }
    }

    /// [`GaussianPulse::fill`] restricted to the interior z-planes a slab
    /// owns, for threaded fills; `(nx, ny)` is the parent field's
    /// interior x/y extent. The minimum-image deltas (one `fmod` each)
    /// are taken once per x, y and z instead of three times per point;
    /// each point then evaluates the same `r²` and `exp` as `eval`.
    pub fn fill_slab(
        &self,
        slab: &mut ZSlabMut<'_>,
        (nx, ny): (usize, usize),
        origin: [i64; 3],
        spacing: f64,
        t: f64,
    ) {
        let c = self.center_at(t);
        let delta =
            |d: usize, i: i64| self.periodic_delta((origin[d] + i) as f64 * spacing, c[d], d);
        let dxs: Vec<f64> = (0..nx as i64).map(|x| delta(0, x)).collect();
        let dys: Vec<f64> = (0..ny as i64).map(|y| delta(1, y)).collect();
        let denom = 2.0 * self.sigma * self.sigma;
        for z in slab.z0..slab.z1 {
            let dz = delta(2, z);
            for (y, &dy) in (0..).zip(&dys) {
                for (v, &dx) in slab.row_mut(0, y, z, nx).iter_mut().zip(&dxs) {
                    let r2 = dx * dx + dy * dy + dz * dz;
                    *v = (-r2 / denom).exp();
                }
            }
        }
    }
}

impl AnalyticSolution for GaussianPulse {
    fn eval(&self, x: f64, y: f64, z: f64, t: f64) -> f64 {
        let [cx, cy, cz] = self.center_at(t);
        let dx = self.periodic_delta(x, cx, 0);
        let dy = self.periodic_delta(y, cy, 1);
        let dz = self.periodic_delta(z, cz, 2);
        let r2 = dx * dx + dy * dy + dz * dz;
        (-r2 / (2.0 * self.sigma * self.sigma)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_at_moving_center() {
        let p = GaussianPulse::centered_in_cube(1.0, Velocity::new(1.0, 0.5, 0.25));
        assert!((p.eval(0.5, 0.5, 0.5, 0.0) - 1.0).abs() < 1e-15);
        let t = 0.1;
        assert!((p.eval(0.5 + 0.1, 0.5 + 0.05, 0.5 + 0.025, t) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn shape_is_preserved_under_advection() {
        let p = GaussianPulse::centered_in_cube(2.0, Velocity::new(1.0, 1.0, 1.0));
        // Value at a point offset from the center must be the same at any t.
        let off = (0.07, -0.02, 0.05);
        let v0 = p.eval(1.0 + off.0, 1.0 + off.1, 1.0 + off.2, 0.0);
        let t = 0.37;
        let v1 = p.eval(
            1.0 + 1.0 * t + off.0,
            1.0 + 1.0 * t + off.1,
            1.0 + 1.0 * t + off.2,
            t,
        );
        assert!((v0 - v1).abs() < 1e-14);
    }

    #[test]
    fn periodic_wraparound() {
        let p = GaussianPulse::centered_in_cube(1.0, Velocity::new(1.0, 0.0, 0.0));
        // After the pulse crosses the boundary, it reappears on the left.
        let t = 0.75; // center at 1.25 ≡ 0.25
        assert!((p.eval(0.25, 0.5, 0.5, t) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn full_period_returns_initial_state() {
        let p = GaussianPulse::centered_in_cube(1.0, Velocity::new(1.0, 1.0, 1.0));
        for &(x, y, z) in &[(0.1, 0.9, 0.4), (0.5, 0.5, 0.5), (0.0, 0.0, 0.0)] {
            assert!((p.eval(x, y, z, 0.0) - p.eval(x, y, z, 1.0)).abs() < 1e-12);
        }
    }
}
