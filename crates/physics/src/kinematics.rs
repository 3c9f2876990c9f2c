//! Atom-movement kinematics (paper Fig. 12 and Sec. IV).
//!
//! Ref. [Bluvstein et al. 2022] moves atoms with a *constant negative jerk*
//! profile: acceleration decreases linearly from +a₀ to −a₀, velocity is a
//! downward parabola vanishing at both endpoints, and position is the
//! corresponding smooth S-curve. With move distance `D` and duration `T`:
//!
//! * `a₀ = 6D/T²`, jerk `= −2a₀/T = −12D/T³` (constant),
//! * `v(t) = a₀·(t − t²/T)`, peaking at `v(T/2) = 3D/(2T)`,
//! * `x(t) = a₀·(t²/2 − t³/(3T))`, with `x(T) = D` exactly.

/// A single constant-negative-jerk movement of one AOD row/column.
///
/// # Examples
///
/// ```
/// use raa_physics::MovementProfile;
/// let m = MovementProfile::new(15e-6, 300e-6); // one 15 µm hop in 300 µs
/// assert!((m.position(300e-6) - 15e-6).abs() < 1e-12);
/// assert!((m.velocity(0.0)).abs() < 1e-15);
/// assert!((m.velocity(300e-6)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovementProfile {
    distance_m: f64,
    duration_s: f64,
}

/// One sampled point of a movement profile (used to regenerate Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KinematicSample {
    /// Time since movement start, seconds.
    pub t_s: f64,
    /// Jerk, m/s³ (constant over the move).
    pub jerk: f64,
    /// Acceleration, m/s².
    pub accel: f64,
    /// Velocity, m/s.
    pub velocity: f64,
    /// Distance travelled, m.
    pub distance: f64,
}

impl MovementProfile {
    /// Creates a profile for moving `distance_m` metres in `duration_s`
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not positive and finite.
    pub fn new(distance_m: f64, duration_s: f64) -> Self {
        assert!(
            distance_m > 0.0 && distance_m.is_finite(),
            "distance must be positive, got {distance_m}"
        );
        assert!(
            duration_s > 0.0 && duration_s.is_finite(),
            "duration must be positive, got {duration_s}"
        );
        MovementProfile {
            distance_m,
            duration_s,
        }
    }

    /// Total distance in metres.
    pub fn distance_m(&self) -> f64 {
        self.distance_m
    }

    /// Total duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration_s
    }

    /// Initial (peak) acceleration `a₀ = 6D/T²`.
    pub fn peak_accel(&self) -> f64 {
        6.0 * self.distance_m / (self.duration_s * self.duration_s)
    }

    /// The constant jerk `−2a₀/T`.
    pub fn jerk(&self) -> f64 {
        -2.0 * self.peak_accel() / self.duration_s
    }

    /// Acceleration at time `t`: linear from `+a₀` to `−a₀`.
    pub fn accel(&self, t: f64) -> f64 {
        let a0 = self.peak_accel();
        a0 * (1.0 - 2.0 * t / self.duration_s)
    }

    /// Velocity at time `t`: parabolic, zero at both endpoints.
    pub fn velocity(&self, t: f64) -> f64 {
        let a0 = self.peak_accel();
        a0 * (t - t * t / self.duration_s)
    }

    /// Peak velocity `3D/(2T)`, reached at `t = T/2`.
    pub fn peak_velocity(&self) -> f64 {
        1.5 * self.distance_m / self.duration_s
    }

    /// Distance travelled by time `t`.
    pub fn position(&self, t: f64) -> f64 {
        let a0 = self.peak_accel();
        a0 * (t * t / 2.0 - t * t * t / (3.0 * self.duration_s))
    }

    /// Samples the profile at `n` evenly spaced instants (inclusive of both
    /// endpoints), regenerating the four panels of Fig. 12.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn sample(&self, n: usize) -> Vec<KinematicSample> {
        assert!(n >= 2, "need at least two samples");
        (0..n)
            .map(|i| {
                let t = self.duration_s * i as f64 / (n - 1) as f64;
                KinematicSample {
                    t_s: t,
                    jerk: self.jerk(),
                    accel: self.accel(t),
                    velocity: self.velocity(t),
                    distance: self.position(t),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop() -> MovementProfile {
        MovementProfile::new(15e-6, 300e-6)
    }

    #[test]
    fn boundary_conditions() {
        let m = hop();
        assert!((m.position(0.0)).abs() < 1e-18);
        assert!((m.position(m.duration_s()) - m.distance_m()).abs() < 1e-15);
        assert!((m.velocity(0.0)).abs() < 1e-18);
        assert!((m.velocity(m.duration_s())).abs() < 1e-12);
        assert!((m.accel(0.0) - m.peak_accel()).abs() < 1e-12);
        assert!((m.accel(m.duration_s()) + m.peak_accel()).abs() < 1e-12);
    }

    #[test]
    fn velocity_peaks_at_midpoint() {
        let m = hop();
        let mid = m.velocity(m.duration_s() / 2.0);
        assert!((mid - m.peak_velocity()).abs() < 1e-12);
        assert!(mid > m.velocity(m.duration_s() / 4.0));
        assert!(mid > m.velocity(3.0 * m.duration_s() / 4.0));
    }

    #[test]
    fn velocity_integrates_to_distance() {
        // Numerical integration of v(t) must equal D.
        let m = hop();
        let n = 10_000;
        let dt = m.duration_s() / n as f64;
        let integral: f64 = (0..n).map(|i| m.velocity((i as f64 + 0.5) * dt) * dt).sum();
        assert!((integral - m.distance_m()).abs() / m.distance_m() < 1e-6);
    }

    #[test]
    fn jerk_is_constant_derivative_of_accel() {
        let m = hop();
        let dt = 1e-9;
        for frac in [0.1, 0.5, 0.9] {
            let t = frac * m.duration_s();
            let num = (m.accel(t + dt) - m.accel(t)) / dt;
            assert!((num - m.jerk()).abs() / m.jerk().abs() < 1e-4);
        }
    }

    #[test]
    fn sample_covers_endpoints() {
        let m = hop();
        let s = m.sample(31);
        assert_eq!(s.len(), 31);
        assert!((s[0].t_s).abs() < 1e-18);
        assert!((s[30].t_s - m.duration_s()).abs() < 1e-15);
        assert!((s[30].distance - m.distance_m()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_distance_rejected() {
        MovementProfile::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_sample_rejected() {
        hop().sample(1);
    }
}
