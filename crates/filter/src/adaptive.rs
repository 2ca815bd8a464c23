//! Innovation-based adaptive noise estimation.
//!
//! A fixed Kalman filter is only optimal when `Q` and `R` match reality. The
//! paper's central adaptivity claim — the filter "has the ability to adapt to
//! various stream characteristics, sensor noise, and time variance" — is
//! realised here with two classic innovation-based mechanisms:
//!
//! 1. **R estimation.** The innovation sequence satisfies
//!    `E[ν νᵀ] = H P⁻ Hᵀ + R`. A sliding window of empirical innovation
//!    outer-products minus the window-averaged `H P⁻ Hᵀ` therefore estimates
//!    `R` directly (Mehra 1970 style), floored to stay positive definite.
//! 2. **Q scaling.** The windowed mean NIS of a consistent filter is ≈ `m`
//!    (the measurement dimension). Persistent NIS above/below band limits
//!    means the filter trusts its model too much/too little, so the base `Q`
//!    is scaled up/down multiplicatively within configured bounds.

use std::collections::VecDeque;

use kalstream_linalg::{Cholesky, Matrix, Vector};

use crate::{KalmanFilter, Result, UpdateOutcome};

/// Tuning knobs for [`AdaptiveKalmanFilter`].
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Sliding-window length (number of updates) for both estimators.
    pub window: usize,
    /// Enable measurement-noise (`R`) estimation.
    pub adapt_r: bool,
    /// Enable process-noise (`Q`) scaling.
    pub adapt_q: bool,
    /// Lower bound applied to every diagonal entry of the estimated `R`.
    pub r_floor: f64,
    /// Multiplicative step for `Q` scaling (e.g. `1.5`).
    pub q_step: f64,
    /// Mean-NIS band `(low, high)`, in units of the measurement dimension,
    /// outside which `Q` is rescaled. Typical: `(0.5, 1.5)`.
    pub nis_band: (f64, f64),
    /// Cumulative `Q`-scale clamp relative to the base model, `(min, max)`.
    pub q_scale_bounds: (f64, f64),
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window: 32,
            adapt_r: true,
            adapt_q: true,
            r_floor: 1e-9,
            q_step: 1.5,
            nis_band: (0.5, 1.5),
            // Deflating Q too far freezes the filter's gain: it stops
            // tracking and the suppression layer pays a sync storm at the
            // next regime change. Inflation may range much further than
            // deflation for exactly that reason.
            q_scale_bounds: (0.25, 1e3),
        }
    }
}

/// A [`KalmanFilter`] wrapped with online `Q`/`R` estimation.
///
/// The wrapper is deterministic like the inner filter: adaptation decisions
/// depend only on the measurement history, so a cloned
/// `AdaptiveKalmanFilter` fed the same inputs stays identical — which is what
/// lets the suppression protocol run an adaptive filter as the shared
/// source/server procedure.
///
/// Every update runs here, at every source, so the windows hold only the
/// `m·m` live values of each matrix (row-major, oldest update first) rather
/// than inline `Matrix` values, and adopted estimates overwrite the inner
/// model's `Q`/`R` in place rather than rebuilding the model.
#[derive(Debug, Clone)]
pub struct AdaptiveKalmanFilter {
    inner: KalmanFilter,
    config: AdaptiveConfig,
    /// Base `Q` the scale factor refers to.
    base_q: Matrix,
    /// Current cumulative Q-scale factor.
    q_scale: f64,
    /// Window of innovation outer products `ν νᵀ`, `m·m` values each.
    innov_outer: VecDeque<f64>,
    /// Window of prior measurement covariances `H P⁻ Hᵀ`, `m·m` values each.
    prior_cov: VecDeque<f64>,
    /// Window of NIS values, one per update: its length is the number of
    /// updates every window holds.
    nis: VecDeque<f64>,
    /// Scratch for the `R` estimate (m × m).
    r_hat: Matrix,
    /// Scratch factorisation for the estimate's positive-definiteness check.
    r_chol: Cholesky,
}

impl AdaptiveKalmanFilter {
    /// Wraps a filter.
    pub fn new(inner: KalmanFilter, config: AdaptiveConfig) -> Self {
        let base_q = inner.model().q().clone();
        let m = inner.model().measurement_dim();
        AdaptiveKalmanFilter {
            inner,
            config,
            base_q,
            q_scale: 1.0,
            innov_outer: VecDeque::new(),
            prior_cov: VecDeque::new(),
            nis: VecDeque::new(),
            r_hat: Matrix::zeros(m, m),
            r_chol: Cholesky::empty(),
        }
    }

    /// Immutable access to the wrapped filter.
    pub fn inner(&self) -> &KalmanFilter {
        &self.inner
    }

    /// Mutable access to the wrapped filter (for resynchronisation). A model
    /// replaced through it must keep the measurement dimension: the windows
    /// hold `m·m` values per update.
    pub fn inner_mut(&mut self) -> &mut KalmanFilter {
        &mut self.inner
    }

    /// Current cumulative process-noise scale relative to the base model.
    pub fn q_scale(&self) -> f64 {
        self.q_scale
    }

    /// Current estimated measurement-noise covariance (the model's live `R`).
    pub fn estimated_r(&self) -> &Matrix {
        self.inner.model().r()
    }

    /// Windowed mean NIS (`0.0` before the first update).
    pub fn mean_nis(&self) -> f64 {
        if self.nis.is_empty() {
            0.0
        } else {
            self.nis.iter().sum::<f64>() / self.nis.len() as f64
        }
    }

    /// Time update (no adaptation happens here).
    ///
    /// # Errors
    /// Propagates [`KalmanFilter::predict`] errors.
    pub fn predict(&mut self) -> Result<()> {
        self.inner.predict()
    }

    /// Measurement update followed by adaptation.
    ///
    /// # Errors
    /// Propagates [`KalmanFilter::update`] errors; adaptation itself never
    /// fails (a non-PD `R` estimate is skipped, not applied).
    pub fn update(&mut self, z: &Vector) -> Result<UpdateOutcome> {
        let outcome = self.inner.update(z)?;

        // The update leaves R alone and builds S = H P⁻ Hᵀ + R with the
        // same operations `predicted_measurement_cov` runs, so S − R is the
        // prior H P⁻ Hᵀ bit for bit as that call before the update gave it.
        let nu = outcome.innovation.as_slice();
        let s = outcome.innovation_cov.as_slice();
        let r = self.inner.model().r().as_slice();
        let cap = self.config.window;
        push_window(
            &mut self.innov_outer,
            nu.iter().flat_map(|&ni| nu.iter().map(move |&nj| ni * nj)),
            r.len(),
            cap,
        );
        push_window(
            &mut self.prior_cov,
            s.iter().zip(r).map(|(&s, &r)| s - r),
            r.len(),
            cap,
        );
        push_window(&mut self.nis, [outcome.nis], 1, cap);

        let m = nu.len();
        if self.nis.len() >= self.config.window {
            if self.config.adapt_r {
                self.adapt_r(m);
            }
            if self.config.adapt_q {
                self.adapt_q(m);
            }
        }
        Ok(outcome)
    }

    /// Convenience: predict then update.
    ///
    /// # Errors
    /// Propagates stepping errors.
    pub fn step(&mut self, z: &Vector) -> Result<UpdateOutcome> {
        self.predict()?;
        self.update(z)
    }

    fn adapt_r(&mut self, m: usize) {
        // R̂ = mean(ν νᵀ) − mean(H P⁻ Hᵀ), floored on the diagonal.
        // Each element is summed oldest to newest from +0.0 and then scaled
        // by 1/count — the operations, in order, of summing whole matrices
        // with `+=` and `scale_mut`.
        let inv_count = 1.0 / self.nis.len() as f64;
        let mean = |w: &VecDeque<f64>, e: usize| {
            w.iter().skip(e).step_by(m * m).fold(0.0, |acc, v| acc + v) * inv_count
        };
        self.r_hat.resize_zeroed(m, m);
        for (e, v) in self.r_hat.as_mut_slice().iter_mut().enumerate() {
            *v = mean(&self.innov_outer, e) - mean(&self.prior_cov, e);
        }
        for i in 0..m {
            let d = self.r_hat.get(i, i).max(self.config.r_floor);
            self.r_hat.set(i, i, d);
        }
        self.r_hat.symmetrize_mut();
        // Only adopt estimates that are positive definite; otherwise keep
        // the current R (a window straddling a regime change can go
        // indefinite transiently).
        if self.r_chol.refactor(&self.r_hat).is_ok() {
            let _ = self.inner.set_measurement_noise(&self.r_hat);
        }
    }

    fn adapt_q(&mut self, m: usize) {
        let mean_nis = self.mean_nis() / m as f64;
        let (lo, hi) = self.config.nis_band;
        let (smin, smax) = self.config.q_scale_bounds;
        let mut new_scale = self.q_scale;
        if mean_nis > hi {
            new_scale = (self.q_scale * self.config.q_step).min(smax);
        } else if mean_nis < lo {
            new_scale = (self.q_scale / self.config.q_step).max(smin);
        }
        if new_scale != self.q_scale {
            self.q_scale = new_scale;
            // Rescale from the *base* Q so floating error never compounds;
            // the live (possibly adapted) R stays.
            let _ = self
                .inner
                .set_process_noise(&self.base_q.scaled(self.q_scale));
            // Every estimation window now spans two different models, so
            // all of them restart: an R estimate computed from mixed-model
            // innovations is biased (it oscillates wildly in practice), and
            // a stale NIS window would immediately re-trigger scaling.
            self.nis.clear();
            self.innov_outer.clear();
            self.prior_cov.clear();
        }
    }
}

/// Appends one update's `width` values to a flat window of at most `cap`
/// updates. The oldest update goes first, so the ring never holds more
/// than `cap · width` values and its storage stops growing at that size.
fn push_window(
    w: &mut VecDeque<f64>,
    values: impl IntoIterator<Item = f64>,
    width: usize,
    cap: usize,
) {
    if cap == 0 {
        return;
    }
    if w.len() / width >= cap {
        w.drain(..width);
    }
    w.extend(values);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn gaussian(rng: &mut SmallRng) -> f64 {
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    fn adaptive_walk(r0: f64, config: AdaptiveConfig) -> AdaptiveKalmanFilter {
        let model = models::random_walk(0.01, r0);
        let kf = KalmanFilter::new(model, Vector::zeros(1), 1.0).unwrap();
        AdaptiveKalmanFilter::new(kf, config)
    }

    #[test]
    fn r_estimate_converges_to_true_noise() {
        // Model claims R = 0.01 but the stream has measurement noise var 1.0.
        let mut akf = adaptive_walk(
            0.01,
            AdaptiveConfig {
                adapt_q: false,
                ..Default::default()
            },
        );
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..2000 {
            let z = Vector::from_slice(&[gaussian(&mut rng)]);
            akf.step(&z).unwrap();
        }
        let r = akf.estimated_r().get(0, 0);
        assert!(r > 0.5 && r < 2.0, "estimated R = {r}, want ≈ 1.0");
    }

    #[test]
    fn r_estimate_stays_put_when_model_is_right() {
        let mut akf = adaptive_walk(
            1.0,
            AdaptiveConfig {
                adapt_q: false,
                ..Default::default()
            },
        );
        let mut rng = SmallRng::seed_from_u64(43);
        for _ in 0..2000 {
            let z = Vector::from_slice(&[gaussian(&mut rng)]);
            akf.step(&z).unwrap();
        }
        let r = akf.estimated_r().get(0, 0);
        assert!(r > 0.6 && r < 1.6, "estimated R = {r}, want ≈ 1.0");
    }

    #[test]
    fn q_scales_up_under_model_mismatch() {
        // Stream is a fast ramp but the model expects a nearly-static walk
        // with tiny Q: NIS explodes, the adapter should inflate Q.
        let config = AdaptiveConfig {
            adapt_r: false,
            window: 16,
            ..Default::default()
        };
        let model = models::random_walk(1e-8, 0.01);
        let kf = KalmanFilter::new(model, Vector::zeros(1), 0.01).unwrap();
        let mut akf = AdaptiveKalmanFilter::new(kf, config);
        for t in 0..400 {
            let z = Vector::from_slice(&[t as f64 * 0.5]);
            akf.step(&z).unwrap();
        }
        assert!(akf.q_scale() > 10.0, "q_scale = {}", akf.q_scale());
    }

    #[test]
    fn q_scale_respects_bounds() {
        let config = AdaptiveConfig {
            adapt_r: false,
            window: 8,
            q_scale_bounds: (0.1, 10.0),
            ..Default::default()
        };
        let model = models::random_walk(1e-8, 0.01);
        let kf = KalmanFilter::new(model, Vector::zeros(1), 0.01).unwrap();
        let mut akf = AdaptiveKalmanFilter::new(kf, config);
        for t in 0..2000 {
            let z = Vector::from_slice(&[t as f64]);
            akf.step(&z).unwrap();
        }
        assert!(akf.q_scale() <= 10.0);
    }

    #[test]
    fn adaptation_is_deterministic_under_clone() {
        let mut a = adaptive_walk(0.05, AdaptiveConfig::default());
        let mut b = a.clone();
        let mut rng = SmallRng::seed_from_u64(44);
        for _ in 0..500 {
            let z = Vector::from_slice(&[gaussian(&mut rng) * 3.0]);
            a.step(&z).unwrap();
            b.step(&z).unwrap();
        }
        assert_eq!(a.inner().state(), b.inner().state());
        assert_eq!(a.q_scale(), b.q_scale());
        assert_eq!(a.estimated_r(), b.estimated_r());
    }

    #[test]
    fn mean_nis_empty_is_zero() {
        let akf = adaptive_walk(1.0, AdaptiveConfig::default());
        assert_eq!(akf.mean_nis(), 0.0);
    }

    #[test]
    fn window_is_bounded() {
        // Two measured components: the matrix windows hold m·m = 4 values
        // per update and the NIS window one, so updates are counted by the
        // NIS window's length.
        let model = crate::StateModel::new(
            "walk2",
            Matrix::identity(2),
            Matrix::scalar(2, 0.01),
            Matrix::identity(2),
            Matrix::scalar(2, 1.0),
        )
        .unwrap();
        let kf = KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap();
        let config = AdaptiveConfig {
            window: 4,
            ..Default::default()
        };
        let mut akf = AdaptiveKalmanFilter::new(kf, config);
        for t in 0..50 {
            let v = t as f64 * 0.01;
            akf.step(&Vector::from_slice(&[v, -v])).unwrap();
            let updates = akf.nis.len();
            assert!(updates <= 4);
            assert_eq!(akf.innov_outer.len(), 4 * updates);
            assert_eq!(akf.prior_cov.len(), 4 * updates);
        }
        // Dropping before appending keeps the storage from doubling past
        // the window size (16 and 4 values here).
        assert!(akf.innov_outer.capacity() < 32);
        assert!(akf.nis.capacity() < 8);
    }
}
