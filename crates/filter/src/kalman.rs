//! The discrete linear Kalman filter.

use std::fmt;

use kalstream_linalg::{Cholesky, Matrix, Vector};

use crate::{FilterError, Result, StateModel};

/// Reusable working storage for the filter hot path.
///
/// `predict`/`update` write every intermediate (innovation, gain, Joseph
/// terms, Cholesky factor, …) into these buffers through the `*_into`
/// kernels of `kalstream-linalg`, so a steady-state filter tick performs
/// **zero heap allocations** and no redundant zero-fills. Each
/// [`KalmanFilter`] owns one; the buffers are pure scratch — every field is
/// fully overwritten before it is read, so scratch contents never influence
/// results (cloning a filter resets its scratch to empty for exactly that
/// reason).
pub struct KalmanScratch {
    /// Predicted state `F x`.
    pub(crate) xt: Vector,
    /// Shared intermediate for sandwich products (`F P`, `(I−KH) P`, `K R`).
    pub(crate) tmp: Matrix,
    /// Predicted covariance / left Joseph term.
    pub(crate) pt: Matrix,
    /// Predicted measurement `H x`.
    pub(crate) predicted: Vector,
    /// Innovation `ν = z − H x`.
    pub(crate) innovation: Vector,
    /// Innovation covariance `S`.
    pub(crate) s: Matrix,
    /// Reused Cholesky factorisation of `S`.
    pub(crate) chol: Cholesky,
    /// `H P`.
    pub(crate) hp: Matrix,
    /// `S⁻¹ H P`.
    pub(crate) s_inv_hp: Matrix,
    /// Gain `K`.
    pub(crate) k: Matrix,
    /// State correction `K ν`.
    pub(crate) correction: Vector,
    /// `K H`.
    pub(crate) kh: Matrix,
    /// `I − K H`.
    pub(crate) i_kh: Matrix,
    /// Joseph term `K R Kᵀ`.
    pub(crate) krk: Matrix,
    /// Column scratch for matrix solves.
    pub(crate) col: Vector,
    /// `S⁻¹ ν` for the NIS diagnostic.
    pub(crate) s_inv_nu: Vector,
}

impl KalmanScratch {
    /// Creates empty scratch; buffers grow (inline, stack-backed at Kalman
    /// sizes) on first use.
    pub fn new() -> Self {
        KalmanScratch {
            xt: Vector::zeros(0),
            tmp: Matrix::zeros(0, 0),
            pt: Matrix::zeros(0, 0),
            predicted: Vector::zeros(0),
            innovation: Vector::zeros(0),
            s: Matrix::zeros(0, 0),
            chol: Cholesky::empty(),
            hp: Matrix::zeros(0, 0),
            s_inv_hp: Matrix::zeros(0, 0),
            k: Matrix::zeros(0, 0),
            correction: Vector::zeros(0),
            kh: Matrix::zeros(0, 0),
            i_kh: Matrix::zeros(0, 0),
            krk: Matrix::zeros(0, 0),
            col: Vector::zeros(0),
            s_inv_nu: Vector::zeros(0),
        }
    }
}

impl Default for KalmanScratch {
    fn default() -> Self {
        KalmanScratch::new()
    }
}

impl Clone for KalmanScratch {
    /// Scratch contents never affect results, so a clone starts empty
    /// instead of copying stale buffers.
    fn clone(&self) -> Self {
        KalmanScratch::new()
    }
}

impl fmt::Debug for KalmanScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("KalmanScratch { .. }")
    }
}

/// Covariance-update formula used by [`KalmanFilter::update`].
///
/// The *Joseph form* `P = (I-KH) P (I-KH)ᵀ + K R Kᵀ` is algebraically equal
/// to the *simple form* `P = (I-KH) P` but preserves symmetry and positive
/// definiteness under rounding. The simple form exists for the ablation bench
/// (`abl_joseph`): on long suppressed runs it slowly drifts asymmetric and
/// eventually breaks Cholesky.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum CovarianceUpdate {
    /// Numerically robust Joseph-stabilised update (the default).
    Joseph,
    /// Textbook `(I - K H) P` update; cheaper, numerically fragile.
    Simple,
}

/// Result of a measurement update, exposing the diagnostics that the
/// adaptive layer and the model bank consume.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// Innovation `ν = z − H x⁻` (measurement-space prediction error).
    pub innovation: Vector,
    /// Innovation covariance `S = H P⁻ Hᵀ + R`.
    pub innovation_cov: Matrix,
    /// Normalised innovation squared `νᵀ S⁻¹ ν` — chi-square distributed
    /// with `m` degrees of freedom when the model is consistent.
    pub nis: f64,
    /// Gaussian log-likelihood of the measurement under the predictive
    /// distribution `N(Hx⁻, S)` — the model bank's scoring signal.
    pub log_likelihood: f64,
}

/// The discrete linear Kalman filter over a [`StateModel`].
///
/// The filter is `Clone` and bit-deterministic: the stream-source side of the
/// suppression protocol clones the server's filter and replays the exact same
/// operations to know precisely what the server believes. Any hidden state or
/// platform-dependent arithmetic here would silently break the precision
/// guarantee, so the implementation is plain `f64` over `kalstream-linalg`.
#[derive(Debug, Clone)]
pub struct KalmanFilter {
    model: StateModel,
    /// Current state estimate `x`.
    x: Vector,
    /// Current estimate covariance `P`.
    p: Matrix,
    /// Covariance-update formula.
    cov_update: CovarianceUpdate,
    /// Number of predict steps since the last measurement update; the
    /// suppression protocol reads this as "cache age".
    steps_since_update: u64,
    /// Reusable hot-path buffers (see [`KalmanScratch`]).
    scratch: KalmanScratch,
}

impl KalmanFilter {
    /// Creates a filter with state `x0` and isotropic initial covariance
    /// `p0 · I`.
    ///
    /// # Errors
    /// [`FilterError::BadMeasurement`] is never returned here;
    /// [`FilterError::BadModel`] when `x0`'s dimension disagrees with the
    /// model's state dimension.
    pub fn new(model: StateModel, x0: Vector, p0: f64) -> Result<Self> {
        let n = model.state_dim();
        let p = Matrix::scalar(n, p0);
        KalmanFilter::with_covariance(model, x0, p)
    }

    /// Creates a filter with an explicit initial covariance.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when `x0` or `p0` shapes disagree with the
    /// model.
    pub fn with_covariance(model: StateModel, x0: Vector, p0: Matrix) -> Result<Self> {
        let n = model.state_dim();
        let m = model.measurement_dim();
        // Refuse dimensions past the inline-storage cap instead of silently
        // heap-falling-back on every hot-path temporary (DESIGN.md caps the
        // workspace at n ≤ 8; the `linalg.heap_fallbacks` counter guards the
        // invariant at runtime).
        if n > kalstream_linalg::VECTOR_INLINE_CAP {
            return Err(FilterError::DimensionTooLarge {
                what: "state",
                dim: n,
                cap: kalstream_linalg::VECTOR_INLINE_CAP,
            });
        }
        if m > kalstream_linalg::VECTOR_INLINE_CAP {
            return Err(FilterError::DimensionTooLarge {
                what: "measurement",
                dim: m,
                cap: kalstream_linalg::VECTOR_INLINE_CAP,
            });
        }
        if x0.dim() != n {
            return Err(FilterError::BadModel {
                what: "x0",
                expected: (n, 1),
                actual: (x0.dim(), 1),
            });
        }
        if p0.shape() != (n, n) {
            return Err(FilterError::BadModel {
                what: "P0",
                expected: (n, n),
                actual: p0.shape(),
            });
        }
        Ok(KalmanFilter {
            model,
            x: x0,
            p: p0,
            cov_update: CovarianceUpdate::Joseph,
            steps_since_update: 0,
            scratch: KalmanScratch::new(),
        })
    }

    /// Selects the covariance-update formula (default: Joseph).
    pub fn set_covariance_update(&mut self, cu: CovarianceUpdate) {
        self.cov_update = cu;
    }

    /// The covariance-update formula currently in effect. The batch
    /// dispatcher reads this: only Joseph-form filters (the default) may be
    /// routed to the [`crate::FleetBatch`] path, which implements Joseph only.
    pub fn covariance_update(&self) -> CovarianceUpdate {
        self.cov_update
    }

    /// The model currently driving the filter.
    pub fn model(&self) -> &StateModel {
        &self.model
    }

    /// Replaces the model, keeping state and covariance.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when the new model's state dimension
    /// differs from the current state.
    pub fn set_model(&mut self, model: StateModel) -> Result<()> {
        if model.state_dim() != self.x.dim() {
            return Err(FilterError::BadModel {
                what: "F",
                expected: (self.x.dim(), self.x.dim()),
                actual: (model.state_dim(), model.state_dim()),
            });
        }
        self.model = model;
        Ok(())
    }

    /// Overwrites the model's `Q` in place (adaptive rescaling).
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when `q` is not `n × n`.
    pub(crate) fn set_process_noise(&mut self, q: &Matrix) -> Result<()> {
        self.model.set_process_noise(q)
    }

    /// Overwrites the model's `R` in place (adaptive re-estimation).
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when `r` is not `m × m`.
    pub(crate) fn set_measurement_noise(&mut self, r: &Matrix) -> Result<()> {
        self.model.set_measurement_noise(r)
    }

    /// Current state estimate.
    pub fn state(&self) -> &Vector {
        &self.x
    }

    /// Current estimate covariance.
    pub fn covariance(&self) -> &Matrix {
        &self.p
    }

    /// Predict steps executed since the last measurement update.
    pub fn steps_since_update(&self) -> u64 {
        self.steps_since_update
    }

    /// Overwrites state and covariance — the resynchronisation primitive of
    /// the suppression protocol (server applies the corrected state shipped
    /// by the source).
    ///
    /// # Errors
    /// [`FilterError::BadModel`] on shape mismatch.
    pub fn set_state(&mut self, x: Vector, p: Matrix) -> Result<()> {
        let n = self.model.state_dim();
        if x.dim() != n {
            return Err(FilterError::BadModel {
                what: "x0",
                expected: (n, 1),
                actual: (x.dim(), 1),
            });
        }
        if p.shape() != (n, n) {
            return Err(FilterError::BadModel {
                what: "P0",
                expected: (n, n),
                actual: p.shape(),
            });
        }
        self.x = x;
        self.p = p;
        self.steps_since_update = 0;
        Ok(())
    }

    /// Overwrites state, covariance **and** the staleness counter — the
    /// handoff primitive for moving a stream between the scalar and batch
    /// stepping paths. Unlike [`KalmanFilter::set_state`] (a protocol
    /// resynchronisation, which legitimately resets cache age to zero), a
    /// path handoff must not pretend a measurement arrived, so the batch
    /// lane's `steps_since_update` is carried across verbatim.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] on shape mismatch.
    pub fn restore(&mut self, x: Vector, p: Matrix, steps_since_update: u64) -> Result<()> {
        self.set_state(x, p)?;
        self.steps_since_update = steps_since_update;
        Ok(())
    }

    /// Time update: `x ← F x`, `P ← F P Fᵀ + Q`.
    ///
    /// Runs entirely through the scratch buffers — no allocation, and
    /// bit-identical to the textbook allocating formulation (the `*_into`
    /// kernels guarantee identical operation order).
    ///
    /// # Errors
    /// [`FilterError::Diverged`] when the state or covariance leaves finite
    /// range.
    pub fn predict(&mut self) -> Result<()> {
        let sc = &mut self.scratch;
        let f = self.model.f();
        // x ← F x.
        f.mul_vec_into(&self.x, &mut sc.xt)?;
        self.x.copy_from(&sc.xt);
        // P ← F P Fᵀ + Q.
        f.sandwich_into(&self.p, &mut sc.tmp, &mut sc.pt)?;
        self.p.copy_from(&sc.pt);
        self.p += self.model.q();
        self.p.symmetrize_mut();
        self.steps_since_update += 1;
        self.check_finite()
    }

    /// The measurement the filter expects right now: `ẑ = H x`.
    ///
    /// The suppression protocol compares this against the true measurement to
    /// decide whether the server's picture is still within the precision
    /// bound.
    pub fn predicted_measurement(&self) -> Vector {
        self.model
            .h()
            .mul_vec(&self.x)
            .expect("validated model: H·x is always well-shaped")
    }

    /// Predictive measurement covariance `S = H P Hᵀ + R`.
    pub fn predicted_measurement_cov(&self) -> Matrix {
        let mut s = &self
            .model
            .h()
            .sandwich(&self.p)
            .expect("validated model: H·P·Hᵀ is always well-shaped")
            + self.model.r();
        s.symmetrize_mut();
        s
    }

    /// Diagonal entry `(i, i)` of [`KalmanFilter::predicted_measurement_cov`],
    /// bit-identical to it, without building `S`: row `i` of `H P` and its
    /// product with row `i` of `H` run in `sandwich`'s operation order
    /// (same accumulation order, same zero skip), then `+ R(i, i)`.
    ///
    /// # Panics
    /// When `i` is not below the measurement dimension.
    pub fn predicted_measurement_var(&self, i: usize) -> f64 {
        let h = self.model.h().row(i);
        // n ≤ VECTOR_INLINE_CAP is enforced at construction.
        let mut hp = [0.0; kalstream_linalg::VECTOR_INLINE_CAP];
        let hp = &mut hp[..h.len()];
        for (k, &a) in h.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, b) in hp.iter_mut().zip(self.p.row(k)) {
                *o += a * b;
            }
        }
        let mut hph = 0.0;
        for (&a, &b) in hp.iter().zip(h) {
            if a == 0.0 {
                continue;
            }
            hph += a * b;
        }
        hph + self.model.r().get(i, i)
    }

    /// Measurement update with observation `z`.
    ///
    /// Uses the innovation form with a Cholesky solve of
    /// `S = H P Hᵀ + R` (never an explicit inverse) and the covariance
    /// formula selected by [`KalmanFilter::set_covariance_update`].
    ///
    /// # Errors
    /// * [`FilterError::BadMeasurement`] on dimension mismatch.
    /// * [`FilterError::Linalg`] when `S` is not positive definite.
    /// * [`FilterError::Diverged`] when the posterior is non-finite.
    pub fn update(&mut self, z: &Vector) -> Result<UpdateOutcome> {
        let m = self.model.measurement_dim();
        if z.dim() != m {
            return Err(FilterError::BadMeasurement {
                expected: m,
                actual: z.dim(),
            });
        }
        let sc = &mut self.scratch;
        let h = self.model.h();
        // Innovation ν = z − H x.
        h.mul_vec_into(&self.x, &mut sc.predicted)?;
        sc.innovation.copy_from(z);
        sc.innovation -= &sc.predicted;
        // S = H P Hᵀ + R.
        h.sandwich_into(&self.p, &mut sc.tmp, &mut sc.s)?;
        sc.s += self.model.r();
        sc.s.symmetrize_mut();
        sc.chol.refactor(&sc.s)?;
        // Gain K = P Hᵀ S⁻¹, computed as (S⁻¹ H P)ᵀ via solves.
        h.matmul_into(&self.p, &mut sc.hp)?; // m × n
        sc.chol
            .solve_mat_into(&sc.hp, &mut sc.col, &mut sc.s_inv_hp)?; // m × n
        sc.s_inv_hp.transpose_into(&mut sc.k); // n × m
                                               // State: x ← x + K ν.
        sc.k.mul_vec_into(&sc.innovation, &mut sc.correction)?;
        self.x += &sc.correction;
        // Covariance.
        let n = self.model.state_dim();
        sc.k.matmul_into(h, &mut sc.kh)?;
        sc.i_kh.resize_identity(n);
        sc.i_kh -= &sc.kh;
        match self.cov_update {
            CovarianceUpdate::Joseph => {
                sc.i_kh.sandwich_into(&self.p, &mut sc.tmp, &mut sc.pt)?;
                sc.k.matmul_into(self.model.r(), &mut sc.tmp)?;
                sc.tmp.matmul_transpose_into(&sc.k, &mut sc.krk)?;
                self.p.copy_from(&sc.pt);
                self.p += &sc.krk;
            }
            CovarianceUpdate::Simple => {
                sc.i_kh.matmul_into(&self.p, &mut sc.pt)?;
                self.p.copy_from(&sc.pt);
            }
        }
        self.p.symmetrize_mut();
        self.steps_since_update = 0;
        self.check_finite()?;

        // Diagnostics: NIS = νᵀ S⁻¹ ν and Gaussian log-likelihood.
        let sc = &mut self.scratch;
        sc.chol.solve_vec_into(&sc.innovation, &mut sc.s_inv_nu)?;
        let nis = sc.innovation.dot(&sc.s_inv_nu)?;
        let log_likelihood =
            -0.5 * (nis + sc.chol.log_det() + (m as f64) * core::f64::consts::TAU.ln());
        Ok(UpdateOutcome {
            innovation: sc.innovation.clone(),
            innovation_cov: sc.s.clone(),
            nis,
            log_likelihood,
        })
    }

    /// Convenience: one predict followed by one update.
    ///
    /// # Errors
    /// Propagates errors from [`KalmanFilter::predict`] and
    /// [`KalmanFilter::update`].
    pub fn step(&mut self, z: &Vector) -> Result<UpdateOutcome> {
        self.predict()?;
        self.update(z)
    }

    /// Non-destructively predicts the measurement `k` steps ahead of the
    /// current state (without noise): returns `H Fᵏ x`.
    ///
    /// # Errors
    /// Propagates shape errors (none expected for a validated model).
    pub fn forecast_measurement(&self, k: u64) -> Result<Vector> {
        let mut x = self.x.clone();
        for _ in 0..k {
            x = self.model.f().mul_vec(&x)?;
        }
        Ok(self.model.h().mul_vec(&x)?)
    }

    fn check_finite(&self) -> Result<()> {
        if !self.x.is_finite() {
            return Err(FilterError::Diverged { what: "state" });
        }
        if !self.p.is_finite() {
            return Err(FilterError::Diverged { what: "covariance" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    fn scalar_walk_filter() -> KalmanFilter {
        let model = models::random_walk(0.01, 0.25);
        KalmanFilter::new(model, Vector::from_slice(&[0.0]), 1.0).unwrap()
    }

    #[test]
    fn construction_validates_shapes() {
        let model = models::random_walk(0.01, 0.25);
        assert!(KalmanFilter::new(model.clone(), Vector::zeros(2), 1.0).is_err());
        assert!(
            KalmanFilter::with_covariance(model, Vector::zeros(1), Matrix::zeros(2, 2)).is_err()
        );
    }

    #[test]
    fn predict_grows_uncertainty() {
        let mut kf = scalar_walk_filter();
        let p0 = kf.covariance().get(0, 0);
        kf.predict().unwrap();
        assert!(kf.covariance().get(0, 0) > p0);
        assert_eq!(kf.steps_since_update(), 1);
    }

    #[test]
    fn update_shrinks_uncertainty_and_moves_state() {
        let mut kf = scalar_walk_filter();
        kf.predict().unwrap();
        let p_prior = kf.covariance().get(0, 0);
        let out = kf.update(&Vector::from_slice(&[2.0])).unwrap();
        assert!(kf.covariance().get(0, 0) < p_prior);
        assert!(kf.state()[0] > 0.0 && kf.state()[0] < 2.0);
        assert_eq!(out.innovation.dim(), 1);
        assert!(out.nis > 0.0);
        assert_eq!(kf.steps_since_update(), 0);
    }

    #[test]
    fn converges_to_constant_signal() {
        let mut kf = scalar_walk_filter();
        for _ in 0..200 {
            kf.step(&Vector::from_slice(&[5.0])).unwrap();
        }
        assert!((kf.state()[0] - 5.0).abs() < 1e-3);
    }

    #[test]
    fn tracks_linear_trend_with_cv_model() {
        let model = models::constant_velocity(1.0, 1e-4, 0.01);
        let mut kf = KalmanFilter::new(model, Vector::zeros(2), 10.0).unwrap();
        for t in 0..300 {
            let z = 0.5 * t as f64;
            kf.step(&Vector::from_slice(&[z])).unwrap();
        }
        // velocity component should be ≈ 0.5
        assert!(
            (kf.state()[1] - 0.5).abs() < 0.01,
            "velocity {}",
            kf.state()[1]
        );
    }

    #[test]
    fn joseph_and_simple_agree_numerically_short_run() {
        let model = models::constant_velocity(1.0, 0.01, 0.5);
        let mut a = KalmanFilter::new(model.clone(), Vector::zeros(2), 1.0).unwrap();
        let mut b = KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap();
        b.set_covariance_update(CovarianceUpdate::Simple);
        for t in 0..50 {
            let z = Vector::from_slice(&[(t as f64 * 0.1).sin()]);
            a.step(&z).unwrap();
            b.step(&z).unwrap();
        }
        assert!(a.state().max_abs_diff(b.state()) < 1e-9);
        assert!(a.covariance().max_abs_diff(b.covariance()) < 1e-9);
    }

    #[test]
    fn update_rejects_wrong_dimension() {
        let mut kf = scalar_walk_filter();
        kf.predict().unwrap();
        let err = kf.update(&Vector::zeros(2)).unwrap_err();
        assert!(matches!(
            err,
            FilterError::BadMeasurement {
                expected: 1,
                actual: 2
            }
        ));
    }

    #[test]
    fn set_state_resets_cache_age() {
        let mut kf = scalar_walk_filter();
        kf.predict().unwrap();
        kf.predict().unwrap();
        assert_eq!(kf.steps_since_update(), 2);
        kf.set_state(Vector::from_slice(&[1.0]), Matrix::scalar(1, 0.5))
            .unwrap();
        assert_eq!(kf.steps_since_update(), 0);
        assert_eq!(kf.state()[0], 1.0);
        assert!(kf
            .set_state(Vector::zeros(2), Matrix::scalar(1, 1.0))
            .is_err());
        assert!(kf
            .set_state(Vector::zeros(1), Matrix::scalar(2, 1.0))
            .is_err());
    }

    #[test]
    fn construction_rejects_over_cap_dimensions() {
        use kalstream_linalg::VECTOR_INLINE_CAP;
        let n = VECTOR_INLINE_CAP + 1;
        // n-state random walk observed in full: both dims over cap.
        let model = StateModel::new(
            "over-cap",
            Matrix::identity(n),
            Matrix::scalar(n, 0.01),
            Matrix::identity(n),
            Matrix::scalar(n, 0.25),
        )
        .unwrap();
        let err = KalmanFilter::new(model, Vector::zeros(n), 1.0).unwrap_err();
        assert_eq!(
            err,
            FilterError::DimensionTooLarge {
                what: "state",
                dim: n,
                cap: VECTOR_INLINE_CAP
            }
        );
        // In-cap state, over-cap measurement.
        let model = StateModel::new(
            "wide-measurement",
            Matrix::identity(2),
            Matrix::scalar(2, 0.01),
            Matrix::zeros(n, 2),
            Matrix::scalar(n, 0.25),
        )
        .unwrap();
        let err = KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap_err();
        assert_eq!(
            err,
            FilterError::DimensionTooLarge {
                what: "measurement",
                dim: n,
                cap: VECTOR_INLINE_CAP
            }
        );
    }

    #[test]
    fn restore_preserves_staleness() {
        let mut kf = scalar_walk_filter();
        kf.predict().unwrap();
        kf.predict().unwrap();
        kf.predict().unwrap();
        let (x, p, steps) = (
            kf.state().clone(),
            kf.covariance().clone(),
            kf.steps_since_update(),
        );
        let mut other = scalar_walk_filter();
        other.restore(x.clone(), p.clone(), steps).unwrap();
        assert_eq!(other.steps_since_update(), 3);
        assert_eq!(other.state(), &x);
        assert_eq!(other.covariance(), &p);
        assert!(other.restore(Vector::zeros(2), p, 1).is_err());
    }

    #[test]
    fn forecast_measurement_composes_f() {
        let model = models::constant_velocity(1.0, 0.0, 0.01);
        let mut kf = KalmanFilter::new(model, Vector::from_slice(&[1.0, 2.0]), 0.1).unwrap();
        // position 1, velocity 2: after 3 steps position = 7.
        let z = kf.forecast_measurement(3).unwrap();
        assert!((z[0] - 7.0).abs() < 1e-12);
        // forecast(0) equals the current predicted measurement.
        assert_eq!(
            kf.forecast_measurement(0).unwrap(),
            kf.predicted_measurement()
        );
        kf.predict().unwrap();
        assert!((kf.predicted_measurement()[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn clone_replays_identically() {
        // The shadow-filter requirement: a clone fed the same inputs stays
        // bit-identical to the original.
        let mut a = scalar_walk_filter();
        let mut b = a.clone();
        for t in 0..100 {
            let z = Vector::from_slice(&[(t as f64 * 0.3).cos() * 2.0]);
            a.step(&z).unwrap();
            b.step(&z).unwrap();
        }
        assert_eq!(a.state(), b.state());
        assert_eq!(a.covariance(), b.covariance());
    }

    #[test]
    fn nis_is_chi_square_scaled_for_consistent_noise() {
        // Feed Gaussian noise of exactly the modelled variance; average NIS
        // should be near the measurement dimension (1.0 here).
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let model = models::random_walk(1e-6, 1.0);
        let mut kf = KalmanFilter::new(model, Vector::zeros(1), 1.0).unwrap();
        let mut nis_sum = 0.0;
        let trials = 4000;
        for _ in 0..trials {
            // Box–Muller from uniform draws (rand has no Normal sampler here).
            let u1: f64 = rng.random::<f64>().max(1e-12);
            let u2: f64 = rng.random();
            let g = (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos();
            let out = kf.step(&Vector::from_slice(&[g])).unwrap();
            nis_sum += out.nis;
        }
        let mean_nis = nis_sum / trials as f64;
        assert!((mean_nis - 1.0).abs() < 0.15, "mean NIS {mean_nis}");
    }

    #[test]
    fn log_likelihood_prefers_matching_model() {
        // A random-walk stream scored under a random-walk model must beat a
        // wildly wrong (huge-R) model on average log-likelihood.
        let good = models::random_walk(0.01, 0.1);
        let bad = good
            .with_measurement_noise(Matrix::scalar(1, 100.0))
            .unwrap();
        let mut kf_good = KalmanFilter::new(good, Vector::zeros(1), 1.0).unwrap();
        let mut kf_bad = KalmanFilter::new(bad, Vector::zeros(1), 1.0).unwrap();
        let mut ll_good = 0.0;
        let mut ll_bad = 0.0;
        for t in 0..200 {
            let z = Vector::from_slice(&[(t as f64 * 0.01).sin() * 0.1]);
            ll_good += kf_good.step(&z).unwrap().log_likelihood;
            ll_bad += kf_bad.step(&z).unwrap().log_likelihood;
        }
        assert!(ll_good > ll_bad);
    }
}
