//! Linear time-invariant state-space model description.

use std::sync::Arc;

use kalstream_linalg::Matrix;

use crate::{FilterError, Result};

/// A discrete linear-Gaussian state-space model:
///
/// ```text
/// x_{t+1} = F x_t + w_t,   w_t ~ N(0, Q)
/// z_t     = H x_t + v_t,   v_t ~ N(0, R)
/// ```
///
/// `StateModel`'s shapes are fixed at validation. Callers derive variants
/// through [`StateModel::with_process_noise`] /
/// [`StateModel::with_measurement_noise`], producing a new validated model;
/// the adaptive layer instead overwrites `Q`/`R` in place through
/// crate-private setters that re-check the shape.
/// The dual-filter protocol serialises models in sync messages, so the type
/// derives `serde` traits behind the default feature.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StateModel {
    /// Human-readable model name (used by the model bank and experiment
    /// logs). `Arc<str>` so model clones (sync messages, shadows) share the
    /// name instead of reallocating it.
    name: Arc<str>,
    /// State-transition matrix `F` (`n × n`).
    f: Matrix,
    /// Process-noise covariance `Q` (`n × n`).
    q: Matrix,
    /// Observation matrix `H` (`m × n`).
    h: Matrix,
    /// Measurement-noise covariance `R` (`m × m`).
    r: Matrix,
}

impl StateModel {
    /// Validates shapes and builds a model.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] naming the offending matrix when any shape
    /// is inconsistent with `F`'s state dimension.
    pub fn new(
        name: impl Into<Arc<str>>,
        f: Matrix,
        q: Matrix,
        h: Matrix,
        r: Matrix,
    ) -> Result<Self> {
        let n = f.rows();
        if f.cols() != n {
            return Err(FilterError::BadModel {
                what: "F",
                expected: (n, n),
                actual: f.shape(),
            });
        }
        if q.shape() != (n, n) {
            return Err(FilterError::BadModel {
                what: "Q",
                expected: (n, n),
                actual: q.shape(),
            });
        }
        let m = h.rows();
        if h.cols() != n {
            return Err(FilterError::BadModel {
                what: "H",
                expected: (m, n),
                actual: h.shape(),
            });
        }
        if r.shape() != (m, m) {
            return Err(FilterError::BadModel {
                what: "R",
                expected: (m, m),
                actual: r.shape(),
            });
        }
        Ok(StateModel {
            name: name.into(),
            f,
            q,
            h,
            r,
        })
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// State dimension `n`.
    pub fn state_dim(&self) -> usize {
        self.f.rows()
    }

    /// Measurement dimension `m`.
    pub fn measurement_dim(&self) -> usize {
        self.h.rows()
    }

    /// State-transition matrix `F`.
    pub fn f(&self) -> &Matrix {
        &self.f
    }

    /// Process-noise covariance `Q`.
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// Observation matrix `H`.
    pub fn h(&self) -> &Matrix {
        &self.h
    }

    /// Measurement-noise covariance `R`.
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Returns a copy of this model with a different process-noise
    /// covariance (used by NIS-driven `Q` adaptation).
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when `q`'s shape differs from `n × n`.
    pub fn with_process_noise(&self, q: Matrix) -> Result<Self> {
        StateModel::new(
            self.name.clone(),
            self.f.clone(),
            q,
            self.h.clone(),
            self.r.clone(),
        )
    }

    /// Returns a copy of this model with a different measurement-noise
    /// covariance (used by innovation-based `R` estimation).
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when `r`'s shape differs from `m × m`.
    pub fn with_measurement_noise(&self, r: Matrix) -> Result<Self> {
        StateModel::new(
            self.name.clone(),
            self.f.clone(),
            self.q.clone(),
            self.h.clone(),
            r,
        )
    }

    /// Overwrites `Q` in place with a copy of `q` (the adaptive layer's
    /// rescale, without rebuilding the model).
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when `q`'s shape differs from `n × n`; the
    /// model is left unchanged.
    pub(crate) fn set_process_noise(&mut self, q: &Matrix) -> Result<()> {
        let n = self.state_dim();
        if q.shape() != (n, n) {
            return Err(FilterError::BadModel {
                what: "Q",
                expected: (n, n),
                actual: q.shape(),
            });
        }
        self.q.copy_from(q);
        Ok(())
    }

    /// Overwrites `R` in place with a copy of `r` (the adaptive layer's
    /// re-estimate, without rebuilding the model).
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when `r`'s shape differs from `m × m`; the
    /// model is left unchanged.
    pub(crate) fn set_measurement_noise(&mut self, r: &Matrix) -> Result<()> {
        let m = self.measurement_dim();
        if r.shape() != (m, m) {
            return Err(FilterError::BadModel {
                what: "R",
                expected: (m, m),
                actual: r.shape(),
            });
        }
        self.r.copy_from(r);
        Ok(())
    }

    /// Returns a copy with the process noise scaled by `factor` (> 0).
    ///
    /// # Errors
    /// Propagates validation errors (none expected for positive factors).
    pub fn with_scaled_q(&self, factor: f64) -> Result<Self> {
        self.with_process_noise(self.q.scaled(factor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use kalstream_linalg::Matrix;

    fn valid_parts() -> (Matrix, Matrix, Matrix, Matrix) {
        (
            Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]),
            Matrix::scalar(2, 0.01),
            Matrix::from_rows(&[&[1.0, 0.0]]),
            Matrix::scalar(1, 0.5),
        )
    }

    #[test]
    fn accepts_consistent_shapes() {
        let (f, q, h, r) = valid_parts();
        let m = StateModel::new("cv", f, q, h, r).unwrap();
        assert_eq!(m.state_dim(), 2);
        assert_eq!(m.measurement_dim(), 1);
        assert_eq!(m.name(), "cv");
    }

    #[test]
    fn rejects_nonsquare_f() {
        let (_, q, h, r) = valid_parts();
        let f = Matrix::zeros(2, 3);
        let err = StateModel::new("x", f, q, h, r).unwrap_err();
        assert!(matches!(err, FilterError::BadModel { what: "F", .. }));
    }

    #[test]
    fn rejects_wrong_q() {
        let (f, _, h, r) = valid_parts();
        let err = StateModel::new("x", f, Matrix::scalar(3, 1.0), h, r).unwrap_err();
        assert!(matches!(err, FilterError::BadModel { what: "Q", .. }));
    }

    #[test]
    fn rejects_wrong_h_cols() {
        let (f, q, _, r) = valid_parts();
        let err = StateModel::new("x", f, q, Matrix::zeros(1, 3), r).unwrap_err();
        assert!(matches!(err, FilterError::BadModel { what: "H", .. }));
    }

    #[test]
    fn rejects_wrong_r() {
        let (f, q, h, _) = valid_parts();
        let err = StateModel::new("x", f, q, h, Matrix::scalar(2, 1.0)).unwrap_err();
        assert!(matches!(err, FilterError::BadModel { what: "R", .. }));
    }

    #[test]
    fn noise_replacement_validates() {
        let (f, q, h, r) = valid_parts();
        let m = StateModel::new("cv", f, q, h, r).unwrap();
        let m2 = m.with_measurement_noise(Matrix::scalar(1, 2.0)).unwrap();
        assert_eq!(m2.r().get(0, 0), 2.0);
        assert!(m.with_measurement_noise(Matrix::scalar(2, 2.0)).is_err());
        let m3 = m.with_scaled_q(10.0).unwrap();
        assert!((m3.q().get(0, 0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn in_place_noise_setters_check_shape_and_match_rebuilds() {
        let (f, q, h, r) = valid_parts();
        let mut m = StateModel::new("cv", f, q, h, r).unwrap();
        let r2 = Matrix::scalar(1, 2.0);
        let rebuilt = m.with_measurement_noise(r2.clone()).unwrap();
        m.set_measurement_noise(&r2).unwrap();
        assert_eq!(m, rebuilt);
        let q2 = m.q().scaled(3.0);
        let rebuilt = m.with_process_noise(q2.clone()).unwrap();
        m.set_process_noise(&q2).unwrap();
        assert_eq!(m, rebuilt);
        let before = m.clone();
        let err = m
            .set_measurement_noise(&Matrix::scalar(2, 1.0))
            .unwrap_err();
        assert!(matches!(err, FilterError::BadModel { what: "R", .. }));
        let err = m.set_process_noise(&Matrix::scalar(1, 1.0)).unwrap_err();
        assert!(matches!(err, FilterError::BadModel { what: "Q", .. }));
        assert_eq!(m, before);
    }
}
