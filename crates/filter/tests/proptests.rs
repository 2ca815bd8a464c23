//! Property-based tests over the filter stack: invariants that must hold
//! for *any* well-formed model and measurement sequence, not just the
//! hand-picked unit-test cases.

use kalstream_filter::{
    models, rts_smooth, AdaptiveConfig, AdaptiveKalmanFilter, KalmanFilter, ModelBank,
    NonlinearModel, StateModel, UnscentedKalmanFilter,
};
use kalstream_linalg::{Matrix, Vector};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Strategy: a healthy scalar random-walk-family model.
fn walk_model() -> impl Strategy<Value = StateModel> {
    (1e-4..1.0f64, 1e-4..1.0f64).prop_map(|(q, r)| models::random_walk(q, r))
}

/// Strategy: a healthy constant-velocity model.
fn cv_model() -> impl Strategy<Value = StateModel> {
    (0.1..2.0f64, 1e-4..0.5f64, 1e-3..1.0f64)
        .prop_map(|(dt, q, r)| models::constant_velocity(dt, q, r))
}

/// Strategy: a bounded measurement sequence.
fn measurements(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0..100.0f64, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn covariance_stays_spd_and_symmetric(
        model in cv_model(),
        zs in measurements(60),
    ) {
        let mut kf = KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap();
        for &z in &zs {
            kf.step(&Vector::from_slice(&[z])).unwrap();
            let p = kf.covariance();
            // Symmetric (exact, thanks to re-symmetrisation)…
            for r in 0..2 {
                for c in 0..2 {
                    prop_assert_eq!(p.get(r, c), p.get(c, r));
                }
            }
            // …and positive definite.
            prop_assert!(p.cholesky().is_ok());
        }
    }

    #[test]
    fn update_diagnostics_are_sane(
        model in walk_model(),
        zs in measurements(40),
    ) {
        let mut kf = KalmanFilter::new(model, Vector::zeros(1), 1.0).unwrap();
        for &z in &zs {
            let out = kf.step(&Vector::from_slice(&[z])).unwrap();
            prop_assert!(out.nis >= 0.0, "negative NIS");
            prop_assert!(out.log_likelihood.is_finite());
            prop_assert!(out.innovation_cov.get(0, 0) > 0.0);
        }
    }

    #[test]
    fn update_shrinks_measurement_uncertainty(
        model in cv_model(),
        z in -50.0..50.0f64,
    ) {
        let mut kf = KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap();
        kf.predict().unwrap();
        let before = kf.predicted_measurement_cov().get(0, 0);
        kf.update(&Vector::from_slice(&[z])).unwrap();
        let after = kf.predicted_measurement_cov().get(0, 0);
        prop_assert!(after <= before + 1e-12, "update increased uncertainty: {before} -> {after}");
    }

    #[test]
    fn forecast_equals_repeated_predict(
        model in cv_model(),
        x0 in prop::collection::vec(-10.0..10.0f64, 2),
        k in 0u64..20,
    ) {
        let kf = KalmanFilter::new(model, Vector::from_slice(&x0), 1.0).unwrap();
        let forecast = kf.forecast_measurement(k).unwrap();
        let mut walker = kf;
        for _ in 0..k {
            walker.predict().unwrap();
        }
        prop_assert!((forecast[0] - walker.predicted_measurement()[0]).abs() < 1e-9);
    }

    #[test]
    fn clone_replay_is_bit_identical(
        model in cv_model(),
        zs in measurements(50),
    ) {
        let mut a = KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap();
        let mut b = a.clone();
        for &z in &zs {
            let v = Vector::from_slice(&[z]);
            a.step(&v).unwrap();
            b.step(&v).unwrap();
        }
        prop_assert_eq!(a.state(), b.state());
        prop_assert_eq!(a.covariance(), b.covariance());
    }

    #[test]
    fn adaptive_filter_never_panics_and_stays_finite(
        zs in measurements(120),
        window in 4usize..64,
    ) {
        let kf = KalmanFilter::new(models::random_walk(0.01, 0.1), Vector::zeros(1), 1.0)
            .unwrap();
        let mut akf = AdaptiveKalmanFilter::new(
            kf,
            AdaptiveConfig { window, ..Default::default() },
        );
        for &z in &zs {
            akf.step(&Vector::from_slice(&[z])).unwrap();
            prop_assert!(akf.inner().state().is_finite());
            prop_assert!(akf.q_scale() > 0.0);
            prop_assert!(akf.estimated_r().get(0, 0) > 0.0);
        }
    }

    #[test]
    fn bank_active_model_is_always_valid(
        zs in measurements(80),
    ) {
        let walk =
            KalmanFilter::new(models::random_walk(0.05, 0.1), Vector::zeros(1), 1.0).unwrap();
        let cv = KalmanFilter::new(
            models::constant_velocity(1.0, 0.05, 0.1),
            Vector::zeros(2),
            1.0,
        )
        .unwrap();
        let mut bank =
            ModelBank::new(vec![walk, cv], kalstream_filter::BankConfig::default()).unwrap();
        for &z in &zs {
            bank.step(&Vector::from_slice(&[z])).unwrap();
            prop_assert!(bank.active_index() < bank.len());
            prop_assert!(bank.active().state().is_finite());
        }
    }

    #[test]
    fn smoother_agrees_with_filter_at_the_end(
        model in cv_model(),
        zs in measurements(30),
    ) {
        let z_vecs: Vec<Vector> = zs.iter().map(|&z| Vector::from_slice(&[z])).collect();
        let smoothed = rts_smooth(&model, Vector::zeros(2), 1.0, &z_vecs).unwrap();
        let mut kf = KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap();
        for z in &z_vecs {
            kf.step(z).unwrap();
        }
        prop_assert!(smoothed.states.last().unwrap().max_abs_diff(kf.state()) < 1e-9);
    }
}

/// A linear model behind the nonlinear trait, with proptest-chosen
/// parameters: the UKF must track the KF on it.
#[derive(Debug, Clone)]
struct LinearAsNonlinear {
    f: Matrix,
    h: Matrix,
    q: Matrix,
    r: Matrix,
}

impl NonlinearModel for LinearAsNonlinear {
    fn state_dim(&self) -> usize {
        2
    }
    fn measurement_dim(&self) -> usize {
        1
    }
    fn f(&self, x: &Vector) -> Vector {
        self.f.mul_vec(x).unwrap()
    }
    fn f_jacobian(&self, _x: &Vector) -> Matrix {
        self.f.clone()
    }
    fn h(&self, x: &Vector) -> Vector {
        self.h.mul_vec(x).unwrap()
    }
    fn h_jacobian(&self, _x: &Vector) -> Matrix {
        self.h.clone()
    }
    fn q(&self) -> &Matrix {
        &self.q
    }
    fn r(&self) -> &Matrix {
        &self.r
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ukf_matches_kf_on_linear_models(
        dt in 0.2..2.0f64,
        q in 1e-3..0.2f64,
        r in 1e-2..0.5f64,
        zs in measurements(40),
    ) {
        let linear = models::constant_velocity(dt, q, r);
        let nl = LinearAsNonlinear {
            f: linear.f().clone(),
            h: linear.h().clone(),
            q: linear.q().clone(),
            r: linear.r().clone(),
        };
        let mut kf = KalmanFilter::new(linear, Vector::zeros(2), 1.0).unwrap();
        let mut ukf = UnscentedKalmanFilter::new(nl, Vector::zeros(2), 1.0).unwrap();
        for &z in &zs {
            let v = Vector::from_slice(&[z]);
            kf.step(&v).unwrap();
            ukf.step(&v).unwrap();
        }
        prop_assert!(
            kf.state().max_abs_diff(ukf.state()) < 1e-6,
            "UKF diverged from KF on a linear model"
        );
    }
}

/// A random `rows × cols` matrix whose entries are zero with probability
/// `zero_frac`, drawn from `rng`.
fn sparse_matrix(rng: &mut SmallRng, rows: usize, cols: usize, zero_frac: f64) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.random::<f64>() < zero_frac {
                0.0
            } else {
                rng.random::<f64>() * 4.0 - 2.0
            }
        })
        .collect();
    Matrix::from_row_major(rows, cols, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn predicted_measurement_var_is_the_diagonal_of_s_to_the_bit(
        n in 1usize..9,
        m in 1usize..9,
        seed in any::<u64>(),
        diag_p in any::<bool>(),
        predicts in 0usize..3,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // H with zero entries (and sometimes zero rows) exercises both
        // zero skips of the sandwich; a diagonal P adds exact zeros to H P.
        let h = sparse_matrix(&mut rng, m, n, 0.4);
        let r = Matrix::from_diag(&(0..m).map(|_| rng.random::<f64>() + 1e-3).collect::<Vec<_>>());
        let p = if diag_p {
            Matrix::from_diag(&(0..n).map(|_| rng.random::<f64>() + 0.1).collect::<Vec<_>>())
        } else {
            let a = sparse_matrix(&mut rng, n, n, 0.3);
            &a.matmul(&a.transpose()).unwrap() + &Matrix::scalar(n, 0.1)
        };
        let f = sparse_matrix(&mut rng, n, n, 0.5);
        let model = StateModel::new("rand", f, Matrix::scalar(n, 0.01), h, r).unwrap();
        let mut kf = KalmanFilter::with_covariance(model, Vector::zeros(n), p).unwrap();
        for _ in 0..predicts {
            kf.predict().unwrap();
        }
        let s = kf.predicted_measurement_cov();
        for i in 0..m {
            prop_assert_eq!(kf.predicted_measurement_var(i).to_bits(), s.get(i, i).to_bits());
        }
    }
}
