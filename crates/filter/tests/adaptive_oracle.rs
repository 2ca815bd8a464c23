//! Bit-identity of [`AdaptiveKalmanFilter`] against a reference copy of the
//! straightforward implementation it replaced: windows of whole `Matrix`
//! values in `VecDeque`s, a second `predicted_measurement_cov()` per update,
//! and a rebuilt `StateModel` for every adopted `R`/`Q`.
//!
//! The reference runs on the public `KalmanFilter`/`StateModel` API only, so
//! it keeps the old arithmetic verbatim. Both filters see the same inputs;
//! after every step state, covariance, `R`, `q_scale`, `mean_nis` and the
//! `UpdateOutcome` (or the error) must agree to the bit.

use std::collections::VecDeque;

use kalstream_filter::{AdaptiveConfig, AdaptiveKalmanFilter, KalmanFilter, StateModel};
use kalstream_filter::{Result, UpdateOutcome};
use kalstream_linalg::{Matrix, Vector};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// The reference adaptive filter, with counters for the events the
/// comparison must cover.
struct Oracle {
    inner: KalmanFilter,
    config: AdaptiveConfig,
    base: StateModel,
    q_scale: f64,
    innov_outer: VecDeque<Matrix>,
    prior_cov: VecDeque<Matrix>,
    nis: VecDeque<f64>,
    events: Events,
}

#[derive(Debug, Default, Clone, Copy)]
struct Events {
    r_adopted: u64,
    r_skipped: u64,
    q_rescaled: u64,
}

impl Oracle {
    fn new(inner: KalmanFilter, config: AdaptiveConfig) -> Self {
        let base = inner.model().clone();
        Oracle {
            inner,
            config,
            base,
            q_scale: 1.0,
            innov_outer: VecDeque::new(),
            prior_cov: VecDeque::new(),
            nis: VecDeque::new(),
            events: Events::default(),
        }
    }

    fn mean_nis(&self) -> f64 {
        if self.nis.is_empty() {
            0.0
        } else {
            self.nis.iter().sum::<f64>() / self.nis.len() as f64
        }
    }

    fn step(&mut self, z: &Vector) -> Result<UpdateOutcome> {
        self.inner.predict()?;
        let prior_s = self.inner.predicted_measurement_cov();
        let prior_hph = &prior_s - self.inner.model().r();
        let outcome = self.inner.update(z)?;
        let m = outcome.innovation.dim();
        let mut outer = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                outer.set(i, j, outcome.innovation[i] * outcome.innovation[j]);
            }
        }
        push_window(&mut self.innov_outer, outer, self.config.window);
        push_window(&mut self.prior_cov, prior_hph, self.config.window);
        push_window(&mut self.nis, outcome.nis, self.config.window);
        if self.innov_outer.len() >= self.config.window {
            if self.config.adapt_r {
                self.adapt_r();
            }
            if self.config.adapt_q {
                self.adapt_q(m);
            }
        }
        Ok(outcome)
    }

    fn adapt_r(&mut self) {
        let m = self.inner.model().measurement_dim();
        let count = self.innov_outer.len() as f64;
        let mut c = Matrix::zeros(m, m);
        for o in &self.innov_outer {
            c += o;
        }
        c.scale_mut(1.0 / count);
        let mut hph = Matrix::zeros(m, m);
        for p in &self.prior_cov {
            hph += p;
        }
        hph.scale_mut(1.0 / count);
        let mut r_hat = &c - &hph;
        for i in 0..m {
            let d = r_hat.get(i, i).max(self.config.r_floor);
            r_hat.set(i, i, d);
        }
        r_hat.symmetrize_mut();
        if r_hat.cholesky().is_ok() {
            let model = self.inner.model().with_measurement_noise(r_hat).unwrap();
            self.inner.set_model(model).unwrap();
            self.events.r_adopted += 1;
        } else {
            self.events.r_skipped += 1;
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
            let scaled = self.base.with_scaled_q(self.q_scale).unwrap();
            let model = scaled
                .with_measurement_noise(self.inner.model().r().clone())
                .unwrap();
            self.inner.set_model(model).unwrap();
            self.nis.clear();
            self.innov_outer.clear();
            self.prior_cov.clear();
            self.events.q_rescaled += 1;
        }
    }
}

fn push_window<T>(dq: &mut VecDeque<T>, v: T, cap: usize) {
    dq.push_back(v);
    while dq.len() > cap {
        dq.pop_front();
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A 3-state model (a position/velocity pair plus an independent level)
/// observed through the first `m` rows of a mixing `H` that has zeros in it.
fn model(m: usize) -> StateModel {
    let f = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
    let q = Matrix::from_diag(&[1e-3, 1e-4, 5e-3]);
    let h_rows: [&[f64]; 3] = [&[1.0, 0.0, 0.0], &[0.5, 0.0, 1.0], &[0.0, 2.0, -1.0]];
    let h = Matrix::from_rows(&h_rows[..m]);
    StateModel::new("mix", f, q, h, Matrix::scalar(m, 0.05)).unwrap()
}

fn gaussian(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// Measurements in phases: loud noise (R estimate rises), a steep ramp
/// (NIS blows up: Q rescales and every window clears), near-silence (the
/// innovation average falls below the prior term, so the floored R
/// estimate goes non-PD and is skipped) and loud noise again. `order`
/// rotates the phases.
fn measurements(m: usize, seed: u64, order: usize, phase_len: usize) -> Vec<Vector> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(4 * phase_len);
    let mut level = vec![0.0; m];
    for p in 0..4 {
        for t in 0..phase_len {
            let z: Vec<f64> = (0..m)
                .map(|k| {
                    let (slope, sigma) = match (p + order) % 4 {
                        0 | 3 => (0.0, 2.0 + k as f64),
                        1 => (3.0 * (k + 1) as f64, 0.1),
                        _ => (0.0, 1e-4),
                    };
                    level[k] += slope;
                    level[k] + sigma * gaussian(&mut rng) + 0.01 * t as f64
                })
                .collect();
            out.push(Vector::from_slice(&z));
        }
    }
    out
}

/// Runs both filters over `zs`, asserting bit-identity after every step.
/// Returns the reference's event counts.
fn compare(m: usize, config: AdaptiveConfig, zs: &[Vector]) -> Events {
    let kf = KalmanFilter::new(model(m), Vector::zeros(3), 1.0).unwrap();
    let mut oracle = Oracle::new(kf.clone(), config.clone());
    let mut akf = AdaptiveKalmanFilter::new(kf, config.clone());
    for (t, z) in zs.iter().enumerate() {
        let want = oracle.step(z);
        let got = akf.step(z);
        let ctx = format!("m={m} config={config:?} step={t}");
        match (&want, &got) {
            (Ok(w), Ok(g)) => {
                assert_eq!(
                    bits(w.innovation.as_slice()),
                    bits(g.innovation.as_slice()),
                    "{ctx}"
                );
                assert_eq!(
                    bits(w.innovation_cov.as_slice()),
                    bits(g.innovation_cov.as_slice()),
                    "{ctx}"
                );
                assert_eq!(w.nis.to_bits(), g.nis.to_bits(), "{ctx}");
                assert_eq!(
                    w.log_likelihood.to_bits(),
                    g.log_likelihood.to_bits(),
                    "{ctx}"
                );
            }
            (Err(w), Err(g)) => assert_eq!(w, g, "{ctx}"),
            _ => panic!("{ctx}: outcomes differ: {want:?} vs {got:?}"),
        }
        let (o, a) = (&oracle.inner, akf.inner());
        assert_eq!(
            bits(o.state().as_slice()),
            bits(a.state().as_slice()),
            "{ctx}"
        );
        assert_eq!(
            bits(o.covariance().as_slice()),
            bits(a.covariance().as_slice()),
            "{ctx}"
        );
        assert_eq!(
            bits(o.model().r().as_slice()),
            bits(akf.estimated_r().as_slice()),
            "{ctx}"
        );
        assert_eq!(
            bits(o.model().q().as_slice()),
            bits(a.model().q().as_slice()),
            "{ctx}"
        );
        assert_eq!(oracle.q_scale.to_bits(), akf.q_scale().to_bits(), "{ctx}");
        assert_eq!(
            oracle.mean_nis().to_bits(),
            akf.mean_nis().to_bits(),
            "{ctx}"
        );
    }
    oracle.events
}

fn config(window: usize, adapt_r: bool, adapt_q: bool, r_floor: f64) -> AdaptiveConfig {
    AdaptiveConfig {
        window,
        adapt_r,
        adapt_q,
        r_floor,
        ..AdaptiveConfig::default()
    }
}

/// Every measurement dimension, window length 0–40 and `adapt_r`/`adapt_q`
/// combination, and proof that the inputs reach each adaptation branch.
#[test]
fn matches_reference_over_the_grid() {
    for m in 1..=3 {
        let mut total = Events::default();
        for window in 0..=40 {
            for (adapt_r, adapt_q) in [(true, true), (true, false), (false, true), (false, false)] {
                // A zero floor lets a scalar estimate go non-PD too.
                let r_floor = if window % 2 == 0 { 1e-9 } else { 0.0 };
                let zs = measurements(m, window as u64, window % 4, 60);
                let e = compare(m, config(window, adapt_r, adapt_q, r_floor), &zs);
                total.r_adopted += e.r_adopted;
                total.r_skipped += e.r_skipped;
                total.q_rescaled += e.q_rescaled;
            }
        }
        assert!(total.r_adopted > 0, "m={m}: no R estimate adopted");
        assert!(total.r_skipped > 0, "m={m}: no non-PD R estimate skipped");
        assert!(total.q_rescaled > 0, "m={m}: no Q rescale");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_reference_on_random_runs(
        m in 1usize..4,
        window in 1usize..41,
        flags in 0usize..4,
        seed in any::<u64>(),
        order in 0usize..4,
        phase_len in 10usize..90,
        zero_floor in any::<bool>(),
    ) {
        let r_floor = if zero_floor { 0.0 } else { 1e-9 };
        let zs = measurements(m, seed, order, phase_len);
        compare(m, config(window, flags & 1 == 1, flags & 2 == 2, r_floor), &zs);
    }
}
