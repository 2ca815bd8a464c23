//! Workspace proptests for the tentpole equivalence claim: the scalar
//! [`KalmanFilter`], the monomorphized [`StaticKernel`], and the
//! structure-of-arrays [`FleetBatch`] are **bit-identical** — same state
//! bits, same covariance bits, same suppression verdicts — on any
//! well-conditioned model, for every supported dimension pair, over
//! 1000-tick runs.
//!
//! Models and measurement streams are derived from a proptest-chosen seed
//! via a local xorshift generator, so each case explores a different
//! random model while the proptest input stays small enough to shrink.

// Counted loops mirror the kernels under test; index-based access is the
// clearest way to compare the three paths element by element.
#![allow(clippy::needless_range_loop)]

use kalstream_filter::{FleetBatch, KalmanFilter, StateModel};
use kalstream_linalg::{Matrix, StaticKernel, Vector};
use proptest::prelude::*;

const TICKS: usize = 1_000;
const LANES: usize = 3;

/// xorshift64* — deterministic model/measurement material from one seed.
struct Rng64(u64);

impl Rng64 {
    fn new(seed: u64) -> Self {
        Rng64(seed ^ 0x9E37_79B9_7F4A_7C15 | 1)
    }

    fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

/// A random stable model: `F` strictly diagonally dominant with spectral
/// radius < 1 (row sums below one), diagonal `Q`/`R` bounded away from
/// zero, dense random `H`. Well-conditioned by construction so every
/// update succeeds on all three paths.
fn random_model(rng: &mut Rng64, n: usize, m: usize) -> StateModel {
    let mut f = vec![vec![0.0f64; n]; n];
    for (i, row) in f.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = if i == j {
                rng.range(0.5, 0.9)
            } else {
                rng.range(-0.1, 0.1) / n as f64
            };
        }
    }
    let mut q = vec![vec![0.0f64; n]; n];
    for (i, row) in q.iter_mut().enumerate() {
        row[i] = rng.range(1e-4, 0.1);
    }
    let mut h = vec![vec![0.0f64; n]; m];
    for row in &mut h {
        for v in row.iter_mut() {
            *v = rng.range(-1.0, 1.0);
        }
    }
    let mut r = vec![vec![0.0f64; m]; m];
    for (j, row) in r.iter_mut().enumerate() {
        row[j] = rng.range(1e-3, 0.5);
    }
    let as_matrix = |rows: &[Vec<f64>]| {
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        Matrix::from_rows(&refs)
    };
    StateModel::new(
        "prop-random",
        as_matrix(&f),
        as_matrix(&q),
        as_matrix(&h),
        as_matrix(&r),
    )
    .expect("shapes are consistent by construction")
}

/// Steps `LANES` streams for `TICKS` ticks through all three paths and
/// proves per-tick bit-identity of state, covariance, and suppression
/// verdict.
fn assert_three_way<const N: usize, const M: usize>(
    seed: u64,
    delta: f64,
) -> Result<(), TestCaseError> {
    let mut rng = Rng64::new(seed);
    let model = random_model(&mut rng, N, M);
    let kernel = StaticKernel::<N, M>::from_matrices(model.f(), model.q(), model.h(), model.r())
        .expect("static kernel");
    let mut batch = FleetBatch::<N, M>::new(&model).expect("batch");

    let mut scalars = Vec::with_capacity(LANES);
    let mut xs = [[0.0f64; N]; LANES];
    let mut ps = [[[0.0f64; N]; N]; LANES];
    for lane in 0..LANES {
        let x0 = Vector::from_slice(&std::array::from_fn::<f64, N, _>(|_| rng.range(-5.0, 5.0)));
        let p0 = Matrix::scalar(N, rng.range(0.5, 2.0));
        scalars.push(
            KalmanFilter::with_covariance(model.clone(), x0.clone(), p0.clone()).expect("kf"),
        );
        for i in 0..N {
            xs[lane][i] = x0[i];
            for j in 0..N {
                ps[lane][i][j] = p0.get(i, j);
            }
        }
        batch.push(&x0, &p0, 0).expect("lane");
    }

    let mut z_plane = vec![0.0f64; M * LANES];
    let mut verdicts = vec![false; LANES];
    let mut total_suppressed = 0u64;
    for t in 0..TICKS {
        // One fresh measurement vector per lane, shared by all three paths.
        let mut z_arrs = [[0.0f64; M]; LANES];
        for (lane, z) in z_arrs.iter_mut().enumerate() {
            for (j, v) in z.iter_mut().enumerate() {
                *v = rng.range(-10.0, 10.0);
                z_plane[j * LANES + lane] = *v;
            }
        }

        // Batch path: predict → verdicts → update, whole fleet at once.
        batch.predict_all();
        batch
            .suppression_verdicts_into(&z_plane, delta, &mut verdicts)
            .expect("verdicts");
        batch.update_all(&z_plane).expect("batch update");

        for lane in 0..LANES {
            // Scalar path.
            let kf = &mut scalars[lane];
            kf.predict().expect("predict");
            let z_vec = Vector::from_slice(&z_arrs[lane]);
            let scalar_verdict = kf.predicted_measurement().max_abs_diff(&z_vec) <= delta;
            kf.update(&z_vec).expect("scalar update");

            // Static-kernel path.
            kernel.predict(&mut xs[lane], &mut ps[lane]);
            let static_verdict = kernel.within_bound(&xs[lane], &z_arrs[lane], delta);
            kernel
                .update(&mut xs[lane], &mut ps[lane], &z_arrs[lane])
                .expect("static update");

            prop_assert_eq!(
                scalar_verdict,
                static_verdict,
                "verdict scalar vs static, lane {} tick {}",
                lane,
                t
            );
            prop_assert_eq!(
                scalar_verdict,
                verdicts[lane],
                "verdict scalar vs batch, lane {} tick {}",
                lane,
                t
            );
            total_suppressed += u64::from(scalar_verdict);

            let (bx, bp, bsteps) = batch.lane_state(lane);
            prop_assert_eq!(bsteps, kf.steps_since_update());
            for i in 0..N {
                prop_assert_eq!(
                    kf.state()[i].to_bits(),
                    xs[lane][i].to_bits(),
                    "x[{}] scalar vs static, lane {} tick {}",
                    i,
                    lane,
                    t
                );
                prop_assert_eq!(
                    kf.state()[i].to_bits(),
                    bx[i].to_bits(),
                    "x[{}] scalar vs batch, lane {} tick {}",
                    i,
                    lane,
                    t
                );
                for j in 0..N {
                    prop_assert_eq!(
                        kf.covariance().get(i, j).to_bits(),
                        ps[lane][i][j].to_bits(),
                        "P[{}][{}] scalar vs static, lane {} tick {}",
                        i,
                        j,
                        lane,
                        t
                    );
                    prop_assert_eq!(
                        kf.covariance().get(i, j).to_bits(),
                        bp.get(i, j).to_bits(),
                        "P[{}][{}] scalar vs batch, lane {} tick {}",
                        i,
                        j,
                        lane,
                        t
                    );
                }
            }
        }
    }
    // The workload must exercise both verdict branches at least somewhere
    // across the run; an all-one-way δ would leave the comparison vacuous.
    let total = (TICKS * LANES) as u64;
    prop_assert!(
        total_suppressed < total,
        "delta so loose every tick suppressed"
    );
    Ok(())
}

/// The per-lane ingest primitives against a scalar twin per lane: every
/// tick predicts the fleet, then each lane takes a seeded sporadic op —
/// `set_lane`, `set_lane_sym`, `update_lane`, or a NaN poison healed by a
/// later state sync in the same tick. Half-way through, the last lane is
/// demoted (gathered with `lane_state`, handed to `KalmanFilter::restore`)
/// and keeps stepping scalar. Every finite lane must match its twin bit for
/// bit after every tick; the demoted filter must match to the end.
fn assert_lane_ops<const N: usize, const M: usize>(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = Rng64::new(seed);
    let model = random_model(&mut rng, N, M);
    let mut batch = FleetBatch::<N, M>::new(&model).expect("batch");
    let mut twins = Vec::with_capacity(LANES);
    for _ in 0..LANES {
        let x0 = Vector::from_slice(&std::array::from_fn::<f64, N, _>(|_| rng.range(-5.0, 5.0)));
        let p0 = Matrix::scalar(N, rng.range(0.5, 2.0));
        batch.push(&x0, &p0, 0).expect("lane");
        twins.push(KalmanFilter::with_covariance(model.clone(), x0, p0).expect("kf"));
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut demoted: Option<KalmanFilter> = None;
    let mut updates = 0u64;
    for t in 0..TICKS {
        if t == TICKS / 2 {
            // Demotion: the last lane leaves the batch (nothing moves).
            let lane = batch.len() - 1;
            let (x, p, steps) = batch.lane_state(lane);
            let mut kf =
                KalmanFilter::with_covariance(model.clone(), x.clone(), p.clone()).expect("kf");
            kf.restore(x, p, steps).expect("restore");
            prop_assert_eq!(batch.swap_remove_lane(lane), None);
            demoted = Some(kf);
        }
        prop_assert_eq!(
            batch.predict_all(),
            0,
            "finite lanes stay finite, tick {}",
            t
        );
        for kf in twins.iter_mut() {
            kf.predict().expect("predict");
        }
        if let Some(kf) = demoted.as_mut() {
            kf.predict().expect("predict");
        }
        for lane in 0..batch.len() {
            let kf = &mut twins[lane];
            let x = Vector::from_slice(&std::array::from_fn::<f64, N, _>(|_| rng.range(-5.0, 5.0)));
            let p = Matrix::scalar(N, rng.range(0.1, 2.0));
            match (rng.next_f64() * 5.0) as u32 {
                0 => {
                    batch.set_lane(lane, &x, &p).expect("set_lane");
                    kf.set_state(x, p).expect("set_state");
                }
                1 => {
                    let upper: Vec<f64> = (0..N)
                        .flat_map(|r| (r..N).map(move |c| (r, c)))
                        .map(|(r, c)| p.get(r, c))
                        .collect();
                    batch
                        .set_lane_sym(lane, x.as_slice(), &upper)
                        .expect("set_lane_sym");
                    kf.set_state(x, p).expect("set_state");
                }
                2 => {
                    let z = Vector::from_slice(&std::array::from_fn::<f64, M, _>(|_| {
                        rng.range(-10.0, 10.0)
                    }));
                    let (a, b) = (batch.update_lane(lane, &z), kf.update(&z));
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "update verdict tick {}", t);
                    updates += 1;
                }
                3 => {
                    // Poison, then heal within the tick.
                    let mut nan = x.clone();
                    nan[0] = f64::NAN;
                    batch.set_lane(lane, &nan, &p).expect("poison");
                    kf.set_state(nan, p.clone()).expect("poison");
                    prop_assert!(!batch.lane_is_finite(lane));
                    prop_assert_eq!(batch.nonfinite_lanes(), 1);
                    batch.set_lane(lane, &x, &p).expect("heal");
                    kf.set_state(x, p).expect("heal");
                }
                _ => {}
            }
            let (bx, bp, steps) = batch.lane_state(lane);
            prop_assert_eq!(
                bits(bx.as_slice()),
                bits(kf.state().as_slice()),
                "x lane {} tick {}",
                lane,
                t
            );
            prop_assert_eq!(
                bits(bp.as_slice()),
                bits(kf.covariance().as_slice()),
                "P lane {} tick {}",
                lane,
                t
            );
            prop_assert_eq!(steps, kf.steps_since_update());
        }
    }
    let kf = demoted.expect("demoted half-way");
    let twin = &twins[LANES - 1];
    prop_assert_eq!(bits(kf.state().as_slice()), bits(twin.state().as_slice()));
    prop_assert_eq!(
        bits(kf.covariance().as_slice()),
        bits(twin.covariance().as_slice())
    );
    prop_assert_eq!(kf.steps_since_update(), twin.steps_since_update());
    prop_assert!(updates > 0, "no update_lane exercised");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dims_1x1(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_three_way::<1, 1>(seed, delta)?;
    }

    #[test]
    fn lane_ops_1x1(seed in any::<u64>()) {
        assert_lane_ops::<1, 1>(seed)?;
    }

    #[test]
    fn dims_2x1(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_three_way::<2, 1>(seed, delta)?;
    }

    #[test]
    fn dims_2x2(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_three_way::<2, 2>(seed, delta)?;
    }

    #[test]
    fn dims_4x1(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_three_way::<4, 1>(seed, delta)?;
    }

    #[test]
    fn dims_4x2(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_three_way::<4, 2>(seed, delta)?;
    }

    #[test]
    fn dims_4x4(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_three_way::<4, 4>(seed, delta)?;
    }

    #[test]
    fn dims_8x1(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_three_way::<8, 1>(seed, delta)?;
    }

    #[test]
    fn dims_8x3(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_three_way::<8, 3>(seed, delta)?;
    }

    #[test]
    fn dims_8x4(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_three_way::<8, 4>(seed, delta)?;
    }
}
