//! Fast allocation regression gate (`cargo bench-smoke`).
//!
//! Runs the protocol steady-state loop, a settled adaptive source (the
//! default scalar session, syncs included) and the bare filter loop under
//! the counting allocator and **fails (exit 1) if any performs a heap
//! allocation per tick**. Finishes in well under a second; wire it into CI
//! next to the unit tests. Honours `--metrics-out <path>` for the CI
//! artifact contract.

use kalstream_bench::alloc_count::{self, CountingAllocator};
use kalstream_bench::MetricsOut;
use kalstream_core::{ProtocolConfig, SessionSpec};
use kalstream_filter::{models, KalmanFilter};
use kalstream_linalg::Vector;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const TICKS: u64 = 5_000;

fn main() {
    let mut metrics = MetricsOut::from_args();
    let mut failures = 0;

    // Protocol steady state: predict + update + suppression decision on a
    // quiet stream (settled, so no syncs — syncs are allowed to allocate).
    let mut source = SessionSpec::fixed(
        models::random_walk(0.01, 0.01),
        Vector::zeros(1),
        1.0,
        ProtocolConfig::new(0.5).expect("valid delta"),
    )
    .expect("valid spec")
    .build()
    .split()
    .0;
    for _ in 0..1_000 {
        source.decide(&[0.0]);
    }
    let (allocs, _) = alloc_count::count_allocs(|| {
        for _ in 0..TICKS {
            std::hint::black_box(source.decide(&[0.0]));
        }
    });
    metrics
        .scope("smoke.protocol")
        .counter("allocations", allocs);
    if allocs == 0 {
        println!("OK   protocol steady-state tick: 0 allocations over {TICKS} ticks");
    } else {
        println!(
            "FAIL protocol steady-state tick allocated: {} allocations over {TICKS} ticks ({:.2}/tick)",
            allocs,
            allocs as f64 / TICKS as f64
        );
        failures += 1;
    }

    // Settled adaptive source: the default scalar session the system
    // installs, on a sinusoid that keeps it syncing, so the counted ticks
    // cover adaptation and sync construction as well as quiet ticks.
    let mut adaptive =
        SessionSpec::default_scalar(0.0, ProtocolConfig::new(0.5).expect("valid delta"))
            .expect("valid spec")
            .build()
            .split()
            .0;
    let wave = |t: u64| (t as f64 * 0.05).sin() * 4.0;
    for t in 0..1_000 {
        adaptive.decide(&[wave(t)]);
    }
    let syncs_before = adaptive.syncs();
    let (allocs, _) = alloc_count::count_allocs(|| {
        for t in 1_000..1_000 + TICKS {
            std::hint::black_box(adaptive.decide(&[wave(t)]));
        }
    });
    let syncs = adaptive.syncs() - syncs_before;
    let mut scope = metrics.scope("smoke.adaptive");
    scope.counter("allocations", allocs);
    scope.counter("syncs", syncs);
    if allocs == 0 && syncs > 0 {
        println!("OK   adaptive source tick: 0 allocations over {TICKS} ticks ({syncs} syncs)");
    } else {
        println!(
            "FAIL adaptive source tick: {allocs} allocations over {TICKS} ticks ({syncs} syncs; the check needs > 0)"
        );
        failures += 1;
    }

    // Bare filter: predict + update (Joseph form) on a 2-state model.
    let mut kf = KalmanFilter::new(
        models::constant_velocity(1.0, 0.05, 0.1),
        Vector::zeros(2),
        1.0,
    )
    .expect("kf");
    let z = Vector::from_slice(&[0.5]);
    for _ in 0..100 {
        kf.step(&z).expect("step");
    }
    let (allocs, _) = alloc_count::count_allocs(|| {
        for _ in 0..TICKS {
            std::hint::black_box(kf.step(&z).expect("step").nis);
        }
    });
    metrics.scope("smoke.filter").counter("allocations", allocs);
    if allocs == 0 {
        println!("OK   filter predict+update step: 0 allocations over {TICKS} ticks");
    } else {
        println!(
            "FAIL filter predict+update step allocated: {} allocations over {TICKS} ticks ({:.2}/tick)",
            allocs,
            allocs as f64 / TICKS as f64
        );
        failures += 1;
    }

    metrics.write();
    if failures > 0 {
        println!("bench-smoke: {failures} check(s) failed");
        std::process::exit(1);
    }
    println!("bench-smoke: hot path is allocation-free");
}
