//! The seeded stream fleet every workload runs on.
//!
//! Stream `id` is a random walk, a noisy sinusoid or an Ornstein–Uhlenbeck
//! process by `id % 3`, so every seed has the same family mix; its noise
//! levels, period, phase and generator seed are drawn from a hash of the
//! seed and `id`. Both protocol ends come from one [`SessionSpec`] primed with
//! the stream's first sample, so the source and server endpoints start
//! bit-identical and the protocol keeps them so.

use kalstream_core::{ProtocolConfig, ServerEndpoint, SessionSpec, SourceEndpoint};
use kalstream_gen::synthetic::{OrnsteinUhlenbeck, RandomWalk, Sinusoid};
use kalstream_gen::Stream;

/// SplitMix64: a stateless mixer from `(seed, id)` to well-spread bits.
pub fn mix(seed: u64, id: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(id.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[lo, hi)` from the `k`-th hash of stream `id`.
fn uniform(seed: u64, id: u32, k: u64, lo: f64, hi: f64) -> f64 {
    let bits = mix(seed ^ k.wrapping_mul(0xA24B_AED4_963E_E407), u64::from(id));
    lo + (hi - lo) * (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// One stream's matched endpoints, its generator, and the first sample
/// (which seeded both filters and is replayed as the tick-0 observation).
pub struct StreamParts {
    /// Source end: shadow filter plus suppression decision.
    pub source: SourceEndpoint,
    /// Server end: the filter answers are served from.
    pub server: ServerEndpoint,
    /// The measurement process.
    pub gen: Box<dyn Stream + Send>,
    /// The first observation.
    pub first: f64,
}

/// Builds stream `id` of the fleet for `seed`. `delta` overrides the
/// family's natural precision bound (the query workload installs the
/// bound its graph propagates instead).
pub fn build_stream(seed: u64, id: u32, delta: Option<f64>) -> StreamParts {
    let gen_seed = mix(seed, u64::from(id) | (1 << 40));
    let jitter = uniform(seed, id, 1, 0.8, 1.25);
    let (mut gen, natural): (Box<dyn Stream + Send>, f64) = match id % 3 {
        0 => (
            Box::new(RandomWalk::new(0.0, 0.0, 0.5 * jitter, 0.1, gen_seed)),
            0.5,
        ),
        1 => (
            Box::new(Sinusoid::new(
                10.0 * jitter,
                core::f64::consts::TAU / uniform(seed, id, 2, 150.0, 250.0),
                uniform(seed, id, 3, 0.0, core::f64::consts::TAU),
                0.0,
                0.2,
                gen_seed,
            )),
            0.35,
        ),
        _ => (
            Box::new(OrnsteinUhlenbeck::new(
                0.0,
                0.1,
                0.0,
                0.5 * jitter,
                1.0,
                0.1,
                gen_seed,
            )),
            0.5,
        ),
    };
    let first = gen.next_sample().observed[0];
    let config = ProtocolConfig::new(delta.unwrap_or(natural)).expect("positive finite delta");
    let (source, server) = SessionSpec::default_scalar(first, config)
        .expect("scalar session spec")
        .build()
        .split();
    StreamParts {
        source,
        server,
        gen,
        first,
    }
}

/// Server endpoints for ids `0..streams` — what a server installs at
/// start-up, derived from the seed alone.
pub fn server_endpoints(seed: u64, streams: u32) -> Vec<(u32, ServerEndpoint)> {
    (0..streams)
        .map(|id| (id, build_stream(seed, id, None).server))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameters_depend_on_the_seed() {
        let first = |seed| build_stream(seed, 4, None).first;
        assert_eq!(first(1), first(1));
        assert_ne!(first(1), first(2));
    }
}
