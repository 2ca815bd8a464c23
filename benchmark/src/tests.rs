//! Self-tests: seeds reproduce, and every correctness check fails on the
//! doctored input it exists to catch.

use std::path::PathBuf;

use crate::query::{self, Grants};
use crate::socket::{self, Recording, Replay};
use crate::workloads::{check_query_round, check_socket_round, remove_if_present};
use crate::{END_TO_END, PER_LAYER};

const SOCKET: socket::Shape = socket::Shape {
    conns: 2,
    streams_per_conn: 24,
    ticks: 60,
};

const QUERY: query::Shape = query::Shape {
    streams: 64,
    ticks: 120,
};

fn all_bytes(rec: &Recording) -> Vec<u8> {
    rec.conns
        .iter()
        .flat_map(|c| (0..rec.ticks).flat_map(move |t| c.segment(t).to_vec()))
        .collect()
}

#[test]
fn a_seed_reproduces_its_counts_and_state_and_another_seed_does_not() {
    let a = Recording::record(7, SOCKET);
    let b = Recording::record(7, SOCKET);
    let c = Recording::record(8, SOCKET);
    assert_eq!(a.frames, b.frames);
    assert_eq!(all_bytes(&a), all_bytes(&b));
    assert_ne!(all_bytes(&a), all_bytes(&c), "another seed, other traffic");
    let hash = |rec: &Recording, seed| socket::state_hash(&socket::sequential(seed, rec).0);
    assert_eq!(hash(&a, 7), hash(&b, 7));
    assert_ne!(hash(&a, 7), hash(&c, 8));

    let q = |seed| {
        let r = query::round(seed, QUERY, Grants::Faithful, None);
        (r.messages, r.feedback_messages, r.wire_bytes, r.directives)
    };
    assert_eq!(q(7), q(7));
    assert_ne!(q(7), q(8));
}

#[test]
fn faithful_rounds_pass_every_check() {
    let rec = Recording::record(3, SOCKET);
    let (reference, _, _) = socket::sequential(3, &rec);
    let volatile = socket::round(3, &rec, None, Replay::Full, None).expect("volatile round");
    assert_eq!(
        check_socket_round(&volatile, &rec, &reference),
        Vec::<String>::new()
    );

    let dir = PathBuf::from(".bench_out").join(format!("test-durable-{}", std::process::id()));
    let durable = socket::round(3, &rec, Some(&dir), Replay::Full, None);
    remove_if_present(&dir).expect("remove test store");
    let durable = durable.expect("durable round");
    assert_eq!(
        check_socket_round(&durable, &rec, &reference),
        Vec::<String>::new()
    );
    assert!(durable.report.durable.is_some());

    let round = query::round(3, QUERY, Grants::Faithful, None);
    assert_eq!(check_query_round(&round), Vec::<String>::new());
    assert!(round.directives > 0, "feedback pushed directives");
}

#[test]
fn a_flipped_frame_byte_fails_the_bit_identity_check() {
    let rec = Recording::record(5, SOCKET);
    let (reference, _, _) = socket::sequential(5, &rec);
    let round = socket::round(5, &rec.with_flipped_byte(), None, Replay::Full, None)
        .expect("doctored round still runs");
    let problems = check_socket_round(&round, &rec, &reference);
    assert!(
        problems.iter().any(|p| p.contains("bit-identical")),
        "{problems:?}"
    );
}

#[test]
fn a_short_tick_count_fails_the_tick_check() {
    let rec = Recording::record(5, SOCKET);
    let (reference, _, _) = socket::sequential(5, &rec);
    let round = socket::round(5, &rec, None, Replay::Short, None).expect("short round runs");
    let problems = check_socket_round(&round, &rec, &reference);
    assert!(
        problems
            .iter()
            .any(|p| p.contains(&format!("expected {}", SOCKET.ticks))),
        "{problems:?}"
    );
}

#[test]
fn a_served_delta_above_its_contract_fails_the_query_check() {
    let round = query::round(5, QUERY, Grants::Inflated, None);
    let problems = check_query_round(&round);
    assert!(
        problems.iter().any(|p| p.contains("contract")),
        "{problems:?}"
    );
}

#[test]
fn benchmark_json_lists_every_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let compact: String = json.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in ["socket_lockstep", "socket_durable", "query_feedback"] {
        assert!(compact.contains(&format!("\"name\":\"{workload}\",\"why\"")));
    }
    let names = compact.matches("\"name\":").count();
    assert_eq!(names, 3 + END_TO_END.len() + PER_LAYER.len());
}
