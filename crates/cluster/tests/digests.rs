//! Golden output digests for every registry scenario, on the serial
//! engine and on the sharded engine at one worker.
//!
//! Each digest is FNV-1a over the `Debug` rendering of the full
//! [`ClusterMetrics`] — every counter, every per-slot vector and every
//! `f64` at round-trip precision — at seed 12345 and the smoke budget.
//! The table pins both engines' output: a change to the fleet's slot
//! layout, the admission FIFO or the sharded engine's slot table must
//! leave every digest unchanged. (Worker-count invariance, `W1 == W4`,
//! is `tests/sharded.rs`; this file pins the `W1` output itself.)

use bnb_cluster::{registry, ClusterMetrics, SimBuilder, SMOKE_DIVISOR};

const SEED: u64 = 12_345;

/// `(scenario, serial digest, sharded W1 digest)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("uniform", 0xdb51de322936c924, 0x330fb86aba942da1),
    ("two-class", 0xcd3023e54e0e6810, 0x0e1cb7d1bca6e5f4),
    ("zipf", 0x256755c5e865c0b6, 0xaabed1c8d6c14f12),
    ("flash-crowd", 0xbd296cbaffd13f38, 0x329a9f24e618b89e),
    ("diurnal", 0x031fb9b03c529198, 0x659addefd5b85bed),
    ("churny-p2p", 0xba278bc2a21a45d1, 0x744626f52990c84d),
    ("giant", 0x2128e14ac05e6112, 0x704ab8c7983e8ec1),
    ("successor", 0x5511f86021659f64, 0x87fbb71e98533b36),
    ("rendezvous", 0xb5050609e791b41f, 0x6bedbb2413c29618),
];

fn digest(m: &ClusterMetrics) -> u64 {
    format!("{m:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn registry_digests_match_the_golden_table() {
    let mut mismatches = Vec::new();
    for sc in registry() {
        let smoke = sc.default_requests / SMOKE_DIVISOR;
        let serial = digest(&SimBuilder::scenario(sc, smoke).seed(SEED).build().run());
        let w1 = digest(
            &SimBuilder::scenario(sc, smoke)
                .seed(SEED)
                .workers(1)
                .build()
                .run(),
        );
        let golden = GOLDEN.iter().find(|g| g.0 == sc.id);
        if golden != Some(&(sc.id, serial, w1)) {
            mismatches.push(format!("    (\"{}\", {serial:#018x}, {w1:#018x}),", sc.id));
        }
    }
    assert!(
        GOLDEN.len() == registry().len() && mismatches.is_empty(),
        "digests differ from the golden table; measured:\n{}",
        mismatches.join("\n")
    );
}
