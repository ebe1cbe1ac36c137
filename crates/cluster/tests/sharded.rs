//! Worker-count invariance of the space-sharded engine, end to end:
//!
//! 1. On **every registry scenario** (seed 12345, smoke budget) the
//!    sharded engine renders byte-identical artifacts at 1, 2, 3 and 4
//!    workers — the CLI-level acceptance criterion, one process down.
//!    Each worker count cuts the fleet at different points.
//! 2. A property sweep hammers the epoch-boundary merge: churn ticks
//!    aligned *exactly* on epoch edges (where cross-shard joins are
//!    exchanged), uniform-speed fleets (maximal cross-multiplication
//!    ties in Algorithm 1) and slow-first two-class fleets (whose
//!    capacity cut falls deep inside the fast half), checked against the
//!    single-shard run as the oracle — identical metrics and identical
//!    rendered tables.

use bnb_cluster::arrivals::ArrivalProcess;
use bnb_cluster::sharded::EPOCH_ARRIVALS;
use bnb_cluster::{registry, ChurnConfig, ClusterSpec, PlacementSpec, SimBuilder, SMOKE_DIVISOR};
use bnb_core::CapacityVector;
use proptest::prelude::*;

#[test]
fn every_registry_scenario_is_worker_count_invariant() {
    for sc in registry() {
        let smoke = sc.default_requests / SMOKE_DIVISOR;
        let run = |workers| {
            SimBuilder::scenario(sc, smoke)
                .seed(12_345)
                .workers(workers)
                .build()
                .run()
        };
        let one = run(1);
        for workers in 2..=4 {
            let many = run(workers);
            assert_eq!(one, many, "scenario {}: W=1 vs W={workers} metrics", sc.id);
            assert_eq!(
                one.render_table(),
                many.render_table(),
                "scenario {}: W={workers} rendered artifact",
                sc.id
            );
        }
    }
}

/// A fleet whose speeds force tie storms (uniform) or exercise the
/// heterogeneous cross-multiplication path (mixed, two-class).
fn speeds_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        // Tie storm: every server identical, every comparison a tie.
        (2usize..10).prop_map(|n| vec![1; n]),
        (2usize..10).prop_map(|n| vec![4; n]),
        // Heterogeneous mix.
        proptest::collection::vec(1u64..=8, 2..10),
        // Slow half first, as in the registry's two-class fleets: the
        // capacity cut lands inside the fast half, and churn joiners
        // inherit their victim's shard.
        (1usize..8, 1usize..8, 2u64..=8).prop_map(|(slow, fast, speed)| [
            vec![1; slow],
            vec![speed; fast]
        ]
        .concat()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Churn ticks landing exactly on epoch boundaries — the moment
    /// cross-shard joins are exchanged — must not open any gap between
    /// worker counts. The single-shard run is the oracle.
    #[test]
    fn epoch_boundary_churn_is_worker_count_invariant(
        speeds in speeds_strategy(),
        start_epochs in 1u64..4,
        interval_epochs in 1u64..3,
        requests in 2_000u64..5_000,
        workers in 2usize..5,
        seed in 0u64..1_000,
    ) {
        let speeds = CapacityVector::from_vec(speeds);
        let rate = 0.8 * speeds.total() as f64;
        // Epoch length is EPOCH_ARRIVALS / peak_rate; quantising churn
        // to whole epochs parks every tick on a merge boundary.
        let delta = EPOCH_ARRIVALS / rate;
        let spec = |requests| ClusterSpec {
            arrivals: ArrivalProcess::Poisson { rate },
            speeds: speeds.clone(),
            placement: PlacementSpec::DChoice { d: 2 },
            queue_capacity: Some(16),
            churn: Some(ChurnConfig {
                start: start_epochs as f64 * delta,
                interval: interval_epochs as f64 * delta,
            }),
            requests,
        };
        let oracle = SimBuilder::new(spec(requests)).seed(seed).workers(1).build().run();
        let sharded = SimBuilder::new(spec(requests))
            .seed(seed)
            .workers(workers)
            .build()
            .run();
        prop_assert_eq!(&oracle, &sharded);
        prop_assert_eq!(oracle.render_table(), sharded.render_table());
    }

    /// Without churn the same holds on pure tie-storm fleets, with the
    /// worker count sweeping past the fleet size (more shards than
    /// slots must degrade gracefully).
    #[test]
    fn tie_storms_are_worker_count_invariant(
        n in 2usize..8,
        requests in 1_000u64..4_000,
        workers in 2usize..12,
        seed in 0u64..1_000,
    ) {
        let spec = |requests| {
            let speeds = CapacityVector::uniform(n, 2);
            ClusterSpec {
                arrivals: ArrivalProcess::Poisson { rate: 0.9 * speeds.total() as f64 },
                speeds,
                placement: PlacementSpec::DChoice { d: 3 },
                queue_capacity: None,
                churn: None,
                requests,
            }
        };
        let oracle = SimBuilder::new(spec(requests)).seed(seed).workers(1).build().run();
        let sharded = SimBuilder::new(spec(requests))
            .seed(seed)
            .workers(workers)
            .build()
            .run();
        prop_assert_eq!(&oracle, &sharded);
    }
}
