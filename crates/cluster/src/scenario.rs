//! The scenario registry: named, reproducible cluster workloads.
//!
//! A scenario is a recipe `(seed, requests) → ClusterSpec`; everything
//! else (fleet mix, traffic shape, placement, churn) is baked in, so a
//! scenario id plus a seed fully determines a run. The registry covers
//! the workloads the paper motivates: uniform fleets, two-class mixes,
//! Zipf capacity tails, a flash-crowd burst, and a churning P2P ring —
//! plus load-oblivious baselines to compare against.

use crate::arrivals::ArrivalProcess;
use crate::sim::{ChurnConfig, ClusterSpec};
use crate::PlacementSpec;
use bnb_core::CapacityVector;
use bnb_distributions::Xoshiro256PlusPlus;

/// A named, reproducible workload.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// CLI identifier, e.g. `"two-class"`.
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Requests offered at full scale (`--smoke` divides by
    /// [`SMOKE_DIVISOR`]).
    pub default_requests: u64,
    /// Spec builder: `(seed, requests) → spec`.
    pub build: fn(u64, u64) -> ClusterSpec,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("id", &self.id)
            .field("default_requests", &self.default_requests)
            .finish()
    }
}

/// `--smoke` runs `default_requests / SMOKE_DIVISOR` requests.
pub const SMOKE_DIVISOR: u64 = 20;

/// Builds a Poisson process at utilisation `rho` of the given fleet.
fn poisson(rho: f64, speeds: &CapacityVector) -> ArrivalProcess {
    ArrivalProcess::Poisson {
        rate: rho * speeds.total() as f64,
    }
}

fn uniform(_seed: u64, requests: u64) -> ClusterSpec {
    let speeds = CapacityVector::uniform(64, 4);
    ClusterSpec {
        arrivals: poisson(0.9, &speeds),
        speeds,
        placement: PlacementSpec::DChoice { d: 2 },
        queue_capacity: Some(64),
        churn: None,
        requests,
    }
}

fn two_class(_seed: u64, requests: u64) -> ClusterSpec {
    let speeds = CapacityVector::two_class(32, 1, 32, 8);
    ClusterSpec {
        arrivals: poisson(0.9, &speeds),
        speeds,
        placement: PlacementSpec::DChoice { d: 2 },
        queue_capacity: Some(64),
        churn: None,
        requests,
    }
}

fn zipf(seed: u64, requests: u64) -> ClusterSpec {
    // Heavy-tailed capacities: a few big machines, a long tail of small
    // ones — the storage-fleet shape of the paper's §4 extensions.
    let mut rng = Xoshiro256PlusPlus::from_u64_seed(seed ^ 0x5A1F);
    let speeds = CapacityVector::zipf(128, 64, 1.1, &mut rng);
    ClusterSpec {
        arrivals: poisson(0.85, &speeds),
        speeds,
        placement: PlacementSpec::DChoice { d: 2 },
        queue_capacity: Some(64),
        churn: None,
        requests,
    }
}

fn flash_crowd(_seed: u64, requests: u64) -> ClusterSpec {
    let speeds = CapacityVector::uniform(64, 4);
    let capacity = speeds.total() as f64;
    let base_rate = 0.6 * capacity;
    // Size the burst window relative to the expected run length so the
    // profile scales with the request budget (smoke runs shrink it too).
    let horizon = requests as f64 / base_rate;
    ClusterSpec {
        arrivals: ArrivalProcess::FlashCrowd {
            base_rate,
            peak_rate: 2.0 * capacity,
            burst_start: 0.35 * horizon,
            burst_end: 0.45 * horizon,
        },
        speeds,
        placement: PlacementSpec::DChoice { d: 2 },
        // Tight queues: the burst must visibly shed load (the drop-rate
        // metric is the point of this scenario).
        queue_capacity: Some(8),
        churn: None,
        requests,
    }
}

fn diurnal(_seed: u64, requests: u64) -> ClusterSpec {
    // Ramped day/night traffic on a two-class fleet: the mean
    // utilisation is a comfortable 0.7 but the crest approaches 1.05 of
    // capacity, so queues breathe with the cycle — the non-stationary
    // arrival path that d-sweeps must exercise. The period scales with
    // the request budget so every run (smoke included) crosses several
    // whole cycles.
    let speeds = CapacityVector::two_class(32, 1, 32, 8);
    let base_rate = 0.7 * speeds.total() as f64;
    let horizon = requests as f64 / base_rate;
    ClusterSpec {
        arrivals: ArrivalProcess::Diurnal {
            base_rate,
            amplitude: 0.5,
            period: horizon / 4.0,
        },
        speeds,
        placement: PlacementSpec::DChoice { d: 2 },
        queue_capacity: Some(64),
        churn: None,
        requests,
    }
}

fn churny_p2p(_seed: u64, requests: u64) -> ClusterSpec {
    // A P2P-style ring: heterogeneous peers, Byers hash-then-probe
    // placement, and steady membership churn rebalanced through the
    // membership ring.
    let speeds = CapacityVector::two_class(32, 1, 32, 4);
    let rate = 0.7 * speeds.total() as f64;
    let horizon = requests as f64 / rate;
    ClusterSpec {
        arrivals: ArrivalProcess::Poisson { rate },
        speeds,
        placement: PlacementSpec::HashThenProbe { d: 2, vnodes: 8 },
        queue_capacity: Some(64),
        churn: Some(ChurnConfig {
            start: horizon / 20.0,
            interval: horizon / 40.0,
        }),
        requests,
    }
}

fn giant(_seed: u64, requests: u64) -> ClusterSpec {
    // The sharded-scale workload: 131072 servers — far past what the
    // serial per-event loop enjoys, and the fleet the `--workers`
    // space-sharded engine exists for. Same two-class shape as
    // `two-class`, a thousand times wider.
    let speeds = CapacityVector::two_class(65_536, 1, 65_536, 8);
    ClusterSpec {
        arrivals: poisson(0.9, &speeds),
        speeds,
        placement: PlacementSpec::DChoice { d: 2 },
        queue_capacity: Some(64),
        churn: None,
        requests,
    }
}

fn successor_baseline(_seed: u64, requests: u64) -> ClusterSpec {
    // Load-oblivious consistent hashing on the same fleet as
    // `two-class`: the Θ(log n / log log n)-style pile-ups to beat.
    let speeds = CapacityVector::two_class(32, 1, 32, 8);
    ClusterSpec {
        arrivals: poisson(0.7, &speeds),
        speeds,
        placement: PlacementSpec::ConsistentHash { vnodes: 16 },
        queue_capacity: Some(128),
        churn: None,
        requests,
    }
}

fn rendezvous_baseline(_seed: u64, requests: u64) -> ClusterSpec {
    let speeds = CapacityVector::two_class(32, 1, 32, 8);
    ClusterSpec {
        arrivals: poisson(0.7, &speeds),
        speeds,
        placement: PlacementSpec::Rendezvous,
        queue_capacity: Some(128),
        churn: None,
        requests,
    }
}

/// Every registered scenario, in display order.
#[must_use]
pub fn registry() -> &'static [Scenario] {
    &[
        Scenario {
            id: "uniform",
            title: "Uniform fleet (64 x speed 4), Poisson rho=0.9, d-choice",
            default_requests: 200_000,
            build: uniform,
        },
        Scenario {
            id: "two-class",
            title: "Two-class fleet (32 x 1 + 32 x 8), Poisson rho=0.9, d-choice",
            default_requests: 200_000,
            build: two_class,
        },
        Scenario {
            id: "zipf",
            title: "Zipf capacities (128 servers, max 64, s=1.1), Poisson rho=0.85, d-choice",
            default_requests: 200_000,
            build: zipf,
        },
        Scenario {
            id: "flash-crowd",
            title: "Flash crowd: rho 0.6 -> 2.0 burst on a uniform fleet, finite queues",
            default_requests: 200_000,
            build: flash_crowd,
        },
        Scenario {
            id: "diurnal",
            title: "Diurnal ramp: sinusoidal rho 0.35..1.05 on a two-class fleet, d-choice",
            default_requests: 200_000,
            build: diurnal,
        },
        Scenario {
            id: "churny-p2p",
            title: "Churning P2P ring: hash-then-probe d=2, periodic leave+join",
            default_requests: 100_000,
            build: churny_p2p,
        },
        Scenario {
            id: "giant",
            title: "Giant fleet (65536 x 1 + 65536 x 8), Poisson rho=0.9, d-choice (sharded scale)",
            default_requests: 4_000_000,
            build: giant,
        },
        Scenario {
            id: "successor",
            title: "Baseline: load-oblivious consistent-hash successor placement",
            default_requests: 100_000,
            build: successor_baseline,
        },
        Scenario {
            id: "rendezvous",
            title: "Baseline: weighted rendezvous (capacity-fair, load-oblivious)",
            default_requests: 100_000,
            build: rendezvous_baseline,
        },
    ]
}

/// Looks up a scenario by id (case-insensitive).
#[must_use]
pub fn find_scenario(id: &str) -> Option<&'static Scenario> {
    let q = id.to_ascii_lowercase();
    registry().iter().find(|s| s.id == q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_findable() {
        let mut ids: Vec<&str> = registry().iter().map(|s| s.id).collect();
        assert!(find_scenario("TWO-CLASS").is_some());
        assert!(find_scenario("nope").is_none());
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), registry().len());
    }

    #[test]
    fn every_scenario_builds_a_valid_spec() {
        for s in registry() {
            let spec = (s.build)(7, s.default_requests / SMOKE_DIVISOR);
            spec.arrivals.validate();
            assert!(spec.speeds.n() > 0, "{}", s.id);
            assert!(spec.requests > 0, "{}", s.id);
            // Every scenario must be constructible into a simulator
            // without panicking (catches capacity/rate mismatches).
            let _ = crate::SimBuilder::new(spec).seed(7).build();
        }
    }

    #[test]
    fn smoke_divisor_keeps_runs_small() {
        for s in registry() {
            assert!(s.default_requests / SMOKE_DIVISOR >= 1_000, "{}", s.id);
        }
    }
}
