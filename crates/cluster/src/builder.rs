//! The unified simulator construction surface: one fluent
//! [`SimBuilder`] carrying the scenario (or explicit spec), the seed,
//! the scheduler choice, the telemetry registry and the worker count —
//! replacing the entry points that accreted across the serial engine
//! (`ClusterSim::new`, `ClusterSim::enable_telemetry`,
//! `ClusterSim::run_generic`), which remain as deprecated shims with
//! equivalence tests pinning them to this surface.
//!
//! ```
//! use bnb_cluster::{find_scenario, SimBuilder};
//!
//! let scenario = find_scenario("two-class").unwrap();
//! let metrics = SimBuilder::scenario(scenario, 5_000).seed(42).build().run();
//! assert_eq!(metrics.completed + metrics.dropped, 5_000);
//! ```
//!
//! Adding `.workers(4)` swaps the serial engine for the space-sharded
//! parallel one ([`ShardedClusterSim`]) — a *different* simulator
//! (placement reads a frozen per-epoch view rather than the
//! instantaneous one) whose output is a pure function of
//! `(spec, seed)`, byte-identical under any worker count.

use crate::metrics::ClusterMetrics;
use crate::scenario::Scenario;
use crate::sharded::ShardedClusterSim;
use crate::sim::{ClusterEvent, ClusterSim, ClusterSpec};
use bnb_queueing::calendar::CalendarQueue;
use bnb_queueing::events::EventQueue;
use bnb_telemetry::{MetricsSnapshot, Registry};

/// Which event scheduler drives a serial run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// The slab timing wheel (the production default; eligible specs
    /// take the fused fast path on it).
    #[default]
    Calendar,
    /// The binary heap — the differential oracle. Pinning it opts out
    /// of the fused fast path by design.
    Heap,
}

/// Where the spec comes from: given directly, or deferred through a
/// scenario recipe (which needs the *final* seed — `zipf` draws its
/// capacity vector from it).
#[derive(Debug, Clone)]
enum Source {
    Spec(ClusterSpec),
    Scenario {
        build: fn(u64, u64) -> ClusterSpec,
        requests: u64,
    },
}

/// Fluent construction of any cluster simulator. See the module docs.
#[derive(Debug, Clone)]
pub struct SimBuilder {
    source: Source,
    seed: u64,
    scheduler: Scheduler,
    registry: Option<Registry>,
    workers: Option<usize>,
}

impl SimBuilder {
    /// Starts from an explicit spec. Defaults: seed 0, calendar
    /// scheduler, telemetry off, serial execution.
    #[must_use]
    pub fn new(spec: ClusterSpec) -> Self {
        SimBuilder {
            source: Source::Spec(spec),
            seed: 0,
            scheduler: Scheduler::default(),
            registry: None,
            workers: None,
        }
    }

    /// Starts from a registry scenario at the given request budget. The
    /// spec is materialised at [`SimBuilder::build`] time with the
    /// final seed (scenario recipes may derive fleet parameters from
    /// it).
    #[must_use]
    pub fn scenario(scenario: &Scenario, requests: u64) -> Self {
        SimBuilder {
            source: Source::Scenario {
                build: scenario.build,
                requests,
            },
            seed: 0,
            scheduler: Scheduler::default(),
            registry: None,
            workers: None,
        }
    }

    /// Sets the run seed (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins the serial event scheduler (default: calendar queue).
    /// Incompatible with [`SimBuilder::workers`] — the sharded engine
    /// owns a per-shard scheduler.
    #[must_use]
    pub fn scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Enables per-component telemetry from a [`Registry`]. Telemetry
    /// is schedule-invisible: it cannot change any simulation artifact.
    /// (The sharded engine's counters are always on, like the serial
    /// engine's scheduler-internals counters; the registry only
    /// switches wall-clock spans, which the sharded engine does not
    /// record.)
    #[must_use]
    pub fn telemetry(mut self, registry: &Registry) -> Self {
        self.registry = Some(*registry);
        self
    }

    /// Runs on the space-sharded parallel engine with `workers` worker
    /// threads (at most one per server). Each worker owns one contiguous
    /// shard of the fleet, cut so the shards expect near-equal traffic:
    /// near-equal speed sums under d-choice and rendezvous, which route
    /// by speed, and equal slot counts under the speed-blind ring
    /// policies. The cut is derived from the spec alone. Output is
    /// byte-identical under any worker count.
    ///
    /// # Panics
    /// [`SimBuilder::build`] panics if `workers` is zero.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Materialises the spec and constructs the simulator.
    ///
    /// # Panics
    /// Panics if the spec is invalid (same validation as the engines),
    /// if `workers(0)` was requested, or if both a worker count and the
    /// heap scheduler were pinned (the sharded engine owns its
    /// per-shard scheduler, so a scheduler override cannot be honoured).
    #[must_use]
    pub fn build(self) -> Sim {
        let spec = match self.source {
            Source::Spec(spec) => spec,
            Source::Scenario { build, requests } => build(self.seed, requests),
        };
        if let Some(workers) = self.workers {
            assert!(
                self.scheduler == Scheduler::Calendar,
                "the sharded engine owns its per-shard scheduler; \
                 drop the scheduler override or the worker count"
            );
            // The registry is accepted and ignored: sharded telemetry
            // is counters-only and always on (see `telemetry`).
            return Sim::Sharded(Box::new(ShardedClusterSim::new(spec, self.seed, workers)));
        }
        match self.scheduler {
            Scheduler::Calendar => {
                let mut sim = ClusterSim::with_scheduler(spec, self.seed);
                if let Some(reg) = &self.registry {
                    sim.set_telemetry(reg);
                }
                Sim::Calendar(Box::new(sim))
            }
            Scheduler::Heap => {
                let mut sim =
                    ClusterSim::<EventQueue<ClusterEvent>>::with_scheduler(spec, self.seed);
                if let Some(reg) = &self.registry {
                    sim.set_telemetry(reg);
                }
                Sim::Heap(Box::new(sim))
            }
        }
    }
}

/// A built simulator, ready to run: the serial engine on either
/// scheduler, or the space-sharded parallel engine. One `run`/
/// `telemetry_snapshot` surface over all three.
#[derive(Debug)]
pub enum Sim {
    /// Serial engine on the calendar-queue scheduler (fused fast path
    /// for eligible specs).
    Calendar(Box<ClusterSim<CalendarQueue<ClusterEvent>>>),
    /// Serial engine pinned to the binary-heap oracle.
    Heap(Box<ClusterSim<EventQueue<ClusterEvent>>>),
    /// The space-sharded parallel engine.
    Sharded(Box<ShardedClusterSim>),
}

impl Sim {
    /// Runs the full request budget and returns the final metrics.
    /// A second call is a no-op returning the same metrics.
    pub fn run(&mut self) -> ClusterMetrics {
        match self {
            Sim::Calendar(sim) => sim.run(),
            Sim::Heap(sim) => sim.run(),
            Sim::Sharded(sim) => sim.run(),
        }
    }

    /// Harvests the run's telemetry snapshot (see the engines' own
    /// `telemetry_snapshot` docs for what each records).
    #[must_use]
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        match self {
            Sim::Calendar(sim) => sim.telemetry_snapshot(),
            Sim::Heap(sim) => sim.telemetry_snapshot(),
            Sim::Sharded(sim) => sim.telemetry_snapshot(),
        }
    }

    /// The spec this simulator runs.
    #[must_use]
    pub fn spec(&self) -> &ClusterSpec {
        match self {
            Sim::Calendar(sim) => sim.spec(),
            Sim::Heap(sim) => sim.spec(),
            Sim::Sharded(sim) => sim.spec(),
        }
    }
}

#[cfg(test)]
mod tests {
    // The deprecated shims are half of what these tests pin.
    #![allow(deprecated)]
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use crate::placement::PlacementSpec;
    use crate::scenario::find_scenario;
    use bnb_core::CapacityVector;

    fn base_spec() -> ClusterSpec {
        let speeds = CapacityVector::two_class(8, 1, 8, 8);
        ClusterSpec {
            arrivals: ArrivalProcess::Poisson {
                rate: 0.8 * speeds.total() as f64,
            },
            speeds,
            placement: PlacementSpec::DChoice { d: 2 },
            queue_capacity: Some(64),
            churn: None,
            requests: 10_000,
        }
    }

    #[test]
    fn builder_equals_deprecated_new() {
        let via_builder = SimBuilder::new(base_spec()).seed(11).build().run();
        let via_shim = ClusterSim::new(base_spec(), 11).run();
        assert_eq!(
            via_builder, via_shim,
            "the shim must be the builder's serial path"
        );
    }

    #[test]
    fn builder_telemetry_equals_deprecated_enable_telemetry() {
        let reg = Registry::enabled();
        let mut built = SimBuilder::new(base_spec()).seed(3).telemetry(&reg).build();
        let via_builder = built.run();
        let mut shim = ClusterSim::new(base_spec(), 3);
        shim.enable_telemetry(&reg);
        let via_shim = shim.run();
        assert_eq!(
            via_builder, via_shim,
            "telemetry is schedule-invisible on both"
        );
        assert_eq!(
            built.telemetry_snapshot().counter("sim.arrived"),
            shim.telemetry_snapshot().counter("sim.arrived"),
        );
    }

    #[test]
    fn builder_heap_equals_deprecated_run_generic() {
        // run_generic pins the generic loop; the heap scheduler is also
        // generic-loop-driven, and neither choice may leak into the
        // metrics — so all three surfaces agree bitwise.
        let heap = SimBuilder::new(base_spec())
            .seed(5)
            .scheduler(Scheduler::Heap)
            .build()
            .run();
        let generic = ClusterSim::new(base_spec(), 5).run_generic();
        let fused = SimBuilder::new(base_spec()).seed(5).build().run();
        assert_eq!(heap, generic);
        assert_eq!(heap, fused);
    }

    #[test]
    fn builder_scenario_materialises_with_the_final_seed() {
        // `zipf` derives its capacity vector from the seed, so deferred
        // materialisation must see the seed set *after* `scenario()`.
        let sc = find_scenario("zipf").unwrap();
        let a = SimBuilder::scenario(sc, 5_000).seed(9).build().run();
        let b = ClusterSim::new((sc.build)(9, 5_000), 9).run();
        assert_eq!(a, b);
    }

    #[test]
    fn builder_workers_selects_the_sharded_engine() {
        let mut sim = SimBuilder::new(base_spec()).seed(7).workers(3).build();
        assert!(matches!(sim, Sim::Sharded(_)));
        let m = sim.run();
        assert_eq!(m.completed + m.dropped, m.requests);
        assert_eq!(sim.spec().requests, 10_000);
    }

    #[test]
    #[should_panic(expected = "per-shard scheduler")]
    fn workers_plus_heap_scheduler_rejected() {
        let _ = SimBuilder::new(base_spec())
            .workers(2)
            .scheduler(Scheduler::Heap)
            .build();
    }
}
