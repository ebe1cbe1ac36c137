//! The discrete-event cluster simulator: arrivals → placement → finite
//! queues → departures, with optional churn.
//!
//! ## The drive loop
//!
//! Every serial run goes through one fused loop that merges up to three
//! event streams in time order: the pre-sampled arrivals, the pending
//! departures and, when the spec churns, the periodic churn ticks.
//! Arrivals win exact time ties against both. Departures are carried as
//! bare `u32` server indices through a slot-keyed [`LazyBoard`]: the
//! fleet holds at most one pending departure per server, so a schedule
//! is two array stores and a pop validates a candidate against the
//! authoritative per-slot array (no per-event enum dispatch, no heap
//! or wheel maintenance). The clock, the next arrival, the board's
//! front time and the next churn tick all live in registers. A
//! **next-free bypass** on top serves a request landing on an idle
//! server inline whenever its departure is provably the next event,
//! skipping the board entirely.
//!
//! Placement goes through the engine's `place`, fed a counter-hashed
//! request key only when the policy is key-driven (the ring policies).
//! The loop is monomorphised over one switch fixed by the spec:
//! `CHURN` adds the tick stream and the staleness check; without it
//! both compile away. A server that leaves keeps its pending departure
//! on the board: slots are never revived, so when that departure pops
//! it advances the clock and is skipped as stale.
//!
//! **Tick/departure ties.** A departure and a churn tick at exactly
//! the same time resolve departure-first here. The heap loop this
//! engine replaced (kept as the test reference) resolved them by
//! scheduling order, so there a tick scheduled before the departure
//! went first. The two rules agree whenever no such exact tie occurs,
//! which is almost surely: departure times carry a continuous
//! Exp-distributed service time. A unit test builds an exact tie by
//! hand and pins both rules.
//!
//! ## Determinism contract
//!
//! A run is a pure function of `(spec, seed)`. Randomness flows through
//! **dedicated derived streams** — arrivals, service, placement
//! candidates, tie-breaks and churn each own a
//! [`derive_seed`]-separated RNG — and each stream is consumed in
//! event order (the board breaks time ties by insertion sequence).
//! Within a stream, draws are block pre-sampled (arrival gaps and
//! Exp(1) service variates through
//! [`bnb_distributions::ExponentialBlock`]'s ziggurat stream, placement
//! candidates through the batched alias sampler), which moves RNG work
//! off the per-event path without changing any draw: the same seed
//! replays the identical event trace, byte for byte, in the rendered
//! metrics. The unit tests replay every registry scenario, and random
//! churning specs, through a plain event loop on the binary heap
//! ([`bnb_queueing::EventQueue`]) and require bitwise-identical
//! metrics.

use crate::arrivals::{ArrivalProcess, ArrivalSampler};
use crate::fleet::Fleet;
use crate::metrics::ClusterMetrics;
use crate::telemetry::SimTelemetry;
use bnb_core::CapacityVector;
use bnb_distributions::{derive_seed, ExponentialBlock, Xoshiro256PlusPlus};
use bnb_hashring::hash::mix64;
use bnb_queueing::events::Time;
use bnb_queueing::server::Admission;
use bnb_queueing::{LazyBoard, LazyStats};
use bnb_router::{LoadView, Membership, PlacementEngine, PlacementSpec};
use bnb_stats::Mergeable;
use bnb_telemetry::{MetricsSnapshot, Registry};

#[cfg(test)]
mod reference;

/// Stream id of the arrival-time RNG (gaps + thinning acceptances).
/// Shared with the sharded engine: both derive the arrival stream as
/// `derive_seed(seed, ARRIVAL_STREAM, 0)` so the offered traffic is a
/// function of the seed alone, not of which engine replays it.
pub(crate) const ARRIVAL_STREAM: u64 = 0x6172_7276; // "arrv"
/// Stream id of the Exp(1) service-variate RNG.
pub(crate) const SERVICE_STREAM: u64 = 0x7372_7663; // "srvc"
/// Stream id of the churn victim-selection RNG.
pub(crate) const CHURN_STREAM: u64 = 0x6368_726E; // "chrn"

/// Periodic churn: every `interval` time units (starting at `start`),
/// one random alive server leaves and a fresh server of the same speed
/// joins — the fleet's capacity mix is stationary while its membership
/// is not, matching the paper's P2P motivation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// First churn event time.
    pub start: Time,
    /// Interval between churn events.
    pub interval: Time,
}

/// A complete, runnable cluster specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Server speeds (the paper's non-uniform bin capacities).
    pub speeds: CapacityVector,
    /// Placement policy routing each request.
    pub placement: PlacementSpec,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Per-server bound on jobs in the system (`None` = unbounded; then
    /// the offered load must stay below capacity for the run to drain).
    pub queue_capacity: Option<u64>,
    /// Optional churn schedule.
    pub churn: Option<ChurnConfig>,
    /// Number of requests to offer.
    pub requests: u64,
}

/// The serial simulator. Construct it through
/// [`SimBuilder`](crate::SimBuilder).
#[derive(Debug)]
pub struct ClusterSim {
    spec: ClusterSpec,
    fleet: Fleet,
    router: PlacementEngine,
    arrivals: ArrivalSampler,
    /// Block-sampled Exp(1) service variates; scaled by `1/speed` at
    /// the departure-scheduling site.
    service: ExponentialBlock,
    churn_rng: Xoshiro256PlusPlus,
    key_seed: u64,
    arrived: u64,
    orphaned: u64,
    joins: u64,
    leaves: u64,
    latencies: Vec<f64>,
    /// Metrics of the finished run (computed once; reruns return it).
    result: Option<ClusterMetrics>,
    /// Per-component spans (inert unless the builder passed a
    /// registry). A separate field so the drive loop can time one
    /// component while borrowing the router/fleet disjointly.
    tele: SimTelemetry,
    /// Lazy-deletion internals folded out of the drive loop's local
    /// departure board when it drains (see [`LazyBoard`]).
    lazy_stats: LazyStats,
    /// Requests served inline by the next-free bypass: the request
    /// landed on an idle server and its departure was provably the next
    /// event, so it never entered the board at all.
    next_free_bypasses: u64,
}

impl ClusterSim {
    /// Builds the simulator.
    ///
    /// # Panics
    /// Panics if the spec is invalid: empty fleet, bad placement
    /// parameters, invalid arrival process, non-positive churn interval,
    /// or an unbounded-queue spec whose arrival rate reaches the fleet's
    /// service capacity (the run could not drain).
    pub(crate) fn new(spec: ClusterSpec, seed: u64) -> Self {
        spec.arrivals.validate();
        if let Some(churn) = &spec.churn {
            assert!(
                churn.interval > 0.0 && churn.start >= 0.0,
                "churn schedule must be positive"
            );
        }
        if spec.queue_capacity.is_none() {
            let capacity = spec.speeds.total() as f64;
            assert!(
                spec.arrivals.peak_rate() < capacity,
                "unbounded queues need peak arrival rate {} below total speed {capacity}",
                spec.arrivals.peak_rate()
            );
        }
        let fleet = Fleet::new(spec.speeds.as_slice(), spec.queue_capacity);
        // A fresh fleet's membership is slot i = id i at speeds[i]:
        // built from the speeds rather than by scanning every record.
        let membership = Membership::from_speeds(spec.speeds.as_slice());
        let router = PlacementEngine::new(spec.placement, &membership, seed);
        ClusterSim {
            fleet,
            router,
            arrivals: ArrivalSampler::new(spec.arrivals, derive_seed(seed, ARRIVAL_STREAM, 0)),
            service: ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(derive_seed(
                seed,
                SERVICE_STREAM,
                0,
            ))),
            churn_rng: Xoshiro256PlusPlus::from_u64_seed(derive_seed(seed, CHURN_STREAM, 0)),
            key_seed: seed,
            arrived: 0,
            orphaned: 0,
            joins: 0,
            leaves: 0,
            latencies: Vec::new(),
            result: None,
            tele: SimTelemetry::disabled(),
            lazy_stats: LazyStats::new(),
            next_free_bypasses: 0,
            spec,
        }
    }

    /// Switches the per-component spans on (or reconfigures them) from
    /// a [`Registry`]. Call before [`ClusterSim::run`]. Telemetry is
    /// **schedule-invisible**: it draws no RNG values and schedules no
    /// events, so the metrics of a telemetry-on run are bitwise those
    /// of a telemetry-off run — the differential tests pin it.
    pub(crate) fn set_telemetry(&mut self, registry: &Registry) {
        self.tele = SimTelemetry::from_registry(registry);
    }

    /// Harvests everything this run observed — span latency
    /// distributions and trace events, the departure board's
    /// lazy-deletion counters, the next-free bypass count and
    /// arrival-thinning counts — into one exportable snapshot.
    /// Meaningful after [`ClusterSim::run`]; the counters are live
    /// (always on) even when the spans were never enabled.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        self.tele.harvest(
            &self.lazy_stats,
            self.next_free_bypasses,
            self.arrivals.thinning_counts(),
            self.arrived,
        )
    }

    /// Runs the full request budget and drains the queues; returns the
    /// final metrics. A second call is a no-op returning the same
    /// metrics: the budget is already spent.
    pub fn run(&mut self) -> ClusterMetrics {
        if let Some(result) = &self.result {
            return result.clone();
        }
        let horizon = if self.spec.churn.is_some() {
            self.drive::<true>()
        } else {
            self.drive::<false>()
        };
        let metrics = ClusterMetrics::collect(
            &self.fleet,
            std::mem::take(&mut self.latencies),
            self.arrived,
            self.orphaned,
            self.joins,
            self.leaves,
            horizon,
        );
        self.result = Some(metrics.clone());
        metrics
    }

    /// The drive loop (see the module docs); returns the time of the
    /// last event. `CHURN` must equal "the spec churns";
    /// [`ClusterSim::run`] picks it once from the spec.
    ///
    /// Departures and churn ticks strictly before the next arrival go
    /// first, in time order (a departure wins an exact tie with a
    /// tick); then the arrival is placed. The next arrival is drawn
    /// *before* placement so the bypass test can compare against it;
    /// every RNG stream is still consumed in its own event order, since
    /// the streams are independently seeded.
    ///
    /// **Next-free bypass.** When a request lands on an idle server and
    /// its departure time is strictly before the next arrival (arrivals
    /// win ties, so a tie disqualifies), strictly below the board's
    /// front time (mirrored exactly in the `dep_bound` register) and
    /// strictly before the next churn tick, the job is served
    /// start-to-finish inline ([`Fleet::serve_one_now`]) and its
    /// departure never enters the board. The strict comparisons make
    /// the trace position unambiguous: the departure would have popped
    /// before every pending event, and the server's queue goes
    /// 0 → 1 → 0 with no observer in between (no tick can retire the
    /// server meanwhile), so every counter and the latency-push order
    /// are unchanged.
    ///
    /// **Churn.** Ticks inside the budget always churn. The tick
    /// pending when the budget is spent still fires during the drain —
    /// it only stops churn, so all it can change is the horizon, when
    /// it is the last event.
    fn drive<const CHURN: bool>(&mut self) -> Time {
        /// Arrival times pre-sampled per refill. Arrivals chain off
        /// their own stream only, so a block is bitwise the scalar
        /// sequence; the size just keeps the thinning loop hot (the
        /// non-stationary processes re-enter a sinusoid/envelope loop
        /// per request otherwise) without outrunning the latency the
        /// drain loop can observe.
        const ARRIVAL_BLOCK: usize = 64;
        debug_assert_eq!(CHURN, self.spec.churn.is_some());
        let requests = self.spec.requests;
        if requests == 0 {
            return 0.0;
        }
        self.latencies.reserve(requests as usize);
        let mut departures = LazyBoard::with_slots(self.fleet.n_slots());
        let mut now = 0.0;
        let mut next_arrival = Some(self.arrivals.next_after(now));
        let mut block: Vec<Time> = Vec::new();
        let mut block_pos = 0usize;
        // The board's front time, mirrored into a register: `schedule`
        // can only lower it (`min` below), a pop invalidates it, and
        // `min_time_bound` is exact, so the mirror always equals the
        // next departure time (`INFINITY` for an empty board). The
        // per-arrival drain probe and the bypass test then cost one
        // f64 compare each instead of a board call.
        let mut dep_bound = f64::INFINITY;
        // The churn stream: its next tick, and the period that chains
        // each tick off the one before.
        let (mut next_tick, interval) = match self.spec.churn {
            Some(churn) if CHURN => (churn.start, churn.interval),
            _ => (f64::INFINITY, f64::INFINITY),
        };
        while let Some(t_arr) = next_arrival {
            loop {
                if CHURN && next_tick < t_arr && next_tick < dep_bound {
                    now = next_tick;
                    self.churn_tick(now);
                    next_tick = now + interval;
                } else if dep_bound < t_arr {
                    let (time, server) = departures.pop().expect("front at dep_bound");
                    now = time;
                    self.depart::<CHURN>(&mut departures, server as usize, now);
                    dep_bound = departures.min_time_bound().unwrap_or(f64::INFINITY);
                } else {
                    break;
                }
            }
            now = t_arr;
            self.arrived += 1;
            // The refill chains off `now` — the arrival just consumed —
            // exactly where the scalar stream was.
            next_arrival = if self.arrived < requests {
                if block_pos == block.len() {
                    let n = ((requests - self.arrived) as usize).min(ARRIVAL_BLOCK);
                    let ta = self.tele.arrival.enter();
                    self.arrivals.fill_after(now, n, &mut block);
                    self.tele.arrival.exit(ta);
                    block_pos = 0;
                }
                block_pos += 1;
                Some(block[block_pos - 1])
            } else {
                None
            };
            let tp = self.tele.place.enter();
            // Counter-hashed request key: deterministic, uniform over
            // u64 — only computed for the key-driven (ring) policies.
            let key = if self.router.needs_key() {
                mix64(self.key_seed ^ self.arrived.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            } else {
                0
            };
            let target = self.router.place(&self.fleet, key);
            if LoadView::load(&self.fleet, target).0 != 0 {
                // Busy target: the request queues (or drops); no
                // departure to schedule either way.
                let admission = self.fleet.try_join(target, now);
                debug_assert_ne!(admission, Admission::StartedService);
                self.tele.place.exit(tp);
                continue;
            }
            self.tele.place.exit(tp);
            // Idle target: service starts now (an idle queue always
            // admits), so draw the service time and decide where the
            // departure goes. Exp(1) work at rate `speed` ⇒ Exp(speed)
            // service time, through the precomputed reciprocal.
            let ts = self.tele.schedule.enter();
            let service = self.service.next() * self.fleet.inv_speed_of(target);
            let t_dep = now + service;
            let is_next = next_arrival.is_none_or(|t| t_dep < t)
                && t_dep < dep_bound
                && (!CHURN || t_dep < next_tick);
            if is_next {
                // Next-free bypass: serve inline, skip the board.
                self.next_free_bypasses += 1;
                self.tele.schedule.exit(ts);
                let td = self.tele.depart.enter();
                let latency = self.fleet.serve_one_now(target, now, t_dep);
                self.latencies.push(latency);
                self.tele.depart.exit(td);
                now = t_dep;
            } else {
                let admission = self.fleet.try_join(target, now);
                debug_assert_eq!(admission, Admission::StartedService);
                departures.schedule(target as u32, t_dep);
                dep_bound = dep_bound.min(t_dep);
                self.tele.schedule.exit(ts);
            }
        }
        // Budget offered; drain the queues.
        while let Some((time, server)) = departures.pop() {
            now = time;
            self.depart::<CHURN>(&mut departures, server as usize, now);
        }
        if CHURN {
            // The tick pending past the budget fires in time order and
            // stops churn: it moves the clock only if it comes last.
            now = now.max(next_tick);
        }
        // The local departure board dies with this loop; fold its
        // internals counters into the run's stats first.
        self.lazy_stats.merge_from(departures.stats());
        now
    }

    /// A departure popped off the board at `now`. Under churn it may be
    /// stale — its server left since it was scheduled — and is skipped
    /// (slots are never revived, so `is_alive` fully identifies
    /// staleness); without churn every departure is live.
    #[inline]
    fn depart<const CHURN: bool>(&mut self, departures: &mut LazyBoard, server: usize, now: Time) {
        if CHURN && !self.fleet.server(server).is_alive() {
            return;
        }
        let td = self.tele.depart.enter();
        let (latency, more) = self.fleet.depart(server, now);
        self.latencies.push(latency);
        self.tele.depart.exit(td);
        if more {
            let ts = self.tele.schedule.enter();
            let service = self.service.next() * self.fleet.inv_speed_of(server);
            departures.schedule(server as u32, now + service);
            self.tele.schedule.exit(ts);
        }
    }

    /// One churn tick inside the request budget: a random alive server
    /// leaves (orphaning its backlog) and a fresh server of the same
    /// speed joins — stationary capacity mix, fresh arcs on the ring.
    #[cold]
    fn churn_tick(&mut self, now: Time) {
        debug_assert!(self.arrived < self.spec.requests);
        let alive = self.fleet.alive_indices();
        if alive.len() > 1 {
            let victim = alive[self.churn_rng.next_below(alive.len() as u64) as usize];
            let speed = self.fleet.server(victim).speed();
            self.orphaned += self.fleet.deactivate(victim, now);
            self.leaves += 1;
            self.fleet.activate_new(speed);
            self.joins += 1;
            self.router.rebuild(&self.fleet.membership());
        }
    }

    /// Read access to the fleet (used by tests and the CLI's per-server
    /// output).
    #[must_use]
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The spec this simulator runs.
    #[must_use]
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            requests: 20_000,
        }
    }

    #[test]
    fn conservation_without_churn() {
        let mut sim = ClusterSim::new(base_spec(), 1);
        let m = sim.run();
        assert_eq!(m.requests, 20_000);
        assert_eq!(
            m.completed + m.dropped,
            m.requests,
            "every request completes or drops when nobody leaves"
        );
        assert_eq!(m.orphaned, 0);
        assert!(m.horizon > 0.0);
        assert!(m.latency[0] > 0.0, "positive median latency");
        assert!(m.latency[0] <= m.latency[1] && m.latency[1] <= m.latency[2]);
        assert!(m.latency[2] <= m.latency[3]);
    }

    #[test]
    fn zero_requests_simulates_nothing() {
        // Churn included: with no budget to offer, not even the first
        // tick fires, so the horizon stays at zero.
        let mut spec = base_spec();
        spec.requests = 0;
        spec.churn = Some(ChurnConfig {
            start: 0.0,
            interval: 1.0,
        });
        let mut sim = ClusterSim::new(spec, 1);
        let m = sim.run();
        assert_eq!(m.requests, 0);
        assert_eq!(m.completed, 0);
        assert_eq!(m.leaves, 0);
        assert_eq!(m.horizon, 0.0);
    }

    #[test]
    fn rerun_is_a_noop_returning_the_same_metrics() {
        let mut sim = ClusterSim::new(base_spec(), 2);
        let first = sim.run();
        let second = sim.run();
        assert_eq!(first, second, "a drained simulator must not replay");
    }

    #[test]
    fn same_seed_same_metrics_different_seed_different() {
        let run = |seed| ClusterSim::new(base_spec(), seed).run();
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "identical seeds must replay identically");
        let c = run(43);
        assert_ne!(a, c, "different seeds should differ (w.o.p.)");
    }

    #[test]
    fn conservation_with_churn() {
        let mut spec = base_spec();
        spec.churn = Some(ChurnConfig {
            start: 5.0,
            interval: 10.0,
        });
        spec.requests = 30_000;
        let mut sim = ClusterSim::new(spec, 9);
        let m = sim.run();
        assert!(m.leaves > 0, "churn must actually fire");
        assert_eq!(m.joins, m.leaves);
        assert_eq!(
            m.completed + m.dropped + m.orphaned,
            m.requests,
            "requests partition into completed, dropped and orphaned"
        );
    }

    #[test]
    fn every_placement_policy_runs_end_to_end() {
        for placement in [
            PlacementSpec::DChoice { d: 2 },
            PlacementSpec::ConsistentHash { vnodes: 8 },
            PlacementSpec::Rendezvous,
            PlacementSpec::HashThenProbe { d: 2, vnodes: 8 },
        ] {
            let mut spec = base_spec();
            spec.placement = placement;
            spec.requests = 5_000;
            let m = ClusterSim::new(spec, 3).run();
            assert_eq!(
                m.completed + m.dropped,
                5_000,
                "{}: conservation",
                placement.name()
            );
            assert!(
                m.completed > 0,
                "{}: something must complete",
                placement.name()
            );
        }
    }

    #[test]
    fn load_aware_placement_beats_oblivious_on_peak_queue() {
        // The paper's claim, live: d-choice keeps the peak normalised
        // queue far below successor placement on the same traffic.
        let run = |placement| {
            let mut spec = base_spec();
            spec.placement = placement;
            spec.requests = 40_000;
            spec.queue_capacity = Some(10_000); // effectively unbounded
            ClusterSim::new(spec, 17).run().max_normalized_queue
        };
        let dchoice = run(PlacementSpec::DChoice { d: 2 });
        let successor = run(PlacementSpec::ConsistentHash { vnodes: 8 });
        assert!(
            dchoice < successor,
            "d-choice peak {dchoice} should beat successor placement {successor}"
        );
    }

    #[test]
    fn overload_drops_instead_of_diverging() {
        let speeds = CapacityVector::uniform(8, 2);
        let spec = ClusterSpec {
            arrivals: ArrivalProcess::Poisson {
                rate: 2.0 * speeds.total() as f64,
            },
            speeds,
            placement: PlacementSpec::DChoice { d: 2 },
            queue_capacity: Some(8),
            churn: None,
            requests: 20_000,
        };
        let m = ClusterSim::new(spec, 5).run();
        assert!(
            m.dropped > 4_000,
            "ρ=2 must shed heavily, got {}",
            m.dropped
        );
        assert!(m.max_queue_len <= 8);
        assert_eq!(m.completed + m.dropped, 20_000);
    }

    #[test]
    #[should_panic(expected = "below total speed")]
    fn unbounded_overload_rejected() {
        let speeds = CapacityVector::uniform(4, 1);
        let spec = ClusterSpec {
            arrivals: ArrivalProcess::Poisson { rate: 8.0 },
            speeds,
            placement: PlacementSpec::DChoice { d: 2 },
            queue_capacity: None,
            churn: None,
            requests: 100,
        };
        let _ = ClusterSim::new(spec, 0);
    }
}
