//! The reference the drive loop is judged against: a plain event loop
//! on the binary heap ([`EventQueue`]), with every departure and churn
//! tick a scheduler event, no departure board, no bypass and no
//! monomorphic dispatch. Scheduled events strictly before the next
//! arrival pop first (ties among them by insertion sequence), then the
//! arrival; a departure of a server that has left is popped, advances
//! the clock and is dropped; the tick that finds the budget spent
//! stops churn. The production loop must replay it bit for bit.
//!
//! One rule differs on purpose: at an exact departure/tick tie the
//! reference goes by scheduling order, the production loop lets the
//! departure go first. Such ties have probability zero on real specs
//! (departure times carry continuous service draws), so the
//! differentials below never meet one;
//! `exact_tick_departure_tie_resolves_departure_first` builds one by
//! hand and pins both rules.

use super::*;
use crate::scenario::{registry, SMOKE_DIVISOR};
use bnb_queueing::events::{EventQueue, EventScheduler};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Event {
    Departure(usize),
    ChurnTick,
}

impl ClusterSim {
    /// Runs the budget through the reference loop.
    fn run_reference(mut self) -> ClusterMetrics {
        let mut events: EventQueue<Event> = EventQueue::new();
        let mut now = 0.0;
        let mut next_arrival = None;
        if self.spec.requests > 0 {
            next_arrival = Some(self.arrivals.next_after(0.0));
            if let Some(churn) = self.spec.churn {
                events.schedule(churn.start, Event::ChurnTick);
            }
        }
        loop {
            let popped = match next_arrival {
                Some(t_arr) => events.pop_if_before(t_arr),
                None => events.pop(),
            };
            let Some((time, event)) = popped else {
                let Some(t_arr) = next_arrival else { break };
                now = t_arr;
                next_arrival = self.reference_arrival(&mut events, now);
                continue;
            };
            now = time;
            match event {
                Event::Departure(server) => {
                    if self.fleet.server(server).is_alive() {
                        let (latency, more) = self.fleet.depart(server, time);
                        self.latencies.push(latency);
                        if more {
                            self.reference_schedule(&mut events, server, now);
                        }
                    }
                }
                Event::ChurnTick => {
                    if self.arrived < self.spec.requests {
                        self.churn_tick(time);
                        let interval = self.spec.churn.expect("tick implies churn").interval;
                        events.schedule(time + interval, Event::ChurnTick);
                    }
                }
            }
        }
        ClusterMetrics::collect(
            &self.fleet,
            self.latencies,
            self.arrived,
            self.orphaned,
            self.joins,
            self.leaves,
            now,
        )
    }

    /// Places the arrival at `now`; returns the next arrival time.
    fn reference_arrival(&mut self, events: &mut EventQueue<Event>, now: Time) -> Option<Time> {
        self.arrived += 1;
        let key = if self.router.needs_key() {
            mix64(self.key_seed ^ self.arrived.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        } else {
            0
        };
        let target = self.router.place(&self.fleet, key);
        if self.fleet.try_join(target, now) == Admission::StartedService {
            self.reference_schedule(events, target, now);
        }
        (self.arrived < self.spec.requests).then(|| self.arrivals.next_after(now))
    }

    fn reference_schedule(&mut self, events: &mut EventQueue<Event>, server: usize, now: Time) {
        let service = self.service.next() * self.fleet.inv_speed_of(server);
        events.schedule(now + service, Event::Departure(server));
    }
}

fn reference(spec: ClusterSpec, seed: u64) -> ClusterMetrics {
    ClusterSim::new(spec, seed).run_reference()
}

#[test]
fn production_loop_replays_the_reference_on_every_scenario() {
    // Registry-wide, with the spans off and fully on: neither the
    // drive loop nor telemetry may move a byte of any scenario's
    // rendered output — quantiles, per-server curves, churn counters.
    let render =
        |m: &ClusterMetrics| m.render_table() + &m.to_series_set("ref", "ref").to_plot_text();
    for scenario in registry() {
        let requests = (scenario.default_requests / SMOKE_DIVISOR).min(5_000);
        let seed = 0xF0_5ED;
        let spec = (scenario.build)(seed, requests);
        let expected = reference(spec.clone(), seed);
        let plain = ClusterSim::new(spec.clone(), seed).run();
        let mut traced = ClusterSim::new(spec, seed);
        traced.set_telemetry(&Registry::with_sampling(0, 1 << 14));
        let traced = traced.run();
        assert_eq!(plain, expected, "{}: drive loop vs reference", scenario.id);
        assert_eq!(traced, expected, "{}: telemetry leaked", scenario.id);
        assert_eq!(render(&plain), render(&expected), "{}", scenario.id);
    }
}

/// A small random fleet and workload: every placement policy,
/// d ∈ {1, 2, 3}, tight queues, and (usually) churn ticks dense enough
/// that victims are often busy and their departures go stale.
fn small_spec() -> impl Strategy<Value = ClusterSpec> {
    (
        prop::collection::vec(1u64..9, 2..10),
        (0usize..4, 1usize..4, 1usize..9),
        2u64..9,
        0.3f64..1.6,
        (0u32..4, 0.0f64..3.0, 0.05f64..1.5),
        1u64..2_001,
    )
        .prop_map(
            |(speeds, (policy, d, vnodes), cap, load, (churny, start, interval), requests)| {
                let speeds = CapacityVector::from_vec(speeds);
                let placement = match policy {
                    0 => PlacementSpec::DChoice { d },
                    1 => PlacementSpec::ConsistentHash { vnodes },
                    2 => PlacementSpec::Rendezvous,
                    _ => PlacementSpec::HashThenProbe { d, vnodes },
                };
                ClusterSpec {
                    arrivals: ArrivalProcess::Poisson {
                        rate: load * speeds.total() as f64,
                    },
                    speeds,
                    placement,
                    queue_capacity: Some(cap),
                    churn: (churny != 0).then_some(ChurnConfig { start, interval }),
                    requests,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn random_specs_replay_the_reference(spec in small_spec(), seed in any::<u64>()) {
        let expected = reference(spec.clone(), seed);
        let got = ClusterSim::new(spec.clone(), seed).run();
        prop_assert_eq!(got, expected, "{:?}", spec);
    }
}

#[test]
fn exact_tick_departure_tie_resolves_departure_first() {
    // Two servers; the first request's departure time `t_dep` is read
    // off the same streams the run will draw, and the first churn tick
    // is set to exactly `t_dep`. The seed is chosen so that the tick's
    // victim is that request's server, which makes the order visible:
    // departure first completes the job, tick first orphans it.
    let spec_at = |seed: u64| {
        let speeds = CapacityVector::uniform(2, 1);
        let spec = ClusterSpec {
            arrivals: ArrivalProcess::Poisson { rate: 1.0 },
            speeds,
            placement: PlacementSpec::DChoice { d: 2 },
            queue_capacity: Some(4),
            churn: Some(ChurnConfig {
                start: 0.0,
                interval: 1e6,
            }),
            requests: 40,
        };
        let mut probe = ClusterSim::new(spec.clone(), seed);
        let t_arr = probe.arrivals.next_after(0.0);
        let target = probe.router.place(&probe.fleet, 0);
        let t_dep = t_arr + probe.service.next() * probe.fleet.inv_speed_of(target);
        let victim = probe.churn_rng.next_below(2) as usize;
        (spec, t_dep, victim == target)
    };
    let (seed, (spec, t_dep, _)) = (0u64..)
        .map(|seed| (seed, spec_at(seed)))
        .find(|(_, (_, _, hits))| *hits)
        .expect("some seed retires the first request's server");
    let with_start = |start: Time| {
        let mut spec = spec.clone();
        spec.churn = Some(ChurnConfig {
            start,
            interval: 1e6,
        });
        spec
    };
    let tie = with_start(t_dep);
    let production = ClusterSim::new(tie.clone(), seed).run();
    let oracle = reference(tie, seed);
    // Production: the departure goes first, exactly as if the tick
    // came one ulp later.
    assert_eq!(
        production,
        ClusterSim::new(with_start(t_dep.next_up()), seed).run()
    );
    // Reference: the tick, scheduled before any departure, goes first,
    // exactly as if it came one ulp earlier.
    assert_eq!(oracle, reference(with_start(t_dep.next_down()), seed));
    // The only tick inside the budget is the tied one, so the two
    // rules differ by exactly the first request: completed in one,
    // orphaned in the other.
    assert_eq!(oracle.orphaned, production.orphaned + 1);
    assert_ne!(production, oracle);
}
