//! The queueing simulator: Poisson arrivals into d-choice routed,
//! heterogeneous-speed servers.

use crate::calendar::CalendarQueue;
use crate::events::{Event, EventScheduler, Time};
use crate::router::RoutingPolicy;
use crate::server::{Admission, Server};
use bnb_core::choice::{draw_candidates, ChoiceMode, Selection, MAX_D};
use bnb_core::CapacityVector;
use bnb_distributions::{AliasTable, Exponential, Xoshiro256PlusPlus};

/// Configuration of a queueing run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of candidate servers sampled per arrival.
    pub d: usize,
    /// Routing rule among the candidates.
    pub routing: RoutingPolicy,
    /// How candidates are sampled (the paper's default: proportional to
    /// speed).
    pub selection: Selection,
    /// Offered utilisation ρ: the arrival rate is `ρ · Σ speed` (each
    /// job carries Exp(1) work, server `i` serves at rate `speed_i`, so
    /// the system-wide service capacity is `Σ speed`). Unbounded queues
    /// require `ρ < 1` for stability; with a finite
    /// [`queue_capacity`](SystemConfig::queue_capacity) any `ρ > 0` is
    /// allowed — overload shows up as drops, not divergence.
    pub rho: f64,
    /// Per-server bound on jobs in the system (queue + in service);
    /// `None` (the default) keeps the queues unbounded.
    pub queue_capacity: Option<u64>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            d: 2,
            routing: RoutingPolicy::ShortestNormalizedQueue,
            selection: Selection::ProportionalToCapacity,
            rho: 0.9,
            queue_capacity: None,
        }
    }
}

/// Steady-state metrics of a finished run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueMetrics {
    /// Time-averaged total jobs in the system divided by `n`.
    pub mean_queue_len: f64,
    /// Largest *normalised* queue (`max_i max-observed q_i / c_i`).
    pub max_normalized_queue: f64,
    /// Largest raw queue length observed on any server.
    pub max_queue_len: u64,
    /// Completed jobs.
    pub completed: u64,
    /// Jobs dropped at full queues (always 0 with unbounded queues).
    pub dropped: u64,
    /// Simulated time horizon.
    pub horizon: Time,
}

/// The discrete-event system, scheduling through the
/// [`CalendarQueue`].
#[derive(Debug)]
pub struct QueueSystem {
    servers: Vec<Server>,
    sampler: AliasTable,
    config: SystemConfig,
    events: CalendarQueue<Event>,
    rng: Xoshiro256PlusPlus,
    arrival_dist: Exponential,
    now: Time,
}

impl QueueSystem {
    /// Builds the system on the given server speeds.
    ///
    /// # Panics
    /// Panics if `d` is out of range, `rho` is invalid (non-positive, or
    /// `≥ 1` while the queues are unbounded), or the selection weights
    /// are invalid.
    #[must_use]
    pub fn new(speeds: &CapacityVector, config: SystemConfig, seed: u64) -> Self {
        assert!(config.d >= 1 && config.d <= MAX_D, "d out of range");
        assert!(
            config.rho > 0.0 && config.rho.is_finite(),
            "utilisation must be positive, got {}",
            config.rho
        );
        assert!(
            config.rho < 1.0 || config.queue_capacity.is_some(),
            "utilisation must be in (0,1) for stability with unbounded queues, got {}; \
             set queue_capacity to simulate overload",
            config.rho
        );
        let total_speed: u64 = speeds.total();
        let arrival_rate = config.rho * total_speed as f64;
        let sampler = config.selection.sampler(speeds.as_slice());
        let make_server = |s: u64| match config.queue_capacity {
            Some(cap) => Server::with_queue_capacity(s, cap),
            None => Server::new(s),
        };
        QueueSystem {
            servers: speeds.as_slice().iter().map(|&s| make_server(s)).collect(),
            sampler,
            config,
            events: CalendarQueue::new(),
            rng: Xoshiro256PlusPlus::from_u64_seed(seed),
            arrival_dist: Exponential::new(arrival_rate),
            now: 0.0,
        }
    }

    /// Runs until `n_arrivals` jobs have entered, then drains nothing
    /// further (departures after the last arrival still process until the
    /// event list is conceptually cut at the last arrival time).
    /// Returns the metrics at the time of the last processed event.
    pub fn run_arrivals(&mut self, n_arrivals: u64) -> QueueMetrics {
        let mut remaining = n_arrivals;
        // Prime the first arrival.
        let t0 = self.arrival_dist.sample(&mut self.rng);
        self.events.schedule(t0, Event::Arrival);
        while let Some((time, event)) = self.events.pop() {
            self.now = time;
            match event {
                Event::Arrival => {
                    remaining -= 1;
                    self.handle_arrival();
                    if remaining > 0 {
                        let dt = self.arrival_dist.sample(&mut self.rng);
                        self.events.schedule(self.now + dt, Event::Arrival);
                    }
                }
                Event::Departure { server } => {
                    if self.servers[server].depart(self.now) {
                        self.schedule_departure(server);
                    }
                }
            }
        }
        self.metrics()
    }

    fn handle_arrival(&mut self) {
        let mut buf = [0usize; MAX_D];
        let candidates = draw_candidates(
            &self.sampler,
            self.config.d,
            ChoiceMode::WithReplacement,
            &mut self.rng,
            &mut buf,
        );
        let target = self
            .config
            .routing
            .choose(&self.servers, candidates, &mut self.rng);
        if self.servers[target].try_join(self.now) == Admission::StartedService {
            self.schedule_departure(target);
        }
    }

    fn schedule_departure(&mut self, server: usize) {
        // Exp(1) work at rate `speed` => Exp(speed) service time.
        let service = Exponential::new(self.servers[server].speed() as f64).sample(&mut self.rng);
        self.events
            .schedule(self.now + service, Event::Departure { server });
    }

    /// Current metrics snapshot.
    #[must_use]
    pub fn metrics(&self) -> QueueMetrics {
        let n = self.servers.len() as f64;
        let mean = self
            .servers
            .iter()
            .map(|s| s.mean_queue(self.now))
            .sum::<f64>()
            / n;
        let max_norm = self
            .servers
            .iter()
            .map(|s| s.max_queue() as f64 / s.speed() as f64)
            .fold(0.0f64, f64::max);
        QueueMetrics {
            mean_queue_len: mean,
            max_normalized_queue: max_norm,
            max_queue_len: self
                .servers
                .iter()
                .map(Server::max_queue)
                .max()
                .unwrap_or(0),
            completed: self.servers.iter().map(Server::completed).sum(),
            dropped: self.servers.iter().map(Server::dropped).sum(),
            horizon: self.now,
        }
    }

    /// Read access to the servers.
    #[must_use]
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_system(n: usize, rho: f64, d: usize, seed: u64) -> QueueSystem {
        let speeds = CapacityVector::uniform(n, 1);
        let config = SystemConfig {
            d,
            rho,
            ..SystemConfig::default()
        };
        QueueSystem::new(&speeds, config, seed)
    }

    #[test]
    fn all_jobs_complete_eventually() {
        let mut sys = uniform_system(10, 0.5, 2, 1);
        let m = sys.run_arrivals(2_000);
        assert_eq!(m.completed, 2_000);
        assert!(m.horizon > 0.0);
    }

    #[test]
    fn mm1_mean_queue_matches_theory() {
        // A single M/M/1 queue at ρ: E[jobs in system] = ρ/(1-ρ).
        let rho = 0.5;
        let mut sys = uniform_system(1, rho, 1, 42);
        let m = sys.run_arrivals(200_000);
        let expected = rho / (1.0 - rho); // 1.0
        assert!(
            (m.mean_queue_len - expected).abs() < 0.08,
            "mean queue {} vs M/M/1 theory {expected}",
            m.mean_queue_len
        );
    }

    #[test]
    fn two_choices_shrink_the_max_queue() {
        let mut one = uniform_system(200, 0.9, 1, 7);
        let m1 = one.run_arrivals(200_000);
        let mut two = uniform_system(200, 0.9, 2, 7);
        let m2 = two.run_arrivals(200_000);
        assert!(
            m2.max_queue_len < m1.max_queue_len,
            "JSQ(2) max {} should beat random {}",
            m2.max_queue_len,
            m1.max_queue_len
        );
    }

    #[test]
    fn faster_servers_complete_more_jobs() {
        let speeds = CapacityVector::two_class(5, 1, 5, 10);
        let config = SystemConfig {
            rho: 0.8,
            ..SystemConfig::default()
        };
        let mut sys = QueueSystem::new(&speeds, config, 3);
        sys.run_arrivals(50_000);
        let slow: u64 = sys.servers()[..5].iter().map(Server::completed).sum();
        let fast: u64 = sys.servers()[5..].iter().map(Server::completed).sum();
        assert!(
            fast > 5 * slow,
            "fast servers ({fast}) should complete far more than slow ({slow})"
        );
    }

    #[test]
    fn normalized_routing_protects_slow_servers() {
        // With speed-blind JSQ the slow servers build deep *normalised*
        // queues; the paper-style normalised rule keeps them shallow.
        let speeds = CapacityVector::two_class(50, 1, 50, 10);
        let run = |routing: RoutingPolicy, seed: u64| {
            let config = SystemConfig {
                rho: 0.9,
                routing,
                ..SystemConfig::default()
            };
            let mut sys = QueueSystem::new(&speeds, config, seed);
            sys.run_arrivals(150_000).max_normalized_queue
        };
        let normalized = run(RoutingPolicy::ShortestNormalizedQueue, 9);
        let plain = run(RoutingPolicy::ShortestQueue, 9);
        assert!(
            normalized < plain,
            "normalised routing ({normalized}) should beat plain JSQ ({plain})"
        );
    }

    #[test]
    fn determinism_under_seed() {
        let mut a = uniform_system(20, 0.8, 2, 11);
        let mut b = uniform_system(20, 0.8, 2, 11);
        let ma = a.run_arrivals(5_000);
        let mb = b.run_arrivals(5_000);
        assert_eq!(ma, mb);
    }

    #[test]
    #[should_panic(expected = "stability")]
    fn overloaded_system_rejected() {
        let speeds = CapacityVector::uniform(2, 1);
        let _ = QueueSystem::new(
            &speeds,
            SystemConfig {
                rho: 1.5,
                ..Default::default()
            },
            0,
        );
    }
}
