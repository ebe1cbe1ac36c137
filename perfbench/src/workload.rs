//! The benchmark's workloads and what one run of a workload yields:
//! host-time setup and run durations, the simulated metrics, the
//! output checks, the fidelity of the run against the serial engine,
//! and a digest of the simulated metrics.

use std::time::Instant;

use bnb_cluster::{find_scenario, ClusterMetrics, ClusterSpec, Sim, SimBuilder};
use bnb_telemetry::{MetricsSnapshot, Registry, Span};

/// One closed batch workload: a registry scenario at a fixed request
/// budget, offered to a fleet that starts empty, on one engine.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name the benchmark is invoked with.
    pub name: &'static str,
    /// The `bnb_cluster` registry scenario it runs.
    pub scenario: &'static str,
    /// `Some(w)`: the sharded engine with `w` workers; `None`: serial.
    pub workers: Option<usize>,
    /// Requests offered per run.
    pub requests: u64,
}

/// Every workload. The budgets are recorded with their reasons in
/// `BENCHMARK.json` and the package README.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "two-class",
        scenario: "two-class",
        workers: None,
        requests: 2_000_000,
    },
    Workload {
        name: "giant",
        scenario: "giant",
        workers: None,
        // At the ~1M-request knee of the cold start: past it, req/s
        // has flattened to within ~10% of its long-run value.
        requests: 1_000_000,
    },
    Workload {
        name: "churny-p2p",
        scenario: "churny-p2p",
        workers: None,
        requests: 2_000_000,
    },
    Workload {
        name: "two-class-sharded",
        scenario: "two-class",
        workers: Some(2),
        requests: 2_000_000,
    },
];

/// `--smoke` divides every budget by this.
pub const SMOKE_DIVISOR: u64 = 100;

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The workload's spec at `seed` (the scenario recipe may draw
    /// fleet parameters from the seed).
    pub fn spec(&self, seed: u64) -> ClusterSpec {
        let scenario = find_scenario(self.scenario).expect("workload names a registry scenario");
        (scenario.build)(seed, self.requests)
    }

    /// Builds the simulator; `serial` forces the serial engine (the
    /// fidelity reference).
    fn build(&self, seed: u64, registry: Option<&Registry>, serial: bool) -> Sim {
        let mut builder = SimBuilder::new(self.spec(seed)).seed(seed);
        if let Some(reg) = registry {
            builder = builder.telemetry(reg);
        }
        if let (Some(w), false) = (self.workers, serial) {
            builder = builder.workers(w);
        }
        builder.build()
    }

    /// One timed run: `build()` then `run()`, each timed on its own;
    /// `span` records the `run()` call.
    pub fn run(&self, seed: u64, registry: Option<&Registry>, span: &mut Span) -> Run {
        let t0 = Instant::now();
        let mut sim = self.build(seed, registry, false);
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let token = span.enter();
        let metrics = sim.run();
        span.exit(token);
        let run_s = t1.elapsed().as_secs_f64();
        Run {
            setup_s,
            run_s,
            metrics,
            snapshot: sim.telemetry_snapshot(),
        }
    }

    /// Host time of `build()` alone.
    pub fn setup_only(&self, seed: u64) -> f64 {
        let t0 = Instant::now();
        let sim = self.build(seed, None, false);
        let setup_s = t0.elapsed().as_secs_f64();
        drop(std::hint::black_box(sim));
        setup_s
    }

    /// The serial engine's metrics at the same seed and budget — the
    /// reference the fidelity metrics compare against.
    pub fn serial_reference(&self, seed: u64) -> ClusterMetrics {
        self.build(seed, None, true).run()
    }
}

/// What one run yields.
pub struct Run {
    /// Host seconds in `SimBuilder::build`.
    pub setup_s: f64,
    /// Host seconds in `Sim::run`.
    pub run_s: f64,
    /// The simulated metrics.
    pub metrics: ClusterMetrics,
    /// The engine's counters, and its spans when traced.
    pub snapshot: MetricsSnapshot,
}

/// The output checks, counted per checked run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Runs checked.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Checks one run: every offered request is accounted for, and the
    /// metrics equal the workload's first run (`baseline`), since runs
    /// at one seed and budget are deterministic and telemetry is
    /// schedule-invisible.
    pub fn check(&mut self, what: &str, m: &ClusterMetrics, baseline: Option<&ClusterMetrics>) {
        self.attempted += 1;
        let mut bad = Vec::new();
        if m.completed + m.dropped + m.orphaned != m.requests {
            bad.push(format!(
                "completed {} + dropped {} + orphaned {} != requests {}",
                m.completed, m.dropped, m.orphaned, m.requests
            ));
        }
        if baseline.is_some_and(|b| b != m) {
            bad.push("metrics differ from the workload's first run".to_owned());
        }
        if !bad.is_empty() {
            self.failed += 1;
            self.failures.push(format!("{what}: {}", bad.join("; ")));
        }
    }

    /// Share of checked runs that failed.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// How far a run's simulated answer is from the serial engine's at the
/// same seed and budget. All four are 0 for a faithful engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Relative error of mean latency.
    pub latency_mean_err: f64,
    /// Relative error of p99 latency.
    pub latency_p99_err: f64,
    /// Absolute error of the drop rate.
    pub drop_rate_err: f64,
    /// Relative error of the max normalized queue.
    pub max_norm_queue_err: f64,
}

/// `|x - reference| / reference`; the absolute error when the
/// reference is 0.
fn rel_err(x: f64, reference: f64) -> f64 {
    let d = (x - reference).abs();
    if reference == 0.0 {
        d
    } else {
        d / reference.abs()
    }
}

impl Fidelity {
    /// Compares `m` with the serial `reference`.
    pub fn of(m: &ClusterMetrics, reference: &ClusterMetrics) -> Fidelity {
        Fidelity {
            latency_mean_err: rel_err(m.latency_mean, reference.latency_mean),
            latency_p99_err: rel_err(m.latency[2], reference.latency[2]),
            drop_rate_err: (m.drop_rate() - reference.drop_rate()).abs(),
            max_norm_queue_err: rel_err(m.max_normalized_queue, reference.max_normalized_queue),
        }
    }

    /// `(metric name, value)` pairs.
    pub fn named(&self) -> [(&'static str, f64); 4] {
        [
            ("fidelity.latency_mean_err", self.latency_mean_err),
            ("fidelity.latency_p99_err", self.latency_p99_err),
            ("fidelity.drop_rate_err", self.drop_rate_err),
            ("fidelity.max_norm_queue_err", self.max_norm_queue_err),
        ]
    }
}

/// FNV-1a 64 of the metrics table exactly as `cluster-sim` prints it
/// (`ClusterMetrics::render_table`, trailing whitespace trimmed), so a
/// plain `cluster-sim --scenario S --seed N --requests B` run can be
/// checked against the benchmark.
pub fn digest(m: &ClusterMetrics) -> u64 {
    m.render_table()
        .trim_end()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str) -> Workload {
        let w = Workload::find(name).unwrap();
        Workload {
            requests: w.requests / SMOKE_DIVISOR,
            ..w
        }
    }

    #[test]
    fn serial_engine_against_itself_has_zero_fidelity_error() {
        // The sharded workload with its engine swapped for the serial
        // one: the same path that measures the sharded engine must read
        // exactly 0 on every fidelity metric.
        let w = Workload {
            workers: None,
            ..smoke("two-class-sharded")
        };
        let run = w.run(7, None, &mut Span::disabled("run"));
        let f = Fidelity::of(&run.metrics, &w.serial_reference(7));
        for (name, v) in f.named() {
            assert_eq!(v, 0.0, "{name}");
        }
    }

    #[test]
    fn sharded_workload_reports_its_current_error() {
        let w = smoke("two-class-sharded");
        let run = w.run(7, None, &mut Span::disabled("run"));
        let f = Fidelity::of(&run.metrics, &w.serial_reference(7));
        assert!(f.latency_mean_err > 0.0, "{f:?}");
    }

    #[test]
    fn checks_count_conservation_and_repeatability_failures() {
        let w = smoke("two-class");
        let m = w.run(3, None, &mut Span::disabled("run")).metrics;
        let mut checks = Checks::default();
        checks.check("first", &m, None);
        checks.check("repeat", &m, Some(&m));
        let mut lost = m.clone();
        lost.completed -= 1;
        checks.check("lost request", &lost, Some(&m));
        assert_eq!((checks.attempted, checks.failed), (3, 1));
        assert!(checks.failures[0].contains("!= requests"));
    }

    #[test]
    fn digest_tracks_the_printed_table() {
        let w = smoke("two-class");
        let a = w.run(3, None, &mut Span::disabled("run")).metrics;
        let b = w.run(4, None, &mut Span::disabled("run")).metrics;
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&b));
    }
}
