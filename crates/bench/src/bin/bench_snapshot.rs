//! `bench-snapshot` — tracked balls/sec measurements for the throw
//! kernel, and requests/sec for the cluster simulator.
//!
//! Criterion benches are great for interactive A/B work but their output
//! is ephemeral; this runner writes machine-readable snapshots so the
//! repo can track its throughput trajectory across PRs:
//!
//! * `BENCH_throw.json` — the engine's batched throw path over the grid
//!   `n ∈ {1e3, 1e5, 1e6} × d ∈ {1, 2, 4} × {uniform, two-class, Zipf}`
//!   capacities, balls/sec per cell next to the recorded pre-kernel
//!   baseline;
//! * `BENCH_cluster.json` — end-to-end requests/sec of the `bnb-cluster`
//!   discrete-event simulator over the registered scenario workloads,
//!   next to the baseline recorded when the subsystem landed, plus the
//!   sharded-scale cell (the 131072-server `giant` scenario serially and
//!   on the space-sharded engine at 1 vs 4 workers, host core count
//!   recorded) and the scheduler-scaling cell (the lazy board's hold
//!   pair at 64 vs 131072 pending departures);
//! * `BENCH_router.json` — routed placements/sec of the embeddable
//!   `bnb-router` data plane under contention: 1–32 cloned
//!   `RouterHandle`s routing d-choice d = 2 against one shared
//!   epoch-published `FleetView`, next to the bare in-simulator
//!   placement path measured in the same run.
//!
//! ```text
//! bench-snapshot                       # full grids -> ./BENCH_throw.json
//!                                      #             + ./BENCH_cluster.json
//!                                      #             + ./BENCH_router.json
//! bench-snapshot --out t.json --cluster-out c.json --router-out r.json
//! bench-snapshot --check               # tiny grids, CI smoke (fails if a
//!                                      # file cannot be produced)
//! ```

use bnb_cluster::{find_scenario, SimBuilder};
use bnb_core::prelude::*;
use bnb_distributions::{ExponentialBlock, Xoshiro256PlusPlus};
use bnb_queueing::LazyBoard;
use bnb_router::{LoadView, Membership, PlacementSpec, Router, RouterBuilder};
use bnb_telemetry::Registry;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Throughput of one grid cell.
struct Cell {
    scenario: &'static str,
    n: usize,
    d: usize,
    balls_thrown: u64,
    elapsed: Duration,
    balls_per_sec: f64,
    baseline_balls_per_sec: Option<f64>,
}

/// Pre-kernel baseline, in balls/sec, measured with this same runner at
/// the seed engine (commit `ce0cd29`, scalar `throw()` loop with the
/// two-RNG-call float alias sampler) on the single-core CI container,
/// averaged over two full-grid runs. `(scenario, n, d, balls_per_sec)`.
const SEED_BASELINE: &[(&str, usize, usize, f64)] = &[
    ("uniform", 1_000, 1, 8.054e7),
    ("uniform", 1_000, 2, 3.811e7),
    ("uniform", 1_000, 4, 1.794e7),
    ("uniform", 100_000, 1, 3.838e7),
    ("uniform", 100_000, 2, 1.482e7),
    ("uniform", 100_000, 4, 7.916e6),
    ("uniform", 1_000_000, 1, 1.574e7),
    ("uniform", 1_000_000, 2, 6.468e6),
    ("uniform", 1_000_000, 4, 3.186e6),
    ("two_class", 1_000, 1, 6.259e7),
    ("two_class", 1_000, 2, 2.918e7),
    ("two_class", 1_000, 4, 1.383e7),
    ("two_class", 100_000, 1, 2.829e7),
    ("two_class", 100_000, 2, 1.303e7),
    ("two_class", 100_000, 4, 7.070e6),
    ("two_class", 1_000_000, 1, 1.146e7),
    ("two_class", 1_000_000, 2, 4.557e6),
    ("two_class", 1_000_000, 4, 2.473e6),
    ("zipf", 1_000, 1, 5.745e7),
    ("zipf", 1_000, 2, 2.516e7),
    ("zipf", 1_000, 4, 1.240e7),
    ("zipf", 100_000, 1, 2.440e7),
    ("zipf", 100_000, 2, 1.280e7),
    ("zipf", 100_000, 4, 6.392e6),
    ("zipf", 1_000_000, 1, 9.070e6),
    ("zipf", 1_000_000, 2, 4.567e6),
    ("zipf", 1_000_000, 4, 2.571e6),
];

fn baseline_for(scenario: &str, n: usize, d: usize) -> Option<f64> {
    SEED_BASELINE
        .iter()
        .find(|&&(s, bn, bd, _)| s == scenario && bn == n && bd == d)
        .map(|&(_, _, _, bps)| bps)
}

/// Requests/sec of one cluster-simulator scenario.
struct ClusterCell {
    scenario: &'static str,
    requests_per_iter: u64,
    total_requests: u64,
    elapsed: Duration,
    req_per_sec: f64,
    baseline_req_per_sec: Option<f64>,
}

/// End-to-end cluster baseline, in requests/sec: the PR-3 cluster
/// subsystem (commit `40c5325` — binary heap, per-event RNG draws,
/// inverse-CDF exponentials) **rebuilt and re-measured on the current
/// bench host**, interleaved with HEAD runs in the same windows, under
/// the same best-single-run estimator. `(scenario, req_per_sec)`.
///
/// Re-recorded (again) at the fused-hot-loop PR, this time for
/// machine comparability: the previous baselines were carried over
/// from snapshots taken on a *different, ~2× faster host*, so every
/// `speedup_vs_baseline` mixed machines and the shared-runner noise
/// swung the apparent ratio by 2× between runs of identical code.
/// Same-host, same-window, best-run measurement is the only ratio that
/// tracks the code rather than the hardware du jour; the measured
/// history of both protocols is kept in the README's cluster
/// trajectory table. `diurnal` landed with PR 4, so its baseline is
/// commit `3d05046` re-measured the same way.
const CLUSTER_BASELINE: &[(&str, f64)] = &[
    ("uniform", 5.839e6),
    ("two_class", 6.091e6),
    ("zipf", 5.706e6),
    ("flash_crowd", 5.283e6),
    ("diurnal", 6.249e6),
    ("churny_p2p", 4.533e6),
];

/// One-line provenance note embedded in the cluster snapshot (see
/// [`CLUSTER_BASELINE`]).
const CLUSTER_BASELINE_NOTE: &str = "baselines are the PR-3 subsystem (40c5325; diurnal: \
     3d05046 where it landed) rebuilt and re-measured on this bench host, interleaved \
     with HEAD under the best-single-run estimator -- same-host ratios, not the old \
     cross-machine ones";

/// Why the diurnal cell trails the stationary d-choice cells (embedded
/// in the snapshot so the number ships with its explanation). The
/// diurnal sampler now thins under a **piecewise-constant 32-segment
/// majorisation**: each period segment carries its tight local
/// envelope (crest-aware) and a per-segment squeeze floor, so
/// candidates propose at the local ceiling instead of the global peak
/// — off-crest segments no longer pay crest-rate rejection, and the
/// squeeze floor sits at `segment_min / segment_env` (near 1 for flat
/// segments), skipping the `sin` on most accepts. That took the cell
/// from ~1.2x to ~1.4x. The residual gap is structural: the cell's
/// baseline is global-peak thinning whose rejection step the
/// stationary baselines never had, and an accepted candidate near a
/// crest boundary still costs an extra gap draw when it overshoots its
/// segment.
const DIURNAL_NOTE: &str = "diurnal trails the stationary cells by construction: its baseline \
     does global-peak thinning (a rejection step the stationary baselines never had), so the \
     ratio starts handicapped. The 32-segment piecewise-constant majorisation (local crest-aware \
     envelopes + per-segment squeeze floors that skip sin on most accepts) lifted it ~1.2x -> \
     ~1.4x; what remains is boundary-overshoot redraws near crests, inherent to exact \
     segment-wise thinning";

/// Per-cell ratchets over the generic `--floor` ratio: the four
/// d-choice cells hold a multiple of their PR-3 baselines since the
/// fused-hot-loop work landed — raised to **0.6×** when the slot-keyed
/// lazy board took them past 1.8× (losing a third of a 2×-class win is
/// a structural regression, not noise) — while the generic-loop and
/// non-stationary cells keep the caller's ratio. The effective floor
/// for a cell is `max(--floor, ratchet)`.
const CELL_FLOOR: &[(&str, f64)] = &[
    ("uniform", 0.6),
    ("two_class", 0.6),
    ("zipf", 0.6),
    ("flash_crowd", 0.6),
];

fn cluster_baseline_for(scenario: &str) -> Option<f64> {
    CLUSTER_BASELINE
        .iter()
        .find(|&&(s, _)| s == scenario)
        .map(|&(_, rps)| rps)
}

/// JSON cell names use underscores; the scenario registry uses dashes.
fn cluster_scenario_id(cell_name: &str) -> String {
    cell_name.replace('_', "-")
}

/// Times one cluster scenario: repeated full runs of `requests` offered
/// requests (fresh simulator each iteration, construction included — the
/// figure tracks serving throughput end to end) until the budget
/// elapses.
///
/// The reported `req_per_sec` is the **best single run** within the
/// budget, not the mean — the `timeit` convention. These snapshots are
/// taken on shared hosts whose effective speed swings by 2× with
/// neighbour load on a sub-second scale; the mean of a 0.4 s window
/// measures the neighbours as much as the code, while the fastest run
/// is a stable estimate of the code's intrinsic speed (interference
/// only ever slows a run down). The committed baselines were re-taken
/// under this same estimator, on this same host class, so
/// `speedup_vs_baseline` compares like with like.
fn measure_cluster(cell_name: &'static str, requests: u64, budget: Duration) -> ClusterCell {
    let scenario = find_scenario(&cluster_scenario_id(cell_name))
        .unwrap_or_else(|| unreachable!("unknown cluster scenario {cell_name}"));
    let run = || {
        let metrics = SimBuilder::scenario(scenario, requests)
            .seed(bnb_bench::BENCH_SEED)
            .build()
            .run();
        assert_eq!(
            metrics.completed + metrics.dropped + metrics.orphaned,
            requests,
            "{cell_name}: lost requests during benching"
        );
    };
    // Warm-up run: page-faults, allocator growth, branch history.
    run();
    let mut total = 0u64;
    let mut best = 0.0f64;
    let start = Instant::now();
    loop {
        let run_start = Instant::now();
        run();
        let run_elapsed = run_start.elapsed();
        best = best.max(requests as f64 / run_elapsed.as_secs_f64());
        total += requests;
        if start.elapsed() >= budget {
            break;
        }
    }
    let elapsed = start.elapsed();
    ClusterCell {
        scenario: cell_name,
        requests_per_iter: requests,
        total_requests: total,
        elapsed,
        req_per_sec: best,
        baseline_req_per_sec: cluster_baseline_for(cell_name),
    }
}

/// Telemetry overhead and scheduler internals of the `two_class` cell,
/// measured in one invocation.
struct TelemetryBlock {
    /// Best telemetry-off run (same estimator as the grid cells).
    off_req_per_sec: f64,
    /// Best telemetry-on run (spans + scheduler counters + traces).
    on_req_per_sec: f64,
    /// Scheduler-internals counters from the telemetry-on run — these
    /// are deterministic in `(scenario, seed)`, unlike the timings.
    /// The fused loop drives the slot-keyed `LazyBoard` since the
    /// lazy-deletion PR, so the fingerprint is its `lazy.*` counter
    /// family (the calendar counters read zero there).
    lazy_inserts: u64,
    lazy_stale_pops: u64,
    lazy_overwrites: u64,
    lazy_rebuilds: u64,
    bypasses: u64,
}

/// Times the `two_class` scenario with telemetry off and fully on,
/// strictly interleaved (off, on, off, on, …) inside one budget so
/// both sides sample the same neighbour-load weather, best run each —
/// the overhead ratio then tracks the instrumentation, not the host.
/// Also harvests the scheduler-internals counters from the final
/// telemetry-on run.
fn measure_telemetry(requests: u64, budget: Duration) -> TelemetryBlock {
    let scenario = find_scenario("two-class")
        .unwrap_or_else(|| unreachable!("two-class scenario missing from registry"));
    let registry = Registry::enabled();
    let run = |enable: bool| {
        let mut builder = SimBuilder::scenario(scenario, requests).seed(bnb_bench::BENCH_SEED);
        if enable {
            builder = builder.telemetry(&registry);
        }
        let mut sim = builder.build();
        let start = Instant::now();
        let metrics = sim.run();
        let elapsed = start.elapsed();
        assert_eq!(
            metrics.completed + metrics.dropped + metrics.orphaned,
            requests,
            "telemetry bench lost requests"
        );
        (requests as f64 / elapsed.as_secs_f64(), sim)
    };
    run(false);
    run(true);
    let start = Instant::now();
    let (mut best_off, _) = run(false);
    let (mut best_on, mut last_on) = run(true);
    while start.elapsed() < budget {
        let (off, _) = run(false);
        best_off = best_off.max(off);
        let (on, sim) = run(true);
        best_on = best_on.max(on);
        last_on = sim;
    }
    let snap = last_on.telemetry_snapshot();
    TelemetryBlock {
        off_req_per_sec: best_off,
        on_req_per_sec: best_on,
        lazy_inserts: snap.counter("lazy.ring_inserts").unwrap_or(0),
        lazy_stale_pops: snap.counter("lazy.stale_pops").unwrap_or(0),
        lazy_overwrites: snap.counter("lazy.overwrites").unwrap_or(0),
        lazy_rebuilds: snap.counter("lazy.rebuild_scans").unwrap_or(0),
        bypasses: snap.counter("sim.next_free_bypass").unwrap_or(0),
    }
}

/// The sharded-scale cell: the `giant` scenario (131072 servers)
/// serially and on the space-sharded engine at 1 and 4 workers,
/// interleaved.
struct ShardedBlock {
    /// Cores the bench host exposes (`available_parallelism`), recorded
    /// so the speedup figure ships with its hardware context.
    cores: usize,
    requests_per_iter: u64,
    /// The serial engine (fused loop) on the same fleet and budget: the
    /// reference the sharded rates are read against.
    serial_req_per_sec: f64,
    w1_req_per_sec: f64,
    w4_req_per_sec: f64,
}

/// Context for the sharded cell's speedup figure (embedded in the
/// snapshot). Mirrors the router grid's single-core caveat.
const SHARDED_NOTE: &str = "the giant cell runs the 131072-server scenario serially (fused loop) \
     and on the space-sharded engine at 1 and 4 workers, interleaved, best run each; the \
     serial rate is the reference. On hosts with < 4 cores the four workers share fewer cores, \
     so w4/w1 is not a clean parallel-scaling figure (same caveat as the router contention \
     grid). The 2.26x once recorded here on a single-core host came from each shard's 4x \
     smaller departure-board population, not from cache locality: a fixed 32-bag wheel \
     re-swept an overflow vector holding most pending departures, a cost that grows with the \
     population. Pinned to one core, w4/w1 went from ~1.45x to ~0.9x (medians of 5 runs at \
     200k requests) when the wheel was sized from the slot count, with the partition \
     unchanged. The >= 2x gate arms only at cores >= 4";

/// Times the `giant` scenario serially and on the sharded engine at 1
/// and then 4 workers, strictly interleaved inside one budget (same
/// weather-sharing rationale as [`measure_telemetry`]), best single
/// run each. Fleet construction is included, as in every cluster cell.
fn measure_sharded(requests: u64, budget: Duration) -> ShardedBlock {
    let scenario = find_scenario("giant")
        .unwrap_or_else(|| unreachable!("giant scenario missing from registry"));
    // `None` is the serial engine; `Some(w)` the sharded one at `w`
    // workers.
    let run = |workers: Option<usize>| {
        let start = Instant::now();
        let mut builder = SimBuilder::scenario(scenario, requests).seed(bnb_bench::BENCH_SEED);
        if let Some(w) = workers {
            builder = builder.workers(w);
        }
        let metrics = builder.build().run();
        let elapsed = start.elapsed();
        assert_eq!(
            metrics.completed + metrics.dropped + metrics.orphaned,
            requests,
            "sharded bench lost requests"
        );
        requests as f64 / elapsed.as_secs_f64()
    };
    run(None);
    run(Some(1));
    run(Some(4));
    let start = Instant::now();
    let mut best_serial = run(None);
    let mut best_w1 = run(Some(1));
    let mut best_w4 = run(Some(4));
    while start.elapsed() < budget {
        best_serial = best_serial.max(run(None));
        best_w1 = best_w1.max(run(Some(1)));
        best_w4 = best_w4.max(run(Some(4)));
    }
    ShardedBlock {
        cores: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        requests_per_iter: requests,
        serial_req_per_sec: best_serial,
        w1_req_per_sec: best_w1,
        w4_req_per_sec: best_w4,
    }
}

/// The scheduler-scaling cell: the lazy board's hold pair (pop the
/// front, reschedule it one Exp(1) draw later) at a 64-server and a
/// 131072-server population.
struct SchedulerScalingBlock {
    small_n: usize,
    large_n: usize,
    small_pair_ns: f64,
    large_pair_ns: f64,
}

/// Largest tolerated ratio of the lazy board's hold-pair cost at
/// 131072 pending departures to its cost at 64. A pair that touches
/// one small bag per pop grows only with cache misses on the larger
/// state (a few x); a lap too narrow for the population re-sweeps its
/// overflow vector and grows with the population itself (a fixed
/// 32-bag wheel measured 86x-320x).
const SCHEDULER_SCALING_CEILING: f64 = 16.0;

/// Times the lazy board's hold pair at `n` pending departures: the
/// board is filled once and held at that population, one warm-up run
/// of `pairs` pairs settles its geometry, then the best run of `pairs`
/// pairs within the budget (same estimator as the cluster cells) is
/// reported as ns per pair. The Exp draw is inside the timed loop.
fn measure_hold_pair(n: usize, pairs: u64, budget: Duration) -> f64 {
    let mut exp = ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(bnb_bench::BENCH_SEED));
    let mut board = LazyBoard::with_slots(n);
    for slot in 0..n as u32 {
        board.schedule(slot, exp.next());
    }
    let mut iter = || {
        for _ in 0..pairs {
            let (t, s) = board.pop().expect("the hold loop keeps n pending");
            board.schedule(s, t + exp.next());
        }
    };
    iter();
    let mut best = f64::INFINITY;
    let start = Instant::now();
    loop {
        let run_start = Instant::now();
        iter();
        best = best.min(run_start.elapsed().as_secs_f64() * 1e9 / pairs as f64);
        if start.elapsed() >= budget {
            break;
        }
    }
    best
}

/// Routed placements/sec of one router-contention cell.
struct RouterCell {
    threads: usize,
    routes_per_iter: u64,
    total_routes: u64,
    elapsed: Duration,
    routes_per_sec: f64,
}

/// Provenance note embedded in the router snapshot. `sim_path` is the
/// reference the `--floor` gate compares against (see
/// [`measure_sim_path`]).
const ROUTER_BASELINE_NOTE: &str = "sim_path is the bare PlacementEngine placing against a \
     plain dense load mirror -- the exact shape ClusterSim drives single-threaded -- \
     measured in the same run, same host, same estimator. The 1-thread routed cell pays \
     the embeddable surface (epoch refresh + Arc snapshot + atomic queue counters) and is \
     gated at --floor x sim_path. The bench host exposes a single core, so multi-thread \
     cells measure contention overhead under oversubscription, not parallel scaling";

/// The standard router-bench fleet: the two-class 64-server shape used
/// by the cluster grids (32 x speed 1, 32 x speed 8).
fn router_fleet_speeds() -> Vec<u64> {
    (0..64).map(|i| if i < 32 { 1 } else { 8 }).collect()
}

/// The in-simulator reference path: a bare `PlacementEngine` placing
/// against a plain (non-atomic) dense load mirror, single-threaded on
/// RNG stream 0 — no epoch pointer, no `Arc`, no atomics. This is the
/// hot call `ClusterSim` makes per request, so the gap between this
/// rate and the 1-thread routed cell is exactly the cost of the
/// embeddable `Router` surface.
fn measure_sim_path(routes: u64, budget: Duration) -> f64 {
    struct Mirror {
        loads: Vec<(u64, u64)>,
    }
    impl LoadView for Mirror {
        fn load(&self, slot: usize) -> (u64, u64) {
            self.loads[slot]
        }
    }
    let speeds = router_fleet_speeds();
    let membership = Membership::from_speeds(&speeds);
    let mut mirror = Mirror {
        loads: speeds.iter().map(|&s| (0u64, s)).collect(),
    };
    let mut engine = RouterBuilder::new(PlacementSpec::DChoice { d: 2 })
        .seed(bnb_bench::BENCH_SEED)
        .build_engine(&membership);
    let mut iter = || {
        let mut acc = 0usize;
        for _ in 0..routes {
            let target = engine.place(&mirror, 0);
            mirror.loads[target].0 += 1;
            mirror.loads[target].0 -= 1;
            acc ^= target;
        }
        std::hint::black_box(acc);
    };
    iter();
    let mut best = 0.0f64;
    let start = Instant::now();
    loop {
        let run_start = Instant::now();
        iter();
        best = best.max(routes as f64 / run_start.elapsed().as_secs_f64());
        if start.elapsed() >= budget {
            break;
        }
    }
    best
}

/// Times one contention cell: `threads` cloned `RouterHandle`s routing
/// concurrently against one shared `FleetView`, each route followed by
/// the join/depart pair an embedder records (so the atomic queue
/// counters are exercised, not just read). Best single iteration within
/// the budget, same estimator as the cluster grid.
fn measure_router(threads: usize, routes_per_thread: u64, budget: Duration) -> RouterCell {
    let speeds = router_fleet_speeds();
    let (_view, handle) = RouterBuilder::new(PlacementSpec::DChoice { d: 2 })
        .seed(bnb_bench::BENCH_SEED)
        .build(&speeds);
    let routes_per_iter = routes_per_thread * threads as u64;
    let iter = || {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    let mut h = handle.clone();
                    s.spawn(move || {
                        let mut acc = 0usize;
                        for i in 0..routes_per_thread {
                            let target = h.route(i);
                            acc ^= target.index();
                            let snap = h.snapshot();
                            snap.record_join(target);
                            snap.record_depart(target);
                        }
                        std::hint::black_box(acc);
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("router bench worker panicked");
            }
        });
    };
    iter();
    let mut total = 0u64;
    let mut best = 0.0f64;
    let start = Instant::now();
    loop {
        let run_start = Instant::now();
        iter();
        best = best.max(routes_per_iter as f64 / run_start.elapsed().as_secs_f64());
        total += routes_per_iter;
        if start.elapsed() >= budget {
            break;
        }
    }
    RouterCell {
        threads,
        routes_per_iter,
        total_routes: total,
        elapsed: start.elapsed(),
        routes_per_sec: best,
    }
}

/// Builds the capacity vector for a named scenario. The capacity RNG is
/// seeded per (scenario, n) so every run times identical bin layouts.
fn capacities(scenario: &str, n: usize) -> CapacityVector {
    match scenario {
        "uniform" => CapacityVector::uniform(n, 4),
        "two_class" => CapacityVector::two_class(n / 2, 1, n - n / 2, 8),
        "zipf" => {
            let mut rng = Xoshiro256PlusPlus::from_u64_seed(bnb_bench::BENCH_SEED ^ n as u64);
            CapacityVector::zipf(n, 64, 1.1, &mut rng)
        }
        other => unreachable!("unknown scenario {other}"),
    }
}

/// Times the batched throw path on one grid cell: repeated batches of
/// `n` balls into a fresh (reset) bin array until the budget elapses.
fn measure(scenario: &'static str, n: usize, d: usize, budget: Duration) -> Cell {
    let caps = capacities(scenario, n);
    let config = GameConfig::with_d(d);
    let mut game = config.build(&caps, bnb_bench::BENCH_SEED);
    let batch = n as u64;
    // Warm-up batch: pulls the table and bins into cache, pays the lazy
    // page faults, and is excluded from timing.
    game.throw_many(batch);
    game.reset();
    let mut thrown = 0u64;
    let start = Instant::now();
    loop {
        game.throw_many(batch);
        game.reset();
        thrown += batch;
        if start.elapsed() >= budget {
            break;
        }
    }
    let elapsed = start.elapsed();
    Cell {
        scenario,
        n,
        d,
        balls_thrown: thrown,
        elapsed,
        balls_per_sec: thrown as f64 / elapsed.as_secs_f64(),
        baseline_balls_per_sec: baseline_for(scenario, n, d),
    }
}

fn json_escape_free(s: &str) -> &str {
    // Scenario names and modes are static identifiers; assert rather
    // than implement a general JSON string escaper.
    debug_assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
    s
}

fn render_json(cells: &[Cell], mode: &str) -> String {
    let generated = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape_free(mode)));
    out.push_str(&format!("  \"generated_unix_secs\": {generated},\n"));
    out.push_str(&format!("  \"seed\": {},\n", bnb_bench::BENCH_SEED));
    out.push_str("  \"baseline_commit\": \"ce0cd29\",\n");
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let baseline = c
            .baseline_balls_per_sec
            .map_or("null".to_string(), |b| format!("{b:.4e}"));
        let speedup = c.baseline_balls_per_sec.map_or("null".to_string(), |b| {
            format!("{:.2}", c.balls_per_sec / b)
        });
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"n\": {}, \"d\": {}, \
             \"balls_per_sec\": {:.4e}, \"balls_thrown\": {}, \
             \"elapsed_secs\": {:.4}, \"baseline_balls_per_sec\": {}, \
             \"speedup_vs_baseline\": {}}}{}\n",
            json_escape_free(c.scenario),
            c.n,
            c.d,
            c.balls_per_sec,
            c.balls_thrown,
            c.elapsed.as_secs_f64(),
            baseline,
            speedup,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn render_cluster_json(
    cells: &[ClusterCell],
    telemetry: &TelemetryBlock,
    sharded: &ShardedBlock,
    scaling: &SchedulerScalingBlock,
    mode: &str,
) -> String {
    let generated = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 5,\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape_free(mode)));
    out.push_str(&format!("  \"generated_unix_secs\": {generated},\n"));
    out.push_str(&format!("  \"seed\": {},\n", bnb_bench::BENCH_SEED));
    out.push_str("  \"baseline_commit\": \"40c5325\",\n");
    out.push_str(&format!(
        "  \"baseline_note\": \"{CLUSTER_BASELINE_NOTE}\",\n"
    ));
    out.push_str(&format!("  \"diurnal_note\": \"{DIURNAL_NOTE}\",\n"));
    // Scheduler internals (deterministic counters) plus the measured
    // cost of turning telemetry on, interleaved in this same invocation
    // (see `measure_telemetry`). Schema 3: the fused loop's departure
    // path is the slot-keyed lazy board, so the fingerprint switched
    // from the calendar's counter family to `lazy.*` plus the
    // next-free bypass count.
    out.push_str(&format!(
        "  \"telemetry\": {{\"scenario\": \"two_class\", \
         \"lazy_inserts\": {}, \"lazy_stale_pops\": {}, \
         \"lazy_overwrites\": {}, \"lazy_rebuilds\": {}, \
         \"next_free_bypasses\": {}, \
         \"req_per_sec_telemetry_off\": {:.4e}, \
         \"req_per_sec_telemetry_on\": {:.4e}, \
         \"on_over_off_ratio\": {:.3}}},\n",
        telemetry.lazy_inserts,
        telemetry.lazy_stale_pops,
        telemetry.lazy_overwrites,
        telemetry.lazy_rebuilds,
        telemetry.bypasses,
        telemetry.off_req_per_sec,
        telemetry.on_req_per_sec,
        telemetry.on_req_per_sec / telemetry.off_req_per_sec,
    ));
    // Schema 4: the sharded-scale cell — the giant (131072-server)
    // scenario on the space-sharded engine at 1 vs 4 workers, with the
    // host's core count recorded next to the ratio (see SHARDED_NOTE).
    // Schema 5 adds the serial engine's rate on the same fleet.
    out.push_str(&format!(
        "  \"sharded\": {{\"scenario\": \"giant\", \"cores\": {}, \
         \"requests_per_iter\": {}, \
         \"req_per_sec_serial\": {:.4e}, \
         \"req_per_sec_w1\": {:.4e}, \
         \"req_per_sec_w4\": {:.4e}, \
         \"speedup_w4_over_w1\": {:.3}, \
         \"note\": \"{SHARDED_NOTE}\"}},\n",
        sharded.cores,
        sharded.requests_per_iter,
        sharded.serial_req_per_sec,
        sharded.w1_req_per_sec,
        sharded.w4_req_per_sec,
        sharded.w4_req_per_sec / sharded.w1_req_per_sec,
    ));
    // Schema 5: the scheduler-scaling cell — the lazy board's hold pair
    // at a small and the giant population, and their ratio (gated by
    // `--floor` at SCHEDULER_SCALING_CEILING).
    out.push_str(&format!(
        "  \"scheduler_scaling\": {{\"scheduler\": \"lazy\", \
         \"pair_ns_n{}\": {:.1}, \"pair_ns_n{}\": {:.1}, \
         \"large_over_small\": {:.2}, \"ceiling\": {SCHEDULER_SCALING_CEILING:.1}}},\n",
        scaling.small_n,
        scaling.small_pair_ns,
        scaling.large_n,
        scaling.large_pair_ns,
        scaling.large_pair_ns / scaling.small_pair_ns,
    ));
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let baseline = c
            .baseline_req_per_sec
            .map_or("null".to_string(), |b| format!("{b:.4e}"));
        let speedup = c
            .baseline_req_per_sec
            .map_or("null".to_string(), |b| format!("{:.2}", c.req_per_sec / b));
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"requests_per_iter\": {}, \
             \"req_per_sec\": {:.4e}, \"requests_total\": {}, \
             \"elapsed_secs\": {:.4}, \"baseline_req_per_sec\": {}, \
             \"speedup_vs_baseline\": {}}}{}\n",
            json_escape_free(c.scenario),
            c.requests_per_iter,
            c.req_per_sec,
            c.total_requests,
            c.elapsed.as_secs_f64(),
            baseline,
            speedup,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn render_router_json(cells: &[RouterCell], sim_path_routes_per_sec: f64, mode: &str) -> String {
    let generated = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape_free(mode)));
    out.push_str(&format!("  \"generated_unix_secs\": {generated},\n"));
    out.push_str(&format!("  \"seed\": {},\n", bnb_bench::BENCH_SEED));
    out.push_str("  \"fleet\": \"two_class_64\",\n");
    out.push_str("  \"spec\": \"d_choice_d2\",\n");
    out.push_str(&format!(
        "  \"sim_path_routes_per_sec\": {sim_path_routes_per_sec:.4e},\n"
    ));
    out.push_str(&format!(
        "  \"baseline_note\": \"{ROUTER_BASELINE_NOTE}\",\n"
    ));
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"routes_per_iter\": {}, \
             \"routes_per_sec\": {:.4e}, \"routes_total\": {}, \
             \"elapsed_secs\": {:.4}, \"ratio_vs_sim_path\": {:.3}}}{}\n",
            c.threads,
            c.routes_per_iter,
            c.routes_per_sec,
            c.total_routes,
            c.elapsed.as_secs_f64(),
            c.routes_per_sec / sim_path_routes_per_sec,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn usage() -> &'static str {
    "Usage: bench-snapshot [--check] [--floor RATIO] [--out PATH] [--cluster-out PATH]\n\
     \x20                     [--router-out PATH]\n\
     \n\
     Measures balls/sec of the throw kernel over the standard scenario\n\
     grid (-> BENCH_throw.json), requests/sec of the cluster simulator\n\
     over its workload grid (-> BENCH_cluster.json), and routed\n\
     placements/sec of the bnb-router data plane under 1-32 thread\n\
     contention (-> BENCH_router.json), in the current directory by\n\
     default.\n\
     \n\
     Options:\n\
     \x20  --check             tiny grids + short budget: CI smoke that\n\
     \x20                      the snapshot pipeline still produces valid\n\
     \x20                      files\n\
     \x20  --floor RATIO       perf-regression gate: fail if any cluster\n\
     \x20                      cell with a recorded baseline measures\n\
     \x20                      below RATIO x that baseline, or if the\n\
     \x20                      1-thread router cell falls below RATIO x\n\
     \x20                      the in-simulator placement path (use a\n\
     \x20                      generous ratio, e.g. 0.25 — the gate is\n\
     \x20                      meant to catch debug-build-scale\n\
     \x20                      regressions without flaking on shared\n\
     \x20                      runners)\n\
     \x20  --out PATH          throw-kernel output (./BENCH_throw.json)\n\
     \x20  --cluster-out PATH  cluster output (./BENCH_cluster.json)\n\
     \x20  --router-out PATH   router output (./BENCH_router.json)\n"
}

fn main() -> ExitCode {
    let mut check = false;
    let mut floor: Option<f64> = None;
    let mut out_path = PathBuf::from("BENCH_throw.json");
    let mut cluster_out_path = PathBuf::from("BENCH_cluster.json");
    let mut router_out_path = PathBuf::from("BENCH_router.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--floor" => match args.next().map(|v| v.parse::<f64>()) {
                Some(Ok(r)) if r > 0.0 && r.is_finite() => floor = Some(r),
                Some(Ok(r)) => {
                    eprintln!("--floor must be a positive ratio, got {r}\n\n{}", usage());
                    return ExitCode::from(2);
                }
                Some(Err(e)) => {
                    eprintln!("bad --floor value: {e}\n\n{}", usage());
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("--floor needs a ratio\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--out" => match args.next() {
                Some(p) => out_path = PathBuf::from(p),
                None => {
                    eprintln!("--out needs a path\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--cluster-out" => match args.next() {
                Some(p) => cluster_out_path = PathBuf::from(p),
                None => {
                    eprintln!("--cluster-out needs a path\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--router-out" => match args.next() {
                Some(p) => router_out_path = PathBuf::from(p),
                None => {
                    eprintln!("--router-out needs a path\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown option '{other}'\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let (ns, ds, budget, mode): (&[usize], &[usize], Duration, &str) = if check {
        (&[1_000], &[1, 2], Duration::from_millis(30), "check")
    } else {
        (
            &[1_000, 100_000, 1_000_000],
            &[1, 2, 4],
            Duration::from_millis(400),
            "full",
        )
    };

    let mut cells = Vec::new();
    for scenario in ["uniform", "two_class", "zipf"] {
        for &n in ns {
            for &d in ds {
                let cell = measure(scenario, n, d, budget);
                println!(
                    "{:<10} n={:<8} d={}  {:>10.3e} balls/s{}",
                    cell.scenario,
                    cell.n,
                    cell.d,
                    cell.balls_per_sec,
                    cell.baseline_balls_per_sec.map_or(String::new(), |b| {
                        format!("  ({:.2}x vs baseline)", cell.balls_per_sec / b)
                    }),
                );
                cells.push(cell);
            }
        }
    }

    // The cluster grid: end-to-end requests/sec per workload. Check
    // mode keeps runs tiny but still covers every tracked cell, so the
    // `--floor` gate in CI watches the whole grid, not one scenario.
    let all_cluster_cells: &[&'static str] = &[
        "uniform",
        "two_class",
        "zipf",
        "flash_crowd",
        "diurnal",
        "churny_p2p",
    ];
    let (cluster_cells_spec, cluster_requests, cluster_budget): (&[&'static str], u64, Duration) =
        if check {
            (all_cluster_cells, 5_000, Duration::from_millis(30))
        } else {
            (all_cluster_cells, 50_000, Duration::from_millis(400))
        };
    let mut cluster_cells = Vec::new();
    for &cell_name in cluster_cells_spec {
        let cell = measure_cluster(cell_name, cluster_requests, cluster_budget);
        println!(
            "cluster/{:<12} reqs={:<6} {:>10.3e} req/s{}",
            cell.scenario,
            cell.requests_per_iter,
            cell.req_per_sec,
            cell.baseline_req_per_sec.map_or(String::new(), |b| {
                format!("  ({:.2}x vs baseline)", cell.req_per_sec / b)
            }),
        );
        cluster_cells.push(cell);
    }

    // Telemetry overhead on the two_class cell: off and on interleaved
    // in one budget, plus the deterministic scheduler-internals
    // counters for the snapshot's metadata block.
    let telemetry = measure_telemetry(cluster_requests, cluster_budget);
    println!(
        "cluster/telemetry two_class     off {:>10.3e} req/s, on {:>10.3e} req/s ({:.3}x); \
         {} lazy inserts, {} stale pops, {} rebuilds, {} bypasses",
        telemetry.off_req_per_sec,
        telemetry.on_req_per_sec,
        telemetry.on_req_per_sec / telemetry.off_req_per_sec,
        telemetry.lazy_inserts,
        telemetry.lazy_stale_pops,
        telemetry.lazy_rebuilds,
        telemetry.bypasses,
    );

    // The sharded-scale cell: 131072 servers on the space-sharded
    // engine, 1 worker vs 4, interleaved. Check mode shrinks the
    // request budget but still exercises the whole engine (fleet
    // partitioning, epoch rounds, shard merge).
    let (sharded_requests, sharded_budget) = if check {
        (20_000u64, Duration::from_millis(30))
    } else {
        (200_000u64, Duration::from_millis(1500))
    };
    let sharded = measure_sharded(sharded_requests, sharded_budget);
    println!(
        "cluster/sharded giant           serial {:>10.3e} req/s, w1 {:>10.3e} req/s, \
         w4 {:>10.3e} req/s ({:.2}x on {} core(s))",
        sharded.serial_req_per_sec,
        sharded.w1_req_per_sec,
        sharded.w4_req_per_sec,
        sharded.w4_req_per_sec / sharded.w1_req_per_sec,
        sharded.cores,
    );

    // The scheduler-scaling cell: the lazy board's hold pair at 64 and
    // at 131072 pending departures.
    let (pairs, scaling_budget) = if check {
        (100_000u64, Duration::from_millis(30))
    } else {
        (400_000u64, Duration::from_millis(1000))
    };
    let (small_n, large_n) = (64, 131_072);
    let scaling = SchedulerScalingBlock {
        small_n,
        large_n,
        small_pair_ns: measure_hold_pair(small_n, pairs, scaling_budget),
        large_pair_ns: measure_hold_pair(large_n, pairs, scaling_budget),
    };
    println!(
        "scheduler/lazy hold pair        n={small_n} {:.1} ns, n={large_n} {:.1} ns ({:.2}x)",
        scaling.small_pair_ns,
        scaling.large_pair_ns,
        scaling.large_pair_ns / scaling.small_pair_ns,
    );

    // The router contention grid: the same fleet shape, routed through
    // 1-32 cloned handles over one epoch-published view, next to the
    // bare in-simulator placement path measured in the same window.
    let (router_routes_per_thread, router_budget) = if check {
        (2_000u64, Duration::from_millis(30))
    } else {
        (100_000u64, Duration::from_millis(400))
    };
    let sim_path = measure_sim_path(router_routes_per_thread, router_budget);
    println!("router/sim_path (bare engine)   {sim_path:>10.3e} routes/s");
    let mut router_cells = Vec::new();
    for &threads in &[1usize, 2, 4, 8, 16, 32] {
        let cell = measure_router(threads, router_routes_per_thread, router_budget);
        println!(
            "router/threads={:<2}  {:>10.3e} routes/s  ({:.2}x vs sim path)",
            cell.threads,
            cell.routes_per_sec,
            cell.routes_per_sec / sim_path,
        );
        router_cells.push(cell);
    }

    // The perf floor: every cluster cell with a recorded baseline must
    // clear `ratio × baseline` (tightened per cell by [`CELL_FLOOR`]),
    // and the 1-thread router cell must clear `ratio × sim_path` (the
    // embeddable surface may cost something, but never 4x). Ratios are
    // generous by design — the gate exists to catch structural
    // regressions (a debug build, an accidentally quadratic path), not
    // to arbitrate benchmark noise.
    if let Some(ratio) = floor {
        let mut failed = false;
        for c in &cluster_cells {
            if let Some(b) = c.baseline_req_per_sec {
                let cell_ratio = CELL_FLOOR
                    .iter()
                    .find(|(name, _)| *name == c.scenario)
                    .map_or(ratio, |&(_, r)| ratio.max(r));
                let min = cell_ratio * b;
                if c.req_per_sec < min {
                    eprintln!(
                        "FLOOR VIOLATION: cluster/{} measured {:.3e} req/s, \
                         below {cell_ratio} x baseline {b:.3e} = {min:.3e}",
                        c.scenario, c.req_per_sec
                    );
                    failed = true;
                }
            }
        }
        // The telemetry-overhead gate: sampled spans and plain counters
        // must stay within 10% of the telemetry-off rate, measured
        // interleaved in this same invocation so both sides saw the
        // same host weather. A breach means instrumentation crept onto
        // the per-event path (an unsampled timer, an allocation), which
        // no amount of shared-runner noise produces at best-of-N.
        const TELEMETRY_OVERHEAD_FLOOR: f64 = 0.9;
        if telemetry.on_req_per_sec < TELEMETRY_OVERHEAD_FLOOR * telemetry.off_req_per_sec {
            eprintln!(
                "FLOOR VIOLATION: telemetry-on two_class measured {:.3e} req/s, below \
                 {TELEMETRY_OVERHEAD_FLOOR} x its interleaved telemetry-off rate {:.3e}",
                telemetry.on_req_per_sec, telemetry.off_req_per_sec
            );
            failed = true;
        }
        // The sharded-scaling gate: at 4 workers the giant cell must
        // hold at least 2x its own 1-worker rate — but only on hosts
        // that physically have 4 cores to scale onto. On narrower hosts
        // the ratio measures oversubscription overhead, not scaling
        // (see SHARDED_NOTE), so the gate stays disarmed and the
        // recorded figure is context, not a contract.
        const SHARDED_SPEEDUP_FLOOR: f64 = 2.0;
        if sharded.cores >= 4
            && sharded.w4_req_per_sec < SHARDED_SPEEDUP_FLOOR * sharded.w1_req_per_sec
        {
            eprintln!(
                "FLOOR VIOLATION: sharded giant at 4 workers measured {:.3e} req/s, below \
                 {SHARDED_SPEEDUP_FLOOR} x its interleaved 1-worker rate {:.3e} on a \
                 {}-core host",
                sharded.w4_req_per_sec, sharded.w1_req_per_sec, sharded.cores
            );
            failed = true;
        }
        // The scheduler-scaling gate: the lazy board's hold pair at the
        // giant population may cost at most SCHEDULER_SCALING_CEILING x
        // its cost at 64. Both sides are measured in this invocation,
        // so host speed cancels; a breach means the pair grows with the
        // population again (a wheel too narrow for it), not noise.
        let scaling_ratio = scaling.large_pair_ns / scaling.small_pair_ns;
        if scaling_ratio > SCHEDULER_SCALING_CEILING {
            eprintln!(
                "FLOOR VIOLATION: lazy hold pair at n={} costs {:.1} ns, {scaling_ratio:.1}x \
                 its {:.1} ns at n={} (ceiling {SCHEDULER_SCALING_CEILING}x)",
                scaling.large_n, scaling.large_pair_ns, scaling.small_pair_ns, scaling.small_n
            );
            failed = true;
        }
        if let Some(single) = router_cells.iter().find(|c| c.threads == 1) {
            let min = ratio * sim_path;
            if single.routes_per_sec < min {
                eprintln!(
                    "FLOOR VIOLATION: router/threads=1 measured {:.3e} routes/s, \
                     below {ratio} x sim path {sim_path:.3e} = {min:.3e}",
                    single.routes_per_sec
                );
                failed = true;
            }
        }
        if failed {
            eprintln!(
                "bench floor gate failed — a tracked cluster cell lost more than \
                 {:.0}% of its recorded throughput (debug build? pathological \
                 regression?)",
                (1.0 - ratio) * 100.0
            );
            return ExitCode::FAILURE;
        }
        println!("floor gate passed: every tracked cell >= {ratio} x its baseline");
    }

    let write_file = |path: &PathBuf, json: &str| {
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(json.as_bytes()).and_then(|()| f.sync_all()))
    };
    for (path, json) in [
        (&out_path, render_json(&cells, mode)),
        (
            &cluster_out_path,
            render_cluster_json(&cluster_cells, &telemetry, &sharded, &scaling, mode),
        ),
        (
            &router_out_path,
            render_router_json(&router_cells, sim_path, mode),
        ),
    ] {
        match write_file(path, &json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
