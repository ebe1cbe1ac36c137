//! Per-layer probes, measured from outside: each times calls into one
//! layer's public functions at the workload's own parameters (fleet
//! size, speeds, placement policy, arrival process, run length).
//!
//! Every timed batch of calls is one occurrence of a `bnb-telemetry`
//! span recorded here, in the benchmark's own code; a probe's figure
//! is the span's total time, less what its empty occurrences would
//! read, over the calls it covered — an amortised cost that includes
//! the rare expensive calls (rebuild sweeps, refills). Each layer's
//! probes nest inside a `layer.*` span, whose self time (span duration
//! minus its probes' spans) is the cost of building the probes'
//! fixtures.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bnb_cluster::{
    ArrivalSampler, ClusterMetrics, ClusterSpec, Fleet, PlacementEngine, PlacementSpec,
};
use bnb_distributions::{AliasTable, ExponentialBlock, Xoshiro256PlusPlus};
use bnb_hashring::MembershipRing;
use bnb_queueing::{Admission, CalendarQueue, EventScheduler, LazyBoard};
use bnb_telemetry::{Registry, Span};

/// Calls per batch grow until one batch takes at least this long, so
/// the two clock reads of a span occurrence stay negligible.
const MIN_BATCH: Duration = Duration::from_millis(1);

/// Timed batches per probe, at least.
const MIN_BATCHES: u64 = 5;

/// Ring points per server when the workload's placement has no ring.
const DEFAULT_VNODES: usize = 8;

/// One probe's span, and the calls each of its occurrences covers.
pub struct Probe {
    /// The span, one occurrence per timed batch.
    pub span: Span,
    /// Calls per batch.
    pub calls: u64,
    /// Units of work per call the figure is quoted per (e.g. 64
    /// arrivals per `fill_after` call).
    pub per_call: u64,
    /// Nanoseconds per unit of the figure: 1 for ns, 1000 for µs.
    pub unit_ns: f64,
}

impl Probe {
    /// Time per unit of work, in the probe's unit; `empty_ns` is what
    /// a span occurrence around no work reads.
    pub fn value(&self, empty_ns: f64) -> f64 {
        let batches = self.span.samples() as f64;
        let work_ns = self.span.total_ns() as f64 - batches * empty_ns;
        work_ns / (batches * (self.calls * self.per_call) as f64) / self.unit_ns
    }
}

/// Times `op(k)` — `k` calls into the layer — in batches for about
/// `budget`. The batch size is calibrated first, untimed by the span,
/// after one call that may pay one-off set-up.
fn measure(
    registry: &Registry,
    name: &'static str,
    tid: u32,
    budget: Duration,
    per_call: u64,
    unit_ns: f64,
    mut op: impl FnMut(u64),
) -> Probe {
    op(1);
    let mut calls = 1u64;
    loop {
        let t = Instant::now();
        op(calls);
        if t.elapsed() >= MIN_BATCH || calls >= 1 << 30 {
            break;
        }
        calls *= 2;
    }
    let mut span = registry.span_unsampled(name, tid);
    let start = Instant::now();
    while span.samples() < MIN_BATCHES || start.elapsed() < budget {
        let token = span.enter();
        op(calls);
        span.exit(token);
    }
    Probe {
        span,
        calls,
        per_call,
        unit_ns,
    }
}

/// What a span occurrence around no work reads, in ns: the share of
/// the clock reads inside every timed span.
pub fn empty_span_ns(registry: &Registry) -> f64 {
    let mut span = registry.span_unsampled("bench.empty_span", 0);
    for _ in 0..100_000 {
        let token = span.enter();
        span.exit(token);
    }
    span.total_ns() as f64 / span.samples() as f64
}

/// A layer's probes, each named by its metric.
type Probes = Vec<(&'static str, Probe)>;

/// The probes of one layer, inside the layer's own span.
pub struct Layer {
    /// The `layer.*` span around fixtures and probes.
    pub span: Span,
    /// The layer's probes.
    pub probes: Probes,
}

impl Layer {
    /// Span duration minus the probes' spans, in ns.
    pub fn self_ns(&self) -> u64 {
        let children: u64 = self.probes.iter().map(|(_, p)| p.span.total_ns()).sum();
        self.span.total_ns().saturating_sub(children)
    }
}

/// The parameters the probes run at.
pub struct ProbeParams<'a> {
    /// The workload's spec.
    pub spec: &'a ClusterSpec,
    /// The workload seed.
    pub seed: u64,
    /// A run's metrics at this seed: its per-slot arrays and request
    /// count size the metrics probe.
    pub metrics: &'a ClusterMetrics,
    /// Time per probe.
    pub budget: Duration,
}

/// A fleet with the workload's speeds and queue bound, loaded to a
/// seeded queue mix of mean one job per unit of speed.
fn loaded_fleet(p: &ProbeParams<'_>) -> Fleet {
    let speeds = p.spec.speeds.as_slice();
    let mut fleet = Fleet::new(speeds, p.spec.queue_capacity);
    let mut rng = Xoshiro256PlusPlus::from_u64_seed(p.seed ^ 0xF1EE7);
    let cap = p.spec.queue_capacity.unwrap_or(u64::MAX);
    for (i, &s) in speeds.iter().enumerate() {
        let jobs = ((rng.next_f64() * 2.0 * s as f64) as u64).min(cap - 1);
        for _ in 0..jobs {
            let _ = fleet.try_join(i, 0.0);
        }
    }
    fleet
}

/// Runs every layer's probes.
pub fn run_all(registry: &Registry, p: &ProbeParams<'_>) -> Vec<Layer> {
    type LayerProbes = fn(&Registry, &ProbeParams<'_>, u32) -> Probes;
    let layers: [(&'static str, LayerProbes); 7] = [
        ("layer.queueing", queueing),
        ("layer.router", router),
        ("layer.fleet", fleet),
        ("layer.arrivals", arrivals),
        ("layer.distributions", distributions),
        ("layer.hashring", hashring),
        ("layer.metrics", metrics),
    ];
    layers
        .iter()
        .zip(1u32..)
        .map(|(&(name, probes), tid)| {
            let mut span = registry.span_unsampled(name, 100 * tid);
            let token = span.enter();
            let probes = probes(registry, p, 100 * tid + 1);
            span.exit(token);
            Layer { span, probes }
        })
        .collect()
}

fn queueing(reg: &Registry, p: &ProbeParams<'_>, tid: u32) -> Probes {
    // Hold loops at the workload's server count: one pending departure
    // per server, each pop rescheduled one Exp(1) draw later.
    let n = p.spec.speeds.n();
    let mut exp = ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(p.seed));
    let mut lazy = LazyBoard::with_slots(n);
    for slot in 0..n as u32 {
        lazy.schedule(slot, exp.next());
    }
    let lazy_pair = measure(reg, "queueing.lazy.pair", tid, p.budget, 1, 1.0, |k| {
        for _ in 0..k {
            let (t, s) = lazy.pop().expect("the hold loop keeps n pending");
            lazy.schedule(s, t + exp.next());
        }
    });
    drop(lazy);
    let mut cal: CalendarQueue<u32> = CalendarQueue::new();
    for slot in 0..n as u32 {
        cal.schedule(exp.next(), slot);
    }
    let calendar_pair = measure(reg, "queueing.calendar.pair", tid, p.budget, 1, 1.0, |k| {
        for _ in 0..k {
            let (t, s) = cal.pop().expect("the hold loop keeps n pending");
            cal.schedule(t + exp.next(), s);
        }
    });
    vec![
        ("queueing.lazy.pair_ns", lazy_pair),
        ("queueing.calendar.pair_ns", calendar_pair),
    ]
}

fn router(reg: &Registry, p: &ProbeParams<'_>, tid: u32) -> Probes {
    let fleet = loaded_fleet(p);
    let membership = fleet.membership();
    let mut engine = PlacementEngine::new(p.spec.placement, &membership, p.seed);
    let d2 = p.spec.placement == PlacementSpec::DChoice { d: 2 };
    let mut key = p.seed;
    let place = measure(reg, "router.place", tid, p.budget, 1, 1.0, |k| {
        let mut acc = 0usize;
        for _ in 0..k {
            acc ^= if d2 {
                engine.place_d2(&fleet)
            } else {
                key = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                engine.place(&fleet, key)
            };
        }
        black_box(acc);
    });
    let engine_new = measure(reg, "router.engine_new", tid, p.budget, 1, 1000.0, |k| {
        for _ in 0..k {
            black_box(PlacementEngine::new(p.spec.placement, &membership, p.seed));
        }
    });
    vec![
        ("router.place_ns", place),
        ("router.engine_new_us", engine_new),
    ]
}

fn fleet(reg: &Registry, p: &ProbeParams<'_>, tid: u32) -> Probes {
    let mut fleet = loaded_fleet(p);
    let n = fleet.n_slots() as u64;
    let mut rng = Xoshiro256PlusPlus::from_u64_seed(p.seed ^ 0x5107);
    let slots: Vec<usize> = (0..4096)
        .map(|_| (rng.next_f64() * n as f64) as usize % n as usize)
        .collect();
    let mut i = 0usize;
    let mut now = 0.0;
    let join_depart = measure(reg, "fleet.join_depart", tid, p.budget, 1, 1.0, |k| {
        for _ in 0..k {
            let s = slots[i % slots.len()];
            i += 1;
            now += 1e-3;
            if fleet.try_join(s, now) != Admission::Dropped {
                black_box(fleet.depart(s, now + 0.5));
            }
        }
    });
    vec![("fleet.join_depart_ns", join_depart)]
}

fn arrivals(reg: &Registry, p: &ProbeParams<'_>, tid: u32) -> Probes {
    // The fused loop's block size.
    const BLOCK: usize = 64;
    let mut sampler = ArrivalSampler::new(p.spec.arrivals, p.seed);
    let mut buf = Vec::with_capacity(BLOCK);
    let mut t = 0.0;
    let fill = measure(
        reg,
        "arrivals.fill",
        tid,
        p.budget,
        BLOCK as u64,
        1.0,
        |k| {
            for _ in 0..k {
                sampler.fill_after(t, BLOCK, &mut buf);
                t = buf[BLOCK - 1];
            }
        },
    );
    vec![("arrivals.fill_ns", fill)]
}

fn distributions(reg: &Registry, p: &ProbeParams<'_>, tid: u32) -> Probes {
    let mut exp = ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(p.seed));
    let exp_draw = measure(reg, "distributions.exp", tid, p.budget, 1, 1.0, |k| {
        let mut acc = 0.0;
        for _ in 0..k {
            acc += exp.next();
        }
        black_box(acc);
    });
    // The placement engine builds its alias table from the speeds as
    // f64 weights.
    let weights: Vec<f64> = p.spec.speeds.as_slice().iter().map(|&s| s as f64).collect();
    let alias_build = measure(
        reg,
        "distributions.alias_build",
        tid,
        p.budget,
        1,
        1000.0,
        |k| {
            for _ in 0..k {
                black_box(AliasTable::new(&weights));
            }
        },
    );
    vec![
        ("distributions.exp_ns", exp_draw),
        ("distributions.alias_build_us", alias_build),
    ]
}

fn hashring(reg: &Registry, p: &ProbeParams<'_>, tid: u32) -> Probes {
    let vnodes = match p.spec.placement {
        PlacementSpec::ConsistentHash { vnodes } | PlacementSpec::HashThenProbe { vnodes, .. } => {
            vnodes
        }
        PlacementSpec::DChoice { .. } | PlacementSpec::Rendezvous => DEFAULT_VNODES,
    };
    // Ids stay strictly increasing, as the fleet hands them out, so
    // every update takes the ring's incremental path: the oldest
    // member leaves and a fresh one joins.
    let n = p.spec.speeds.n() as u64;
    let mut ids: Vec<u64> = (0..n).collect();
    let mut ring = MembershipRing::new(p.seed, vnodes, &ids);
    let mut next = n;
    let update = measure(reg, "hashring.ring_update", tid, p.budget, 1, 1000.0, |k| {
        for _ in 0..k {
            ids.remove(0);
            ids.push(next);
            next += 1;
            ring.update(&ids);
        }
        black_box(ring.ring().successor(next));
    });
    vec![("hashring.ring_update_us", update)]
}

fn metrics(reg: &Registry, p: &ProbeParams<'_>, tid: u32) -> Probes {
    // A latency vector of the run's size; the copy each call consumes
    // is made outside the span.
    let m = p.metrics;
    let mut exp = ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(p.seed));
    let latencies: Vec<f64> = (0..m.completed).map(|_| exp.next()).collect();
    let parts = || {
        (
            m.per_server_completed.clone(),
            m.per_server_max_queue.clone(),
            m.per_server_speed.clone(),
            latencies.clone(),
        )
    };
    let collect = |(completed, max_queue, speed, lats)| {
        ClusterMetrics::from_parts(
            completed, max_queue, speed, lats, m.requests, m.dropped, m.orphaned, m.joins,
            m.leaves, m.horizon,
        )
    };
    black_box(collect(parts()));
    let mut span = reg.span_unsampled("metrics.collect", tid);
    let start = Instant::now();
    while span.samples() < MIN_BATCHES || start.elapsed() < p.budget {
        let input = parts();
        let token = span.enter();
        let out = collect(input);
        span.exit(token);
        black_box(out);
    }
    vec![(
        "metrics.collect_ns",
        Probe {
            span,
            calls: 1,
            per_call: m.requests,
            unit_ns: 1.0,
        },
    )]
}
