//! `hotprof` — component-level timing of the cluster serving hot path.
//!
//! ```sh
//! cargo run --release -p bnb-cluster --example hotprof
//! ```
//!
//! Times each hot-path layer in isolation (scheduler hold pattern at
//! 64 pending departures, and the lazy board's at 131072, fleet
//! join/depart, d = 2 placement, arrival generation, exponential
//! block, ring successor, metrics assembly) next to end-to-end
//! scenarios on the serial engine's fused drive loop. Each figure is
//! the **best of five** runs — on shared hosts whose speed swings
//! with neighbour load, the minimum is the stable estimate of
//! intrinsic cost (same convention as `bench-snapshot`). This is the
//! harness behind the per-component numbers quoted in the README's
//! performance section; `perf` is rarely available in the containers
//! this repo is benched in, so the decomposition is measured, not
//! sampled.
//!
//! `--smoke` shrinks every cell ~20× and takes the best of two runs:
//! CI runs it so a scheduler-pair regression surfaces against a named
//! component, not just an end-to-end cell ratio. Smoke timings are
//! printed for the log but not gated — shared runners are far too
//! noisy to assert on nanoseconds.

use bnb_cluster::{find_scenario, SimBuilder};
use bnb_distributions::{AliasTable, ExponentialBlock, WeightedSampler, Xoshiro256PlusPlus};
use bnb_queueing::calendar::CalendarQueue;
use bnb_queueing::events::{EventQueue, EventScheduler};
use bnb_queueing::lazy::LazyBoard;
use bnb_telemetry::Registry;

fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

fn time<F: FnMut() -> u64>(label: &str, mut f: F) {
    // Warm once, then take the best of 5 (2 in smoke mode). Each run is
    // one `bnb-telemetry` span sample (shift 0 = sample every entry, no
    // trace buffer); the span's exact running minimum is the best-of-N
    // estimate, the same convention this harness has always used.
    f();
    let runs = if smoke() { 2 } else { 5 };
    let registry = Registry::with_sampling(0, 0);
    let mut span = registry.span("hotprof.cell", 0);
    let mut ops = 0u64;
    for _ in 0..runs {
        let token = span.enter();
        ops = f();
        span.exit(token);
    }
    let best = span.min_ns() as f64 / 1e9;
    println!(
        "{label:<34} {:>8.1} ns/op  ({:.3e} op/s)",
        best / ops as f64 * 1e9,
        ops as f64 / best
    );
}

fn main() {
    // Work per cell shrinks by this factor in smoke mode.
    let scale: u64 = if smoke() { 20 } else { 1 };
    // End-to-end scenarios: d = 2 on a uniform and a two-class fleet,
    // and hash-then-probe placement under churn.
    for id in ["uniform", "two-class", "churny-p2p"] {
        let sc = find_scenario(id).unwrap();
        time(&format!("{id} fused"), || {
            let m = SimBuilder::scenario(sc, 200_000 / scale)
                .seed(42)
                .build()
                .run();
            m.requests
        });
    }

    // Scheduler in isolation: simulation-shaped hold pattern (population
    // ~64, schedule at now + Exp).
    let mut exp = ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(7));
    time("calendar hold(64) sched+pop", || {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        for i in 0..64u32 {
            q.schedule(exp.next(), i);
        }
        let n = 2_000_000 / scale;
        for _ in 0..n {
            let (t, s) = q.pop().unwrap();
            q.schedule(t + exp.next(), s);
        }
        n
    });
    time("lazy hold(64) sched+pop", || {
        let mut q = LazyBoard::with_slots(64);
        for i in 0..64u32 {
            q.schedule(i, exp.next());
        }
        let n = 2_000_000 / scale;
        for _ in 0..n {
            let (t, s) = q.pop().unwrap();
            q.schedule(s, t + exp.next());
        }
        n
    });
    // The same pair at the giant fleet's population: one board filled
    // once with 131072 pending departures (the wheel sized from that
    // slot count), held at that population across runs, so the cell
    // times pairs, not the fill.
    {
        let n = 131_072u32;
        let mut q = LazyBoard::with_slots(n as usize);
        for i in 0..n {
            q.schedule(i, exp.next());
        }
        time("lazy hold(131072) sched+pop", || {
            let pairs = 2_000_000 / scale;
            for _ in 0..pairs {
                let (t, s) = q.pop().unwrap();
                q.schedule(s, t + exp.next());
            }
            pairs
        });
    }
    time("heap hold(64) sched+pop", || {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..64u32 {
            EventScheduler::schedule(&mut q, exp.next(), i);
        }
        let n = 2_000_000 / scale;
        for _ in 0..n {
            let (t, s) = q.pop().unwrap();
            EventScheduler::schedule(&mut q, t + exp.next(), s);
        }
        n
    });

    // Fleet join/depart pair (two-class shape, busy server).
    {
        use bnb_cluster::{ArrivalProcess, ArrivalSampler, Fleet, PlacementEngine, PlacementSpec};
        let speeds: Vec<u64> = (0..64).map(|i| if i < 32 { 1 } else { 8 }).collect();
        let mut fleet = Fleet::new(&speeds, Some(64));
        time("fleet try_join+depart pair", || {
            let n = 4_000_000 / scale;
            let mut now = 0.0;
            for i in 0..n {
                let s = (i % 64) as usize;
                now += 0.001;
                fleet.try_join(s, now);
                let (lat, _) = fleet.depart(s, now + 0.5);
                std::hint::black_box(lat);
            }
            n
        });
        let mut router =
            PlacementEngine::new(PlacementSpec::DChoice { d: 2 }, &fleet.membership(), 5);
        time("router place d=2", || {
            let n = 8_000_000 / scale;
            let mut acc = 0usize;
            for _ in 0..n {
                acc ^= router.place(&fleet, 0);
            }
            std::hint::black_box(acc);
            n
        });
        let mut arr = ArrivalSampler::new(ArrivalProcess::Poisson { rate: 230.0 }, 3);
        time("arrival next_after (poisson)", || {
            let n = 8_000_000 / scale;
            let mut t = 0.0;
            for _ in 0..n {
                t = arr.next_after(t);
            }
            std::hint::black_box(t);
            n
        });
    }

    // Metrics assembly per recorded latency.
    {
        use bnb_cluster::{ClusterMetrics, Fleet};
        let fleet = Fleet::new(&[1; 64], Some(64));
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(11);
        let lats: Vec<f64> = (0..200_000).map(|_| rng.next_f64() * 10.0).collect();
        time("metrics collect per latency", || {
            let n = (40 / scale).max(1);
            for _ in 0..n {
                let m = ClusterMetrics::collect(&fleet, lats.clone(), 200_000, 0, 0, 0, 1.0);
                std::hint::black_box(m.latency);
            }
            n * 200_000
        });
    }

    // Exp block throughput.
    time("exp block next()", || {
        let n = 8_000_000 / scale;
        let mut acc = 0.0;
        for _ in 0..n {
            acc += exp.next();
        }
        std::hint::black_box(acc);
        n
    });

    // Alias batched candidates (64 bins, d=2 per request).
    let weights: Vec<f64> = (0..64).map(|i| if i < 32 { 1.0 } else { 8.0 }).collect();
    let table = AliasTable::new(&weights);
    let mut rng = Xoshiro256PlusPlus::from_u64_seed(3);
    time("alias sample_batch per token", || {
        let mut buf = [0usize; 1024];
        let n = 4_000 / scale;
        let mut acc = 0usize;
        for _ in 0..n {
            table.sample_batch(&mut rng, &mut buf);
            acc ^= buf[0];
        }
        std::hint::black_box(acc);
        n * 1024
    });

    // Ring successor (churny-p2p shape: 64 peers x 8 vnodes).
    use bnb_hashring::MembershipRing;
    let ring = MembershipRing::new(9, 8, &(0..64u64).collect::<Vec<_>>()).into_ring();
    time("ring successor", || {
        let n = 8_000_000 / scale;
        let mut acc = 0usize;
        let mut k = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..n {
            k = k.wrapping_mul(0xD120_3C85_7979_89E9).wrapping_add(1);
            acc ^= ring.successor(k);
        }
        std::hint::black_box(acc);
        n
    });

    // Ring rebuild, from scratch (the old churn-tick cost).
    time("membership_ring full build", || {
        let ids: Vec<u64> = (0..64).collect();
        let n = 20_000 / scale;
        let mut acc = 0usize;
        for _ in 0..n {
            let r = MembershipRing::new(9, 8, &ids);
            acc ^= r.ring().successor(1);
        }
        std::hint::black_box(acc);
        n
    });

    // Ring rebuild, incremental (the new churn-tick cost): each tick
    // retires the lowest id and admits a fresh one, like fleet churn.
    time("membership_ring incr update", || {
        let n = 20_000 / scale;
        let mut ids: Vec<u64> = (0..64).collect();
        let mut mring = MembershipRing::new(9, 8, &ids);
        let mut acc = 0usize;
        for next in 64..64 + n {
            ids.remove(0);
            ids.push(next);
            mring.update(&ids);
            acc ^= mring.ring().successor(1);
        }
        std::hint::black_box(acc);
        n
    });
}
