//! Scheduler shoot-out on the simulation-shaped hold pattern: "pop the
//! minimum, reschedule it at `now + Exp`" with one pending event per
//! server, swept over fleet populations n = 64, 1024, 16384 and 131072
//! for the slot-keyed lazy board, the calendar wheel and the binary
//! heap, so one report ranks them and shows how each scales with the
//! population (the decision record behind the fused loop's departure
//! path). `hotprof`'s `hold(64)` and `hold(131072)` cells give the
//! same numbers as flat ns/op.
//!
//! Each scheduler is filled once and held at its population across
//! iterations, so an iteration times schedule+pop pairs only — at
//! n = 131072 the fill would otherwise rival the pairs it precedes.

use bnb_distributions::{ExponentialBlock, Xoshiro256PlusPlus};
use bnb_queueing::events::EventScheduler;
use bnb_queueing::{CalendarQueue, EventQueue, LazyBoard};
use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Throughput};
use std::hint::black_box;

/// Pending departures held live — one per server of the swept fleets.
const POPULATIONS: [u32; 4] = [64, 1024, 16_384, 131_072];
/// Schedule+pop pairs per measured iteration.
const PAIRS: u64 = 100_000;

fn exp_block() -> ExponentialBlock {
    ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(bnb_bench::BENCH_SEED))
}

/// Fills `q` with `n` pending events (payload = slot) and benches
/// `PAIRS` pop+reschedule pairs per iteration on the held population.
/// The lazy board goes through the same trait: under the hold
/// discipline (reschedule only the slot just popped) its slot-keyed
/// semantics are indistinguishable from a multiset scheduler's.
fn bench_hold<Q: EventScheduler<u32>>(
    group: &mut BenchmarkGroup<'_>,
    n: u32,
    label: &str,
    mut q: Q,
) {
    let mut exp = exp_block();
    for i in 0..n {
        q.schedule(exp.next(), i);
    }
    group.bench_function(BenchmarkId::new(format!("hold{n}"), label), |b| {
        b.iter(|| {
            for _ in 0..PAIRS {
                let (t, s) = q.pop().unwrap();
                q.schedule(t + exp.next(), s);
            }
            black_box(q.len())
        });
    });
}

fn hold_pattern(c: &mut criterion::Criterion) {
    let mut group = c.benchmark_group("schedulers");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(PAIRS));
    for n in POPULATIONS {
        // The embedding form: pre-sized, so the wheel width is derived
        // from the slot count up front.
        bench_hold(&mut group, n, "lazy", LazyBoard::with_slots(n as usize));
        bench_hold(&mut group, n, "calendar", CalendarQueue::<u32>::new());
        bench_hold(&mut group, n, "heap", EventQueue::<u32>::new());
    }
    group.finish();
}

criterion_group!(benches, hold_pattern);
criterion_main!(benches);
