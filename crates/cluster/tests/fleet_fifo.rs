//! The fleet's admission FIFO — an inline ring of the oldest
//! [`RING`] admission times per record, spilling deeper queues to a
//! recycled lane pool — checked against a plain `VecDeque` per slot.
//!
//! Random join / depart / `serve_one_now` / deactivate / activate
//! sequences run on speed-1 and speed-8 slots. Joins and departures come
//! in bursts of up to `2 * RING` on one slot, so queues cross the ring
//! depth in both directions and spill lanes are taken, drained, released
//! and handed to other slots. Every latency must match the model bit for
//! bit, and every counter after every step.

use bnb_cluster::fleet::RING;
use bnb_cluster::Fleet;
use bnb_queueing::Admission;
use bnb_router::LoadView;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::VecDeque;

/// One slot of the reference model.
#[derive(Debug, Clone)]
struct ModelSlot {
    speed: u64,
    fifo: VecDeque<f64>,
    max_queue: u64,
    completed: u64,
    dropped: u64,
    alive: bool,
}

impl ModelSlot {
    fn new(speed: u64) -> Self {
        ModelSlot {
            speed,
            fifo: VecDeque::new(),
            max_queue: 0,
            completed: 0,
            dropped: 0,
            alive: true,
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// `count` joins on the `pick`-th alive slot, `dt` apart.
    Join { pick: usize, count: usize, dt: f64 },
    /// Up to `count` departures on the `pick`-th busy alive slot.
    Depart { pick: usize, count: usize, dt: f64 },
    /// The fused loop's bypass on the `pick`-th idle alive slot.
    ServeOneNow { pick: usize, service: f64 },
    /// The `pick`-th alive slot leaves (skipped for the last one).
    Deactivate { pick: usize },
    /// A fresh slot of speed 1 or 8 joins.
    Activate { fast: bool },
}

/// Joins and departures dominate (6 : 5) so queues run deep; the
/// bypass, deactivations and activations are rarer.
fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u8..15,
        any::<usize>(),
        1..=2 * RING,
        0.0..1.0f64,
        any::<bool>(),
    )
        .prop_map(|(kind, pick, count, x, fast)| match kind {
            0..=5 => Op::Join { pick, count, dt: x },
            6..=10 => Op::Depart { pick, count, dt: x },
            11 | 12 => Op::ServeOneNow {
                pick,
                service: 2.0 * x,
            },
            13 => Op::Deactivate { pick },
            _ => Op::Activate { fast },
        })
}

fn nth_matching(
    model: &[ModelSlot],
    pick: usize,
    pred: impl Fn(&ModelSlot) -> bool,
) -> Option<usize> {
    let slots: Vec<usize> = (0..model.len()).filter(|&i| pred(&model[i])).collect();
    (!slots.is_empty()).then(|| slots[pick % slots.len()])
}

fn assert_same_state(fleet: &Fleet, model: &[ModelSlot]) -> Result<(), TestCaseError> {
    prop_assert_eq!(fleet.n_slots(), model.len());
    prop_assert_eq!(fleet.n_alive(), model.iter().filter(|m| m.alive).count());
    for (i, m) in model.iter().enumerate() {
        let s = fleet.server(i);
        let queue = m.fifo.len() as u64;
        prop_assert_eq!(s.queue_len(), queue, "slot {} queue", i);
        prop_assert_eq!(s.max_queue(), m.max_queue, "slot {} peak", i);
        prop_assert_eq!(s.completed(), m.completed, "slot {} completed", i);
        prop_assert_eq!(s.dropped(), m.dropped, "slot {} dropped", i);
        prop_assert_eq!(s.is_alive(), m.alive, "slot {} alive", i);
        prop_assert_eq!(s.speed(), m.speed, "slot {} speed", i);
        prop_assert_eq!(
            LoadView::load(fleet, i),
            (queue, m.speed),
            "slot {} word",
            i
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ring_and_spill_fifo_matches_a_vecdeque_model(
        fast in proptest::collection::vec(any::<bool>(), 0..4),
        cap in prop_oneof![Just(None), (RING as u64 + 1..4 * RING as u64).prop_map(Some)],
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let speeds: Vec<u64> = std::iter::once(false)
            .chain(fast)
            .map(|f| if f { 8 } else { 1 })
            .collect();
        let mut fleet = Fleet::new(&speeds, cap);
        let mut model: Vec<ModelSlot> = speeds.iter().map(|&s| ModelSlot::new(s)).collect();
        let mut now = 0.0f64;
        for op in ops {
            match op {
                Op::Join { pick, count, dt } => {
                    let i = nth_matching(&model, pick, |m| m.alive).expect("one slot stays alive");
                    for _ in 0..count {
                        now += dt;
                        let got = fleet.try_join(i, now);
                        let m = &mut model[i];
                        let want = if cap.is_some_and(|c| m.fifo.len() as u64 >= c) {
                            m.dropped += 1;
                            Admission::Dropped
                        } else {
                            m.fifo.push_back(now);
                            m.max_queue = m.max_queue.max(m.fifo.len() as u64);
                            if m.fifo.len() == 1 { Admission::StartedService } else { Admission::Queued }
                        };
                        prop_assert_eq!(got, want);
                    }
                }
                Op::Depart { pick, count, dt } => {
                    let Some(i) = nth_matching(&model, pick, |m| m.alive && !m.fifo.is_empty()) else {
                        continue;
                    };
                    for _ in 0..count.min(model[i].fifo.len()) {
                        now += dt;
                        let (latency, more) = fleet.depart(i, now);
                        let m = &mut model[i];
                        let admitted = m.fifo.pop_front().expect("busy slot");
                        m.completed += 1;
                        prop_assert_eq!(latency.to_bits(), (now - admitted).to_bits());
                        prop_assert_eq!(more, !m.fifo.is_empty());
                    }
                }
                Op::ServeOneNow { pick, service } => {
                    let Some(i) = nth_matching(&model, pick, |m| m.alive && m.fifo.is_empty()) else {
                        continue;
                    };
                    let departed = now + service;
                    let latency = fleet.serve_one_now(i, now, departed);
                    let m = &mut model[i];
                    m.max_queue = m.max_queue.max(1);
                    m.completed += 1;
                    prop_assert_eq!(latency.to_bits(), (departed - now).to_bits());
                    now = departed;
                }
                Op::Deactivate { pick } => {
                    if fleet.n_alive() < 2 {
                        continue;
                    }
                    let i = nth_matching(&model, pick, |m| m.alive).expect("alive slots");
                    let orphans = fleet.deactivate(i, now);
                    let m = &mut model[i];
                    prop_assert_eq!(orphans, m.fifo.len() as u64);
                    m.fifo.clear();
                    m.alive = false;
                }
                Op::Activate { fast } => {
                    let speed = if fast { 8 } else { 1 };
                    let slot = fleet.activate_new(speed);
                    prop_assert_eq!(slot, model.len());
                    model.push(ModelSlot::new(speed));
                }
            }
            assert_same_state(&fleet, &model)?;
        }
        prop_assert_eq!(fleet.total_completed(), model.iter().map(|m| m.completed).sum::<u64>());
        prop_assert_eq!(fleet.total_dropped(), model.iter().map(|m| m.dropped).sum::<u64>());
    }
}
