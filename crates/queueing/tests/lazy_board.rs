//! Property tests of the [`LazyBoard`] against an independent
//! lazy-deletion binary-heap oracle.
//!
//! The board's three claims — O(1) overwrite schedules, a
//! stale-tolerant candidate ring, full-scan refills — must jointly
//! behave as one stable *slot-keyed* priority queue: at most one live
//! entry per slot, superseded in place by reschedules, popped in
//! `(time, insertion sequence)` order. The oracle here is deliberately
//! *not* the crate's own `EventQueue`: it is a plain
//! `std::collections::BinaryHeap` over `(time, seq, slot)` plus an
//! authoritative per-slot sequence table, validating entries on pop
//! exactly as the textbook lazy-deletion heap does — so these tests
//! cannot share a bug with any scheduler implementation in the crate.
//!
//! Both sides assign sequence numbers in the same schedule order, and
//! the oracle pops only entries whose sequence is still the slot's
//! authoritative one — so asserting bitwise-equal `(time, slot)` pop
//! streams pins the full `(time, seq)` determinism contract. The op
//! mix drives the regimes the issue names: **overwrite storms**
//! (reschedule one slot repeatedly, exact same-time overwrites
//! included), **tie storms** (many slots at one instant), and
//! `pop_if_before` **window edges** (`bound == time` must not pop).
//!
//! The board sizes its wheel from the slot universe (one bag per ~32
//! slots, never fewer than 32), so the drives run twice over: a small
//! universe on the 32-bag floor, and a wide one whose populations of
//! thousands of pending entries fill a 128-bag wheel and force lap
//! refills and far-future jumps.

use bnb_queueing::LazyBoard;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Slot universe of the small drives (the board also grows on demand;
/// a fixed universe keeps overwrites frequent). Well under 1024, so
/// the board stays on its 32-bag floor.
const SLOTS: usize = 48;

/// Slot universe of the wide-wheel drives: 4096 slots is a 128-bag
/// wheel, four times the floor.
const WIDE_SLOTS: usize = 4096;

/// Sequence value of an idle slot in the oracle's authoritative table.
const IDLE: u64 = u64::MAX;

/// A `(time, seq)` key ordered time-ascending then seq-ascending.
/// Times are finite by construction, so `total_cmp` agrees with the
/// scheduler's comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key(f64, u64);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// The textbook lazy-deletion heap: every schedule pushes, overwrites
/// only bump the slot's authoritative sequence, and pop discards heap
/// entries whose sequence is no longer authoritative.
struct Oracle {
    heap: BinaryHeap<Reverse<(Key, u32)>>,
    current: Vec<u64>,
    next_seq: u64,
    len: usize,
}

impl Oracle {
    fn new(slots: usize) -> Self {
        Oracle {
            heap: BinaryHeap::new(),
            current: vec![IDLE; slots],
            next_seq: 0,
            len: 0,
        }
    }

    fn schedule(&mut self, slot: u32, time: f64) {
        if self.current[slot as usize] == IDLE {
            self.len += 1;
        }
        self.current[slot as usize] = self.next_seq;
        self.heap.push(Reverse((Key(time, self.next_seq), slot)));
        self.next_seq += 1;
    }

    /// Discards stale heap tops so `peek`/`pop_if_before` see the live
    /// minimum (discarding is permanent and safe: a stale entry can
    /// never become live again).
    fn settle(&mut self) {
        while let Some(Reverse((Key(_, seq), slot))) = self.heap.peek() {
            if self.current[*slot as usize] == *seq {
                break;
            }
            self.heap.pop();
        }
    }

    fn pop(&mut self) -> Option<(f64, u32)> {
        self.settle();
        let Reverse((Key(t, _), slot)) = self.heap.pop()?;
        self.current[slot as usize] = IDLE;
        self.len -= 1;
        Some((t, slot))
    }

    fn pop_if_before(&mut self, bound: f64) -> Option<(f64, u32)> {
        self.settle();
        if self
            .heap
            .peek()
            .is_some_and(|Reverse((Key(t, _), _))| *t < bound)
        {
            self.pop()
        } else {
            None
        }
    }

    fn peek(&mut self) -> Option<f64> {
        self.settle();
        self.heap.peek().map(|Reverse((Key(t, _), _))| *t)
    }
}

/// One step of a board drive.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule (or overwrite) one slot at this absolute time.
    Schedule(u32, f64),
    /// Reschedule the *same* slot `count` times across a narrow band —
    /// `width == 0` degenerates to exact same-time overwrites.
    OverwriteStorm {
        slot: u32,
        base: f64,
        width: f64,
        count: usize,
    },
    /// Schedule a run of distinct slots at evenly spaced times from
    /// `last_pop + base`: with `gap == 0` a tie storm (many slots at
    /// one instant), otherwise the bulk fill that builds a large
    /// pending population.
    Spread {
        first: u32,
        base: f64,
        gap: f64,
        count: usize,
    },
    /// Pop up to this many entries unconditionally.
    Pop(usize),
    /// Pop entries strictly before `last_pop + delta`, up to `max` —
    /// `delta` frequently lands the bound exactly on a scheduled time.
    PopBefore { delta: f64, max: usize },
}

/// Times biased toward the board's regimes: near-term scatter (ring
/// inserts and overflow drops), a tiny tie-prone value set, far
/// futures (beyond the ring horizon: two stores, no index), and
/// pre-anchor negatives.
fn time_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..50.0,
        0.0f64..50.0,
        0.0f64..50.0,
        prop_oneof![Just(3.0f64), Just(8.0), Just(8.0), Just(21.5)],
        50.0f64..2_000.0,
        1e9f64..1e12,
        -50.0f64..0.0,
    ]
}

fn op_strategy(slots: usize) -> impl Strategy<Value = Op> {
    let slot = 0u32..slots as u32;
    prop_oneof![
        (slot.clone(), time_strategy()).prop_map(|(s, t)| Op::Schedule(s, t)),
        (slot.clone(), time_strategy()).prop_map(|(s, t)| Op::Schedule(s, t)),
        (slot.clone(), time_strategy()).prop_map(|(s, t)| Op::Schedule(s, t)),
        (slot.clone(), 0.0f64..100.0, 0.0f64..2.0, 1usize..24).prop_map(
            |(slot, base, width, count)| Op::OverwriteStorm {
                slot,
                base,
                width,
                count
            }
        ),
        (slot.clone(), 0.0f64..100.0, 1usize..24).prop_map(|(slot, base, count)| {
            Op::OverwriteStorm {
                slot,
                base,
                width: 0.0,
                count,
            }
        }),
        (slot, 0.0f64..60.0, 1usize..24).prop_map(|(first, base, count)| Op::Spread {
            first,
            base,
            gap: 0.0,
            count
        }),
        (0usize..6).prop_map(Op::Pop),
        (0usize..6).prop_map(Op::Pop),
        (0.0f64..30.0, 1usize..8).prop_map(|(delta, max)| Op::PopBefore { delta, max }),
        (0.0f64..30.0, 1usize..8).prop_map(|(delta, max)| Op::PopBefore { delta, max }),
    ]
}

/// The wide-universe mix: the small drive's ops over 4096 slots plus
/// bulk fills of up to 2000 slots and long pop runs, so the board
/// holds thousands of pending entries spread over many laps. Fill gaps
/// span micro-gaps (one bag overflows: geometry rebuild), unit-scale
/// gaps (lap after lap of refills) and exact zeros (tie storms); the
/// far-future times of [`time_strategy`] park whole cohorts beyond the
/// lap for the cursor to jump to.
fn wide_op_strategy() -> impl Strategy<Value = Op> {
    let gap = prop_oneof![1e-7f64..1e-4, 0.001f64..2.0, 0.001f64..2.0, Just(0.0)];
    prop_oneof![
        op_strategy(WIDE_SLOTS),
        op_strategy(WIDE_SLOTS),
        op_strategy(WIDE_SLOTS),
        (
            0u32..WIDE_SLOTS as u32,
            time_strategy(),
            gap,
            64usize..2_000
        )
            .prop_map(|(first, base, gap, count)| Op::Spread {
                first,
                base,
                gap,
                count
            }),
        (0usize..1_500).prop_map(Op::Pop),
        (0.0f64..200.0, 1usize..1_500).prop_map(|(delta, max)| Op::PopBefore { delta, max }),
    ]
}

fn check_pop(
    step: usize,
    a: Option<(f64, u32)>,
    b: Option<(f64, u32)>,
) -> Result<bool, TestCaseError> {
    match (a, b) {
        (Some((ta, sa)), Some((tb, sb))) => {
            prop_assert_eq!(
                ta.to_bits(),
                tb.to_bits(),
                "time divergence at step {}: oracle {} vs board {}",
                step,
                ta,
                tb
            );
            prop_assert_eq!(sa, sb, "slot divergence at step {} (time {})", step, ta);
            Ok(true)
        }
        (None, None) => Ok(false),
        (a, b) => Err(TestCaseError::fail(format!(
            "presence divergence at step {step}: oracle {a:?} vs board {b:?}"
        ))),
    }
}

/// Drives the board and the oracle through one op sequence, asserting
/// identical `(time, slot)` pop streams, identical peeks and live
/// counts after every op, and an identical drain tail.
fn assert_matches_oracle(slots: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut board = LazyBoard::with_slots(slots);
    let mut oracle = Oracle::new(slots);
    let mut last_pop = 0.0f64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Schedule(slot, t) => {
                board.schedule(slot, t);
                oracle.schedule(slot, t);
            }
            Op::OverwriteStorm {
                slot,
                base,
                width,
                count,
            } => {
                for i in 0..count {
                    let frac = f64::from((i as u32).wrapping_mul(2_654_435_769) >> 16) / 65_536.0;
                    let t = last_pop + base + width * frac;
                    board.schedule(slot, t);
                    oracle.schedule(slot, t);
                }
            }
            Op::Spread {
                first,
                base,
                gap,
                count,
            } => {
                for i in 0..count {
                    let slot = (first + i as u32) % slots as u32;
                    let t = last_pop + base + gap * i as f64;
                    board.schedule(slot, t);
                    oracle.schedule(slot, t);
                }
            }
            Op::Pop(k) => {
                for _ in 0..k {
                    let got = check_pop(step, oracle.pop(), board.pop())?;
                    if let Some(t) = oracle.peek() {
                        last_pop = last_pop.max(t);
                    }
                    if !got {
                        break;
                    }
                }
            }
            Op::PopBefore { delta, max } => {
                let bound = last_pop + delta;
                for _ in 0..max {
                    let got = check_pop(
                        step,
                        oracle.pop_if_before(bound),
                        board.pop_if_before(bound),
                    )?;
                    if !got {
                        break;
                    }
                    last_pop = bound.min(last_pop.max(oracle.peek().unwrap_or(last_pop)));
                }
            }
        }
        prop_assert_eq!(oracle.len, board.len(), "live count at step {}", step);
        prop_assert_eq!(
            oracle.peek().map(f64::to_bits),
            board.peek().map(f64::to_bits),
            "peek at step {}",
            step
        );
    }
    loop {
        let a = oracle.pop();
        if !check_pop(usize::MAX, a, board.pop())? {
            break;
        }
        let _ = a;
    }
    prop_assert_eq!(board.len(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleavings of schedules, overwrite storms, tie
    /// storms and both pop flavours: the board emits the lazy-deletion
    /// heap oracle's exact `(time, slot)` stream.
    #[test]
    fn lazy_board_matches_lazy_heap_oracle(
        ops in prop::collection::vec(op_strategy(SLOTS), 1..300)
    ) {
        assert_matches_oracle(SLOTS, &ops)?;
    }

    /// Sustained overwrite storms with no relief: one hot slot is
    /// rescheduled over and over (stale candidates pile into the ring
    /// and overflow it) while bounded pops collect the survivors.
    #[test]
    fn sustained_overwrite_storms_stay_exact(
        bursts in prop::collection::vec((0u32..SLOTS as u32, 0.0f64..10.0, 4usize..24), 2..16),
        drain_between in prop::collection::vec(0usize..8, 2..16),
    ) {
        let mut ops = Vec::new();
        for (&(slot, base, count), &p) in bursts.iter().zip(&drain_between) {
            ops.push(Op::OverwriteStorm { slot, base, width: 0.25, count });
            ops.push(Op::Spread { first: slot, base, gap: 0.0, count: 6 });
            ops.push(Op::Pop(p));
        }
        ops.push(Op::Pop(10_000));
        assert_matches_oracle(SLOTS, &ops)?;
    }

    /// Entries pinned to the window edge: a monotone clock pops with
    /// `pop_if_before` at exactly the times entries sit on, so the
    /// strictly-before contract is tested where `bound == time` — with
    /// the entry freshly scheduled, overwritten to the same instant,
    /// and tied across slots.
    #[test]
    fn window_edge_bounds_are_strictly_before(
        edges in prop::collection::vec(0.25f64..16.0, 4..40),
        dup in prop::collection::vec(1usize..4, 4..40),
    ) {
        let mut ops = Vec::new();
        let mut t = 0.0;
        for (i, (&gap, &k)) in edges.iter().zip(&dup).enumerate() {
            t += gap;
            let slot = (i % SLOTS) as u32;
            for _ in 0..=k {
                // Same slot, same instant, repeatedly: an exact-time
                // overwrite storm sitting right on the window edge.
                ops.push(Op::Schedule(slot, t));
            }
            ops.push(Op::Schedule((slot + 7) % SLOTS as u32, t));
            ops.push(Op::PopBefore { delta: t, max: 2 });
        }
        ops.push(Op::Pop(10_000));
        assert_matches_oracle(SLOTS, &ops)?;
    }
}

proptest! {
    // Each wide case carries thousands of pending entries, so fewer
    // cases buy the same coverage per second as the small drives.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same oracle drive over a 4096-slot universe (a 128-bag
    /// wheel): bulk fills build populations of thousands, so pops cross
    /// many laps — overflow refills, far-future cursor jumps, geometry
    /// rebuilds — amid the overwrite and tie storms.
    #[test]
    fn wide_wheel_matches_lazy_heap_oracle(
        ops in prop::collection::vec(wide_op_strategy(), 1..60)
    ) {
        assert_matches_oracle(WIDE_SLOTS, &ops)?;
    }

    /// A full 4096-slot population drained through the wide wheel:
    /// every slot scheduled at spread times, a block rescheduled far
    /// into the future (parked beyond the lap, superseding candidates
    /// already in bags), interleaved with tie storms, then everything
    /// popped — lap refill after lap refill, and one jump to the
    /// far-future cohort.
    #[test]
    fn wide_wheel_full_population_drains_exactly(
        gap in prop_oneof![1e-6f64..1e-3, 0.01f64..1.0],
        far in 1e6f64..1e12,
        block in 0usize..WIDE_SLOTS,
        ties in prop::collection::vec((0u32..WIDE_SLOTS as u32, 0.0f64..100.0), 0..8),
        drain in 0usize..WIDE_SLOTS,
    ) {
        let mut ops = vec![Op::Spread { first: 0, base: 0.0, gap, count: WIDE_SLOTS }];
        ops.push(Op::Pop(drain / 4));
        ops.push(Op::Spread { first: block as u32, base: far, gap, count: WIDE_SLOTS / 4 });
        for (first, time) in ties {
            ops.push(Op::Spread { first, base: time, gap: 0.0, count: 64 });
            ops.push(Op::Pop(drain / 8));
        }
        ops.push(Op::Pop(10 * WIDE_SLOTS));
        assert_matches_oracle(WIDE_SLOTS, &ops)?;
    }
}
