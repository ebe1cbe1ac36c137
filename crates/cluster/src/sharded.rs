//! The space-sharded parallel cluster simulator: the fleet partitioned
//! across worker threads, arrivals generated centrally in
//! **epoch-synchronised batches**, placement routed against a frozen
//! per-epoch fleet view, and per-shard reports merged in shard order
//! through [`bnb_stats::Mergeable`]/[`bnb_stats::merge_ordered`] so the
//! output is **byte-identical under any worker count**.
//!
//! ## Shards are cut by expected traffic
//!
//! A shard's work is the arrivals placement sends its slots, so the base
//! slot range is cut into `W` contiguous shards of near-equal *routing
//! weight* (`balanced_bounds`): cut `s` is the prefix whose weight sum is
//! closest to `s/W` of the total, and every shard keeps at least one
//! slot. The weight is what the policy sends a server, up to a common
//! factor (`routing_weights`): its speed under `DChoice` and
//! `Rendezvous`, which sample or score servers by speed, so the cuts sit
//! at the cumulative-speed quantiles; and 1 under `ConsistentHash` and
//! `HashThenProbe`, whose rings hash server ids with the same vnode
//! count for every server, so the cuts fall at equal slot counts. (The
//! load-aware probe of `HashThenProbe` does shift some traffic towards
//! fast servers; the weight follows its speed-blind candidates.) A churn
//! joiner takes its victim's shard (it has the victim's speed), so the
//! balance holds under churn. The cut is derived from the spec alone; it
//! is not an option.
//!
//! ## The epoch machine
//!
//! Simulated time is cut into fixed epochs of length
//! `Δ = 8192 / peak_rate` (≈ 8192 arrivals per epoch at the peak
//! rate). Each epoch runs the same coordinator/worker protocol:
//!
//! 1. **Churn (coordinator).** Churn ticks falling inside the epoch are
//!    quantised to the epoch start: victims draw from the same
//!    `derive_seed`-derived churn stream as the serial engine, the
//!    membership is rebuilt, and per-shard deactivate/activate ops are
//!    binned to the shards owning the affected slots.
//! 2. **Place (parallel).** The epoch's arrival times are chunked across
//!    the workers; each worker routes its chunk against the **frozen**
//!    epoch view (a [`DenseView`] over the coordinator's packed
//!    `(queue, speed)` words) through
//!    [`PlacementEngine::place_stateless`], with a per-arrival RNG
//!    derived from the arrival's global index — so a target is a pure
//!    function of `(spec, seed, arrival index)`, not of which worker
//!    computed it — and bins the placed arrivals by owning shard.
//! 3. **Advance (parallel).** Each shard applies its churn ops, merges
//!    its binned arrivals (one time-ordered run per placing worker, in
//!    arrival order) with its local departure board
//!    ([`bnb_queueing::LazyBoard`], departures strictly before an
//!    arrival go first, the arrival wins exact ties — the serial
//!    engine's convention), and reports the slots whose queue lengths
//!    changed. The coordinator folds those deltas into the next
//!    epoch's frozen view.
//! 4. **Arrivals (coordinator, overlapped with 3).** While the shards
//!    advance, the coordinator draws the *next* epoch's arrival times
//!    from the *identical* arrival stream the serial engine consumes
//!    (`derive_seed(seed, ARRIVAL_STREAM, 0)`). The times chain on that
//!    stream alone, so the offered traffic is a function of the seed
//!    alone and drawing it early changes nothing.
//!
//! A shard keeps its slots in the serial fleet's hot record
//! ([`ClusterServer`]) and admits, completes and evicts jobs through the
//! same record methods the serial [`crate::Fleet`] uses, so the queue
//! counters and the admission FIFO (inline ring plus spill lanes) are
//! one implementation for both engines. What stays shard-specific is
//! the slot addressing (local index ↔ global slot, the record's id)
//! and the counter-keyed service draws. In debug builds every epoch
//! boundary audits conservation per shard: arrivals routed equal
//! completed + dropped + orphaned + queued.
//!
//! After the request budget is offered, a final drain round pops every
//! remaining departure and the shards return their reports, which merge
//! **in shard order** and finalise into [`ClusterMetrics`].
//!
//! ## How epochs bound staleness
//!
//! Within an epoch, placement reads queue lengths frozen at the epoch
//! start — at most `Δ` simulated time units stale. Admission is *not*
//! stale: capacity drops are decided by the owning shard against the
//! live queue at the arrival's exact time. Shrinking the epoch length
//! recovers the serial engine's instantaneous-view semantics in the
//! limit; the fixed `Δ` trades that staleness for the right to route a
//! whole epoch of arrivals in parallel.
//!
//! ## Why the output cannot depend on the worker count
//!
//! Every piece of randomness is **counter-keyed** rather than
//! stream-threaded through the workers: placement RNGs key on the
//! arrival's global index, service draws key on `(slot, per-slot
//! counter)`, and arrivals/churn stay on the coordinator's serial
//! streams. Within an epoch's advance phase, slots never interact —
//! placement is frozen and queues, capacity checks and service draws
//! are slot-local — so each slot's trajectory depends only on its own
//! arrival sequence and its own service counters, never on which shard
//! processes it. The merge then canonicalises the only order-sensitive
//! reductions: per-slot records sort by global slot, and latencies go
//! slot-major before the mean is summed. Each shard counting-sorts its
//! own latencies by slot in parallel; base ranges are contiguous and
//! arrive in shard order, so they concatenate, and only the latencies
//! of churn-added slots (which interleave across shards) need a stable
//! sort by global slot.

use crate::arrivals::ArrivalSampler;
use crate::fleet::{ClusterServer, Spill};
use crate::metrics::ClusterMetrics;
use crate::sim::{ClusterSpec, ARRIVAL_STREAM, CHURN_STREAM, SERVICE_STREAM};
use bnb_distributions::{derive_seed, Xoshiro256PlusPlus};
use bnb_hashring::hash::mix64;
use bnb_queueing::events::Time;
use bnb_queueing::{Admission, LazyBoard};
use bnb_router::{DenseView, LoadWord, Member, Membership, PlacementEngine, PlacementSpec};
use bnb_stats::{merge_ordered, Mergeable};
use bnb_telemetry::MetricsSnapshot;
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;

/// Stream id of the per-arrival stateless placement RNG (candidate
/// draws and tie-breaks, keyed by global arrival index).
const PLACEMENT_STREAM: u64 = 0x706c_6163; // "plac"

/// Arrivals per epoch at the peak rate: the epoch length is
/// `EPOCH_ARRIVALS / peak_rate`. Large enough to amortise the two
/// synchronisation barriers per epoch over thousands of events, small
/// enough that the frozen placement view stays fresh. Public so
/// boundary-stress tests can align churn ticks exactly on epoch edges.
pub const EPOCH_ARRIVALS: f64 = 8192.0;

/// `2^53` as `f64` — converts the top 53 bits of a hashed `u64` into a
/// uniform in `(0, 1)` for the counter-keyed service draws.
const INV_2_53: f64 = 1.0 / 9_007_199_254_740_992.0;

/// A churn instruction bound for one shard, applied at an epoch start.
#[derive(Debug, Clone, Copy)]
enum ChurnOp {
    /// The slot leaves: orphan its backlog, mark it dead forever.
    Deactivate(u32),
    /// A fresh slot joins with the given speed.
    Activate {
        /// Global slot index of the new server.
        slot: u32,
        /// Service speed of the new server.
        speed: u64,
    },
}

/// The frozen per-epoch fleet view: one packed `(queue, speed)`
/// [`LoadWord`] per global slot, read by the placement round through
/// [`DenseView`], and the shard owning each global slot, read when the
/// placement round bins its arrivals. Shared as an `Arc` with every
/// worker for the round (workers drop their handle before replying),
/// and mutated in place via [`Arc::make_mut`] by the coordinator
/// between rounds.
#[derive(Debug, Clone)]
struct EpochView {
    words: Vec<LoadWord>,
    owner: Vec<u32>,
}

/// What placement sends each base slot, up to a common factor: its
/// speed for the policies that sample (`DChoice`) or score
/// (`Rendezvous`) servers by speed, 1 for the ring policies, whose
/// candidates are hashed from server ids with equal vnodes per server.
fn routing_weights(spec: &ClusterSpec) -> Vec<u64> {
    let speeds = spec.speeds.as_slice();
    match spec.placement {
        PlacementSpec::DChoice { .. } | PlacementSpec::Rendezvous => speeds.to_vec(),
        PlacementSpec::ConsistentHash { .. } | PlacementSpec::HashThenProbe { .. } => {
            vec![1; speeds.len()]
        }
    }
}

/// Cuts the base slot range `[0, weights.len())` into `shards`
/// contiguous ranges of near-equal weight; returns the `shards + 1`
/// bounds, shard `s` owning `[bounds[s], bounds[s + 1])`. Cut `s` is the
/// prefix whose weight sum is closest to `s / shards` of the total
/// (ties to the shorter prefix), clamped so that every shard keeps at
/// least one slot. The arithmetic is exact (`u128`), so the cut is a
/// pure function of the weights.
///
/// # Panics
/// Panics unless `1 <= shards <= weights.len()`.
fn balanced_bounds(weights: &[u64], shards: usize) -> Vec<u32> {
    let n = weights.len();
    assert!(
        (1..=n).contains(&shards),
        "need 1..={n} shards, got {shards}"
    );
    let prefix: Vec<u128> = std::iter::once(0)
        .chain(weights.iter().scan(0u128, |acc, &w| {
            *acc += u128::from(w);
            Some(*acc)
        }))
        .collect();
    let (total, k) = (prefix[n], shards as u128);
    let mut bounds = vec![0u32; shards + 1];
    bounds[shards] = n as u32;
    for s in 1..shards {
        // Compare `k · prefix[c]` with `s · total` to stay in integers.
        let target = s as u128 * total;
        let above = prefix.partition_point(|&p| k * p < target);
        let closest = if above > 0 && target - k * prefix[above - 1] <= k * prefix[above] - target {
            above - 1
        } else {
            above
        };
        let lo = bounds[s - 1] as usize + 1;
        bounds[s] = closest.clamp(lo, n - (shards - s)) as u32;
    }
    bounds
}

/// A task sent to a worker thread.
enum Task {
    /// Route the epoch's arrivals `times[start..start + count]` against
    /// the frozen view (`times[start]` is global arrival `first_index`)
    /// and bin them by owning shard; reply with one bin per shard.
    Place {
        view: Arc<EpochView>,
        engine: Arc<PlacementEngine>,
        times: Arc<Vec<Time>>,
        first_index: u64,
        start: usize,
        count: usize,
    },
    /// Apply churn ops and process this shard's arrivals/departures for
    /// the epoch `[t0, t1)`; reply with queue-length deltas. `runs` holds
    /// one time-ordered run of `(time, global slot)` per placing worker,
    /// in arrival order.
    Advance {
        ops: Vec<ChurnOp>,
        runs: Vec<Vec<(Time, u32)>>,
        t0: Time,
        t1: Time,
    },
    /// Pop every remaining departure (the budget is offered).
    Drain,
    /// Return the shard's report and stop.
    Finish,
}

/// A worker's reply to the coordinator.
enum Reply {
    Placed {
        worker: usize,
        bins: Vec<Vec<(Time, u32)>>,
    },
    Advanced {
        deltas: Vec<(u32, u32)>,
        last_event: Time,
    },
    Drained {
        last_event: Time,
    },
    Report {
        shard: usize,
        report: Box<(ShardReport, MetricsSnapshot)>,
    },
    /// The worker panicked (a failed assertion); sent by [`PanicNotice`].
    Panicked,
}

/// Held by each worker thread: if the worker unwinds, tells the
/// coordinator, which would otherwise wait forever for its reply (the
/// other workers keep the reply channel open).
struct PanicNotice(mpsc::Sender<Reply>);

impl Drop for PanicNotice {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.0.send(Reply::Panicked);
        }
    }
}

/// Everything a shard accumulated over a run, merged in shard order
/// through [`Mergeable`] and finalised into [`ClusterMetrics`].
#[derive(Debug, Clone, Default)]
struct ShardReport {
    /// `(global slot, speed, completed, max_queue, dropped)` per owned
    /// slot — appended across shards, then sorted by global slot.
    slots: Vec<(u32, u64, u64, u64, u64)>,
    /// Latencies of the shard's base slots, slot-major (each slot's in
    /// completion order). Base ranges are contiguous and merge in shard
    /// order, so the concatenation is slot-major over all base slots.
    base_latencies: Vec<f64>,
    /// `(global slot, latency)` of the shard's churn-added slots,
    /// slot-major; these interleave across shards, so the merged list is
    /// stable-sorted by global slot.
    churn_latencies: Vec<(u32, f64)>,
    orphaned: u64,
    last_event: Time,
}

impl Mergeable for ShardReport {
    fn merge_from(&mut self, other: &Self) {
        self.slots.extend_from_slice(&other.slots);
        self.base_latencies.extend_from_slice(&other.base_latencies);
        self.churn_latencies
            .extend_from_slice(&other.churn_latencies);
        self.orphaned += other.orphaned;
        self.last_event = self.last_event.max(other.last_event);
    }
}

/// One shard's server state: one [`ClusterServer`] record (the serial
/// fleet's record type, driven through the same `admit`/`complete`/
/// `evict` methods) per slot of the contiguous base range it owns plus
/// any churn-added slots assigned to it, indexed by local slot. A
/// record's id is its global slot. Slots never interact inside an
/// epoch, so the records and their spill pool are the *entire* serving
/// state of the shard.
struct ShardState {
    shard: usize,
    /// Base range `[lo, hi)` of global slots this shard owns.
    lo: u32,
    /// Initial fleet size: global slots `>= n0` are churn-added and
    /// resolve through `local_of_churn`.
    n0: u32,
    /// Base slots owned (`hi - lo`): local slots `>= n_base` are
    /// churn-added, in join (= global slot) order.
    n_base: usize,
    local_of_churn: HashMap<u32, u32>,
    servers: Vec<ClusterServer>,
    spill: Spill,
    /// Per-slot service-draw counters: draw `k` on slot `g` is
    /// `derive_seed(service_seed, g, k)` — pure in `(seed, slot, k)`.
    svc_counter: Vec<u64>,
    /// Queue bound (`u64::MAX` when unbounded).
    cap: u64,
    service_seed: u64,
    /// Departure board keyed by *local* slot index.
    board: LazyBoard,
    /// Delta dedup: slots touched during the current advance call.
    touched_stamp: Vec<u64>,
    epoch_stamp: u64,
    touched: Vec<u32>,
    /// `(local slot, latency)` in completion order.
    latencies: Vec<(u32, f64)>,
    orphaned: u64,
    /// Arrivals routed to this shard so far (the conservation audit's
    /// left-hand side).
    routed: u64,
    last_event: Time,
}

impl ShardState {
    /// A shard owning global slots `[lo, hi)` of a fleet that starts
    /// with `speeds`.
    ///
    /// # Panics
    /// Panics if a speed is zero or exceeds `u32::MAX`.
    fn new(
        shard: usize,
        lo: u32,
        hi: u32,
        speeds: &[u64],
        cap: Option<u64>,
        service_seed: u64,
    ) -> Self {
        let n = (hi - lo) as usize;
        ShardState {
            shard,
            lo,
            n0: speeds.len() as u32,
            n_base: n,
            local_of_churn: HashMap::new(),
            servers: (lo..hi)
                .map(|g| ClusterServer::new(speeds[g as usize], u64::from(g)))
                .collect(),
            spill: Spill::default(),
            svc_counter: vec![0; n],
            cap: cap.unwrap_or(u64::MAX),
            service_seed,
            board: LazyBoard::with_slots(n),
            touched_stamp: vec![0; n],
            epoch_stamp: 0,
            touched: Vec::new(),
            latencies: Vec::new(),
            orphaned: 0,
            routed: 0,
            last_event: 0.0,
        }
    }

    #[inline]
    fn local(&self, g: u32) -> usize {
        if g < self.n0 {
            (g - self.lo) as usize
        } else {
            self.local_of_churn[&g] as usize
        }
    }

    /// Global slot of local slot `l`.
    #[inline]
    fn global(&self, l: usize) -> u32 {
        self.servers[l].id() as u32
    }

    #[inline]
    fn touch(&mut self, l: usize) {
        if self.touched_stamp[l] != self.epoch_stamp {
            self.touched_stamp[l] = self.epoch_stamp;
            self.touched.push(l as u32);
        }
    }

    /// Schedules local slot `l`'s next departure at `t` plus a
    /// counter-keyed Exp(1) service draw (inverse-CDF over a uniform
    /// built from the top 53 bits of `derive_seed(service_seed,
    /// global_slot, counter)`) scaled by `1 / speed`.
    #[inline]
    fn schedule_service(&mut self, l: usize, t: Time) {
        let x = derive_seed(
            self.service_seed,
            u64::from(self.global(l)),
            self.svc_counter[l],
        );
        self.svc_counter[l] += 1;
        let u = ((x >> 11) as f64 + 0.5) * INV_2_53;
        let service = -u.ln() * self.servers[l].inv_speed();
        self.board.schedule(l as u32, t + service);
    }

    fn apply(&mut self, op: ChurnOp) {
        match op {
            ChurnOp::Deactivate(g) => {
                let l = self.local(g);
                debug_assert!(self.servers[l].is_alive(), "slot {g} deactivated twice");
                self.orphaned += self.servers[l].evict(&mut self.spill);
                self.touch(l);
            }
            ChurnOp::Activate { slot, speed } => {
                let l = self.servers.len();
                self.local_of_churn.insert(slot, l as u32);
                self.servers
                    .push(ClusterServer::new(speed, u64::from(slot)));
                self.svc_counter.push(0);
                self.touched_stamp.push(0);
                // The board grows itself on the first `schedule` for
                // this local index; nothing to pre-size here.
            }
        }
    }

    /// Processes the departure popped off the board at `(l, t)`. Stale
    /// entries (the slot died since scheduling) are skipped by the
    /// callers' `alive` check before this is reached.
    #[inline]
    fn depart(&mut self, l: usize, t: Time) {
        let (latency, more) = self.servers[l].complete(t, &mut self.spill);
        self.latencies.push((l as u32, latency));
        if more {
            self.schedule_service(l, t);
        }
        self.touch(l);
        self.last_event = t;
    }

    /// Pops every departure strictly before `bound` (the strict bound is
    /// the arrival-wins-ties convention shared with the serial engine).
    #[inline]
    fn drain_until(&mut self, bound: Time) {
        while let Some((t, l)) = self.board.pop_if_before(bound) {
            let l = l as usize;
            if self.servers[l].is_alive() {
                self.depart(l, t);
            }
        }
    }

    /// Admits one arrival routed to global slot `g` at time `t`.
    #[inline]
    fn arrive(&mut self, g: u32, t: Time) {
        let l = self.local(g);
        debug_assert!(self.servers[l].is_alive(), "arrival routed to a dead slot");
        if self.servers[l].admit(t, self.cap, &mut self.spill) == Admission::StartedService {
            self.schedule_service(l, t);
        }
        self.touch(l);
        self.last_event = t;
    }

    /// Conservation at an epoch boundary: every arrival routed to this
    /// shard was completed, dropped, orphaned, or is still queued.
    fn conserves(&self) -> bool {
        let held: u64 = self
            .servers
            .iter()
            .map(|s| s.completed() + s.dropped() + s.queue_len())
            .sum();
        held + self.orphaned == self.routed
    }

    /// One epoch: departures before `t0`, churn ops at `t0`, then the
    /// binned arrivals (`runs`, concatenated in order) merged with local
    /// departures up to `t1`. Returns the queue-length deltas of every
    /// slot touched.
    fn advance(
        &mut self,
        ops: Vec<ChurnOp>,
        runs: &[Vec<(Time, u32)>],
        t0: Time,
        t1: Time,
    ) -> Vec<(u32, u32)> {
        self.epoch_stamp += 1;
        self.touched.clear();
        self.drain_until(t0);
        for op in ops {
            self.apply(op);
        }
        for &(t, g) in runs.iter().flatten() {
            self.drain_until(t);
            self.arrive(g, t);
        }
        self.routed += runs.iter().map(|r| r.len() as u64).sum::<u64>();
        self.drain_until(t1);
        debug_assert!(
            self.conserves(),
            "shard {} lost or invented a job",
            self.shard
        );
        self.touched
            .iter()
            .map(|&l| {
                let s = &self.servers[l as usize];
                (s.id() as u32, s.queue_len() as u32)
            })
            .collect()
    }

    /// Pops every remaining departure — the budget is offered and the
    /// queues drain to empty (dead slots' stale entries are skipped).
    fn drain_all(&mut self) {
        while let Some((t, l)) = self.board.pop() {
            let l = l as usize;
            if self.servers[l].is_alive() {
                self.depart(l, t);
            }
        }
        debug_assert!(
            self.conserves(),
            "shard {} lost or invented a job",
            self.shard
        );
    }

    /// Counting-sorts the latencies into slot-major order (each slot's
    /// in completion order). Local slots run in global order — base
    /// slots first, then churn-added ones in join order — so the result
    /// is slot-major by global slot too; it is split at the base/churn
    /// boundary, the churn part tagged with its global slots.
    fn slot_major_latencies(&mut self) -> (Vec<f64>, Vec<(u32, f64)>) {
        let latencies = std::mem::take(&mut self.latencies);
        let mut offsets = vec![0usize; self.servers.len() + 1];
        for &(l, _) in &latencies {
            offsets[l as usize + 1] += 1;
        }
        for l in 0..self.servers.len() {
            offsets[l + 1] += offsets[l];
        }
        let base_len = offsets[self.n_base];
        let mut sorted = vec![0.0f64; latencies.len()];
        for &(l, v) in &latencies {
            sorted[offsets[l as usize]] = v;
            offsets[l as usize] += 1;
        }
        drop(latencies);
        // `offsets[l]` is now the end of slot `l`'s run.
        let mut start = base_len;
        let churn = (self.n_base..self.servers.len())
            .flat_map(|l| {
                let run = start..offsets[l];
                start = offsets[l];
                let g = self.global(l);
                sorted[run].iter().map(move |&v| (g, v))
            })
            .collect();
        sorted.truncate(base_len);
        (sorted, churn)
    }

    /// Consumes the shard into its report and telemetry snapshot.
    fn finish(mut self) -> (ShardReport, MetricsSnapshot) {
        let mut snap = MetricsSnapshot::new();
        self.board.stats().record_into(&mut snap);
        snap.add_counter("sharded.shard_slots", self.servers.len() as u64);
        let (base_latencies, churn_latencies) = self.slot_major_latencies();
        let slots = self
            .servers
            .iter()
            .map(|s| {
                (
                    s.id() as u32,
                    s.speed(),
                    s.completed(),
                    s.max_queue(),
                    s.dropped(),
                )
            })
            .collect();
        (
            ShardReport {
                slots,
                base_latencies,
                churn_latencies,
                orphaned: self.orphaned,
                last_event: self.last_event,
            },
            snap,
        )
    }
}

/// Routes the arrivals at `times` (the first is global arrival `first`)
/// against the frozen epoch view and bins them by owning shard, each bin
/// in arrival order. Pure in `(engine, view, place_seed, key_seed,
/// index)`: the same arrival gets the same target no matter which worker
/// (or how many workers) computes the chunk.
fn place_chunk(
    engine: &PlacementEngine,
    view: &EpochView,
    place_seed: u64,
    key_seed: u64,
    first: u64,
    times: &[Time],
    shards: usize,
) -> Vec<Vec<(Time, u32)>> {
    let dense = DenseView::new(&view.words);
    let needs_key = engine.needs_key();
    let mut bins = vec![Vec::new(); shards];
    for (i, &t) in (first..).zip(times) {
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(derive_seed(place_seed, i, 0));
        // Same counter-hashed key scheme as the serial engine,
        // which increments `arrived` before hashing — hence `i + 1`.
        let key = if needs_key {
            mix64(key_seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        } else {
            0
        };
        let g = engine.place_stateless(&dense, key, &mut rng) as u32;
        bins[view.owner[g as usize] as usize].push((t, g));
    }
    bins
}

/// Draws the arrival times before `t1` off the serial arrival stream.
/// `pending` is the next undrawn arrival (`None` once `requests` are
/// drawn) and `drawn` the count drawn so far.
fn draw_before(
    sampler: &mut ArrivalSampler,
    pending: &mut Option<Time>,
    drawn: &mut u64,
    requests: u64,
    t1: Time,
) -> Vec<Time> {
    let mut times = Vec::new();
    while let Some(t) = *pending {
        if t >= t1 {
            break;
        }
        times.push(t);
        *drawn += 1;
        *pending = (*drawn < requests).then(|| sampler.next_after(t));
    }
    times
}

/// A run's shard imbalance: the busiest shard's share of the arrivals
/// times the shard count, `max · W / arrived` (1.0 is a perfect split).
/// Read from a sharded run's telemetry snapshot; `None` for a serial run
/// or a run that offered nothing.
#[must_use]
pub fn shard_imbalance(snapshot: &MetricsSnapshot) -> Option<f64> {
    let shards = snapshot.counter("sharded.shards")?;
    let max = snapshot.counter("sharded.shard_arrivals_max")?;
    let arrived = snapshot.counter("sim.arrived").filter(|&a| a > 0)?;
    Some((max * shards) as f64 / arrived as f64)
}

/// The space-sharded parallel cluster simulator (see the module docs
/// for the epoch machine). Construct through
/// [`crate::SimBuilder::workers`]; the output is a pure function of
/// `(spec, seed)` and in particular **does not depend on the worker
/// count** — `workers = 1` and `workers = 4` render byte-identical
/// artifacts.
#[derive(Debug)]
pub struct ShardedClusterSim {
    spec: ClusterSpec,
    seed: u64,
    workers: usize,
    result: Option<ClusterMetrics>,
    snapshot: Option<MetricsSnapshot>,
}

impl ShardedClusterSim {
    /// Builds the sharded simulator with the given worker count
    /// (clamped to the fleet size; each worker owns one contiguous
    /// shard of slots, cut by expected traffic — see the module docs).
    ///
    /// # Panics
    /// Panics if `workers` is zero or the spec is invalid (same
    /// validation as the serial engine).
    #[must_use]
    pub fn new(spec: ClusterSpec, seed: u64, workers: usize) -> Self {
        assert!(workers >= 1, "the sharded engine needs at least one worker");
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
        ShardedClusterSim {
            spec,
            seed,
            workers,
            result: None,
            snapshot: None,
        }
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The spec this simulator runs.
    #[must_use]
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Runs the full request budget and drains the queues; returns the
    /// final metrics. A second call is a no-op returning the same
    /// metrics.
    pub fn run(&mut self) -> ClusterMetrics {
        if let Some(result) = &self.result {
            return result.clone();
        }
        let (metrics, snapshot) = run_sharded(&self.spec, self.seed, self.workers);
        self.result = Some(metrics.clone());
        self.snapshot = Some(snapshot);
        metrics
    }

    /// The merged per-shard telemetry snapshot of a finished run:
    /// deterministic counters (arrivals, epochs, per-shard lazy-board
    /// internals, thinning counts), merged in shard order. Counters are
    /// always on — like the serial engine's scheduler-internals
    /// counters — and the sharded engine records no wall-clock spans,
    /// so the snapshot is a pure function of `(spec, seed, workers)`.
    /// Empty before [`ShardedClusterSim::run`].
    #[must_use]
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        self.snapshot.clone().unwrap_or_default()
    }
}

/// The coordinator: owns the epoch loop, the serial RNG streams, the
/// frozen view and the worker channels.
fn run_sharded(spec: &ClusterSpec, seed: u64, workers: usize) -> (ClusterMetrics, MetricsSnapshot) {
    let n0 = spec.speeds.n();
    let s_count = workers.min(n0).max(1);
    let speeds0 = spec.speeds.as_slice();
    let requests = spec.requests;
    let bounds = balanced_bounds(&routing_weights(spec), s_count);

    // Coordinator-side load words (the authoritative epoch-boundary
    // state placement freezes against) and the slot-to-shard map: base
    // slots by the traffic cut the shards are built over, churn joiners
    // by their victim's shard.
    let mut view = Arc::new(EpochView {
        words: speeds0.iter().map(|&s| LoadWord::new(0, s)).collect(),
        owner: (0..s_count as u32)
            .flat_map(|s| (bounds[s as usize]..bounds[s as usize + 1]).map(move |_| s))
            .collect(),
    });
    let mut alive_slots: Vec<u32> = (0..n0 as u32).collect();
    let mut ids: Vec<u64> = (0..n0 as u64).collect();
    let mut next_id = n0 as u64;
    let membership = |alive_slots: &[u32], ids: &[u64], words: &[LoadWord]| {
        Membership::new(
            alive_slots
                .iter()
                .map(|&g| Member {
                    slot: g as usize,
                    id: ids[g as usize],
                    speed: u64::from(words[g as usize].speed),
                })
                .collect(),
        )
    };
    let mut engine = Arc::new(PlacementEngine::new(
        spec.placement,
        &membership(&alive_slots, &ids, &view.words),
        seed,
    ));

    let mut sampler = ArrivalSampler::new(spec.arrivals, derive_seed(seed, ARRIVAL_STREAM, 0));
    let mut churn_rng = Xoshiro256PlusPlus::from_u64_seed(derive_seed(seed, CHURN_STREAM, 0));
    let service_seed = derive_seed(seed, SERVICE_STREAM, 0);
    let place_seed = derive_seed(seed, PLACEMENT_STREAM, 0);
    let key_seed = seed;

    let delta = EPOCH_ARRIVALS / spec.arrivals.peak_rate();
    // Arrivals offered by the epochs already run; `drawn` runs one epoch
    // ahead of it (the next epoch's times are drawn during this one's
    // advance round).
    let mut offered: u64 = 0;
    let mut drawn: u64 = 0;
    let mut pending: Option<Time> = (requests > 0).then(|| sampler.next_after(0.0));
    let mut next_tick: Option<Time> = spec.churn.map(|c| c.start);
    let mut epoch: u64 = 0;
    let mut epochs_run = 0u64;
    let mut churn_epochs = 0u64;
    let mut joins = 0u64;
    let mut leaves = 0u64;
    let mut last_event: Time = 0.0;
    let mut shard_arrivals = vec![0u64; s_count];

    let mut ordered: Vec<Option<(ShardReport, MetricsSnapshot)>> =
        (0..s_count).map(|_| None).collect();

    std::thread::scope(|scope| {
        let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
        let mut task_txs: Vec<mpsc::Sender<Task>> = Vec::with_capacity(s_count);
        for s in 0..s_count {
            let (tx, rx) = mpsc::channel::<Task>();
            task_txs.push(tx);
            let reply = reply_tx.clone();
            let (lo, hi) = (bounds[s], bounds[s + 1]);
            let mut state = ShardState::new(s, lo, hi, speeds0, spec.queue_capacity, service_seed);
            scope.spawn(move || {
                let _notice = PanicNotice(reply.clone());
                while let Ok(task) = rx.recv() {
                    match task {
                        Task::Place {
                            view,
                            engine,
                            times,
                            first_index,
                            start,
                            count,
                        } => {
                            let bins = place_chunk(
                                &engine,
                                &view,
                                place_seed,
                                key_seed,
                                first_index,
                                &times[start..start + count],
                                s_count,
                            );
                            // Release the shared round state before
                            // replying, so the coordinator's next
                            // `Arc::make_mut` never has to copy it.
                            drop((view, engine, times));
                            let _ = reply.send(Reply::Placed { worker: s, bins });
                        }
                        Task::Advance { ops, runs, t0, t1 } => {
                            let deltas = state.advance(ops, &runs, t0, t1);
                            let _ = reply.send(Reply::Advanced {
                                deltas,
                                last_event: state.last_event,
                            });
                        }
                        Task::Drain => {
                            state.drain_all();
                            let _ = reply.send(Reply::Drained {
                                last_event: state.last_event,
                            });
                        }
                        Task::Finish => {
                            let shard = state.shard;
                            let report = state.finish();
                            let _ = reply.send(Reply::Report {
                                shard,
                                report: Box::new(report),
                            });
                            return;
                        }
                    }
                }
            });
        }
        drop(reply_tx);
        let recv = || match reply_rx.recv().expect("worker alive") {
            Reply::Panicked => panic!("a shard worker panicked"),
            reply => reply,
        };

        let mut times = Arc::new(draw_before(
            &mut sampler,
            &mut pending,
            &mut drawn,
            requests,
            delta,
        ));
        while offered < requests {
            let t0 = epoch as f64 * delta;
            let t1 = (epoch + 1) as f64 * delta;
            // 1. Churn ticks inside this epoch, quantised to its start.
            let mut ops_by_shard: Vec<Vec<ChurnOp>> = vec![Vec::new(); s_count];
            let mut churned = false;
            if let Some(churn) = spec.churn {
                while let Some(tick) = next_tick {
                    if tick >= t1 {
                        break;
                    }
                    // The serial engine's stop rule: no churn once the
                    // request budget is fully offered (counted before
                    // this epoch's arrivals).
                    if offered >= requests {
                        next_tick = None;
                        break;
                    }
                    if alive_slots.len() > 1 {
                        let pick = churn_rng.next_below(alive_slots.len() as u64) as usize;
                        let victim = alive_slots[pick];
                        alive_slots.remove(pick);
                        let v = Arc::make_mut(&mut view);
                        let vspeed = v.words[victim as usize].speed;
                        let shard = v.owner[victim as usize];
                        v.words[victim as usize].queue = 0;
                        ops_by_shard[shard as usize].push(ChurnOp::Deactivate(victim));
                        leaves += 1;
                        // A fresh server of the same speed joins the
                        // victim's shard, keeping the cut balanced.
                        let g = v.words.len() as u32;
                        v.words.push(LoadWord {
                            queue: 0,
                            speed: vspeed,
                        });
                        v.owner.push(shard);
                        ids.push(next_id);
                        next_id += 1;
                        alive_slots.push(g);
                        ops_by_shard[shard as usize].push(ChurnOp::Activate {
                            slot: g,
                            speed: u64::from(vspeed),
                        });
                        joins += 1;
                        churned = true;
                    }
                    next_tick = Some(tick + churn.interval);
                }
            }
            if churned {
                engine = Arc::new(PlacementEngine::new(
                    spec.placement,
                    &membership(&alive_slots, &ids, &view.words),
                    seed,
                ));
                churn_epochs += 1;
            }
            // 2. Place round: chunk the epoch's arrivals across the
            // workers, each of which bins its chunk by owning shard.
            let mut runs_by_shard: Vec<Vec<Vec<(Time, u32)>>> =
                (0..s_count).map(|_| Vec::with_capacity(s_count)).collect();
            if !times.is_empty() {
                let chunk = times.len().div_ceil(s_count);
                let mut sent = 0usize;
                for (w, tx) in task_txs.iter().enumerate() {
                    let start = w * chunk;
                    if start >= times.len() {
                        break;
                    }
                    tx.send(Task::Place {
                        view: Arc::clone(&view),
                        engine: Arc::clone(&engine),
                        times: Arc::clone(&times),
                        first_index: offered + start as u64,
                        start,
                        count: chunk.min(times.len() - start),
                    })
                    .expect("worker alive");
                    sent += 1;
                }
                let mut placed: Vec<Vec<Vec<(Time, u32)>>> = vec![Vec::new(); sent];
                for _ in 0..sent {
                    match recv() {
                        Reply::Placed { worker, bins } => placed[worker] = bins,
                        _ => unreachable!("place round replies with Placed"),
                    }
                }
                // Chunks are in arrival order, so each shard's runs are.
                for bins in placed {
                    for ((runs, count), bin) in
                        runs_by_shard.iter_mut().zip(&mut shard_arrivals).zip(bins)
                    {
                        if !bin.is_empty() {
                            *count += bin.len() as u64;
                            runs.push(bin);
                        }
                    }
                }
            }
            // 3. Advance round: every shard steps to t1 and reports the
            // queue deltas that feed the next epoch's frozen view.
            for (tx, (ops, runs)) in task_txs
                .iter()
                .zip(ops_by_shard.into_iter().zip(runs_by_shard))
            {
                tx.send(Task::Advance { ops, runs, t0, t1 })
                    .expect("worker alive");
            }
            // 4. Meanwhile, the next epoch's arrivals: they chain on the
            // arrival stream alone, so drawing them now changes nothing.
            let next = draw_before(
                &mut sampler,
                &mut pending,
                &mut drawn,
                requests,
                (epoch + 2) as f64 * delta,
            );
            for _ in 0..s_count {
                match recv() {
                    Reply::Advanced {
                        deltas,
                        last_event: le,
                    } => {
                        let v = Arc::make_mut(&mut view);
                        for (g, q) in deltas {
                            v.words[g as usize].queue = q;
                        }
                        last_event = last_event.max(le);
                    }
                    _ => unreachable!("advance round replies with Advanced"),
                }
            }
            offered += times.len() as u64;
            times = Arc::new(next);
            epoch += 1;
            epochs_run += 1;
        }
        debug_assert_eq!(shard_arrivals.iter().sum::<u64>(), offered);
        // Budget offered: drain every shard, then collect the reports.
        for tx in &task_txs {
            tx.send(Task::Drain).expect("worker alive");
        }
        for _ in 0..s_count {
            match recv() {
                Reply::Drained { last_event: le } => last_event = last_event.max(le),
                _ => unreachable!("drain round replies with Drained"),
            }
        }
        for tx in &task_txs {
            tx.send(Task::Finish).expect("worker alive");
        }
        for _ in 0..s_count {
            match recv() {
                Reply::Report { shard, report } => ordered[shard] = Some(*report),
                _ => unreachable!("finish round replies with Report"),
            }
        }
    });

    // Merge in shard order — the fixed order that keeps the fold
    // deterministic — then canonicalise and finalise.
    let (mut report, mut snap) = merge_ordered(
        ordered
            .into_iter()
            .map(|r| r.expect("every shard reported")),
    )
    .expect("at least one shard");

    report.slots.sort_unstable_by_key(|r| r.0);
    let total_slots = view.words.len();
    debug_assert_eq!(report.slots.len(), total_slots);
    let mut per_completed = Vec::with_capacity(total_slots);
    let mut per_max_queue = Vec::with_capacity(total_slots);
    let mut per_speed = Vec::with_capacity(total_slots);
    let mut dropped = 0u64;
    for &(g, speed, completed, max_queue, drops) in &report.slots {
        debug_assert_eq!(g as usize, per_speed.len(), "every slot reported once");
        per_completed.push(completed);
        per_max_queue.push(max_queue);
        per_speed.push(speed);
        dropped += drops;
    }
    // Slot-major latencies: the shards' base parts concatenated in
    // shard order, then the churn-added slots' (stable-sorted, so each
    // slot's stay in completion order). The order no longer remembers
    // how the fleet was sharded, so the mean's f64 summation order is
    // canonical.
    let mut latencies = report.base_latencies;
    report.churn_latencies.sort_by_key(|&(g, _)| g);
    latencies.extend(report.churn_latencies.iter().map(|&(_, l)| l));

    snap.add_counter("sim.arrived", offered);
    snap.add_counter("sharded.epochs", epochs_run);
    snap.add_counter("sharded.churn_epochs", churn_epochs);
    snap.add_counter("sharded.shards", s_count as u64);
    snap.add_counter(
        "sharded.shard_arrivals_max",
        shard_arrivals.iter().copied().max().unwrap_or(0),
    );
    snap.add_counter(
        "sharded.shard_arrivals_min",
        shard_arrivals.iter().copied().min().unwrap_or(0),
    );
    let (accepted, rejected, squeeze) = sampler.thinning_counts();
    snap.add_counter("arrivals.thinning_accepted", accepted);
    snap.add_counter("arrivals.thinning_rejected", rejected);
    snap.add_counter("arrivals.squeeze_accepts", squeeze);

    let metrics = ClusterMetrics::from_parts(
        per_completed,
        per_max_queue,
        per_speed,
        latencies,
        offered,
        dropped,
        report.orphaned,
        joins,
        leaves,
        last_event,
    );
    (metrics, snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use crate::sim::ChurnConfig;
    use bnb_core::CapacityVector;

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
        let m = ShardedClusterSim::new(base_spec(), 1, 4).run();
        assert_eq!(m.requests, 20_000);
        assert_eq!(m.completed + m.dropped, m.requests);
        assert_eq!(m.orphaned, 0);
        assert!(m.horizon > 0.0);
        assert!(m.latency[0] > 0.0);
        assert!(m.latency[0] <= m.latency[1] && m.latency[1] <= m.latency[2]);
        assert!(m.latency[2] <= m.latency[3]);
    }

    #[test]
    fn worker_count_cannot_change_the_metrics() {
        let runs: Vec<ClusterMetrics> = [1usize, 2, 3, 4, 7]
            .iter()
            .map(|&w| ShardedClusterSim::new(base_spec(), 42, w).run())
            .collect();
        for m in &runs[1..] {
            assert_eq!(&runs[0], m, "metrics must be invariant to the worker count");
        }
        assert_eq!(
            runs[0].render_table(),
            runs[1].render_table(),
            "rendered artifacts too"
        );
    }

    #[test]
    fn worker_count_cannot_change_the_metrics_under_churn() {
        let mut spec = base_spec();
        spec.churn = Some(ChurnConfig {
            start: 5.0,
            interval: 10.0,
        });
        spec.requests = 30_000;
        let a = ShardedClusterSim::new(spec.clone(), 9, 1).run();
        let b = ShardedClusterSim::new(spec.clone(), 9, 4).run();
        assert_eq!(a, b);
        assert!(a.leaves > 0, "churn must actually fire");
        assert_eq!(a.joins, a.leaves);
        assert_eq!(a.completed + a.dropped + a.orphaned, a.requests);
    }

    #[test]
    fn every_placement_policy_runs_end_to_end() {
        for placement in [
            PlacementSpec::DChoice { d: 2 },
            PlacementSpec::DChoice { d: 3 },
            PlacementSpec::ConsistentHash { vnodes: 8 },
            PlacementSpec::Rendezvous,
            PlacementSpec::HashThenProbe { d: 2, vnodes: 8 },
        ] {
            let mut spec = base_spec();
            spec.placement = placement;
            spec.requests = 5_000;
            let a = ShardedClusterSim::new(spec.clone(), 3, 1).run();
            let b = ShardedClusterSim::new(spec, 3, 4).run();
            assert_eq!(a, b, "{}: worker-count invariance", placement.name());
            assert_eq!(a.completed + a.dropped, 5_000, "{}", placement.name());
            assert!(a.completed > 0, "{}", placement.name());
        }
    }

    #[test]
    fn rerun_is_a_noop_returning_the_same_metrics() {
        let mut sim = ShardedClusterSim::new(base_spec(), 2, 2);
        let first = sim.run();
        let second = sim.run();
        assert_eq!(first, second);
    }

    #[test]
    fn zero_requests_simulates_nothing() {
        let mut spec = base_spec();
        spec.requests = 0;
        let m = ShardedClusterSim::new(spec, 1, 4).run();
        assert_eq!(m.requests, 0);
        assert_eq!(m.completed, 0);
        assert_eq!(m.horizon, 0.0);
    }

    #[test]
    fn telemetry_counters_are_deterministic_and_schedule_invisible() {
        let mut a = ShardedClusterSim::new(base_spec(), 7, 2);
        let ma = a.run();
        let snap = a.telemetry_snapshot();
        assert_eq!(snap.counter("sim.arrived"), Some(20_000));
        assert!(snap.counter("sharded.epochs").unwrap_or(0) > 0);
        assert_eq!(snap.counter("sharded.shards"), Some(2));
        let mut b = ShardedClusterSim::new(base_spec(), 7, 2);
        let mb = b.run();
        assert_eq!(ma, mb);
        assert_eq!(
            b.telemetry_snapshot().counters(),
            snap.counters(),
            "shard-merged counters replay under the same seed and worker count"
        );
    }

    #[test]
    fn seeds_separate_runs() {
        let a = ShardedClusterSim::new(base_spec(), 42, 2).run();
        let b = ShardedClusterSim::new(base_spec(), 43, 2).run();
        assert_ne!(a, b, "different seeds should differ (w.o.p.)");
    }

    #[test]
    #[should_panic(expected = "server speed 4294967296 exceeds")]
    fn shard_slot_table_rejects_speeds_beyond_u32() {
        let _ = ShardState::new(0, 0, 2, &[1, 1 << 32], None, 0);
    }

    /// The two-class fleet of the `two-class` and `successor`
    /// scenarios (32 slow, then 32 eight-times-faster servers) under
    /// the given policy.
    fn two_class_spec(placement: PlacementSpec) -> ClusterSpec {
        ClusterSpec {
            speeds: CapacityVector::two_class(32, 1, 32, 8),
            placement,
            ..base_spec()
        }
    }

    #[test]
    fn two_class_splits_at_the_capacity_median() {
        // 32 slow (speed 1) then 32 fast (speed 8): 288 units in all, so
        // half is the 32 slow slots plus 14 fast ones.
        let weights = routing_weights(&two_class_spec(PlacementSpec::DChoice { d: 2 }));
        assert_eq!(balanced_bounds(&weights, 2), vec![0, 46, 64]);
        assert_eq!(balanced_bounds(&weights, 1), vec![0, 64]);
    }

    #[test]
    fn ring_policies_split_at_the_slot_median() {
        for placement in [
            PlacementSpec::ConsistentHash { vnodes: 16 },
            PlacementSpec::HashThenProbe { d: 2, vnodes: 8 },
        ] {
            let weights = routing_weights(&two_class_spec(placement));
            assert_eq!(balanced_bounds(&weights, 2), vec![0, 32, 64]);
        }
    }

    #[test]
    fn two_class_arrivals_split_evenly_at_two_workers() {
        // Cut by slot count, d-choice would give the fast half 8/9 of
        // the arrivals (an imbalance of ~1.78); cut by speed, the
        // speed-blind ring would give the 46-slot shard ~46/64 of them
        // (~1.44).
        for placement in [
            PlacementSpec::DChoice { d: 2 },
            PlacementSpec::Rendezvous,
            PlacementSpec::ConsistentHash { vnodes: 16 },
        ] {
            let mut sim = ShardedClusterSim::new(two_class_spec(placement), 5, 2);
            sim.run();
            let snap = sim.telemetry_snapshot();
            let (max, min) = (
                snap.counter("sharded.shard_arrivals_max").unwrap(),
                snap.counter("sharded.shard_arrivals_min").unwrap(),
            );
            assert_eq!(max + min, 20_000);
            let imbalance = shard_imbalance(&snap).unwrap();
            assert!(
                (1.0..1.15).contains(&imbalance),
                "{}: imbalance {imbalance}",
                placement.name()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The cut is contiguous, covers every slot, leaves no shard
        /// empty, and gives each shard within one max-weight of its fair
        /// share of the total weight.
        #[test]
        fn balanced_bounds_partition_the_fleet_fairly(
            speeds in proptest::collection::vec(1u64..=1_000, 1..64),
            workers in 1usize..=8,
        ) {
            let shards = workers.min(speeds.len());
            let bounds = balanced_bounds(&speeds, shards);
            proptest::prop_assert_eq!(bounds.len(), shards + 1);
            proptest::prop_assert_eq!(bounds[0], 0);
            proptest::prop_assert_eq!(bounds[shards] as usize, speeds.len());
            let total: u64 = speeds.iter().sum();
            let max = *speeds.iter().max().unwrap();
            for w in bounds.windows(2) {
                proptest::prop_assert!(w[0] < w[1], "empty shard in {:?}", bounds);
                let sum: u64 = speeds[w[0] as usize..w[1] as usize].iter().sum();
                // |sum - total/shards| <= max, scaled by `shards`.
                let dev = (sum * shards as u64).abs_diff(total);
                proptest::prop_assert!(
                    dev <= max * shards as u64,
                    "shard {:?} of {:?} holds {} of {}", w, bounds, sum, total
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ShardedClusterSim::new(base_spec(), 1, 0);
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
        let _ = ShardedClusterSim::new(spec, 0, 2);
    }
}
