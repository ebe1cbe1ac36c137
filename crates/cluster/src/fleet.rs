//! The heterogeneous server fleet: finite-queue servers with latency
//! bookkeeping and churn (servers joining and leaving mid-run).
//!
//! Each server slot lives in exactly two places:
//!
//! * a **hot record** ([`ClusterServer`], 128 bytes, 128-byte aligned)
//!   holding everything the serving loop touches on a join or a
//!   departure — queue and peak queue, completed and dropped counts,
//!   `1 / speed`, speed, stable membership id, alive flag, and an inline
//!   ring of the [`RING`] oldest admission times. A join, a departure
//!   and a departure's service-time scaling each touch that one record
//!   and nothing else; admission times beyond the ring spill to an
//!   on-demand pool (`Spill`) reached through an index in the record;
//! * a **packed load word** ([`LoadWord`], 8 bytes): `(queue, speed)` as
//!   two `u32`s in one dense slice, the only state placement reads
//!   ([`LoadView::dense`]), so a candidate costs one word load.
//!
//! The sharded engine (`crate::sharded`) keeps its shards' slots in the
//! same record type and drives it through the same
//! `admit`/`complete`/`evict` methods, so join/depart/FIFO bookkeeping
//! exists once. Slots are never reused or revived — a departed server's
//! slot stays dead forever — so `is_alive()` alone identifies stale
//! departure events after churn.

use bnb_queueing::events::Time;
use bnb_queueing::server::Admission;
use bnb_router::{LoadView, LoadWord, Member, Membership};
use std::collections::VecDeque;

/// Admission times held inline per record: the oldest `RING` jobs in
/// the system. Deeper queues spill the rest to the fleet's spill pool.
pub const RING: usize = 8;

/// The record's spill index when it has no spilled admission times.
const NO_SPILL: u32 = u32::MAX;

/// The cold half of the admission FIFOs: one lane per record whose
/// queue runs deeper than [`RING`], handed out on demand and recycled
/// through a free list when the record's queue drains back into its
/// ring (a recycled lane keeps its capacity, so a slot that keeps
/// running deep pays no allocation after warm-up). A fleet that never
/// queues past the ring never allocates a lane.
#[derive(Debug, Clone, Default)]
pub(crate) struct Spill {
    lanes: Vec<VecDeque<Time>>,
    free: Vec<u32>,
}

impl Spill {
    /// Appends `t` to the lane at `*lane`, taking a lane first when the
    /// record holds none.
    #[cold]
    fn push(&mut self, lane: &mut u32, t: Time) {
        if *lane == NO_SPILL {
            *lane = self.free.pop().unwrap_or_else(|| {
                self.lanes.push(VecDeque::new());
                u32::try_from(self.lanes.len() - 1).expect("spill lanes fit in u32")
            });
        }
        self.lanes[*lane as usize].push_back(t);
    }

    /// Pops the oldest time off the lane at `*lane`, recycling the lane
    /// once it runs empty.
    #[cold]
    fn pop(&mut self, lane: &mut u32) -> Time {
        let q = &mut self.lanes[*lane as usize];
        let t = q
            .pop_front()
            .expect("spill lane holds the queue beyond the ring");
        if q.is_empty() {
            self.free.push(*lane);
            *lane = NO_SPILL;
        }
        t
    }

    /// Empties and recycles the lane at `*lane`, if any.
    fn release(&mut self, lane: &mut u32) {
        if *lane != NO_SPILL {
            self.lanes[*lane as usize].clear();
            self.free.push(*lane);
            *lane = NO_SPILL;
        }
    }
}

/// One server slot's hot record: queue counters, the inline admission
/// ring, and membership state, packed into one 128-byte-aligned block
/// so a join or departure touches one record and nothing else.
///
/// Field order is part of the design: everything a join, a departure
/// or a membership scan reads comes first, and the ring restarts at
/// index 0 whenever the queue drains, so a server that stays within
/// three jobs touches only the record's first 64-byte line. Only the
/// drop counter sits past the ring.
#[derive(Debug, Clone)]
#[repr(C, align(128))]
pub struct ClusterServer {
    /// `1 / speed`: departure scheduling scales Exp(1) work by this (a
    /// multiply instead of a divide, bitwise-stable across loops).
    inv_speed: f64,
    /// Completed jobs.
    completed: u64,
    /// Jobs in system (queue + in service).
    queue: u32,
    /// Largest queue length ever observed.
    max_queue: u32,
    /// Spill lane of the admission times beyond the ring, or
    /// `NO_SPILL`.
    spill: u32,
    speed: u32,
    /// Stable membership id (never reused, feeds the hash ring).
    id: u32,
    /// Ring index of the oldest admission time (0 while idle).
    head: u8,
    alive: bool,
    /// Admission times of the oldest `min(queue, RING)` jobs, FIFO,
    /// circular from `head`.
    ring: [Time; RING],
    /// Jobs rejected at a full queue.
    dropped: u64,
}

impl ClusterServer {
    /// A fresh, alive, idle record.
    ///
    /// # Panics
    /// Panics if `speed` is zero or exceeds `u32::MAX` (the packed load
    /// word's range), or `id` exceeds `u32::MAX`.
    pub(crate) fn new(speed: u64, id: u64) -> Self {
        assert!(speed > 0, "server speed must be positive");
        let speed = LoadWord::new(0, speed).speed;
        let id = u32::try_from(id).expect("slot ids fit in u32");
        ClusterServer {
            ring: [0.0; RING],
            inv_speed: 1.0 / f64::from(speed),
            completed: 0,
            dropped: 0,
            id,
            speed,
            queue: 0,
            max_queue: 0,
            spill: NO_SPILL,
            head: 0,
            alive: true,
        }
    }

    /// Service speed (jobs of unit work per unit time).
    #[must_use]
    pub fn speed(&self) -> u64 {
        u64::from(self.speed)
    }

    /// Jobs currently in the system (queue + in service).
    #[must_use]
    pub fn queue_len(&self) -> u64 {
        u64::from(self.queue)
    }

    /// Largest queue length ever observed.
    #[must_use]
    pub fn max_queue(&self) -> u64 {
        u64::from(self.max_queue)
    }

    /// Completed jobs.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Jobs rejected at a full queue.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Stable membership id.
    #[must_use]
    pub fn id(&self) -> u64 {
        u64::from(self.id)
    }

    /// Whether the server is currently part of the cluster.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// `1 / speed`.
    #[inline]
    pub(crate) fn inv_speed(&self) -> f64 {
        self.inv_speed
    }

    /// Offers a job admitted at `now`: dropped when the queue already
    /// holds `cap` jobs, else appended to the admission FIFO (the ring
    /// while it has room, the spill lane beyond).
    ///
    /// # Panics
    /// Panics if the queue would pass `u32::MAX` (it never wraps).
    #[inline]
    pub(crate) fn admit(&mut self, now: Time, cap: u64, spill: &mut Spill) -> Admission {
        if u64::from(self.queue) >= cap {
            self.dropped += 1;
            return Admission::Dropped;
        }
        let q = self.queue as usize;
        let queue = self
            .queue
            .checked_add(1)
            .expect("queue length exceeds the packed load word's u32 range");
        if q < RING {
            self.ring[(self.head as usize + q) % RING] = now;
        } else {
            spill.push(&mut self.spill, now);
        }
        self.queue = queue;
        self.max_queue = self.max_queue.max(queue);
        if queue == 1 {
            Admission::StartedService
        } else {
            Admission::Queued
        }
    }

    /// The job in service completes at `now`: returns its sojourn
    /// latency and whether another job is waiting. The ring's freed
    /// tail is refilled from the spill lane when the queue still runs
    /// deeper than the ring.
    ///
    /// # Panics
    /// Panics if the queue is empty.
    #[inline]
    pub(crate) fn complete(&mut self, now: Time, spill: &mut Spill) -> (Time, bool) {
        assert!(self.queue > 0, "departure from an empty cluster server");
        let admitted = self.ring[self.head as usize];
        self.queue -= 1;
        self.completed += 1;
        // An emptied ring restarts at 0, next to the counters.
        self.head = if self.queue == 0 {
            0
        } else {
            ((self.head as usize + 1) % RING) as u8
        };
        if self.queue as usize >= RING {
            self.ring[(self.head as usize + RING - 1) % RING] = spill.pop(&mut self.spill);
        }
        (now - admitted, self.queue > 0)
    }

    /// Counters of a job admitted to an idle server and completed with
    /// no event in between: [`ClusterServer::admit`] then
    /// [`ClusterServer::complete`] composed — the queue nets to zero,
    /// the peak is at least one, one more completion.
    #[inline]
    fn serve_idle(&mut self) {
        debug_assert_eq!(self.queue, 0, "next-free bypass requires an idle server");
        self.max_queue = self.max_queue.max(1);
        self.completed += 1;
    }

    /// The server leaves for good: marks it dead, empties its FIFO and
    /// returns the orphaned backlog (queued jobs and the one in
    /// service).
    pub(crate) fn evict(&mut self, spill: &mut Spill) -> u64 {
        spill.release(&mut self.spill);
        let orphans = self.queue_len();
        self.queue = 0;
        self.head = 0;
        self.alive = false;
        orphans
    }
}

/// The fleet: all server slots ever created, dead ones included (their
/// counters keep contributing to the final metrics).
#[derive(Debug, Clone)]
pub struct Fleet {
    /// One hot record per slot.
    servers: Vec<ClusterServer>,
    /// One packed `(queue, speed)` word per slot — the placement-visible
    /// mirror of the records' queue lengths, stored on every join and
    /// departure ([`LoadView::dense`]).
    words: Vec<LoadWord>,
    spill: Spill,
    n_alive: usize,
    next_id: u64,
    /// Queue bound (`u64::MAX` when unbounded).
    cap: u64,
}

impl Fleet {
    /// Builds a fleet of alive servers with the given speeds, all queues
    /// bounded by `queue_capacity` (`None` = unbounded).
    ///
    /// # Panics
    /// Panics if `speeds` is empty, any speed is zero or exceeds
    /// `u32::MAX`, or the capacity is `Some(0)`.
    #[must_use]
    pub fn new(speeds: &[u64], queue_capacity: Option<u64>) -> Self {
        assert!(!speeds.is_empty(), "fleet needs at least one server");
        assert!(queue_capacity != Some(0), "queue capacity must be positive");
        let servers: Vec<ClusterServer> = speeds
            .iter()
            .enumerate()
            .map(|(i, &s)| ClusterServer::new(s, i as u64))
            .collect();
        Fleet {
            n_alive: servers.len(),
            next_id: servers.len() as u64,
            words: speeds.iter().map(|&s| LoadWord::new(0, s)).collect(),
            servers,
            spill: Spill::default(),
            cap: queue_capacity.unwrap_or(u64::MAX),
        }
    }

    /// Total slots ever created (alive and departed).
    #[must_use]
    pub fn n_slots(&self) -> usize {
        self.servers.len()
    }

    /// Currently alive servers.
    #[must_use]
    pub fn n_alive(&self) -> usize {
        self.n_alive
    }

    /// The server in slot `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn server(&self, i: usize) -> &ClusterServer {
        &self.servers[i]
    }

    /// All slots, in creation order.
    #[must_use]
    pub fn servers(&self) -> &[ClusterServer] {
        &self.servers
    }

    /// Indices of the alive servers, in creation order. Placement
    /// structures (alias table, hash ring, rendezvous) are built over
    /// exactly this list, in this order.
    #[must_use]
    pub fn alive_indices(&self) -> Vec<usize> {
        self.servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| i)
            .collect()
    }

    /// The alive servers as a router [`Membership`]: slots, stable ids
    /// and speeds in creation order — exactly what
    /// [`bnb_router::PlacementEngine`] builds its derived structures
    /// over. Ids are handed out in creation order and never reused, so
    /// the member id list is strictly increasing and churn rebuilds
    /// take the ring's incremental path.
    #[must_use]
    pub fn membership(&self) -> Membership {
        Membership::new(
            self.servers
                .iter()
                .enumerate()
                .filter(|(_, s)| s.alive)
                .map(|(i, s)| Member {
                    slot: i,
                    id: s.id(),
                    speed: s.speed(),
                })
                .collect(),
        )
    }

    /// Sum of alive servers' speeds — the fleet's service capacity.
    #[must_use]
    pub fn total_alive_speed(&self) -> u64 {
        self.servers
            .iter()
            .filter(|s| s.alive)
            .map(ClusterServer::speed)
            .sum()
    }

    /// Offers a request to server `i` at time `now`.
    ///
    /// # Panics
    /// Panics if the server is not alive — placement must only route to
    /// alive servers — or its queue would pass `u32::MAX`.
    #[inline]
    pub fn try_join(&mut self, i: usize, now: Time) -> Admission {
        let s = &mut self.servers[i];
        assert!(s.alive, "routed a request to a departed server");
        let admission = s.admit(now, self.cap, &mut self.spill);
        self.words[i].queue = s.queue;
        admission
    }

    /// `1 / speed` of slot `i`, from its record — how the
    /// departure-scheduling path scales Exp(1) work into service time
    /// (bitwise-stable across the serial, sharded and reference loops,
    /// which is why the reciprocal is precomputed once rather than
    /// divided per event).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    #[must_use]
    pub fn inv_speed_of(&self, i: usize) -> f64 {
        self.servers[i].inv_speed()
    }

    /// The job in service on server `i` completes at `now`; returns its
    /// sojourn latency and whether another job is waiting (the caller
    /// must then schedule the next departure).
    ///
    /// # Panics
    /// Panics if the server's queue is empty.
    #[inline]
    pub fn depart(&mut self, i: usize, now: Time) -> (Time, bool) {
        let s = &mut self.servers[i];
        let done = s.complete(now, &mut self.spill);
        self.words[i].queue = s.queue;
        done
    }

    /// Serves one job start-to-finish on an **idle** server in a single
    /// step: the fused loop's next-free bypass, where the departure is
    /// provably the next event so the job arrives, serves and departs
    /// with no observer in between. Counter state afterwards is exactly
    /// [`Fleet::try_join`] then [`Fleet::depart`] composed — the queue
    /// (and its load word) nets to zero, the peak queue is at least
    /// one, one more completion, and the admission FIFO push/pop
    /// cancels — so the returned sojourn latency is the service time
    /// itself.
    ///
    /// # Panics
    /// Panics if the server is not alive. Debug-asserts the server is
    /// idle — callers must have checked its load word.
    #[inline]
    pub fn serve_one_now(&mut self, i: usize, admitted: Time, departed: Time) -> Time {
        let s = &mut self.servers[i];
        assert!(s.alive, "routed a request to a departed server");
        s.serve_idle();
        departed - admitted
    }

    /// Server `i` leaves the cluster at `now`: its backlog (queued jobs
    /// and the one in service) is orphaned and returned, and it stops
    /// receiving traffic for good — slots are never revived, so pending
    /// departure events for it are recognisably stale via
    /// [`ClusterServer::is_alive`].
    ///
    /// # Panics
    /// Panics if the server is already dead or is the last alive server.
    pub fn deactivate(&mut self, i: usize, now: Time) -> u64 {
        assert!(self.n_alive > 1, "cannot deactivate the last alive server");
        let _ = now; // kept for API symmetry with join/depart timestamps
        let s = &mut self.servers[i];
        assert!(s.alive, "server {i} is already dead");
        self.n_alive -= 1;
        self.words[i].queue = 0;
        s.evict(&mut self.spill)
    }

    /// A fresh server of the given speed joins the cluster; returns its
    /// slot index. It gets a new stable id, so hash-ring placements give
    /// it fresh arcs without disturbing anyone else's.
    ///
    /// # Panics
    /// Panics if `speed` is zero or exceeds `u32::MAX`.
    pub fn activate_new(&mut self, speed: u64) -> usize {
        let server = ClusterServer::new(speed, self.next_id);
        self.next_id += 1;
        self.words.push(LoadWord::new(0, server.speed()));
        self.servers.push(server);
        self.n_alive += 1;
        self.servers.len() - 1
    }

    /// Sum of completed jobs over every slot.
    #[must_use]
    pub fn total_completed(&self) -> u64 {
        self.servers.iter().map(ClusterServer::completed).sum()
    }

    /// Sum of admission drops over every slot.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.servers.iter().map(ClusterServer::dropped).sum()
    }
}

/// The fleet's packed `(queue_len, speed)` words as the router's
/// [`LoadView`]: the simulator drives [`bnb_router::PlacementEngine`]
/// directly against it — the same placement code path a live embedding
/// runs against a [`bnb_router::FleetSnapshot`]. The words are plain
/// (single-threaded) memory, so the fleet also exposes them as the
/// dense slice placement reads one word per candidate from.
impl LoadView for Fleet {
    #[inline]
    fn load(&self, slot: usize) -> (u64, u64) {
        self.words[slot].unpack()
    }

    #[inline]
    fn dense(&self) -> Option<&[LoadWord]> {
        Some(&self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_load_view_mirrors_joins_and_departs() {
        let mut fleet = Fleet::new(&[2, 4], Some(8));
        fleet.try_join(1, 0.5);
        fleet.try_join(1, 0.6);
        assert_eq!(fleet.load(1), (2, 4));
        assert_eq!(fleet.queue_len(0), 0);
        let _ = fleet.depart(1, 1.0);
        assert_eq!(fleet.load(1), (1, 4));
    }

    #[test]
    fn join_depart_latency_roundtrip() {
        let mut fleet = Fleet::new(&[2, 2], None);
        assert_eq!(fleet.try_join(0, 1.0), Admission::StartedService);
        assert_eq!(fleet.try_join(0, 2.0), Admission::Queued);
        let (lat, more) = fleet.depart(0, 4.0);
        assert!((lat - 3.0).abs() < 1e-12, "first job waited 1.0→4.0");
        assert!(more);
        let (lat2, more2) = fleet.depart(0, 5.0);
        assert!((lat2 - 3.0).abs() < 1e-12, "second job waited 2.0→5.0");
        assert!(!more2);
        assert_eq!(fleet.server(0).completed(), 2);
    }

    #[test]
    fn serve_one_now_is_join_then_depart_composed() {
        let mut a = Fleet::new(&[2, 3], Some(4));
        let mut b = a.clone();
        // Path A: the composed pair on an idle server.
        assert_eq!(a.try_join(1, 1.0), Admission::StartedService);
        let (lat_a, more) = a.depart(1, 2.5);
        assert!(!more);
        // Path B: the fused bypass in one step.
        let lat_b = b.serve_one_now(1, 1.0, 2.5);
        assert_eq!(lat_a.to_bits(), lat_b.to_bits());
        assert_eq!(a.server(1).completed(), b.server(1).completed());
        assert_eq!(a.server(1).max_queue(), b.server(1).max_queue());
        assert_eq!(a.server(1).queue_len(), 0);
        assert_eq!(b.server(1).queue_len(), 0);
        assert_eq!(LoadView::load(&a, 1), LoadView::load(&b, 1));
        // A later real join still sees the idle state on both.
        assert_eq!(a.try_join(1, 3.0), Admission::StartedService);
        assert_eq!(b.try_join(1, 3.0), Admission::StartedService);
    }

    #[test]
    #[should_panic(expected = "departed server")]
    fn serve_one_now_rejects_dead_servers() {
        let mut fleet = Fleet::new(&[1, 1], None);
        fleet.deactivate(0, 0.0);
        let _ = fleet.serve_one_now(0, 1.0, 2.0);
    }

    #[test]
    fn capacity_drops_do_not_record_latency() {
        let mut fleet = Fleet::new(&[1], Some(1));
        assert_eq!(fleet.try_join(0, 0.0), Admission::StartedService);
        assert_eq!(fleet.try_join(0, 0.5), Admission::Dropped);
        assert_eq!(fleet.server(0).dropped(), 1);
        let (_, more) = fleet.depart(0, 1.0);
        assert!(!more, "the dropped job must not linger in the fifo");
    }

    #[test]
    fn deactivate_orphans_backlog_permanently() {
        let mut fleet = Fleet::new(&[1, 1], None);
        fleet.try_join(0, 0.0);
        fleet.try_join(0, 0.1);
        fleet.try_join(0, 0.2);
        let orphans = fleet.deactivate(0, 1.0);
        assert_eq!(orphans, 3);
        assert_eq!(fleet.server(0).queue_len(), 0);
        assert!(!fleet.server(0).is_alive());
        assert_eq!(fleet.n_alive(), 1);
        assert_eq!(fleet.alive_indices(), vec![1]);
    }

    #[test]
    fn fresh_fleet_membership_is_the_speed_list() {
        let speeds = [1, 8, 8, 1, 4];
        let fleet = Fleet::new(&speeds, Some(4));
        assert_eq!(fleet.membership(), Membership::from_speeds(&speeds));
    }

    #[test]
    fn activate_new_gets_fresh_id() {
        let mut fleet = Fleet::new(&[1, 1], Some(4));
        fleet.deactivate(1, 0.0);
        let slot = fleet.activate_new(8);
        assert_eq!(slot, 2);
        assert_eq!(fleet.server(slot).id(), 2, "ids are never reused");
        assert_eq!(fleet.server(slot).speed(), 8);
        assert_eq!(fleet.n_alive(), 2);
        assert_eq!(fleet.total_alive_speed(), 9);
        assert_eq!(fleet.alive_indices(), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "departed server")]
    fn routing_to_dead_server_panics() {
        let mut fleet = Fleet::new(&[1, 1], None);
        fleet.deactivate(0, 0.0);
        let _ = fleet.try_join(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "last alive server")]
    fn deactivating_last_server_panics() {
        let mut fleet = Fleet::new(&[1], None);
        let _ = fleet.deactivate(0, 0.0);
    }

    #[test]
    fn record_is_one_aligned_128_byte_block() {
        assert_eq!(std::mem::size_of::<ClusterServer>(), 128);
        assert_eq!(std::mem::align_of::<ClusterServer>(), 128);
        // The join/depart/membership fields and the first three ring
        // entries share the first cache line.
        assert!(std::mem::offset_of!(ClusterServer, ring) + 3 * 8 <= 64);
        assert!(std::mem::offset_of!(ClusterServer, id) < 64);
    }

    #[test]
    fn deep_queues_spill_past_the_ring_in_fifo_order() {
        let depth = 3 * RING + 1;
        let mut fleet = Fleet::new(&[1, 1], None);
        for k in 0..depth {
            fleet.try_join(0, k as f64);
        }
        assert_eq!(fleet.spill.lanes.len(), 1, "one lane for the one deep slot");
        assert_eq!(LoadView::load(&fleet, 0), (depth as u64, 1));
        for k in 0..depth {
            let (lat, more) = fleet.depart(0, 100.0);
            assert_eq!(lat.to_bits(), (100.0 - k as f64).to_bits(), "job {k}");
            assert_eq!(more, k + 1 < depth);
        }
        assert_eq!(fleet.servers[0].spill, NO_SPILL, "drained lane released");
        assert_eq!(fleet.spill.free, vec![0]);
        // The recycled lane serves the next deep slot.
        for k in 0..=RING {
            fleet.try_join(1, k as f64);
        }
        assert_eq!(fleet.servers[1].spill, 0);
        assert_eq!(fleet.spill.lanes.len(), 1);
        assert_eq!(fleet.deactivate(1, 0.0), RING as u64 + 1);
        assert_eq!(fleet.spill.free, vec![0], "eviction recycles the lane");
    }

    #[test]
    #[should_panic(expected = "server speed 4294967296 exceeds")]
    fn fleet_rejects_speeds_beyond_u32() {
        let _ = Fleet::new(&[1, 1 << 32], None);
    }

    #[test]
    #[should_panic(expected = "server speed 4294967296 exceeds")]
    fn activate_new_rejects_speeds_beyond_u32() {
        let mut fleet = Fleet::new(&[1], None);
        let _ = fleet.activate_new(1 << 32);
    }

    #[test]
    #[should_panic(expected = "queue length exceeds")]
    fn queue_increment_past_u32_panics() {
        let mut fleet = Fleet::new(&[1], None);
        // Stand in for 2^32 - 1 earlier joins (spilled, so the next
        // admission takes the spill path).
        fleet.servers[0].queue = u32::MAX;
        fleet.words[0].queue = u32::MAX;
        let _ = fleet.try_join(0, 0.0);
    }

    #[test]
    fn u32_max_speed_is_accepted() {
        let mut fleet = Fleet::new(&[u64::from(u32::MAX)], Some(2));
        assert_eq!(fleet.server(0).speed(), u64::from(u32::MAX));
        assert_eq!(fleet.try_join(0, 0.0), Admission::StartedService);
        assert_eq!(LoadView::load(&fleet, 0), (1, u64::from(u32::MAX)));
    }
}
