//! Ring churn: peers joining and leaving, with data-movement accounting.
//!
//! Consistent hashing's selling point (Karger et al., reference 6 of the paper) is
//! *minimal disruption*: when a peer joins an `n`-peer ring, only ≈ `K/n`
//! of `K` keys move. This module makes that measurable: a
//! [`ChurnSimulator`] owns a key population, applies joins/leaves, and
//! reports exactly how many keys changed owner.

use crate::hash::{mix64, peer_point};
use crate::ring::{HashRing, RingPoint};

/// A membership-indexed ring that rebuilds **incrementally** on churn.
///
/// Peer `i` of the ring is `peer_ids[i]`, placed at its
/// `vnodes_per_peer` stable pseudo-random points. Because a peer's
/// points depend only on `(seed, id)`, membership changes perturb
/// nobody else's points — the consistent-hashing minimal-disruption
/// property — and a sorted point set determines the ring. So
/// [`MembershipRing::update`] never re-hashes or re-sorts the survivors:
/// it drops the leavers' points, remaps surviving peer indices in one
/// sorted pass, merge-inserts the joiners' (few, freshly hashed) points,
/// and rebuilds only the `O(n)` radix successor index. The result is
/// bit-identical to a from-scratch build over the same membership (the
/// equivalence proptest pins it); only the `O(n log n)` re-sort and the
/// `O(n · vnodes)` re-hash per churn tick are gone.
///
/// [`ChurnSimulator`] builds its rings through this type, and so does
/// the placement engine in `bnb-router` (which the cluster simulator's
/// churn handling rides on), keeping the membership models
/// bit-identical.
#[derive(Debug, Clone)]
pub struct MembershipRing {
    seed: u64,
    vnodes: usize,
    ids: Vec<u64>,
    ring: HashRing,
}

impl MembershipRing {
    /// Builds the ring for an initial membership (full build).
    ///
    /// # Panics
    /// Panics if `peer_ids` is empty, contains duplicates (two peers
    /// would collide on every point), or `vnodes_per_peer == 0`.
    #[must_use]
    pub fn new(seed: u64, vnodes_per_peer: usize, peer_ids: &[u64]) -> Self {
        assert!(!peer_ids.is_empty(), "need at least one peer");
        assert!(vnodes_per_peer > 0, "need at least one vnode");
        let mut points = Vec::with_capacity(peer_ids.len() * vnodes_per_peer);
        for (idx, &peer_id) in peer_ids.iter().enumerate() {
            for v in 0..vnodes_per_peer as u64 {
                points.push(RingPoint {
                    position: peer_point(seed, peer_id, v),
                    peer: idx,
                });
            }
        }
        MembershipRing {
            seed,
            vnodes: vnodes_per_peer,
            ids: peer_ids.to_vec(),
            ring: HashRing::from_points(points, peer_ids.len()),
        }
    }

    /// Rebuilds for a changed membership. When both the old and new id
    /// lists are strictly increasing (the common case: stable ids are
    /// handed out in creation order and leavers are filtered out), the
    /// rebuild is incremental — survivors keep their points, only
    /// joiners are hashed, nothing is re-sorted. Otherwise it falls back
    /// to a full build.
    ///
    /// # Panics
    /// Panics if `peer_ids` is empty or contains duplicates.
    pub fn update(&mut self, peer_ids: &[u64]) {
        assert!(!peer_ids.is_empty(), "need at least one peer");
        if peer_ids == self.ids {
            return;
        }
        let sorted = |ids: &[u64]| ids.windows(2).all(|w| w[0] < w[1]);
        if !sorted(&self.ids) || !sorted(peer_ids) {
            *self = MembershipRing::new(self.seed, self.vnodes, peer_ids);
            return;
        }
        // Two-pointer diff of the strictly-increasing id lists: map each
        // surviving old peer index to its new index, and collect joiners.
        let mut old_to_new = vec![u32::MAX; self.ids.len()];
        let mut joined: Vec<(usize, u64)> = Vec::new();
        let mut o = 0usize;
        for (n, &id) in peer_ids.iter().enumerate() {
            while o < self.ids.len() && self.ids[o] < id {
                o += 1; // old peer departed
            }
            if o < self.ids.len() && self.ids[o] == id {
                old_to_new[o] = n as u32;
                o += 1;
            } else {
                joined.push((n, id));
            }
        }
        // Joiners' points: hashed fresh, sorted among themselves (small).
        let mut new_points = Vec::with_capacity(joined.len() * self.vnodes);
        for &(idx, id) in &joined {
            for v in 0..self.vnodes as u64 {
                new_points.push(RingPoint {
                    position: peer_point(self.seed, id, v),
                    peer: idx,
                });
            }
        }
        new_points.sort_by_key(|p| p.position);
        // One sorted pass over the old ring: drop leavers, remap
        // survivors, merge the joiners' points in position order.
        let old = self.ring.points();
        let mut merged = Vec::with_capacity(peer_ids.len() * self.vnodes);
        let mut j = 0usize;
        for p in old {
            let new_peer = old_to_new[p.peer];
            if new_peer == u32::MAX {
                continue;
            }
            while j < new_points.len() && new_points[j].position < p.position {
                merged.push(new_points[j]);
                j += 1;
            }
            merged.push(RingPoint {
                position: p.position,
                peer: new_peer as usize,
            });
        }
        merged.extend_from_slice(&new_points[j..]);
        self.ring = HashRing::from_sorted_points(merged, peer_ids.len());
        self.ids.clear();
        self.ids.extend_from_slice(peer_ids);
    }

    /// The current ring.
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Consumes the cache, returning the current ring.
    #[must_use]
    pub fn into_ring(self) -> HashRing {
        self.ring
    }

    /// The current membership's peer ids (ring peer `i` is `ids[i]`).
    #[must_use]
    pub fn peer_ids(&self) -> &[u64] {
        &self.ids
    }
}

/// Tracks key placements across ring membership changes.
#[derive(Debug, Clone)]
pub struct ChurnSimulator {
    /// The ring, rebuilt incrementally as membership changes.
    mring: MembershipRing,
    /// Current peer ids (stable across joins/leaves; ring peer indices
    /// are positions in this vector).
    peers: Vec<u64>,
    next_peer_id: u64,
    /// The keys whose placement we track.
    keys: Vec<u64>,
    /// Current owner (peer *id*, not index) of each key.
    owners: Vec<u64>,
}

/// Result of one membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnOutcome {
    /// Number of tracked keys that changed owner.
    pub moved_keys: usize,
    /// Number of tracked keys in total.
    pub total_keys: usize,
    /// Ring size after the change.
    pub n_peers: usize,
}

impl ChurnOutcome {
    /// Fraction of keys that moved.
    #[must_use]
    pub fn moved_fraction(&self) -> f64 {
        if self.total_keys == 0 {
            0.0
        } else {
            self.moved_keys as f64 / self.total_keys as f64
        }
    }
}

impl ChurnSimulator {
    /// Creates a simulator with `n_peers` initial peers and `n_keys`
    /// tracked keys.
    ///
    /// # Panics
    /// Panics if `n_peers == 0` or `vnodes_per_peer == 0`.
    #[must_use]
    pub fn new(n_peers: usize, vnodes_per_peer: usize, n_keys: usize, seed: u64) -> Self {
        assert!(n_peers > 0, "need at least one peer");
        assert!(vnodes_per_peer > 0, "need at least one vnode");
        let peers: Vec<u64> = (0..n_peers as u64).collect();
        let keys: Vec<u64> = (0..n_keys as u64)
            .map(|i| mix64(seed ^ i.wrapping_mul(0x2545_F491_4F6C_DD1D)))
            .collect();
        let mut sim = ChurnSimulator {
            mring: MembershipRing::new(seed, vnodes_per_peer, &peers),
            peers,
            next_peer_id: n_peers as u64,
            keys,
            owners: Vec::new(),
        };
        sim.owners = sim.compute_owners();
        sim
    }

    /// Current ring.
    #[must_use]
    pub fn ring(&self) -> HashRing {
        self.mring.ring().clone()
    }

    fn compute_owners(&self) -> Vec<u64> {
        let ring = self.mring.ring();
        self.keys
            .iter()
            .map(|&k| self.peers[ring.successor(k)])
            .collect()
    }

    fn diff_owners(&mut self) -> ChurnOutcome {
        self.mring.update(&self.peers);
        let new_owners = self.compute_owners();
        let moved = self
            .owners
            .iter()
            .zip(&new_owners)
            .filter(|(a, b)| a != b)
            .count();
        self.owners = new_owners;
        ChurnOutcome {
            moved_keys: moved,
            total_keys: self.keys.len(),
            n_peers: self.peers.len(),
        }
    }

    /// Adds a fresh peer; returns the movement outcome.
    pub fn join(&mut self) -> ChurnOutcome {
        self.peers.push(self.next_peer_id);
        self.next_peer_id += 1;
        self.diff_owners()
    }

    /// Removes the peer at `index` (panics if it is the last one);
    /// returns the movement outcome.
    ///
    /// # Panics
    /// Panics if `index` is out of range or the ring would become empty.
    pub fn leave(&mut self, index: usize) -> ChurnOutcome {
        assert!(index < self.peers.len(), "peer index out of range");
        assert!(self.peers.len() > 1, "cannot remove the last peer");
        self.peers.remove(index);
        self.diff_owners()
    }

    /// Number of peers currently in the ring.
    #[must_use]
    pub fn n_peers(&self) -> usize {
        self.peers.len()
    }

    /// The tracked keys' current owners (peer ids).
    #[must_use]
    pub fn owners(&self) -> &[u64] {
        &self.owners
    }

    /// The tracked key population, index-aligned with
    /// [`ChurnSimulator::owners`] — lets tests re-derive ownership
    /// through the ring independently of the cached owners.
    #[must_use]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_moves_about_one_nth() {
        let n = 100;
        let keys = 20_000;
        let mut sim = ChurnSimulator::new(n, 16, keys, 7);
        let outcome = sim.join();
        assert_eq!(outcome.n_peers, n + 1);
        let frac = outcome.moved_fraction();
        let expected = 1.0 / (n + 1) as f64;
        // With 16 vnodes the new peer's share concentrates around 1/(n+1);
        // allow a factor-3 band.
        assert!(
            frac > expected / 3.0 && frac < expected * 3.0,
            "moved fraction {frac}, expected ≈ {expected}"
        );
    }

    #[test]
    fn leave_moves_only_the_leavers_keys() {
        let mut sim = ChurnSimulator::new(50, 8, 10_000, 3);
        // Keys owned by peer index 10 before departure:
        let leaving_id = 10u64;
        let owned_before = sim.owners().iter().filter(|&&o| o == leaving_id).count();
        let outcome = sim.leave(10);
        assert_eq!(
            outcome.moved_keys, owned_before,
            "exactly the departed peer's keys move"
        );
        // And nobody maps to the departed peer anymore.
        assert!(sim.owners().iter().all(|&o| o != leaving_id));
    }

    #[test]
    fn join_then_leave_is_identity_for_owners() {
        let mut sim = ChurnSimulator::new(20, 4, 5_000, 11);
        let before = sim.owners().to_vec();
        sim.join();
        let new_index = sim.n_peers() - 1;
        sim.leave(new_index);
        assert_eq!(sim.owners(), before.as_slice());
    }

    #[test]
    fn sequential_joins_shrink_movement() {
        // As the ring grows, each join moves a smaller fraction.
        let mut sim = ChurnSimulator::new(10, 16, 20_000, 5);
        let mut fracs = Vec::new();
        for _ in 0..30 {
            fracs.push(sim.join().moved_fraction());
        }
        let early: f64 = fracs[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = fracs[25..].iter().sum::<f64>() / 5.0;
        assert!(
            late < early,
            "later joins ({late}) should move fewer keys than early ones ({early})"
        );
    }

    #[test]
    #[should_panic(expected = "cannot remove the last peer")]
    fn removing_last_peer_panics() {
        let mut sim = ChurnSimulator::new(1, 1, 10, 0);
        let _ = sim.leave(0);
    }

    #[test]
    fn membership_ring_points_are_stable_across_membership() {
        // A peer's points depend only on (seed, id): removing peer 1 must
        // leave peer 0's and peer 2's positions untouched.
        let full = MembershipRing::new(42, 4, &[0, 1, 2]);
        let reduced = MembershipRing::new(42, 4, &[0, 2]);
        let positions_of = |ring: &HashRing, peer: usize| -> Vec<u64> {
            let mut v: Vec<u64> = ring
                .points()
                .iter()
                .filter(|p| p.peer == peer)
                .map(|p| p.position)
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            positions_of(full.ring(), 0),
            positions_of(reduced.ring(), 0)
        );
        assert_eq!(
            positions_of(full.ring(), 2),
            positions_of(reduced.ring(), 1)
        );
    }

    #[test]
    fn incremental_update_equals_full_build() {
        // Leave, join, and leave+join in one step: after every update the
        // incrementally maintained ring must be bit-identical to a
        // from-scratch build over the same membership.
        let mut mring = MembershipRing::new(9, 6, &[0, 1, 2, 3, 4]);
        for ids in [
            vec![0, 1, 3, 4],       // peer 2 leaves
            vec![0, 1, 3, 4, 7],    // peer 7 joins
            vec![0, 3, 4, 7, 9],    // 1 leaves, 9 joins
            vec![0, 3, 4, 7, 9],    // no change
            vec![3, 9, 11, 12, 13], // mass churn
        ] {
            mring.update(&ids);
            assert_eq!(mring.peer_ids(), ids.as_slice());
            let full = MembershipRing::new(9, 6, &ids);
            assert_eq!(
                mring.ring(),
                full.ring(),
                "incremental ring diverged at membership {ids:?}"
            );
        }
    }

    #[test]
    fn unsorted_memberships_fall_back_to_full_build() {
        let mut mring = MembershipRing::new(5, 4, &[0, 1, 2]);
        mring.update(&[2, 0, 5]); // unsorted: full rebuild path
        let full = MembershipRing::new(5, 4, &[2, 0, 5]);
        assert_eq!(mring.ring(), full.ring());
    }

    #[test]
    #[should_panic(expected = "collide")]
    fn membership_ring_rejects_duplicate_ids() {
        let _ = MembershipRing::new(7, 2, &[3, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn membership_ring_rejects_empty() {
        let _ = MembershipRing::new(7, 2, &[]);
    }
}
