//! The engine's event calendar: an exact tournament (winner) tree holding
//! one `(next-tick cycle, SM index)` key per SM.
//!
//! Leaves are the SMs' keys; every internal node holds the smaller key of
//! its two children, so the root is the earliest pending SM. A key packs
//! the cycle above the SM index, `cycle << shift | sm`, so comparing two
//! packed keys is comparing `(cycle, SM index)` tuples — earliest cycle
//! first, then lowest SM index, the order the engine's linear min-scan
//! reference produces — in one branch-free `u64` minimum. `u64::MAX` is an
//! idle SM with nothing pending; the padding leaves past the SM count stay
//! there. A cycle too large to pack panics instead of wrapping.
//!
//! Unlike a heap with lazy invalidation, the tree never holds a stale
//! entry: [`Calendar::set`] rewrites one leaf and its `log2(leaves)`
//! ancestors (5 for a 30-SM GPU), and [`Calendar::min`] reads the root.

/// The idle key: no tick pending.
const IDLE: u64 = u64::MAX;

/// Fixed-size tournament tree over per-SM next-tick keys (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct Calendar {
    /// Implicit binary tree of packed keys: node `i`'s children are `2i`
    /// and `2i + 1`, the root is node 1, and SM `s`'s leaf is node
    /// `leaves + s`. Node 0 is unused.
    nodes: Vec<u64>,
    /// Leaf count: the SM count rounded up to a power of two (at least 1).
    leaves: usize,
    /// Bits below the cycle that hold the SM index: `log2(leaves)`.
    shift: u32,
}

impl Calendar {
    /// A calendar with every one of `sms` SMs pending at cycle 0.
    pub(crate) fn new(sms: usize) -> Self {
        let leaves = sms.next_power_of_two();
        let mut c = Calendar {
            nodes: vec![IDLE; 2 * leaves],
            leaves,
            shift: leaves.trailing_zeros(),
        };
        for sm in 0..sms {
            c.nodes[leaves + sm] = c.pack(0, sm);
        }
        for i in (1..leaves).rev() {
            c.nodes[i] = c.nodes[2 * i].min(c.nodes[2 * i + 1]);
        }
        c
    }

    /// The packed key of SM `sm` pending at cycle `t`.
    ///
    /// # Panics
    ///
    /// If `t` is not `u64::MAX` (idle) and does not fit above the SM
    /// index bits with room to spare for the idle key.
    #[inline]
    fn pack(&self, t: u64, sm: usize) -> u64 {
        if t == IDLE {
            return IDLE;
        }
        assert!(
            t < IDLE >> self.shift,
            "cycle {t} does not fit the calendar key ({} SM index bits)",
            self.shift
        );
        (t << self.shift) | sm as u64
    }

    /// Set SM `sm`'s next-tick cycle to `t` (`u64::MAX`: idle).
    #[inline]
    pub(crate) fn set(&mut self, sm: usize, t: u64) {
        let mut key = self.pack(t, sm);
        let mut i = self.leaves + sm;
        self.nodes[i] = key;
        while i > 1 {
            key = key.min(self.nodes[i ^ 1]);
            i /= 2;
            self.nodes[i] = key;
        }
    }

    /// The earliest pending `(cycle, SM index)`, ties to the lowest SM
    /// index; `None` when every SM is idle.
    #[inline]
    pub(crate) fn min(&self) -> Option<(u64, usize)> {
        let root = self.nodes[1];
        let mask = (1u64 << self.shift) - 1;
        (root != IDLE).then(|| (root >> self.shift, (root & mask) as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The linear reference: lowest `(t, sm)` over non-idle SMs.
    fn scan_min(times: &[u64]) -> Option<(u64, usize)> {
        times
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != u64::MAX)
            .map(|(s, &t)| (t, s))
            .min()
    }

    /// The largest cycle packable next to 6 SM index bits (64 leaves,
    /// enough for every SM count the property draws).
    const MAX_PACKABLE: u64 = (u64::MAX >> 6) - 1;

    /// Cycles drawn mostly from a tiny range so ties are common, plus idle
    /// (`u64::MAX`), the largest packable cycle and arbitrary packable ones.
    fn arb_time() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..4,
            0u64..64,
            Just(u64::MAX),
            Just(MAX_PACKABLE),
            any::<u64>().prop_map(|t| t % MAX_PACKABLE),
        ]
    }

    #[test]
    fn fresh_calendar_pops_lowest_index_first() {
        let mut c = Calendar::new(3);
        assert_eq!(c.min(), Some((0, 0)));
        c.set(0, 5);
        assert_eq!(c.min(), Some((0, 1)));
        c.set(1, 5);
        c.set(2, 5);
        assert_eq!(c.min(), Some((5, 0)));
        for s in 0..3 {
            c.set(s, u64::MAX);
        }
        assert_eq!(c.min(), None);
    }

    #[test]
    fn zero_sm_calendar_is_empty() {
        assert_eq!(Calendar::new(0).min(), None);
    }

    #[test]
    fn largest_packable_cycle_round_trips() {
        // 33 SMs pad to 64 leaves: 6 index bits.
        let mut c = Calendar::new(33);
        for s in 0..32 {
            c.set(s, u64::MAX);
        }
        c.set(32, MAX_PACKABLE);
        assert_eq!(c.min(), Some((MAX_PACKABLE, 32)));
    }

    #[test]
    #[should_panic(expected = "does not fit the calendar key")]
    fn unpackable_cycle_panics_instead_of_wrapping() {
        let mut c = Calendar::new(33);
        c.set(3, u64::MAX >> 6);
    }

    proptest! {
        /// After every update, the tree's root equals a linear scan's
        /// lowest `(cycle, SM index)`, on power-of-two and other SM counts,
        /// with tied cycles and idle SMs.
        #[test]
        fn root_matches_linear_scan(
            sms in 1usize..34,
            ops in proptest::collection::vec((any::<usize>(), arb_time()), 1..200),
        ) {
            let mut c = Calendar::new(sms);
            let mut times = vec![0; sms];
            prop_assert_eq!(c.min(), scan_min(&times));
            for (raw, t) in ops {
                let s = raw % sms;
                c.set(s, t);
                times[s] = t;
                prop_assert_eq!(c.min(), scan_min(&times), "after set({}, {})", s, t);
            }
        }
    }
}
