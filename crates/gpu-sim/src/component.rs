//! Calendar identities of the engine's participants.
//!
//! The engine's event calendar is keyed by `(cycle, `[`ComponentId`]`)`:
//! the thread-block dispatcher and each SM is one participant. The engine
//! knows every concrete participant type and ticks each directly by
//! matching on its id — the dispatcher's tick is the all-SM dispatch
//! sweep, an SM's is [`crate::Sm::tick_bounded`] — so the id is all the
//! calendar needs. The crate-private `TbDispatcher` holds the dispatcher's
//! arming state.
//!
//! # The merge-key argument
//!
//! All three execution modes ([`crate::ExecMode`]) must stay byte-identical,
//! so the component ordering at a tied cycle has to reproduce the order the
//! legacy loop produced implicitly:
//!
//! 1. **Dispatcher first.** The legacy loop ran the all-SM dispatch sweep at
//!    the top of every iteration (whenever the dirty flag was set), i.e.
//!    *before* popping any SM due at the same — or any later — cycle. The
//!    dispatcher is armed at the cycle the dirty transition happens, and
//!    every pending calendar entry is at or after the current cycle, so
//!    sorting [`ComponentId::Dispatcher`] before every SM at a tied cycle
//!    is exactly the legacy "sweep before pop" order.
//! 2. **SMs by index.** Unchanged from the `(cycle, sm)` calendar: within a
//!    cycle the lowest SM index ticks first, matching the legacy linear
//!    min-scan.
//!
//! Memory partitions need no slot. A request's timing is fixed by the
//! busy-until server when it is issued, and a partition's retirement
//! statistics are computed from its completion FIFO when read (see
//! [`crate::mem`]), so nothing happens at a partition at any cycle that a
//! tick would have to order.
//!
//! The derived `Ord` on [`ComponentId`] encodes all of this: variants
//! compare by declaration order, then by payload.

/// Stable calendar identity of an engine participant.
///
/// The derived ordering is the tie-break of the calendar's
/// `(cycle, component)` merge key — see the [module docs](self) for why the
/// declaration order is load-bearing.
///
/// ```
/// use gpu_sim::component::ComponentId;
///
/// // Dispatcher < any SM at a tied cycle; SMs by index.
/// assert!(ComponentId::Dispatcher < ComponentId::Sm(0));
/// assert!(ComponentId::Sm(1) < ComponentId::Sm(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ComponentId {
    /// The thread-block dispatcher: fills free SM slots from the kernels'
    /// block queues. Sorts before every SM at a tied cycle.
    Dispatcher,
    /// A streaming multiprocessor, by index.
    Sm(usize),
}

/// The thread-block dispatcher as a calendar component.
///
/// Replaces the engine's old `dispatch_dirty: bool`: instead of a flag the
/// run loop checks at the top of every iteration, a dispatch-relevant
/// transition *arms* the dispatcher at the cycle it happened (the engine's
/// `mark_dispatch_dirty`; an earlier pending request wins), and the
/// calendar pops it — before any SM due at the same or a later cycle, per
/// the merge-key ordering — to run the sweep.
#[derive(Debug, Clone)]
pub(crate) struct TbDispatcher {
    next_tick: u64,
}

impl TbDispatcher {
    /// A dispatcher armed for cycle 0 (a fresh engine must sweep once).
    pub fn new() -> Self {
        TbDispatcher { next_tick: 0 }
    }

    /// Whether a sweep is pending.
    pub fn armed(&self) -> bool {
        self.next_tick != u64::MAX
    }

    /// Clear the pending sweep (it is about to run).
    pub fn disarm(&mut self) {
        self.next_tick = u64::MAX;
    }

    /// The cycle of the pending sweep, `u64::MAX` when disarmed.
    pub(crate) fn next_tick(&self) -> u64 {
        self.next_tick
    }

    /// Move the pending sweep (engine wake path only).
    pub(crate) fn set_next_tick(&mut self, t: u64) {
        self.next_tick = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_key_orders_dispatcher_then_sms() {
        let mut ids = vec![
            ComponentId::Sm(2),
            ComponentId::Dispatcher,
            ComponentId::Sm(0),
        ];
        ids.sort();
        assert_eq!(
            ids,
            vec![
                ComponentId::Dispatcher,
                ComponentId::Sm(0),
                ComponentId::Sm(2),
            ]
        );
    }

    #[test]
    fn dispatcher_starts_armed_and_disarms() {
        let mut d = TbDispatcher::new();
        assert!(d.armed(), "fresh engines must sweep once");
        d.disarm();
        assert!(!d.armed());
    }

    #[test]
    fn tied_cycle_keys_sort_by_component() {
        let a = (10u64, ComponentId::Dispatcher);
        let b = (10u64, ComponentId::Sm(0));
        let c = (10u64, ComponentId::Sm(1));
        let d = (9u64, ComponentId::Sm(3));
        let mut keys = vec![c, a, b, d];
        keys.sort();
        assert_eq!(keys, vec![d, a, b, c], "cycle first, then component");
    }
}
