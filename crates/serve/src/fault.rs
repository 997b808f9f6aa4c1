//! Deterministic fault injection for the serving engine — the chaos half
//! of the fault-tolerance story.
//!
//! A [`FaultPlan`] is a fixed, seed-reproducible schedule of faults fired
//! by the scheduler tick at planned scheduler steps:
//!
//! * [`Fault::StepPanic`] — panic out of the batched model step (after the
//!   step's compute, so session state *has* advanced when the panic lands:
//!   the worst case for the recovery path);
//! * [`Fault::CancelActive`] — a mid-flight cancellation of whatever
//!   request occupies a batch slot at that tick, exercising the
//!   release-between-steps path from inside the engine.
//!
//! Faults target **batch slots**, not request ids, so a plan written
//! before any request exists still lands on real in-flight work: a fault
//! aimed at slot `s` lands on slot `s % batch`. A tick fires its due
//! faults only with a non-empty batch, so a fault is skipped only when
//! earlier cancels of the same tick emptied the batch. Cancels land in
//! plan order; the panic is pinned on the batch that then steps.
//!
//! There is no stall fault: a test that needs an interleaving drives the
//! scheduler tick itself (`Server::ticked`) instead of slowing the engine
//! down until the interleaving happens.
//!
//! The plan is std-only and seeded through the in-repo xoshiro generator,
//! so a failing chaos case reproduces from its seed alone. At most one
//! [`Fault::StepPanic`] is scheduled per tick: the engine's recovery then
//! catches exactly two panics per fired injection (the batched step and
//! the victim's isolated replay), which `tests/proptest_chaos.rs` uses to
//! pin "every injected fault fails exactly one request".

use m2x_tensor::Xoshiro;

/// One scheduled fault (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic out of the batched step at `tick`, attributed to the request
    /// in batch slot `slot % batch` of the batch that steps.
    StepPanic {
        /// Scheduler step count the fault fires at.
        tick: u64,
        /// Active-batch slot whose request the panic is pinned on, taken
        /// modulo the batch size.
        slot: usize,
    },
    /// Cancel the request in batch slot `slot % batch` right before the
    /// step at `tick`.
    CancelActive {
        /// Scheduler step count the fault fires at.
        tick: u64,
        /// Active-batch slot to cancel, taken modulo the batch size.
        slot: usize,
    },
}

impl Fault {
    fn tick(&self) -> u64 {
        match *self {
            Fault::StepPanic { tick, .. } | Fault::CancelActive { tick, .. } => tick,
        }
    }
}

/// A deterministic schedule of engine faults, sorted by tick and consumed
/// once as the engine's step counter passes each fault's tick.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Sorted by tick (stable: same-tick faults keep insertion order).
    faults: Vec<Fault>,
    /// Index of the first fault not yet handed out.
    next: usize,
}

impl FaultPlan {
    /// The empty plan — what [`Server::start`](crate::Server::start) runs
    /// under.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan firing the given faults, sorted by tick. If several
    /// [`Fault::StepPanic`]s share a tick, only the first is kept (one
    /// panic per tick keeps fault→failure attribution exact; see the
    /// [module docs](self)).
    pub fn new(mut faults: Vec<Fault>) -> Self {
        faults.sort_by_key(Fault::tick);
        let mut panic_ticks = std::collections::BTreeSet::new();
        faults.retain(|f| match f {
            Fault::StepPanic { tick, .. } => panic_ticks.insert(*tick),
            _ => true,
        });
        FaultPlan { faults, next: 0 }
    }

    /// A seed-reproducible random plan: `panics`/`cancels` faults
    /// scattered over ticks `0..horizon` and slots `0..max_slot`. Panic
    /// ticks are kept distinct (see [`FaultPlan::new`]); a horizon smaller
    /// than `panics` caps the panic count.
    pub fn seeded(seed: u64, horizon: u64, max_slot: usize, panics: usize, cancels: usize) -> Self {
        let mut rng = Xoshiro::seed(seed ^ 0xFA_17_BD_5E);
        let horizon = horizon.max(1);
        let slots = max_slot.max(1);
        let mut faults = Vec::with_capacity(panics + cancels);
        for _ in 0..panics {
            faults.push(Fault::StepPanic {
                tick: rng.below(horizon as usize) as u64,
                slot: rng.below(slots),
            });
        }
        for _ in 0..cancels {
            faults.push(Fault::CancelActive {
                tick: rng.below(horizon as usize) as u64,
                slot: rng.below(slots),
            });
        }
        FaultPlan::new(faults)
    }

    /// True if no faults remain to fire.
    pub fn is_empty(&self) -> bool {
        self.next >= self.faults.len()
    }

    /// Total faults scheduled (fired or not).
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Hands out (consumes) every not-yet-fired fault scheduled at or
    /// before `tick`, in schedule order.
    pub(crate) fn take_due(&mut self, tick: u64) -> &[Fault] {
        let start = self.next;
        while self.next < self.faults.len() && self.faults[self.next].tick() <= tick {
            self.next += 1;
        }
        &self.faults[start..self.next]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_and_consumes_in_tick_order() {
        let mut plan = FaultPlan::new(vec![
            Fault::CancelActive { tick: 5, slot: 9 },
            Fault::CancelActive { tick: 1, slot: 0 },
            Fault::StepPanic { tick: 3, slot: 2 },
        ]);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.take_due(0), &[]);
        assert_eq!(plan.take_due(3).len(), 2); // ticks 1 and 3
        assert_eq!(plan.take_due(3), &[]); // consumed once
        assert_eq!(
            plan.take_due(99),
            &[Fault::CancelActive { tick: 5, slot: 9 }]
        );
        assert!(plan.is_empty());
    }

    #[test]
    fn at_most_one_step_panic_per_tick() {
        let plan = FaultPlan::new(vec![
            Fault::StepPanic { tick: 2, slot: 0 },
            Fault::StepPanic { tick: 2, slot: 1 },
            Fault::CancelActive { tick: 2, slot: 1 },
            Fault::StepPanic { tick: 4, slot: 1 },
        ]);
        let panics = plan
            .faults
            .iter()
            .filter(|f| matches!(f, Fault::StepPanic { .. }))
            .count();
        assert_eq!(panics, 2);
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let a = FaultPlan::seeded(42, 20, 4, 3, 2);
        let b = FaultPlan::seeded(42, 20, 4, 3, 2);
        assert_eq!(a.faults, b.faults);
        assert!(a.len() <= 5);
        for f in &a.faults {
            assert!(f.tick() < 20);
            let (Fault::StepPanic { slot, .. } | Fault::CancelActive { slot, .. }) = *f;
            assert!(slot < 4);
        }
        let c = FaultPlan::seeded(43, 20, 4, 3, 2);
        assert_ne!(a.faults, c.faults, "different seeds, different plans");
    }
}
