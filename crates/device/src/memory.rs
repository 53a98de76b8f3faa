//! Device-memory ledger enforcing `S_G`.
//!
//! The Step-1 memory bound `(d + l + m) · n ≤ S_G` comes from three resident
//! arrays: the training features (`d·n`), the model weights (`l·n`), and the
//! mini-batch kernel block (`m·n`). The ledger lets trainers *prove* they
//! respect the budget: every allocation is charged and the peak is recorded,
//! so Figure 3b's "batches that fit into GPU memory" constraint is enforced
//! rather than assumed.

use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Error returned when an allocation would exceed the device budget.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryError {
    /// Slots requested by the failed allocation.
    pub requested: f64,
    /// Slots available at the time of the request.
    pub available: f64,
    /// Total budget `S_G`.
    pub budget: f64,
    /// High-water mark of charged slots at the time of the request — lets
    /// the message distinguish "this run was always close to the line" from
    /// "one oversized allocation" at a glance.
    pub peak: f64,
}

impl MemoryError {
    /// Builds an error for a *planning* failure (no ledger involved yet):
    /// `requested` slots against a fresh budget, peak 0.
    pub fn for_plan(requested: f64, budget: f64) -> Self {
        MemoryError {
            requested,
            available: budget,
            budget,
            peak: 0.0,
        }
    }
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device memory exhausted: requested {:.3e} slots, {:.3e} available of {:.3e} \
             (peak so far {:.3e})",
            self.requested, self.available, self.budget, self.peak
        )
    }
}

impl Error for MemoryError {}

#[derive(Debug)]
struct LedgerState {
    budget: f64,
    in_use: f64,
    peak: f64,
    /// Lifetime allocation count (1-based), consulted by the `alloc_fail`
    /// failpoint so chaos tests can kill a *specific* allocation
    /// deterministically.
    allocs: u64,
}

/// A shared, thread-safe allocation ledger for one simulated device.
///
/// Allocations return an RAII [`Allocation`] guard that releases its slots
/// on drop, so accounting cannot leak on early returns.
///
/// # Example
///
/// ```
/// use ep2_device::MemoryLedger;
///
/// let ledger = MemoryLedger::new(1000.0);
/// let a = ledger.alloc(600.0).unwrap();
/// assert!(ledger.alloc(600.0).is_err()); // over budget
/// drop(a);
/// assert!(ledger.alloc(600.0).is_ok()); // freed
/// ```
#[derive(Debug, Clone)]
pub struct MemoryLedger {
    state: Arc<Mutex<LedgerState>>,
}

impl MemoryLedger {
    /// Creates a ledger with `budget` slots (`S_G`).
    ///
    /// # Panics
    ///
    /// Panics if `budget` is not positive and finite.
    pub fn new(budget: f64) -> Self {
        assert!(
            budget > 0.0 && budget.is_finite(),
            "budget must be positive"
        );
        MemoryLedger {
            state: Arc::new(Mutex::new(LedgerState {
                budget,
                in_use: 0.0,
                peak: 0.0,
                allocs: 0,
            })),
        }
    }

    /// Charges `slots` against the budget.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] if the allocation would exceed the budget.
    pub fn alloc(&self, slots: f64) -> Result<Allocation, MemoryError> {
        assert!(
            slots >= 0.0 && slots.is_finite(),
            "slots must be non-negative"
        );
        let mut st = self.lock();
        st.allocs += 1;
        // `alloc_fail@step=k` fails this ledger's k-th allocation as if the
        // budget were exhausted — the graceful-degradation paths (re-plan to
        // streamed residency, narrow the tile) are tested through the same
        // error they handle in production.
        let injected = ep2_runtime::faults::fire_at("alloc_fail", st.allocs);
        if injected || st.in_use + slots > st.budget {
            return Err(MemoryError {
                requested: slots,
                available: if injected { 0.0 } else { st.budget - st.in_use },
                budget: st.budget,
                peak: st.peak,
            });
        }
        st.in_use += slots;
        st.peak = st.peak.max(st.in_use);
        Ok(Allocation {
            ledger: self.clone(),
            slots,
        })
    }

    /// Slots currently charged.
    pub fn in_use(&self) -> f64 {
        self.lock().in_use
    }

    /// High-water mark of charged slots.
    pub fn peak(&self) -> f64 {
        self.lock().peak
    }

    /// High-water mark of charged slots — the same quantity as
    /// [`MemoryLedger::peak`], named for the `S_G` audit that out-of-core
    /// (streamed) runs perform: after training, `peak_slots() <= budget()`
    /// proves the run never exceeded the device memory it claimed to fit.
    pub fn peak_slots(&self) -> f64 {
        self.peak()
    }

    /// Total budget `S_G`.
    pub fn budget(&self) -> f64 {
        self.lock().budget
    }

    /// Remaining free slots.
    pub fn available(&self) -> f64 {
        let st = self.lock();
        st.budget - st.in_use
    }

    /// Locks the ledger state. A panic while the lock was held cannot leave
    /// the few plain counters half-updated, so poisoning is recovered.
    fn lock(&self) -> MutexGuard<'_, LedgerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn release(&self, slots: f64) {
        let mut st = self.lock();
        st.in_use = (st.in_use - slots).max(0.0);
    }
}

/// RAII guard for a charged allocation; releases its slots on drop.
#[derive(Debug)]
pub struct Allocation {
    ledger: MemoryLedger,
    slots: f64,
}

impl Allocation {
    /// Slots held by this allocation.
    pub fn slots(&self) -> f64 {
        self.slots
    }
}

impl Drop for Allocation {
    fn drop(&mut self) {
        self.ledger.release(self.slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let ledger = MemoryLedger::new(100.0);
        {
            let _a = ledger.alloc(40.0).unwrap();
            let _b = ledger.alloc(60.0).unwrap();
            assert_eq!(ledger.in_use(), 100.0);
            assert_eq!(ledger.available(), 0.0);
        }
        assert_eq!(ledger.in_use(), 0.0);
        assert_eq!(ledger.peak(), 100.0);
    }

    #[test]
    fn over_budget_rejected_with_details() {
        let ledger = MemoryLedger::new(50.0);
        let _a = ledger.alloc(30.0).unwrap();
        let err = ledger.alloc(30.0).unwrap_err();
        assert_eq!(err.requested, 30.0);
        assert_eq!(err.available, 20.0);
        assert_eq!(err.budget, 50.0);
        assert_eq!(err.peak, 30.0);
        assert!(err.to_string().contains("exhausted"));
        assert!(err.to_string().contains("peak"));
    }

    #[test]
    fn peak_slots_tracks_high_water_mark() {
        let ledger = MemoryLedger::new(100.0);
        {
            let _a = ledger.alloc(70.0).unwrap();
        }
        let _b = ledger.alloc(10.0).unwrap();
        assert_eq!(ledger.peak_slots(), 70.0);
        assert_eq!(ledger.peak_slots(), ledger.peak());
        assert!(ledger.peak_slots() <= ledger.budget());
    }

    #[test]
    fn zero_allocation_allowed() {
        let ledger = MemoryLedger::new(1.0);
        let a = ledger.alloc(0.0).unwrap();
        assert_eq!(a.slots(), 0.0);
    }

    #[test]
    fn concurrent_allocations_balance() {
        let ledger = MemoryLedger::new(1e6);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let l = ledger.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        let a = l.alloc(10.0).unwrap();
                        drop(a);
                    }
                });
            }
        });
        assert_eq!(ledger.in_use(), 0.0);
        assert!(ledger.peak() <= 8.0 * 10.0 + 1e-9);
    }
}
