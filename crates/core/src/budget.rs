//! [`ResourceBudget`]: shared fuel + wall-clock limits for every loop in the
//! pipeline that bad input could make unbounded.
//!
//! A budget is a cheap `Arc`-backed handle: cloning shares the *same* pool,
//! so a `SchedState`, the effect-analysis fixpoint it drives and the
//! interpreter's step loop can all draw from one allowance. Exhaustion is
//! sticky and always *degrades conservatively*: analyses answer `Unknown`
//! (rejecting the rewrite), the interpreter stops with a typed error —
//! never a hang, and never an unsound accept. The simulators take no
//! budget: they walk a finite trace once.
//!
//! The default budget is [`ResourceBudget::unlimited`], which never charges
//! anything and keeps the hot paths at one atomic load.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// Abstract step/fuel units (interpreter steps, fixpoint passes,
    /// check queries, scheduling operators).
    Fuel,
    /// The wall-clock deadline passed.
    Deadline,
}

/// Typed exhaustion error: which limit tripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetError {
    /// Which limit tripped.
    pub resource: Resource,
    /// The configured limit (fuel units, or deadline in milliseconds).
    pub limit: u64,
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.resource {
            Resource::Fuel => write!(f, "fuel budget exhausted (limit {})", self.limit),
            Resource::Deadline => write!(f, "deadline exceeded (limit {} ms)", self.limit),
        }
    }
}

impl std::error::Error for BudgetError {}

#[derive(Debug)]
struct Inner {
    /// Whether any limit is set: `false` only for the unlimited budget,
    /// whose [`ResourceBudget::charge`] is this one load and a compare.
    limited: bool,
    // u64::MAX = unlimited; counts down.
    fuel_remaining: AtomicU64,
    fuel_limit: u64,
    deadline: Option<Instant>,
    deadline_ms: u64,
    exhausted: AtomicBool,
}

/// A shared fuel + wall-clock budget. Clone to share the same pool.
#[derive(Debug, Clone)]
pub struct ResourceBudget {
    inner: Arc<Inner>,
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget::unlimited()
    }
}

impl ResourceBudget {
    /// A budget of `fuel` units (`u64::MAX` = no limit) with an optional
    /// deadline `dur` from now.
    fn new(fuel: u64, deadline: Option<Duration>) -> ResourceBudget {
        ResourceBudget {
            inner: Arc::new(Inner {
                limited: fuel != u64::MAX || deadline.is_some(),
                fuel_remaining: AtomicU64::new(fuel),
                fuel_limit: fuel,
                deadline: deadline.map(|dur| Instant::now() + dur),
                deadline_ms: deadline.map_or(0, |dur| dur.as_millis().min(u64::MAX as u128) as u64),
                exhausted: AtomicBool::new(false),
            }),
        }
    }

    /// A budget that never runs out (the default everywhere).
    pub fn unlimited() -> ResourceBudget {
        ResourceBudget::new(u64::MAX, None)
    }

    /// A budget of `fuel` abstract units and no deadline.
    pub fn with_fuel(fuel: u64) -> ResourceBudget {
        ResourceBudget::new(fuel, None)
    }

    /// A budget with a wall-clock deadline `dur` from now and unlimited fuel.
    pub fn with_deadline(dur: Duration) -> ResourceBudget {
        ResourceBudget::new(u64::MAX, Some(dur))
    }

    /// Is this the unlimited budget (no fuel limit, no deadline)?
    pub fn is_unlimited(&self) -> bool {
        !self.inner.limited
    }

    /// Draw `n` fuel units and check the deadline. `Err` once exhausted
    /// (sticky: every later call also errs). The interpreter's step loop
    /// calls this once per step, so the unlimited budget's check is
    /// inlined into it; the unlimited budget can never trip.
    #[inline]
    pub fn charge(&self, n: u64) -> Result<(), BudgetError> {
        if self.inner.limited {
            self.charge_limited(n)
        } else {
            Ok(())
        }
    }

    #[cold]
    #[inline(never)]
    fn charge_limited(&self, n: u64) -> Result<(), BudgetError> {
        let inner = &*self.inner;
        if inner.exhausted.load(Ordering::Relaxed) {
            return Err(self.error());
        }
        if inner.fuel_limit != u64::MAX {
            let prev = inner
                .fuel_remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                    Some(cur.saturating_sub(n))
                })
                .unwrap_or(0);
            if prev < n {
                inner.exhausted.store(true, Ordering::Relaxed);
                return Err(BudgetError {
                    resource: Resource::Fuel,
                    limit: inner.fuel_limit,
                });
            }
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                inner.exhausted.store(true, Ordering::Relaxed);
                return Err(BudgetError {
                    resource: Resource::Deadline,
                    limit: inner.deadline_ms,
                });
            }
        }
        Ok(())
    }

    /// Has this budget tripped (fuel or deadline)? Does not charge.
    pub fn exhausted(&self) -> bool {
        if self.inner.exhausted.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.inner.exhausted.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Fuel left (`u64::MAX` when unlimited).
    pub fn fuel_remaining(&self) -> u64 {
        self.inner.fuel_remaining.load(Ordering::Relaxed)
    }

    /// The [`BudgetError`] describing this budget's exhaustion state
    /// (fuel takes precedence when both limits exist).
    pub fn error(&self) -> BudgetError {
        if self.inner.fuel_limit != u64::MAX && self.fuel_remaining() == 0 {
            BudgetError {
                resource: Resource::Fuel,
                limit: self.inner.fuel_limit,
            }
        } else {
            BudgetError {
                resource: Resource::Deadline,
                limit: self.inner.deadline_ms,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = ResourceBudget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..10_000 {
            assert!(b.charge(1).is_ok());
        }
        assert!(!b.exhausted());
    }

    #[test]
    fn fuel_exhaustion_is_sticky() {
        let b = ResourceBudget::with_fuel(3);
        assert!(b.charge(1).is_ok());
        assert!(b.charge(2).is_ok());
        let err = b.charge(1).expect_err("fuel gone");
        assert_eq!(err.resource, Resource::Fuel);
        assert_eq!(err.limit, 3);
        assert!(b.exhausted());
        assert!(b.charge(1).is_err(), "exhaustion must be sticky");
    }

    #[test]
    fn clones_share_the_pool() {
        let a = ResourceBudget::with_fuel(4);
        let b = a.clone();
        assert!(a.charge(2).is_ok());
        assert!(b.charge(2).is_ok());
        assert!(a.charge(1).is_err());
        assert!(b.exhausted());
    }

    #[test]
    fn past_deadline_trips() {
        let b = ResourceBudget::with_deadline(Duration::from_millis(0));
        let err = b.charge(1).expect_err("deadline already passed");
        assert_eq!(err.resource, Resource::Deadline);
    }
}
