//! The active attribution context: *which scheduling operator is the
//! system currently working for?*
//!
//! `exo-sched` pushes an [`AttrGuard`] around every operator it runs.
//! Every counter bump — effect-analysis passes, bounds obligations,
//! lint probes, simulated kernel runs — is filed by the registry under
//! `(counter, innermost operator)`, so one write answers both "how many
//! loop passes ran?" and "which operator caused them".
//! [`crate::Registry::counter`] sums a counter's rows at
//! read time and [`crate::Registry::counter_by_op`] lists them; the two
//! views cannot drift because they read the same records.
//!
//! The context is a per-thread stack (operators can nest: `fuse`
//! re-checks through `stage_mem`'s machinery); the innermost frame
//! wins. Work performed outside any operator is attributed to
//! [`UNATTRIBUTED`]. Standalone drivers that are not scheduling
//! operators (the lint rule pack, benches) can claim otherwise-idle
//! work with [`AttrGuard::fallback`], which yields an inert guard when
//! an operator is already active.

use std::cell::RefCell;

/// Attribution label for work performed outside any context.
pub const UNATTRIBUTED: &str = "unattributed";

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

#[derive(Clone, Debug)]
struct Frame {
    op: &'static str,
    target: String,
}

/// RAII frame of the attribution stack; pops on drop.
#[derive(Debug)]
pub struct AttrGuard {
    /// `fallback` on a non-empty stack produces an inert guard.
    armed: bool,
}

impl AttrGuard {
    /// Pushes an attribution frame: all attributable work on this
    /// thread is tagged `op` until the guard drops (or a nested guard
    /// shadows it).
    pub fn enter(op: &'static str, target: impl Into<String>) -> AttrGuard {
        STACK.with(|s| {
            s.borrow_mut().push(Frame {
                op,
                target: target.into(),
            })
        });
        AttrGuard { armed: true }
    }

    /// Pushes a frame only when no context is active — for drivers
    /// (lint passes, benches) that want their own label *unless* a
    /// scheduling operator is the real cause of the work.
    pub fn fallback(op: &'static str, target: impl Into<String>) -> AttrGuard {
        let empty = STACK.with(|s| s.borrow().is_empty());
        if empty {
            AttrGuard::enter(op, target)
        } else {
            AttrGuard { armed: false }
        }
    }
}

impl Drop for AttrGuard {
    fn drop(&mut self) {
        if self.armed {
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// The innermost attribution frame, as `(op, target)`.
pub fn current() -> Option<(&'static str, String)> {
    STACK.with(|s| s.borrow().last().map(|f| (f.op, f.target.clone())))
}

/// The innermost operator name, or [`UNATTRIBUTED`] — the row a
/// counter bump is filed under.
pub(crate) fn current_op() -> &'static str {
    STACK.with(|s| s.borrow().last().map_or(UNATTRIBUTED, |f| f.op))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_nests_and_unwinds() {
        assert_eq!(current_op(), UNATTRIBUTED);
        {
            let _a = AttrGuard::enter("split", "for i in _: _");
            assert_eq!(current(), Some(("split", "for i in _: _".into())));
            {
                let _b = AttrGuard::enter("stage_mem", "A");
                assert_eq!(current_op(), "stage_mem");
            }
            assert_eq!(current_op(), "split");
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn fallback_defers_to_an_active_operator() {
        {
            let _lint = AttrGuard::fallback("lint", "dead-alloc");
            assert_eq!(current_op(), "lint");
        }
        let _op = AttrGuard::enter("reorder", "for io in _: _");
        let _lint = AttrGuard::fallback("lint", "dead-alloc");
        assert_eq!(current_op(), "reorder");
    }

    #[test]
    fn attributed_counters_sum_to_the_flat_total() {
        let reg = crate::Registry::global();
        {
            let _a = AttrGuard::enter("attr_test_split", "x");
            crate::counter_add("attr_test.queries", 3);
            {
                // nested guard: the innermost operator wins
                let _b = AttrGuard::enter("attr_test_stage", "A");
                crate::counter_add("attr_test.queries", 4);
                // a fallback under an active operator is inert
                let _lint = AttrGuard::fallback("attr_test_lint", "r");
                crate::counter_add("attr_test.queries", 5);
            }
            crate::counter_add("attr_test.queries", 1);
        }
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        crate::counter_add("attr_test.queries", 2);
                    }
                });
            }
        });
        let rows = reg.counter_by_op("attr_test.queries");
        assert_eq!(
            rows,
            vec![
                ("attr_test_split", 4),
                ("attr_test_stage", 9),
                (UNATTRIBUTED, 1600),
            ]
        );
        let total: u64 = rows.iter().map(|(_, v)| v).sum();
        assert_eq!(reg.counter("attr_test.queries"), total);
        assert!(reg.counters().contains(&("attr_test.queries", total)));
    }
}
