//! The `parallelize` scheduling operator: user-directed loop
//! parallelization, gated on the `exo-lint` loop-carried dependence
//! analysis.
//!
//! `parallelize(pat)` locates a `for` loop, asks
//! [`exo_lint::classify_loop`] for its dependence verdict (through the
//! shared checking context, so repeated attempts and prior lint runs
//! are cache hits), and:
//!
//! * `Parallel` — records a [`ParallelMark`] with no reductions;
//! * `ReductionParallel` — records a mark listing the buffers that
//!   need an OpenMP `reduction(+:…)` clause;
//! * `Sequential` — rejects with a [`SchedError`] that embeds the
//!   concrete witness pair of conflicting accesses when the solver
//!   confirmed one (or the fail-safe explanation when it gave up).
//!
//! The loop body is left untouched: the mark travels on the
//! [`Procedure`] and is consumed by `exo-codegen` (via
//! `CodegenCtx::parallel`) when emitting C.

use exo_core::ir::Stmt;
use exo_lint::LoopVerdict;

use crate::handle::{serr, ParallelMark, Procedure, SchedError};
use crate::pattern::Pattern;

impl Procedure {
    /// `parallelize(pat)`: approves the loop matched by `pat` for
    /// parallel execution.
    ///
    /// # Errors
    ///
    /// Fails if `pat` does not name a `for` loop, or if the dependence
    /// analysis cannot prove distinct iterations independent
    /// (`Sequential` verdict — the error carries the witness pair of
    /// conflicting accesses when one was confirmed).
    pub fn parallelize(&self, loop_pat: impl Into<Pattern>) -> Result<Procedure, SchedError> {
        let loop_pat = loop_pat.into();
        self.instrumented("parallelize", loop_pat.as_str(), || {
            self.parallelize_impl(&loop_pat)
        })
    }

    fn parallelize_impl(&self, loop_pat: &Pattern) -> Result<Procedure, SchedError> {
        let path = self.find(loop_pat)?;
        let Stmt::For { iter, .. } = self.stmt(&path)? else {
            return serr(format!("parallelize: {loop_pat:?} is not a loop"));
        };
        let iter = *iter;
        let verdict = self
            .analysis(|reg, check| exo_lint::classify_loop(self.proc(), &path, check, reg))
            .map_err(|e| SchedError::new(e.message.clone()).with_source(e))?;
        match verdict {
            LoopVerdict::Parallel => Ok(self.with_parallel(ParallelMark {
                iter,
                reductions: Vec::new(),
            })),
            LoopVerdict::ReductionParallel { bufs } => Ok(self.with_parallel(ParallelMark {
                iter,
                reductions: bufs,
            })),
            LoopVerdict::Sequential { witness } => match witness {
                Some(w) => serr(format!(
                    "parallelize: loop over {} carries a dependence — {w}",
                    iter.name()
                )),
                None => serr(format!(
                    "parallelize: could not prove iterations of {} independent \
                     (failing safe)",
                    iter.name()
                )),
            },
        }
    }
}
