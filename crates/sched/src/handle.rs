//! The scheduling handle: an immutable procedure, its provenance (root,
//! polluted configuration fields, transcript), and the shared state
//! (checking context, global registry, budget) that rewrites consult.
//!
//! Every scheduling operator consumes a [`Procedure`] by reference and
//! returns a *new* `Procedure` — the original is untouched, exactly as in
//! the paper where each primitive "takes a procedure p … and returns an
//! equivalent, rewritten procedure as output" (§3.3).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use exo_analysis::context::SiteQuery;
use exo_analysis::globals::GlobalReg;
use exo_analysis::SharedCheckCtx;
use exo_core::budget::ResourceBudget;
use exo_core::ir::{FnArg, Proc};
use exo_core::path::{replace_at, stmt_at, StmtPath};
use exo_core::{Block, Stmt, Sym};
use exo_smt::formula::Formula;
use exo_smt::solver::Answer;

use crate::pattern::Pattern;
use crate::provenance::{render_transcript, ProvenanceEvent, Transcript};

/// An error raised by a scheduling operator. Scheduling errors are
/// always *safe*: the procedure is unchanged and no unsound rewrite was
/// performed.
#[derive(Clone, Debug)]
pub struct SchedError {
    /// Human-readable description.
    pub message: String,
    /// The scheduling operator that raised the error, once attributed.
    pub op: Option<&'static str>,
    /// The pattern argument the operator was applied to, if any.
    pub pattern: Option<String>,
    /// The underlying cause (e.g. a [`crate::pattern::PatternError`]).
    source: Option<Arc<dyn std::error::Error + Send + Sync + 'static>>,
}

impl SchedError {
    /// A free-form scheduling error. Public so that code *driving* the
    /// scheduler (kernel builders, tests) can fail with a typed error
    /// instead of panicking.
    pub fn new(message: impl Into<String>) -> SchedError {
        SchedError {
            message: message.into(),
            op: None,
            pattern: None,
            source: None,
        }
    }

    /// Attaches an underlying cause, preserved through [`std::error::Error::source`].
    pub fn with_source(
        mut self,
        source: impl std::error::Error + Send + Sync + 'static,
    ) -> SchedError {
        self.source = Some(Arc::new(source));
        self
    }

    pub(crate) fn with_pattern(mut self, pattern: &Pattern) -> SchedError {
        self.pattern = Some(pattern.as_str().to_string());
        self
    }

    /// Attributes the error to an operator and its target, keeping any
    /// attribution already made by a more deeply nested operator.
    pub(crate) fn in_op(mut self, op: &'static str, target: &str) -> SchedError {
        if self.op.is_none() {
            self.op = Some(op);
        }
        if self.pattern.is_none() && !target.is_empty() {
            self.pattern = Some(target.to_string());
        }
        self
    }
}

// `source` is diagnostic payload only; equality is over the description
// and attribution, so tests can compare errors structurally.
impl PartialEq for SchedError {
    fn eq(&self, other: &SchedError) -> bool {
        self.message == other.message && self.op == other.op && self.pattern == other.pattern
    }
}

impl Eq for SchedError {}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.op, &self.pattern) {
            (Some(op), Some(pat)) => write!(f, "{op}({pat:?}): {}", self.message),
            (Some(op), None) => write!(f, "{op}: {}", self.message),
            _ => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source
            .as_deref()
            .map(|s| s as &(dyn std::error::Error + 'static))
    }
}

pub(crate) fn serr<T>(message: impl Into<String>) -> Result<T, SchedError> {
    Err(SchedError::new(message))
}

/// Locks the scheduling state, recovering from poisoning.
///
/// `SchedState` is only ever mutated through operators that are
/// transactional by construction (a failed or panicking rewrite leaves the
/// `Procedure` untouched and the state holds only monotonic caches), so a
/// panic that poisoned the mutex left no half-applied update behind and the
/// guard can be taken over safely.
fn lock_state(state: &StateRef) -> MutexGuard<'_, SchedState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared scheduling state: the checking context (solver + canonical
/// verdict cache), the global registry and the fuel/deadline budget.
///
/// `SchedState::default()` owns a fresh, cached context of its own, so a
/// verdict, a count or a budget of one state never reaches another.
/// Schedules share a context only explicitly: through one [`StateRef`]
/// (obligations discharged while scheduling one kernel are then cache
/// hits while scheduling the next) or by handing one [`SharedCheckCtx`]
/// to [`SchedState::with_check`]. Lock ordering is
/// `SchedState → SharedCheckCtx`.
#[derive(Debug)]
pub struct SchedState {
    /// The shared checking context (reusable solver, canonical-formula
    /// verdict cache).
    pub check: SharedCheckCtx,
    /// Canonical names for configuration fields.
    pub reg: GlobalReg,
    /// Fuel/deadline pool scheduling draws from: one unit per operator,
    /// one per solver query, one per symbolic loop pass. Unlimited by
    /// default; see [`SchedState::set_budget`].
    pub budget: ResourceBudget,
}

impl SchedState {
    /// State wired to a specific checking context.
    pub fn with_check(check: SharedCheckCtx) -> SchedState {
        SchedState {
            check,
            reg: GlobalReg::default(),
            budget: ResourceBudget::unlimited(),
        }
    }

    /// Installs one shared fuel/deadline pool across everything this state
    /// drives: operator dispatch, the checking context's solver queries,
    /// and the `ValG` effect-analysis fixpoint. Exhaustion anywhere
    /// degrades to conservative rejection (`Unknown`), never a hang and
    /// never an unsound accept.
    pub fn set_budget(&mut self, budget: ResourceBudget) {
        self.check.set_budget(budget.clone());
        self.reg.set_budget(budget.clone());
        self.budget = budget;
    }
}

impl Default for SchedState {
    /// State with a fresh, private, cached checking context.
    fn default() -> SchedState {
        SchedState::with_check(SharedCheckCtx::fresh())
    }
}

/// Shared handle to the scheduling state.
pub type StateRef = Arc<Mutex<SchedState>>;

/// A loop approved for parallel execution by [`Procedure::parallelize`].
///
/// Marks are keyed by the loop's iteration-variable symbol (stable
/// across body rewrites that keep the loop; a mark whose loop was
/// rewritten away is inert). Code generation consumes these via
/// `CodegenCtx::parallel` to emit `#pragma omp parallel for`.
#[derive(Clone, PartialEq, Debug)]
pub struct ParallelMark {
    /// Iteration variable of the approved loop.
    pub iter: Sym,
    /// Buffers needing an OpenMP `reduction(+:…)` clause (empty for a
    /// fully parallel loop).
    pub reductions: Vec<Sym>,
}

/// A schedulable procedure with provenance.
#[derive(Clone, Debug)]
pub struct Procedure {
    proc: Arc<Proc>,
    /// The original procedure this one was scheduled from: the one
    /// equivalence record. Two handles with the same root are equivalent
    /// modulo the union of their pollution sets (§3.3, §6.2).
    root: Arc<Proc>,
    state: StateRef,
    /// Configuration fields modulo which this procedure is equivalent to
    /// its root.
    polluted: BTreeSet<(Sym, Sym)>,
    /// Schedule provenance: one event per applied rewrite, shared with
    /// the handles this one was derived from.
    transcript: Transcript,
    /// Loops approved for parallel execution, in approval order.
    parallel: Vec<ParallelMark>,
}

impl Procedure {
    /// Wraps a procedure as the root of a new schedule on a state of its
    /// own ([`SchedState::default`]).
    pub fn new(proc: Arc<Proc>) -> Procedure {
        Procedure::with_state(proc, Arc::new(Mutex::new(SchedState::default())))
    }

    /// Wraps a procedure sharing existing scheduling state (so solver
    /// caches and canonical global names are reused).
    pub fn with_state(proc: Arc<Proc>, state: StateRef) -> Procedure {
        Procedure {
            root: Arc::clone(&proc),
            proc,
            state,
            polluted: BTreeSet::new(),
            transcript: Transcript::default(),
            parallel: Vec::new(),
        }
    }

    /// The underlying IR.
    pub fn proc(&self) -> &Arc<Proc> {
        &self.proc
    }

    /// The procedure body.
    pub fn body(&self) -> &Block {
        &self.proc.body
    }

    /// The shared scheduling state.
    pub fn state(&self) -> &StateRef {
        &self.state
    }

    /// Installs a fuel/deadline budget on the shared scheduling state (see
    /// [`SchedState::set_budget`]). Affects every procedure sharing the
    /// state, from the next operator onward.
    pub fn set_budget(&self, budget: ResourceBudget) {
        lock_state(&self.state).set_budget(budget);
    }

    /// Number of scheduling directives applied since the root: one per
    /// operator call in the transcript (the "Sched." column of paper
    /// Fig. 7).
    pub fn directives(&self) -> usize {
        self.transcript.events().len()
    }

    /// The schedule transcript: one [`ProvenanceEvent`] per rewrite
    /// applied since the root, in application order.
    pub fn transcript(&self) -> Vec<&ProvenanceEvent> {
        self.transcript.events()
    }

    /// The transcript rendered as an indented human-readable listing.
    pub fn transcript_text(&self) -> String {
        render_transcript(&self.proc.name.name(), &self.transcript())
    }

    /// Loops approved for parallel execution by
    /// [`Procedure::parallelize`], in approval order. Feed these into
    /// `exo_codegen::CodegenCtx::parallel` (keyed by iteration-variable
    /// symbol) to emit `#pragma omp parallel for`.
    pub fn parallel_marks(&self) -> &[ParallelMark] {
        &self.parallel
    }

    /// Configuration fields modulo which this procedure is equivalent to
    /// the procedure it was derived from.
    pub fn polluted(&self) -> &BTreeSet<(Sym, Sym)> {
        &self.polluted
    }

    /// The original (root) procedure this handle was scheduled from.
    pub fn root(&self) -> &Arc<Proc> {
        &self.root
    }

    /// Whether this procedure's scheduling root is the given procedure.
    pub(crate) fn root_is(&self, other: &Arc<Proc>) -> bool {
        Arc::ptr_eq(&self.root, other)
    }

    /// Looks up the symbol of the first loop iterator with the given
    /// spelling (useful for building window expressions after splits).
    ///
    /// # Errors
    ///
    /// Fails if no loop iterates over `name`.
    pub fn iter_sym(&self, name: &str) -> Result<Sym, SchedError> {
        let mut found = None;
        exo_core::visit::visit_stmts(self.body(), &mut |s| {
            if let Stmt::For { iter, .. } = s {
                if iter.name() == name && found.is_none() {
                    found = Some(*iter);
                }
            }
        });
        found.ok_or_else(|| SchedError::new(format!("no loop iterates over `{name}`")))
    }

    /// Pretty-prints the procedure.
    pub fn show(&self) -> String {
        exo_core::printer::proc_to_string(&self.proc)
    }

    // ------------------------------------------------------------------
    // internals used by the operator modules
    // ------------------------------------------------------------------

    pub(crate) fn find(&self, pattern: &Pattern) -> Result<StmtPath, SchedError> {
        let pat = pattern.parsed().map_err(|e| {
            SchedError::new(e.message.clone())
                .with_pattern(pattern)
                .with_source(e)
        })?;
        pat.find(&self.proc.body).map_err(|e| {
            SchedError::new(e.message.clone())
                .with_pattern(pattern)
                .with_source(e)
        })
    }

    pub(crate) fn stmt(&self, path: &StmtPath) -> Result<&Stmt, SchedError> {
        stmt_at(&self.proc.body, path)
            .ok_or_else(|| SchedError::new(format!("invalid statement path {path}")))
    }

    /// Splices new statements in place of the one at `path`, producing a
    /// derived procedure (same pollution).
    pub(crate) fn splice(
        &self,
        path: &StmtPath,
        f: &mut dyn FnMut(&Stmt) -> Vec<Stmt>,
    ) -> Result<Procedure, SchedError> {
        let body = replace_at(&self.proc.body, path, f)
            .ok_or_else(|| SchedError::new(format!("invalid statement path {path}")))?;
        Ok(self.with_body(body))
    }

    /// Derives a procedure with a new body. The signature is copied field
    /// by field; the old body is not.
    pub(crate) fn with_body(&self, body: Block) -> Procedure {
        self.with_proc(self.proc.args.clone(), body)
    }

    /// Derives a procedure with new arguments and body (signature-level
    /// rewrites such as `set_arg_precision` change the arguments); the
    /// name, preconditions and instruction template carry over.
    pub(crate) fn with_proc(&self, args: Vec<FnArg>, body: Block) -> Procedure {
        let proc = Proc {
            name: self.proc.name,
            args,
            preds: self.proc.preds.clone(),
            body,
            instr: self.proc.instr.clone(),
        };
        Procedure {
            proc: Arc::new(proc),
            root: Arc::clone(&self.root),
            state: Arc::clone(&self.state),
            polluted: self.polluted.clone(),
            transcript: self.transcript.clone(),
            parallel: self.parallel.clone(),
        }
    }

    /// Derives a procedure with one more parallel-approval mark (same
    /// body).
    pub(crate) fn with_parallel(&self, mark: ParallelMark) -> Procedure {
        let mut derived = Procedure {
            proc: Arc::clone(&self.proc),
            root: Arc::clone(&self.root),
            state: Arc::clone(&self.state),
            polluted: self.polluted.clone(),
            transcript: self.transcript.clone(),
            parallel: self.parallel.clone(),
        };
        derived.parallel.retain(|m| m.iter != mark.iter);
        derived.parallel.push(mark);
        derived
    }

    /// Runs one scheduling operator under provenance instrumentation.
    ///
    /// The operator's `sched.<op>` span is the one record of each call:
    /// it times `f`, and carries the target, the verdict (and a
    /// rejection's reason) and the `CheckStats` query and cache-hit
    /// deltas as `checks` and `hits`, for accepted and rejected calls
    /// alike. On success the `(op, target)` event is appended to the
    /// derived procedure's transcript; a rejected rewrite leaves the
    /// procedure unchanged. Every public operator routes through here.
    pub(crate) fn instrumented(
        &self,
        op: &'static str,
        target: impl Into<String>,
        f: impl FnOnce() -> Result<Procedure, SchedError>,
    ) -> Result<Procedure, SchedError> {
        let target = target.into();
        let (pre_check, budget) = {
            let st = lock_state(&self.state);
            (st.check.stats(), st.budget.clone())
        };
        // Attribution: the operator's span parents every span it causes
        // downstream — solver queries, effect extraction, lint probes,
        // simulated runs — so the trace tree names the operator and its
        // target for each of them.
        let mut span = exo_obs::Span::enter(format!("sched.{op}"))
            .with_field("target", exo_obs::Json::Str(target.clone()));
        // One fuel unit per operator; an exhausted budget rejects the
        // rewrite up front (conservative, transactional) instead of
        // starting work it cannot finish.
        let result = if let Err(e) = budget.charge(1) {
            Err(SchedError::new(format!("schedule budget exhausted: {e}")).with_source(e))
        } else {
            // Residual internal panics must not cross the library boundary:
            // catch them here and surface a typed `SchedError` naming the
            // operator and target. `self` is untouched (operators derive new
            // `Procedure`s from persistent `Arc`s), and `SchedState` holds
            // only monotonic caches, so unwinding mid-operator leaves every
            // pre-rewrite handle fully usable — the chain is transactional.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
                let msg = Self::panic_message(payload.as_ref());
                Err(SchedError::new(format!("internal panic: {msg}")))
            })
        };
        let post_check = lock_state(&self.state).check.stats();
        let delta = |post: usize, pre: usize| exo_obs::Json::uint(post.saturating_sub(pre) as u64);
        span.field("checks", delta(post_check.queries, pre_check.queries));
        span.field("hits", delta(post_check.hits, pre_check.hits));
        let result = result.map_err(|e| e.in_op(op, &target));
        match &result {
            Ok(_) => span.field("verdict", exo_obs::Json::Str("accepted".into())),
            Err(e) => {
                span.field("verdict", exo_obs::Json::Str("rejected".into()));
                span.field("reason", exo_obs::Json::Str(e.message.clone()));
            }
        }
        drop(span);
        let mut derived = result?;
        derived.transcript.push(ProvenanceEvent { op, target });
        Ok(derived)
    }

    /// Best-effort rendering of a caught panic payload (`panic!` with a
    /// string literal or format string covers essentially all of std).
    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    }

    /// Records additional pollution on a derived procedure.
    pub(crate) fn pollute(mut self, fields: impl IntoIterator<Item = (Sym, Sym)>) -> Procedure {
        self.polluted.extend(fields);
        self
    }

    /// Runs `f` on the scheduling state's registry and checking context,
    /// holding the state's lock throughout (lock order `SchedState →
    /// SharedCheckCtx`).
    pub(crate) fn analysis<T>(&self, f: impl FnOnce(&mut GlobalReg, &SharedCheckCtx) -> T) -> T {
        let mut guard = lock_state(&self.state);
        let st = &mut *guard;
        f(&mut st.reg, &st.check)
    }

    /// Runs `f` on the [`SiteQuery`] at `path`.
    pub(crate) fn query<T>(
        &self,
        path: &StmtPath,
        f: impl FnOnce(&mut SiteQuery<'_>) -> Result<T, SchedError>,
    ) -> Result<T, SchedError> {
        self.analysis(|reg, check| {
            let mut q = SiteQuery::new(&self.proc, path, reg, check)
                .ok_or_else(|| SchedError::new(format!("invalid statement path {path}")))?;
            f(&mut q)
        })
    }

    /// Proves the goal `f` poses at `path` valid under the site's
    /// hypothesis; fails safe on `Unknown`.
    pub(crate) fn prove(
        &self,
        path: &StmtPath,
        what: &'static str,
        f: impl FnOnce(&mut SiteQuery<'_>) -> Formula,
    ) -> Result<(), SchedError> {
        self.query(path, |q| {
            let goal = f(q);
            require(q.valid(goal), what)
        })
    }
}

/// Accepts a `Yes`; fails safe on `No` and `Unknown`.
pub(crate) fn require(answer: Answer, what: &str) -> Result<(), SchedError> {
    match answer {
        Answer::Yes => Ok(()),
        Answer::No => serr(format!("{what}: safety condition refuted")),
        Answer::Unknown => serr(format!("{what}: solver gave up (failing safe)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::build::ProcBuilder;
    use exo_core::ir::Expr;
    use exo_core::types::DataType;

    fn simple() -> Procedure {
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
        let i = b.begin_for("i", Expr::int(0), Expr::int(8));
        b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
        b.end_for();
        Procedure::new(b.finish())
    }

    #[test]
    fn find_and_stmt() {
        let p = simple();
        let path = p.find(&Pattern::from("for i in _: _")).unwrap();
        assert!(matches!(p.stmt(&path).unwrap(), Stmt::For { .. }));
        assert!(p.find(&Pattern::from("for z in _: _")).is_err());
    }

    #[test]
    fn splice_derives_new_procedure() {
        let p = simple();
        let path = p.find(&Pattern::from("A[_] = _")).unwrap();
        let q = p
            .splice(&path, &mut |s| vec![s.clone(), Stmt::Pass])
            .unwrap();
        // a splice is one step of an operator, not a directive of its own
        assert_eq!(q.directives(), 0);
        assert!(q.root_is(p.proc()));
        // original unchanged
        let orig_for = p.find(&Pattern::from("for i in _: _")).unwrap();
        match p.stmt(&orig_for).unwrap() {
            Stmt::For { body, .. } => assert_eq!(body.len(), 1),
            other => panic!("original `for i` should survive the splice unchanged, got {other:?}"),
        }
    }

    #[test]
    fn transcript_records_applied_rewrites_only() {
        let p = simple();
        assert!(p.transcript().is_empty());
        let q = p.split("for i in _: _", 4, "io", "ii").unwrap();
        assert_eq!(q.transcript().len(), 1);
        let e = &q.transcript()[0];
        assert_eq!(
            (e.op, e.target.as_str()),
            ("split", "for i in _: _, 4, io, ii")
        );
        // a rejected rewrite leaves the source transcript untouched
        assert!(q.split("for z in _: _", 4, "a", "b").is_err());
        assert_eq!(q.transcript().len(), 1);
        // chained rewrites accumulate in order
        let r = q.reorder("for io in _: _", "ii").unwrap();
        let ops: Vec<&str> = r.transcript().iter().map(|e| e.op).collect();
        assert_eq!(ops, ["split", "reorder"]);
        assert_eq!(r.directives(), 2);
        assert_eq!(
            r.transcript_text(),
            "schedule transcript for `p` (2 directives)\n  \
             1. split(for i in _: _, 4, io, ii)\n  \
             2. reorder(for io in _: _, ii)\n"
        );
        // the original handle is untouched
        assert!(p.transcript().is_empty());
    }

    #[test]
    fn children_share_their_parents_transcript() {
        let parent = simple().split("for i in _: _", 4, "io", "ii").unwrap();
        let before: Vec<ProvenanceEvent> = parent.transcript().into_iter().cloned().collect();
        let reordered = parent.reorder("for io in _: _", "ii").unwrap();
        let unrolled = parent.unroll("for ii in _: _").unwrap();
        for (child, op) in [(&reordered, "reorder"), (&unrolled, "unroll")] {
            let events = child.transcript();
            assert_eq!(events.len(), before.len() + 1);
            // the parent's events themselves, not copies of them
            for (shared, own) in events.iter().zip(parent.transcript()) {
                assert!(std::ptr::eq(*shared, own));
            }
            assert_eq!(events[before.len()].op, op);
        }
        let after: Vec<ProvenanceEvent> = parent.transcript().into_iter().cloned().collect();
        assert_eq!(after, before);
    }

    #[test]
    fn rejection_is_recorded_on_the_operator_span() {
        let p = simple();
        // 3 does not divide 8: the split is refused by a check
        let err = p
            .split("for i in _: _", 3, "zz_span_test", "b")
            .unwrap_err();
        let traces = exo_obs::Registry::global().traces();
        let span = traces
            .iter()
            .rev()
            .find(|t| {
                t.name == "sched.split"
                    && t.fields.iter().any(|(k, v)| {
                        k == "target" && v.as_str().is_some_and(|s| s.contains("zz_span_test"))
                    })
            })
            .expect("rejected split recorded its span");
        let field = |key: &str| span.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        assert_eq!(
            field("verdict").and_then(exo_obs::Json::as_str),
            Some("rejected")
        );
        assert_eq!(
            field("reason").and_then(exo_obs::Json::as_str),
            Some(err.message.as_str())
        );
        // the refused call's checking work is on its span: the state is
        // fresh, so the span's deltas are the state's totals
        let stats = lock_state(&p.state).check.stats();
        assert!(stats.queries > 0, "the split posed no check");
        let count = |key: &str| field(key).and_then(exo_obs::Json::as_int);
        assert_eq!(count("checks"), Some(stats.queries as i64));
        assert_eq!(count("hits"), Some(stats.hits as i64));
    }

    #[test]
    fn solver_spans_descend_from_their_operator_span() {
        // A[2·i + j] with j ∈ [0, 2): the dependence test leaves this
        // reorder to the solver, which proves it
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(16)]);
        let i = b.begin_for("i", Expr::int(0), Expr::int(8));
        let j = b.begin_for("j", Expr::int(0), Expr::int(2));
        let idx = Expr::int(2).mul(Expr::var(i)).add(Expr::var(j));
        b.assign(a, vec![idx], Expr::float(0.0));
        b.end_for();
        b.end_for();
        let state = Arc::new(Mutex::new(SchedState::default()));
        let p = Procedure::with_state(b.finish(), state);
        p.reorder("for i in _: _", "j").unwrap();

        let tid = exo_obs::span::current_tid();
        let traces: Vec<_> = exo_obs::Registry::global()
            .traces()
            .into_iter()
            .filter(|t| t.tid == tid)
            .collect();
        let reorder = traces
            .iter()
            .rev()
            .find(|t| t.name == "sched.reorder")
            .expect("the reorder recorded its span");
        // spans open after their parents, so the call's descendants
        // have larger ids than its span
        let decides: Vec<_> = traces
            .iter()
            .filter(|t| t.name == "smt.decide" && t.id > reorder.id)
            .collect();
        assert!(
            !decides.is_empty(),
            "a fresh state sends reorder's goal to the solver"
        );
        let parent_of = |id: u64| traces.iter().find(|t| t.id == id).and_then(|t| t.parent);
        for d in decides {
            let mut cursor = d.parent;
            while cursor.is_some_and(|id| id != reorder.id) {
                cursor = cursor.and_then(parent_of);
            }
            assert_eq!(
                cursor,
                Some(reorder.id),
                "{d:?} does not descend from the reorder"
            );
        }
    }
}
