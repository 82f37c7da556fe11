//! The reference interpreter.
//!
//! Executes procedures against a store (paper §4.1): buffers live in an
//! arena, control values and views in frames, and configuration state in
//! a map on the machine. The interpreter is the oracle for scheduling
//! correctness — a schedule is validated by running the original and
//! rewritten procedures on the same inputs and comparing output stores —
//! and the source of [`HwOp`] traces for the simulators.
//!
//! Each [`Machine::run`] first lowers the procedure and its callees into
//! the typed form of the crate's `lower` module, then executes that form.
//! An integer node yields an `i64` directly, and a loop iterator is an
//! `i64` in the frame beside the slots of formals and views. A view is a
//! buffer, a base offset and a `(len, stride)` per axis, inline in the
//! [`TensorRef`] layout, so an element access is per-axis bounds checks
//! plus `base + Σ i·stride` in one loop, a window or a call argument
//! allocates nothing, and a traced tensor argument is a copy of its
//! view. A traced `@instr` call whose body is skipped binds its
//! arguments straight into its trace event, without a frame. An `Alloc`
//! that runs again in a frame hands the storage of the buffer it made
//! last, which is out of scope, to the new buffer, which starts all-⊥.
//! The configuration fields a run names are a table indexed by the
//! lowered form, read from the machine's map before the run and written
//! back after it.
//!
//! Under the unlimited budget, with no chaos plan armed, a loop that
//! lowering marked (a body of one store, its right-hand side a literal,
//! a read or one operator over them, every index affine) runs as one
//! fused element loop in iteration order, without the general loop's
//! per-iteration checks. It does so only when its coordinates lie in
//! their views at both ends and every element it reads is initialized;
//! then the result, the step count and the stores are those of the
//! general loop, which runs otherwise (`Exec::sweep`).

use std::fmt;
use std::slice;
use std::sync::OnceLock;

use exo_core::budget::ResourceBudget;
use exo_core::hash::HashMap;
use exo_core::ir::{ArgType, BinOp, Proc};
use exo_core::types::{DataType, MemName};
use exo_core::Sym;

use crate::lower::{
    lower, Access, BExpr, Builtin, CExpr, CallArg, CmpOp, DExpr, Fused, FusedOp, IExpr, IntOp,
    LProc, LStmt, VExpr, Var, WCoord,
};
use crate::trace::{HwOp, Instr, TensorRef, Trace, TraceArg, TraceArgs, INLINE_AXES};
use crate::value::{at, cast, BufId, BufferData, CtrlVal};

/// A runtime error (out-of-bounds access, failed assertion, read of
/// uninitialized data or configuration, …).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InterpError {
    /// Human-readable description.
    pub message: String,
    /// `true` when execution stopped because the machine's
    /// [`ResourceBudget`] ran out (fuel or deadline), as opposed to a
    /// semantic error in the program.
    pub budget_exhausted: bool,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for InterpError {}

fn err<T>(message: impl Into<String>) -> Result<T, InterpError> {
    Err(InterpError {
        message: message.into(),
        budget_exhausted: false,
    })
}

/// The result of executing a lowered node: the error is boxed, so a
/// value comes back in registers.
type Res<T> = Result<T, Box<InterpError>>;

#[cold]
fn fail<T>(message: impl Into<String>) -> Res<T> {
    Err(Box::new(InterpError {
        message: message.into(),
        budget_exhausted: false,
    }))
}

/// An argument passed to [`Machine::run`].
#[derive(Clone, Debug)]
pub enum ArgVal {
    /// Integer control argument.
    Int(i64),
    /// Boolean control argument.
    Bool(bool),
    /// A tensor created with [`Machine::alloc_extern`].
    Tensor(BufId),
}

/// The value of one slot in a frame.
#[derive(Clone, Debug)]
enum Slot {
    /// Not bound: a formal with no actual argument.
    Unset,
    Ctrl(CtrlVal),
    View(View),
}

/// `(len, stride)` per retained axis of a view, outermost first. Up to
/// [`INLINE_AXES`] axes whose lengths and strides fit in 32 bits are
/// inline, in the layout a [`TensorRef`] keeps them (the lengths, then
/// the strides), so that recording the view copies them; any other list
/// is on the heap.
#[derive(Clone, Debug)]
enum Dims {
    Inline(u8, [u32; 2 * INLINE_AXES]),
    Heap(Vec<(usize, usize)>),
}

impl Dims {
    const EMPTY: Dims = Dims::Inline(0, [0; 2 * INLINE_AXES]);

    fn push(&mut self, axis: (usize, usize)) {
        if let Dims::Inline(rank, axes) = self {
            let d = usize::from(*rank);
            if let (true, Ok(len), Ok(stride)) = (
                d < INLINE_AXES,
                u32::try_from(axis.0),
                u32::try_from(axis.1),
            ) {
                (axes[d], axes[INLINE_AXES + d]) = (len, stride);
                *rank += 1;
                return;
            }
            *self = Dims::Heap(self.iter().collect());
        }
        if let Dims::Heap(axes) = self {
            axes.push(axis);
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Dims::Inline(rank, _) => usize::from(*rank),
            Dims::Heap(axes) => axes.len(),
        }
    }

    /// Axis `d`.
    #[inline]
    fn get(&self, d: usize) -> Option<(usize, usize)> {
        match self {
            Dims::Inline(rank, axes) if d < usize::from(*rank) => {
                Some((axes[d] as usize, axes[INLINE_AXES + d] as usize))
            }
            Dims::Inline(..) => None,
            Dims::Heap(axes) => axes.get(d).copied(),
        }
    }

    #[inline]
    fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.len()).map_while(|d| self.get(d))
    }
}

/// A view of a buffer in the [`TensorRef`] layout: window coordinate
/// `i` (with `i[d] < dims[d].0`) addresses element
/// `base + Σ i[d]·dims[d].1` of `buf`.
#[derive(Clone, Debug)]
struct View {
    buf: BufId,
    base: usize,
    dims: Dims,
}

impl View {
    /// The identity view of a row-major buffer.
    fn whole(buf: BufId, shape: &[usize]) -> View {
        let mut view = View::point(buf, 0);
        for (d, &len) in shape.iter().enumerate() {
            let stride = shape[d + 1..]
                .iter()
                .fold(1, |s: usize, &n| s.saturating_mul(n));
            view.dims.push((len, stride));
        }
        view
    }

    /// The rank-0 view of element `base` of `buf`.
    fn point(buf: BufId, base: usize) -> View {
        View {
            buf,
            base,
            dims: Dims::EMPTY,
        }
    }
}

/// Where an element access lands.
enum Located {
    At(BufId, usize),
    Unknown,
    OutOfBounds,
}

/// Interpreter state: buffer arena, configuration store, trace.
#[derive(Debug, Default)]
pub struct Machine {
    bufs: Vec<BufferData>,
    configs: HashMap<(Sym, Sym), CtrlVal>,
    trace: Trace,
    /// When `false`, calls to `@instr` procedures record a trace event
    /// but skip executing the semantic body (fast timing-only runs).
    pub execute_instr_bodies: bool,
    /// Executed leaf-statement counter.
    steps: u64,
    /// Fuel/deadline pool the step loop draws from (unlimited by default).
    budget: ResourceBudget,
}

impl Machine {
    /// Creates an empty machine.
    pub fn new() -> Machine {
        Machine {
            bufs: Vec::new(),
            configs: HashMap::default(),
            trace: Trace::new(),
            execute_instr_bodies: true,
            steps: 0,
            budget: ResourceBudget::unlimited(),
        }
    }

    /// Installs the fuel/deadline pool the step loop draws from. Each
    /// executed statement charges one unit; exhaustion stops the run with a
    /// typed budget error (`InterpError::budget_exhausted`) instead of
    /// letting a runaway loop hang the host.
    pub fn set_budget(&mut self, budget: ResourceBudget) {
        self.budget = budget;
    }

    /// The budget the step loop draws from.
    pub fn budget(&self) -> &ResourceBudget {
        &self.budget
    }

    /// Allocates an external buffer initialized with `data` (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape volume.
    pub fn alloc_extern(
        &mut self,
        name: &str,
        dtype: DataType,
        shape: &[usize],
        data: &[f64],
    ) -> BufId {
        let volume = shape.iter().product::<usize>();
        assert_eq!(data.len(), volume, "data length must match shape volume");
        let buf =
            BufferData::with_values(Sym::new(name), dtype, shape.to_vec(), MemName::dram(), data);
        let id = BufId(self.bufs.len());
        self.bufs.push(buf);
        id
    }

    /// Allocates an external uninitialized buffer.
    pub fn alloc_extern_uninit(&mut self, name: &str, dtype: DataType, shape: &[usize]) -> BufId {
        let buf = BufferData::new(Sym::new(name), dtype, shape.to_vec(), MemName::dram());
        let id = BufId(self.bufs.len());
        self.bufs.push(buf);
        id
    }

    /// A buffer's shape, type and contents ([`BufferData::values`]
    /// yields uninitialized elements as `None`).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not allocated on this machine.
    pub fn buffer(&self, id: BufId) -> &BufferData {
        &self.bufs[id.0]
    }

    /// Every buffer on this machine, external ones and the allocations of
    /// its runs alike; buffer `id` is element `id.0`. Each executed
    /// `Alloc` adds one buffer. When an `Alloc` runs again in the same
    /// frame, the buffer it made last is out of scope, and the new buffer
    /// takes over its storage: the dead one keeps its name, type and
    /// memory but reads as a never-written scalar (one ⊥ element).
    pub fn buffers(&self) -> &[BufferData] {
        &self.bufs
    }

    /// Reads back a buffer as a dense `f64` vector.
    ///
    /// # Errors
    ///
    /// Fails if `id` is not a buffer of this machine or any element is
    /// uninitialized.
    pub fn buffer_values(&self, id: BufId) -> Result<Vec<f64>, InterpError> {
        self.extern_buf(id)?
            .values()
            .map(|v| {
                v.ok_or_else(|| InterpError {
                    message: "uninitialized element".into(),
                    budget_exhausted: false,
                })
            })
            .collect()
    }

    /// The hardware-instruction trace recorded so far.
    pub fn trace(&self) -> &[HwOp] {
        &self.trace
    }

    /// Takes ownership of the trace, clearing it.
    pub fn take_trace(&mut self) -> Vec<HwOp> {
        std::mem::take(&mut self.trace.0)
    }

    /// Reads a configuration field (for tests/inspection).
    pub fn config(&self, config: Sym, field: Sym) -> Option<CtrlVal> {
        self.configs.get(&(config, field)).copied()
    }

    /// Total leaf statements executed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The buffer a caller-supplied `id` names.
    fn extern_buf(&self, id: BufId) -> Result<&BufferData, InterpError> {
        match self.bufs.get(id.0) {
            Some(buf) => Ok(buf),
            None => err(format!("buffer {} was not allocated on this machine", id.0)),
        }
    }

    /// Runs a procedure with the given arguments.
    ///
    /// # Errors
    ///
    /// Fails on argument mismatch, a tensor argument not allocated on this
    /// machine, failed assertions, out-of-bounds accesses, or reads of
    /// uninitialized data/configuration.
    pub fn run(&mut self, proc: &Proc, args: &[ArgVal]) -> Result<(), InterpError> {
        if args.len() != proc.args.len() {
            return err(format!(
                "procedure {} expects {} arguments, got {}",
                proc.name,
                proc.args.len(),
                args.len()
            ));
        }
        let _span = exo_obs::Span::enter("interp.run");
        let lowered = lower(proc);
        let mut exec = Exec {
            configs: lowered
                .configs
                .iter()
                .map(|&key| (key, self.configs.get(&key).copied()))
                .collect(),
            m: self,
            procs: &lowered.procs,
            slots: Vec::new(),
            base: 0,
            iters: Vec::new(),
            ibase: 0,
        };
        let result = exec.run_root(args);
        for (key, value) in exec.configs {
            if let Some(value) = value {
                self.configs.insert(key, value);
            }
        }
        result.map_err(|e| *e)
    }
}

/// One run's execution state: the machine, the lowered procedures, the
/// frame stacks (the running procedure's slots start at `base`, its loop
/// iterators at `ibase`) and the configuration fields the run names.
struct Exec<'a, 'p> {
    m: &'a mut Machine,
    procs: &'a [LProc<'p>],
    slots: Vec<Slot>,
    base: usize,
    iters: Vec<i64>,
    ibase: usize,
    /// Each named field, `(config, field)`, and its value, `None` while
    /// unset.
    configs: Vec<((Sym, Sym), Option<CtrlVal>)>,
}

impl<'a, 'p> Exec<'a, 'p> {
    fn run_root(&mut self, args: &[ArgVal]) -> Res<()> {
        let procs = self.procs;
        let Some(root) = procs.last() else {
            return Ok(());
        };
        self.slots.resize(root.slots, Slot::Unset);
        self.iters.resize(root.iters, 0);
        for (i, (formal, actual)) in root.src.args.iter().zip(args).enumerate() {
            self.slots[i] = match (&formal.ty, actual) {
                (ArgType::Ctrl(_), ArgVal::Int(v)) => Slot::Ctrl(CtrlVal::Int(*v)),
                (ArgType::Ctrl(_), ArgVal::Bool(v)) => Slot::Ctrl(CtrlVal::Bool(*v)),
                (ArgType::Tensor { .. } | ArgType::Scalar { .. }, ArgVal::Tensor(id)) => {
                    Slot::View(View::whole(*id, &self.m.extern_buf(*id)?.shape))
                }
                _ => {
                    return fail(format!(
                        "argument kind mismatch for parameter {}",
                        formal.name
                    ))
                }
            };
        }
        self.enter(root)
    }

    /// Runs `p` in the current frame, whose formals are bound.
    fn enter(&mut self, p: &LProc<'p>) -> Res<()> {
        // running an instruction directly still records a trace event
        if let Some(instr) = p.instr {
            if !self.record_instr(instr) {
                return Ok(());
            }
        }
        self.check_shapes_and_preds(p)?;
        self.exec_block(&p.body)
    }

    /// The view in `v`'s slot, if it holds one.
    #[inline]
    fn view(&self, v: Var) -> Option<&View> {
        match v.slot.map(|s| &self.slots[self.base + s]) {
            Some(Slot::View(w)) => Some(w),
            _ => None,
        }
    }

    /// The control value in `v`'s slot.
    fn ctrl_slot(&self, v: Var) -> Res<CtrlVal> {
        match v.slot.map(|s| &self.slots[self.base + s]) {
            Some(Slot::Ctrl(c)) => Ok(*c),
            Some(Slot::View(_)) => fail(format!("{} is a buffer, not a control value", v.sym)),
            Some(Slot::Unset) | None => fail(format!("unbound control variable {}", v.sym)),
        }
    }

    /// The value of configuration field `c`.
    fn config(&self, c: usize) -> Res<CtrlVal> {
        match self.configs[c] {
            (_, Some(v)) => Ok(v),
            ((config, field), None) => fail(format!(
                "read of unset configuration {}.{}",
                config.name(),
                field.name()
            )),
        }
    }

    /// Records a call of the `@instr` procedure `instr`, whose formals
    /// are bound in the current frame, as one trace event (unbound
    /// formals are left out). Returns whether the instruction's body
    /// should run.
    fn record_instr(&mut self, instr: Instr) -> bool {
        let frame = &self.slots[self.base..];
        let trace = &mut self.m.trace;
        // bound in place: the event's arguments are copied once
        trace.push(HwOp {
            instr,
            args: TraceArgs::new(instr.arity()),
        });
        let at = trace.len() - 1;
        for (i, slot) in frame.iter().take(instr.arity()).enumerate() {
            let ta = match slot {
                Slot::Ctrl(CtrlVal::Int(v)) => TraceArg::Int(*v),
                Slot::Ctrl(CtrlVal::Bool(v)) => TraceArg::Bool(*v),
                Slot::View(w) => TraceArg::Tensor(tensor_ref(&self.m.bufs, w)),
                Slot::Unset => continue,
            };
            trace.0[at].args.set(i, ta);
        }
        self.m.execute_instr_bodies
    }

    fn check_shapes_and_preds(&self, p: &LProc<'p>) -> Res<()> {
        let frame = &self.slots[self.base..];
        for ((formal, shape), slot) in p.src.args.iter().zip(&p.shapes).zip(frame) {
            let Some(shape) = shape else {
                continue;
            };
            let Slot::View(view) = slot else {
                return fail(format!("missing tensor argument {}", formal.name));
            };
            if shape.len() != view.dims.len() {
                return fail(format!(
                    "rank mismatch for {}: declared {}, got {}",
                    formal.name,
                    shape.len(),
                    view.dims.len()
                ));
            }
            for (decl, (real, _)) in shape.iter().zip(view.dims.iter()) {
                let want = self.int(decl)?;
                if want != real as i64 {
                    return fail(format!(
                        "extent mismatch for {}: declared {want}, got {real}",
                        formal.name
                    ));
                }
            }
        }
        for (pred, src) in p.preds.iter().zip(&p.src.preds) {
            if !self.boolean(pred)? {
                return fail(format!(
                    "assertion failed in {}: {}",
                    p.src.name,
                    exo_core::printer::expr_to_string(src)
                ));
            }
        }
        Ok(())
    }

    /// Runs a block. Each statement is one step; stores, the statements
    /// the kernels run most, are handled inline.
    #[inline(always)]
    fn exec_block(&mut self, block: &[LStmt]) -> Res<()> {
        for s in block {
            self.step()?;
            match s {
                LStmt::Store { dst, rhs, reduce } => {
                    let v = self.data(rhs)?;
                    self.store(dst, v, *reduce)?;
                }
                _ => self.exec_stmt(s)?,
            }
        }
        Ok(())
    }

    /// Counts one step and charges it to the budget. One fuel unit per
    /// executed statement; the chaos `interp-fuel` fault pretends the
    /// pool just ran dry. Either way the run stops with a typed budget
    /// error — a mis-scheduled kernel can make the interpreter slow, but
    /// never make it hang.
    #[inline(always)]
    fn step(&mut self) -> Res<()> {
        self.m.steps += 1;
        if let Err(e) = self.m.budget.charge(1) {
            return self.budget_stop(&e);
        }
        if exo_chaos::should_inject(exo_chaos::FaultSite::InterpFuel) {
            return self.budget_stop(&"fuel budget exhausted (chaos)");
        }
        Ok(())
    }

    #[cold]
    fn budget_stop(&self, why: &dyn fmt::Display) -> Res<()> {
        Err(Box::new(InterpError {
            message: format!("interpreter stopped after {} steps: {why}", self.m.steps),
            budget_exhausted: true,
        }))
    }

    /// Runs a statement other than a store, whose step is counted.
    fn exec_stmt(&mut self, s: &LStmt) -> Res<()> {
        match s {
            LStmt::Pass => Ok(()),
            LStmt::Store { dst, rhs, reduce } => {
                let v = self.data(rhs)?;
                self.store(dst, v, *reduce)
            }
            LStmt::WriteConfig { config, rhs } => {
                self.configs[*config].1 = Some(self.ctrl(rhs)?);
                Ok(())
            }
            LStmt::If { cond, body, orelse } => {
                if self.boolean(cond)? {
                    self.exec_block(body)
                } else {
                    self.exec_block(orelse)
                }
            }
            LStmt::For {
                iter,
                lo,
                hi,
                body,
                sweep,
            } => {
                let lo = self.int(lo)?;
                let hi = self.int(hi)?;
                let slot = self.ibase + iter;
                if let Some(coefs) = sweep {
                    if lo < hi
                        && self.m.budget.is_unlimited()
                        && !exo_chaos::armed()
                        && self.sweep(slot, lo, hi, body, coefs)
                    {
                        return Ok(());
                    }
                }
                for i in lo..hi {
                    self.iters[slot] = i;
                    self.exec_block(body)?;
                }
                Ok(())
            }
            LStmt::Alloc {
                slot,
                name,
                ty,
                shape,
                mem,
            } => {
                let mut dims = Vec::with_capacity(shape.len());
                for e in shape {
                    let n = self.int(e)?;
                    if n < 0 {
                        return fail(format!("negative extent {n} for allocation {name}"));
                    }
                    dims.push(n as usize);
                }
                let id = BufId(self.m.bufs.len());
                // The buffer this statement allocated last in this frame
                // went out of scope with its block: the new one takes its
                // storage.
                let view = View::whole(id, &dims);
                let buf = match &self.slots[self.base + slot] {
                    Slot::View(dead) => self.m.bufs[dead.buf.0].reallocate(*name, *ty, &dims, *mem),
                    _ => BufferData::new(*name, *ty, dims, *mem),
                };
                self.slots[self.base + slot] = Slot::View(view);
                self.m.bufs.push(buf);
                Ok(())
            }
            LStmt::WindowDef { slot, rhs } => {
                let view = self.eval_view(rhs)?;
                self.slots[self.base + slot] = Slot::View(view);
                Ok(())
            }
            LStmt::Call { callee, args } => self.exec_call(*callee, args),
        }
    }

    /// Binds the callee's formals in a new frame (arguments evaluated in
    /// the caller's), runs it, and pops the frame.
    fn exec_call(&mut self, callee: usize, args: &[CallArg]) -> Res<()> {
        let procs = self.procs;
        let p = &procs[callee];
        if let (Some(instr), false) = (p.instr, self.m.execute_instr_bodies) {
            return self.trace_call(instr, args);
        }
        let (frame, iframe) = (self.slots.len(), self.iters.len());
        for arg in args {
            let slot = match arg {
                CallArg::Ctrl(e) => Slot::Ctrl(self.ctrl(e)?),
                CallArg::View(e) => Slot::View(self.eval_view(e)?),
            };
            self.slots.push(slot);
        }
        self.slots.resize(frame + p.slots, Slot::Unset);
        self.iters.resize(iframe + p.iters, 0);
        let caller = std::mem::replace(&mut self.base, frame);
        let icaller = std::mem::replace(&mut self.ibase, iframe);
        let result = self.enter(p);
        self.base = caller;
        self.ibase = icaller;
        self.slots.truncate(frame);
        self.iters.truncate(iframe);
        result
    }

    /// A call of the `@instr` `instr` whose body is skipped: binds each
    /// argument, evaluated in order in the caller's frame, straight into
    /// its trace event, as [`Exec::record_instr`] would from the frame.
    fn trace_call(&mut self, instr: Instr, args: &[CallArg]) -> Res<()> {
        // the event is bound in place, and taken back if an argument fails
        let at = self.m.trace.len();
        self.m.trace.push(HwOp {
            instr,
            args: TraceArgs::new(instr.arity()),
        });
        let bound = args.iter().enumerate().try_for_each(|(i, arg)| {
            let ta = match arg {
                CallArg::Ctrl(e) => match self.ctrl(e)? {
                    CtrlVal::Int(v) => TraceArg::Int(v),
                    CtrlVal::Bool(v) => TraceArg::Bool(v),
                },
                CallArg::View(e) => {
                    let view = self.eval_view(e)?;
                    TraceArg::Tensor(tensor_ref(&self.m.bufs, &view))
                }
            };
            self.m.trace.0[at].args.set(i, ta);
            Ok(())
        });
        if bound.is_err() {
            self.m.trace.0.truncate(at);
        }
        bound
    }

    #[inline(always)]
    fn store(&mut self, dst: &Access, value: f64, reduce: bool) -> Res<()> {
        if let Some((buf, off)) = self.offset(dst)? {
            let data = &mut self.m.bufs[buf.0];
            let new = match reduce {
                false => Some(value),
                true => data.get(off).flatten().map(|old| old + value),
            };
            if let Some(v) = new {
                if data.set(off, cast(data.dtype, v)) {
                    return Ok(());
                }
            }
        }
        self.store_slow(dst, value, reduce)
    }

    /// [`Exec::store`] where the access is out of the view, the buffer
    /// unknown or the element to reduce into uninitialized: the same
    /// store, one check at a time, failing with the first one that does.
    #[cold]
    fn store_slow(&mut self, dst: &Access, value: f64, reduce: bool) -> Res<()> {
        let (buf, off) = match self.locate(dst)? {
            Located::At(buf, off) => (buf, off),
            Located::Unknown => return fail(format!("store to unknown buffer {}", dst.buf.sym)),
            Located::OutOfBounds => {
                return fail(format!(
                    "out-of-bounds store to {} at {:?}",
                    dst.buf.sym,
                    self.coords(&dst.idx)?
                ))
            }
        };
        let data = &mut self.m.bufs[buf.0];
        let v = match (reduce, data.get(off)) {
            (true, Some(None)) => {
                return fail(format!(
                    "reduction into uninitialized location of {}",
                    dst.buf.sym
                ))
            }
            (true, Some(Some(old))) => old + value,
            _ => value,
        };
        if data.set(off, cast(data.dtype, v)) {
            Ok(())
        } else {
            fail(format!(
                "out-of-bounds store to {} at offset {off}",
                dst.buf.sym
            ))
        }
    }

    /// The buffer and offset of an access that lands inside its view, in
    /// one pass over the axes; `None` when it does not (or a coordinate
    /// is negative), for [`Exec::locate`] to tell why.
    #[inline(always)]
    fn offset(&self, acc: &Access) -> Res<Option<(BufId, usize)>> {
        let Some(view) = self.view(acc.buf) else {
            return Ok(None);
        };
        if view.dims.len() != acc.idx.len() {
            return Ok(None);
        }
        let mut off = view.base;
        for (e, (len, stride)) in acc.idx.iter().zip(view.dims.iter()) {
            // a negative coordinate wraps past every extent
            let c = self.int(e)? as usize;
            if c >= len {
                return Ok(None);
            }
            off += c * stride;
        }
        Ok(Some((view.buf, off)))
    }

    /// Resolves an element access. Every coordinate is evaluated (and
    /// checked non-negative) before the buffer is looked up and the
    /// coordinates are checked against the view.
    fn locate(&self, acc: &Access) -> Res<Located> {
        let view = self.view(acc.buf);
        let dims = view.map_or(&Dims::EMPTY, |v| &v.dims);
        let mut inside = dims.len() == acc.idx.len();
        let mut off = view.map_or(0, |v| v.base);
        for (d, e) in acc.idx.iter().enumerate() {
            let c = self.index(e)?;
            match dims.get(d) {
                Some((len, stride)) if c < len => off += c * stride,
                // a rank mismatch still evaluates every coordinate
                _ => inside = false,
            }
        }
        Ok(match view {
            None => Located::Unknown,
            Some(v) if inside => Located::At(v.buf, off),
            Some(_) => Located::OutOfBounds,
        })
    }

    /// A coordinate: a non-negative integer.
    #[inline]
    fn index(&self, e: &IExpr) -> Res<usize> {
        let v = self.int(e)?;
        if v < 0 {
            fail(format!("negative index {v}"))
        } else {
            Ok(v as usize)
        }
    }

    /// The coordinates of an access, for error messages.
    fn coords(&self, idx: &[IExpr]) -> Res<Vec<usize>> {
        idx.iter().map(|e| self.index(e)).collect()
    }

    /// Evaluates an integer node: literals, loop iterators and an
    /// arithmetic operator over them inline, the rest out of line.
    #[inline(always)]
    fn int(&self, e: &IExpr) -> Res<i64> {
        match e {
            IExpr::Iter(i) => Ok(self.iters[self.ibase + i]),
            IExpr::Int(v) => Ok(*v),
            IExpr::Arith(op, a, b) => {
                let x = self.int_leaf(a)?;
                let y = self.int_leaf(b)?;
                arith(*op, x, y)
            }
            _ => self.int_node(e),
        }
    }

    #[inline(always)]
    fn int_leaf(&self, e: &IExpr) -> Res<i64> {
        match e {
            IExpr::Iter(i) => Ok(self.iters[self.ibase + i]),
            IExpr::Int(v) => Ok(*v),
            _ => self.int_node(e),
        }
    }

    fn int_node(&self, e: &IExpr) -> Res<i64> {
        match e {
            IExpr::Int(_) | IExpr::Iter(_) | IExpr::Arith(..) => self.int(e),
            IExpr::Slot(x) => as_int(self.ctrl_slot(*x)?),
            IExpr::Config(c) => as_int(self.config(*c)?),
            IExpr::Neg(a) => {
                let v = self.int(a)?;
                match v.checked_neg() {
                    Some(n) => Ok(n),
                    None => fail(format!("integer overflow in -({v})")),
                }
            }
            IExpr::Stride(buf, dim) => match self.view(*buf) {
                Some(view) => match view.dims.get(*dim) {
                    Some((_, stride)) => Ok(stride as i64),
                    None => fail(format!(
                        "stride dimension {dim} out of range for {}",
                        buf.sym
                    )),
                },
                None => fail(format!("stride() of unknown buffer {}", buf.sym)),
            },
            IExpr::NotInt(b) => {
                self.boolean(b)?;
                fail("expected integer, got boolean")
            }
            IExpr::Unbound(x) => fail(format!("unbound control variable {x}")),
            IExpr::Float => fail("float literal in control position"),
            IExpr::Data => fail("data expression in control position"),
        }
    }

    /// Evaluates a boolean node.
    fn boolean(&self, e: &BExpr) -> Res<bool> {
        match e {
            BExpr::Bool(v) => Ok(*v),
            BExpr::Slot(x) => as_bool(self.ctrl_slot(*x)?),
            BExpr::Config(c) => as_bool(self.config(*c)?),
            // short-circuit
            BExpr::And(a, b) => Ok(self.boolean(a)? && self.boolean(b)?),
            BExpr::Or(a, b) => Ok(self.boolean(a)? || self.boolean(b)?),
            BExpr::Cmp(op, a, b) => {
                let x = self.int(a)?;
                let y = self.int(b)?;
                Ok(match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                })
            }
            BExpr::NotBool(a) => {
                self.int(a)?;
                fail("expected boolean, got integer")
            }
        }
    }

    /// Evaluates a control value of either kind.
    fn ctrl(&self, e: &CExpr) -> Res<CtrlVal> {
        match e {
            CExpr::Int(i) => Ok(CtrlVal::Int(self.int(i)?)),
            CExpr::Bool(b) => Ok(CtrlVal::Bool(self.boolean(b)?)),
            CExpr::Slot(x) => self.ctrl_slot(*x),
            CExpr::Config(c) => self.config(*c),
        }
    }

    /// Evaluates a data expression: element reads, literals and an
    /// arithmetic operator over them inline, the rest out of line.
    #[inline(always)]
    fn data(&self, e: &DExpr) -> Res<f64> {
        match e {
            DExpr::Read(acc) => self.read(acc),
            DExpr::Lit(v) => Ok(*v),
            DExpr::Bin(op, a, b) => {
                let x = self.leaf(a)?;
                let y = self.leaf(b)?;
                data_op(*op, x, y)
            }
            _ => self.data_node(e),
        }
    }

    #[inline(always)]
    fn leaf(&self, e: &DExpr) -> Res<f64> {
        match e {
            DExpr::Read(acc) => self.read(acc),
            DExpr::Lit(v) => Ok(*v),
            _ => self.data_node(e),
        }
    }

    fn data_node(&self, e: &DExpr) -> Res<f64> {
        match e {
            DExpr::Lit(_) | DExpr::Read(_) | DExpr::Bin(..) => self.data(e),
            DExpr::Neg(a) => Ok(-self.data(a)?),
            DExpr::BuiltIn { func, args } => {
                // every argument is evaluated before the arity is checked
                let mut vals = [0.0; 2];
                for (i, a) in args.iter().enumerate() {
                    let v = self.data(a)?;
                    if let Some(slot) = vals.get_mut(i) {
                        *slot = v;
                    }
                }
                match (*func, args.len()) {
                    (Builtin::Unary(_, f), 1) => Ok(f(vals[0])),
                    (Builtin::Unary(name, _), _) => {
                        fail(format!("builtin {name} expects 1 argument"))
                    }
                    (Builtin::Max, 2) => Ok(vals[0].max(vals[1])),
                    (Builtin::Max, _) => fail("builtin max expects 2 arguments"),
                    (Builtin::Min, 2) => Ok(vals[0].min(vals[1])),
                    (Builtin::Min, _) => fail("builtin min expects 2 arguments"),
                    (Builtin::Unknown(name), _) => fail(format!("unknown builtin {name}")),
                }
            }
            DExpr::Ctrl => fail("control expression in data position"),
        }
    }

    /// Reads the element an access lands on.
    #[inline(always)]
    fn read(&self, acc: &Access) -> Res<f64> {
        if let Some((buf, off)) = self.offset(acc)? {
            if let Some(Some(v)) = self.m.bufs[buf.0].get(off) {
                return Ok(v);
            }
        }
        self.read_slow(acc)
    }

    /// [`Exec::read`] where the access is out of the view, the buffer
    /// unknown or the element uninitialized.
    #[cold]
    fn read_slow(&self, acc: &Access) -> Res<f64> {
        let buf = acc.buf.sym;
        match self.locate(acc)? {
            Located::At(id, off) => match self.m.bufs[id.0].get(off) {
                Some(Some(v)) => Ok(v),
                Some(None) => fail(format!(
                    "read of uninitialized {buf}[{:?}]",
                    self.coords(&acc.idx)?
                )),
                None => fail(format!("out-of-bounds read of {buf} at offset {off}")),
            },
            Located::Unknown => fail(format!("read of unknown buffer {buf}")),
            Located::OutOfBounds => fail(format!(
                "out-of-bounds read of {buf} at {:?}",
                self.coords(&acc.idx)?
            )),
        }
    }

    /// Evaluates an expression to a view (for data arguments and window
    /// definitions).
    fn eval_view(&mut self, e: &VExpr) -> Res<View> {
        match e {
            VExpr::Whole(x) => match self.view(*x) {
                Some(view) => Ok(view.clone()),
                None => fail(format!("unknown data symbol {}", x.sym)),
            },
            // point access: fix every retained dimension
            VExpr::Point(x, idx) => {
                let Some(view) = self.view(*x) else {
                    return fail(format!("unknown data symbol {}", x.sym));
                };
                let mut base = view.base;
                let mut inside = true;
                for (i, e) in idx.iter().enumerate() {
                    let c = self.index(e)?;
                    match view.dims.get(i) {
                        Some((len, stride)) if c < len => base += c * stride,
                        _ => inside = false,
                    }
                }
                if idx.len() != view.dims.len() {
                    return fail(format!("wrong arity point access into {}", x.sym));
                }
                if !inside {
                    return fail(format!("out-of-bounds point access into {}", x.sym));
                }
                Ok(View::point(view.buf, base))
            }
            VExpr::Window(x, coords) => {
                let Some(view) = self.view(*x) else {
                    return fail(format!("window over unknown symbol {}", x.sym));
                };
                if coords.len() != view.dims.len() {
                    return fail(format!("window arity mismatch over {}", x.sym));
                }
                let mut out = View::point(view.buf, view.base);
                for ((len, stride), c) in view.dims.iter().zip(coords.iter()) {
                    match c {
                        WCoord::Point(p) => {
                            let v = self.int(p)?;
                            if v < 0 || v as usize >= len {
                                return fail(format!(
                                    "window point {v} out of bounds on {}",
                                    x.sym
                                ));
                            }
                            out.base += v as usize * stride;
                        }
                        WCoord::Interval(lo, hi) => {
                            let lo = self.int(lo)?;
                            let hi = self.int(hi)?;
                            if lo < 0 || hi < lo || hi as usize > len {
                                return fail(format!(
                                    "window interval {lo}:{hi} out of bounds on {}",
                                    x.sym
                                ));
                            }
                            out.base += lo as usize * stride;
                            out.dims.push(((hi - lo) as usize, stride));
                        }
                    }
                }
                Ok(out)
            }
            // an arbitrary scalar data expression: materialize a 0-d temp
            VExpr::Temp(d) => {
                let v = self.data(d)?;
                static TMP: OnceLock<Sym> = OnceLock::new();
                let buf = BufferData::with_values(
                    *TMP.get_or_init(|| Sym::new("tmp")),
                    DataType::F64,
                    vec![],
                    MemName::dram(),
                    &[v],
                );
                let id = BufId(self.m.bufs.len());
                self.m.bufs.push(buf);
                Ok(View::point(id, 0))
            }
        }
    }
}

/// The trace's copy of a view of one of `bufs`.
fn tensor_ref(bufs: &[BufferData], w: &View) -> TensorRef {
    let buf = &bufs[w.buf.0];
    match &w.dims {
        Dims::Inline(rank, axes) => {
            TensorRef::from_inline(w.buf, buf.mem, buf.dtype, w.base, *rank, *axes)
        }
        Dims::Heap(axes) => TensorRef::new(w.buf, buf.mem, buf.dtype, w.base, axes),
    }
}

/// The iterations of a swept loop: its iterator's frame position `slot`
/// runs over `lo..=last`, `n` values.
#[derive(Clone, Copy)]
struct Iterations {
    slot: usize,
    lo: i64,
    last: i64,
    n: usize,
}

/// The elements an access of a swept loop visits: at iteration `k`
/// (from 0) element `first + k·step` of `buf`; `last` is the element of
/// the last iteration.
#[derive(Clone, Copy)]
struct Span {
    buf: BufId,
    first: usize,
    last: usize,
    step: isize,
}

impl<'a, 'p> Exec<'a, 'p> {
    /// Runs `for i in lo..hi: body` (`lo < hi`), a loop lowering marked
    /// with `coefs`: a body of one store `dst = rhs` (`dst += rhs` when
    /// it reduces) whose right-hand side is a [`Fused`]. It runs as one
    /// loop over the iterations in order: each reads its operands,
    /// applies the operator, assigns or adds, and quantizes the element
    /// it stores, as the general loop does, with the operator and the
    /// quantization resolved once per loop and without the general
    /// loop's per-iteration checks. Returns `false`, with nothing
    /// written, unless every coordinate evaluates and lies in its view at
    /// both ends, every element read (or reduced into) is initialized
    /// before the loop, and every element assigned lies inside its
    /// buffer.
    ///
    /// The loop's only effects are its store, its steps and its first
    /// error. The checks rule out every error, the iterations run in the
    /// general loop's order (so a read of the destination's buffer, as in
    /// `x[i] = relu(x[i])`, sees what it would), and an affine index
    /// takes its extremes at the ends, so no intermediate value of the
    /// iteration order can overflow where the ends did not.
    fn sweep(&mut self, slot: usize, lo: i64, hi: i64, body: &[LStmt], coefs: &[i64]) -> bool {
        let [LStmt::Store { dst, rhs, reduce }] = body else {
            return false;
        };
        let Some(rhs) = Fused::of(rhs) else {
            return false;
        };
        let it = Iterations {
            slot,
            lo,
            last: hi - 1,
            n: hi.abs_diff(lo) as usize,
        };
        let run = self.fused(it, dst, *reduce, rhs, coefs);
        if run {
            self.m.steps += it.n as u64;
        }
        run
    }

    /// The loop of [`Exec::sweep`], `dst = rhs` (`dst += rhs` when
    /// `reduce`) over `it`: resolves and checks its accesses, then runs a
    /// [`FusedLoop`]. (Written into `sweep` itself, its closures were
    /// compiled out of line and the x86-oracle kernels ran ~6% slower.)
    fn fused<'e>(
        &mut self,
        it: Iterations,
        dst: &Access,
        reduce: bool,
        rhs: Fused<'e>,
        coefs: &[i64],
    ) -> bool {
        let n = it.n;
        let mut coefs = coefs.iter();
        let Some(d) = self.strided(dst, &mut coefs, it) else {
            return false;
        };
        let mut resolve = |leaf: Option<&DExpr>| match leaf {
            Some(DExpr::Read(acc)) => self.strided(acc, &mut coefs, it).map(Some),
            _ => Some(None),
        };
        let Some(a) = resolve(Some(rhs.a)) else {
            return false;
        };
        let Some(b) = resolve(rhs.b) else {
            return false;
        };
        let bufs = &self.m.bufs;
        let ready = |r: &Span| bufs[r.buf.0].initialized(r.first, r.last, r.step, n);
        let stored = match reduce {
            true => ready(&d),
            false => d.first.max(d.last) < bufs[d.buf.0].volume(),
        };
        if !stored || !a.iter().all(ready) || !b.iter().all(ready) {
            return false;
        }
        let buf = &mut self.m.bufs[d.buf.0];
        let dtype = buf.dtype;
        let mut out = buf.take_elements();
        let bufs = &self.m.bufs;
        let operand = |leaf: Option<&'e DExpr>, read: Option<Span>| match (leaf, read) {
            (Some(DExpr::Lit(v)), _) => Operand::constant(slice::from_ref(v)),
            (_, Some(r)) => Operand {
                // the destination's storage is out of its buffer
                src: (r.buf != d.buf).then(|| bufs[r.buf.0].elements()),
                first: r.first,
                step: r.step,
            },
            _ => Operand::constant(&[0.0]),
        };
        let fused = FusedLoop {
            dst: (d.first, d.step),
            a: operand(Some(rhs.a), a),
            b: operand(rhs.b, b),
            n,
            reduce,
        };
        // the quantization of `cast`, resolved once per loop
        match dtype {
            DataType::R | DataType::F64 => fused.run(&mut out, rhs.op, |v| v),
            DataType::F32 => fused.run(&mut out, rhs.op, |v| v as f32 as f64),
            _ => fused.run(&mut out, rhs.op, |v| cast(dtype, v)),
        }
        self.m.bufs[d.buf.0].put_elements(out, d.first, d.step, n);
        true
    }

    /// Resolves an access of a swept loop, taking the coefficient of each
    /// axis from `coefs`: `None` when a coordinate fails or leaves the
    /// view at either end.
    fn strided(
        &mut self,
        acc: &Access,
        coefs: &mut slice::Iter<'_, i64>,
        it: Iterations,
    ) -> Option<Span> {
        let Iterations { slot, lo, last, .. } = it;
        let view = match acc.buf.slot.map(|s| &self.slots[self.base + s]) {
            Some(Slot::View(w)) => w,
            _ => return None,
        };
        if view.dims.len() != acc.idx.len() {
            return None;
        }
        let (mut first, mut end, mut step) = (view.base, view.base, 0isize);
        for (e, (len, stride)) in acc.idx.iter().zip(view.dims.iter()) {
            let coef = isize::try_from(*coefs.next()?).ok()?;
            let (c0, c1) = match e {
                // the iterator itself (an instruction body's `x[l]`)
                IExpr::Iter(i) if self.ibase + i == slot => (lo, last),
                _ => {
                    self.iters[slot] = lo;
                    let c0 = self.int(e).ok()?;
                    self.iters[slot] = last;
                    (c0, self.int(e).ok()?)
                }
            };
            let inside = |c: i64| usize::try_from(c).is_ok_and(|c| c < len);
            if !inside(c0) || !inside(c1) {
                return None;
            }
            first += c0 as usize * stride;
            end += c1 as usize * stride;
            step = step.checked_add(coef.checked_mul(isize::try_from(stride).ok()?)?)?;
        }
        Some(Span {
            buf: view.buf,
            first,
            last: end,
            step,
        })
    }
}

/// An operand of a fused loop: at iteration `k`, element
/// `first + k·step` of `src`, or of the destination's storage when `src`
/// is `None`.
#[derive(Clone, Copy)]
struct Operand<'b> {
    src: Option<&'b [f64]>,
    first: usize,
    step: isize,
}

impl<'b> Operand<'b> {
    /// The operand that is `value[0]` at every iteration.
    fn constant(value: &'b [f64]) -> Operand<'b> {
        Operand {
            src: Some(value),
            first: 0,
            step: 0,
        }
    }

    #[inline(always)]
    fn get(&self, out: &[f64], k: usize) -> f64 {
        let i = at(self.first, self.step, k);
        match self.src {
            Some(src) => src[i],
            None => out[i],
        }
    }
}

/// The loop [`Exec::fused`] runs: at iteration `k < n`, in order, the
/// destination element `dst.0 + k·dst.1` of the storage becomes
/// `q(op(a, b))`, or `q(element + op(a, b))` when `reduce`.
struct FusedLoop<'b> {
    dst: (usize, isize),
    a: Operand<'b>,
    b: Operand<'b>,
    n: usize,
    reduce: bool,
}

impl FusedLoop<'_> {
    /// Runs the loop with `op` and the quantization `q`, each resolved
    /// to a closure outside it.
    fn run(&self, out: &mut [f64], op: FusedOp, q: impl Fn(f64) -> f64) {
        match op {
            FusedOp::Leaf => self.each(out, |x, _| x, q),
            FusedOp::Add => self.each(out, |x, y| x + y, q),
            FusedOp::Sub => self.each(out, |x, y| x - y, q),
            FusedOp::Mul => self.each(out, |x, y| x * y, q),
            FusedOp::Div => self.each(out, |x, y| x / y, q),
            FusedOp::Neg => self.each(out, |x, _| -x, q),
            FusedOp::Unary(f) => self.each(out, |x, _| f(x), q),
            FusedOp::Max => self.each(out, f64::max, q),
            FusedOp::Min => self.each(out, f64::min, q),
        }
    }

    #[inline(always)]
    fn each(&self, out: &mut [f64], op: impl Fn(f64, f64) -> f64, q: impl Fn(f64) -> f64) {
        let (first, step) = self.dst;
        if step == 0 && self.a.src.is_some() && self.b.src.is_some() {
            // one element that no operand reads: it stays in a register
            let mut acc = out[first];
            for k in 0..self.n {
                let v = op(self.a.get(out, k), self.b.get(out, k));
                acc = q(if self.reduce { acc + v } else { v });
            }
            out[first] = acc;
            return;
        }
        for k in 0..self.n {
            let v = op(self.a.get(out, k), self.b.get(out, k));
            let i = at(first, step, k);
            out[i] = q(if self.reduce { out[i] + v } else { v });
        }
    }
}

/// Checked control arithmetic.
#[inline(always)]
fn arith(op: IntOp, x: i64, y: i64) -> Res<i64> {
    let (v, symbol) = match op {
        IntOp::Add => (x.checked_add(y), "+"),
        IntOp::Sub => (x.checked_sub(y), "-"),
        IntOp::Mul => (x.checked_mul(y), "*"),
        IntOp::Div if y <= 0 => return fail(format!("division by non-positive constant {y}")),
        IntOp::Div => return Ok(x.div_euclid(y)),
        IntOp::Mod if y <= 0 => return fail(format!("modulo by non-positive constant {y}")),
        IntOp::Mod => return Ok(x.rem_euclid(y)),
    };
    match v {
        Some(v) => Ok(v),
        None => fail(format!("integer overflow in {x} {symbol} {y}")),
    }
}

#[inline(always)]
fn data_op(op: BinOp, x: f64, y: f64) -> Res<f64> {
    match op {
        BinOp::Add => Ok(x + y),
        BinOp::Sub => Ok(x - y),
        BinOp::Mul => Ok(x * y),
        BinOp::Div => Ok(x / y),
        _ => fail(format!("operator {op} is not defined on data")),
    }
}

fn as_int(v: CtrlVal) -> Res<i64> {
    match v {
        CtrlVal::Int(v) => Ok(v),
        CtrlVal::Bool(_) => fail("expected integer, got boolean"),
    }
}

fn as_bool(v: CtrlVal) -> Res<bool> {
    match v {
        CtrlVal::Bool(v) => Ok(v),
        CtrlVal::Int(_) => fail("expected boolean, got integer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::build::{read, ProcBuilder};
    use exo_core::ir::{Expr, Stmt, WAccess};
    use std::sync::Arc;

    fn naive_gemm(n: usize) -> Arc<Proc> {
        let mut b = ProcBuilder::new("gemm");
        let nn = Expr::int(n as i64);
        let a = b.tensor("A", DataType::F32, vec![nn.clone(), nn.clone()]);
        let bb = b.tensor("B", DataType::F32, vec![nn.clone(), nn.clone()]);
        let c = b.tensor("C", DataType::F32, vec![nn.clone(), nn.clone()]);
        let i = b.begin_for("i", Expr::int(0), nn.clone());
        let j = b.begin_for("j", Expr::int(0), nn.clone());
        let k = b.begin_for("k", Expr::int(0), nn);
        b.reduce(
            c,
            vec![Expr::var(i), Expr::var(j)],
            read(a, vec![Expr::var(i), Expr::var(k)])
                .mul(read(bb, vec![Expr::var(k), Expr::var(j)])),
        );
        b.end_for().end_for().end_for();
        b.finish()
    }

    #[test]
    fn gemm_matches_reference() {
        let n = 4;
        let a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64).collect();
        let bv: Vec<f64> = (0..n * n).map(|i| ((i * 3) % 5) as f64).collect();
        let mut m = Machine::new();
        let ida = m.alloc_extern("A", DataType::F32, &[n, n], &a);
        let idb = m.alloc_extern("B", DataType::F32, &[n, n], &bv);
        let idc = m.alloc_extern("C", DataType::F32, &[n, n], &vec![0.0; n * n]);
        m.run(
            &naive_gemm(n),
            &[
                ArgVal::Tensor(ida),
                ArgVal::Tensor(idb),
                ArgVal::Tensor(idc),
            ],
        )
        .unwrap();
        let c = m.buffer_values(idc).unwrap();
        for i in 0..n {
            for j in 0..n {
                let want: f64 = (0..n).map(|k| a[i * n + k] * bv[k * n + j]).sum();
                assert_eq!(c[i * n + j], want, "C[{i},{j}]");
            }
        }
    }

    #[test]
    fn out_of_bounds_read_errors() {
        let mut b = ProcBuilder::new("oob");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
        b.assign(a, vec![Expr::int(4)], Expr::float(1.0));
        let p = b.finish();
        let mut m = Machine::new();
        let id = m.alloc_extern("A", DataType::F32, &[4], &[0.0; 4]);
        let e = m.run(&p, &[ArgVal::Tensor(id)]).unwrap_err();
        assert!(e.message.contains("out-of-bounds"), "{e}");
    }

    #[test]
    fn foreign_buffer_id_errors() {
        let mut b = ProcBuilder::new("store");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
        b.assign(a, vec![Expr::int(0)], Expr::float(1.0));
        let p = b.finish();
        let mut m = Machine::new();
        let e = m.run(&p, &[ArgVal::Tensor(BufId(99))]).unwrap_err();
        assert!(e.message.contains("not allocated"), "{e}");
        assert!(!e.budget_exhausted);
        let e = m.buffer_values(BufId(99)).unwrap_err();
        assert!(e.message.contains("not allocated"), "{e}");
    }

    #[test]
    fn uninitialized_read_errors() {
        let mut b = ProcBuilder::new("uninit");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(2)]);
        let t = b.alloc("t", DataType::F32, vec![], MemName::dram());
        b.assign(a, vec![Expr::int(0)], read(t, vec![]));
        let p = b.finish();
        let mut m = Machine::new();
        let id = m.alloc_extern("A", DataType::F32, &[2], &[0.0; 2]);
        let e = m.run(&p, &[ArgVal::Tensor(id)]).unwrap_err();
        assert!(e.message.contains("uninitialized"), "{e}");
    }

    #[test]
    fn assertion_failure_detected() {
        let mut b = ProcBuilder::new("asserted");
        let n = b.size("n");
        b.assert_pred(Expr::var(n).le(Expr::int(16)));
        b.stmt(Stmt::Pass);
        let p = b.finish();
        let mut m = Machine::new();
        assert!(m.run(&p, &[ArgVal::Int(8)]).is_ok());
        let e = m.run(&p, &[ArgVal::Int(32)]).unwrap_err();
        assert!(e.message.contains("assertion failed"), "{e}");
    }

    #[test]
    fn whole_view_is_row_major() {
        let v = View::whole(BufId(3), &[4, 5, 6]);
        assert_eq!(v.dims.iter().collect::<Vec<_>>(), [(4, 30), (5, 6), (6, 1)]);
        assert_eq!(v.base, 0);
        assert_eq!(View::whole(BufId(0), &[]).dims.len(), 0);
        // past four axes, or past 32 bits, the dims move to the heap
        let v = View::whole(BufId(0), &[2; 8]);
        assert!(matches!(v.dims, Dims::Heap(_)));
        let strides: Vec<usize> = v.dims.iter().map(|d| d.1).collect();
        assert_eq!(strides, [128, 64, 32, 16, 8, 4, 2, 1]);
        let v = View::whole(BufId(0), &[2, 1 << 32]);
        assert!(matches!(v.dims, Dims::Heap(_)));
        assert_eq!(
            v.dims.iter().collect::<Vec<_>>(),
            [(2, 1 << 32), (1 << 32, 1)]
        );
    }

    #[test]
    fn names_are_lexically_scoped() {
        // for n in 0..2: A[n] = 1   (the iterator shadows the formal n)
        // A[n] = 2                  (n is the formal again)
        // if true: w = A[1:3]
        // w[0] = 5                  (w went out of scope with its block)
        let mut b = ProcBuilder::new("scopes");
        let n = b.size("n");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
        let w = Sym::new("w");
        b.stmt(Stmt::For {
            iter: n,
            lo: Expr::int(0),
            hi: Expr::int(2),
            body: vec![Stmt::Assign {
                buf: a,
                idx: vec![Expr::var(n)],
                rhs: Expr::float(1.0),
            }],
        });
        b.assign(a, vec![Expr::var(n)], Expr::float(2.0));
        b.stmt(Stmt::If {
            cond: Expr::bool(true),
            body: vec![Stmt::WindowDef {
                name: w,
                rhs: Expr::Window {
                    buf: a,
                    coords: vec![WAccess::Interval(Expr::int(1), Expr::int(3))],
                },
            }],
            orelse: vec![],
        });
        b.assign(w, vec![Expr::int(0)], Expr::float(5.0));
        let p = b.finish();
        let mut m = Machine::new();
        let id = m.alloc_extern("A", DataType::F32, &[4], &[0.0; 4]);
        let e = m
            .run(&p, &[ArgVal::Int(3), ArgVal::Tensor(id)])
            .unwrap_err();
        assert_eq!(e.message, "store to unknown buffer w");
        assert_eq!(m.buffer_values(id).unwrap(), vec![1.0, 1.0, 0.0, 2.0]);
    }

    #[test]
    fn windows_alias_underlying_buffer() {
        // y = x[1:3]; y[0] = 7  ⇒  x[1] == 7
        let mut b = ProcBuilder::new("wintest");
        let x = b.tensor("x", DataType::F32, vec![Expr::int(4)]);
        let y = b.window("y", x, vec![WAccess::Interval(Expr::int(1), Expr::int(3))]);
        b.assign(y, vec![Expr::int(0)], Expr::float(7.0));
        let p = b.finish();
        let mut m = Machine::new();
        let id = m.alloc_extern("x", DataType::F32, &[4], &[0.0; 4]);
        m.run(&p, &[ArgVal::Tensor(id)]).unwrap();
        assert_eq!(m.buffer_values(id).unwrap(), vec![0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn config_state_roundtrips() {
        let cfg = Sym::new("ConfigLoad");
        let field = Sym::new("src_stride");
        let mut b = ProcBuilder::new("cfg");
        b.write_config(cfg, field, Expr::int(128));
        let p = b.finish();
        let mut m = Machine::new();
        m.run(&p, &[]).unwrap();
        assert_eq!(m.config(cfg, field), Some(CtrlVal::Int(128)));
    }

    #[test]
    fn instr_calls_are_traced() {
        // a no-op "prefetch"-style instr (paper §3.2.2 escape hatch)
        let mut ib = ProcBuilder::new("prefetch");
        let n = ib.size("n");
        let src = ib.tensor("src", DataType::F32, vec![Expr::var(n)]);
        let _ = src;
        ib.instr("prefetch({src_data});");
        ib.stmt(Stmt::Pass);
        let instr = ib.finish();

        let mut b = ProcBuilder::new("main");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
        b.call(&instr, vec![Expr::int(8), read(a, vec![])]);
        let p = b.finish();

        let mut m = Machine::new();
        let id = m.alloc_extern("A", DataType::F32, &[8], &[1.0; 8]);
        m.run(&p, &[ArgVal::Tensor(id)]).unwrap();
        assert_eq!(m.trace().len(), 1);
        let op = &m.trace()[0];
        assert_eq!(op.instr, "prefetch");
        assert_eq!(op.int_arg("n"), Some(8));
        assert_eq!(op.tensor_arg("src").unwrap().shape(), [8]);
    }

    #[test]
    fn scalar_temporaries_share_one_name() {
        // scale(x: f32): pass, called twice with data expressions
        let mut cb = ProcBuilder::new("scale");
        cb.scalar("x", DataType::F32);
        cb.stmt(Stmt::Pass);
        let callee = cb.finish();
        let mut b = ProcBuilder::new("main");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(2)]);
        for i in 0..2 {
            b.call(
                &callee,
                vec![read(a, vec![Expr::int(i)]).add(Expr::float(1.0))],
            );
        }
        let p = b.finish();
        let mut m = Machine::new();
        let id = m.alloc_extern("A", DataType::F32, &[2], &[1.0, 2.0]);
        m.run(&p, &[ArgVal::Tensor(id)]).unwrap();
        m.run(&p, &[ArgVal::Tensor(id)]).unwrap();
        let temps: Vec<_> = m.buffers()[1..].iter().map(|t| t.name).collect();
        assert_eq!(temps.len(), 4);
        assert!(temps.iter().all(|&name| name == temps[0]), "{temps:?}");
        assert_eq!(temps[0].name(), "tmp");
    }

    #[test]
    fn never_written_buffer_reads_as_bottom() {
        let mut m = Machine::new();
        let id = m.alloc_extern_uninit("A", DataType::F32, &[3, 4]);
        let e = m.buffer_values(id).unwrap_err();
        assert_eq!(e.message, "uninitialized element");
        assert_eq!(m.buffer(id).values().collect::<Vec<_>>(), vec![None; 12]);
        let s = m.alloc_extern_uninit("s", DataType::F32, &[]);
        assert_eq!(m.buffer(s).values().collect::<Vec<_>>(), vec![None]);
    }

    #[test]
    fn zero_extent_buffers_hold_no_elements() {
        let mut m = Machine::new();
        let e = m.alloc_extern("e", DataType::F32, &[0], &[]);
        assert_eq!(m.buffer_values(e).unwrap(), Vec::<f64>::new());
        let z = m.alloc_extern_uninit("z", DataType::F32, &[0, 4]);
        assert_eq!(m.buffer(z).values().count(), 0);
        assert_eq!(m.buffer_values(z).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn first_store_leaves_other_elements_bottom() {
        let mut b = ProcBuilder::new("one");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(3)]);
        b.assign(a, vec![Expr::int(1)], Expr::float(2.5));
        let p = b.finish();
        let mut m = Machine::new();
        let id = m.alloc_extern_uninit("A", DataType::F32, &[3]);
        m.run(&p, &[ArgVal::Tensor(id)]).unwrap();
        let got: Vec<_> = m.buffer(id).values().collect();
        assert_eq!(got, vec![None, Some(2.5), None]);
        assert!(m.buffer_values(id).is_err());
    }

    #[test]
    fn rank5_window_argument_traces_exact_layout() {
        let extents: [usize; 5] = [2, 3, 2, 2, 4];
        let mut ib = ProcBuilder::new("touch5");
        ib.window_arg(
            "src",
            DataType::F32,
            extents.map(|n| Expr::int(n as i64)).to_vec(),
            MemName::dram(),
        );
        ib.instr("touch5({src_data});");
        ib.stmt(Stmt::Pass);
        let instr = ib.finish();

        // A : f32[3, 4, 5, 6, 3, 6], row-major strides 2160, 540, 108, 18, 6, 1
        let mut b = ProcBuilder::new("main");
        let a = b.tensor(
            "A",
            DataType::F32,
            [3, 4, 5, 6, 3, 6].map(Expr::int).to_vec(),
        );
        let iv = |lo, hi| WAccess::Interval(Expr::int(lo), Expr::int(hi));
        let coords = vec![
            iv(1, 3),
            iv(0, 3),
            WAccess::Point(Expr::int(2)),
            iv(4, 6),
            iv(0, 2),
            iv(2, 6),
        ];
        b.call(&instr, vec![Expr::Window { buf: a, coords }]);
        let p = b.finish();

        let mut m = Machine::new();
        let id = m.alloc_extern_uninit("A", DataType::F32, &[3, 4, 5, 6, 3, 6]);
        m.run(&p, &[ArgVal::Tensor(id)]).unwrap();
        let t = m.trace()[0].tensor_arg("src").unwrap();
        assert_eq!(t.shape(), extents);
        assert_eq!(t.strides(), [2160, 540, 18, 6, 1]);
        assert_eq!(t.base_offset, 2160 + 2 * 108 + 4 * 18 + 2);
        assert_eq!(format!("{:?}", t.shape()), "[2, 3, 2, 2, 4]");
        assert_eq!(t.len(), 96);
    }

    #[test]
    fn i8_stores_saturate() {
        let mut b = ProcBuilder::new("sat");
        let a = b.tensor("A", DataType::I8, vec![Expr::int(1)]);
        b.assign(a, vec![Expr::int(0)], Expr::float(1000.0));
        let p = b.finish();
        let mut m = Machine::new();
        let id = m.alloc_extern("A", DataType::I8, &[1], &[0.0]);
        m.run(&p, &[ArgVal::Tensor(id)]).unwrap();
        assert_eq!(m.buffer_values(id).unwrap(), vec![127.0]);
    }

    #[test]
    fn euclidean_div_mod() {
        // for i in 0..1: t[] = …  with index (i-… ) — test div/mod directly
        let mut b = ProcBuilder::new("divmod");
        let out = b.tensor("out", DataType::F32, vec![Expr::int(2)]);
        let i = b.begin_for("i", Expr::int(0), Expr::int(1));
        // (i + 7) / 2 == 3, (i + 7) % 2 == 1 at i = 0
        b.assign(
            out,
            vec![Expr::var(i)
                .add(Expr::int(7))
                .div(Expr::int(2))
                .sub(Expr::int(3))],
            Expr::float(1.0),
        );
        b.assign(
            out,
            vec![Expr::var(i).add(Expr::int(7)).rem(Expr::int(2))],
            Expr::float(2.0),
        );
        b.end_for();
        let p = b.finish();
        let mut m = Machine::new();
        let id = m.alloc_extern("out", DataType::F32, &[2], &[0.0; 2]);
        m.run(&p, &[ArgVal::Tensor(id)]).unwrap();
        assert_eq!(m.buffer_values(id).unwrap(), vec![1.0, 2.0]);
    }
}
