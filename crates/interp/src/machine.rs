//! The reference interpreter.
//!
//! Executes procedures against a store (paper §4.1): buffers live in an
//! arena, control values and views in frames of slots, and configuration
//! state in a global map. The interpreter is the oracle for scheduling
//! correctness — a schedule is validated by running the original and
//! rewritten procedures on the same inputs and comparing output stores —
//! and the source of [`HwOp`] traces for the simulators.
//!
//! Each [`Machine::run`] first lowers the procedure and its callees into
//! the resolved form of the crate's `lower` module, then executes that: a variable
//! is a slot index into the current frame, and a view is a buffer, a
//! base offset and a `(len, stride)` per axis, so an element access is
//! per-axis bounds checks plus `base + Σ i·stride`.

use std::fmt;

use exo_core::budget::ResourceBudget;
use exo_core::hash::HashMap;
use exo_core::ir::{ArgType, BinOp, Proc};
use exo_core::types::{DataType, MemName};
use exo_core::Sym;

use crate::lower::{
    lower, Access, Builtin, CExpr, CallArg, DExpr, LProc, LStmt, VExpr, Var, WCoord,
};
use crate::trace::{HwOp, TensorRef, TraceArg, TraceName};
use crate::value::{cast, BufId, BufferData, CtrlVal};

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

/// The value of one binder in a frame.
#[derive(Clone, Debug)]
enum Slot {
    /// Not bound: a formal with no actual argument.
    Unset,
    Ctrl(CtrlVal),
    View(View),
}

/// A view of a buffer in the [`TensorRef`] layout: window coordinate
/// `i` (with `i[d] < dims[d].0`) addresses element
/// `base + Σ i[d]·dims[d].1` of `buf`.
#[derive(Clone, Debug)]
struct View {
    buf: BufId,
    base: usize,
    /// `(len, stride)` per retained axis, outermost first.
    dims: Vec<(usize, usize)>,
}

impl View {
    /// The identity view of a row-major buffer.
    fn whole(buf: BufId, shape: &[usize]) -> View {
        let mut dims = vec![(0, 0); shape.len()];
        let mut stride = 1usize;
        for (d, &len) in dims.iter_mut().zip(shape).rev() {
            *d = (len, stride);
            stride = stride.saturating_mul(len);
        }
        View { buf, base: 0, dims }
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
    trace: Vec<HwOp>,
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
            trace: Vec::new(),
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
        let volume = shape.iter().product::<usize>().max(1);
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
        std::mem::take(&mut self.trace)
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
        let traced = self.trace.len();
        let procs = lower(proc);
        let result = Exec {
            m: self,
            procs: &procs,
            slots: Vec::new(),
            base: 0,
        }
        .run_root(args);
        // one registry update per run, however many instructions it traced
        let instrs = self.trace.len() - traced;
        if instrs > 0 {
            exo_obs::counter_add("interp.instr", instrs as u64);
        }
        result
    }
}

/// One run's execution state: the machine, the lowered procedures, and
/// the frame stack (the running procedure's frame is the top one,
/// starting at `base`).
struct Exec<'a, 'p> {
    m: &'a mut Machine,
    procs: &'a [LProc<'p>],
    slots: Vec<Slot>,
    base: usize,
}

impl<'a, 'p> Exec<'a, 'p> {
    fn run_root(&mut self, args: &[ArgVal]) -> Result<(), InterpError> {
        let procs = self.procs;
        let Some(root) = procs.last() else {
            return Ok(());
        };
        self.slots.resize(root.slots, Slot::Unset);
        for (i, (formal, actual)) in root.src.args.iter().zip(args).enumerate() {
            self.slots[i] = match (&formal.ty, actual) {
                (ArgType::Ctrl(_), ArgVal::Int(v)) => Slot::Ctrl(CtrlVal::Int(*v)),
                (ArgType::Ctrl(_), ArgVal::Bool(v)) => Slot::Ctrl(CtrlVal::Bool(*v)),
                (ArgType::Tensor { .. } | ArgType::Scalar { .. }, ArgVal::Tensor(id)) => {
                    Slot::View(View::whole(*id, &self.m.extern_buf(*id)?.shape))
                }
                _ => {
                    return err(format!(
                        "argument kind mismatch for parameter {}",
                        formal.name
                    ))
                }
            };
        }
        self.enter(root)
    }

    /// Runs `p` in the current frame, whose formals are bound.
    fn enter(&mut self, p: &LProc<'p>) -> Result<(), InterpError> {
        // running an instruction directly still records a trace event
        if let Some(instr) = &p.instr {
            if !self.record_instr(instr) {
                return Ok(());
            }
        }
        self.check_shapes_and_preds(p)?;
        self.exec_block(&p.body)
    }

    /// The current frame's slot for `v`, if `v` has a binder in scope.
    fn slot(&self, v: Var) -> Option<&Slot> {
        v.slot.map(|s| &self.slots[self.base + s])
    }

    fn view(&self, v: Var) -> Option<&View> {
        match self.slot(v) {
            Some(Slot::View(w)) => Some(w),
            _ => None,
        }
    }

    /// Records a call of the `@instr` procedure named `instr`, whose
    /// formals `names` are bound in the current frame, as one trace event
    /// (unbound formals are left out). Returns whether the instruction's
    /// body should run.
    fn record_instr(&mut self, (instr, names): &(TraceName, Vec<TraceName>)) -> bool {
        let frame = &self.slots[self.base..];
        let mut args = Vec::with_capacity(names.len());
        for (slot, name) in frame.iter().zip(names) {
            let ta = match slot {
                Slot::Ctrl(CtrlVal::Int(v)) => TraceArg::Int(*v),
                Slot::Ctrl(CtrlVal::Bool(v)) => TraceArg::Bool(*v),
                Slot::View(w) => TraceArg::Tensor(self.tensor_ref(w)),
                Slot::Unset => continue,
            };
            args.push((name.clone(), ta));
        }
        self.m.trace.push(HwOp {
            instr: instr.clone(),
            args,
        });
        self.m.execute_instr_bodies
    }

    fn tensor_ref(&self, w: &View) -> TensorRef {
        let buf = &self.m.bufs[w.buf.0];
        TensorRef {
            buf: w.buf,
            mem: buf.mem,
            dtype: buf.dtype,
            base_offset: w.base,
            shape: w.dims.iter().map(|d| d.0).collect(),
            strides: w.dims.iter().map(|d| d.1).collect(),
        }
    }

    fn check_shapes_and_preds(&self, p: &LProc<'p>) -> Result<(), InterpError> {
        let frame = &self.slots[self.base..];
        for ((formal, shape), slot) in p.src.args.iter().zip(&p.shapes).zip(frame) {
            let Some(shape) = shape else {
                continue;
            };
            let Slot::View(view) = slot else {
                return err(format!("missing tensor argument {}", formal.name));
            };
            if shape.len() != view.dims.len() {
                return err(format!(
                    "rank mismatch for {}: declared {}, got {}",
                    formal.name,
                    shape.len(),
                    view.dims.len()
                ));
            }
            for (decl, &(real, _)) in shape.iter().zip(&view.dims) {
                let want = self.eval_int(decl)?;
                if want != real as i64 {
                    return err(format!(
                        "extent mismatch for {}: declared {want}, got {real}",
                        formal.name
                    ));
                }
            }
        }
        for (pred, src) in p.preds.iter().zip(&p.src.preds) {
            if !self.eval_bool(pred)? {
                return err(format!(
                    "assertion failed in {}: {}",
                    p.src.name,
                    exo_core::printer::expr_to_string(src)
                ));
            }
        }
        Ok(())
    }

    fn exec_block(&mut self, block: &[LStmt]) -> Result<(), InterpError> {
        for s in block {
            self.exec_stmt(s)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &LStmt) -> Result<(), InterpError> {
        self.m.steps += 1;
        // One fuel unit per executed statement; the chaos `interp-fuel`
        // fault pretends the pool just ran dry. Either way the run stops
        // with a typed budget error — a mis-scheduled kernel can make the
        // interpreter slow, but never make it hang.
        if let Err(e) = self.m.budget.charge(1) {
            exo_obs::counter_add("interp.budget_stops", 1);
            return Err(InterpError {
                message: format!("interpreter stopped after {} steps: {}", self.m.steps, e),
                budget_exhausted: true,
            });
        }
        if exo_chaos::should_inject(exo_chaos::FaultSite::InterpFuel) {
            exo_obs::counter_add("interp.budget_stops", 1);
            return Err(InterpError {
                message: format!(
                    "interpreter stopped after {} steps: fuel budget exhausted (chaos)",
                    self.m.steps
                ),
                budget_exhausted: true,
            });
        }
        match s {
            LStmt::Pass => Ok(()),
            LStmt::Store { dst, rhs, reduce } => {
                let v = self.eval_data(rhs)?;
                self.store(dst, v, *reduce)
            }
            LStmt::WriteConfig { config, field, rhs } => {
                let v = self.eval_ctrl(rhs)?;
                self.m.configs.insert((*config, *field), v);
                Ok(())
            }
            LStmt::If { cond, body, orelse } => {
                if self.eval_bool(cond)? {
                    self.exec_block(body)
                } else {
                    self.exec_block(orelse)
                }
            }
            LStmt::For { iter, lo, hi, body } => {
                let lo = self.eval_int(lo)?;
                let hi = self.eval_int(hi)?;
                let slot = self.base + iter;
                for i in lo..hi {
                    self.slots[slot] = Slot::Ctrl(CtrlVal::Int(i));
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
                    let n = self.eval_int(e)?;
                    if n < 0 {
                        return err(format!("negative extent {n} for allocation {name}"));
                    }
                    dims.push(n as usize);
                }
                let id = BufId(self.m.bufs.len());
                let view = View::whole(id, &dims);
                self.m.bufs.push(BufferData::new(*name, *ty, dims, *mem));
                self.slots[self.base + slot] = Slot::View(view);
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
    fn exec_call(&mut self, callee: usize, args: &[CallArg]) -> Result<(), InterpError> {
        let procs = self.procs;
        let p = &procs[callee];
        let frame = self.slots.len();
        self.slots.resize(frame + p.slots, Slot::Unset);
        for (i, arg) in args.iter().enumerate() {
            self.slots[frame + i] = match arg {
                CallArg::Ctrl(e) => Slot::Ctrl(self.eval_ctrl(e)?),
                CallArg::View(e) => Slot::View(self.eval_view(e)?),
            };
        }
        let caller = std::mem::replace(&mut self.base, frame);
        let result = self.enter(p);
        self.base = caller;
        self.slots.truncate(frame);
        result
    }

    fn store(&mut self, dst: &Access, value: f64, reduce: bool) -> Result<(), InterpError> {
        let (buf, off) = match self.locate(dst)? {
            Located::At(buf, off) => (buf, off),
            Located::Unknown => return err(format!("store to unknown buffer {}", dst.buf.sym)),
            Located::OutOfBounds => {
                return err(format!(
                    "out-of-bounds store to {} at {:?}",
                    dst.buf.sym,
                    self.coords(&dst.idx)?
                ))
            }
        };
        let data = &mut self.m.bufs[buf.0];
        let dtype = data.dtype;
        let Some(cell) = data.get_mut(off) else {
            return err(format!(
                "out-of-bounds store to {} at offset {off}",
                dst.buf.sym
            ));
        };
        *cell = Some(if reduce {
            let Some(old) = *cell else {
                return err(format!(
                    "reduction into uninitialized location of {}",
                    dst.buf.sym
                ));
            };
            cast(dtype, old + value)
        } else {
            cast(dtype, value)
        });
        Ok(())
    }

    /// Resolves an element access. Every coordinate is evaluated (and
    /// checked non-negative) before the buffer is looked up and the
    /// coordinates are checked against the view.
    fn locate(&self, acc: &Access) -> Result<Located, InterpError> {
        let view = self.view(acc.buf);
        let dims = view.map_or(&[][..], |v| &v.dims[..]);
        let mut inside = dims.len() == acc.idx.len();
        let mut off = view.map_or(0, |v| v.base);
        for (e, &(len, stride)) in acc.idx.iter().zip(dims) {
            let c = self.index(e)?;
            if c < len {
                off += c * stride;
            } else {
                inside = false;
            }
        }
        // a rank mismatch still evaluates every coordinate
        for e in acc.idx.iter().skip(dims.len()) {
            self.index(e)?;
        }
        Ok(match view {
            None => Located::Unknown,
            Some(v) if inside => Located::At(v.buf, off),
            Some(_) => Located::OutOfBounds,
        })
    }

    /// A coordinate: a non-negative integer.
    fn index(&self, e: &CExpr) -> Result<usize, InterpError> {
        let v = self.eval_int(e)?;
        if v < 0 {
            err(format!("negative index {v}"))
        } else {
            Ok(v as usize)
        }
    }

    /// The coordinates of an access, for error messages.
    fn coords(&self, idx: &[CExpr]) -> Result<Vec<usize>, InterpError> {
        idx.iter().map(|e| self.index(e)).collect()
    }

    /// Evaluates a control expression.
    fn eval_ctrl(&self, e: &CExpr) -> Result<CtrlVal, InterpError> {
        match e {
            CExpr::Var(x) => match self.slot(*x) {
                Some(Slot::Ctrl(v)) => Ok(*v),
                Some(Slot::View(_)) => err(format!("{} is a buffer, not a control value", x.sym)),
                Some(Slot::Unset) | None => err(format!("unbound control variable {}", x.sym)),
            },
            CExpr::Int(v) => Ok(CtrlVal::Int(*v)),
            CExpr::Bool(v) => Ok(CtrlVal::Bool(*v)),
            CExpr::Float => err("float literal in control position"),
            CExpr::Neg(a) => {
                let v = self.eval_int(a)?;
                match v.checked_neg() {
                    Some(n) => Ok(CtrlVal::Int(n)),
                    None => err(format!("integer overflow in -({v})")),
                }
            }
            CExpr::Bin(op, a, b) => self.eval_ctrl_binop(*op, a, b),
            CExpr::Stride { buf, dim } => match self.view(*buf) {
                Some(view) => match view.dims.get(*dim) {
                    Some(&(_, stride)) => Ok(CtrlVal::Int(stride as i64)),
                    None => err(format!(
                        "stride dimension {dim} out of range for {}",
                        buf.sym
                    )),
                },
                None => err(format!("stride() of unknown buffer {}", buf.sym)),
            },
            CExpr::ReadConfig { config, field } => self
                .m
                .configs
                .get(&(*config, *field))
                .copied()
                .ok_or_else(|| InterpError {
                    message: format!(
                        "read of unset configuration {}.{}",
                        config.name(),
                        field.name()
                    ),
                    budget_exhausted: false,
                }),
            CExpr::Data => err("data expression in control position"),
        }
    }

    fn eval_ctrl_binop(&self, op: BinOp, a: &CExpr, b: &CExpr) -> Result<CtrlVal, InterpError> {
        match op {
            BinOp::And => {
                let x = self.eval_bool(a)?;
                // short-circuit
                if !x {
                    return Ok(CtrlVal::Bool(false));
                }
                Ok(CtrlVal::Bool(self.eval_bool(b)?))
            }
            BinOp::Or => {
                let x = self.eval_bool(a)?;
                if x {
                    return Ok(CtrlVal::Bool(true));
                }
                Ok(CtrlVal::Bool(self.eval_bool(b)?))
            }
            _ => {
                let x = self.eval_int(a)?;
                let y = self.eval_int(b)?;
                let checked = |v: Option<i64>| match v {
                    Some(v) => Ok(CtrlVal::Int(v)),
                    None => err(format!("integer overflow in {x} {op} {y}")),
                };
                match op {
                    BinOp::Add => checked(x.checked_add(y)),
                    BinOp::Sub => checked(x.checked_sub(y)),
                    BinOp::Mul => checked(x.checked_mul(y)),
                    BinOp::Div => {
                        if y <= 0 {
                            return err(format!("division by non-positive constant {y}"));
                        }
                        Ok(CtrlVal::Int(x.div_euclid(y)))
                    }
                    BinOp::Mod => {
                        if y <= 0 {
                            return err(format!("modulo by non-positive constant {y}"));
                        }
                        Ok(CtrlVal::Int(x.rem_euclid(y)))
                    }
                    BinOp::Eq => Ok(CtrlVal::Bool(x == y)),
                    BinOp::Lt => Ok(CtrlVal::Bool(x < y)),
                    BinOp::Le => Ok(CtrlVal::Bool(x <= y)),
                    BinOp::Gt => Ok(CtrlVal::Bool(x > y)),
                    BinOp::Ge => Ok(CtrlVal::Bool(x >= y)),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
        }
    }

    /// Evaluates an integer control expression.
    fn eval_int(&self, e: &CExpr) -> Result<i64, InterpError> {
        // the leaves of index arithmetic, without a round trip through
        // `CtrlVal`
        match e {
            CExpr::Int(v) => return Ok(*v),
            CExpr::Var(x) => {
                if let Some(Slot::Ctrl(CtrlVal::Int(v))) = self.slot(*x) {
                    return Ok(*v);
                }
            }
            _ => {}
        }
        match self.eval_ctrl(e)? {
            CtrlVal::Int(v) => Ok(v),
            CtrlVal::Bool(_) => err("expected integer, got boolean"),
        }
    }

    /// Evaluates a boolean control expression.
    fn eval_bool(&self, e: &CExpr) -> Result<bool, InterpError> {
        match self.eval_ctrl(e)? {
            CtrlVal::Bool(v) => Ok(v),
            CtrlVal::Int(_) => err("expected boolean, got integer"),
        }
    }

    /// Evaluates a data expression to a value.
    fn eval_data(&self, e: &DExpr) -> Result<f64, InterpError> {
        match e {
            DExpr::Lit(v) => Ok(*v),
            DExpr::Read(acc) => {
                let buf = acc.buf.sym;
                match self.locate(acc)? {
                    Located::At(id, off) => match self.m.bufs[id.0].get(off) {
                        Some(Some(v)) => Ok(v),
                        Some(None) => err(format!(
                            "read of uninitialized {buf}[{:?}]",
                            self.coords(&acc.idx)?
                        )),
                        None => err(format!("out-of-bounds read of {buf} at offset {off}")),
                    },
                    Located::Unknown => err(format!("read of unknown buffer {buf}")),
                    Located::OutOfBounds => err(format!(
                        "out-of-bounds read of {buf} at {:?}",
                        self.coords(&acc.idx)?
                    )),
                }
            }
            DExpr::Bin(op, a, b) => {
                let x = self.eval_data(a)?;
                let y = self.eval_data(b)?;
                match op {
                    BinOp::Add => Ok(x + y),
                    BinOp::Sub => Ok(x - y),
                    BinOp::Mul => Ok(x * y),
                    BinOp::Div => Ok(x / y),
                    _ => err(format!("operator {op} is not defined on data")),
                }
            }
            DExpr::Neg(a) => Ok(-self.eval_data(a)?),
            DExpr::BuiltIn { func, args } => {
                // every argument is evaluated before the arity is checked
                let mut vals = [0.0; 2];
                for (i, a) in args.iter().enumerate() {
                    let v = self.eval_data(a)?;
                    if let Some(slot) = vals.get_mut(i) {
                        *slot = v;
                    }
                }
                match (*func, args.len()) {
                    (Builtin::Unary(_, f), 1) => Ok(f(vals[0])),
                    (Builtin::Unary(name, _), _) => {
                        err(format!("builtin {name} expects 1 argument"))
                    }
                    (Builtin::Max, 2) => Ok(vals[0].max(vals[1])),
                    (Builtin::Max, _) => err("builtin max expects 2 arguments"),
                    (Builtin::Min, 2) => Ok(vals[0].min(vals[1])),
                    (Builtin::Min, _) => err("builtin min expects 2 arguments"),
                    (Builtin::Unknown(name), _) => err(format!("unknown builtin {name}")),
                }
            }
            DExpr::Ctrl => err("control expression in data position"),
        }
    }

    /// Evaluates an expression to a view (for data arguments and window
    /// definitions).
    fn eval_view(&mut self, e: &VExpr) -> Result<View, InterpError> {
        match e {
            VExpr::Whole(x) => match self.view(*x) {
                Some(view) => Ok(view.clone()),
                None => err(format!("unknown data symbol {}", x.sym)),
            },
            // point access: fix every retained dimension
            VExpr::Point(x, idx) => {
                let Some(view) = self.view(*x) else {
                    return err(format!("unknown data symbol {}", x.sym));
                };
                let mut base = view.base;
                let mut inside = true;
                for (i, e) in idx.iter().enumerate() {
                    let c = self.index(e)?;
                    match view.dims.get(i) {
                        Some(&(len, stride)) if c < len => base += c * stride,
                        _ => inside = false,
                    }
                }
                if idx.len() != view.dims.len() {
                    return err(format!("wrong arity point access into {}", x.sym));
                }
                if !inside {
                    return err(format!("out-of-bounds point access into {}", x.sym));
                }
                Ok(View {
                    buf: view.buf,
                    base,
                    dims: Vec::new(),
                })
            }
            VExpr::Window(x, coords) => {
                let Some(view) = self.view(*x) else {
                    return err(format!("window over unknown symbol {}", x.sym));
                };
                if coords.len() != view.dims.len() {
                    return err(format!("window arity mismatch over {}", x.sym));
                }
                let mut base = view.base;
                let mut dims = Vec::new();
                for (&(len, stride), c) in view.dims.iter().zip(coords) {
                    match c {
                        WCoord::Point(p) => {
                            let v = self.eval_int(p)?;
                            if v < 0 || v as usize >= len {
                                return err(format!("window point {v} out of bounds on {}", x.sym));
                            }
                            base += v as usize * stride;
                        }
                        WCoord::Interval(lo, hi) => {
                            let lo = self.eval_int(lo)?;
                            let hi = self.eval_int(hi)?;
                            if lo < 0 || hi < lo || hi as usize > len {
                                return err(format!(
                                    "window interval {lo}:{hi} out of bounds on {}",
                                    x.sym
                                ));
                            }
                            base += lo as usize * stride;
                            dims.push(((hi - lo) as usize, stride));
                        }
                    }
                }
                Ok(View {
                    buf: view.buf,
                    base,
                    dims,
                })
            }
            // an arbitrary scalar data expression: materialize a 0-d temp
            VExpr::Temp(d) => {
                let v = self.eval_data(d)?;
                let buf = BufferData::with_values(
                    Sym::new("tmp"),
                    DataType::F64,
                    vec![],
                    MemName::dram(),
                    &[v],
                );
                let id = BufId(self.m.bufs.len());
                self.m.bufs.push(buf);
                Ok(View {
                    buf: id,
                    base: 0,
                    dims: Vec::new(),
                })
            }
        }
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
        assert_eq!(v.dims, vec![(4, 30), (5, 6), (6, 1)]);
        assert_eq!(v.base, 0);
        assert!(View::whole(BufId(0), &[]).dims.is_empty());
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
        assert_eq!(op.tensor_arg("src").unwrap().shape[..], [8]);
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
        assert_eq!(t.shape[..], extents);
        assert_eq!(t.strides[..], [2160, 540, 18, 6, 1]);
        assert_eq!(t.base_offset, 2160 + 2 * 108 + 4 * 18 + 2);
        assert_eq!(format!("{:?}", t.shape), "[2, 3, 2, 2, 4]");
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
