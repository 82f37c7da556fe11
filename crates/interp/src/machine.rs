//! The reference interpreter.
//!
//! Executes procedures against a store (paper §4.1): buffers live in an
//! arena, control values and views in a lexical environment, and
//! configuration state in a global map. The interpreter is the oracle
//! for scheduling correctness — a schedule is validated by running the
//! original and rewritten procedures on the same inputs and comparing
//! output stores — and the source of [`HwOp`] traces for the simulators.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use exo_core::budget::ResourceBudget;
use exo_core::ir::{ArgType, BinOp, Block, Expr, Lit, Proc, Stmt, WAccess};
use exo_core::types::{DataType, MemName};
use exo_core::Sym;

use crate::trace::{HwOp, TensorRef, TraceArg};
use crate::value::{cast, BufId, BufferData, CtrlVal, WinDim, WindowVal};

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

#[derive(Clone, Debug)]
enum Slot {
    Ctrl(CtrlVal),
    View(WindowVal),
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
            configs: HashMap::new(),
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
        let mut buf = BufferData::new(Sym::new(name), dtype, shape.to_vec(), MemName::dram());
        for (slot, &v) in buf.data.iter_mut().zip(data) {
            *slot = Some(cast(dtype, v));
        }
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

    /// Reads back a buffer's contents (uninitialized slots as `None`).
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
            .data
            .iter()
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
        let mut env: HashMap<Sym, Slot> = HashMap::new();
        for (formal, actual) in proc.args.iter().zip(args) {
            let slot = match (&formal.ty, actual) {
                (ArgType::Ctrl(_), ArgVal::Int(v)) => Slot::Ctrl(CtrlVal::Int(*v)),
                (ArgType::Ctrl(_), ArgVal::Bool(v)) => Slot::Ctrl(CtrlVal::Bool(*v)),
                (ArgType::Tensor { .. } | ArgType::Scalar { .. }, ArgVal::Tensor(id)) => {
                    let shape = self.extern_buf(*id)?.shape.clone();
                    Slot::View(WindowVal::whole(*id, &shape))
                }
                _ => {
                    return err(format!(
                        "argument kind mismatch for parameter {}",
                        formal.name
                    ))
                }
            };
            env.insert(formal.name, slot);
        }
        // running an instruction directly still records a trace event
        if proc.is_instr() && !self.record_instr(proc, &env) {
            return Ok(());
        }
        self.check_shapes_and_preds(proc, &mut env)?;
        self.exec_block(&proc.body, &mut env)
    }

    /// Records a call of the `@instr` procedure `proc` with arguments bound
    /// in `env` as one trace event (formals missing from `env` are left
    /// out). Returns whether the instruction's body should run.
    fn record_instr(&mut self, proc: &Proc, env: &HashMap<Sym, Slot>) -> bool {
        let mut args = Vec::with_capacity(proc.args.len());
        for formal in &proc.args {
            let ta = match env.get(&formal.name) {
                Some(Slot::Ctrl(CtrlVal::Int(v))) => TraceArg::Int(*v),
                Some(Slot::Ctrl(CtrlVal::Bool(v))) => TraceArg::Bool(*v),
                Some(Slot::View(w)) => TraceArg::Tensor(self.tensor_ref(w)),
                None => continue,
            };
            args.push((formal.name.name(), ta));
        }
        exo_obs::counter_add("interp.instr", 1);
        self.trace.push(HwOp {
            instr: proc.name.name(),
            args,
        });
        self.execute_instr_bodies
    }

    fn check_shapes_and_preds(
        &mut self,
        proc: &Proc,
        env: &mut HashMap<Sym, Slot>,
    ) -> Result<(), InterpError> {
        for formal in &proc.args {
            if let ArgType::Tensor { shape, .. } = &formal.ty {
                let view = match env.get(&formal.name) {
                    Some(Slot::View(v)) => v.clone(),
                    _ => return err(format!("missing tensor argument {}", formal.name)),
                };
                let actual = view.shape();
                if shape.len() != actual.len() {
                    return err(format!(
                        "rank mismatch for {}: declared {}, got {}",
                        formal.name,
                        shape.len(),
                        actual.len()
                    ));
                }
                for (decl, &real) in shape.iter().zip(&actual) {
                    let want = self.eval_int(decl, env)?;
                    if want != real as i64 {
                        return err(format!(
                            "extent mismatch for {}: declared {want}, got {real}",
                            formal.name
                        ));
                    }
                }
            }
        }
        for pred in &proc.preds {
            if !self.eval_bool(pred, env)? {
                return err(format!(
                    "assertion failed in {}: {}",
                    proc.name,
                    exo_core::printer::expr_to_string(pred)
                ));
            }
        }
        Ok(())
    }

    fn exec_block(
        &mut self,
        block: &Block,
        env: &mut HashMap<Sym, Slot>,
    ) -> Result<(), InterpError> {
        let mut shadow: Vec<(Sym, Option<Slot>)> = Vec::new();
        let result = (|| {
            for s in block {
                self.exec_stmt(s, env, &mut shadow)?;
            }
            Ok(())
        })();
        for (sym, prev) in shadow.into_iter().rev() {
            match prev {
                Some(p) => {
                    env.insert(sym, p);
                }
                None => {
                    env.remove(&sym);
                }
            }
        }
        result
    }

    fn exec_stmt(
        &mut self,
        s: &Stmt,
        env: &mut HashMap<Sym, Slot>,
        shadow: &mut Vec<(Sym, Option<Slot>)>,
    ) -> Result<(), InterpError> {
        self.steps += 1;
        // One fuel unit per executed statement; the chaos `interp-fuel`
        // fault pretends the pool just ran dry. Either way the run stops
        // with a typed budget error — a mis-scheduled kernel can make the
        // interpreter slow, but never make it hang.
        if let Err(e) = self.budget.charge(1) {
            exo_obs::counter_add("interp.budget_stops", 1);
            return Err(InterpError {
                message: format!("interpreter stopped after {} steps: {}", self.steps, e),
                budget_exhausted: true,
            });
        }
        if exo_chaos::should_inject(exo_chaos::FaultSite::InterpFuel) {
            exo_obs::counter_add("interp.budget_stops", 1);
            return Err(InterpError {
                message: format!(
                    "interpreter stopped after {} steps: fuel budget exhausted (chaos)",
                    self.steps
                ),
                budget_exhausted: true,
            });
        }
        match s {
            Stmt::Pass => Ok(()),
            Stmt::Assign { buf, idx, rhs } => {
                let v = self.eval_data(rhs, env)?;
                self.store(*buf, idx, env, v, false)
            }
            Stmt::Reduce { buf, idx, rhs } => {
                let v = self.eval_data(rhs, env)?;
                self.store(*buf, idx, env, v, true)
            }
            Stmt::WriteConfig { config, field, rhs } => {
                let v = self.eval_ctrl(rhs, env)?;
                self.configs.insert((*config, *field), v);
                Ok(())
            }
            Stmt::If { cond, body, orelse } => {
                if self.eval_bool(cond, env)? {
                    self.exec_block(body, env)
                } else {
                    self.exec_block(orelse, env)
                }
            }
            Stmt::For { iter, lo, hi, body } => {
                let lo = self.eval_int(lo, env)?;
                let hi = self.eval_int(hi, env)?;
                let prev = env.remove(iter);
                for i in lo..hi {
                    env.insert(*iter, Slot::Ctrl(CtrlVal::Int(i)));
                    self.exec_block(body, env)?;
                }
                match prev {
                    Some(p) => {
                        env.insert(*iter, p);
                    }
                    None => {
                        env.remove(iter);
                    }
                }
                Ok(())
            }
            Stmt::Alloc {
                name,
                ty,
                shape,
                mem,
            } => {
                let mut dims = Vec::with_capacity(shape.len());
                for e in shape {
                    let n = self.eval_int(e, env)?;
                    if n < 0 {
                        return err(format!("negative extent {n} for allocation {name}"));
                    }
                    dims.push(n as usize);
                }
                let buf = BufferData::new(*name, *ty, dims.clone(), *mem);
                let id = BufId(self.bufs.len());
                self.bufs.push(buf);
                shadow.push((
                    *name,
                    env.insert(*name, Slot::View(WindowVal::whole(id, &dims))),
                ));
                Ok(())
            }
            Stmt::WindowDef { name, rhs } => {
                let view = self.eval_view(rhs, env)?;
                shadow.push((*name, env.insert(*name, Slot::View(view))));
                Ok(())
            }
            Stmt::Call { proc, args } => self.exec_call(proc, args, env),
        }
    }

    fn exec_call(
        &mut self,
        proc: &Arc<Proc>,
        args: &[Expr],
        env: &mut HashMap<Sym, Slot>,
    ) -> Result<(), InterpError> {
        let mut callee_env: HashMap<Sym, Slot> = HashMap::new();
        for (formal, actual) in proc.args.iter().zip(args) {
            let slot = match &formal.ty {
                ArgType::Ctrl(_) => Slot::Ctrl(self.eval_ctrl(actual, env)?),
                ArgType::Scalar { .. } | ArgType::Tensor { .. } => {
                    Slot::View(self.eval_view(actual, env)?)
                }
            };
            callee_env.insert(formal.name, slot);
        }
        if proc.is_instr() && !self.record_instr(proc, &callee_env) {
            return Ok(());
        }
        self.check_shapes_and_preds(proc, &mut callee_env)?;
        self.exec_block(&proc.body, &mut callee_env)
    }

    fn tensor_ref(&self, w: &WindowVal) -> TensorRef {
        let buf = &self.bufs[w.buf.0];
        let strides = buf.strides();
        let mut base = 0usize;
        for (d, &f) in w.fixed.iter().enumerate() {
            if f != usize::MAX {
                base += f * strides[d];
            }
        }
        let mut wstrides = Vec::with_capacity(w.dims.len());
        for dim in &w.dims {
            base += dim.offset * strides[dim.buf_dim];
            wstrides.push(strides[dim.buf_dim]);
        }
        TensorRef {
            buf: w.buf,
            mem: buf.mem,
            dtype: buf.dtype,
            base_offset: base,
            shape: w.shape(),
            strides: wstrides,
        }
    }

    fn store(
        &mut self,
        buf: Sym,
        idx: &[Expr],
        env: &mut HashMap<Sym, Slot>,
        value: f64,
        reduce: bool,
    ) -> Result<(), InterpError> {
        let coords = self.eval_coords(idx, env)?;
        let view = match env.get(&buf) {
            Some(Slot::View(v)) => v.clone(),
            _ => return err(format!("store to unknown buffer {buf}")),
        };
        let rank = self.bufs[view.buf.0].shape.len();
        let bcoords = view
            .to_buffer_coords(&coords, rank)
            .ok_or_else(|| InterpError {
                message: format!("out-of-bounds store to {buf} at {coords:?}"),
                budget_exhausted: false,
            })?;
        let data = &mut self.bufs[view.buf.0];
        let off = data.offset(&bcoords).ok_or_else(|| InterpError {
            message: format!("out-of-bounds store to {buf} at {bcoords:?}"),
            budget_exhausted: false,
        })?;
        let dtype = data.dtype;
        let new = if reduce {
            let old = data.data[off].ok_or_else(|| InterpError {
                message: format!("reduction into uninitialized location of {buf}"),
                budget_exhausted: false,
            })?;
            cast(dtype, old + value)
        } else {
            cast(dtype, value)
        };
        data.data[off] = Some(new);
        Ok(())
    }

    fn eval_coords(
        &mut self,
        idx: &[Expr],
        env: &mut HashMap<Sym, Slot>,
    ) -> Result<Vec<usize>, InterpError> {
        idx.iter()
            .map(|e| {
                let v = self.eval_int(e, env)?;
                if v < 0 {
                    err(format!("negative index {v}"))
                } else {
                    Ok(v as usize)
                }
            })
            .collect()
    }

    /// Evaluates a control expression.
    fn eval_ctrl(
        &mut self,
        e: &Expr,
        env: &mut HashMap<Sym, Slot>,
    ) -> Result<CtrlVal, InterpError> {
        match e {
            Expr::Var(x) => match env.get(x) {
                Some(Slot::Ctrl(v)) => Ok(*v),
                Some(Slot::View(_)) => err(format!("{x} is a buffer, not a control value")),
                None => err(format!("unbound control variable {x}")),
            },
            Expr::Lit(Lit::Int(v)) => Ok(CtrlVal::Int(*v)),
            Expr::Lit(Lit::Bool(v)) => Ok(CtrlVal::Bool(*v)),
            Expr::Lit(Lit::Float(_)) => err("float literal in control position"),
            Expr::Neg(a) => {
                let v = self.eval_int(a, env)?;
                Ok(CtrlVal::Int(-v))
            }
            Expr::BinOp(op, a, b) => self.eval_ctrl_binop(*op, a, b, env),
            Expr::Stride { buf, dim } => {
                let view = match env.get(buf) {
                    Some(Slot::View(v)) => v.clone(),
                    _ => return err(format!("stride() of unknown buffer {buf}")),
                };
                let strides = self.bufs[view.buf.0].strides();
                let wd: Vec<&WinDim> = view.dims.iter().collect();
                match wd.get(*dim) {
                    Some(d) => Ok(CtrlVal::Int(strides[d.buf_dim] as i64)),
                    None => err(format!("stride dimension {dim} out of range for {buf}")),
                }
            }
            Expr::ReadConfig { config, field } => self
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
            _ => err("data expression in control position"),
        }
    }

    fn eval_ctrl_binop(
        &mut self,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        env: &mut HashMap<Sym, Slot>,
    ) -> Result<CtrlVal, InterpError> {
        match op {
            BinOp::And => {
                let x = self.eval_bool(a, env)?;
                // short-circuit
                if !x {
                    return Ok(CtrlVal::Bool(false));
                }
                Ok(CtrlVal::Bool(self.eval_bool(b, env)?))
            }
            BinOp::Or => {
                let x = self.eval_bool(a, env)?;
                if x {
                    return Ok(CtrlVal::Bool(true));
                }
                Ok(CtrlVal::Bool(self.eval_bool(b, env)?))
            }
            _ => {
                let x = self.eval_int(a, env)?;
                let y = self.eval_int(b, env)?;
                Ok(match op {
                    BinOp::Add => CtrlVal::Int(x + y),
                    BinOp::Sub => CtrlVal::Int(x - y),
                    BinOp::Mul => CtrlVal::Int(x * y),
                    BinOp::Div => {
                        if y <= 0 {
                            return err(format!("division by non-positive constant {y}"));
                        }
                        CtrlVal::Int(x.div_euclid(y))
                    }
                    BinOp::Mod => {
                        if y <= 0 {
                            return err(format!("modulo by non-positive constant {y}"));
                        }
                        CtrlVal::Int(x.rem_euclid(y))
                    }
                    BinOp::Eq => CtrlVal::Bool(x == y),
                    BinOp::Lt => CtrlVal::Bool(x < y),
                    BinOp::Le => CtrlVal::Bool(x <= y),
                    BinOp::Gt => CtrlVal::Bool(x > y),
                    BinOp::Ge => CtrlVal::Bool(x >= y),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                })
            }
        }
    }

    /// Evaluates an integer control expression.
    fn eval_int(&mut self, e: &Expr, env: &mut HashMap<Sym, Slot>) -> Result<i64, InterpError> {
        match self.eval_ctrl(e, env)? {
            CtrlVal::Int(v) => Ok(v),
            CtrlVal::Bool(_) => err("expected integer, got boolean"),
        }
    }

    /// Evaluates a boolean control expression.
    fn eval_bool(&mut self, e: &Expr, env: &mut HashMap<Sym, Slot>) -> Result<bool, InterpError> {
        match self.eval_ctrl(e, env)? {
            CtrlVal::Bool(v) => Ok(v),
            CtrlVal::Int(_) => err("expected boolean, got integer"),
        }
    }

    /// Evaluates a data expression to a value.
    fn eval_data(&mut self, e: &Expr, env: &mut HashMap<Sym, Slot>) -> Result<f64, InterpError> {
        match e {
            Expr::Lit(Lit::Float(v)) => Ok(*v),
            Expr::Lit(Lit::Int(v)) => Ok(*v as f64),
            Expr::Read { buf, idx } => {
                let coords = self.eval_coords(idx, env)?;
                let view = match env.get(buf) {
                    Some(Slot::View(v)) => v.clone(),
                    _ => return err(format!("read of unknown buffer {buf}")),
                };
                let rank = self.bufs[view.buf.0].shape.len();
                let bcoords = view
                    .to_buffer_coords(&coords, rank)
                    .ok_or_else(|| InterpError {
                        message: format!("out-of-bounds read of {buf} at {coords:?}"),
                        budget_exhausted: false,
                    })?;
                let data = &self.bufs[view.buf.0];
                let off = data.offset(&bcoords).ok_or_else(|| InterpError {
                    message: format!("out-of-bounds read of {buf} at {bcoords:?}"),
                    budget_exhausted: false,
                })?;
                data.data[off].ok_or_else(|| InterpError {
                    message: format!("read of uninitialized {buf}[{coords:?}]"),
                    budget_exhausted: false,
                })
            }
            Expr::BinOp(op, a, b) => {
                let x = self.eval_data(a, env)?;
                let y = self.eval_data(b, env)?;
                match op {
                    BinOp::Add => Ok(x + y),
                    BinOp::Sub => Ok(x - y),
                    BinOp::Mul => Ok(x * y),
                    BinOp::Div => Ok(x / y),
                    _ => err(format!("operator {op} is not defined on data")),
                }
            }
            Expr::Neg(a) => Ok(-self.eval_data(a, env)?),
            Expr::BuiltIn { func, args } => {
                let vals: Result<Vec<f64>, _> =
                    args.iter().map(|a| self.eval_data(a, env)).collect();
                eval_builtin(&func.name(), &vals?)
            }
            _ => err("control expression in data position"),
        }
    }

    /// Evaluates an expression to a view (for data arguments and window
    /// definitions).
    fn eval_view(
        &mut self,
        e: &Expr,
        env: &mut HashMap<Sym, Slot>,
    ) -> Result<WindowVal, InterpError> {
        match e {
            Expr::Read { buf, idx } => {
                let view = match env.get(buf) {
                    Some(Slot::View(v)) => v.clone(),
                    _ => return err(format!("unknown data symbol {buf}")),
                };
                if idx.is_empty() {
                    return Ok(view);
                }
                // point access: fix every retained dimension
                let coords = self.eval_coords(idx, env)?;
                if coords.len() != view.dims.len() {
                    return err(format!("wrong arity point access into {buf}"));
                }
                let mut fixed = view.fixed.clone();
                for (dim, &c) in view.dims.iter().zip(&coords) {
                    if c >= dim.len {
                        return err(format!("out-of-bounds point access into {buf}"));
                    }
                    fixed[dim.buf_dim] = dim.offset + c;
                }
                Ok(WindowVal {
                    buf: view.buf,
                    fixed,
                    dims: vec![],
                })
            }
            Expr::Window { buf, coords } => {
                let view = match env.get(buf) {
                    Some(Slot::View(v)) => v.clone(),
                    _ => return err(format!("window over unknown symbol {buf}")),
                };
                if coords.len() != view.dims.len() {
                    return err(format!("window arity mismatch over {buf}"));
                }
                let mut fixed = view.fixed.clone();
                let mut dims = Vec::new();
                for (wdim, c) in view.dims.iter().zip(coords) {
                    match c {
                        WAccess::Point(p) => {
                            let v = self.eval_int(p, env)?;
                            if v < 0 || v as usize >= wdim.len {
                                return err(format!("window point {v} out of bounds on {buf}"));
                            }
                            fixed[wdim.buf_dim] = wdim.offset + v as usize;
                        }
                        WAccess::Interval(lo, hi) => {
                            let lo = self.eval_int(lo, env)?;
                            let hi = self.eval_int(hi, env)?;
                            if lo < 0 || hi < lo || hi as usize > wdim.len {
                                return err(format!(
                                    "window interval {lo}:{hi} out of bounds on {buf}"
                                ));
                            }
                            dims.push(WinDim {
                                buf_dim: wdim.buf_dim,
                                offset: wdim.offset + lo as usize,
                                len: (hi - lo) as usize,
                            });
                        }
                    }
                }
                Ok(WindowVal {
                    buf: view.buf,
                    fixed,
                    dims,
                })
            }
            // an arbitrary scalar data expression: materialize a 0-d temp
            _ => {
                let v = self.eval_data(e, env)?;
                let mut buf =
                    BufferData::new(Sym::new("tmp"), DataType::F64, vec![], MemName::dram());
                buf.data[0] = Some(v);
                let id = BufId(self.bufs.len());
                self.bufs.push(buf);
                Ok(WindowVal::whole(id, &[]))
            }
        }
    }
}

/// Evaluates a built-in (total) math function.
fn eval_builtin(name: &str, args: &[f64]) -> Result<f64, InterpError> {
    let unary = |f: fn(f64) -> f64| {
        if args.len() == 1 {
            Ok(f(args[0]))
        } else {
            err(format!("builtin {name} expects 1 argument"))
        }
    };
    match name {
        "sin" => unary(f64::sin),
        "cos" => unary(f64::cos),
        "sqrt" => unary(|x| if x < 0.0 { 0.0 } else { x.sqrt() }),
        "exp" => unary(f64::exp),
        "tanh" => unary(f64::tanh),
        "abs" => unary(f64::abs),
        "relu" => unary(|x| x.max(0.0)),
        "max" => {
            if args.len() == 2 {
                Ok(args[0].max(args[1]))
            } else {
                err("builtin max expects 2 arguments")
            }
        }
        "min" => {
            if args.len() == 2 {
                Ok(args[0].min(args[1]))
            } else {
                err("builtin min expects 2 arguments")
            }
        }
        _ => err(format!("unknown builtin {name}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::build::{read, ProcBuilder};

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
        assert_eq!(op.tensor_arg("src").unwrap().shape, vec![8]);
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
