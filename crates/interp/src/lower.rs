//! The typed, pre-resolved form the interpreter executes.
//!
//! [`lower`] walks a procedure once per [`crate::Machine::run`] and
//! resolves every name and every type it can. A frame has two parts: a
//! slot per formal, `Alloc` and `WindowDef` (a control value or a view),
//! and an `i64` per loop iterator. Each use of a symbol points at its
//! innermost binder in scope, as an iterator index or a slot index.
//!
//! Control expressions are typed by where they are used: an [`IExpr`]
//! yields an `i64`, a [`BExpr`] a `bool`, and only a configuration write
//! or a control argument of a call keeps the kind of its value open
//! ([`CExpr`]). An expression of the wrong kind becomes a node that
//! evaluates its operand and then fails with `expected integer, got
//! boolean` or the converse (`NotInt`, `NotBool`); a control formal or a configuration field, whose kind is
//! only known at run time, is checked when it is read. Configuration
//! fields become indices into a per-run table, builtins an enum, and each
//! distinct callee (by `Arc` pointer) is lowered once and called by
//! index; an `@instr` callee carries its [`Instr`] handle, resolved once
//! per run and shared by every traced call.
//!
//! A `for` the machine may sweep carries the coefficient of its iterator
//! on every axis of every access in its body: its body is one store
//! whose right-hand side is a literal, an element read or one operator
//! that cannot fail (`+ - * /`, unary `-`, a builtin at its arity) over
//! literals and reads ([`Fused`]), and every index is affine in the
//! iterator (the iterator, literals, `+`, `-`, unary `-` and `*` by a
//! literal, over subtrees that do not name it).
//!
//! Lowering never fails. A use with no binder in scope, an unknown
//! builtin or an expression of the wrong kind is lowered to a node that
//! raises the interpreter's usual error when, and only when, it is
//! evaluated. The form lives for one run: there is no cache across runs.

use std::sync::Arc;

use exo_core::hash::HashMap;
use exo_core::ir::{ArgType, BinOp, Block, Expr, Lit, Proc, Stmt, WAccess};
use exo_core::types::{DataType, MemName};
use exo_core::Sym;

use crate::trace::Instr;

/// A use of a symbol as a slot: the slot of its binder (`None` when no
/// binder is in scope, or the binder is a loop iterator) and the symbol
/// itself, for error messages.
#[derive(Clone, Copy)]
pub(crate) struct Var {
    pub slot: Option<usize>,
    pub sym: Sym,
}

/// An integer operator of control arithmetic.
#[derive(Clone, Copy)]
pub(crate) enum IntOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// A comparison of two integers.
#[derive(Clone, Copy)]
pub(crate) enum CmpOp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A control expression used as an integer.
pub(crate) enum IExpr {
    Int(i64),
    /// A loop iterator, by index into the frame's iterators.
    Iter(usize),
    /// A slot holding a control value (a formal), checked when read.
    Slot(Var),
    /// A configuration field, by index into the run's table.
    Config(usize),
    Neg(Box<IExpr>),
    Arith(IntOp, Box<IExpr>, Box<IExpr>),
    Stride(Var, usize),
    /// A boolean expression in integer position.
    NotInt(Box<BExpr>),
    /// A name with no binder in scope.
    Unbound(Sym),
    /// A float literal (an error in control position).
    Float,
    /// A data expression (an error in control position).
    Data,
}

/// A control expression used as a boolean.
pub(crate) enum BExpr {
    Bool(bool),
    Slot(Var),
    Config(usize),
    And(Box<BExpr>, Box<BExpr>),
    Or(Box<BExpr>, Box<BExpr>),
    Cmp(CmpOp, Box<IExpr>, Box<IExpr>),
    /// An integer expression in boolean position.
    NotBool(Box<IExpr>),
}

impl IExpr {
    /// Whether loop iterator `it` occurs in this node.
    fn names(&self, it: usize) -> bool {
        match self {
            IExpr::Iter(i) => *i == it,
            IExpr::Neg(a) => a.names(it),
            IExpr::Arith(_, a, b) => a.names(it) || b.names(it),
            IExpr::NotInt(b) => b.names(it),
            IExpr::Int(_)
            | IExpr::Slot(_)
            | IExpr::Config(_)
            | IExpr::Stride(..)
            | IExpr::Unbound(_)
            | IExpr::Float
            | IExpr::Data => false,
        }
    }
}

impl BExpr {
    /// Whether loop iterator `it` occurs in this node.
    fn names(&self, it: usize) -> bool {
        match self {
            BExpr::And(a, b) | BExpr::Or(a, b) => a.names(it) || b.names(it),
            BExpr::Cmp(_, a, b) => a.names(it) || b.names(it),
            BExpr::NotBool(a) => a.names(it),
            BExpr::Bool(_) | BExpr::Slot(_) | BExpr::Config(_) => false,
        }
    }
}

/// A control expression whose value is stored as it is: the right-hand
/// side of a configuration write or a control argument of a call.
pub(crate) enum CExpr {
    Int(IExpr),
    Bool(BExpr),
    Slot(Var),
    Config(usize),
}

/// A data expression.
pub(crate) enum DExpr {
    Lit(f64),
    Read(Access),
    Bin(BinOp, Box<DExpr>, Box<DExpr>),
    Neg(Box<DExpr>),
    BuiltIn {
        func: Builtin,
        args: Vec<DExpr>,
    },
    /// A control expression (an error in data position).
    Ctrl,
}

impl DExpr {
    /// Calls `f` on each element read, left to right, until it returns
    /// `false`; whether it never did.
    fn all_reads<'e>(&'e self, f: &mut impl FnMut(&'e Access) -> bool) -> bool {
        match self {
            DExpr::Read(acc) => f(acc),
            DExpr::Bin(_, a, b) => a.all_reads(f) && b.all_reads(f),
            DExpr::Neg(a) => a.all_reads(f),
            DExpr::BuiltIn { args, .. } => args.iter().all(|a| a.all_reads(f)),
            DExpr::Lit(_) | DExpr::Ctrl => true,
        }
    }
}

/// The right-hand side of a store that a swept loop runs: a leaf `a` (a
/// literal or an element read) or one operator that cannot fail over
/// leaves, `op(a)` or `op(a, b)`.
#[derive(Clone, Copy)]
pub(crate) struct Fused<'e> {
    pub op: FusedOp,
    pub a: &'e DExpr,
    pub b: Option<&'e DExpr>,
}

/// The operator of a [`Fused`] right-hand side.
#[derive(Clone, Copy)]
pub(crate) enum FusedOp {
    /// `a` alone.
    Leaf,
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    /// A one-argument builtin.
    Unary(fn(f64) -> f64),
    Max,
    Min,
}

impl<'e> Fused<'e> {
    /// `rhs` as a [`Fused`], if it has that form.
    pub(crate) fn of(rhs: &'e DExpr) -> Option<Fused<'e>> {
        let (op, a, b) = match rhs {
            DExpr::Lit(_) | DExpr::Read(_) => (FusedOp::Leaf, rhs, None),
            DExpr::Bin(op, a, b) => {
                let op = match op {
                    BinOp::Add => FusedOp::Add,
                    BinOp::Sub => FusedOp::Sub,
                    BinOp::Mul => FusedOp::Mul,
                    BinOp::Div => FusedOp::Div,
                    _ => return None,
                };
                (op, &**a, Some(&**b))
            }
            DExpr::Neg(a) => (FusedOp::Neg, &**a, None),
            DExpr::BuiltIn { func, args } => match (func, &args[..]) {
                (Builtin::Unary(_, f), [a]) => (FusedOp::Unary(*f), a, None),
                (Builtin::Max, [a, b]) => (FusedOp::Max, a, Some(b)),
                (Builtin::Min, [a, b]) => (FusedOp::Min, a, Some(b)),
                _ => return None,
            },
            DExpr::Ctrl => return None,
        };
        let leaf = |e: &DExpr| matches!(e, DExpr::Lit(_) | DExpr::Read(_));
        (leaf(a) && b.is_none_or(leaf)).then_some(Fused { op, a, b })
    }
}

/// An element access `buf[idx]`: the view's slot and one index node
/// per axis.
pub(crate) struct Access {
    pub buf: Var,
    pub idx: Box<[IExpr]>,
}

/// A built-in math function.
#[derive(Clone, Copy)]
pub(crate) enum Builtin {
    Unary(&'static str, fn(f64) -> f64),
    Max,
    Min,
    Unknown(Sym),
}

impl Builtin {
    fn resolve(func: Sym) -> Builtin {
        match func.name().as_str() {
            "sin" => Builtin::Unary("sin", f64::sin),
            "cos" => Builtin::Unary("cos", f64::cos),
            "sqrt" => Builtin::Unary("sqrt", |x| if x < 0.0 { 0.0 } else { x.sqrt() }),
            "exp" => Builtin::Unary("exp", f64::exp),
            "tanh" => Builtin::Unary("tanh", f64::tanh),
            "abs" => Builtin::Unary("abs", f64::abs),
            "relu" => Builtin::Unary("relu", |x| x.max(0.0)),
            "max" => Builtin::Max,
            "min" => Builtin::Min,
            _ => Builtin::Unknown(func),
        }
    }
}

/// An expression evaluated to a view: a data argument of a call or the
/// right-hand side of a window definition.
pub(crate) enum VExpr {
    /// `buf` — the whole view.
    Whole(Var),
    /// `buf[idx]` — a point (rank-0 view).
    Point(Var, Box<[IExpr]>),
    /// `buf[coords]` with intervals.
    Window(Var, Box<[WCoord]>),
    /// Any other data expression, materialized in a 0-d temporary.
    Temp(DExpr),
}

/// One coordinate of a window expression.
pub(crate) enum WCoord {
    Point(IExpr),
    Interval(IExpr, IExpr),
}

/// An actual argument of a call, by the kind of its formal.
pub(crate) enum CallArg {
    Ctrl(CExpr),
    View(VExpr),
}

/// A statement.
pub(crate) enum LStmt {
    Pass,
    Store {
        dst: Access,
        rhs: DExpr,
        reduce: bool,
    },
    WriteConfig {
        config: usize,
        rhs: CExpr,
    },
    If {
        cond: BExpr,
        body: Vec<LStmt>,
        orelse: Vec<LStmt>,
    },
    For {
        iter: usize,
        lo: IExpr,
        hi: IExpr,
        body: Vec<LStmt>,
        /// For a loop the interpreter may sweep, the coefficient of
        /// `iter` on each axis of each access of `body`
        /// ([`sweep_coefficients`]).
        sweep: Option<Box<[i64]>>,
    },
    Alloc {
        slot: usize,
        name: Sym,
        ty: DataType,
        shape: Vec<IExpr>,
        mem: MemName,
    },
    WindowDef {
        slot: usize,
        rhs: VExpr,
    },
    /// `args[i]` binds the callee's formal `i` (slot `i`).
    Call {
        callee: usize,
        args: Vec<CallArg>,
    },
}

/// A lowered procedure. Formal `i` is bound in slot `i`.
pub(crate) struct LProc<'p> {
    pub src: &'p Proc,
    /// Declared extents of each tensor formal, by formal index.
    pub shapes: Vec<Option<Vec<IExpr>>>,
    pub preds: Vec<BExpr>,
    pub body: Vec<LStmt>,
    /// Slots in a frame.
    pub slots: usize,
    /// Loop iterators in a frame.
    pub iters: usize,
    /// For an `@instr`: its signature, as traced.
    pub instr: Option<Instr>,
}

/// One run's lowered form.
pub(crate) struct Lowered<'p> {
    /// `root` and, once each, every procedure it calls. A callee comes
    /// before its first caller, so the root is the last element.
    pub procs: Vec<LProc<'p>>,
    /// The configuration fields the procedures name, by index.
    pub configs: Vec<(Sym, Sym)>,
}

/// Lowers `root` and the procedures it calls.
pub(crate) fn lower(root: &Proc) -> Lowered<'_> {
    let mut run = Run {
        out: Lowered {
            procs: Vec::new(),
            configs: Vec::new(),
        },
        memo: HashMap::default(),
        config_index: HashMap::default(),
    };
    lower_proc(root, &mut run);
    run.out
}

/// The coefficients that mark `for it in …: body` as a loop the
/// interpreter may sweep: `body` is one store whose right-hand side is a
/// [`Fused`] and every index is affine in `it`. One coefficient per axis
/// of the destination, then of each read, left to right.
fn sweep_coefficients(body: &[LStmt], it: usize) -> Option<Box<[i64]>> {
    let [LStmt::Store { dst, rhs, .. }] = body else {
        return None;
    };
    Fused::of(rhs)?;
    let mut coefs = Vec::new();
    let mut affine = |acc: &Access| {
        acc.idx
            .iter()
            .all(|e| coefficient(e, it).map(|c| coefs.push(c)).is_some())
    };
    (affine(dst) && rhs.all_reads(&mut affine)).then(|| coefs.into())
}

/// The coefficient of iterator `it` in `e` when `e` is affine in it:
/// built from `it`, literals, `+`, `-`, unary `-` and `*` by a literal
/// over subtrees that do not name `it`, whatever their form (0 for such
/// a subtree).
fn coefficient(e: &IExpr, it: usize) -> Option<i64> {
    if !e.names(it) {
        return Some(0);
    }
    match e {
        IExpr::Iter(_) => Some(1),
        IExpr::Neg(a) => coefficient(a, it)?.checked_neg(),
        IExpr::Arith(IntOp::Add, a, b) => coefficient(a, it)?.checked_add(coefficient(b, it)?),
        IExpr::Arith(IntOp::Sub, a, b) => coefficient(a, it)?.checked_sub(coefficient(b, it)?),
        IExpr::Arith(IntOp::Mul, a, b) => match (&**a, &**b) {
            (IExpr::Int(k), x) | (x, IExpr::Int(k)) => coefficient(x, it)?.checked_mul(*k),
            _ => None,
        },
        _ => None,
    }
}

/// What lowering shares across the procedures of one run.
struct Run<'p> {
    out: Lowered<'p>,
    memo: HashMap<*const Proc, usize>,
    config_index: HashMap<(Sym, Sym), usize>,
}

/// Lowers `p` (and its callees not yet lowered); returns its index.
fn lower_proc<'p>(p: &'p Proc, run: &mut Run<'p>) -> usize {
    let mut cx = Lowering {
        run,
        scope: Vec::new(),
        slots: 0,
        iters: 0,
    };
    for a in &p.args {
        cx.bind_slot(a.name);
    }
    let shapes = p
        .args
        .iter()
        .map(|a| match &a.ty {
            ArgType::Tensor { shape, .. } => Some(shape.iter().map(|e| cx.int(e)).collect()),
            _ => None,
        })
        .collect();
    let preds = p.preds.iter().map(|e| cx.boolean(e)).collect();
    let body = cx.block(&p.body);
    let (slots, iters) = (cx.slots, cx.iters);
    let instr = p.is_instr().then(|| Instr::of_proc(p));
    let procs = &mut run.out.procs;
    procs.push(LProc {
        src: p,
        shapes,
        preds,
        body,
        slots,
        iters,
        instr,
    });
    procs.len() - 1
}

/// Where a binder keeps its value.
#[derive(Clone, Copy)]
enum Binder {
    Slot(usize),
    Iter(usize),
}

/// Lowering state of one procedure: the binders in scope, innermost
/// last.
struct Lowering<'a, 'p> {
    run: &'a mut Run<'p>,
    scope: Vec<(Sym, Binder)>,
    slots: usize,
    iters: usize,
}

impl<'p> Lowering<'_, 'p> {
    fn bind_slot(&mut self, sym: Sym) -> usize {
        let slot = self.slots;
        self.slots += 1;
        self.scope.push((sym, Binder::Slot(slot)));
        slot
    }

    fn lookup(&self, sym: Sym) -> Option<Binder> {
        self.scope
            .iter()
            .rev()
            .find(|(s, _)| *s == sym)
            .map(|&(_, b)| b)
    }

    /// `sym` as a slot (a loop iterator holds no view).
    fn var(&self, sym: Sym) -> Var {
        let slot = match self.lookup(sym) {
            Some(Binder::Slot(s)) => Some(s),
            Some(Binder::Iter(_)) | None => None,
        };
        Var { slot, sym }
    }

    fn config(&mut self, config: Sym, field: Sym) -> usize {
        let configs = &mut self.run.out.configs;
        *self
            .run
            .config_index
            .entry((config, field))
            .or_insert_with(|| {
                configs.push((config, field));
                configs.len() - 1
            })
    }

    /// Lowers a block; its `Alloc`s and `WindowDef`s go out of scope at
    /// its end.
    fn block(&mut self, b: &'p Block) -> Vec<LStmt> {
        let depth = self.scope.len();
        let out = b.iter().map(|s| self.stmt(s)).collect();
        self.scope.truncate(depth);
        out
    }

    fn stmt(&mut self, s: &'p Stmt) -> LStmt {
        match s {
            Stmt::Pass => LStmt::Pass,
            Stmt::Assign { buf, idx, rhs } | Stmt::Reduce { buf, idx, rhs } => LStmt::Store {
                rhs: self.data(rhs),
                dst: self.access(*buf, idx),
                reduce: matches!(s, Stmt::Reduce { .. }),
            },
            Stmt::WriteConfig { config, field, rhs } => LStmt::WriteConfig {
                config: self.config(*config, *field),
                rhs: self.ctrl(rhs),
            },
            Stmt::If { cond, body, orelse } => LStmt::If {
                cond: self.boolean(cond),
                body: self.block(body),
                orelse: self.block(orelse),
            },
            Stmt::For { iter, lo, hi, body } => {
                let (lo, hi) = (self.int(lo), self.int(hi));
                let depth = self.scope.len();
                let slot = self.iters;
                self.iters += 1;
                self.scope.push((*iter, Binder::Iter(slot)));
                let body = self.block(body);
                self.scope.truncate(depth);
                LStmt::For {
                    iter: slot,
                    lo,
                    hi,
                    sweep: sweep_coefficients(&body, slot),
                    body,
                }
            }
            Stmt::Alloc {
                name,
                ty,
                shape,
                mem,
            } => {
                let shape = shape.iter().map(|e| self.int(e)).collect();
                LStmt::Alloc {
                    slot: self.bind_slot(*name),
                    name: *name,
                    ty: *ty,
                    shape,
                    mem: *mem,
                }
            }
            Stmt::WindowDef { name, rhs } => {
                let rhs = self.view(rhs);
                LStmt::WindowDef {
                    slot: self.bind_slot(*name),
                    rhs,
                }
            }
            Stmt::Call { proc, args } => {
                let args = proc
                    .args
                    .iter()
                    .zip(args)
                    .map(|(formal, actual)| match formal.ty {
                        ArgType::Ctrl(_) => CallArg::Ctrl(self.ctrl(actual)),
                        ArgType::Scalar { .. } | ArgType::Tensor { .. } => {
                            CallArg::View(self.view(actual))
                        }
                    })
                    .collect();
                LStmt::Call {
                    callee: self.callee(proc),
                    args,
                }
            }
        }
    }

    fn callee(&mut self, proc: &'p Arc<Proc>) -> usize {
        if let Some(&i) = self.run.memo.get(&Arc::as_ptr(proc)) {
            return i;
        }
        let i = lower_proc(proc, self.run);
        self.run.memo.insert(Arc::as_ptr(proc), i);
        i
    }

    fn access(&mut self, buf: Sym, idx: &'p [Expr]) -> Access {
        Access {
            buf: self.var(buf),
            idx: self.ints(idx),
        }
    }

    fn ints(&mut self, es: &'p [Expr]) -> Box<[IExpr]> {
        es.iter().map(|e| self.int(e)).collect()
    }

    /// A control expression, typed by its form.
    fn ctrl(&mut self, e: &'p Expr) -> CExpr {
        match e {
            Expr::Var(x) => match self.lookup(*x) {
                Some(Binder::Iter(i)) => CExpr::Int(IExpr::Iter(i)),
                Some(Binder::Slot(slot)) => CExpr::Slot(Var {
                    slot: Some(slot),
                    sym: *x,
                }),
                None => CExpr::Int(IExpr::Unbound(*x)),
            },
            Expr::Lit(Lit::Int(v)) => CExpr::Int(IExpr::Int(*v)),
            Expr::Lit(Lit::Bool(v)) => CExpr::Bool(BExpr::Bool(*v)),
            Expr::Lit(Lit::Float(_)) => CExpr::Int(IExpr::Float),
            Expr::Neg(a) => CExpr::Int(IExpr::Neg(Box::new(self.int(a)))),
            Expr::BinOp(op, a, b) => {
                let int_op = match op {
                    BinOp::Add => IntOp::Add,
                    BinOp::Sub => IntOp::Sub,
                    BinOp::Mul => IntOp::Mul,
                    BinOp::Div => IntOp::Div,
                    BinOp::Mod => IntOp::Mod,
                    BinOp::And | BinOp::Or => {
                        let (a, b) = (Box::new(self.boolean(a)), Box::new(self.boolean(b)));
                        return CExpr::Bool(match op {
                            BinOp::And => BExpr::And(a, b),
                            _ => BExpr::Or(a, b),
                        });
                    }
                    BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        let cmp = match op {
                            BinOp::Eq => CmpOp::Eq,
                            BinOp::Lt => CmpOp::Lt,
                            BinOp::Le => CmpOp::Le,
                            BinOp::Gt => CmpOp::Gt,
                            _ => CmpOp::Ge,
                        };
                        let (a, b) = (Box::new(self.int(a)), Box::new(self.int(b)));
                        return CExpr::Bool(BExpr::Cmp(cmp, a, b));
                    }
                };
                let (a, b) = (Box::new(self.int(a)), Box::new(self.int(b)));
                CExpr::Int(IExpr::Arith(int_op, a, b))
            }
            Expr::Stride { buf, dim } => CExpr::Int(IExpr::Stride(self.var(*buf), *dim)),
            Expr::ReadConfig { config, field } => CExpr::Config(self.config(*config, *field)),
            Expr::Read { .. } | Expr::Window { .. } | Expr::BuiltIn { .. } => {
                CExpr::Int(IExpr::Data)
            }
        }
    }

    /// A control expression used as an integer.
    fn int(&mut self, e: &'p Expr) -> IExpr {
        match self.ctrl(e) {
            CExpr::Int(i) => i,
            CExpr::Bool(b) => IExpr::NotInt(Box::new(b)),
            CExpr::Slot(v) => IExpr::Slot(v),
            CExpr::Config(c) => IExpr::Config(c),
        }
    }

    /// A control expression used as a boolean.
    fn boolean(&mut self, e: &'p Expr) -> BExpr {
        match self.ctrl(e) {
            CExpr::Bool(b) => b,
            CExpr::Int(i) => BExpr::NotBool(Box::new(i)),
            CExpr::Slot(v) => BExpr::Slot(v),
            CExpr::Config(c) => BExpr::Config(c),
        }
    }

    fn data(&mut self, e: &'p Expr) -> DExpr {
        match e {
            Expr::Lit(Lit::Float(v)) => DExpr::Lit(*v),
            Expr::Lit(Lit::Int(v)) => DExpr::Lit(*v as f64),
            Expr::Read { buf, idx } => DExpr::Read(self.access(*buf, idx)),
            Expr::BinOp(op, a, b) => {
                DExpr::Bin(*op, Box::new(self.data(a)), Box::new(self.data(b)))
            }
            Expr::Neg(a) => DExpr::Neg(Box::new(self.data(a))),
            Expr::BuiltIn { func, args } => DExpr::BuiltIn {
                func: Builtin::resolve(*func),
                args: args.iter().map(|a| self.data(a)).collect(),
            },
            Expr::Lit(Lit::Bool(_))
            | Expr::Var(_)
            | Expr::Window { .. }
            | Expr::Stride { .. }
            | Expr::ReadConfig { .. } => DExpr::Ctrl,
        }
    }

    fn view(&mut self, e: &'p Expr) -> VExpr {
        match e {
            Expr::Read { buf, idx } if idx.is_empty() => VExpr::Whole(self.var(*buf)),
            Expr::Read { buf, idx } => VExpr::Point(self.var(*buf), self.ints(idx)),
            Expr::Window { buf, coords } => VExpr::Window(
                self.var(*buf),
                coords
                    .iter()
                    .map(|c| match c {
                        WAccess::Point(p) => WCoord::Point(self.int(p)),
                        WAccess::Interval(lo, hi) => WCoord::Interval(self.int(lo), self.int(hi)),
                    })
                    .collect(),
            ),
            _ => VExpr::Temp(self.data(e)),
        }
    }
}
