//! The resolved form the interpreter executes.
//!
//! [`lower`] walks a procedure once per [`crate::Machine::run`] and
//! resolves every name: each binder (formal, loop iterator, `Alloc`,
//! `WindowDef`) gets a frame slot index, and each use of a symbol points
//! at the slot of the innermost binder in scope, so a frame is a
//! `Vec<Slot>` indexed directly. Builtins become an enum, and each
//! distinct callee (by `Arc` pointer) is lowered once and called by
//! index; `@instr` callees carry their instruction and formal names as
//! ready-made [`TraceName`]s, which every traced call shares.
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

use crate::trace::TraceName;

/// A use of a symbol: the frame slot of its binder (`None` when no
/// binder is in scope) and the symbol itself, for error messages.
#[derive(Clone, Copy)]
pub(crate) struct Var {
    pub slot: Option<usize>,
    pub sym: Sym,
}

/// A control expression.
pub(crate) enum CExpr {
    Var(Var),
    Int(i64),
    Bool(bool),
    /// A float literal (an error in control position).
    Float,
    Neg(Box<CExpr>),
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    Stride {
        buf: Var,
        dim: usize,
    },
    ReadConfig {
        config: Sym,
        field: Sym,
    },
    /// A data expression (an error in control position).
    Data,
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

/// An element access `buf[idx]`.
pub(crate) struct Access {
    pub buf: Var,
    pub idx: Vec<CExpr>,
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
    Point(Var, Vec<CExpr>),
    /// `buf[coords]` with intervals.
    Window(Var, Vec<WCoord>),
    /// Any other data expression, materialized in a 0-d temporary.
    Temp(DExpr),
}

/// One coordinate of a window expression.
pub(crate) enum WCoord {
    Point(CExpr),
    Interval(CExpr, CExpr),
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
        config: Sym,
        field: Sym,
        rhs: CExpr,
    },
    If {
        cond: CExpr,
        body: Vec<LStmt>,
        orelse: Vec<LStmt>,
    },
    For {
        iter: usize,
        lo: CExpr,
        hi: CExpr,
        body: Vec<LStmt>,
    },
    Alloc {
        slot: usize,
        name: Sym,
        ty: DataType,
        shape: Vec<CExpr>,
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
    pub shapes: Vec<Option<Vec<CExpr>>>,
    pub preds: Vec<CExpr>,
    pub body: Vec<LStmt>,
    /// Frame size.
    pub slots: usize,
    /// For an `@instr`: its name and its formals' names, as traced.
    pub instr: Option<(TraceName, Vec<TraceName>)>,
}

/// Lowers `root` and, once each, every procedure it calls. A callee
/// comes before its first caller, so the root is the last element.
pub(crate) fn lower(root: &Proc) -> Vec<LProc<'_>> {
    let mut procs = Vec::new();
    lower_proc(root, &mut procs, &mut HashMap::default());
    procs
}

/// Lowers `p` (and its callees not in `memo`) onto `procs`; returns its
/// index.
fn lower_proc<'p>(
    p: &'p Proc,
    procs: &mut Vec<LProc<'p>>,
    memo: &mut HashMap<*const Proc, usize>,
) -> usize {
    let mut cx = Lowering {
        procs,
        memo,
        scope: Vec::new(),
        slots: 0,
    };
    for a in &p.args {
        cx.bind(a.name);
    }
    let shapes = p
        .args
        .iter()
        .map(|a| match &a.ty {
            ArgType::Tensor { shape, .. } => Some(shape.iter().map(|e| cx.ctrl(e)).collect()),
            _ => None,
        })
        .collect();
    let preds = p.preds.iter().map(|e| cx.ctrl(e)).collect();
    let body = cx.block(&p.body);
    let slots = cx.slots;
    let instr = p.is_instr().then(|| {
        let names = p.args.iter().map(|a| a.name.name().into()).collect();
        (p.name.name().into(), names)
    });
    procs.push(LProc {
        src: p,
        shapes,
        preds,
        body,
        slots,
        instr,
    });
    procs.len() - 1
}

/// Lowering state of one procedure: the binders in scope, innermost
/// last.
struct Lowering<'a, 'p> {
    procs: &'a mut Vec<LProc<'p>>,
    memo: &'a mut HashMap<*const Proc, usize>,
    scope: Vec<(Sym, usize)>,
    slots: usize,
}

impl<'p> Lowering<'_, 'p> {
    fn bind(&mut self, sym: Sym) -> usize {
        let slot = self.slots;
        self.slots += 1;
        self.scope.push((sym, slot));
        slot
    }

    fn lookup(&self, sym: Sym) -> Var {
        let slot = self
            .scope
            .iter()
            .rev()
            .find(|(s, _)| *s == sym)
            .map(|&(_, slot)| slot);
        Var { slot, sym }
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
                config: *config,
                field: *field,
                rhs: self.ctrl(rhs),
            },
            Stmt::If { cond, body, orelse } => LStmt::If {
                cond: self.ctrl(cond),
                body: self.block(body),
                orelse: self.block(orelse),
            },
            Stmt::For { iter, lo, hi, body } => {
                let (lo, hi) = (self.ctrl(lo), self.ctrl(hi));
                let depth = self.scope.len();
                let iter = self.bind(*iter);
                let body = self.block(body);
                self.scope.truncate(depth);
                LStmt::For { iter, lo, hi, body }
            }
            Stmt::Alloc {
                name,
                ty,
                shape,
                mem,
            } => {
                let shape = shape.iter().map(|e| self.ctrl(e)).collect();
                LStmt::Alloc {
                    slot: self.bind(*name),
                    name: *name,
                    ty: *ty,
                    shape,
                    mem: *mem,
                }
            }
            Stmt::WindowDef { name, rhs } => {
                let rhs = self.view(rhs);
                LStmt::WindowDef {
                    slot: self.bind(*name),
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
        if let Some(&i) = self.memo.get(&Arc::as_ptr(proc)) {
            return i;
        }
        let i = lower_proc(proc, self.procs, self.memo);
        self.memo.insert(Arc::as_ptr(proc), i);
        i
    }

    fn access(&mut self, buf: Sym, idx: &'p [Expr]) -> Access {
        Access {
            buf: self.lookup(buf),
            idx: idx.iter().map(|e| self.ctrl(e)).collect(),
        }
    }

    fn ctrl(&mut self, e: &'p Expr) -> CExpr {
        match e {
            Expr::Var(x) => CExpr::Var(self.lookup(*x)),
            Expr::Lit(Lit::Int(v)) => CExpr::Int(*v),
            Expr::Lit(Lit::Bool(v)) => CExpr::Bool(*v),
            Expr::Lit(Lit::Float(_)) => CExpr::Float,
            Expr::Neg(a) => CExpr::Neg(Box::new(self.ctrl(a))),
            Expr::BinOp(op, a, b) => {
                CExpr::Bin(*op, Box::new(self.ctrl(a)), Box::new(self.ctrl(b)))
            }
            Expr::Stride { buf, dim } => CExpr::Stride {
                buf: self.lookup(*buf),
                dim: *dim,
            },
            Expr::ReadConfig { config, field } => CExpr::ReadConfig {
                config: *config,
                field: *field,
            },
            Expr::Read { .. } | Expr::Window { .. } | Expr::BuiltIn { .. } => CExpr::Data,
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
            Expr::Read { buf, idx } if idx.is_empty() => VExpr::Whole(self.lookup(*buf)),
            Expr::Read { buf, idx } => VExpr::Point(
                self.lookup(*buf),
                idx.iter().map(|e| self.ctrl(e)).collect(),
            ),
            Expr::Window { buf, coords } => VExpr::Window(
                self.lookup(*buf),
                coords
                    .iter()
                    .map(|c| match c {
                        WAccess::Point(p) => WCoord::Point(self.ctrl(p)),
                        WAccess::Interval(lo, hi) => WCoord::Interval(self.ctrl(lo), self.ctrl(hi)),
                    })
                    .collect(),
            ),
            _ => VExpr::Temp(self.data(e)),
        }
    }
}
