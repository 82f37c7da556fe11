//! Front-end well-formedness checks (paper §3.1, §4.2): scoping, the
//! control/data separation, and the quasi-affine restriction on control
//! arithmetic.
//!
//! Bounds checking and assertion checking require the effect analysis and
//! SMT solver and live in `exo-analysis`; the checks here are purely
//! structural.

use std::fmt;

use crate::hash::HashMap;
use crate::ir::{ArgType, BinOp, Block, Expr, Proc, Stmt, WAccess};
use crate::sym::Sym;
use crate::types::CtrlType;

/// An error found by [`check_proc`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypeError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for TypeError {}

fn err<T>(message: impl Into<String>) -> Result<T, TypeError> {
    Err(TypeError {
        message: message.into(),
    })
}

/// What kind of thing a symbol denotes in scope.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Binding {
    Ctrl(CtrlType),
    /// Data buffer / window / scalar with a number of retained dimensions.
    Data {
        dims: usize,
    },
}

/// Checks a procedure for scoping, control/data separation, and
/// quasi-affine control arithmetic.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_proc(p: &Proc) -> Result<(), TypeError> {
    let mut env: HashMap<Sym, Binding> = HashMap::default();
    for arg in &p.args {
        let b = match &arg.ty {
            ArgType::Ctrl(ct) => Binding::Ctrl(*ct),
            ArgType::Scalar { .. } => Binding::Data { dims: 0 },
            ArgType::Tensor { shape, .. } => Binding::Data { dims: shape.len() },
        };
        // dependent shapes may only mention earlier control args
        if let ArgType::Tensor { shape, .. } = &arg.ty {
            for e in shape {
                check_ctrl(e, &env)?;
            }
        }
        env.insert(arg.name, b);
    }
    for pred in &p.preds {
        check_ctrl(pred, &env)?;
    }
    check_block(&p.body, &mut env)
}

fn check_block(b: &Block, env: &mut HashMap<Sym, Binding>) -> Result<(), TypeError> {
    let mut added: Vec<(Sym, Option<Binding>)> = Vec::new();
    let result = (|| {
        for s in b {
            match s {
                Stmt::Pass => {}
                Stmt::Assign { buf, idx, rhs } | Stmt::Reduce { buf, idx, rhs } => {
                    check_data_target(*buf, idx, env)?;
                    for e in idx {
                        check_ctrl(e, env)?;
                    }
                    check_data_expr(rhs, env)?;
                }
                Stmt::WriteConfig { rhs, .. } => check_ctrl(rhs, env)?,
                Stmt::If { cond, body, orelse } => {
                    check_ctrl(cond, env)?;
                    check_block(body, env)?;
                    check_block(orelse, env)?;
                }
                Stmt::For { iter, lo, hi, body } => {
                    check_ctrl(lo, env)?;
                    check_ctrl(hi, env)?;
                    let prev = env.insert(*iter, Binding::Ctrl(CtrlType::Index));
                    let r = check_block(body, env);
                    match prev {
                        Some(p) => {
                            env.insert(*iter, p);
                        }
                        None => {
                            env.remove(iter);
                        }
                    }
                    r?;
                }
                Stmt::Alloc { name, shape, .. } => {
                    for e in shape {
                        check_ctrl(e, env)?;
                    }
                    added.push((
                        *name,
                        env.insert(*name, Binding::Data { dims: shape.len() }),
                    ));
                }
                Stmt::WindowDef { name, rhs } => {
                    let dims = match rhs {
                        Expr::Window { buf, coords } => {
                            check_window(*buf, coords, env)?;
                            coords.iter().filter(|c| c.is_interval()).count()
                        }
                        _ => return err("window definition right-hand side must be a window"),
                    };
                    added.push((*name, env.insert(*name, Binding::Data { dims })));
                }
                Stmt::Call { proc, args } => {
                    if args.len() != proc.args.len() {
                        return err(format!(
                            "call to {} expects {} arguments, got {}",
                            proc.name,
                            proc.args.len(),
                            args.len()
                        ));
                    }
                    for (actual, formal) in args.iter().zip(&proc.args) {
                        match &formal.ty {
                            ArgType::Ctrl(_) => check_ctrl(actual, env)?,
                            ArgType::Scalar { .. } => check_data_arg(actual, 0, env)?,
                            ArgType::Tensor { shape, .. } => {
                                check_data_arg(actual, shape.len(), env)?
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    })();
    for (s, prev) in added.into_iter().rev() {
        match prev {
            Some(p) => {
                env.insert(s, p);
            }
            None => {
                env.remove(&s);
            }
        }
    }
    result
}

fn check_data_target(buf: Sym, idx: &[Expr], env: &HashMap<Sym, Binding>) -> Result<(), TypeError> {
    match env.get(&buf) {
        Some(Binding::Data { dims }) if *dims == idx.len() => Ok(()),
        Some(Binding::Data { dims }) => err(format!(
            "buffer {buf} has {dims} dimensions but is accessed with {} indices",
            idx.len()
        )),
        Some(Binding::Ctrl(_)) => err(format!("cannot assign to control variable {buf}")),
        None => err(format!("unknown buffer {buf}")),
    }
}

fn check_window(
    buf: Sym,
    coords: &[WAccess],
    env: &HashMap<Sym, Binding>,
) -> Result<(), TypeError> {
    match env.get(&buf) {
        Some(Binding::Data { dims }) if *dims == coords.len() => {
            for c in coords {
                match c {
                    WAccess::Point(p) => check_ctrl(p, env)?,
                    WAccess::Interval(lo, hi) => {
                        check_ctrl(lo, env)?;
                        check_ctrl(hi, env)?;
                    }
                }
            }
            Ok(())
        }
        Some(Binding::Data { dims }) => err(format!(
            "window over {buf}: expected {dims} coordinates, got {}",
            coords.len()
        )),
        _ => err(format!("window over unknown or non-data symbol {buf}")),
    }
}

fn check_data_arg(e: &Expr, dims: usize, env: &HashMap<Sym, Binding>) -> Result<(), TypeError> {
    match e {
        Expr::Read { buf, idx } if idx.is_empty() => match env.get(buf) {
            // passing a whole buffer: dimensions must match the formal
            Some(Binding::Data { dims: d }) if *d == dims => Ok(()),
            Some(Binding::Data { dims: d }) => err(format!(
                "argument {buf} has {d} dimensions, expected {dims}"
            )),
            _ => err(format!("unknown data argument {buf}")),
        },
        Expr::Window { buf, coords } => {
            check_window(*buf, coords, env)?;
            let kept = coords.iter().filter(|c| c.is_interval()).count();
            if kept == dims {
                Ok(())
            } else {
                err(format!(
                    "window argument keeps {kept} dimensions, expected {dims}"
                ))
            }
        }
        // scalar data expressions may be passed to scalar formals
        _ if dims == 0 => check_data_expr(e, env),
        _ => err("tensor argument must be a buffer name or window expression"),
    }
}

fn check_ctrl(e: &Expr, env: &HashMap<Sym, Binding>) -> Result<(), TypeError> {
    match e {
        Expr::Var(x) => match env.get(x) {
            Some(Binding::Ctrl(_)) => Ok(()),
            Some(Binding::Data { .. }) => err(format!(
                "data variable {x} used where a control value is required"
            )),
            None => err(format!("unknown variable {x}")),
        },
        Expr::Lit(crate::ir::Lit::Float(_)) => {
            err("float literal used where a control value is required")
        }
        Expr::Lit(_) => Ok(()),
        Expr::BinOp(op, a, b) => {
            check_ctrl(a, env)?;
            check_ctrl(b, env)?;
            // quasi-affine restriction
            match op {
                BinOp::Mul => {
                    if a.as_int().is_none() && b.as_int().is_none() {
                        err("control multiplication requires one constant operand")
                    } else {
                        Ok(())
                    }
                }
                BinOp::Div | BinOp::Mod => {
                    if b.as_int().is_none() {
                        err("control division/modulo requires a constant divisor")
                    } else if b.as_int() == Some(0) {
                        err("division by zero in control expression")
                    } else {
                        Ok(())
                    }
                }
                _ => Ok(()),
            }
        }
        Expr::Neg(a) => check_ctrl(a, env),
        Expr::Stride { buf, .. } => match env.get(buf) {
            Some(Binding::Data { .. }) => Ok(()),
            _ => err(format!("stride() of unknown or non-data symbol {buf}")),
        },
        Expr::ReadConfig { .. } => Ok(()),
        Expr::Read { .. } | Expr::Window { .. } | Expr::BuiltIn { .. } => {
            err("data expression used where a control value is required")
        }
    }
}

fn check_data_expr(e: &Expr, env: &HashMap<Sym, Binding>) -> Result<(), TypeError> {
    match e {
        Expr::Read { buf, idx } => {
            check_data_target(*buf, idx, env)?;
            for i in idx {
                check_ctrl(i, env)?;
            }
            Ok(())
        }
        Expr::Lit(crate::ir::Lit::Float(_)) | Expr::Lit(crate::ir::Lit::Int(_)) => Ok(()),
        Expr::Lit(crate::ir::Lit::Bool(_)) => err("bool literal is not a data value"),
        Expr::BinOp(op, a, b) => {
            if op.is_predicate() || matches!(op, BinOp::Mod) {
                return err(format!("operator {op} is not defined on data values"));
            }
            check_data_expr(a, env)?;
            check_data_expr(b, env)
        }
        Expr::Neg(a) => check_data_expr(a, env),
        Expr::BuiltIn { args, .. } => {
            for a in args {
                check_data_expr(a, env)?;
            }
            Ok(())
        }
        Expr::Var(x) => err(format!(
            "control variable {x} used where a data value is required \
             (control values may not flow into data)"
        )),
        Expr::Window { .. } => err("window expression used as a data value"),
        Expr::Stride { .. } | Expr::ReadConfig { .. } => {
            err("control expression used where a data value is required")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{read, ProcBuilder};
    use crate::types::DataType;

    #[test]
    fn accepts_simple_gemm() {
        let mut b = ProcBuilder::new("gemm");
        let n = b.size("n");
        let a = b.tensor("A", DataType::F32, vec![Expr::var(n), Expr::var(n)]);
        let c = b.tensor("C", DataType::F32, vec![Expr::var(n), Expr::var(n)]);
        let i = b.begin_for("i", Expr::int(0), Expr::var(n));
        let j = b.begin_for("j", Expr::int(0), Expr::var(n));
        b.reduce(
            c,
            vec![Expr::var(i), Expr::var(j)],
            read(a, vec![Expr::var(i), Expr::var(j)]),
        );
        b.end_for();
        b.end_for();
        assert!(check_proc(&b.finish()).is_ok());
    }

    #[test]
    fn rejects_nonaffine_multiplication() {
        let mut b = ProcBuilder::new("p");
        let n = b.size("n");
        let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
        let i = b.begin_for("i", Expr::int(0), Expr::var(n));
        // A[i * n] — i * n is not quasi-affine
        b.assign(a, vec![Expr::var(i).mul(Expr::var(n))], Expr::float(0.0));
        b.end_for();
        let e = check_proc(&b.finish()).unwrap_err();
        assert!(e.message.contains("constant operand"), "{e}");
    }

    #[test]
    fn rejects_data_in_control_position() {
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
        let x = b.scalar("x", DataType::F32);
        // for i in seq(0, A[0]) — data in a loop bound
        let _ = x;
        let i = b.begin_for("i", Expr::int(0), read(a, vec![Expr::int(0)]));
        let _ = i;
        b.stmt(Stmt::Pass);
        b.end_for();
        assert!(check_proc(&b.finish()).is_err());
    }

    #[test]
    fn rejects_wrong_arity_access() {
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(4), Expr::int(4)]);
        b.assign(a, vec![Expr::int(0)], Expr::float(0.0));
        let e = check_proc(&b.finish()).unwrap_err();
        assert!(e.message.contains("dimensions"), "{e}");
    }

    #[test]
    fn rejects_unknown_variable() {
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
        let ghost = Sym::new("ghost");
        b.assign(a, vec![Expr::var(ghost)], Expr::float(0.0));
        assert!(check_proc(&b.finish()).is_err());
    }

    #[test]
    fn rejects_division_by_zero() {
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
        let i = b.begin_for("i", Expr::int(0), Expr::int(4));
        b.assign(a, vec![Expr::var(i).div(Expr::int(0))], Expr::float(0.0));
        b.end_for();
        assert!(check_proc(&b.finish()).is_err());
    }

    #[test]
    fn loop_variable_scoping() {
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
        let i = b.begin_for("i", Expr::int(0), Expr::int(4));
        b.stmt(Stmt::Pass);
        b.end_for();
        // i is out of scope here
        b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
        assert!(check_proc(&b.finish()).is_err());
    }

    #[test]
    fn call_arity_checked() {
        let mut callee = ProcBuilder::new("callee");
        let _ = callee.size("n");
        callee.stmt(Stmt::Pass);
        let callee = callee.finish();

        let mut b = ProcBuilder::new("caller");
        b.call(&callee, vec![]);
        let e = check_proc(&b.finish()).unwrap_err();
        assert!(e.message.contains("expects 1 arguments"), "{e}");
    }
}
