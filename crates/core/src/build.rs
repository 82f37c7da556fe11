//! Ergonomic construction of procedures.
//!
//! The builder plays the role of the Python embedding in the paper: it is
//! how algorithm authors write the *simple* version of a kernel, which is
//! then rewritten by scheduling. See `examples/quickstart.rs` for the
//! GEMM of paper §2 written with this API.

use std::sync::Arc;

use crate::ir::{ArgType, Block, Expr, FnArg, InstrTemplate, Proc, Stmt, WAccess};
use crate::sym::Sym;
use crate::types::{CtrlType, DataType, MemName};

/// Builder for a [`Proc`].
///
/// # Examples
///
/// ```
/// use exo_core::build::ProcBuilder;
/// use exo_core::types::DataType;
/// use exo_core::ir::Expr;
///
/// let mut b = ProcBuilder::new("copy");
/// let n = b.size("n");
/// let src = b.tensor("src", DataType::F32, vec![Expr::var(n)]);
/// let dst = b.tensor("dst", DataType::F32, vec![Expr::var(n)]);
/// let i = b.begin_for("i", Expr::int(0), Expr::var(n));
/// b.assign(dst, vec![Expr::var(i)], Expr::Read { buf: src, idx: vec![Expr::var(i)] });
/// b.end_for();
/// let p = b.finish();
/// assert_eq!(p.args.len(), 3);
/// ```
#[derive(Debug)]
pub struct ProcBuilder {
    name: Sym,
    args: Vec<FnArg>,
    preds: Vec<Expr>,
    // stack of open blocks; frames[0] is the proc body
    frames: Vec<Frame>,
    instr: Option<InstrTemplate>,
}

#[derive(Debug)]
enum Frame {
    Top(Block),
    For {
        iter: Sym,
        lo: Expr,
        hi: Expr,
        body: Block,
    },
    If {
        cond: Expr,
        body: Block,
        in_else: bool,
        then_done: Block,
    },
}

impl ProcBuilder {
    /// Starts building a procedure with the given name.
    pub fn new(name: impl Into<String>) -> ProcBuilder {
        ProcBuilder {
            name: Sym::new(name),
            args: Vec::new(),
            preds: Vec::new(),
            frames: vec![Frame::Top(Vec::new())],
            instr: None,
        }
    }

    /// Declares a `size` parameter and returns its symbol.
    pub fn size(&mut self, name: &str) -> Sym {
        self.ctrl(name, CtrlType::Size)
    }

    /// Declares a control parameter of the given type.
    pub fn ctrl(&mut self, name: &str, ty: CtrlType) -> Sym {
        let s = Sym::new(name);
        self.args.push(FnArg {
            name: s,
            ty: ArgType::Ctrl(ty),
        });
        s
    }

    /// Declares a dense tensor parameter in DRAM.
    pub fn tensor(&mut self, name: &str, ty: DataType, shape: Vec<Expr>) -> Sym {
        self.tensor_in(name, ty, shape, MemName::dram())
    }

    /// Declares a dense tensor parameter in the given memory.
    pub fn tensor_in(&mut self, name: &str, ty: DataType, shape: Vec<Expr>, mem: MemName) -> Sym {
        let s = Sym::new(name);
        self.args.push(FnArg {
            name: s,
            ty: ArgType::Tensor {
                ty,
                shape,
                window: false,
                mem,
            },
        });
        s
    }

    /// Declares a window parameter (`[R][n,m]` in paper syntax) in the
    /// given memory.
    pub fn window_arg(&mut self, name: &str, ty: DataType, shape: Vec<Expr>, mem: MemName) -> Sym {
        let s = Sym::new(name);
        self.args.push(FnArg {
            name: s,
            ty: ArgType::Tensor {
                ty,
                shape,
                window: true,
                mem,
            },
        });
        s
    }

    /// Declares a scalar data parameter.
    pub fn scalar(&mut self, name: &str, ty: DataType) -> Sym {
        let s = Sym::new(name);
        self.args.push(FnArg {
            name: s,
            ty: ArgType::Scalar {
                ty,
                mem: MemName::dram(),
            },
        });
        s
    }

    /// Adds a static assertion (pre-condition).
    pub fn assert_pred(&mut self, e: Expr) -> &mut Self {
        self.preds.push(e);
        self
    }

    /// Marks the procedure as an `@instr` with the given C template.
    pub fn instr(&mut self, c_instr: impl Into<String>) -> &mut Self {
        self.instr = Some(InstrTemplate {
            c_instr: c_instr.into(),
        });
        self
    }

    fn cur(&mut self) -> &mut Block {
        // The builder opens `Frame::Top` in `new` and only `finish`/`end_*`
        // pop frames (with their own balance checks), so an empty stack is
        // unreachable through the public API.
        #[allow(clippy::expect_used)]
        match self.frames.last_mut().expect("builder has no open block") {
            Frame::Top(b) => b,
            Frame::For { body, .. } => body,
            Frame::If {
                body,
                in_else,
                then_done,
                ..
            } => {
                if *in_else {
                    body
                } else {
                    let _ = then_done; // then statements accumulate in body until else()
                    body
                }
            }
        }
    }

    /// Emits a statement into the current block.
    pub fn stmt(&mut self, s: Stmt) -> &mut Self {
        self.cur().push(s);
        self
    }

    /// Emits `buf[idx] = rhs`.
    pub fn assign(&mut self, buf: Sym, idx: Vec<Expr>, rhs: Expr) -> &mut Self {
        self.stmt(Stmt::Assign { buf, idx, rhs })
    }

    /// Emits `buf[idx] += rhs`.
    pub fn reduce(&mut self, buf: Sym, idx: Vec<Expr>, rhs: Expr) -> &mut Self {
        self.stmt(Stmt::Reduce { buf, idx, rhs })
    }

    /// Emits a configuration write.
    pub fn write_config(&mut self, config: Sym, field: Sym, rhs: Expr) -> &mut Self {
        self.stmt(Stmt::WriteConfig { config, field, rhs })
    }

    /// Emits an allocation and returns the buffer symbol.
    pub fn alloc(&mut self, name: &str, ty: DataType, shape: Vec<Expr>, mem: MemName) -> Sym {
        let s = Sym::new(name);
        self.stmt(Stmt::Alloc {
            name: s,
            ty,
            shape,
            mem,
        });
        s
    }

    /// Emits a window definition and returns the window symbol.
    pub fn window(&mut self, name: &str, base: Sym, coords: Vec<WAccess>) -> Sym {
        let s = Sym::new(name);
        self.stmt(Stmt::WindowDef {
            name: s,
            rhs: Expr::Window { buf: base, coords },
        });
        s
    }

    /// Emits a call to `proc`.
    pub fn call(&mut self, proc: &Arc<Proc>, args: Vec<Expr>) -> &mut Self {
        self.stmt(Stmt::Call {
            proc: Arc::clone(proc),
            args,
        })
    }

    /// Opens `for name in seq(lo, hi):`, returning the iteration variable.
    /// Close with [`ProcBuilder::end_for`].
    pub fn begin_for(&mut self, name: &str, lo: Expr, hi: Expr) -> Sym {
        let iter = Sym::new(name);
        self.frames.push(Frame::For {
            iter,
            lo,
            hi,
            body: Vec::new(),
        });
        iter
    }

    /// Closes the innermost `for`.
    ///
    /// # Panics
    ///
    /// Panics if the innermost open construct is not a `for`.
    pub fn end_for(&mut self) -> &mut Self {
        match self.frames.pop() {
            Some(Frame::For { iter, lo, hi, body }) => {
                self.cur().push(Stmt::For { iter, lo, hi, body });
                self
            }
            _ => panic!("end_for: innermost open construct is not a for"),
        }
    }

    /// Opens `if cond:`. Close with [`ProcBuilder::end_if`]; switch to the
    /// else-branch with [`ProcBuilder::begin_else`].
    pub fn begin_if(&mut self, cond: Expr) -> &mut Self {
        self.frames.push(Frame::If {
            cond,
            body: Vec::new(),
            in_else: false,
            then_done: Vec::new(),
        });
        self
    }

    /// Switches the innermost open `if` to its else-branch.
    ///
    /// # Panics
    ///
    /// Panics if the innermost open construct is not an `if`, or if the
    /// else branch was already begun.
    pub fn begin_else(&mut self) -> &mut Self {
        match self.frames.last_mut() {
            Some(Frame::If {
                body,
                in_else,
                then_done,
                ..
            }) if !*in_else => {
                std::mem::swap(then_done, body);
                *in_else = true;
                self
            }
            _ => panic!("begin_else: no open if (or else already begun)"),
        }
    }

    /// Closes the innermost `if`.
    ///
    /// # Panics
    ///
    /// Panics if the innermost open construct is not an `if`.
    pub fn end_if(&mut self) -> &mut Self {
        match self.frames.pop() {
            Some(Frame::If {
                cond,
                body,
                in_else,
                then_done,
            }) => {
                let (then_b, else_b) = if in_else {
                    (then_done, body)
                } else {
                    (body, then_done)
                };
                self.cur().push(Stmt::If {
                    cond,
                    body: then_b,
                    orelse: else_b,
                });
                self
            }
            _ => panic!("end_if: innermost open construct is not an if"),
        }
    }

    /// Finishes the procedure.
    ///
    /// # Panics
    ///
    /// Panics if any `for` or `if` is still open.
    pub fn finish(mut self) -> Arc<Proc> {
        assert_eq!(self.frames.len(), 1, "unclosed for/if in ProcBuilder");
        let body = match self.frames.pop() {
            Some(Frame::Top(b)) => b,
            _ => unreachable!(),
        };
        Arc::new(Proc {
            name: self.name,
            args: self.args,
            preds: self.preds,
            body,
            instr: self.instr,
        })
    }
}

/// Shorthand for a buffer read expression.
pub fn read(buf: Sym, idx: Vec<Expr>) -> Expr {
    Expr::Read { buf, idx }
}

/// Shorthand for a scalar read expression.
pub fn read0(buf: Sym) -> Expr {
    Expr::Read { buf, idx: vec![] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_loops() {
        let mut b = ProcBuilder::new("gemm");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(8), Expr::int(8)]);
        let c = b.tensor("C", DataType::F32, vec![Expr::int(8), Expr::int(8)]);
        let i = b.begin_for("i", Expr::int(0), Expr::int(8));
        let j = b.begin_for("j", Expr::int(0), Expr::int(8));
        b.reduce(
            c,
            vec![Expr::var(i), Expr::var(j)],
            read(a, vec![Expr::var(i), Expr::var(j)]),
        );
        b.end_for();
        b.end_for();
        let p = b.finish();
        assert_eq!(p.body.len(), 1);
        match &p.body[0] {
            Stmt::For { body, .. } => assert!(matches!(body[0], Stmt::For { .. })),
            _ => panic!(),
        }
    }

    #[test]
    fn builds_if_else() {
        let mut b = ProcBuilder::new("p");
        let x = b.ctrl("x", CtrlType::Int);
        b.begin_if(Expr::var(x).lt(Expr::int(0)));
        b.stmt(Stmt::Pass);
        b.begin_else();
        b.stmt(Stmt::Pass);
        b.stmt(Stmt::Pass);
        b.end_if();
        let p = b.finish();
        match &p.body[0] {
            Stmt::If { body, orelse, .. } => {
                assert_eq!(body.len(), 1);
                assert_eq!(orelse.len(), 2);
            }
            _ => panic!(),
        }
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unclosed_for_panics() {
        let mut b = ProcBuilder::new("p");
        b.begin_for("i", Expr::int(0), Expr::int(4));
        let _ = b.finish();
    }

    #[test]
    fn instr_annotation() {
        let mut b = ProcBuilder::new("ld");
        b.instr("hw_ld({dst}, {src});");
        b.stmt(Stmt::Pass);
        let p = b.finish();
        assert!(p.is_instr());
        assert_eq!(p.instr.as_ref().unwrap().c_instr, "hw_ld({dst}, {src});");
    }
}
