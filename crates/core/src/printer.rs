//! Pretty-printing of procedures in the Exo surface syntax.
//!
//! The output mirrors the paper's examples (`@proc`, `@instr("…")`,
//! `for i in seq(lo, hi):`, `x : f32[n, m] @ DRAM`, …) and round-trips
//! through the `exo-front` parser.

use std::fmt::Write as _;

use crate::ir::{ArgType, Block, Expr, Proc, Stmt, WAccess};

/// Renders an expression in surface syntax.
pub fn expr_to_string(e: &Expr) -> String {
    print_expr(e, 0)
}

// Precedence levels: or=1, and=2, cmp=3, add/sub=4, mul/div/mod=5, unary=6.
fn prec(e: &Expr) -> u8 {
    use crate::ir::BinOp::*;
    match e {
        Expr::BinOp(op, ..) => match op {
            Or => 1,
            And => 2,
            Eq | Lt | Le | Gt | Ge => 3,
            Add | Sub => 4,
            Mul | Div | Mod => 5,
        },
        Expr::Neg(_) => 6,
        _ => 7,
    }
}

fn print_expr(e: &Expr, min_prec: u8) -> String {
    let p = prec(e);
    let s = match e {
        Expr::Var(x) => x.name(),
        Expr::Lit(l) => format!("{l}"),
        Expr::BinOp(op, a, b) => {
            format!("{} {} {}", print_expr(a, p), op, print_expr(b, p + 1))
        }
        Expr::Neg(a) => format!("-{}", print_expr(a, 7)),
        Expr::Read { buf, idx } => {
            if idx.is_empty() {
                buf.name()
            } else {
                format!(
                    "{}[{}]",
                    buf.name(),
                    idx.iter()
                        .map(|i| print_expr(i, 0))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
        }
        Expr::Window { buf, coords } => {
            let parts: Vec<String> = coords
                .iter()
                .map(|c| match c {
                    WAccess::Point(p) => print_expr(p, 0),
                    WAccess::Interval(lo, hi) => {
                        format!("{}:{}", print_expr(lo, 0), print_expr(hi, 0))
                    }
                })
                .collect();
            format!("{}[{}]", buf.name(), parts.join(", "))
        }
        Expr::Stride { buf, dim } => format!("stride({}, {})", buf.name(), dim),
        Expr::ReadConfig { config, field } => format!("{}.{}", config.name(), field.name()),
        Expr::BuiltIn { func, args } => format!(
            "{}({})",
            func.name(),
            args.iter()
                .map(|a| print_expr(a, 0))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    };
    if p < min_prec {
        format!("({s})")
    } else {
        s
    }
}

fn print_block(b: &Block, indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    if b.is_empty() {
        let _ = writeln!(out, "{pad}pass");
        return;
    }
    for s in b {
        match s {
            Stmt::Pass => {
                let _ = writeln!(out, "{pad}pass");
            }
            Stmt::Assign { buf, idx, rhs } => {
                let lhs = if idx.is_empty() {
                    buf.name()
                } else {
                    format!(
                        "{}[{}]",
                        buf.name(),
                        idx.iter()
                            .map(|i| print_expr(i, 0))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                let _ = writeln!(out, "{pad}{lhs} = {}", print_expr(rhs, 0));
            }
            Stmt::Reduce { buf, idx, rhs } => {
                let lhs = if idx.is_empty() {
                    buf.name()
                } else {
                    format!(
                        "{}[{}]",
                        buf.name(),
                        idx.iter()
                            .map(|i| print_expr(i, 0))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                let _ = writeln!(out, "{pad}{lhs} += {}", print_expr(rhs, 0));
            }
            Stmt::WriteConfig { config, field, rhs } => {
                let _ = writeln!(
                    out,
                    "{pad}{}.{} = {}",
                    config.name(),
                    field.name(),
                    print_expr(rhs, 0)
                );
            }
            Stmt::If { cond, body, orelse } => {
                let _ = writeln!(out, "{pad}if {}:", print_expr(cond, 0));
                print_block(body, indent + 1, out);
                if !orelse.is_empty() {
                    let _ = writeln!(out, "{pad}else:");
                    print_block(orelse, indent + 1, out);
                }
            }
            Stmt::For { iter, lo, hi, body } => {
                let _ = writeln!(
                    out,
                    "{pad}for {} in seq({}, {}):",
                    iter.name(),
                    print_expr(lo, 0),
                    print_expr(hi, 0)
                );
                print_block(body, indent + 1, out);
            }
            Stmt::Alloc {
                name,
                ty,
                shape,
                mem,
            } => {
                let dims = if shape.is_empty() {
                    String::new()
                } else {
                    format!(
                        "[{}]",
                        shape
                            .iter()
                            .map(|e| print_expr(e, 0))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                let _ = writeln!(out, "{pad}{} : {}{} @ {}", name.name(), ty, dims, mem);
            }
            Stmt::WindowDef { name, rhs } => {
                let _ = writeln!(out, "{pad}{} = {}", name.name(), print_expr(rhs, 0));
            }
            Stmt::Call { proc, args } => {
                let _ = writeln!(
                    out,
                    "{pad}{}({})",
                    proc.name.name(),
                    args.iter()
                        .map(|a| print_expr(a, 0))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
        }
    }
}

/// Renders a whole procedure in surface syntax.
pub fn proc_to_string(p: &Proc) -> String {
    let mut out = String::new();
    let _ = match &p.instr {
        // escaped the way the exo-front lexer reads string literals
        Some(t) => writeln!(
            out,
            "@instr(\"{}\")",
            t.c_instr
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        ),
        None => writeln!(out, "@proc"),
    };
    let args: Vec<String> = p
        .args
        .iter()
        .map(|a| {
            let name = a.name.name();
            match &a.ty {
                ArgType::Ctrl(ct) => format!("{name}: {ct}"),
                ArgType::Scalar { ty, mem } => format!("{name}: {ty} @ {mem}"),
                ArgType::Tensor {
                    ty,
                    shape,
                    window,
                    mem,
                } => {
                    let dims = shape
                        .iter()
                        .map(|e| print_expr(e, 0))
                        .collect::<Vec<_>>()
                        .join(", ");
                    if *window {
                        format!("{name}: [{ty}][{dims}] @ {mem}")
                    } else {
                        format!("{name}: {ty}[{dims}] @ {mem}")
                    }
                }
            }
        })
        .collect();
    let _ = writeln!(out, "def {}({}):", p.name.name(), args.join(", "));
    for pred in &p.preds {
        let _ = writeln!(out, "    assert {}", print_expr(pred, 0));
    }
    print_block(&p.body, 1, &mut out);
    out
}

impl std::fmt::Display for Proc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", proc_to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::BinOp;
    use crate::sym::Sym;

    #[test]
    fn parenthesization_respects_precedence() {
        let x = Sym::new("x");
        // (x + 1) * 2 needs parens; x + 1 * 2 does not
        let e1 = Expr::var(x).add(Expr::int(1)).mul(Expr::int(2));
        assert_eq!(expr_to_string(&e1), "(x + 1) * 2");
        let e2 = Expr::var(x).add(Expr::int(1).mul(Expr::int(2)));
        assert_eq!(expr_to_string(&e2), "x + 1 * 2");
    }

    #[test]
    fn subtraction_is_left_assoc() {
        let e = Expr::int(1).sub(Expr::int(2)).sub(Expr::int(3));
        assert_eq!(expr_to_string(&e), "1 - 2 - 3");
        let e2 = Expr::bin(
            BinOp::Sub,
            Expr::int(1),
            Expr::bin(BinOp::Sub, Expr::int(2), Expr::int(3)),
        );
        assert_eq!(expr_to_string(&e2), "1 - (2 - 3)");
    }

    #[test]
    fn windows_and_strides_print() {
        let x = Sym::new("x");
        let e = Expr::Window {
            buf: x,
            coords: vec![
                WAccess::Interval(Expr::int(0), Expr::int(4)),
                WAccess::Point(Expr::int(2)),
            ],
        };
        assert_eq!(expr_to_string(&e), "x[0:4, 2]");
        assert_eq!(
            expr_to_string(&Expr::Stride { buf: x, dim: 1 }),
            "stride(x, 1)"
        );
    }

    #[test]
    fn empty_block_prints_pass() {
        let mut out = String::new();
        print_block(&vec![], 1, &mut out);
        assert_eq!(out, "    pass\n");
    }
}
