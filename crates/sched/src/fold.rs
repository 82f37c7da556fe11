//! Constant folding of control expressions, used by `simplify()` and by
//! rewrites (split, unroll) that substitute literals into index math.

use exo_core::ir::{BinOp, Expr, Lit};
use exo_core::visit::map_expr;
use exo_core::{Block, Stmt};

/// Folds constants in one expression (`(0 + 16·2) + ii` → `32 + ii`),
/// normalizing purely affine expressions so symbolic terms cancel
/// (`4·io + 4 − 4·io` → `4`).
pub fn fold_expr(e: &Expr) -> Expr {
    map_expr(e, &mut fold_full)
}

fn fold_full(e: Expr) -> Expr {
    let e = fold_node(e);
    match as_affine(&e) {
        Some(terms) => rebuild_affine(&terms),
        None => e,
    }
}

/// Decomposes an expression into affine terms `(constant, Σ coeff·var)`
/// when it is built purely from `+`, `-`, unary `-`, and
/// multiplication by constants.
fn as_affine(e: &Expr) -> Option<(i64, Vec<(exo_core::Sym, i64)>)> {
    fn go(e: &Expr, scale: i64, c: &mut i64, terms: &mut Vec<(exo_core::Sym, i64)>) -> bool {
        match e {
            Expr::Lit(Lit::Int(v)) => {
                *c += scale * v;
                true
            }
            Expr::Var(x) => {
                terms.push((*x, scale));
                true
            }
            Expr::Neg(a) => go(a, -scale, c, terms),
            Expr::BinOp(BinOp::Add, a, b) => go(a, scale, c, terms) && go(b, scale, c, terms),
            Expr::BinOp(BinOp::Sub, a, b) => go(a, scale, c, terms) && go(b, -scale, c, terms),
            Expr::BinOp(BinOp::Mul, a, b) => {
                if let Some(k) = a.as_int() {
                    go(b, scale * k, c, terms)
                } else if let Some(k) = b.as_int() {
                    go(a, scale * k, c, terms)
                } else {
                    false
                }
            }
            _ => false,
        }
    }
    let mut c = 0;
    let mut terms = Vec::new();
    if go(e, 1, &mut c, &mut terms) {
        // combine like terms, keeping first-occurrence order
        let mut combined: Vec<(exo_core::Sym, i64)> = Vec::new();
        for (v, k) in terms {
            match combined.iter_mut().find(|(w, _)| *w == v) {
                Some((_, kk)) => *kk += k,
                None => combined.push((v, k)),
            }
        }
        combined.retain(|(_, k)| *k != 0);
        Some((c, combined))
    } else {
        None
    }
}

fn rebuild_affine((c, terms): &(i64, Vec<(exo_core::Sym, i64)>)) -> Expr {
    let mut acc: Option<Expr> = None;
    for &(v, k) in terms {
        let t = match k {
            1 => Expr::var(v),
            -1 if acc.is_some() => Expr::var(v), // handled via Sub below
            _ => Expr::int(k.abs()).mul(Expr::var(v)),
        };
        let t = if k == -1 { Expr::var(v) } else { t };
        acc = Some(match acc {
            None => {
                if k < 0 {
                    Expr::Neg(Box::new(t))
                } else {
                    t
                }
            }
            Some(a) => {
                if k < 0 {
                    a.sub(t)
                } else {
                    a.add(t)
                }
            }
        });
    }
    match acc {
        None => Expr::int(*c),
        Some(a) => {
            if *c > 0 {
                a.add(Expr::int(*c))
            } else if *c < 0 {
                a.sub(Expr::int(-*c))
            } else {
                a
            }
        }
    }
}

fn fold_node(e: Expr) -> Expr {
    let Expr::BinOp(op, a, b) = &e else { return e };
    let (av, bv) = (a.as_int(), b.as_int());
    match (op, av, bv) {
        (BinOp::Add, Some(x), Some(y)) => Expr::int(x + y),
        (BinOp::Sub, Some(x), Some(y)) => Expr::int(x - y),
        (BinOp::Mul, Some(x), Some(y)) => Expr::int(x * y),
        (BinOp::Div, Some(x), Some(y)) if y > 0 => Expr::int(x.div_euclid(y)),
        (BinOp::Mod, Some(x), Some(y)) if y > 0 => Expr::int(x.rem_euclid(y)),
        (BinOp::Lt, Some(x), Some(y)) => Expr::bool(x < y),
        (BinOp::Le, Some(x), Some(y)) => Expr::bool(x <= y),
        (BinOp::Gt, Some(x), Some(y)) => Expr::bool(x > y),
        (BinOp::Ge, Some(x), Some(y)) => Expr::bool(x >= y),
        (BinOp::Eq, Some(x), Some(y)) => Expr::bool(x == y),
        (BinOp::Add, Some(0), _) => *b.clone(),
        (BinOp::Add, _, Some(0)) | (BinOp::Sub, _, Some(0)) => *a.clone(),
        (BinOp::Mul, Some(1), _) => *b.clone(),
        (BinOp::Mul, _, Some(1)) => *a.clone(),
        (BinOp::Mul, Some(0), _) | (BinOp::Mul, _, Some(0)) => Expr::int(0),
        // reassociate (x + c1) + c2 → x + (c1+c2)
        (BinOp::Add, None, Some(c2)) => {
            if let Expr::BinOp(BinOp::Add, x, c1) = a.as_ref() {
                if let Some(c1v) = c1.as_int() {
                    return Expr::bin(BinOp::Add, (**x).clone(), Expr::int(c1v + c2));
                }
            }
            e
        }
        (BinOp::And, _, _) => match (a.as_ref(), b.as_ref()) {
            (Expr::Lit(Lit::Bool(true)), x) | (x, Expr::Lit(Lit::Bool(true))) => x.clone(),
            (Expr::Lit(Lit::Bool(false)), _) | (_, Expr::Lit(Lit::Bool(false))) => {
                Expr::bool(false)
            }
            _ => e,
        },
        (BinOp::Or, _, _) => match (a.as_ref(), b.as_ref()) {
            (Expr::Lit(Lit::Bool(false)), x) | (x, Expr::Lit(Lit::Bool(false))) => x.clone(),
            (Expr::Lit(Lit::Bool(true)), _) | (_, Expr::Lit(Lit::Bool(true))) => Expr::bool(true),
            _ => e,
        },
        _ => e,
    }
}

/// Folds constants throughout a block, removing `if true:` wrappers and
/// dropping `if false:` branches.
pub fn fold_block(b: &Block) -> Block {
    let mut out = Vec::with_capacity(b.len());
    for s in b {
        match s {
            Stmt::If { cond, body, orelse } => {
                let cond = fold_expr(cond);
                match cond {
                    Expr::Lit(Lit::Bool(true)) => out.extend(fold_block(body)),
                    Expr::Lit(Lit::Bool(false)) => out.extend(fold_block(orelse)),
                    cond => out.push(Stmt::If {
                        cond,
                        body: fold_block(body),
                        orelse: fold_block(orelse),
                    }),
                }
            }
            Stmt::For { iter, lo, hi, body } => {
                let lo = fold_expr(lo);
                let hi = fold_expr(hi);
                if let (Some(l), Some(h)) = (lo.as_int(), hi.as_int()) {
                    if l >= h {
                        continue; // empty loop
                    }
                    if h == l + 1 {
                        // single-iteration loop: inline the body with the
                        // iterator substituted
                        let mut map = exo_core::hash::HashMap::default();
                        map.insert(*iter, Expr::int(l));
                        let inlined = exo_core::visit::subst_block(body, &map);
                        out.extend(fold_block(&inlined));
                        continue;
                    }
                }
                out.push(Stmt::For {
                    iter: *iter,
                    lo,
                    hi,
                    body: fold_block(body),
                });
            }
            other => out.push(exo_core::visit::map_stmt_exprs(other, &mut fold_full)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::Sym;

    #[test]
    fn folds_arithmetic() {
        let x = Sym::new("x");
        let e = Expr::int(16)
            .mul(Expr::int(2))
            .add(Expr::var(x))
            .add(Expr::int(0));
        // affine normalization puts symbolic terms first
        assert_eq!(fold_expr(&e), Expr::var(x).add(Expr::int(32)));
    }

    #[test]
    fn reassociates_constant_chains() {
        let x = Sym::new("x");
        let e = Expr::var(x).add(Expr::int(3)).add(Expr::int(4));
        assert_eq!(fold_expr(&e), Expr::var(x).add(Expr::int(7)));
    }

    #[test]
    fn removes_constant_ifs() {
        let b = vec![Stmt::If {
            cond: Expr::int(1).lt(Expr::int(2)),
            body: vec![Stmt::Pass],
            orelse: vec![Stmt::Pass, Stmt::Pass],
        }];
        assert_eq!(fold_block(&b), vec![Stmt::Pass]);
        let b2 = vec![Stmt::If {
            cond: Expr::int(3).lt(Expr::int(2)),
            body: vec![Stmt::Pass],
            orelse: vec![Stmt::Pass, Stmt::Pass],
        }];
        assert_eq!(fold_block(&b2).len(), 2);
    }

    #[test]
    fn drops_empty_loops() {
        let i = Sym::new("i");
        let b = vec![Stmt::For {
            iter: i,
            lo: Expr::int(4),
            hi: Expr::int(4),
            body: vec![Stmt::Pass],
        }];
        assert!(fold_block(&b).is_empty());
    }
}
