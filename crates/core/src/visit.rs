//! Traversals, substitution, renaming, and alpha-equivalence over the IR.

use crate::hash::{HashMap, HashSet};
use crate::ir::{Block, Expr, FnArg, Proc, Stmt, WAccess};
use crate::sym::Sym;

/// Calls `f` on every sub-expression of `e`, including `e`, in pre-order.
pub fn visit_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match e {
        Expr::BinOp(_, a, b) => {
            visit_expr(a, f);
            visit_expr(b, f);
        }
        Expr::Neg(a) => visit_expr(a, f),
        Expr::Read { idx, .. } => idx.iter().for_each(|i| visit_expr(i, f)),
        Expr::Window { coords, .. } => {
            for c in coords {
                match c {
                    WAccess::Point(p) => visit_expr(p, f),
                    WAccess::Interval(lo, hi) => {
                        visit_expr(lo, f);
                        visit_expr(hi, f);
                    }
                }
            }
        }
        Expr::BuiltIn { args, .. } => args.iter().for_each(|a| visit_expr(a, f)),
        Expr::Var(_) | Expr::Lit(_) | Expr::Stride { .. } | Expr::ReadConfig { .. } => {}
    }
}

/// Calls `f` on every expression appearing directly in `s` (not those in
/// nested statements).
pub fn visit_stmt_exprs(s: &Stmt, f: &mut impl FnMut(&Expr)) {
    match s {
        Stmt::Assign { idx, rhs, .. } | Stmt::Reduce { idx, rhs, .. } => {
            idx.iter().for_each(|e| visit_expr(e, f));
            visit_expr(rhs, f);
        }
        Stmt::WriteConfig { rhs, .. } => visit_expr(rhs, f),
        Stmt::If { cond, .. } => visit_expr(cond, f),
        Stmt::For { lo, hi, .. } => {
            visit_expr(lo, f);
            visit_expr(hi, f);
        }
        Stmt::Alloc { shape, .. } => shape.iter().for_each(|e| visit_expr(e, f)),
        Stmt::WindowDef { rhs, .. } => visit_expr(rhs, f),
        Stmt::Call { args, .. } => args.iter().for_each(|e| visit_expr(e, f)),
        Stmt::Pass => {}
    }
}

/// Calls `f` on every statement in `b`, recursively, in pre-order.
pub fn visit_stmts(b: &[Stmt], f: &mut impl FnMut(&Stmt)) {
    for s in b {
        f(s);
        match s {
            Stmt::For { body, .. } => visit_stmts(body, f),
            Stmt::If { body, orelse, .. } => {
                visit_stmts(body, f);
                visit_stmts(orelse, f);
            }
            _ => {}
        }
    }
}

/// Rewrites every expression in `e` bottom-up with `f`.
pub fn map_expr(e: &Expr, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
    let rebuilt = match e {
        Expr::BinOp(op, a, b) => {
            Expr::BinOp(*op, Box::new(map_expr(a, f)), Box::new(map_expr(b, f)))
        }
        Expr::Neg(a) => Expr::Neg(Box::new(map_expr(a, f))),
        Expr::Read { buf, idx } => Expr::Read {
            buf: *buf,
            idx: idx.iter().map(|i| map_expr(i, f)).collect(),
        },
        Expr::Window { buf, coords } => Expr::Window {
            buf: *buf,
            coords: coords
                .iter()
                .map(|c| match c {
                    WAccess::Point(p) => WAccess::Point(map_expr(p, f)),
                    WAccess::Interval(lo, hi) => {
                        WAccess::Interval(map_expr(lo, f), map_expr(hi, f))
                    }
                })
                .collect(),
        },
        Expr::BuiltIn { func, args } => Expr::BuiltIn {
            func: *func,
            args: args.iter().map(|a| map_expr(a, f)).collect(),
        },
        Expr::Var(_) | Expr::Lit(_) | Expr::Stride { .. } | Expr::ReadConfig { .. } => e.clone(),
    };
    f(rebuilt)
}

/// Rewrites every expression appearing in `b` (recursively through nested
/// statements) bottom-up with `f`. Statement structure is preserved.
pub fn map_block_exprs(b: &[Stmt], f: &mut impl FnMut(Expr) -> Expr) -> Block {
    b.iter().map(|s| map_stmt_exprs(s, f)).collect()
}

/// Rewrites every expression in one statement (and its nested statements).
pub fn map_stmt_exprs(s: &Stmt, f: &mut impl FnMut(Expr) -> Expr) -> Stmt {
    match s {
        Stmt::Assign { buf, idx, rhs } => Stmt::Assign {
            buf: *buf,
            idx: idx.iter().map(|e| map_expr(e, f)).collect(),
            rhs: map_expr(rhs, f),
        },
        Stmt::Reduce { buf, idx, rhs } => Stmt::Reduce {
            buf: *buf,
            idx: idx.iter().map(|e| map_expr(e, f)).collect(),
            rhs: map_expr(rhs, f),
        },
        Stmt::WriteConfig { config, field, rhs } => Stmt::WriteConfig {
            config: *config,
            field: *field,
            rhs: map_expr(rhs, f),
        },
        Stmt::Pass => Stmt::Pass,
        Stmt::If { cond, body, orelse } => Stmt::If {
            cond: map_expr(cond, f),
            body: map_block_exprs(body, f),
            orelse: map_block_exprs(orelse, f),
        },
        Stmt::For { iter, lo, hi, body } => Stmt::For {
            iter: *iter,
            lo: map_expr(lo, f),
            hi: map_expr(hi, f),
            body: map_block_exprs(body, f),
        },
        Stmt::Alloc {
            name,
            ty,
            shape,
            mem,
        } => Stmt::Alloc {
            name: *name,
            ty: *ty,
            shape: shape.iter().map(|e| map_expr(e, f)).collect(),
            mem: *mem,
        },
        Stmt::WindowDef { name, rhs } => Stmt::WindowDef {
            name: *name,
            rhs: map_expr(rhs, f),
        },
        Stmt::Call { proc, args } => Stmt::Call {
            proc: proc.clone(),
            args: args.iter().map(|e| map_expr(e, f)).collect(),
        },
    }
}

/// Substitutes control variables throughout a block: every `Expr::Var(x)`
/// with `x` in `map` is replaced by the mapped expression.
pub fn subst_block(b: &[Stmt], map: &HashMap<Sym, Expr>) -> Block {
    map_block_exprs(b, &mut |e| match &e {
        Expr::Var(x) => map.get(x).cloned().unwrap_or(e),
        _ => e,
    })
}

/// Renames buffer/window *names* (the `buf` of reads, windows, strides,
/// assigns, reduces, window definitions and the data-variable occurrences
/// in call arguments) according to `map`. Control variables are renamed
/// too when present in `map` — this is a wholesale identifier renaming.
pub fn rename_syms_block(b: &[Stmt], map: &HashMap<Sym, Sym>) -> Block {
    let get = |s: &Sym| map.get(s).copied().unwrap_or(*s);
    b.iter()
        .map(|s| {
            let s = map_stmt_exprs(s, &mut |e| match e {
                Expr::Var(x) => Expr::Var(get(&x)),
                Expr::Read { buf, idx } => Expr::Read {
                    buf: get(&buf),
                    idx,
                },
                Expr::Window { buf, coords } => Expr::Window {
                    buf: get(&buf),
                    coords,
                },
                Expr::Stride { buf, dim } => Expr::Stride {
                    buf: get(&buf),
                    dim,
                },
                other => other,
            });
            rename_stmt_tops(&s, &get)
        })
        .collect()
}

fn rename_stmt_tops(s: &Stmt, get: &impl Fn(&Sym) -> Sym) -> Stmt {
    match s {
        Stmt::Assign { buf, idx, rhs } => Stmt::Assign {
            buf: get(buf),
            idx: idx.clone(),
            rhs: rhs.clone(),
        },
        Stmt::Reduce { buf, idx, rhs } => Stmt::Reduce {
            buf: get(buf),
            idx: idx.clone(),
            rhs: rhs.clone(),
        },
        Stmt::For { iter, lo, hi, body } => Stmt::For {
            iter: get(iter),
            lo: lo.clone(),
            hi: hi.clone(),
            body: body.iter().map(|s| rename_stmt_tops(s, get)).collect(),
        },
        Stmt::If { cond, body, orelse } => Stmt::If {
            cond: cond.clone(),
            body: body.iter().map(|s| rename_stmt_tops(s, get)).collect(),
            orelse: orelse.iter().map(|s| rename_stmt_tops(s, get)).collect(),
        },
        Stmt::Alloc {
            name,
            ty,
            shape,
            mem,
        } => Stmt::Alloc {
            name: get(name),
            ty: *ty,
            shape: shape.clone(),
            mem: *mem,
        },
        Stmt::WindowDef { name, rhs } => Stmt::WindowDef {
            name: get(name),
            rhs: rhs.clone(),
        },
        other => other.clone(),
    }
}

/// The free identifiers of a block: symbols read or written that are not
/// bound within the block (by `for`, `alloc`, or window definition).
pub fn free_syms_block(b: &[Stmt]) -> HashSet<Sym> {
    let mut free = HashSet::default();
    let mut bound = HashSet::default();
    free_block(b, &mut bound, &mut free);
    free
}

fn free_block(b: &[Stmt], bound: &mut HashSet<Sym>, free: &mut HashSet<Sym>) {
    // bindings in a block scope over the *rest of the block*, so walk in
    // order, accumulating bindings; restore on exit.
    let mut added: Vec<Sym> = Vec::new();
    for s in b {
        match s {
            Stmt::Alloc { name, shape, .. } => {
                shape.iter().for_each(|e| free_expr(e, bound, free));
                bound.insert(*name);
                added.push(*name);
            }
            Stmt::WindowDef { name, rhs } => {
                free_expr(rhs, bound, free);
                bound.insert(*name);
                added.push(*name);
            }
            Stmt::For { iter, lo, hi, body } => {
                free_expr(lo, bound, free);
                free_expr(hi, bound, free);
                let fresh = bound.insert(*iter);
                free_block(body, bound, free);
                if fresh {
                    bound.remove(iter);
                }
            }
            Stmt::If { cond, body, orelse } => {
                free_expr(cond, bound, free);
                free_block(body, bound, free);
                free_block(orelse, bound, free);
            }
            Stmt::Assign { buf, idx, rhs } | Stmt::Reduce { buf, idx, rhs } => {
                if !bound.contains(buf) {
                    free.insert(*buf);
                }
                idx.iter().for_each(|e| free_expr(e, bound, free));
                free_expr(rhs, bound, free);
            }
            Stmt::WriteConfig { rhs, .. } => free_expr(rhs, bound, free),
            Stmt::Call { args, .. } => args.iter().for_each(|e| free_expr(e, bound, free)),
            Stmt::Pass => {}
        }
    }
    for s in added {
        bound.remove(&s);
    }
}

fn free_expr(e: &Expr, bound: &HashSet<Sym>, free: &mut HashSet<Sym>) {
    visit_expr(e, &mut |e| match e {
        Expr::Var(x) if !bound.contains(x) => {
            free.insert(*x);
        }
        Expr::Read { buf, .. } | Expr::Window { buf, .. } | Expr::Stride { buf, .. }
            if !bound.contains(buf) =>
        {
            free.insert(*buf);
        }
        _ => {}
    });
}

/// Returns a copy of `b` in which every *bound* identifier (loop
/// variables, allocations, window definitions) has been replaced by a
/// fresh symbol with the same spelling. Free identifiers are untouched.
pub fn refresh_bound(b: &[Stmt]) -> Block {
    fn go(b: &[Stmt], map: &mut HashMap<Sym, Sym>) -> Block {
        let mut out = Vec::with_capacity(b.len());
        let mut local: Vec<(Sym, Option<Sym>)> = Vec::new();
        for s in b {
            let s2 = match s {
                Stmt::Alloc {
                    name,
                    ty,
                    shape,
                    mem,
                } => {
                    let shape = shape.iter().map(|e| apply(e, map)).collect();
                    let fresh = name.copy();
                    local.push((*name, map.insert(*name, fresh)));
                    Stmt::Alloc {
                        name: fresh,
                        ty: *ty,
                        shape,
                        mem: *mem,
                    }
                }
                Stmt::WindowDef { name, rhs } => {
                    let rhs = apply(rhs, map);
                    let fresh = name.copy();
                    local.push((*name, map.insert(*name, fresh)));
                    Stmt::WindowDef { name: fresh, rhs }
                }
                Stmt::For { iter, lo, hi, body } => {
                    let lo = apply(lo, map);
                    let hi = apply(hi, map);
                    let fresh = iter.copy();
                    let old = map.insert(*iter, fresh);
                    let body = go(body, map);
                    match old {
                        Some(o) => {
                            map.insert(*iter, o);
                        }
                        None => {
                            map.remove(iter);
                        }
                    }
                    Stmt::For {
                        iter: fresh,
                        lo,
                        hi,
                        body,
                    }
                }
                Stmt::If { cond, body, orelse } => Stmt::If {
                    cond: apply(cond, map),
                    body: go(body, map),
                    orelse: go(orelse, map),
                },
                Stmt::Assign { buf, idx, rhs } => Stmt::Assign {
                    buf: map.get(buf).copied().unwrap_or(*buf),
                    idx: idx.iter().map(|e| apply(e, map)).collect(),
                    rhs: apply(rhs, map),
                },
                Stmt::Reduce { buf, idx, rhs } => Stmt::Reduce {
                    buf: map.get(buf).copied().unwrap_or(*buf),
                    idx: idx.iter().map(|e| apply(e, map)).collect(),
                    rhs: apply(rhs, map),
                },
                Stmt::WriteConfig { config, field, rhs } => Stmt::WriteConfig {
                    config: *config,
                    field: *field,
                    rhs: apply(rhs, map),
                },
                Stmt::Call { proc, args } => Stmt::Call {
                    proc: proc.clone(),
                    args: args.iter().map(|e| apply(e, map)).collect(),
                },
                Stmt::Pass => Stmt::Pass,
            };
            out.push(s2);
        }
        for (orig, prev) in local.into_iter().rev() {
            match prev {
                Some(p) => {
                    map.insert(orig, p);
                }
                None => {
                    map.remove(&orig);
                }
            }
        }
        out
    }
    fn apply(e: &Expr, map: &HashMap<Sym, Sym>) -> Expr {
        map_expr(&e.clone(), &mut |e| match e {
            Expr::Var(x) => Expr::Var(map.get(&x).copied().unwrap_or(x)),
            Expr::Read { buf, idx } => Expr::Read {
                buf: map.get(&buf).copied().unwrap_or(buf),
                idx,
            },
            Expr::Window { buf, coords } => Expr::Window {
                buf: map.get(&buf).copied().unwrap_or(buf),
                coords,
            },
            Expr::Stride { buf, dim } => Expr::Stride {
                buf: map.get(&buf).copied().unwrap_or(buf),
                dim,
            },
            other => other,
        })
    }
    go(b, &mut HashMap::default())
}

/// Structural equality of two expressions up to the variable
/// correspondence `map` (left sym → right sym).
pub fn alpha_eq_expr(a: &Expr, b: &Expr, map: &HashMap<Sym, Sym>) -> bool {
    let eq_sym = |x: &Sym, y: &Sym| map.get(x).copied().unwrap_or(*x) == *y;
    match (a, b) {
        (Expr::Var(x), Expr::Var(y)) => eq_sym(x, y),
        (Expr::Lit(x), Expr::Lit(y)) => x == y,
        (Expr::BinOp(o1, a1, b1), Expr::BinOp(o2, a2, b2)) => {
            o1 == o2 && alpha_eq_expr(a1, a2, map) && alpha_eq_expr(b1, b2, map)
        }
        (Expr::Neg(a1), Expr::Neg(a2)) => alpha_eq_expr(a1, a2, map),
        (Expr::Read { buf: b1, idx: i1 }, Expr::Read { buf: b2, idx: i2 }) => {
            eq_sym(b1, b2)
                && i1.len() == i2.len()
                && i1.iter().zip(i2).all(|(x, y)| alpha_eq_expr(x, y, map))
        }
        (
            Expr::Window {
                buf: b1,
                coords: c1,
            },
            Expr::Window {
                buf: b2,
                coords: c2,
            },
        ) => {
            eq_sym(b1, b2)
                && c1.len() == c2.len()
                && c1.iter().zip(c2).all(|(x, y)| match (x, y) {
                    (WAccess::Point(p1), WAccess::Point(p2)) => alpha_eq_expr(p1, p2, map),
                    (WAccess::Interval(l1, h1), WAccess::Interval(l2, h2)) => {
                        alpha_eq_expr(l1, l2, map) && alpha_eq_expr(h1, h2, map)
                    }
                    _ => false,
                })
        }
        (Expr::Stride { buf: b1, dim: d1 }, Expr::Stride { buf: b2, dim: d2 }) => {
            eq_sym(b1, b2) && d1 == d2
        }
        (
            Expr::ReadConfig {
                config: c1,
                field: f1,
            },
            Expr::ReadConfig {
                config: c2,
                field: f2,
            },
        ) => {
            // configuration state is global and named: compare by spelling
            c1.name() == c2.name() && f1.name() == f2.name()
        }
        (Expr::BuiltIn { func: f1, args: a1 }, Expr::BuiltIn { func: f2, args: a2 }) => {
            f1.name() == f2.name()
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| alpha_eq_expr(x, y, map))
        }
        _ => false,
    }
}

/// Structural equality of two blocks up to renaming of bound variables.
pub fn alpha_eq_block(a: &[Stmt], b: &[Stmt]) -> bool {
    fn eq_block(a: &[Stmt], b: &[Stmt], map: &mut HashMap<Sym, Sym>) -> bool {
        if a.len() != b.len() {
            return false;
        }
        let mut shadow: Vec<(Sym, Option<Sym>)> = Vec::new();
        let ok = a
            .iter()
            .zip(b)
            .all(|(x, y)| eq_stmt(x, y, map, &mut shadow));
        for (orig, prev) in shadow.into_iter().rev() {
            match prev {
                Some(p) => {
                    map.insert(orig, p);
                }
                None => {
                    map.remove(&orig);
                }
            }
        }
        ok
    }
    fn eq_stmt(
        a: &Stmt,
        b: &Stmt,
        map: &mut HashMap<Sym, Sym>,
        shadow: &mut Vec<(Sym, Option<Sym>)>,
    ) -> bool {
        let eq_sym =
            |x: &Sym, y: &Sym, map: &HashMap<Sym, Sym>| map.get(x).copied().unwrap_or(*x) == *y;
        match (a, b) {
            (Stmt::Pass, Stmt::Pass) => true,
            (
                Stmt::Assign {
                    buf: b1,
                    idx: i1,
                    rhs: r1,
                },
                Stmt::Assign {
                    buf: b2,
                    idx: i2,
                    rhs: r2,
                },
            )
            | (
                Stmt::Reduce {
                    buf: b1,
                    idx: i1,
                    rhs: r1,
                },
                Stmt::Reduce {
                    buf: b2,
                    idx: i2,
                    rhs: r2,
                },
            ) => {
                // require same variant
                matches!(
                    (a, b),
                    (Stmt::Assign { .. }, Stmt::Assign { .. })
                        | (Stmt::Reduce { .. }, Stmt::Reduce { .. })
                ) && eq_sym(b1, b2, map)
                    && i1.len() == i2.len()
                    && i1.iter().zip(i2).all(|(x, y)| alpha_eq_expr(x, y, map))
                    && alpha_eq_expr(r1, r2, map)
            }
            (
                Stmt::WriteConfig {
                    config: c1,
                    field: f1,
                    rhs: r1,
                },
                Stmt::WriteConfig {
                    config: c2,
                    field: f2,
                    rhs: r2,
                },
            ) => c1.name() == c2.name() && f1.name() == f2.name() && alpha_eq_expr(r1, r2, map),
            (
                Stmt::If {
                    cond: c1,
                    body: t1,
                    orelse: e1,
                },
                Stmt::If {
                    cond: c2,
                    body: t2,
                    orelse: e2,
                },
            ) => alpha_eq_expr(c1, c2, map) && eq_block(t1, t2, map) && eq_block(e1, e2, map),
            (
                Stmt::For {
                    iter: v1,
                    lo: l1,
                    hi: h1,
                    body: bd1,
                },
                Stmt::For {
                    iter: v2,
                    lo: l2,
                    hi: h2,
                    body: bd2,
                },
            ) => {
                if !(alpha_eq_expr(l1, l2, map) && alpha_eq_expr(h1, h2, map)) {
                    return false;
                }
                let prev = map.insert(*v1, *v2);
                let ok = eq_block(bd1, bd2, map);
                match prev {
                    Some(p) => {
                        map.insert(*v1, p);
                    }
                    None => {
                        map.remove(v1);
                    }
                }
                ok
            }
            (
                Stmt::Alloc {
                    name: n1,
                    ty: t1,
                    shape: s1,
                    mem: m1,
                },
                Stmt::Alloc {
                    name: n2,
                    ty: t2,
                    shape: s2,
                    mem: m2,
                },
            ) => {
                let ok = t1 == t2
                    && m1 == m2
                    && s1.len() == s2.len()
                    && s1.iter().zip(s2).all(|(x, y)| alpha_eq_expr(x, y, map));
                if ok {
                    shadow.push((*n1, map.insert(*n1, *n2)));
                }
                ok
            }
            (Stmt::WindowDef { name: n1, rhs: r1 }, Stmt::WindowDef { name: n2, rhs: r2 }) => {
                let ok = alpha_eq_expr(r1, r2, map);
                if ok {
                    shadow.push((*n1, map.insert(*n1, *n2)));
                }
                ok
            }
            (Stmt::Call { proc: p1, args: a1 }, Stmt::Call { proc: p2, args: a2 }) => {
                p1.name == p2.name
                    && a1.len() == a2.len()
                    && a1.iter().zip(a2).all(|(x, y)| alpha_eq_expr(x, y, map))
            }
            _ => false,
        }
    }
    eq_block(a, b, &mut HashMap::default())
}

/// Alpha-equivalence of whole procedures: same signature shape, bodies
/// equal up to renaming of parameters and bound variables.
pub fn alpha_eq_proc(a: &Proc, b: &Proc) -> bool {
    if a.args.len() != b.args.len() || a.preds.len() != b.preds.len() {
        return false;
    }
    let mut map = HashMap::default();
    for (x, y) in a.args.iter().zip(&b.args) {
        if !arg_ty_compatible(x, y, &map) {
            return false;
        }
        map.insert(x.name, y.name);
    }
    let preds_ok = a
        .preds
        .iter()
        .zip(&b.preds)
        .all(|(p, q)| alpha_eq_expr(p, q, &map));
    // body comparison threads the parameter correspondence via renaming
    let renamed: Block = {
        let rename: HashMap<Sym, Sym> = map.clone();
        rename_syms_block(&a.body, &rename)
    };
    preds_ok && alpha_eq_block(&renamed, &b.body)
}

fn arg_ty_compatible(a: &FnArg, b: &FnArg, map: &HashMap<Sym, Sym>) -> bool {
    use crate::ir::ArgType as A;
    match (&a.ty, &b.ty) {
        (A::Ctrl(x), A::Ctrl(y)) => x == y,
        (A::Scalar { ty: t1, mem: m1 }, A::Scalar { ty: t2, mem: m2 }) => t1 == t2 && m1 == m2,
        (
            A::Tensor {
                ty: t1,
                shape: s1,
                window: w1,
                mem: m1,
            },
            A::Tensor {
                ty: t2,
                shape: s2,
                window: w2,
                mem: m2,
            },
        ) => {
            t1 == t2
                && w1 == w2
                && m1 == m2
                && s1.len() == s2.len()
                && s1.iter().zip(s2).all(|(x, y)| alpha_eq_expr(x, y, map))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, Expr};

    #[test]
    fn free_syms_sees_reads_and_writes() {
        let a = Sym::new("a");
        let i = Sym::new("i");
        let n = Sym::new("n");
        let body = vec![Stmt::For {
            iter: i,
            lo: Expr::int(0),
            hi: Expr::var(n),
            body: vec![Stmt::Assign {
                buf: a,
                idx: vec![Expr::var(i)],
                rhs: Expr::float(0.0),
            }],
        }];
        let free = free_syms_block(&body);
        assert!(free.contains(&a));
        assert!(free.contains(&n));
        assert!(!free.contains(&i));
    }

    #[test]
    fn alloc_binds_rest_of_block() {
        let t = Sym::new("t");
        let body = vec![
            Stmt::Alloc {
                name: t,
                ty: crate::types::DataType::F32,
                shape: vec![],
                mem: crate::types::MemName::dram(),
            },
            Stmt::Assign {
                buf: t,
                idx: vec![],
                rhs: Expr::float(1.0),
            },
        ];
        assert!(!free_syms_block(&body).contains(&t));
    }

    #[test]
    fn subst_replaces_vars() {
        let x = Sym::new("x");
        let a = Sym::new("a");
        let store = |i: Expr| Stmt::Assign {
            buf: a,
            idx: vec![i],
            rhs: Expr::float(0.0),
        };
        let mut m = HashMap::default();
        m.insert(x, Expr::int(41));
        let b = subst_block(&[store(Expr::var(x).add(Expr::int(1)))], &m);
        assert_eq!(
            b,
            [store(Expr::bin(BinOp::Add, Expr::int(41), Expr::int(1)))]
        );
    }

    #[test]
    fn refresh_changes_bound_not_free() {
        let a = Sym::new("a");
        let i = Sym::new("i");
        let body = vec![Stmt::For {
            iter: i,
            lo: Expr::int(0),
            hi: Expr::int(8),
            body: vec![Stmt::Assign {
                buf: a,
                idx: vec![Expr::var(i)],
                rhs: Expr::float(0.0),
            }],
        }];
        let fresh = refresh_bound(&body);
        match &fresh[0] {
            Stmt::For { iter, body, .. } => {
                assert_ne!(*iter, i);
                match &body[0] {
                    Stmt::Assign { buf, idx, .. } => {
                        assert_eq!(*buf, a);
                        assert_eq!(idx[0], Expr::var(*iter));
                    }
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
        assert!(alpha_eq_block(&body, &fresh));
    }

    #[test]
    fn alpha_eq_detects_difference() {
        let a = Sym::new("a");
        let i = Sym::new("i");
        let mk = |rhs: Expr| {
            vec![Stmt::For {
                iter: i,
                lo: Expr::int(0),
                hi: Expr::int(8),
                body: vec![Stmt::Assign {
                    buf: a,
                    idx: vec![Expr::var(i)],
                    rhs,
                }],
            }]
        };
        assert!(alpha_eq_block(&mk(Expr::float(0.0)), &mk(Expr::float(0.0))));
        assert!(!alpha_eq_block(
            &mk(Expr::float(0.0)),
            &mk(Expr::float(1.0))
        ));
    }
}
