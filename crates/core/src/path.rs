//! Statement addressing within a procedure body.
//!
//! Scheduling operators "point at" locations inside a procedure (paper
//! §3.3). A [`StmtPath`] is a stable address of one statement: a sequence
//! of steps descending through blocks. Paths are produced by the pattern
//! matcher in `exo-sched` and consumed by the rewrite engine.

use std::fmt;

use crate::ir::{Block, Stmt};

/// One descent step: which sub-block of the current statement to enter,
/// and the index of the statement within it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PathStep {
    /// Index of the sub-block within the parent statement (0 for a `For`
    /// body or `If` then-branch, 1 for an `If` else-branch). For the root
    /// block this is 0.
    pub block: usize,
    /// Index of the statement within that block.
    pub idx: usize,
}

/// The address of a statement inside a procedure body.
///
/// The first step indexes into the procedure's top-level block; each later
/// step descends into a sub-block of the previously selected statement.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct StmtPath(pub Vec<PathStep>);

impl StmtPath {
    /// The root-block statement at index `i`.
    pub fn top(i: usize) -> StmtPath {
        StmtPath(vec![PathStep { block: 0, idx: i }])
    }

    /// Extends this path one level deeper.
    pub fn child(&self, block: usize, idx: usize) -> StmtPath {
        let mut v = self.0.clone();
        v.push(PathStep { block, idx });
        StmtPath(v)
    }

    /// The path of the enclosing statement, or `None` at top level.
    pub fn parent(&self) -> Option<StmtPath> {
        if self.0.len() <= 1 {
            None
        } else {
            Some(StmtPath(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// The final step (block/index within the innermost enclosing block).
    ///
    /// # Panics
    ///
    /// Panics if the path is empty.
    pub fn last(&self) -> PathStep {
        // Documented API contract; construction sites all produce nonempty
        // paths (`top`, `child`), so this is a programmer-error panic, not
        // an input-reachable one.
        #[allow(clippy::expect_used)]
        *self.0.last().expect("empty StmtPath")
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the path has no steps (addresses nothing).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Returns a path to the sibling at offset `delta` within the same
    /// block, or `None` if it would be negative.
    pub fn sibling(&self, delta: isize) -> Option<StmtPath> {
        let mut v = self.0.clone();
        let last = v.last_mut()?;
        let idx = last.idx as isize + delta;
        if idx < 0 {
            return None;
        }
        last.idx = idx as usize;
        Some(StmtPath(v))
    }
}

impl fmt::Display for StmtPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|s| {
                if s.block == 0 {
                    format!("{}", s.idx)
                } else {
                    format!("{}.{}", s.block, s.idx)
                }
            })
            .collect();
        write!(f, "[{}]", parts.join("/"))
    }
}

/// Returns the statement addressed by `path` within `body`.
///
/// Returns `None` if any step is out of range.
pub fn stmt_at<'a>(body: &'a Block, path: &StmtPath) -> Option<&'a Stmt> {
    let mut block = body;
    let mut stmt: Option<&Stmt> = None;
    for step in &path.0 {
        if let Some(s) = stmt {
            block = match (s, step.block) {
                (Stmt::For { body, .. }, 0) => body,
                (Stmt::If { body, .. }, 0) => body,
                (Stmt::If { orelse, .. }, 1) => orelse,
                _ => return None,
            };
        } else if step.block != 0 {
            return None;
        }
        stmt = block.get(step.idx);
        stmt?;
    }
    stmt
}

/// Rewrites the statement addressed by `path`, replacing it with the
/// statements produced by `f` (zero, one, or many — enabling deletion and
/// splitting rewrites).
///
/// Returns `None` if the path is invalid.
pub fn replace_at(
    body: &Block,
    path: &StmtPath,
    f: &mut dyn FnMut(&Stmt) -> Vec<Stmt>,
) -> Option<Block> {
    fn go(
        block: &Block,
        steps: &[PathStep],
        f: &mut dyn FnMut(&Stmt) -> Vec<Stmt>,
    ) -> Option<Block> {
        let step = steps[0];
        let target = block.get(step.idx)?;
        let mut out = Vec::with_capacity(block.len() + 1);
        out.extend_from_slice(&block[..step.idx]);
        if steps.len() == 1 {
            out.extend(f(target));
        } else {
            let rest = &steps[1..];
            let inner_block_idx = rest[0].block;
            let new_stmt = match target {
                Stmt::For { iter, lo, hi, body } if inner_block_idx == 0 => Stmt::For {
                    iter: *iter,
                    lo: lo.clone(),
                    hi: hi.clone(),
                    body: go(body, rest, f)?,
                },
                Stmt::If { cond, body, orelse } if inner_block_idx == 0 => Stmt::If {
                    cond: cond.clone(),
                    body: go(body, rest, f)?,
                    orelse: orelse.clone(),
                },
                Stmt::If { cond, body, orelse } if inner_block_idx == 1 => Stmt::If {
                    cond: cond.clone(),
                    body: body.clone(),
                    orelse: go(orelse, rest, f)?,
                },
                _ => return None,
            };
            out.push(new_stmt);
        }
        out.extend_from_slice(&block[step.idx + 1..]);
        Some(out)
    }
    if path.0.is_empty() {
        return None;
    }
    go(body, &path.0, f)
}

/// Visits every statement in `body` in pre-order, passing its path.
pub fn visit_paths(body: &Block, mut f: impl FnMut(&StmtPath, &Stmt)) {
    fn go_block(
        block: &Block,
        parent: &StmtPath,
        block_id: usize,
        f: &mut impl FnMut(&StmtPath, &Stmt),
    ) {
        for (i, s) in block.iter().enumerate() {
            let p = parent.child(block_id, i);
            f(&p, s);
            match s {
                Stmt::For { body, .. } => go_block(body, &p, 0, f),
                Stmt::If { body, orelse, .. } => {
                    go_block(body, &p, 0, f);
                    go_block(orelse, &p, 1, f);
                }
                _ => {}
            }
        }
    }
    go_block(body, &StmtPath::default(), 0, &mut f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Expr;
    use crate::sym::Sym;

    fn sample() -> Block {
        // for i: { Pass; if c: { Pass } else: { Pass } }
        let i = Sym::new("i");
        vec![Stmt::For {
            iter: i,
            lo: Expr::int(0),
            hi: Expr::int(4),
            body: vec![
                Stmt::Pass,
                Stmt::If {
                    cond: Expr::bool(true),
                    body: vec![Stmt::Pass],
                    orelse: vec![Stmt::Pass],
                },
            ],
        }]
    }

    #[test]
    fn stmt_at_navigates() {
        let b = sample();
        assert!(matches!(
            stmt_at(&b, &StmtPath::top(0)),
            Some(Stmt::For { .. })
        ));
        let p = StmtPath::top(0).child(0, 1); // the if
        assert!(matches!(stmt_at(&b, &p), Some(Stmt::If { .. })));
        let p_else = p.child(1, 0);
        assert!(matches!(stmt_at(&b, &p_else), Some(Stmt::Pass)));
        assert!(stmt_at(&b, &StmtPath::top(7)).is_none());
    }

    #[test]
    fn replace_at_splices() {
        let b = sample();
        let p = StmtPath::top(0).child(0, 0); // inner Pass
        let b2 = replace_at(&b, &p, &mut |_| vec![Stmt::Pass, Stmt::Pass]).unwrap();
        match &b2[0] {
            Stmt::For { body, .. } => assert_eq!(body.len(), 3),
            _ => panic!(),
        }
        // deletion
        let b3 = replace_at(&b, &p, &mut |_| vec![]).unwrap();
        match &b3[0] {
            Stmt::For { body, .. } => assert_eq!(body.len(), 1),
            _ => panic!(),
        }
    }

    #[test]
    fn visit_sees_all() {
        let b = sample();
        let mut n = 0;
        visit_paths(&b, |_, _| n += 1);
        assert_eq!(n, 5); // for, pass, if, then-pass, else-pass
    }

    #[test]
    fn path_relations() {
        let p = StmtPath::top(2);
        let c = p.child(0, 1);
        assert_eq!(c.parent(), Some(p.clone()));
        assert_eq!(p.sibling(1).unwrap(), StmtPath::top(3));
        assert!(StmtPath::top(0).sibling(-1).is_none());
    }

    #[test]
    fn path_display() {
        let p = StmtPath::top(1).child(0, 2).child(1, 0);
        assert_eq!(p.to_string(), "[1/2/1.0]");
    }
}
