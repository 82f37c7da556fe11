//! Pins the outcome of 500 seeded small programs: the statement count,
//! the error text or a digest of the output store, and a digest of the
//! hardware-instruction trace.
//!
//! Each seed builds one program with `ProcBuilder`. The seed picks a
//! focus, and the generator leans on it: control arithmetic near the
//! `i64` limits, `/` and `%` by non-positive values, int/bool mix-ups,
//! point and interval windows, calls with declared shapes and
//! assertions, configuration reads, builtin arities, uninitialized reads
//! and reductions, and statements with two faults (which pins the order
//! in which a statement evaluates its parts). One line per program,
//! `seed steps outcome trace-digest`, where the outcome is `err:` and the
//! error text or `ok:` and an FNV-1a of the output bits.
//!
//! On a mismatch the current corpus is written to
//! `target/tmp/outcome_corpus.txt`.

use std::sync::Arc;

use exo_core::build::{read, ProcBuilder};
use exo_core::ir::{BinOp, Expr, Proc, Stmt, WAccess};
use exo_core::types::{CtrlType, DataType, MemName};
use exo_core::Sym;
use exo_interp::{ArgVal, Machine};

const CORPUS: &str = include_str!("outcome_corpus.txt");

const SEEDS: u64 = 500;

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `true` with probability `pct`%.
    fn pct(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize].clone()
    }
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Drops the `#<id>` suffix of `Sym`'s `Debug` form: ids depend on
/// interning order across the test binary's threads.
fn strip_sym_ids(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '#' && chars.peek().is_some_and(char::is_ascii_digit) {
            while chars.peek().is_some_and(char::is_ascii_digit) {
                chars.next();
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// What the generator leans on for one seed.
#[derive(Clone, Copy, PartialEq)]
enum Focus {
    Limits,
    DivMod,
    Kinds,
    Windows,
    Calls,
    Config,
    Builtins,
    Uninit,
    TwoFaults,
}

const FOCI: [Focus; 9] = [
    Focus::Limits,
    Focus::DivMod,
    Focus::Kinds,
    Focus::Windows,
    Focus::Calls,
    Focus::Config,
    Focus::Builtins,
    Focus::Uninit,
    Focus::TwoFaults,
];

/// A data symbol in scope and its rank.
#[derive(Clone, Copy)]
struct Buf {
    sym: Sym,
    rank: usize,
}

/// The callees a program may call: `(proc, ctrl formals first, tensor
/// formal ranks)`.
struct Callee {
    proc: Arc<Proc>,
    ranks: Vec<usize>,
    has_flag: bool,
}

struct Gen {
    rng: Rng,
    focus: Focus,
    /// Percent chance that a leaf or an operator is a faulty one.
    wild: u64,
    n: Sym,
    flag: Sym,
    cfg: Sym,
    fields: [Sym; 3],
    ghost: Sym,
    /// Integer control variables in scope (the size formal, iterators).
    ints: Vec<Sym>,
    bufs: Vec<Buf>,
    callees: Vec<Callee>,
    depth: usize,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        let mut rng = Rng(seed);
        let focus = FOCI[(seed % FOCI.len() as u64) as usize];
        let wild = match focus {
            Focus::TwoFaults => 45,
            _ => 3 + rng.below(12),
        };
        Gen {
            rng,
            focus,
            wild,
            n: Sym::new("n"),
            flag: Sym::new("flag"),
            cfg: Sym::new("Cfg"),
            fields: [Sym::new("k"), Sym::new("on"), Sym::new("never")],
            ghost: Sym::new("ghost"),
            ints: Vec::new(),
            bufs: Vec::new(),
            callees: Vec::new(),
            depth: 0,
        }
    }

    fn wild(&mut self) -> bool {
        let w = self.wild;
        self.rng.pct(w)
    }

    fn leans(&mut self, focus: Focus) -> bool {
        (self.focus == focus || self.focus == Focus::TwoFaults) && self.rng.pct(50)
    }

    /// A small integer: a literal, the size, an iterator, or a stride.
    fn small(&mut self) -> Expr {
        match self.rng.below(6) {
            0 | 1 => Expr::int(self.rng.below(4) as i64),
            2 => Expr::var(self.n),
            3 if self.bufs.iter().any(|b| b.rank > 0) => {
                let ranked: Vec<Buf> = self.bufs.iter().copied().filter(|b| b.rank > 0).collect();
                let b = self.rng.pick(&ranked);
                let dim = self.rng.below(b.rank as u64) as usize;
                Expr::Stride { buf: b.sym, dim }
            }
            _ => match self.ints.len() {
                0 => Expr::int(1),
                len => Expr::var(self.ints[self.rng.below(len as u64) as usize]),
            },
        }
    }

    /// A faulty or extreme integer leaf, by focus.
    fn wild_int_leaf(&mut self) -> Expr {
        if self.leans(Focus::Limits) {
            return Expr::int(self.rng.pick(&[
                i64::MAX,
                i64::MIN,
                i64::MAX - 1,
                i64::MIN + 1,
                1 << 62,
                -(1 << 62),
                3_037_000_500,
            ]));
        }
        if self.leans(Focus::Kinds) {
            return match self.rng.below(4) {
                0 => Expr::bool(self.rng.pct(50)),
                1 => Expr::var(self.flag),
                2 => self.bool_expr(),
                _ => Expr::var(self.n).lt(Expr::int(3)),
            };
        }
        if self.leans(Focus::Config) {
            let field = self.rng.pick(&self.fields);
            return Expr::ReadConfig {
                config: self.cfg,
                field,
            };
        }
        match self.rng.below(9) {
            0 => Expr::float(0.5),
            1 => read(self.rng.pick(&self.bufs).sym, vec![Expr::int(0)]),
            2 => Expr::var(self.ghost),
            3 => Expr::var(self.rng.pick(&self.bufs).sym),
            4 => Expr::Stride {
                buf: self.ghost,
                dim: 0,
            },
            5 => Expr::Stride {
                buf: self.rng.pick(&self.bufs).sym,
                dim: 3,
            },
            6 => Expr::int(-1 - self.rng.below(3) as i64),
            _ => Expr::int(4 + self.rng.below(3) as i64),
        }
    }

    fn int_leaf(&mut self) -> Expr {
        if self.focus == Focus::Limits && self.rng.pct(20) || self.wild() {
            self.wild_int_leaf()
        } else {
            self.small()
        }
    }

    /// An integer control expression.
    fn int_expr(&mut self) -> Expr {
        self.int_expr_at(2)
    }

    fn int_expr_at(&mut self, depth: u32) -> Expr {
        if depth == 0 || self.rng.pct(45) {
            return self.int_leaf();
        }
        if self.leans(Focus::Limits) {
            let limit = Expr::int(self.rng.pick(&[i64::MAX, i64::MIN, i64::MAX - 1, 1 << 62]));
            let b = self.int_expr_at(depth - 1);
            return match self.rng.below(4) {
                0 => Expr::Neg(Box::new(limit)),
                1 => limit.add(b),
                2 => b.sub(limit),
                _ => limit.mul(b),
            };
        }
        let a = self.int_expr_at(depth - 1);
        if self.rng.pct(10) {
            return Expr::Neg(Box::new(a));
        }
        if self.leans(Focus::DivMod) {
            let divisor = match self.rng.below(4) {
                0 => Expr::int(self.rng.pick(&[-3, -1, 0, 1, 2, 3])),
                1 => Expr::var(self.n).sub(Expr::int(self.rng.below(5) as i64)),
                2 => self.int_expr_at(depth - 1),
                _ => Expr::Neg(Box::new(Expr::var(self.n))),
            };
            let op = self.rng.pick(&[BinOp::Div, BinOp::Mod]);
            return Expr::bin(op, a, divisor);
        }
        let b = self.int_expr_at(depth - 1);
        let op = self
            .rng
            .pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Add, BinOp::Mod]);
        match op {
            // keep `%` mostly well-defined outside the division focus
            BinOp::Mod => a.rem(Expr::int(1 + self.rng.below(4) as i64)),
            _ => Expr::bin(op, a, b),
        }
    }

    /// An index into an axis of extent about 4: usually in range.
    fn index(&mut self) -> Expr {
        if self.rng.pct(70) && !self.wild() {
            let e = self.small();
            return e.rem(Expr::int(2 + self.rng.below(2) as i64));
        }
        self.int_expr()
    }

    /// A boolean control expression.
    fn bool_expr(&mut self) -> Expr {
        self.bool_expr_at(2)
    }

    fn bool_expr_at(&mut self, depth: u32) -> Expr {
        if self.wild() && self.rng.pct(50) {
            // an integer, a float or a data read in boolean position
            return match self.rng.below(4) {
                0 => self.int_expr(),
                1 => Expr::var(self.n),
                2 => Expr::float(1.0),
                _ => {
                    let field = self.rng.pick(&self.fields);
                    Expr::ReadConfig {
                        config: self.cfg,
                        field,
                    }
                }
            };
        }
        if depth == 0 || self.rng.pct(30) {
            return match self.rng.below(3) {
                0 => Expr::bool(self.rng.pct(50)),
                _ => Expr::var(self.flag),
            };
        }
        match self.rng.below(3) {
            0 => {
                let op = self.rng.pick(&[BinOp::And, BinOp::Or]);
                let a = self.bool_expr_at(depth - 1);
                let b = self.bool_expr_at(depth - 1);
                Expr::bin(op, a, b)
            }
            _ => {
                let op = self
                    .rng
                    .pick(&[BinOp::Eq, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge]);
                let a = self.int_expr_at(depth - 1);
                let b = self.int_expr_at(depth - 1);
                Expr::bin(op, a, b)
            }
        }
    }

    /// A read of some buffer in scope (or of a ghost), usually with the
    /// right number of indices.
    fn access(&mut self) -> (Sym, Vec<Expr>) {
        let b = if self.wild() && self.rng.pct(25) {
            Buf {
                sym: self.ghost,
                rank: 1,
            }
        } else {
            self.rng.pick(&self.bufs)
        };
        let rank = match self.wild() {
            true => (b.rank + self.rng.below(3) as usize).saturating_sub(1),
            false => b.rank,
        };
        (b.sym, (0..rank).map(|_| self.index()).collect())
    }

    /// A data expression.
    fn data_expr(&mut self) -> Expr {
        self.data_expr_at(2)
    }

    fn data_expr_at(&mut self, depth: u32) -> Expr {
        if self.leans(Focus::Builtins) {
            let func = self
                .rng
                .pick(&["sin", "relu", "sqrt", "abs", "max", "min", "frobnicate"]);
            let arity = match func {
                "max" | "min" => self.rng.pick(&[2, 2, 1, 3, 0]),
                _ => self.rng.pick(&[1, 1, 2, 0]),
            };
            let args = (0..arity)
                .map(|_| self.data_expr_at(depth.saturating_sub(1)))
                .collect();
            return Expr::BuiltIn {
                func: Sym::new(func),
                args,
            };
        }
        if self.wild() && self.rng.pct(30) {
            return match self.rng.below(4) {
                0 => Expr::var(self.n),
                1 => Expr::bool(true),
                2 => {
                    let b = self.rng.pick(&self.bufs);
                    Expr::Window {
                        buf: b.sym,
                        coords: vec![],
                    }
                }
                _ => {
                    let a = self.data_expr_at(0);
                    a.rem(Expr::float(2.0))
                }
            };
        }
        if depth == 0 || self.rng.pct(35) {
            return match self.rng.below(3) {
                0 => Expr::float(self.rng.below(9) as f64 / 4.0 - 1.0),
                1 => Expr::int(self.rng.below(5) as i64),
                _ => {
                    let (buf, idx) = self.access();
                    read(buf, idx)
                }
            };
        }
        let a = self.data_expr_at(depth - 1);
        if self.rng.pct(10) {
            return Expr::Neg(Box::new(a));
        }
        let b = self.data_expr_at(depth - 1);
        let op = self
            .rng
            .pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]);
        Expr::bin(op, a, b)
    }

    /// One window coordinate over an axis of extent about 4.
    fn wcoord(&mut self) -> WAccess {
        let wild = self.wild() || self.leans(Focus::Windows);
        let bound = |g: &mut Gen| match wild {
            true => g.rng.pick(&[-1, 0, 1, 2, 3, 4, 5]),
            false => g.rng.below(3) as i64,
        };
        if self.rng.pct(40) {
            WAccess::Point(Expr::int(bound(self)))
        } else {
            let lo = bound(self);
            let hi = match wild {
                true => bound(self),
                false => lo + 1 + self.rng.below(2) as i64,
            };
            let lo = match self.rng.pct(20) {
                true => self.int_expr(),
                false => Expr::int(lo),
            };
            WAccess::Interval(lo, Expr::int(hi))
        }
    }

    /// Window coordinates over `b`, usually one per axis.
    fn window_over(&mut self, b: Buf) -> (Vec<WAccess>, usize) {
        let mut arity = b.rank;
        if self.wild() || self.leans(Focus::Windows) && self.rng.pct(20) {
            arity = (arity + self.rng.below(3) as usize).saturating_sub(1);
        }
        let coords: Vec<WAccess> = (0..arity).map(|_| self.wcoord()).collect();
        let rank = coords.iter().filter(|c| c.is_interval()).count();
        (coords, rank)
    }

    /// An actual argument for a tensor formal of rank `rank`.
    fn tensor_arg(&mut self, rank: usize, k: &Expr) -> Expr {
        let fits: Vec<Buf> = self
            .bufs
            .iter()
            .copied()
            .filter(|b| b.rank >= rank)
            .collect();
        if fits.is_empty() || self.wild() && self.rng.pct(30) {
            return match self.rng.below(4) {
                0 => Expr::var(self.ghost),
                1 => self.data_expr_at(1),
                2 => read(self.ghost, vec![]),
                _ => read(self.rng.pick(&self.bufs).sym, vec![]),
            };
        }
        let b = self.rng.pick(&fits);
        if b.rank == rank && self.rng.pct(15) {
            return read(b.sym, vec![]);
        }
        if rank == 0 && self.rng.pct(50) {
            let idx = (0..b.rank).map(|_| self.index()).collect();
            return read(b.sym, idx);
        }
        let (mut coords, _) = self.window_over(b);
        // points first, then `0:2` on all but the last axis and `0:k`
        if !self.wild() {
            coords = (0..b.rank)
                .map(|d| match (d + rank).cmp(&b.rank) {
                    std::cmp::Ordering::Less => WAccess::Point(Expr::int(self.rng.below(2) as i64)),
                    _ if d + 1 < b.rank => WAccess::Interval(Expr::int(0), Expr::int(2)),
                    _ => WAccess::Interval(Expr::int(0), k.clone()),
                })
                .collect();
        }
        Expr::Window { buf: b.sym, coords }
    }

    /// A window extent: 2, sometimes the size argument.
    fn extent(&mut self) -> Expr {
        match self.rng.below(4) {
            0 => Expr::var(self.n).rem(Expr::int(3)).add(Expr::int(1)),
            _ => Expr::int(2),
        }
    }

    /// Builds the callees: one with a size, a boolean, a 1-D and a 2-D
    /// tensor, one with a scalar, each an `@instr` or not.
    fn make_callees(&mut self) {
        for shape in 0..2 {
            let mut cb = ProcBuilder::new(format!("callee{shape}"));
            let k = cb.size("k");
            let has_flag = shape == 0;
            let on = has_flag.then(|| cb.ctrl("on", CtrlType::Bool));
            let ranks = match shape {
                0 => vec![1, 2],
                _ => vec![0, 1],
            };
            let mut formals = Vec::new();
            for (i, &rank) in ranks.iter().enumerate() {
                let name = format!("x{i}");
                let sym = match rank {
                    0 => cb.scalar(&name, DataType::F32),
                    _ => {
                        let mut shape = vec![Expr::var(k)];
                        if rank == 2 {
                            shape.insert(0, Expr::int(2));
                        }
                        match self.rng.pct(50) {
                            true => cb.window_arg(&name, DataType::F32, shape, MemName::dram()),
                            false => cb.tensor(&name, DataType::F32, shape),
                        }
                    }
                };
                formals.push(Buf { sym, rank });
            }
            let bound = self.rng.pick(&[1, 2, 3, 3]);
            cb.assert_pred(Expr::var(k).le(Expr::int(bound)));
            if self.rng.pct(30) {
                cb.assert_pred(
                    Expr::Stride {
                        buf: formals[ranks.len() - 1].sym,
                        dim: 0,
                    }
                    .eq(Expr::int(1)),
                );
            }
            // the body: a loop over k copying into the first formal
            let l = cb.begin_for("l", Expr::int(0), Expr::var(k));
            let (dst, src) = (formals[ranks.len() - 1], formals[0]);
            let didx: Vec<Expr> = (0..dst.rank)
                .map(|d| match d + 1 == dst.rank {
                    true => Expr::var(l),
                    false => Expr::int(0),
                })
                .collect();
            let sidx: Vec<Expr> = (0..src.rank).map(|_| Expr::var(l)).collect();
            if let Some(on) = on {
                cb.begin_if(Expr::var(on));
                cb.reduce(dst.sym, didx.clone(), read(src.sym, sidx.clone()));
                cb.begin_else();
                cb.assign(dst.sym, didx, read(src.sym, sidx).mul(Expr::float(0.5)));
                cb.end_if();
            } else {
                cb.assign(dst.sym, didx, read(src.sym, sidx).add(Expr::float(1.0)));
            }
            cb.end_for();
            if self.rng.pct(75) {
                cb.instr(format!("callee{shape}();"));
            }
            self.callees.push(Callee {
                proc: cb.finish(),
                ranks,
                has_flag,
            });
        }
    }

    fn call(&mut self, b: &mut ProcBuilder) {
        let c = self.rng.below(self.callees.len() as u64) as usize;
        let (proc, ranks, has_flag) = {
            let c = &self.callees[c];
            (c.proc.clone(), c.ranks.clone(), c.has_flag)
        };
        let k = match self.wild() {
            true => self.int_expr(),
            false => self.extent(),
        };
        let mut args = vec![k.clone()];
        if has_flag {
            args.push(self.bool_expr());
        }
        for rank in ranks {
            args.push(self.tensor_arg(rank, &k));
        }
        if self.wild() && self.rng.pct(30) {
            args.pop();
        }
        b.call(&proc, args);
    }

    fn store(&mut self, b: &mut ProcBuilder) {
        let (buf, idx) = self.access();
        let rhs = self.data_expr();
        match self.rng.pct(30) {
            true => b.reduce(buf, idx, rhs),
            false => b.assign(buf, idx, rhs),
        };
    }

    fn stmt(&mut self, b: &mut ProcBuilder) {
        self.depth += 1;
        let nested = self.depth < 3;
        let roll = self.rng.below(match nested {
            true => 12,
            false => 8,
        });
        match roll {
            0..=2 => self.store(b),
            3 => {
                let field = self.fields[self.rng.below(2) as usize];
                let rhs = match (field == self.fields[1]) ^ self.wild() {
                    true => self.bool_expr(),
                    false => self.int_expr(),
                };
                b.write_config(self.cfg, field, rhs);
            }
            4 => {
                let rank = self.rng.below(3) as usize;
                let shape = (0..rank)
                    .map(|_| match self.wild() {
                        true => self.int_expr(),
                        false => Expr::int(1 + self.rng.below(3) as i64),
                    })
                    .collect();
                let sym = b.alloc("t", DataType::F32, shape, MemName::dram());
                self.bufs.push(Buf { sym, rank });
            }
            5 => {
                let base = self.rng.pick(&self.bufs);
                let (coords, rank) = self.window_over(base);
                let sym = b.window("w", base.sym, coords);
                self.bufs.push(Buf { sym, rank });
            }
            6 | 7 => self.call(b),
            8 | 9 => {
                let lo = match self.wild() {
                    true => self.int_leaf(),
                    false => Expr::int(self.rng.below(2) as i64),
                };
                let hi = match self.wild() {
                    true => self.small().add(self.small()).rem(Expr::int(5)),
                    false => Expr::int(1 + self.rng.below(4) as i64),
                };
                let iter = b.begin_for("i", lo, hi);
                self.ints.push(iter);
                self.block(b);
                self.ints.pop();
                b.end_for();
            }
            _ => {
                let cond = self.bool_expr();
                b.begin_if(cond);
                self.block(b);
                if self.rng.pct(50) {
                    b.begin_else();
                    self.block(b);
                }
                b.end_if();
            }
        }
        self.depth -= 1;
    }

    /// One to three statements; the block's allocations and windows go
    /// out of scope at its end.
    fn block(&mut self, b: &mut ProcBuilder) {
        let scope = self.bufs.len();
        for _ in 0..1 + self.rng.below(3) {
            self.stmt(b);
        }
        self.bufs.truncate(scope);
    }

    /// The program: `p(n: size, flag: bool, A: f32[4], B: f32[3, 4],
    /// C: i8[2, 3])` with focus-specific statements first.
    fn program(&mut self) -> Arc<Proc> {
        self.make_callees();
        let mut b = ProcBuilder::new("p");
        self.n = b.size("n");
        self.flag = b.ctrl("flag", CtrlType::Bool);
        let [a, bb, c] = [
            b.tensor("A", DataType::F32, vec![Expr::int(4)]),
            b.tensor("B", DataType::F32, vec![Expr::int(3), Expr::int(4)]),
            b.tensor("C", DataType::I8, vec![Expr::int(2), Expr::int(3)]),
        ];
        self.bufs = vec![
            Buf { sym: a, rank: 1 },
            Buf { sym: bb, rank: 2 },
            Buf { sym: c, rank: 2 },
        ];
        self.ints = vec![self.n];
        b.stmt(Stmt::Pass);
        match self.focus {
            Focus::Calls => self.call(&mut b),
            Focus::Uninit => {
                let rank = self.rng.below(2) as usize;
                let shape = (0..rank).map(|_| Expr::int(2)).collect();
                let t = b.alloc("t", DataType::F32, shape, MemName::dram());
                let idx = |g: &mut Gen| {
                    (0..rank)
                        .map(|_| match g.rng.pct(80) {
                            true => Expr::int(g.rng.below(2) as i64),
                            false => g.index(),
                        })
                        .collect::<Vec<_>>()
                };
                let first = idx(self);
                b.assign(t, first, Expr::float(1.0));
                let (second, third) = (idx(self), idx(self));
                b.reduce(t, second, Expr::float(2.0));
                b.assign(a, vec![Expr::int(0)], read(t, third));
                self.bufs.push(Buf { sym: t, rank });
            }
            Focus::Config => {
                if self.rng.pct(50) {
                    b.write_config(self.cfg, self.fields[0], self.small());
                }
                let field = self.rng.pick(&self.fields);
                let rc = Expr::ReadConfig {
                    config: self.cfg,
                    field,
                };
                b.assign(a, vec![rc.rem(Expr::int(4))], Expr::float(1.0));
            }
            _ => {}
        }
        self.block(&mut b);
        b.finish()
    }
}

/// Runs seed `seed`'s program and formats its corpus line.
fn line(seed: u64) -> String {
    let mut g = Gen::new(seed);
    let p = g.program();
    let mut m = Machine::new();
    m.execute_instr_bodies = g.rng.below(4) != 0;
    let vals = |len: usize, rng: &mut Rng| -> Vec<f64> {
        (0..len).map(|_| rng.below(17) as f64 / 4.0 - 2.0).collect()
    };
    let a = m.alloc_extern("A", DataType::F32, &[4], &vals(4, &mut g.rng));
    let b = m.alloc_extern("B", DataType::F32, &[3, 4], &vals(12, &mut g.rng));
    // `C` starts uninitialized where the focus is on uninitialized reads
    let c = match g.focus {
        Focus::Uninit | Focus::TwoFaults => m.alloc_extern_uninit("C", DataType::I8, &[2, 3]),
        _ => m.alloc_extern("C", DataType::I8, &[2, 3], &vals(6, &mut g.rng)),
    };
    let n = 1 + g.rng.below(4) as i64;
    let mut args = vec![
        ArgVal::Int(n),
        ArgVal::Bool(g.rng.pct(50)),
        ArgVal::Tensor(a),
        ArgVal::Tensor(b),
        ArgVal::Tensor(c),
    ];
    if g.focus == Focus::Kinds && g.rng.pct(10) {
        args.swap(0, 1);
    }
    let outcome = match m.run(&p, &args) {
        Ok(()) => {
            let mut bits: Vec<u8> = [a, b, c]
                .iter()
                .flat_map(|&id| m.buffer(id).values().collect::<Vec<_>>())
                .flat_map(|v| v.map_or(u64::MAX, f64::to_bits).to_le_bytes())
                .collect();
            for field in g.fields {
                let v = m.config(g.cfg, field);
                bits.extend(format!("{v:?}").bytes());
            }
            format!("ok:{:016x}", fnv1a(bits))
        }
        Err(e) => {
            assert!(!e.budget_exhausted);
            format!("err:{:?}", e.message)
        }
    };
    let trace = strip_sym_ids(&format!("{:?}", m.trace()));
    format!(
        "{seed} {} {outcome} {:016x}\n",
        m.steps(),
        fnv1a(trace.bytes())
    )
}

fn corpus() -> String {
    (0..SEEDS).map(line).collect()
}

#[test]
fn outcomes_match_the_recorded_corpus() {
    let got = corpus();
    if got != CORPUS {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("outcome_corpus.txt");
        let _ = std::fs::write(&path, &got);
        let first = got
            .lines()
            .zip(CORPUS.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(CORPUS.lines().count()));
        panic!(
            "outcome corpus differs from tests/outcome_corpus.txt at line {} \
             ({} lines now, {} recorded); the current corpus is in {}",
            first + 1,
            got.lines().count(),
            CORPUS.lines().count(),
            path.display()
        );
    }
}

#[test]
fn the_corpus_covers_every_fault_class() {
    let needles = [
        "integer overflow in",
        "division by non-positive constant",
        "modulo by non-positive constant",
        "expected integer, got boolean",
        "expected boolean, got integer",
        "window point",
        "window interval",
        "extent mismatch for",
        "assertion failed in",
        "read of unset configuration",
        "expects 2 arguments",
        "expects 1 argument\"",
        "read of uninitialized",
        "reduction into uninitialized",
        "err:",
        "ok:",
    ];
    for needle in needles {
        assert!(
            CORPUS.contains(needle),
            "no corpus line contains {needle:?}"
        );
    }
    // some runs trace instructions
    let empty = format!("{:016x}", fnv1a(*b"[]"));
    assert!(CORPUS.lines().any(|l| !l.ends_with(&empty)));
}
