//! Property-based testing of the scheduling system: random programs,
//! random sequences of scheduling directives — every directive the
//! system *accepts* must preserve the program's observable behavior on
//! random inputs. Rejected directives are fine (the system is allowed to
//! be conservative); silently changing semantics is the bug class this
//! hunts.

#![cfg(feature = "proptest-tests")]

use std::sync::Arc;

use exo::core::build::read;
use exo::prelude::*;
use proptest::prelude::*;

/// The writes of [`RandStmt::Loop2`], each with the extent of its `j`
/// loop: `m[i, j]`, `m[j, i]`, `x[i + j]`, `x[2·i + j]`, `x[i − j + 7]`,
/// `for k in 0..2: m[i, 4·k + j]` and `for k in 0..2: x[2·i + k]`.
const LOOP2_WRITES: [&str; 7] = [
    "m[i, j]",
    "m[j, i]",
    "x[i + j]",
    "x[2i + j]",
    "x[i - j + 7]",
    "m[i, 4k + j]",
    "x[2i + k]",
];

/// A tiny random program over a size argument `n`, two 1-D buffers, one
/// 2-D buffer and one configuration field `Cfg.k`.
#[derive(Clone, Debug)]
struct RandProgram {
    stmts: Vec<RandStmt>,
}

#[derive(Clone, Debug)]
enum RandStmt {
    /// `for i in 0..8: X[f(i)] (=|+=) g(i)` over selected buffers
    Loop {
        dst: u8,
        src: u8,
        reduce: bool,
        scale: i64,
        offset: i64,
    },
    /// `for i in 0..8: for j in 0..hi: W (=|+=) m[i, j] * 0.5 (+ dst)`,
    /// the write `W` chosen by `write` (see [`LOOP2_WRITES`]), so a
    /// reorder of `i` and `j` meets writes the dependence test decides
    /// and writes only the solver can judge
    Loop2 {
        reduce: bool,
        write: u8,
        self_read: bool,
    },
    /// `for o in 0..reps: for i in 0..8: X[i+offset] (=|+=) Y[(i+o) % 16]`
    /// — the `i` loop nested in another statement, so a directive aimed
    /// at it rewrites a nested block (with `reps = 1` the outer loop
    /// folds away)
    Nest {
        dst: u8,
        src: u8,
        reduce: bool,
        reps: i64,
        offset: i64,
    },
    /// `Cfg.k = base; for c in 0..8: { if n < thresh: Cfg.k = alt;
    /// X[Cfg.k] = Y[c] + 1.0; Cfg.k = c; Y[c + 8] = X[cell] }` — a
    /// configuration write under a guard on the size argument, a read of
    /// configuration state inside a loop before the body overwrites it,
    /// and a read of one fixed cell after the last write, which an earlier
    /// iteration's `X[Cfg.k]` may have written
    Config {
        dst: u8,
        src: u8,
        base: i64,
        alt: i64,
        thresh: i64,
        cell: i64,
    },
}

fn arb_program() -> impl Strategy<Value = RandProgram> {
    let stmt = prop_oneof![
        (0u8..2, 0u8..2, any::<bool>(), 1i64..3, 0i64..8).prop_map(
            |(dst, src, reduce, scale, offset)| RandStmt::Loop {
                dst,
                src,
                reduce,
                scale,
                offset
            }
        ),
        (any::<bool>(), 0..LOOP2_WRITES.len() as u8, any::<bool>()).prop_map(
            |(reduce, write, self_read)| RandStmt::Loop2 {
                reduce,
                write,
                self_read
            }
        ),
        (0u8..2, 0u8..2, any::<bool>(), 1i64..3, 0i64..8).prop_map(
            |(dst, src, reduce, reps, offset)| RandStmt::Nest {
                dst,
                src,
                reduce,
                reps,
                offset
            }
        ),
        (0u8..2, 0u8..2, 0i64..16, 0i64..16, 1i64..5, 0i64..8).prop_map(
            |(dst, src, base, alt, thresh, cell)| RandStmt::Config {
                dst,
                src,
                base,
                alt,
                thresh,
                cell,
            }
        ),
    ];
    proptest::collection::vec(stmt, 1..4).prop_map(|stmts| RandProgram { stmts })
}

/// Builds the IR for a random program. Arguments: n: size, x[16], y[16],
/// m[8][8].
fn build(p: &RandProgram) -> Arc<Proc> {
    let mut b = ProcBuilder::new("randprog");
    let n = b.size("n");
    let (cfg, k) = (Sym::new("Cfg"), Sym::new("k"));
    let bufs = [
        b.tensor("x", DataType::F32, vec![Expr::int(16)]),
        b.tensor("y", DataType::F32, vec![Expr::int(16)]),
    ];
    let mat = b.tensor("m", DataType::F32, vec![Expr::int(8), Expr::int(8)]);
    for s in &p.stmts {
        match s {
            RandStmt::Loop {
                dst,
                src,
                reduce,
                scale,
                offset,
            } => {
                let i = b.begin_for("i", Expr::int(0), Expr::int(8));
                // dst[i+offset'] op= src[(i*scale) % 16-safe]
                let didx = Expr::var(i).add(Expr::int(*offset));
                let sidx = Expr::var(i).mul(Expr::int(*scale)).rem(Expr::int(16));
                let rhs = read(bufs[*src as usize], vec![sidx]).add(Expr::float(1.0));
                if *reduce {
                    b.reduce(bufs[*dst as usize], vec![didx], rhs);
                } else {
                    b.assign(bufs[*dst as usize], vec![didx], rhs);
                }
                b.end_for();
            }
            RandStmt::Loop2 {
                reduce,
                write,
                self_read,
            } => {
                let w = LOOP2_WRITES[*write as usize];
                let hi = match w {
                    "x[2i + j]" => 2,
                    "m[i, 4k + j]" => 4,
                    _ => 8,
                };
                let i = b.begin_for("i", Expr::int(0), Expr::int(8));
                let j = b.begin_for("j", Expr::int(0), Expr::int(hi));
                let (vi, vj) = (Expr::var(i), Expr::var(j));
                let (dst, idx) = match w {
                    "m[i, j]" => (mat, vec![vi.clone(), vj.clone()]),
                    "m[j, i]" => (mat, vec![vj.clone(), vi.clone()]),
                    "x[i + j]" => (bufs[0], vec![vi.clone().add(vj.clone())]),
                    "x[2i + j]" => (bufs[0], vec![Expr::int(2).mul(vi.clone()).add(vj.clone())]),
                    "x[i - j + 7]" => (bufs[0], vec![vi.clone().sub(vj.clone()).add(Expr::int(7))]),
                    "m[i, 4k + j]" => {
                        let k = b.begin_for("k", Expr::int(0), Expr::int(2));
                        let col = Expr::int(4).mul(Expr::var(k)).add(vj.clone());
                        (mat, vec![vi.clone(), col])
                    }
                    _ => {
                        let k = b.begin_for("k", Expr::int(0), Expr::int(2));
                        let cell = Expr::int(2).mul(vi.clone()).add(Expr::var(k));
                        (bufs[0], vec![cell])
                    }
                };
                let mut rhs = read(mat, vec![vi, vj.clone()]).mul(Expr::float(0.5));
                if *self_read {
                    let at = if dst == mat {
                        vec![vj.clone(), vj]
                    } else {
                        vec![vj]
                    };
                    rhs = rhs.add(read(dst, at));
                }
                if *reduce {
                    b.reduce(dst, idx, rhs);
                } else if w == "m[j, i]" {
                    // avoid self-racing transposed writes reading the same
                    // cell: write a constant instead
                    b.assign(dst, idx, Expr::float(2.0));
                } else {
                    b.assign(dst, idx, rhs);
                }
                if w.contains('k') {
                    b.end_for();
                }
                b.end_for().end_for();
            }
            RandStmt::Nest {
                dst,
                src,
                reduce,
                reps,
                offset,
            } => {
                let o = b.begin_for("o", Expr::int(0), Expr::int(*reps));
                let i = b.begin_for("i", Expr::int(0), Expr::int(8));
                let didx = Expr::var(i).add(Expr::int(*offset));
                let sidx = Expr::var(i).add(Expr::var(o)).rem(Expr::int(16));
                let rhs = read(bufs[*src as usize], vec![sidx]).add(Expr::float(1.0));
                if *reduce {
                    b.reduce(bufs[*dst as usize], vec![didx], rhs);
                } else {
                    b.assign(bufs[*dst as usize], vec![didx], rhs);
                }
                b.end_for().end_for();
            }
            RandStmt::Config {
                dst,
                src,
                base,
                alt,
                thresh,
                cell,
            } => {
                b.write_config(cfg, k, Expr::int(*base));
                let c = b.begin_for("c", Expr::int(0), Expr::int(8));
                b.begin_if(Expr::var(n).lt(Expr::int(*thresh)));
                b.write_config(cfg, k, Expr::int(*alt));
                b.end_if();
                let cfg_k = Expr::ReadConfig {
                    config: cfg,
                    field: k,
                };
                let rhs = read(bufs[*src as usize], vec![Expr::var(c)]).add(Expr::float(1.0));
                b.assign(bufs[*dst as usize], vec![cfg_k], rhs);
                b.write_config(cfg, k, Expr::var(c));
                b.assign(
                    bufs[*src as usize],
                    vec![Expr::var(c).add(Expr::int(8))],
                    read(bufs[*dst as usize], vec![Expr::int(*cell)]),
                );
                b.end_for();
            }
        }
    }
    b.finish()
}

/// A random scheduling directive to attempt.
#[derive(Clone, Debug)]
enum Directive {
    Split(u8, i64),
    SplitGuard(u8, i64),
    Reorder,
    FissionAfterFirst,
    FuseLoop(u8),
    ReorderStmts(u8),
    PartitionLoop(u8, i64),
    Unroll(u8),
    BindExpr,
    Simplify,
    /// `stage_mem` of the window `x[lo:lo + len]` around `for i`/`for j`;
    /// undersized when the block reaches past it (or it past `x`)
    StageMem(u8, i64, i64),
}

fn arb_directive() -> impl Strategy<Value = Directive> {
    prop_oneof![
        (0u8..2, prop_oneof![Just(2i64), Just(4)]).prop_map(|(w, c)| Directive::Split(w, c)),
        (0u8..2, 2i64..6).prop_map(|(w, c)| Directive::SplitGuard(w, c)),
        Just(Directive::Reorder),
        Just(Directive::FissionAfterFirst),
        (0u8..2).prop_map(Directive::FuseLoop),
        (0u8..5).prop_map(Directive::ReorderStmts),
        (0u8..2, 1i64..7).prop_map(|(w, c)| Directive::PartitionLoop(w, c)),
        (0u8..2).prop_map(Directive::Unroll),
        Just(Directive::BindExpr),
        Just(Directive::Simplify),
        (0u8..2, 0i64..8, 1i64..17).prop_map(|(w, lo, len)| Directive::StageMem(w, lo, len)),
    ]
}

fn apply(p: &Procedure, d: &Directive) -> Option<Procedure> {
    let loop_pat = |w: u8| {
        if w == 0 {
            "for i in _: _"
        } else {
            "for j in _: _"
        }
    };
    match d {
        Directive::Split(w, c) => p.split(loop_pat(*w), *c, "so", "si").ok(),
        Directive::SplitGuard(w, c) => p.split_guard(loop_pat(*w), *c, "go", "gi").ok(),
        Directive::Reorder => p.reorder("for i in _: _", "j").ok(),
        Directive::FissionAfterFirst => {
            for pat in [
                "x[_] = _",
                "y[_] = _",
                "x[_] += _",
                "y[_] += _",
                "m[_,_] = _",
                // the loop's last configuration write (after `Cfg.k =
                // base` and the guarded `Cfg.k = alt`)
                "Cfg.k = _ #2",
            ] {
                if let Ok(q) = p.fission_after(pat) {
                    return Some(q);
                }
            }
            None
        }
        Directive::FuseLoop(w) => {
            let pats = ["for c in _: _", "for i in _: _"];
            let first = *w as usize;
            [pats[first], pats[1 - first]]
                .into_iter()
                .find_map(|pat| p.fuse_loop(pat).ok())
        }
        Directive::ReorderStmts(first) => {
            let pats = [
                "for c in _: _",
                "Cfg.k = _",
                "for i in _: _",
                "x[_] = _",
                "y[_] += _",
            ];
            // try the chosen pattern first, then the rest in order
            let first = *first as usize;
            std::iter::once(pats[first])
                .chain(pats.iter().copied().filter(|&q| q != pats[first]))
                .find_map(|pat| p.reorder_stmts(pat).ok())
        }
        Directive::PartitionLoop(w, c) => p.partition_loop(loop_pat(*w), *c).ok(),
        Directive::Unroll(w) => p.unroll(loop_pat(*w)).ok(),
        Directive::BindExpr => {
            for (spat, epat) in [
                ("x[_] = _", "x[_]"),
                ("y[_] += _", "y[_]"),
                ("m[_,_] = _", "m[_]"),
            ] {
                if let Ok(q) = p.bind_expr(spat, epat, "bound") {
                    return Some(q);
                }
            }
            None
        }
        Directive::Simplify => Some(p.simplify()),
        Directive::StageMem(w, lo, len) => {
            let window = [(Expr::int(*lo), Expr::int(lo + len))];
            p.stage_mem(loop_pat(*w), "x", &window, "xs", MemName::dram())
                .ok()
        }
    }
}

fn run_program(proc: &Proc, seed: u64) -> Result<Vec<f64>, exo::interp::InterpError> {
    let mut m = Machine::new();
    let n = 1 + (seed % 4) as i64;
    let init = |n: usize, s: u64| -> Vec<f64> {
        (0..n)
            .map(|i| (((i as u64 * 7 + s * 13) % 11) as f64) - 5.0)
            .collect()
    };
    let x = m.alloc_extern("x", DataType::F32, &[16], &init(16, seed));
    let y = m.alloc_extern("y", DataType::F32, &[16], &init(16, seed + 1));
    let mat = m.alloc_extern("m", DataType::F32, &[8, 8], &init(64, seed + 2));
    m.run(
        proc,
        &[
            ArgVal::Int(n),
            ArgVal::Tensor(x),
            ArgVal::Tensor(y),
            ArgVal::Tensor(mat),
        ],
    )?;
    let mut out = m.buffer_values(x)?;
    out.extend(m.buffer_values(y)?);
    out.extend(m.buffer_values(mat)?);
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn accepted_schedules_preserve_semantics(
        prog in arb_program(),
        directives in proptest::collection::vec(arb_directive(), 1..6),
        seed in 0u64..1000,
    ) {
        let original = build(&prog);
        // the generator can produce out-of-bounds programs (offsets);
        // skip those — we only care about valid programs
        let mut scheduled = Procedure::new(original.clone());
        if run_program(&original, seed).is_err() {
            return Ok(());
        }
        let mut applied = Vec::new();
        for d in &directives {
            if let Some(q) = apply(&scheduled, d) {
                applied.push(format!("{d:?}"));
                scheduled = q;
            }
        }
        let want = run_program(&original, seed).expect("checked above");
        let got = run_program(scheduled.proc(), seed)
            .unwrap_or_else(|e| panic!("scheduled program failed ({applied:?}): {e}"));
        prop_assert_eq!(want, got, "directives applied: {:?}\n{}", applied, scheduled.show());
    }
}

/// Each [`RandStmt::Loop2`] write, assigned, under `reorder(i, j)`: the
/// dependence test decides the writes one coordinate separates (no check
/// query), and the solver judges the rest, accepting `x[2i + j]` and
/// `x[2i + k]` and refuting `x[i + j]`. Each accepted reorder runs like
/// the original.
#[test]
fn loop2_reorders_reach_both_deciders() {
    let mut seen = Vec::new();
    for write in 0..LOOP2_WRITES.len() as u8 {
        let prog = RandProgram {
            stmts: vec![RandStmt::Loop2 {
                reduce: false,
                write,
                self_read: false,
            }],
        };
        let original = build(&prog);
        let p = Procedure::new(original.clone());
        let reordered = p.reorder("for i in _: _", "j");
        let queries = p.state().lock().unwrap().check.stats().queries;
        if let Ok(q) = &reordered {
            for seed in 0..4 {
                assert_eq!(
                    run_program(&original, seed).unwrap(),
                    run_program(q.proc(), seed).unwrap(),
                    "{}",
                    LOOP2_WRITES[write as usize]
                );
            }
        }
        seen.push((LOOP2_WRITES[write as usize], reordered.is_ok(), queries));
    }
    assert_eq!(
        seen,
        [
            ("m[i, j]", true, 0),
            ("m[j, i]", true, 0),
            ("x[i + j]", false, 1),
            ("x[2i + j]", true, 1),
            ("x[i - j + 7]", true, 0),
            ("m[i, 4k + j]", true, 0),
            ("x[2i + k]", true, 1),
        ]
    );
}
