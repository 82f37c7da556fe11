//! Store-only inner loops give the same result under every budget.
//!
//! Under the unlimited budget the interpreter may run a loop whose body
//! is one store as one fused element loop, without its per-iteration
//! checks; under a limited budget it always runs the loop an iteration
//! at a time. The budget
//! `ResourceBudget::with_fuel(u64::MAX - 1)` is limited but never runs
//! out, so a run under it is the reference. Each case runs once under each budget, and the two runs
//! must agree on the `Result` text, `steps()`, every buffer's values bit
//! for bit (uninitialized elements included) and the trace's `Debug`.
//!
//! The hand-written cases pin the loops whose result depends on the
//! order of their element operations: a read of
//! the element the previous iteration wrote, the anti-dependence, a
//! zero-step reduce and a zero-step plain store, negative coefficients,
//! a statement reading its own destination, first stores into a fresh
//! allocation, an uninitialized read mid-range, an access out of view
//! only at the last iteration, i8/i32/f32 destinations and data `/` by
//! zero, and an instruction-style callee over window arguments. The
//! seeded cases add random loop nests over 1–4-D tensors, allocations
//! and windows.
//!
//! The single-store cases pin each shape of loop the interpreter runs as
//! one fused element loop: a literal, a read and a zero-step read; `+`,
//! `-`, `*` and `/` of two reads; i8, i32 and f32 destinations; a
//! zero-step reduce into one element (a naive GEMM's `k` loop); a
//! statement reading its own destination, in order and reversed; and a
//! destination that becomes dense only through earlier statements; and
//! unary `-`, one-argument builtins and `max`/`min` of a read and a
//! literal or of two reads, `x[i] = relu(x[i])` in place among them. The
//! reallocation cases pin that an `Alloc` that runs again starts all-⊥:
//! a read before the second iteration's first store, and a read of the
//! half the second iteration left unwritten, both fail.

use std::sync::Arc;

use exo::core::ir::WAccess;
use exo::core::ResourceBudget;
use exo::prelude::*;

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

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// `true` with probability `pct`%.
    fn pct(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize].clone()
    }
}

/// A tensor argument: its type, its shape and its initial contents
/// (`None`: allocated uninitialized).
struct Input {
    dtype: DataType,
    shape: Vec<usize>,
    values: Option<Vec<f64>>,
}

/// One case: a procedure taking `n: size` and then one tensor per input.
struct Case {
    name: String,
    proc: Arc<Proc>,
    n: i64,
    inputs: Vec<Input>,
}

/// Everything a run leaves behind that the two budgets must agree on.
#[derive(PartialEq, Debug)]
struct Outcome {
    result: String,
    steps: u64,
    /// Each buffer's elements as bits (`None` when uninitialized).
    buffers: Vec<Vec<Option<u64>>>,
    trace: String,
}

fn run(case: &Case, budget: ResourceBudget) -> Outcome {
    let mut m = Machine::new();
    m.set_budget(budget);
    let mut args = vec![ArgVal::Int(case.n)];
    for (i, input) in case.inputs.iter().enumerate() {
        let name = format!("in{i}");
        let id = match &input.values {
            Some(v) => m.alloc_extern(&name, input.dtype, &input.shape, v),
            None => m.alloc_extern_uninit(&name, input.dtype, &input.shape),
        };
        args.push(ArgVal::Tensor(id));
    }
    let result = format!("{:?}", m.run(&case.proc, &args));
    Outcome {
        result,
        steps: m.steps(),
        buffers: m
            .buffers()
            .iter()
            .map(|b| b.values().map(|v| v.map(f64::to_bits)).collect())
            .collect(),
        trace: format!("{:?}", m.trace()),
    }
}

/// Runs `case` under both budgets and compares; returns whether the run
/// succeeded.
fn check(case: &Case) -> bool {
    let fast = run(case, ResourceBudget::unlimited());
    let reference = run(case, ResourceBudget::with_fuel(u64::MAX - 1));
    assert_eq!(
        fast, reference,
        "{}: the unlimited budget's run differs from the limited one's\n{:?}",
        case.name, case.proc
    );
    fast.result == "Ok(())"
}

fn ints(v: &[i64]) -> Vec<Expr> {
    v.iter().map(|&x| Expr::int(x)).collect()
}

fn neg(e: Expr) -> Expr {
    Expr::Neg(Box::new(e))
}

fn builtin(name: &str, args: Vec<Expr>) -> Expr {
    Expr::BuiltIn {
        func: Sym::new(name),
        args,
    }
}

fn vals(len: usize, f: impl Fn(usize) -> f64) -> Option<Vec<f64>> {
    Some((0..len).map(f).collect())
}

fn f32_input(len: usize) -> Input {
    Input {
        dtype: DataType::F32,
        shape: vec![len],
        values: vals(len, |k| k as f64 * 1.5 - 3.0),
    }
}

/// `p(n, x: f32[8], y: f32[8])` with `body(b, n, x, y)` as its body.
fn two_vectors(name: &str, body: impl FnOnce(&mut ProcBuilder, Sym, Sym, Sym)) -> Case {
    let mut b = ProcBuilder::new(name);
    let n = b.size("n");
    let x = b.tensor("x", DataType::F32, ints(&[8]));
    let y = b.tensor("y", DataType::F32, ints(&[8]));
    body(&mut b, n, x, y);
    Case {
        name: name.into(),
        proc: b.finish(),
        n: 8,
        inputs: vec![f32_input(8), f32_input(8)],
    }
}

fn hand_written() -> Vec<Case> {
    let begin = |b: &mut ProcBuilder, lo: i64, hi: Expr| b.begin_for("i", Expr::int(lo), hi);
    vec![
        // x[i+1] = x[i]: each iteration reads what the previous one wrote
        two_vectors("flow_dependence", |b, n, x, _| {
            let i = begin(b, 0, Expr::var(n).sub(Expr::int(1)));
            b.assign(
                x,
                vec![Expr::var(i).add(Expr::int(1))],
                read(x, vec![Expr::var(i)]),
            );
            b.end_for();
        }),
        // x[i] = x[i+1] + 1: each iteration reads what the next one writes
        two_vectors("anti_dependence", |b, n, x, _| {
            let i = begin(b, 0, Expr::var(n).sub(Expr::int(1)));
            b.assign(
                x,
                vec![Expr::var(i)],
                read(x, vec![Expr::var(i).add(Expr::int(1))]).add(Expr::float(1.0)),
            );
            b.end_for();
        }),
        // y[0] += x[i]; y[1] = x[i] * 2: both destinations stay put
        two_vectors("zero_step", |b, n, x, y| {
            let i = begin(b, 0, Expr::var(n));
            b.reduce(y, ints(&[0]), read(x, vec![Expr::var(i)]));
            b.assign(
                y,
                ints(&[1]),
                read(x, vec![Expr::var(i)]).mul(Expr::float(2.0)),
            );
            b.end_for();
        }),
        // y[7 - i] = x[2*(3 - i) + 1]; y[-i + 7] += x[i]
        two_vectors("negative_coefficients", |b, _, x, y| {
            let i = begin(b, 0, Expr::int(4));
            b.assign(
                y,
                vec![Expr::int(7).sub(Expr::var(i))],
                read(
                    x,
                    vec![Expr::int(2)
                        .mul(Expr::int(3).sub(Expr::var(i)))
                        .add(Expr::int(1))],
                ),
            );
            b.reduce(
                y,
                vec![neg(Expr::var(i)).add(Expr::int(3))],
                read(x, vec![Expr::var(i)]),
            );
            b.end_for();
        }),
        // x[i] = relu(x[i]); y[i] = x[i] * x[i] - y[i]
        // in one loop and then in two
        two_vectors("reads_own_destination", |b, n, x, y| {
            for split in [false, true] {
                let i = begin(b, 0, Expr::var(n));
                let xi = || read(x, vec![Expr::var(i)]);
                b.assign(x, vec![Expr::var(i)], builtin("relu", vec![xi()]));
                let i = match split {
                    true => {
                        b.end_for();
                        begin(b, 0, Expr::var(n))
                    }
                    false => i,
                };
                let xi = || read(x, vec![Expr::var(i)]);
                b.assign(
                    y,
                    vec![Expr::var(i)],
                    xi().mul(xi()).sub(read(y, vec![Expr::var(i)])),
                );
                b.end_for();
            }
        }),
        // x[0] = x[0] + x[i]: a zero-step destination its statement reads
        two_vectors("zero_step_reads_own_destination", |b, n, x, _| {
            let i = begin(b, 0, Expr::var(n));
            b.assign(
                x,
                ints(&[0]),
                read(x, ints(&[0])).add(read(x, vec![Expr::var(i)])),
            );
            b.end_for();
        }),
        // t = alloc; t[i] = x[i] (first stores); y[i] = t[i] / 0
        two_vectors("fresh_alloc", |b, n, x, y| {
            let t = b.alloc("t", DataType::F32, ints(&[8]), MemName::dram());
            let i1 = begin(b, 0, Expr::var(n));
            b.assign(t, vec![Expr::var(i1)], read(x, vec![Expr::var(i1)]));
            b.end_for();
            let i2 = begin(b, 0, Expr::var(n));
            b.assign(
                y,
                vec![Expr::var(i2)],
                read(t, vec![Expr::var(i2)]).div(Expr::float(0.0)),
            );
            b.end_for();
        }),
        // t[i] = 1 for i < 3, then y[i] = t[i]: uninitialized at i = 3
        two_vectors("uninitialized_mid_range", |b, n, _, y| {
            let t = b.alloc("t", DataType::F32, ints(&[8]), MemName::dram());
            let i1 = begin(b, 0, Expr::int(3));
            b.assign(t, vec![Expr::var(i1)], Expr::float(1.0));
            b.end_for();
            let i2 = begin(b, 0, Expr::var(n));
            b.assign(y, vec![Expr::var(i2)], read(t, vec![Expr::var(i2)]));
            b.end_for();
        }),
        // t[i] += 1 for i < 8 after only t[0..3] were written
        two_vectors("reduce_into_uninitialized", |b, n, _, _| {
            let t = b.alloc("t", DataType::F32, ints(&[8]), MemName::dram());
            let i1 = begin(b, 0, Expr::int(3));
            b.assign(t, vec![Expr::var(i1)], Expr::float(1.0));
            b.end_for();
            let i2 = begin(b, 0, Expr::var(n));
            b.reduce(t, vec![Expr::var(i2)], Expr::float(1.0));
            b.end_for();
        }),
        // y[i + 1] = x[i] for i < 8: out of view at the last iteration
        two_vectors("out_of_view_at_last_iteration", |b, n, x, y| {
            let i = begin(b, 0, Expr::var(n));
            b.assign(
                y,
                vec![Expr::var(i).add(Expr::int(1))],
                read(x, vec![Expr::var(i)]),
            );
            b.end_for();
        }),
        // w = x[2:6]; w[i] = y[i] for i < 5: the window ends at i = 4
        two_vectors("window_out_of_view_at_last_iteration", |b, _, x, y| {
            let w = b.window("w", x, vec![WAccess::Interval(Expr::int(2), Expr::int(6))]);
            let i = begin(b, 0, Expr::int(5));
            b.assign(w, vec![Expr::var(i)], read(y, vec![Expr::var(i)]));
            b.end_for();
        }),
        dtypes(),
        window_arguments(),
    ]
}

fn single_store() -> Vec<Case> {
    let begin = |b: &mut ProcBuilder, n: Sym| b.begin_for("i", Expr::int(0), Expr::var(n));
    vec![
        // y[i] = 2.5; y[i] = x[i]; y[i] = x[3]
        two_vectors("fused_literal_read_and_zero_step_read", |b, n, x, y| {
            let rhs: [&dyn Fn(Sym) -> Expr; 3] = [
                &|_| Expr::float(2.5),
                &|i| read(x, vec![Expr::var(i)]),
                &|_| read(x, ints(&[3])),
            ];
            for rhs in rhs {
                let i = begin(b, n);
                b.assign(y, vec![Expr::var(i)], rhs(i));
                b.end_for();
            }
        }),
        binary_ops(),
        unary_and_builtin_ops(),
        single_store_dtypes(),
        // y[0] += x[i] * x[i]; y[1] += x[i] * y[i] (reads y[1] at i = 1)
        two_vectors("fused_zero_step_reduce", |b, n, x, y| {
            for (d, z) in [(0, x), (1, y)] {
                let i = begin(b, n);
                b.reduce(
                    y,
                    ints(&[d]),
                    read(x, vec![Expr::var(i)]).mul(read(z, vec![Expr::var(i)])),
                );
                b.end_for();
            }
        }),
        // x[i] = x[i] * y[i]; y[7 - i] = y[i] + x[i]
        two_vectors("fused_own_read", |b, n, x, y| {
            let i = begin(b, n);
            b.assign(
                x,
                vec![Expr::var(i)],
                read(x, vec![Expr::var(i)]).mul(read(y, vec![Expr::var(i)])),
            );
            b.end_for();
            let i = begin(b, n);
            b.assign(
                y,
                vec![Expr::int(7).sub(Expr::var(i))],
                read(y, vec![Expr::var(i)]).add(read(x, vec![Expr::var(i)])),
            );
            b.end_for();
        }),
        // t[i] = x[i] and t[i + 4] = y[i] for i < 4 make t dense; then
        // t[i] += x[i] * y[i] and y[i] = t[i] - x[i]
        two_vectors("fused_dense_through_earlier_statements", |b, n, x, y| {
            let t = b.alloc("t", DataType::F32, ints(&[8]), MemName::dram());
            let i = b.begin_for("i", Expr::int(0), Expr::int(4));
            b.assign(t, vec![Expr::var(i)], read(x, vec![Expr::var(i)]));
            b.end_for();
            let i = b.begin_for("i", Expr::int(0), Expr::int(4));
            b.assign(
                t,
                vec![Expr::var(i).add(Expr::int(4))],
                read(y, vec![Expr::var(i)]),
            );
            b.end_for();
            let i = begin(b, n);
            b.reduce(
                t,
                vec![Expr::var(i)],
                read(x, vec![Expr::var(i)]).mul(read(y, vec![Expr::var(i)])),
            );
            b.end_for();
            let i = begin(b, n);
            b.assign(
                y,
                vec![Expr::var(i)],
                read(t, vec![Expr::var(i)]).sub(read(x, vec![Expr::var(i)])),
            );
            b.end_for();
        }),
        // for j < 2: t : f32[4]; if j == 1: y[0] = t[0]; t[i] = x[i]
        two_vectors("realloc_read_before_write", |b, _, x, y| {
            let j = b.begin_for("j", Expr::int(0), Expr::int(2));
            let t = b.alloc("t", DataType::F32, ints(&[4]), MemName::dram());
            b.begin_if(Expr::var(j).eq(Expr::int(1)));
            b.assign(y, ints(&[0]), read(t, ints(&[0])));
            b.end_if();
            let i = b.begin_for("i", Expr::int(0), Expr::int(4));
            b.assign(t, vec![Expr::var(i)], read(x, vec![Expr::var(i)]));
            b.end_for();
            b.end_for();
        }),
        // for j < 2: t : f32[8]; t[i] = x[i] for i < 4; if j == 0:
        // t[i + 4] = x[i] for i < 4; y[0] = t[i] for i < 8
        two_vectors("realloc_read_of_unwritten_half", |b, n, x, y| {
            let j = b.begin_for("j", Expr::int(0), Expr::int(2));
            let t = b.alloc("t", DataType::F32, ints(&[8]), MemName::dram());
            let i = b.begin_for("i", Expr::int(0), Expr::int(4));
            b.assign(t, vec![Expr::var(i)], read(x, vec![Expr::var(i)]));
            b.end_for();
            b.begin_if(Expr::var(j).eq(Expr::int(0)));
            let i = b.begin_for("i", Expr::int(0), Expr::int(4));
            b.assign(
                t,
                vec![Expr::var(i).add(Expr::int(4))],
                read(x, vec![Expr::var(i)]),
            );
            b.end_for();
            b.end_if();
            let i = begin(b, n);
            b.assign(y, ints(&[0]), read(t, vec![Expr::var(i)]));
            b.end_for();
            b.end_for();
        }),
    ]
}

/// `z[o, i] = x[i] op y[7 - i]` for `+`, `-`, `*` and `/` (`/` by zero
/// at `i = 5`).
fn binary_ops() -> Case {
    use exo::core::ir::BinOp;
    let mut b = ProcBuilder::new("fused_binary_ops");
    let n = b.size("n");
    let x = b.tensor("x", DataType::F32, ints(&[8]));
    let y = b.tensor("y", DataType::F32, ints(&[8]));
    let z = b.tensor("z", DataType::F32, ints(&[4, 8]));
    for (o, op) in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]
        .into_iter()
        .enumerate()
    {
        let i = b.begin_for("i", Expr::int(0), Expr::var(n));
        b.assign(
            z,
            vec![Expr::int(o as i64), Expr::var(i)],
            Expr::bin(
                op,
                read(x, vec![Expr::var(i)]),
                read(y, vec![Expr::int(7).sub(Expr::var(i))]),
            ),
        );
        b.end_for();
    }
    Case {
        name: "fused_binary_ops".into(),
        proc: b.finish(),
        n: 8,
        inputs: vec![
            f32_input(8),
            f32_input(8),
            Input {
                dtype: DataType::F32,
                shape: vec![4, 8],
                values: None,
            },
        ],
    }
}

/// `z[o, i] = op(x[i])` into i8 for unary `-`, `relu`, `sqrt` and
/// `max(x[i], 0.5)`; then `x[i] = relu(x[i])` in place,
/// `y[i] = min(x[i], y[7 - i])` and the zero-step reduce
/// `y[0] += abs(x[i])`.
fn unary_and_builtin_ops() -> Case {
    let mut b = ProcBuilder::new("fused_unary_and_builtin_ops");
    let n = b.size("n");
    let x = b.tensor("x", DataType::F32, ints(&[8]));
    let y = b.tensor("y", DataType::F32, ints(&[8]));
    let z = b.tensor("z", DataType::I8, ints(&[4, 8]));
    let xi = |i: Sym| read(x, vec![Expr::var(i)]);
    let rhs: [&dyn Fn(Sym) -> Expr; 4] = [
        &|i| neg(xi(i)),
        &|i| builtin("relu", vec![xi(i)]),
        &|i| builtin("sqrt", vec![xi(i)]),
        &|i| builtin("max", vec![xi(i), Expr::float(0.5)]),
    ];
    for (o, rhs) in rhs.into_iter().enumerate() {
        let i = b.begin_for("i", Expr::int(0), Expr::var(n));
        b.assign(z, vec![Expr::int(o as i64), Expr::var(i)], rhs(i));
        b.end_for();
    }
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    b.assign(x, vec![Expr::var(i)], builtin("relu", vec![xi(i)]));
    b.end_for();
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    let yr = read(y, vec![Expr::int(7).sub(Expr::var(i))]);
    b.assign(y, vec![Expr::var(i)], builtin("min", vec![xi(i), yr]));
    b.end_for();
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    b.reduce(y, ints(&[0]), builtin("abs", vec![xi(i)]));
    b.end_for();
    Case {
        name: "fused_unary_and_builtin_ops".into(),
        proc: b.finish(),
        n: 8,
        inputs: vec![
            f32_input(8),
            f32_input(8),
            Input {
                dtype: DataType::I8,
                shape: vec![4, 8],
                values: None,
            },
        ],
    }
}

/// Single stores into i8 (saturating, also a zero-step reduce whose
/// order matters once it saturates), i32 (rounding) and f32 (narrowing)
/// destinations.
fn single_store_dtypes() -> Case {
    let mut b = ProcBuilder::new("fused_dtypes");
    let n = b.size("n");
    let x = b.tensor("x", DataType::F32, ints(&[8]));
    let c = b.tensor("c", DataType::I8, ints(&[8]));
    let d = b.tensor("d", DataType::I32, ints(&[8]));
    let e = b.tensor("e", DataType::F32, ints(&[8]));
    let xi = |i| read(x, vec![Expr::var(i)]);
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    b.assign(c, vec![Expr::var(i)], xi(i).mul(Expr::float(50.0)));
    b.end_for();
    let i = b.begin_for("i", Expr::int(1), Expr::var(n));
    b.reduce(c, ints(&[0]), xi(i).mul(Expr::float(50.0)));
    b.end_for();
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    b.assign(d, vec![Expr::var(i)], xi(i).div(Expr::float(0.7)));
    b.end_for();
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    b.reduce(d, vec![Expr::var(i)], xi(i).mul(Expr::float(1e10)));
    b.end_for();
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    b.assign(e, vec![Expr::var(i)], xi(i).div(Expr::float(3.0)));
    b.end_for();
    Case {
        name: "fused_dtypes".into(),
        proc: b.finish(),
        n: 8,
        inputs: vec![
            f32_input(8),
            Input {
                dtype: DataType::I8,
                shape: vec![8],
                values: None,
            },
            Input {
                dtype: DataType::I32,
                shape: vec![8],
                values: vals(8, |k| k as f64 * 3.0e8),
            },
            Input {
                dtype: DataType::F32,
                shape: vec![8],
                values: None,
            },
        ],
    }
}

/// i8, i32 and f32 destinations: saturating, rounding and narrowing
/// stores, and `/` by zero.
fn dtypes() -> Case {
    let mut b = ProcBuilder::new("dtypes");
    let n = b.size("n");
    let x = b.tensor("x", DataType::F32, ints(&[8]));
    let c = b.tensor("c", DataType::I8, ints(&[2, 8]));
    let d = b.tensor("d", DataType::I32, ints(&[8, 2]));
    let e = b.tensor("e", DataType::F32, ints(&[8]));
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    let xi = || read(x, vec![Expr::var(i)]);
    b.assign(
        c,
        vec![Expr::int(1), Expr::var(i)],
        xi().mul(Expr::float(50.0)),
    );
    b.reduce(
        c,
        vec![Expr::int(0), Expr::var(i)],
        xi().div(Expr::float(3.0)),
    );
    b.assign(
        d,
        vec![Expr::var(i), Expr::int(0)],
        xi().div(Expr::float(0.0)),
    );
    b.assign(
        e,
        vec![Expr::var(i)],
        xi().div(xi().sub(xi())).add(Expr::float(0.1)),
    );
    b.end_for();
    // the other column of d: its span meets the first one's
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    b.reduce(
        d,
        vec![Expr::var(i), Expr::int(1)],
        read(x, vec![Expr::var(i)]).mul(Expr::float(1e10)),
    );
    b.end_for();
    Case {
        name: "dtypes".into(),
        proc: b.finish(),
        n: 8,
        inputs: vec![
            f32_input(8),
            Input {
                dtype: DataType::I8,
                shape: vec![2, 8],
                values: vals(16, |k| k as f64 * 17.0 - 120.0),
            },
            Input {
                dtype: DataType::I32,
                shape: vec![8, 2],
                values: vals(16, |k| k as f64 * 3.0e8),
            },
            Input {
                dtype: DataType::F32,
                shape: vec![8],
                values: None,
            },
        ],
    }
}

/// A 16-lane instruction-style callee over windows: strided, reversed
/// and overlapping arguments.
fn window_arguments() -> Case {
    let mut cb = ProcBuilder::new("fma");
    let k = cb.size("k");
    let a = cb.window_arg("a", DataType::F32, vec![Expr::var(k)], MemName::dram());
    let bb = cb.window_arg("b", DataType::F32, vec![Expr::var(k)], MemName::dram());
    let dst = cb.window_arg("dst", DataType::F32, vec![Expr::var(k)], MemName::dram());
    let l = cb.begin_for("l", Expr::int(0), Expr::var(k));
    cb.reduce(
        dst,
        vec![Expr::var(l)],
        read(a, vec![Expr::var(l)]).mul(read(bb, vec![Expr::var(l)])),
    );
    cb.end_for();
    cb.instr("fma();");
    let fma = cb.finish();

    let mut b = ProcBuilder::new("window_arguments");
    let n = b.size("n");
    let x = b.tensor("x", DataType::F32, ints(&[4, 4]));
    let y = b.tensor("y", DataType::F32, ints(&[4, 4]));
    let iv = |lo, hi| WAccess::Interval(Expr::int(lo), Expr::int(hi));
    let pt = |v| WAccess::Point(Expr::int(v));
    let win = |buf, coords| Expr::Window { buf, coords };
    // a row times a column into a row of y
    b.call(
        &fma,
        vec![
            Expr::var(n),
            win(x, vec![pt(1), iv(0, 4)]),
            win(x, vec![iv(0, 4), pt(2)]),
            win(y, vec![pt(0), iv(0, 4)]),
        ],
    );
    // destination overlaps an operand: column 3 of x into itself
    b.call(
        &fma,
        vec![
            Expr::var(n),
            win(y, vec![iv(0, 4), pt(0)]),
            win(x, vec![iv(0, 4), pt(3)]),
            win(x, vec![iv(0, 4), pt(3)]),
        ],
    );
    // destination overlaps an operand at a shifted offset
    b.call(
        &fma,
        vec![
            Expr::int(3),
            win(y, vec![pt(2), iv(1, 4)]),
            win(y, vec![pt(2), iv(0, 3)]),
            win(y, vec![pt(2), iv(1, 4)]),
        ],
    );
    Case {
        name: "window_arguments".into(),
        proc: b.finish(),
        n: 4,
        inputs: vec![
            Input {
                dtype: DataType::F32,
                shape: vec![4, 4],
                values: vals(16, |k| k as f64 * 0.25 - 1.0),
            },
            Input {
                dtype: DataType::F32,
                shape: vec![4, 4],
                values: vals(16, |k| 2.0 - k as f64 * 0.5),
            },
        ],
    }
}

/// A data symbol in scope and its extents.
#[derive(Clone)]
struct Buf {
    sym: Sym,
    shape: Vec<i64>,
}

/// A seeded random program: tensors of rank 1–4, sometimes a partly
/// initialized allocation and a window, then loop nests whose inner
/// loops hold only stores with indices mostly affine in the iterator.
struct Gen {
    rng: Rng,
    bufs: Vec<Buf>,
    /// Enclosing iterators and their ranges `lo..hi`.
    outer: Vec<(Sym, i64, i64)>,
}

impl Gen {
    /// An index into an axis of extent `len` as `i` runs over `lo..hi`:
    /// usually affine in `i` and inside `0..len`, sometimes off by one
    /// at an end or not affine.
    fn index(&mut self, i: Sym, lo: i64, hi: i64, len: i64) -> Expr {
        let last = hi - 1;
        let fits: Vec<i64> = [-2, -1, 0, 0, 1, 1, 1, 2]
            .into_iter()
            .filter(|c: &i64| c.abs() * (last - lo) < len)
            .collect();
        let coef = self.rng.pick(&fits);
        // the offset `d` that keeps `coef * i + d` inside `0..len`
        let (min, max) = match coef >= 0 {
            true => (coef * lo, coef * last),
            false => (coef * last, coef * lo),
        };
        let mut d = self.rng.range(-min, len - 1 - max);
        if self.rng.pct(5) {
            d += self.rng.pick(&[-1, 1]);
        }
        let iv = Expr::var(i);
        let base = match coef {
            0 => match self.outer.last() {
                Some(&(j, jlo, jhi)) if self.rng.pct(40) && jlo >= 0 && jhi <= len => {
                    return Expr::var(j);
                }
                _ => return Expr::int(d),
            },
            1 => iv,
            -1 => match self.rng.pct(50) {
                true => neg(iv),
                false => return Expr::int(d).sub(iv),
            },
            c => match self.rng.pct(50) {
                true => Expr::int(c).mul(iv),
                false => iv.mul(Expr::int(c)),
            },
        };
        if self.rng.pct(4) {
            // not affine: falls back to the general loop
            return base.rem(Expr::int(len.max(1)));
        }
        match d {
            0 if self.rng.pct(50) => base,
            d if d < 0 => base.sub(Expr::int(-d)),
            d => base.add(Expr::int(d)),
        }
    }

    fn access(&mut self, i: Sym, lo: i64, hi: i64) -> (Sym, Vec<Expr>) {
        let b = self.rng.pick(&self.bufs);
        let idx = b
            .shape
            .iter()
            .map(|&len| self.index(i, lo, hi, len))
            .collect();
        (b.sym, idx)
    }

    fn data(&mut self, i: Sym, lo: i64, hi: i64, depth: u32) -> Expr {
        if depth == 0 || self.rng.pct(30) {
            return match self.rng.below(4) {
                0 => Expr::float(self.rng.below(9) as f64 / 4.0 - 1.0),
                _ => {
                    let (buf, idx) = self.access(i, lo, hi);
                    read(buf, idx)
                }
            };
        }
        let a = self.data(i, lo, hi, depth - 1);
        match self.rng.below(10) {
            0 => neg(a),
            1 => builtin(self.rng.pick(&["relu", "sqrt", "abs", "tanh"]), vec![a]),
            2 => {
                let b = self.data(i, lo, hi, depth - 1);
                builtin(self.rng.pick(&["max", "min"]), vec![a, b])
            }
            3 => a.div(Expr::float(self.rng.pick(&[0.0, 0.5, -2.0]))),
            _ => {
                let b = self.data(i, lo, hi, depth - 1);
                let op = self.rng.pick(&[
                    exo::core::ir::BinOp::Add,
                    exo::core::ir::BinOp::Sub,
                    exo::core::ir::BinOp::Mul,
                    exo::core::ir::BinOp::Div,
                ]);
                Expr::bin(op, a, b)
            }
        }
    }

    /// `for i in lo..hi:` with one to three stores, under an optional
    /// enclosing loop.
    fn nest(&mut self, b: &mut ProcBuilder, n: Sym) {
        let outer = self.rng.pct(40);
        if outer {
            let jhi = self.rng.range(1, 3);
            let j = b.begin_for("j", Expr::int(0), Expr::int(jhi));
            self.outer.push((j, 0, jhi));
        }
        let lo = self.rng.range(0, 1);
        let hi = lo + self.rng.range(1, 5);
        let hi_expr = match hi == 5 && lo == 0 {
            true => Expr::var(n),
            false => Expr::int(hi),
        };
        let i = b.begin_for("i", Expr::int(lo), hi_expr);
        for _ in 0..1 + self.rng.below(3) {
            let (buf, idx) = self.access(i, lo, hi);
            let rhs = self.data(i, lo, hi, 2);
            match self.rng.pct(35) {
                true => b.reduce(buf, idx, rhs),
                false => b.assign(buf, idx, rhs),
            };
        }
        b.end_for();
        if outer {
            self.outer.pop();
            b.end_for();
        }
    }

    fn case(seed: u64) -> Case {
        let mut g = Gen {
            rng: Rng(seed),
            bufs: Vec::new(),
            outer: Vec::new(),
        };
        let mut b = ProcBuilder::new(format!("seed{seed}"));
        let n = b.size("n");
        let mut inputs = Vec::new();
        for t in 0..3 {
            let rank = g.rng.range(1, 4) as usize;
            let shape: Vec<i64> = (0..rank).map(|_| g.rng.range(2, 6)).collect();
            let dtype = g
                .rng
                .pick(&[DataType::F32, DataType::F32, DataType::I32, DataType::I8]);
            let sym = b.tensor(&format!("T{t}"), dtype, ints(&shape));
            let len = shape.iter().product::<i64>() as usize;
            let scale = g.rng.pick(&[0.25, 0.25, 1.0, 40.0]);
            let values = match g.rng.pct(10) {
                true => None,
                false => Some(
                    (0..len)
                        .map(|_| (g.rng.below(33) as f64 - 16.0) * scale)
                        .collect(),
                ),
            };
            inputs.push(Input {
                dtype,
                shape: shape.iter().map(|&e| e as usize).collect(),
                values,
            });
            g.bufs.push(Buf { sym, shape });
        }
        if g.rng.pct(40) {
            // a fresh allocation, partly initialized by a first nest
            let rank = g.rng.range(1, 3) as usize;
            let shape: Vec<i64> = (0..rank).map(|_| g.rng.range(2, 5)).collect();
            let t = b.alloc("t", DataType::F32, ints(&shape), MemName::dram());
            let saved = std::mem::replace(&mut g.bufs, vec![Buf { sym: t, shape }]);
            let i = b.begin_for("i", Expr::int(0), Expr::int(4));
            let (buf, idx) = g.access(i, 0, 4);
            b.assign(buf, idx, Expr::float(1.5));
            b.end_for();
            g.bufs.extend(saved);
        }
        if g.rng.pct(50) {
            // a window: a point on the first axis of a rank ≥ 2 tensor,
            // an interval elsewhere
            let base = g.bufs[g.bufs.len() - 3..]
                .iter()
                .find(|b| b.shape.len() >= 2)
                .cloned();
            if let Some(base) = base {
                let mut coords = vec![WAccess::Point(Expr::int(base.shape[0] - 1))];
                let mut shape = Vec::new();
                for &len in &base.shape[1..] {
                    let lo = g.rng.range(0, 1);
                    coords.push(WAccess::Interval(Expr::int(lo), Expr::int(len)));
                    shape.push(len - lo);
                }
                let sym = b.window("w", base.sym, coords);
                g.bufs.push(Buf { sym, shape });
            }
        }
        for _ in 0..1 + g.rng.below(3) {
            g.nest(&mut b, n);
        }
        Case {
            name: format!("seed {seed}"),
            proc: b.finish(),
            n: 5,
            inputs,
        }
    }
}

#[test]
fn hand_written_loops_agree_under_both_budgets() {
    for case in hand_written() {
        check(&case);
    }
}

#[test]
fn single_store_loops_agree_under_both_budgets() {
    let ok: Vec<bool> = single_store().iter().map(check).collect();
    // every case runs to the end but the two reallocation cases
    assert_eq!(ok, [true, true, true, true, true, true, true, false, false]);
}

#[test]
fn seeded_loop_nests_agree_under_both_budgets() {
    let ok = (0..400).filter(|&seed| check(&Gen::case(seed))).count();
    // most seeds run to the end, so their later nests are compared too
    assert!(ok > 100, "only {ok} of 400 seeded cases ran without error");
}
