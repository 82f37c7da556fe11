//! Pins `replace`'s search over window embeddings (paper §3.4): which
//! candidate match is accepted, with what arguments, and the error text
//! when none is.
//!
//! A window formal of rank k bound to a caller buffer of rank r has
//! C(r, k) embeddings (strictly increasing maps from callee to caller
//! dimensions), and `replace` tries the cross product of every formal's
//! embeddings in a fixed order. It accepts the first candidate that
//! passes; when none does, it reports the last candidate's error. These
//! cases fix both, for searches where the accepted candidate is the last
//! one, the first one, or one in the middle, and for each way the last
//! candidate of a failed search can fail.

use std::sync::Arc;

use exo::core::ir::{ConfigDecl, Proc};
use exo::core::types::{CtrlType, DataType};
use exo::front::{parse_proc, ParseEnv};
use exo::interp::{ArgVal, Machine};
use exo::sched::Procedure;

/// The configuration struct `Cfg { row: index }` some cases read.
fn env() -> ParseEnv {
    static CFG: std::sync::OnceLock<ConfigDecl> = std::sync::OnceLock::new();
    let cfg = CFG.get_or_init(|| ConfigDecl::new("Cfg", vec![("row", CtrlType::Index)]));
    let mut env = ParseEnv::new();
    env.add_config(cfg);
    env
}

fn parse(src: &str) -> Arc<Proc> {
    parse_proc(src, &env()).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

/// `replace(pat, callee)` on `caller`: the replacing call's line, or the
/// error's message.
fn outcome(caller: &str, pat: &str, callee: &str) -> String {
    let callee = parse(callee);
    let name = callee.name.name();
    match Procedure::new(parse(caller)).replace(pat, &callee) {
        Ok(p) => {
            let shown = p.show();
            let call = shown
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("{name}(")))
                .unwrap_or_else(|| panic!("no call to {name} in\n{shown}"));
            format!("ok: {}", call.trim())
        }
        Err(e) => format!("err: {}", e.message),
    }
}

const COPY_2D: &str = r#"
@instr("copy_2d({src}.data, {dst}.data, {n}, {m});")
def copy_2d(n: size, m: size, src: [f32][n, m] @ DRAM, dst: [f32][n, m] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = src[i, j]
"#;

const COPY_1D: &str = r#"
@instr("copy_1d({src}.data, {dst}.data, {n});")
def copy_1d(n: size, src: [f32][n] @ DRAM, dst: [f32][n] @ DRAM):
    for i in seq(0, n):
        dst[i] = src[i]
"#;

#[test]
fn only_the_last_embedding_into_4d_buffers_fits() {
    // Each 2-D formal has C(4, 2) = 6 embeddings into a 4-D buffer, 36
    // candidates in all. Every embedding but the last puts a loop
    // iterator of the replaced block into a point coordinate.
    let caller = r#"
@proc
def conv_like(X: f32[2, 3, 8, 8], Y: f32[2, 3, 8, 8]):
    for b in seq(0, 2):
        for c in seq(0, 3):
            for i in seq(0, 8):
                for j in seq(0, 8):
                    Y[b, c, i, j] = X[b, c, i, j]
"#;
    assert_eq!(
        outcome(caller, "for i in _: _", COPY_2D),
        "ok: copy_2d(8, 8, X[b, c, 0:8, 0:8], Y[b, c, 0:8, 0:8])"
    );
}

#[test]
fn the_first_of_several_fitting_embeddings_is_taken() {
    // `src[0]` fits either dimension of `X`; the first embedding wins.
    let callee = r#"
@instr("bcast({src}.data, {dst}.data, {n});")
def bcast(n: size, src: [f32][1] @ DRAM, dst: [f32][n] @ DRAM):
    for i in seq(0, n):
        dst[i] = src[0]
"#;
    let caller = r#"
@proc
def fill(X: f32[4, 8], Y: f32[8]):
    for i in seq(0, 8):
        Y[i] = X[2, 5]
"#;
    assert_eq!(
        outcome(caller, "for i in _: _", callee),
        "ok: bcast(8, X[2:3, 5], Y[0:8])"
    );
}

#[test]
fn a_formal_read_twice_with_different_point_indices() {
    // `src` is read twice. A window into `X` that walks dimension 1 gives
    // dimension 0 the indices `i` and `j`: its offset is solved from the
    // first read, `i`, which the replaced block binds, and the second
    // read would need `i == j`. The other two windows put `i` into a
    // point coordinate too, so no call reads `X[i, i, 0] + X[j, i, 0]`;
    // the last candidate's error names the first offender.
    let callee = r#"
@instr("add_self({src}.data, {dst}.data, {n});")
def add_self(n: size, src: [f32][n] @ DRAM, dst: [f32][n] @ DRAM):
    for i in seq(0, n):
        dst[i] = src[i] + src[i]
"#;
    let caller = r#"
@proc
def twice(X: f32[8, 8, 2], Y: f32[8]):
    for j in seq(0, 4):
        for i in seq(0, 8):
            Y[i] = X[i, i, 0] + X[j, i, 0]
"#;
    assert_eq!(
        outcome(caller, "for i in _: _", callee),
        "err: replace: inferred value for off_src_0 depends on variables bound inside the \
         replaced block"
    );
    // with the reads swapped, the window along dimension 1 solves the
    // offset of dimension 0 as `j`, and the residual `j == i` is refuted
    let swapped = r#"
@proc
def twice_swapped(X: f32[8, 8], Y: f32[8]):
    for j in seq(0, 4):
        for i in seq(0, 8):
            Y[i] = X[j, i] + X[i, i]
"#;
    assert_eq!(
        outcome(swapped, "for i in _: _", callee),
        "err: replace: safety condition refuted"
    );
}

#[test]
fn a_quotient_point_index_is_rendered_as_the_division() {
    // lowering `o / 2` names the quotient with a fresh symbol; the
    // argument must spell the division, not that symbol
    let caller = r#"
@proc
def halves(X: f32[2, 8], Y: f32[4, 8]):
    for o in seq(0, 4):
        for i in seq(0, 8):
            Y[o, i] = X[o / 2, i]
"#;
    assert_eq!(
        outcome(caller, "for i in _: _", COPY_1D),
        "ok: copy_1d(8, X[o / 2, 0:8], Y[o, 0:8])"
    );
    // and the call computes what the loop did
    let before = parse(caller);
    let after = Procedure::new(Arc::clone(&before))
        .replace("for i in _: _", &parse(COPY_1D))
        .expect("replace accepts the division");
    let run = |proc: &Proc| {
        let mut m = Machine::new();
        let x: Vec<f64> = (0..16).map(f64::from).collect();
        let ix = m.alloc_extern("X", DataType::F32, &[2, 8], &x);
        let iy = m.alloc_extern("Y", DataType::F32, &[4, 8], &[0.0; 32]);
        m.run(proc, &[ArgVal::Tensor(ix), ArgVal::Tensor(iy)])
            .unwrap_or_else(|e| panic!("{e:?}"));
        m.buffer_values(iy).expect("Y is allocated")
    };
    let want = run(&before);
    assert_eq!(want[8..16], want[..8], "rows 0 and 1 both copy X[0]");
    assert_eq!(run(after.proc()), want);
    // a quotient of a variable the replaced block binds is out of scope,
    // also in a size no window shape mentions
    let rows = r#"
@instr("copy_rows({src}.data, {dst}.data, {n});")
def copy_rows(n: size, src: [f32][4, 8] @ DRAM, dst: [f32][4, 8] @ DRAM):
    for j in seq(0, 4):
        for i in seq(0, n):
            dst[j, i] = src[j, i]
"#;
    let ragged = r#"
@proc
def ragged(X: f32[4, 8], Y: f32[4, 8]):
    for j in seq(0, 4):
        for i in seq(0, j / 2):
            Y[j, i] = X[j, i]
"#;
    assert_eq!(
        outcome(ragged, "for j in _: _", rows),
        "err: replace: inferred value for n depends on variables bound inside the replaced \
         block"
    );
}

#[test]
fn a_configuration_read_as_a_point_index() {
    let caller = r#"
@proc
def row_copy(X: f32[4, 8], Y: f32[8]):
    for i in seq(0, 8):
        Y[i] = X[Cfg.row, i]
"#;
    assert_eq!(
        outcome(caller, "for i in _: _", COPY_1D),
        "ok: copy_1d(8, X[Cfg.row, 0:8], Y[0:8])"
    );
    // a write before the block is read through the dataflow state
    let written = r#"
@proc
def row_copy_set(X: f32[4, 8], Y: f32[8]):
    Cfg.row = 2
    for i in seq(0, 8):
        Y[i] = X[Cfg.row, i]
"#;
    assert_eq!(
        outcome(written, "for i in _: _", COPY_1D),
        "ok: copy_1d(8, X[2, 0:8], Y[0:8])"
    );
}

#[test]
fn no_match_reports_the_last_candidates_scope_error() {
    // both embeddings of `src` put `i` into a point coordinate
    let caller = r#"
@proc
def diag(X: f32[8, 8], Y: f32[8]):
    for i in seq(0, 8):
        Y[i] = X[i, i]
"#;
    assert_eq!(
        outcome(caller, "for i in _: _", COPY_1D),
        "err: replace: inferred value for off_src_0 depends on variables bound inside the \
         replaced block"
    );
}

#[test]
fn no_match_reports_the_last_candidates_unsolved_error() {
    // `2 * n == 8` has no unit coefficient to eliminate
    let callee = r#"
@instr("copy_even({src}.data, {dst}.data, {n});")
def copy_even(n: size, src: [f32][8] @ DRAM, dst: [f32][8] @ DRAM):
    for i in seq(0, 2 * n):
        dst[i] = src[i]
"#;
    let caller = r#"
@proc
def even(X: f32[2, 8], Y: f32[8]):
    for i in seq(0, 8):
        Y[i] = X[1, i]
"#;
    assert_eq!(
        outcome(caller, "for i in _: _", callee),
        "err: replace: could not solve for all unknown arguments"
    );
}

#[test]
fn no_match_reports_the_last_candidates_unconstrained_error() {
    let callee = r#"
@instr("copy_pad({src}.data, {dst}.data, {n}, {pad});")
def copy_pad(n: size, pad: size, src: [f32][n] @ DRAM, dst: [f32][n] @ DRAM):
    for i in seq(0, n):
        dst[i] = src[i]
"#;
    let caller = r#"
@proc
def padded(X: f32[2, 8], Y: f32[8]):
    for i in seq(0, 8):
        Y[i] = X[1, i]
"#;
    assert_eq!(
        outcome(caller, "for i in _: _", callee),
        "err: replace: argument pad is unconstrained by the match"
    );
}

#[test]
fn no_match_reports_the_last_candidates_refuted_precondition() {
    let callee = r#"
@instr("copy_small({src}.data, {dst}.data, {n});")
def copy_small(n: size, src: [f32][n] @ DRAM, dst: [f32][n] @ DRAM):
    assert n <= 4
    for i in seq(0, n):
        dst[i] = src[i]
"#;
    let caller = r#"
@proc
def big(X: f32[2, 8], Y: f32[8]):
    for i in seq(0, 8):
        Y[i] = X[1, i]
"#;
    assert_eq!(
        outcome(caller, "for i in _: _", callee),
        "err: replace: safety condition refuted"
    );
}

#[test]
fn the_scope_error_names_the_first_offender() {
    // In the last candidate both windows put `i` into a point coordinate.
    // The error names the first offending offset in the callee's formal
    // order, then in caller-dimension order.
    let caller = r#"
@proc
def diag2(X: f32[8, 8], Y: f32[8, 8]):
    for i in seq(0, 8):
        Y[i, i] = X[i, i]
"#;
    assert_eq!(
        outcome(caller, "for i in _: _", COPY_1D),
        "err: replace: inferred value for off_src_0 depends on variables bound inside the \
         replaced block"
    );
    let dst_first = r#"
@instr("copy_1d_rev({dst}.data, {src}.data, {n});")
def copy_1d_rev(n: size, dst: [f32][n] @ DRAM, src: [f32][n] @ DRAM):
    for i in seq(0, n):
        dst[i] = src[i]
"#;
    assert_eq!(
        outcome(caller, "for i in _: _", dst_first),
        "err: replace: inferred value for off_dst_0 depends on variables bound inside the \
         replaced block"
    );
    // a scalar read at `X[i, i]`: both of its point coordinates offend
    let scalar = r#"
@instr("fill_1d({s}, {dst}.data, {n});")
def fill_1d(n: size, s: f32 @ DRAM, dst: [f32][n] @ DRAM):
    for i in seq(0, n):
        dst[i] = s
"#;
    let caller = r#"
@proc
def diag_fill(X: f32[8, 8], Y: f32[8]):
    for i in seq(0, 8):
        Y[i] = X[i, i]
"#;
    assert_eq!(
        outcome(caller, "for i in _: _", scalar),
        "err: replace: inferred value for off_s_0 depends on variables bound inside the \
         replaced block"
    );
}
