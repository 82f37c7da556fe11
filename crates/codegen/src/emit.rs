//! C code generation (paper §3.1.2).
//!
//! Exo compiles to human-readable C that is more or less a syntactic
//! translation of the IR: scalars pass by pointer, windows compile to
//! `(pointer, strides)` structs, dense tensors to raw pointers with
//! shape-derived strides, `@instr` calls expand their C templates, and
//! user-defined memories control allocation code. Static assertions
//! become comments plus optional compiler hints.
//!
//! Each data symbol is resolved once, when it is bound, to a [`View`]:
//! its C origin pointer and one stride expression per axis. Every
//! access, window and `stride()` is rendered from that view.

use std::fmt::Write as _;
use std::sync::Arc;

use exo_core::hash::{HashMap, HashSet};
use exo_core::ir::{ArgType, BinOp, Expr, Lit, Proc, Stmt, WAccess};
use exo_core::types::{DataType, MemName};
use exo_core::{ConfigDecl, Sym};

use crate::mem::MemorySet;

/// A code-generation error (backend check failure).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CodegenError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CodegenError {}

fn cerr<T>(message: impl Into<String>) -> Result<T, CodegenError> {
    Err(CodegenError {
        message: message.into(),
    })
}

/// Everything a code-generation run needs besides the procedures.
#[derive(Default)]
pub struct CodegenCtx {
    /// Known memories.
    pub mems: MemorySet,
    /// Configuration struct declarations.
    pub configs: Vec<ConfigDecl>,
    /// Loops approved for parallel execution, keyed by iteration
    /// variable: the loop gets `#pragma omp parallel for`, with a
    /// `reduction(+:…)` clause over the listed buffers when non-empty.
    /// Populate from `exo_sched::Procedure::parallel_marks()`.
    pub parallel: HashMap<Sym, Vec<Sym>>,
}

impl CodegenCtx {
    /// A context with only DRAM and no configuration state.
    pub fn new() -> CodegenCtx {
        CodegenCtx::default()
    }

    /// Approves the loop over `iter` for parallel emission, with an
    /// OpenMP reduction clause over `reductions` (empty for none).
    pub fn mark_parallel(&mut self, iter: Sym, reductions: Vec<Sym>) {
        self.parallel.insert(iter, reductions);
    }

    fn config(&self, name: Sym) -> Option<&ConfigDecl> {
        self.configs.iter().find(|c| c.name == name)
    }
}

/// Generates a self-contained C translation unit containing `procs`
/// (with all transitively called non-`@instr` procedures).
///
/// # Errors
///
/// Fails on backend-check violations: unresolved `R` precision, mixed
/// precisions, or direct access to a non-addressable memory.
pub fn compile_c(procs: &[Arc<Proc>], ctx: &CodegenCtx) -> Result<String, CodegenError> {
    let _span = exo_obs::Span::enter("codegen.compile_c");
    let mut order: Vec<Arc<Proc>> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::default();
    for p in procs {
        collect_procs(p, &mut order, &mut seen);
    }

    let mut out = String::new();
    let _ = writeln!(out, "#include <stdint.h>");
    let _ = writeln!(out, "#include <stdbool.h>");
    let _ = writeln!(out, "#include <stdlib.h>");
    let _ = writeln!(out, "#include <math.h>");
    let _ = writeln!(out);

    // window struct typedefs for every (rank, type) used
    let mut win_types: HashSet<(usize, DataType)> = HashSet::default();
    for p in &order {
        scan_window_types(p, &mut win_types)?;
    }
    let mut wt: Vec<(usize, DataType)> = win_types.into_iter().collect();
    wt.sort_by_key(|(r, t)| (*r, format!("{t}")));
    for (rank, ty) in wt {
        let cty = c_type(ty)?;
        let _ = writeln!(out, "struct exo_win_{rank}{ty} {{");
        let _ = writeln!(out, "    {cty} *data;");
        let _ = writeln!(out, "    int_fast32_t strides[{}];", rank.max(1));
        let _ = writeln!(out, "}};");
    }
    let _ = writeln!(out);

    // configuration structs (materialized ones only)
    for cfg in &ctx.configs {
        if !cfg.materialize {
            continue;
        }
        let _ = writeln!(out, "struct {}_t {{", cfg.name);
        for f in &cfg.fields {
            let _ = writeln!(out, "    int_fast32_t {};", f.name);
        }
        let _ = writeln!(out, "}};");
        let _ = writeln!(out, "static struct {}_t {};", cfg.name, cfg.name);
        let _ = writeln!(out);
    }

    // memory globals, in registration order
    let mut emitted_globals: HashSet<&str> = HashSet::default();
    for g in ctx.mems.iter().filter_map(|m| m.c_global.as_deref()) {
        if emitted_globals.insert(g) {
            let _ = writeln!(out, "{g}");
        }
    }
    let _ = writeln!(out);

    // prototypes then definitions (callees first thanks to post-order)
    let mut gens = order
        .iter()
        .filter(|p| !p.is_instr())
        .map(|p| ProcGen::new(p, ctx))
        .collect::<Result<Vec<_>, _>>()?;
    for gen in &mut gens {
        let _ = writeln!(out, "{};", gen.signature()?);
    }
    let _ = writeln!(out);
    for gen in &mut gens {
        out.push_str(&gen.emit()?);
        let _ = writeln!(out);
    }
    Ok(out)
}

fn collect_procs(p: &Arc<Proc>, order: &mut Vec<Arc<Proc>>, seen: &mut HashSet<usize>) {
    let key = Arc::as_ptr(p) as usize;
    if !seen.insert(key) {
        return;
    }
    exo_core::visit::visit_stmts(&p.body, &mut |s| {
        if let Stmt::Call { proc, .. } = s {
            collect_procs(proc, order, seen);
        }
    });
    order.push(Arc::clone(p));
}

/// Notes every window struct `p` can use: windows only reduce rank, so
/// each sub-rank of each tensor formal and allocation. Rejects
/// allocations that still have abstract type `R`.
fn scan_window_types(p: &Proc, out: &mut HashSet<(usize, DataType)>) -> Result<(), CodegenError> {
    for a in &p.args {
        if let ArgType::Tensor { ty, shape, .. } = &a.ty {
            out.extend((0..=shape.len()).map(|r| (r, *ty)));
        }
    }
    let mut abstract_alloc = false;
    exo_core::visit::visit_stmts(&p.body, &mut |s| {
        if let Stmt::Alloc { ty, shape, .. } = s {
            abstract_alloc |= *ty == DataType::R;
            out.extend((0..=shape.len()).map(|r| (r, *ty)));
        }
    });
    if abstract_alloc {
        return cerr(format!(
            "procedure {}: allocation still has abstract type R \
             (apply set_precision before code generation)",
            p.name
        ));
    }
    Ok(())
}

fn c_type(ty: DataType) -> Result<&'static str, CodegenError> {
    ty.c_name().ok_or_else(|| CodegenError {
        message: "abstract type R survives to code generation \
                  (apply set_precision first)"
            .into(),
    })
}

fn c_binop(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "%",
        BinOp::And => "&&",
        BinOp::Or => "||",
        BinOp::Eq => "==",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ViewKind {
    /// Scalar passed by pointer, accessed as `*x`.
    Scalar,
    /// Raw pointer with shape-derived strides.
    Dense,
    /// Window struct with runtime strides.
    Window,
}

/// What the emitter knows about one data symbol, resolved when it is
/// bound.
#[derive(Debug)]
struct View {
    ty: DataType,
    mem: MemName,
    /// C pointer to the origin: `A`, or `w.data` for a window.
    data: String,
    /// One C expression per axis: `1`, a product of extents, or
    /// `w.strides[d]`.
    strides: Vec<String>,
    kind: ViewKind,
}

impl View {
    /// A dense buffer, row-major: `stride_d = Π_{d' > d} extent_{d'}`.
    fn dense(ty: DataType, mem: MemName, data: String, extents: &[String]) -> View {
        let strides = (1..=extents.len())
            .map(|d| match &extents[d..] {
                [] => "1".to_string(),
                inner => inner.join(" * "),
            })
            .collect();
        View {
            ty,
            mem,
            data,
            strides,
            kind: ViewKind::Dense,
        }
    }

    fn window(ty: DataType, mem: MemName, name: &str, rank: usize) -> View {
        View {
            ty,
            mem,
            data: format!("{name}.data"),
            strides: (0..rank).map(|d| format!("{name}.strides[{d}]")).collect(),
            kind: ViewKind::Window,
        }
    }
}

struct ProcGen<'a> {
    proc: &'a Proc,
    ctx: &'a CodegenCtx,
    names: HashMap<Sym, String>,
    used_names: HashSet<String>,
    views: HashMap<Sym, View>,
    body: String,
    indent: usize,
}

impl<'a> ProcGen<'a> {
    fn new(proc: &'a Proc, ctx: &'a CodegenCtx) -> Result<ProcGen<'a>, CodegenError> {
        let mut gen = ProcGen {
            proc,
            ctx,
            names: HashMap::default(),
            used_names: HashSet::default(),
            views: HashMap::default(),
            body: String::new(),
            indent: 1,
        };
        // every formal is named before any shape is rendered, so
        // renaming suffixes follow the argument order
        for a in &proc.args {
            gen.intern(a.name);
        }
        for a in &proc.args {
            let name = gen.intern(a.name);
            let view = match &a.ty {
                ArgType::Ctrl(_) => continue,
                ArgType::Scalar { ty, mem } => View {
                    ty: *ty,
                    mem: *mem,
                    data: name,
                    strides: Vec::new(),
                    kind: ViewKind::Scalar,
                },
                ArgType::Tensor {
                    ty,
                    shape,
                    window: true,
                    mem,
                } => View::window(*ty, *mem, &name, shape.len()),
                ArgType::Tensor { ty, shape, mem, .. } => {
                    View::dense(*ty, *mem, name, &gen.extents(shape)?)
                }
            };
            gen.views.insert(a.name, view);
        }
        Ok(gen)
    }

    fn intern(&mut self, s: Sym) -> String {
        if let Some(n) = self.names.get(&s) {
            return n.clone();
        }
        let base = sanitize(&s.name());
        let name = if self.used_names.contains(&base) {
            format!("{base}_{}", s.id())
        } else {
            base
        };
        self.used_names.insert(name.clone());
        self.names.insert(s, name.clone());
        name
    }

    /// Renders each extent of `shape`, parenthesized.
    fn extents(&mut self, shape: &[Expr]) -> Result<Vec<String>, CodegenError> {
        shape
            .iter()
            .map(|e| self.ctrl_expr(e).map(|s| format!("({s})")))
            .collect()
    }

    fn view(&self, buf: Sym) -> Result<&View, CodegenError> {
        self.views.get(&buf).ok_or_else(|| CodegenError {
            message: format!("unknown data symbol {buf} at code generation"),
        })
    }

    fn signature(&mut self) -> Result<String, CodegenError> {
        let mut parts = Vec::new();
        for a in &self.proc.args {
            let name = self.intern(a.name);
            let part = match &a.ty {
                ArgType::Ctrl(exo_core::CtrlType::Bool) => format!("bool {name}"),
                ArgType::Ctrl(_) => format!("int_fast32_t {name}"),
                ArgType::Tensor {
                    ty,
                    shape,
                    window: true,
                    ..
                } => format!("struct exo_win_{}{} {name}", shape.len(), ty),
                ArgType::Scalar { ty, .. } | ArgType::Tensor { ty, .. } => {
                    format!("{} *{name}", c_type(*ty)?)
                }
            };
            parts.push(part);
        }
        if parts.is_empty() {
            parts.push("void".into());
        }
        Ok(format!(
            "void {}({})",
            sanitize(&self.proc.name.name()),
            parts.join(", ")
        ))
    }

    fn emit(&mut self) -> Result<String, CodegenError> {
        let sig = self.signature()?;
        let mut out = String::new();
        let _ = writeln!(out, "// {}", one_line_doc(self.proc));
        let _ = writeln!(out, "{sig} {{");
        for pred in &self.proc.preds {
            let _ = writeln!(
                out,
                "    // assert {}",
                exo_core::printer::expr_to_string(pred)
            );
        }
        let proc = self.proc;
        self.gen_block(&proc.body)?;
        out.push_str(&self.body);
        let _ = writeln!(out, "}}");
        Ok(out)
    }

    fn line(&mut self, text: &str) {
        let pad = "    ".repeat(self.indent);
        let _ = writeln!(self.body, "{pad}{text}");
    }

    fn gen_block(&mut self, block: &[Stmt]) -> Result<(), CodegenError> {
        let mut frees: Vec<String> = Vec::new();
        for s in block {
            self.gen_stmt(s, &mut frees)?;
        }
        for f in frees.into_iter().rev() {
            if !f.is_empty() {
                self.line(&f);
            }
        }
        Ok(())
    }

    fn gen_stmt(&mut self, s: &Stmt, frees: &mut Vec<String>) -> Result<(), CodegenError> {
        match s {
            Stmt::Pass => {
                self.line("; // pass");
                Ok(())
            }
            Stmt::Assign { buf, idx, rhs } => {
                let (lhs, ty) = self.lvalue(*buf, idx, "write")?;
                let r = self.store_expr(rhs, ty)?;
                self.line(&format!("{lhs} = {r};"));
                Ok(())
            }
            Stmt::Reduce { buf, idx, rhs } => {
                let (lhs, ty) = self.lvalue(*buf, idx, "reduce")?;
                let r = self.store_expr(rhs, ty)?;
                self.line(&format!("{lhs} += {r};"));
                Ok(())
            }
            Stmt::WriteConfig { config, field, rhs } => {
                let Some(decl) = self.ctx.config(*config) else {
                    return cerr(format!(
                        "write to undeclared configuration {}",
                        config.name()
                    ));
                };
                if !decl.materialize {
                    return cerr(format!(
                        "configuration {} is not materialized; only instructions \
                         may write it",
                        config.name()
                    ));
                }
                let r = self.ctrl_expr(rhs)?;
                self.line(&format!("{}.{} = {r};", config.name(), field.name()));
                Ok(())
            }
            Stmt::If { cond, body, orelse } => {
                let c = self.ctrl_expr(cond)?;
                self.line(&format!("if ({c}) {{"));
                self.indent += 1;
                self.gen_block(body)?;
                self.indent -= 1;
                if orelse.is_empty() {
                    self.line("}");
                } else {
                    self.line("} else {");
                    self.indent += 1;
                    self.gen_block(orelse)?;
                    self.indent -= 1;
                    self.line("}");
                }
                Ok(())
            }
            Stmt::For { iter, lo, hi, body } => {
                let v = self.intern(*iter);
                let lo = self.ctrl_expr(lo)?;
                let hi = self.ctrl_expr(hi)?;
                if let Some(reductions) = self.ctx.parallel.get(iter) {
                    if reductions.is_empty() {
                        self.line("#pragma omp parallel for");
                    } else {
                        let names: Vec<String> =
                            reductions.iter().map(|b| self.intern(*b)).collect();
                        self.line(&format!(
                            "#pragma omp parallel for reduction(+:{})",
                            names.join(", ")
                        ));
                    }
                }
                self.line(&format!(
                    "for (int_fast32_t {v} = {lo}; {v} < {hi}; {v}++) {{"
                ));
                self.indent += 1;
                self.gen_block(body)?;
                self.indent -= 1;
                self.line("}");
                Ok(())
            }
            Stmt::Alloc {
                name,
                ty,
                shape,
                mem,
            } => {
                let cname = self.intern(*name);
                let cty = c_type(*ty)?;
                let extents = self.extents(shape)?;
                let size = if extents.is_empty() {
                    "1".to_string()
                } else {
                    extents.join(" * ")
                };
                let memory = self.ctx.mems.get(*mem).ok_or_else(|| CodegenError {
                    message: format!("unknown memory {mem} for allocation {name}"),
                })?;
                let alloc = memory
                    .alloc
                    .replace("{name}", &cname)
                    .replace("{prim_type}", cty)
                    .replace("{size}", &size);
                frees.push(
                    memory
                        .free
                        .replace("{name}", &cname)
                        .replace("{prim_type}", cty),
                );
                self.line(&alloc);
                self.views
                    .insert(*name, View::dense(*ty, *mem, cname, &extents));
                Ok(())
            }
            Stmt::WindowDef { name, rhs } => {
                let Expr::Window { buf, coords } = rhs else {
                    return cerr("window definition without window expression");
                };
                let (expr, ty, rank, mem) = self.window_struct(*buf, coords)?;
                let cname = self.intern(*name);
                self.line(&format!("struct exo_win_{rank}{ty} {cname} = {expr};"));
                self.views
                    .insert(*name, View::window(ty, mem, &cname, rank));
                Ok(())
            }
            Stmt::Call { proc, args } => self.gen_call(proc, args),
        }
    }

    fn gen_call(&mut self, callee: &Proc, args: &[Expr]) -> Result<(), CodegenError> {
        let mut rendered: Vec<(String, String)> = Vec::new(); // (formal, C expr)
        for (formal, actual) in callee.args.iter().zip(args) {
            let code = match &formal.ty {
                ArgType::Ctrl(_) => self.ctrl_expr(actual)?,
                ArgType::Scalar { .. } => self.scalar_arg(actual)?,
                ArgType::Tensor { shape, window, .. } => {
                    self.tensor_arg(actual, shape.len(), *window)?
                }
            };
            rendered.push((formal.name.name(), code));
        }
        match &callee.instr {
            Some(t) => {
                // expand the template: {arg} holes; {arg_data} renders the
                // data pointer of a window/tensor argument
                let mut text = t.c_instr.clone();
                for (formal, code) in &rendered {
                    text = text.replace(&format!("{{{formal}_data}}"), &format!("{code}.data"));
                    text = text.replace(&format!("{{{formal}}}"), code);
                }
                for line in text.lines() {
                    self.line(line);
                }
                Ok(())
            }
            None => {
                let args: Vec<String> = rendered.into_iter().map(|(_, c)| c).collect();
                self.line(&format!(
                    "{}({});",
                    sanitize(&callee.name.name()),
                    args.join(", ")
                ));
                Ok(())
            }
        }
    }

    fn scalar_arg(&mut self, e: &Expr) -> Result<String, CodegenError> {
        let Expr::Read { buf, idx } = e else {
            return cerr("scalar argument must be an lvalue");
        };
        let view = self.view(*buf)?;
        if idx.is_empty() && view.kind == ViewKind::Scalar {
            return Ok(view.data.clone());
        }
        let (lv, _) = self.lvalue(*buf, idx, "pass")?;
        Ok(format!("&{lv}"))
    }

    fn tensor_arg(&mut self, e: &Expr, rank: usize, window: bool) -> Result<String, CodegenError> {
        match e {
            Expr::Read { buf, idx } if idx.is_empty() => {
                let name = self.intern(*buf);
                let view = self.view(*buf)?;
                match (view.kind, window) {
                    (ViewKind::Dense, false) => Ok(name),
                    // wrap a dense buffer in a window struct
                    (ViewKind::Dense, true) => Ok(format!(
                        "(struct exo_win_{rank}{}){{ {name}, {{ {} }} }}",
                        view.ty,
                        view.strides.join(", ")
                    )),
                    (ViewKind::Window, true) if view.strides.len() == rank => Ok(name),
                    _ => cerr("tensor argument shape mismatch at code generation"),
                }
            }
            Expr::Window { buf, coords } => {
                let (expr, _, wrank, _) = self.window_struct(*buf, coords)?;
                if wrank != rank {
                    return cerr("window argument rank mismatch at code generation");
                }
                if !window {
                    return cerr(
                        "window expression passed to a dense tensor parameter; \
                         declare the parameter as a window ([R][…])",
                    );
                }
                Ok(expr)
            }
            _ => cerr("tensor argument must be a buffer or window expression"),
        }
    }

    /// Builds a window-struct expression from a windowing of `buf`:
    /// offset `Σ lo_d · stride_d`, and the strides of the interval axes.
    fn window_struct(
        &mut self,
        buf: Sym,
        coords: &[WAccess],
    ) -> Result<(String, DataType, usize, MemName), CodegenError> {
        let name = self.intern(buf);
        let los = coords
            .iter()
            .map(|c| match c {
                WAccess::Point(lo) | WAccess::Interval(lo, _) => self.ctrl_expr(lo),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let view = self.view(buf)?;
        if view.kind == ViewKind::Scalar {
            return cerr(format!("cannot window the scalar {name}"));
        }
        if coords.len() != view.strides.len() {
            return cerr(format!("window arity mismatch over {name}"));
        }
        let mut offset: Vec<String> = los
            .iter()
            .zip(&view.strides)
            .map(|(lo, st)| format!("({lo}) * ({st})"))
            .collect();
        let mut kept: Vec<&str> = coords
            .iter()
            .zip(&view.strides)
            .filter(|(c, _)| c.is_interval())
            .map(|(_, st)| st.as_str())
            .collect();
        let rank = kept.len();
        if offset.is_empty() {
            offset.push("0".into());
        }
        if kept.is_empty() {
            kept.push("1");
        }
        let expr = format!(
            "(struct exo_win_{rank}{}){{ &{}[{}], {{ {} }} }}",
            view.ty,
            view.data,
            offset.join(" + "),
            kept.join(", ")
        );
        Ok((expr, view.ty, rank, view.mem))
    }

    /// Renders an lvalue for a buffer access and enforces the
    /// addressability backend check.
    fn lvalue(
        &mut self,
        buf: Sym,
        idx: &[Expr],
        what: &str,
    ) -> Result<(String, DataType), CodegenError> {
        let idx = idx
            .iter()
            .map(|e| self.ctrl_expr(e))
            .collect::<Result<Vec<_>, _>>()?;
        let name = self.intern(buf);
        let view = self.view(buf)?;
        match self.ctx.mems.get(view.mem) {
            None => return cerr(format!("unknown memory {}", view.mem)),
            Some(m) if !m.addressable => {
                return cerr(format!(
                    "cannot {what} {} directly: memory {} is not addressable \
                     (use a custom instruction)",
                    buf.name(),
                    view.mem
                ))
            }
            Some(_) => {}
        }
        if idx.len() != view.strides.len() {
            return cerr(match view.kind {
                ViewKind::Scalar => format!("indexing the scalar {name}"),
                ViewKind::Dense => format!("access arity mismatch on {name}"),
                ViewKind::Window => format!("access arity mismatch on window {name}"),
            });
        }
        // dense strides are parenthesized and the unit stride dropped;
        // window strides are struct fields
        let terms: Vec<String> = idx
            .iter()
            .zip(&view.strides)
            .map(|(i, st)| match (view.kind, st.as_str()) {
                (ViewKind::Dense, "1") => format!("({i})"),
                (ViewKind::Dense, _) => format!("({i}) * ({st})"),
                _ => format!("({i}) * {st}"),
            })
            .collect();
        let code = match view.kind {
            ViewKind::Scalar => format!("*{}", view.data),
            _ if terms.is_empty() => format!("{}[0]", view.data),
            _ => format!("{}[{}]", view.data, terms.join(" + ")),
        };
        Ok((code, view.ty))
    }

    /// Renders the right-hand side of a store into a `expect` buffer,
    /// casting just before the write (paper §3.1.1).
    fn store_expr(&mut self, e: &Expr, expect: DataType) -> Result<String, CodegenError> {
        match self.data_expr(e)? {
            (code, Some(ty)) if ty != expect => Ok(format!("({}) ({code})", c_type(expect)?)),
            (code, _) => Ok(code),
        }
    }

    /// Renders a data expression with its precision (`None` when only
    /// literals, which adapt, are involved). Mixed-precision arithmetic
    /// is rejected.
    fn data_expr(&mut self, e: &Expr) -> Result<(String, Option<DataType>), CodegenError> {
        match e {
            Expr::Lit(Lit::Float(v)) => Ok((format!("{v:?}"), None)),
            Expr::Lit(Lit::Int(v)) => Ok((format!("{v}.0"), None)),
            Expr::Read { buf, idx } => {
                if self.view(*buf)?.ty == DataType::R {
                    return cerr(format!(
                        "{} still has abstract type R at code generation",
                        buf.name()
                    ));
                }
                let (code, ty) = self.lvalue(*buf, idx, "read")?;
                Ok((code, Some(ty)))
            }
            Expr::BinOp(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div), a, b) => {
                let (x, ta) = self.data_expr(a)?;
                let (y, tb) = self.data_expr(b)?;
                if let (Some(x), Some(y)) = (ta, tb) {
                    if x != y {
                        return cerr(format!(
                            "mixed-precision arithmetic ({x} vs {y}); insert a staging \
                             buffer with set_precision"
                        ));
                    }
                }
                Ok((format!("({x} {} {y})", c_binop(*op)), ta.or(tb)))
            }
            Expr::BinOp(op, ..) => cerr(format!("operator {op} on data values")),
            Expr::Neg(a) => {
                let (x, ty) = self.data_expr(a)?;
                Ok((format!("(-{x})"), ty))
            }
            Expr::BuiltIn { func, args } => {
                let mut xs = Vec::with_capacity(args.len());
                let mut ty = None;
                for a in args {
                    let (x, t) = self.data_expr(a)?;
                    if ty.is_some() && t.is_some() && ty != t {
                        return cerr("mixed-precision builtin arguments");
                    }
                    ty = ty.or(t);
                    xs.push(x);
                }
                let name = func.name();
                let code = match (name.as_str(), xs.as_slice()) {
                    ("relu", [x]) => format!("fmax(0.0, {x})"),
                    ("abs", [x]) => format!("fabs({x})"),
                    ("max", [x, y]) => format!("fmax({x}, {y})"),
                    ("min", [x, y]) => format!("fmin({x}, {y})"),
                    ("relu" | "abs", _) => {
                        return cerr(format!("builtin {name} expects 1 argument"))
                    }
                    ("max" | "min", _) => {
                        return cerr(format!("builtin {name} expects 2 arguments"))
                    }
                    _ => format!("{name}({})", xs.join(", ")),
                };
                Ok((code, ty))
            }
            _ => cerr("control expression in data position"),
        }
    }

    fn ctrl_expr(&mut self, e: &Expr) -> Result<String, CodegenError> {
        match e {
            Expr::Var(x) => Ok(self.intern(*x)),
            Expr::Lit(Lit::Int(v)) => Ok(format!("{v}")),
            Expr::Lit(Lit::Bool(v)) => Ok(format!("{v}")),
            Expr::Lit(Lit::Float(_)) => cerr("float literal in control position"),
            Expr::BinOp(op, a, b) => {
                let x = self.ctrl_expr(a)?;
                let y = self.ctrl_expr(b)?;
                Ok(format!("({x} {} {y})", c_binop(*op)))
            }
            Expr::Neg(a) => Ok(format!("(-{})", self.ctrl_expr(a)?)),
            Expr::Stride { buf, dim } => {
                let view = self.view(*buf)?;
                if view.kind == ViewKind::Scalar {
                    return cerr("stride of a scalar");
                }
                view.strides.get(*dim).cloned().ok_or_else(|| CodegenError {
                    message: format!("stride dimension {dim} out of range"),
                })
            }
            Expr::ReadConfig { config, field } => {
                let Some(decl) = self.ctx.config(*config) else {
                    return cerr(format!("read of undeclared configuration {config}"));
                };
                if !decl.materialize {
                    return cerr(format!(
                        "configuration {config} is not materialized; reads are \
                         only allowed inside instruction semantics"
                    ));
                }
                Ok(format!("{}.{}", config.name(), field.name()))
            }
            _ => cerr("data expression in control position"),
        }
    }
}

fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn one_line_doc(p: &Proc) -> String {
    format!(
        "{}: generated by exo-rs from @proc {}",
        sanitize(&p.name.name()),
        p.name
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::build::{read, ProcBuilder};

    fn gemm() -> Arc<Proc> {
        let mut b = ProcBuilder::new("gemm");
        let n = b.size("n");
        let a = b.tensor("A", DataType::F32, vec![Expr::var(n), Expr::var(n)]);
        let bb = b.tensor("B", DataType::F32, vec![Expr::var(n), Expr::var(n)]);
        let c = b.tensor("C", DataType::F32, vec![Expr::var(n), Expr::var(n)]);
        let i = b.begin_for("i", Expr::int(0), Expr::var(n));
        let j = b.begin_for("j", Expr::int(0), Expr::var(n));
        let k = b.begin_for("k", Expr::int(0), Expr::var(n));
        b.reduce(
            c,
            vec![Expr::var(i), Expr::var(j)],
            read(a, vec![Expr::var(i), Expr::var(k)])
                .mul(read(bb, vec![Expr::var(k), Expr::var(j)])),
        );
        b.end_for().end_for().end_for();
        b.finish()
    }

    #[test]
    fn gemm_compiles_to_c() {
        let ctx = CodegenCtx::new();
        let c = compile_c(&[gemm()], &ctx).unwrap();
        assert!(
            c.contains("void gemm(int_fast32_t n, float *A, float *B, float *C)"),
            "{c}"
        );
        assert!(c.contains("C[(i) * ((n)) + (j)] += (A["), "{c}");
        assert!(c.contains("for (int_fast32_t i = 0; i < n; i++)"), "{c}");
    }

    #[test]
    fn abstract_r_rejected() {
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::R, vec![Expr::int(4)]);
        b.assign(a, vec![Expr::int(0)], Expr::float(0.0));
        let ctx = CodegenCtx::new();
        let e = compile_c(&[b.finish()], &ctx).unwrap_err();
        assert!(e.message.contains("abstract type R"), "{e}");
    }

    #[test]
    fn non_addressable_memory_rejected() {
        use crate::mem::Memory;
        let spad = MemName(Sym::new("SPAD2"));
        let mut b = ProcBuilder::new("p");
        let a = b.tensor_in("A", DataType::F32, vec![Expr::int(4)], spad);
        b.assign(a, vec![Expr::int(0)], Expr::float(0.0));
        let mut ctx = CodegenCtx::new();
        ctx.mems.register(Memory {
            name: spad,
            addressable: false,
            ..Memory::dram()
        });
        let e = compile_c(&[b.finish()], &ctx).unwrap_err();
        assert!(e.message.contains("not addressable"), "{e}");
    }

    #[test]
    fn instr_template_expansion() {
        let mut ib = ProcBuilder::new("hw_ld");
        let n = ib.size("n");
        let src = ib.window_arg("src", DataType::F32, vec![Expr::var(n)], MemName::dram());
        let dst = ib.window_arg("dst", DataType::F32, vec![Expr::var(n)], MemName::dram());
        ib.instr("hw_ld({dst}.data, {src}.data, {n});");
        let i = ib.begin_for("i", Expr::int(0), Expr::var(n));
        ib.assign(dst, vec![Expr::var(i)], read(src, vec![Expr::var(i)]));
        ib.end_for();
        let hw_ld = ib.finish();

        let mut b = ProcBuilder::new("main");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
        let c = b.tensor("C", DataType::F32, vec![Expr::int(8)]);
        b.call(
            &hw_ld,
            vec![
                Expr::int(8),
                Expr::Window {
                    buf: a,
                    coords: vec![WAccess::Interval(Expr::int(0), Expr::int(8))],
                },
                Expr::Window {
                    buf: c,
                    coords: vec![WAccess::Interval(Expr::int(0), Expr::int(8))],
                },
            ],
        );
        let ctx = CodegenCtx::new();
        let code = compile_c(&[b.finish()], &ctx).unwrap();
        // the template expands with window-struct arguments
        assert!(code.contains("hw_ld((struct exo_win_1f32)"), "{code}");
        // the instr's own body is not emitted as a function
        assert!(!code.contains("void hw_ld"), "{code}");
    }

    #[test]
    fn config_struct_emitted() {
        let cfg = ConfigDecl::new(
            "ConfigLoad",
            vec![("src_stride", exo_core::CtrlType::Stride)],
        );
        let cname = cfg.name;
        let fname = cfg.fields[0].name;
        let mut b = ProcBuilder::new("p");
        b.write_config(cname, fname, Expr::int(64));
        let mut ctx = CodegenCtx::new();
        ctx.configs.push(cfg);
        let code = compile_c(&[b.finish()], &ctx).unwrap();
        assert!(code.contains("struct ConfigLoad_t {"), "{code}");
        assert!(code.contains("ConfigLoad.src_stride = 64;"), "{code}");
    }

    #[test]
    fn window_def_and_access() {
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(8), Expr::int(8)]);
        let w = b.window(
            "w",
            a,
            vec![
                WAccess::Interval(Expr::int(2), Expr::int(6)),
                WAccess::Point(Expr::int(3)),
            ],
        );
        b.assign(w, vec![Expr::int(0)], Expr::float(1.0));
        let ctx = CodegenCtx::new();
        let code = compile_c(&[b.finish()], &ctx).unwrap();
        assert!(code.contains("struct exo_win_1f32 w ="), "{code}");
        assert!(code.contains("w.data[(0) * w.strides[0]] = 1.0;"), "{code}");
    }

    #[test]
    fn scalars_pass_by_pointer() {
        let mut b = ProcBuilder::new("p");
        let x = b.scalar("x", DataType::F32);
        b.assign(x, vec![], Expr::float(2.5));
        let ctx = CodegenCtx::new();
        let code = compile_c(&[b.finish()], &ctx).unwrap();
        assert!(code.contains("void p(float *x)"), "{code}");
        assert!(code.contains("*x = 2.5;"), "{code}");
    }

    #[test]
    fn mixed_precision_rejected() {
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(2)]);
        let c = b.tensor("C", DataType::I8, vec![Expr::int(2)]);
        let d = b.tensor("D", DataType::F32, vec![Expr::int(2)]);
        b.assign(
            d,
            vec![Expr::int(0)],
            read(a, vec![Expr::int(0)]).mul(read(c, vec![Expr::int(0)])),
        );
        let ctx = CodegenCtx::new();
        let e = compile_c(&[b.finish()], &ctx).unwrap_err();
        assert!(e.message.contains("mixed-precision"), "{e}");
    }

    #[test]
    fn store_casts_inserted() {
        // storing an f32 expression into an i8 buffer inserts a cast
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(2)]);
        let c = b.tensor("C", DataType::I8, vec![Expr::int(2)]);
        b.assign(c, vec![Expr::int(0)], read(a, vec![Expr::int(0)]));
        let ctx = CodegenCtx::new();
        let code = compile_c(&[b.finish()], &ctx).unwrap();
        assert!(code.contains("(int8_t) ("), "{code}");
    }

    #[test]
    fn builtin_arity_rejected() {
        // `max(A[1])` and `relu()` parse; they must fail as typed errors
        for (func, args, want) in [
            ("max", 1, "builtin max expects 2 arguments"),
            ("relu", 0, "builtin relu expects 1 argument"),
        ] {
            let mut b = ProcBuilder::new("p");
            let a = b.tensor("A", DataType::F32, vec![Expr::int(2)]);
            let call = Expr::BuiltIn {
                func: Sym::new(func),
                args: vec![read(a, vec![Expr::int(1)]); args],
            };
            b.assign(a, vec![Expr::int(0)], call);
            let e = compile_c(&[b.finish()], &CodegenCtx::new()).unwrap_err();
            assert_eq!(e.message, want);
        }
    }

    fn memory(spelling: &str, alloc: &str, c_global: Option<&str>) -> crate::mem::Memory {
        crate::mem::Memory {
            name: MemName(Sym::new(spelling)),
            alloc: format!("{alloc}({{name}}, {{size}});"),
            free: String::new(),
            addressable: false,
            c_global: c_global.map(String::from),
        }
    }

    #[test]
    fn memories_sharing_a_spelling_keep_their_templates() {
        let (ma, mb) = (
            memory("SPAD", "alloc_a", None),
            memory("SPAD", "alloc_b", None),
        );
        let mut b = ProcBuilder::new("p");
        b.alloc("x", DataType::I8, vec![Expr::int(4)], ma.name);
        b.alloc("y", DataType::I8, vec![Expr::int(8)], mb.name);
        let mut ctx = CodegenCtx::new();
        ctx.mems.register(ma).register(mb);
        let code = compile_c(&[b.finish()], &ctx).unwrap();
        assert!(code.contains("    alloc_a(x, (4));\n"), "{code}");
        assert!(code.contains("    alloc_b(y, (8));\n"), "{code}");
    }

    #[test]
    fn memory_globals_follow_registration_order() {
        let globals: Vec<String> = (0..8).map(|i| format!("// global {i}")).collect();
        let mut ctx = CodegenCtx::new();
        for (i, g) in globals.iter().enumerate() {
            ctx.mems
                .register(memory(&format!("M{i}"), "alloc", Some(g)));
        }
        let code = compile_c(&[ProcBuilder::new("p").finish()], &ctx).unwrap();
        let want = format!("\n\n{}\n\n", globals.join("\n"));
        assert!(code.contains(&want), "{code}");
    }
}
