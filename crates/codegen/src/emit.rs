//! C code generation (paper §3.1.2).
//!
//! Exo compiles to human-readable C that is more or less a syntactic
//! translation of the IR: scalars pass by pointer, windows compile to
//! `(pointer, strides)` structs, dense tensors to raw pointers with
//! shape-derived strides, `@instr` calls expand their C templates, and
//! user-defined memories control allocation code. Static assertions
//! become comments plus optional compiler hints.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

use exo_core::ir::{ArgType, BinOp, Expr, Lit, Proc, Stmt, WAccess};
use exo_core::types::{DataType, MemName};
use exo_core::{ConfigDecl, Sym};

use crate::mem::{AllocStyle, MemorySet};

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
    let mut seen: HashSet<usize> = HashSet::new();
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
    let mut win_types: HashSet<(usize, DataType)> = HashSet::new();
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

    // memory globals
    let mut emitted_globals: HashSet<String> = HashSet::new();
    for m in ctx.mems.iter() {
        if let Some(g) = &m.c_global {
            if emitted_globals.insert(g.clone()) {
                let _ = writeln!(out, "{g}");
            }
        }
    }
    let _ = writeln!(out);

    // prototypes then definitions (callees first thanks to post-order)
    for p in &order {
        if p.is_instr() {
            continue;
        }
        let mut gen = ProcGen::new(p, ctx)?;
        let _ = writeln!(out, "{};", gen.signature()?);
    }
    let _ = writeln!(out);
    for p in &order {
        if p.is_instr() {
            continue;
        }
        let mut gen = ProcGen::new(p, ctx)?;
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

fn scan_window_types(p: &Proc, out: &mut HashSet<(usize, DataType)>) -> Result<(), CodegenError> {
    for a in &p.args {
        if let ArgType::Tensor {
            ty,
            shape,
            window: true,
            ..
        } = &a.ty
        {
            out.insert((shape.len(), *ty));
        }
    }
    // window definitions and window call arguments need structs too; the
    // rank is the number of interval coordinates
    let mut err = None;
    exo_core::visit::visit_stmts(&p.body, &mut |s| {
        let mut visit_e = |e: &Expr| {
            exo_core::visit::visit_expr(e, &mut |e| {
                if let Expr::Window { coords, .. } = e {
                    let rank = coords.iter().filter(|c| c.is_interval()).count();
                    // precision resolved later; conservatively note f32/f64/i8
                    // via a second pass in ProcGen — here assume the common
                    // case is covered by arg/alloc scans
                    let _ = rank;
                }
            });
        };
        match s {
            Stmt::WindowDef { rhs, .. } => visit_e(rhs),
            Stmt::Call { args, .. } => args.iter().for_each(&mut visit_e),
            _ => {}
        }
        if let Stmt::Alloc { ty, .. } = s {
            if *ty == DataType::R {
                err = Some(CodegenError {
                    message: format!(
                        "procedure {}: allocation still has abstract type R \
                         (apply set_precision before code generation)",
                        p.name
                    ),
                });
            }
        }
    });
    // all window structs that can appear: every tensor's (rank, ty) and
    // every sub-rank (windows reduce rank); register those
    for a in &p.args {
        if let ArgType::Tensor { ty, shape, .. } = &a.ty {
            for r in 0..=shape.len() {
                out.insert((r, *ty));
            }
        }
    }
    exo_core::visit::visit_stmts(&p.body, &mut |s| {
        if let Stmt::Alloc { ty, shape, .. } = s {
            for r in 0..=shape.len() {
                out.insert((r, *ty));
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn c_type(ty: DataType) -> Result<&'static str, CodegenError> {
    ty.c_name().ok_or_else(|| CodegenError {
        message: "abstract type R survives to code generation \
                  (apply set_precision first)"
            .into(),
    })
}

/// What the emitter knows about one data symbol.
#[derive(Clone, Debug)]
enum DataBinding {
    /// Dense tensor: raw pointer, shape expressions known statically.
    Dense {
        ty: DataType,
        shape: Vec<Expr>,
        mem: MemName,
    },
    /// Window struct with runtime strides.
    Window {
        ty: DataType,
        rank: usize,
        mem: MemName,
    },
    /// Scalar passed by pointer.
    Scalar { ty: DataType, mem: MemName },
}

impl DataBinding {
    fn dtype(&self) -> DataType {
        match self {
            DataBinding::Dense { ty, .. }
            | DataBinding::Window { ty, .. }
            | DataBinding::Scalar { ty, .. } => *ty,
        }
    }

    fn mem(&self) -> MemName {
        match self {
            DataBinding::Dense { mem, .. }
            | DataBinding::Window { mem, .. }
            | DataBinding::Scalar { mem, .. } => *mem,
        }
    }
}

struct ProcGen<'a> {
    proc: &'a Proc,
    ctx: &'a CodegenCtx,
    names: HashMap<Sym, String>,
    used_names: HashSet<String>,
    bindings: HashMap<Sym, DataBinding>,
    body: String,
    indent: usize,
}

impl<'a> ProcGen<'a> {
    fn new(proc: &'a Proc, ctx: &'a CodegenCtx) -> Result<ProcGen<'a>, CodegenError> {
        let mut gen = ProcGen {
            proc,
            ctx,
            names: HashMap::new(),
            used_names: HashSet::new(),
            bindings: HashMap::new(),
            body: String::new(),
            indent: 1,
        };
        for a in &proc.args {
            gen.intern(a.name);
            match &a.ty {
                ArgType::Ctrl(_) => {}
                ArgType::Scalar { ty, mem } => {
                    gen.bindings
                        .insert(a.name, DataBinding::Scalar { ty: *ty, mem: *mem });
                }
                ArgType::Tensor {
                    ty,
                    shape,
                    window,
                    mem,
                } => {
                    let b = if *window {
                        DataBinding::Window {
                            ty: *ty,
                            rank: shape.len(),
                            mem: *mem,
                        }
                    } else {
                        DataBinding::Dense {
                            ty: *ty,
                            shape: shape.clone(),
                            mem: *mem,
                        }
                    };
                    gen.bindings.insert(a.name, b);
                }
            }
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

    fn signature(&mut self) -> Result<String, CodegenError> {
        let mut parts = Vec::new();
        for a in &self.proc.args {
            let name = self.intern(a.name);
            let part = match &a.ty {
                ArgType::Ctrl(exo_core::CtrlType::Bool) => format!("bool {name}"),
                ArgType::Ctrl(_) => format!("int_fast32_t {name}"),
                ArgType::Scalar { ty, .. } => format!("{} *{name}", c_type(*ty)?),
                ArgType::Tensor {
                    ty, shape, window, ..
                } => {
                    if *window {
                        format!("struct exo_win_{}{} {name}", shape.len(), ty)
                    } else {
                        format!("{} *{name}", c_type(*ty)?)
                    }
                }
            };
            parts.push(part);
        }
        let args = if parts.is_empty() {
            "void".to_string()
        } else {
            parts.join(", ")
        };
        Ok(format!(
            "void {}({})",
            sanitize(&self.proc.name.name()),
            args
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
        let body = std::mem::take(&mut self.body);
        let _ = body;
        self.gen_block(&self.proc.body.clone())?;
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
                let r = self.data_expr(rhs, ty)?;
                self.line(&format!("{lhs} = {r};"));
                Ok(())
            }
            Stmt::Reduce { buf, idx, rhs } => {
                let (lhs, ty) = self.lvalue(*buf, idx, "reduce")?;
                let r = self.data_expr(rhs, ty)?;
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
                if let Some(reductions) = self.ctx.parallel.get(iter).cloned() {
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
                let size = if shape.is_empty() {
                    "1".to_string()
                } else {
                    shape
                        .iter()
                        .map(|e| self.ctrl_expr(e).map(|s| format!("({s})")))
                        .collect::<Result<Vec<_>, _>>()?
                        .join(" * ")
                };
                let memory = self.ctx.mems.get(*mem).ok_or_else(|| CodegenError {
                    message: format!("unknown memory {mem} for allocation {name}"),
                })?;
                match &memory.alloc {
                    AllocStyle::Malloc => {
                        self.line(&format!(
                            "{cty} *{cname} = ({cty}*) malloc(({size}) * sizeof({cty}));"
                        ));
                        frees.push(format!("free({cname});"));
                    }
                    AllocStyle::Stack => {
                        self.line(&format!("{cty} {cname}[{size}];"));
                        frees.push(String::new());
                    }
                    AllocStyle::Custom { alloc, free } => {
                        let a = alloc
                            .replace("{name}", &cname)
                            .replace("{prim_type}", cty)
                            .replace("{size}", &size);
                        self.line(&a);
                        frees.push(free.replace("{name}", &cname).replace("{prim_type}", cty));
                    }
                }
                self.bindings.insert(
                    *name,
                    DataBinding::Dense {
                        ty: *ty,
                        shape: shape.clone(),
                        mem: *mem,
                    },
                );
                Ok(())
            }
            Stmt::WindowDef { name, rhs } => {
                let Expr::Window { buf, coords } = rhs else {
                    return cerr("window definition without window expression");
                };
                let (expr, ty, rank, mem) = self.window_struct(*buf, coords)?;
                let cname = self.intern(*name);
                self.line(&format!("struct exo_win_{rank}{ty} {cname} = {expr};"));
                self.bindings
                    .insert(*name, DataBinding::Window { ty, rank, mem });
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
                ArgType::Scalar { ty, .. } => self.scalar_arg(actual, *ty)?,
                ArgType::Tensor {
                    ty, shape, window, ..
                } => self.tensor_arg(actual, *ty, shape.len(), *window)?,
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

    fn scalar_arg(&mut self, e: &Expr, _ty: DataType) -> Result<String, CodegenError> {
        match e {
            Expr::Read { buf, idx } => {
                let binding = self.binding(*buf)?.clone();
                match binding {
                    DataBinding::Scalar { .. } if idx.is_empty() => Ok(self.intern(*buf)),
                    _ => {
                        let (lv, _) = self.lvalue(*buf, idx, "pass")?;
                        Ok(format!("&{lv}"))
                    }
                }
            }
            _ => cerr("scalar argument must be an lvalue"),
        }
    }

    fn tensor_arg(
        &mut self,
        e: &Expr,
        _ty: DataType,
        rank: usize,
        window: bool,
    ) -> Result<String, CodegenError> {
        match e {
            Expr::Read { buf, idx } if idx.is_empty() => {
                let binding = self.binding(*buf)?.clone();
                let name = self.intern(*buf);
                match (&binding, window) {
                    (DataBinding::Dense { .. }, false) => Ok(name),
                    (DataBinding::Dense { ty, shape, .. }, true) => {
                        // wrap a dense buffer in a window struct
                        let strides = self.dense_strides(shape)?;
                        Ok(format!(
                            "(struct exo_win_{rank}{ty}){{ {name}, {{ {} }} }}",
                            strides.join(", ")
                        ))
                    }
                    (
                        DataBinding::Window {
                            ty: wty,
                            rank: wrank,
                            ..
                        },
                        true,
                    ) if *wrank == rank => {
                        let _ = wty;
                        Ok(name)
                    }
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

    /// Builds a window-struct expression from a windowing of `buf`.
    fn window_struct(
        &mut self,
        buf: Sym,
        coords: &[WAccess],
    ) -> Result<(String, DataType, usize, MemName), CodegenError> {
        let binding = self.binding(buf)?.clone();
        let name = self.intern(buf);
        let ty = binding.dtype();
        let mem = binding.mem();
        let rank = coords.iter().filter(|c| c.is_interval()).count();
        let (base_strides, base_ptr): (Vec<String>, String) = match &binding {
            DataBinding::Dense { shape, .. } => {
                if coords.len() != shape.len() {
                    return cerr(format!("window arity mismatch over {name}"));
                }
                (self.dense_strides(shape)?, name.clone())
            }
            DataBinding::Window { rank: wrank, .. } => {
                if coords.len() != *wrank {
                    return cerr(format!("window arity mismatch over {name}"));
                }
                (
                    (0..*wrank)
                        .map(|d| format!("{name}.strides[{d}]"))
                        .collect(),
                    format!("{name}.data"),
                )
            }
            DataBinding::Scalar { .. } => return cerr(format!("cannot window the scalar {name}")),
        };
        // offset = Σ lo_d · stride_d ; kept strides = intervals
        let mut offset_terms = Vec::new();
        let mut kept = Vec::new();
        for (d, c) in coords.iter().enumerate() {
            match c {
                WAccess::Point(p) => {
                    let pe = self.ctrl_expr(p)?;
                    offset_terms.push(format!("({pe}) * ({})", base_strides[d]));
                }
                WAccess::Interval(lo, _hi) => {
                    let le = self.ctrl_expr(lo)?;
                    offset_terms.push(format!("({le}) * ({})", base_strides[d]));
                    kept.push(base_strides[d].clone());
                }
            }
        }
        let offset = if offset_terms.is_empty() {
            "0".to_string()
        } else {
            offset_terms.join(" + ")
        };
        let strides = if kept.is_empty() {
            vec!["1".to_string()]
        } else {
            kept
        };
        let expr = format!(
            "(struct exo_win_{rank}{ty}){{ &{base_ptr}[{offset}], {{ {} }} }}",
            strides.join(", ")
        );
        Ok((expr, ty, rank, mem))
    }

    fn dense_strides(&mut self, shape: &[Expr]) -> Result<Vec<String>, CodegenError> {
        // row-major: stride_d = Π_{d' > d} shape_{d'}
        let mut out = Vec::with_capacity(shape.len());
        for d in 0..shape.len() {
            if d + 1 == shape.len() {
                out.push("1".to_string());
            } else {
                let terms: Vec<String> = shape[d + 1..]
                    .iter()
                    .map(|e| self.ctrl_expr(e).map(|s| format!("({s})")))
                    .collect::<Result<_, _>>()?;
                out.push(terms.join(" * "));
            }
        }
        Ok(out)
    }

    fn binding(&self, buf: Sym) -> Result<&DataBinding, CodegenError> {
        self.bindings.get(&buf).ok_or_else(|| CodegenError {
            message: format!("unknown data symbol {buf} at code generation"),
        })
    }

    /// Renders an lvalue for a buffer access and enforces the
    /// addressability backend check.
    fn lvalue(
        &mut self,
        buf: Sym,
        idx: &[Expr],
        what: &str,
    ) -> Result<(String, DataType), CodegenError> {
        let binding = self.binding(buf)?.clone();
        let mem = binding.mem();
        if let Some(m) = self.ctx.mems.get(mem) {
            if !m.addressable {
                return cerr(format!(
                    "cannot {what} {} directly: memory {mem} is not addressable \
                     (use a custom instruction)",
                    buf.name()
                ));
            }
        } else {
            return cerr(format!("unknown memory {mem}"));
        }
        let name = self.intern(buf);
        let ty = binding.dtype();
        let code = match &binding {
            DataBinding::Scalar { .. } => {
                if !idx.is_empty() {
                    return cerr(format!("indexing the scalar {name}"));
                }
                format!("*{name}")
            }
            DataBinding::Dense { shape, .. } => {
                if idx.is_empty() && shape.is_empty() {
                    format!("{name}[0]")
                } else {
                    if idx.len() != shape.len() {
                        return cerr(format!("access arity mismatch on {name}"));
                    }
                    let strides = self.dense_strides(shape)?;
                    let terms: Vec<String> = idx
                        .iter()
                        .zip(&strides)
                        .map(|(e, st)| {
                            self.ctrl_expr(e).map(|s| {
                                if st == "1" {
                                    format!("({s})")
                                } else {
                                    format!("({s}) * ({st})")
                                }
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    format!("{name}[{}]", terms.join(" + "))
                }
            }
            DataBinding::Window { rank, .. } => {
                if idx.len() != *rank {
                    return cerr(format!("access arity mismatch on window {name}"));
                }
                if idx.is_empty() {
                    format!("{name}.data[0]")
                } else {
                    let terms: Vec<String> = idx
                        .iter()
                        .enumerate()
                        .map(|(d, e)| {
                            self.ctrl_expr(e)
                                .map(|s| format!("({s}) * {name}.strides[{d}]"))
                        })
                        .collect::<Result<_, _>>()?;
                    format!("{name}.data[{}]", terms.join(" + "))
                }
            }
        };
        Ok((code, ty))
    }

    /// Renders a data expression, checking precision consistency against
    /// the expected type (paper §3.1.1: casts are inserted just before
    /// writes; mixed-precision arithmetic is rejected).
    fn data_expr(&mut self, e: &Expr, expect: DataType) -> Result<String, CodegenError> {
        let ty = self.infer_data_type(e)?;
        let code = self.data_expr_raw(e)?;
        if let Some(t) = ty {
            if t != expect {
                // cast just before write/reduce
                return Ok(format!("({}) ({code})", c_type(expect)?));
            }
        }
        Ok(code)
    }

    fn infer_data_type(&self, e: &Expr) -> Result<Option<DataType>, CodegenError> {
        match e {
            Expr::Read { buf, .. } => {
                let t = self.binding(*buf)?.dtype();
                if t == DataType::R {
                    return cerr(format!(
                        "{} still has abstract type R at code generation",
                        buf.name()
                    ));
                }
                Ok(Some(t))
            }
            Expr::Lit(_) => Ok(None), // literals adapt
            Expr::BinOp(_, a, b) => {
                let ta = self.infer_data_type(a)?;
                let tb = self.infer_data_type(b)?;
                match (ta, tb) {
                    (Some(x), Some(y)) if x != y => cerr(format!(
                        "mixed-precision arithmetic ({x} vs {y}); insert a staging \
                         buffer with set_precision"
                    )),
                    (Some(x), _) | (_, Some(x)) => Ok(Some(x)),
                    _ => Ok(None),
                }
            }
            Expr::Neg(a) => self.infer_data_type(a),
            Expr::BuiltIn { args, .. } => {
                let mut t = None;
                for a in args {
                    if let Some(x) = self.infer_data_type(a)? {
                        if let Some(y) = t {
                            if x != y {
                                return cerr("mixed-precision builtin arguments");
                            }
                        }
                        t = Some(x);
                    }
                }
                Ok(t)
            }
            _ => Ok(None),
        }
    }

    fn data_expr_raw(&mut self, e: &Expr) -> Result<String, CodegenError> {
        match e {
            Expr::Lit(Lit::Float(v)) => Ok(format!("{v:?}")),
            Expr::Lit(Lit::Int(v)) => Ok(format!("{v}.0")),
            Expr::Read { buf, idx } => {
                let (code, _) = self.lvalue(*buf, idx, "read")?;
                Ok(code)
            }
            Expr::BinOp(op, a, b) => {
                let x = self.data_expr_raw(a)?;
                let y = self.data_expr_raw(b)?;
                let c_op = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    _ => return cerr(format!("operator {op} on data values")),
                };
                Ok(format!("({x} {c_op} {y})"))
            }
            Expr::Neg(a) => Ok(format!("(-{})", self.data_expr_raw(a)?)),
            Expr::BuiltIn { func, args } => {
                let xs: Vec<String> = args
                    .iter()
                    .map(|a| self.data_expr_raw(a))
                    .collect::<Result<_, _>>()?;
                let name = func.name();
                Ok(match name.as_str() {
                    "relu" => format!("fmax(0.0, {})", xs[0]),
                    "max" => format!("fmax({}, {})", xs[0], xs[1]),
                    "min" => format!("fmin({}, {})", xs[0], xs[1]),
                    "abs" => format!("fabs({})", xs[0]),
                    _ => format!("{name}({})", xs.join(", ")),
                })
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
                let c_op = match op {
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
                };
                Ok(format!("({x} {c_op} {y})"))
            }
            Expr::Neg(a) => Ok(format!("(-{})", self.ctrl_expr(a)?)),
            Expr::Stride { buf, dim } => {
                let binding = self.binding(*buf)?.clone();
                let name = self.intern(*buf);
                match binding {
                    DataBinding::Dense { shape, .. } => {
                        let strides = self.dense_strides(&shape)?;
                        strides.get(*dim).cloned().ok_or_else(|| CodegenError {
                            message: format!("stride dimension {dim} out of range"),
                        })
                    }
                    DataBinding::Window { .. } => Ok(format!("{name}.strides[{dim}]")),
                    DataBinding::Scalar { .. } => cerr("stride of a scalar"),
                }
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
        use crate::mem::{AllocStyle, Memory};
        let spad = MemName(Sym::new("SPAD2"));
        let mut b = ProcBuilder::new("p");
        let a = b.tensor_in("A", DataType::F32, vec![Expr::int(4)], spad);
        b.assign(a, vec![Expr::int(0)], Expr::float(0.0));
        let mut ctx = CodegenCtx::new();
        ctx.mems.register(Memory {
            name: spad,
            alloc: AllocStyle::Malloc,
            addressable: false,
            c_global: None,
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
}
