//! Recursive-descent parser for the Exo surface syntax (paper §2):
//!
//! ```text
//! @proc                          (or @instr("C template"))
//! def gemm(n: size, A: f32[n, n] @ DRAM, w: [f32][n] @ SPAD):
//!     assert n <= 16
//!     res : f32[16] @ DRAM
//!     y = A[0:n, 2]
//!     for i in seq(0, n):
//!         if i < 4:
//!             res[i] = A[i, i] * 2.0
//!         Config.stride = stride(A, 0)
//!     foo(n, A[0:4, 0:4])
//! ```
//!
//! Procedures defined earlier in the same source (or supplied through
//! [`ParseEnv`]) are callable by name.

use std::fmt;
use std::sync::Arc;

use exo_core::hash::HashMap;
use exo_core::ir::{ArgType, BinOp, Expr, FnArg, InstrTemplate, Proc, Stmt, WAccess};
use exo_core::types::{CtrlType, DataType, MemName};
use exo_core::{Block, Sym};

use crate::lex::{lex, LexError, Tok};

/// A parse error with a line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            line: e.line,
            message: e.message,
        }
    }
}

/// External names available to parsed code: procedures callable by name,
/// configuration structs with their fields, and memories.
#[derive(Clone, Default, Debug)]
pub struct ParseEnv {
    /// Callable procedures by spelling.
    pub procs: HashMap<String, Arc<Proc>>,
    /// Configuration structs: name → (struct sym, field spelling → sym).
    pub configs: HashMap<String, (Sym, HashMap<String, Sym>)>,
    /// Memories by spelling (`@ NAME` annotations); `DRAM` is implicit.
    pub mems: HashMap<String, MemName>,
}

impl ParseEnv {
    /// An empty environment.
    pub fn new() -> ParseEnv {
        ParseEnv::default()
    }

    /// Registers a configuration struct.
    pub fn add_config(&mut self, decl: &exo_core::ConfigDecl) -> &mut Self {
        let fields = decl
            .fields
            .iter()
            .map(|f| (f.name.name(), f.name))
            .collect();
        self.configs.insert(decl.name.name(), (decl.name, fields));
        self
    }

    /// Registers a memory, so that `@ NAME` resolves to `mem`.
    pub fn add_mem(&mut self, mem: MemName) -> &mut Self {
        self.mems.insert(mem.0.name(), mem);
        self
    }
}

/// Parses a source file containing one or more procedures; later
/// procedures may call earlier ones. A memory spelling that `env` does
/// not register is minted once and shared by every annotation in `src`.
///
/// # Errors
///
/// Returns the first syntax error.
pub fn parse_library(src: &str, env: &ParseEnv) -> Result<Vec<Arc<Proc>>, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        env: env.clone(),
        scopes: Vec::new(),
    };
    let mut out = Vec::new();
    while !p.at(&Tok::Eof) {
        let proc = p.parse_proc()?;
        p.env.procs.insert(proc.name.name(), Arc::clone(&proc));
        out.push(proc);
    }
    Ok(out)
}

/// Parses a single procedure.
///
/// # Errors
///
/// Returns the first syntax error.
pub fn parse_proc(src: &str, env: &ParseEnv) -> Result<Arc<Proc>, ParseError> {
    let _span = exo_obs::Span::enter("front.parse_proc");
    let procs = parse_library(src, env)?;
    procs.into_iter().next().ok_or_else(|| ParseError {
        line: 1,
        message: "no procedure found".into(),
    })
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    env: ParseEnv,
    /// lexical scopes: spelling → (symbol, is-data)
    scopes: Vec<HashMap<String, (Sym, bool)>>,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].0
    }

    fn line(&self) -> usize {
        self.toks[self.pos.min(self.toks.len() - 1)].1
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].0.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line(),
            message: message.into(),
        })
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), ParseError> {
        if self.at(&Tok::Punct(p)) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {p:?}, found {}", self.peek()))
        }
    }

    fn expect_ident(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected {kw:?}, found {other}")),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn eat_newlines(&mut self) {
        while self.at(&Tok::Newline) {
            self.bump();
        }
    }

    fn lookup(&self, name: &str) -> Option<Sym> {
        self.lookup_full(name).map(|(s, _)| s)
    }

    fn lookup_full(&self, name: &str) -> Option<(Sym, bool)> {
        for scope in self.scopes.iter().rev() {
            if let Some(&entry) = scope.get(name) {
                return Some(entry);
            }
        }
        None
    }

    fn bind(&mut self, name: &str) -> Sym {
        self.bind_kind(name, false)
    }

    fn bind_data(&mut self, name: &str) -> Sym {
        self.bind_kind(name, true)
    }

    fn bind_kind(&mut self, name: &str, is_data: bool) -> Sym {
        let s = Sym::new(name);
        // The parser keeps at least the proc-level scope open while
        // binding; if a bug ever drains the stack, reopen one rather
        // than abort mid-parse.
        if self.scopes.is_empty() {
            self.scopes.push(HashMap::default());
        }
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(name.to_string(), (s, is_data));
        }
        s
    }

    // ------------------------------------------------------------------

    fn parse_proc(&mut self) -> Result<Arc<Proc>, ParseError> {
        self.eat_newlines();
        // @proc or @instr("…")
        self.expect_punct("@")?;
        let deco = self.ident()?;
        let instr = match deco.as_str() {
            "proc" => None,
            "instr" => {
                self.expect_punct("(")?;
                let template = match self.bump() {
                    Tok::Str(s) => s,
                    other => return self.err(format!("expected template string, found {other}")),
                };
                self.expect_punct(")")?;
                Some(InstrTemplate { c_instr: template })
            }
            other => return self.err(format!("expected @proc or @instr, found @{other}")),
        };
        self.eat_newlines();
        self.expect_ident("def")?;
        let name = self.ident()?;
        self.scopes.push(HashMap::default());
        self.expect_punct("(")?;
        let mut args = Vec::new();
        while !self.at(&Tok::Punct(")")) {
            args.push(self.parse_arg()?);
            if self.at(&Tok::Punct(",")) {
                self.bump();
            }
        }
        self.bump(); // ')'
        self.expect_punct(":")?;
        self.eat_newlines();
        if !self.at(&Tok::Indent) {
            return self.err("expected an indented body");
        }
        self.bump();
        // asserts first
        let mut preds = Vec::new();
        loop {
            self.eat_newlines();
            if let Tok::Ident(s) = self.peek() {
                if s == "assert" {
                    self.bump();
                    preds.push(self.parse_expr()?);
                    continue;
                }
            }
            break;
        }
        let body = self.parse_block()?;
        self.scopes.pop();
        Ok(Arc::new(Proc {
            name: Sym::new(name),
            args,
            preds,
            body,
            instr,
        }))
    }

    fn parse_arg(&mut self) -> Result<FnArg, ParseError> {
        let name = self.ident()?;
        self.expect_punct(":")?;
        // [f32][shape] window, f32[shape] tensor, f32 scalar, or ctrl type
        let (ty, window) = if self.at(&Tok::Punct("[")) {
            self.bump();
            let t = self.ident()?;
            self.expect_punct("]")?;
            (t, true)
        } else {
            (self.ident()?, false)
        };
        if let Some(ct) = ctrl_type(&ty) {
            if window {
                return self.err("control types cannot be windows");
            }
            let sym = self.bind(&name);
            return Ok(FnArg {
                name: sym,
                ty: ArgType::Ctrl(ct),
            });
        }
        let dt = data_type(&ty).ok_or_else(|| ParseError {
            line: self.line(),
            message: format!("unknown type {ty}"),
        })?;
        let shape = if self.at(&Tok::Punct("[")) {
            self.bump();
            let mut dims = Vec::new();
            while !self.at(&Tok::Punct("]")) {
                dims.push(self.parse_expr()?);
                if self.at(&Tok::Punct(",")) {
                    self.bump();
                }
            }
            self.bump();
            dims
        } else {
            Vec::new()
        };
        let mem = if self.at(&Tok::Punct("@")) {
            self.bump();
            let mname = self.ident()?;
            self.mem(&mname)
        } else {
            MemName::dram()
        };
        let sym = self.bind_data(&name);
        if shape.is_empty() && !window {
            Ok(FnArg {
                name: sym,
                ty: ArgType::Scalar { ty: dt, mem },
            })
        } else {
            Ok(FnArg {
                name: sym,
                ty: ArgType::Tensor {
                    ty: dt,
                    shape,
                    window,
                    mem,
                },
            })
        }
    }

    fn mem(&mut self, name: &str) -> MemName {
        if name == "DRAM" {
            return MemName::dram();
        }
        *self
            .env
            .mems
            .entry(name.to_string())
            .or_insert_with(|| MemName(Sym::new(name)))
    }

    fn parse_block(&mut self) -> Result<Block, ParseError> {
        let mut out = Vec::new();
        loop {
            self.eat_newlines();
            if self.at(&Tok::Dedent) || self.at(&Tok::Eof) {
                if self.at(&Tok::Dedent) {
                    self.bump();
                }
                return Ok(out);
            }
            out.push(self.parse_stmt()?);
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        let Tok::Ident(head) = self.peek().clone() else {
            return self.err(format!("expected a statement, found {}", self.peek()));
        };
        match head.as_str() {
            "pass" => {
                self.bump();
                Ok(Stmt::Pass)
            }
            "for" => self.parse_for(),
            "if" => self.parse_if(),
            _ => self.parse_simple_stmt(),
        }
    }

    fn parse_for(&mut self) -> Result<Stmt, ParseError> {
        self.bump(); // for
        let var = self.ident()?;
        self.expect_ident("in")?;
        self.expect_ident("seq")?;
        self.expect_punct("(")?;
        let lo = self.parse_expr()?;
        self.expect_punct(",")?;
        let hi = self.parse_expr()?;
        self.expect_punct(")")?;
        self.expect_punct(":")?;
        self.eat_newlines();
        if !self.at(&Tok::Indent) {
            return self.err("expected an indented loop body");
        }
        self.bump();
        self.scopes.push(HashMap::default());
        let iter = self.bind(&var);
        let body = self.parse_block()?;
        self.scopes.pop();
        Ok(Stmt::For { iter, lo, hi, body })
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        self.bump(); // if
        let cond = self.parse_expr()?;
        self.expect_punct(":")?;
        self.eat_newlines();
        if !self.at(&Tok::Indent) {
            return self.err("expected an indented branch");
        }
        self.bump();
        self.scopes.push(HashMap::default());
        let body = self.parse_block()?;
        self.scopes.pop();
        self.eat_newlines();
        let orelse = if matches!(self.peek(), Tok::Ident(s) if s == "else") {
            self.bump();
            self.expect_punct(":")?;
            self.eat_newlines();
            if !self.at(&Tok::Indent) {
                return self.err("expected an indented else branch");
            }
            self.bump();
            self.scopes.push(HashMap::default());
            let b = self.parse_block()?;
            self.scopes.pop();
            b
        } else {
            Vec::new()
        };
        Ok(Stmt::If { cond, body, orelse })
    }

    /// assign / reduce / alloc / window def / config write / call
    fn parse_simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        let name = self.ident()?;
        match self.peek().clone() {
            // call: name(args)
            Tok::Punct("(") => {
                self.bump();
                let proc = self
                    .env
                    .procs
                    .get(&name)
                    .cloned()
                    .ok_or_else(|| ParseError {
                        line: self.line(),
                        message: format!("call to unknown procedure {name}"),
                    })?;
                let mut args = Vec::new();
                while !self.at(&Tok::Punct(")")) {
                    args.push(self.parse_expr()?);
                    if self.at(&Tok::Punct(",")) {
                        self.bump();
                    }
                }
                self.bump();
                Ok(Stmt::Call { proc, args })
            }
            // config write: Name.field = e
            Tok::Punct(".") => {
                self.bump();
                let field = self.ident()?;
                self.expect_punct("=")?;
                let rhs = self.parse_expr()?;
                let (config, fsym) = self.config_field(&name, &field)?;
                Ok(Stmt::WriteConfig {
                    config,
                    field: fsym,
                    rhs,
                })
            }
            // alloc: name : ty[shape] @ MEM
            Tok::Punct(":") => {
                self.bump();
                let ty_name = self.ident()?;
                let dt = data_type(&ty_name).ok_or_else(|| ParseError {
                    line: self.line(),
                    message: format!("unknown data type {ty_name}"),
                })?;
                let shape = if self.at(&Tok::Punct("[")) {
                    self.bump();
                    let mut dims = Vec::new();
                    while !self.at(&Tok::Punct("]")) {
                        dims.push(self.parse_expr()?);
                        if self.at(&Tok::Punct(",")) {
                            self.bump();
                        }
                    }
                    self.bump();
                    dims
                } else {
                    Vec::new()
                };
                let mem = if self.at(&Tok::Punct("@")) {
                    self.bump();
                    let m = self.ident()?;
                    self.mem(&m)
                } else {
                    MemName::dram()
                };
                let sym = self.bind_data(&name);
                Ok(Stmt::Alloc {
                    name: sym,
                    ty: dt,
                    shape,
                    mem,
                })
            }
            // indexed store: name[idx] = / +=
            Tok::Punct("[") => {
                self.bump();
                let buf = self.lookup(&name).ok_or_else(|| ParseError {
                    line: self.line(),
                    message: format!("unknown buffer {name}"),
                })?;
                let mut coords: Vec<WAccess> = Vec::new();
                while !self.at(&Tok::Punct("]")) {
                    coords.push(self.parse_waccess()?);
                    if self.at(&Tok::Punct(",")) {
                        self.bump();
                    }
                }
                self.bump();
                let reduce = match self.bump() {
                    Tok::Punct("=") => false,
                    Tok::Punct("+=") => true,
                    other => return self.err(format!("expected = or +=, found {other}")),
                };
                let rhs = self.parse_expr()?;
                if coords.iter().all(|c| !c.is_interval()) {
                    let line = self.line();
                    let idx: Vec<Expr> = coords
                        .into_iter()
                        .map(|c| match c {
                            WAccess::Point(e) => Ok(e),
                            WAccess::Interval(..) => Err(ParseError {
                                line,
                                message: "interval access not allowed on the left-hand \
                                          side of an assignment"
                                    .into(),
                            }),
                        })
                        .collect::<Result<_, _>>()?;
                    if reduce {
                        Ok(Stmt::Reduce { buf, idx, rhs })
                    } else {
                        Ok(Stmt::Assign { buf, idx, rhs })
                    }
                } else {
                    self.err("cannot store to a window expression")
                }
            }
            // scalar assign or window definition: name = e
            Tok::Punct("=") => {
                self.bump();
                let rhs = self.parse_expr()?;
                match &rhs {
                    Expr::Window { .. } => {
                        let sym = self.bind_data(&name);
                        Ok(Stmt::WindowDef { name: sym, rhs })
                    }
                    _ => {
                        let buf = self.lookup(&name).ok_or_else(|| ParseError {
                            line: self.line(),
                            message: format!("unknown scalar {name}"),
                        })?;
                        Ok(Stmt::Assign {
                            buf,
                            idx: vec![],
                            rhs,
                        })
                    }
                }
            }
            Tok::Punct("+=") => {
                self.bump();
                let rhs = self.parse_expr()?;
                let buf = self.lookup(&name).ok_or_else(|| ParseError {
                    line: self.line(),
                    message: format!("unknown scalar {name}"),
                })?;
                Ok(Stmt::Reduce {
                    buf,
                    idx: vec![],
                    rhs,
                })
            }
            other => self.err(format!("unexpected {other} after {name}")),
        }
    }

    fn config_field(&mut self, config: &str, field: &str) -> Result<(Sym, Sym), ParseError> {
        if let Some((csym, fields)) = self.env.configs.get(config) {
            let fsym = fields.get(field).copied().ok_or_else(|| ParseError {
                line: self.line(),
                message: format!("configuration {config} has no field {field}"),
            })?;
            return Ok((*csym, fsym));
        }
        // unseen configurations are declared implicitly (they only matter
        // to codegen if materialized)
        let csym = Sym::new(config);
        let fsym = Sym::new(field);
        self.env.configs.insert(
            config.to_string(),
            (csym, [(field.to_string(), fsym)].into_iter().collect()),
        );
        Ok((csym, fsym))
    }

    // ---- expressions -------------------------------------------------

    fn parse_waccess(&mut self) -> Result<WAccess, ParseError> {
        let lo = self.parse_expr()?;
        if self.at(&Tok::Punct(":")) {
            self.bump();
            let hi = self.parse_expr()?;
            Ok(WAccess::Interval(lo, hi))
        } else {
            Ok(WAccess::Point(lo))
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while matches!(self.peek(), Tok::Ident(s) if s == "or") {
            self.bump();
            let rhs = self.parse_and()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_cmp()?;
        while matches!(self.peek(), Tok::Ident(s) if s == "and") {
            self.bump();
            let rhs = self.parse_cmp()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Tok::Punct("==") => Some(BinOp::Eq),
            Tok::Punct("<=") => Some(BinOp::Le),
            Tok::Punct(">=") => Some(BinOp::Ge),
            Tok::Punct("<") => Some(BinOp::Lt),
            Tok::Punct(">") => Some(BinOp::Gt),
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let rhs = self.parse_add()?;
                Ok(Expr::bin(op, lhs, rhs))
            }
            None => Ok(lhs),
        }
    }

    fn parse_add(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Tok::Punct("+") => BinOp::Add,
                Tok::Punct("-") => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_mul()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Tok::Punct("*") => BinOp::Mul,
                Tok::Punct("/") => BinOp::Div,
                Tok::Punct("%") => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.at(&Tok::Punct("-")) {
            self.bump();
            let e = self.parse_unary()?;
            return Ok(Expr::Neg(Box::new(e)));
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Tok::Int(v) => Ok(Expr::int(v)),
            Tok::Float(v) => Ok(Expr::float(v)),
            Tok::Punct("(") => {
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident(name) => self.parse_ident_expr(name),
            other => self.err(format!("expected an expression, found {other}")),
        }
    }

    fn parse_ident_expr(&mut self, name: String) -> Result<Expr, ParseError> {
        match name.as_str() {
            "true" => return Ok(Expr::bool(true)),
            "false" => return Ok(Expr::bool(false)),
            "stride" => {
                self.expect_punct("(")?;
                let buf_name = self.ident()?;
                let buf = self.lookup(&buf_name).ok_or_else(|| ParseError {
                    line: self.line(),
                    message: format!("stride of unknown buffer {buf_name}"),
                })?;
                self.expect_punct(",")?;
                let dim = match self.bump() {
                    Tok::Int(v) if v >= 0 => v as usize,
                    other => return self.err(format!("expected dimension, found {other}")),
                };
                self.expect_punct(")")?;
                return Ok(Expr::Stride { buf, dim });
            }
            _ => {}
        }
        // builtin call: sin(x) …
        if self.at(&Tok::Punct("(")) {
            self.bump();
            let mut args = Vec::new();
            while !self.at(&Tok::Punct(")")) {
                args.push(self.parse_expr()?);
                if self.at(&Tok::Punct(",")) {
                    self.bump();
                }
            }
            self.bump();
            return Ok(Expr::BuiltIn {
                func: Sym::new(name),
                args,
            });
        }
        // config read: Name.field
        if self.at(&Tok::Punct(".")) {
            self.bump();
            let field = self.ident()?;
            let (config, fsym) = self.config_field(&name, &field)?;
            return Ok(Expr::ReadConfig {
                config,
                field: fsym,
            });
        }
        // indexed read or window
        if self.at(&Tok::Punct("[")) {
            self.bump();
            let buf = self.lookup(&name).ok_or_else(|| ParseError {
                line: self.line(),
                message: format!("unknown buffer {name}"),
            })?;
            let mut coords = Vec::new();
            while !self.at(&Tok::Punct("]")) {
                coords.push(self.parse_waccess()?);
                if self.at(&Tok::Punct(",")) {
                    self.bump();
                }
            }
            self.bump();
            if coords.iter().any(|c| c.is_interval()) {
                return Ok(Expr::Window { buf, coords });
            }
            let line = self.line();
            let idx = coords
                .into_iter()
                .map(|c| match c {
                    WAccess::Point(e) => Ok(e),
                    WAccess::Interval(..) => Err(ParseError {
                        line,
                        message: "mixed point/interval access: windows must be \
                                  returned as Expr::Window"
                            .into(),
                    }),
                })
                .collect::<Result<Vec<_>, ParseError>>()?;
            return Ok(Expr::Read { buf, idx });
        }
        // bare name: a control variable, a data scalar, or a whole
        // buffer (the latter two become Read with empty indices)
        let (sym, is_data) = self.lookup_full(&name).ok_or_else(|| ParseError {
            line: self.line(),
            message: format!("unknown name {name}"),
        })?;
        if is_data {
            Ok(Expr::Read {
                buf: sym,
                idx: vec![],
            })
        } else {
            Ok(Expr::Var(sym))
        }
    }
}

fn ctrl_type(name: &str) -> Option<CtrlType> {
    match name {
        "size" => Some(CtrlType::Size),
        "index" => Some(CtrlType::Index),
        "int" => Some(CtrlType::Int),
        "bool" => Some(CtrlType::Bool),
        "stride" => Some(CtrlType::Stride),
        _ => None,
    }
}

fn data_type(name: &str) -> Option<DataType> {
    match name {
        "R" => Some(DataType::R),
        "f16" => Some(DataType::F16),
        "f32" => Some(DataType::F32),
        "f64" => Some(DataType::F64),
        "i8" => Some(DataType::I8),
        "i32" => Some(DataType::I32),
        "u8" => Some(DataType::U8),
        "u16" => Some(DataType::U16),
        _ => None,
    }
}
