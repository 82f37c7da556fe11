//! The Exo core IR (paper Fig. 3), extended with windows, strides, memory
//! annotations and configuration state as described in §2–3.
//!
//! Statements denote store-transforming functions; expressions denote
//! values. Data values flow only through buffers ([`Expr::Read`],
//! [`Stmt::Assign`], [`Stmt::Reduce`]); control values flow through
//! variables ([`Expr::Var`]) and configuration fields.

use std::fmt;
use std::sync::Arc;

use crate::sym::Sym;
use crate::types::{CtrlType, DataType, MemName};

/// A literal constant.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Lit {
    /// Integer literal (control).
    Int(i64),
    /// Boolean literal (control).
    Bool(bool),
    /// Floating-point literal (data).
    Float(f64),
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Int(v) => write!(f, "{v}"),
            Lit::Bool(v) => write!(f, "{v}"),
            Lit::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
        }
    }
}

/// Binary operators. Arithmetic on control values must be quasi-affine:
/// `*` requires one constant operand, `/` and `%` a constant divisor
/// (enforced by the front-end checks, not by construction).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Integer (floor) division for control values, `/` for data.
    Div,
    /// Euclidean remainder (control only).
    Mod,
    /// Logical and (control only).
    And,
    /// Logical or (control only).
    Or,
    /// Equality comparison.
    Eq,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
}

impl BinOp {
    /// Whether this operator yields a boolean.
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            BinOp::And | BinOp::Or | BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Source spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Eq => "==",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// One coordinate of a window expression: either a point access (which
/// removes the dimension) or an interval `lo:hi` (which keeps it).
#[derive(Clone, PartialEq, Debug)]
pub enum WAccess {
    /// `x[e, …]` — select a single index along this dimension.
    Point(Expr),
    /// `x[lo:hi, …]` — select the half-open range along this dimension.
    Interval(Expr, Expr),
}

impl WAccess {
    /// Whether this coordinate keeps its dimension in the window.
    pub fn is_interval(&self) -> bool {
        matches!(self, WAccess::Interval(..))
    }
}

/// Expressions.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Read of a control variable.
    Var(Sym),
    /// Literal constant.
    Lit(Lit),
    /// Binary operation.
    BinOp(BinOp, Box<Expr>, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Read of a data buffer (or scalar: empty index list) at a point.
    Read {
        /// The buffer (or window) being read.
        buf: Sym,
        /// Index per retained dimension.
        idx: Vec<Expr>,
    },
    /// Window (slice) of a buffer: `win(buf, coords)`. Creating a window
    /// does not copy data.
    Window {
        /// The underlying buffer or window.
        buf: Sym,
        /// One coordinate per dimension of `buf`.
        coords: Vec<WAccess>,
    },
    /// `stride(buf, dim)` — the distance in elements between consecutive
    /// entries of `buf` along dimension `dim`.
    Stride {
        /// Buffer whose layout is queried.
        buf: Sym,
        /// Dimension index.
        dim: usize,
    },
    /// Read of a configuration field `Config.field` (global control state).
    ReadConfig {
        /// The configuration struct.
        config: Sym,
        /// The field within it.
        field: Sym,
    },
    /// Call to a built-in total math function on data values.
    BuiltIn {
        /// Function name (`sin`, `relu`, `max`, …).
        func: Sym,
        /// Data arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Integer literal shorthand.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(Lit::Int(v))
    }

    /// Float literal shorthand.
    pub fn float(v: f64) -> Expr {
        Expr::Lit(Lit::Float(v))
    }

    /// Boolean literal shorthand.
    pub fn bool(v: bool) -> Expr {
        Expr::Lit(Lit::Bool(v))
    }

    /// Variable read shorthand.
    pub fn var(s: Sym) -> Expr {
        Expr::Var(s)
    }

    /// Builds `lhs op rhs`.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::BinOp(op, Box::new(lhs), Box::new(rhs))
    }

    /// Returns `Some(v)` if this is an integer literal.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Expr::Lit(Lit::Int(v)) => Some(*v),
            _ => None,
        }
    }
}

macro_rules! expr_binops {
    ($($method:ident => $op:ident),* $(,)?) => {
        impl Expr {
            $(
                #[doc = concat!("Builds `self ", stringify!($op), " rhs`.")]
                #[allow(clippy::should_implement_trait)]
                pub fn $method(self, rhs: Expr) -> Expr {
                    Expr::bin(BinOp::$op, self, rhs)
                }
            )*
        }
    };
}
expr_binops! {
    add => Add, sub => Sub, mul => Mul, div => Div, rem => Mod,
    and => And, or => Or, eq => Eq, lt => Lt, le => Le, gt => Gt, ge => Ge,
}

/// A sequence of statements.
pub type Block = Vec<Stmt>;

/// Statements.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// `buf[idx] = rhs` — overwrite a buffer location.
    Assign {
        /// Target buffer (or window, or scalar with empty `idx`).
        buf: Sym,
        /// Index per retained dimension.
        idx: Vec<Expr>,
        /// Data value to store.
        rhs: Expr,
    },
    /// `buf[idx] += rhs` — reduce into a buffer location. Reduction is
    /// commutative and associative from the analysis's point of view.
    Reduce {
        /// Target buffer.
        buf: Sym,
        /// Index per retained dimension.
        idx: Vec<Expr>,
        /// Data value to accumulate.
        rhs: Expr,
    },
    /// `Config.field = rhs` — write global configuration state.
    WriteConfig {
        /// The configuration struct.
        config: Sym,
        /// The field within it.
        field: Sym,
        /// Control value to store.
        rhs: Expr,
    },
    /// No-op.
    Pass,
    /// `if cond: body else: orelse`.
    If {
        /// Branch condition (control).
        cond: Expr,
        /// Taken when `cond` holds.
        body: Block,
        /// Taken otherwise (may be empty).
        orelse: Block,
    },
    /// `for iter in seq(lo, hi): body` — sequential loop over `[lo, hi)`.
    For {
        /// Iteration variable (scoped to `body`).
        iter: Sym,
        /// Inclusive lower bound.
        lo: Expr,
        /// Exclusive upper bound.
        hi: Expr,
        /// Loop body.
        body: Block,
    },
    /// `name : ty[shape] @ mem` — allocate a buffer, scoped to the rest of
    /// the enclosing block.
    Alloc {
        /// Buffer name.
        name: Sym,
        /// Element precision.
        ty: DataType,
        /// Extent per dimension (empty for a scalar).
        shape: Vec<Expr>,
        /// Memory the buffer resides in.
        mem: MemName,
    },
    /// `name = win(base, coords)` — bind a window into `base`.
    WindowDef {
        /// Window name.
        name: Sym,
        /// Window expression (must be [`Expr::Window`]).
        rhs: Expr,
    },
    /// Call to a sub-procedure.
    Call {
        /// The callee (possibly an `@instr`).
        proc: Arc<Proc>,
        /// One argument per formal parameter.
        args: Vec<Expr>,
    },
}

impl Stmt {
    /// The sub-blocks of this statement, in order (`If` has two, `For`
    /// one, leaves none).
    pub fn blocks(&self) -> Vec<&Block> {
        match self {
            Stmt::If { body, orelse, .. } => vec![body, orelse],
            Stmt::For { body, .. } => vec![body],
            _ => vec![],
        }
    }
}

/// A formal parameter of a procedure.
#[derive(Clone, PartialEq, Debug)]
pub struct FnArg {
    /// Parameter name.
    pub name: Sym,
    /// Parameter type.
    pub ty: ArgType,
}

/// The type of a formal parameter.
#[derive(Clone, PartialEq, Debug)]
pub enum ArgType {
    /// A control value.
    Ctrl(CtrlType),
    /// A data scalar passed by reference.
    Scalar {
        /// Element precision.
        ty: DataType,
        /// Memory annotation.
        mem: MemName,
    },
    /// A tensor (or window over one).
    Tensor {
        /// Element precision.
        ty: DataType,
        /// Extent per dimension; may depend on size parameters.
        shape: Vec<Expr>,
        /// `true` if the argument is a window (`[R][n,m]` syntax in the
        /// paper): strides are passed at runtime.
        window: bool,
        /// Memory annotation.
        mem: MemName,
    },
}

impl ArgType {
    /// The data precision, if this is a data argument.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            ArgType::Ctrl(_) => None,
            ArgType::Scalar { ty, .. } | ArgType::Tensor { ty, .. } => Some(*ty),
        }
    }

    /// The memory annotation, if this is a data argument.
    pub fn mem(&self) -> Option<MemName> {
        match self {
            ArgType::Ctrl(_) => None,
            ArgType::Scalar { mem, .. } | ArgType::Tensor { mem, .. } => Some(*mem),
        }
    }

    /// Whether the argument is a control value.
    pub fn is_ctrl(&self) -> bool {
        matches!(self, ArgType::Ctrl(_))
    }
}

/// The `@instr` annotation: a C template standing in for the procedure
/// body at code-generation time (paper §3.2.2).
///
/// Template holes are written `{name}` (argument interpolation),
/// `{name_data}` (pointer to the data of a tensor argument) and
/// `{name_int}` (integer value). The annotated Exo body is the semantic
/// specification used by scheduling and analysis.
#[derive(Clone, PartialEq, Debug)]
pub struct InstrTemplate {
    /// The C code emitted for each call, with `{arg}` holes.
    pub c_instr: String,
}

/// A procedure: the unit of compilation, scheduling, and replacement.
#[derive(Clone, PartialEq, Debug)]
pub struct Proc {
    /// Procedure name.
    pub name: Sym,
    /// Formal parameters.
    pub args: Vec<FnArg>,
    /// Static assertions (pre-conditions on control arguments).
    pub preds: Vec<Expr>,
    /// Procedure body.
    pub body: Block,
    /// `Some` if this procedure is an `@instr`.
    pub instr: Option<InstrTemplate>,
}

impl Proc {
    /// Whether this procedure is a hardware instruction.
    pub fn is_instr(&self) -> bool {
        self.instr.is_some()
    }

    /// Looks up a formal parameter by name.
    pub fn arg(&self, name: Sym) -> Option<&FnArg> {
        self.args.iter().find(|a| a.name == name)
    }
}

/// A field of a configuration struct.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConfigField {
    /// Field name.
    pub name: Sym,
    /// Field type (control values only).
    pub ty: CtrlType,
}

/// A configuration struct declaration (paper §3.2.3): a named collection
/// of global, mutable control variables modeling accelerator state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConfigDecl {
    /// Struct name.
    pub name: Sym,
    /// Fields.
    pub fields: Vec<ConfigField>,
    /// If `false`, no C struct is generated and direct access from C is
    /// impossible (the state only exists for analysis).
    pub materialize: bool,
}

impl ConfigDecl {
    /// Creates a materialized configuration struct.
    pub fn new(name: impl Into<String>, fields: Vec<(&str, CtrlType)>) -> ConfigDecl {
        ConfigDecl {
            name: Sym::new(name),
            fields: fields
                .into_iter()
                .map(|(n, ty)| ConfigField {
                    name: Sym::new(n),
                    ty,
                })
                .collect(),
            materialize: true,
        }
    }

    /// Looks up a field by name.
    pub fn field(&self, name: Sym) -> Option<&ConfigField> {
        self.fields.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders() {
        let i = Sym::new("i");
        let e = Expr::var(i).mul(Expr::int(16)).add(Expr::int(3));
        match &e {
            Expr::BinOp(BinOp::Add, lhs, rhs) => {
                assert!(matches!(**lhs, Expr::BinOp(BinOp::Mul, ..)));
                assert_eq!(rhs.as_int(), Some(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Lt.is_predicate());
        assert!(!BinOp::Add.is_predicate());
        assert_eq!(BinOp::Mod.symbol(), "%");
    }

    #[test]
    fn stmt_blocks() {
        let s = Stmt::If {
            cond: Expr::bool(true),
            body: vec![Stmt::Pass],
            orelse: vec![],
        };
        assert_eq!(s.blocks().len(), 2);
        assert!(Stmt::Pass.blocks().is_empty());
    }

    #[test]
    fn config_lookup() {
        let c = ConfigDecl::new("ConfigLoad", vec![("src_stride", CtrlType::Stride)]);
        let src = c.fields[0].name;
        assert_eq!(
            c.field(src).map(|f| f.name.name()),
            Some("src_stride".into())
        );
        assert!(c.field(Sym::new("src_stride")).is_none());
        assert!(c.materialize);
    }

    #[test]
    fn lit_display() {
        assert_eq!(Lit::Int(42).to_string(), "42");
        assert_eq!(Lit::Float(2.0).to_string(), "2.0");
        assert_eq!(Lit::Bool(true).to_string(), "true");
    }

    #[test]
    fn waccess_kinds() {
        assert!(WAccess::Interval(Expr::int(0), Expr::int(4)).is_interval());
        assert!(!WAccess::Point(Expr::int(0)).is_interval());
    }
}
