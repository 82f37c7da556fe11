//! Hardware-instruction traces.
//!
//! When the interpreter executes a call to an `@instr` procedure, it
//! records a [`HwOp`] with fully resolved arguments. The accelerator
//! simulators (`gemmini-sim`, `x86-sim`) replay these traces with timing
//! models — the same way the paper's evaluation runs Exo-generated
//! instruction streams on Gemmini RTL and an AVX-512 core.
//!
//! A trace is plain data. [`HwOp::instr`] is an [`Instr`], a `Copy`
//! handle to a process-wide table of instruction signatures (a name and
//! the formals' names), interned by content: the table holds one entry
//! per distinct signature, and the interpreter resolves each `@instr`
//! callee to its handle once per run. [`HwOp::args`] holds the bound
//! arguments inline, keyed by formal index: up to three control values
//! and three tensors, each `Copy`. A [`TensorRef`] of rank at most four
//! keeps its extents and strides inline as 32-bit integers, so recording
//! or freeing such an op allocates nothing. A simulator decodes each
//! distinct handle once (its op class and the positions of the formals
//! it reads) and then reads every op by position.
//!
//! Two rare shapes take a slower path and keep their exact content: the
//! layout of a tensor of rank above four, or with an extent or stride
//! past `u32::MAX`, lives in a second process-wide table interned by
//! content (one allocation per distinct layout), and an instruction with
//! more than six formals, or more than three control values or tensors,
//! keeps its arguments on the heap. The Gemmini and AVX-512 libraries
//! take neither.
//!
//! A whole trace is a [`Trace`]: the interpreter records into one, and
//! so do the old-lib trace models of `exo-kernels`. A dropped `Trace`
//! leaves its buffer to the next one built on the same thread.

use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Mutex, OnceLock, PoisonError};

use exo_core::hash::HashMap;
use exo_core::ir::Proc;
use exo_core::types::{DataType, MemName};

use crate::value::BufId;

/// An interned instruction signature.
struct Signature {
    name: Box<str>,
    formals: Box<[Box<str>]>,
}

/// A handle to an instruction signature: an `@instr`'s name and its
/// formals' names. Handles are interned by content, so two handles are
/// equal exactly when their signatures are. It compares with and prints
/// (`Debug` included) as its name.
#[derive(Clone, Copy)]
pub struct Instr(&'static Signature);

/// The signatures interned so far, by name.
fn signatures() -> &'static Mutex<HashMap<Box<str>, Vec<&'static Signature>>> {
    static TABLE: OnceLock<Mutex<HashMap<Box<str>, Vec<&'static Signature>>>> = OnceLock::new();
    TABLE.get_or_init(Mutex::default)
}

impl Instr {
    /// The handle of the signature `name(formals…)`.
    pub fn intern(name: &str, formals: &[&str]) -> Instr {
        Instr::intern_with(name, formals.len(), |i| formals[i])
    }

    /// The handle of `p`'s signature: its name and its formals' names.
    pub fn of_proc(p: &Proc) -> Instr {
        let formals: Vec<String> = p.args.iter().map(|a| a.name.name()).collect();
        Instr::intern_with(&p.name.name(), formals.len(), |i| &formals[i])
    }

    fn intern_with<'a>(name: &str, arity: usize, formal: impl Fn(usize) -> &'a str) -> Instr {
        // Interning only appends, so a panic elsewhere cannot leave the
        // table inconsistent; recover the guard instead of propagating
        // poison.
        let mut table = signatures().lock().unwrap_or_else(PoisonError::into_inner);
        let same = |s: &&&'static Signature| {
            s.formals.len() == arity && (0..arity).all(|i| *s.formals[i] == *formal(i))
        };
        if let Some(&sig) = table.get(name).and_then(|sigs| sigs.iter().find(same)) {
            return Instr(sig);
        }
        let sig: &'static Signature = Box::leak(Box::new(Signature {
            name: name.into(),
            formals: (0..arity).map(|i| formal(i).into()).collect(),
        }));
        table.entry(name.into()).or_default().push(sig);
        Instr(sig)
    }

    /// The instruction's name.
    pub fn as_str(self) -> &'static str {
        &self.0.name
    }

    /// The number of formals.
    #[inline]
    pub fn arity(self) -> usize {
        self.0.formals.len()
    }

    /// The name of formal `i`.
    pub fn formal(self, i: usize) -> Option<&'static str> {
        self.0.formals.get(i).map(|f| &**f)
    }

    /// The index of the formal named `name`.
    pub fn position(self, name: &str) -> Option<usize> {
        self.0.formals.iter().position(|f| **f == *name)
    }
}

impl PartialEq for Instr {
    fn eq(&self, other: &Instr) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Instr {}

impl Hash for Instr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::ptr::hash(self.0, state);
    }
}

impl PartialEq<&str> for Instr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Axes a [`TensorRef`] stores inline (the conv operands are 4-D).
pub(crate) const INLINE_AXES: usize = 4;

/// The `rank` of a [`TensorRef`] whose layout is in [`spilled_layouts`].
const SPILLED: u8 = u8::MAX;

/// Interned layouts: each a tensor's extents followed by its strides.
type Layouts = (HashMap<&'static [usize], u32>, Vec<&'static [usize]>);

/// The layouts of tensors whose axes a [`TensorRef`] cannot store inline
/// (rank above [`INLINE_AXES`], or an extent or stride past `u32::MAX`),
/// interned by content: the table holds one entry per distinct layout.
fn spilled_layouts() -> &'static Mutex<Layouts> {
    static TABLE: OnceLock<Mutex<Layouts>> = OnceLock::new();
    TABLE.get_or_init(Mutex::default)
}

/// One `usize` per tensor axis, outermost first: a [`TensorRef`]'s
/// extents or strides. It dereferences to, compares with and prints
/// (`Debug` included) as a slice.
#[derive(Clone, Copy)]
pub struct Axes(AxesRepr);

#[derive(Clone, Copy)]
enum AxesRepr {
    Inline(u8, [usize; INLINE_AXES]),
    Spilled(&'static [usize]),
}

impl Deref for Axes {
    type Target = [usize];

    #[inline]
    fn deref(&self) -> &[usize] {
        match &self.0 {
            AxesRepr::Inline(len, axes) => &axes[..usize::from(*len)],
            AxesRepr::Spilled(axes) => axes,
        }
    }
}

impl PartialEq for Axes {
    fn eq(&self, other: &Axes) -> bool {
        **self == **other
    }
}

impl<const N: usize> PartialEq<[usize; N]> for Axes {
    fn eq(&self, other: &[usize; N]) -> bool {
        **self == *other
    }
}

impl fmt::Debug for Axes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A resolved tensor argument of a hardware instruction: a copy of the
/// window's layout, not a reference into the interpreter's frames.
/// Window coordinate `i` (with `i[d] < shape()[d]`) addresses element
/// `base_offset + Σ i[d]·strides()[d]` of `buf`. Up to four axes whose
/// extents and strides fit in 32 bits are stored inline; any other
/// layout is interned in a process-wide table.
#[derive(Clone, Copy)]
pub struct TensorRef {
    /// Underlying buffer identity.
    pub buf: BufId,
    /// Memory the buffer resides in.
    pub mem: MemName,
    /// Element precision.
    pub dtype: DataType,
    /// Linear element offset of the window origin within the buffer.
    pub base_offset: usize,
    /// The number of axes when they are inline, else [`SPILLED`].
    rank: u8,
    /// Inline: the extents, then the strides, [`INLINE_AXES`] each.
    /// Spilled: `axes[0]` is the layout's index in [`spilled_layouts`].
    axes: [u32; 2 * INLINE_AXES],
}

impl TensorRef {
    /// A window of `buf` at `base_offset` with one `(extent, stride)`
    /// pair per retained axis, outermost first.
    #[inline]
    pub fn new(
        buf: BufId,
        mem: MemName,
        dtype: DataType,
        base_offset: usize,
        axes: &[(usize, usize)],
    ) -> TensorRef {
        let mut t = TensorRef {
            buf,
            mem,
            dtype,
            base_offset,
            rank: axes.len() as u8,
            axes: [0; 2 * INLINE_AXES],
        };
        if axes.len() <= INLINE_AXES {
            for (d, &(n, s)) in axes.iter().enumerate() {
                match (u32::try_from(n), u32::try_from(s)) {
                    (Ok(n), Ok(s)) => (t.axes[d], t.axes[INLINE_AXES + d]) = (n, s),
                    _ => return t.spill(axes),
                }
            }
            t
        } else {
            t.spill(axes)
        }
    }

    /// A window whose `rank ≤ INLINE_AXES` axes are inline: `axes` holds
    /// their extents, then their strides, [`INLINE_AXES`] slots each.
    #[inline]
    pub(crate) fn from_inline(
        buf: BufId,
        mem: MemName,
        dtype: DataType,
        base_offset: usize,
        rank: u8,
        axes: [u32; 2 * INLINE_AXES],
    ) -> TensorRef {
        debug_assert!(usize::from(rank) <= INLINE_AXES);
        TensorRef {
            buf,
            mem,
            dtype,
            base_offset,
            rank,
            axes,
        }
    }

    /// `self` with `axes` interned in [`spilled_layouts`].
    #[cold]
    fn spill(mut self, axes: &[(usize, usize)]) -> TensorRef {
        let layout: Vec<usize> = axes
            .iter()
            .map(|a| a.0)
            .chain(axes.iter().map(|a| a.1))
            .collect();
        let mut table = spilled_layouts()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (index, layouts) = &mut *table;
        self.axes[0] = match index.get(&layout[..]) {
            Some(&i) => i,
            None => {
                let i = layouts.len() as u32;
                let leaked: &'static [usize] = Box::leak(layout.into_boxed_slice());
                layouts.push(leaked);
                index.insert(leaked, i);
                i
            }
        };
        self.rank = SPILLED;
        self
    }

    /// The interned layout of a spilled tensor.
    fn spilled(&self) -> &'static [usize] {
        let table = spilled_layouts()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        table
            .1
            .get(self.axes[0] as usize)
            .copied()
            .unwrap_or_default()
    }

    /// `axes[from..from + rank]`, widened.
    #[inline]
    fn inline(&self, from: usize) -> Axes {
        let mut out = [0; INLINE_AXES];
        for (o, &a) in out.iter_mut().zip(&self.axes[from..from + INLINE_AXES]) {
            *o = a as usize;
        }
        Axes(AxesRepr::Inline(self.rank, out))
    }

    /// Extent per retained dimension, outermost first.
    #[inline]
    pub fn shape(&self) -> Axes {
        if self.rank == SPILLED {
            let layout = self.spilled();
            Axes(AxesRepr::Spilled(&layout[..layout.len() / 2]))
        } else {
            self.inline(0)
        }
    }

    /// Element stride per retained dimension, outermost first.
    #[inline]
    pub fn strides(&self) -> Axes {
        if self.rank == SPILLED {
            let layout = self.spilled();
            Axes(AxesRepr::Spilled(&layout[layout.len() / 2..]))
        } else {
            self.inline(INLINE_AXES)
        }
    }

    /// The linear element span of the window: from its first element to
    /// one past its last, `1 + Σ (extent − 1)·stride` over the axes of
    /// nonzero extent, saturating at `u64::MAX`. Inline axes are read as
    /// stored, without widening them into [`Axes`].
    #[inline]
    pub fn span(&self) -> u64 {
        fn fold(axes: impl Iterator<Item = (u64, u64)>) -> u64 {
            axes.filter(|&(n, _)| n > 0).fold(1, |span, (n, s)| {
                span.saturating_add((n - 1).saturating_mul(s))
            })
        }
        if self.rank == SPILLED {
            let layout = self.spilled();
            let (shape, strides) = layout.split_at(layout.len() / 2);
            fold(
                shape
                    .iter()
                    .zip(strides)
                    .map(|(&n, &s)| (n as u64, s as u64)),
            )
        } else {
            let (shape, strides) = self.axes.split_at(INLINE_AXES);
            let rank = usize::from(self.rank);
            fold(
                shape[..rank]
                    .iter()
                    .zip(strides)
                    .map(|(&n, &s)| (n.into(), s.into())),
            )
        }
    }

    /// Total number of elements addressed: the product of the extents
    /// (1 for a scalar, 0 when some extent is 0).
    pub fn len(&self) -> usize {
        self.shape().iter().product()
    }

    /// Whether the reference addresses no element (some extent is 0).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PartialEq for TensorRef {
    fn eq(&self, other: &TensorRef) -> bool {
        self.buf == other.buf
            && self.mem == other.mem
            && self.dtype == other.dtype
            && self.base_offset == other.base_offset
            && self.shape() == other.shape()
            && self.strides() == other.strides()
    }
}

impl fmt::Debug for TensorRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TensorRef")
            .field("buf", &self.buf)
            .field("mem", &self.mem)
            .field("dtype", &self.dtype)
            .field("base_offset", &self.base_offset)
            .field("shape", &self.shape())
            .field("strides", &self.strides())
            .finish()
    }
}

/// A resolved argument of a hardware instruction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TraceArg {
    /// Integer control argument.
    Int(i64),
    /// Boolean control argument.
    Bool(bool),
    /// Tensor/window argument.
    Tensor(TensorRef),
}

impl TraceArg {
    /// Extracts the integer, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            TraceArg::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts the tensor reference, if any.
    pub fn as_tensor(self) -> Option<TensorRef> {
        match self {
            TraceArg::Tensor(t) => Some(t),
            _ => None,
        }
    }
}

/// Formals a [`TraceArgs`] keys inline (the Gemmini matmul has six).
const INLINE_FORMALS: usize = 6;

/// Control arguments, and tensor arguments, a [`TraceArgs`] stores
/// inline: three of each (the Gemmini matmul's `n, m, k` and `a, b, c`;
/// the AVX-512 FMA's `a, b, dst`).
const INLINE_SCALARS: usize = 3;
const INLINE_TENSORS: usize = 3;

/// Where an inline [`TraceArgs`] keeps one formal's argument.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Loc {
    Unbound,
    Int(u8),
    Bool(u8),
    Tensor(u8),
}

/// The bound arguments of one instruction, keyed by formal index.
#[derive(Clone)]
pub struct TraceArgs(ArgsRepr);

// The inline variant is the common case and the point of the type: a
// traced call stores its arguments without an allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum ArgsRepr {
    /// At most [`INLINE_FORMALS`] formals: `at[i]` locates formal `i`'s
    /// argument among the control values and the tensors, each stored in
    /// binding order.
    Inline {
        arity: u8,
        at: [Loc; INLINE_FORMALS],
        scalars: u8,
        tensors: u8,
        scalar: [i64; INLINE_SCALARS],
        tensor: [Option<TensorRef>; INLINE_TENSORS],
    },
    /// Anything larger: one entry per formal.
    Heap(Box<[Option<TraceArg>]>),
}

impl TraceArgs {
    /// No argument bound yet, for an instruction with `arity` formals.
    #[inline]
    pub fn new(arity: usize) -> TraceArgs {
        TraceArgs(if arity <= INLINE_FORMALS {
            ArgsRepr::Inline {
                arity: arity as u8,
                at: [Loc::Unbound; INLINE_FORMALS],
                scalars: 0,
                tensors: 0,
                scalar: [0; INLINE_SCALARS],
                tensor: [None; INLINE_TENSORS],
            }
        } else {
            ArgsRepr::Heap(vec![None; arity].into_boxed_slice())
        })
    }

    /// Binds formal `i` (ignored past the last formal, or when it is
    /// bound already).
    #[inline]
    pub fn set(&mut self, i: usize, arg: TraceArg) {
        match &mut self.0 {
            ArgsRepr::Inline {
                arity,
                at,
                scalars,
                tensors,
                scalar,
                tensor,
            } => {
                if i >= usize::from(*arity) || at[i] != Loc::Unbound {
                    return;
                }
                match arg {
                    TraceArg::Int(v) if usize::from(*scalars) < INLINE_SCALARS => {
                        scalar[usize::from(*scalars)] = v;
                        at[i] = Loc::Int(*scalars);
                        *scalars += 1;
                    }
                    TraceArg::Bool(v) if usize::from(*scalars) < INLINE_SCALARS => {
                        scalar[usize::from(*scalars)] = i64::from(v);
                        at[i] = Loc::Bool(*scalars);
                        *scalars += 1;
                    }
                    TraceArg::Tensor(t) if usize::from(*tensors) < INLINE_TENSORS => {
                        tensor[usize::from(*tensors)] = Some(t);
                        at[i] = Loc::Tensor(*tensors);
                        *tensors += 1;
                    }
                    _ => self.spill(i, arg),
                }
            }
            ArgsRepr::Heap(args) => {
                if let Some(slot @ None) = args.get_mut(i) {
                    *slot = Some(arg);
                }
            }
        }
    }

    /// Moves the arguments to the heap, binding formal `i` to `arg`: an
    /// instruction with more control values or tensors than fit inline.
    #[cold]
    fn spill(&mut self, i: usize, arg: TraceArg) {
        let arity = self.arity();
        let mut args: Box<[Option<TraceArg>]> = (0..arity).map(|f| self.get(f)).collect();
        args[i] = Some(arg);
        self.0 = ArgsRepr::Heap(args);
    }

    fn arity(&self) -> usize {
        match &self.0 {
            ArgsRepr::Inline { arity, .. } => usize::from(*arity),
            ArgsRepr::Heap(args) => args.len(),
        }
    }

    /// The argument of formal `i`, if bound.
    #[inline]
    pub fn get(&self, i: usize) -> Option<TraceArg> {
        match &self.0 {
            ArgsRepr::Inline {
                at, scalar, tensor, ..
            } => match *at.get(i)? {
                Loc::Unbound => None,
                Loc::Int(k) => Some(TraceArg::Int(scalar[usize::from(k)])),
                Loc::Bool(k) => Some(TraceArg::Bool(scalar[usize::from(k)] != 0)),
                Loc::Tensor(k) => tensor[usize::from(k)].map(TraceArg::Tensor),
            },
            ArgsRepr::Heap(args) => *args.get(i)?,
        }
    }

    /// The integer argument of formal `i`, if bound to one.
    #[inline]
    pub fn int(&self, i: usize) -> Option<i64> {
        match &self.0 {
            ArgsRepr::Inline { at, scalar, .. } => match *at.get(i)? {
                Loc::Int(k) => Some(scalar[usize::from(k)]),
                _ => None,
            },
            ArgsRepr::Heap(args) => args.get(i)?.as_ref().and_then(TraceArg::as_int),
        }
    }

    /// The tensor argument of formal `i`, if bound to one.
    #[inline]
    pub fn tensor(&self, i: usize) -> Option<&TensorRef> {
        match &self.0 {
            ArgsRepr::Inline { at, tensor, .. } => match *at.get(i)? {
                Loc::Tensor(k) => tensor[usize::from(k)].as_ref(),
                _ => None,
            },
            ArgsRepr::Heap(args) => match args.get(i)? {
                Some(TraceArg::Tensor(t)) => Some(t),
                _ => None,
            },
        }
    }

    /// `(formal index, argument)` for each bound formal, in order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, TraceArg)> + Clone + '_ {
        (0..self.arity()).filter_map(|i| Some((i, self.get(i)?)))
    }

    /// The number of bound formals.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether no formal is bound.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

impl PartialEq for TraceArgs {
    fn eq(&self, other: &TraceArgs) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for TraceArgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One executed hardware instruction. Its `Debug` form names each
/// argument by its formal: `HwOp { instr: "mvin", args: [("n", Int(16)),
/// …] }`.
#[derive(Clone, PartialEq)]
pub struct HwOp {
    /// The `@instr` procedure's signature.
    pub instr: Instr,
    /// The bound arguments, keyed by formal index.
    pub args: TraceArgs,
}

impl HwOp {
    /// An op binding the formals of `instr` in order, one argument each
    /// (arguments past the last formal are ignored).
    #[inline]
    pub fn new(instr: Instr, args: impl IntoIterator<Item = TraceArg>) -> HwOp {
        let mut bound = TraceArgs::new(instr.arity());
        for (i, a) in args.into_iter().enumerate() {
            bound.set(i, a);
        }
        HwOp { instr, args: bound }
    }

    /// Looks up an argument by formal parameter name.
    pub fn arg(&self, name: &str) -> Option<TraceArg> {
        self.args.get(self.instr.position(name)?)
    }

    /// Looks up an integer argument by name.
    pub fn int_arg(&self, name: &str) -> Option<i64> {
        self.args.int(self.instr.position(name)?)
    }

    /// Looks up a tensor argument by name.
    pub fn tensor_arg(&self, name: &str) -> Option<&TensorRef> {
        self.args.tensor(self.instr.position(name)?)
    }
}

impl fmt::Debug for HwOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let args = self
            .args
            .iter()
            .map(|(i, a)| (self.instr.formal(i).unwrap_or_default(), a));
        f.debug_struct("HwOp")
            .field("instr", &self.instr)
            .field("args", &DebugList(args))
            .finish()
    }
}

/// Spare trace buffers a thread keeps for its next traces.
const SPARES: usize = 2;

/// The largest buffer kept as a spare, bytes; a larger one is freed.
const SPARE_MAX_BYTES: usize = 64 << 20;

thread_local! {
    static SPARE: RefCell<Vec<Vec<HwOp>>> = const { RefCell::new(Vec::new()) };
}

/// A recorded instruction trace: the ops in order, read as a `[HwOp]`
/// slice, in storage that is reused from one trace to the next.
///
/// Traces are the largest short-lived buffers of a simulation run (a
/// scaled Fig. 4a matmul records ~17 000 ops, 3.7 MB, and its old-lib
/// model ~25 000), and a sequence of runs makes and frees them one after
/// another. Taken fresh from the allocator each time, a trace lands
/// wherever the heap has room at that moment, so the memory a process
/// touches depends on the order of its earlier runs. A dropped `Trace`
/// instead leaves its cleared buffer to its thread (at most [`SPARES`]
/// of them, none above [`SPARE_MAX_BYTES`]), and the next `Trace` on
/// that thread starts from it: the same buffers serve every run, in any
/// order, and a trace that fits one grows without copying.
/// [`crate::Machine::take_trace`] hands its buffer out for good.
#[derive(Debug)]
pub struct Trace(pub(crate) Vec<HwOp>);

impl Trace {
    /// An empty trace, in a spare buffer of this thread if there is one.
    pub fn new() -> Trace {
        Trace(
            SPARE
                .try_with(|s| s.borrow_mut().pop())
                .ok()
                .flatten()
                .unwrap_or_default(),
        )
    }

    /// An empty trace with room for at least `n` ops.
    pub fn with_capacity(n: usize) -> Trace {
        let mut t = Trace::new();
        t.0.reserve(n);
        t
    }

    /// Appends an op.
    #[inline]
    pub fn push(&mut self, op: HwOp) {
        self.0.push(op);
    }
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Deref for Trace {
    type Target = [HwOp];

    fn deref(&self) -> &[HwOp] {
        &self.0
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        let mut ops = std::mem::take(&mut self.0);
        let bytes = ops.capacity() * std::mem::size_of::<HwOp>();
        if bytes == 0 || bytes > SPARE_MAX_BYTES {
            return;
        }
        ops.clear();
        // during thread teardown the buffer is simply freed
        let _ = SPARE.try_with(|s| {
            let mut s = s.borrow_mut();
            if s.len() < SPARES {
                s.push(ops);
            }
        });
    }
}

/// Prints an iterator's items as a `Debug` list.
struct DebugList<I>(I);

impl<I: Iterator<Item = T> + Clone, T: fmt::Debug> fmt::Debug for DebugList<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.clone()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(axes: &[(usize, usize)]) -> TensorRef {
        TensorRef::new(BufId(0), MemName::dram(), DataType::F32, 0, axes)
    }

    #[test]
    fn arg_lookup() {
        let mvin = Instr::intern("mvin", &["n", "src"]);
        let src = TensorRef::new(
            BufId(0),
            MemName::dram(),
            DataType::F32,
            64,
            &[(16, 128), (16, 1)],
        );
        let op = HwOp::new(mvin, [TraceArg::Int(16), TraceArg::Tensor(src)]);
        assert_eq!(op.int_arg("n"), Some(16));
        assert_eq!(op.tensor_arg("src").unwrap().len(), 256);
        assert!(op.arg("missing").is_none());
        assert_eq!(op.args.len(), 2);
    }

    #[test]
    fn len_is_the_plain_product_of_the_extents() {
        assert_eq!(tensor(&[]).len(), 1);
        assert!(!tensor(&[]).is_empty());
        assert_eq!(tensor(&[(4, 3), (3, 1)]).len(), 12);
        assert_eq!(tensor(&[(4, 0), (0, 3), (3, 1)]).len(), 0);
        assert!(tensor(&[(4, 0), (0, 3), (3, 1)]).is_empty());
    }

    #[test]
    fn axes_past_four_or_32_bits_spill_exactly_and_compare_as_slices() {
        let wide = [(0usize, 1usize << 32), (usize::MAX, 1)];
        for n in 0..8 {
            let axes: Vec<(usize, usize)> = (1..=n).map(|d| (d, 10 * d)).chain(wide).collect();
            let t = tensor(&axes);
            let shape: Vec<usize> = axes.iter().map(|a| a.0).collect();
            let strides: Vec<usize> = axes.iter().map(|a| a.1).collect();
            assert_eq!(t.shape()[..], shape);
            assert_eq!(t.strides()[..], strides);
            assert_eq!(t, tensor(&axes));
            let debug = format!(
                "TensorRef {{ buf: BufId(0), mem: {:?}, dtype: F32, base_offset: 0, \
                 shape: {shape:?}, strides: {strides:?} }}",
                MemName::dram()
            );
            assert_eq!(format!("{t:?}"), debug);
        }
        assert_ne!(tensor(&[(1, 1), (2, 1)]), tensor(&[(1, 1), (2, 1), (0, 1)]));
        assert_ne!(tensor(&[(1, 1); 5]), tensor(&[(1, 1); 6]));
        assert_eq!(tensor(&[(3, 1 << 32)]).strides(), [1 << 32]);
    }

    #[test]
    fn span_folds_the_axes_as_the_widened_shape_and_strides_do() {
        // the fold over `shape()` and `strides()` that `span` replaces
        let widened = |t: &TensorRef| {
            let (shape, strides) = (t.shape(), t.strides());
            let axes = shape.iter().zip(strides.iter());
            axes.filter(|&(&n, _)| n > 0).fold(1u64, |span, (&n, &s)| {
                span.saturating_add((n as u64 - 1).saturating_mul(s as u64))
            })
        };
        let big = u32::MAX as usize;
        let layouts: [&[(usize, usize)]; 9] = [
            &[],
            &[(16, 128), (16, 1)],
            &[(4, 0), (0, 3), (3, 1)],
            &[(big, big), (big, big), (big, big), (big, big)],
            &[(2, 1), (3, 2), (4, 6), (5, 24), (6, 120)],
            &[(3, 1 << 32), (2, 1)],
            &[(big + 1, 1)],
            &[(2, usize::MAX), (2, 1)],
            &[(1 << 40, 1 << 40), (1 << 40, 1)],
        ];
        let spans: Vec<u64> = layouts.iter().map(|axes| tensor(axes).span()).collect();
        for (axes, &span) in layouts.iter().zip(&spans) {
            assert_eq!(span, widened(&tensor(axes)), "{axes:?}");
        }
        let big = big as u64;
        let exact = [
            1,
            1936,
            3,
            u64::MAX,
            720,
            (2 << 32) + 2,
            big + 1,
            u64::MAX,
            u64::MAX,
        ];
        assert_eq!(spans, exact);
        // rank 5 and 32-bit overflow spill; four axes of 32-bit extents
        // and strides stay inline and saturate
        assert_eq!(tensor(layouts[3]).rank, 4);
        assert!(layouts[4..].iter().all(|axes| tensor(axes).rank == SPILLED));
    }

    #[test]
    fn signatures_intern_by_content_and_print_as_names() {
        let a = Instr::intern("gemmini_mvin", &["n", "src"]);
        assert_eq!(a, Instr::intern("gemmini_mvin", &["n", "src"]));
        assert_ne!(a, Instr::intern("gemmini_mvin", &["n", "dst"]));
        assert_ne!(a, Instr::intern("gemmini_mvin", &["n"]));
        assert_eq!(a, "gemmini_mvin");
        assert_eq!(format!("{a:?}"), format!("{:?}", "gemmini_mvin"));
        assert_eq!(
            (a.arity(), a.formal(1), a.position("src")),
            (2, Some("src"), Some(1))
        );
    }

    #[test]
    fn ops_print_each_argument_beside_its_formal() {
        let instr = Instr::intern("touch", &["n", "flag", "src"]);
        let mut args = TraceArgs::new(3);
        args.set(0, TraceArg::Int(8));
        args.set(2, TraceArg::Tensor(tensor(&[(8, 1)])));
        let op = HwOp { instr, args };
        let src = format!("{:?}", tensor(&[(8, 1)]));
        assert_eq!(
            format!("{op:?}"),
            format!(
                "HwOp {{ instr: \"touch\", args: [(\"n\", Int(8)), (\"src\", Tensor({src}))] }}"
            )
        );
        assert!(op.arg("flag").is_none());
    }

    #[test]
    fn many_formals_keep_every_argument() {
        let names: Vec<String> = (0..9).map(|i| format!("x{i}")).collect();
        let formals: Vec<&str> = names.iter().map(String::as_str).collect();
        let op = HwOp::new(
            Instr::intern("wide", &formals),
            (0..9).map(|i| TraceArg::Int(i * i)),
        );
        assert_eq!(op.int_arg("x8"), Some(64));
        assert_eq!(op.args.len(), 9);
        assert_eq!(op.clone(), op);
    }

    fn spares() -> Vec<usize> {
        SPARE.with(|s| s.borrow().iter().map(Vec::capacity).collect())
    }

    #[test]
    fn a_dropped_trace_leaves_its_buffer_to_the_next() {
        SPARE.with(|s| s.borrow_mut().clear());
        let op = HwOp::new(Instr::intern("fence", &[]), []);
        let mut t = Trace::with_capacity(100);
        t.push(op.clone());
        let (at, cap) = (t.as_ptr(), t.0.capacity());
        drop(t);
        assert_eq!(spares(), [cap]);
        let mut u = Trace::new();
        assert!(u.is_empty());
        assert_eq!((u.as_ptr(), u.0.capacity()), (at, cap));
        assert_eq!(spares(), []);
        u.push(op.clone());
        // a buffer handed out as a vector is not a spare any more
        assert_eq!(std::mem::take(&mut u.0), [op]);
        drop(u);
        assert_eq!(spares(), []);
    }

    #[test]
    fn spares_are_few_and_bounded() {
        SPARE.with(|s| s.borrow_mut().clear());
        let traces: Vec<Trace> = (1..=3).map(|n| Trace::with_capacity(n * 10)).collect();
        drop(traces);
        assert_eq!(spares(), [10, 20]);
        SPARE.with(|s| s.borrow_mut().clear());
        // address space only: the pages are never touched
        let huge = SPARE_MAX_BYTES / std::mem::size_of::<HwOp>() + 1;
        drop(Trace::with_capacity(huge));
        drop(Trace::new());
        assert_eq!(spares(), []);
    }

    #[test]
    fn a_six_argument_op_stays_plain_data() {
        assert_eq!(std::mem::size_of::<TraceArg>(), 56);
        assert_eq!(std::mem::size_of::<HwOp>(), 8 + 16 + 3 * 8 + 3 * 56);
    }

    #[test]
    fn arguments_past_the_inline_slots_keep_their_values() {
        let names = ["a", "b", "c", "d", "e"];
        let t = |o| {
            TraceArg::Tensor(TensorRef::new(
                BufId(o),
                MemName::dram(),
                DataType::I8,
                o,
                &[(4, 1)],
            ))
        };
        let args = [t(1), TraceArg::Bool(true), t(2), t(3), t(4)];
        let op = HwOp::new(Instr::intern("four_tensors", &names), args);
        let got: Vec<TraceArg> = op.args.iter().map(|(_, a)| a).collect();
        assert_eq!(got, args);
        assert_eq!(op.tensor_arg("e").map(|t| t.buf), Some(BufId(4)));
        assert_eq!(op.arg("b"), Some(TraceArg::Bool(true)));
        let ints = HwOp::new(
            Instr::intern("four_ints", &names[..4]),
            (0..4).map(TraceArg::Int),
        );
        assert_eq!(ints.int_arg("d"), Some(3));
        assert_eq!(ints.args.len(), 4);
    }
}
