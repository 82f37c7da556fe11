//! Hardware-instruction traces.
//!
//! When the interpreter executes a call to an `@instr` procedure, it
//! records a [`HwOp`] with fully resolved arguments. The accelerator
//! simulators (`gemmini-sim`, `x86-sim`) replay these traces with timing
//! models — the same way the paper's evaluation runs Exo-generated
//! instruction streams on Gemmini RTL and an AVX-512 core.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use exo_core::types::{DataType, MemName};

use crate::value::BufId;

/// The name of a traced instruction or of one of its formals. Cloning
/// one shares it: the interpreter builds each `@instr` callee's names
/// once per run, and hand-built traces use `'static` literals. It
/// dereferences to, compares with and prints (`Debug` included) as a
/// plain string.
#[derive(Clone)]
pub struct TraceName(NameRepr);

#[derive(Clone)]
enum NameRepr {
    Static(&'static str),
    Shared(Arc<str>),
}

impl TraceName {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            NameRepr::Static(s) => s,
            NameRepr::Shared(s) => s,
        }
    }
}

impl Deref for TraceName {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&'static str> for TraceName {
    fn from(s: &'static str) -> TraceName {
        TraceName(NameRepr::Static(s))
    }
}

impl From<String> for TraceName {
    fn from(s: String) -> TraceName {
        TraceName(NameRepr::Shared(s.into()))
    }
}

impl PartialEq for TraceName {
    fn eq(&self, other: &TraceName) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for TraceName {}

impl PartialEq<&str> for TraceName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for TraceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Axes stored without a heap allocation (the conv operands are 4-D).
const INLINE_AXES: usize = 4;

/// One `usize` per tensor axis, outermost first: a [`TensorRef`]'s
/// extents or strides. Up to four axes are stored inline, more on the
/// heap. It dereferences to, compares with and prints (`Debug`
/// included) as a slice.
#[derive(Clone)]
pub struct Axes(AxesRepr);

#[derive(Clone)]
enum AxesRepr {
    Inline(u8, [usize; INLINE_AXES]),
    Heap(Box<[usize]>),
}

impl Deref for Axes {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        match &self.0 {
            AxesRepr::Inline(len, axes) => &axes[..usize::from(*len)],
            AxesRepr::Heap(axes) => axes,
        }
    }
}

impl FromIterator<usize> for Axes {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Axes {
        let mut iter = iter.into_iter();
        let mut axes = [0; INLINE_AXES];
        for (len, slot) in axes.iter_mut().enumerate() {
            match iter.next() {
                Some(v) => *slot = v,
                None => return Axes(AxesRepr::Inline(len as u8, axes)),
            }
        }
        match iter.next() {
            None => Axes(AxesRepr::Inline(INLINE_AXES as u8, axes)),
            Some(v) => {
                let heap: Vec<usize> = axes.into_iter().chain([v]).chain(iter).collect();
                Axes(AxesRepr::Heap(heap.into()))
            }
        }
    }
}

impl From<&[usize]> for Axes {
    fn from(axes: &[usize]) -> Axes {
        axes.iter().copied().collect()
    }
}

impl<const N: usize> From<[usize; N]> for Axes {
    fn from(axes: [usize; N]) -> Axes {
        axes.into_iter().collect()
    }
}

impl<'a> IntoIterator for &'a Axes {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Axes {
    fn eq(&self, other: &Axes) -> bool {
        **self == **other
    }
}

impl Eq for Axes {}

impl fmt::Debug for Axes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A resolved tensor argument of a hardware instruction: a copy of the
/// window's layout, not a reference into the interpreter's frames.
#[derive(Clone, PartialEq, Debug)]
pub struct TensorRef {
    /// Underlying buffer identity.
    pub buf: BufId,
    /// Memory the buffer resides in.
    pub mem: MemName,
    /// Element precision.
    pub dtype: DataType,
    /// Linear element offset of the window origin within the buffer.
    pub base_offset: usize,
    /// Extent per retained dimension.
    pub shape: Axes,
    /// Element stride per retained dimension.
    pub strides: Axes,
}

impl TensorRef {
    /// Total number of elements addressed: the product of the extents
    /// (1 for a scalar, 0 when some extent is 0).
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Whether the reference addresses no element (some extent is 0).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A resolved argument of a hardware instruction.
#[derive(Clone, PartialEq, Debug)]
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
    pub fn as_tensor(&self) -> Option<&TensorRef> {
        match self {
            TraceArg::Tensor(t) => Some(t),
            _ => None,
        }
    }
}

/// One executed hardware instruction.
#[derive(Clone, PartialEq, Debug)]
pub struct HwOp {
    /// The `@instr` procedure's name.
    pub instr: TraceName,
    /// `(formal parameter name, resolved argument)` pairs.
    pub args: Vec<(TraceName, TraceArg)>,
}

impl HwOp {
    /// Looks up an argument by formal parameter name.
    pub fn arg(&self, name: &str) -> Option<&TraceArg> {
        self.args
            .iter()
            .find(|(n, _)| n.as_str() == name)
            .map(|(_, a)| a)
    }

    /// Looks up an integer argument by name.
    pub fn int_arg(&self, name: &str) -> Option<i64> {
        self.arg(name).and_then(TraceArg::as_int)
    }

    /// Looks up a tensor argument by name.
    pub fn tensor_arg(&self, name: &str) -> Option<&TensorRef> {
        self.arg(name).and_then(TraceArg::as_tensor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_lookup() {
        let op = HwOp {
            instr: "mvin".into(),
            args: vec![
                ("n".into(), TraceArg::Int(16)),
                (
                    "src".into(),
                    TraceArg::Tensor(TensorRef {
                        buf: BufId(0),
                        mem: MemName::dram(),
                        dtype: DataType::F32,
                        base_offset: 64,
                        shape: [16, 16].into(),
                        strides: [128, 1].into(),
                    }),
                ),
            ],
        };
        assert_eq!(op.int_arg("n"), Some(16));
        assert_eq!(op.tensor_arg("src").unwrap().len(), 256);
        assert!(op.arg("missing").is_none());
    }

    fn tensor(shape: &[usize]) -> TensorRef {
        TensorRef {
            buf: BufId(0),
            mem: MemName::dram(),
            dtype: DataType::F32,
            base_offset: 0,
            shape: shape.into(),
            strides: shape.iter().map(|_| 1).collect(),
        }
    }

    #[test]
    fn len_is_the_plain_product_of_the_extents() {
        assert_eq!(tensor(&[]).len(), 1);
        assert!(!tensor(&[]).is_empty());
        assert_eq!(tensor(&[4, 3]).len(), 12);
        assert_eq!(tensor(&[4, 0, 3]).len(), 0);
        assert!(tensor(&[4, 0, 3]).is_empty());
    }

    #[test]
    fn axes_spill_to_the_heap_past_four_and_compare_as_slices() {
        for n in 0..8 {
            let v: Vec<usize> = (1..=n).collect();
            let axes = Axes::from(&v[..]);
            assert_eq!(axes[..], v[..]);
            assert_eq!(format!("{axes:?}"), format!("{v:?}"));
            assert_eq!(axes, v.iter().copied().collect::<Axes>());
        }
        assert_ne!(Axes::from([1, 2]), Axes::from([1, 2, 0]));
    }

    #[test]
    fn names_print_and_compare_as_strings() {
        let shared = TraceName::from(String::from("gemmini_mvin"));
        let literal = TraceName::from("gemmini_mvin");
        assert_eq!(shared, literal);
        assert_eq!(shared, "gemmini_mvin");
        assert!(literal.starts_with("gemmini_"));
        assert_eq!(format!("{shared:?}"), format!("{:?}", "gemmini_mvin"));
    }
}
