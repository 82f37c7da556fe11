//! Types of the Exo core language (paper §3.1, Fig. 3).
//!
//! Exo is built around a strict *control/data separation*: control values
//! (`int`, `bool`, `size`, `index`, `stride`) may appear in loop bounds,
//! branch conditions and array indices and are restricted to quasi-affine
//! arithmetic so they can be analyzed precisely; data values (`R`, `f32`,
//! `i8`, …) are the numbers stored in scalars and tensors and are
//! unrestricted.

use std::fmt;

use crate::sym::Sym;

/// Precision of a data value.
///
/// `R` is the abstract numeric type from the paper; it can be refined to a
/// concrete precision by the `set_precision` scheduling operator, and must
/// be refined before code generation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DataType {
    /// Abstract real number, precision not yet chosen.
    #[default]
    R,
    /// IEEE 754 half precision.
    F16,
    /// IEEE 754 single precision.
    F32,
    /// IEEE 754 double precision.
    F64,
    /// Signed 8-bit integer (fixed point).
    I8,
    /// Signed 32-bit integer (fixed point).
    I32,
    /// Unsigned 8-bit integer.
    U8,
    /// Unsigned 16-bit integer.
    U16,
}

impl DataType {
    /// Returns the C spelling of this precision.
    ///
    /// `R` has no C spelling; the backend precision check rejects programs
    /// that still contain `R` at code-generation time.
    pub fn c_name(self) -> Option<&'static str> {
        match self {
            DataType::R => None,
            DataType::F16 => Some("_Float16"),
            DataType::F32 => Some("float"),
            DataType::F64 => Some("double"),
            DataType::I8 => Some("int8_t"),
            DataType::I32 => Some("int32_t"),
            DataType::U8 => Some("uint8_t"),
            DataType::U16 => Some("uint16_t"),
        }
    }

    /// Size of one element in bytes (`R` defaults to 4, matching `f32`,
    /// for capacity estimation before precision is fixed).
    pub fn size_bytes(self) -> usize {
        match self {
            DataType::R | DataType::F32 | DataType::I32 => 4,
            DataType::F16 | DataType::U16 => 2,
            DataType::F64 => 8,
            DataType::I8 | DataType::U8 => 1,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::R => "R",
            DataType::F16 => "f16",
            DataType::F32 => "f32",
            DataType::F64 => "f64",
            DataType::I8 => "i8",
            DataType::I32 => "i32",
            DataType::U8 => "u8",
            DataType::U16 => "u16",
        };
        write!(f, "{s}")
    }
}

/// Type of a control value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CtrlType {
    /// Strictly positive array extent, usable in dependent tensor shapes.
    Size,
    /// Non-negative index value.
    Index,
    /// Arbitrary integer.
    Int,
    /// Boolean.
    Bool,
    /// A buffer stride (distance in elements between consecutive entries
    /// along one dimension).
    Stride,
}

impl fmt::Display for CtrlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CtrlType::Size => "size",
            CtrlType::Index => "index",
            CtrlType::Int => "int",
            CtrlType::Bool => "bool",
            CtrlType::Stride => "stride",
        };
        write!(f, "{s}")
    }
}

/// Name of a memory in which a buffer resides (paper §3.2.1).
///
/// The core language and analyses are blind to memories; they only affect
/// code generation, where the name is resolved against user-defined
/// [`Memory`](../../exo_codegen/mem/struct.Memory.html) definitions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemName(pub Sym);

impl MemName {
    /// The default memory: system DRAM, managed with `malloc`/`free`.
    pub fn dram() -> MemName {
        static DRAM: std::sync::OnceLock<Sym> = std::sync::OnceLock::new();
        MemName(*DRAM.get_or_init(|| Sym::new("DRAM")))
    }
}

impl fmt::Display for MemName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r_has_no_c_name() {
        assert_eq!(DataType::R.c_name(), None);
        assert_eq!(DataType::F32.c_name(), Some("float"));
    }

    #[test]
    fn sizes() {
        assert_eq!(DataType::I8.size_bytes(), 1);
        assert_eq!(DataType::F64.size_bytes(), 8);
        assert_eq!(DataType::R.size_bytes(), 4);
    }

    #[test]
    fn dram_is_singleton() {
        assert_eq!(MemName::dram(), MemName::dram());
        assert_ne!(MemName(Sym::new("SCRATCH")), MemName::dram());
    }

    #[test]
    fn display_forms() {
        assert_eq!(DataType::F32.to_string(), "f32");
        assert_eq!(CtrlType::Size.to_string(), "size");
        assert_eq!(MemName::dram().to_string(), "DRAM");
    }
}
