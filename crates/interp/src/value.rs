//! Runtime values: control scalars, buffers, and windows.
//!
//! This mirrors the store model of paper §4.1: control values are
//! integers/booleans, data values are reals (`f64` here, quantized on
//! store according to the buffer's precision), and buffers are maps from
//! coordinate tuples to data, stored row-major. Windows (a buffer, a base
//! offset and a stride per axis) live in the interpreter's frames.

use exo_core::types::{DataType, MemName};
use exo_core::Sym;

/// A control value.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum CtrlVal {
    /// Integer control value.
    Int(i64),
    /// Boolean control value.
    Bool(bool),
}

impl CtrlVal {
    /// Extracts the integer, if any.
    pub fn as_int(self) -> Option<i64> {
        match self {
            CtrlVal::Int(v) => Some(v),
            CtrlVal::Bool(_) => None,
        }
    }

    /// Extracts the boolean, if any.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            CtrlVal::Bool(v) => Some(v),
            CtrlVal::Int(_) => None,
        }
    }
}

/// Identifier of a buffer in the interpreter's arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BufId(pub usize);

/// Backing storage of one allocated buffer. Element storage is
/// allocated on the first store (or up front for an external buffer
/// given data): until then every element is uninitialized (⊥).
#[derive(Clone, Debug)]
pub struct BufferData {
    /// Debug name (the allocation symbol).
    pub name: Sym,
    /// Element precision; stores quantize through this.
    pub dtype: DataType,
    /// Extent per dimension (empty = scalar).
    pub shape: Vec<usize>,
    /// Memory the buffer models.
    pub mem: MemName,
    /// Row-major element storage, `None` = ⊥; empty until the first
    /// store.
    data: Vec<Option<f64>>,
}

impl BufferData {
    /// Creates an uninitialized buffer.
    pub fn new(name: Sym, dtype: DataType, shape: Vec<usize>, mem: MemName) -> BufferData {
        BufferData {
            name,
            dtype,
            shape,
            mem,
            data: Vec::new(),
        }
    }

    /// A buffer holding `values` (row-major, one per element), each
    /// quantized through `dtype`.
    pub(crate) fn with_values(
        name: Sym,
        dtype: DataType,
        shape: Vec<usize>,
        mem: MemName,
        values: &[f64],
    ) -> BufferData {
        let data = values.iter().map(|&v| Some(cast(dtype, v))).collect();
        BufferData {
            data,
            ..BufferData::new(name, dtype, shape, mem)
        }
    }

    /// Number of elements: the shape's volume (at least 1).
    pub(crate) fn volume(&self) -> usize {
        self.shape.iter().product::<usize>().max(1)
    }

    /// Element `off`: `None` past the volume, `Some(None)` when it is
    /// uninitialized.
    pub(crate) fn get(&self, off: usize) -> Option<Option<f64>> {
        if self.data.is_empty() {
            (off < self.volume()).then_some(None)
        } else {
            self.data.get(off).copied()
        }
    }

    /// Every element in row-major order; `None` for an uninitialized
    /// (⊥) one.
    pub fn values(&self) -> impl Iterator<Item = Option<f64>> + '_ {
        (0..self.volume()).map(|off| self.get(off).flatten())
    }

    /// Element `off` for a store, allocating the storage on the first
    /// one; `None` past the volume.
    pub(crate) fn get_mut(&mut self, off: usize) -> Option<&mut Option<f64>> {
        if self.data.is_empty() {
            let volume = self.volume();
            if off >= volume {
                return None;
            }
            self.data = vec![None; volume];
        }
        self.data.get_mut(off)
    }
}

/// Quantizes a data value through a precision type, modeling the
/// back-end type casts of paper §3.1.1.
pub fn cast(dtype: DataType, v: f64) -> f64 {
    match dtype {
        DataType::R | DataType::F64 => v,
        DataType::F32 => v as f32 as f64,
        DataType::F16 => {
            // round-trip through an emulated binary16 (clamp + truncate
            // mantissa); adequate for the kernels in this repo
            let f = v as f32;
            let clamped = f.clamp(-65504.0, 65504.0);
            ((clamped * 1024.0).round() / 1024.0) as f64
        }
        DataType::I8 => (v.round().clamp(-128.0, 127.0)) as i64 as f64,
        DataType::I32 => (v.round().clamp(i32::MIN as f64, i32::MAX as f64)) as i64 as f64,
        DataType::U8 => (v.round().clamp(0.0, 255.0)) as i64 as f64,
        DataType::U16 => (v.round().clamp(0.0, 65535.0)) as i64 as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_buffer() {
        let b = BufferData::new(Sym::new("s"), DataType::F32, vec![], MemName::dram());
        assert_eq!(b.values().collect::<Vec<_>>(), vec![None]);
        assert_eq!(b.get(0), Some(None));
        assert_eq!(b.get(1), None);
    }

    #[test]
    fn casts_quantize() {
        assert_eq!(cast(DataType::I8, 300.0), 127.0);
        assert_eq!(cast(DataType::I8, -3.6), -4.0);
        assert_eq!(cast(DataType::U8, -5.0), 0.0);
        assert_eq!(cast(DataType::F64, 0.1), 0.1);
        assert!((cast(DataType::F32, 0.1) - 0.1).abs() < 1e-7);
    }
}
