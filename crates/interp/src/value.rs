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
/// given data): until then every element is uninitialized (⊥). The
/// buffer of an `Alloc` that runs again starts from the storage of the
/// one it made before, cleared, so it too starts all-⊥ but allocates
/// nothing on its first store.
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
    /// Row-major element values; empty until the first store.
    data: Vec<f64>,
    /// Which elements are initialized, while some are not; empty once
    /// every element is (cleared, not freed, so a reallocation reuses
    /// it).
    init: Vec<bool>,
    /// How many `false`s `init` holds.
    uninit: usize,
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
            init: Vec::new(),
            uninit: 0,
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
        let data = values.iter().map(|&v| cast(dtype, v)).collect();
        BufferData {
            data,
            ..BufferData::new(name, dtype, shape, mem)
        }
    }

    /// A new uninitialized buffer of extents `shape` in `self`'s storage:
    /// the element vectors, emptied, and the shape vector, refilled, pass
    /// to it, so it allocates nothing while `self`'s capacities suffice.
    /// `self` keeps its name, type and memory, and reads as a never-written
    /// scalar.
    pub(crate) fn reallocate(
        &mut self,
        name: Sym,
        dtype: DataType,
        shape: &[usize],
        mem: MemName,
    ) -> BufferData {
        let mut dims = std::mem::take(&mut self.shape);
        dims.clear();
        dims.extend_from_slice(shape);
        let mut buf = BufferData {
            data: std::mem::take(&mut self.data),
            init: std::mem::take(&mut self.init),
            ..BufferData::new(name, dtype, dims, mem)
        };
        buf.data.clear();
        buf.init.clear();
        self.uninit = 0;
        buf
    }

    /// Number of elements: the product of the extents (1 for a scalar,
    /// 0 when some extent is 0).
    pub(crate) fn volume(&self) -> usize {
        self.shape.iter().product()
    }

    /// Element `off`: `None` past the volume, `Some(None)` when it is
    /// uninitialized.
    #[inline]
    pub(crate) fn get(&self, off: usize) -> Option<Option<f64>> {
        match self.data.get(off) {
            Some(&v) => Some((self.init.is_empty() || self.init[off]).then_some(v)),
            None => (self.data.is_empty() && off < self.volume()).then_some(None),
        }
    }

    /// Every element in row-major order; `None` for an uninitialized
    /// (⊥) one.
    pub fn values(&self) -> impl Iterator<Item = Option<f64>> + '_ {
        (0..self.volume()).map(|off| self.get(off).flatten())
    }

    /// Stores `v` in element `off`, allocating the storage on the first
    /// store; `false` past the volume.
    #[inline]
    pub(crate) fn set(&mut self, off: usize, v: f64) -> bool {
        if self.data.is_empty() {
            if off >= self.volume() {
                return false;
            }
            self.allocate();
        }
        let Some(cell) = self.data.get_mut(off) else {
            return false;
        };
        *cell = v;
        self.mark(off);
        true
    }

    /// Allocates the element storage of a buffer that has none: every
    /// element ⊥.
    fn allocate(&mut self) {
        let volume = self.volume();
        self.data.resize(volume, 0.0);
        self.init.resize(volume, false);
        self.uninit = volume;
    }

    /// Marks element `off`, which has storage, initialized.
    #[inline]
    fn mark(&mut self, off: usize) {
        if !self.init.is_empty() && !self.init[off] {
            self.init[off] = true;
            self.uninit -= 1;
            if self.uninit == 0 {
                self.init.clear();
            }
        }
    }

    /// Whether the elements `first + k·step` for `k < n` all lie inside
    /// the buffer and are initialized; `last` is the one at `k = n - 1`.
    pub(crate) fn initialized(&self, first: usize, last: usize, step: isize, n: usize) -> bool {
        if first.max(last) >= self.data.len() {
            return false;
        }
        let n = if step == 0 { 1 } else { n };
        self.init.is_empty() || (0..n).all(|k| self.init[at(first, step, k)])
    }

    /// The element storage, empty until the first store. An element the
    /// buffer marks uninitialized holds an arbitrary value.
    #[inline]
    pub(crate) fn elements(&self) -> &[f64] {
        &self.data
    }

    /// Takes the element storage out, allocating it first (every element
    /// ⊥) if the buffer has none, so that it can be written while other
    /// buffers are read; [`BufferData::put_elements`] puts it back.
    pub(crate) fn take_elements(&mut self) -> Vec<f64> {
        if self.data.is_empty() {
            self.allocate();
        }
        std::mem::take(&mut self.data)
    }

    /// Puts back the storage [`BufferData::take_elements`] took, in which
    /// the elements `first + k·step` for `k < n` were stored, and marks
    /// them initialized.
    pub(crate) fn put_elements(&mut self, data: Vec<f64>, first: usize, step: isize, n: usize) {
        self.data = data;
        let n = if step == 0 { n.min(1) } else { n };
        for k in 0..n {
            if self.init.is_empty() {
                break;
            }
            self.mark(at(first, step, k));
        }
    }
}

/// Element `first + k·step`.
#[inline]
pub(crate) fn at(first: usize, step: isize, k: usize) -> usize {
    first.wrapping_add_signed(step.wrapping_mul(k as isize))
}

/// Quantizes a data value through a precision type, modeling the
/// back-end type casts of paper §3.1.1.
#[inline]
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
    fn zero_extent_buffer_has_no_elements() {
        let b = BufferData::new(Sym::new("z"), DataType::F32, vec![0, 4], MemName::dram());
        assert_eq!(b.volume(), 0);
        assert_eq!(b.values().count(), 0);
        assert_eq!(b.get(0), None);
    }

    #[test]
    fn stores_initialize_one_element_each() {
        let mut b = BufferData::new(Sym::new("b"), DataType::F32, vec![3], MemName::dram());
        assert!(b.set(1, 2.5));
        assert!(!b.set(3, 1.0));
        assert_eq!(b.values().collect::<Vec<_>>(), vec![None, Some(2.5), None]);
        assert!(b.set(0, 1.0) && b.set(2, 3.0) && b.set(2, 4.0));
        assert_eq!(
            b.values().collect::<Vec<_>>(),
            vec![Some(1.0), Some(2.5), Some(4.0)]
        );
        assert_eq!(b.get(3), None);
    }

    /// Stores `vals` in order from element `first` on.
    fn store_from(b: &mut BufferData, first: usize, vals: &[f64]) {
        for (k, &v) in vals.iter().enumerate() {
            assert!(b.set(first + k, v));
        }
    }

    #[test]
    fn put_elements_marks_the_stored_elements() {
        let mut b = BufferData::new(Sym::new("b"), DataType::I8, vec![6], MemName::dram());
        assert!(!b.initialized(0, 4, 2, 3));
        // elements 4, 2, 0 in that order: taking the storage allocates it
        let mut data = b.take_elements();
        for (k, v) in [1.0, 127.0, -3.0].into_iter().enumerate() {
            data[at(4, -2, k)] = v;
        }
        b.put_elements(data, 4, -2, 3);
        assert_eq!(
            b.values().collect::<Vec<_>>(),
            [Some(-3.0), None, Some(127.0), None, Some(1.0), None]
        );
        assert!(b.initialized(4, 0, -2, 3) && !b.initialized(0, 5, 1, 6));
        // a zero step marks its one element
        let data = b.take_elements();
        b.put_elements(data, 1, 0, 4);
        assert!(b.initialized(1, 1, 0, 4) && !b.initialized(3, 3, 0, 1));
    }

    #[test]
    fn a_reallocation_starts_bottom_in_the_dead_buffers_storage() {
        let mut dead = BufferData::new(Sym::new("t"), DataType::F32, vec![4], MemName::dram());
        store_from(&mut dead, 0, &[1.0, 2.0, 3.0]);
        let storage = dead.elements().as_ptr();
        let mut b = dead.reallocate(Sym::new("u"), DataType::I8, &[2, 2], MemName::dram());
        assert_eq!(b.shape, [2, 2]);
        assert_eq!(b.values().collect::<Vec<_>>(), [None; 4]);
        assert!(!b.initialized(0, 0, 0, 1));
        // the dead buffer reads as a never-written scalar
        assert_eq!(dead.values().collect::<Vec<_>>(), [None]);
        assert!(b.set(3, 5.0));
        assert_eq!(b.elements().as_ptr(), storage);
        assert_eq!(
            b.values().collect::<Vec<_>>(),
            [None, None, None, Some(5.0)]
        );
        // once every element is set, the flags are cleared, not freed
        store_from(&mut b, 0, &[1.0, 2.0, 3.0]);
        assert!(b.initialized(0, 3, 1, 4));
        let mut c = b.reallocate(Sym::new("v"), DataType::I8, &[4], MemName::dram());
        assert_eq!(c.values().collect::<Vec<_>>(), [None; 4]);
        store_from(&mut c, 1, &[7.0]);
        assert_eq!(
            c.values().collect::<Vec<_>>(),
            [None, Some(7.0), None, None]
        );
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
