//! The x86 AVX-512 hardware library (paper §7.2).
//!
//! Models one 512-bit vector lane-set: a non-addressable `AVX512` memory
//! standing for the zmm register file, and `@instr` procedures wrapping
//! the intrinsics the paper's SGEMM and CONV kernels use — loads,
//! stores, broadcasts, and fused multiply-add, each with a masked
//! variant for edge cases ("the variable tail on the right edge is
//! handled by masked loads").

use std::sync::Arc;

use exo_codegen::{CodegenCtx, Memory};
use exo_core::ir::Proc;
use exo_core::types::MemName;
use exo_core::Sym;
use exo_front::ParseEnv;

/// f32 lanes per 512-bit vector.
pub const LANES: i64 = 16;

/// The AVX-512 target library.
pub struct Avx512Lib {
    /// The zmm register-file memory (`@AVX512`, non-addressable).
    pub reg: MemName,
    /// `mm512_loadu_ps(dst@AVX512, src@DRAM)` — unaligned 16-lane load.
    pub loadu: Arc<Proc>,
    /// `mm512_storeu_ps(dst@DRAM, src@AVX512)` — unaligned 16-lane store.
    pub storeu: Arc<Proc>,
    /// `mm512_set0_ps(dst@AVX512)` — zero a vector.
    pub set0: Arc<Proc>,
    /// `mm512_broadcast_ss(dst@AVX512, src)` — broadcast one scalar.
    pub broadcast: Arc<Proc>,
    /// `mm512_fmadd_ps(a, b, dst)` — `dst[l] += a[l] · b[l]`.
    pub fmadd: Arc<Proc>,
    /// `mm512_mask_loadu_ps(n, dst, src)` — tail load of `n < 16` lanes.
    pub mask_loadu: Arc<Proc>,
    /// `mm512_mask_storeu_ps(n, dst, src)` — tail store.
    pub mask_storeu: Arc<Proc>,
    /// `mm512_relu_ps(dst@AVX512)` — in-register ReLU (max with 0).
    pub relu: Arc<Proc>,
}

impl Avx512Lib {
    /// Builds the library: mints the register-file memory, then parses
    /// the instructions from `avx512.exo` against it.
    ///
    /// # Panics
    ///
    /// If `avx512.exo` does not parse or lacks one of the eight instructions. The
    /// source is a compile-time constant and the unit tests parse it.
    pub fn new() -> Avx512Lib {
        let reg = MemName(Sym::new("AVX512"));
        let mut env = ParseEnv::new();
        env.add_mem(reg);
        let instr = crate::parse_instrs("avx512.exo", include_str!("avx512.exo"), &env);
        Avx512Lib {
            reg,
            loadu: instr("mm512_loadu_ps"),
            storeu: instr("mm512_storeu_ps"),
            set0: instr("mm512_set0_ps"),
            broadcast: instr("mm512_broadcast_ss"),
            fmadd: instr("mm512_fmadd_ps"),
            mask_loadu: instr("mm512_mask_loadu_ps"),
            mask_storeu: instr("mm512_mask_storeu_ps"),
            relu: instr("mm512_relu_ps"),
        }
    }

    /// Every instruction of the library, in source order.
    pub fn instrs(&self) -> [&Arc<Proc>; 8] {
        [
            &self.loadu,
            &self.storeu,
            &self.set0,
            &self.broadcast,
            &self.fmadd,
            &self.mask_loadu,
            &self.mask_storeu,
            &self.relu,
        ]
    }

    /// A code-generation context with the register-file memory.
    pub fn codegen_ctx(&self) -> CodegenCtx {
        let mut ctx = CodegenCtx::new();
        ctx.mems.register(Memory {
            name: self.reg,
            // vector "allocations" are local __m512 variables
            alloc: "__m512 {name}[({size}) / 16];".into(),
            free: String::new(),
            addressable: false,
            c_global: Some("#include <immintrin.h>".into()),
        });
        ctx
    }
}

impl Default for Avx512Lib {
    fn default() -> Avx512Lib {
        Avx512Lib::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::check::check_proc;
    use exo_core::types::DataType;
    use exo_interp::{ArgVal, Machine};

    #[test]
    fn all_instructions_are_well_formed() {
        for p in Avx512Lib::new().instrs() {
            check_proc(p).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(p.is_instr());
        }
    }

    #[test]
    fn instructions_round_trip_through_the_printer() {
        let lib = Avx512Lib::new();
        let mut env = ParseEnv::new();
        env.add_mem(lib.reg);
        crate::tests::assert_round_trips(&lib.instrs(), &env);
        crate::tests::assert_lists_every_instr(include_str!("avx512.exo"), &lib.instrs(), &env);
    }

    #[test]
    fn fmadd_semantics() {
        let lib = Avx512Lib::new();
        let mut m = Machine::new();
        let a = m.alloc_extern("a", DataType::F32, &[16], &[2.0; 16]);
        let b = m.alloc_extern("b", DataType::F32, &[16], &[3.0; 16]);
        let c = m.alloc_extern("c", DataType::F32, &[16], &[1.0; 16]);
        m.run(
            &lib.fmadd,
            &[ArgVal::Tensor(a), ArgVal::Tensor(b), ArgVal::Tensor(c)],
        )
        .unwrap();
        assert_eq!(m.buffer_values(c).unwrap(), vec![7.0; 16]);
        assert_eq!(m.trace()[0].instr, "mm512_fmadd_ps");
    }

    #[test]
    fn mask_load_respects_bound() {
        let lib = Avx512Lib::new();
        let mut m = Machine::new();
        let src = m.alloc_extern("src", DataType::F32, &[5], &[1., 2., 3., 4., 5.]);
        let dst = m.alloc_extern_uninit("dst", DataType::F32, &[5]);
        m.run(
            &lib.mask_loadu,
            &[ArgVal::Int(5), ArgVal::Tensor(dst), ArgVal::Tensor(src)],
        )
        .unwrap();
        assert_eq!(m.buffer_values(dst).unwrap(), vec![1., 2., 3., 4., 5.]);
        // n > 16 violates the precondition
        let big_src = m.alloc_extern("bs", DataType::F32, &[20], &[0.0; 20]);
        let big_dst = m.alloc_extern_uninit("bd", DataType::F32, &[20]);
        assert!(m
            .run(
                &lib.mask_loadu,
                &[
                    ArgVal::Int(20),
                    ArgVal::Tensor(big_dst),
                    ArgVal::Tensor(big_src)
                ]
            )
            .is_err());
    }

    #[test]
    fn relu_clamps_negative_lanes() {
        let lib = Avx512Lib::new();
        let mut m = Machine::new();
        let mut data = vec![1.0; 16];
        data[3] = -2.0;
        data[9] = -0.5;
        let c = m.alloc_extern("c", DataType::F32, &[16], &data);
        m.run(&lib.relu, &[ArgVal::Tensor(c)]).unwrap();
        let out = m.buffer_values(c).unwrap();
        assert_eq!(out[3], 0.0);
        assert_eq!(out[9], 0.0);
        assert_eq!(out[0], 1.0);
    }
}
