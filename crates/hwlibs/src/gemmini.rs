//! The Gemmini hardware library (paper §7.1 and appendix G).
//!
//! Gemmini [Genc et al., DAC'21] is a systolic-array DNN accelerator:
//! a 16×16 grid of MACs, a 256 KiB scratchpad for quantized inputs and
//! weights, a 64 KiB accumulator for partial sums, and an ISA of strided
//! moves (`mvin`/`mvout`), compute (`matmul`), and configuration
//! instructions that flush the pipeline when executed.
//!
//! Everything here is *user-level* library code — custom memories,
//! `@config` structs, and `@instr` procedures — exactly the artifact a
//! performance engineer would write to target Gemmini from exo-rs
//! without touching the compiler.

use std::sync::Arc;

use exo_codegen::{CodegenCtx, Memory};
use exo_core::ir::{ConfigDecl, Proc};
use exo_core::types::{CtrlType, MemName};
use exo_core::Sym;
use exo_front::ParseEnv;

/// The systolic array dimension (16×16 PEs).
pub const DIM: i64 = 16;
/// Scratchpad capacity in bytes (default Gemmini instantiation).
pub const SPAD_BYTES: usize = 256 * 1024;
/// Accumulator capacity in bytes.
pub const ACC_BYTES: usize = 64 * 1024;

/// The Gemmini target: memories, configuration state, and instructions.
pub struct GemminiLib {
    /// Scratchpad memory name (`@SCRATCHPAD`, non-addressable).
    pub scratchpad: MemName,
    /// Accumulator memory name (`@ACCUM`, non-addressable).
    pub accum: MemName,
    /// `ConfigLd` struct and its `src_stride` field.
    pub config_ld: (Sym, Sym),
    /// `ConfigSt` struct and its `dst_stride` field.
    pub config_st: (Sym, Sym),
    /// `ConfigLd2` struct and field (second load mover, B operands).
    pub config_ld2: (Sym, Sym),
    /// `ConfigLdAcc` struct and field (accumulator loads).
    pub config_ld_acc: (Sym, Sym),
    /// `config_ld(stride)` instruction (flushes the load pipe).
    pub config_ld_instr: Arc<Proc>,
    /// `config_ld2(stride)` instruction.
    pub config_ld2_instr: Arc<Proc>,
    /// `config_ld_acc(stride)` instruction.
    pub config_ld_acc_instr: Arc<Proc>,
    /// `config_st(stride)` instruction (flushes the store pipe).
    pub config_st_instr: Arc<Proc>,
    /// `mvin(n, m, src@DRAM, dst@SCRATCHPAD)` — strided load, i8.
    pub mvin: Arc<Proc>,
    /// `mvin2` — second mover (B operands), own stride config.
    pub mvin2: Arc<Proc>,
    /// `mvin_acc(n, m, src@DRAM, dst@ACCUM)` — load partial sums, i32.
    pub mvin_acc: Arc<Proc>,
    /// `mvout(n, m, src@ACCUM, dst@DRAM)` — store + saturate to i8.
    pub mvout: Arc<Proc>,
    /// `mvout_relu(n, m, src@ACCUM, dst@DRAM)` — store with fused ReLU.
    pub mvout_relu: Arc<Proc>,
    /// `mvout_acc` — full-precision (i32) store.
    pub mvout_acc: Arc<Proc>,
    /// `mvout_acc_relu` — full-precision store with fused ReLU.
    pub mvout_acc_relu: Arc<Proc>,
    /// `zero_acc(n, m, dst@ACCUM)` — clear an accumulator tile.
    pub zero_acc: Arc<Proc>,
    /// `matmul(n, m, k, a@SCRATCHPAD, b@SCRATCHPAD, c@ACCUM)` — one
    /// systolic-array pass, accumulating.
    pub matmul: Arc<Proc>,
    /// Configuration declarations for code generation.
    pub configs: Vec<ConfigDecl>,
}

impl GemminiLib {
    /// Builds the library: mints its memories and configuration structs,
    /// then parses the instructions from `gemmini.exo` against them
    /// (fresh symbols each call; build once and share).
    ///
    /// # Panics
    ///
    /// If `gemmini.exo` does not parse or lacks one of the thirteen instructions. The
    /// source is a compile-time constant and the unit tests parse it.
    pub fn new() -> GemminiLib {
        let scratchpad = MemName(Sym::new("SCRATCHPAD"));
        let accum = MemName(Sym::new("ACCUM"));

        let cfg_ld = ConfigDecl::new("ConfigLd", vec![("src_stride", CtrlType::Stride)]);
        let cfg_ld2 = ConfigDecl::new("ConfigLd2", vec![("src_stride", CtrlType::Stride)]);
        let cfg_ld_acc = ConfigDecl::new("ConfigLdAcc", vec![("src_stride", CtrlType::Stride)]);
        let cfg_st = ConfigDecl::new("ConfigSt", vec![("dst_stride", CtrlType::Stride)]);
        let config_ld = (cfg_ld.name, cfg_ld.fields[0].name);
        let config_ld2 = (cfg_ld2.name, cfg_ld2.fields[0].name);
        let config_ld_acc = (cfg_ld_acc.name, cfg_ld_acc.fields[0].name);
        let config_st = (cfg_st.name, cfg_st.fields[0].name);
        let configs = vec![cfg_ld, cfg_ld2, cfg_ld_acc, cfg_st];

        let mut env = ParseEnv::new();
        env.add_mem(scratchpad).add_mem(accum);
        for c in &configs {
            env.add_config(c);
        }
        let instr = crate::parse_instrs("gemmini.exo", include_str!("gemmini.exo"), &env);

        GemminiLib {
            scratchpad,
            accum,
            config_ld,
            config_ld2,
            config_ld_acc,
            config_st,
            config_ld_instr: instr("gemmini_config_ld"),
            config_ld2_instr: instr("gemmini_config_ld2"),
            config_ld_acc_instr: instr("gemmini_config_ld_acc"),
            config_st_instr: instr("gemmini_config_st"),
            mvin: instr("gemmini_mvin"),
            mvin2: instr("gemmini_mvin2"),
            mvin_acc: instr("gemmini_mvin_acc"),
            mvout: instr("gemmini_mvout"),
            mvout_relu: instr("gemmini_mvout_relu"),
            mvout_acc: instr("gemmini_mvout_acc"),
            mvout_acc_relu: instr("gemmini_mvout_acc_relu"),
            zero_acc: instr("gemmini_zero_acc"),
            matmul: instr("gemmini_matmul"),
            configs,
        }
    }

    /// Every instruction of the library, in source order.
    pub fn instrs(&self) -> [&Arc<Proc>; 13] {
        [
            &self.config_ld_instr,
            &self.config_ld2_instr,
            &self.config_ld_acc_instr,
            &self.config_st_instr,
            &self.mvin,
            &self.mvin2,
            &self.mvin_acc,
            &self.mvout,
            &self.mvout_relu,
            &self.mvout_acc,
            &self.mvout_acc_relu,
            &self.zero_acc,
            &self.matmul,
        ]
    }

    /// A code-generation context with Gemmini's memories and configs.
    /// The generated C includes `gemmini.h`; this crate's
    /// `include/gemmini.h` is a stub declaring every intrinsic the
    /// templates call, enough to type-check that C on any host.
    pub fn codegen_ctx(&self) -> CodegenCtx {
        let mut ctx = CodegenCtx::new();
        ctx.mems.register(Memory {
            name: self.scratchpad,
            alloc: "{prim_type} *{name} = ({prim_type}*) gemmini_spad_alloc(({size}) * sizeof({prim_type}));".into(),
            free: "gemmini_spad_free({name});".into(),
            addressable: false,
            c_global: Some("#include \"gemmini.h\"".into()),
        });
        ctx.mems.register(Memory {
            name: self.accum,
            alloc: "{prim_type} *{name} = ({prim_type}*) gemmini_acc_alloc(({size}) * sizeof({prim_type}));".into(),
            free: "gemmini_acc_free({name});".into(),
            addressable: false,
            c_global: None,
        });
        ctx.configs = self.configs.clone();
        ctx
    }
}

impl Default for GemminiLib {
    fn default() -> GemminiLib {
        GemminiLib::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::check::check_proc;
    use exo_core::types::DataType;

    #[test]
    fn all_instructions_are_well_formed() {
        for p in GemminiLib::new().instrs() {
            check_proc(p).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(p.is_instr());
        }
    }

    #[test]
    fn instructions_round_trip_through_the_printer() {
        let lib = GemminiLib::new();
        let mut env = ParseEnv::new();
        env.add_mem(lib.scratchpad).add_mem(lib.accum);
        for c in &lib.configs {
            env.add_config(c);
        }
        crate::tests::assert_round_trips(&lib.instrs(), &env);
        crate::tests::assert_lists_every_instr(include_str!("gemmini.exo"), &lib.instrs(), &env);
    }

    #[test]
    fn instruction_semantics_execute() {
        // mvin through the interpreter: the semantic body runs and the
        // trace records the call
        use exo_interp::{ArgVal, Machine};
        let lib = GemminiLib::new();
        let mut m = Machine::new();
        let src = m.alloc_extern("src", DataType::I8, &[4, 8], &vec![1.0; 32]);
        let dst = m.alloc_extern_uninit("dst", DataType::I8, &[4, 8]);
        // the mvin asserts the stride config; set it first via the config
        // instruction
        m.run(&lib.config_ld_instr, &[ArgVal::Int(8)]).unwrap();
        m.run(
            &lib.mvin,
            &[
                ArgVal::Int(4),
                ArgVal::Int(8),
                ArgVal::Tensor(src),
                ArgVal::Tensor(dst),
            ],
        )
        .unwrap();
        assert_eq!(m.buffer_values(dst).unwrap(), vec![1.0; 32]);
        assert_eq!(m.trace().len(), 2);
        assert_eq!(m.trace()[0].instr, "gemmini_config_ld");
        assert_eq!(m.trace()[1].instr, "gemmini_mvin");
    }

    #[test]
    fn matmul_semantics_accumulate() {
        use exo_interp::{ArgVal, Machine};
        let lib = GemminiLib::new();
        let mut m = Machine::new();
        let a = m.alloc_extern("a", DataType::I8, &[2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = m.alloc_extern("b", DataType::I8, &[3, 2], &[1., 0., 0., 1., 1., 1.]);
        let c = m.alloc_extern("c", DataType::I32, &[2, 2], &[0.0; 4]);
        m.run(
            &lib.matmul,
            &[
                ArgVal::Int(2),
                ArgVal::Int(2),
                ArgVal::Int(3),
                ArgVal::Tensor(a),
                ArgVal::Tensor(b),
                ArgVal::Tensor(c),
            ],
        )
        .unwrap();
        // A·B = [[1+3, 2+3], [4+6, 5+6]] = [[4,5],[10,11]]
        assert_eq!(m.buffer_values(c).unwrap(), vec![4.0, 5.0, 10.0, 11.0]);
    }

    #[test]
    fn mvin_rejects_wrong_stride_config() {
        use exo_interp::{ArgVal, Machine};
        let lib = GemminiLib::new();
        let mut m = Machine::new();
        let src = m.alloc_extern("src", DataType::I8, &[4, 8], &vec![1.0; 32]);
        let dst = m.alloc_extern_uninit("dst", DataType::I8, &[4, 8]);
        m.run(&lib.config_ld_instr, &[ArgVal::Int(99)]).unwrap();
        let e = m
            .run(
                &lib.mvin,
                &[
                    ArgVal::Int(4),
                    ArgVal::Int(8),
                    ArgVal::Tensor(src),
                    ArgVal::Tensor(dst),
                ],
            )
            .unwrap_err();
        assert!(e.message.contains("assertion failed"), "{e}");
    }
}
