//! Library decode conformance: every instruction of the hardware
//! libraries decodes to a class its simulator models, and every opcode a
//! simulator models names an instruction of its library. Renaming an
//! `@instr` in `gemmini.exo` or `avx512.exo`, or a formal a simulator
//! reads, fails here instead of silently turning the instruction into a
//! 1-cycle no-op (gemmini-sim) or a scalar micro-op (x86-sim).

use exo::hwlibs::{Avx512Lib, GemminiLib};
use exo::interp::Instr;

#[test]
fn every_gemmini_instr_decodes_to_a_modeled_class() {
    let lib = GemminiLib::new();
    for p in lib.instrs() {
        let d = gemmini_sim::decode(Instr::of_proc(p));
        assert_ne!(
            d.class,
            gemmini_sim::OpClass::Other,
            "{} decodes to the 1-cycle no-op",
            p.name
        );
        assert!(d.is_complete(), "{} lacks a formal its class reads", p.name);
    }
    let names: Vec<String> = lib.instrs().iter().map(|p| p.name.name()).collect();
    for (op, _) in gemmini_sim::OPCODES {
        assert!(names.iter().any(|n| n == op), "gemmini.exo has no {op}");
    }
}

#[test]
fn every_avx512_instr_decodes_to_a_vector_class() {
    let lib = Avx512Lib::new();
    for p in lib.instrs() {
        assert_ne!(
            x86_sim::decode(Instr::of_proc(p)),
            x86_sim::OpClass::Scalar,
            "{} decodes to a scalar micro-op",
            p.name
        );
    }
    let names: Vec<String> = lib.instrs().iter().map(|p| p.name.name()).collect();
    for (op, _) in x86_sim::OPCODES {
        assert!(names.iter().any(|n| n == op), "avx512.exo has no {op}");
    }
}
