//! The scheduled Gemmini kernels' C type-checks against the stub
//! `crates/hwlibs/include/gemmini.h`, which declares every intrinsic that
//! the `gemmini.exo` templates and the scratchpad/accumulator allocation
//! templates call. The check runs `cc -std=c11 -fsyntax-only -Wall
//! -Werror` and is skipped when there is no C compiler.

use std::path::Path;
use std::process::Command;
use std::sync::{Arc, Mutex};

use exo_codegen::compile_c;
use exo_hwlibs::GemminiLib;
use exo_kernels::gemmini_conv::{schedule_conv, ConvShape};
use exo_kernels::gemmini_gemm::schedule_matmul;
use exo_sched::{Procedure, SchedError, SchedState, StateRef};

const INCLUDE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../hwlibs/include");

fn state() -> StateRef {
    Arc::new(Mutex::new(SchedState::default()))
}

fn have_cc() -> bool {
    Command::new("cc").arg("--version").output().is_ok()
}

/// Type-checks the C of one scheduled kernel.
fn syntax_check(label: &str, lib: &GemminiLib, p: Result<Procedure, SchedError>) {
    if !have_cc() {
        eprintln!("skipping {label}: no C compiler");
        return;
    }
    let code =
        compile_c(&[p.expect("schedule").proc().clone()], &lib.codegen_ctx()).expect("codegen");
    let dir = std::env::temp_dir().join(format!("exo_gemmini_c_{}_{label}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let src = dir.join("kernel.c");
    std::fs::write(&src, &code).expect("write C");
    let out = Command::new("cc")
        .args([
            "-std=c11",
            "-fsyntax-only",
            "-Wall",
            "-Werror",
            "-I",
            INCLUDE,
        ])
        .arg(&src)
        .output()
        .expect("cc failed to start");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{label}: cc rejected the generated C:\n{}\nsource:\n{code}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn matmul_512_compiles() {
    let lib = GemminiLib::new();
    syntax_check(
        "matmul_512",
        &lib,
        schedule_matmul(&lib, &state(), 512, 512, 512),
    );
}

#[test]
fn matmul_64_compiles() {
    let lib = GemminiLib::new();
    syntax_check(
        "matmul_64",
        &lib,
        schedule_matmul(&lib, &state(), 64, 64, 64),
    );
}

#[test]
fn conv_fig7_compiles() {
    let lib = GemminiLib::new();
    let s = ConvShape::fig4b(28, 128, 128);
    syntax_check("conv_28_128_128", &lib, schedule_conv(&lib, &state(), &s));
}

#[test]
fn conv_small_compiles() {
    let lib = GemminiLib::new();
    let s = ConvShape::fig4b(4, 32, 32);
    syntax_check("conv_4_32_32", &lib, schedule_conv(&lib, &state(), &s));
}

/// Every `gemmini_*` function a template calls is declared in the stub.
#[test]
fn stub_declares_every_template_call() {
    let header = std::fs::read_to_string(Path::new(INCLUDE).join("gemmini.h")).expect("header");
    let ctx = GemminiLib::new().codegen_ctx();
    let mut templates: Vec<String> = include_str!("../../hwlibs/src/gemmini.exo")
        .lines()
        .filter(|l| l.starts_with("@instr"))
        .map(String::from)
        .collect();
    templates.extend(
        ctx.mems
            .iter()
            .flat_map(|m| [m.alloc.clone(), m.free.clone()]),
    );
    let mut called = Vec::new();
    for t in &templates {
        for (at, _) in t.match_indices("gemmini_") {
            let name: String = t[at..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            called.push(name);
        }
    }
    assert!(called.len() >= 13, "{called:?}");
    for name in called {
        assert!(
            header.contains(&format!(" {name}(")) || header.contains(&format!("*{name}(")),
            "gemmini.h does not declare {name}"
        );
    }
    assert!(header.contains("#define ACC_BASE"));
}
