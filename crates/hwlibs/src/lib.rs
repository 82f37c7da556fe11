//! # exo-hwlibs
//!
//! Hardware targets as libraries (paper §3.2): everything exo-rs knows
//! about the Gemmini accelerator and x86 AVX-512 lives here, in user
//! code — custom memories, configuration-state structs, and `@instr`
//! procedures whose Exo bodies serve as semantic specifications while
//! their C templates drive code generation.
//!
//! Each target is an Exo source file of `@instr` procedures
//! (`gemmini.exo`, `avx512.exo`) plus the memories and configuration
//! structs it names, which its `new()` mints and registers in a
//! [`ParseEnv`] before parsing the source. Adding a new accelerator means
//! writing another such source and module; the compiler crates are never
//! touched.

// Panic-free library surface: input-reachable failures must be typed
// errors, not aborts. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod avx512;
pub mod gemmini;

pub use avx512::Avx512Lib;
pub use gemmini::GemminiLib;

use std::sync::Arc;

use exo_core::hash::HashMap;
use exo_core::ir::Proc;
use exo_front::{parse_library, ParseEnv};

/// Parses a library's `@instr` source and returns its procedures by name.
/// Panics, naming `file`, if the source does not parse or a name is not
/// defined in it.
fn parse_instrs(file: &'static str, src: &str, env: &ParseEnv) -> impl Fn(&str) -> Arc<Proc> {
    let procs: HashMap<String, Arc<Proc>> = parse_library(src, env)
        .unwrap_or_else(|e| panic!("{file}: {e}"))
        .into_iter()
        .map(|p| (p.name.name(), p))
        .collect();
    move |name| {
        procs
            .get(name)
            .cloned()
            .unwrap_or_else(|| panic!("{file} defines no {name}"))
    }
}

#[cfg(test)]
mod tests {
    use exo_core::printer::proc_to_string;
    use exo_core::visit::alpha_eq_proc;
    use exo_front::parse_proc;

    use super::*;

    /// `listed` names every procedure of the library source `src`, in
    /// source order.
    pub(crate) fn assert_lists_every_instr(src: &str, listed: &[&Arc<Proc>], env: &ParseEnv) {
        let parsed: Vec<String> = parse_library(src, env)
            .unwrap()
            .iter()
            .map(|p| p.name.name())
            .collect();
        let listed: Vec<String> = listed.iter().map(|p| p.name.name()).collect();
        assert_eq!(listed, parsed);
    }

    /// Each proc prints, re-parses against `env`, and comes back
    /// alpha-equivalent with the same name and C template.
    pub(crate) fn assert_round_trips(procs: &[&Arc<Proc>], env: &ParseEnv) {
        for p in procs {
            let text = proc_to_string(p);
            let q = parse_proc(&text, env).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(q.name.name(), p.name.name());
            assert_eq!(q.instr, p.instr, "{text}");
            assert!(alpha_eq_proc(&q, p), "{text}");
        }
    }
}
