//! # exo-kernels
//!
//! The paper's case studies (§7), reproduced end to end: naive
//! algorithms, the schedules that map them onto the Gemmini and AVX-512
//! hardware libraries, and the baseline models they are compared
//! against.

// Panic-free library surface: input-reachable failures must be typed
// errors, not aborts. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod gemmini_conv;
pub mod gemmini_gemm;
pub mod schedlib;
pub mod x86_conv;
pub mod x86_gemm;
