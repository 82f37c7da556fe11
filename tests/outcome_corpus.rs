//! The interpreter's outcome corpus: 500 seeded small programs, each
//! pinned as its step count, error text or output digest, and trace
//! digest. The test lives with exo-interp; see there for what it covers.

#[path = "../crates/interp/tests/outcome_corpus.rs"]
mod outcome_corpus;
