//! Interned symbols.
//!
//! Every variable, buffer, procedure, and configuration field in the IR is
//! named by a [`Sym`]: a globally unique identifier paired with a
//! human-readable name. Two syms with the same spelling are *different*
//! variables unless they are the same sym — this is what makes substitution
//! and alpha-renaming safe during scheduling rewrites.

use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

/// A globally unique, interned symbol.
///
/// Symbols are cheap to copy and compare. The spelling is retrieved with
/// [`Sym::name`]; uniqueness is by identity, not spelling.
///
/// # Examples
///
/// ```
/// use exo_core::sym::Sym;
/// let a = Sym::new("i");
/// let b = Sym::new("i");
/// assert_ne!(a, b);           // distinct identities
/// assert_eq!(a.name(), "i");  // same spelling
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

struct SymTable {
    names: Vec<String>,
}

fn table() -> &'static Mutex<SymTable> {
    static TABLE: OnceLock<Mutex<SymTable>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(SymTable { names: Vec::new() }))
}

impl Sym {
    /// Creates a fresh symbol with the given spelling.
    pub fn new(name: impl Into<String>) -> Sym {
        // The table is append-only, so a panic mid-push cannot leave it
        // inconsistent; recover the guard instead of propagating poison.
        let mut t = table().lock().unwrap_or_else(PoisonError::into_inner);
        let id = t.names.len() as u32;
        t.names.push(name.into());
        Sym(id)
    }

    /// Creates a fresh symbol with the same spelling as `self`.
    ///
    /// Used by scheduling operators that need renamed copies of iteration
    /// variables (e.g. loop splitting).
    pub fn copy(self) -> Sym {
        Sym::new(self.name())
    }

    /// Returns the spelling of this symbol.
    pub fn name(self) -> String {
        let t = table().lock().unwrap_or_else(PoisonError::into_inner);
        t.names[self.0 as usize].clone()
    }

    /// Returns the unique numeric identity of this symbol.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.name(), self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_symbols_are_distinct() {
        let a = Sym::new("x");
        let b = Sym::new("x");
        assert_ne!(a, b);
        assert_eq!(a.name(), b.name());
    }

    #[test]
    fn copy_preserves_spelling() {
        let a = Sym::new("loop_var");
        let b = a.copy();
        assert_ne!(a, b);
        assert_eq!(b.name(), "loop_var");
    }

    #[test]
    fn display_and_debug() {
        let a = Sym::new("buf");
        assert_eq!(format!("{a}"), "buf");
        assert_eq!(format!("{a:?}"), format!("buf#{}", a.id()));
    }

    #[test]
    fn symbols_are_ordered_by_creation() {
        let a = Sym::new("a");
        let b = Sym::new("b");
        assert!(a < b);
    }
}
