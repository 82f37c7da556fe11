//! User-defined memories (paper §2.2, §3.2.1).
//!
//! A [`Memory`] describes how buffers annotated with a given memory name
//! are materialized in C: the allocation/free code, and whether plain
//! C-level reads and writes of individual locations are allowed at all.
//! Hardware scratchpads typically disable direct access, so that only
//! custom instructions can touch them — the backend checks enforce this.

use std::fmt;

use exo_core::types::MemName;

/// A user-defined memory.
#[derive(Clone, Debug)]
pub struct Memory {
    /// The memory's name (matched against buffer annotations by
    /// identity, not spelling).
    pub name: MemName,
    /// Allocation statement template with `{name}`, `{prim_type}` and
    /// `{size}` (element count) holes.
    pub alloc: String,
    /// Free statement template with `{name}` and `{prim_type}` holes;
    /// empty for none.
    pub free: String,
    /// Whether plain C reads/writes/reductions of individual locations
    /// are allowed. `false` models non-addressable accelerator memories
    /// (paper §2.2: "memory is not addressable").
    pub addressable: bool,
    /// Optional global C definitions emitted once (e.g. `#include`s or
    /// scratchpad base addresses).
    pub c_global: Option<String>,
}

impl Memory {
    /// The default DRAM memory: heap-allocated, fully addressable.
    pub fn dram() -> Memory {
        Memory {
            name: MemName::dram(),
            alloc: "{prim_type} *{name} = ({prim_type}*) malloc(({size}) * sizeof({prim_type}));"
                .into(),
            free: "free({name});".into(),
            addressable: true,
            c_global: None,
        }
    }
}

/// The memories known to a code-generation run, in registration order.
#[derive(Clone, Debug)]
pub struct MemorySet {
    mems: Vec<Memory>,
}

impl Default for MemorySet {
    fn default() -> MemorySet {
        MemorySet::new()
    }
}

impl MemorySet {
    /// A set containing only DRAM.
    pub fn new() -> MemorySet {
        MemorySet {
            mems: vec![Memory::dram()],
        }
    }

    /// Registers a memory, replacing in place any with the same name.
    pub fn register(&mut self, mem: Memory) -> &mut Self {
        match self.mems.iter_mut().find(|m| m.name == mem.name) {
            Some(slot) => *slot = mem,
            None => self.mems.push(mem),
        }
        self
    }

    /// Looks up a memory by annotation name.
    pub fn get(&self, name: MemName) -> Option<&Memory> {
        self.mems.iter().find(|m| m.name == name)
    }

    /// Iterates over all registered memories, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Memory> {
        self.mems.iter()
    }
}

impl fmt::Display for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}addressable)",
            self.name,
            if self.addressable { "" } else { "non-" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::Sym;

    fn spad(spelling: &str) -> Memory {
        Memory {
            name: MemName(Sym::new(spelling)),
            alloc: "{prim_type}* {name} = spad_malloc({size});".into(),
            free: "spad_free({name});".into(),
            addressable: false,
            c_global: None,
        }
    }

    #[test]
    fn default_set_has_dram() {
        let set = MemorySet::new();
        assert!(set.get(MemName::dram()).is_some());
        assert!(set.get(MemName::dram()).unwrap().addressable);
    }

    #[test]
    fn register_and_lookup() {
        // lookup is by identity: memories spelled alike stay apart
        let mut set = MemorySet::new();
        let (a, b) = (spad("SPAD"), spad("SPAD"));
        let (na, nb) = (a.name, b.name);
        set.register(a).register(b);
        assert!(!set.get(na).expect("registered").addressable);
        assert_eq!(set.get(na).map(|m| m.name), Some(na));
        assert_eq!(set.get(nb).map(|m| m.name), Some(nb));
        assert!(set.get(MemName(Sym::new("DRAM"))).is_none());
    }

    #[test]
    fn reregistering_replaces_in_place() {
        let mut set = MemorySet::new();
        let a = spad("A");
        let name = a.name;
        set.register(a).register(spad("B"));
        set.register(Memory {
            addressable: true,
            name,
            ..spad("A")
        });
        let order: Vec<String> = set.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(order, ["DRAM", "A", "B"]);
        assert!(set.get(name).unwrap().addressable);
    }
}
