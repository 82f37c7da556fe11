//! The toolchain's one hasher, and the map types built on it.
//!
//! Every hash map and set in the library crates is keyed by data the
//! toolchain itself makes: [`Sym`](crate::sym::Sym) ids handed out in
//! creation order, buffer ids, statement paths, and formulas and
//! procedures from the user's own program. None of it is chosen by an
//! adversary who could aim for collisions, so the keyed SipHash that
//! `std`'s default `RandomState` pays for buys nothing here: it runs
//! several rounds of mixing per key, and the solver's verdict cache and
//! canonical renaming hash on every query.
//!
//! [`FxHasher`] is the hash rustc uses for the same kind of keys: per
//! word of input it rotates the state, xors the word in and multiplies
//! by a fixed odd constant. A `Sym` hashes with one multiply.
//!
//! The hasher has no per-process seed, so a map's iteration order now
//! depends only on what was inserted, in every process alike; under
//! `RandomState` it changed from one process to the next. No result may
//! depend on that order either way: code that needs an order sorts.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the Fx hash: `2^64` divided by the golden ratio, made
/// odd, as rustc uses.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hash: for each word, `state = (state.rotl(5) ^ word) * SEED`.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `std`'s hash map with the [`FxHasher`]. Make one with
/// `HashMap::default()` (`new` belongs to `RandomState` maps only).
pub type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `std`'s hash set with the [`FxHasher`]. Make one with
/// `HashSet::default()`.
pub type HashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(x)
    }

    #[test]
    fn hashing_is_the_same_in_every_process() {
        // fixed values: no per-process seed
        assert_eq!(hash_of(&0u32), 0);
        assert_eq!(hash_of(&1u32), SEED);
        assert_eq!(hash_of(&1u64), SEED);
        assert_eq!(
            hash_of(&(1u32, 1u32)),
            ((SEED.rotate_left(5)) ^ 1).wrapping_mul(SEED)
        );
    }

    #[test]
    fn byte_tails_are_distinguished() {
        // a short tail carries its length, so zero padding cannot alias
        let mut a = FxHasher::default();
        a.write(&[0]);
        let mut b = FxHasher::default();
        b.write(&[0, 0]);
        assert_ne!(a.finish(), b.finish());
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
        assert_ne!(hash_of(&"abcdefgh1"), hash_of(&"abcdefgh2"));
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: HashMap<u32, &str> = HashMap::default();
        for i in 0..1000 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000).all(|i| m.contains_key(&i)));
        let s: HashSet<String> = ["a", "b", "a"].iter().map(|s| s.to_string()).collect();
        assert_eq!(s.len(), 2);
    }
}
