//! Model test of `LinExpr`'s inline coefficient list against a
//! `BTreeMap<Sym, i64>` reference.
//!
//! Seeded random sequences of `insert`, `remove`, `get_mut`, `add`, `sub`,
//! `scale` and `subst` run over up to eight symbols, so the terms move
//! between the inline form (up to four) and the heap form in both
//! directions. The reference keeps the coefficients in a `BTreeMap` and
//! does the arithmetic the way a map does it, entry by entry, dropping
//! entries that reach zero. After every step the two must agree on the
//! terms and their order, on `Display` and `Debug`, on `cmp` and `==`
//! against every other expression in the pool, and on the hash.
//!
//! A fixed slice of 400 seeds runs by default, also in the root package's
//! tests (`tests/coeffs_model.rs`); `--features proptest-tests` runs
//! 5 000.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

use exo_core::sym::Sym;
use exo_smt::linear::{Coeffs, LinExpr};

/// Sequences per run.
const SEQUENCES: u64 = if cfg!(feature = "proptest-tests") {
    5_000
} else {
    400
};

/// Steps per sequence.
const STEPS: usize = 60;

/// Expressions live at once.
const POOL: usize = 4;

/// A xorshift generator: deterministic per seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A small coefficient, so that sums cancel often; never zero.
    fn coeff(&mut self) -> i64 {
        let c = (self.next() % 7) as i64 - 3;
        if c == 0 {
            1
        } else {
            c
        }
    }
}

/// The reference: a constant and a `BTreeMap`, with the arithmetic done
/// entry by entry. Its derived order is `LinExpr`'s (constant, then the
/// map's order).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
struct Model {
    constant: i64,
    coeffs: BTreeMap<Sym, i64>,
}

impl Model {
    fn add(&self, other: &Model) -> Model {
        let mut out = self.clone();
        out.constant += other.constant;
        for (&v, &c) in &other.coeffs {
            let e = out.coeffs.entry(v).or_insert(0);
            *e += c;
            if *e == 0 {
                out.coeffs.remove(&v);
            }
        }
        out
    }

    fn scale(&self, c: i64) -> Model {
        if c == 0 {
            return Model::default();
        }
        Model {
            constant: self.constant * c,
            coeffs: self.coeffs.iter().map(|(&v, &k)| (v, k * c)).collect(),
        }
    }

    fn sub(&self, other: &Model) -> Model {
        self.add(&other.scale(-1))
    }

    fn subst(&self, x: Sym, e: &Model) -> Model {
        match self.coeffs.get(&x) {
            None => self.clone(),
            Some(&c) => {
                let mut rest = self.clone();
                rest.coeffs.remove(&x);
                rest.add(&e.scale(c))
            }
        }
    }

    /// `LinExpr`'s text: terms in map order, then the constant.
    fn display(&self) -> String {
        let mut s = String::new();
        let mut first = true;
        for (&v, &c) in &self.coeffs {
            let (sign, mag) = match (first, c < 0) {
                (true, false) => ("", c),
                (true, true) => ("-", -c),
                (false, false) => (" + ", c),
                (false, true) => (" - ", -c),
            };
            if mag == 1 {
                let _ = write!(s, "{sign}{v}");
            } else {
                let _ = write!(s, "{sign}{mag}·{v}");
            }
            first = false;
        }
        if first {
            let _ = write!(s, "{}", self.constant);
        } else if self.constant > 0 {
            let _ = write!(s, " + {}", self.constant);
        } else if self.constant < 0 {
            let _ = write!(s, " - {}", -self.constant);
        }
        s
    }
}

fn hash_of<T: Hash>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

fn terms(c: &Coeffs) -> Vec<(Sym, i64)> {
    c.iter().map(|(&x, &k)| (x, k)).collect()
}

fn assert_same(e: &LinExpr, m: &Model, what: &str) {
    let want: Vec<(Sym, i64)> = m.coeffs.iter().map(|(&x, &k)| (x, k)).collect();
    assert_eq!(terms(&e.coeffs), want, "{what}: terms");
    assert_eq!(e.constant, m.constant, "{what}: constant");
    assert_eq!(e.coeffs.len(), m.coeffs.len(), "{what}: len");
    assert_eq!(e.coeffs.is_empty(), m.coeffs.is_empty(), "{what}: is_empty");
    assert!(e.coeffs.keys().eq(m.coeffs.keys()), "{what}: keys");
    assert!(e.coeffs.values().eq(m.coeffs.values()), "{what}: values");
    assert!(
        e.coeffs.iter().rev().eq(m.coeffs.iter().rev()),
        "{what}: rev"
    );
    assert_eq!(e.to_string(), m.display(), "{what}: Display");
    assert_eq!(
        format!("{:?}", e.coeffs),
        format!("{:?}", m.coeffs),
        "{what}: Debug"
    );
    assert_eq!(hash_of(&e.coeffs), hash_of(&m.coeffs), "{what}: hash");
    let rebuilt: Coeffs = m.coeffs.iter().map(|(&x, &k)| (x, k)).collect();
    assert_eq!(rebuilt, e.coeffs, "{what}: FromIterator");
}

/// Runs one seeded sequence over `POOL` expressions and `syms`. Returns
/// how many steps left an expression with more than four terms, and how
/// many took one from more than four terms to four or fewer.
fn run(seed: u64, syms: &[Sym]) -> (usize, usize) {
    let (mut spilled, mut unspilled) = (0, 0);
    let mut rng = Rng::new(seed);
    let nsyms = 1 + rng.below(syms.len());
    let syms = &syms[..nsyms];
    let mut exprs = vec![LinExpr::default(); POOL];
    let mut models = vec![Model::default(); POOL];
    for step in 0..STEPS {
        let (i, j) = (rng.below(POOL), rng.below(POOL));
        let x = syms[rng.below(nsyms)];
        let op = rng.below(9);
        let what = format!("seed {seed} step {step} op {op}");
        let before = exprs[i].coeffs.len();
        match op {
            0 | 1 => {
                let c = rng.coeff();
                let old = exprs[i].coeffs.insert(x, c);
                assert_eq!(old, models[i].coeffs.insert(x, c), "{what}: insert");
            }
            2 => {
                let old = exprs[i].coeffs.remove(&x);
                assert_eq!(old, models[i].coeffs.remove(&x), "{what}: remove");
            }
            3 => {
                // may store a zero: the arithmetic must then still match
                // the map's
                if let Some(c) = exprs[i].coeffs.get_mut(&x) {
                    *c += 1;
                }
                if let Some(c) = models[i].coeffs.get_mut(&x) {
                    *c += 1;
                }
            }
            4 => {
                exprs[i] = exprs[i].add(&exprs[j]);
                models[i] = models[i].add(&models[j]);
            }
            5 => {
                exprs[i] = exprs[i].sub(&exprs[j]);
                models[i] = models[i].sub(&models[j]);
            }
            6 => {
                let k = rng.coeff();
                exprs[i] = exprs[i].scale(k);
                models[i] = models[i].scale(k);
            }
            7 => {
                exprs[i] = exprs[i].subst(x, &exprs[j]);
                models[i] = models[i].subst(x, &models[j]);
            }
            _ => {
                let c = rng.coeff();
                exprs[i] = exprs[i].offset(c);
                models[i].constant += c;
            }
        }
        assert_eq!(
            exprs[i].coeffs.get(&x),
            models[i].coeffs.get(&x),
            "{what}: get"
        );
        assert_eq!(
            exprs[i].coeffs.contains_key(&x),
            models[i].coeffs.contains_key(&x),
            "{what}: contains_key"
        );
        assert_same(&exprs[i], &models[i], &what);
        let after = exprs[i].coeffs.len();
        spilled += usize::from(after > 4);
        unspilled += usize::from(before > 4 && after <= 4);
        // keep repeated scaling far from overflow
        let big = |m: &Model| {
            m.constant
                .abs()
                .max(m.coeffs.values().map(|c| c.abs()).max().unwrap_or(0))
        };
        if big(&models[i]) > 1 << 20 {
            exprs[i] = LinExpr::default();
            models[i] = Model::default();
        }
        for (k, (e, m)) in exprs.iter().zip(&models).enumerate() {
            let ord: Ordering = exprs[i].cmp(e);
            assert_eq!(ord, models[i].cmp(m), "{what}: cmp with {k}");
            assert_eq!(exprs[i] == *e, models[i] == *m, "{what}: == with {k}");
            if exprs[i] == *e {
                assert_eq!(hash_of(&exprs[i]), hash_of(e), "{what}: hash with {k}");
            }
        }
    }
    (spilled, unspilled)
}

#[test]
fn coeffs_behave_like_a_btreemap() {
    // odd seeds draw from a permuted list, so the symbols in play are not
    // always a prefix of the creation order
    let syms: Vec<Sym> = (0..8).map(|i| Sym::new(format!("v{i}"))).collect();
    let mut shuffled = syms.clone();
    shuffled.swap(0, 5);
    shuffled.swap(2, 7);
    let (mut spilled, mut unspilled) = (0, 0);
    for seed in 0..SEQUENCES {
        let (s, u) = run(seed, if seed % 2 == 0 { &syms } else { &shuffled });
        spilled += s;
        unspilled += u;
    }
    // both forms and the moves between them were exercised
    assert!(spilled > 100 && unspilled > 10, "{spilled} {unspilled}");
}

#[test]
fn every_length_round_trips_through_both_forms() {
    let syms: Vec<Sym> = (0..8).map(|i| Sym::new(format!("w{i}"))).collect();
    let mut c = Coeffs::new();
    let mut m = BTreeMap::new();
    // grow past the inline capacity in reverse symbol order (every insert
    // lands in front), then shrink from the middle
    for (k, &x) in syms.iter().enumerate().rev() {
        c.insert(x, k as i64 + 1);
        m.insert(x, k as i64 + 1);
        assert!(c.iter().eq(m.iter()));
    }
    for &x in [3, 4, 0, 7, 1, 6, 2, 5].iter().map(|&k| &syms[k]) {
        assert_eq!(c.remove(&x), m.remove(&x));
        assert!(c.iter().eq(m.iter()));
        assert_eq!(format!("{c:?}"), format!("{m:?}"));
    }
    assert!(c.is_empty());
    assert_eq!(c, Coeffs::new());
    assert_eq!(hash_of(&c), hash_of(&BTreeMap::<Sym, i64>::new()));
}
