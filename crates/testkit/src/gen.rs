//! Generators: deterministic functions from a byte [`Source`] to values.
//!
//! The combinator set mirrors what the workspace's property suites used
//! from `proptest`: `any::<T>()`, integer ranges, tuples, `vec`,
//! `one_of`, `map`, and character/string generators. All generators decode
//! the all-zero stream to their simplest value (range minimum, first
//! alternative, shortest collection) — that convention is what makes
//! byte-level shrinking produce human-readable minimal cases.

use crate::source::Source;
use std::marker::PhantomData;
use std::ops::{Range, RangeFrom, RangeInclusive};

/// A test-case generator.
pub trait Gen {
    /// The generated type.
    type Value;

    /// Produces one value from the stream.
    fn generate(&self, src: &mut Source<'_>) -> Self::Value;

    /// Applies `f` to every generated value. Shrinking passes through:
    /// the underlying bytes are shrunk and re-mapped.
    ///
    /// Deliberately *not* named `map`: ranges are both `Iterator`s and
    /// generators, and a `map` here would make every `(0..n).map(...)` in
    /// scope of this trait ambiguous. The `proptest` spelling keeps
    /// ported suites diff-free anyway.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { gen: self, f }
    }

    /// Type-erases the generator (for heterogeneous [`one_of`] lists).
    fn boxed(self) -> BoxedGen<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedGen(Box::new(self))
    }
}

impl<G: Gen + ?Sized> Gen for &G {
    type Value = G::Value;

    fn generate(&self, src: &mut Source<'_>) -> Self::Value {
        (**self).generate(src)
    }
}

/// See [`Gen::prop_map`].
pub struct Map<G, F> {
    gen: G,
    f: F,
}

impl<G: Gen, U, F: Fn(G::Value) -> U> Gen for Map<G, F> {
    type Value = U;

    fn generate(&self, src: &mut Source<'_>) -> U {
        (self.f)(self.gen.generate(src))
    }
}

trait DynGen<T> {
    fn generate_dyn(&self, src: &mut Source<'_>) -> T;
}

impl<G: Gen> DynGen<G::Value> for G {
    fn generate_dyn(&self, src: &mut Source<'_>) -> G::Value {
        self.generate(src)
    }
}

/// A type-erased generator (see [`Gen::boxed`]).
pub struct BoxedGen<T>(Box<dyn DynGen<T>>);

impl<T> Gen for BoxedGen<T> {
    type Value = T;

    fn generate(&self, src: &mut Source<'_>) -> T {
        self.0.generate_dyn(src)
    }
}

/// Types with a canonical full-domain generator ([`any`]).
pub trait Arbitrary: Sized {
    /// Draws a uniform-ish value over the whole domain.
    fn arbitrary(src: &mut Source<'_>) -> Self;
}

macro_rules! impl_arbitrary {
    ($($t:ty => |$src:ident| $body:expr),* $(,)?) => {$(
        impl Arbitrary for $t {
            fn arbitrary($src: &mut Source<'_>) -> Self {
                $body
            }
        }
    )*};
}

impl_arbitrary! {
    u8 => |src| src.byte(),
    u16 => |src| src.u16_raw(),
    u32 => |src| src.u32_raw(),
    u64 => |src| src.u64_raw(),
    u128 => |src| src.u128_raw(),
    usize => |src| src.u64_raw() as usize,
    i8 => |src| src.byte() as i8,
    i16 => |src| src.u16_raw() as i16,
    i32 => |src| src.u32_raw() as i32,
    i64 => |src| src.u64_raw() as i64,
    i128 => |src| src.u128_raw() as i128,
    isize => |src| src.u64_raw() as isize,
    bool => |src| src.byte() & 1 == 1,
    char => |src| arb_char(src),
}

/// One uniform-ish `char` (any Unicode scalar value; zeros decode to
/// `'\0'`). Surrogate codepoints fold upward past the gap.
pub fn arb_char(src: &mut Source<'_>) -> char {
    // 0x110000 scalar values minus the 0x800 surrogates.
    let x = src.below(0x0010_F800) as u32;
    let folded = if x >= 0xD800 { x + 0x800 } else { x };
    char::from_u32(folded).expect("surrogate gap folded away")
}

/// The canonical generator for `T` (full domain).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// See [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Gen for Any<T> {
    type Value = T;

    fn generate(&self, src: &mut Source<'_>) -> T {
        T::arbitrary(src)
    }
}

macro_rules! impl_range_gen {
    ($($t:ty as $wide:ty),* $(,)?) => {$(
        impl Gen for Range<$t> {
            type Value = $t;

            fn generate(&self, src: &mut Source<'_>) -> $t {
                assert!(self.start < self.end, "empty generator range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                self.start.wrapping_add(src.below(span) as $t)
            }
        }

        impl Gen for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, src: &mut Source<'_>) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty generator range");
                let span = (hi as $wide).wrapping_sub(lo as $wide).wrapping_add(1);
                if span == 0 {
                    // Full domain of a 64-bit type.
                    return lo.wrapping_add(src.u64_raw() as $t);
                }
                lo.wrapping_add(src.below(span as u64) as $t)
            }
        }

        impl Gen for RangeFrom<$t> {
            type Value = $t;

            fn generate(&self, src: &mut Source<'_>) -> $t {
                let lo = self.start;
                let span = (<$t>::MAX as $wide).wrapping_sub(lo as $wide).wrapping_add(1);
                if span == 0 {
                    return lo.wrapping_add(src.u64_raw() as $t);
                }
                lo.wrapping_add(src.below(span as u64) as $t)
            }
        }
    )*};
}

impl_range_gen! {
    u8 as u8,
    u16 as u16,
    u32 as u32,
    u64 as u64,
    usize as u64,
    i8 as u8,
    i16 as u16,
    i32 as u32,
    i64 as u64,
    isize as u64,
}

// 128-bit ranges get their own impls: spans exceed the 64-bit `below`.
macro_rules! impl_range_gen_128 {
    ($($t:ty),* $(,)?) => {$(
        impl Gen for Range<$t> {
            type Value = $t;

            fn generate(&self, src: &mut Source<'_>) -> $t {
                assert!(self.start < self.end, "empty generator range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add(below_128(src, span) as $t)
            }
        }

        impl Gen for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, src: &mut Source<'_>) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty generator range");
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                if span == 0 {
                    return lo.wrapping_add(src.u128_raw() as $t);
                }
                lo.wrapping_add(below_128(src, span) as $t)
            }
        }

        impl Gen for RangeFrom<$t> {
            type Value = $t;

            fn generate(&self, src: &mut Source<'_>) -> $t {
                let lo = self.start;
                let span = (<$t>::MAX as u128).wrapping_sub(lo as u128).wrapping_add(1);
                if span == 0 {
                    return lo.wrapping_add(src.u128_raw() as $t);
                }
                lo.wrapping_add(below_128(src, span) as $t)
            }
        }
    )*};
}

impl_range_gen_128!(u128, i128);

fn below_128(src: &mut Source<'_>, span: u128) -> u128 {
    if span <= u64::MAX as u128 {
        src.below(span as u64) as u128
    } else {
        src.u128_raw() % span
    }
}

macro_rules! impl_tuple_gen {
    ($($name:ident),+) => {
        impl<$($name: Gen),+> Gen for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, src: &mut Source<'_>) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(src),)+)
            }
        }
    };
}

impl_tuple_gen!(A);
impl_tuple_gen!(A, B);
impl_tuple_gen!(A, B, C);
impl_tuple_gen!(A, B, C, D);
impl_tuple_gen!(A, B, C, D, E);
impl_tuple_gen!(A, B, C, D, E, F);

/// Length bound for [`vec()`] and the string generators.
#[derive(Debug, Clone, Copy)]
pub struct LenRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for LenRange {
    fn from(n: usize) -> Self {
        LenRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for LenRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty length range");
        LenRange { lo: r.start, hi: r.end - 1 }
    }
}

impl From<RangeInclusive<usize>> for LenRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty length range");
        LenRange { lo: *r.start(), hi: *r.end() }
    }
}

impl LenRange {
    fn draw(&self, src: &mut Source<'_>) -> usize {
        self.lo + src.below((self.hi - self.lo) as u64 + 1) as usize
    }
}

/// A vector of `len` values from `element` (`len` may be a fixed size, a
/// `Range`, or a `RangeInclusive`). Zero bytes decode to the minimum
/// length.
pub fn vec<G: Gen>(element: G, len: impl Into<LenRange>) -> VecGen<G> {
    VecGen {
        element,
        len: len.into(),
    }
}

/// See [`vec`].
pub struct VecGen<G> {
    element: G,
    len: LenRange,
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, src: &mut Source<'_>) -> Vec<G::Value> {
        let n = self.len.draw(src);
        // `Range` is both an `Iterator` and a `Gen`; a loop avoids the
        // ambiguous `.map`.
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.element.generate(src));
        }
        out
    }
}

/// Picks one of the alternatives uniformly (zeros decode to the first:
/// put the simplest alternative first, as with `prop_oneof`).
pub fn one_of<T>(alternatives: Vec<BoxedGen<T>>) -> OneOf<T> {
    assert!(!alternatives.is_empty(), "one_of needs an alternative");
    OneOf { alternatives }
}

/// See [`one_of`].
pub struct OneOf<T> {
    alternatives: Vec<BoxedGen<T>>,
}

impl<T> Gen for OneOf<T> {
    type Value = T;

    fn generate(&self, src: &mut Source<'_>) -> T {
        let i = src.below(self.alternatives.len() as u64) as usize;
        self.alternatives[i].generate(src)
    }
}

/// A string whose characters come from `alphabet` (uniform by index) with
/// length in `len`. Replaces `proptest`'s `"[abc]{0,5}"` regex strategies.
pub fn string_from(alphabet: &'static str, len: impl Into<LenRange>) -> StringFrom {
    assert!(!alphabet.is_empty(), "empty alphabet");
    StringFrom {
        chars: alphabet.chars().collect(),
        len: len.into(),
    }
}

/// See [`string_from`].
pub struct StringFrom {
    chars: Vec<char>,
    len: LenRange,
}

impl Gen for StringFrom {
    type Value = String;

    fn generate(&self, src: &mut Source<'_>) -> String {
        let n = self.len.draw(src);
        let mut out = String::with_capacity(n);
        for _ in 0..n {
            out.push(self.chars[src.below(self.chars.len() as u64) as usize]);
        }
        out
    }
}

/// A string of arbitrary Unicode scalar values with length in `len`.
/// Replaces `proptest`'s `".{0,60}"`.
pub fn arb_string(len: impl Into<LenRange>) -> ArbString {
    ArbString { len: len.into() }
}

/// See [`arb_string`].
pub struct ArbString {
    len: LenRange,
}

impl Gen for ArbString {
    type Value = String;

    fn generate(&self, src: &mut Source<'_>) -> String {
        let n = self.len.draw(src);
        let mut out = String::with_capacity(n);
        for _ in 0..n {
            out.push(arb_char(src));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;

    fn with_random<T>(seed: u64, g: &impl Gen<Value = T>) -> T {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut src = Source::record(&mut rng);
        g.generate(&mut src)
    }

    #[test]
    fn ranges_respect_bounds() {
        for seed in 0..200 {
            let x = with_random(seed, &(3u32..9));
            assert!((3..9).contains(&x));
            let y = with_random(seed, &(-4i64..=4));
            assert!((-4..=4).contains(&y));
            let z = with_random(seed, &(1u128..));
            assert!(z >= 1);
        }
    }

    #[test]
    fn zero_stream_gives_minimal_values() {
        let mut src = Source::replay(&[]);
        let (a, b, v, s) = (5u32..100, 0u64..=9, vec(any::<bool>(), 2..5), arb_string(0..4))
            .generate(&mut src);
        assert_eq!(a, 5);
        assert_eq!(b, 0);
        assert_eq!(v, vec![false, false]);
        assert_eq!(s, "");
    }

    #[test]
    fn map_and_one_of_compose() {
        let g = one_of(vec![
            (0u64..10).prop_map(|x| x * 2).boxed(),
            (100u64..110).boxed(),
        ]);
        for seed in 0..100 {
            let v = with_random(seed, &g);
            assert!(v < 20 && v % 2 == 0 || (100..110).contains(&v), "{v}");
        }
        // First alternative on the zero stream.
        let mut src = Source::replay(&[]);
        assert_eq!(g.generate(&mut src), 0);
    }

    #[test]
    fn vec_lengths_cover_range() {
        let g = vec(any::<u8>(), 1..4);
        let mut seen = [false; 3];
        for seed in 0..100 {
            let v = with_random(seed, &g);
            assert!((1..4).contains(&v.len()));
            seen[v.len() - 1] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn string_from_uses_alphabet_only() {
        let g = string_from("ab,()", 0..6);
        for seed in 0..50 {
            let s = with_random(seed, &g);
            assert!(s.chars().all(|c| "ab,()".contains(c)), "{s:?}");
        }
    }

    #[test]
    fn arb_char_covers_non_ascii_and_replays() {
        // 0xA0 (NO-BREAK SPACE) is reachable by an explicit byte stream —
        // the converted parser regression relies on this encoding.
        let mut src = Source::replay(&[0xA0, 0, 0, 0]);
        assert_eq!(arb_char(&mut src), '\u{a0}');
    }

    #[test]
    fn generation_is_a_pure_function_of_bytes() {
        let g = (vec(any::<u16>(), 0..5), 0u32..1000, arb_string(0..8));
        let mut rng = StdRng::seed_from_u64(9);
        let mut rec = Source::record(&mut rng);
        let v1 = g.generate(&mut rec);
        let bytes = rec.transcript().to_vec();
        let v2 = g.generate(&mut Source::replay(&bytes));
        assert_eq!(v1, v2);
    }
}
