//! The element trait for distributed arrays.

/// Types that can be stored in a [`crate::DistArray`] and shipped between
/// simulated processors.
///
/// `BYTES` is used for message-size accounting in the cost model; the
/// byte-level encoding itself (little-endian) is only exercised by the
/// thread-backed SPMD paths and by checkpoint files, since the
/// master-managed simulation moves values directly.
pub trait Element: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static {
    /// Number of bytes one element occupies on the wire.
    const BYTES: usize;

    /// Appends the little-endian encoding of the value to `out`.
    fn write_bytes(&self, out: &mut Vec<u8>);

    /// Decodes a value from exactly [`Element::BYTES`] bytes.
    fn read_bytes(bytes: &[u8]) -> Self;

    /// The value's stored bit pattern widened to 64 bits — the unit the
    /// wire-frame checksum folds over.  Values that compare equal must
    /// produce equal bits, and distinct bit patterns must produce
    /// distinct `to_bits64` results (within the low `BYTES · 8` bits).
    fn to_bits64(&self) -> u64;

    /// Reconstructs a value from [`Element::to_bits64`] output (only the
    /// low `BYTES · 8` bits are significant).
    fn from_bits64(bits: u64) -> Self;

    /// The value with stored bit `bit % (BYTES · 8)` flipped — guaranteed
    /// to differ bitwise from `self`, which is what makes injected wire
    /// corruption always detectable by the frame checksum.
    fn flip_bit(self, bit: u32) -> Self {
        let width = (Self::BYTES * 8) as u32;
        Self::from_bits64(self.to_bits64() ^ (1u64 << (bit % width)))
    }
}

macro_rules! impl_element_num {
    ($($t:ty => $n:expr),* $(,)?) => {
        $(
            impl Element for $t {
                const BYTES: usize = $n;

                fn write_bytes(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }

                fn read_bytes(bytes: &[u8]) -> Self {
                    <$t>::from_le_bytes(bytes[..$n].try_into().expect("enough bytes"))
                }

                #[inline]
                fn to_bits64(&self) -> u64 {
                    let mut bits = [0u8; 8];
                    bits[..$n].copy_from_slice(&self.to_le_bytes());
                    u64::from_le_bytes(bits)
                }

                #[inline]
                fn from_bits64(bits: u64) -> Self {
                    <$t>::from_le_bytes(bits.to_le_bytes()[..$n].try_into().expect("enough bytes"))
                }
            }
        )*
    };
}

impl_element_num!(
    f64 => 8,
    f32 => 4,
    i64 => 8,
    i32 => 4,
    u64 => 8,
    u32 => 4,
    u8 => 1,
);

impl Element for bool {
    const BYTES: usize = 1;

    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn read_bytes(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }

    #[inline]
    fn to_bits64(&self) -> u64 {
        u64::from(*self)
    }

    #[inline]
    fn from_bits64(bits: u64) -> Self {
        bits & 1 != 0
    }

    /// All stored bit patterns of a `bool` map to the two values, so the
    /// only flip that is guaranteed to change the *value* (not just an
    /// ignored padding bit) is logical negation.
    fn flip_bit(self, _bit: u32) -> Self {
        !self
    }
}

/// Encodes a slice of elements to a byte buffer.
pub fn encode_slice<T: Element>(values: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * T::BYTES);
    for v in values {
        v.write_bytes(&mut out);
    }
    out
}

/// Decodes a byte buffer produced by [`encode_slice`].
pub fn decode_slice<T: Element>(bytes: &[u8]) -> Vec<T> {
    bytes.chunks_exact(T::BYTES).map(T::read_bytes).collect()
}

/// Packs `values` into `out` — exactly `values.len() * T::BYTES` bytes,
/// each element the low `BYTES` little-endian bytes of its
/// [`Element::to_bits64`] pattern — and returns the xor of those patterns,
/// so a sender fills a wire frame (and a checkpoint save a run of its
/// file) and accumulates the checksum in one pass over the data.
pub(crate) fn pack_le_xor<T: Element>(values: &[T], out: &mut [u8]) -> u64 {
    debug_assert_eq!(out.len(), values.len() * T::BYTES);
    let mut acc = 0u64;
    for (chunk, v) in out.chunks_exact_mut(T::BYTES).zip(values) {
        let bits = v.to_bits64();
        acc ^= bits;
        chunk.copy_from_slice(&bits.to_le_bytes()[..T::BYTES]);
    }
    acc
}

/// The bit pattern of one element packed by [`pack_le_xor`].
#[inline]
fn bits_le<T: Element>(chunk: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..T::BYTES].copy_from_slice(chunk);
    u64::from_le_bytes(word)
}

/// Xor of the bit patterns packed in `bytes` — what [`pack_le_xor`]
/// returned for the same elements, computed by the receiver over the raw
/// payload *before* anything is decoded.  Every payload bit feeds exactly
/// one accumulator bit, so any single flipped bit changes the result.
pub(crate) fn xor_packed_le<T: Element>(bytes: &[u8]) -> u64 {
    bytes
        .chunks_exact(T::BYTES)
        .fold(0u64, |acc, chunk| acc ^ bits_le::<T>(chunk))
}

/// Decodes `out.len()` elements packed by [`pack_le_xor`] straight into
/// `out`.
pub(crate) fn unpack_le<T: Element>(bytes: &[u8], out: &mut [T]) {
    debug_assert_eq!(bytes.len(), out.len() * T::BYTES);
    for (v, chunk) in out.iter_mut().zip(bytes.chunks_exact(T::BYTES)) {
        *v = T::from_bits64(bits_le::<T>(chunk));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_round_trips() {
        fn check<T: Element>(values: &[T]) {
            let encoded = encode_slice(values);
            assert_eq!(encoded.len(), values.len() * T::BYTES);
            assert_eq!(decode_slice::<T>(&encoded), values);
            // The in-place frame codec writes the same bytes, and its
            // receiver-side xor over them equals the sender's.
            let mut packed = vec![0xAAu8; encoded.len()];
            let acc = pack_le_xor(values, &mut packed);
            assert_eq!(packed, encoded);
            assert_eq!(acc, values.iter().fold(0, |h, v| h ^ v.to_bits64()));
            assert_eq!(xor_packed_le::<T>(&packed), acc);
            let mut back = vec![T::default(); values.len()];
            unpack_le(&packed, &mut back);
            assert_eq!(back, values);
        }
        check(&[1.5f64, -2.0, 0.0]);
        check(&[1.5f32, -2.0]);
        check(&[-7i64, 9]);
        check(&[-7i32, 9]);
        check(&[7u64, 9]);
        check(&[7u32, 9]);
        check(&[0u8, 255]);
        check(&[true, false, true]);
    }

    #[test]
    fn bit_flips_always_change_the_value() {
        fn check<T: Element>(values: &[T]) {
            let width = (T::BYTES * 8) as u32;
            for &v in values {
                assert_eq!(T::from_bits64(v.to_bits64()), v);
                for bit in 0..width {
                    let flipped = v.flip_bit(bit);
                    assert_ne!(
                        flipped.to_bits64(),
                        v.to_bits64(),
                        "{v:?} bit {bit} must change the stored pattern"
                    );
                }
            }
        }
        check(&[0.0f64, 1.5, -2.0, f64::MAX]);
        check(&[0.0f32, 1.5, -2.0]);
        check(&[0i64, -7, i64::MAX]);
        check(&[0i32, -7]);
        check(&[0u64, 7, u64::MAX]);
        check(&[0u32, 7]);
        check(&[0u8, 255]);
        check(&[true, false]);
    }

    #[test]
    fn sizes_match_wire_format() {
        assert_eq!(<f64 as Element>::BYTES, 8);
        assert_eq!(<f32 as Element>::BYTES, 4);
        assert_eq!(<u8 as Element>::BYTES, 1);
        assert_eq!(<bool as Element>::BYTES, 1);
    }
}
