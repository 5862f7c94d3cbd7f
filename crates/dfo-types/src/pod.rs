//! Plain-old-data contract for vertex attributes, edge attributes and
//! messages.
//!
//! Everything DFOGraph persists — vertex array blocks, edge chunk payloads,
//! on-disk message files, network frames — is a flat sequence of fixed-size
//! values. The [`Pod`] trait marks types that can be round-tripped through
//! raw bytes. We deliberately avoid pulling in `bytemuck`/`zerocopy`: the set
//! of types we need is small and the unsafe surface is concentrated in this
//! one module.

use std::any::TypeId;

/// Marker for types that may be serialized by copying their bytes.
///
/// # Safety
///
/// Implementors must be `#[repr(C)]`-compatible value types with no padding
/// requirements beyond what the byte copy preserves; the all-zero byte
/// pattern must be a valid value (used by [`pod_zeroed`] to initialize fresh
/// vertex arrays); and every byte pattern *produced by serializing a valid
/// value* must deserialize to a valid value.
///
/// Bytes read back from a file or a socket need not be self-produced: a
/// corrupt or hostile byte can be anything. [`pod_from_bytes`] and
/// [`vec_from_bytes`] therefore decode a `bool` as `byte != 0` rather than
/// by copying the byte. A composite (`[bool; N]`, a tuple) holding a `bool`
/// or padding is still copied, so it must only be decoded from bytes it
/// serialized to.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for usize {}
unsafe impl Pod for i8 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}
unsafe impl Pod for bool {}
unsafe impl Pod for () {}
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}
unsafe impl<A: Pod, B: Pod> Pod for (A, B) {}

/// Views a value as its raw bytes.
#[inline]
pub fn bytes_of<T: Pod>(v: &T) -> &[u8] {
    // SAFETY: `T: Pod` guarantees the representation is a plain byte block.
    unsafe { std::slice::from_raw_parts(v as *const T as *const u8, std::mem::size_of::<T>()) }
}

/// Reconstructs a value from bytes previously produced by [`bytes_of`]; a
/// `bool` is `byte != 0`.
///
/// Uses an unaligned read so byte buffers need no particular alignment.
#[inline]
pub fn pod_from_bytes<T: Pod>(b: &[u8]) -> T {
    assert!(
        b.len() >= std::mem::size_of::<T>(),
        "buffer too short for {}: {} < {}",
        std::any::type_name::<T>(),
        b.len(),
        std::mem::size_of::<T>()
    );
    if TypeId::of::<T>() == TypeId::of::<bool>() {
        // SAFETY: `T` is `bool`
        return unsafe { std::mem::transmute_copy(&(b[0] != 0)) };
    }
    // SAFETY: length checked above; Pod contract covers validity.
    unsafe { (b.as_ptr() as *const T).read_unaligned() }
}

/// Views a slice of Pod values as raw bytes (zero copy).
#[inline]
pub fn slice_as_bytes<T: Pod>(s: &[T]) -> &[u8] {
    let len = std::mem::size_of_val(s);
    // SAFETY: same representation argument as `bytes_of`.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u8, len) }
}

/// Views a slice of Pod values as its raw bytes for writing — readers fill
/// a typed buffer in place instead of copying through a byte `Vec`. What is
/// written must be bytes a valid `T` serialized to (the [`Pod`] contract).
#[inline]
pub fn slice_as_bytes_mut<T: Pod>(s: &mut [T]) -> &mut [u8] {
    let len = std::mem::size_of_val(s);
    // SAFETY: same representation argument as `bytes_of`; the exclusive
    // borrow of `s` carries over to the returned view.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr() as *mut u8, len) }
}

/// Copies a byte buffer produced by [`slice_as_bytes`] back into an owned,
/// properly aligned `Vec<T>`; each `bool` is `byte != 0`.
pub fn vec_from_bytes<T: Pod>(b: &[u8]) -> Vec<T> {
    let size = std::mem::size_of::<T>();
    if size == 0 {
        return Vec::new();
    }
    assert!(
        b.len().is_multiple_of(size),
        "byte length {} not a multiple of size_of::<{}>() = {}",
        b.len(),
        std::any::type_name::<T>(),
        size
    );
    if TypeId::of::<T>() == TypeId::of::<bool>() {
        return b.iter().map(|x| pod_from_bytes(std::slice::from_ref(x))).collect();
    }
    let n = b.len() / size;
    let mut out: Vec<T> = Vec::with_capacity(n);
    // SAFETY: capacity reserved above; copy fills exactly `n` elements whose
    // byte representation came from valid `T`s (Pod contract).
    unsafe {
        std::ptr::copy_nonoverlapping(b.as_ptr(), out.as_mut_ptr() as *mut u8, b.len());
        out.set_len(n);
    }
    out
}

/// The all-zero value of `T` — the initial content of a fresh vertex array.
#[inline]
pub fn pod_zeroed<T: Pod>() -> T {
    // SAFETY: the Pod contract requires the all-zero pattern to be valid.
    unsafe { std::mem::MaybeUninit::<T>::zeroed().assume_init() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let x: u64 = 0xdead_beef_cafe_f00d;
        assert_eq!(pod_from_bytes::<u64>(bytes_of(&x)), x);
        let f: f64 = -1234.5678;
        assert_eq!(pod_from_bytes::<f64>(bytes_of(&f)), f);
        let b = true;
        assert!(pod_from_bytes::<bool>(bytes_of(&b)));
    }

    #[test]
    fn a_corrupt_bool_byte_decodes_as_true() {
        assert_eq!(pod_from_bytes::<bool>(&[2]) as u8, 1);
        assert_eq!(vec_from_bytes::<bool>(&[2, 2]).iter().map(|&b| b as u8).sum::<u8>(), 2);
    }

    #[test]
    fn roundtrip_slices() {
        let v: Vec<u32> = (0..1000).collect();
        let bytes = slice_as_bytes(&v);
        assert_eq!(bytes.len(), 4000);
        let back: Vec<u32> = vec_from_bytes(bytes);
        assert_eq!(back, v);
        // the mutable view fills typed values in place
        let mut filled = vec![0u32; 1000];
        slice_as_bytes_mut(&mut filled).copy_from_slice(bytes);
        assert_eq!(filled, v);
    }

    #[test]
    fn roundtrip_arrays_and_tuples() {
        let v: [f32; 4] = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(pod_from_bytes::<[f32; 4]>(bytes_of(&v)), v);
        let t: (u32, f32) = (7, 2.5);
        assert_eq!(pod_from_bytes::<(u32, f32)>(bytes_of(&t)), t);
    }

    #[test]
    fn zst_edge_data() {
        let v: Vec<()> = vec![(); 10];
        let bytes = slice_as_bytes(&v);
        assert!(bytes.is_empty());
        let back: Vec<()> = vec_from_bytes(bytes);
        assert!(back.is_empty());
    }

    #[test]
    fn unaligned_read() {
        let v: Vec<u64> = vec![1, 2, 3];
        let mut bytes = vec![0u8; 1];
        bytes.extend_from_slice(slice_as_bytes(&v));
        // read from offset 1: deliberately unaligned
        let x: u64 = pod_from_bytes(&bytes[1..9]);
        assert_eq!(x, 1);
    }

    #[test]
    #[should_panic(expected = "buffer too short")]
    fn short_buffer_panics() {
        let _ = pod_from_bytes::<u64>(&[0u8; 4]);
    }
}
