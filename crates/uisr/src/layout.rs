//! The field-table codec: one little-endian byte layout per type, derived
//! from a table of its field names.
//!
//! Three state formats are built on it, each pinned by its own digests:
//! UISR blobs ([`crate::codec`]), Xen's HVM context records and the
//! migration proxy's messages. A struct is described once, by a
//! [`layout_struct!`](crate::layout_struct) table naming its fields in
//! wire order; the encoder, the decoder and the exact size are derived
//! from the table through [`Layout`], which is implemented by hand only for
//! the scalars and containers below:
//!
//! | Rust type        | bytes                                          |
//! |------------------|------------------------------------------------|
//! | `u8 u16 u32 u64` | little-endian, natural width                   |
//! | `bool`           | one byte, written 0/1, any non-zero reads true |
//! | `String`         | `u16` byte length, then UTF-8                  |
//! | `Option<T>`      | presence byte (1 = some, else none), then `T`  |
//! | `[T; N]`         | the `N` items, no prefix                       |
//! | `Vec<T>`         | `u32` count, then the items                    |
//! | `(A, B, ..)`     | the items, no prefix (up to four)              |
//! | struct           | its fields, in table order                     |
//!
//! A format's own framing (a record descriptor, a message tag, a byte run
//! that fills the rest of a body) stays with the format, read through the
//! same [`Reader`].

use crate::CodecError;

/// The bytes of a buffer not yet decoded.
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader(buf)
    }

    /// Takes the next `n` bytes, or [`CodecError::Truncated`] if fewer are
    /// left.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.0.len() {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// Takes every byte left.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.0)
    }

    /// True once every byte has been taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Most bytes a decoder reserves on the strength of a count it has read
/// but not yet verified by decoding that many items.
const RESERVE_BUDGET: usize = 64 << 10;

/// A type's byte layout: encoder, decoder and exact size. Scalars and
/// containers implement it here; structs get it from their field tables.
pub trait Layout: Sized {
    /// The field names of a table-described struct, in wire order (empty
    /// for scalars and containers).
    const FIELDS: &'static [&'static str] = &[];

    /// Appends the encoding.
    fn put(&self, out: &mut Vec<u8>);
    /// Decodes one value from the front of `r`.
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError>;
    /// Exact number of bytes [`Layout::put`] appends.
    fn size(&self) -> usize;

    // Slice hooks, in the style of `Hash::hash_slice`: containers move
    // their items through these, and `u8` overrides them so a byte run
    // (the XSAVE area, the LAPIC page, an FXSAVE image) is one copy
    // rather than a call per byte.

    /// Appends every item of `items`.
    fn put_slice(items: &[Self], out: &mut Vec<u8>) {
        items.iter().for_each(|item| item.put(out));
    }
    /// Decodes `items.len()` values into `items`.
    fn get_slice(r: &mut Reader<'_>, items: &mut [Self]) -> Result<(), CodecError> {
        items.iter_mut().try_for_each(|item| {
            *item = Self::get(r)?;
            Ok(())
        })
    }
    /// Decodes `n` values, `n` being a count read from the buffer. Reserves
    /// no more than `n`, the bytes still unread (an item is at least one)
    /// and a 64 KiB budget allow; a longer run grows as it is verified.
    fn get_vec(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, CodecError> {
        let budget = RESERVE_BUDGET / std::mem::size_of::<Self>();
        let mut items = Vec::with_capacity(n.min(r.0.len()).min(budget));
        for _ in 0..n {
            items.push(Self::get(r)?);
        }
        Ok(items)
    }
}

/// Little-endian unsigned integers; `$hooks` are slice-hook overrides.
macro_rules! layout_uint {
    ($ty:ty $(, $($hooks:tt)+)?) => {
        impl Layout for $ty {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let bytes = r.take(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("take(n) is n bytes")))
            }
            #[inline]
            fn size(&self) -> usize {
                std::mem::size_of::<$ty>()
            }
            $($($hooks)+)?
        }
    };
}

layout_uint!(u16);
layout_uint!(u32);
layout_uint!(u64);
layout_uint! {
    u8,
    #[inline]
    fn put_slice(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    #[inline]
    fn get_slice(r: &mut Reader<'_>, items: &mut [u8]) -> Result<(), CodecError> {
        items.copy_from_slice(r.take(items.len())?);
        Ok(())
    }
    fn get_vec(r: &mut Reader<'_>, n: usize) -> Result<Vec<u8>, CodecError> {
        Ok(r.take(n)?.to_vec())
    }
}

impl Layout for bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u8::get(r)? != 0)
    }
    #[inline]
    fn size(&self) -> usize {
        1
    }
}

impl Layout for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u16).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = usize::from(u16::get(r)?);
        String::from_utf8(r.take(n)?.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
    fn size(&self) -> usize {
        2 + self.len()
    }
}

impl<T: Layout> Layout for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(value) = self {
            value.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(if u8::get(r)? == 1 {
            Some(T::get(r)?)
        } else {
            None
        })
    }
    fn size(&self) -> usize {
        1 + self.as_ref().map_or(0, T::size)
    }
}

impl<T: Layout + Copy + Default, const N: usize> Layout for [T; N] {
    fn put(&self, out: &mut Vec<u8>) {
        T::put_slice(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut items = [T::default(); N];
        T::get_slice(r, &mut items)?;
        Ok(items)
    }
    fn size(&self) -> usize {
        self.iter().map(T::size).sum()
    }
}

impl<T: Layout> Layout for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        T::put_slice(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = u32::get(r)? as usize;
        T::get_vec(r, n)
    }
    fn size(&self) -> usize {
        4 + self.iter().map(T::size).sum::<usize>()
    }
}

/// Tuples: the items in order, no prefix.
macro_rules! layout_tuple {
    ($($item:ident . $i:tt),+) => {
        impl<$($item: Layout),+> Layout for ($($item,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$i.put(out);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($item::get(r)?,)+))
            }
            fn size(&self) -> usize {
                0 $(+ self.$i.size())+
            }
        }
    };
}

layout_tuple!(A.0, B.1);
layout_tuple!(A.0, B.1, C.2);
layout_tuple!(A.0, B.1, C.2, D.3);

/// Derives [`Layout`](crate::layout::Layout) for a struct from its field
/// names, in wire order: `layout_struct! { Ty { a, b, c } }`. The field
/// types come from the struct; a field left out of the table fails to
/// compile in the derived decoder's struct literal.
#[macro_export]
macro_rules! layout_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::layout::Layout for $ty {
            const FIELDS: &'static [&'static str] = &[$(stringify!($field)),+];
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::layout::Layout::put(&self.$field, out);)+
            }
            fn get(
                r: &mut $crate::layout::Reader<'_>,
            ) -> Result<Self, $crate::CodecError> {
                Ok($ty { $($field: $crate::layout::Layout::get(r)?),+ })
            }
            fn size(&self) -> usize {
                0 $(+ $crate::layout::Layout::size(&self.$field))+
            }
        }
    };
}
