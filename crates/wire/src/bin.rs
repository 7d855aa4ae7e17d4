//! The compact binary payload encoding every Iris protocol shares.
//!
//! Little-endian, tag-prefixed, no self-description:
//!
//! * enum variant → one `u8` tag, then the variant's fields in order
//! * struct → its fields in declaration order, no header
//! * `u8` → one byte; `u32`/`u64` → fixed-width little-endian; `usize`
//!   travels as `u64`
//! * `f64` → IEEE-754 bits, little-endian
//! * `bool` → one byte, `0`/`1` only
//! * `String` → `u32` byte length + UTF-8 bytes
//! * `Vec<T>` → `u32` element count + elements
//! * `Option<T>` → presence `bool` + value
//!
//! A type joins the format by implementing [`Encode`] and [`Decode`]:
//! structs through [`bin_struct!`](crate::bin_struct) (a field list) and
//! enums through [`bin_enum!`](crate::bin_enum) (explicit tags). The
//! message layout lives in the crate that owns the type; this module
//! holds the rules.
//!
//! Encoding is infallible. Decoding is strict, so every accepted payload
//! re-encodes to the same bytes: a payload must be consumed exactly
//! ([`from_bytes`] rejects trailing bytes), bools and tags must hold a
//! known value, and every length or element count is checked against
//! the bytes actually remaining *before* any allocation — a hostile
//! 4 GiB string header inside a 1 MiB frame is rejected without
//! reserving memory. Element counts are bounded by [`Decode::MIN_LEN`],
//! the smallest encoding of one element.

use iris_errors::{IrisError, IrisResult};

fn decode_err(detail: String) -> IrisError {
    IrisError::Decode { detail }
}

/// A value with a binary encoding.
pub trait Encode {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
}

/// A value that can be read back from its binary encoding.
pub trait Decode: Sized {
    /// Bytes in the smallest possible encoding of a value, used to
    /// reject element counts that cannot fit the remaining payload.
    const MIN_LEN: usize;

    /// Read one value; `what` names it in error messages.
    ///
    /// # Errors
    ///
    /// [`IrisError::Decode`] on truncation or an invalid encoding.
    fn decode(rd: &mut Reader<'_>, what: &'static str) -> IrisResult<Self>;
}

/// Encode `value` into a fresh buffer.
#[must_use]
pub fn to_bytes<T: Encode>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Decode exactly one `T` from `payload`.
///
/// # Errors
///
/// [`IrisError::Decode`] on a malformed payload or trailing bytes.
pub fn from_bytes<T: Decode>(payload: &[u8], what: &'static str) -> IrisResult<T> {
    let mut rd = Reader::new(payload);
    let value = T::decode(&mut rd, what)?;
    if rd.b.is_empty() {
        Ok(value)
    } else {
        Err(decode_err(format!(
            "binary {what}: {} trailing bytes after value",
            rd.b.len()
        )))
    }
}

/// The [`Decode::MIN_LEN`] of the field `field` projects out of `S`;
/// lets [`bin_struct!`](crate::bin_struct) sum its fields' minimums
/// without restating their types.
#[doc(hidden)]
pub const fn min_len_of<S, T: Decode>(_field: fn(&S) -> &T) -> usize {
    T::MIN_LEN
}

/// Cursor over a payload, created by [`from_bytes`]. Every read checks
/// the remaining bytes first.
pub struct Reader<'a> {
    b: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(payload: &'a [u8]) -> Self {
        Self { b: payload }
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize, what: &str) -> IrisResult<&'a [u8]> {
        if self.b.len() < n {
            return Err(decode_err(format!(
                "binary payload truncated reading {what}: need {n} bytes, have {}",
                self.b.len()
            )));
        }
        let (head, rest) = self.b.split_at(n);
        self.b = rest;
        Ok(head)
    }

    /// Read an element count, rejecting counts whose minimum encoding
    /// (`min_item` bytes each) could not fit the remaining payload, so
    /// `Vec` capacity is never reserved off attacker-controlled numbers.
    fn count(&mut self, min_item: usize, what: &'static str) -> IrisResult<usize> {
        let n = u32::decode(self, what)? as usize;
        if n.saturating_mul(min_item) > self.b.len() {
            return Err(decode_err(format!(
                "binary {what}: {n} elements cannot fit {} remaining bytes",
                self.b.len()
            )));
        }
        Ok(n)
    }

    fn fixed<const N: usize>(&mut self, what: &str) -> IrisResult<[u8; N]> {
        let mut raw = [0u8; N];
        raw.copy_from_slice(self.take(N, what)?);
        Ok(raw)
    }
}

macro_rules! le_int {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
        }

        impl Decode for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();

            fn decode(rd: &mut Reader<'_>, what: &'static str) -> IrisResult<Self> {
                rd.fixed(what).map(<$ty>::from_le_bytes)
            }
        }
    )*};
}

le_int!(u8, u32, u64);

impl Encode for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
}

impl Decode for usize {
    const MIN_LEN: usize = 8;

    fn decode(rd: &mut Reader<'_>, what: &'static str) -> IrisResult<Self> {
        let v = u64::decode(rd, what)?;
        usize::try_from(v).map_err(|_| decode_err(format!("binary {what}: {v} exceeds usize")))
    }
}

impl Encode for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.to_bits().encode(buf);
    }
}

impl Decode for f64 {
    const MIN_LEN: usize = 8;

    fn decode(rd: &mut Reader<'_>, what: &'static str) -> IrisResult<Self> {
        u64::decode(rd, what).map(f64::from_bits)
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
}

impl Decode for bool {
    const MIN_LEN: usize = 1;

    fn decode(rd: &mut Reader<'_>, what: &'static str) -> IrisResult<Self> {
        match u8::decode(rd, what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(decode_err(format!(
                "binary {what}: invalid bool byte {other}"
            ))),
        }
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        // Frame payloads are capped at 1 MiB, far below u32::MAX; the
        // cast cannot truncate anything that fits a frame.
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    const MIN_LEN: usize = 4;

    fn decode(rd: &mut Reader<'_>, what: &'static str) -> IrisResult<Self> {
        let len = u32::decode(rd, what)? as usize;
        // `take` is the pre-allocation bounds check: a length larger
        // than the remaining payload fails before the String is built.
        let raw = rd.take(len, what)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|e| decode_err(format!("binary {what}: invalid UTF-8: {e}")))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_LEN: usize = 4;

    fn decode(rd: &mut Reader<'_>, what: &'static str) -> IrisResult<Self> {
        let n = rd.count(T::MIN_LEN, what)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(rd, what)?);
        }
        Ok(v)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.is_some().encode(buf);
        if let Some(v) = self {
            v.encode(buf);
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    const MIN_LEN: usize = 1;

    fn decode(rd: &mut Reader<'_>, what: &'static str) -> IrisResult<Self> {
        if bool::decode(rd, what)? {
            T::decode(rd, what).map(Some)
        } else {
            Ok(None)
        }
    }
}

/// Implement [`Encode`] and [`Decode`] for a struct as its listed
/// fields, in list order (the list is the wire layout; the compiler
/// rejects a list that misses a field).
///
/// ```
/// use iris_wire::bin::{from_bytes, Decode, Encode};
///
/// #[derive(Debug, PartialEq)]
/// struct AllocEntry { a: usize, b: usize, circuits: u32 }
/// iris_wire::bin_struct!(AllocEntry, "allocation" { a, b, circuits });
///
/// let entry = AllocEntry { a: 0, b: 2, circuits: 3 };
/// let mut buf = Vec::new();
/// entry.encode(&mut buf);
/// assert_eq!(buf.len(), 8 + 8 + 4);
/// assert_eq!(AllocEntry::MIN_LEN, buf.len());
/// assert_eq!(from_bytes::<AllocEntry>(&buf, "allocation").unwrap(), entry);
/// ```
#[macro_export]
macro_rules! bin_struct {
    ($ty:ident, $what:literal { $($field:ident),* $(,)? }) => {
        impl $crate::bin::Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                $($crate::bin::Encode::encode(&self.$field, buf);)*
            }
        }

        impl $crate::bin::Decode for $ty {
            const MIN_LEN: usize = 0 $(+ $crate::bin::min_len_of(|s: &$ty| &s.$field))*;

            fn decode(
                rd: &mut $crate::bin::Reader<'_>,
                _what: &'static str,
            ) -> ::iris_errors::IrisResult<Self> {
                Ok(Self {
                    $($field: $crate::bin::Decode::decode(
                        rd,
                        concat!($what, ".", stringify!($field)),
                    )?,)*
                })
            }
        }
    };
}

/// Implement [`Encode`] and [`Decode`] for an enum: each variant is a
/// `u8` tag, given explicitly, followed by its fields in order. Unit,
/// struct and single-field tuple variants are supported. A struct
/// field written `field as module` is encoded by `module::encode` and
/// decoded by `module::decode` instead of its own impls.
///
/// ```
/// use iris_wire::bin::{from_bytes, Encode};
///
/// #[derive(Debug, PartialEq)]
/// enum Request { GetPlan, QueryPath { a: usize, b: usize }, Echo(String) }
/// iris_wire::bin_enum!(Request, "request" {
///     0 => GetPlan,
///     2 => QueryPath { a, b },
///     5 => Echo(text),
/// });
///
/// let mut buf = Vec::new();
/// Request::QueryPath { a: 1, b: 2 }.encode(&mut buf);
/// assert_eq!(buf[0], 2, "the tag leads");
/// assert_eq!(buf.len(), 1 + 8 + 8);
/// assert!(from_bytes::<Request>(&[1], "request").is_err(), "unknown tag");
/// ```
#[macro_export]
macro_rules! bin_enum {
    (@encode $field:ident, $buf:ident) => {
        $crate::bin::Encode::encode($field, $buf)
    };
    (@encode $field:ident $with:ident, $buf:ident) => {
        $with::encode($field, $buf)
    };
    (@decode $rd:ident, $label:expr) => {
        $crate::bin::Decode::decode($rd, $label)?
    };
    (@decode $rd:ident, $label:expr, $with:ident) => {
        $with::decode($rd, $label)?
    };
    ($ty:ty, $what:literal {
        $($tag:tt => $variant:ident
            $({ $($field:ident $(as $with:ident)?),* $(,)? })?
            $(($inner:ident))?),* $(,)?
    }) => {
        impl $crate::bin::Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $(Self::$variant $({ $($field),* })? $(($inner))? => {
                        buf.push($tag);
                        $($($crate::bin_enum!(@encode $field $($with)?, buf);)*)?
                        $($crate::bin::Encode::encode($inner, buf);)?
                    })*
                }
            }
        }

        impl $crate::bin::Decode for $ty {
            const MIN_LEN: usize = 1;

            fn decode(
                rd: &mut $crate::bin::Reader<'_>,
                _what: &'static str,
            ) -> ::iris_errors::IrisResult<Self> {
                let tag = <u8 as $crate::bin::Decode>::decode(rd, concat!($what, " tag"))?;
                Ok(match tag {
                    $($tag => Self::$variant
                        $({ $($field: $crate::bin_enum!(
                            @decode rd,
                            concat!($what, ".", stringify!($variant), ".", stringify!($field))
                            $(, $with)?
                        )),* })?
                        $(($crate::bin::Decode::decode(
                            rd,
                            concat!($what, ".", stringify!($variant), ".", stringify!($inner)),
                        )?))?,)*
                    other => {
                        return Err(::iris_errors::IrisError::Decode {
                            detail: format!(concat!("unknown binary ", $what, " tag {}"), other),
                        })
                    }
                })
            }
        }
    };
}

crate::bin_enum!(IrisError, "error" {
    0 => PortOutOfRange { device, input, output, ports },
    1 => ChannelOutOfRange { device, channel, count },
    2 => Unreachable { what },
    3 => Decode { detail },
    4 => VerifyFailed { device, detail },
    5 => RetriesExhausted { phase, attempts, last_error },
    6 => Quarantined { device },
    7 => Infeasible { detail },
    8 => Overloaded { retry_after_ms },
    9 => InvalidInput { detail },
    10 => Io { detail },
    11 => Corrupt { what, detail },
    12 => ReplayFailed { detail },
    13 => Timeout { what, after_ms },
    14 => NotPrimary { region },
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut buf = Vec::new();
        7u8.encode(&mut buf);
        0xDEAD_BEEFu32.encode(&mut buf);
        (u64::MAX - 1).encode(&mut buf);
        42usize.encode(&mut buf);
        (-0.125f64).encode(&mut buf);
        true.encode(&mut buf);
        String::from("héllo").encode(&mut buf);
        vec![1usize, 2, 3].encode(&mut buf);
        vec![0.5f64, f64::INFINITY].encode(&mut buf);
        Some(9u32).encode(&mut buf);
        None::<u32>.encode(&mut buf);

        let mut rd = Reader::new(&buf);
        assert_eq!(u8::decode(&mut rd, "a").unwrap(), 7);
        assert_eq!(u32::decode(&mut rd, "b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::decode(&mut rd, "c").unwrap(), u64::MAX - 1);
        assert_eq!(usize::decode(&mut rd, "d").unwrap(), 42);
        assert_eq!(f64::decode(&mut rd, "e").unwrap(), -0.125);
        assert!(bool::decode(&mut rd, "f").unwrap());
        assert_eq!(String::decode(&mut rd, "g").unwrap(), "héllo");
        assert_eq!(Vec::<usize>::decode(&mut rd, "h").unwrap(), vec![1, 2, 3]);
        assert_eq!(
            Vec::<f64>::decode(&mut rd, "i").unwrap(),
            vec![0.5, f64::INFINITY]
        );
        assert_eq!(Option::<u32>::decode(&mut rd, "j").unwrap(), Some(9));
        assert_eq!(Option::<u32>::decode(&mut rd, "k").unwrap(), None);
        assert!(rd.b.is_empty());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let err = from_bytes::<u8>(&[1, 2], "value").unwrap_err();
        assert_eq!(err.code(), "decode");
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn hostile_lengths_fail_before_allocation() {
        // String header claiming u32::MAX bytes inside a tiny payload.
        let mut buf = to_bytes(&u32::MAX);
        buf.extend_from_slice(b"hi");
        assert_eq!(
            from_bytes::<String>(&buf, "s").unwrap_err().code(),
            "decode"
        );

        // Vec count claiming 500M elements.
        let mut buf = to_bytes(&500_000_000u32);
        buf.extend_from_slice(&[0u8; 16]);
        let err = from_bytes::<Vec<usize>>(&buf, "v").unwrap_err();
        assert!(err.to_string().contains("cannot fit"), "{err}");
    }

    #[test]
    fn bad_bool_bytes_are_rejected() {
        let err = from_bytes::<bool>(&[2u8], "flag").unwrap_err();
        assert!(err.to_string().contains("bool"), "{err}");
    }

    #[test]
    fn truncation_names_the_field() {
        let err = from_bytes::<u32>(&[1u8, 2], "epoch").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("epoch"), "{msg}");
        assert!(msg.contains("need 4"), "{msg}");
    }
}
