//! `iris-wire` — the protocol layer shared by every Iris TCP peer.
//!
//! The control-plane server ([`iris-service`]), its clients and load
//! generator, and the flow-simulation worker fleet all speak the same
//! wire discipline: length-prefixed frames ([`frame`]) whose payloads
//! are encoded in one of two negotiated codecs ([`Codec`]) — JSON for
//! debuggability, or the compact tag-prefixed binary encoding of
//! [`bin`]. This crate holds exactly the pieces that are protocol- but
//! not API-specific; each peer defines its own request/response enums
//! on top, and lists their binary layout with [`bin_struct!`] and
//! [`bin_enum!`].
//!
//! [`iris-service`]: ../iris_service/index.html

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bin;
pub mod frame;

/// A negotiated wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Externally-tagged JSON — the boot-time default of every
    /// connection.
    #[default]
    Json,
    /// The compact little-endian binary encoding of [`bin`]; see the
    /// using crate's codec module for the concrete message layout.
    Binary,
}

impl Codec {
    /// Stable wire name, as carried in `Hello` / `HelloAck`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Codec::Json => "json",
            Codec::Binary => "binary",
        }
    }

    /// Parse a wire name. Unknown names return `None`; servers turn
    /// that into a typed `InvalidInput` and stay on the current codec.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Codec> {
        match name {
            "json" => Some(Codec::Json),
            "binary" => Some(Codec::Binary),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_names_round_trip() {
        for codec in [Codec::Json, Codec::Binary] {
            assert_eq!(Codec::from_name(codec.name()), Some(codec));
        }
        assert_eq!(Codec::from_name("msgpack"), None);
        assert_eq!(Codec::default(), Codec::Json);
    }
}
