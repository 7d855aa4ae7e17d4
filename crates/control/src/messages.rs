//! Controller-to-site command framing.
//!
//! The testbed controller speaks serial, HTTPS and NetConf to its
//! devices; a production Iris would use one compact binary protocol.
//! This module defines that wire format: a fixed header (big-endian
//! magic, version, opcode, little-endian length) followed by the
//! opcode's fields in the shared [`iris_wire::bin`] encoding. Framing is
//! explicit-length so commands can be streamed over any reliable byte
//! transport and parsed incrementally.

use iris_errors::IrisError;
use iris_wire::bin::{from_bytes, Encode};
use iris_wire::bin_enum;
use serde::{Deserialize, Serialize};

/// Protocol magic: "IRIS".
pub const MAGIC: u32 = 0x4952_4953;

/// Protocol version.
pub const VERSION: u8 = 1;

/// A control-plane command.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Command {
    /// Connect an OSS input port to an output port.
    SetCross {
        /// Target switch id.
        switch: u32,
        /// Input port.
        input: u32,
        /// Output port.
        output: u32,
    },
    /// Tune a transceiver to a channel.
    Tune {
        /// Target transceiver id.
        transceiver: u32,
        /// DWDM channel index.
        channel: u32,
    },
    /// Mark a channel live / filled on a channel emulator.
    SetEmulation {
        /// Target emulator id.
        emulator: u32,
        /// Channel index.
        channel: u32,
        /// Live (true) or ASE-filled (false).
        live: bool,
    },
    /// Drain traffic off a DC pair before reconfiguration.
    Drain {
        /// DC indices.
        a: u32,
        /// DC indices.
        b: u32,
    },
    /// Restore traffic onto a DC pair after reconfiguration.
    Undrain {
        /// DC indices.
        a: u32,
        /// DC indices.
        b: u32,
    },
    /// Ask a site to verify device state and report health.
    HealthCheck {
        /// Site id.
        site: u32,
    },
}

bin_enum!(Command, "command" {
    1 => SetCross { switch, input, output },
    2 => Tune { transceiver, channel },
    3 => SetEmulation { emulator, channel, live },
    4 => Drain { a, b },
    5 => Undrain { a, b },
    6 => HealthCheck { site },
});

/// Header bytes before the payload: magic, version, opcode, length.
const HEADER_LEN: usize = 10;

impl Command {
    /// Encode into a framed byte buffer.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(HEADER_LEN + 12);
        frame.extend_from_slice(&MAGIC.to_be_bytes());
        frame.push(VERSION);
        // The shared encoding writes the opcode (byte 5) then the
        // payload; the payload length goes between them, at byte 6.
        Encode::encode(self, &mut frame);
        let len = (frame.len() - 6) as u32;
        frame.splice(6..6, len.to_le_bytes());
        frame
    }

    /// Decode one framed command from the front of `buf`, advancing it
    /// past the frame. Returns `Ok(None)`, leaving `buf` untouched, when
    /// it holds an incomplete frame.
    ///
    /// # Errors
    ///
    /// Fails on bad magic, unknown version/opcode, or a payload that
    /// is not exactly one encoding of the opcode's fields.
    pub fn decode(buf: &mut &[u8]) -> Result<Option<Command>, IrisError> {
        let Some(header) = buf.get(..HEADER_LEN) else {
            return Ok(None);
        };
        let magic = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
        if magic != MAGIC {
            return Err(IrisError::Decode {
                detail: format!("bad magic {magic:#x}"),
            });
        }
        if header[4] != VERSION {
            return Err(IrisError::Decode {
                detail: format!("unsupported version {}", header[4]),
            });
        }
        let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]) as usize;
        let Some(payload) = buf[HEADER_LEN..].get(..len) else {
            return Ok(None);
        };
        let mut body = Vec::with_capacity(1 + len);
        body.push(header[5]);
        body.extend_from_slice(payload);
        let cmd = from_bytes(&body, "command")?;
        *buf = &buf[HEADER_LEN + len..];
        Ok(Some(cmd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn all_commands() -> Vec<Command> {
        vec![
            Command::SetCross {
                switch: 3,
                input: 7,
                output: 12,
            },
            Command::Tune {
                transceiver: 42,
                channel: 13,
            },
            Command::SetEmulation {
                emulator: 1,
                channel: 39,
                live: true,
            },
            Command::Drain { a: 0, b: 5 },
            Command::Undrain { a: 0, b: 5 },
            Command::HealthCheck { site: 9 },
        ]
    }

    // Golden bytes: the framed encoding of every command, pinned so a
    // refactor of the encoder cannot silently change the wire format.
    const GOLDEN_COMMANDS: [&str; 6] = [
        "4952495301010c00000003000000070000000c000000",
        "495249530102080000002a0000000d000000",
        "49524953010309000000010000002700000001",
        "495249530104080000000000000005000000",
        "495249530105080000000000000005000000",
        "4952495301060400000009000000",
    ];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
            .collect()
    }

    /// Apply seeded one-byte edits to `bytes`: overwrite (kind 0),
    /// truncate (1) or insert (2) at a position taken modulo the length.
    fn mutate(bytes: &[u8], edits: &[(u8, usize, u8)]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for &(kind, pos, byte) in edits {
            let at = pos % (out.len() + 1);
            match kind {
                0 if at < out.len() => out[at] = byte,
                1 => out.truncate(at),
                _ => out.insert(at, byte),
            }
        }
        out
    }

    proptest! {
        // Decoding returns a command, "incomplete" or a typed decode
        // error, never a panic; an accepted frame re-encodes to exactly
        // the bytes it consumed.
        #[test]
        fn fuzzed_frames_decode_or_fail_typed(
            edits in vec((0u8..3, any::<usize>(), any::<u8>()), 1..4),
            noise in vec(any::<u8>(), 0..257),
        ) {
            let inputs = GOLDEN_COMMANDS.iter().map(|g| mutate(&unhex(g), &edits));
            for input in inputs.chain([noise]) {
                let mut buf = input.as_slice();
                match Command::decode(&mut buf) {
                    Ok(Some(cmd)) => {
                        let used = input.len() - buf.len();
                        prop_assert_eq!(cmd.encode(), input[..used].to_vec());
                    }
                    Ok(None) => prop_assert_eq!(buf.len(), input.len()),
                    Err(e) => prop_assert_eq!(e.code(), "decode"),
                }
            }
        }
    }

    #[test]
    fn every_command_matches_golden_bytes() {
        let cmds = all_commands();
        assert_eq!(cmds.len(), GOLDEN_COMMANDS.len());
        for (cmd, golden) in cmds.iter().zip(GOLDEN_COMMANDS) {
            assert_eq!(hex(&cmd.encode()), golden);
            let bytes = unhex(golden);
            let mut buf = bytes.as_slice();
            assert_eq!(&Command::decode(&mut buf).unwrap().unwrap(), cmd);
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn round_trip_every_command() {
        for cmd in all_commands() {
            let frame = cmd.encode();
            let mut buf = frame.as_slice();
            let decoded = Command::decode(&mut buf).unwrap().unwrap();
            assert_eq!(decoded, cmd);
            assert!(buf.is_empty(), "frame fully consumed");
        }
    }

    #[test]
    fn stream_of_commands_decodes_in_order() {
        let cmds = all_commands();
        let stream: Vec<u8> = cmds.iter().flat_map(Command::encode).collect();
        let mut buf = stream.as_slice();
        for expected in &cmds {
            let got = Command::decode(&mut buf).unwrap().unwrap();
            assert_eq!(&got, expected);
        }
        assert!(Command::decode(&mut buf).unwrap().is_none());
    }

    #[test]
    fn partial_frame_returns_none_and_keeps_buffer() {
        let full = Command::HealthCheck { site: 1 }.encode();
        let mut partial = &full[..full.len() - 1];
        let before = partial.len();
        assert!(Command::decode(&mut partial).unwrap().is_none());
        assert_eq!(partial.len(), before, "incomplete frames are not consumed");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bad: &[u8] = &[0, 0, 0, 0, 1, 1, 0, 0, 0, 0];
        assert!(Command::decode(&mut bad).is_err());
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        let mut frame = MAGIC.to_be_bytes().to_vec();
        frame.extend_from_slice(&[VERSION, 99, 0, 0, 0, 0]);
        let mut buf = frame.as_slice();
        assert!(Command::decode(&mut buf).is_err());
    }
}
