//! The coordinator ↔ worker wire protocol.
//!
//! Workers speak the workspace's shared frame codec ([`iris_wire`]):
//! length-prefixed frames carrying JSON by default, with the same
//! `Hello { codec: "binary" }` negotiation the control-plane service
//! uses — the ack travels in the old codec, then the connection
//! switches. Binary matters here: a link result is a dense `f64`
//! vector, and the shared [`iris_wire::bin`] encoding ships it at 8
//! bytes per flow instead of ~20 of JSON text. The run recipe and typed
//! errors are structural, not bulk, data: in binary they travel as a
//! nested JSON string rather than a hand-coded layout of every simnet
//! type.
//!
//! The job unit is deliberately *tiny on the wire*: the coordinator
//! ships the [`WorkSpec`] recipe (topology + matrix + config) **once
//! per connection**, the worker regenerates the flow trace and
//! decomposition locally (both are deterministic functions of the
//! spec), and each subsequent job names a link by id alone. Results
//! stream back as [`WorkerResponse::LinkChunk`] frames so a
//! million-flow link never exceeds [`iris_wire::frame::MAX_FRAME_LEN`].

use iris_errors::{IrisError, IrisResult};
use iris_simnet::engine::SimConfig;
use iris_simnet::trace::FlowTrace;
use iris_simnet::{SimTopology, Simulator, TrafficMatrix};
use iris_wire::bin::{from_bytes, to_bytes};
use iris_wire::{bin_enum, Codec};
use serde::{Deserialize, Serialize};

/// Finish-time entries per [`WorkerResponse::LinkChunk`]. Binary:
/// `16384 * 8 B = 128 KiB` per frame; JSON stays comfortably under
/// [`iris_wire::frame::MAX_FRAME_LEN`] too.
pub const CHUNK_FLOWS: usize = 16_384;

/// The recipe of a simulation run: everything a worker needs to
/// regenerate the trace and decomposition deterministically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkSpec {
    /// The simulated topology.
    pub topo: SimTopology,
    /// The initial traffic matrix.
    pub matrix: TrafficMatrix,
    /// Full simulator configuration (workload, changes, fabric, seed).
    pub config: SimConfig,
}

impl WorkSpec {
    /// Materialize the spec's flow trace (deterministic).
    #[must_use]
    pub fn trace(&self) -> FlowTrace {
        self.simulator().trace()
    }

    /// The simulator that generates the spec's trace.
    pub(crate) fn simulator(&self) -> Simulator {
        Simulator::new(self.topo.clone(), self.matrix.clone(), self.config.clone())
    }

    /// Content fingerprint (FNV-1a over the canonical JSON encoding) —
    /// the worker's spec-cache key.
    ///
    /// # Panics
    ///
    /// Panics if the spec cannot be serialized (all field types are
    /// serializable, so this would be a programming error).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let bytes = serde_json::to_string(self).expect("spec serializes");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in bytes.into_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Coordinator → worker.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WorkerRequest {
    /// Switch codec (ack travels in the current codec).
    Hello {
        /// Requested codec name (`"json"` or `"binary"`).
        codec: String,
    },
    /// Install the run recipe for subsequent jobs.
    LoadSpec {
        /// The recipe (boxed: it dwarfs the other variants).
        spec: Box<WorkSpec>,
    },
    /// Simulate one link of the installed spec's decomposition.
    RunLink {
        /// Link id.
        link: usize,
    },
}

/// Worker → coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerResponse {
    /// Codec switch acknowledged.
    HelloOk {
        /// The codec now in effect.
        codec: String,
    },
    /// Spec installed (trace regenerated or served from cache).
    SpecLoaded {
        /// Admitted flows in the trace.
        flows: usize,
        /// Links carrying at least one flow.
        links: usize,
    },
    /// One slice of a link's finish times, aligned with the
    /// decomposition's flow list for that link starting at `offset`.
    LinkChunk {
        /// Link id the slice belongs to.
        link: usize,
        /// Index of the first entry within the link's flow list.
        offset: usize,
        /// Finish times (seconds; negative = incomplete).
        finish_s: Vec<f64>,
        /// Whether this is the link's final slice.
        done: bool,
    },
    /// The request failed; the connection remains usable.
    Error {
        /// The typed failure.
        error: IrisError,
    },
}

bin_enum!(WorkerRequest, "flowsim request" {
    1 => Hello { codec },
    2 => LoadSpec { spec as json },
    3 => RunLink { link },
});

bin_enum!(WorkerResponse, "flowsim response" {
    1 => HelloOk { codec },
    2 => SpecLoaded { flows, links },
    3 => LinkChunk { link, offset, finish_s, done },
    4 => Error { error as json },
});

/// Binary fields carried as their JSON text in a length-prefixed string.
mod json {
    use super::{json_err, Deserialize, IrisResult, Serialize};
    use iris_wire::bin::{Decode, Encode, Reader};

    // The carried types (the spec and `IrisError`) always serialize.
    pub(super) fn encode<T: Serialize>(v: &T, buf: &mut Vec<u8>) {
        serde_json::to_string(v)
            .expect("field serializes")
            .encode(buf);
    }

    pub(super) fn decode<T: Deserialize>(rd: &mut Reader<'_>, what: &'static str) -> IrisResult<T> {
        serde_json::from_str(&String::decode(rd, what)?).map_err(json_err)
    }
}

/// Encode a request in `codec`.
///
/// # Errors
///
/// Returns [`IrisError::Decode`] if JSON serialization fails (never for
/// well-formed specs).
pub fn encode_request(codec: Codec, req: &WorkerRequest) -> IrisResult<Vec<u8>> {
    match codec {
        Codec::Json => to_json(req),
        Codec::Binary => Ok(to_bytes(req)),
    }
}

/// Decode a request in `codec`.
///
/// # Errors
///
/// Returns [`IrisError::Decode`] on malformed payloads.
pub fn decode_request(codec: Codec, payload: &[u8]) -> IrisResult<WorkerRequest> {
    match codec {
        Codec::Json => from_json(payload),
        Codec::Binary => from_bytes(payload, "flowsim request"),
    }
}

/// Encode a response in `codec`.
///
/// # Errors
///
/// Returns [`IrisError::Decode`] if JSON serialization fails.
pub fn encode_response(codec: Codec, resp: &WorkerResponse) -> IrisResult<Vec<u8>> {
    match codec {
        Codec::Json => to_json(resp),
        Codec::Binary => Ok(to_bytes(resp)),
    }
}

/// Decode a response in `codec`.
///
/// # Errors
///
/// Returns [`IrisError::Decode`] on malformed payloads.
pub fn decode_response(codec: Codec, payload: &[u8]) -> IrisResult<WorkerResponse> {
    match codec {
        Codec::Json => from_json(payload),
        Codec::Binary => from_bytes(payload, "flowsim response"),
    }
}

fn to_json<T: Serialize>(v: &T) -> IrisResult<Vec<u8>> {
    serde_json::to_string(v)
        .map(String::into_bytes)
        .map_err(json_err)
}

fn from_json<T: Deserialize>(payload: &[u8]) -> IrisResult<T> {
    let text = std::str::from_utf8(payload).map_err(|e| IrisError::Decode {
        detail: format!("flowsim message: invalid utf-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(json_err)
}

fn json_err(e: serde_json::Error) -> IrisError {
    IrisError::Decode {
        detail: format!("flowsim message: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_simnet::engine::FabricModel;
    use iris_simnet::traffic::ChangeModel;
    use iris_simnet::workloads::FlowSizeDist;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn spec() -> WorkSpec {
        WorkSpec {
            topo: SimTopology::hub_and_spoke(3, 1.0),
            matrix: TrafficMatrix::heavy_tailed(3, 4),
            config: SimConfig {
                duration_s: 2.0,
                utilization: 0.4,
                flow_sizes: FlowSizeDist::facebook_web(),
                change_interval_s: Some(1.0),
                change_model: ChangeModel::Bounded(0.5),
                fabric: FabricModel::Eps,
                capacity_events: Vec::new(),
                seed: 6,
            },
        }
    }

    fn requests() -> [WorkerRequest; 3] {
        [
            WorkerRequest::Hello {
                codec: "binary".into(),
            },
            WorkerRequest::LoadSpec {
                spec: Box::new(spec()),
            },
            WorkerRequest::RunLink { link: 7 },
        ]
    }

    fn responses() -> [WorkerResponse; 4] {
        [
            WorkerResponse::HelloOk {
                codec: "json".into(),
            },
            WorkerResponse::SpecLoaded {
                flows: 1_000_000,
                links: 17,
            },
            WorkerResponse::LinkChunk {
                link: 3,
                offset: 16_384,
                finish_s: vec![0.25, -1.0, 39.99],
                done: true,
            },
            WorkerResponse::Error {
                error: IrisError::Decode {
                    detail: "boom".into(),
                },
            },
        ]
    }

    #[test]
    fn requests_round_trip_in_both_codecs() {
        for codec in [Codec::Json, Codec::Binary] {
            for req in &requests() {
                let bytes = encode_request(codec, req).expect("encode");
                let back = decode_request(codec, &bytes).expect("decode");
                // WorkSpec does not implement PartialEq: compare the
                // requests through their JSON encodings.
                assert_eq!(
                    serde_json::to_string(req).unwrap(),
                    serde_json::to_string(&back).unwrap(),
                    "{codec:?}"
                );
            }
        }
    }

    #[test]
    fn responses_round_trip_in_both_codecs() {
        for codec in [Codec::Json, Codec::Binary] {
            for resp in &responses() {
                let bytes = encode_response(codec, resp).expect("encode");
                assert_eq!(
                    &decode_response(codec, &bytes).expect("decode"),
                    resp,
                    "{codec:?}"
                );
            }
        }
    }

    // Golden bytes: the binary encoding of every fixture, pinned so a
    // refactor of the encoder cannot silently change the wire format.
    const GOLDEN_REQUESTS: [&str; 3] = [
        "010600000062696e617279",
        concat!(
            "021d0200007b22746f706f223a7b226e5f646373223a332c226c696e6b73223a",
            "5b7b2263617061636974795f67627073223a317d2c7b2263617061636974795f",
            "67627073223a317d2c7b2263617061636974795f67627073223a317d5d2c2272",
            "6f75746573223a5b5b302c315d2c5b302c325d2c5b312c325d5d2c22726f7574",
            "655f7274745f73223a5b302c302c305d7d2c226d6174726978223a7b226e5f64",
            "6373223a332c2277656967687473223a5b302e32343435373430343838383536",
            "303630322c302e32353539373636353134373934383634352c302e3439393434",
            "39323939363334393037345d2c22726e67223a7b2273656564223a342c227374",
            "657073223a317d7d2c22636f6e666967223a7b226475726174696f6e5f73223a",
            "322c227574696c697a6174696f6e223a302e342c22666c6f775f73697a657322",
            "3a7b226e616d65223a2277656232222c22616e63686f7273223a5b5b3130302c",
            "302e315d2c5b3330302c302e32355d2c5b313030302c302e355d2c5b32303030",
            "2c302e36325d2c5b31303030302c302e385d2c5b3130303030302c302e39325d",
            "2c5b313030303030302c302e39395d2c5b31303030303030302c315d5d7d2c22",
            "6368616e67655f696e74657276616c5f73223a312c226368616e67655f6d6f64",
            "656c223a7b22426f756e646564223a302e357d2c22666162726963223a224570",
            "73222c2263617061636974795f6576656e7473223a5b5d2c2273656564223a36",
            "7d7d",
        ),
        "030700000000000000",
    ];
    const GOLDEN_RESPONSES: [&str; 4] = [
        "01040000006a736f6e",
        "0240420f00000000001100000000000000",
        concat!(
            "030300000000000000004000000000000003000000000000000000d03f000000",
            "000000f0bf1f85eb51b8fe434001",
        ),
        concat!(
            "041c0000007b224465636f6465223a7b2264657461696c223a22626f6f6d227d",
            "7d",
        ),
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
        // Every decode returns a value or a typed decode error, never a
        // panic; whatever is accepted without nested JSON re-encodes to
        // exactly the input.
        #[test]
        fn fuzzed_payloads_decode_or_fail_typed(
            edits in vec((0u8..3, any::<usize>(), any::<u8>()), 1..4),
            noise in vec(any::<u8>(), 0..257),
        ) {
            let goldens = GOLDEN_REQUESTS.iter().chain(&GOLDEN_RESPONSES);
            for input in goldens.map(|g| mutate(&unhex(g), &edits)).chain([noise]) {
                match decode_request(Codec::Binary, &input) {
                    Ok(WorkerRequest::LoadSpec { .. }) => {}
                    Ok(req) => prop_assert_eq!(encode_request(Codec::Binary, &req).unwrap(), input.clone()),
                    Err(e) => prop_assert_eq!(e.code(), "decode"),
                }
                match decode_response(Codec::Binary, &input) {
                    Ok(WorkerResponse::Error { .. }) => {}
                    Ok(resp) => prop_assert_eq!(encode_response(Codec::Binary, &resp).unwrap(), input.clone()),
                    Err(e) => prop_assert_eq!(e.code(), "decode"),
                }
            }
        }
    }

    #[test]
    fn binary_requests_match_golden_bytes() {
        for (req, golden) in requests().iter().zip(GOLDEN_REQUESTS) {
            assert_eq!(hex(&encode_request(Codec::Binary, req).unwrap()), golden);
            let back = decode_request(Codec::Binary, &unhex(golden)).unwrap();
            assert_eq!(
                serde_json::to_string(req).unwrap(),
                serde_json::to_string(&back).unwrap()
            );
        }
    }

    #[test]
    fn binary_responses_match_golden_bytes() {
        for (resp, golden) in responses().iter().zip(GOLDEN_RESPONSES) {
            assert_eq!(hex(&encode_response(Codec::Binary, resp).unwrap()), golden);
            assert_eq!(
                &decode_response(Codec::Binary, &unhex(golden)).unwrap(),
                resp
            );
        }
    }

    #[test]
    fn fingerprint_tracks_spec_content() {
        let a = spec();
        let mut b = spec();
        assert_eq!(a.fingerprint(), a.fingerprint());
        b.config.seed = 7;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn binary_garbage_is_a_typed_decode_error() {
        let err = decode_response(Codec::Binary, &[99, 1, 2]).unwrap_err();
        assert!(matches!(err, IrisError::Decode { .. }));
    }
}
