//! Per-connection wire codecs: JSON (default) and a compact binary
//! encoding.
//!
//! Both codecs produce the *payload* of a [`crate::frame`] frame — the
//! length prefix, size cap, and optional trace header are codec
//! independent, which is why a trace id survives the binary encoding
//! unchanged. JSON stays the default so `nc`-level debugging and every
//! pre-existing client keep working; a connection opts into binary by
//! sending [`crate::api::Request::Hello`] (see there for the switch
//! protocol).
//!
//! The binary layout is the workspace-wide one described in
//! [`iris_wire::bin`]; this module lists each message's tag and fields.
//! The first payload byte is the variant tag, so a reader can classify
//! a response — error or not — without decoding it.

use crate::api::{
    AllocEntry, HealthInfo, PathInfo, PeerInfo, PlanSummary, RecoverySummary, Request, Response,
    SlowRequestInfo, TopologySummary, TraceDumpInfo, TraceEventInfo,
};
use iris_errors::IrisResult;
use iris_wire::bin::{from_bytes, to_bytes, Encode};
use iris_wire::{bin_enum, bin_struct};

pub use iris_wire::Codec;

/// First payload byte of a binary-encoded error response. Public so the
/// client and loadgen can classify replies in O(1) on the hot path.
pub const BIN_RESPONSE_ERROR_TAG: u8 = 10;

bin_enum!(Request, "request" {
    0 => GetPlan,
    1 => GetTopology,
    2 => QueryPath { a, b },
    3 => UpdateDemand { a, b, circuits },
    4 => ReportFiberCut { cuts },
    5 => Health,
    6 => MetricsSnapshot,
    7 => TraceDump { max_events },
    8 => Hello { codec },
    9 => GetPlanAt { min_epoch, wait_ms },
    10 => Replicate { source_region, batch },
    11 => SyncState { source_region, state },
    12 => Promote,
});

bin_enum!(Response, "response" {
    0 => Plan(plan),
    1 => Topology(topology),
    2 => Path(path),
    3 => DemandAccepted { queue_depth, epoch },
    4 => Recovery(recovery),
    5 => CutAlreadyActive { active_cuts },
    6 => Health(health),
    7 => Metrics { prometheus },
    8 => Trace(trace),
    9 => HelloAck { codec },
    BIN_RESPONSE_ERROR_TAG => Error(error),
    11 => ReplicateAck { epoch, state_crc },
});

bin_struct!(PlanSummary, "plan" {
    epoch, dcs, ducts, used_ducts, cut_tolerance, scenarios_examined, dc_transceivers,
    fiber_pair_spans, oss_ports, feasible,
});
bin_struct!(TopologySummary, "topology" {
    epoch, dcs, huts, ducts, active_cuts, allocation, quarantined,
});
bin_struct!(AllocEntry, "allocation" { a, b, circuits });
bin_struct!(PathInfo, "path" { a, b, nodes, edges, length_km, rtt_ms, circuits, epoch });
bin_struct!(RecoverySummary, "recovery" {
    cuts, within_tolerance, fully_recovered, shed_pairs, detection_ms, replan_ms, reconfig_ms,
    recovery_ms,
});
bin_struct!(PeerInfo, "peer" {
    region, addr, connected, acked_epoch, lag_epochs, lag_ms, reconnects,
});
bin_struct!(HealthInfo, "health" {
    region, role, peers, epoch, queue_depth, writes_applied, coalesced, overloaded, active_cuts,
    quarantined, last_recovery, uptime_ms, wal_records, wal_bytes, last_fsync_ms,
});
bin_struct!(TraceDumpInfo, "trace" { enabled, dropped, events, slow });
bin_struct!(TraceEventInfo, "event" {
    trace_id, span_id, parent_id, stage, start_us, dur_us, modeled,
});
bin_struct!(SlowRequestInfo, "slow" { trace_id, op, total_ms, at_us });

/// Serialize a request in `codec`.
///
/// # Errors
///
/// [`iris_errors::IrisError::Decode`] if serialization fails.
pub fn encode_request(codec: Codec, req: &Request) -> IrisResult<Vec<u8>> {
    match codec {
        Codec::Json => crate::api::encode_request(req),
        Codec::Binary => Ok(to_bytes(req)),
    }
}

/// Parse a request payload in `codec`.
///
/// # Errors
///
/// [`iris_errors::IrisError::Decode`] for malformed payloads (bad tag,
/// truncated fields, over-long length headers, trailing bytes).
pub fn decode_request(codec: Codec, payload: &[u8]) -> IrisResult<Request> {
    match codec {
        Codec::Json => crate::api::decode_request(payload),
        Codec::Binary => from_bytes(payload, "request"),
    }
}

/// Serialize a response in `codec`, appending to `buf` (the event
/// loop's per-connection write buffer) without an intermediate
/// allocation on the binary path.
///
/// # Errors
///
/// [`iris_errors::IrisError::Decode`] if serialization fails. `buf` may
/// hold a partial encoding after an error; callers truncate back to the
/// length they recorded before the call.
pub fn encode_response_into(codec: Codec, resp: &Response, buf: &mut Vec<u8>) -> IrisResult<()> {
    match codec {
        Codec::Json => {
            let bytes = crate::api::encode_response(resp)?;
            buf.extend_from_slice(&bytes);
            Ok(())
        }
        Codec::Binary => {
            resp.encode(buf);
            Ok(())
        }
    }
}

/// Serialize a response in `codec` into a fresh buffer.
///
/// # Errors
///
/// [`iris_errors::IrisError::Decode`] if serialization fails.
pub fn encode_response(codec: Codec, resp: &Response) -> IrisResult<Vec<u8>> {
    let mut buf = Vec::with_capacity(64);
    encode_response_into(codec, resp, &mut buf)?;
    Ok(buf)
}

/// Parse a response payload in `codec`.
///
/// # Errors
///
/// [`iris_errors::IrisError::Decode`] for malformed payloads.
pub fn decode_response(codec: Codec, payload: &[u8]) -> IrisResult<Response> {
    match codec {
        Codec::Json => crate::api::decode_response(payload),
        Codec::Binary => from_bytes(payload, "response"),
    }
}

/// O(1) check whether a response payload is an `Error` reply, without
/// decoding it. Binary reads the tag byte; JSON checks the
/// externally-tagged prefix. Load generators use this to skip full
/// decoding on the (overwhelmingly common) success path.
#[must_use]
pub fn response_payload_is_error(codec: Codec, payload: &[u8]) -> bool {
    match codec {
        Codec::Json => payload.starts_with(b"{\"Error\""),
        Codec::Binary => payload.first() == Some(&BIN_RESPONSE_ERROR_TAG),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_errors::IrisError;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::GetPlan,
            Request::GetTopology,
            Request::QueryPath { a: 0, b: 3 },
            Request::UpdateDemand {
                a: 1,
                b: 2,
                circuits: 4,
            },
            Request::ReportFiberCut { cuts: vec![5, 9] },
            Request::ReportFiberCut { cuts: vec![] },
            Request::Health,
            Request::MetricsSnapshot,
            Request::TraceDump { max_events: 500 },
            Request::Hello {
                codec: "binary".into(),
            },
            Request::GetPlanAt {
                min_epoch: 8,
                wait_ms: 250,
            },
            Request::Replicate {
                source_region: 1,
                batch: "{\"epoch\":9,\"updates\":[]}".into(),
            },
            Request::SyncState {
                source_region: 1,
                state: "{\"epoch\":9}".into(),
            },
            Request::Promote,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        use crate::api::*;
        vec![
            Response::Plan(PlanSummary {
                epoch: 3,
                dcs: 10,
                ducts: 40,
                used_ducts: 22,
                cut_tolerance: 2,
                scenarios_examined: 780,
                dc_transceivers: 5_000,
                fiber_pair_spans: 900,
                oss_ports: 1_200,
                feasible: true,
            }),
            Response::Topology(TopologySummary {
                epoch: 4,
                dcs: 3,
                huts: 5,
                ducts: 9,
                active_cuts: vec![1, 7],
                allocation: vec![
                    AllocEntry {
                        a: 0,
                        b: 1,
                        circuits: 3,
                    },
                    AllocEntry {
                        a: 0,
                        b: 2,
                        circuits: 1,
                    },
                ],
                quarantined: vec![2],
            }),
            Response::Path(PathInfo {
                a: 0,
                b: 2,
                nodes: vec![0, 4, 2],
                edges: vec![3, 8],
                length_km: 41.25,
                rtt_ms: 0.413,
                circuits: 2,
                epoch: 4,
            }),
            Response::DemandAccepted {
                queue_depth: 17,
                epoch: 5,
            },
            Response::ReplicateAck {
                epoch: 5,
                state_crc: 0x1234_5678,
            },
            Response::Recovery(RecoverySummary {
                cuts: vec![4],
                within_tolerance: true,
                fully_recovered: true,
                shed_pairs: 0,
                detection_ms: 10.0,
                replan_ms: 5.0,
                reconfig_ms: 52.0,
                recovery_ms: 67.0,
            }),
            Response::CutAlreadyActive {
                active_cuts: vec![2, 4],
            },
            Response::Health(HealthInfo {
                region: 2,
                role: "follower".into(),
                peers: vec![
                    PeerInfo {
                        region: 0,
                        addr: "127.0.0.1:4040".into(),
                        connected: true,
                        acked_epoch: 7,
                        lag_epochs: 0,
                        lag_ms: 0.0,
                        reconnects: 1,
                    },
                    PeerInfo {
                        region: 3,
                        addr: "127.0.0.1:4042".into(),
                        connected: false,
                        acked_epoch: 4,
                        lag_epochs: 3,
                        lag_ms: 9.0,
                        reconnects: 0,
                    },
                ],
                epoch: 7,
                queue_depth: 0,
                writes_applied: 12,
                coalesced: 3,
                overloaded: 1,
                active_cuts: vec![4],
                quarantined: 0,
                last_recovery: Some(RecoverySummary {
                    cuts: vec![4],
                    within_tolerance: true,
                    fully_recovered: true,
                    shed_pairs: 0,
                    detection_ms: 10.0,
                    replan_ms: 5.0,
                    reconfig_ms: 52.0,
                    recovery_ms: 67.0,
                }),
                uptime_ms: 81_000,
                wal_records: 42,
                wal_bytes: 13_337,
                last_fsync_ms: 0.42,
            }),
            Response::Metrics {
                prometheus: "# TYPE x counter\nx 1\n".into(),
            },
            Response::Trace(crate::api::TraceDumpInfo {
                enabled: true,
                dropped: 3,
                events: vec![TraceEventInfo {
                    trace_id: 0xAB,
                    span_id: 2,
                    parent_id: 1,
                    stage: "wal_fsync".into(),
                    start_us: 1_000,
                    dur_us: 420,
                    modeled: false,
                }],
                slow: vec![SlowRequestInfo {
                    trace_id: 0xAB,
                    op: "report_fiber_cut".into(),
                    total_ms: 61.5,
                    at_us: 2_000,
                }],
            }),
            Response::HelloAck {
                codec: "binary".into(),
            },
            Response::Error(IrisError::Overloaded { retry_after_ms: 25 }),
            Response::Error(IrisError::Unreachable {
                what: "DC 0 -> DC 2 after cuts [1, 7]".into(),
            }),
        ]
    }

    fn all_errors() -> Vec<IrisError> {
        vec![
            IrisError::PortOutOfRange {
                device: "OSS@HUT3".into(),
                input: 9,
                output: 1,
                ports: 4,
            },
            IrisError::ChannelOutOfRange {
                device: "TX".into(),
                channel: 41,
                count: 40,
            },
            IrisError::Unreachable { what: "x".into() },
            IrisError::Decode { detail: "x".into() },
            IrisError::VerifyFailed {
                device: "OSS".into(),
                detail: "y".into(),
            },
            IrisError::RetriesExhausted {
                phase: "actuate".into(),
                attempts: 3,
                last_error: "z".into(),
            },
            IrisError::Quarantined {
                device: "OSS".into(),
            },
            IrisError::Infeasible { detail: "x".into() },
            IrisError::Overloaded { retry_after_ms: 10 },
            IrisError::InvalidInput { detail: "x".into() },
            IrisError::Io { detail: "x".into() },
            IrisError::Corrupt {
                what: "iris.wal".into(),
                detail: "crc".into(),
            },
            IrisError::ReplayFailed { detail: "x".into() },
            IrisError::Timeout {
                what: "probe".into(),
                after_ms: 250,
            },
            IrisError::NotPrimary { region: 2 },
        ]
    }

    // Golden bytes: the binary encoding of every fixture, pinned so a
    // refactor of the encoder cannot silently change the wire format.
    const GOLDEN_REQUESTS: [&str; 14] = [
        "00",
        "01",
        "0200000000000000000300000000000000",
        "030100000000000000020000000000000004000000",
        "040200000005000000000000000900000000000000",
        "0400000000",
        "05",
        "06",
        "07f401000000000000",
        "080600000062696e617279",
        "090800000000000000fa00000000000000",
        concat!(
            "0a0100000000000000180000007b2265706f6368223a392c2275706461746573",
            "223a5b5d7d",
        ),
        "0b01000000000000000b0000007b2265706f6368223a397d",
        "0c",
    ];
    const GOLDEN_RESPONSES: [&str; 13] = [
        concat!(
            "0003000000000000000a00000000000000280000000000000016000000000000",
            "0002000000000000000c03000000000000881300000000000084030000000000",
            "00b00400000000000001",
        ),
        concat!(
            "0104000000000000000300000000000000050000000000000009000000000000",
            "0002000000010000000000000007000000000000000200000000000000000000",
            "0001000000000000000300000000000000000000000200000000000000010000",
            "00010000000200000000000000",
        ),
        concat!(
            "0200000000000000000200000000000000030000000000000000000000040000",
            "0000000000020000000000000002000000030000000000000008000000000000",
            "000000000000a044403bdf4f8d976eda3f020000000400000000000000",
        ),
        "0311000000000000000500000000000000",
        "0b050000000000000078563412",
        concat!(
            "0401000000040000000000000001010000000000000000000000000000244000",
            "000000000014400000000000004a400000000000c05040",
        ),
        "050200000002000000000000000400000000000000",
        concat!(
            "06020000000000000008000000666f6c6c6f7765720200000000000000000000",
            "000e0000003132372e302e302e313a3430343001070000000000000000000000",
            "000000000000000000000000010000000000000003000000000000000e000000",
            "3132372e302e302e313a34303432000400000000000000030000000000000000",
            "000000000022400000000000000000070000000000000000000000000000000c",
            "0000000000000003000000000000000100000000000000010000000400000000",
            "0000000000000000000000010100000004000000000000000101000000000000",
            "0000000000000000244000000000000014400000000000004a400000000000c0",
            "5040683c0100000000002a000000000000001934000000000000e17a14ae47e1",
            "da3f",
        ),
        "0715000000232054595045207820636f756e7465720a7820310a",
        concat!(
            "0801030000000000000001000000ab0000000000000002000000010000000900",
            "000077616c5f6673796e63e803000000000000a4010000000000000001000000",
            "ab00000000000000100000007265706f72745f66696265725f63757400000000",
            "00c04e40d007000000000000",
        ),
        "090600000062696e617279",
        "0a081900000000000000",
        concat!(
            "0a021e00000044432030202d3e20444320322061667465722063757473205b31",
            "2c20375d",
        ),
    ];
    const GOLDEN_ERRORS: [&str; 15] = [
        concat!(
            "0a00080000004f53534048555433090000000000000001000000000000000400",
            "000000000000",
        ),
        "0a010200000054582900000028000000",
        "0a020100000078",
        "0a030100000078",
        "0a04030000004f53530100000079",
        "0a05070000006163747561746503000000010000007a",
        "0a06030000004f5353",
        "0a070100000078",
        "0a080a00000000000000",
        "0a090100000078",
        "0a0a0100000078",
        "0a0b08000000697269732e77616c03000000637263",
        "0a0c0100000078",
        "0a0d0500000070726f6265fa00000000000000",
        "0a0e0200000000000000",
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
        // Every decoder of untrusted bytes returns a value or a typed
        // decode error, never a panic; and the binary codec is strict, so
        // whatever it accepts re-encodes to exactly the input.
        #[test]
        fn fuzzed_payloads_decode_or_fail_typed(
            edits in vec((0u8..3, any::<usize>(), any::<u8>()), 1..4),
            noise in vec(any::<u8>(), 0..257),
        ) {
            let goldens = GOLDEN_REQUESTS.iter().chain(&GOLDEN_RESPONSES).chain(&GOLDEN_ERRORS);
            let json = sample_requests()
                .iter()
                .map(|r| encode_request(Codec::Json, r).unwrap())
                .collect::<Vec<_>>();
            let seeds = goldens.map(|g| unhex(g)).chain(json);
            for input in seeds.map(|s| mutate(&s, &edits)).chain([noise]) {
                match decode_request(Codec::Binary, &input) {
                    Ok(req) => prop_assert_eq!(encode_request(Codec::Binary, &req).unwrap(), input.clone()),
                    Err(e) => prop_assert_eq!(e.code(), "decode"),
                }
                match decode_response(Codec::Binary, &input) {
                    Ok(resp) => prop_assert_eq!(encode_response(Codec::Binary, &resp).unwrap(), input.clone()),
                    Err(e) => prop_assert_eq!(e.code(), "decode"),
                }
                if let Err(e) = decode_request(Codec::Json, &input) {
                    prop_assert_eq!(e.code(), "decode");
                }
            }
        }
    }

    #[test]
    fn binary_requests_match_golden_bytes() {
        let reqs = sample_requests();
        assert_eq!(reqs.len(), GOLDEN_REQUESTS.len());
        for (req, golden) in reqs.iter().zip(GOLDEN_REQUESTS) {
            assert_eq!(hex(&encode_request(Codec::Binary, req).unwrap()), golden);
            assert_eq!(&decode_request(Codec::Binary, &unhex(golden)).unwrap(), req);
        }
    }

    #[test]
    fn binary_responses_match_golden_bytes() {
        let resps = sample_responses();
        assert_eq!(resps.len(), GOLDEN_RESPONSES.len());
        for (resp, golden) in resps.iter().zip(GOLDEN_RESPONSES) {
            assert_eq!(hex(&encode_response(Codec::Binary, resp).unwrap()), golden);
            assert_eq!(
                &decode_response(Codec::Binary, &unhex(golden)).unwrap(),
                resp
            );
        }
    }

    #[test]
    fn binary_errors_match_golden_bytes() {
        let errors = all_errors();
        assert_eq!(errors.len(), GOLDEN_ERRORS.len());
        for (e, golden) in errors.into_iter().zip(GOLDEN_ERRORS) {
            let resp = Response::Error(e);
            assert_eq!(hex(&encode_response(Codec::Binary, &resp).unwrap()), golden);
            assert_eq!(
                decode_response(Codec::Binary, &unhex(golden)).unwrap(),
                resp
            );
        }
    }

    #[test]
    fn binary_requests_round_trip() {
        for req in &sample_requests() {
            let bytes = encode_request(Codec::Binary, req).unwrap();
            let back = decode_request(Codec::Binary, &bytes).unwrap();
            assert_eq!(&back, req);
        }
    }

    #[test]
    fn binary_responses_round_trip() {
        for resp in &sample_responses() {
            let bytes = encode_response(Codec::Binary, resp).unwrap();
            let back = decode_response(Codec::Binary, &bytes).unwrap();
            assert_eq!(&back, resp);
        }
    }

    #[test]
    fn every_error_variant_round_trips_in_binary() {
        for e in all_errors() {
            let resp = Response::Error(e);
            let bytes = encode_response(Codec::Binary, &resp).unwrap();
            assert_eq!(decode_response(Codec::Binary, &bytes).unwrap(), resp);
        }
    }

    #[test]
    fn json_paths_delegate_to_api_codec() {
        let req = Request::QueryPath { a: 1, b: 2 };
        let bytes = encode_request(Codec::Json, &req).unwrap();
        assert_eq!(crate::api::decode_request(&bytes).unwrap(), req);
        let resp = Response::DemandAccepted {
            queue_depth: 1,
            epoch: 2,
        };
        let bytes = encode_response(Codec::Json, &resp).unwrap();
        assert_eq!(crate::api::decode_response(&bytes).unwrap(), resp);
    }

    #[test]
    fn truncated_binary_payloads_are_decode_errors() {
        for resp in &sample_responses() {
            let bytes = encode_response(Codec::Binary, resp).unwrap();
            // Every proper prefix must fail cleanly, never panic.
            for cut in 0..bytes.len() {
                let err = decode_response(Codec::Binary, &bytes[..cut]).unwrap_err();
                assert_eq!(err.code(), "decode", "prefix len {cut} of {resp:?}");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_request(Codec::Binary, &Request::GetPlan).unwrap();
        bytes.push(0);
        let err = decode_request(Codec::Binary, &bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn hostile_length_headers_fail_before_allocation() {
        // A string header claiming u32::MAX bytes inside a tiny payload:
        // must fail on the bounds check, not attempt a 4 GiB reservation.
        let mut bytes = vec![8u8]; // Request::Hello tag
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(b"hi");
        let err = decode_request(Codec::Binary, &bytes).unwrap_err();
        assert_eq!(err.code(), "decode");

        // Same for a vec count: ReportFiberCut claiming 500M cuts.
        let mut bytes = vec![4u8];
        bytes.extend_from_slice(&500_000_000u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let err = decode_request(Codec::Binary, &bytes).unwrap_err();
        assert!(err.to_string().contains("cannot fit"), "{err}");
    }

    #[test]
    fn unknown_tags_and_bad_bools_are_rejected() {
        assert_eq!(
            decode_request(Codec::Binary, &[250u8]).unwrap_err().code(),
            "decode"
        );
        assert_eq!(
            decode_response(Codec::Binary, &[250u8]).unwrap_err().code(),
            "decode"
        );
        // Error response with an unknown error sub-tag.
        assert_eq!(
            decode_response(Codec::Binary, &[BIN_RESPONSE_ERROR_TAG, 200])
                .unwrap_err()
                .code(),
            "decode"
        );
        // Plan with a bool byte of 2.
        let resp = sample_responses().remove(0);
        let mut bytes = encode_response(Codec::Binary, &resp).unwrap();
        *bytes.last_mut().unwrap() = 2;
        assert!(decode_response(Codec::Binary, &bytes)
            .unwrap_err()
            .to_string()
            .contains("bool"));
    }

    #[test]
    fn error_classification_is_tag_based() {
        let err = Response::Error(IrisError::Overloaded { retry_after_ms: 5 });
        let ok = Response::DemandAccepted {
            queue_depth: 0,
            epoch: 0,
        };
        for codec in [Codec::Json, Codec::Binary] {
            let e = encode_response(codec, &err).unwrap();
            let o = encode_response(codec, &ok).unwrap();
            assert!(response_payload_is_error(codec, &e), "{codec:?}");
            assert!(!response_payload_is_error(codec, &o), "{codec:?}");
        }
    }

    #[test]
    fn encode_into_appends_without_clobbering() {
        let mut buf = vec![0xAA, 0xBB];
        let resp = Response::DemandAccepted {
            queue_depth: 9,
            epoch: 3,
        };
        encode_response_into(Codec::Binary, &resp, &mut buf).unwrap();
        assert_eq!(&buf[..2], &[0xAA, 0xBB]);
        assert_eq!(decode_response(Codec::Binary, &buf[2..]).unwrap(), resp);
    }

    #[test]
    fn binary_is_denser_than_json_for_topology() {
        let resp = sample_responses().remove(1);
        let j = encode_response(Codec::Json, &resp).unwrap();
        let b = encode_response(Codec::Binary, &resp).unwrap();
        assert!(b.len() < j.len(), "binary {} >= json {}", b.len(), j.len());
    }
}
