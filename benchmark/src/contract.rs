//! The metric names, units and bounds this program reports, mirrored
//! from `BENCHMARK.json` (a unit test keeps the two identical).

pub struct EndToEnd {
    pub name: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "latency_min_s",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        bound: 0.25,
    },
    EndToEnd {
        name: "client_busy_min_s",
        bound: 0.25,
    },
    EndToEnd {
        name: "server_busy_min_s",
        bound: 0.25,
    },
    EndToEnd {
        name: "uplink_bytes_per_req",
        bound: 0.01,
    },
    EndToEnd {
        name: "downlink_bytes_per_req",
        bound: 0.01,
    },
];

pub const PER_LAYER: [&str; 71] = [
    "he.keygen_s",
    "he.public_key_s",
    "he.galois_keygen_per_key_s",
    "he.galois_serialize_per_key_s",
    "he.galois_deserialize_per_key_s",
    "he.galois_key_bytes",
    "he.encode_s",
    "he.encrypt_s",
    "he.decrypt_s",
    "he.decode_s",
    "he.ct_to_bytes_s",
    "he.ct_from_bytes_s",
    "he.ct_bytes",
    "he.rotate_s",
    "he.mult_plain_s",
    "he.lift_s",
    "he.add_s",
    "he.ntt_forward_s",
    "he.ntt_inverse_s",
    "he.rotations_per_req",
    "he.mult_plain_per_req",
    "he.add_per_req",
    "he.encrypt_per_req",
    "he.decrypt_per_req",
    "proto.client_send_s",
    "proto.client_recv_wait_s",
    "proto.server_send_s",
    "proto.server_recv_wait_s",
    "proto.send_blocked_s",
    "proto.frames_up_per_req",
    "proto.frames_down_per_req",
    "proto.galois_bytes_per_req",
    "proto.ct_bytes_up_per_req",
    "proto.ct_bytes_down_per_req",
    "proto.nonlinear_bytes_per_req",
    "proto.frame_encode_s",
    "proto.frame_decode_s",
    "session.client_new_s",
    "session.send_all_s",
    "session.serve_conv_s",
    "session.absorb_all_s",
    "session.galois_phase_s",
    "session.key_ingest_s",
    "session.input_cts_per_req",
    "session.output_cts_per_req",
    "stream.wall_s",
    "stream.server_busy_s",
    "stream.server_idle_s",
    "stream.client_blocked_s",
    "stream.server_busy_share",
    "heconv.kernel_cache_entries",
    "serving.kernel_cache_builds_cold",
    "serving.kernel_cache_hits_per_req",
    "serving.cold_first_request_s",
    "serving.cold_minus_warm_s",
    "serving.session_wall_s",
    "serving.rejects",
    "twoparty.conv1_s",
    "twoparty.conv2_s",
    "twoparty.relu_round_s",
    "twoparty.maxpool_round_s",
    "twoparty.reveal_s",
    "tensor.forward_plain_s",
    "model.predicted_rotations",
    "model.predicted_mult_plain",
    "model.predicted_input_cts",
    "bench.trace_overhead_share",
    "bench.budget_residual_share",
    "bench.samples",
    "bench.latency_traced_min_s",
    "bench.latency_p50_s",
];

/// A metric's unit follows from its name.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_share") {
        "ratio"
    } else if name.contains("bytes") {
        "B"
    } else {
        "count"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use spot_trace::json::{parse, Value};

    fn names(list: &Value) -> Vec<String> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_program_reports() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names(doc.get("workloads").unwrap()), workloads);

        let end_to_end = doc.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (listed, ours) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(listed.get("name").and_then(Value::as_str), Some(ours.name));
            assert_eq!(
                listed.get("unit").and_then(Value::as_str),
                Some(unit_of(ours.name))
            );
            assert_eq!(
                listed.get("bound").and_then(Value::as_f64),
                Some(ours.bound)
            );
            assert_eq!(listed.get("better").and_then(Value::as_str), Some("lower"));
        }

        let per_layer = doc.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(names(doc.get("per_layer").unwrap()), PER_LAYER);
        for listed in per_layer {
            let name = listed.get("name").and_then(Value::as_str).unwrap();
            assert_eq!(
                listed.get("unit").and_then(Value::as_str),
                Some(unit_of(name)),
                "{name}"
            );
        }
    }
}
