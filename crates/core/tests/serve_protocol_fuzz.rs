//! Protocol robustness: no matter how malformed, truncated, oversized,
//! or type-confused a request frame is, `Session::handle_line` must
//! answer a valid `ompgpu-serve/v1` envelope with a nonzero exit code —
//! and the session must stay usable afterwards.

use omp_gpu::serve::{Session, EXIT_OK, EXIT_USAGE, MAX_FRAME_BYTES, SCHEMA};
use omp_json::Value;
use proptest::prelude::*;

/// Feeds one frame and asserts the protocol invariants hold: the reply
/// parses, carries the schema, and (for `expect_error`) a nonzero exit
/// code; a follow-up ping then proves the session survived.
fn assert_survives(session: &mut Session, frame: &str, expect_error: bool) {
    let (resp, shutdown) = session.handle_line(frame);
    assert!(!shutdown, "no fuzzed frame may shut the session down");
    let v =
        omp_json::parse(&resp).unwrap_or_else(|e| panic!("reply must be valid JSON ({e}): {resp}"));
    assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
    let exit = v
        .get("exit_code")
        .and_then(Value::as_u64)
        .expect("exit_code present");
    if expect_error {
        assert_ne!(exit, EXIT_OK as u64, "bad frame must not succeed: {resp}");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert!(v.get("error").is_some(), "errors carry an error object");
    }
    let (pong, _) = session.handle_line("{\"op\":\"ping\"}");
    assert!(
        pong.contains("\"pong\":true"),
        "session must stay usable after {frame:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary ASCII soup (almost never valid JSON, never a valid
    /// request) gets a structured usage error.
    #[test]
    fn arbitrary_text_yields_structured_errors(frame in "[ -~]{0,120}") {
        let mut s = Session::default();
        let (resp, shutdown) = s.handle_line(&frame);
        prop_assert!(!shutdown);
        let v = omp_json::parse(&resp).expect("reply is valid JSON");
        prop_assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        prop_assert!(v.get("exit_code").and_then(Value::as_u64).is_some());
        let (pong, _) = s.handle_line("{\"op\":\"ping\"}");
        prop_assert!(pong.contains("\"pong\":true"));
    }

    /// Truncations of a valid request are malformed JSON (or a field
    /// subset) and must never panic or wedge the session.
    #[test]
    fn truncated_requests_never_wedge(cut in 1usize..60) {
        let full = "{\"op\":\"run\",\"source\":\"void k() {}\",\"kernel\":\"k\",\"deadline_ms\":1000}";
        let keep = full.len().saturating_sub(cut);
        let frame: String = full.chars().take(keep).collect();
        let mut s = Session::default();
        let (resp, shutdown) = s.handle_line(&frame);
        prop_assert!(!shutdown);
        prop_assert!(omp_json::parse(&resp).is_ok(), "{}", resp);
        let (pong, _) = s.handle_line("{\"op\":\"ping\"}");
        prop_assert!(pong.contains("\"pong\":true"));
    }

    /// Type confusion: every known field with a wrong-typed value must
    /// produce a structured usage error, never a panic.
    #[test]
    fn type_confused_fields_are_usage_errors(
        field in prop_oneof![
            Just("id"), Just("source"), Just("config"), Just("kernel"),
            Just("teams"), Just("threads"), Just("args"), Just("jobs"),
            Just("watchdog_secs"), Just("max_insts"), Just("dump"),
            Just("deadline_ms"), Just("fault"),
        ],
        bad in prop_oneof![
            Just("[]"), Just("{}"), Just("\"x\""), Just("-1"),
            Just("1.5"), Just("true"), Just("[1,2]"),
            Just("{\"stage\":7}"), Just("{\"stage\":\"warp\"}"),
            Just("{\"stage\":\"launch\",\"mode\":\"explode\"}"),
        ],
    ) {
        // Every combination fails somewhere: either field validation
        // rejects the type, or (when the value happens to type-check,
        // like kernel:"x") the run itself fails on the kernel-less
        // stub source — there is no path to exit code 0.
        let frame = format!("{{\"op\":\"run\",\"source\":\"void k() {{}}\",{field:?}:{bad}}}");
        let mut s = Session::default();
        assert_survives(&mut s, &frame, true);
    }
}

#[test]
fn type_confused_op_and_oversized_frames() {
    let mut s = Session::default();
    for frame in [
        "{\"op\":3}",
        "{\"op\":null}",
        "{\"op\":[\"ping\"]}",
        "{\"op\":{\"name\":\"ping\"}}",
        "[1,2,3]",
        "\"just a string\"",
        "42",
        "null",
        "{}",
    ] {
        assert_survives(&mut s, frame, true);
    }
    // A frame just past the limit is rejected with the structured
    // frame-too-large usage error even through handle_line.
    let huge = format!(
        "{{\"op\":\"ping\",\"pad\":\"{}\"}}",
        "y".repeat(MAX_FRAME_BYTES)
    );
    assert_survives(&mut s, &huge, true);
}

#[test]
fn out_of_range_launch_fields_are_usage_errors() {
    // 2^32 + 1 would truncate to 1 under an `as u32` cast and run; it
    // must instead be refused before dispatch.
    let mut s = Session::default();
    for field in ["teams", "threads", "jobs"] {
        for n in [u32::MAX as u64 + 1, u32::MAX as u64 * 2 + 2] {
            let frame = format!(
                "{{\"op\":\"run\",\"source\":\"void k() {{}}\",\"kernel\":\"k\",{field:?}:{n}}}"
            );
            let (resp, _) = s.handle_line(&frame);
            let v = omp_json::parse(&resp).expect("reply is valid JSON");
            assert_eq!(
                v.get("exit_code").and_then(Value::as_u64),
                Some(EXIT_USAGE as u64),
                "{resp}"
            );
            let msg = v
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .unwrap_or_default();
            assert!(
                msg.contains(field) && msg.contains("out of range"),
                "{resp}"
            );
            assert_survives(&mut s, &frame, true);
        }
    }
}
