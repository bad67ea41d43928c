//! Chrome-trace-event JSON export (viewable in Perfetto / chrome://tracing).
//!
//! Morsel claims become `"X"` (complete) events — `ts` is the morsel's
//! start position, `dur` its simulated cost, `tid` the worker lane, `pid`
//! the socket — so Perfetto renders per-core timelines in simulated
//! cycles. Decisions become `"i"` (instant) events at their stamp. All
//! serialization is hand-rolled: no serde exists in this workspace.

use crate::event::{Arg, TraceRecord};

/// Escape a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on f64 never prints exponents for ordinary magnitudes and
        // always round-trips; guard the exotic ones.
        if s.contains('e') || s.contains('E') {
            format!("{v:.6}")
        } else {
            s
        }
    } else {
        // JSON has no NaN/Infinity; encode as null.
        "null".to_string()
    }
}

fn arg_json(arg: &Arg) -> String {
    match arg {
        Arg::U(v) => format!("{v}"),
        Arg::I(v) => format!("{v}"),
        Arg::F(v) => fmt_f64(*v),
        Arg::B(v) => format!("{v}"),
        Arg::S(v) => format!("\"{}\"", escape_json(v)),
        Arg::Order(v) => {
            let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
            format!("[{}]", items.join(","))
        }
        Arg::Shares(v) => {
            let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
            format!("[{}]", items.join(","))
        }
        Arg::Fs(v) => {
            let items: Vec<String> = v.iter().map(|x| fmt_f64(*x)).collect();
            format!("[{}]", items.join(","))
        }
    }
}

/// One record as a Chrome trace event object.
fn event_json(record: &TraceRecord) -> String {
    use crate::event::TraceEvent;
    let mut args: Vec<String> = vec![
        format!("\"query\":{}", record.query),
        format!("\"ordinal\":{}", record.stamp.ordinal),
    ];
    for (k, v) in record.event.args() {
        args.push(format!("\"{}\":{}", k, arg_json(&v)));
    }
    let args = args.join(",");
    let name = record.event.kind();
    match &record.event {
        TraceEvent::MorselClaim {
            socket,
            start_cycles,
            cycles,
            ..
        } => format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{start_cycles},\"dur\":{cycles},\"pid\":{socket},\"tid\":{lane},\"args\":{{{args}}}}}",
            lane = record.stamp.lane,
        ),
        _ => format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{lane},\"args\":{{{args}}}}}",
            ts = record.stamp.cycles,
            lane = record.stamp.lane,
        ),
    }
}

/// A full Chrome trace document over the given records. Records are
/// sorted by `(query, cycles, lane, ordinal)` first, so the document
/// reads in simulated-time order whatever order the sink collected
/// events in.
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let mut sorted: Vec<&TraceRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.query, r.stamp.cycles, r.stamp.lane, r.stamp.ordinal));
    let events: Vec<String> = sorted.iter().map(|r| event_json(r)).collect();
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Stamp, TraceEvent};
    use crate::json::validate_json;

    fn morsel_record() -> TraceRecord {
        TraceRecord {
            query: 1,
            stamp: Stamp {
                lane: 2,
                cycles: 500,
                ordinal: 3,
            },
            event: TraceEvent::MorselClaim {
                socket: 1,
                start_row: 1024,
                rows: 1024,
                start_cycles: 400,
                cycles: 100,
                trial: true,
                epoch: 2,
            },
        }
    }

    fn decision_record() -> TraceRecord {
        TraceRecord {
            query: 0,
            stamp: Stamp {
                lane: 0,
                cycles: 42,
                ordinal: 0,
            },
            event: TraceEvent::TrialAccept {
                socket: 0,
                order: vec![1, 0],
                baseline_cpt: 3.5,
                trial_cpt: 2.25,
                epoch: 1,
            },
        }
    }

    #[test]
    fn morsels_are_complete_events_with_socket_pid() {
        let json = event_json(&morsel_record());
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":400"));
        assert!(json.contains("\"dur\":100"));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"trial\":true"));
        validate_json(&json).expect("morsel event is valid JSON");
    }

    #[test]
    fn decisions_are_instant_events_at_their_stamp() {
        let json = event_json(&decision_record());
        assert!(json.contains("\"name\":\"trial_accept\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":42"));
        assert!(json.contains("\"order\":[1,0]"));
        assert!(json.contains("\"baseline_cpt\":3.5"));
        validate_json(&json).expect("decision event is valid JSON");
    }

    #[test]
    fn chrome_trace_sorts_and_validates() {
        let doc = chrome_trace(&[morsel_record(), decision_record()]);
        validate_json(&doc).expect("document is valid JSON");
        let accept = doc.find("trial_accept").unwrap();
        let morsel = doc.find("\"name\":\"morsel\"").unwrap();
        assert!(accept < morsel, "query 0 sorts before query 1");
        validate_json(&chrome_trace(&[])).expect("empty document is valid");
    }

    #[test]
    fn escaping_handles_quotes_and_control_bytes() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        let rec = TraceRecord {
            query: 0,
            stamp: Stamp {
                lane: 0,
                cycles: 0,
                ordinal: 0,
            },
            event: TraceEvent::Admit {
                label: "scan \"hot\"\n".to_string(),
                priority: "high",
                arrival_cycles: 0,
            },
        };
        validate_json(&event_json(&rec)).expect("escaped label stays valid");
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(0.25), "0.25");
        validate_json(&fmt_f64(1e300)).expect("large floats encode as valid JSON numbers");
    }
}
