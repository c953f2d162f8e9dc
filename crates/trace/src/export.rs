//! Trace exporter: chrome://tracing JSON.
//!
//! The exporter is a pure function of the event slice, so exporting can
//! never perturb simulation state.

use crate::event::TraceEvent;
use crate::tracer::digest_of;

/// Renders events as chrome://tracing "JSON Object Format", loadable in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// Every event becomes an instant event (`"ph": "i"`): `name` is the event
/// label, `cat` the category name, `ts` the sim timestamp in microseconds,
/// `pid` is always 1 (one simulated SUT), and `tid` is the trace id so each
/// request (or core, for quantum events) gets its own track.
#[must_use]
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let micros = ev.at.as_nanos() as f64 / 1e3;
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{micros:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"arg\":{}}}}}",
            ev.what.label(),
            ev.what.category().name(),
            ev.trace_id,
            ev.what.arg()
        ));
    }
    out.push_str(&format!(
        "\n],\"otherData\":{{\"traceDigest\":\"{:#018x}\",\"eventCount\":{}}}}}\n",
        digest_of(events),
        events.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceCategory, TraceEventKind};
    use jas_simkernel::SimTime;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                at: SimTime::from_millis(1),
                trace_id: 7,
                what: TraceEventKind::RequestAdmitted { kind: 2 },
            },
            TraceEvent {
                at: SimTime::from_millis(2),
                trace_id: 7,
                what: TraceEventKind::DbLockWait { table: 3 },
            },
            TraceEvent {
                at: SimTime::from_millis(3),
                trace_id: 0,
                what: TraceEventKind::GcPauseEnd {
                    pause_nanos: 1_234_567,
                },
            },
        ]
    }

    #[test]
    fn chrome_json_mentions_every_event_once() {
        let events = sample();
        let json = to_chrome_json(&events);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), events.len());
        for ev in &events {
            assert!(json.contains(ev.what.label()), "label {}", ev.what.label());
        }
        assert!(json.contains(&format!("{:#018x}", digest_of(&events))));
        assert!(json.contains(TraceCategory::Db.name()));
    }
}
