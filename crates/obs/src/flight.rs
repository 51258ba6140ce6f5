//! Flight recorder: a fixed-size ring of the most recent raw events per
//! design, for post-mortem inspection.
//!
//! Full JSONL traces of bench-scale runs are gigabytes; the flight
//! recorder keeps only the last [`FlightRecorder::capacity`] events of
//! each design (shards of one design share a ring, so the dump shows
//! the interleaving that actually happened) and can dump them on
//! panic, on a watchdog anomaly, or on demand — the bench harness wires
//! all three behind `--flight-out`.
//!
//! The dump is ordinary trace JSONL (same field spelling as
//! [`crate::jsonl`]), prefixed per design with one meta line recording
//! how many earlier events the ring dropped. The trace parser skips that
//! line and [`crate::replay`] adds up the dropped counts. A dump that
//! dropped nothing replays to the in-process analysis. One that dropped
//! events holds only the tail of each stream, which cannot satisfy the
//! conservation identities, so `analyze` prints its summary sections
//! and the dropped count, says conservation is not checked, writes no
//! `ANALYSIS.json` or HTML report and exits 0.

use crate::json::Json;
use crate::jsonl::event_fields;
use metal_sim::obs::{Event, EventSink};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Default ring capacity per design (events).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// One recorded event with its stream labels.
#[derive(Debug, Clone, Copy)]
struct FlightRec {
    shard: u64,
    at: u64,
    ev: Event,
}

/// One design's ring.
#[derive(Debug, Default)]
struct Ring {
    buf: VecDeque<FlightRec>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, cap: usize, rec: FlightRec) {
        if self.buf.len() == cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }
}

/// Process-wide flight recorder; hand out one [`FlightSink`] per
/// (design, shard) via [`FlightRecorder::sink`].
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    rings: Mutex<BTreeMap<String, Arc<Mutex<Ring>>>>,
}

impl FlightRecorder {
    /// Creates a recorder keeping the last `capacity` events per design.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(FlightRecorder {
            capacity: capacity.max(1),
            rings: Mutex::new(BTreeMap::new()),
        })
    }

    /// Ring capacity per design.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// An event sink recording into `design`'s ring.
    pub fn sink(self: &Arc<Self>, design: &str, shard: u64) -> FlightSink {
        let ring = Arc::clone(
            self.rings
                .lock()
                .expect("flight rings poisoned")
                .entry(design.to_string())
                .or_default(),
        );
        FlightSink {
            shard,
            ring,
            capacity: self.capacity,
        }
    }

    /// Renders every ring as JSONL: per design one meta line
    /// (`{"design":…,"flight_dropped":N,"flight_len":N}`) followed by
    /// its recorded events, oldest first.
    pub fn dump_jsonl(&self) -> String {
        let rings = self.rings.lock().expect("flight rings poisoned");
        let mut out = String::new();
        for (design, ring) in rings.iter() {
            let ring = ring.lock().expect("flight ring poisoned");
            Json::Obj(vec![
                ("design".into(), Json::str(design.as_str())),
                ("flight_dropped".into(), Json::UInt(ring.dropped)),
                ("flight_len".into(), Json::UInt(ring.buf.len() as u64)),
            ])
            .write(&mut out);
            out.push('\n');
            for rec in ring.buf.iter() {
                let mut fields = vec![
                    ("design", Json::str(design.as_str())),
                    ("shard", Json::UInt(rec.shard)),
                    ("at", Json::UInt(rec.at)),
                    ("ev", Json::str(rec.ev.kind())),
                ];
                fields.extend(event_fields(&rec.ev));
                Json::Obj(
                    fields
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                )
                .write(&mut out);
                out.push('\n');
            }
        }
        out
    }

    /// Writes the dump to `path` (truncating).
    pub fn dump_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.dump_jsonl().as_bytes())?;
        f.flush()
    }
}

/// Per-(design, shard) sink feeding the shared ring. Recording takes
/// the design's ring lock per event, so the recorder is for opted-in
/// post-mortem runs, not the zero-cost default path.
pub struct FlightSink {
    shard: u64,
    ring: Arc<Mutex<Ring>>,
    capacity: usize,
}

impl EventSink for FlightSink {
    fn emit(&mut self, at: u64, ev: &Event) {
        self.ring.lock().expect("flight ring poisoned").push(
            self.capacity,
            FlightRec {
                shard: self.shard,
                at,
                ev: *ev,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let rec = FlightRecorder::new(3);
        let mut sink = rec.sink("metal", 0);
        for walk in 0..10 {
            sink.emit(walk, &Event::WalkStart { walk, lane: 0 });
        }
        let dump = rec.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 4, "meta line + 3 ring entries");
        let meta = Json::parse(lines[0]).unwrap();
        assert_eq!(meta.get("flight_dropped").unwrap().as_u64(), Some(7));
        assert_eq!(meta.get("flight_len").unwrap().as_u64(), Some(3));
        let walks: Vec<u64> = lines[1..]
            .iter()
            .map(|l| {
                Json::parse(l)
                    .unwrap()
                    .get("walk")
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert_eq!(walks, vec![7, 8, 9], "oldest dropped, order kept");
    }

    #[test]
    fn shards_share_a_design_ring_and_lines_parse_as_trace() {
        let rec = FlightRecorder::new(8);
        let mut s0 = rec.sink("metal", 0);
        let mut s1 = rec.sink("metal", 1);
        s0.emit(5, &Event::WalkStart { walk: 1, lane: 0 });
        s1.emit(
            6,
            &Event::WalkEnd {
                walk: 1,
                lane: 0,
                latency: 42,
            },
        );
        let dump = rec.dump_jsonl();
        let lines: Vec<Json> = dump.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1].get("shard").unwrap().as_u64(), Some(0));
        assert_eq!(lines[2].get("shard").unwrap().as_u64(), Some(1));
        assert_eq!(lines[2].get("ev").unwrap().as_str(), Some("walk_end"));
        assert_eq!(lines[2].get("latency").unwrap().as_u64(), Some(42));
    }
}
