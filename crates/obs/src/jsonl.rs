//! JSONL traces: one JSON object per line, one line per event — the
//! writer and its strict inverse, the one trace parser.
//!
//! Layout: a process-wide [`JsonlWriter`] owns the output file behind a
//! mutex; each (design, shard) simulation gets its own [`JsonlSink`]
//! that buffers rendered lines locally and only takes the writer lock
//! when the buffer fills or the shard flushes. Lines from concurrent
//! shards therefore interleave at line granularity — never mid-line —
//! and each line carries its `design`/`shard` labels so a reader can
//! demultiplex the streams.
//!
//! Line schema (field order fixed):
//!
//! ```json
//! {"run":"fig20","design":"metal","shard":0,"at":1234,"ev":"ix_probe", …payload}
//! ```
//!
//! [`TraceLine::parse`] is the inverse: every offline reader turns a
//! line back into the typed [`Event`] and feeds the same reducers the
//! in-process sinks do. Adding an event therefore means a variant, an
//! [`event_fields`] arm and a parse arm; the round-trip test over every
//! variant and tag fails the build or the suite until all three agree.

use crate::json::Json;
use metal_sim::obs::{AdmitReason, Event, EventSink, EvictReason, MutKind, PackMode, TunedParam};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The payload fields of one event, in stable order, as JSON values.
/// Shared by the JSONL and Chrome writers so both spell fields the same.
pub fn event_fields(ev: &Event) -> Vec<(&'static str, Json)> {
    match *ev {
        Event::WalkStart { walk, lane } => vec![
            ("walk", Json::UInt(walk)),
            ("lane", Json::UInt(lane as u64)),
        ],
        Event::WalkEnd {
            walk,
            lane,
            latency,
        } => vec![
            ("walk", Json::UInt(walk)),
            ("lane", Json::UInt(lane as u64)),
            ("latency", Json::UInt(latency)),
        ],
        Event::WalkBreakdown {
            walk,
            lane,
            ix_probe,
            compute,
            queue,
            stall,
            hidden,
            latency,
        } => vec![
            ("walk", Json::UInt(walk)),
            ("lane", Json::UInt(lane as u64)),
            ("ix_probe", Json::UInt(ix_probe)),
            ("compute", Json::UInt(compute)),
            ("queue", Json::UInt(queue)),
            ("stall", Json::UInt(stall)),
            ("hidden", Json::UInt(hidden)),
            ("latency", Json::UInt(latency)),
        ],
        Event::DramFetch {
            lane,
            addr,
            bytes,
            done,
        } => vec![
            ("lane", Json::UInt(lane as u64)),
            ("addr", Json::UInt(addr)),
            ("bytes", Json::UInt(bytes)),
            ("done", Json::UInt(done)),
        ],
        Event::IxProbe {
            index,
            key,
            hit,
            level,
            short_circuit,
            set,
            scan,
            entry,
        } => vec![
            ("index", Json::UInt(index as u64)),
            ("key", Json::UInt(key)),
            ("hit", Json::Bool(hit)),
            ("level", Json::UInt(level as u64)),
            ("short_circuit", Json::UInt(short_circuit as u64)),
            ("set", Json::UInt(set as u64)),
            ("scan", Json::Bool(scan)),
            ("entry", Json::UInt(entry)),
        ],
        Event::Insert {
            index,
            level,
            set,
            life,
            reason,
        } => vec![
            ("index", Json::UInt(index as u64)),
            ("level", Json::UInt(level as u64)),
            ("set", Json::UInt(set as u64)),
            ("life", Json::UInt(life as u64)),
            ("reason", Json::str(reason.as_str())),
        ],
        Event::Bypass {
            index,
            level,
            reason,
        } => vec![
            ("index", Json::UInt(index as u64)),
            ("level", Json::UInt(level as u64)),
            ("reason", Json::str(reason.as_str())),
        ],
        Event::Fill {
            index,
            level,
            set,
            entry,
            pack,
        } => vec![
            ("index", Json::UInt(index as u64)),
            ("level", Json::UInt(level as u64)),
            ("set", Json::UInt(set as u64)),
            ("entry", Json::UInt(entry)),
            ("pack", Json::str(pack.as_str())),
        ],
        Event::Coalesce {
            index,
            level,
            set,
            entry,
        } => vec![
            ("index", Json::UInt(index as u64)),
            ("level", Json::UInt(level as u64)),
            ("set", Json::UInt(set as u64)),
            ("entry", Json::UInt(entry)),
        ],
        Event::Evict {
            index,
            level,
            set,
            reason,
            entry,
            lo,
            hi,
            for_entry,
        } => vec![
            ("index", Json::UInt(index as u64)),
            ("level", Json::UInt(level as u64)),
            ("set", Json::UInt(set as u64)),
            ("reason", Json::str(reason.as_str())),
            ("entry", Json::UInt(entry)),
            ("lo", Json::UInt(lo)),
            ("hi", Json::UInt(hi)),
            ("for_entry", Json::UInt(for_entry)),
        ],
        Event::Split {
            index,
            level,
            lo,
            hi,
            op,
        } => vec![
            ("index", Json::UInt(index as u64)),
            ("level", Json::UInt(level as u64)),
            ("lo", Json::UInt(lo)),
            ("hi", Json::UInt(hi)),
            ("op", Json::str(op.as_str())),
        ],
        Event::Invalidate {
            index,
            level,
            set,
            entry,
            lo,
            hi,
            killed,
        } => vec![
            ("index", Json::UInt(index as u64)),
            ("level", Json::UInt(level as u64)),
            ("set", Json::UInt(set as u64)),
            ("entry", Json::UInt(entry)),
            ("lo", Json::UInt(lo)),
            ("hi", Json::UInt(hi)),
            ("killed", Json::Bool(killed)),
        ],
        Event::TunerDecision {
            index,
            batch,
            param,
            from,
            to,
        } => vec![
            ("index", Json::UInt(index as u64)),
            ("batch", Json::UInt(batch)),
            ("param", Json::str(param.as_str())),
            ("from", Json::UInt(from)),
            ("to", Json::UInt(to)),
        ],
    }
}

/// One trace line parsed back into its stream labels and typed event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceLine {
    /// Run label (`"?"` when absent: flight dumps carry none).
    pub run: String,
    /// Design label (`"?"` when absent).
    pub design: String,
    /// Shard label (0 when absent).
    pub shard: u64,
    /// Simulated cycle the event was stamped at.
    pub at: u64,
    /// The event.
    pub ev: Event,
}

impl TraceLine {
    /// Parses one trace object, the inverse of [`JsonlSink`]'s rendering.
    /// Labels are tolerant, the payload is strict: an unknown `ev`, a
    /// missing or mistyped field, an unknown tag or an integer outside
    /// its field's type is an error. A flight-recorder meta line (the one
    /// carrying `flight_dropped`) is no event and parses to `Ok(None)`.
    pub fn parse(v: &Json) -> Result<Option<TraceLine>, String> {
        if v.get("flight_dropped").is_some() {
            return Ok(None);
        }
        let label = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        let kind = field(v, "ev")?
            .as_str()
            .ok_or("field \"ev\" is not a string")?;
        Ok(Some(TraceLine {
            run: label("run"),
            design: label("design"),
            shard: v.get("shard").and_then(Json::as_u64).unwrap_or(0),
            at: int(v, "at")?,
            ev: parse_event(kind, v)?,
        }))
    }
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

/// An unsigned integer field that must fit its event field's type.
fn int<T: TryFrom<u64>>(v: &Json, key: &str) -> Result<T, String> {
    let n = field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an unsigned integer"))?;
    T::try_from(n).map_err(|_| format!("field {key:?}: {n} is out of range"))
}

fn flag(v: &Json, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} is not a boolean"))
}

fn tag<T>(v: &Json, key: &str, parse: fn(&str) -> Option<T>) -> Result<T, String> {
    let s = field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))?;
    parse(s).ok_or_else(|| format!("field {key:?}: unknown tag {s:?}"))
}

/// The payload of an `ev` = `kind` line: the inverse of [`event_fields`].
fn parse_event(kind: &str, v: &Json) -> Result<Event, String> {
    Ok(match kind {
        "walk_start" => Event::WalkStart {
            walk: int(v, "walk")?,
            lane: int(v, "lane")?,
        },
        "walk_end" => Event::WalkEnd {
            walk: int(v, "walk")?,
            lane: int(v, "lane")?,
            latency: int(v, "latency")?,
        },
        "walk_breakdown" => Event::WalkBreakdown {
            walk: int(v, "walk")?,
            lane: int(v, "lane")?,
            ix_probe: int(v, "ix_probe")?,
            compute: int(v, "compute")?,
            queue: int(v, "queue")?,
            stall: int(v, "stall")?,
            hidden: int(v, "hidden")?,
            latency: int(v, "latency")?,
        },
        "dram_fetch" => Event::DramFetch {
            lane: int(v, "lane")?,
            addr: int(v, "addr")?,
            bytes: int(v, "bytes")?,
            done: int(v, "done")?,
        },
        "ix_probe" => Event::IxProbe {
            index: int(v, "index")?,
            key: int(v, "key")?,
            hit: flag(v, "hit")?,
            level: int(v, "level")?,
            short_circuit: int(v, "short_circuit")?,
            set: int(v, "set")?,
            scan: flag(v, "scan")?,
            entry: int(v, "entry")?,
        },
        "insert" => Event::Insert {
            index: int(v, "index")?,
            level: int(v, "level")?,
            set: int(v, "set")?,
            life: int(v, "life")?,
            reason: tag(v, "reason", AdmitReason::parse)?,
        },
        "bypass" => Event::Bypass {
            index: int(v, "index")?,
            level: int(v, "level")?,
            reason: tag(v, "reason", AdmitReason::parse)?,
        },
        "fill" => Event::Fill {
            index: int(v, "index")?,
            level: int(v, "level")?,
            set: int(v, "set")?,
            entry: int(v, "entry")?,
            pack: tag(v, "pack", PackMode::parse)?,
        },
        "coalesce" => Event::Coalesce {
            index: int(v, "index")?,
            level: int(v, "level")?,
            set: int(v, "set")?,
            entry: int(v, "entry")?,
        },
        "evict" => Event::Evict {
            index: int(v, "index")?,
            level: int(v, "level")?,
            set: int(v, "set")?,
            reason: tag(v, "reason", EvictReason::parse)?,
            entry: int(v, "entry")?,
            lo: int(v, "lo")?,
            hi: int(v, "hi")?,
            for_entry: int(v, "for_entry")?,
        },
        "split" => Event::Split {
            index: int(v, "index")?,
            level: int(v, "level")?,
            lo: int(v, "lo")?,
            hi: int(v, "hi")?,
            op: tag(v, "op", MutKind::parse)?,
        },
        "invalidate" => Event::Invalidate {
            index: int(v, "index")?,
            level: int(v, "level")?,
            set: int(v, "set")?,
            entry: int(v, "entry")?,
            lo: int(v, "lo")?,
            hi: int(v, "hi")?,
            killed: flag(v, "killed")?,
        },
        "tuner_decision" => Event::TunerDecision {
            index: int(v, "index")?,
            batch: int(v, "batch")?,
            param: tag(v, "param", TunedParam::parse)?,
            from: int(v, "from")?,
            to: int(v, "to")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    })
}

/// Streaming JSONL reader: parses one line at a time into a reused
/// buffer, so multi-GB traces read in constant memory — the whole file
/// is never resident, and a line longer than the writer's flush
/// threshold only grows the single line buffer. `analyze` reads traces
/// through this.
pub struct JsonlReader<R> {
    input: BufReader<R>,
    buf: String,
    line_no: u64,
    dropped: u64,
}

impl JsonlReader<File> {
    /// Opens `path` for streaming reads.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<JsonlReader<File>> {
        Ok(JsonlReader::from_reader(File::open(path)?))
    }
}

impl<R: Read> JsonlReader<R> {
    /// Wraps an arbitrary reader (tests, stdin).
    pub fn from_reader(input: R) -> JsonlReader<R> {
        JsonlReader {
            input: BufReader::new(input),
            buf: String::new(),
            line_no: 0,
            dropped: 0,
        }
    }

    /// The 1-based number of the line the last [`JsonlReader::next_line`]
    /// returned (0 before the first read) — for error messages.
    pub fn line_no(&self) -> u64 {
        self.line_no
    }

    /// Reads and parses the next non-empty line. Returns `Ok(None)` at
    /// end of input; malformed JSON or an I/O failure is an `Err` naming
    /// the line number.
    pub fn next_line(&mut self) -> Result<Option<Json>, String> {
        loop {
            self.buf.clear();
            let n = self
                .input
                .read_line(&mut self.buf)
                .map_err(|e| format!("line {}: read error: {e}", self.line_no + 1))?;
            if n == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let line = self.buf.trim();
            if line.is_empty() {
                continue;
            }
            return Json::parse(line)
                .map(Some)
                .map_err(|e| format!("line {}: bad JSON: {e:?}", self.line_no));
        }
    }

    /// The events the flight-recorder meta lines read so far say their
    /// rings dropped (0 for an ordinary trace).
    pub fn flight_dropped(&self) -> u64 {
        self.dropped
    }

    /// Reads the next event through [`TraceLine::parse`], skipping
    /// flight-recorder meta lines (their dropped counts add up in
    /// [`JsonlReader::flight_dropped`]). Returns `Ok(None)` at end of
    /// input; a malformed line is an `Err` naming its line number.
    pub fn next_event(&mut self) -> Result<Option<TraceLine>, String> {
        while let Some(v) = self.next_line()? {
            match TraceLine::parse(&v).map_err(|e| format!("line {}: {e}", self.line_no))? {
                Some(line) => return Ok(Some(line)),
                None => self.dropped += v.get("flight_dropped").and_then(Json::as_u64).unwrap_or(0),
            }
        }
        Ok(None)
    }
}

/// Shared, thread-safe sink target: owns the output stream, appends
/// whole rendered chunks under one lock.
pub struct JsonlWriter {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlWriter {
    /// Creates (truncates) `path` as the trace file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Arc<Self>> {
        let file = File::create(path)?;
        Ok(Arc::new(JsonlWriter {
            out: Mutex::new(Box::new(BufWriter::new(file))),
        }))
    }

    /// Wraps an arbitrary writer (tests, stdout).
    pub fn from_writer(w: impl Write + Send + 'static) -> Arc<Self> {
        Arc::new(JsonlWriter {
            out: Mutex::new(Box::new(w)),
        })
    }

    /// Appends a pre-rendered chunk of whole lines and flushes it.
    fn append(&self, chunk: &str) {
        let mut out = self.out.lock().expect("trace writer poisoned");
        let _ = out.write_all(chunk.as_bytes());
        let _ = out.flush();
    }
}

/// Local buffer size that triggers an early flush to the shared writer.
const FLUSH_BYTES: usize = 1 << 16;

/// Per-(design, shard) JSONL event sink.
pub struct JsonlSink {
    run: String,
    design: String,
    shard: u64,
    buf: String,
    out: Arc<JsonlWriter>,
}

impl JsonlSink {
    /// Creates a sink labelling its lines `run`/`design`/`shard`.
    pub fn new(out: Arc<JsonlWriter>, run: &str, design: &str, shard: u64) -> Self {
        JsonlSink {
            run: run.to_string(),
            design: design.to_string(),
            shard,
            buf: String::new(),
            out,
        }
    }
}

impl EventSink for JsonlSink {
    fn emit(&mut self, at: u64, ev: &Event) {
        let mut fields = vec![
            ("run", Json::str(self.run.as_str())),
            ("design", Json::str(self.design.as_str())),
            ("shard", Json::UInt(self.shard)),
            ("at", Json::UInt(at)),
            ("ev", Json::str(ev.kind())),
        ];
        fields.extend(event_fields(ev));
        let obj = Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
        obj.write(&mut self.buf);
        self.buf.push('\n');
        if self.buf.len() >= FLUSH_BYTES {
            self.out.append(&self.buf);
            self.buf.clear();
        }
    }

    fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.out.append(&self.buf);
            self.buf.clear();
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use metal_sim::obs::WIDE_SET;
    use std::collections::BTreeSet;

    /// Collects appended chunks into a shared string.
    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<String>>);

    /// `events` as the real writer renders them, as one stream labelled
    /// ("run", "metal", 0).
    pub(crate) fn render(events: &[(u64, Event)]) -> String {
        let cap = Capture::default();
        let mut sink = JsonlSink::new(JsonlWriter::from_writer(cap.clone()), "run", "metal", 0);
        for (at, ev) in events {
            sink.emit(*at, ev);
        }
        sink.flush();
        let text = cap.0.lock().unwrap().clone();
        text
    }

    /// Every event of a rendered trace, read back through the parser.
    pub(crate) fn parse_all(text: &str) -> Vec<TraceLine> {
        let mut reader = JsonlReader::from_reader(text.as_bytes());
        std::iter::from_fn(|| reader.next_event().expect("trace line parses")).collect()
    }

    /// The next variant in a chain through every [`Event`] variant. The
    /// match has no wildcard, so a new variant fails the build here until
    /// it joins the chain, and with it the round trip below.
    fn successor(ev: &Event) -> Option<Event> {
        Some(match ev {
            Event::WalkStart { .. } => Event::WalkEnd {
                walk: 7,
                lane: 3,
                latency: 90,
            },
            Event::WalkEnd { .. } => Event::WalkBreakdown {
                walk: 7,
                lane: 3,
                ix_probe: 1,
                compute: 2,
                queue: 3,
                stall: 4,
                hidden: 5,
                latency: 15,
            },
            Event::WalkBreakdown { .. } => Event::DramFetch {
                lane: u32::MAX,
                addr: 640,
                bytes: 64,
                done: 99,
            },
            Event::DramFetch { .. } => Event::IxProbe {
                index: u8::MAX,
                key: u64::MAX,
                hit: true,
                level: 2,
                short_circuit: 2,
                set: WIDE_SET,
                scan: false,
                entry: 11,
            },
            Event::IxProbe { .. } => Event::Insert {
                index: 1,
                level: 2,
                set: 5,
                life: 64,
                reason: AdmitReason::All,
            },
            Event::Insert { .. } => Event::Bypass {
                index: 1,
                level: 0,
                reason: AdmitReason::All,
            },
            Event::Bypass { .. } => Event::Fill {
                index: 1,
                level: 2,
                set: 5,
                entry: 12,
                pack: PackMode::Exact,
            },
            Event::Fill { .. } => Event::Coalesce {
                index: 1,
                level: 2,
                set: 5,
                entry: 12,
            },
            Event::Coalesce { .. } => Event::Evict {
                index: 1,
                level: 2,
                set: 5,
                reason: EvictReason::Capacity,
                entry: 12,
                lo: 100,
                hi: 163,
                for_entry: 13,
            },
            Event::Evict { .. } => Event::Split {
                index: 0,
                level: 1,
                lo: 10,
                hi: 90,
                op: MutKind::Split,
            },
            Event::Split { .. } => Event::Invalidate {
                index: 0,
                level: 1,
                set: 6,
                entry: 14,
                lo: 10,
                hi: 90,
                killed: true,
            },
            Event::Invalidate { .. } => Event::TunerDecision {
                index: 0,
                batch: 3,
                param: TunedParam::Pivot,
                from: 10,
                to: 20,
            },
            Event::TunerDecision { .. } => return None,
        })
    }

    /// `ev` once per value of its tag field (just `ev` when it has none).
    fn with_every_tag(ev: Event) -> Vec<Event> {
        match ev {
            Event::Insert {
                index,
                level,
                set,
                life,
                ..
            } => AdmitReason::ALL
                .iter()
                .map(|&reason| Event::Insert {
                    index,
                    level,
                    set,
                    life,
                    reason,
                })
                .collect(),
            Event::Bypass { index, level, .. } => AdmitReason::ALL
                .iter()
                .map(|&reason| Event::Bypass {
                    index,
                    level,
                    reason,
                })
                .collect(),
            Event::Fill {
                index,
                level,
                set,
                entry,
                ..
            } => PackMode::ALL
                .iter()
                .map(|&pack| Event::Fill {
                    index,
                    level,
                    set,
                    entry,
                    pack,
                })
                .collect(),
            Event::Evict {
                index,
                level,
                set,
                entry,
                lo,
                hi,
                for_entry,
                ..
            } => EvictReason::ALL
                .iter()
                .map(|&reason| Event::Evict {
                    index,
                    level,
                    set,
                    reason,
                    entry,
                    lo,
                    hi,
                    for_entry,
                })
                .collect(),
            Event::Split {
                index,
                level,
                lo,
                hi,
                ..
            } => MutKind::ALL
                .iter()
                .map(|&op| Event::Split {
                    index,
                    level,
                    lo,
                    hi,
                    op,
                })
                .collect(),
            Event::TunerDecision {
                index,
                batch,
                from,
                to,
                ..
            } => TunedParam::ALL
                .iter()
                .map(|&param| Event::TunerDecision {
                    index,
                    batch,
                    param,
                    from,
                    to,
                })
                .collect(),
            Event::WalkStart { .. }
            | Event::WalkEnd { .. }
            | Event::WalkBreakdown { .. }
            | Event::DramFetch { .. }
            | Event::IxProbe { .. }
            | Event::Coalesce { .. }
            | Event::Invalidate { .. } => vec![ev],
        }
    }

    /// One event of every variant, in chain order.
    fn every_variant() -> Vec<Event> {
        std::iter::successors(Some(Event::WalkStart { walk: 7, lane: 3 }), successor).collect()
    }

    #[test]
    fn every_event_and_tag_round_trips_through_writer_and_parser() {
        let chain = every_variant();
        let samples: Vec<Event> = chain.iter().copied().flat_map(with_every_tag).collect();
        let kinds: BTreeSet<&str> = samples.iter().map(Event::kind).collect();
        assert_eq!(
            kinds.len(),
            chain.len(),
            "the chain visits each variant once"
        );
        let events: Vec<(u64, Event)> = samples
            .into_iter()
            .zip(1..)
            .map(|(e, at)| (at, e))
            .collect();
        let parsed = parse_all(&render(&events));
        assert_eq!(parsed.len(), events.len());
        for ((at, ev), line) in events.iter().zip(&parsed) {
            assert_eq!((line.at, &line.ev), (*at, ev));
            assert_eq!(
                (line.run.as_str(), line.design.as_str(), line.shard),
                ("run", "metal", 0)
            );
        }
    }

    #[test]
    fn parser_rejects_malformed_payloads_and_skips_flight_meta() {
        let probe = Event::IxProbe {
            index: 0,
            key: 5,
            hit: true,
            level: 1,
            short_circuit: 1,
            set: 3,
            scan: false,
            entry: 9,
        };
        let insert = Event::Insert {
            index: 0,
            level: 1,
            set: 3,
            life: 0,
            reason: AdmitReason::LevelBand,
        };
        let text = render(&[(1, probe), (2, insert)]);
        let (probe, insert) = text.split_once('\n').unwrap();
        let parse = |line: &str| TraceLine::parse(&Json::parse(line).unwrap());
        assert_eq!(parse(probe).unwrap().unwrap().at, 1);
        for (line, want) in [
            (
                probe.replace("\"index\":0", "\"index\":300"),
                "out of range",
            ),
            (
                insert.replace("level-band", "bogus"),
                "unknown tag \"bogus\"",
            ),
            (probe.replace(",\"entry\":9", ""), "missing field \"entry\""),
            (
                probe.replace("ix_probe", "nope"),
                "unknown event kind \"nope\"",
            ),
            (probe.replace("\"hit\":true", "\"hit\":1"), "not a boolean"),
        ] {
            let err = parse(&line).expect_err(&line);
            assert!(err.contains(want), "{line}: {err}");
        }
        let unlabelled = parse(&probe.replace("\"run\":\"run\",", ""))
            .unwrap()
            .unwrap();
        assert_eq!(unlabelled.run, "?", "flight dumps carry no run label");
        let meta = "{\"design\":\"metal\",\"flight_dropped\":0,\"flight_len\":2}";
        assert_eq!(parse(meta), Ok(None), "flight meta lines are no event");
    }

    #[test]
    fn truncated_and_corrupted_lines_are_errors_never_panics() {
        // Every prefix of one rendered line per variant, plus seeded
        // byte substitutions: each parses or is rejected, and through
        // the reader (behind one good line) a rejection names line 2.
        let events: Vec<(u64, Event)> = every_variant().into_iter().map(|e| (9, e)).collect();
        let text = render(&events);
        let good = text.lines().next().unwrap();
        let mut rng = metal_sim::rng::SplitRng::seed_from_u64(0x5eed);
        let mut rejected = 0;
        for line in text.lines().map(str::as_bytes) {
            let mut mutants: Vec<Vec<u8>> = (0..line.len()).map(|n| line[..n].to_vec()).collect();
            for _ in 0..64 {
                let mut bytes = line.to_vec();
                let i = rng.gen_range(0..bytes.len());
                // A newline would split the case into two lines.
                bytes[i] = match rng.next_u64() as u8 {
                    b'\n' | b'\r' => b'#',
                    b => b,
                };
                mutants.push(bytes);
            }
            for bytes in mutants {
                if let Ok(v) = Json::parse(&String::from_utf8_lossy(&bytes)) {
                    let _ = TraceLine::parse(&v);
                }
                let doc = [good.as_bytes(), b"\n", &bytes, b"\n"].concat();
                let mut reader = JsonlReader::from_reader(doc.as_slice());
                assert!(matches!(reader.next_event(), Ok(Some(_))));
                if let Err(e) = reader.next_event() {
                    assert!(e.starts_with("line 2: "), "{e}");
                    rejected += 1;
                }
            }
        }
        assert!(rejected > text.len() / 2, "most cases must be rejected");
    }

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap()
                .push_str(std::str::from_utf8(buf).unwrap());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn lines_parse_and_carry_labels() {
        let cap = Capture::default();
        let writer = JsonlWriter::from_writer(cap.clone());
        let mut sink = JsonlSink::new(writer, "figX", "metal", 3);
        sink.emit(10, &Event::WalkStart { walk: 0, lane: 1 });
        sink.emit(
            20,
            &Event::Evict {
                index: 0,
                level: 2,
                set: 7,
                reason: EvictReason::RangeSplit,
                entry: 11,
                lo: 100,
                hi: 163,
                for_entry: 12,
            },
        );
        sink.emit(
            30,
            &Event::Insert {
                index: 1,
                level: 0,
                set: 4,
                life: 64,
                reason: AdmitReason::NodeLevel,
            },
        );
        sink.flush();
        let text = cap.0.lock().unwrap().clone();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let v = Json::parse(line).expect("every line is a JSON object");
            assert_eq!(v.get("run").unwrap().as_str(), Some("figX"));
            assert_eq!(v.get("design").unwrap().as_str(), Some("metal"));
            assert_eq!(v.get("shard").unwrap().as_u64(), Some(3));
        }
        let evict = Json::parse(lines[1]).unwrap();
        assert_eq!(evict.get("ev").unwrap().as_str(), Some("evict"));
        assert_eq!(evict.get("reason").unwrap().as_str(), Some("range-split"));
        assert_eq!(evict.get("entry").unwrap().as_u64(), Some(11));
        assert_eq!(evict.get("for_entry").unwrap().as_u64(), Some(12));
        assert_eq!(evict.get("lo").unwrap().as_u64(), Some(100));
        assert_eq!(evict.get("hi").unwrap().as_u64(), Some(163));
        let insert = Json::parse(lines[2]).unwrap();
        assert_eq!(insert.get("life").unwrap().as_u64(), Some(64));
        assert_eq!(insert.get("reason").unwrap().as_str(), Some("node-level"));
    }

    /// Records each appended chunk separately so tests can assert on
    /// flush boundaries, not just the concatenated stream.
    #[derive(Clone, Default)]
    struct ChunkCapture(Arc<Mutex<Vec<String>>>);

    impl Write for ChunkCapture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap()
                .push(std::str::from_utf8(buf).unwrap().to_string());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn lines_larger_than_the_flush_threshold_stay_whole() {
        // A single line can exceed FLUSH_BYTES (nothing bounds the run
        // label). The buffer flushes on the line boundary *after* the
        // oversized line, so every chunk handed to the writer is still a
        // whole number of lines and every line parses intact.
        let big_run = "r".repeat(FLUSH_BYTES + 1234);
        let cap = ChunkCapture::default();
        let writer = JsonlWriter::from_writer(cap.clone());
        let mut sink = JsonlSink::new(writer, &big_run, "metal", 0);
        sink.emit(1, &Event::WalkStart { walk: 1, lane: 0 });
        sink.emit(2, &Event::WalkStart { walk: 2, lane: 0 });
        sink.flush();
        let chunks = cap.0.lock().unwrap().clone();
        assert!(
            chunks.iter().all(|c| c.ends_with('\n')),
            "chunks must end on line boundaries"
        );
        assert!(
            chunks.iter().any(|c| c.len() > FLUSH_BYTES),
            "test must actually exercise an oversized chunk"
        );
        let text: String = chunks.concat();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.len() > FLUSH_BYTES, "line should dwarf the threshold");
            let v = Json::parse(line).expect("oversized line still parses");
            assert_eq!(v.get("run").unwrap().as_str(), Some(big_run.as_str()));
            assert_eq!(v.get("walk").unwrap().as_u64(), Some(i as u64 + 1));
        }
    }

    #[test]
    fn reader_streams_oversized_lines_and_reports_bad_ones() {
        // Round-trip through the streaming reader: an oversized line
        // (longer than the writer's flush threshold and any internal
        // buffer) must come back whole, blank lines are skipped, and a
        // malformed line errors with its 1-based line number.
        let big_run = "r".repeat(FLUSH_BYTES + 999);
        let cap = Capture::default();
        let writer = JsonlWriter::from_writer(cap.clone());
        let mut sink = JsonlSink::new(writer, &big_run, "metal", 0);
        sink.emit(1, &Event::WalkStart { walk: 1, lane: 0 });
        sink.flush();
        let mut text = cap.0.lock().unwrap().clone();
        text.push('\n'); // blank line: must be skipped, not an error
        text.push_str("{\"ev\":\"walk_end\",\"walk\":1}\n");
        text.push_str("{oops\n");

        let mut reader = JsonlReader::from_reader(text.as_bytes());
        let first = reader.next_line().unwrap().expect("first line");
        assert!(first.render().len() > FLUSH_BYTES, "oversized line intact");
        assert_eq!(first.get("run").unwrap().as_str(), Some(big_run.as_str()));
        assert_eq!(reader.line_no(), 1);
        let second = reader.next_line().unwrap().expect("blank line skipped");
        assert_eq!(second.get("ev").unwrap().as_str(), Some("walk_end"));
        assert_eq!(reader.line_no(), 3);
        let err = reader.next_line().unwrap_err();
        assert!(err.contains("line 4"), "{err}");
        assert!(reader.next_line().unwrap().is_none(), "EOF after error");
    }

    #[test]
    fn drop_flushes_the_tail() {
        let cap = Capture::default();
        let writer = JsonlWriter::from_writer(cap.clone());
        {
            let mut sink = JsonlSink::new(writer, "r", "d", 0);
            sink.emit(1, &Event::WalkStart { walk: 9, lane: 0 });
        }
        let text = cap.0.lock().unwrap().clone();
        assert!(text.contains("\"walk\":9"), "drop must flush: {text}");
    }
}
