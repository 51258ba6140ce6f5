//! Native-backend differential cases: randomized CRUD request streams
//! whose semantic outcomes must be identical through the simulator and
//! the native executor.
//!
//! The simulator's IX-cache is already differentially verified against
//! the flat spec oracle ([`crate::oracle::spec_probe`]) and the
//! [`crate::oracle::HistoryOracle`] by the ix swarm; this module closes
//! the loop for the native backend by diffing its end-to-end outcomes
//! — found walks, structural mutations (splits/merges), probe and
//! per-level hit accounting, descriptor decisions, tuner trajectories,
//! node-fetch counts and final cache occupancy — against that verified
//! simulator on generated CRUD request streams. Any mismatch means one
//! of the two executors applied the cache protocol or the B+tree write
//! path differently, which the permanent equivalence gate must catch.
//!
//! A failing case is ddmin-shrunk ([`shrink_native_case`]) to a minimal
//! request list and banked in the corpus as `kind: "native"` JSON;
//! `tests/corpus_replay.rs` replays it forever after.

use crate::check::Divergence;
use metal_core::descriptor::{Descriptor, NodeDescriptor};
use metal_core::models::{DesignSpec, Experiment};
use metal_core::request::{OpKind, WalkRequest};
use metal_core::runner::{run_design, Backend, RunConfig, RunReport};
use metal_core::IxConfig;
use metal_index::BPlusTree;
use metal_obs::Json;
use metal_sim::rng::SplitRng;
use metal_sim::types::Addr;

/// Tree keys are even (`i * 2`), so `present + 1` is always a genuinely
/// fresh insert — same convention as the CRUD design swarm.
const STRIDE: u64 = 2;

/// One request of a native case: a CRUD op against the case's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseReq {
    /// What the walk does once it resolves.
    pub op: OpKind,
    /// The probe key.
    pub key: u64,
    /// Leaf-chain hops after the walk (0 for point requests).
    pub scan: u32,
}

/// A serializable native-vs-simulator differential case: a bulk-loaded
/// B+tree (even keys `0..n_keys * 2`), an IX-cache geometry and a CRUD
/// request stream, run through every native-capable design on both
/// backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeCase {
    /// Generator seed (provenance only; the case is self-contained).
    pub seed: u64,
    /// Bulk-loaded key count (keys are `0, 2, .., (n_keys-1)*2`).
    pub n_keys: usize,
    /// B+tree node fanout.
    pub max_keys: usize,
    /// IX-cache entry count.
    pub entries: usize,
    /// IX-cache key-block bits.
    pub key_block_bits: u32,
    /// Walks per tuning batch for the tuned METAL design.
    pub batch_walks: u64,
    /// MLP window width both backends run at (1 = serial). Semantic
    /// outcomes must be width-invariant, so the swarm sweeping this
    /// axis pins the architect/scout pipeline against the simulator's
    /// overlap model on every generated stream.
    pub mlp_width: usize,
    /// The request stream.
    pub reqs: Vec<CaseReq>,
}

/// Generates one native differential case (same swarm shape as the CRUD
/// design cases, under a distinct RNG salt).
pub fn gen_native_case(seed: u64) -> NativeCase {
    let mut rng = SplitRng::stream(seed, 0x9a71_7e5d);
    let n_keys = rng.gen_range(40..400u64) as usize;
    let max_keys = *crate::scenario::pick(&mut rng, &[4, 8, 16]);
    let n_reqs = rng.gen_range(30..200u64) as usize;
    let span = n_keys as u64 * STRIDE;

    let mut reqs = Vec::with_capacity(n_reqs);
    for _ in 0..n_reqs {
        let present = rng.gen_range(0..n_keys as u64) * STRIDE;
        let req = match rng.gen_range(0..10u64) {
            0 | 1 => CaseReq {
                op: OpKind::Insert,
                key: present + 1,
                scan: 0,
            },
            2 => CaseReq {
                op: OpKind::Delete,
                key: present,
                scan: 0,
            },
            3 => CaseReq {
                op: OpKind::Update,
                key: present,
                scan: 0,
            },
            _ => CaseReq {
                op: OpKind::Select,
                key: rng.gen_range(0..span.max(1) + STRIDE),
                scan: if rng.gen_range(0..4u64) == 0 {
                    rng.gen_range(1..4u64) as u32
                } else {
                    0
                },
            },
        };
        reqs.push(req);
    }

    let entries = *crate::scenario::pick(&mut rng, &[16, 64, 256]);
    NativeCase {
        seed,
        n_keys,
        max_keys,
        entries,
        key_block_bits: rng.gen_range(2..8u64) as u32,
        batch_walks: *crate::scenario::pick(&mut rng, &[25u64, 50, 100]),
        mlp_width: *crate::scenario::pick(&mut rng, &[1usize, 2, 4, 8]),
        reqs,
    }
}

fn diff_u64(label: &str, field: &str, s: u64, n: u64) -> Result<(), Divergence> {
    if s != n {
        return Err(Divergence {
            op: 0,
            what: format!("{label}: {field} sim={s} native={n}"),
        });
    }
    Ok(())
}

/// Every semantic outcome the two backends must agree on, compared
/// field-by-field so the first mismatch names itself: the walk, write,
/// split/merge, probe, admission, short-circuit and invalidation
/// counters, node fetches, per-level hits, final occupancy and the
/// tuner's band history — and `native` must carry measured metrics.
pub fn diff_reports(label: &str, sim: &RunReport, native: &RunReport) -> Result<(), Divergence> {
    let s = &sim.stats;
    let n = &native.stats;
    for (field, sv, nv) in [
        ("walks", s.walks, n.walks),
        ("found_walks", s.found_walks, n.found_walks),
        ("write_walks", s.write_walks, n.write_walks),
        ("node_splits", s.node_splits, n.node_splits),
        ("node_merges", s.node_merges, n.node_merges),
        ("probes", s.probes, n.probes),
        ("misses", s.misses, n.misses),
        ("inserts", s.inserts, n.inserts),
        ("bypasses", s.bypasses, n.bypasses),
        ("levels_skipped", s.levels_skipped, n.levels_skipped),
        (
            "entries_invalidated",
            s.entries_invalidated,
            n.entries_invalidated,
        ),
        ("dram_node_reads", s.dram_node_reads, n.dram_node_reads),
    ] {
        diff_u64(label, field, sv, nv)?;
    }
    if s.hit_levels != n.hit_levels {
        return Err(Divergence {
            op: 0,
            what: format!(
                "{label}: hit_levels sim={:?} native={:?}",
                s.hit_levels, n.hit_levels
            ),
        });
    }
    if sim.occupancy_by_level != native.occupancy_by_level {
        return Err(Divergence {
            op: 0,
            what: format!(
                "{label}: final occupancy sim={:?} native={:?}",
                sim.occupancy_by_level, native.occupancy_by_level
            ),
        });
    }
    if sim.band_history != native.band_history {
        return Err(Divergence {
            op: 0,
            what: format!(
                "{label}: tuner band history sim={:?} native={:?}",
                sim.band_history, native.band_history
            ),
        });
    }
    if native.native.is_none() {
        return Err(Divergence {
            op: 0,
            what: format!("{label}: native run reported no measured metrics"),
        });
    }
    Ok(())
}

/// Runs one case through every native-capable design on both backends
/// and reports the first outcome that differs.
pub fn check_native_case(case: &NativeCase) -> Result<(), Divergence> {
    let keys: Vec<u64> = (0..case.n_keys as u64).map(|i| i * STRIDE).collect();
    let tree = BPlusTree::bulk_load(&keys, case.max_keys, Addr(0x4000_0000), 16);
    let requests: Vec<WalkRequest> = case
        .reqs
        .iter()
        .map(|r| {
            let mut w = WalkRequest::lookup(r.key).with_op(r.op);
            if r.scan > 0 {
                w = w.with_scan(r.scan);
            }
            w
        })
        .collect();
    let exp = Experiment::single(&tree, &requests);

    let ix = IxConfig {
        entries: case.entries,
        ways: 16.min(case.entries),
        key_block_bits: case.key_block_bits,
        wide_fraction: 0.5,
    };
    let specs = [
        DesignSpec::Stream,
        DesignSpec::MetalIx { ix },
        DesignSpec::Metal {
            ix,
            descriptors: vec![Descriptor::Node(NodeDescriptor::leaves())],
            tune: true,
            batch_walks: case.batch_walks,
        },
    ];
    let cfg = RunConfig::default()
        .with_lanes(4)
        .with_mlp_width(case.mlp_width.max(1));
    for spec in &specs {
        let sim = run_design(spec, &exp, &cfg);
        let native = run_design(spec, &exp, &cfg.clone().with_backend(Backend::Native));
        diff_reports(spec.label(), &sim, &native)?;
    }
    Ok(())
}

/// Returns the smallest still-failing case `fails` accepts, starting
/// from `case` (which must fail): ddmin over the request list, then a
/// bounded value-simplification pass (drop scans, halve keys, demote
/// writes to lookups, shrink geometry).
pub fn shrink_native_case<F>(case: &NativeCase, fails: F) -> NativeCase
where
    F: Fn(&NativeCase) -> bool,
{
    debug_assert!(fails(case), "shrink needs a failing input");
    let mut best = case.clone();

    // Pass 1: ddmin over requests — remove chunks, halving granularity.
    let mut chunk = best.reqs.len().div_ceil(2).max(1);
    while chunk >= 1 {
        let mut removed_any = false;
        let mut start = 0;
        while start < best.reqs.len() {
            let mut candidate = best.clone();
            let end = (start + chunk).min(candidate.reqs.len());
            candidate.reqs.drain(start..end);
            if !candidate.reqs.is_empty() && fails(&candidate) {
                best = candidate;
                removed_any = true;
                // Same `start` now points at fresh requests.
            } else {
                start += chunk;
            }
        }
        if chunk == 1 && !removed_any {
            break;
        }
        if !removed_any {
            chunk /= 2;
        }
    }

    // Pass 2: value simplification, to fixpoint (bounded).
    for _ in 0..8 {
        let mut progressed = false;

        for f in [
            (|c: &mut NativeCase| c.entries = (c.entries / 2).max(2)) as fn(&mut NativeCase),
            |c| c.key_block_bits = (c.key_block_bits / 2).max(1),
            |c| c.n_keys = (c.n_keys / 2).max(4),
            |c| c.max_keys = 4,
            |c| c.mlp_width = 1,
        ] {
            let mut candidate = best.clone();
            f(&mut candidate);
            if candidate != best && fails(&candidate) {
                best = candidate;
                progressed = true;
            }
        }

        for i in 0..best.reqs.len() {
            let r = best.reqs[i];
            let variants = [
                CaseReq { scan: 0, ..r },
                CaseReq {
                    key: r.key / 2,
                    ..r
                },
                CaseReq {
                    op: OpKind::Select,
                    ..r
                },
            ];
            for v in variants {
                if v == best.reqs[i] {
                    continue;
                }
                let mut candidate = best.clone();
                candidate.reqs[i] = v;
                if fails(&candidate) {
                    best = candidate;
                    progressed = true;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    best
}

impl NativeCase {
    /// Serializes to the corpus JSON schema (`kind: "native"`).
    pub fn to_json(&self) -> Json {
        let reqs = self
            .reqs
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("op".into(), Json::str(r.op.as_str())),
                    ("key".into(), Json::UInt(r.key)),
                    ("scan".into(), Json::UInt(r.scan as u64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("kind".into(), Json::str("native")),
            ("seed".into(), Json::UInt(self.seed)),
            ("n_keys".into(), Json::UInt(self.n_keys as u64)),
            ("max_keys".into(), Json::UInt(self.max_keys as u64)),
            ("entries".into(), Json::UInt(self.entries as u64)),
            (
                "key_block_bits".into(),
                Json::UInt(self.key_block_bits as u64),
            ),
            ("batch_walks".into(), Json::UInt(self.batch_walks)),
            ("mlp_width".into(), Json::UInt(self.mlp_width as u64)),
            ("reqs".into(), Json::Arr(reqs)),
        ])
    }

    /// Parses the corpus JSON schema. Returns `None` on any shape
    /// mismatch (corpus files are hand-editable; a replay must fail
    /// loudly rather than silently skip a malformed repro).
    pub fn from_json(j: &Json) -> Option<NativeCase> {
        if j.get("kind")?.as_str()? != "native" {
            return None;
        }
        let u = |k: &str| j.get(k).and_then(Json::as_u64);
        let mut reqs = Vec::new();
        for r in j.get("reqs")?.as_arr()? {
            let op = match r.get("op")?.as_str()? {
                "select" => OpKind::Select,
                "insert" => OpKind::Insert,
                "update" => OpKind::Update,
                "delete" => OpKind::Delete,
                _ => return None,
            };
            reqs.push(CaseReq {
                op,
                key: r.get("key").and_then(Json::as_u64)?,
                scan: r.get("scan").and_then(Json::as_u64)? as u32,
            });
        }
        Some(NativeCase {
            seed: u("seed")?,
            n_keys: u("n_keys")? as usize,
            max_keys: u("max_keys")? as usize,
            entries: u("entries")? as usize,
            key_block_bits: u("key_block_bits")? as u32,
            batch_walks: u("batch_walks")?,
            // Pre-MLP corpus files carry no width; they ran serial.
            mlp_width: u("mlp_width").unwrap_or(1) as usize,
            reqs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_cases_pass() {
        for seed in 0..4 {
            let case = gen_native_case(seed);
            if let Err(d) = check_native_case(&case) {
                panic!("seed {seed}: {d}");
            }
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let case = gen_native_case(7);
        let text = case.to_json().render();
        let parsed = Json::parse(&text).expect("rendered JSON parses");
        assert_eq!(NativeCase::from_json(&parsed), Some(case));
    }

    #[test]
    fn pre_mlp_corpus_json_defaults_to_serial_width() {
        let mut case = gen_native_case(3);
        case.mlp_width = 1;
        // Simulate a corpus file written before the width axis existed.
        let Json::Obj(mut fields) = case.to_json() else {
            panic!("cases serialize to objects");
        };
        fields.retain(|(k, _)| k != "mlp_width");
        let parsed = NativeCase::from_json(&Json::Obj(fields)).expect("parses");
        assert_eq!(parsed, case);
    }

    #[test]
    fn foreign_kind_is_rejected() {
        let ix = crate::scenario::gen_scenario(1, false).to_json();
        assert_eq!(NativeCase::from_json(&ix), None);
    }

    #[test]
    fn shrink_reduces_to_single_trigger() {
        // Predicate: "contains a delete" — a stand-in for a divergence
        // tied to one request.
        let fails = |c: &NativeCase| c.reqs.iter().any(|r| r.op == OpKind::Delete);
        for seed in 0..50 {
            let case = gen_native_case(seed);
            if !fails(&case) {
                continue;
            }
            let small = shrink_native_case(&case, fails);
            assert_eq!(small.reqs.len(), 1, "seed {seed}: {:?}", small.reqs);
            assert!(fails(&small));
            return; // one generated witness is enough
        }
        panic!("no generated case contained a delete");
    }
}
