//! Answer checks against a local replica of the served graph.
//!
//! Every `ok` query reply must equal the answer on a graph state that was
//! live between the request's send and its reply. Updates are serialised
//! (one connection, one outstanding update), so the states are known:
//! state `j + 1` begins somewhere inside update `j`'s send→reply window.
//! Removing an edge that is not in `SPG_k(s, t)` leaves every `k`-hop
//! simple `s`-`t` path intact, so such states reuse the base answer and
//! only the others are recomputed. Seeded samples are also checked
//! against the per-query pipeline and, for small answers, against path
//! enumeration (`spg_baselines`), an algorithm independent of EVE.

use std::collections::{BTreeSet, HashMap};

use spg_baselines::{spg_by_enumeration, EnumerationAlgorithm};
use spg_core::{BatchExecutor, Eve, Query};
use spg_graph::{DiGraph, EdgeDelta};
use spg_server::json::{self, Json};

use crate::util::Rng;
use crate::wire::{Op, Phase, Rec};

pub type Edges = Vec<(u32, u32)>;

/// Keys per run re-answered by the per-query pipeline, and small answers
/// checked by path enumeration.
const CROSS_CHECKS: usize = 64;
const ENUMERATIONS: usize = 12;

/// A reply as the checker reads it.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    pub status: String,
    pub source: String,
    /// Sorted answer edges (queries).
    pub edges: Edges,
    /// `applied` (updates).
    pub applied: u64,
}

pub fn parse_reply(payload: &[u8]) -> Option<Parsed> {
    let doc = json::parse(payload).ok()?;
    let text = |key: &str| {
        doc.get(key)
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let mut edges: Edges = Vec::new();
    if let Some(items) = doc.get("edges").and_then(Json::as_array) {
        for item in items {
            let pair = item.as_array()?;
            let u = u32::try_from(pair.first()?.as_u64()?).ok()?;
            let v = u32::try_from(pair.get(1)?.as_u64()?).ok()?;
            edges.push((u, v));
        }
    }
    edges.sort_unstable();
    Some(Parsed {
        status: text("status"),
        source: text("source"),
        edges,
        applied: doc.get("applied").and_then(Json::as_u64).unwrap_or(0),
    })
}

/// The checker's verdict on one run.
#[derive(Debug, Default)]
pub struct Checked {
    /// Per record (same order as the run's records).
    pub parsed: Vec<Option<Parsed>>,
    pub ok: Vec<bool>,
    /// Replies whose answer matched no live state.
    pub wrong: usize,
    /// Keys checked against path enumeration and against the per-query
    /// pipeline, and the keys where an oracle disagreed.
    pub enumerated: usize,
    pub cross_checked: usize,
    pub oracle_mismatches: usize,
    /// Sum of the base answers' cache entry costs over the distinct keys.
    pub answer_bytes: usize,
}

/// Answers on the base graph for `keys`, sorted per key.
pub fn answers(g: &DiGraph, keys: &[Query], threads: usize) -> Vec<(Edges, usize)> {
    let eve = Eve::with_defaults(g);
    BatchExecutor::new(threads)
        .run(&eve, keys)
        .into_iter()
        .map(|r| {
            let spg = r.expect("every benchmark key is a valid query");
            let mut edges = spg.edges().to_vec();
            edges.sort_unstable();
            let cost = spg_core::cache::entry_cost(&spg);
            (edges, cost)
        })
        .collect()
}

/// Checks every record of a run. `sample_seed` picks the enumeration
/// sample.
pub fn check(g: &DiGraph, recs: &[Rec], threads: usize, sample_seed: u64) -> Checked {
    let parsed: Vec<Option<Parsed>> = recs
        .iter()
        .map(|r| {
            if r.done.is_nan() {
                None
            } else {
                parse_reply(&r.reply)
            }
        })
        .collect();

    // Updates in send order; the state after update j removes the edges
    // still removed after it.
    let mut updates: Vec<usize> = (0..recs.len())
        .filter(|&i| matches!(recs[i].op, Op::Update(_)))
        .collect();
    updates.sort_by(|&x, &y| recs[x].sent.total_cmp(&recs[y].sent));
    let mut removed: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut states: Vec<BTreeSet<(u32, u32)>> = vec![removed.clone()];
    for &i in &updates {
        if let Op::Update(u) = recs[i].op {
            if let Some(edge) = u.add {
                removed.remove(&edge);
            }
            if let Some(edge) = u.remove {
                removed.insert(edge);
            }
        }
        states.push(removed.clone());
    }
    let window = |j: usize| (recs[updates[j]].sent, recs[updates[j]].done);
    let live_states = |rec: &Rec| -> Vec<usize> {
        (0..states.len())
            .filter(|&i| {
                let begun = i == 0 || window(i - 1).0 <= rec.done;
                let not_ended = i == updates.len() || {
                    let (_, done) = window(i);
                    done.is_nan() || done >= rec.sent
                };
                begun && not_ended
            })
            .collect()
    };

    // Base answers for every distinct key with an ok reply.
    let mut keys: Vec<Query> = Vec::new();
    let mut key_index: HashMap<(u32, u32, u32), usize> = HashMap::new();
    for (rec, p) in recs.iter().zip(&parsed) {
        if let (Op::Query(q), Some(p)) = (rec.op, p) {
            if p.status == "ok" {
                key_index
                    .entry((q.source, q.target, q.k))
                    .or_insert_with(|| {
                        keys.push(q);
                        keys.len() - 1
                    });
            }
        }
    }
    let base = answers(g, &keys, threads);
    let answer_bytes = base.iter().map(|a| a.1).sum();

    // Which (state, key) answers differ from the base and need computing.
    let mut ok = vec![false; recs.len()];
    let mut need: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut candidates: Vec<Vec<usize>> = vec![Vec::new(); recs.len()];
    for (i, (rec, p)) in recs.iter().zip(&parsed).enumerate() {
        let Some(p) = p else { continue };
        match rec.op {
            Op::Update(u) => ok[i] = p.status == "ok" && p.applied == u.deltas() as u64,
            Op::Query(q) if p.status == "ok" => {
                let key = key_index[&(q.source, q.target, q.k)];
                for s in live_states(rec) {
                    let touches = states[s]
                        .iter()
                        .any(|e| base[key].0.binary_search(e).is_ok());
                    if touches {
                        need.entry(s).or_default().push(key);
                        candidates[i].push(s);
                    } else {
                        candidates[i].push(usize::MAX);
                    }
                }
            }
            Op::Query(_) => {}
        }
    }
    let mut state_answers: HashMap<(usize, usize), Edges> = HashMap::new();
    if !need.is_empty() {
        let mut replica = g.clone();
        for (&s, wanted) in &need {
            let mut wanted = wanted.clone();
            wanted.sort_unstable();
            wanted.dedup();
            let cut: Vec<EdgeDelta> = states[s]
                .iter()
                .map(|&(u, v)| EdgeDelta::remove(u, v))
                .collect();
            let back: Vec<EdgeDelta> = states[s]
                .iter()
                .map(|&(u, v)| EdgeDelta::add(u, v))
                .collect();
            replica
                .apply_delta(&cut)
                .expect("removed edges exist in the base graph");
            let qs: Vec<Query> = wanted.iter().map(|&k| keys[k]).collect();
            for (&k, (edges, _)) in wanted.iter().zip(answers(&replica, &qs, threads)) {
                state_answers.insert((s, k), edges);
            }
            replica.apply_delta(&back).expect("restoring removed edges");
        }
    }
    let mut wrong = 0;
    for (i, (rec, p)) in recs.iter().zip(&parsed).enumerate() {
        let (Op::Query(q), Some(p)) = (rec.op, p) else {
            continue;
        };
        if p.status != "ok" {
            continue;
        }
        let key = key_index[&(q.source, q.target, q.k)];
        ok[i] = candidates[i].iter().any(|&s| {
            let expected = if s == usize::MAX {
                &base[key].0
            } else {
                &state_answers[&(s, key)]
            };
            *expected == p.edges
        });
        if !ok[i] {
            wrong += 1;
        }
    }

    // Oracles the replica's batch path does not share: the per-query
    // pipeline (`Eve::query`, per-query Phase 1 instead of cohort MS-BFS)
    // on a seeded sample of keys, and path enumeration, an algorithm
    // independent of EVE, on a sample of small answers. A disagreement
    // makes every reply of that key wrong.
    let mut rng = Rng::new(sample_seed, 0xE7);
    let eve = Eve::with_defaults(g);
    let mut mismatched = Vec::new();
    let mut cross_checked = 0;
    for _ in 0..keys.len().min(CROSS_CHECKS) {
        let k = rng.below(keys.len());
        let mut per_query = eve.query(keys[k]).expect("valid key").edges().to_vec();
        per_query.sort_unstable();
        cross_checked += 1;
        if per_query != base[k].0 {
            mismatched.push(k);
        }
    }
    let small: Vec<usize> = (0..keys.len()).filter(|&k| base[k].0.len() <= 48).collect();
    let mut enumerated = 0;
    for _ in 0..small.len().min(ENUMERATIONS) {
        let k = small[rng.below(small.len())];
        let q = keys[k];
        let mut by_paths =
            spg_by_enumeration(EnumerationAlgorithm::PathEnum, g, q.source, q.target, q.k)
                .edges()
                .to_vec();
        by_paths.sort_unstable();
        enumerated += 1;
        if by_paths != base[k].0 {
            mismatched.push(k);
        }
    }
    for &k in &mismatched {
        for (i, rec) in recs.iter().enumerate() {
            if rec.op == Op::Query(keys[k]) && ok[i] {
                ok[i] = false;
                wrong += 1;
            }
        }
    }
    Checked {
        parsed,
        ok,
        wrong,
        enumerated,
        cross_checked,
        oracle_mismatches: mismatched.len(),
        answer_bytes,
    }
}

/// Whether a record counts toward the measured phase's latencies.
pub fn measured_query(rec: &Rec) -> bool {
    rec.phase == Phase::Measured && matches!(rec.op, Op::Query(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::UpdateOp;
    use spg_graph::generators::power_law_configuration;

    fn rec(id: u64, op: Op, sent: f64, done: f64, reply: String) -> Rec {
        Rec {
            id,
            op,
            phase: Phase::Measured,
            due: sent,
            sent,
            done,
            reply: reply.into_bytes(),
        }
    }

    fn reply(id: u64, edges: &[(u32, u32)]) -> String {
        let list: Vec<String> = edges.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
        format!(
            r#"{{"id":{id},"status":"ok","source":"miss","k":4,"edges":[{}]}}"#,
            list.join(",")
        )
    }

    #[test]
    fn answers_are_accepted_only_for_states_live_in_the_request_window() {
        let g = power_law_configuration(400, 6.0, 2.2, 1);
        let eve = Eve::with_defaults(&g);
        // A key with at least one answer edge to remove.
        let (key, base) = (0..400u32)
            .flat_map(|s| (0..400u32).map(move |t| (s, t)))
            .filter(|(s, t)| s != t)
            .map(|(s, t)| Query::new(s, t, 4))
            .find_map(|q| {
                let a = eve.query(q).ok()?;
                (a.edge_count() >= 3).then(|| (q, a.edges().to_vec()))
            })
            .expect("a key with a non-trivial answer");
        let edge = base[0];
        let mut cut = g.clone();
        cut.apply_delta(&[EdgeDelta::remove(edge.0, edge.1)])
            .unwrap();
        let after = Eve::with_defaults(&cut)
            .query(key)
            .unwrap()
            .edges()
            .to_vec();
        assert_ne!(after, base, "removing an answer edge changes the answer");

        let remove = Op::Update(UpdateOp {
            add: None,
            remove: Some(edge),
        });
        let restore = Op::Update(UpdateOp {
            add: Some(edge),
            remove: None,
        });
        let upd = |id, op, sent, done| {
            rec(
                id,
                op,
                sent,
                done,
                format!(r#"{{"id":{id},"status":"ok","applied":1,"purged":0,"seq":1}}"#),
            )
        };
        let q = Op::Query(key);
        let recs = vec![
            upd(100, remove, 1.0, 1.1),
            upd(101, restore, 2.0, 2.1),
            // Before the removal: only the base answer is right.
            rec(0, q, 0.5, 0.6, reply(0, &base)),
            rec(1, q, 0.5, 0.6, reply(1, &after)),
            // Between the updates: only the cut answer is right.
            rec(2, q, 1.5, 1.6, reply(2, &after)),
            rec(3, q, 1.5, 1.6, reply(3, &base)),
            // Overlapping the removal: either is right.
            rec(4, q, 0.9, 1.05, reply(4, &base)),
            rec(5, q, 0.9, 1.05, reply(5, &after)),
            // A deliberately wrong reply: one edge dropped.
            rec(6, q, 0.5, 0.6, reply(6, &base[1..])),
            // No reply at all.
            rec(7, q, 0.5, f64::NAN, String::new()),
        ];
        let checked = check(&g, &recs, 1, 0);
        assert_eq!(
            checked.ok,
            vec![true, true, true, false, true, false, true, true, false, false]
        );
        assert_eq!(checked.wrong, 3);
    }
}
