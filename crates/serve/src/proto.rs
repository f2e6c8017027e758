//! The `fcm-serve/v1` line protocol: parse and render.
//!
//! One JSON object per line, both directions. Requests carry an `"op"`
//! plus op-specific fields and an optional `"id"` echoed back verbatim;
//! responses always carry `"ok"` (`true` with op-specific payload
//! fields, `false` with an `"error"` string). A malformed line yields a
//! structured error response, never a dropped connection.
//!
//! The grammar (DESIGN.md §9):
//!
//! ```text
//! mutation  := add_fcm | remove_fcm | set_attr | fail_node | restore_node
//! query     := influence | separation | check | certify | admit
//!            | propose_placement | stats | metrics | list | dump
//!            | snapshot | ping
//! subscribe := subscribe [max_events] [queue]
//! ```
//!
//! `subscribe` upgrades the session to a push stream: after the ack the
//! server interleaves line-JSON events (`"event"` + `"eseq"` +
//! `"dropped"` fields) with any later responses on the same connection;
//! see DESIGN.md §12 for the backpressure and ordering contract.
//!
//! [`mutation_to_json`] is the canonical rendering used for the journal:
//! parse∘render is the identity on mutations (pinned by the protocol
//! property tests), which is what makes journal replay reproduce a
//! byte-identical model.

use std::collections::BTreeMap;

use fcm_check::Contract;
use fcm_substrate::json::write_escaped;
use fcm_substrate::Json;

/// Protocol schema tag, sent in the hello line on connect.
pub const SCHEMA: &str = "fcm-serve/v1";

/// Default walk-series order for influence/separation queries (matches
/// `fcm_core::separation::DEFAULT_ORDER`).
pub const DEFAULT_ORDER: usize = 4;

/// A state-changing request, applied by the writer thread and journaled.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Add a process FCM with its attributes and influence edges.
    AddFcm {
        /// Unique FCM name.
        name: String,
        /// Criticality attribute.
        criticality: u32,
        /// Throughput attribute (units per tick).
        throughput: f64,
        /// Security level attribute.
        security: u8,
        /// Optional timing triple `(est, tcd, ct)`.
        timing: Option<(u64, u64, u64)>,
        /// Outgoing influence edges `(target, weight)`.
        influences: Vec<(String, f64)>,
        /// Incoming influence edges `(source, weight)`.
        influenced_by: Vec<(String, f64)>,
        /// Optional rely-guarantee contract the FCM arrives with; its
        /// `fcm` field always equals `name` (the wire form omits it).
        contract: Option<Contract>,
    },
    /// Remove an FCM and every incident edge.
    RemoveFcm {
        /// Name of the FCM to remove.
        name: String,
    },
    /// Update attributes of an existing FCM (absent fields unchanged;
    /// `timing: null` clears the timing constraint).
    SetAttr {
        /// Name of the FCM to update.
        name: String,
        /// New criticality, when present.
        criticality: Option<u32>,
        /// New throughput, when present.
        throughput: Option<f64>,
        /// `Some(None)` clears timing, `Some(Some(t))` replaces it.
        timing: Option<Option<(u64, u64, u64)>>,
    },
    /// Mark a HW node failed and re-place its FCMs on the survivors.
    FailNode {
        /// HW node name, e.g. `"hw2"`.
        node: String,
    },
    /// Bring a failed HW node back and re-place unhosted FCMs.
    RestoreNode {
        /// HW node name.
        node: String,
    },
}

impl Mutation {
    /// The wire/journal `op` tag.
    #[must_use]
    pub fn op(&self) -> &'static str {
        match self {
            Mutation::AddFcm { .. } => "add_fcm",
            Mutation::RemoveFcm { .. } => "remove_fcm",
            Mutation::SetAttr { .. } => "set_attr",
            Mutation::FailNode { .. } => "fail_node",
            Mutation::RestoreNode { .. } => "restore_node",
        }
    }
}

/// A read-only request, answered under the shared read lock.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Direct + transitive influence between two FCMs.
    Influence {
        /// Source FCM name.
        from: String,
        /// Target FCM name.
        to: String,
        /// Walk-series order.
        order: usize,
    },
    /// Eq. 3 separation between two FCMs.
    Separation {
        /// Source FCM name.
        from: String,
        /// Target FCM name.
        to: String,
        /// Walk-series order.
        order: usize,
    },
    /// Run the `fcm-check` rule catalog over the live model.
    Check,
    /// The compositional certification state: the contract-derived
    /// system bound, the C017–C022 findings, and the incremental
    /// certifier's dirty/reused split from the last re-certification.
    Certify,
    /// Would this hypothetical load be admitted on a HW node?
    Admit {
        /// HW node name.
        node: String,
        /// Optional timing triple of the candidate.
        timing: Option<(u64, u64, u64)>,
        /// Throughput of the candidate.
        throughput: f64,
    },
    /// Failover proposal for a HW node: `fail_node`'s dry run, failing
    /// a clone of the live `fcm_alloc::failover::Placement` — computed,
    /// not applied.
    ProposePlacement {
        /// HW node name.
        node: String,
    },
    /// Counters: model size, seq, full-condense count, failed nodes.
    Stats,
    /// Live `fcm-obs` metrics snapshot (counters/gauges/histograms)
    /// plus the rolling-window SLO block — answered at the server
    /// layer, never by the model (telemetry stays output-only).
    Metrics,
    /// FCM and HW node names.
    List,
    /// The full canonical model state (the byte-compare payload).
    Dump,
    /// Force a snapshot now.
    Snapshot,
    /// Liveness probe.
    Ping,
}

/// Options for a `subscribe` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubscribeOpts {
    /// Deliver exactly this many events, then an `"event":"end"` line,
    /// then unsubscribe (`None` = stream until the session closes).
    /// Golden transcripts use this for a deterministic cut-off.
    pub max_events: Option<u64>,
    /// Per-subscriber queue bound override (overwrite-oldest past it).
    pub queue: Option<usize>,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Routed to the writer thread.
    Mutation(Mutation),
    /// Answered in-place under the read lock.
    Query(Query),
    /// Upgrade this session to a live event stream.
    Subscribe(SubscribeOpts),
}

fn str_field(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field \"{key}\""))
}

fn f64_field(j: &Json, key: &str, default: f64) -> Result<f64, String> {
    match j.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("field \"{key}\" must be a finite number")),
    }
}

fn uint_field(j: &Json, key: &str, default: u64) -> Result<u64, String> {
    match j.get(key) {
        None => Ok(default),
        Some(v) => {
            as_uint(v).ok_or_else(|| format!("field \"{key}\" must be a non-negative integer"))
        }
    }
}

fn as_uint(v: &Json) -> Option<u64> {
    let x = v.as_f64()?;
    (x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x < 9.0e15).then_some(x as u64)
}

fn timing_triple(v: &Json) -> Result<(u64, u64, u64), String> {
    let arr = v
        .as_array()
        .filter(|a| a.len() == 3)
        .ok_or_else(|| "\"timing\" must be [est, tcd, ct] or null".to_string())?;
    let mut t = [0u64; 3];
    for (slot, item) in t.iter_mut().zip(arr) {
        *slot = as_uint(item).ok_or_else(|| "\"timing\" entries must be integers".to_string())?;
    }
    Ok((t[0], t[1], t[2]))
}

/// A `set_attr` timing patch: outer `None` = field absent (leave as
/// is), inner `None` = explicit `null` (clear the constraint).
type TimingPatch = Option<Option<(u64, u64, u64)>>;

/// `"timing"` absent → `Ok(None)`; `null` or a triple → `Ok(Some(…))`
/// mapped through `wrap`.
fn opt_timing(j: &Json) -> Result<TimingPatch, String> {
    match j.get("timing") {
        None => Ok(None),
        Some(Json::Null) => Ok(Some(None)),
        Some(v) => Ok(Some(Some(timing_triple(v)?))),
    }
}

fn edge_pairs(j: &Json, key: &str) -> Result<Vec<(String, f64)>, String> {
    let Some(v) = j.get(key) else {
        return Ok(Vec::new());
    };
    let arr = v
        .as_array()
        .ok_or_else(|| format!("field \"{key}\" must be an array of [name, weight] pairs"))?;
    let mut out = Vec::with_capacity(arr.len());
    for pair in arr {
        let p = pair
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("\"{key}\" entries must be [name, weight] pairs"))?;
        let name = p[0]
            .as_str()
            .ok_or_else(|| format!("\"{key}\" entry name must be a string"))?;
        let w = p[1]
            .as_f64()
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("\"{key}\" entry weight must be a finite number"))?;
        out.push((name.to_string(), w));
    }
    Ok(out)
}

/// `"contract"` on an `add_fcm`: absent → `None`; an object → parsed as
/// a [`Contract`] with its `fcm` field forced to the mutation's
/// `"name"` (the wire form never repeats it).
fn contract_field(j: &Json) -> Result<Option<Contract>, String> {
    let Some(doc) = j.get("contract") else {
        return Ok(None);
    };
    if !matches!(doc, Json::Obj(_)) {
        return Err("field \"contract\" must be an object".to_string());
    }
    let name = j.get("name").and_then(Json::as_str).unwrap_or_default();
    let c = Contract::from_json(&doc.clone().set("fcm", name))?;
    Ok(Some(c))
}

/// Wire form of an embedded contract: [`Contract::to_json`] without the
/// redundant `"fcm"` (the mutation's `"name"` supplies it on parse).
fn contract_json(c: &Contract) -> Json {
    match c.to_json() {
        Json::Obj(mut m) => {
            m.remove("fcm");
            Json::Obj(m)
        }
        other => other,
    }
}

/// Parses one request line: the echoed `"id"` (if any — recovered even
/// from otherwise-invalid requests) plus the request or a parse error.
pub fn parse_line(line: &str) -> (Option<Json>, Result<Request, String>) {
    let j = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => return (None, Err(format!("parse: {e}"))),
    };
    if !matches!(j, Json::Obj(_)) {
        return (None, Err("request must be a JSON object".to_string()));
    }
    let id = j.get("id").cloned();
    (id, parse_request(&j))
}

fn parse_request(j: &Json) -> Result<Request, String> {
    let op = j
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing or non-string field \"op\"".to_string())?;
    let req = match op {
        "add_fcm" => Request::Mutation(Mutation::AddFcm {
            name: str_field(j, "name")?,
            criticality: u32::try_from(uint_field(j, "criticality", 0)?)
                .map_err(|_| "\"criticality\" out of range".to_string())?,
            throughput: f64_field(j, "throughput", 0.0)?,
            security: u8::try_from(uint_field(j, "security", 0)?)
                .map_err(|_| "\"security\" out of range".to_string())?,
            timing: opt_timing(j)?.flatten(),
            influences: edge_pairs(j, "influences")?,
            influenced_by: edge_pairs(j, "influenced_by")?,
            contract: contract_field(j)?,
        }),
        "remove_fcm" => Request::Mutation(Mutation::RemoveFcm {
            name: str_field(j, "name")?,
        }),
        "set_attr" => Request::Mutation(Mutation::SetAttr {
            name: str_field(j, "name")?,
            criticality: match j.get("criticality") {
                None => None,
                Some(_) => Some(
                    u32::try_from(uint_field(j, "criticality", 0)?)
                        .map_err(|_| "\"criticality\" out of range".to_string())?,
                ),
            },
            throughput: match j.get("throughput") {
                None => None,
                Some(_) => Some(f64_field(j, "throughput", 0.0)?),
            },
            timing: opt_timing(j)?,
        }),
        "fail_node" => Request::Mutation(Mutation::FailNode {
            node: str_field(j, "node")?,
        }),
        "restore_node" => Request::Mutation(Mutation::RestoreNode {
            node: str_field(j, "node")?,
        }),
        "influence" | "separation" => {
            let from = str_field(j, "from")?;
            let to = str_field(j, "to")?;
            let order = uint_field(j, "order", DEFAULT_ORDER as u64)? as usize;
            if order == 0 || order > 64 {
                return Err("\"order\" must be in 1..=64".to_string());
            }
            Request::Query(if op == "influence" {
                Query::Influence { from, to, order }
            } else {
                Query::Separation { from, to, order }
            })
        }
        "check" => Request::Query(Query::Check),
        "certify" => Request::Query(Query::Certify),
        "admit" => Request::Query(Query::Admit {
            node: str_field(j, "node")?,
            timing: opt_timing(j)?.flatten(),
            throughput: f64_field(j, "throughput", 0.0)?,
        }),
        "propose_placement" => Request::Query(Query::ProposePlacement {
            node: str_field(j, "node")?,
        }),
        "stats" => Request::Query(Query::Stats),
        "metrics" => Request::Query(Query::Metrics),
        "subscribe" => {
            let max_events = match j.get("max_events") {
                None => None,
                Some(v) => Some(
                    as_uint(v)
                        .filter(|&n| n > 0)
                        .ok_or_else(|| "\"max_events\" must be a positive integer".to_string())?,
                ),
            };
            let queue = match j.get("queue") {
                None => None,
                Some(v) => Some(
                    as_uint(v)
                        .filter(|&n| n > 0 && n <= 1 << 20)
                        .ok_or_else(|| "\"queue\" must be in 1..=1048576".to_string())?
                        as usize,
                ),
            };
            Request::Subscribe(SubscribeOpts { max_events, queue })
        }
        "list" => Request::Query(Query::List),
        "dump" => Request::Query(Query::Dump),
        "snapshot" => Request::Query(Query::Snapshot),
        "ping" => Request::Query(Query::Ping),
        other => return Err(format!("unknown op \"{other}\"")),
    };
    Ok(req)
}

/// Parses a mutation from its canonical JSON (the journal format).
///
/// # Errors
///
/// A malformed object, or a JSON that parses to a query.
pub fn mutation_from_json(j: &Json) -> Result<Mutation, String> {
    match parse_request(j)? {
        Request::Mutation(m) => Ok(m),
        Request::Query(_) | Request::Subscribe(_) => {
            Err("journal entry is not a mutation".to_string())
        }
    }
}

fn timing_json(t: Option<(u64, u64, u64)>) -> Json {
    match t {
        Some((e, d, c)) => Json::array([Json::from(e), Json::from(d), Json::from(c)]),
        None => Json::Null,
    }
}

fn pairs_json(pairs: &[(String, f64)]) -> Json {
    Json::array(
        pairs
            .iter()
            .map(|(n, w)| Json::array([Json::from(n.as_str()), Json::from(*w)])),
    )
}

/// Canonical JSON for a mutation — the journal format and the
/// round-trip normal form (parse∘render is the identity).
#[must_use]
pub fn mutation_to_json(m: &Mutation) -> Json {
    let base = Json::object().set("op", m.op());
    match m {
        Mutation::AddFcm {
            name,
            criticality,
            throughput,
            security,
            timing,
            influences,
            influenced_by,
            contract,
        } => {
            let mut j = base
                .set("criticality", *criticality)
                .set("influenced_by", pairs_json(influenced_by))
                .set("influences", pairs_json(influences))
                .set("name", name.as_str())
                .set("security", u64::from(*security))
                .set("throughput", *throughput)
                .set("timing", timing_json(*timing));
            if let Some(c) = contract {
                j = j.set("contract", contract_json(c));
            }
            j
        }
        Mutation::RemoveFcm { name } => base.set("name", name.as_str()),
        Mutation::SetAttr {
            name,
            criticality,
            throughput,
            timing,
        } => {
            let mut j = base.set("name", name.as_str());
            if let Some(c) = criticality {
                j = j.set("criticality", *c);
            }
            if let Some(t) = throughput {
                j = j.set("throughput", *t);
            }
            if let Some(t) = timing {
                j = j.set("timing", timing_json(*t));
            }
            j
        }
        Mutation::FailNode { node } | Mutation::RestoreNode { node } => {
            base.set("node", node.as_str())
        }
    }
}

/// Renders one response line (newline-terminated): `payload` fields plus
/// `"ok"`, or `"ok": false` with the error; the request `"id"` is echoed
/// when present. The payload's fields are written where they stand,
/// merged with `"id"` and `"ok"` in key order, so no response copies its
/// payload.
#[must_use]
pub fn render_response(id: Option<&Json>, result: &Result<Json, String>) -> String {
    let error;
    let payload = match result {
        Ok(payload) => payload,
        Err(e) => {
            // Convention: errors beginning with the `degraded:` marker
            // come from the read-only degraded mode (journal failure);
            // clients get a machine-checkable `"degraded": true` field
            // so they can distinguish "retry later" from "bad request".
            let mut obj = Json::object().set("error", e.as_str());
            if e.starts_with("degraded:") {
                obj = obj.set("degraded", true);
            }
            error = obj;
            &error
        }
    };
    let Json::Obj(fields) = payload else {
        panic!("a response payload is an object, got {payload:?}");
    };
    let ok = Json::Bool(result.is_ok());
    let mut entries: BTreeMap<&str, &Json> = fields.iter().map(|(k, v)| (k.as_str(), v)).collect();
    entries.insert("ok", &ok);
    if let Some(id) = id {
        entries.insert("id", id);
    }
    let mut line = String::from("{");
    for (i, (k, v)) in entries.into_iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        write_escaped(&mut line, k);
        line.push(':');
        v.write_compact(&mut line);
    }
    line.push_str("}\n");
    line
}

/// Renders the `dump` response line, `{"id":…,"matrix":…,"ok":true,
/// "state":…}`, with `state` writing the state text straight into the
/// line: the bytes [`render_response`] gives for the `dump` query's
/// tree, without parsing the state back or copying it.
#[must_use]
pub(crate) fn render_dump(
    id: Option<&Json>,
    matrix: &Json,
    state: impl FnOnce(&mut String),
) -> String {
    let mut line = String::from("{");
    if let Some(id) = id {
        line.push_str("\"id\":");
        id.write_compact(&mut line);
        line.push(',');
    }
    line.push_str("\"matrix\":");
    matrix.write_compact(&mut line);
    line.push_str(",\"ok\":true,\"state\":");
    state(&mut line);
    line.push_str("}\n");
    line
}

/// The hello line sent on connect.
#[must_use]
pub fn hello(model: &str, fcms: usize, hw: usize, seq: u64) -> String {
    let mut line = Json::object()
        .set("fcms", fcms as u64)
        .set("hw", hw as u64)
        .set("model", model)
        .set("schema", SCHEMA)
        .set("seq", seq)
        .to_string_compact();
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rendering before the payload was written in place: a copy
    /// of the payload with `"ok"` and `"id"` set on it.
    fn render_by_copy(id: Option<&Json>, result: &Result<Json, String>) -> String {
        let mut obj = match result {
            Ok(payload) => payload.clone().set("ok", true),
            Err(e) => {
                let mut obj = Json::object().set("error", e.as_str()).set("ok", false);
                if e.starts_with("degraded:") {
                    obj = obj.set("degraded", true);
                }
                obj
            }
        };
        if let Some(id) = id {
            obj = obj.set("id", id.clone());
        }
        let mut line = obj.to_string_compact();
        line.push('\n');
        line
    }

    #[test]
    fn responses_render_as_a_copy_with_id_and_ok_set_would() {
        let payloads = [
            Json::object(),
            Json::object().set("a", 1u64).set("z", "x"),
            Json::object().set("id", "shadowed").set("ok", false),
            Json::object()
                .set("hz", Json::array([0.5, 2.0]))
                .set("i", Json::Null)
                .set("idx", 3u64)
                .set("o", true)
                .set("okay", Json::object().set("n", 1u64)),
        ];
        let mut results: Vec<Result<Json, String>> = payloads.into_iter().map(Ok).collect();
        results.push(Err("unknown fcm \"q\"".to_string()));
        results.push(Err("degraded: journal append failed".to_string()));
        for id in [None, Some(Json::from(7u64)), Some(Json::from("req\n9"))] {
            for result in &results {
                assert_eq!(
                    render_response(id.as_ref(), result),
                    render_by_copy(id.as_ref(), result),
                    "{id:?} {result:?}"
                );
            }
        }
    }
}
