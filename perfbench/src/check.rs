//! Output checks. Every operation the benchmark performs (a day's publish,
//! a restart, an HTTP request, a counter cross-check) is tallied; an
//! operation fails when any of its checks fails, and counts once however
//! many of its checks fail.

use dlinfma_obs::JsonValue;
use dlinfma_store::{LocationSnapshot, QuerySource};
use dlinfma_synth::AddressId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How many failure messages a tally keeps for the report.
const KEEP_MESSAGES: usize = 8;

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Operations performed.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// The first failure messages, in order.
    pub messages: Vec<String>,
}

impl Tally {
    /// Records one operation whose checks gave `problems` (empty = passed).
    pub fn op(&mut self, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.messages.len() < KEEP_MESSAGES {
                self.messages.push(problems.join("; "));
            }
        }
    }

    /// Records one operation with a single check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.op(&[]);
        } else {
            self.op(&[what()]);
        }
    }
}

/// The wire name of a fallback tier, as the server renders it.
pub fn source_name(src: QuerySource) -> &'static str {
    match src {
        QuerySource::Address => "address",
        QuerySource::Building => "building",
        QuerySource::Geocode => "geocode",
    }
}

/// One `/lookup` response as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Connection the response arrived on.
    pub conn: u32,
    /// Address asked for.
    pub addr: u32,
    /// HTTP status.
    pub status: u16,
    /// The epoch the response carries (`None` when absent).
    pub epoch: Option<u64>,
    /// `(x, y, source)` of the answer (`None` when absent).
    pub point: Option<(f64, f64, String)>,
}

impl Answer {
    /// Extracts the checked fields from a response body.
    pub fn from_body(conn: u32, addr: u32, status: u16, body: &JsonValue) -> Self {
        let num = |k: &str| body.get(k).and_then(JsonValue::as_f64);
        let source = body.get("source").and_then(JsonValue::as_str);
        let point = match (num("x"), num("y"), source) {
            (Some(x), Some(y), Some(s)) => Some((x, y, s.to_string())),
            _ => None,
        };
        Self {
            conn,
            addr,
            status,
            epoch: num("epoch").map(|e| e as u64),
            point,
        }
    }
}

/// The published snapshots, by epoch: what every response is checked
/// against.
pub type Published = BTreeMap<u64, Arc<LocationSnapshot>>;

/// Checks every answer, in arrival order per connection: the status is
/// 200, the epoch never goes backwards on its connection, and the answer
/// equals an in-process [`LocationSnapshot::query`] on the snapshot of the
/// epoch the response carries. One tally operation per answer.
pub fn check_answers(answers: &[Answer], published: &Published, tally: &mut Tally) {
    let mut last_epoch: BTreeMap<u32, u64> = BTreeMap::new();
    for a in answers {
        let mut problems = Vec::new();
        if a.status != 200 {
            problems.push(format!("address {}: HTTP {}", a.addr, a.status));
        }
        match a.epoch {
            None => problems.push(format!("address {}: response has no epoch", a.addr)),
            Some(epoch) => {
                let last = last_epoch.entry(a.conn).or_insert(epoch);
                if epoch < *last {
                    problems.push(format!(
                        "connection {}: epoch went backwards ({} -> {epoch})",
                        a.conn, *last
                    ));
                }
                *last = (*last).max(epoch);
                match published.get(&epoch) {
                    None => problems.push(format!("epoch {epoch} was never published")),
                    Some(snap) => {
                        let want = snap
                            .query(AddressId(a.addr))
                            .map(|(p, src)| (p.x, p.y, source_name(src).to_string()));
                        let same = match (&want, &a.point) {
                            (Some((wx, wy, ws)), Some((x, y, s))) => {
                                wx.to_bits() == x.to_bits()
                                    && wy.to_bits() == y.to_bits()
                                    && ws == s
                            }
                            _ => false,
                        };
                        if !same {
                            problems.push(format!(
                                "address {} at epoch {epoch}: served {:?}, snapshot says {:?}",
                                a.addr, a.point, want
                            ));
                        }
                    }
                }
            }
        }
        tally.op(&problems);
    }
}

/// Compares two snapshots address by address over `addrs`; returns the
/// first few disagreements.
pub fn snapshot_diffs(
    a: &LocationSnapshot,
    b: &LocationSnapshot,
    addrs: &[AddressId],
) -> Vec<String> {
    addrs
        .iter()
        .filter(|&&id| a.query(id) != b.query(id))
        .take(3)
        .map(|id| format!("address {}: {:?} vs {:?}", id.0, a.query(*id), b.query(*id)))
        .collect()
}
