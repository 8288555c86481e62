//! In-memory spans for the traced run and the arithmetic over them.
//!
//! Every span carries the id of the request that caused it: the client's
//! round trip is the root, and the server loop's `parse`, `handle` and
//! `serialize` spans are its children. Spans stay in memory during the run
//! and are written out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::Write;

/// A request id: the connection's accept index and the line's position on
/// that connection. Both ends of the loopback derive it the same way, since
/// a connection serves its lines strictly in order.
pub type RequestId = (usize, u64);

/// The root span of a request: the client's send-to-response round trip.
pub const ROUND_TRIP: &str = "client.round_trip";
/// `Request::parse` of the line.
pub const PARSE: &str = "protocol.parse";
/// `ShardedServer::handle` of the parsed request.
pub const HANDLE: &str = "server.handle";
/// `serde_json::to_string` of the response value.
pub const SERIALIZE: &str = "protocol.serialize";

/// One timed interval, in seconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The request this span belongs to.
    pub id: RequestId,
    /// The layer boundary it times.
    pub name: &'static str,
    /// The span that caused it (`None` for the round trip).
    pub parent: Option<&'static str>,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
}

impl Span {
    /// The span's length.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once, and any part
/// of a child outside the parent is ignored).
pub fn self_time(parent: &Span, children: &[Span]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (start, end) in clipped {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((s, e)) = current {
        covered += e - s;
    }
    parent.duration() - covered
}

/// Per-request breakdown of the round trip into its child layers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Requests with a round trip and all three child spans.
    pub requests: usize,
    /// Mean round trip.
    pub round_trip: f64,
    /// Mean parse time.
    pub parse: f64,
    /// Mean handle time.
    pub handle: f64,
    /// Mean serialize time.
    pub serialize: f64,
    /// Mean round-trip self time: what no child span accounts for
    /// (transport, the loop's reads and writes, scheduling).
    pub unattributed: f64,
}

impl Breakdown {
    /// The accounting check: the child means plus the unattributed mean
    /// must rebuild the round-trip mean. Returns the absolute gap.
    pub fn accounting_gap(&self) -> f64 {
        (self.parse + self.handle + self.serialize + self.unattributed - self.round_trip).abs()
    }
}

/// Groups spans by request and averages each layer over the requests that
/// have a complete set (round trip, parse, handle, serialize).
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut by_request: BTreeMap<RequestId, Vec<Span>> = BTreeMap::new();
    for span in spans {
        by_request.entry(span.id).or_default().push(*span);
    }
    let mut sums = [0.0f64; 5];
    let mut requests = 0usize;
    for group in by_request.values() {
        let find = |name: &str| group.iter().find(|s| s.name == name);
        let (Some(root), Some(parse), Some(handle), Some(serialize)) =
            (find(ROUND_TRIP), find(PARSE), find(HANDLE), find(SERIALIZE))
        else {
            continue;
        };
        let children = [*parse, *handle, *serialize];
        sums[0] += root.duration();
        sums[1] += parse.duration();
        sums[2] += handle.duration();
        sums[3] += serialize.duration();
        sums[4] += self_time(root, &children);
        requests += 1;
    }
    if requests == 0 {
        return Breakdown::default();
    }
    let n = requests as f64;
    Breakdown {
        requests,
        round_trip: sums[0] / n,
        parse: sums[1] / n,
        handle: sums[2] / n,
        serialize: sums[3] / n,
        unattributed: sums[4] / n,
    }
}

/// Writes every span as one JSON line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        writeln!(
            out,
            "{{\"conn\":{},\"line\":{},\"name\":\"{}\",\"parent\":{},\"start\":{:?},\"end\":{:?}}}",
            span.id.0,
            span.id.1,
            span.name,
            span.parent
                .map(|p| format!("\"{p}\""))
                .unwrap_or_else(|| "null".to_string()),
            span.start,
            span.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id: (0, 0),
            name,
            parent: (name != ROUND_TRIP).then_some(ROUND_TRIP),
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let root = span(ROUND_TRIP, 0.0, 10.0);
        let children = [span(PARSE, 1.0, 2.0), span(HANDLE, 2.0, 6.0)];
        assert_eq!(self_time(&root, &children), 5.0);
        // Overlapping children count their union; parts outside the
        // parent are clipped away.
        let overlapping = [
            span(HANDLE, 1.0, 4.0),
            span(HANDLE, 3.0, 5.0),
            span(PARSE, 9.0, 12.0),
        ];
        assert_eq!(self_time(&root, &overlapping), 10.0 - 4.0 - 1.0);
        assert_eq!(self_time(&root, &[]), 10.0);
    }

    #[test]
    fn breakdown_residual_closes_the_accounting() {
        let mut spans = Vec::new();
        for (i, (rt, parse, handle, serialize)) in [(10.0, 1.0, 5.0, 1.0), (20.0, 2.0, 10.0, 4.0)]
            .into_iter()
            .enumerate()
        {
            let id = (1, i as u64);
            let at = 100.0 * i as f64;
            let mut push = |name, start: f64, end: f64| {
                spans.push(Span {
                    id,
                    name,
                    parent: (name != ROUND_TRIP).then_some(ROUND_TRIP),
                    start,
                    end,
                })
            };
            push(ROUND_TRIP, at, at + rt);
            push(PARSE, at + 0.5, at + 0.5 + parse);
            push(HANDLE, at + 0.5 + parse, at + 0.5 + parse + handle);
            push(
                SERIALIZE,
                at + 0.5 + parse + handle,
                at + 0.5 + parse + handle + serialize,
            );
        }
        // A request missing its server spans is left out of the means.
        spans.push(Span {
            id: (2, 0),
            name: ROUND_TRIP,
            parent: None,
            start: 0.0,
            end: 99.0,
        });
        let b = breakdown(&spans);
        assert_eq!(b.requests, 2);
        assert_eq!(b.round_trip, 15.0);
        assert_eq!(b.parse, 1.5);
        assert_eq!(b.handle, 7.5);
        assert_eq!(b.serialize, 2.5);
        assert_eq!(b.unattributed, (3.0 + 4.0) / 2.0);
        assert!(b.accounting_gap() < 1e-12);
    }
}
