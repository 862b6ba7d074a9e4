//! Reading the server's own `/trace` ring: the spans production emits
//! are the spans the benchmark attributes time with. A trace has no
//! request id, so traces are assigned to a request *class* by their root
//! span and the size annotation of their work span (`cells` merged,
//! `groups` evaluated) — enough for per-class medians, which is all the
//! breakdown needs.

use crate::stats::{self, Span};
use serde_json::Value;

/// One request's (or one background refresh's) spans.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Root span name, e.g. `http::quantile`.
    pub root: String,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub started_unix_ms: u64,
    /// Root duration in microseconds.
    pub total_us: u64,
    /// Spans in completion order; the root is last.
    pub spans: Vec<Span>,
}

impl Trace {
    /// The first span called `name`.
    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Share of the root's duration no child span accounts for.
    pub fn unattributed_frac(&self) -> f64 {
        match self.spans.iter().position(|s| s.parent == 0) {
            Some(root) if self.total_us > 0 => {
                stats::self_time_us(&self.spans, root) as f64 / self.total_us as f64
            }
            _ => 0.0,
        }
    }
}

/// Parse the body of `GET /trace?last=N`.
pub fn parse(body: &str) -> Result<Vec<Trace>, String> {
    let doc = serde_json::from_str(body).map_err(|e| format!("/trace is not JSON: {e}"))?;
    let traces = doc
        .get("traces")
        .and_then(Value::as_array)
        .ok_or("/trace has no traces array")?;
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
    Ok(traces
        .iter()
        .map(|t| Trace {
            root: t
                .get("trace")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            started_unix_ms: num(t, "started_unix_ms"),
            total_us: num(t, "total_us"),
            spans: t
                .get("spans")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|s| Span {
                    id: num(s, "id"),
                    parent: num(s, "parent"),
                    name: s
                        .get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    start_us: num(s, "start_us"),
                    dur_us: num(s, "dur_us"),
                    size: s.get("fields").and_then(|f| {
                        ["cells", "groups"]
                            .iter()
                            .find_map(|k| f.get(k).and_then(Value::as_u64))
                    }),
                })
                .collect(),
        })
        .collect())
}

/// How a class's traces are recognised: root span name, plus the size
/// annotation of its work span when several classes share a route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Root span name.
    pub root: &'static str,
    /// The `cells` / `groups` annotations the class's requests produce;
    /// empty when the root alone discriminates.
    pub sizes: Vec<u64>,
}

impl Signature {
    /// Whether `trace` belongs to this class.
    pub fn matches(&self, trace: &Trace) -> bool {
        trace.root == self.root
            && (self.sizes.is_empty()
                || trace
                    .spans
                    .iter()
                    .any(|s| s.parent != 0 && s.size.is_some_and(|n| self.sizes.contains(&n))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = r#"{"slow_query_ms":0,"traces":[
      {"trace":"http::quantile","started_unix_ms":1700,"total_us":100,"slow":false,"spans":[
        {"id":2,"parent":1,"name":"server::merge_cells","start_us":5,"dur_us":40,"fields":{"cells":250}},
        {"id":3,"parent":1,"name":"server::estimate","start_us":50,"dur_us":45,"fields":{"phis":2,"degraded":false}},
        {"id":1,"parent":0,"name":"http::quantile","start_us":0,"dur_us":100,"fields":{"status":200}}]},
      {"trace":"server::refresh","started_unix_ms":1800,"total_us":7,"slow":false,"spans":[
        {"id":1,"parent":0,"name":"server::refresh","start_us":0,"dur_us":7}]}],
      "events":[]}"#;

    #[test]
    fn parses_the_ring_and_attributes_root_time() {
        let traces = parse(BODY).unwrap();
        assert_eq!(traces.len(), 2);
        let q = &traces[0];
        assert_eq!(
            (q.root.as_str(), q.total_us, q.spans.len()),
            ("http::quantile", 100, 3)
        );
        assert_eq!(q.span("server::merge_cells").unwrap().size, Some(250));
        assert!((q.unattributed_frac() - 0.15).abs() < 1e-9);
        assert_eq!(traces[1].unattributed_frac(), 1.0);
    }

    #[test]
    fn signatures_tell_classes_of_one_route_apart() {
        let traces = parse(BODY).unwrap();
        let slice = Signature {
            root: "http::quantile",
            sizes: vec![200, 250],
        };
        let cell = Signature {
            root: "http::quantile",
            sizes: vec![1],
        };
        let refresh = Signature {
            root: "server::refresh",
            sizes: Vec::new(),
        };
        assert!(slice.matches(&traces[0]) && !cell.matches(&traces[0]));
        assert!(refresh.matches(&traces[1]) && !refresh.matches(&traces[0]));
    }
}
