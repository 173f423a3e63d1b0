//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, answered **in request
//! order per connection** (the front end reorders shard replies; see
//! [`crate::front`]).  Requests:
//!
//! ```json
//! {"fn": "main", "input": "[1, 2, 3]"}
//! {"fn": "main", "input": "[1, 2, 3]", "id": 7}
//! {"cmd": "metrics"}
//! {"cmd": "shutdown"}
//! ```
//!
//! `input` is a **string containing an NSC value literal** (the same
//! grammar `nsc run --input` accepts); `id` is any JSON scalar — a
//! number below `2^53` in magnitude, so that it round-trips exactly — and
//! is echoed back verbatim.  There is one machine: a call may still say
//! `"backend": "seq"`, and any other `backend` is a `bad-request`.
//! Responses:
//!
//! ```json
//! {"output": "[1, 4, 9]"}
//! {"id": 7, "error": "admission queue full", "kind": "overloaded"}
//! {"snapshots": [{"fn": "main", "backend": "seq", …}]}
//! {"ok": "draining"}
//! ```
//!
//! `kind` classifies errors machine-readably; in particular `"omega"`
//! (legitimate divergence) vs `"fault"` (a compiler/machine bug) is
//! exactly the single-run `EvalError` classification.

use crate::json::{self, Json};
use crate::ServeError;
use std::collections::BTreeMap;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `{"fn": …, "input": …}` — run one request.
    Call {
        /// Registered function name.
        fn_name: String,
        /// NSC value literal text.
        input: String,
        /// Correlation id, echoed into the response.
        id: Option<Json>,
    },
    /// `{"cmd": "metrics"}` — dump every shard's [`crate::Snapshot`].
    Metrics,
    /// `{"cmd": "shutdown"}` — drain and stop the server.
    Shutdown,
}

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::BadRequest(msg.into())
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let doc = json::parse(line).map_err(|e| bad(e.to_string()))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(bad("request must be a JSON object"));
    }
    if let Some(cmd) = doc.get("cmd") {
        return match cmd.as_str() {
            Some("metrics") => Ok(Request::Metrics),
            Some("shutdown") => Ok(Request::Shutdown),
            _ => Err(bad("`cmd` must be \"metrics\" or \"shutdown\"")),
        };
    }
    let fn_name = doc
        .get("fn")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field `fn`"))?
        .to_string();
    let input = doc
        .get("input")
        .ok_or_else(|| bad("missing field `input`"))?
        .as_str()
        .ok_or_else(|| bad("`input` must be a string containing an NSC value literal"))?
        .to_string();
    if doc
        .get("backend")
        .is_some_and(|b| b.as_str() != Some("seq"))
    {
        return Err(bad("`backend` must be \"seq\", the one machine"));
    }
    let id = doc.get("id").cloned();
    match &id {
        Some(Json::Arr(_) | Json::Obj(_)) => return Err(bad("`id` must be a JSON scalar")),
        Some(id) if !echoes_exactly(id) => {
            return Err(bad(
                "a numeric `id` must be below 2^53 in magnitude; send it as a string",
            ))
        }
        _ => {}
    }
    Ok(Request::Call { fn_name, input, id })
}

/// Whether `id` comes back as the client sent it: a scalar, and if a
/// number, one below `2^53` in magnitude — past that an `f64` may round
/// it to a neighbour.
fn echoes_exactly(id: &Json) -> bool {
    match id {
        Json::Arr(_) | Json::Obj(_) => false,
        Json::Num(n) => n.abs() < 9_007_199_254_740_992.0,
        _ => true,
    }
}

/// The correlation id to echo in the error reply to a line
/// [`parse_request`] rejected: its `id`, when the line is still a JSON
/// object carrying one that [`parse_request`] would have echoed.
pub fn rejected_id(line: &str) -> Option<Json> {
    json::parse(line)
        .ok()?
        .get("id")
        .filter(|id| echoes_exactly(id))
        .cloned()
}

fn with_id(mut fields: BTreeMap<String, Json>, id: Option<&Json>) -> String {
    if let Some(id) = id {
        fields.insert("id".into(), id.clone());
    }
    Json::Obj(fields).render()
}

/// Renders a success response line (no trailing newline).
pub fn render_output(id: Option<&Json>, output: &str) -> String {
    let mut m = BTreeMap::new();
    m.insert("output".into(), Json::Str(output.to_string()));
    with_id(m, id)
}

/// Renders an error response line (no trailing newline).
pub fn render_error(id: Option<&Json>, e: &ServeError) -> String {
    let mut m = BTreeMap::new();
    m.insert("error".into(), Json::Str(e.to_string()));
    m.insert("kind".into(), Json::Str(e.kind().into()));
    with_id(m, id)
}

/// Renders the `{"cmd": "metrics"}` reply.
pub fn render_snapshots(snapshots: &[crate::Snapshot]) -> String {
    let mut m = BTreeMap::new();
    m.insert(
        "snapshots".into(),
        Json::Arr(snapshots.iter().map(crate::Snapshot::to_json).collect()),
    );
    Json::Obj(m).render()
}

/// Renders the `{"cmd": "shutdown"}` acknowledgement.
pub fn render_draining() -> String {
    let mut m = BTreeMap::new();
    m.insert("ok".into(), Json::Str("draining".into()));
    Json::Obj(m).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_calls_with_and_without_options() {
        assert_eq!(
            parse_request(r#"{"fn": "main", "input": "[1, 2]"}"#).unwrap(),
            Request::Call {
                fn_name: "main".into(),
                input: "[1, 2]".into(),
                id: None,
            }
        );
        assert_eq!(
            parse_request(r#"{"fn": "f", "input": "()", "backend": "seq", "id": 3}"#).unwrap(),
            Request::Call {
                fn_name: "f".into(),
                input: "()".into(),
                id: Some(Json::Num(3.0)),
            }
        );
    }

    #[test]
    fn parses_commands() {
        assert_eq!(
            parse_request(r#"{"cmd": "metrics"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request(r#"{"cmd": "shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "not json",
            "[]",
            r#"{"fn": "f"}"#,
            r#"{"input": "[1]"}"#,
            r#"{"fn": "f", "input": [1, 2]}"#,
            r#"{"fn": "f", "input": "()", "backend": "gpu"}"#,
            r#"{"fn": "f", "input": "()", "backend": "par"}"#,
            r#"{"fn": "f", "input": "()", "backend": 1}"#,
            r#"{"fn": "f", "input": "()", "id": [1]}"#,
            r#"{"cmd": "reboot"}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.kind(), "bad-request", "{bad:?} -> {e}");
        }
    }

    /// An id that would not come back as sent is refused, and its error
    /// reply carries no id; every id up to `2^53 - 1` is echoed exactly.
    #[test]
    fn ids_are_echoed_exactly_or_refused() {
        let call = |id: &str| format!(r#"{{"fn": "f", "input": "()", "id": {id}}}"#);
        for id in [
            "9007199254740991",
            "-9007199254740991",
            "0.5",
            "\"9007199254740993\"",
        ] {
            let Request::Call { id: Some(got), .. } = parse_request(&call(id)).unwrap() else {
                panic!("{id} is a call with an id");
            };
            assert_eq!(
                render_output(Some(&got), "()"),
                format!(r#"{{"id": {id}, "output": "()"}}"#)
            );
        }
        for id in [
            "9007199254740992",
            "9007199254740993",
            "-9007199254740992",
            "1e300",
            "1e400",
            "01",
        ] {
            let line = call(id);
            let e = parse_request(&line).unwrap_err();
            assert_eq!(e.kind(), "bad-request", "{id}");
            assert_eq!(rejected_id(&line), None, "{id}");
        }
    }

    #[test]
    fn responses_echo_the_id_and_escape_payloads() {
        let id = Json::Str("a\"b".into());
        assert_eq!(
            render_output(Some(&id), "[1, 4]"),
            r#"{"id": "a\"b", "output": "[1, 4]"}"#
        );
        let line = render_error(None, &ServeError::Overloaded);
        assert_eq!(
            line,
            r#"{"error": "admission queue full", "kind": "overloaded"}"#
        );
    }
}
