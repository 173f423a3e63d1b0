//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, answered **in request
//! order per connection** (the front end reorders shard replies; see
//! [`crate::front`]).  Requests:
//!
//! ```json
//! {"fn": "main", "input": "[1, 2, 3]"}
//! {"fn": "main", "input": "[1, 2, 3]", "id": 7, "backend": "par"}
//! {"cmd": "metrics"}
//! {"cmd": "shutdown"}
//! ```
//!
//! `input` is a **string containing an NSC value literal** (the same
//! grammar `nsc run --input` accepts); `id` is any JSON scalar and is
//! echoed back verbatim; `backend` overrides the server's default shard
//! backend.  Responses:
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
use nsc_compile::Backend;
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
        /// Shard backend override.
        backend: Option<Backend>,
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
    let backend = match doc.get("backend") {
        None => None,
        Some(b) => match b.as_str() {
            Some("seq") => Some(Backend::Seq),
            Some("par") => Some(Backend::Par),
            _ => return Err(bad("`backend` must be \"seq\" or \"par\"")),
        },
    };
    let id = doc.get("id").cloned();
    if id.as_ref().is_some_and(|id| !is_scalar(id)) {
        return Err(bad("`id` must be a JSON scalar"));
    }
    Ok(Request::Call {
        fn_name,
        input,
        backend,
        id,
    })
}

fn is_scalar(j: &Json) -> bool {
    !matches!(j, Json::Arr(_) | Json::Obj(_))
}

/// The correlation id to echo in the error reply to a line
/// [`parse_request`] rejected: its scalar `id`, when the line is still a
/// JSON object carrying one.
pub fn rejected_id(line: &str) -> Option<Json> {
    json::parse(line)
        .ok()?
        .get("id")
        .filter(|id| is_scalar(id))
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
                backend: None,
                id: None,
            }
        );
        assert_eq!(
            parse_request(r#"{"fn": "f", "input": "()", "backend": "par", "id": 3}"#).unwrap(),
            Request::Call {
                fn_name: "f".into(),
                input: "()".into(),
                backend: Some(Backend::Par),
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
            r#"{"fn": "f", "input": "()", "id": [1]}"#,
            r#"{"cmd": "reboot"}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.kind(), "bad-request", "{bad:?} -> {e}");
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
