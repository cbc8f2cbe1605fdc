//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in order. A
//! request is a JSON object with an `"op"` discriminator:
//!
//! ```text
//! {"op":"estimate","query":"R1(x,y), R2(y,z)","epsilon":0.1,"seed":24301,"method":"auto"}
//! {"op":"estimate","query":"R1(x,y), R2(y,z)","evidence":"R2('b','c')"}
//! {"op":"reliability","query":"R1(x,y), R2(y,z)","epsilon":0.1,"seed":24301}
//! {"op":"graph_estimate","rpq":"a -> road* -> b","epsilon":0.1,"seed":24301,"method":"auto"}
//! {"op":"classify","query":"R1(x,y), R2(y,z)"}
//! {"op":"update","delta":"~ 2/5 R2(b,c)\n+ 1/3 R1(a,e)"}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! All fields except `op` (and `query` where shown) are optional; the
//! defaults equal the CLI's (`ε = 0.1`, `seed = 0x5eed`, `method =
//! "auto"`, `threads` = server default, at most [`MAX_THREADS`] like
//! `--threads`), so a served estimate is bit-identical to the same
//! `pqe estimate` invocation. Responses always
//! carry `"ok"`; failures are structured, never dropped connections:
//!
//! ```text
//! {"ok":false,"error":"overloaded","message":"..."}   // admission bound hit
//! {"ok":false,"error":"timeout","message":"..."}      // deadline exceeded
//! {"ok":false,"error":"bad_request","message":"..."}  // malformed JSON / unknown op
//! {"ok":false,"error":"eval_error","message":"..."}   // reduction/parse failure
//! ```

use crate::json::Json;
use pqe_automata::config::MIN_EPSILON;
use pqe_core::{GraphMethod, Method};
use pqe_par::MAX_THREADS;

/// Default ε when a request omits `"epsilon"` (matches the CLI).
pub const DEFAULT_EPSILON: f64 = 0.1;
/// Default seed when a request omits `"seed"` (matches the CLI).
pub const DEFAULT_SEED: u64 = 0x5eed;

/// The execution parameters every heavy op carries, decoded once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Target relative error, in `(0, 1)`.
    pub epsilon: f64,
    /// RNG seed (estimates are bit-identical per seed).
    pub seed: u64,
    /// Worker threads (0 = server default; at most [`MAX_THREADS`];
    /// never changes the estimate).
    pub threads: usize,
    /// Artificial pre-execution delay, for load/overload testing.
    pub delay_ms: u64,
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `PQEEstimate` / lifted inference over the served instance.
    Estimate {
        /// Query text (parsed and normalized server-side).
        query: String,
        /// Optional evidence conjunction: evaluates `P(Q | E)` instead of
        /// `P(Q)` (query syntax, parsed server-side).
        evidence: Option<String>,
        /// `auto` | `lifted` | `fpras`.
        method: Method,
        /// ε, seed, threads, delay.
        params: Params,
    },
    /// `UREstimate` over the served instance (probabilities ignored).
    Reliability {
        /// Query text.
        query: String,
        /// ε, seed, threads, delay.
        params: Params,
    },
    /// RPQ reliability over the served probabilistic graph (requires the
    /// server to have been started with one).
    GraphEstimate {
        /// RPQ text `source -> regex -> target` (parsed and normalized
        /// server-side).
        rpq: String,
        /// `auto` | `enum` | `fpras`.
        method: GraphMethod,
        /// ε, seed, threads, delay.
        params: Params,
    },
    /// Table 1 landscape classification (no database access).
    Classify {
        /// Query text.
        query: String,
    },
    /// Applies a delta batch (the `pqe-delta` text format, `\n`-separated
    /// ops) to the served database atomically: all ops validate or none
    /// apply. Bumps the relation epochs of the touched relations; cached
    /// plans revalidate lazily on their next hit.
    Update {
        /// Delta batch text (`+ p F` / `- F` / `~ p F` lines).
        delta: String,
    },
    /// Service counters and cache statistics.
    Stats,
    /// Live telemetry: request-latency histograms (p50/p95/p99) and
    /// cache/admission counters from the `pqe-obs` registry.
    Metrics,
    /// Stop accepting connections and exit cleanly.
    Shutdown,
}

/// Why a request failed — the `"error"` discriminator of an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Admission control rejected the request (max in-flight reached).
    Overloaded,
    /// The per-request wall-clock deadline passed.
    Timeout,
    /// Malformed JSON, missing fields, or an unknown op/method.
    BadRequest,
    /// The engine refused the query (self-joins, unbounded width, …).
    EvalError,
}

impl ErrorKind {
    /// The wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Timeout => "timeout",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::EvalError => "eval_error",
        }
    }
}

/// Encodes an error response line (without trailing newline).
pub fn error_response(kind: ErrorKind, message: impl Into<String>) -> String {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::str(kind.tag())),
        ("message", Json::str(message.into())),
    ])
    .to_string()
}

fn opt_f64(v: &Json, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(x) => x.as_f64().ok_or_else(|| format!("field {key:?} must be a number")),
    }
}

fn opt_u64(v: &Json, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

fn opt_str<'a>(v: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x.as_str().map(Some).ok_or_else(|| format!("field {key:?} must be a string")),
    }
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// Decodes the fields every heavy op shares (defaults as the CLI's).
fn params(v: &Json) -> Result<Params, String> {
    let epsilon = opt_f64(v, "epsilon", DEFAULT_EPSILON)?;
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(format!("epsilon must lie in (0,1), got {epsilon}"));
    }
    if epsilon < MIN_EPSILON {
        return Err(format!("epsilon must be at least {MIN_EPSILON}, got {epsilon}"));
    }
    let threads = opt_u64(v, "threads", 0)?;
    if threads > MAX_THREADS as u64 {
        return Err(format!(
            "field \"threads\" must be at most {MAX_THREADS} (0 = server default), got {threads}"
        ));
    }
    Ok(Params {
        epsilon,
        seed: opt_u64(v, "seed", DEFAULT_SEED)?,
        threads: threads as usize,
        delay_ms: opt_u64(v, "delay_ms", 0)?,
    })
}

/// Decodes `"method"` (default `auto`) with `parse`, whose error carries
/// the router's "did you mean" hint — a typo like `"fprs"` is diagnosed
/// instead of silently falling through to some default.
fn method<M>(v: &Json, parse: fn(&str) -> Result<M, String>) -> Result<M, String> {
    parse(opt_str(v, "method")?.unwrap_or("auto"))
}

impl Request {
    /// Decodes one request line. `Err` carries a human-readable message
    /// suitable for a `bad_request` response.
    pub fn decode(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let op = req_str(&v, "op")?;
        match op.as_str() {
            "estimate" => Ok(Request::Estimate {
                params: params(&v)?,
                method: method(&v, Method::parse)?,
                evidence: opt_str(&v, "evidence")?.map(str::to_owned),
                query: req_str(&v, "query")?,
            }),
            "reliability" => Ok(Request::Reliability {
                params: params(&v)?,
                query: req_str(&v, "query")?,
            }),
            "graph_estimate" => Ok(Request::GraphEstimate {
                params: params(&v)?,
                method: method(&v, GraphMethod::parse)?,
                rpq: req_str(&v, "rpq")?,
            }),
            "classify" => Ok(Request::Classify { query: req_str(&v, "query")? }),
            "update" => Ok(Request::Update { delta: req_str(&v, "delta")? }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown op {other:?} (expected estimate, graph_estimate, reliability, classify, update, stats, metrics, shutdown)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_estimate_with_defaults() {
        let r = Request::decode(r#"{"op":"estimate","query":"R(x,y)"}"#).unwrap();
        assert_eq!(
            r,
            Request::Estimate {
                query: "R(x,y)".into(),
                evidence: None,
                method: Method::Auto,
                params: Params {
                    epsilon: DEFAULT_EPSILON,
                    seed: DEFAULT_SEED,
                    threads: 0,
                    delay_ms: 0,
                },
            }
        );
    }

    #[test]
    fn decodes_evidence_field() {
        let r = Request::decode(r#"{"op":"estimate","query":"R(x,y)","evidence":"S('b','c')"}"#)
            .unwrap();
        match r {
            Request::Estimate { evidence, .. } => {
                assert_eq!(evidence.as_deref(), Some("S('b','c')"));
            }
            other => panic!("wrong variant {other:?}"),
        }
        let r = Request::decode(r#"{"op":"estimate","query":"R(x,y)","evidence":null}"#).unwrap();
        match r {
            Request::Estimate { evidence, .. } => assert_eq!(evidence, None),
            other => panic!("wrong variant {other:?}"),
        }
        let e = Request::decode(r#"{"op":"estimate","query":"R(x,y)","evidence":7}"#).unwrap_err();
        assert!(e.contains("evidence"), "{e}");
    }

    #[test]
    fn unknown_method_gets_a_did_you_mean_hint() {
        let e = Request::decode(r#"{"op":"estimate","query":"Q()","method":"fprs"}"#).unwrap_err();
        assert!(e.contains("did you mean \"fpras\"?"), "{e}");
    }

    #[test]
    fn decodes_explicit_fields() {
        let r = Request::decode(
            r#"{"op":"estimate","query":"Q()","epsilon":0.25,"seed":7,"method":"fpras","threads":2}"#,
        )
        .unwrap();
        match r {
            Request::Estimate { method, params, .. } => {
                assert_eq!(params.epsilon, 0.25);
                assert_eq!(params.seed, 7);
                assert_eq!(method, Method::Fpras);
                assert_eq!(params.threads, 2);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_requests_with_messages() {
        assert!(Request::decode("not json").unwrap_err().contains("JSON"));
        assert!(Request::decode(r#"{"op":"estimate"}"#).unwrap_err().contains("query"));
        assert!(Request::decode(r#"{"op":"frobnicate"}"#).unwrap_err().contains("unknown op"));
        assert!(Request::decode(r#"{"op":"estimate","query":"Q()","epsilon":2}"#)
            .unwrap_err()
            .contains("epsilon"));
        assert!(Request::decode(r#"{"op":"estimate","query":"Q()","method":"brute"}"#)
            .unwrap_err()
            .contains("method"));
    }

    #[test]
    fn decodes_graph_estimate() {
        let r = Request::decode(r#"{"op":"graph_estimate","rpq":"a -> r* -> b"}"#).unwrap();
        assert_eq!(
            r,
            Request::GraphEstimate {
                rpq: "a -> r* -> b".into(),
                method: GraphMethod::Auto,
                params: Params {
                    epsilon: DEFAULT_EPSILON,
                    seed: DEFAULT_SEED,
                    threads: 0,
                    delay_ms: 0,
                },
            }
        );
        let e = Request::decode(r#"{"op":"graph_estimate"}"#).unwrap_err();
        assert!(e.contains("rpq"), "{e}");
        let e = Request::decode(r#"{"op":"graph_estimate","rpq":"a -> r -> b","method":"enm"}"#)
            .unwrap_err();
        assert!(e.contains("did you mean \"enum\"?"), "{e}");
        let e = Request::decode(r#"{"op":"graph_estimate","rpq":"a -> r -> b","epsilon":0}"#)
            .unwrap_err();
        assert!(e.contains("epsilon"), "{e}");
    }

    #[test]
    fn threads_are_bounded_on_every_heavy_op() {
        for op in [
            r#""op":"estimate","query":"Q()""#,
            r#""op":"reliability","query":"Q()""#,
            r#""op":"graph_estimate","rpq":"a -> r -> b""#,
        ] {
            let at_bound = format!(r#"{{{op},"threads":{MAX_THREADS}}}"#);
            assert!(Request::decode(&at_bound).is_ok(), "{at_bound}");
            // Above the bound, as a number or as a numeric string (the
            // u64 escape hatch): a bad_request naming the bound.
            for threads in ["4097", r#""18446744073709551615""#] {
                let line = format!(r#"{{{op},"threads":{threads}}}"#);
                let e = Request::decode(&line).unwrap_err();
                assert!(e.contains("at most 4096"), "{line}: {e}");
            }
        }
    }

    #[test]
    fn decodes_update() {
        let r = Request::decode(r#"{"op":"update","delta":"~ 1/2 R(a,b)"}"#).unwrap();
        assert_eq!(r, Request::Update { delta: "~ 1/2 R(a,b)".into() });
        let e = Request::decode(r#"{"op":"update"}"#).unwrap_err();
        assert!(e.contains("delta"), "{e}");
    }

    #[test]
    fn stats_and_shutdown_are_bare() {
        assert_eq!(Request::decode(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(Request::decode(r#"{"op":"metrics"}"#).unwrap(), Request::Metrics);
        assert_eq!(Request::decode(r#"{"op":"shutdown"}"#).unwrap(), Request::Shutdown);
    }

    #[test]
    fn error_responses_are_structured() {
        let line = error_response(ErrorKind::Overloaded, "1 in flight");
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("overloaded"));
    }
}
