#![warn(missing_docs)]

//! # pqe-graph — probabilistic graphs with regular path queries
//!
//! The graph workload family of the combined-FPRAS landscape: an
//! edge-labeled directed multigraph whose edges exist independently with
//! rational probabilities ([`ProbGraph`]), queried with regular path
//! queries ([`Rpq`]: `source -> regex -> target`). The probability that a
//! random world contains a matching path is the graph analogue of
//! probabilistic query evaluation — #P-hard exactly, approximable on DAGs
//! by compiling to a `#NFA` instance ([`compile()`]) and counting with the
//! CountNFA FPRAS of `pqe-automata`, exactly as the paper's §3 path-query
//! reduction does for databases. This is the workload of the paper's two
//! direct sequels (Amarilli–van Bremen–Gaspard–Meel;
//! Amarilli–Monet–Senellart).
//!
//! Modules: [`model`] (graph), [`io`] (text format), [`rpq`] (query AST +
//! parser + label NFA), [`mod@compile`] (the layered world-scan product
//! construction), [`oracle`] (exact world enumeration for small graphs),
//! [`generators`] (deterministic workload shapes). Routing between the
//! compiled FPRAS and the oracle lives in `pqe_core::router`.

pub mod compile;
pub mod generators;
pub mod io;
pub mod model;
pub mod oracle;
pub mod rpq;

pub use compile::{compile, CompileError, CompiledRpq};
pub use io::{load_str, save_string};
pub use model::{Edge, EdgeId, LabelId, ProbGraph, VertexId};
pub use oracle::{enumerate_probability, OracleError, MAX_ENUM_EDGES};
pub use rpq::{parse, parse_regex, Endpoint, LabelNfa, Regex, Rpq, RpqParseError, MAX_REGEX_DEPTH};

// Graphs and compiled instances are shared across serve worker threads;
// keep them plain owned data.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ProbGraph>();
    assert_send_sync::<Rpq>();
    assert_send_sync::<CompiledRpq>();
};
