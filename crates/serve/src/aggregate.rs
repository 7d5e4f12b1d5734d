//! Declarative aggregation over risk scores: the `POST /aggregate` engine.
//!
//! Utilities don't only ask "top-K riskiest pipes" — they ask "total
//! at-risk length by material and decade per region". This module turns
//! that into a small declarative JSON pipeline (see `docs/AGGREGATE.md`):
//!
//! ```json
//! {"group_by": ["material", "decade"],
//!  "aggregates": [{"op": "count"}, {"op": "sum", "field": "length_m"}],
//!  "top_groups": 5,
//!  "budget": {"length_m": 5000}}
//! ```
//!
//! * **Group keys** over `region`, `material`, and `decade` (the
//!   construction-year cohort, e.g. `"1950s"`).
//! * **Operators** `count` / `sum` / `avg` / `min` / `max` over `risk`
//!   and `length_m`.
//! * **`top_groups`** limits the output to the N groups ranked by the
//!   first aggregate, descending.
//! * **`budget`** greedily fills a length budget by descending risk —
//!   the paper's length-constrained inspection budget as a query — and
//!   aggregates over only the selected pipes.
//!
//! The parser is strict and typed ([`AggregateError`], never panics — a
//! proptest battery mirrors the HTTP parser's), and execution is
//! **deterministic by construction** so the same query answers
//! byte-identically on a monolithic snapshot, an in-process sharded
//! server, and a federation front end:
//!
//! * Per-shard partial states accumulate in the shard's descending score
//!   order, then merge fold-left in sorted region-key order — f64
//!   addition order is pinned, exactly like the bounded k-way top-K
//!   merge pins tie order.
//! * The budget greedy consumes the merged descending-risk stream (ties
//!   break toward the earliest shard in sorted-key order) and stops at
//!   the first pipe that would overflow the budget.
//! * Federation backends answer `?partial=1` with their partial state;
//!   the wire format round-trips every f64 through shortest-round-trip
//!   decimal text, which re-parses to the exact same bits.
//!
//! Pipe length, material, and construction year ride in the snapshot's
//! well-known `pipe_attributes` summary section (see
//! [`pipefail_core::snapshot::ATTRIBUTES_SECTION`]); queries that need
//! them against a snapshot that lacks them are refused with a typed
//! error rather than answered with zeros.

use crate::http::json_str;
use crate::scorer::Scorer;
use crate::shards::region_key;
use pipefail_network::attributes::Material;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Maximum JSON nesting depth the spec parser accepts — a pipeline spec
/// is three levels deep; anything deeper is hostile input, and a hard
/// cap keeps the recursive-descent parser off the guard page.
const MAX_JSON_DEPTH: usize = 32;

/// Why an aggregation request was refused. Every variant renders as a
/// one-line human-readable reason in the typed error body; parsing and
/// execution never panic on client input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregateError {
    /// The body is not well-formed JSON (byte offset + reason).
    Syntax {
        /// Byte offset where parsing failed.
        offset: usize,
        /// What the parser expected or found.
        msg: &'static str,
    },
    /// JSON nesting exceeds the depth cap.
    TooDeep,
    /// The top-level value is not an object.
    NotAnObject,
    /// An object carries a key the spec does not define.
    UnknownKey(String),
    /// `group_by` is missing.
    MissingGroupBy,
    /// `group_by` is present but not a non-empty array of strings.
    BadGroupBy,
    /// A `group_by` entry is not one of `region` / `material` / `decade`.
    BadGroupKey(String),
    /// The same group key appears twice.
    DuplicateGroupKey(&'static str),
    /// `aggregates` is missing.
    MissingAggregates,
    /// `aggregates` is present but not a non-empty array of objects.
    BadAggregates,
    /// An aggregate's `op` is not `count`/`sum`/`avg`/`min`/`max`.
    BadOp(String),
    /// An aggregate's `field` is not `risk`/`length_m`.
    BadField(String),
    /// A non-`count` aggregate is missing its `field`.
    MissingField(&'static str),
    /// `count` takes no `field`.
    FieldOnCount,
    /// The same aggregate column appears twice.
    DuplicateAggregate(String),
    /// `top_groups` is not a positive integer.
    BadTopGroups,
    /// `budget` is not `{"length_m": <finite number ≥ 0>}`.
    BadBudget,
    /// The query needs pipe attributes (length/material/decade) but the
    /// snapshot carries no valid `pipe_attributes` section.
    NoAttributes,
    /// A federation backend's partial-state reply failed validation.
    BadPartial(&'static str),
}

impl fmt::Display for AggregateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregateError::Syntax { offset, msg } => {
                write!(f, "malformed JSON at byte {offset}: {msg}")
            }
            AggregateError::TooDeep => write!(f, "JSON nested deeper than {MAX_JSON_DEPTH} levels"),
            AggregateError::NotAnObject => write!(f, "pipeline spec must be a JSON object"),
            AggregateError::UnknownKey(k) => write!(f, "unknown key {k:?}"),
            AggregateError::MissingGroupBy => write!(f, "missing \"group_by\""),
            AggregateError::BadGroupBy => {
                write!(f, "\"group_by\" must be a non-empty array of strings")
            }
            AggregateError::BadGroupKey(k) => write!(
                f,
                "unknown group key {k:?} (expected \"region\", \"material\", or \"decade\")"
            ),
            AggregateError::DuplicateGroupKey(k) => write!(f, "duplicate group key {k:?}"),
            AggregateError::MissingAggregates => write!(f, "missing \"aggregates\""),
            AggregateError::BadAggregates => {
                write!(f, "\"aggregates\" must be a non-empty array of objects")
            }
            AggregateError::BadOp(op) => write!(
                f,
                "unknown op {op:?} (expected \"count\", \"sum\", \"avg\", \"min\", or \"max\")"
            ),
            AggregateError::BadField(field) => {
                write!(f, "unknown field {field:?} (expected \"risk\" or \"length_m\")")
            }
            AggregateError::MissingField(op) => write!(f, "op {op:?} requires a \"field\""),
            AggregateError::FieldOnCount => write!(f, "op \"count\" takes no \"field\""),
            AggregateError::DuplicateAggregate(col) => {
                write!(f, "duplicate aggregate {col:?}")
            }
            AggregateError::BadTopGroups => {
                write!(f, "\"top_groups\" must be a positive integer")
            }
            AggregateError::BadBudget => {
                write!(f, "\"budget\" must be {{\"length_m\": <finite number >= 0>}}")
            }
            AggregateError::NoAttributes => write!(
                f,
                "query needs pipe attributes but the snapshot carries no pipe_attributes section"
            ),
            AggregateError::BadPartial(what) => {
                write!(f, "malformed backend partial: {what}")
            }
        }
    }
}

impl std::error::Error for AggregateError {}

// ---------------------------------------------------------------------------
// Minimal JSON value parser — strict, depth-capped, never panics.
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their exact `f64` bits: the token
/// text goes through `str::parse::<f64>`, which is the inverse of Rust's
/// shortest-round-trip `Display` — the property the federation wire
/// format relies on.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (finite — `1e999` is rejected, not `inf`).
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as a key-ordered-as-written list.
    Obj(Vec<(String, Json)>),
}

struct JsonParser<'a> {
    /// The document; every position the parser stops at is a char
    /// boundary (it only steps over ASCII bytes or whole plain-text runs).
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn err<T>(&self, msg: &'static str) -> Result<T, AggregateError> {
        Err(AggregateError::Syntax { offset: self.pos, msg })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), AggregateError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(msg)
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, AggregateError> {
        if depth > MAX_JSON_DEPTH {
            return Err(AggregateError::TooDeep);
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &'static [u8], value: Json) -> Result<Json, AggregateError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err("invalid literal")
        }
    }

    fn number(&mut self) -> Result<Json, AggregateError> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| AggregateError::Syntax { offset: start, msg: "invalid number" })?;
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(AggregateError::Syntax { offset: start, msg: "invalid number" }),
        }
    }

    fn string(&mut self) -> Result<String, AggregateError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let high = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&high) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return self.err("unpaired surrogate");
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return self.err("unpaired surrogate");
                                }
                                let code =
                                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(high)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                            continue;
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return self.err("control character in string"),
                Some(_) => {
                    // Copy the whole run of plain characters up to the next
                    // quote, escape, or control byte as one slice. All three
                    // stop bytes are ASCII and UTF-8 continuation bytes are
                    // not, so the run ends on a char boundary.
                    let start = self.pos;
                    while matches!(self.bytes.get(self.pos), Some(&b) if b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, AggregateError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bytes.get(self.pos) {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return self.err("invalid unicode escape"),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, AggregateError> {
        self.eat(b'[', "expected array")?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, AggregateError> {
        self.eat(b'{', "expected object")?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            let value = self.value(depth + 1)?;
            out.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parse one complete JSON document (trailing garbage is an error).
pub(crate) fn parse_json(body: &str) -> Result<Json, AggregateError> {
    let mut p = JsonParser { text: body, bytes: body.as_bytes(), pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing garbage after value");
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// The pipeline spec.
// ---------------------------------------------------------------------------

/// A grouping dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKey {
    /// The shard's region routing key (e.g. `"region_a"`).
    Region,
    /// Pipe material code (e.g. `"CI"`, `"PVC"`).
    Material,
    /// Construction-year cohort, rendered like `"1950s"`.
    Decade,
}

impl GroupKey {
    /// The spec/output name of this key.
    pub fn name(self) -> &'static str {
        match self {
            GroupKey::Region => "region",
            GroupKey::Material => "material",
            GroupKey::Decade => "decade",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        match name {
            "region" => Some(GroupKey::Region),
            "material" => Some(GroupKey::Material),
            "decade" => Some(GroupKey::Decade),
            _ => None,
        }
    }
}

/// An aggregation operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// Number of pipes in the group.
    Count,
    /// Sum of the field.
    Sum,
    /// Arithmetic mean of the field.
    Avg,
    /// Minimum of the field.
    Min,
    /// Maximum of the field.
    Max,
}

impl AggOp {
    /// The spec name of this operator.
    pub fn name(self) -> &'static str {
        match self {
            AggOp::Count => "count",
            AggOp::Sum => "sum",
            AggOp::Avg => "avg",
            AggOp::Min => "min",
            AggOp::Max => "max",
        }
    }
}

/// A field an operator can aggregate over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggField {
    /// The served risk score.
    Risk,
    /// Pipe length in metres (needs the snapshot's attribute section).
    LengthM,
}

impl AggField {
    /// The spec name of this field.
    pub fn name(self) -> &'static str {
        match self {
            AggField::Risk => "risk",
            AggField::LengthM => "length_m",
        }
    }
}

/// One aggregate column: an operator and (except for `count`) a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aggregate {
    /// The operator.
    pub op: AggOp,
    /// The field; `None` exactly for [`AggOp::Count`].
    pub field: Option<AggField>,
}

impl Aggregate {
    /// The output column name: `count`, or `<op>_<field>` like
    /// `sum_length_m`.
    pub fn column(&self) -> String {
        match self.field {
            None => self.op.name().to_string(),
            Some(field) => format!("{}_{}", self.op.name(), field.name()),
        }
    }
}

/// A validated aggregation pipeline: group keys, aggregate columns, an
/// optional group limit, and an optional length budget.
///
/// Build one programmatically and round-trip it through the JSON wire
/// form, or parse client JSON directly with [`AggregateSpec::parse`].
///
/// # Examples
///
/// ```
/// use pipefail_serve::aggregate::{AggField, AggOp, AggregateSpec, GroupKey};
///
/// let spec = AggregateSpec::new()
///     .group_by(GroupKey::Material)
///     .group_by(GroupKey::Decade)
///     .aggregate(AggOp::Count, None)
///     .aggregate(AggOp::Sum, Some(AggField::LengthM))
///     .with_top_groups(5)
///     .with_budget(5000.0);
/// let parsed = AggregateSpec::parse(&spec.to_json()).unwrap();
/// assert_eq!(parsed, spec);
/// assert!(spec.needs_attributes());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSpec {
    /// Grouping dimensions, in output order.
    pub group_by: Vec<GroupKey>,
    /// Aggregate columns, in output order.
    pub aggregates: Vec<Aggregate>,
    /// Keep only the N groups ranked by the first aggregate, descending.
    pub top_groups: Option<usize>,
    /// Greedy length budget in metres: fill by descending risk, stop at
    /// the first pipe that would overflow, aggregate over the selection.
    pub budget_length_m: Option<f64>,
}

impl Default for AggregateSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl AggregateSpec {
    /// An empty pipeline; add keys and columns with the builder methods.
    /// An empty spec does not validate — [`AggregateSpec::parse`] of its
    /// JSON form reports what is missing.
    pub fn new() -> Self {
        Self {
            group_by: Vec::new(),
            aggregates: Vec::new(),
            top_groups: None,
            budget_length_m: None,
        }
    }

    /// Append a grouping dimension.
    #[must_use]
    pub fn group_by(mut self, key: GroupKey) -> Self {
        self.group_by.push(key);
        self
    }

    /// Append an aggregate column (`field` must be `None` exactly for
    /// [`AggOp::Count`] — validation happens in [`AggregateSpec::parse`]).
    #[must_use]
    pub fn aggregate(mut self, op: AggOp, field: Option<AggField>) -> Self {
        self.aggregates.push(Aggregate { op, field });
        self
    }

    /// Keep only the N groups ranked by the first aggregate, descending.
    #[must_use]
    pub fn with_top_groups(mut self, n: usize) -> Self {
        self.top_groups = Some(n);
        self
    }

    /// Aggregate over a greedy descending-risk selection that fills a
    /// length budget of `metres`.
    #[must_use]
    pub fn with_budget(mut self, metres: f64) -> Self {
        self.budget_length_m = Some(metres);
        self
    }

    /// Render the canonical JSON wire form (the body `POST /aggregate`
    /// accepts; `parse(to_json())` round-trips exactly).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"group_by\":[");
        for (i, key) in self.group_by.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(key.name());
            out.push('"');
        }
        out.push_str("],\"aggregates\":[");
        for (i, agg) in self.aggregates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"op\":\"");
            out.push_str(agg.op.name());
            out.push('"');
            if let Some(field) = agg.field {
                out.push_str(",\"field\":\"");
                out.push_str(field.name());
                out.push('"');
            }
            out.push('}');
        }
        out.push(']');
        if let Some(n) = self.top_groups {
            out.push_str(&format!(",\"top_groups\":{n}"));
        }
        if let Some(b) = self.budget_length_m {
            out.push_str(&format!(",\"budget\":{{\"length_m\":{b}}}"));
        }
        out.push('}');
        out
    }

    /// Parse and strictly validate a pipeline spec. Unknown keys,
    /// missing sections, bad operators, duplicate columns, and malformed
    /// budgets are each a distinct [`AggregateError`].
    pub fn parse(body: &str) -> Result<Self, AggregateError> {
        let Json::Obj(pairs) = parse_json(body)? else {
            return Err(AggregateError::NotAnObject);
        };
        let mut group_by: Option<Vec<GroupKey>> = None;
        let mut aggregates: Option<Vec<Aggregate>> = None;
        let mut top_groups = None;
        let mut budget_length_m = None;
        for (key, value) in pairs {
            match key.as_str() {
                "group_by" => group_by = Some(Self::parse_group_by(value)?),
                "aggregates" => aggregates = Some(Self::parse_aggregates(value)?),
                "top_groups" => match value {
                    Json::Num(n) if n.fract() == 0.0 && (1.0..=1e9).contains(&n) => {
                        top_groups = Some(n as usize);
                    }
                    _ => return Err(AggregateError::BadTopGroups),
                },
                "budget" => {
                    let Json::Obj(fields) = value else {
                        return Err(AggregateError::BadBudget);
                    };
                    match fields.as_slice() {
                        [(name, Json::Num(metres))]
                            if name == "length_m" && metres.is_finite() && *metres >= 0.0 =>
                        {
                            budget_length_m = Some(*metres);
                        }
                        _ => return Err(AggregateError::BadBudget),
                    }
                }
                _ => return Err(AggregateError::UnknownKey(key)),
            }
        }
        Ok(Self {
            group_by: group_by.ok_or(AggregateError::MissingGroupBy)?,
            aggregates: aggregates.ok_or(AggregateError::MissingAggregates)?,
            top_groups,
            budget_length_m,
        })
    }

    fn parse_group_by(value: Json) -> Result<Vec<GroupKey>, AggregateError> {
        let Json::Arr(items) = value else {
            return Err(AggregateError::BadGroupBy);
        };
        if items.is_empty() {
            return Err(AggregateError::BadGroupBy);
        }
        let mut keys = Vec::with_capacity(items.len());
        for item in items {
            let Json::Str(name) = item else {
                return Err(AggregateError::BadGroupBy);
            };
            let key =
                GroupKey::parse(&name).ok_or(AggregateError::BadGroupKey(name))?;
            if keys.contains(&key) {
                return Err(AggregateError::DuplicateGroupKey(key.name()));
            }
            keys.push(key);
        }
        Ok(keys)
    }

    fn parse_aggregates(value: Json) -> Result<Vec<Aggregate>, AggregateError> {
        let Json::Arr(items) = value else {
            return Err(AggregateError::BadAggregates);
        };
        if items.is_empty() {
            return Err(AggregateError::BadAggregates);
        }
        let mut aggs: Vec<Aggregate> = Vec::with_capacity(items.len());
        for item in items {
            let Json::Obj(fields) = item else {
                return Err(AggregateError::BadAggregates);
            };
            let mut op = None;
            let mut field = None;
            for (name, value) in fields {
                match (name.as_str(), value) {
                    ("op", Json::Str(s)) => {
                        op = Some(match s.as_str() {
                            "count" => AggOp::Count,
                            "sum" => AggOp::Sum,
                            "avg" => AggOp::Avg,
                            "min" => AggOp::Min,
                            "max" => AggOp::Max,
                            _ => return Err(AggregateError::BadOp(s)),
                        });
                    }
                    ("op", _) => return Err(AggregateError::BadOp(String::new())),
                    ("field", Json::Str(s)) => {
                        field = Some(match s.as_str() {
                            "risk" => AggField::Risk,
                            "length_m" => AggField::LengthM,
                            _ => return Err(AggregateError::BadField(s)),
                        });
                    }
                    ("field", _) => return Err(AggregateError::BadField(String::new())),
                    _ => return Err(AggregateError::UnknownKey(name)),
                }
            }
            let op = op.ok_or(AggregateError::BadOp(String::new()))?;
            match (op, field) {
                (AggOp::Count, Some(_)) => return Err(AggregateError::FieldOnCount),
                (AggOp::Count, None) => {}
                (_, None) => return Err(AggregateError::MissingField(op.name())),
                (_, Some(_)) => {}
            }
            let agg = Aggregate { op, field };
            if aggs.contains(&agg) {
                return Err(AggregateError::DuplicateAggregate(agg.column()));
            }
            aggs.push(agg);
        }
        Ok(aggs)
    }

    /// True when executing this pipeline needs the snapshot's per-pipe
    /// attribute section (length, material, or construction year).
    pub fn needs_attributes(&self) -> bool {
        self.budget_length_m.is_some()
            || self
                .group_by
                .iter()
                .any(|k| matches!(k, GroupKey::Material | GroupKey::Decade))
            || self.aggregates.iter().any(|a| a.field == Some(AggField::LengthM))
    }
}

// ---------------------------------------------------------------------------
// Partial aggregate state and deterministic execution.
// ---------------------------------------------------------------------------

/// Running aggregate state for one group. All moments are tracked
/// unconditionally (they are seven numbers) so a partial can answer any
/// column set and `avg` derives as `sum/count` only at render time —
/// identical bits on every topology.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GroupState {
    count: u64,
    sum_risk: f64,
    min_risk: f64,
    max_risk: f64,
    sum_len: f64,
    min_len: f64,
    max_len: f64,
}

impl GroupState {
    /// A group no pipe has reached yet: `count == 0` and every moment at
    /// its IEEE identity (`-0.0` for sums, `±∞` for min/max), so adding
    /// the first pipe gives exactly the bits of [`GroupState::one`] — a
    /// group of `-0.0` lengths still sums to `-0.0`. Scores and lengths
    /// are never NaN (snapshots and wire partials refuse them).
    const EMPTY: Self = Self {
        count: 0,
        sum_risk: -0.0,
        min_risk: f64::INFINITY,
        max_risk: f64::NEG_INFINITY,
        sum_len: -0.0,
        min_len: f64::INFINITY,
        max_len: f64::NEG_INFINITY,
    };

    #[cfg(test)]
    fn one(risk: f64, len: f64) -> Self {
        Self {
            count: 1,
            sum_risk: risk,
            min_risk: risk,
            max_risk: risk,
            sum_len: len,
            min_len: len,
            max_len: len,
        }
    }

    fn add(&mut self, risk: f64, len: f64) {
        self.count += 1;
        self.sum_risk += risk;
        self.min_risk = self.min_risk.min(risk);
        self.max_risk = self.max_risk.max(risk);
        self.sum_len += len;
        self.min_len = self.min_len.min(len);
        self.max_len = self.max_len.max(len);
    }

    /// Fold `other` into `self`. Callers fold partials left-to-right in
    /// sorted region-key order, which pins the f64 addition order.
    fn merge(&mut self, other: &GroupState) {
        self.count += other.count;
        self.sum_risk += other.sum_risk;
        self.min_risk = self.min_risk.min(other.min_risk);
        self.max_risk = self.max_risk.max(other.max_risk);
        self.sum_len += other.sum_len;
        self.min_len = self.min_len.min(other.min_len);
        self.max_len = self.max_len.max(other.max_len);
    }

    /// The value of one aggregate column over this group.
    fn value(&self, agg: &Aggregate) -> f64 {
        match (agg.op, agg.field) {
            (AggOp::Count, _) => self.count as f64,
            (AggOp::Sum, Some(AggField::Risk)) => self.sum_risk,
            (AggOp::Avg, Some(AggField::Risk)) => self.sum_risk / self.count as f64,
            (AggOp::Min, Some(AggField::Risk)) => self.min_risk,
            (AggOp::Max, Some(AggField::Risk)) => self.max_risk,
            (AggOp::Sum, Some(AggField::LengthM)) => self.sum_len,
            (AggOp::Avg, Some(AggField::LengthM)) => self.sum_len / self.count as f64,
            (AggOp::Min, Some(AggField::LengthM)) => self.min_len,
            (AggOp::Max, Some(AggField::LengthM)) => self.max_len,
            // Validation guarantees a field on every non-count op.
            (_, None) => f64::NAN,
        }
    }
}

/// One budget candidate: everything the global greedy needs to select,
/// group, and aggregate a pipe without its home shard. `region` indexes
/// the owning partial's region table, so a candidate never owns a string.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Candidate {
    score: f64,
    length_m: f64,
    material: u8,
    laid_year: i32,
    region: u32,
}

/// One shard's (or backend's) contribution to an aggregation: either
/// per-group partial states (no budget) or a bounded descending-risk
/// candidate stream (budget).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AggregatePartial {
    /// `(key values, state)` sorted by key values; empty in budget mode.
    groups: Vec<(Vec<String>, GroupState)>,
    /// Budget mode only: the region keys the candidates' `region` fields
    /// index.
    regions: Vec<String>,
    /// Budget mode only: the shard's maximal descending-risk prefix whose
    /// cumulative length fits the budget, plus one sentinel entry (the
    /// first overflowing pipe — it can never be selected, but its
    /// presence lets the global greedy stop at the right pipe).
    candidates: Option<Vec<Candidate>>,
}

/// Result of the global budget greedy, rendered alongside the groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BudgetSummary {
    budget_length_m: f64,
    selected: u64,
    total_length_m: f64,
}

/// A group's identity as integers: a region (index into a region table),
/// a material (index into `Material::ALL`) and a decade
/// (`year.div_euclid(10)`). Dimensions the spec does not group by are 0.
/// Key strings are built from a code only for non-empty output groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct GroupCode {
    region: u32,
    material: u8,
    decade: i32,
}

/// Which dimensions a spec groups by.
#[derive(Debug, Clone, Copy)]
struct Dims {
    region: bool,
    material: bool,
    decade: bool,
}

impl Dims {
    fn of(spec: &AggregateSpec) -> Self {
        let has = |key| spec.group_by.contains(&key);
        Self {
            region: has(GroupKey::Region),
            material: has(GroupKey::Material),
            decade: has(GroupKey::Decade),
        }
    }

    fn code(self, region: u32, material: u8, year: i32) -> GroupCode {
        GroupCode {
            region: if self.region { region } else { 0 },
            material: if self.material { material } else { 0 },
            decade: if self.decade { year.div_euclid(10) } else { 0 },
        }
    }
}

/// Most slots a dense accumulator allocates (regions × materials × decade
/// span). Realistic fleets need a few hundred; a wider code space — a
/// hostile year range such as `i32::MIN..i32::MAX` — interns its sorted
/// distinct codes instead, so memory stays bounded by the pipe count.
const DENSE_SLOTS: u64 = 4096;

// A dense decade span always fits the `u16` decade code column.
const _: () = assert!(DENSE_SLOTS <= 1 << 16);

/// A snapshot's attribute columns as integer group codes, in rank order:
/// what a full scan groups by, converted once per snapshot instead of once
/// per request. [`Scorer::group_codes`] derives them on the first scan
/// that groups by material or decade and keeps them with the snapshot's
/// columns, so they are dropped with that snapshot's scorer.
#[derive(Debug)]
pub(crate) struct GroupCodes {
    /// Each pipe's index into `Material::ALL`.
    material: Vec<u8>,
    /// The smallest and largest construction year; `None` for an empty
    /// snapshot.
    years: Option<(i32, i32)>,
    /// Each pipe's `year.div_euclid(10)` minus the smallest; `None` when
    /// the decade span does not fit a `u16` (such a span is never dense).
    decade: Option<Vec<u16>>,
}

impl GroupCodes {
    /// Derive the codes from the `(material, laid_year)` columns.
    pub(crate) fn derive(material: &[f64], laid_year: &[f64]) -> Self {
        let years = year_range(laid_year.iter().map(|&y| y as i32));
        let min_decade = years.map_or(0, |(lo, _)| lo.div_euclid(10));
        let fits = years.is_none_or(|(_, hi)| {
            i64::from(hi.div_euclid(10)) - i64::from(min_decade) <= i64::from(u16::MAX)
        });
        Self {
            material: material.iter().map(|&m| m as u8).collect(),
            years,
            decade: fits.then(|| {
                laid_year.iter().map(|&y| ((y as i32).div_euclid(10) - min_decade) as u16).collect()
            }),
        }
    }
}

/// How a [`GroupCode`] maps to an accumulator slot.
enum Layout {
    /// `((region × materials) + material) × span + (decade − min_decade)`.
    Dense { materials: usize, min_decade: i32, span: usize },
    /// The slot is the code's position in the sorted distinct codes.
    Interned(Vec<GroupCode>),
}

/// Flat per-group accumulators indexed by integer code: adding a pipe is
/// a slot computation and seven arithmetic updates, with no allocation.
struct Accumulator {
    layout: Layout,
    states: Vec<GroupState>,
}

impl Accumulator {
    /// An accumulator for codes with `region < regions`, `material <
    /// materials`, and the decades of the years in `years` (inclusive;
    /// `None` when every code's decade is 0). Dense when that space fits
    /// [`DENSE_SLOTS`]; otherwise `codes()` is walked once to intern the
    /// sorted distinct codes.
    fn new<I: Iterator<Item = GroupCode>>(
        regions: usize,
        materials: usize,
        years: Option<(i32, i32)>,
        codes: impl FnOnce() -> I,
    ) -> Self {
        let (lo, hi) = years.map_or((0, 0), |(lo, hi)| (lo.div_euclid(10), hi.div_euclid(10)));
        let span = (i64::from(hi) - i64::from(lo) + 1) as u64;
        let dense = (regions as u64)
            .checked_mul(materials as u64)
            .and_then(|slots| slots.checked_mul(span))
            .filter(|&slots| slots <= DENSE_SLOTS);
        let (layout, len) = match dense {
            Some(slots) => {
                (Layout::Dense { materials, min_decade: lo, span: span as usize }, slots as usize)
            }
            None => {
                let mut distinct: Vec<GroupCode> = codes().collect();
                distinct.sort_unstable();
                distinct.dedup();
                let len = distinct.len();
                (Layout::Interned(distinct), len)
            }
        };
        Self { layout, states: vec![GroupState::EMPTY; len] }
    }

    /// Fold one pipe into its group. Callers add pipes in rank (or
    /// selection) order, which pins each group's f64 addition order; from
    /// [`GroupState::EMPTY`] the first pipe gives a fresh group's bits.
    fn add(&mut self, code: GroupCode, risk: f64, len: f64) {
        let slot = self.slot(code);
        self.states[slot].add(risk, len);
    }

    /// [`Accumulator::add`] for a whole one-region table in rank order, in
    /// one pass over `scores` and `lengths` (empty: every length is 0). A
    /// single group keeps its state in registers. A dense layout reads
    /// each pipe's slot straight from the snapshot's code columns
    /// (`codes`, present whenever the spec groups by material or decade);
    /// an interned one searches `code(i)`.
    fn add_ranked(
        &mut self,
        dims: Dims,
        codes: Option<&GroupCodes>,
        code: impl Fn(usize) -> GroupCode,
        scores: &[f64],
        lengths: &[f64],
    ) {
        fn fold(
            states: &mut [GroupState],
            scores: &[f64],
            lengths: &[f64],
            slot: impl Fn(usize) -> usize,
        ) {
            let lengths = &lengths[..scores.len()];
            for (i, (&score, &len)) in scores.iter().zip(lengths).enumerate() {
                states[slot(i)].add(score, len);
            }
        }
        if let [only] = self.states.as_mut_slice() {
            if lengths.is_empty() {
                scores.iter().for_each(|&score| only.add(score, 0.0));
            } else {
                scores.iter().zip(lengths).for_each(|(&score, &len)| only.add(score, len));
            }
            return;
        }
        let Layout::Dense { span, .. } = self.layout else {
            for (i, &score) in scores.iter().enumerate() {
                self.add(code(i), score, lengths[i]);
            }
            return;
        };
        let codes = codes.expect("a grouped scan reads attribute codes");
        let n = scores.len();
        let material = &codes.material[..n];
        let decade: &[u16] = if dims.decade {
            &codes.decade.as_deref().expect("a dense decade span fits u16")[..n]
        } else {
            &[]
        };
        let states = self.states.as_mut_slice();
        match (dims.material, dims.decade) {
            (true, false) => fold(states, scores, lengths, |i| usize::from(material[i])),
            (false, true) => fold(states, scores, lengths, |i| usize::from(decade[i])),
            _ => fold(states, scores, lengths, |i| {
                usize::from(material[i]) * span + usize::from(decade[i])
            }),
        }
    }

    /// The accumulator slot of `code`.
    fn slot(&self, code: GroupCode) -> usize {
        match &self.layout {
            Layout::Dense { materials, min_decade, span } => {
                (code.region as usize * materials + usize::from(code.material)) * span
                    + (i64::from(code.decade) - i64::from(*min_decade)) as usize
            }
            Layout::Interned(distinct) => distinct
                .binary_search(&code)
                .expect("every added code was interned"),
        }
    }

    /// The non-empty groups with their key strings, sorted by key.
    fn into_rows(
        self,
        spec: &AggregateSpec,
        regions: &[&str],
    ) -> Vec<(Vec<String>, GroupState)> {
        let Self { layout, states } = self;
        let mut rows: Vec<(Vec<String>, GroupState)> = states
            .into_iter()
            .enumerate()
            .filter(|(_, state)| state.count > 0)
            .map(|(slot, state)| {
                let code = match &layout {
                    Layout::Dense { materials, min_decade, span } => GroupCode {
                        region: (slot / (materials * span)) as u32,
                        material: (slot / span % materials) as u8,
                        decade: (i64::from(*min_decade) + (slot % span) as i64) as i32,
                    },
                    Layout::Interned(distinct) => distinct[slot],
                };
                (group_key(spec, code, regions), state)
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

/// The smallest and largest of `years`, if any.
fn year_range(years: impl Iterator<Item = i32>) -> Option<(i32, i32)> {
    years.fold(None, |range, y| {
        Some(range.map_or((y, y), |(lo, hi): (i32, i32)| (lo.min(y), hi.max(y))))
    })
}

/// The key strings of one group, in `group_by` order.
fn group_key(spec: &AggregateSpec, code: GroupCode, regions: &[&str]) -> Vec<String> {
    spec.group_by
        .iter()
        .map(|k| match k {
            GroupKey::Region => regions[code.region as usize].to_string(),
            GroupKey::Material => Material::ALL[usize::from(code.material)].code().to_string(),
            // Widened so the decade of `i32::MIN` renders without overflow.
            GroupKey::Decade => format!("{}s", i64::from(code.decade) * 10),
        })
        .collect()
}

/// Compute one scorer's partial for `spec`. The shard's group-key
/// `region` value is its region routing key, so a one-shard server is
/// indistinguishable from a one-backend federation.
pub(crate) fn shard_partial(
    spec: &AggregateSpec,
    scorer: &Scorer,
) -> Result<AggregatePartial, AggregateError> {
    let attrs = scorer.attributes();
    if spec.needs_attributes() && attrs.is_none() {
        return Err(AggregateError::NoAttributes);
    }
    let region = region_key(scorer.region());
    let Some(budget) = spec.budget_length_m else {
        return Ok(AggregatePartial {
            groups: scan(spec, scorer).into_rows(spec, &[region.as_str()]),
            regions: Vec::new(),
            candidates: None,
        });
    };

    let scores = scorer.top_k(usize::MAX).scores();
    let (lengths, materials, years) = attrs.expect("budget specs need attributes").columns();
    let mut candidates = Vec::new();
    let mut cumulative = 0.0f64;
    for (i, &score) in scores.iter().enumerate() {
        let candidate = Candidate {
            score,
            length_m: lengths[i],
            material: materials[i] as u8,
            laid_year: years[i] as i32,
            region: 0,
        };
        candidates.push(candidate);
        if cumulative + candidate.length_m > budget {
            // The sentinel: first pipe past the shard-local budget
            // prefix. It always overflows globally too, so the greedy
            // stops on it; it is never selected.
            break;
        }
        cumulative += candidate.length_m;
    }
    Ok(AggregatePartial { groups: Vec::new(), regions: vec![region], candidates: Some(candidates) })
}

/// One scorer's groups for a grouped (budget-less) spec: every pipe folded
/// in rank order. The region is the scorer's own, so only material and
/// decade pick the group. The scorer has the attributes `spec` needs.
fn scan(spec: &AggregateSpec, scorer: &Scorer) -> Accumulator {
    let dims = Dims::of(spec);
    let scores = scorer.top_k(usize::MAX).scores();
    // Empty without attributes; the spec then reads no length, material,
    // or year.
    let (lengths, materials, years) =
        scorer.attributes().map_or((&[][..], &[][..], &[][..]), |a| a.columns());
    let codes = if dims.material || dims.decade { scorer.group_codes() } else { None };
    // Only an interned layout reads the raw columns; a dense one reads
    // `codes`.
    let code = |i: usize| {
        let material = if dims.material { materials[i] as u8 } else { 0 };
        let year = if dims.decade { years[i] as i32 } else { 0 };
        dims.code(0, material, year)
    };
    let mut groups = Accumulator::new(
        1,
        if dims.material { Material::ALL.len() } else { 1 },
        if dims.decade { codes.and_then(|c| c.years) } else { None },
        || (0..scores.len()).map(code),
    );
    groups.add_ranked(dims, codes, code, scores, lengths);
    groups
}

/// Answer `spec` over `scorers` in process, without a server: the body a
/// server holding exactly these shards answers — one partial per scorer,
/// merged in sorted region-key order, rendered. `serve_bench` times the
/// kernel through it.
///
/// # Examples
///
/// ```
/// use pipefail_core::model::{RiskRanking, RiskScore};
/// use pipefail_core::snapshot::Snapshot;
/// use pipefail_network::ids::PipeId;
/// use pipefail_serve::aggregate::{execute, AggregateSpec};
/// use pipefail_serve::Scorer;
///
/// let ranking = RiskRanking::new(vec![RiskScore { pipe: PipeId(0), score: 0.5 }]);
/// let scorer = Scorer::new(Snapshot::new("DPMHBP", "Region A", 7, &ranking));
/// let spec = AggregateSpec::parse(r#"{"group_by":["region"],"aggregates":[{"op":"count"}]}"#)
///     .unwrap();
/// assert_eq!(
///     execute(&spec, &[scorer]).unwrap(),
///     r#"{"groups":[{"key":{"region":"region_a"},"count":1}]}"#
/// );
/// ```
pub fn execute(spec: &AggregateSpec, scorers: &[Scorer]) -> Result<String, AggregateError> {
    let mut ordered: Vec<&Scorer> = scorers.iter().collect();
    ordered.sort_by_cached_key(|s| region_key(s.region()));
    let partials = ordered
        .into_iter()
        .map(|s| shard_partial(spec, s))
        .collect::<Result<Vec<_>, _>>()?;
    let (groups, budget) = merge_partials(spec, &partials);
    Ok(render_aggregate(spec, groups, budget))
}

/// Merge partials fold-left in the order given (callers pass sorted
/// region-key order) into the final `(groups, budget summary)` pair.
pub(crate) fn merge_partials(
    spec: &AggregateSpec,
    partials: &[AggregatePartial],
) -> (Vec<(Vec<String>, GroupState)>, Option<BudgetSummary>) {
    if let Some(budget) = spec.budget_length_m {
        return merge_budget(spec, partials, budget);
    }
    (fold_groups(partials), None)
}

/// Fold every partial's group states left-to-right into one key-sorted
/// group table; callers fix the partial order (sorted region-key) so the
/// f64 addition order is pinned.
fn fold_groups(partials: &[AggregatePartial]) -> Vec<(Vec<String>, GroupState)> {
    let mut groups: BTreeMap<&[String], GroupState> = BTreeMap::new();
    for (key, state) in partials.iter().flat_map(|p| &p.groups) {
        match groups.entry(key.as_slice()) {
            Entry::Occupied(mut at) => at.get_mut().merge(state),
            Entry::Vacant(at) => {
                at.insert(state.clone());
            }
        }
    }
    groups.into_iter().map(|(key, state)| (key.to_vec(), state)).collect()
}

/// One region table across `partials`, interned by value: the shared
/// names, and per partial the map from its local region indices into
/// them.
fn shared_regions(partials: &[AggregatePartial]) -> (Vec<&str>, Vec<Vec<u32>>) {
    let mut names: Vec<&str> = Vec::new();
    let mut index: HashMap<&str, u32> = HashMap::new();
    let remap = partials
        .iter()
        .map(|p| {
            p.regions
                .iter()
                .map(|name| {
                    *index.entry(name.as_str()).or_insert_with(|| {
                        names.push(name);
                        (names.len() - 1) as u32
                    })
                })
                .collect()
        })
        .collect();
    (names, remap)
}

/// Every partial's budget candidates k-way-merged by descending score,
/// ties toward the earliest partial (exactly like the top-K merge), with
/// the index of the partial each came from.
fn by_descending_score(
    partials: &[AggregatePartial],
) -> impl Iterator<Item = (usize, &Candidate)> + '_ {
    let mut cursor = vec![0usize; partials.len()];
    std::iter::from_fn(move || {
        let mut best: Option<(usize, &Candidate)> = None;
        for (s, partial) in partials.iter().enumerate() {
            let stream = partial.candidates.as_deref().unwrap_or(&[]);
            if let Some(c) = stream.get(cursor[s]) {
                // Strict `>` keeps the earliest stream on ties.
                if best.is_none_or(|(_, b)| c.score > b.score) {
                    best = Some((s, c));
                }
            }
        }
        let (s, c) = best?;
        cursor[s] += 1;
        Some((s, c))
    })
}

/// Collapse several shard partials into **one** partial — the
/// `?partial=1` answer of a server that itself runs multiple shards.
/// Group states fold in the given (sorted-key) order; budget candidate
/// streams k-way-merge into one descending-score stream (ties toward the
/// earliest stream), which preserves every shard's prefix-then-sentinel
/// ordering so the front end's global greedy still stops correctly.
pub(crate) fn merge_to_partial(
    spec: &AggregateSpec,
    partials: &[AggregatePartial],
) -> AggregatePartial {
    if spec.budget_length_m.is_none() {
        return AggregatePartial {
            groups: fold_groups(partials),
            regions: Vec::new(),
            candidates: None,
        };
    }
    let (regions, remap) = shared_regions(partials);
    let candidates = by_descending_score(partials)
        .map(|(s, c)| Candidate { region: remap[s][c.region as usize], ..*c })
        .collect();
    AggregatePartial {
        groups: Vec::new(),
        regions: regions.into_iter().map(str::to_string).collect(),
        candidates: Some(candidates),
    }
}

/// The global budget greedy: walk the merged descending-risk stream,
/// select while the cumulative length fits, stop at the first pipe that
/// would overflow, and aggregate the selection in selection order.
fn merge_budget(
    spec: &AggregateSpec,
    partials: &[AggregatePartial],
    budget: f64,
) -> (Vec<(Vec<String>, GroupState)>, Option<BudgetSummary>) {
    let dims = Dims::of(spec);
    let (regions, remap) = shared_regions(partials);
    let code = |s: usize, c: &Candidate| {
        dims.code(remap[s][c.region as usize], c.material, c.laid_year)
    };
    // Sized over every candidate — a superset of the selection.
    let all = || {
        partials
            .iter()
            .enumerate()
            .flat_map(|(s, p)| p.candidates.iter().flatten().map(move |c| (s, c)))
    };
    let mut groups = Accumulator::new(
        if dims.region { regions.len() } else { 1 },
        if dims.material { Material::ALL.len() } else { 1 },
        dims.decade.then(|| year_range(all().map(|(_, c)| c.laid_year))).flatten(),
        || all().map(|(s, c)| code(s, c)),
    );
    let mut selected = 0u64;
    let mut total_length = 0.0f64;
    for (s, c) in by_descending_score(partials) {
        if total_length + c.length_m > budget {
            break;
        }
        selected += 1;
        total_length += c.length_m;
        groups.add(code(s, c), c.score, c.length_m);
    }
    (
        groups.into_rows(spec, &regions),
        Some(BudgetSummary { budget_length_m: budget, selected, total_length_m: total_length }),
    )
}

// ---------------------------------------------------------------------------
// Rendering — one canonical renderer for every topology.
// ---------------------------------------------------------------------------

/// Render a column value: counts as integers, everything else through
/// Rust's shortest-round-trip f64 formatting.
fn render_value(agg: &Aggregate, state: &GroupState) -> String {
    if agg.op == AggOp::Count {
        return state.count.to_string();
    }
    format!("{}", state.value(agg))
}

/// Render the final response body. Group order is key-ascending; with
/// `top_groups` the surviving groups are ranked by the first aggregate
/// descending (ties toward the smaller key).
pub(crate) fn render_aggregate(
    spec: &AggregateSpec,
    mut groups: Vec<(Vec<String>, GroupState)>,
    budget: Option<BudgetSummary>,
) -> String {
    if let Some(n) = spec.top_groups {
        let first = &spec.aggregates[0];
        groups.sort_by(|a, b| {
            b.1.value(first)
                .total_cmp(&a.1.value(first))
                .then_with(|| a.0.cmp(&b.0))
        });
        groups.truncate(n);
    }
    let mut out = String::from("{\"groups\":[");
    for (i, (key, state)) in groups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"key\":{");
        for (j, (name, value)) in spec.group_by.iter().zip(key).enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", name.name(), json_str(value)));
        }
        out.push('}');
        for agg in &spec.aggregates {
            out.push_str(&format!(",\"{}\":{}", agg.column(), render_value(agg, state)));
        }
        out.push('}');
    }
    out.push(']');
    if let Some(b) = budget {
        out.push_str(&format!(
            ",\"budget\":{{\"length_m\":{},\"selected\":{},\"total_length_m\":{}}}",
            b.budget_length_m, b.selected, b.total_length_m
        ));
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// The federation wire format for partials.
// ---------------------------------------------------------------------------

/// Render a partial for the `?partial=1` wire. Every f64 goes through
/// shortest-round-trip text, so the front end recovers the exact bits.
/// Each candidate carries its region key inline.
pub(crate) fn render_partial(partial: &AggregatePartial) -> String {
    use std::fmt::Write as _;
    if let Some(candidates) = &partial.candidates {
        let regions: Vec<String> = partial.regions.iter().map(|r| json_str(r)).collect();
        let mut out = String::from("{\"candidates\":[");
        for (i, c) in candidates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "[{},{},{},{},{}]",
                c.score,
                c.length_m,
                c.material,
                c.laid_year,
                regions[c.region as usize]
            );
        }
        out.push_str("]}");
        return out;
    }
    let mut out = String::from("{\"groups\":[");
    for (i, (key, s)) in partial.groups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"key\":[");
        for (j, value) in key.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&json_str(value));
        }
        let _ = write!(
            out,
            "],\"state\":[{},{},{},{},{},{},{}]}}",
            s.count, s.sum_risk, s.min_risk, s.max_risk, s.sum_len, s.min_len, s.max_len
        );
    }
    out.push_str("]}");
    out
}

fn partial_num(v: &Json, what: &'static str) -> Result<f64, AggregateError> {
    match v {
        Json::Num(n) => Ok(*n),
        _ => Err(AggregateError::BadPartial(what)),
    }
}

fn partial_count(v: &Json) -> Result<u64, AggregateError> {
    match v {
        Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9e15 => Ok(*n as u64),
        _ => Err(AggregateError::BadPartial("count must be a non-negative integer")),
    }
}

/// Parse and validate a backend's `?partial=1` reply against `spec` —
/// budget specs must answer candidates, everything else group states.
/// Candidate region keys are interned into the partial's region table.
pub(crate) fn parse_partial(
    spec: &AggregateSpec,
    body: &str,
) -> Result<AggregatePartial, AggregateError> {
    let Json::Obj(pairs) = parse_json(body)? else {
        return Err(AggregateError::BadPartial("not an object"));
    };
    let [(key, value)] = pairs.as_slice() else {
        return Err(AggregateError::BadPartial("expected exactly one of groups/candidates"));
    };
    match (key.as_str(), spec.budget_length_m.is_some()) {
        ("candidates", true) => {
            let Json::Arr(items) = value else {
                return Err(AggregateError::BadPartial("candidates must be an array"));
            };
            let mut candidates = Vec::with_capacity(items.len());
            let mut regions: Vec<String> = Vec::new();
            let mut index: HashMap<&str, u32> = HashMap::new();
            for item in items {
                let Json::Arr(parts) = item else {
                    return Err(AggregateError::BadPartial("candidate must be an array"));
                };
                let [score, length, material, year, region] = parts.as_slice() else {
                    return Err(AggregateError::BadPartial("candidate must have 5 elements"));
                };
                let score = partial_num(score, "candidate score")?;
                let length_m = partial_num(length, "candidate length")?;
                if length_m < 0.0 || !length_m.is_finite() {
                    return Err(AggregateError::BadPartial("candidate length out of range"));
                }
                let material = match material {
                    Json::Num(m)
                        if m.fract() == 0.0
                            && *m >= 0.0
                            && (*m as usize) < Material::ALL.len() =>
                    {
                        *m as u8
                    }
                    _ => return Err(AggregateError::BadPartial("candidate material")),
                };
                let laid_year = match year {
                    Json::Num(y)
                        if y.fract() == 0.0
                            && *y >= f64::from(i32::MIN)
                            && *y <= f64::from(i32::MAX) =>
                    {
                        *y as i32
                    }
                    _ => return Err(AggregateError::BadPartial("candidate year")),
                };
                let Json::Str(region) = region else {
                    return Err(AggregateError::BadPartial("candidate region"));
                };
                let region = *index.entry(region.as_str()).or_insert_with(|| {
                    regions.push(region.clone());
                    (regions.len() - 1) as u32
                });
                candidates.push(Candidate { score, length_m, material, laid_year, region });
            }
            Ok(AggregatePartial { groups: Vec::new(), regions, candidates: Some(candidates) })
        }
        ("groups", false) => {
            let Json::Arr(items) = value else {
                return Err(AggregateError::BadPartial("groups must be an array"));
            };
            let mut groups = Vec::with_capacity(items.len());
            for item in items {
                let Json::Obj(fields) = item else {
                    return Err(AggregateError::BadPartial("group must be an object"));
                };
                let [(k1, key_json), (k2, state_json)] = fields.as_slice() else {
                    return Err(AggregateError::BadPartial("group must have key and state"));
                };
                if k1 != "key" || k2 != "state" {
                    return Err(AggregateError::BadPartial("group must have key and state"));
                }
                let Json::Arr(key_items) = key_json else {
                    return Err(AggregateError::BadPartial("group key must be an array"));
                };
                if key_items.len() != spec.group_by.len() {
                    return Err(AggregateError::BadPartial("group key arity mismatch"));
                }
                let mut key = Vec::with_capacity(key_items.len());
                for item in key_items {
                    let Json::Str(s) = item else {
                        return Err(AggregateError::BadPartial("group key must be strings"));
                    };
                    key.push(s.clone());
                }
                let Json::Arr(state_items) = state_json else {
                    return Err(AggregateError::BadPartial("group state must be an array"));
                };
                let [count, sum_risk, min_risk, max_risk, sum_len, min_len, max_len] =
                    state_items.as_slice()
                else {
                    return Err(AggregateError::BadPartial("group state must have 7 values"));
                };
                groups.push((
                    key,
                    GroupState {
                        count: partial_count(count)?,
                        sum_risk: partial_num(sum_risk, "sum_risk")?,
                        min_risk: partial_num(min_risk, "min_risk")?,
                        max_risk: partial_num(max_risk, "max_risk")?,
                        sum_len: partial_num(sum_len, "sum_len")?,
                        min_len: partial_num(min_len, "min_len")?,
                        max_len: partial_num(max_len, "max_len")?,
                    },
                ));
            }
            Ok(AggregatePartial { groups, regions: Vec::new(), candidates: None })
        }
        ("candidates", false) | ("groups", true) => {
            Err(AggregateError::BadPartial("partial mode does not match the spec"))
        }
        _ => Err(AggregateError::BadPartial("expected groups or candidates")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefail_core::model::{RiskRanking, RiskScore};
    use pipefail_core::snapshot::{attributes_section, Snapshot};
    use pipefail_network::ids::PipeId;
    use proptest::prelude::*;

    /// A scorer with attributes: `n` pipes, descending scores from
    /// `base`, deterministic lengths / materials / years derived from
    /// the index.
    fn scorer_with_attrs(region: &str, n: u32, base: f64) -> Scorer {
        let ranking = RiskRanking::new(
            (0..n)
                .map(|i| RiskScore {
                    pipe: PipeId(i),
                    score: base - f64::from(i) / f64::from(n.max(1)),
                })
                .collect(),
        );
        let mut snap = Snapshot::new("DPMHBP", region, 7, &ranking);
        snap.push_section(attributes_section(
            (0..n).map(|i| 10.0 + f64::from(i % 7) * 5.0).collect(),
            (0..n).map(|i| f64::from(i % 9)).collect(),
            (0..n).map(|i| f64::from(1900 + (i % 12) * 10)).collect(),
        ));
        Scorer::new(snap)
    }

    fn spec_json(json: &str) -> AggregateSpec {
        AggregateSpec::parse(json).expect("valid spec")
    }

    /// Construction-year cohort label, e.g. `"1950s"`, widened so the
    /// decade of `i32::MIN` renders instead of overflowing.
    fn decade_of(year: i32) -> String {
        format!("{}s", i64::from(year).div_euclid(10) * 10)
    }

    /// The string-keyed kernel the dense one replaced, kept as an oracle:
    /// one `Vec<String>` key per pipe and a `HashMap` index per table.
    /// Grouped specs accumulate each shard in rank order and fold the
    /// shards' states in the given order; budget specs walk each shard's
    /// candidate prefix (plus sentinel), k-way-merge the streams by
    /// descending score with ties toward the earliest shard, and group the
    /// greedy selection in selection order.
    fn string_keyed_reference(spec: &AggregateSpec, shards: &[Scorer]) -> String {
        let key_of = |region: &str, material: usize, year: i32| -> Vec<String> {
            spec.group_by
                .iter()
                .map(|k| match k {
                    GroupKey::Region => region.to_string(),
                    GroupKey::Material => Material::ALL[material].code().to_string(),
                    GroupKey::Decade => decade_of(year),
                })
                .collect()
        };
        fn add_keyed(
            groups: &mut Vec<(Vec<String>, GroupState)>,
            index: &mut HashMap<Vec<String>, usize>,
            key: Vec<String>,
            state: GroupState,
        ) {
            match index.get(&key) {
                Some(&at) => groups[at].1.merge(&state),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, state));
                }
            }
        }
        let mut groups: Vec<(Vec<String>, GroupState)> = Vec::new();
        let mut index: HashMap<Vec<String>, usize> = HashMap::new();

        let Some(budget) = spec.budget_length_m else {
            for shard in shards {
                let attrs = shard.attributes();
                let region = region_key(shard.region());
                let mut local: Vec<(Vec<String>, GroupState)> = Vec::new();
                let mut local_index: HashMap<Vec<String>, usize> = HashMap::new();
                for (i, e) in shard.top_k(usize::MAX).iter().enumerate() {
                    let key = key_of(
                        &region,
                        attrs.map_or(0, |a| a.material_index(i)),
                        attrs.map_or(0, |a| a.laid_year(i)),
                    );
                    let state = GroupState::one(e.score, attrs.map_or(0.0, |a| a.length_m(i)));
                    match local_index.get(&key) {
                        Some(&at) => local[at].1.add(state.sum_risk, state.sum_len),
                        None => add_keyed(&mut local, &mut local_index, key, state),
                    }
                }
                for (key, state) in local {
                    add_keyed(&mut groups, &mut index, key, state);
                }
            }
            groups.sort_by(|a, b| a.0.cmp(&b.0));
            return render_aggregate(spec, groups, None);
        };

        type Pick = (f64, f64, usize, i32, String);
        let streams: Vec<Vec<Pick>> = shards
            .iter()
            .map(|shard| {
                let attrs = shard.attributes().expect("budget specs need attributes");
                let region = region_key(shard.region());
                let mut stream = Vec::new();
                let mut cumulative = 0.0f64;
                for (i, e) in shard.top_k(usize::MAX).iter().enumerate() {
                    let length = attrs.length_m(i);
                    stream.push((e.score, length, attrs.material_index(i), attrs.laid_year(i), region.clone()));
                    if cumulative + length > budget {
                        break;
                    }
                    cumulative += length;
                }
                stream
            })
            .collect();
        let mut cursor = vec![0usize; streams.len()];
        let (mut selected, mut total_length) = (0u64, 0.0f64);
        loop {
            let mut best: Option<usize> = None;
            for (s, stream) in streams.iter().enumerate() {
                if let Some(c) = stream.get(cursor[s]) {
                    if best.is_none_or(|b| c.0 > streams[b][cursor[b]].0) {
                        best = Some(s);
                    }
                }
            }
            let Some(s) = best else { break };
            let (score, length, material, year, region) = &streams[s][cursor[s]];
            if total_length + length > budget {
                break;
            }
            cursor[s] += 1;
            selected += 1;
            total_length += length;
            let key = key_of(region, *material, *year);
            match index.get(&key) {
                Some(&at) => groups[at].1.add(*score, *length),
                None => add_keyed(&mut groups, &mut index, key, GroupState::one(*score, *length)),
            }
        }
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        render_aggregate(
            spec,
            groups,
            Some(BudgetSummary { budget_length_m: budget, selected, total_length_m: total_length }),
        )
    }

    /// A shard from `(score, length, material, year)` rows (any order; the
    /// ranking sorts them by descending score, stably).
    fn attribute_shard(region: &str, rows: &[(f64, f64, u8, i32)]) -> Scorer {
        shard_from_rows(region, rows, true)
    }

    /// [`attribute_shard`], or with `attrs` false the same ranking without
    /// an attribute section.
    fn shard_from_rows(region: &str, rows: &[(f64, f64, u8, i32)], attrs: bool) -> Scorer {
        let mut rows = rows.to_vec();
        rows.sort_by(|a, b| b.0.total_cmp(&a.0));
        let ranking = RiskRanking::new(
            rows.iter()
                .enumerate()
                .map(|(i, r)| RiskScore { pipe: PipeId(i as u32), score: r.0 })
                .collect(),
        );
        let mut snap = Snapshot::new("DPMHBP", region, 7, &ranking);
        if attrs {
            snap.push_section(attributes_section(
                rows.iter().map(|r| r.1).collect(),
                rows.iter().map(|r| f64::from(r.2)).collect(),
                rows.iter().map(|r| f64::from(r.3)).collect(),
            ));
        }
        Scorer::new(snap)
    }

    #[test]
    fn builder_round_trips_through_json() {
        let spec = AggregateSpec::new()
            .group_by(GroupKey::Region)
            .group_by(GroupKey::Material)
            .aggregate(AggOp::Count, None)
            .aggregate(AggOp::Avg, Some(AggField::Risk))
            .aggregate(AggOp::Sum, Some(AggField::LengthM))
            .with_top_groups(3)
            .with_budget(1234.5);
        assert_eq!(AggregateSpec::parse(&spec.to_json()).unwrap(), spec);
        // Minimal spec too.
        let minimal = AggregateSpec::new()
            .group_by(GroupKey::Region)
            .aggregate(AggOp::Count, None);
        assert_eq!(AggregateSpec::parse(&minimal.to_json()).unwrap(), minimal);
        assert!(!minimal.needs_attributes());
    }

    #[test]
    fn every_validation_error_is_typed() {
        use AggregateError as E;
        let cases: Vec<(&str, E)> = vec![
            ("nope", E::Syntax { offset: 0, msg: "invalid literal" }),
            ("[1]", E::NotAnObject),
            ("{}", E::MissingGroupBy),
            (r#"{"group_by":["region"]}"#, E::MissingAggregates),
            (r#"{"group_by":[],"aggregates":[{"op":"count"}]}"#, E::BadGroupBy),
            (r#"{"group_by":"region","aggregates":[{"op":"count"}]}"#, E::BadGroupBy),
            (
                r#"{"group_by":["soil"],"aggregates":[{"op":"count"}]}"#,
                E::BadGroupKey("soil".into()),
            ),
            (
                r#"{"group_by":["region","region"],"aggregates":[{"op":"count"}]}"#,
                E::DuplicateGroupKey("region"),
            ),
            (r#"{"group_by":["region"],"aggregates":[]}"#, E::BadAggregates),
            (r#"{"group_by":["region"],"aggregates":[7]}"#, E::BadAggregates),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"median","field":"risk"}]}"#,
                E::BadOp("median".into()),
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"sum","field":"diameter"}]}"#,
                E::BadField("diameter".into()),
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"sum"}]}"#,
                E::MissingField("sum"),
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"count","field":"risk"}]}"#,
                E::FieldOnCount,
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"count"},{"op":"count"}]}"#,
                E::DuplicateAggregate("count".into()),
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"count"}],"top_groups":0}"#,
                E::BadTopGroups,
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"count"}],"top_groups":1.5}"#,
                E::BadTopGroups,
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"count"}],"budget":5}"#,
                E::BadBudget,
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"count"}],"budget":{"length_m":-1}}"#,
                E::BadBudget,
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"count"}],"mystery":1}"#,
                E::UnknownKey("mystery".into()),
            ),
        ];
        for (body, expected) in cases {
            assert_eq!(AggregateSpec::parse(body), Err(expected.clone()), "{body}");
        }
    }

    #[test]
    fn grouping_and_rendering_are_deterministic() {
        let spec = spec_json(
            r#"{"group_by":["material"],"aggregates":[{"op":"count"},{"op":"sum","field":"length_m"},{"op":"avg","field":"risk"}]}"#,
        );
        let s = scorer_with_attrs("Region A", 18, 1.0);
        let partial = shard_partial(&spec, &s).expect("partial");
        let (groups, budget) = merge_partials(&spec, &[partial]);
        assert!(budget.is_none());
        let body = render_aggregate(&spec, groups, budget);
        // 18 pipes over 9 materials = 2 each; group order is key-ascending.
        assert!(body.starts_with("{\"groups\":[{\"key\":{\"material\":\""));
        assert_eq!(body.matches("\"count\":2").count(), 9, "{body}");
        // Rendering twice gives identical bytes.
        let partial2 = shard_partial(&spec, &s).expect("partial");
        let (groups2, b2) = merge_partials(&spec, &[partial2]);
        assert_eq!(body, render_aggregate(&spec, groups2, b2));
    }

    #[test]
    fn region_only_spec_works_without_attributes() {
        let ranking = RiskRanking::new(
            (0..5u32)
                .map(|i| RiskScore { pipe: PipeId(i), score: 1.0 - f64::from(i) / 10.0 })
                .collect(),
        );
        let s = Scorer::new(Snapshot::new("DPMHBP", "Region A", 7, &ranking));
        let spec = spec_json(
            r#"{"group_by":["region"],"aggregates":[{"op":"count"},{"op":"max","field":"risk"}]}"#,
        );
        let partial = shard_partial(&spec, &s).expect("no attributes needed");
        let (groups, _) = merge_partials(&spec, &[partial]);
        let body = render_aggregate(&spec, groups, None);
        assert_eq!(
            body,
            "{\"groups\":[{\"key\":{\"region\":\"region_a\"},\"count\":5,\"max_risk\":1}]}"
        );
        // But a length query against the same snapshot is refused, typed.
        let needs = spec_json(
            r#"{"group_by":["region"],"aggregates":[{"op":"sum","field":"length_m"}]}"#,
        );
        assert_eq!(shard_partial(&needs, &s), Err(AggregateError::NoAttributes));
    }

    #[test]
    fn top_groups_ranks_by_first_aggregate_descending() {
        let spec = spec_json(
            r#"{"group_by":["decade"],"aggregates":[{"op":"sum","field":"length_m"},{"op":"count"}],"top_groups":2}"#,
        );
        let s = scorer_with_attrs("Region A", 24, 1.0);
        let partial = shard_partial(&spec, &s).expect("partial");
        let (groups, _) = merge_partials(&spec, std::slice::from_ref(&partial));
        let full: Vec<(Vec<String>, f64)> = groups
            .iter()
            .map(|(k, st)| (k.clone(), st.value(&spec.aggregates[0])))
            .collect();
        let mut ranked = full.clone();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let body = render_aggregate(&spec, groups, None);
        // The first rendered group is the top-ranked one.
        let first_key = format!("{{\"key\":{{\"decade\":\"{}\"}}", ranked[0].0[0]);
        assert!(body.contains(&first_key), "{body} missing {first_key}");
        assert_eq!(body.matches("\"key\"").count(), 2, "{body}");
    }

    #[test]
    fn budget_greedy_selects_descending_and_stops_at_first_overflow() {
        // 4 pipes, lengths 10/10/25/10, budget 30: picks rank 0 (10),
        // rank 1 (10), then rank 2 needs 25 → overflow at 45 > 30 → STOP
        // (rank 3 would fit but greedy stops at the first overflow).
        let ranking = RiskRanking::new(
            (0..4u32)
                .map(|i| RiskScore { pipe: PipeId(i), score: 1.0 - f64::from(i) / 10.0 })
                .collect(),
        );
        let mut snap = Snapshot::new("DPMHBP", "Region A", 7, &ranking);
        snap.push_section(attributes_section(
            vec![10.0, 10.0, 25.0, 10.0],
            vec![0.0, 0.0, 1.0, 1.0],
            vec![1950.0, 1950.0, 1960.0, 1960.0],
        ));
        let s = Scorer::new(snap);
        let spec = spec_json(
            r#"{"group_by":["region"],"aggregates":[{"op":"count"},{"op":"sum","field":"length_m"}],"budget":{"length_m":30}}"#,
        );
        let partial = shard_partial(&spec, &s).expect("partial");
        let (groups, budget) = merge_partials(&spec, &[partial]);
        let body = render_aggregate(&spec, groups, budget);
        assert_eq!(
            body,
            "{\"groups\":[{\"key\":{\"region\":\"region_a\"},\"count\":2,\"sum_length_m\":20}],\
             \"budget\":{\"length_m\":30,\"selected\":2,\"total_length_m\":20}}"
        );
    }

    #[test]
    fn budget_candidates_are_prefix_plus_sentinel() {
        let s = scorer_with_attrs("Region A", 50, 1.0);
        let spec = spec_json(
            r#"{"group_by":["region"],"aggregates":[{"op":"count"}],"budget":{"length_m":100}}"#,
        );
        let partial = shard_partial(&spec, &s).expect("partial");
        let candidates = partial.candidates.as_ref().expect("budget mode");
        // The prefix fits the budget; prefix + sentinel overflows it.
        let lengths: Vec<f64> = candidates.iter().map(|c| c.length_m).collect();
        let prefix: f64 = lengths[..lengths.len() - 1].iter().sum();
        assert!(prefix <= 100.0, "{lengths:?}");
        assert!(prefix + lengths[lengths.len() - 1] > 100.0, "{lengths:?}");
        // Candidates stay in descending score order.
        assert!(candidates.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn sharded_merge_is_byte_identical_to_sequential_reference() {
        // The documented canonical computation, implemented independently:
        // per shard in entry order, fold-left in sorted-key order.
        let shards = [
            scorer_with_attrs("Region B", 13, 1.0),
            scorer_with_attrs("Region A", 17, 0.8),
            scorer_with_attrs("Region C", 7, 1.2),
        ];
        // Sorted-key order: region_a, region_b, region_c.
        let mut ordered: Vec<&Scorer> = shards.iter().collect();
        ordered.sort_by_key(|s| region_key(s.region()));

        let spec = spec_json(
            r#"{"group_by":["material","decade"],"aggregates":[{"op":"count"},{"op":"sum","field":"length_m"},{"op":"avg","field":"risk"},{"op":"min","field":"risk"},{"op":"max","field":"length_m"}]}"#,
        );
        let partials: Vec<AggregatePartial> = ordered
            .iter()
            .map(|s| shard_partial(&spec, s).expect("partial"))
            .collect();
        let (groups, budget) = merge_partials(&spec, &partials);
        let body = render_aggregate(&spec, groups, budget);

        // Reference: naive nested loops, no shared merge code.
        let mut reference: Vec<(Vec<String>, Vec<f64>)> = Vec::new(); // key -> [count,sum_risk,min_risk,max_risk,sum_len,min_len,max_len]
        for s in &ordered {
            let attrs = s.attributes().expect("attrs");
            for (i, e) in s.top_k(usize::MAX).iter().enumerate() {
                let key = vec![
                    attrs.material(i).code().to_string(),
                    decade_of(attrs.laid_year(i)),
                ];
                let len = attrs.length_m(i);
                match reference.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, st)) => {
                        st[0] += 1.0;
                        st[1] += e.score;
                        st[2] = st[2].min(e.score);
                        st[3] = st[3].max(e.score);
                        st[4] += len;
                        st[5] = st[5].min(len);
                        st[6] = st[6].max(len);
                    }
                    None => reference.push((
                        key,
                        vec![1.0, e.score, e.score, e.score, len, len, len],
                    )),
                }
            }
        }
        reference.sort_by(|a, b| a.0.cmp(&b.0));
        let mut expected = String::from("{\"groups\":[");
        for (i, (key, st)) in reference.iter().enumerate() {
            if i > 0 {
                expected.push(',');
            }
            expected.push_str(&format!(
                "{{\"key\":{{\"material\":\"{}\",\"decade\":\"{}\"}},\"count\":{},\"sum_length_m\":{},\"avg_risk\":{},\"min_risk\":{},\"max_length_m\":{}}}",
                key[0], key[1], st[0] as u64, st[4], st[1] / st[0], st[2], st[6]
            ));
        }
        expected.push_str("]}");
        assert_eq!(body, expected);
    }

    #[test]
    fn wire_partial_round_trips_exact_bits() {
        let spec_groups = spec_json(
            r#"{"group_by":["region","material"],"aggregates":[{"op":"sum","field":"risk"}]}"#,
        );
        let s = scorer_with_attrs("Region A", 23, 0.987654321);
        let partial = shard_partial(&spec_groups, &s).expect("partial");
        let wire = render_partial(&partial);
        let back = parse_partial(&spec_groups, &wire).expect("round trip");
        assert_eq!(back, partial);

        let spec_budget = spec_json(
            r#"{"group_by":["decade"],"aggregates":[{"op":"count"}],"budget":{"length_m":333.33}}"#,
        );
        let partial = shard_partial(&spec_budget, &s).expect("partial");
        let wire = render_partial(&partial);
        let back = parse_partial(&spec_budget, &wire).expect("round trip");
        assert_eq!(back, partial);

        // Region keys holding a tab, a quote and a newline survive the wire
        // in both modes.
        let odd = scorer_with_attrs("Tab\there \"quoted\"\nline", 9, 0.5);
        for spec in [&spec_groups, &spec_budget] {
            let partial = shard_partial(spec, &odd).expect("partial");
            let wire = render_partial(&partial);
            assert!(wire.contains("tab\\there_\\\"quoted\\\"\\nline"), "{wire}");
            assert_eq!(parse_partial(spec, &wire).expect("round trip"), partial);
        }

        // Mode mismatch is refused.
        assert!(parse_partial(&spec_budget, &render_partial(&back)).is_ok());
        let groups_wire = render_partial(&shard_partial(&spec_groups, &s).unwrap());
        assert!(matches!(
            parse_partial(&spec_budget, &groups_wire),
            Err(AggregateError::BadPartial(_))
        ));
    }

    /// A multi-megabyte budget partial parses in linear time: string
    /// decoding must not re-scan the rest of the body per character (it
    /// once did, making the federated budget merge quadratic in the size
    /// of each backend's reply).
    #[test]
    fn multi_megabyte_budget_partial_parses_in_linear_time() {
        let spec = spec_json(
            r#"{"group_by":["region"],"aggregates":[{"op":"count"}],"budget":{"length_m":1000}}"#,
        );
        let entry = r#"[0.123456789,104.25,3,1957,"Region Alpha North-East ü"]"#;
        let n = (4 << 20) / entry.len() + 1;
        let mut body = String::with_capacity(n * (entry.len() + 1) + 32);
        body.push_str("{\"candidates\":[");
        for i in 0..n {
            if i > 0 {
                body.push(',');
            }
            body.push_str(entry);
        }
        body.push_str("]}");
        assert!(body.len() >= 4 << 20, "{} bytes", body.len());
        let started = std::time::Instant::now();
        let partial = parse_partial(&spec, &body).expect("valid partial");
        let took = started.elapsed();
        assert_eq!(partial.candidates.as_ref().map(Vec::len), Some(n));
        assert!(
            took < std::time::Duration::from_secs(2),
            "parsing {} bytes took {took:?}",
            body.len()
        );
        // Multi-byte characters survive the run copy intact.
        let first = &partial.candidates.as_ref().expect("budget mode")[0];
        assert_eq!(partial.regions[first.region as usize], "Region Alpha North-East ü");
    }

    #[test]
    fn json_parser_handles_escapes_and_rejects_garbage() {
        assert_eq!(
            parse_json(r#""a\"b\\c\u0041\ud83d\ude00""#),
            Ok(Json::Str("a\"b\\cA😀".into()))
        );
        assert_eq!(
            parse_json(r#""héllo \"wörld\" ok""#),
            Ok(Json::Str("héllo \"wörld\" ok".into()))
        );
        assert_eq!(parse_json("3.5e2"), Ok(Json::Num(350.0)));
        for bad in [
            "", "{", "[", "\"", "{\"a\"}", "[1,]", "{\"a\":1,}", "1e999", "nul",
            "\"\\x\"", "\"\\ud800\"", "[1] []", "\u{0007}",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} must not parse");
        }
        // Depth cap: deeply nested arrays are a typed error, not a stack
        // overflow.
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert_eq!(parse_json(&deep), Err(AggregateError::TooDeep));
    }

    #[test]
    fn decades_render_across_the_whole_i32_range() {
        let shard = attribute_shard(
            "Region A",
            &[
                (0.9, 1.0, 0, i32::MIN),
                (0.8, 2.0, 1, i32::MAX),
                (0.7, 3.0, 2, -1),
                (0.6, 4.0, 3, 0),
                (0.5, 5.0, 4, 1959),
            ],
        );
        let spec = spec_json(r#"{"group_by":["decade"],"aggregates":[{"op":"count"}]}"#);
        let body = execute(&spec, std::slice::from_ref(&shard)).expect("kernel");
        for label in ["-2147483650s", "2147483640s", "-10s", "0s", "1950s"] {
            assert!(body.contains(&format!("\"decade\":\"{label}\"")), "{label} missing: {body}");
        }
        assert_eq!(body, string_keyed_reference(&spec, &[shard]));
    }

    #[test]
    fn accumulator_is_dense_for_real_year_ranges_and_interns_wide_ones() {
        let code = |material, decade| GroupCode { region: 0, material, decade };
        let dense = Accumulator::new(1, 9, Some((1850, 2029)), || -> std::iter::Empty<GroupCode> {
            panic!("a dense layout never walks the codes")
        });
        assert!(matches!(dense.layout, Layout::Dense { materials: 9, min_decade: 185, span: 18 }));
        assert_eq!(dense.states.len(), 9 * 18);

        let wide = [code(1, i32::MIN.div_euclid(10)), code(1, i32::MAX / 10), code(1, 0), code(1, 0)];
        let mut interned =
            Accumulator::new(1, 9, Some((i32::MIN, i32::MAX)), || wide.iter().copied());
        assert!(matches!(&interned.layout, Layout::Interned(codes) if codes.len() == 3));
        for (i, &c) in wide.iter().enumerate() {
            interned.add(c, i as f64, 1.0);
        }
        let spec = spec_json(r#"{"group_by":["decade"],"aggregates":[{"op":"count"}]}"#);
        let rows = interned.into_rows(&spec, &[]);
        let keys: Vec<&str> = rows.iter().map(|(k, _)| k[0].as_str()).collect();
        assert_eq!(keys, ["-2147483650s", "0s", "2147483640s"]);
        assert_eq!(rows[1].1.count, 2);
        assert_eq!(rows[1].1.sum_risk, 2.0 + 3.0);
    }

    #[test]
    fn scans_leave_the_code_columns_exactly_past_dense_slots() {
        // (group_by, decade span) on each side of DENSE_SLOTS: 4096 decade
        // slots alone, 9 materials × 455 = 4095 (and × 456 = 4104), and a
        // span too wide for the u16 decade codes.
        let cases = [
            ("decade", 4096, true),
            ("decade", 4097, false),
            ("material\",\"decade", 455, true),
            ("material\",\"decade", 456, false),
            ("decade", 70_000, false),
        ];
        for (keys, span, dense) in cases {
            let last = 1850 + (span - 1) * 10;
            let rows: Vec<(f64, f64, u8, i32)> = (0..40)
                .map(|i| (1.0 - f64::from(i) / 64.0, f64::from(i % 5) * 2.5, (i % 9) as u8, 1850))
                .chain([(0.2, -0.0, 3, last), (0.1, 7.5, 8, last - 10)])
                .collect();
            let shard = attribute_shard("Region A", &rows);
            let spec = spec_json(&format!(
                r#"{{"group_by":["{keys}"],"aggregates":[{{"op":"count"}},{{"op":"sum","field":"length_m"}},{{"op":"min","field":"risk"}}]}}"#
            ));
            let layout = scan(&spec, &shard).layout;
            assert_eq!(matches!(layout, Layout::Dense { .. }), dense, "{keys} over {span} decades");
            let codes = shard.group_codes().expect("attributes");
            assert_eq!(codes.decade.is_some(), span <= 1 << 16, "{span} decades");
            let body = execute(&spec, std::slice::from_ref(&shard)).expect("kernel");
            assert_eq!(body, string_keyed_reference(&spec, &[shard]), "{keys} over {span} decades");
        }
    }

    #[test]
    fn first_pipe_into_an_empty_group_matches_a_seeded_group_bit_for_bit() {
        let bits = |g: &GroupState| {
            [g.sum_risk, g.min_risk, g.max_risk, g.sum_len, g.min_len, g.max_len].map(f64::to_bits)
        };
        let values = [0.0, -0.0, 1.5, -2.25, f64::MAX, f64::MIN_POSITIVE, f64::INFINITY, f64::NEG_INFINITY];
        for &risk in &values {
            for &len in &values {
                let mut g = GroupState::EMPTY;
                g.add(risk, len);
                let seeded = GroupState::one(risk, len);
                assert_eq!((g.count, bits(&g)), (1, bits(&seeded)), "risk {risk:?}, length {len:?}");
            }
        }
    }

    #[test]
    fn negative_zero_sums_render_like_the_reference() {
        // Groups whose every length or score is -0.0 must keep the sign:
        // the accumulator seeds from the first pipe instead of adding to
        // +0.0.
        let shard = attribute_shard(
            "Region A",
            &[(-0.0, -0.0, 0, 1950), (-0.0, -0.0, 0, 1951), (0.5, 2.0, 1, 1960)],
        );
        for spec in [
            r#"{"group_by":["material"],"aggregates":[{"op":"sum","field":"length_m"},{"op":"sum","field":"risk"}]}"#,
            r#"{"group_by":["material"],"aggregates":[{"op":"sum","field":"length_m"}],"budget":{"length_m":10}}"#,
        ] {
            let spec = spec_json(spec);
            let body = execute(&spec, std::slice::from_ref(&shard)).expect("kernel");
            assert!(body.contains("\"sum_length_m\":-0"), "{body}");
            assert_eq!(body, string_keyed_reference(&spec, std::slice::from_ref(&shard)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense kernel against the string-keyed oracle, byte for
        /// byte: random fleets (empty shards included) whose year regimes
        /// range from real construction years through negative years and
        /// spans wide enough to force the interning fallback to
        /// `i32::MIN`/`i32::MAX`, with `-0.0` scores and lengths, every
        /// group-key subset and order, grouped and budget specs. One case
        /// in four reads no attribute (region-keyed, risk-only columns),
        /// and then some shards carry no attribute section at all. Each
        /// grouped scan must take the code-column path exactly when its
        /// decade span is dense, and the interning fallback otherwise.
        /// Checked through the in-process merge, through each partial's
        /// wire round trip, and with a run of shards first collapsed by
        /// `merge_to_partial` (a multi-region backend's `?partial=1`) and
        /// sent over the wire.
        #[test]
        fn dense_kernel_matches_string_keyed_reference(
            tables in proptest::collection::vec(
                (0u8..4, proptest::collection::vec((0usize..4, 0usize..5, 0u8..9, i32::MIN..i32::MAX), 0..30)),
                1..5),
            keys in (1u8..8, 0usize..6),
            first in 0usize..9,
            budget in proptest::option::of(0.0f64..400.0),
            top in proptest::option::of(1usize..6),
            run in (0usize..5, 0usize..5),
            risk_only in 0u8..4,
            bare in 0u8..16,
        ) {
            let risk_only = risk_only == 0;
            let score_of = |p: usize| [0.9, 0.5, 0.0, -0.0][p];
            let length_of = |l: usize| [0.0, -0.0, 12.5, 7.25, 100.0][l];
            let year_of = |regime: u8, raw: i32| match regime {
                0 => 1850 + raw.rem_euclid(180),
                1 => -605 + raw.rem_euclid(600),
                2 => raw.rem_euclid(100_000) * 10,
                _ => [i32::MIN, i32::MAX, raw][raw.rem_euclid(3) as usize],
            };
            let rows: Vec<Vec<(f64, f64, u8, i32)>> = tables
                .iter()
                .map(|(regime, rows)| {
                    rows.iter()
                        .map(|&(p, l, m, raw)| (score_of(p), length_of(l), m, year_of(*regime, raw)))
                        .collect()
                })
                .collect();
            let shards: Vec<Scorer> = rows
                .iter()
                .enumerate()
                .map(|(s, rows)| shard_from_rows(&format!("Region {s}"), rows, !(risk_only && bare & (1 << s) != 0)))
                .collect();

            let orders = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
            let all_keys = [GroupKey::Region, GroupKey::Material, GroupKey::Decade];
            let mut spec = AggregateSpec::new();
            for k in orders[keys.1] {
                if keys.0 & (1 << k) != 0 && !(risk_only && k != 0) {
                    spec = spec.group_by(all_keys[k]);
                }
            }
            if spec.group_by.is_empty() {
                spec = spec.group_by(GroupKey::Region);
            }
            let columns = [
                (AggOp::Count, None),
                (AggOp::Sum, Some(AggField::Risk)),
                (AggOp::Min, Some(AggField::Risk)),
                (AggOp::Max, Some(AggField::Risk)),
                (AggOp::Avg, Some(AggField::Risk)),
                (AggOp::Sum, Some(AggField::LengthM)),
                (AggOp::Min, Some(AggField::LengthM)),
                (AggOp::Max, Some(AggField::LengthM)),
                (AggOp::Avg, Some(AggField::LengthM)),
            ];
            for i in 0..columns.len() {
                let (op, field) = columns[(first + i) % columns.len()];
                if !(risk_only && field == Some(AggField::LengthM)) {
                    spec = spec.aggregate(op, field);
                }
            }
            if let Some(b) = budget.filter(|_| !risk_only) { spec = spec.with_budget(b); }
            if let Some(t) = top { spec = spec.with_top_groups(t); }

            let expected = string_keyed_reference(&spec, &shards);
            prop_assert_eq!(&execute(&spec, &shards).expect("kernel"), &expected);

            if spec.budget_length_m.is_none() {
                let dims = Dims::of(&spec);
                for (shard, rows) in shards.iter().zip(&rows) {
                    let decades = rows.iter().map(|r| i64::from(r.3.div_euclid(10)));
                    let span = match (decades.clone().min(), decades.max()) {
                        (Some(lo), Some(hi)) if dims.decade => (hi - lo + 1) as u64,
                        _ => 1,
                    };
                    let materials = if dims.material { Material::ALL.len() as u64 } else { 1 };
                    let dense = matches!(scan(&spec, shard).layout, Layout::Dense { .. });
                    prop_assert_eq!(dense, materials * span <= DENSE_SLOTS);
                }
            }

            let partials: Vec<AggregatePartial> =
                shards.iter().map(|s| shard_partial(&spec, s).expect("partial")).collect();
            let wired: Vec<AggregatePartial> = partials
                .iter()
                .map(|p| parse_partial(&spec, &render_partial(p)).expect("wire round trip"))
                .collect();
            let (groups, b) = merge_partials(&spec, &wired);
            prop_assert_eq!(&render_aggregate(&spec, groups, b), &expected);

            let lo = run.0 % partials.len();
            let hi = lo + 1 + run.1 % (partials.len() - lo);
            let collapsed = merge_to_partial(&spec, &partials[lo..hi]);
            let wire = render_partial(&collapsed);
            let back = parse_partial(&spec, &wire).expect("collapsed round trip");
            prop_assert_eq!(render_partial(&back), wire);
            let mut front = partials[..lo].to_vec();
            front.push(back);
            front.extend_from_slice(&partials[hi..]);
            let (groups, b) = merge_partials(&spec, &front);
            prop_assert_eq!(render_aggregate(&spec, groups, b), expected);
        }

        /// The spec parser never panics on arbitrary bytes (the same
        /// contract the HTTP request parser proves).
        #[test]
        fn spec_parser_never_panics_on_arbitrary_input(
            bytes in proptest::collection::vec(0u16..256, 0..257),
        ) {
            let raw: Vec<u8> = bytes.iter().map(|b| *b as u8).collect();
            let body = String::from_utf8_lossy(&raw);
            let _ = AggregateSpec::parse(&body);
        }

        /// Nor on inputs that are at least JSON-shaped.
        #[test]
        fn spec_parser_never_panics_on_json_shaped_input(
            keys in proptest::collection::vec(proptest::collection::vec(0u8..27, 0..13), 0..6),
            nums in proptest::collection::vec(-1e9f64..1e9, 0..6),
        ) {
            let mut body = String::from("{");
            for (i, k) in keys.iter().enumerate() {
                if i > 0 { body.push(','); }
                let k: String = k
                    .iter()
                    .map(|c| if *c == 26 { '_' } else { char::from(b'a' + c) })
                    .collect();
                let v = nums.get(i).copied().unwrap_or(1.0);
                body.push_str(&format!("\"{k}\":{v}"));
            }
            body.push('}');
            let _ = AggregateSpec::parse(&body);
        }

        /// Splitting one attribute-tagged table across K shards and
        /// merging partials is byte-identical to the same computation
        /// with every shard in one sequential pass — the core identity
        /// the sharded and federated topologies rely on. Scores come
        /// from a tiny set so cross-shard ties are common.
        #[test]
        fn split_and_merge_is_byte_identical_to_unsplit(
            sizes in proptest::collection::vec(0u32..12, 1..5),
            picks in proptest::collection::vec(0usize..4, 60..61),
            budget in proptest::option::of(0.0f64..400.0),
            top in proptest::option::of(1usize..5),
        ) {
            let score_of = |p: usize| [0.9, 0.5, 0.5, 0.1][p];
            let mut spec = AggregateSpec::new()
                .group_by(GroupKey::Material)
                .group_by(GroupKey::Decade)
                .aggregate(AggOp::Count, None)
                .aggregate(AggOp::Sum, Some(AggField::LengthM))
                .aggregate(AggOp::Avg, Some(AggField::Risk));
            if let Some(b) = budget { spec = spec.with_budget(b); }
            if let Some(t) = top { spec = spec.with_top_groups(t); }

            let mut next = 0usize;
            let mut make = |region: &str, n: u32| {
                let ranking = RiskRanking::new({
                    let mut scores: Vec<RiskScore> = (0..n)
                        .map(|i| {
                            let s = score_of(picks[next % picks.len()]);
                            next += 1;
                            RiskScore { pipe: PipeId(i), score: s }
                        })
                        .collect();
                    scores.sort_by(|a, b| b.score.total_cmp(&a.score));
                    scores
                });
                let mut snap = Snapshot::new("DPMHBP", region, 7, &ranking);
                snap.push_section(attributes_section(
                    (0..n).map(|i| 5.0 + f64::from(i % 5) * 12.5).collect(),
                    (0..n).map(|i| f64::from(i % 9)).collect(),
                    (0..n).map(|i| f64::from(1900 + (i % 12) * 10)).collect(),
                ));
                Scorer::new(snap)
            };
            let shards: Vec<Scorer> = sizes
                .iter()
                .enumerate()
                .map(|(s, &n)| make(&format!("Region {s}"), n))
                .collect();

            // Canonical: per-shard partials merged in key order (regions
            // are already sorted: region_0 < region_1 < ...).
            let partials: Vec<AggregatePartial> = shards
                .iter()
                .map(|s| shard_partial(&spec, s).expect("partial"))
                .collect();
            let (groups, b) = merge_partials(&spec, &partials);
            let merged_body = render_aggregate(&spec, groups, b);

            // Sequential: the same partials, but each round-tripped
            // through the federation wire before merging — the federated
            // front end's exact path.
            let rewired: Vec<AggregatePartial> = partials
                .iter()
                .map(|p| parse_partial(&spec, &render_partial(p)).expect("wire round trip"))
                .collect();
            let (groups2, b2) = merge_partials(&spec, &rewired);
            prop_assert_eq!(merged_body, render_aggregate(&spec, groups2, b2));
        }

        /// A multi-shard budget `/aggregate` equals an independent
        /// monolithic reference: every shard's pipes concatenated in key
        /// order, stable-sorted by descending score, selected greedily
        /// until the first overflow, then grouped. Checked through the
        /// front-end merge of per-shard partials, and with a contiguous
        /// run of shards first collapsed by `merge_to_partial` and sent
        /// over the wire — a multi-shard backend's `?partial=1` answer.
        #[test]
        fn budget_merge_matches_monolithic_reference(
            tables in proptest::collection::vec(
                proptest::collection::vec((0usize..3, 1u32..60), 0..10), 1..5),
            budget in 0.0f64..400.0,
            top in proptest::option::of(1usize..4),
            run in (0usize..5, 0usize..5),
        ) {
            let score_of = |p: usize| [0.9f64, 0.5, 0.1][p];
            let length_of = |l: u32| f64::from(l) * 0.75;
            let year_of = |i: usize| 1900 + (i % 12) * 10;
            let mut tables = tables;
            for t in &mut tables {
                t.sort_by(|a, b| score_of(b.0).total_cmp(&score_of(a.0)));
            }
            let shards: Vec<Scorer> = tables.iter().enumerate().map(|(s, t)| {
                let ranking = RiskRanking::new(t.iter().enumerate()
                    .map(|(i, &(p, _))| RiskScore { pipe: PipeId(i as u32), score: score_of(p) })
                    .collect());
                let mut snap = Snapshot::new("DPMHBP", format!("Region {s}"), 7, &ranking);
                snap.push_section(attributes_section(
                    t.iter().map(|&(_, l)| length_of(l)).collect(),
                    (0..t.len()).map(|i| (i % 9) as f64).collect(),
                    (0..t.len()).map(|i| year_of(i) as f64).collect(),
                ));
                Scorer::new(snap)
            }).collect();
            let mut spec = AggregateSpec::new()
                .group_by(GroupKey::Region)
                .group_by(GroupKey::Decade)
                .aggregate(AggOp::Count, None)
                .aggregate(AggOp::Sum, Some(AggField::LengthM))
                .aggregate(AggOp::Max, Some(AggField::Risk))
                .with_budget(budget);
            if let Some(t) = top { spec = spec.with_top_groups(t); }

            // The monolithic reference, sharing no merge code.
            let mut all: Vec<(f64, f64, (String, String))> = Vec::new();
            for (s, t) in tables.iter().enumerate() {
                for (i, &(p, l)) in t.iter().enumerate() {
                    let key = (format!("region_{s}"), format!("{}s", year_of(i)));
                    all.push((score_of(p), length_of(l), key));
                }
            }
            all.sort_by(|a, b| b.0.total_cmp(&a.0));
            let (mut used, mut selected) = (0.0f64, 0u64);
            let mut groups: std::collections::BTreeMap<(String, String), (u64, f64, f64)> =
                std::collections::BTreeMap::new();
            for (score, length, key) in all {
                if used + length > budget { break; }
                used += length;
                selected += 1;
                let g = groups.entry(key).or_insert((0, 0.0, f64::MIN));
                *g = (g.0 + 1, g.1 + length, g.2.max(score));
            }
            let mut rows: Vec<_> = groups.into_iter().collect();
            if let Some(n) = top {
                rows.sort_by_key(|row| std::cmp::Reverse(row.1 .0));
                rows.truncate(n);
            }
            let rows: Vec<String> = rows.iter().map(|((r, d), (n, length, max))| format!(
                "{{\"key\":{{\"region\":\"{r}\",\"decade\":\"{d}\"}},\"count\":{n},\"sum_length_m\":{length},\"max_risk\":{max}}}"
            )).collect();
            let expected = format!(
                "{{\"groups\":[{}],\"budget\":{{\"length_m\":{budget},\"selected\":{selected},\"total_length_m\":{used}}}}}",
                rows.join(",")
            );

            let partials: Vec<AggregatePartial> = shards
                .iter()
                .map(|s| shard_partial(&spec, s).expect("partial"))
                .collect();
            let (groups, b) = merge_partials(&spec, &partials);
            prop_assert_eq!(&render_aggregate(&spec, groups, b), &expected);

            let lo = run.0 % partials.len();
            let hi = lo + 1 + run.1 % (partials.len() - lo);
            let collapsed = merge_to_partial(&spec, &partials[lo..hi]);
            let wired = parse_partial(&spec, &render_partial(&collapsed)).expect("wire round trip");
            let mut front = partials[..lo].to_vec();
            front.push(wired);
            front.extend_from_slice(&partials[hi..]);
            let (groups, b) = merge_partials(&spec, &front);
            prop_assert_eq!(render_aggregate(&spec, groups, b), expected);
        }
    }
}
