//! A small SQL front end for the engine.
//!
//! Covers exactly the query surface of the reproduction — conjunctive
//! select-project-join with optional aggregation:
//!
//! ```sql
//! SELECT * FROM lineitem0 WHERE l_shipdate BETWEEN 100 AND 130
//! SELECT COUNT(*), AVG(o_totalprice)
//!   FROM orders0, customer0
//!  WHERE o_custkey = c_custkey AND c_mktsegment = 2
//!  GROUP BY c_nationkey
//! ```
//!
//! Names are resolved against the catalog: unqualified columns must be
//! unambiguous among the `FROM` tables. Numeric literals are coerced to
//! the column's type (`Int`, `Float`, or `Date`); strings use single
//! quotes. Predicates may be `=`, `<`, `<=`, `>`, `>=`,
//! `BETWEEN … AND …`, or `IN (…)`; `col = col` between two different
//! tables is an equi-join.

use crate::aggregate::{AggExpr, AggFunc, AggSpec};
use crate::query::{JoinPred, PredicateKind, Query, RangeBound, SelPred};
use colt_catalog::{ColRef, Database, TableId};
use colt_storage::{Value, ValueType};
use std::fmt;

/// A parsed statement: the SPJ core plus optional aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedQuery {
    /// The select-project-join query.
    pub query: Query,
    /// Aggregation, when the select list is not `*`.
    pub agg: Option<AggSpec>,
}

/// Parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(ParseError(msg.into()))
}

// ---------------------------------------------------------------- lexer

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(String),
    Str(String),
    Star,
    Comma,
    Dot,
    LParen,
    RParen,
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '*' => {
                chars.next();
                out.push(Tok::Star);
            }
            ',' => {
                chars.next();
                out.push(Tok::Comma);
            }
            '.' => {
                chars.next();
                out.push(Tok::Dot);
            }
            '(' => {
                chars.next();
                out.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                out.push(Tok::RParen);
            }
            '=' => {
                chars.next();
                out.push(Tok::Eq);
            }
            '<' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push(Tok::Le);
                } else {
                    out.push(Tok::Lt);
                }
            }
            '>' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push(Tok::Ge);
                } else {
                    out.push(Tok::Gt);
                }
            }
            '\'' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('\'') => break,
                        Some(c) => s.push(c),
                        None => return err("unterminated string literal"),
                    }
                }
                out.push(Tok::Str(s));
            }
            c if c.is_ascii_digit() || c == '-' => {
                let mut s = String::new();
                s.push(c);
                chars.next();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() || d == '.' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Tok::Number(s));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Tok::Ident(s));
            }
            other => return err(format!("unexpected character {other:?}")),
        }
    }
    Ok(out)
}

// --------------------------------------------------------------- parser

struct Parser<'a> {
    db: &'a Database,
    toks: Vec<Tok>,
    pos: usize,
    tables: Vec<TableId>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.keyword(kw) {
            Ok(())
        } else {
            err(format!("expected {kw} at token {:?}", self.peek()))
        }
    }

    fn expect(&mut self, t: Tok) -> Result<()> {
        match self.next() {
            Some(found) if found == t => Ok(()),
            other => err(format!("expected {t:?}, found {other:?}")),
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => err(format!("expected identifier, found {other:?}")),
        }
    }

    /// A column reference: `name` or `table.name`, resolved against the
    /// FROM tables.
    fn column(&mut self) -> Result<ColRef> {
        let first = self.ident()?;
        if self.peek() == Some(&Tok::Dot) {
            self.pos += 1;
            let col = self.ident()?;
            let table = self
                .db
                .table_by_name(&first)
                .ok_or_else(|| ParseError(format!("unknown table {first}")))?;
            if !self.tables.contains(&table.id) {
                return err(format!("table {first} is not in FROM"));
            }
            let idx = table
                .schema
                .column_index(&col)
                .ok_or_else(|| ParseError(format!("unknown column {first}.{col}")))?;
            return Ok(ColRef::new(table.id, idx));
        }
        // Unqualified: must be unambiguous among the FROM tables.
        let mut found = None;
        for &tid in &self.tables {
            if let Some(idx) = self.db.table(tid).schema.column_index(&first) {
                if found.is_some() {
                    return err(format!("ambiguous column {first}"));
                }
                found = Some(ColRef::new(tid, idx));
            }
        }
        found.ok_or_else(|| ParseError(format!("unknown column {first}")))
    }

    /// Is the upcoming token sequence a column reference (vs a literal)?
    fn looking_at_column(&self) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if !s.eq_ignore_ascii_case("and"))
    }

    /// A literal, coerced to the type of `col`.
    fn literal(&mut self, col: ColRef) -> Result<Value> {
        let vtype = self.db.table(col.table).schema.columns[col.column as usize].vtype;
        match self.next() {
            Some(Tok::Number(n)) => match vtype {
                ValueType::Int => n
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| ParseError(format!("bad integer literal {n}"))),
                ValueType::Float => n
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| ParseError(format!("bad float literal {n}"))),
                ValueType::Date => n
                    .parse::<i32>()
                    .map(Value::Date)
                    .map_err(|_| ParseError(format!("bad date literal {n}"))),
                ValueType::Str => err(format!("column expects a string, found number {n}")),
            },
            Some(Tok::Str(s)) => {
                if vtype == ValueType::Str {
                    Ok(Value::Str(s))
                } else {
                    err(format!("column expects {vtype}, found string"))
                }
            }
            other => err(format!("expected literal, found {other:?}")),
        }
    }

    /// One WHERE conjunct: a join predicate or a selection.
    fn conjunct(&mut self, joins: &mut Vec<JoinPred>, sels: &mut Vec<SelPred>) -> Result<()> {
        let col = self.column()?;
        // IN (v1, v2, …)
        if self.keyword("in") {
            self.expect(Tok::LParen)?;
            let mut values = Vec::new();
            loop {
                values.push(self.literal(col)?);
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
            if values.is_empty() {
                return err("empty IN list");
            }
            sels.push(SelPred::is_in(col, values));
            return Ok(());
        }
        // BETWEEN lo AND hi
        if self.keyword("between") {
            let lo = self.literal(col)?;
            self.expect_keyword("and")?;
            let hi = self.literal(col)?;
            sels.push(SelPred {
                col,
                kind: PredicateKind::Range {
                    lo: Some(RangeBound { value: lo, inclusive: true }),
                    hi: Some(RangeBound { value: hi, inclusive: true }),
                },
            });
            return Ok(());
        }
        let op = self
            .next()
            .ok_or_else(|| ParseError("expected comparison operator".into()))?;
        match op {
            Tok::Eq => {
                if self.looking_at_column() {
                    let other = self.column()?;
                    if other.table == col.table {
                        return err("self-join predicates are out of scope");
                    }
                    joins.push(JoinPred::new(col, other));
                } else {
                    let v = self.literal(col)?;
                    sels.push(SelPred { col, kind: PredicateKind::Eq(v) });
                }
            }
            Tok::Lt | Tok::Le | Tok::Gt | Tok::Ge => {
                let v = self.literal(col)?;
                let inclusive = matches!(op, Tok::Le | Tok::Ge);
                let bound = Some(RangeBound { value: v, inclusive });
                let kind = if matches!(op, Tok::Lt | Tok::Le) {
                    PredicateKind::Range { lo: None, hi: bound }
                } else {
                    PredicateKind::Range { lo: bound, hi: None }
                };
                sels.push(SelPred { col, kind });
            }
            other => return err(format!("unsupported operator {other:?}")),
        }
        Ok(())
    }

}

/// Parse one statement against a database catalog.
///
/// # Examples
///
/// ```
/// use colt_catalog::{Column, Database, TableSchema};
/// use colt_storage::{row_from, Value, ValueType};
///
/// let mut db = Database::new();
/// let t = db.add_table(TableSchema::new(
///     "orders",
///     vec![Column::new("o_id", ValueType::Int), Column::new("o_total", ValueType::Float)],
/// ));
/// db.insert_rows(t, (0..100i64).map(|i| row_from(vec![Value::Int(i), Value::Float(i as f64)]))).unwrap();
/// db.analyze_all();
///
/// let parsed = colt_engine::parse_sql(
///     &db,
///     "SELECT COUNT(*) FROM orders WHERE o_total BETWEEN 10 AND 20",
/// ).unwrap();
/// assert_eq!(parsed.query.selections.len(), 1);
/// assert!(parsed.agg.is_some());
/// assert!(colt_engine::parse_sql(&db, "SELECT * FROM nonexistent").is_err());
/// ```
pub fn parse(db: &Database, sql: &str) -> Result<ParsedQuery> {
    let toks = lex(sql)?;
    let mut p = Parser { db, toks, pos: 0, tables: Vec::new() };
    p.expect_keyword("select")?;

    // Select list: either `*` or aggregate calls. Aggregate column
    // arguments can only be resolved once FROM is known, so stash the
    // token range and re-parse after.
    let select_start = p.pos;
    let star = p.peek() == Some(&Tok::Star);
    // Skip ahead to FROM.
    while !matches!(p.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("from")) {
        if p.next().is_none() {
            return err("expected FROM");
        }
    }
    let select_end = p.pos;
    p.expect_keyword("from")?;

    // FROM list.
    loop {
        let name = p.ident()?;
        let table =
            db.table_by_name(&name).ok_or_else(|| ParseError(format!("unknown table {name}")))?;
        if p.tables.contains(&table.id) {
            return err(format!("duplicate table {name}"));
        }
        p.tables.push(table.id);
        if p.peek() == Some(&Tok::Comma) {
            p.pos += 1;
        } else {
            break;
        }
    }

    // WHERE.
    let mut joins = Vec::new();
    let mut sels = Vec::new();
    if p.keyword("where") {
        loop {
            p.conjunct(&mut joins, &mut sels)?;
            if !p.keyword("and") {
                break;
            }
        }
    }

    // GROUP BY.
    let mut group_by = Vec::new();
    if p.keyword("group") {
        p.expect_keyword("by")?;
        loop {
            group_by.push(p.column()?);
            if p.peek() == Some(&Tok::Comma) {
                p.pos += 1;
            } else {
                break;
            }
        }
    }
    if p.pos != p.toks.len() {
        return err(format!("trailing tokens at {:?}", p.peek()));
    }

    // Second pass over the select list with tables known.
    let agg = if star {
        if !group_by.is_empty() {
            return err("GROUP BY requires an aggregate select list");
        }
        None
    } else {
        let saved = std::mem::replace(&mut p.pos, select_start);
        let mut exprs = Vec::new();
        loop {
            let name = p.ident()?;
            let func = match name.to_ascii_lowercase().as_str() {
                "count" => AggFunc::Count,
                "sum" => AggFunc::Sum,
                "avg" => AggFunc::Avg,
                "min" => AggFunc::Min,
                "max" => AggFunc::Max,
                other => return err(format!("unknown aggregate {other}")),
            };
            p.expect(Tok::LParen)?;
            if p.peek() == Some(&Tok::Star) {
                if func != AggFunc::Count {
                    return err("only COUNT may take *");
                }
                p.pos += 1;
                exprs.push(AggExpr::count_star());
            } else {
                let col = p.column()?;
                exprs.push(AggExpr::over(func, col));
            }
            p.expect(Tok::RParen)?;
            if p.peek() == Some(&Tok::Comma) && p.pos + 1 < select_end {
                p.pos += 1;
            } else {
                break;
            }
        }
        if p.pos != select_end {
            return err("malformed select list");
        }
        p.pos = saved;
        Some(AggSpec { group_by, exprs })
    };

    let query = Query { tables: p.tables.clone(), joins, selections: sels };
    query.validate().map_err(ParseError)?;
    Ok(ParsedQuery { query, agg })
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::{Column, TableSchema};
    use colt_storage::row_from;

    fn db() -> Database {
        let mut db = Database::new();
        let a = db.add_table(TableSchema::new(
            "orders",
            vec![
                Column::new("o_id", ValueType::Int),
                Column::new("o_custkey", ValueType::Int),
                Column::new("o_total", ValueType::Float),
                Column::new("o_date", ValueType::Date),
            ],
        ));
        let b = db.add_table(TableSchema::new(
            "customer",
            vec![Column::new("c_id", ValueType::Int), Column::new("c_name", ValueType::Str)],
        ));
        db.insert_rows(
            a,
            (0..100i64).map(|i| {
                row_from(vec![
                    Value::Int(i),
                    Value::Int(i % 10),
                    Value::Float(i as f64),
                    Value::Date(i as i32),
                ])
            }),
        ).unwrap();
        db.insert_rows(
            b,
            (0..10i64).map(|i| row_from(vec![Value::Int(i), Value::Str(format!("c{i}"))])),
        ).unwrap();
        db.analyze_all();
        db
    }

    #[test]
    fn select_star_with_filters() {
        let db = db();
        let p = parse(&db, "SELECT * FROM orders WHERE o_id = 5").unwrap();
        assert!(p.agg.is_none());
        assert_eq!(p.query.tables.len(), 1);
        assert_eq!(p.query.selections.len(), 1);
        assert_eq!(p.query.selections[0].kind, PredicateKind::Eq(Value::Int(5)));
    }

    #[test]
    fn between_and_inequalities() {
        let db = db();
        let p = parse(
            &db,
            "select * from orders where o_date between 10 and 20 and o_total >= 5.5 and o_id < 90",
        )
        .unwrap();
        assert_eq!(p.query.selections.len(), 3);
        // Date coercion.
        let PredicateKind::Range { lo: Some(lo), hi: Some(hi) } = &p.query.selections[0].kind
        else {
            panic!("expected range");
        };
        assert_eq!(lo.value, Value::Date(10));
        assert_eq!(hi.value, Value::Date(20));
        // Float coercion + inclusivity.
        let PredicateKind::Range { lo: Some(lo), hi: None } = &p.query.selections[1].kind else {
            panic!("expected ge");
        };
        assert_eq!(lo.value, Value::Float(5.5));
        assert!(lo.inclusive);
        let PredicateKind::Range { lo: None, hi: Some(hi) } = &p.query.selections[2].kind else {
            panic!("expected lt");
        };
        assert!(!hi.inclusive);
    }

    #[test]
    fn join_and_qualified_names() {
        let db = db();
        let p = parse(
            &db,
            "SELECT * FROM orders, customer WHERE orders.o_custkey = customer.c_id AND c_name = 'c3'",
        )
        .unwrap();
        assert_eq!(p.query.joins.len(), 1);
        assert_eq!(p.query.selections.len(), 1);
        assert_eq!(p.query.selections[0].kind, PredicateKind::Eq(Value::Str("c3".into())));
    }

    #[test]
    fn in_lists_parse_and_execute() {
        use crate::optimizer::{IndexSetView, Optimizer};
        use crate::{Collect, Executor};
        use colt_catalog::PhysicalConfig;
        let db = db();
        let p = parse(&db, "SELECT * FROM orders WHERE o_custkey IN (1, 3, 5)").unwrap();
        let PredicateKind::In(vs) = &p.query.selections[0].kind else { panic!() };
        assert_eq!(vs.len(), 3);
        let cfg = PhysicalConfig::new();
        let plan = Optimizer::new(&db).optimize(&p.query, IndexSetView::real(&cfg));
        let res =
            Executor::new(&db, &cfg).execute(&p.query, &plan, Collect::CountOnly).unwrap();
        assert_eq!(res.row_count(), 30, "3 of 10 customers × 10 orders each");
    }

    #[test]
    fn aggregates_and_group_by() {
        let db = db();
        let p = parse(
            &db,
            "SELECT COUNT(*), SUM(o_total), MAX(o_date) FROM orders GROUP BY o_custkey",
        )
        .unwrap();
        let agg = p.agg.unwrap();
        assert_eq!(agg.exprs.len(), 3);
        assert_eq!(agg.exprs[0], AggExpr::count_star());
        assert_eq!(agg.exprs[1].func, AggFunc::Sum);
        assert_eq!(agg.group_by.len(), 1);
    }

    #[test]
    fn errors_are_informative() {
        let db = db();
        let cases = [
            ("SELECT * FROM nope", "unknown table"),
            ("SELECT * FROM orders WHERE nope = 1", "unknown column"),
            ("SELECT * FROM orders WHERE o_id = 'x'", "expects"),
            ("SELECT * FROM orders, customer WHERE o_id = 1 trailing", "trailing"),
            ("SELECT MEDIAN(o_id) FROM orders", "unknown aggregate"),
            ("SELECT SUM(*) FROM orders", "only COUNT"),
            ("SELECT * FROM orders GROUP BY o_id", "GROUP BY requires"),
            ("SELECT * FROM orders, orders", "duplicate table"),
        ];
        for (sql, needle) in cases {
            let e = parse(&db, sql).unwrap_err();
            assert!(e.0.contains(needle), "{sql}: {e}");
        }
    }

    #[test]
    fn ambiguous_unqualified_column_rejected() {
        let mut db = db();
        let t = db.add_table(TableSchema::new(
            "orders2",
            vec![Column::new("o_id", ValueType::Int)],
        ));
        db.insert_rows(t, (0..5i64).map(|i| row_from(vec![Value::Int(i)]))).unwrap();
        db.analyze_all();
        let e = parse(&db, "SELECT * FROM orders, orders2 WHERE o_id = 1").unwrap_err();
        assert!(e.0.contains("ambiguous"), "{e}");
    }

    #[test]
    fn end_to_end_execute_parsed_query() {
        use crate::optimizer::{IndexSetView, Optimizer};
        use crate::Executor;
        use colt_catalog::PhysicalConfig;
        let db = db();
        let p = parse(
            &db,
            "SELECT COUNT(*), MIN(o_total) FROM orders WHERE o_custkey = 3 GROUP BY o_custkey",
        )
        .unwrap();
        let cfg = PhysicalConfig::new();
        let plan = Optimizer::new(&db).optimize(&p.query, IndexSetView::real(&cfg));
        let (_, rows) =
            Executor::new(&db, &cfg).execute_aggregate(&p.query, &plan, &p.agg.unwrap()).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(3), Value::Int(10), Value::Float(3.0)]]);
    }
}
