//! A small textual query language producing query graphs.
//!
//! The surface syntax follows the paper's §2.3 examples (ESQL/O2Query
//! flavoured):
//!
//! ```text
//! view Influencer as
//!   select [master: x.master, disciple: x, gen: 1]
//!   from x in Composer
//!   where x.master <> null
//!   union
//!   select [master: i.master, disciple: x, gen: i.gen + 1]
//!   from i in Influencer, x in Composer
//!   where i.disciple = x.master;
//!
//! select [name: i.disciple.name]
//! from i in Influencer
//! where i.master.works.instruments.name = "harpsichord" and i.gen >= 6
//! ```
//!
//! [`parse_query`] returns the final query as a [`QueryGraph`] (its
//! answer is the derived name `Answer`) with every view it references
//! expanded into the graph.
//!
//! Every query the workspace runs is written this way, and the parser is
//! the one place outside Figure 2 that assembles a graph from its parts.
//! An expression nests at most `MAX_NESTING` levels deep, counting each
//! parenthesis, `not(` and chained `and`, `or` or `+`, so a text can
//! recurse neither the parser nor a later pass over its `Expr` off its
//! thread's stack.

use std::fmt;

use oorq_schema::{Catalog, ViewKind};

use crate::expr::{CmpOp, Expr, Literal};
use crate::graph::{NameRef, QArc, QueryGraph, SpjNode, ViewRegistry};

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// The result of parsing a program: the query graph (unexpanded) plus
/// the view definitions it may reference.
#[derive(Debug, Clone)]
pub(crate) struct ParsedProgram {
    /// The final query, answer name `Answer`.
    pub(crate) graph: QueryGraph,
    /// Registered view definitions.
    pub(crate) views: ViewRegistry,
}

/// Parse a program and expand its views into the graph.
pub fn parse_query(catalog: &Catalog, src: &str) -> Result<QueryGraph, ParseError> {
    let ParsedProgram { mut graph, views } = parse_program(catalog, src)?;
    views.expand(&mut graph, catalog).map_err(|e| ParseError {
        line: 0,
        col: 0,
        message: e.to_string(),
    })?;
    Ok(graph)
}

/// Parse a program without expanding views.
pub(crate) fn parse_program(catalog: &Catalog, src: &str) -> Result<ParsedProgram, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        catalog,
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut views = ViewRegistry::new();
    loop {
        if p.peek_kw("view") {
            let (rel, defs) = p.view_def()?;
            views.define(rel, defs);
            continue;
        }
        break;
    }
    let selects = p.selects()?;
    p.expect_eof()?;
    let mut graph = QueryGraph::new(NameRef::Derived("Answer".into()));
    for spj in selects {
        graph.add_spj(NameRef::Derived("Answer".into()), spj);
    }
    Ok(ParsedProgram { graph, views })
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Sym(&'static str),
    Eof,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

fn lex(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut col = 1usize;
    let mut chars = src.chars().peekable();
    let err = |line: usize, col: usize, m: String| ParseError {
        line,
        col,
        message: m,
    };
    while let Some(&c) = chars.peek() {
        let (tl, tc) = (line, col);
        let bump = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
                    line: &mut usize,
                    col: &mut usize| {
            let c = chars.next();
            if c == Some('\n') {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
            c
        };
        match c {
            c if c.is_whitespace() => {
                bump(&mut chars, &mut line, &mut col);
            }
            '-' => {
                // Comment `-- ...` to end of line, or a negative number.
                bump(&mut chars, &mut line, &mut col);
                if chars.peek() == Some(&'-') {
                    for c in chars.by_ref() {
                        if c == '\n' {
                            break;
                        }
                    }
                    line += 1;
                    col = 1;
                } else if chars.peek().map(|c| c.is_ascii_digit()).unwrap_or(false) {
                    let n = lex_number(&mut chars, &mut col, true, tl, tc)?;
                    out.push(Spanned {
                        tok: n,
                        line: tl,
                        col: tc,
                    });
                } else {
                    return Err(err(tl, tc, "unexpected `-`".into()));
                }
            }
            c if c.is_ascii_digit() => {
                let n = lex_number(&mut chars, &mut col, false, tl, tc)?;
                out.push(Spanned {
                    tok: n,
                    line: tl,
                    col: tc,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        s.push(c);
                        bump(&mut chars, &mut line, &mut col);
                    } else {
                        break;
                    }
                }
                out.push(Spanned {
                    tok: Tok::Ident(s),
                    line: tl,
                    col: tc,
                });
            }
            '"' => {
                bump(&mut chars, &mut line, &mut col);
                let mut s = String::new();
                let mut closed = false;
                while let Some(c) = bump(&mut chars, &mut line, &mut col) {
                    if c == '"' {
                        closed = true;
                        break;
                    }
                    s.push(c);
                }
                if !closed {
                    return Err(err(tl, tc, "unterminated string".into()));
                }
                out.push(Spanned {
                    tok: Tok::Str(s),
                    line: tl,
                    col: tc,
                });
            }
            '<' => {
                bump(&mut chars, &mut line, &mut col);
                let sym = match chars.peek() {
                    Some('>') => {
                        bump(&mut chars, &mut line, &mut col);
                        "<>"
                    }
                    Some('=') => {
                        bump(&mut chars, &mut line, &mut col);
                        "<="
                    }
                    _ => "<",
                };
                out.push(Spanned {
                    tok: Tok::Sym(sym),
                    line: tl,
                    col: tc,
                });
            }
            '>' => {
                bump(&mut chars, &mut line, &mut col);
                let sym = if chars.peek() == Some(&'=') {
                    bump(&mut chars, &mut line, &mut col);
                    ">="
                } else {
                    ">"
                };
                out.push(Spanned {
                    tok: Tok::Sym(sym),
                    line: tl,
                    col: tc,
                });
            }
            '=' | '[' | ']' | '(' | ')' | ',' | ':' | '.' | '+' | ';' => {
                bump(&mut chars, &mut line, &mut col);
                let sym: &'static str = match c {
                    '=' => "=",
                    '[' => "[",
                    ']' => "]",
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    ':' => ":",
                    '.' => ".",
                    '+' => "+",
                    ';' => ";",
                    _ => unreachable!(),
                };
                out.push(Spanned {
                    tok: Tok::Sym(sym),
                    line: tl,
                    col: tc,
                });
            }
            other => return Err(err(tl, tc, format!("unexpected character `{other}`"))),
        }
    }
    out.push(Spanned {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(out)
}

fn lex_number(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    col: &mut usize,
    negative: bool,
    line: usize,
    start_col: usize,
) -> Result<Tok, ParseError> {
    let mut s = String::new();
    if negative {
        s.push('-');
    }
    let mut is_float = false;
    while let Some(&c) = chars.peek() {
        if c.is_ascii_digit() {
            s.push(c);
            chars.next();
            *col += 1;
        } else if c == '.' {
            // A digit must follow for this to be a float (else it is a
            // path dot — but numbers never start paths, so accept).
            let mut clone = chars.clone();
            clone.next();
            if clone.peek().map(|c| c.is_ascii_digit()).unwrap_or(false) {
                is_float = true;
                s.push('.');
                chars.next();
                *col += 1;
            } else {
                break;
            }
        } else {
            break;
        }
    }
    if is_float {
        s.parse::<f64>().map(Tok::Float).map_err(|_| ParseError {
            line,
            col: start_col,
            message: "bad float".into(),
        })
    } else {
        s.parse::<i64>().map(Tok::Int).map_err(|_| ParseError {
            line,
            col: start_col,
            message: "bad integer".into(),
        })
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Deepest nesting an expression may have. A `(` or `not(` is one level
/// and one recursion of the parser. Each operator of an `or`, `and` or
/// `+` chain is one level too: the parser loops over a chain but builds
/// it left-deep, so a chain of N operators is an `Expr` N deep, which
/// later passes (derived `Debug`, normalization, drop) recurse down. A
/// thread's stack bounds both recursions: a text nested past this is
/// refused, not parsed into an abort.
const MAX_NESTING: usize = 256;

/// A parsed expression and the chain operators on its deepest path (its
/// levels below the current token; see [`MAX_NESTING`]).
type Nested = Result<(Expr, usize), ParseError>;

struct Parser<'a> {
    catalog: &'a Catalog,
    tokens: Vec<Spanned>,
    pos: usize,
    /// Levels open around the current token: parentheses, and the
    /// operators of the chains whose right operand it is in.
    depth: usize,
}

impl Parser<'_> {
    fn cur(&self) -> &Spanned {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn error(&self, m: impl Into<String>) -> ParseError {
        let c = self.cur();
        ParseError {
            line: c.line,
            col: c.col,
            message: m.into(),
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(&self.cur().tok, Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`")))
        }
    }

    fn peek_sym(&self, sym: &str) -> bool {
        matches!(&self.cur().tok, Tok::Sym(s) if *s == sym)
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if self.peek_sym(sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), ParseError> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{sym}`")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match &self.cur().tok {
            Tok::Ident(s) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error("expected identifier")),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        // Allow a trailing semicolon.
        self.eat_sym(";");
        if matches!(self.cur().tok, Tok::Eof) {
            Ok(())
        } else {
            Err(self.error("expected end of input"))
        }
    }

    /// `view NAME as <selects> ;`
    fn view_def(&mut self) -> Result<(oorq_schema::RelationId, Vec<SpjNode>), ParseError> {
        self.expect_kw("view")?;
        let name = self.ident()?;
        let rel = self
            .catalog
            .relation_by_name(&name)
            .filter(|r| self.catalog.relation(*r).kind == ViewKind::View)
            .ok_or_else(|| self.error(format!("`{name}` is not a declared view of the schema")))?;
        self.expect_kw("as")?;
        let defs = self.selects()?;
        self.expect_sym(";")?;
        Ok((rel, defs))
    }

    /// `select ... (union select ...)*`
    fn selects(&mut self) -> Result<Vec<SpjNode>, ParseError> {
        let mut out = vec![self.select()?];
        while self.eat_kw("union") {
            out.push(self.select()?);
        }
        Ok(out)
    }

    /// `select [f: e, ...] from v in Name, ... (where expr)?`
    fn select(&mut self) -> Result<SpjNode, ParseError> {
        self.expect_kw("select")?;
        self.expect_sym("[")?;
        let mut out_proj = Vec::new();
        loop {
            let field = self.ident()?;
            self.expect_sym(":")?;
            let e = self.expr()?;
            out_proj.push((field, e));
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym("]")?;
        self.expect_kw("from")?;
        let mut inputs = Vec::new();
        loop {
            let var = self.ident()?;
            self.expect_kw("in")?;
            let name = self.ident()?;
            let name_ref = if let Some(c) = self.catalog.class_by_name(&name) {
                NameRef::Class(c)
            } else if let Some(r) = self.catalog.relation_by_name(&name) {
                NameRef::Relation(r)
            } else {
                return Err(self.error(format!("unknown class or relation `{name}`")));
            };
            inputs.push(QArc::new(name_ref, var));
            if !self.eat_sym(",") {
                break;
            }
        }
        let pred = if self.eat_kw("where") {
            self.expr()?
        } else {
            Expr::True
        };
        Ok(SpjNode {
            inputs,
            pred,
            out_proj,
        })
    }

    /// A whole expression; `or` binds loosest.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.disjunction()?.0)
    }

    fn disjunction(&mut self) -> Nested {
        self.chain(|p| p.peek_kw("or"), Self::conjunction, Expr::or)
    }

    fn conjunction(&mut self) -> Nested {
        self.chain(|p| p.peek_kw("and"), Self::comparison, Expr::and)
    }

    fn sum(&mut self) -> Nested {
        self.chain(|p| p.peek_sym("+"), Self::primary, Expr::add)
    }

    /// `operand (op operand)*`, joined left-deep. Each operator puts the
    /// chain one level deeper and its right operand one level below the
    /// chain; the operator that would pass [`MAX_NESTING`] is refused
    /// before anything deeper is built.
    fn chain(
        &mut self,
        op: fn(&Self) -> bool,
        operand: fn(&mut Self) -> Nested,
        join: fn(Expr, Expr) -> Expr,
    ) -> Nested {
        let (mut e, mut levels) = operand(self)?;
        while op(self) {
            self.nest(levels)?;
            self.pos += 1;
            self.depth += 1;
            let (r, r_levels) = operand(self)?;
            self.depth -= 1;
            levels = levels.max(r_levels) + 1;
            e = join(e, r);
        }
        Ok((e, levels))
    }

    /// Refuse the current token when it would open a level past
    /// [`MAX_NESTING`] on top of `levels` already below it.
    fn nest(&self, levels: usize) -> Result<(), ParseError> {
        if self.depth + levels >= MAX_NESTING {
            return Err(self.error("expression nested too deeply"));
        }
        Ok(())
    }

    /// `( expr )`, one nesting level deeper than the current token.
    fn parenthesized(&mut self) -> Nested {
        self.nest(0)?;
        self.expect_sym("(")?;
        self.depth += 1;
        let e = self.disjunction()?;
        self.depth -= 1;
        self.expect_sym(")")?;
        Ok(e)
    }

    fn comparison(&mut self) -> Nested {
        if self.eat_kw("not") {
            let (e, levels) = self.parenthesized()?;
            return Ok((Expr::Not(Box::new(e)), levels));
        }
        let (lhs, l_levels) = self.sum()?;
        let op = if self.eat_sym("=") {
            Some(CmpOp::Eq)
        } else if self.eat_sym("<>") {
            Some(CmpOp::Ne)
        } else if self.eat_sym("<=") {
            Some(CmpOp::Le)
        } else if self.eat_sym(">=") {
            Some(CmpOp::Ge)
        } else if self.eat_sym("<") {
            Some(CmpOp::Lt)
        } else if self.eat_sym(">") {
            Some(CmpOp::Gt)
        } else {
            None
        };
        match op {
            None => Ok((lhs, l_levels)),
            Some(op) => {
                let (rhs, r_levels) = self.sum()?;
                let cmp = Expr::Cmp {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                };
                Ok((cmp, l_levels.max(r_levels)))
            }
        }
    }

    fn primary(&mut self) -> Nested {
        let leaf = match self.cur().tok.clone() {
            Tok::Int(i) => {
                self.pos += 1;
                Expr::Lit(Literal::Int(i))
            }
            Tok::Float(x) => {
                self.pos += 1;
                Expr::Lit(Literal::Float(x))
            }
            Tok::Str(s) => {
                self.pos += 1;
                Expr::Lit(Literal::Text(s))
            }
            Tok::Sym("(") => return self.parenthesized(),
            Tok::Ident(id) if id.eq_ignore_ascii_case("null") => {
                self.pos += 1;
                Expr::Lit(Literal::Null)
            }
            Tok::Ident(id) if id.eq_ignore_ascii_case("true") => {
                self.pos += 1;
                Expr::Lit(Literal::Bool(true))
            }
            Tok::Ident(id) if id.eq_ignore_ascii_case("false") => {
                self.pos += 1;
                Expr::Lit(Literal::Bool(false))
            }
            Tok::Ident(id) => {
                self.pos += 1;
                let mut steps = Vec::new();
                while self.eat_sym(".") {
                    steps.push(self.ident()?);
                }
                if steps.is_empty() {
                    Expr::Var(id)
                } else {
                    Expr::Path { base: id, steps }
                }
            }
            _ => return Err(self.error("expected expression")),
        };
        Ok((leaf, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{fig3, music_catalog, INFLUENCER_VIEW};

    #[test]
    fn parses_the_fig3_program() {
        let cat = music_catalog();
        let q = parse_query(&cat, &fig3("harpsichord", 6)).unwrap();
        assert_eq!(q.nodes.len(), 3, "P3 + expanded P1, P2");
        let influencer = cat.relation_by_name("Influencer").unwrap();
        assert_eq!(q.producers(&NameRef::Relation(influencer)).len(), 2);
    }

    #[test]
    fn parses_fig2_style_query() {
        let cat = music_catalog();
        let q = parse_query(
            &cat,
            r#"select [title: w.title]
               from c in Composer
               where c.name = "Bach" and c.works.instruments.name = "harpsichord"
                 and c.works.instruments.name = "flute" and c.works.title = w.title"#,
        );
        // `w` is unbound — expect a validation error at normalize time,
        // but the parse itself must succeed.
        assert!(q.is_ok());
    }

    #[test]
    fn comments_whitespace_and_semicolons() {
        let cat = music_catalog();
        let q = parse_query(
            &cat,
            "-- all composers\nselect [n: x.name] from x in Composer;",
        )
        .unwrap();
        assert_eq!(q.nodes.len(), 1);
    }

    #[test]
    fn operators_and_literals() {
        let cat = music_catalog();
        let q = parse_query(
            &cat,
            r#"select [n: x.name, b: x.birth_year]
               from x in Composer
               where (x.birth_year >= 1650 and x.birth_year < 1700)
                  or x.name <> "Bach" or x.birth_year = -1
                  or not(x.birth_year <= 10) and x.name > "A""#,
        )
        .unwrap();
        let s = q.display(&cat).to_string();
        assert!(s.contains("x.birth_year>=1650"), "{s}");
        assert!(s.contains("-1"), "{s}");
    }

    #[test]
    fn float_and_bool_literals() {
        let cat = music_catalog();
        let q = parse_query(
            &cat,
            "select [n: x.name] from x in Composer where x.birth_year >= 1650.5 and true = true",
        )
        .unwrap();
        assert!(q.display(&cat).to_string().contains("1650.5"));
    }

    #[test]
    fn error_positions_are_reported() {
        let cat = music_catalog();
        let err = parse_query(&cat, "select [n: x.name] frum x in Composer").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("from"), "{err}");
        let err = parse_query(&cat, "select [n: x.name]\nfrom x in Nope").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("Nope"));
        let err = parse_query(&cat, "select [n: @]").unwrap_err();
        assert!(err.message.contains("unexpected character"));
        let err = parse_query(&cat, "select [n: \"oops]").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn view_must_be_declared_in_schema() {
        let cat = music_catalog();
        let err = parse_query(
            &cat,
            "view Nonsense as select [a: x.name] from x in Composer;
             select [a: x.name] from x in Composer",
        )
        .unwrap_err();
        assert!(err.message.contains("not a declared view"), "{err}");
    }

    #[test]
    fn missing_view_definition_is_reported_at_expansion() {
        let cat = music_catalog();
        let err = parse_query(&cat, "select [g: i.gen] from i in Influencer").unwrap_err();
        assert!(err.message.contains("Influencer"), "{err}");
    }

    #[test]
    fn parsed_views_round_trip_through_the_optimizer_pipeline_inputs() {
        // The §4.5 query: a view joined with a class, normalized.
        let cat = music_catalog();
        let src = format!(
            "{INFLUENCER_VIEW}
             select [name: i.disciple.name]
             from i in Influencer, c in Composer
             where i.master = c.master and c.name = \"Bach\""
        );
        let mut q = parse_query(&cat, &src).unwrap();
        assert_eq!(q.nodes.len(), 3, "the join + expanded P1, P2");
        q.normalize(&cat).unwrap();
    }

    #[test]
    fn nesting_is_bounded_at_the_offending_parenthesis() {
        let cat = music_catalog();
        let nested = |open: &str, depth: usize| {
            format!(
                "select [n: x.name] from x in Composer where {}x.name = \"Bach\"{}",
                open.repeat(depth),
                ")".repeat(depth)
            )
        };
        for open in ["(", "not("] {
            parse_query(&cat, &nested(open, MAX_NESTING)).unwrap();
            let err = parse_query(&cat, &nested(open, MAX_NESTING + 1)).unwrap_err();
            assert_eq!(err.message, "expression nested too deeply");
            let at =
                "select [n: x.name] from x in Composer where ".len() + open.len() * MAX_NESTING;
            assert_eq!((err.line, err.col), (1, at + open.len()), "{open}");
        }
    }

    /// A chain of `MAX_NESTING` operators parses and one more operator
    /// is refused where it stands; a parenthesized chain's operators
    /// count toward the chain it is an operand of.
    #[test]
    fn chains_are_bounded_at_the_offending_operator() {
        let cat = music_catalog();
        let prefix = "select [n: x.name] from x in Composer where ";
        for (first, term) in [
            ("x.birth_year", " + 1"),
            ("x.name = \"Bach\"", " and x.name = \"Bach\""),
            ("x.name = \"Bach\"", " or x.name = \"Bach\""),
        ] {
            let chain = |terms: usize| format!("{prefix}{first}{}", term.repeat(terms));
            parse_query(&cat, &chain(MAX_NESTING)).unwrap();
            let err = parse_query(&cat, &chain(MAX_NESTING + 1)).unwrap_err();
            assert_eq!(err.message, "expression nested too deeply");
            let at = prefix.len() + first.len() + term.len() * MAX_NESTING;
            assert_eq!((err.line, err.col), (1, at + 2), "{term}");
        }
        let split = |inner: usize, outer: usize| {
            format!(
                "{prefix}(x.birth_year{}){}",
                " + 1".repeat(inner),
                " + 1".repeat(outer)
            )
        };
        parse_query(&cat, &split(200, MAX_NESTING - 200)).unwrap();
        let err = parse_query(&cat, &split(200, MAX_NESTING - 199)).unwrap_err();
        assert_eq!(err.message, "expression nested too deeply");
    }
}
