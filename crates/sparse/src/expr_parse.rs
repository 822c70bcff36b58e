//! Parser for Kronecker **expression programs** — the `--expr` surface of
//! `bikron serve`.
//!
//! [`MatExpr`](crate::MatExpr) models general matrix expressions but is a
//! programmatic API: nothing in the workspace could *parse* one, and its
//! errors ([`SparseError`](crate::SparseError)) carry no source position.
//! This module closes that gap for the subset the serving layer can answer
//! with closed-form ground truth: **pure Kronecker chains** of named
//! factors, each optionally lifted by the identity (`A + I`, the paper's
//! §IV self-loop construction).
//!
//! # Grammar
//!
//! ```text
//! expr   := term (("⊗" | "kron") term)*
//! term   := atom power?
//! power  := "^" ("{" "⊗"? INT "}" | "⊗"? INT)
//! atom   := NAME | "(" expr ")" | "(" NAME "+" "I" ")"
//! NAME   := [A-Za-z_][A-Za-z0-9_]*   (except the keywords "kron" and "I")
//! ```
//!
//! `⊗` and `kron` are interchangeable spellings of the Kronecker product;
//! `A^{⊗3}`, `A^⊗3` and `A^3` all denote the 3-fold power tower
//! `A⊗A⊗A` (powers distribute over parenthesised sub-chains, so
//! `(A⊗B)^2` is `A⊗B⊗A⊗B`). `+ I` binds to a single named factor only —
//! `(A⊗B + I)` is rejected because the sum of a chain and the identity is
//! no longer a Kronecker chain and has no compositional ground truth.
//!
//! Parsing **flattens** the expression to an ordered list of
//! [`ChainLevel`]s; semantic validation (name binding, loop-freeness,
//! product size) belongs to the consumer that owns the factor graphs.
//!
//! # Errors
//!
//! Every error is an [`ExprParseError`] carrying a 1-based **character
//! column** (so the multi-byte `⊗` still counts as one column), the
//! offending token, and a message. The CLI points at the failing column
//! verbatim.

use std::fmt;

/// One level of a flattened Kronecker chain: a named factor, optionally
/// lifted by the identity (`(NAME + I)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLevel {
    /// The factor name as written (binding to a graph happens later).
    pub name: String,
    /// Whether this level is `NAME + I` rather than bare `NAME`.
    pub plus_identity: bool,
}

/// A parsed, flattened Kronecker expression: `levels[0] ⊗ levels[1] ⊗ …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExprChain {
    /// The factor chain, outermost (most significant index digit) first.
    pub levels: Vec<ChainLevel>,
}

impl ExprChain {
    /// The canonicalised spelling: power towers expanded, one `⊗` between
    /// levels, identity lifts written `(NAME+I)`. Two expressions denote
    /// the same program iff their canonical strings are equal, which is
    /// why `/v1/stats` and snapshots report this form.
    pub fn canonical(&self) -> String {
        let parts: Vec<String> = self
            .levels
            .iter()
            .map(|l| {
                if l.plus_identity {
                    format!("({}+I)", l.name)
                } else {
                    l.name.clone()
                }
            })
            .collect();
        parts.join("⊗")
    }
}

/// Hard cap on the number of flattened levels. Power towers expand at
/// parse time, so this bounds the expansion before any graph is loaded;
/// real products overflow `usize` long before 64 non-trivial factors.
pub const MAX_CHAIN_LEVELS: usize = 64;

/// A positioned parse error: 1-based character column, the offending
/// token (`"end of input"` when the expression ended too early), and what
/// the parser expected instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExprParseError {
    /// 1-based column of the offending token, counted in characters.
    pub column: usize,
    /// The offending lexeme, or `"end of input"`.
    pub token: String,
    /// What went wrong / what was expected.
    pub message: String,
}

impl fmt::Display for ExprParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "column {}: {} (found {})",
            self.column, self.message, self.token
        )
    }
}

impl std::error::Error for ExprParseError {}

/// Parse an expression program into its flattened chain.
///
/// ```
/// use bikron_sparse::parse_expr;
/// let chain = parse_expr("(A+I) ⊗ B kron C").unwrap();
/// assert_eq!(chain.canonical(), "(A+I)⊗B⊗C");
/// let tower = parse_expr("A^{⊗3}").unwrap();
/// assert_eq!(tower.canonical(), "A⊗A⊗A");
/// let err = parse_expr("A ⊗ ⊗ B").unwrap_err();
/// assert_eq!(err.column, 5);
/// ```
pub fn parse_expr(input: &str) -> Result<ExprChain, ExprParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let levels = p.expr()?;
    let tok = p.peek();
    if !matches!(tok.kind, TokKind::Eof) {
        return Err(err_at(
            tok,
            if matches!(tok.kind, TokKind::Plus) {
                "'+' is only valid inside '(NAME + I)'"
            } else {
                "expected '⊗', 'kron' or end of expression"
            },
        ));
    }
    if levels.len() > MAX_CHAIN_LEVELS {
        return Err(ExprParseError {
            column: 1,
            token: input.chars().take(16).collect(),
            message: format!(
                "expression expands to {} levels; the maximum is {MAX_CHAIN_LEVELS}",
                levels.len()
            ),
        });
    }
    Ok(ExprChain { levels })
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum TokKind {
    Name(String),
    Int(u64),
    Kron,   // `⊗` or the keyword `kron`
    Plus,   // `+`
    Ident,  // the keyword `I`
    Caret,  // `^`
    LParen, // `(`
    RParen, // `)`
    LBrace, // `{`
    RBrace, // `}`
    Eof,
}

#[derive(Debug, Clone)]
struct Token {
    kind: TokKind,
    column: usize,
    text: String,
}

fn err_at(tok: &Token, message: impl Into<String>) -> ExprParseError {
    ExprParseError {
        column: tok.column,
        token: if matches!(tok.kind, TokKind::Eof) {
            "end of input".to_string()
        } else {
            format!("'{}'", tok.text)
        },
        message: message.into(),
    }
}

fn tokenize(input: &str) -> Result<Vec<Token>, ExprParseError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let column = i + 1;
        let simple = |kind: TokKind| Token {
            kind,
            column,
            text: c.to_string(),
        };
        match c {
            ' ' | '\t' => {
                i += 1;
                continue;
            }
            '⊗' | '*' => tokens.push(simple(TokKind::Kron)),
            '+' => tokens.push(simple(TokKind::Plus)),
            '^' => tokens.push(simple(TokKind::Caret)),
            '(' => tokens.push(simple(TokKind::LParen)),
            ')' => tokens.push(simple(TokKind::RParen)),
            '{' => tokens.push(simple(TokKind::LBrace)),
            '}' => tokens.push(simple(TokKind::RBrace)),
            '0'..='9' => {
                let start = i;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let value = text.parse::<u64>().map_err(|_| ExprParseError {
                    column,
                    token: format!("'{text}'"),
                    message: "integer is too large".to_string(),
                })?;
                tokens.push(Token {
                    kind: TokKind::Int(value),
                    column,
                    text,
                });
                continue;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let kind = match text.as_str() {
                    "kron" => TokKind::Kron,
                    "I" => TokKind::Ident,
                    _ => TokKind::Name(text.clone()),
                };
                tokens.push(Token { kind, column, text });
                continue;
            }
            other => {
                return Err(ExprParseError {
                    column,
                    token: format!("'{other}'"),
                    message: "unexpected character".to_string(),
                });
            }
        }
        i += 1;
    }
    tokens.push(Token {
        kind: TokKind::Eof,
        column: chars.len() + 1,
        text: String::new(),
    });
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn bump(&mut self) -> Token {
        let tok = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        tok
    }

    /// `expr := term (("⊗" | "kron") term)*`
    fn expr(&mut self) -> Result<Vec<ChainLevel>, ExprParseError> {
        let mut levels = self.term()?;
        while matches!(self.peek().kind, TokKind::Kron) {
            self.bump();
            levels.extend(self.term()?);
        }
        Ok(levels)
    }

    /// `term := atom power?`
    fn term(&mut self) -> Result<Vec<ChainLevel>, ExprParseError> {
        let base = self.atom()?;
        if matches!(self.peek().kind, TokKind::Caret) {
            self.bump();
            let k = self.power_exponent()?;
            let mut levels = Vec::with_capacity(base.len() * k as usize);
            for _ in 0..k {
                levels.extend(base.iter().cloned());
                if levels.len() > MAX_CHAIN_LEVELS {
                    break; // parse_expr reports the overflow with the count
                }
            }
            Ok(levels)
        } else {
            Ok(base)
        }
    }

    /// `power := "^" ("{" "⊗"? INT "}" | "⊗"? INT)` — the `^` is already
    /// consumed; accepts `^{⊗3}`, `^⊗3`, `^{3}` and `^3`.
    fn power_exponent(&mut self) -> Result<u64, ExprParseError> {
        let braced = matches!(self.peek().kind, TokKind::LBrace);
        if braced {
            self.bump();
        }
        if matches!(self.peek().kind, TokKind::Kron) {
            self.bump();
        }
        let tok = self.bump();
        let k = match tok.kind {
            TokKind::Int(k) => k,
            _ => return Err(err_at(&tok, "expected an integer exponent after '^'")),
        };
        if k == 0 {
            return Err(ExprParseError {
                column: tok.column,
                token: format!("'{}'", tok.text),
                message: "power must be at least 1".to_string(),
            });
        }
        if braced {
            let close = self.bump();
            if !matches!(close.kind, TokKind::RBrace) {
                return Err(err_at(&close, "expected '}' to close the exponent"));
            }
        }
        Ok(k)
    }

    /// `atom := NAME | "(" expr ")" | "(" NAME "+" "I" ")"`
    fn atom(&mut self) -> Result<Vec<ChainLevel>, ExprParseError> {
        let tok = self.bump();
        match tok.kind {
            TokKind::Name(name) => Ok(vec![ChainLevel {
                name,
                plus_identity: false,
            }]),
            TokKind::LParen => {
                let open_column = tok.column;
                let inner = self.expr()?;
                let next = self.bump();
                match next.kind {
                    TokKind::RParen => Ok(inner),
                    TokKind::Plus => {
                        if inner.len() != 1 || inner[0].plus_identity {
                            return Err(ExprParseError {
                                column: next.column,
                                token: "'+'".to_string(),
                                message: "'+ I' applies to a single factor name, not a chain"
                                    .to_string(),
                            });
                        }
                        let ident = self.bump();
                        if !matches!(ident.kind, TokKind::Ident) {
                            return Err(err_at(&ident, "expected 'I' after '+'"));
                        }
                        let close = self.bump();
                        if !matches!(close.kind, TokKind::RParen) {
                            return Err(err_at(&close, "expected ')' after '+ I'"));
                        }
                        Ok(vec![ChainLevel {
                            name: inner[0].name.clone(),
                            plus_identity: true,
                        }])
                    }
                    TokKind::Eof => Err(ExprParseError {
                        column: next.column,
                        token: "end of input".to_string(),
                        message: format!("unclosed '(' opened at column {open_column}"),
                    }),
                    _ => Err(err_at(&next, "expected ')'")),
                }
            }
            TokKind::Ident => Err(err_at(
                &tok,
                "'I' is reserved for '(NAME + I)' and cannot stand alone",
            )),
            _ => Err(err_at(&tok, "expected a factor name or '('")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon(s: &str) -> String {
        parse_expr(s).unwrap().canonical()
    }

    fn fail(s: &str) -> ExprParseError {
        parse_expr(s).unwrap_err()
    }

    #[test]
    fn chains_and_spellings() {
        assert_eq!(canon("A⊗B"), "A⊗B");
        assert_eq!(canon("A kron B kron C"), "A⊗B⊗C");
        assert_eq!(canon("(A+I)⊗B⊗C"), "(A+I)⊗B⊗C");
        assert_eq!(canon("( A + I ) kron B"), "(A+I)⊗B");
        assert_eq!(canon("A*B"), "A⊗B");
        assert_eq!(canon("((A))"), "A");
        assert_eq!(canon("(A⊗B)⊗C"), "A⊗B⊗C");
    }

    #[test]
    fn power_towers_expand() {
        assert_eq!(canon("A^{⊗3}"), "A⊗A⊗A");
        assert_eq!(canon("A^⊗3"), "A⊗A⊗A");
        assert_eq!(canon("A^3"), "A⊗A⊗A");
        assert_eq!(canon("A^{2}"), "A⊗A");
        assert_eq!(canon("(A+I)^2⊗B"), "(A+I)⊗(A+I)⊗B");
        assert_eq!(canon("(A⊗B)^2"), "A⊗B⊗A⊗B");
    }

    /// The error matrix: each row is (input, expected column, message
    /// fragment). Columns are 1-based and counted in characters, so the
    /// multi-byte `⊗` advances them by one.
    #[test]
    fn error_matrix_reports_column_and_token() {
        let cases: &[(&str, usize, &str)] = &[
            ("", 1, "expected a factor name"),
            ("⊗A", 1, "expected a factor name"),
            ("A⊗", 3, "expected a factor name"),
            ("A ⊗ ⊗ B", 5, "expected a factor name"),
            ("A B", 3, "expected '⊗'"),
            ("A + I", 3, "'+' is only valid inside"),
            ("(A+B)", 4, "expected 'I' after '+'"),
            ("(A⊗B+I)", 5, "'+ I' applies to a single factor"),
            ("(A", 3, "unclosed '(' opened at column 1"),
            ("A)", 2, "expected '⊗'"),
            ("A^0", 3, "power must be at least 1"),
            ("A^x", 3, "expected an integer exponent"),
            ("A^{3", 5, "expected '}'"),
            ("A^{}", 4, "expected an integer exponent"),
            ("I", 1, "'I' is reserved"),
            ("A $ B", 3, "unexpected character"),
            ("A^99999999999999999999", 3, "integer is too large"),
        ];
        for (input, column, fragment) in cases {
            let err = fail(input);
            assert_eq!(err.column, *column, "column for {input:?}: {err}");
            assert!(
                err.message.contains(fragment),
                "message for {input:?}: {err}"
            );
        }
    }

    #[test]
    fn eof_errors_name_the_missing_piece() {
        let err = fail("A⊗");
        assert_eq!(err.token, "end of input");
        let err = fail("A $");
        assert_eq!(err.token, "'$'");
    }

    #[test]
    fn level_cap_is_enforced() {
        let err = fail("A^{⊗65}");
        assert!(err.message.contains("65 levels"), "{err}");
        assert!(parse_expr("A^{⊗64}").is_ok());
        // Nested powers multiply: (A^8)^8 = 64 levels, ^9 would blow past.
        assert!(parse_expr("(A^8)^8").is_ok());
        assert!(parse_expr("(A^8)^9").is_err());
    }

    #[test]
    fn display_is_single_line() {
        let err = fail("A⊗");
        assert_eq!(
            err.to_string(),
            "column 3: expected a factor name or '(' (found end of input)"
        );
    }
}
