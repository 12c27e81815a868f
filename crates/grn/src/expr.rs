//! Boolean rule expressions.
//!
//! Rules are written over gene *indices*; the [`BooleanNetwork`] builder
//! resolves gene names to indices when parsing rule text. Grammar (loosest
//! binding first):
//!
//! ```text
//! expr   := term ('|' term)*
//! term   := factor ('&' factor)*
//! factor := '!' factor | '(' expr ')' | ident | 'true' | 'false'
//! ```
//!
//! [`BooleanNetwork`]: crate::BooleanNetwork

use std::error::Error;
use std::fmt;

/// A Boolean expression over gene indices.
///
/// ```
/// use mns_grn::Expr;
/// // a & !b
/// let e = Expr::and(Expr::var(0), Expr::not(Expr::var(1)));
/// assert!(e.eval(&|g| g == 0));
/// assert!(!e.eval(&|g| true));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Constant truth value.
    Const(bool),
    /// The current value of gene `i`.
    Var(usize),
    /// Negation.
    Not(Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// The variable for gene `i`.
    pub fn var(i: usize) -> Expr {
        Expr::Var(i)
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Expr {
        Expr::Not(Box::new(e))
    }

    /// Conjunction.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// Disjunction.
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Or(Box::new(a), Box::new(b))
    }

    /// Conjunction of an iterator of expressions (true when empty).
    pub fn and_all<I: IntoIterator<Item = Expr>>(items: I) -> Expr {
        items
            .into_iter()
            .reduce(Expr::and)
            .unwrap_or(Expr::Const(true))
    }

    /// Disjunction of an iterator of expressions (false when empty).
    pub fn or_all<I: IntoIterator<Item = Expr>>(items: I) -> Expr {
        items
            .into_iter()
            .reduce(Expr::or)
            .unwrap_or(Expr::Const(false))
    }

    /// Evaluates under a valuation of gene indices.
    pub fn eval(&self, valuation: &dyn Fn(usize) -> bool) -> bool {
        match self {
            Expr::Const(b) => *b,
            Expr::Var(i) => valuation(*i),
            Expr::Not(e) => !e.eval(valuation),
            Expr::And(a, b) => a.eval(valuation) && b.eval(valuation),
            Expr::Or(a, b) => a.eval(valuation) || b.eval(valuation),
        }
    }

    /// Evaluates against a packed state word (bit `i` = gene `i`).
    pub fn eval_bits(&self, state: u64) -> bool {
        match self {
            Expr::Const(b) => *b,
            Expr::Var(i) => state >> i & 1 == 1,
            Expr::Not(e) => !e.eval_bits(state),
            Expr::And(a, b) => a.eval_bits(state) && b.eval_bits(state),
            Expr::Or(a, b) => a.eval_bits(state) || b.eval_bits(state),
        }
    }

    /// Parses rule text, resolving identifiers through `resolve`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseExprError`] on syntax errors or unknown identifiers.
    pub fn parse(
        text: &str,
        resolve: &dyn Fn(&str) -> Option<usize>,
    ) -> Result<Expr, ParseExprError> {
        let tokens = tokenize(text)?;
        let mut parser = Parser {
            tokens: &tokens,
            pos: 0,
            resolve,
        };
        let e = parser.expr()?;
        if parser.pos != tokens.len() {
            return Err(ParseExprError::new(format!(
                "unexpected trailing input at token {}",
                parser.pos
            )));
        }
        Ok(e)
    }
}

/// Error parsing a rule expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExprError {
    message: String,
}

impl ParseExprError {
    fn new(message: String) -> Self {
        ParseExprError { message }
    }
}

impl fmt::Display for ParseExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rule expression: {}", self.message)
    }
}

impl Error for ParseExprError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    Not,
    And,
    Or,
    LParen,
    RParen,
    True,
    False,
}

fn tokenize(text: &str) -> Result<Vec<Token>, ParseExprError> {
    let mut tokens = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                chars.next();
            }
            '!' | '~' => {
                chars.next();
                tokens.push(Token::Not);
            }
            '&' => {
                chars.next();
                if chars.peek() == Some(&'&') {
                    chars.next();
                }
                tokens.push(Token::And);
            }
            '|' => {
                chars.next();
                if chars.peek() == Some(&'|') {
                    chars.next();
                }
                tokens.push(Token::Or);
            }
            '(' => {
                chars.next();
                tokens.push(Token::LParen);
            }
            ')' => {
                chars.next();
                tokens.push(Token::RParen);
            }
            c if c.is_alphanumeric() || c == '_' || c == '-' => {
                let mut ident = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '-' {
                        ident.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                match ident.as_str() {
                    "true" | "TRUE" | "1" => tokens.push(Token::True),
                    "false" | "FALSE" | "0" => tokens.push(Token::False),
                    _ => tokens.push(Token::Ident(ident)),
                }
            }
            other => {
                return Err(ParseExprError::new(format!(
                    "unexpected character '{other}'"
                )));
            }
        }
    }
    Ok(tokens)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    resolve: &'a dyn Fn(&str) -> Option<usize>,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn expr(&mut self) -> Result<Expr, ParseExprError> {
        let mut acc = self.term()?;
        while self.peek() == Some(&Token::Or) {
            self.pos += 1;
            let rhs = self.term()?;
            acc = Expr::or(acc, rhs);
        }
        Ok(acc)
    }

    fn term(&mut self) -> Result<Expr, ParseExprError> {
        let mut acc = self.factor()?;
        while self.peek() == Some(&Token::And) {
            self.pos += 1;
            let rhs = self.factor()?;
            acc = Expr::and(acc, rhs);
        }
        Ok(acc)
    }

    fn factor(&mut self) -> Result<Expr, ParseExprError> {
        match self.peek() {
            Some(Token::Not) => {
                self.pos += 1;
                Ok(Expr::not(self.factor()?))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                if self.peek() != Some(&Token::RParen) {
                    return Err(ParseExprError::new("missing closing parenthesis".into()));
                }
                self.pos += 1;
                Ok(e)
            }
            Some(Token::True) => {
                self.pos += 1;
                Ok(Expr::Const(true))
            }
            Some(Token::False) => {
                self.pos += 1;
                Ok(Expr::Const(false))
            }
            Some(Token::Ident(name)) => {
                let name = name.clone();
                self.pos += 1;
                match (self.resolve)(&name) {
                    Some(i) => Ok(Expr::Var(i)),
                    None => Err(ParseExprError::new(format!("unknown gene '{name}'"))),
                }
            }
            other => Err(ParseExprError::new(format!(
                "expected a factor, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
impl Expr {
    /// Collects the set of gene indices this expression mentions,
    /// ascending and deduplicated.
    pub(crate) fn support(&self) -> Vec<usize> {
        let mut set = std::collections::BTreeSet::new();
        self.collect_support(&mut set);
        set.into_iter().collect()
    }

    fn collect_support(&self, out: &mut std::collections::BTreeSet<usize>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(i) => {
                out.insert(*i);
            }
            Expr::Not(e) => e.collect_support(out),
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_support(out);
                b.collect_support(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(name: &str) -> Option<usize> {
        match name {
            "a" => Some(0),
            "b" => Some(1),
            "c" => Some(2),
            _ => None,
        }
    }

    #[test]
    fn parse_precedence_and_eval() {
        let e = Expr::parse("a | b & !c", &resolve).expect("parses");
        // (a) | (b & !c): precedence binds & tighter than |.
        assert!(e.eval_bits(0b001)); // a
        assert!(e.eval_bits(0b010)); // b, !c
        assert!(!e.eval_bits(0b110)); // b & c → false
        assert!(e.eval_bits(0b101)); // a wins regardless of c
    }

    #[test]
    fn parse_parens_and_double_operators() {
        let e = Expr::parse("(a || b) && c", &resolve).expect("parses");
        assert!(e.eval_bits(0b101));
        assert!(!e.eval_bits(0b001));
    }

    #[test]
    fn parse_constants() {
        assert_eq!(Expr::parse("true", &resolve).unwrap(), Expr::Const(true));
        assert_eq!(Expr::parse("0", &resolve).unwrap(), Expr::Const(false));
    }

    #[test]
    fn parse_errors() {
        assert!(Expr::parse("a &", &resolve).is_err());
        assert!(Expr::parse("(a", &resolve).is_err());
        assert!(Expr::parse("unknown_gene", &resolve).is_err());
        assert!(Expr::parse("a ? b", &resolve).is_err());
        assert!(Expr::parse("a b", &resolve).is_err());
    }

    #[test]
    fn and_all_or_all_empty_identities() {
        assert_eq!(Expr::and_all([]), Expr::Const(true));
        assert_eq!(Expr::or_all([]), Expr::Const(false));
    }
}
