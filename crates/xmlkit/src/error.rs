//! Parse errors with source positions.

use std::fmt;

/// A 1-based line/column position in the source text, plus the byte offset.
///
/// Source positions make parse failures actionable ("mismatched close tag at
/// 14:3") and let callers map errors back into editors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Position {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in characters, not bytes).
    pub column: u32,
    /// Byte offset into the source string.
    pub offset: usize,
}

impl Position {
    /// The position of the first character of a document.
    pub fn start() -> Self {
        Position { line: 1, column: 1, offset: 0 }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// An error produced while parsing XML text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub kind: ParseErrorKind,
    /// Where in the source it went wrong.
    pub position: Position,
}

/// The specific failure class of a [`ParseError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended while a construct was still open.
    UnexpectedEof { expected: &'static str },
    /// A character that cannot start or continue the current construct.
    UnexpectedChar { found: char, expected: &'static str },
    /// `</b>` closing an element opened as `<a>`.
    MismatchedCloseTag { open: String, close: String },
    /// A close tag with no matching open tag.
    UnmatchedCloseTag { close: String },
    /// An entity reference that is not predefined or a character reference.
    UnknownEntity { entity: String },
    /// A character reference that does not denote a valid char.
    InvalidCharRef { reference: String },
    /// An attribute name repeated on the same element.
    DuplicateAttribute { name: String },
    /// The document has no root element.
    NoRootElement,
    /// Content found after the root element closed.
    TrailingContent,
    /// Name expected but something else found.
    InvalidName { found: String },
}

impl ParseError {
    pub(crate) fn new(kind: ParseErrorKind, position: Position) -> Self {
        ParseError { kind, position }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at {}: ", self.position)?;
        match &self.kind {
            ParseErrorKind::UnexpectedEof { expected } => {
                write!(f, "unexpected end of input, expected {expected}")
            }
            ParseErrorKind::UnexpectedChar { found, expected } => {
                write!(f, "unexpected character {found:?}, expected {expected}")
            }
            ParseErrorKind::MismatchedCloseTag { open, close } => {
                write!(f, "close tag </{close}> does not match open tag <{open}>")
            }
            ParseErrorKind::UnmatchedCloseTag { close } => {
                write!(f, "close tag </{close}> has no matching open tag")
            }
            ParseErrorKind::UnknownEntity { entity } => {
                write!(f, "unknown entity &{entity};")
            }
            ParseErrorKind::InvalidCharRef { reference } => {
                write!(f, "invalid character reference &#{reference};")
            }
            ParseErrorKind::DuplicateAttribute { name } => {
                write!(f, "duplicate attribute {name:?}")
            }
            ParseErrorKind::NoRootElement => write!(f, "document has no root element"),
            ParseErrorKind::TrailingContent => {
                write!(f, "content after the document root element")
            }
            ParseErrorKind::InvalidName { found } => {
                write!(f, "invalid XML name starting at {found:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_displays_line_colon_column() {
        let p = Position { line: 4, column: 17, offset: 99 };
        assert_eq!(p.to_string(), "4:17");
    }

    #[test]
    fn error_display_mentions_position_and_kind() {
        let e = ParseError::new(
            ParseErrorKind::MismatchedCloseTag { open: "a".into(), close: "b".into() },
            Position { line: 2, column: 5, offset: 10 },
        );
        let msg = e.to_string();
        assert!(msg.contains("2:5"), "{msg}");
        assert!(msg.contains("</b>"), "{msg}");
        assert!(msg.contains("<a>"), "{msg}");
    }

    #[test]
    fn start_position_is_one_one() {
        assert_eq!(Position::start(), Position { line: 1, column: 1, offset: 0 });
    }
}
