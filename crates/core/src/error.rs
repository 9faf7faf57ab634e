//! Error type for the multi-model join engine.

use std::fmt;

/// Errors raised by the XJoin / baseline engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An error from the relational substrate.
    Relational(relational::RelError),
    /// An error from twig handling.
    Twig(xmldb::TwigError),
    /// An error from bound computation.
    Agm(agm::AgmError),
    /// The query references no atoms at all.
    EmptyQuery,
    /// A named relation was not found in the database.
    UnknownRelation(String),
    /// The configured variable order is unusable.
    BadOrder(String),
    /// An output attribute references no variable of the query. Raised at
    /// resolve/prepare time, before any trie is built.
    UnknownAttribute(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Relational(e) => write!(f, "relational: {e}"),
            CoreError::Twig(e) => write!(f, "twig: {e}"),
            CoreError::Agm(e) => write!(f, "agm: {e}"),
            CoreError::EmptyQuery => write!(f, "query has neither relations nor twigs"),
            CoreError::UnknownRelation(n) => write!(f, "unknown relation `{n}`"),
            CoreError::BadOrder(m) => write!(f, "bad variable order: {m}"),
            CoreError::UnknownAttribute(a) => {
                write!(f, "output attribute `{a}` is not a variable of the query")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<relational::RelError> for CoreError {
    fn from(e: relational::RelError) -> Self {
        CoreError::Relational(e)
    }
}

impl From<xmldb::TwigError> for CoreError {
    fn from(e: xmldb::TwigError) -> Self {
        CoreError::Twig(e)
    }
}

impl From<agm::AgmError> for CoreError {
    fn from(e: agm::AgmError) -> Self {
        CoreError::Agm(e)
    }
}

/// Result alias for the core engine.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = relational::RelError::EmptyQuery.into();
        assert!(e.to_string().contains("relational"));
        let e: CoreError = agm::AgmError::Empty.into();
        assert!(e.to_string().contains("agm"));
        let e = CoreError::UnknownRelation("R9".into());
        assert!(e.to_string().contains("R9"));
        let e = CoreError::BadOrder("missing x".into());
        assert!(e.to_string().contains("missing x"));
        let e = CoreError::UnknownAttribute("zz".into());
        assert!(e.to_string().contains("zz"));
        assert!(!CoreError::EmptyQuery.to_string().is_empty());
    }
}
