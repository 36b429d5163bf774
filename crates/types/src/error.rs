//! Error type shared across the workspace's substrate layer.

use std::fmt;

/// Convenience alias for results produced by the substrate layer.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised while constructing or validating stream data.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A field name was not present in the schema.
    UnknownField(String),
    /// A stream index referenced a stream that does not exist in the query.
    UnknownStream {
        /// The out-of-range index.
        index: usize,
        /// Number of streams in the query.
        streams: usize,
    },
    /// A configuration parameter had an invalid value.
    InvalidConfig(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownField(name) => write!(f, "unknown field `{name}`"),
            Error::UnknownStream { index, streams } => {
                write!(
                    f,
                    "stream index {index} out of range (query has {streams} streams)"
                )
            }
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::UnknownField("a1".into());
        assert!(e.to_string().contains("a1"));
        let e = Error::UnknownStream {
            index: 5,
            streams: 3,
        };
        assert!(e.to_string().contains('5'));
        let e = Error::InvalidConfig("gamma out of range".into());
        assert!(e.to_string().contains("gamma"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&Error::UnknownField("f".into()));
    }
}
