//! Error type for the dataflow substrate.

use std::fmt;

/// Errors raised by the dataflow substrate.
#[derive(Debug)]
pub enum DataflowError {
    /// A row's arity or a value's type did not match the schema.
    SchemaMismatch(String),
    /// A named column does not exist.
    UnknownColumn(String),
    /// Malformed input while parsing CSV.
    Csv(String),
    /// Malformed bytes while decoding the binary format.
    Codec(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A user-defined function failed.
    Udf(String),
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            DataflowError::UnknownColumn(name) => write!(f, "unknown column: {name}"),
            DataflowError::Csv(msg) => write!(f, "csv error: {msg}"),
            DataflowError::Codec(msg) => write!(f, "codec error: {msg}"),
            DataflowError::Io(err) => write!(f, "io error: {err}"),
            DataflowError::Udf(msg) => write!(f, "udf error: {msg}"),
        }
    }
}

impl std::error::Error for DataflowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataflowError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DataflowError {
    fn from(err: std::io::Error) -> Self {
        DataflowError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let err = DataflowError::UnknownColumn("age".into());
        assert_eq!(err.to_string(), "unknown column: age");
        let err = DataflowError::Csv("unterminated quote".into());
        assert!(err.to_string().contains("unterminated quote"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err: DataflowError = io.into();
        assert!(std::error::Error::source(&err).is_some());
    }
}
