//! One home for every `HELIX_*` environment knob.
//!
//! The engine used to read `std::env::var` at scattered call sites; this
//! module is now the only place core consults the environment, and
//! [`crate::EngineConfig::helix`] folds every engine knob into a config
//! at once. The knob table lives in docs/API.md § "Environment
//! variables".
//!
//! | Variable                | Meaning                                   |
//! |-------------------------|-------------------------------------------|
//! | `HELIX_PARALLELISM`     | Worker threads (≥ 1); default = cores     |
//! | `HELIX_PARTITION_ROWS`  | Rows per operator partition (≥ 1)         |
//! | `HELIX_DURABILITY`      | `volatile` \| `wal` \| `wal-nosync`       |
//! | `HELIX_REPLAN_FACTOR`   | Adaptive re-plan divergence factor (≥ 1)  |
//! | `HELIX_DATA_CHUNK_ROWS` | Rows per data chunk (≥ 1); default = 512  |

use crate::store::Durability;

/// Parses an environment variable as a positive integer; `None` when
/// unset, unparseable, or zero.
fn positive(var: &str) -> Option<usize> {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// `HELIX_PARALLELISM`, defaulting to the machine's available
/// parallelism. (The CI equivalence matrix forces `1` and `2` this way.)
pub fn parallelism() -> usize {
    positive("HELIX_PARALLELISM").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// `HELIX_PARTITION_ROWS`, defaulting to
/// [`DEFAULT_PARTITION_ROWS`](crate::scheduler::DEFAULT_PARTITION_ROWS).
pub fn partition_rows() -> usize {
    positive("HELIX_PARTITION_ROWS").unwrap_or(crate::scheduler::DEFAULT_PARTITION_ROWS)
}

/// `HELIX_DURABILITY` (`volatile` | `wal` | `wal-nosync`, the last two
/// one tier), defaulting to [`Durability::Volatile`]. An unrecognized
/// value warns and falls back to volatile rather than refusing to start.
pub fn durability() -> Durability {
    match std::env::var("HELIX_DURABILITY") {
        Ok(value) => Durability::from_env_value(&value).unwrap_or_else(|| {
            eprintln!(
                "helix: unrecognized HELIX_DURABILITY value `{value}` \
                 (expected volatile | wal | wal-nosync); using volatile"
            );
            Durability::Volatile
        }),
        Err(_) => Durability::Volatile,
    }
}

/// `HELIX_REPLAN_FACTOR`: the adaptive re-plan divergence factor,
/// defaulting to [`DEFAULT_REPLAN_FACTOR`]. Values below 1 (and
/// unparseable ones) warn and fall back to the default; `0` or `inf`
/// disable re-planning via [`f64::INFINITY`].
pub fn replan_factor() -> f64 {
    match std::env::var("HELIX_REPLAN_FACTOR") {
        Ok(value) => match value.parse::<f64>() {
            Ok(n) if n == 0.0 || n.is_infinite() => f64::INFINITY,
            Ok(n) if n.is_finite() && n >= 1.0 => n,
            _ => {
                eprintln!(
                    "helix: unrecognized HELIX_REPLAN_FACTOR value `{value}` \
                     (expected a number ≥ 1, or 0/inf to disable); using {DEFAULT_REPLAN_FACTOR}"
                );
                DEFAULT_REPLAN_FACTOR
            }
        },
        Err(_) => DEFAULT_REPLAN_FACTOR,
    }
}

/// `HELIX_DATA_CHUNK_ROWS`: non-blank lines per data chunk for
/// incremental signing (see [`crate::data`]), defaulting to
/// [`crate::data::DEFAULT_DATA_CHUNK_ROWS`].
pub fn data_chunk_rows() -> usize {
    positive("HELIX_DATA_CHUNK_ROWS").unwrap_or(crate::data::DEFAULT_DATA_CHUNK_ROWS)
}

/// Fallback for [`replan_factor`] when `HELIX_REPLAN_FACTOR` is unset:
/// re-plan only on a 4× divergence between observed and estimated cost —
/// large enough that ordinary timing noise never churns plans, small
/// enough that a badly mis-estimated operator is corrected after one
/// sighting.
pub const DEFAULT_REPLAN_FACTOR: f64 = 4.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_values_parse() {
        assert_eq!(
            Durability::from_env_value("volatile"),
            Some(Durability::Volatile)
        );
        assert_eq!(Durability::from_env_value("WAL"), Some(Durability::Wal));
        assert_eq!(
            Durability::from_env_value("wal-nosync"),
            Some(Durability::Wal)
        );
        assert_eq!(Durability::from_env_value("bogus"), None);
    }
}
