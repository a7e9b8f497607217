//! Environment knobs shared by every experiment entry point.
//!
//! The single definition `strata bench` and `strata fleet serve` read
//! their workload defaults from (the `--scale` / `--variant` flags
//! override them).
//!
//! * `STRATA_SCALE` — linear workload scale factor (default 1; must be
//!   a positive integer).
//! * `STRATA_VARIANT` — workload instance selector (default 0). Non-zero
//!   values perturb every workload generator's RNG seed, producing a
//!   statistically equivalent but distinct program instance; fig17
//!   quantifies the resulting sensitivity.
//!
//! A set but malformed value is an error naming the variable, never a
//! silent fallback to the default: a typo must not measure a different
//! workload.

use strata_workloads::Params;

/// Parsed environment knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvKnobs {
    /// Workload scale factor (`STRATA_SCALE`, default 1).
    pub scale: u32,
    /// Workload instance selector (`STRATA_VARIANT`, default 0).
    pub variant: u64,
}

impl EnvKnobs {
    /// Reads the knobs from the process environment.
    ///
    /// # Errors
    ///
    /// Returns a message naming the variable and its value when a knob is
    /// set but not a valid number (`STRATA_SCALE` must also be at least 1).
    pub fn from_env() -> Result<EnvKnobs, String> {
        let var = |name: &str| match std::env::var(name) {
            Ok(v) => Ok(Some(v)),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(v)) => Err(format!("{name}={v:?} is not UTF-8")),
        };
        EnvKnobs::parse(
            var("STRATA_SCALE")?.as_deref(),
            var("STRATA_VARIANT")?.as_deref(),
        )
    }

    /// Parses the knob values (`None` = unset).
    fn parse(scale: Option<&str>, variant: Option<&str>) -> Result<EnvKnobs, String> {
        let scale = match scale {
            None => 1,
            Some(v) => v
                .parse()
                .ok()
                .filter(|&s| s >= 1)
                .ok_or_else(|| format!("STRATA_SCALE=`{v}` is not a positive integer"))?,
        };
        let variant = match variant {
            None => 0,
            Some(v) => v
                .parse()
                .map_err(|_| format!("STRATA_VARIANT=`{v}` is not an unsigned integer"))?,
        };
        Ok(EnvKnobs { scale, variant })
    }

    /// The workload parameters these knobs select.
    pub fn params(&self) -> Params {
        Params {
            scale: self.scale,
            variant: self.variant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_knobs_are_the_defaults() {
        let k = EnvKnobs::parse(None, None).unwrap();
        assert_eq!(
            k.params(),
            Params {
                scale: 1,
                variant: 0
            }
        );
        let k = EnvKnobs::parse(Some("4"), Some("7")).unwrap();
        assert_eq!((k.scale, k.variant), (4, 7));
    }

    #[test]
    fn malformed_knobs_are_errors_naming_the_variable() {
        for (scale, variant, needle) in [
            (Some("abc"), None, "STRATA_SCALE=`abc`"),
            (Some("0"), None, "STRATA_SCALE=`0`"),
            (None, Some("x1"), "STRATA_VARIANT=`x1`"),
            (None, Some("-1"), "STRATA_VARIANT=`-1`"),
        ] {
            let err = EnvKnobs::parse(scale, variant).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }
}
