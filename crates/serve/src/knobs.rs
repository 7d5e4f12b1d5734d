//! The `PIPEFAIL_*` environment-knob readers shared by
//! [`crate::ServerConfig::from_env`] and [`crate::FedConfig::from_env`].
//!
//! One rule everywhere: an unset or unparsable value yields `None`, so the
//! caller keeps its default. Each parser below is a plain `&str` →
//! `Option<T>` function; [`env`] and [`apply`] read the variable and run
//! one of them.

/// Read `key` from the environment and parse it; `None` when unset or
/// rejected by `parse`.
pub(crate) fn env<T>(key: &str, parse: fn(&str) -> Option<T>) -> Option<T> {
    std::env::var(key).ok().and_then(|v| parse(&v))
}

/// Overwrite `field` with the parsed value of `key`, if it is set and
/// valid; otherwise leave the default in place.
pub(crate) fn apply<T>(field: &mut T, key: &str, parse: fn(&str) -> Option<T>) {
    if let Some(v) = env(key, parse) {
        *field = v;
    }
}

/// A strictly positive float (timeouts, intervals).
pub(crate) fn positive_f64(v: &str) -> Option<f64> {
    v.parse::<f64>().ok().filter(|t| *t > 0.0)
}

/// A float that may be zero (`0` switches the feature off).
pub(crate) fn non_negative_f64(v: &str) -> Option<f64> {
    v.parse::<f64>().ok().filter(|t| *t >= 0.0)
}

/// Any unsigned integer, zero included.
pub(crate) fn uint<T: std::str::FromStr>(v: &str) -> Option<T> {
    v.parse::<T>().ok()
}

/// A strictly positive `usize` (byte budgets).
pub(crate) fn positive_usize(v: &str) -> Option<usize> {
    v.parse::<usize>().ok().filter(|n| *n > 0)
}

/// An on/off switch: `on`/`1`/`true` or `off`/`0`/`false`, any case.
pub(crate) fn switch(v: &str) -> Option<bool> {
    match v.to_ascii_lowercase().as_str() {
        "on" | "1" | "true" => Some(true),
        "off" | "0" | "false" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every helper over the same input table: unset (an env key nobody
    /// sets), garbage, zero, negative, and a valid value.
    #[test]
    fn every_helper_over_unset_garbage_zero_negative_and_valid() {
        const UNSET: &str = "PIPEFAIL_KNOBS_TEST_NEVER_SET";
        assert_eq!(env(UNSET, positive_f64), None);
        assert_eq!(env(UNSET, non_negative_f64), None);
        assert_eq!(env(UNSET, uint::<u64>), None);
        assert_eq!(env(UNSET, positive_usize), None);
        assert_eq!(env(UNSET, switch), None);
        let mut field = 7usize;
        apply(&mut field, UNSET, uint);
        assert_eq!(field, 7, "an unset knob keeps the default");

        type Row = (
            &'static str,
            Option<f64>,
            Option<f64>,
            Option<u64>,
            Option<usize>,
            Option<bool>,
        );
        // input, positive_f64, non_negative_f64, uint, positive_usize, switch
        let table: [Row; 8] = [
            ("garbage", None, None, None, None, None),
            ("", None, None, None, None, None),
            ("0", None, Some(0.0), Some(0), None, Some(false)),
            ("-1", None, None, None, None, None),
            ("-0.5", None, None, None, None, None),
            ("2.5", Some(2.5), Some(2.5), None, None, None),
            ("12", Some(12.0), Some(12.0), Some(12), Some(12), None),
            ("1", Some(1.0), Some(1.0), Some(1), Some(1), Some(true)),
        ];
        for (input, pos, nonneg, u, posu, sw) in table {
            assert_eq!(positive_f64(input), pos, "positive_f64({input:?})");
            assert_eq!(
                non_negative_f64(input),
                nonneg,
                "non_negative_f64({input:?})"
            );
            assert_eq!(uint::<u64>(input), u, "uint({input:?})");
            assert_eq!(positive_usize(input), posu, "positive_usize({input:?})");
            assert_eq!(switch(input), sw, "switch({input:?})");
        }
        // The switch spellings, case-insensitively.
        for on in ["on", "ON", "true", "True"] {
            assert_eq!(switch(on), Some(true), "{on}");
        }
        for off in ["off", "Off", "false", "FALSE"] {
            assert_eq!(switch(off), Some(false), "{off}");
        }
    }
}
