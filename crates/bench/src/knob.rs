//! Environment knobs of the bench targets (`MIDAS_*`, see the README knob
//! table).
//!
//! An unset knob takes the bench's default.  A set value that does not
//! parse stops the bench with exit status 2 and a message naming the knob
//! and the value, so a typo never silently runs the default workload.

use std::env::VarError;
use std::str::FromStr;

/// Parses one knob value; `Ok(None)` when the knob is unset.
fn parse_knob<T: FromStr>(name: &str, value: Option<&str>) -> Result<Option<T>, String> {
    value
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|_| format!("{name}: cannot parse {v:?}"))
        })
        .transpose()
}

/// Parses a comma-separated knob list; blank entries are skipped.
fn parse_knob_list<T: FromStr>(name: &str, value: &str) -> Result<Vec<T>, String> {
    value
        .split(',')
        .map(str::trim)
        .filter(|entry| !entry.is_empty())
        .map(|entry| {
            entry
                .parse()
                .map_err(|_| format!("{name}: cannot parse entry {entry:?} of {value:?}"))
        })
        .collect()
}

/// Reads knob `name`: `None` when unset; exits with status 2 when it is
/// set but does not parse.
pub fn env_knob<T: FromStr>(name: &str) -> Option<T> {
    let value = env_value(name);
    parse_knob(name, value.as_deref()).unwrap_or_else(|message| exit_usage(&message))
}

/// Reads the comma-separated knob list `name`, or `default` when unset;
/// exits with status 2 when an entry does not parse.
pub fn env_list<T: FromStr>(name: &str, default: &str) -> Vec<T> {
    let value = env_value(name).unwrap_or_else(|| default.to_string());
    parse_knob_list(name, &value).unwrap_or_else(|message| exit_usage(&message))
}

fn env_value(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(value) => Some(value),
        Err(VarError::NotPresent) => None,
        Err(VarError::NotUnicode(value)) => {
            exit_usage(&format!("{name}: {value:?} is not valid UTF-8"))
        }
    }
}

fn exit_usage(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_knob_reads_valid_values_and_unset_knobs() {
        assert_eq!(parse_knob::<usize>("ROUNDS", Some(" 12 ")), Ok(Some(12)));
        assert_eq!(parse_knob::<f64>("SPEED", Some("1.4")), Ok(Some(1.4)));
        assert_eq!(parse_knob::<usize>("ROUNDS", None), Ok(None));
    }

    #[test]
    fn parse_knob_names_the_knob_and_the_bad_value() {
        let err = parse_knob::<usize>("ROUNDS", Some("ten")).unwrap_err();
        assert_eq!(err, "ROUNDS: cannot parse \"ten\"");
        assert!(parse_knob::<usize>("ROUNDS", Some("-1")).is_err());
        assert!(parse_knob::<f64>("SPEED", Some("")).is_err());
    }

    #[test]
    fn parse_knob_list_skips_blanks_and_rejects_bad_entries() {
        assert_eq!(
            parse_knob_list::<f64>("DUTY", "0.5, 1.0,,"),
            Ok(vec![0.5, 1.0])
        );
        assert_eq!(parse_knob_list::<usize>("APS", ""), Ok(vec![]));
        assert_eq!(
            parse_knob_list::<String>("NAMES", "a, b"),
            Ok(vec!["a".to_string(), "b".to_string()])
        );
        let err = parse_knob_list::<f64>("DUTY", "0.5,x").unwrap_err();
        assert_eq!(err, "DUTY: cannot parse entry \"x\" of \"0.5,x\"");
    }
}
