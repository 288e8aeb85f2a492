//! Environment knobs of the bench targets (`MIDAS_*`, see the README knob
//! table), read through the one reader in [`midas::runner`].
//!
//! An unset knob takes the bench's default.  A set value that does not
//! parse, or is not UTF-8, stops the bench with exit status 2 and a message
//! naming the knob and the value, so a typo never silently runs the
//! default workload.

use std::str::FromStr;

/// Reads knob `name`: `None` when unset; exits with status 2 when it is
/// set but does not parse.
pub fn env_knob<T: FromStr>(name: &str) -> Option<T> {
    midas::runner::knob(name).unwrap_or_else(|message| exit_usage(&message))
}

/// Reads the comma-separated knob list `name`, or `default` when unset;
/// exits with status 2 when an entry does not parse.
pub fn env_list<T: FromStr>(name: &str, default: &str) -> Vec<T> {
    midas::runner::knob_list(name, default).unwrap_or_else(|message| exit_usage(&message))
}

fn exit_usage(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}
